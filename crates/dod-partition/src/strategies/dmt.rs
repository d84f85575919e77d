//! The DMT partitioning stage: density-aware multi-tactic plan generation
//! (Section V).
//!
//! Discretizes the domain into mini buckets, clusters them with DSHC, and
//! emits one partition per cluster. The `dod` pipeline prices this plan
//! with [`crate::estimate::LocalCostEstimator`] and builds the companion
//! algorithm/allocation plans with
//! [`crate::plan::MultiTacticPlan::from_estimates`].

use crate::dshc::{Dshc, DshcConfig};
use crate::minibucket::{clamp_buckets_per_dim, MiniBucketGrid};
use crate::plan::{PartitionPlan, PlanContext};
use crate::strategies::PartitionStrategy;
use dod_core::{PointSet, Rect};

/// Density-aware multi-tactic partitioning (DSHC over mini buckets).
#[derive(Debug, Clone, Copy)]
pub struct Dmt {
    /// Mini buckets per dimension (Section V-A stage 1), reduced in high
    /// dimensions by [`clamp_buckets_per_dim`].
    pub buckets_per_dim: usize,
    /// `Tdiff` as a fraction of the dataset's mean density
    /// (Definition 5.2, criterion 1).
    pub tdiff_factor: f64,
    /// `Tmax#` as a fraction of the dataset: no cluster may hold more
    /// than this share of the points (Definition 5.2, criterion 3 — the
    /// memory bound of one reducer, expressed relative to the input so
    /// the same configuration works at every scale). `1.0` disables the
    /// cap.
    pub max_fraction_per_partition: f64,
}

impl Dmt {
    /// Creates a DMT strategy with the given mini-bucket resolution.
    pub fn new(buckets_per_dim: usize) -> Self {
        Dmt {
            buckets_per_dim,
            ..Dmt::default()
        }
    }
}

impl Default for Dmt {
    fn default() -> Self {
        Dmt {
            buckets_per_dim: 32,
            tdiff_factor: 1.0,
            max_fraction_per_partition: 0.02,
        }
    }
}

impl PartitionStrategy for Dmt {
    fn name(&self) -> &'static str {
        "DMT"
    }

    fn build_plan(&self, sample: &PointSet, domain: &Rect, _ctx: &PlanContext) -> PartitionPlan {
        let per_dim = clamp_buckets_per_dim(self.buckets_per_dim, domain.dim());
        let buckets = MiniBucketGrid::build(domain, per_dim, sample)
            .expect("sample and domain dimensions agree");
        // Floor of 32 sample points so tiny samples don't shatter the
        // plan into per-bucket partitions.
        let max_sample_points = if self.max_fraction_per_partition >= 1.0 {
            u64::MAX
        } else {
            ((sample.len() as f64) * self.max_fraction_per_partition)
                .ceil()
                .max(32.0) as u64
        };
        let config = DshcConfig::relative(&buckets, self.tdiff_factor, max_sample_points);
        let clusters = Dshc::cluster(&buckets, &config);
        PartitionPlan::from_clusters(&buckets, &clusters)
            .expect("DSHC clusters tile the bucket grid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::OutlierParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx() -> PlanContext {
        PlanContext::new(OutlierParams::new(0.5, 4).unwrap(), 16, 1.0)
    }

    #[test]
    fn plan_covers_domain_and_locates_points() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut sample = PointSet::new(2).unwrap();
        for _ in 0..500 {
            sample
                .push(&[rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])
                .unwrap();
        }
        for _ in 0..50 {
            sample
                .push(&[rng.gen_range(4.0..16.0), rng.gen_range(0.0..16.0)])
                .unwrap();
        }
        let domain = Rect::new(vec![0.0, 0.0], vec![16.0, 16.0]).unwrap();
        let plan = Dmt::default().build_plan(&sample, &domain, &ctx());
        assert!(plan.num_partitions() >= 2);
        let counts = plan.count_sample(&sample);
        assert_eq!(counts.iter().sum::<u64>(), 550);
        for p in sample.iter() {
            let pid = plan.locate(p) as usize;
            assert!(plan.rect(pid).contains_closed(p));
        }
    }

    #[test]
    fn partitions_separate_density_regimes() {
        // Dense blob + empty space: the blob must not share a partition
        // with vast empty area.
        let mut sample = PointSet::new(2).unwrap();
        for i in 0..400 {
            sample
                .push(&[(i % 20) as f64 * 0.05, (i / 20) as f64 * 0.05])
                .unwrap();
        }
        let domain = Rect::new(vec![0.0, 0.0], vec![16.0, 16.0]).unwrap();
        let plan = Dmt::new(16).build_plan(&sample, &domain, &ctx());
        let counts = plan.count_sample(&sample);
        // The densest partition should be spatially small.
        let (densest, _) = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
        assert!(plan.rect(densest).volume() < domain.volume() / 4.0);
    }

    #[test]
    fn name_and_support() {
        assert_eq!(Dmt::default().name(), "DMT");
        assert!(Dmt::default().uses_support_area());
    }
}
