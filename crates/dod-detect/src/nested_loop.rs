//! The Nested-Loop detector (Section IV-A).
//!
//! For each core point `p`, candidates are examined in random order until
//! either `k` neighbors are found (`p` is an inlier) or every point has
//! been examined (`p` is an outlier). The expected number of trials for an
//! inlier is `k/μ` where `μ = A(p)/A(D)` is the hit probability — exactly
//! the quantity Lemma 4.1 models — so the algorithm is fast on dense data
//! and slow on sparse data.
//!
//! Randomization is implemented by drawing one global random permutation of
//! the candidate indices per `detect` call and starting each point's scan
//! at a per-point random offset into it. This preserves the uniform-trial
//! analysis while costing O(total) setup instead of O(n·total).

use crate::detector::{Detection, DetectionStats, Detector};
use crate::partition::Partition;
use crate::scan::PermutedScan;
use dod_core::OutlierParams;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Randomized nested-loop detector.
#[derive(Debug, Clone, Copy)]
pub struct NestedLoop {
    seed: u64,
}

impl NestedLoop {
    /// Creates a detector with the given RNG seed (detection output is
    /// seed-independent; only the order of comparisons varies).
    pub fn new(seed: u64) -> Self {
        NestedLoop { seed }
    }
}

impl Default for NestedLoop {
    fn default() -> Self {
        NestedLoop::new(0xD0D_0001)
    }
}

impl Detector for NestedLoop {
    fn name(&self) -> &'static str {
        "nested-loop"
    }

    fn detect(&self, partition: &Partition, params: OutlierParams) -> Detection {
        let n = partition.core().len();
        let total = partition.total_len();
        let mut outliers = Vec::new();
        let mut evals = 0u64;

        if n == 0 {
            return Detection::default();
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<u32> = (0..total as u32).collect();
        order.shuffle(&mut rng);

        // Gather the permutation into a contiguous columnar buffer once,
        // so every per-point scan feeds the tile kernels instead of doing
        // a bounds-checked random access per candidate. Scan order and
        // early-exit positions are identical to the scalar pair loop.
        let scan = PermutedScan::new(partition, &order);
        let pred = params.predicate();

        let mut early_terminations = 0u64;
        for i in 0..n {
            let p = partition.core().point(i);
            let start = rng.gen_range(0..total);
            let (found, scanned) = scan.count_cycle(&pred, p, start, i, params.k);
            evals += scanned;
            if found >= params.k {
                early_terminations += 1;
            } else {
                outliers.push(partition.core_id(i));
            }
        }
        outliers.sort_unstable();
        Detection {
            outliers,
            stats: DetectionStats {
                distance_evaluations: evals,
                early_terminations,
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{params, random_partition};
    use crate::reference::Reference;
    use dod_core::PointSet;
    use proptest::prelude::*;

    #[test]
    fn matches_reference_on_random_data() {
        for seed in 0..10 {
            let p = random_partition(seed, 120, 30, 10.0);
            let prm = params(1.0, 4);
            let nl = NestedLoop::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            assert_eq!(nl.outliers, rf.outliers, "seed {seed}");
        }
    }

    #[test]
    fn output_is_seed_independent() {
        let p = random_partition(7, 200, 0, 5.0);
        let prm = params(0.5, 3);
        let a = NestedLoop::new(1).detect(&p, prm);
        let b = NestedLoop::new(999).detect(&p, prm);
        assert_eq!(a.outliers, b.outliers);
    }

    #[test]
    fn isolated_point_found() {
        let pts = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.1), (0.2, 0.0), (50.0, 50.0)]);
        let det = NestedLoop::default().detect(&Partition::standalone(pts), params(1.0, 2));
        assert_eq!(det.outliers, vec![3]);
    }

    #[test]
    fn empty_partition() {
        let det = NestedLoop::default().detect(
            &Partition::standalone(PointSet::new(2).unwrap()),
            params(1.0, 1),
        );
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn dense_data_needs_fewer_evaluations_than_sparse() {
        // The Figure 4 observation: same cardinality, 4x density ratio ->
        // markedly less work on the dense set.
        let n = 2000;
        let dense = random_partition(3, n, 0, 50.0); // area 2500
        let sparse = random_partition(4, n, 0, 100.0); // area 10000
        let prm = params(2.0, 4);
        let d = NestedLoop::default().detect(&dense, prm);
        let s = NestedLoop::default().detect(&sparse, prm);
        assert!(
            s.stats.distance_evaluations > 2 * d.stats.distance_evaluations,
            "sparse {} vs dense {}",
            s.stats.distance_evaluations,
            d.stats.distance_evaluations
        );
    }

    #[test]
    fn support_points_count_as_neighbors_but_not_reported() {
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::from_xy(&[(0.3, 0.0), (0.0, 0.3)]);
        let p = Partition::new(core, vec![5], support, vec![6, 7]).unwrap();
        let det = NestedLoop::default().detect(&p, params(1.0, 2));
        assert!(det.outliers.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn equivalent_to_reference(
            seed in 0u64..1000,
            n_core in 0usize..60,
            n_support in 0usize..20,
            r in 0.2f64..3.0,
            k in 1usize..6,
        ) {
            let p = random_partition(seed, n_core, n_support, 8.0);
            let prm = params(r, k);
            let nl = NestedLoop::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            prop_assert_eq!(nl.outliers, rf.outliers);
        }
    }
}
