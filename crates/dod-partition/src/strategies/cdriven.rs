//! The CDriven strategy: cost-driven partitioning (Section VI-A).
//!
//! "The cost-driven partitioning CDriven divides the dataset into
//! partitions with similar workload. The workload of each partition is
//! estimated utilizing our cost model (Sec. IV) with respect to the
//! selected detection algorithm." Implemented as recursive sample-median
//! splits prioritized by the Section IV cost of the detector the plan is
//! built for.

use crate::estimate::LocalCostEstimator;
use crate::plan::{PartitionPlan, PlanContext};
use crate::strategies::{splitter, PartitionStrategy};
use dod_core::{PointSet, Rect};
use dod_detect::cost::AlgorithmKind;

/// Cost-balanced recursive partitioning for a fixed detection algorithm.
#[derive(Debug, Clone, Copy)]
pub struct CDriven {
    kind: AlgorithmKind,
}

impl CDriven {
    /// Creates a cost-driven strategy balancing the cost model of `kind`.
    pub fn new(kind: AlgorithmKind) -> Self {
        CDriven { kind }
    }

    /// The detection algorithm whose cost model drives the splits.
    pub fn kind(&self) -> AlgorithmKind {
        self.kind
    }
}

impl Default for CDriven {
    fn default() -> Self {
        CDriven {
            kind: AlgorithmKind::NestedLoop,
        }
    }
}

impl PartitionStrategy for CDriven {
    fn name(&self) -> &'static str {
        "CDriven"
    }

    fn build_plan(&self, sample: &PointSet, domain: &Rect, ctx: &PlanContext) -> PartitionPlan {
        let kind = self.kind;
        let estimator = LocalCostEstimator::new(domain, sample, ctx.sample_rate, ctx.params, 32);
        splitter::recursive_split(sample, domain, ctx.target_partitions, &move |idxs, rect| {
            estimator
                .subset_cost(sample, idxs, kind, rect.volume())
                .cost
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::assignment_makespan;
    use dod_core::OutlierParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Mixed-density sample: a dense blob plus a sparse background.
    fn skewed_sample(seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = PointSet::new(2).unwrap();
        for _ in 0..800 {
            s.push(&[rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)])
                .unwrap();
        }
        for _ in 0..200 {
            s.push(&[rng.gen_range(2.0..20.0), rng.gen_range(0.0..20.0)])
                .unwrap();
        }
        s
    }

    #[test]
    fn balances_cost_not_cardinality() {
        let sample = skewed_sample(3);
        let domain = Rect::new(vec![0.0, 0.0], vec![20.0, 20.0]).unwrap();
        let params = OutlierParams::new(0.5, 4).unwrap();
        let ctx = PlanContext::new(params, 16, 1.0);
        let plan = CDriven::new(AlgorithmKind::NestedLoop).build_plan(&sample, &domain, &ctx);
        assert_eq!(plan.num_partitions(), 16);

        // Evaluate predicted cost balance of CDriven vs DDriven under the
        // same estimator CDriven optimizes.
        let estimator = LocalCostEstimator::new(&domain, &sample, 1.0, params, 32);
        let costs_of = |plan: &PartitionPlan| -> Vec<f64> {
            estimator
                .estimate(plan, &sample, &[AlgorithmKind::NestedLoop])
                .into_iter()
                .map(|e| e.candidates[0].cost)
                .collect()
        };
        let c_costs = costs_of(&plan);
        let d_plan = crate::strategies::DDriven.build_plan(&sample, &domain, &ctx);
        let d_costs = costs_of(&d_plan);
        // Same number of bins; the cost-driven plan's most expensive
        // partition must not exceed the data-driven plan's.
        let ident: Vec<usize> = (0..16).collect();
        let c_max = assignment_makespan(&c_costs, 16, &ident);
        let d_max = assignment_makespan(&d_costs, 16, &ident);
        assert!(
            c_max <= d_max * 1.05,
            "cost-driven max {c_max} should not exceed data-driven max {d_max}"
        );
    }

    #[test]
    fn default_is_nested_loop() {
        assert_eq!(CDriven::default().kind(), AlgorithmKind::NestedLoop);
        assert_eq!(CDriven::default().name(), "CDriven");
        assert!(CDriven::default().uses_support_area());
    }

    #[test]
    fn works_with_cell_based_model() {
        let sample = skewed_sample(5);
        let domain = Rect::new(vec![0.0, 0.0], vec![20.0, 20.0]).unwrap();
        let ctx = PlanContext::new(OutlierParams::new(0.5, 4).unwrap(), 8, 1.0);
        let plan = CDriven::new(AlgorithmKind::CellBased).build_plan(&sample, &domain, &ctx);
        assert!(plan.num_partitions() <= 8);
        assert!(plan.num_partitions() >= 1);
    }
}
