//! Locality-aware cost estimation.
//!
//! The Section IV cost models (Lemmas 4.1/4.2) describe a partition by a
//! single average density. Real partitions — especially those produced by
//! grid or cardinality splits over skewed data — mix densities, and the
//! per-point cost of every detector is driven by the density *around the
//! point*, not the partition average. The [`LocalCostEstimator`] therefore
//! aggregates per-point costs using mini-bucket local densities, and adds
//! the constant per-partition task overhead a real reducer pays. It is
//! calibrated against the detectors as implemented in `dod-detect` (e.g.
//! the block-restricted Cell-Based fallback).
//!
//! It is the one planner path: every plan's candidates are priced here
//! and the plan is built by
//! [`MultiTacticPlan::from_estimates`](crate::plan::MultiTacticPlan::from_estimates);
//! CDriven splits by [`LocalCostEstimator::subset_cost`]. The paper's
//! model ([`CostModel`]) remains the reference: the `ablation_cost_model`
//! bench prices one run's partitions under both and correlates each with
//! the measured reduce times and the counted work.

use crate::minibucket::{clamp_buckets_per_dim, MiniBucketGrid};
use crate::plan::{CandidateCost, PartitionPlan};
use dod_core::{OutlierParams, PointSet, Rect};
use dod_detect::cost::{AlgorithmKind, CostModel, CostTerms};

/// Abstract work units charged per partition independent of its content
/// (task setup, partition materialization, detector construction),
/// expressed in distance-evaluation equivalents.
pub const PARTITION_OVERHEAD_OPS: f64 = 20_000.0;

/// Mini buckets per dimension of the density grid every estimate reads,
/// before [`clamp_buckets_per_dim`] reduces it in high dimensions.
pub const ESTIMATOR_BUCKETS_PER_DIM: usize = 32;

/// Per-partition cost estimates for every candidate algorithm.
#[derive(Debug, Clone)]
pub struct PartitionEstimate {
    /// Estimated real cardinality.
    pub n_est: f64,
    /// Hit probability `μ = A(p)/A(D)` of the partition (Lemma 4.1's
    /// density term), recorded for plan introspection.
    pub hit_mu: f64,
    /// Every candidate's estimated cost and raw op counts, in candidate
    /// order.
    pub candidates: Vec<CandidateCost>,
}

impl PartitionEstimate {
    /// The cheapest candidate, ties broken in favor of the earlier one.
    pub fn best(&self) -> CandidateCost {
        *self
            .candidates
            .iter()
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .expect("at least one candidate")
    }
}

/// Bucket-density-based cost estimator.
#[derive(Debug, Clone)]
pub struct LocalCostEstimator {
    buckets: MiniBucketGrid,
    params: OutlierParams,
    /// 1 / sampling rate: each sample point stands for this many points.
    scale: f64,
    ball: f64,
}

impl LocalCostEstimator {
    /// Builds the estimator from the preprocessing sample, over a grid of
    /// [`ESTIMATOR_BUCKETS_PER_DIM`] mini buckets per dimension (the same
    /// mini buckets DSHC uses, clamped the same way).
    pub fn new(domain: &Rect, sample: &PointSet, sample_rate: f64, params: OutlierParams) -> Self {
        let per_dim = clamp_buckets_per_dim(ESTIMATOR_BUCKETS_PER_DIM, domain.dim());
        let buckets = MiniBucketGrid::build(domain, per_dim, sample)
            .expect("sample and domain dimensions agree");
        let scale = if sample_rate > 0.0 {
            1.0 / sample_rate
        } else {
            1.0
        };
        LocalCostEstimator {
            buckets,
            params,
            scale,
            ball: params.metric.ball_volume(domain.dim(), params.r),
        }
    }

    /// The real-point density around `p`.
    fn local_density(&self, p: &[f64]) -> f64 {
        self.buckets.density_at(p) * self.scale
    }

    /// Estimates every partition of `plan` for the given `candidates`.
    pub fn estimate(
        &self,
        plan: &PartitionPlan,
        sample: &PointSet,
        candidates: &[AlgorithmKind],
    ) -> Vec<PartitionEstimate> {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let m = plan.num_partitions();
        // Bucket sample points by partition.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (i, p) in sample.iter().enumerate() {
            members[plan.locate(p) as usize].push(i as u32);
        }
        (0..m)
            .map(|pid| {
                let idxs = &members[pid];
                let n_est = idxs.len() as f64 * self.scale;
                let volume = plan.rect(pid).volume();
                let hit_mu = if volume <= 0.0 {
                    1.0
                } else {
                    (self.ball / volume).min(1.0)
                };
                PartitionEstimate {
                    n_est,
                    hit_mu,
                    candidates: (candidates.iter())
                        .map(|&kind| self.subset_cost(sample, idxs, kind, volume))
                        .collect(),
                }
            })
            .collect()
    }

    /// Estimated cost of running `algorithm` over the region whose sample
    /// points are `idxs` and whose footprint volume is `volume`
    /// (including the per-partition overhead).
    pub fn subset_cost(
        &self,
        sample: &PointSet,
        idxs: &[u32],
        algorithm: AlgorithmKind,
        volume: f64,
    ) -> CandidateCost {
        let terms = self.subset_terms(sample, idxs, algorithm, volume);
        CandidateCost {
            algorithm,
            cost: terms.total() + PARTITION_OVERHEAD_OPS,
            terms,
        }
    }

    /// Pair/structural op counts of running `kind` over
    /// the region whose sample points are `idxs` — the terms behind
    /// [`LocalCostEstimator::subset_cost`], excluding the per-partition
    /// overhead.
    pub fn subset_terms(
        &self,
        sample: &PointSet,
        idxs: &[u32],
        kind: AlgorithmKind,
        volume: f64,
    ) -> CostTerms {
        let n_est = idxs.len() as f64 * self.scale;
        match kind {
            AlgorithmKind::NestedLoop => self.nested_loop_terms(sample, idxs, n_est),
            AlgorithmKind::CellBased => self.cell_based_terms(sample, idxs, n_est),
            AlgorithmKind::CellBasedFullScan => self.cell_based_full_terms(sample, idxs, n_est),
            // Index/reference: partition-level heuristics from the
            // paper-style model.
            other => {
                CostModel::new(self.params, sample.dim()).cost_terms(other, n_est as usize, volume)
            }
        }
    }

    /// Per-point Nested-Loop trial count at local density `rho`:
    /// outliers (fewer than `k` neighbors) exhaust the scan (`n_p`
    /// trials), inliers need `k / p_hit = k·n_p / neighbors`. The
    /// outlier event is Poisson-smoothed so the estimate has no cliff at
    /// `neighbors == k`.
    fn nl_per_point(&self, rho: f64, n_est: f64) -> f64 {
        let k = self.params.k as f64;
        let lambda = rho * self.ball; // expected neighbors (±1 for self)
        let p_outlier = poisson_cdf(self.params.k.saturating_sub(1), lambda);
        let inlier_trials = (k * n_est / lambda.max(k)).min(n_est);
        p_outlier * n_est + (1.0 - p_outlier) * inlier_trials
    }

    /// Sum of per-point Nested-Loop trial counts — pure pair ops.
    fn nested_loop_terms(&self, sample: &PointSet, idxs: &[u32], n_est: f64) -> CostTerms {
        if idxs.is_empty() || n_est <= 1.0 {
            return CostTerms::default();
        }
        let mut pair_ops = 0.0;
        for &i in idxs {
            let rho = self.local_density(sample.point(i as usize));
            pair_ops += self.nl_per_point(rho, n_est) * self.scale;
        }
        CostTerms {
            pair_ops,
            structural_ops: 0.0,
        }
    }

    /// The full-scan Cell-Based variant: indexing plus, for unpruned
    /// points, the Nested-Loop per-point trials — the Lemma 4.2 case-3
    /// charge, evaluated with local densities and Poisson-smoothed
    /// pruning.
    fn cell_based_full_terms(&self, sample: &PointSet, idxs: &[u32], n_est: f64) -> CostTerms {
        if idxs.is_empty() {
            return CostTerms::default();
        }
        let dim = sample.dim() as f64;
        // Indexing is structural; the surviving fallback scan is pair ops.
        let mut pair_ops = 0.0;
        for &i in idxs {
            let rho = self.local_density(sample.point(i as usize));
            let survive = self.unpruned_probability(rho, dim);
            pair_ops += survive * self.nl_per_point(rho, n_est) * self.scale;
        }
        CostTerms {
            pair_ops,
            structural_ops: 2.0 * n_est,
        }
    }

    /// Probability that a point's cell survives both pruning rules, with
    /// cell-block counts modelled as Poisson around their expectations
    /// (a deterministic threshold has a cliff exactly at the interesting
    /// densities; real counts fluctuate).
    fn unpruned_probability(&self, rho: f64, dim: f64) -> f64 {
        let k = self.params.k;
        let side = self
            .params
            .metric
            .cell_side_for(self.params.r, dim as usize);
        let cell_vol = side.powf(dim);
        let inlier_block = 3f64.powf(dim) * cell_vol;
        let m_radius = (self.params.r / side).ceil();
        let candidate_block = (2.0 * m_radius + 1.0).powf(dim) * cell_vol;
        // Inlier rule prunes when the 3^d block holds > k points
        // (including the point itself): P(Pois(λ1) >= k).
        let p_inlier = 1.0 - poisson_cdf(k.saturating_sub(1), inlier_block * rho);
        // Outlier rule prunes when the candidate block holds <= k points:
        // P(Pois(λ2) <= k - 1).
        let p_outlier = poisson_cdf(k.saturating_sub(1), candidate_block * rho);
        (1.0 - p_inlier - p_outlier).clamp(0.0, 1.0)
    }

    /// Indexing (`~2 ops/point`) plus per-point candidate-block work with
    /// the two pruning rules short-circuiting, mirroring the
    /// block-restricted implementation.
    fn cell_based_terms(&self, sample: &PointSet, idxs: &[u32], n_est: f64) -> CostTerms {
        if idxs.is_empty() {
            return CostTerms::default();
        }
        let dim = sample.dim() as f64;
        let side = self
            .params
            .metric
            .cell_side_for(self.params.r, sample.dim());
        let cell_vol = side.powf(dim);
        let m_radius = (self.params.r / side).ceil();
        let candidate_block = (2.0 * m_radius + 1.0).powf(dim) * cell_vol;
        // Hashing + cell bookkeeping is structural; the candidate-block
        // scan performs distance predicates (pair ops).
        let mut pair_ops = 0.0;
        for &i in idxs {
            let rho = self.local_density(sample.point(i as usize));
            let survive = self.unpruned_probability(rho, dim);
            let per_point = survive * (candidate_block * rho).min(n_est);
            pair_ops += per_point * self.scale;
        }
        CostTerms {
            pair_ops,
            structural_ops: 2.0 * n_est,
        }
    }
}

/// `P(Pois(λ) <= k)` by direct summation (exact for the small `k` of
/// outlier parameters; underflows to 0 for large `λ`, which is the
/// correct limit).
fn poisson_cdf(k: usize, lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    if !lambda.is_finite() {
        return 0.0; // infinite density: the CDF mass is at infinity
    }
    let mut term = (-lambda).exp();
    let mut acc = term;
    for i in 1..=k {
        term *= lambda / i as f64;
        acc += term;
    }
    acc.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::GridSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(r: f64, k: usize) -> OutlierParams {
        OutlierParams::new(r, k).unwrap()
    }

    /// Dense blob + sparse background over a 40x40 domain.
    fn skewed_sample(seed: u64) -> (PointSet, Rect) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = PointSet::new(2).unwrap();
        for _ in 0..4000 {
            s.push(&[rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])
                .unwrap();
        }
        for _ in 0..500 {
            s.push(&[rng.gen_range(4.0..40.0), rng.gen_range(0.0..40.0)])
                .unwrap();
        }
        (s, Rect::new(vec![0.0, 0.0], vec![40.0, 40.0]).unwrap())
    }

    #[test]
    fn estimates_cover_every_partition_and_candidate() {
        let (sample, domain) = skewed_sample(1);
        let est = LocalCostEstimator::new(&domain, &sample, 1.0, params(1.0, 4));
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 4).unwrap());
        let out = est.estimate(
            &plan,
            &sample,
            &[AlgorithmKind::NestedLoop, AlgorithmKind::CellBased],
        );
        assert_eq!(out.len(), 16);
        let total: f64 = out.iter().map(|e| e.n_est).sum();
        assert_eq!(total, 4500.0);
        for e in &out {
            assert_eq!(e.candidates.len(), 2);
            assert!(e
                .candidates
                .iter()
                .all(|c| c.cost.is_finite() && c.cost >= 0.0));
        }
    }

    #[test]
    fn dense_partition_cheaper_than_sparse_for_nested_loop() {
        let (sample, domain) = skewed_sample(2);
        let est = LocalCostEstimator::new(&domain, &sample, 1.0, params(1.0, 4));
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 4).unwrap());
        let out = est.estimate(&plan, &sample, &[AlgorithmKind::NestedLoop]);
        // Partition containing the dense blob (cell 0) vs a moderate
        // background partition: per-POINT cost must be far lower in the
        // blob.
        let blob = &out[plan.locate(&[2.0, 2.0]) as usize];
        let bg = &out[plan.locate(&[25.0, 25.0]) as usize];
        let blob_per_point = blob.candidates[0].cost / blob.n_est.max(1.0);
        let bg_per_point = bg.candidates[0].cost / bg.n_est.max(1.0);
        assert!(
            blob_per_point < bg_per_point,
            "blob {blob_per_point} vs background {bg_per_point}"
        );
    }

    #[test]
    fn cell_based_prunes_dense_blob() {
        let (sample, domain) = skewed_sample(3);
        let est = LocalCostEstimator::new(&domain, &sample, 1.0, params(1.0, 4));
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 4).unwrap());
        let out = est.estimate(&plan, &sample, &[AlgorithmKind::CellBased]);
        let blob = &out[plan.locate(&[2.0, 2.0]) as usize];
        // The blob (density 250/u², inlier-prunable at r=1) costs ~2 ops
        // per point plus overhead.
        assert!(
            blob.candidates[0].cost <= PARTITION_OVERHEAD_OPS + 3.0 * blob.n_est,
            "blob CB cost {} too high",
            blob.candidates[0].cost
        );
    }

    #[test]
    fn empty_partition_costs_only_overhead() {
        // Background starts at x=5 — aligned with the 8x8 grid's 5-wide
        // cells — so the top-left corner cell [0,5)x[35,40) is empty by
        // construction, not merely with high probability.
        let mut rng = StdRng::seed_from_u64(4);
        let mut sample = PointSet::new(2).unwrap();
        for _ in 0..4000 {
            sample
                .push(&[rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)])
                .unwrap();
        }
        for _ in 0..500 {
            sample
                .push(&[rng.gen_range(5.0..40.0), rng.gen_range(0.0..40.0)])
                .unwrap();
        }
        let domain = Rect::new(vec![0.0, 0.0], vec![40.0, 40.0]).unwrap();
        let est = LocalCostEstimator::new(&domain, &sample, 1.0, params(1.0, 4));
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain.clone(), 8).unwrap());
        let out = est.estimate(
            &plan,
            &sample,
            &[AlgorithmKind::NestedLoop, AlgorithmKind::CellBased],
        );
        let empty = &out[plan.locate(&[0.5, 39.5]) as usize];
        assert_eq!(empty.n_est, 0.0);
        for c in &empty.candidates {
            assert_eq!(c.cost, PARTITION_OVERHEAD_OPS);
        }
    }

    #[test]
    fn sampling_rate_scales_estimates() {
        let (sample, domain) = skewed_sample(5);
        // Pretend the sample is a 10% draw: n_est should scale 10x.
        let est = LocalCostEstimator::new(&domain, &sample, 0.1, params(1.0, 4));
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 2).unwrap());
        let out = est.estimate(&plan, &sample, &[AlgorithmKind::NestedLoop]);
        let total: f64 = out.iter().map(|e| e.n_est).sum();
        assert!((total - 45_000.0).abs() < 1e-6);
    }

    #[test]
    fn poisson_cdf_values() {
        // P(Pois(0) <= k) = 1 for any k.
        assert_eq!(poisson_cdf(0, 0.0), 1.0);
        // P(Pois(1) <= 0) = e^-1.
        assert!((poisson_cdf(0, 1.0) - (-1.0f64).exp()).abs() < 1e-12);
        // P(Pois(2) <= 1) = e^-2 (1 + 2).
        assert!((poisson_cdf(1, 2.0) - 3.0 * (-2.0f64).exp()).abs() < 1e-12);
        // Large lambda underflows to ~0.
        assert!(poisson_cdf(3, 1e4) < 1e-100);
        // Infinite lambda (degenerate zero-volume buckets) is 0, not NaN.
        assert_eq!(poisson_cdf(3, f64::INFINITY), 0.0);
        // Monotone in k.
        assert!(poisson_cdf(5, 3.0) > poisson_cdf(2, 3.0));
    }

    #[test]
    fn pruning_probability_shape() {
        let (sample, domain) = skewed_sample(8);
        let est = LocalCostEstimator::new(&domain, &sample, 1.0, params(2.0, 4));
        // Extremes prune with near-certainty; the middle survives.
        let p_sparse = est.unpruned_probability(1e-6, 2.0);
        let p_dense = est.unpruned_probability(1e6, 2.0);
        let p_mid = est.unpruned_probability(1.0, 2.0);
        assert!(p_sparse < 0.01, "sparse {p_sparse}");
        assert!(p_dense < 0.01, "dense {p_dense}");
        assert!(p_mid > 0.3, "middle {p_mid}");
    }

    #[test]
    fn degenerate_all_identical_points_stay_finite() {
        // All points coincide: every bucket is zero-volume, densities are
        // infinite — costs must stay finite so packing can work.
        let mut sample = PointSet::new(2).unwrap();
        for _ in 0..50 {
            sample.push(&[5.0, 5.0]).unwrap();
        }
        let domain = Rect::new(vec![5.0, 5.0], vec![5.0, 5.0]).unwrap();
        let est = LocalCostEstimator::new(&domain, &sample, 1.0, params(1.0, 4));
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 1).unwrap());
        let out = est.estimate(
            &plan,
            &sample,
            &[
                AlgorithmKind::NestedLoop,
                AlgorithmKind::CellBased,
                AlgorithmKind::CellBasedFullScan,
            ],
        );
        for e in &out {
            for c in &e.candidates {
                assert!(c.cost.is_finite(), "{c:?}");
            }
        }
    }

    #[test]
    fn best_is_the_cheapest_earliest_candidate() {
        let candidate = |algorithm, cost| CandidateCost {
            algorithm,
            cost,
            terms: CostTerms::default(),
        };
        let mut e = PartitionEstimate {
            n_est: 10.0,
            hit_mu: 0.5,
            candidates: vec![
                candidate(AlgorithmKind::NestedLoop, 5.0),
                candidate(AlgorithmKind::CellBased, 3.0),
                candidate(AlgorithmKind::IndexBased, 3.0),
            ],
        };
        assert_eq!(e.best().algorithm, AlgorithmKind::CellBased);
        assert_eq!(e.best().cost, 3.0);
        e.candidates[0].cost = 3.0;
        assert_eq!(e.best().algorithm, AlgorithmKind::NestedLoop);
    }

    #[test]
    fn unit_weights_leave_estimates_bit_identical() {
        // Every op of either class costs one unit. Each candidate's cost,
        // summed over a 4x4 grid, pins the estimator's arithmetic bit for
        // bit.
        let (sample, domain) = skewed_sample(6);
        let est = LocalCostEstimator::new(&domain, &sample, 1.0, params(1.0, 4));
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 4).unwrap());
        let candidates = [
            AlgorithmKind::NestedLoop,
            AlgorithmKind::CellBased,
            AlgorithmKind::CellBasedFullScan,
        ];
        let out = est.estimate(&plan, &sample, &candidates);
        let sums: Vec<f64> = (0..candidates.len())
            .map(|i| out.iter().map(|e| e.candidates[i].cost).sum())
            .collect();
        assert_eq!(
            sums,
            [552942.1964509988, 331247.63961316703, 404091.745630324]
        );
    }
}
