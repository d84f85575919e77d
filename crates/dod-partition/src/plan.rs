//! Partition plans, point routing, and the multi-tactic plan
//! (Section III-C, Section V).
//!
//! A [`PartitionPlan`] is a set of disjoint rectangles covering the domain
//! plus an O(1)–O(log m) [`Locator`] that maps a point to its core
//! partition. A [`Router`] adds the supporting-area routing of
//! Definition 3.3: for each point, the partitions it must be replicated
//! into. A [`MultiTacticPlan`] bundles the partition plan with the
//! per-partition algorithm plan (Definition 3.4) and the reducer
//! allocation plan (Section V-A step 3).

use crate::dshc::Cluster;
use crate::estimate::PartitionEstimate;
use crate::minibucket::MiniBucketGrid;
use crate::packing::{allocate, AllocationSpec, BalanceWeight};
use dod_core::{CoreError, GridSpec, OutlierParams, PointSet, Rect};
use dod_detect::cost::{AlgorithmKind, CostTerms};

/// Maps points to partitions.
#[derive(Debug, Clone)]
pub enum Locator {
    /// Partition id = grid cell id (Domain / uniSpace plans).
    Grid(GridSpec),
    /// Mini-bucket lookup table (DSHC plans): bucket cell → partition.
    Lut {
        /// The mini-bucket grid.
        grid: GridSpec,
        /// Partition id per bucket cell.
        lut: Vec<u32>,
    },
    /// Binary split tree (DDriven / CDriven plans).
    Tree(SplitTree),
}

/// A kd-style binary split tree over the domain.
#[derive(Debug, Clone, Default)]
pub struct SplitTree {
    nodes: Vec<SplitNode>,
}

/// One node of a [`SplitTree`].
#[derive(Debug, Clone)]
pub enum SplitNode {
    /// A leaf holding its partition id.
    Leaf(u32),
    /// An internal split: `x[dim] < at` goes left, else right.
    Split {
        /// Split dimension.
        dim: usize,
        /// Split coordinate.
        at: f64,
        /// Index of the left child node.
        left: u32,
        /// Index of the right child node.
        right: u32,
    },
}

impl SplitTree {
    /// Creates a tree from its node arena; node 0 is the root.
    ///
    /// # Panics
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<SplitNode>) -> Self {
        assert!(!nodes.is_empty(), "split tree needs at least a root");
        SplitTree { nodes }
    }

    /// The partition id of the leaf containing `x`.
    pub fn locate(&self, x: &[f64]) -> u32 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                SplitNode::Leaf(pid) => return *pid,
                SplitNode::Split {
                    dim,
                    at,
                    left,
                    right,
                } => {
                    node = if x[*dim] < *at {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }
}

/// A disjoint rectangular decomposition of the domain.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    domain: Rect,
    rects: Vec<Rect>,
    locator: Locator,
}

impl PartitionPlan {
    /// A plan whose partitions are exactly the cells of `grid`.
    pub fn from_grid(grid: GridSpec) -> Self {
        let rects = (0..grid.num_cells()).map(|i| grid.cell_rect(i)).collect();
        PartitionPlan {
            domain: grid.domain().clone(),
            rects,
            locator: Locator::Grid(grid),
        }
    }

    /// A plan built from DSHC clusters over a mini-bucket grid.
    ///
    /// # Errors
    /// Returns an error if the clusters do not exactly tile the bucket
    /// grid.
    pub fn from_clusters(
        buckets: &MiniBucketGrid,
        clusters: &[Cluster],
    ) -> Result<Self, CoreError> {
        let grid = buckets.grid().clone();
        let mut lut = vec![u32::MAX; grid.num_cells()];
        let mut rects = Vec::with_capacity(clusters.len());
        for (pid, cluster) in clusters.iter().enumerate() {
            rects.push(buckets.to_real_rect(&cluster.rect));
            // Paint every bucket of the cluster.
            let (lo, hi) = (cluster.rect.lo(), cluster.rect.hi());
            let mut covered_twice = None;
            grid.visit_block(
                |i| (lo[i] as usize, hi[i] as usize),
                |cell| {
                    if lut[cell] != u32::MAX {
                        covered_twice = Some(cell);
                        return false;
                    }
                    lut[cell] = pid as u32;
                    true
                },
            );
            if let Some(cell) = covered_twice {
                return Err(CoreError::InvalidParameter {
                    name: "clusters",
                    reason: format!("bucket {cell} covered twice"),
                });
            }
        }
        if lut.contains(&u32::MAX) {
            return Err(CoreError::InvalidParameter {
                name: "clusters",
                reason: "clusters do not cover every bucket".into(),
            });
        }
        Ok(PartitionPlan {
            domain: grid.domain().clone(),
            rects,
            locator: Locator::Lut { grid, lut },
        })
    }

    /// A plan defined by a split tree and the per-partition rectangles
    /// (index-aligned with the tree's leaf partition ids).
    pub fn from_split_tree(domain: Rect, tree: SplitTree, rects: Vec<Rect>) -> Self {
        PartitionPlan {
            domain,
            rects,
            locator: Locator::Tree(tree),
        }
    }

    /// The domain covered by the plan.
    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.rects.len()
    }

    /// Rectangle of partition `i`.
    pub fn rect(&self, i: usize) -> &Rect {
        &self.rects[i]
    }

    /// All partition rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Core partition of `x`.
    pub fn locate(&self, x: &[f64]) -> u32 {
        match &self.locator {
            Locator::Grid(grid) => grid.cell_of(x) as u32,
            Locator::Lut { grid, lut } => lut[grid.cell_of(x)],
            Locator::Tree(tree) => tree.locate(x),
        }
    }

    /// Sample count per partition.
    pub fn count_sample(&self, sample: &PointSet) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_partitions()];
        for p in sample.iter() {
            counts[self.locate(p) as usize] += 1;
        }
        counts
    }

    /// Builds the supporting-area router for threshold `r` under the
    /// Euclidean metric.
    pub fn router(&self, r: f64) -> Router {
        Router::build(self, r, dod_core::Metric::Euclidean)
    }

    /// Builds the supporting-area router for arbitrary metrics.
    pub fn router_with_metric(&self, r: f64, metric: dod_core::Metric) -> Router {
        Router::build(self, r, metric)
    }
}

/// Accelerated supporting-area routing over a [`PartitionPlan`].
///
/// A coarse uniform grid maps each coarse cell to the candidate partitions
/// whose r-expanded rectangle intersects it, so routing a point tests only
/// a handful of partitions instead of all `m`.
///
/// The candidate list is complete for **any** `x`, inside the plan's
/// domain or not: if a partition's rectangle is within `r` of `x` under
/// any supported metric, every per-coordinate gap is at most `r`, so `x`
/// lies in the rectangle's r-expanded box. `coarse.cell_of(x)` is the cell
/// of `x` clamped onto the domain, and that projection stays inside every
/// r-expanded box that contains `x` — per dimension, clamping moves `x`
/// to a domain bound, which lies between `x` and the rectangle because the
/// rectangle is inside the domain. So the partition was painted into the
/// projection's cell at build time. (The per-dimension cell index is a
/// monotone function of the coordinate, computed by the same expression
/// when painting and when looking up, so this holds in floating point; the
/// few-ulp slack at build time covers the rounding of `bound ∓ r` against
/// the rounding of the gap.) The exact `min_dist_to_rect ≤ r` test then
/// keeps only true members, so [`Router::within_r_into`] equals the
/// brute-force `{pid : min_dist_to_rect(rect(pid), x) ≤ r}` everywhere.
/// (At scales where `r·r` is subnormal a Euclidean `min_dist_to_rect`
/// can square gaps above `r` to zero; the router then keeps the
/// rectangles whose expanded box holds `x`, not those far ones.)
///
/// Before that test a candidate passes a per-dimension gap test: it is
/// dropped as soon as one gap `min[i] − x[i]` or `x[i] − max[i]`, the
/// same `f64` the distance folds in, exceeds `r`. That never drops a
/// partition the distance keeps: a Manhattan sum and a Chebyshev max of
/// non-negative gaps are at least each gap, and for Euclidean
/// `sqrt(Σ g²)` is at least `sqrt(g·g) = g` as long as `g·g` stays a
/// normal number (binary round-to-nearest). Where `r·r` is subnormal a
/// gap above `r` could square to zero, so the gap test is off there.
#[derive(Debug, Clone)]
pub struct Router {
    plan: PartitionPlan,
    r: f64,
    metric: dod_core::Metric,
    /// Whether a gap above `r` proves the rectangle out of reach (see
    /// the type's documentation).
    gap_test: bool,
    coarse: GridSpec,
    /// Candidate partitions per coarse cell, ascending.
    candidates: Vec<Vec<u32>>,
}

impl Router {
    fn build(plan: &PartitionPlan, r: f64, metric: dod_core::Metric) -> Router {
        let domain = plan.domain();
        let dim = domain.dim();
        // Aim for ~4 coarse cells per partition, capped for memory.
        let target = (plan.num_partitions() * 4).clamp(1, 65_536);
        let per_dim = ((target as f64).powf(1.0 / dim as f64).ceil() as usize).clamp(1, 64);
        let counts: Vec<usize> = (0..dim)
            .map(|i| if domain.extent(i) == 0.0 { 1 } else { per_dim })
            .collect();
        let coarse = GridSpec::new(domain.clone(), counts).expect("valid coarse grid");
        let magnitude = (domain.min().iter().chain(domain.max())).fold(r, |m, v| m.max(v.abs()));
        let reach = r + 4.0 * f64::EPSILON * magnitude;
        let mut candidates: Vec<Vec<u32>> = vec![Vec::new(); coarse.num_cells()];
        for (pid, rect) in plan.rects().iter().enumerate() {
            for cell in coarse.cells_intersecting(&rect.expanded(reach)) {
                candidates[cell].push(pid as u32);
            }
        }
        let gap_test = metric != dod_core::Metric::Euclidean || r * r >= f64::MIN_POSITIVE;
        Router {
            plan: plan.clone(),
            r,
            metric,
            gap_test,
            coarse,
            candidates,
        }
    }

    /// The distance threshold the router was built for.
    pub fn r(&self) -> f64 {
        self.r
    }

    /// Dimensionality of the points the router routes.
    pub fn dim(&self) -> usize {
        self.plan.domain().dim()
    }

    /// Whether partition `pid`'s rectangle is within `r` of `x`: the gap
    /// test first, then the exact distance.
    fn reaches(&self, pid: u32, x: &[f64]) -> bool {
        let rect = self.plan.rect(pid as usize);
        let (min, max) = (rect.min(), rect.max());
        if self.gap_test && (0..x.len()).any(|i| min[i] - x[i] > self.r || x[i] - max[i] > self.r) {
            return false;
        }
        self.metric.min_dist_to_rect(min, max, x) <= self.r
    }

    /// The ascending candidate partitions of `x`'s coarse cell that pass
    /// `keep` and whose rectangle is within `r` of `x` (the exact test).
    fn within_r<'a>(
        &'a self,
        x: &'a [f64],
        keep: impl Fn(u32) -> bool + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        let candidates = &self.candidates[self.coarse.cell_of(x)];
        candidates
            .iter()
            .copied()
            .filter(move |&pid| keep(pid) && self.reaches(pid, x))
    }

    /// Appends to `out`, in ascending id order, every partition whose
    /// rectangle is within `r` of `x` — the partitions that can hold a
    /// neighbor of `x`, for any `x` (see the type's documentation).
    /// Allocation-free once `out` has grown to the longest list.
    pub fn within_r_into(&self, x: &[f64], out: &mut Vec<u32>) {
        out.extend(self.within_r(x, |_| true));
    }

    /// Routes one point (Definition 3.3) without allocating: returns its
    /// core partition and a lazy walk, in ascending id order, of the
    /// partitions it supports. The batch mappers emit one record per
    /// step of the walk.
    pub fn route_iter<'a>(&'a self, x: &'a [f64]) -> (u32, impl Iterator<Item = u32> + 'a) {
        let core = self.plan.locate(x);
        (core, self.within_r(x, move |pid| pid != core))
    }

    /// Routes one point into a caller-owned buffer: returns its core
    /// partition and overwrites `support` with the ascending ids of the
    /// partitions it supports.
    pub fn route_into(&self, x: &[f64], support: &mut Vec<u32>) -> u32 {
        let (core, walk) = self.route_iter(x);
        support.clear();
        support.extend(walk);
        core
    }
}

/// One candidate's predicted cost on one partition, with the raw op
/// counts behind it.
#[derive(Debug, Clone, Copy)]
pub struct CandidateCost {
    /// The candidate algorithm.
    pub algorithm: AlgorithmKind,
    /// Total predicted cost: the weighted terms plus the constant
    /// per-partition overhead.
    pub cost: f64,
    /// Raw (unweighted) pair/structural op counts — excludes the
    /// per-partition overhead, which is charged equally to every
    /// candidate and so never affects selection.
    pub terms: CostTerms,
}

/// Plan-time introspection record for one partition: the full candidate
/// set the planner compared, the winner, and its margin.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Partition id.
    pub partition: usize,
    /// Estimated real cardinality.
    pub n_est: f64,
    /// Footprint volume `A(D)`.
    pub volume: f64,
    /// Hit probability `μ = A(p)/A(D)` (Lemma 4.1's density term).
    pub density_mu: f64,
    /// Every candidate considered, in candidate order.
    pub candidates: Vec<CandidateCost>,
    /// The selected algorithm.
    pub winner: AlgorithmKind,
    /// The winner's predicted cost.
    pub winner_cost: f64,
    /// Runner-up cost minus winner cost: `0.0` with a single candidate,
    /// never negative, always finite.
    pub margin: f64,
}

/// Plan-time introspection for a whole [`MultiTacticPlan`] — what `dod
/// explain` renders and what the engine's cost audit folds measured work
/// against.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    /// One record per partition, in partition order.
    pub partitions: Vec<PartitionReport>,
}

/// Everything the preprocessing job hands to the detection job: partition
/// plan, algorithm plan, allocation plan, and the cost estimates behind
/// them.
#[derive(Debug, Clone)]
pub struct MultiTacticPlan {
    /// The partition plan (map side).
    pub plan: PartitionPlan,
    /// Detection algorithm per partition (reduce side; Definition 3.4).
    pub algorithms: Vec<AlgorithmKind>,
    /// Reducer index per partition (partitioner).
    pub allocation: Vec<usize>,
    /// Predicted cost per partition under its chosen algorithm.
    pub predicted_costs: Vec<f64>,
    /// Estimated real cardinality per partition (sample count / rate).
    pub estimated_counts: Vec<f64>,
    /// Plan-time introspection: the candidate comparison behind every
    /// `algorithms[pid]` entry.
    pub report: PlanReport,
}

impl MultiTacticPlan {
    /// Builds the multi-tactic plan from per-partition estimates (see
    /// [`crate::estimate::LocalCostEstimator`]): each partition runs its
    /// cheapest candidate (Corollary 4.3), and the partitions are
    /// allocated to `num_reducers` reducers under `spec`. Estimates over
    /// one candidate give a monolithic plan (the baselines of
    /// Section VI).
    pub fn from_estimates(
        plan: PartitionPlan,
        estimates: Vec<PartitionEstimate>,
        num_reducers: usize,
        spec: AllocationSpec,
    ) -> Self {
        assert_eq!(
            estimates.len(),
            plan.num_partitions(),
            "one estimate per partition"
        );
        let mut algorithms = Vec::with_capacity(estimates.len());
        let mut costs = Vec::with_capacity(estimates.len());
        let mut counts = Vec::with_capacity(estimates.len());
        let mut partitions = Vec::with_capacity(estimates.len());
        for (pid, e) in estimates.into_iter().enumerate() {
            let winner = e.best();
            let margin = e
                .candidates
                .iter()
                .filter(|c| c.algorithm != winner.algorithm)
                .map(|c| c.cost - winner.cost)
                .fold(f64::INFINITY, f64::min);
            partitions.push(PartitionReport {
                partition: pid,
                n_est: e.n_est,
                volume: plan.rect(pid).volume(),
                density_mu: e.hit_mu,
                candidates: e.candidates,
                winner: winner.algorithm,
                winner_cost: winner.cost,
                margin: if margin.is_finite() { margin } else { 0.0 },
            });
            algorithms.push(winner.algorithm);
            costs.push(winner.cost);
            counts.push(e.n_est);
        }
        let weights = match spec.weight {
            BalanceWeight::Cost => &costs,
            BalanceWeight::Cardinality => &counts,
        };
        let allocation = allocate(weights, num_reducers, spec.policy);
        MultiTacticPlan {
            plan,
            algorithms,
            allocation,
            predicted_costs: costs,
            estimated_counts: counts,
            report: PlanReport { partitions },
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.plan.num_partitions()
    }

    /// How far the observed per-partition point counts have drifted from
    /// the plan's predictions ([`MultiTacticPlan::estimated_counts`]).
    ///
    /// Returns [`distribution_drift`] between the two, in `[0, 1]`: `0`
    /// when the observed mass lands exactly as predicted, approaching `1`
    /// when it concentrates where the plan expected none. A resident
    /// engine re-plans when this exceeds its drift threshold — the plan's
    /// cost balancing (and hence its algorithm choices) was fitted to the
    /// predicted distribution, not the drifted one.
    ///
    /// `observed` is indexed by partition id; missing trailing entries
    /// count as zero, surplus entries (points that fit no partition) are
    /// ignored.
    pub fn drift_against(&self, observed: &[f64]) -> f64 {
        let m = self.estimated_counts.len();
        distribution_drift(&self.estimated_counts, &observed[..observed.len().min(m)])
    }
}

/// Total-variation distance between two non-negative weight vectors,
/// each normalized to a probability distribution: `½ Σ |p_i − q_i|`,
/// in `[0, 1]`.
///
/// Shorter vectors are implicitly zero-padded; if either vector has no
/// mass at all, the drift is `0` when both are empty and `1` otherwise
/// (all mass moved somewhere unaccounted for).
pub fn distribution_drift(predicted: &[f64], observed: &[f64]) -> f64 {
    let sum = |v: &[f64]| -> f64 { v.iter().filter(|x| x.is_finite() && **x > 0.0).sum() };
    let p_total = sum(predicted);
    let q_total = sum(observed);
    match (p_total > 0.0, q_total > 0.0) {
        (false, false) => return 0.0,
        (true, true) => {}
        _ => return 1.0,
    }
    let len = predicted.len().max(observed.len());
    let mass = |v: &[f64], i: usize| -> f64 {
        v.get(i)
            .copied()
            .filter(|x| x.is_finite() && *x > 0.0)
            .unwrap_or(0.0)
    };
    let mut tv = 0.0;
    for i in 0..len {
        tv += (mass(predicted, i) / p_total - mass(observed, i) / q_total).abs();
    }
    tv / 2.0
}

/// Shared inputs every partitioning strategy receives.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext {
    /// Outlier parameters (needed by cost-aware strategies).
    pub params: OutlierParams,
    /// Desired number of partitions `m`.
    pub target_partitions: usize,
    /// Sampling rate Υ the sample was drawn with (to scale counts).
    pub sample_rate: f64,
}

impl PlanContext {
    /// Creates a context.
    pub fn new(params: OutlierParams, target_partitions: usize, sample_rate: f64) -> Self {
        PlanContext {
            params,
            target_partitions: target_partitions.max(1),
            sample_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dshc::{Dshc, DshcConfig};
    use crate::estimate::LocalCostEstimator;

    fn domain() -> Rect {
        Rect::new(vec![0.0, 0.0], vec![8.0, 8.0]).unwrap()
    }

    fn params() -> OutlierParams {
        OutlierParams::new(1.0, 3).unwrap()
    }

    /// The plan `plan` gets from the estimator over a sampling rate of 1.
    fn estimated(
        plan: PartitionPlan,
        sample: &PointSet,
        candidates: &[AlgorithmKind],
        num_reducers: usize,
        spec: AllocationSpec,
    ) -> MultiTacticPlan {
        let estimator = LocalCostEstimator::new(plan.domain(), sample, 1.0, params(), 32);
        let estimates = estimator.estimate(&plan, sample, candidates);
        MultiTacticPlan::from_estimates(plan, estimates, num_reducers, spec)
    }

    /// `route_iter` collected: the core partition and the supported ones.
    fn route(router: &Router, x: &[f64]) -> (u32, Vec<u32>) {
        let (core, supported) = router.route_iter(x);
        (core, supported.collect())
    }

    #[test]
    fn grid_plan_locates_like_grid() {
        let grid = GridSpec::uniform(domain(), 4).unwrap();
        let plan = PartitionPlan::from_grid(grid.clone());
        assert_eq!(plan.num_partitions(), 16);
        for p in [[0.5, 0.5], [7.9, 7.9], [4.0, 4.0], [8.0, 8.0]] {
            assert_eq!(plan.locate(&p), grid.cell_of(&p) as u32);
        }
    }

    #[test]
    fn split_tree_locates_half_open() {
        // Split at x=4: left is [0,4), right is [4,8].
        let tree = SplitTree::new(vec![
            SplitNode::Split {
                dim: 0,
                at: 4.0,
                left: 1,
                right: 2,
            },
            SplitNode::Leaf(0),
            SplitNode::Leaf(1),
        ]);
        let rects = vec![
            Rect::new(vec![0.0, 0.0], vec![4.0, 8.0]).unwrap(),
            Rect::new(vec![4.0, 0.0], vec![8.0, 8.0]).unwrap(),
        ];
        let plan = PartitionPlan::from_split_tree(domain(), tree, rects);
        assert_eq!(plan.locate(&[3.9, 1.0]), 0);
        assert_eq!(plan.locate(&[4.0, 1.0]), 1);
        assert_eq!(plan.locate(&[8.0, 8.0]), 1);
    }

    #[test]
    fn cluster_plan_round_trips_buckets() {
        let sample = PointSet::from_xy(&[(1.0, 1.0), (6.5, 6.5), (7.0, 7.0)]);
        let buckets = MiniBucketGrid::build(&domain(), 4, &sample).unwrap();
        let clusters = Dshc::cluster(&buckets, &DshcConfig::default());
        let plan = PartitionPlan::from_clusters(&buckets, &clusters).unwrap();
        assert_eq!(plan.num_partitions(), clusters.len());
        // Every sample point lands in the partition whose rect contains it.
        for p in sample.iter() {
            let pid = plan.locate(p) as usize;
            assert!(plan.rect(pid).contains_closed(p));
        }
        let counts = plan.count_sample(&sample);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn cluster_plan_rejects_incomplete_cover() {
        let sample = PointSet::from_xy(&[(1.0, 1.0)]);
        let buckets = MiniBucketGrid::build(&domain(), 4, &sample).unwrap();
        let clusters = vec![Cluster {
            rect: crate::intrect::IntRect::new(vec![0, 0], vec![1, 1]),
            count: 1,
        }];
        assert!(PartitionPlan::from_clusters(&buckets, &clusters).is_err());
    }

    #[test]
    fn router_interior_point_has_no_support() {
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 2).unwrap());
        let router = plan.router(0.5);
        let routing = route(&router, &[1.0, 1.0]);
        assert_eq!(routing.0, plan.locate(&[1.0, 1.0]));
        assert!(routing.1.is_empty());
    }

    #[test]
    fn router_boundary_point_supports_neighbors() {
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 2).unwrap());
        let router = plan.router(0.5);
        // Near the center cross (4,4): supports the 3 other quadrants.
        let routing = route(&router, &[3.8, 3.8]);
        assert_eq!(routing.1.len(), 3);
        // Near only the x boundary: supports 1.
        let routing = route(&router, &[3.8, 1.0]);
        assert_eq!(routing.1.len(), 1);
    }

    #[test]
    fn router_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let grid = GridSpec::uniform(domain(), 5).unwrap();
        let plan = PartitionPlan::from_grid(grid);
        let r = 0.7;
        let router = plan.router(r);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let x = [rng.gen_range(0.0..=8.0), rng.gen_range(0.0..=8.0)];
            let routing = route(&router, &x);
            let core = plan.locate(&x);
            assert_eq!(routing.0, core);
            let mut expected: Vec<u32> = (0..plan.num_partitions() as u32)
                .filter(|&pid| pid != core && plan.rect(pid as usize).min_dist_sq(&x) <= r * r)
                .collect();
            expected.sort_unstable();
            assert_eq!(routing.1, expected);
        }
    }

    /// `within_r_into` against brute force at d = 2, 3 and 4 under all
    /// three metrics, for points inside the domain, on its faces, within
    /// `r` of it and far outside, and exactly `r` past a partition's face
    /// or corner. Two checks per point: over the candidates of the
    /// point's coarse cell, the router keeps exactly the partitions
    /// `min_dist_to_rect ≤ r` keeps (the gap test drops none of them);
    /// and where `r·r` is normal, no partition outside the candidates is
    /// within `r` (the candidate lists are complete). The tiny-scale plan
    /// (`r = 1e-200`) has gaps above `r` whose squares underflow to zero
    /// and which the distance therefore keeps.
    #[test]
    fn within_r_matches_brute_force_inside_on_and_outside_the_domain() {
        use dod_core::Metric;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const CASES: usize = 1500;
        let mut rng = StdRng::seed_from_u64(23);
        let mut got = Vec::new();
        // (dim, scale, r / scale): the domain is [0, 8·scale]^dim.
        for (dim, scale, r0) in [
            (2, 1.0, 0.75),
            (3, 1.0, 0.75),
            (4, 1.0, 0.75),
            (2, 1e-200, 1.0),
        ] {
            let side = 8.0 * scale;
            let r = r0 * scale;
            let tiny = scale < 1.0;
            let domain = Rect::new(vec![0.0; dim], vec![side; dim]).unwrap();
            // An uneven DSHC plan (rectangles of different sizes) and a grid.
            let rows: Vec<f64> = (0..400)
                .flat_map(|i| {
                    let skew = [0.02 * (i % 97) as f64, 8.0 - 0.05 * (i % 61) as f64];
                    (0..dim).map(move |d| {
                        scale * skew.get(d).copied().unwrap_or(0.09 * (i % 89) as f64)
                    })
                })
                .collect();
            let sample = PointSet::from_flat(dim, rows).unwrap();
            let buckets = MiniBucketGrid::build(&domain, 8, &sample).unwrap();
            let clusters = Dshc::cluster(&buckets, &DshcConfig::relative(&buckets, 0.5, 60));
            let mut plans = vec![PartitionPlan::from_grid(
                GridSpec::uniform(domain.clone(), 4).unwrap(),
            )];
            if !tiny {
                plans.push(PartitionPlan::from_clusters(&buckets, &clusters).unwrap());
            }
            for plan in &plans {
                assert!(plan.num_partitions() > 1);
                for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
                    let router = plan.router_with_metric(r, metric);
                    assert_eq!(router.gap_test, !(tiny && metric == Metric::Euclidean));
                    let within = |pid: u32, x: &[f64]| {
                        let rect = plan.rect(pid as usize);
                        metric.min_dist_to_rect(rect.min(), rect.max(), x) <= r
                    };
                    let (mut nonempty_outside, mut underflows) = (0, 0);
                    for case in 0..CASES {
                        let mut x: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..=side)).collect();
                        let axis = rng.gen_range(0..dim);
                        let low = rng.gen_range(0..2) == 0;
                        let outward = |depth: f64| if low { -depth } else { side + depth };
                        let rect = plan.rect(rng.gen_range(0..plan.num_partitions()));
                        let past = |i: usize, gap: f64| {
                            if low {
                                rect.min()[i] - gap
                            } else {
                                rect.max()[i] + gap
                            }
                        };
                        match case % 6 {
                            0 => {}                                        // inside
                            1 => x[axis] = outward(0.0),                   // on a face
                            2 => x[axis] = outward(rng.gen_range(0.0..r)), // within r outside
                            3 => {
                                // far outside, sometimes past a corner
                                x[axis] = outward(rng.gen_range(r..50.0 * scale));
                                if rng.gen_range(0..3) == 0 {
                                    let other = (axis + 1) % dim;
                                    x[other] = outward(rng.gen_range(0.0..2.0 * r));
                                }
                            }
                            4 => {
                                // exactly r past a partition's face
                                for (i, c) in x.iter_mut().enumerate() {
                                    *c = rng.gen_range(rect.min()[i]..=rect.max()[i]);
                                }
                                x[axis] = past(axis, r);
                            }
                            _ => {
                                // exactly r past a partition's corner
                                let gaps: Vec<f64> = match metric {
                                    Metric::Chebyshev => vec![r; dim],
                                    Metric::Manhattan => (0..dim)
                                        .map(|i| r / f64::from(1u32 << (i + 1).min(dim - 1)))
                                        .collect(),
                                    Metric::Euclidean => vec![r / (dim as f64).sqrt(); dim],
                                };
                                for (i, c) in x.iter_mut().enumerate() {
                                    *c = past(i, gaps[i]);
                                }
                            }
                        }
                        let candidates = &router.candidates[router.coarse.cell_of(&x)];
                        let expected: Vec<u32> = candidates
                            .iter()
                            .copied()
                            .filter(|&pid| within(pid, &x))
                            .collect();
                        got.clear();
                        router.within_r_into(&x, &mut got);
                        assert_eq!(got, expected, "{dim}-d {metric:?} x {x:?}");
                        if !tiny {
                            let all: Vec<u32> = (0..plan.num_partitions() as u32)
                                .filter(|&pid| within(pid, &x))
                                .collect();
                            assert_eq!(got, all, "{dim}-d {metric:?} x {x:?}");
                        }
                        nonempty_outside += usize::from(case % 6 == 2 && !got.is_empty());
                        underflows += candidates
                            .iter()
                            .filter(|&&pid| {
                                let rect = plan.rect(pid as usize);
                                let gap = (0..dim)
                                    .map(|i| (rect.min()[i] - x[i]).max(x[i] - rect.max()[i]))
                                    .fold(0.0, f64::max);
                                gap > r && within(pid, &x)
                            })
                            .count();
                        // `route` is the same list minus the (clamped) core.
                        let routing = route(&router, &x);
                        assert_eq!(routing.0, plan.locate(&x));
                        let support: Vec<u32> = (expected.iter().copied())
                            .filter(|&pid| pid != routing.0)
                            .collect();
                        assert_eq!(routing.1, support);
                    }
                    // The partitions tile the domain: a point within `r`
                    // outside it always reaches one.
                    assert_eq!(
                        nonempty_outside,
                        CASES / 6,
                        "outside-within-r cases reach partitions"
                    );
                    // Only a squared gap can underflow: the distance keeps
                    // a partition a gap above `r` would have dropped.
                    let expect_underflow = tiny && metric == Metric::Euclidean;
                    assert_eq!(underflows > 0, expect_underflow, "{dim}-d {metric:?}");
                }
            }
        }
    }

    #[test]
    fn multi_tactic_plan_selects_per_partition() {
        // Left half very dense, right half sparse.
        let mut pts = Vec::new();
        for i in 0..4000 {
            pts.push((0.001 * (i % 2000) as f64, 0.001 * (i / 2) as f64));
        }
        pts.push((7.5, 7.5));
        let sample = PointSet::from_xy(&pts);
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 2).unwrap());
        // Priced by the paper's model (Lemmas 4.1/4.2), whose verdicts
        // this test pins.
        let model = dod_detect::cost::CostModel::new(params(), 2);
        let estimates = (plan.count_sample(&sample).iter().enumerate())
            .map(|(pid, &n)| {
                let (n, volume) = (n as usize, plan.rect(pid).volume());
                let candidates = (dod_detect::cost::PAPER_CANDIDATES.iter())
                    .map(|&algorithm| CandidateCost {
                        algorithm,
                        cost: model.cost(algorithm, n, volume),
                        terms: model.cost_terms(algorithm, n, volume),
                    })
                    .collect();
                let hit_mu = model.hit_probability(volume);
                PartitionEstimate {
                    n_est: n as f64,
                    hit_mu,
                    candidates,
                }
            })
            .collect();
        let mt = MultiTacticPlan::from_estimates(plan, estimates, 4, AllocationSpec::cost());
        assert_eq!(mt.algorithms.len(), 4);
        assert_eq!(mt.allocation.len(), 4);
        // The ultra-dense lower-left partition must pick Cell-Based
        // (Lemma 4.2 case 1).
        let dense_pid = mt.plan.locate(&[0.5, 0.5]) as usize;
        assert_eq!(mt.algorithms[dense_pid], AlgorithmKind::CellBased);
        assert!(mt.predicted_costs[dense_pid] > 0.0);
    }

    #[test]
    fn monolithic_plan_is_uniform() {
        let sample = PointSet::from_xy(&[(1.0, 1.0), (5.0, 5.0)]);
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 2).unwrap());
        let mt = estimated(
            plan,
            &sample,
            &[AlgorithmKind::NestedLoop],
            2,
            AllocationSpec::round_robin(),
        );
        assert!(mt
            .algorithms
            .iter()
            .all(|&a| a == AlgorithmKind::NestedLoop));
        assert_eq!(mt.allocation, vec![0, 1, 0, 1]);
        assert!(mt.report.partitions.iter().all(|p| p.margin == 0.0));
    }

    #[test]
    fn plan_context_clamps_targets() {
        let ctx = PlanContext::new(params(), 0, 0.005);
        assert_eq!(ctx.target_partitions, 1);
    }

    #[test]
    fn count_sample_scales() {
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 2).unwrap());
        let sample = PointSet::from_xy(&[(1.0, 1.0), (1.5, 1.5), (7.0, 7.0)]);
        let counts = plan.count_sample(&sample);
        assert_eq!(counts.iter().sum::<u64>(), 3);
        assert_eq!(counts[plan.locate(&[1.0, 1.0]) as usize], 2);
    }

    #[test]
    fn drift_of_identical_distributions_is_zero() {
        assert_eq!(distribution_drift(&[1.0, 3.0], &[1.0, 3.0]), 0.0);
        // Scale invariance: only the shape matters.
        assert!(distribution_drift(&[1.0, 3.0], &[10.0, 30.0]).abs() < 1e-12);
        assert_eq!(distribution_drift(&[], &[]), 0.0);
    }

    #[test]
    fn drift_of_disjoint_distributions_is_one() {
        assert!((distribution_drift(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        // All mass vanished (or appeared from nowhere).
        assert_eq!(distribution_drift(&[1.0], &[]), 1.0);
        assert_eq!(distribution_drift(&[0.0], &[2.0]), 1.0);
    }

    #[test]
    fn drift_is_monotone_in_moved_mass() {
        let base = [5.0, 5.0];
        let small = distribution_drift(&base, &[6.0, 4.0]);
        let large = distribution_drift(&base, &[9.0, 1.0]);
        assert!(0.0 < small && small < large && large < 1.0);
        // A quarter of the mass moved: TV distance is exactly 0.2.
        assert!((small - 0.1).abs() < 1e-12);
        assert!((large - 0.4).abs() < 1e-12);
    }

    #[test]
    fn drift_ignores_non_finite_and_negative_mass() {
        let d = distribution_drift(&[f64::NAN, 1.0], &[-3.0, 1.0]);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn plan_drift_against_observed_counts() {
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 2).unwrap());
        let sample = PointSet::from_xy(&[(1.0, 1.0), (6.0, 1.0), (1.0, 6.0), (6.0, 6.0)]);
        let mt = estimated(
            plan,
            &sample,
            &[AlgorithmKind::NestedLoop],
            2,
            AllocationSpec::round_robin(),
        );
        // Observed exactly as estimated: no drift.
        assert!(mt.drift_against(&mt.estimated_counts).abs() < 1e-12);
        // Everything landed in one partition: strong drift.
        let mut skewed = vec![0.0; mt.num_partitions()];
        skewed[0] = 100.0;
        assert!(mt.drift_against(&skewed) > 0.5);
    }
}
