//! Theoretical cost models (Section IV) and algorithm selection
//! (Corollary 4.3).
//!
//! The models predict the abstract work (distance evaluations plus index
//! operations) of each detector class on a partition described by its
//! cardinality `n` and domain volume `A(D)`:
//!
//! * **Lemma 4.1** (Nested-Loop): `Cost(D) = |D| · A(D) · k / A(p)` where
//!   `A(p)` is the volume of the r-ball — i.e. `|D| · k / μ` with hit
//!   probability `μ = A(p)/A(D)`. We additionally cap the per-point cost at
//!   `|D|` (a scan cannot examine more than every point), which the lemma's
//!   idealization omits but which matters for very sparse partitions.
//! * **Lemma 4.2** (Cell-Based): with cell side `r/(2√d)`,
//!   1. if the expected count of the 3^d-cell block `≥ k` (the paper's
//!      `(9/8)·r²·ρ ≥ k` in 2-d) every cell prunes as inliers: `Cost = |D|`;
//!   2. if the expected count of the candidate block `< k` (the paper's
//!      `(49/8)·r²·ρ < k`) every cell prunes as outliers: `Cost = |D|`;
//!   3. otherwise indexing plus a nested-loop pass: `Cost = |D| + Cost_NL`.
//!
//! These two models reproduce the crossover of Figure 5: Cell-Based wins on
//! very sparse and very dense partitions, Nested-Loop in between.

use crate::cell_based::CellBased;
use crate::detector::Detector;
use crate::index_based::IndexBased;
use crate::nested_loop::NestedLoop;
use crate::reference::Reference;
use dod_core::OutlierParams;

/// The candidate detection-algorithm classes of the multi-tactic set `A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AlgorithmKind {
    /// Randomized scan with early termination (Section IV-A).
    NestedLoop,
    /// Grid pruning (Section IV-B) with the block-restricted fallback
    /// scan (Knorr & Ng's algorithm as published).
    CellBased,
    /// Grid pruning with the full-partition fallback scan — exactly the
    /// behaviour the Lemma 4.2 case-3 cost model charges (`|D| +
    /// Cost_NL`) and the variant whose measured behaviour matches the
    /// paper's Figure 5/9 curves.
    CellBasedFullScan,
    /// kd-tree range counting (extension).
    IndexBased,
    /// Brute-force oracle (testing only; never selected by cost).
    Reference,
}

impl AlgorithmKind {
    /// Every algorithm class, in declaration order.
    pub const ALL: [AlgorithmKind; 5] = [
        AlgorithmKind::NestedLoop,
        AlgorithmKind::CellBased,
        AlgorithmKind::CellBasedFullScan,
        AlgorithmKind::IndexBased,
        AlgorithmKind::Reference,
    ];

    /// Instantiates the detector implementing this class with its default
    /// configuration.
    pub fn detector(&self) -> Box<dyn Detector> {
        match self {
            AlgorithmKind::NestedLoop => Box::new(NestedLoop::default()),
            AlgorithmKind::CellBased => Box::new(CellBased::default()),
            AlgorithmKind::CellBasedFullScan => Box::new(CellBased::default().full_scan_fallback()),
            AlgorithmKind::IndexBased => Box::new(IndexBased::default()),
            AlgorithmKind::Reference => Box::new(Reference),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::NestedLoop => "nested-loop",
            AlgorithmKind::CellBased => "cell-based",
            AlgorithmKind::CellBasedFullScan => "cell-based-full",
            AlgorithmKind::IndexBased => "index-based",
            AlgorithmKind::Reference => "reference",
        }
    }
}

/// Volume of the d-dimensional ball of radius `r`:
/// `π^{d/2} · r^d / Γ(d/2 + 1)`.
pub fn ball_volume(d: usize, r: f64) -> f64 {
    let half = d as f64 / 2.0;
    std::f64::consts::PI.powf(half) * r.powi(d as i32) / gamma_half_integer(d + 2)
}

/// `Γ(m/2)` for integer `m ≥ 1`, by the recurrence
/// `Γ(x+1) = x·Γ(x)` with bases `Γ(1/2) = √π`, `Γ(1) = 1`.
fn gamma_half_integer(m: usize) -> f64 {
    debug_assert!(m >= 1);
    let mut x = if m.is_multiple_of(2) { 1.0 } else { 0.5 };
    let mut acc = if m.is_multiple_of(2) {
        1.0
    } else {
        std::f64::consts::PI.sqrt()
    };
    while 2.0 * x < m as f64 {
        acc *= x;
        x += 1.0;
    }
    acc
}

/// A predicted cost split into raw op counts per class.
///
/// Every Section IV cost formula decomposes into **pair ops** (distance
/// predicates) and **structural ops** (cell/index bookkeeping). The
/// planner compares their [`CostTerms::total`]: both classes cost one
/// unit, so every formula keeps the Section IV constants. `dod explain`
/// reports the two counts separately so a misprediction can be
/// attributed to one term.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostTerms {
    /// Expected distance predicates.
    pub pair_ops: f64,
    /// Expected structural (cell/index bookkeeping) ops.
    pub structural_ops: f64,
}

impl CostTerms {
    /// Total cost: one unit per op of either class.
    pub fn total(&self) -> f64 {
        self.structural_ops + self.pair_ops
    }
}

/// Cost model for a fixed parameterization (`r`, `k`, dimensionality).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    params: OutlierParams,
    dim: usize,
    ball: f64,
}

impl CostModel {
    /// Creates a model for datasets of dimensionality `dim`.
    pub fn new(params: OutlierParams, dim: usize) -> Self {
        CostModel {
            params,
            dim,
            ball: params.metric.ball_volume(dim, params.r),
        }
    }

    /// The outlier parameters the model was built for.
    pub fn params(&self) -> OutlierParams {
        self.params
    }

    /// Hit probability `μ = A(p)/A(D)`, clamped to `(0, 1]`.
    /// Degenerate volumes (0) mean all mass inside one ball: `μ = 1`.
    pub fn hit_probability(&self, volume: f64) -> f64 {
        if volume <= 0.0 {
            return 1.0;
        }
        (self.ball / volume).min(1.0)
    }

    /// Which of Lemma 4.2's three cases applies.
    pub fn cell_based_case(&self, n: usize, volume: f64) -> CellBasedCase {
        // Cell side from the metric (r/(2√d) under L2); block volumes for
        // the inlier (3^d cells) and candidate (paper: 49 cells in 2-d;
        // generally (2m+1)^d with m = ceil(r/side)) neighborhoods.
        let side = self.params.metric.cell_side_for(self.params.r, self.dim);
        let cell_vol = side.powi(self.dim as i32);
        let rho = if volume <= 0.0 {
            f64::INFINITY
        } else {
            n as f64 / volume
        };
        let k = self.params.k as f64;
        let inlier_block = 3f64.powi(self.dim as i32) * cell_vol;
        if inlier_block * rho >= k {
            return CellBasedCase::AllInliers;
        }
        let m = (self.params.r / side).ceil();
        let candidate_block = (2.0 * m + 1.0).powi(self.dim as i32) * cell_vol;
        if candidate_block * rho < k {
            return CellBasedCase::AllOutliers;
        }
        CellBasedCase::Fallback
    }

    /// Predicted cost of running `kind` on the partition: the total of
    /// its [`CostModel::cost_terms`].
    pub fn cost(&self, kind: AlgorithmKind, n: usize, volume: f64) -> f64 {
        self.cost_terms(kind, n, volume).total()
    }

    /// The op counts of running `kind` on a partition of `n` points
    /// covering `volume` — the one definition of each tactic's cost;
    /// [`CostModel::cost`] totals them.
    pub fn cost_terms(&self, kind: AlgorithmKind, n: usize, volume: f64) -> CostTerms {
        if n == 0 {
            return CostTerms::default();
        }
        let nf = n as f64;
        let k = self.params.k as f64;
        let scan_pairs = || nf * (k / self.hit_probability(volume)).min(nf);
        match kind {
            // Lemma 4.1, with the per-point cap at `n`.
            AlgorithmKind::NestedLoop => CostTerms {
                pair_ops: scan_pairs(),
                structural_ops: 0.0,
            },
            // Lemma 4.2: `|D|` structural indexing ops; the case-3 fallback
            // scan adds Lemma 4.1's pair ops. It models the full-scan
            // fallback and is a conservative model of the block-restricted
            // variant.
            AlgorithmKind::CellBased | AlgorithmKind::CellBasedFullScan => {
                let fallback_pairs = match self.cell_based_case(n, volume) {
                    CellBasedCase::AllInliers | CellBasedCase::AllOutliers => 0.0,
                    CellBasedCase::Fallback => scan_pairs(),
                };
                CostTerms {
                    pair_ops: fallback_pairs,
                    structural_ops: nf,
                }
            }
            // kd-tree heuristic (extension): build `≈ n·log n`, then per
            // point a `≈ log n` traversal plus `k` candidate evaluations.
            AlgorithmKind::IndexBased => CostTerms {
                pair_ops: nf * k,
                structural_ops: 2.0 * nf * (nf + 1.0).log2(),
            },
            AlgorithmKind::Reference => CostTerms {
                pair_ops: nf * nf,
                structural_ops: 0.0,
            },
        }
    }
}

/// Which case of Lemma 4.2 a partition falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellBasedCase {
    /// Very dense: the 3^d block exceeds `k` in expectation — everything
    /// prunes as inliers (Lemma 4.2 case 1).
    AllInliers,
    /// Very sparse: even the full candidate block stays below `k` —
    /// everything prunes as outliers (Lemma 4.2 case 2).
    AllOutliers,
    /// Intermediate density: indexing plus nested-loop fallback
    /// (Lemma 4.2 case 3).
    Fallback,
}

/// Corollary 4.3 generalized to an arbitrary candidate set: the algorithm
/// with minimal predicted cost, with ties broken in favor of the earlier
/// candidate. Returns the chosen kind and its predicted cost.
pub fn choose_algorithm(
    model: &CostModel,
    candidates: &[AlgorithmKind],
    n: usize,
    volume: f64,
) -> (AlgorithmKind, f64) {
    assert!(!candidates.is_empty(), "candidate set must not be empty");
    let mut best = candidates[0];
    let mut best_cost = model.cost(best, n, volume);
    for &cand in &candidates[1..] {
        let c = model.cost(cand, n, volume);
        if c < best_cost {
            best = cand;
            best_cost = c;
        }
    }
    (best, best_cost)
}

/// The default candidate set `A = {Nested-Loop, Cell-Based}` with the
/// block-restricted Cell-Based implementation.
pub const PAPER_CANDIDATES: &[AlgorithmKind] =
    &[AlgorithmKind::CellBased, AlgorithmKind::NestedLoop];

/// The paper-variant candidate set: the full-scan Cell-Based whose
/// measured behaviour matches the Lemma 4.2 model (and the paper's
/// figures) exactly.
pub const PAPER_VARIANT_CANDIDATES: &[AlgorithmKind] =
    &[AlgorithmKind::CellBasedFullScan, AlgorithmKind::NestedLoop];

#[cfg(test)]
mod tests {
    use super::*;

    fn model(r: f64, k: usize, dim: usize) -> CostModel {
        CostModel::new(OutlierParams::new(r, k).unwrap(), dim)
    }

    #[test]
    fn ball_volume_known_values() {
        // 1-d: 2r, 2-d: πr², 3-d: (4/3)πr³.
        assert!((ball_volume(1, 2.0) - 4.0).abs() < 1e-12);
        assert!((ball_volume(2, 1.0) - std::f64::consts::PI).abs() < 1e-12);
        assert!((ball_volume(3, 1.0) - 4.0 / 3.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn gamma_half_integer_values() {
        // Γ(1)=1, Γ(2)=1, Γ(3)=2, Γ(1/2)=√π, Γ(3/2)=√π/2.
        assert!((gamma_half_integer(2) - 1.0).abs() < 1e-12);
        assert!((gamma_half_integer(4) - 1.0).abs() < 1e-12);
        assert!((gamma_half_integer(6) - 2.0).abs() < 1e-12);
        let spi = std::f64::consts::PI.sqrt();
        assert!((gamma_half_integer(1) - spi).abs() < 1e-12);
        assert!((gamma_half_integer(3) - spi / 2.0).abs() < 1e-12);
    }

    #[test]
    fn lemma_4_1_matches_formula_in_moderate_regime() {
        let m = model(5.0, 4, 2);
        let n = 10_000;
        let volume = 1_000_000.0; // μ = π·25/1e6 ≈ 7.85e-5; k/μ ≈ 50930 > n
                                  // per-point capped at n
        assert_eq!(m.cost(AlgorithmKind::NestedLoop, n, volume), (n * n) as f64);
        // Larger μ: uncapped regime matches |D|·A(D)·k/A(p).
        let volume = 10_000.0;
        let expected = n as f64 * volume * 4.0 / (std::f64::consts::PI * 25.0);
        assert!((m.cost(AlgorithmKind::NestedLoop, n, volume) - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn nested_loop_cost_decreases_with_density() {
        let m = model(5.0, 4, 2);
        // Same n, smaller volume = denser = cheaper (Figure 4).
        assert!(
            m.cost(AlgorithmKind::NestedLoop, 10_000, 10_000.0)
                < m.cost(AlgorithmKind::NestedLoop, 10_000, 40_000.0)
        );
    }

    #[test]
    fn cell_based_cases_partition_density_axis() {
        let m = model(5.0, 4, 2);
        let n = 10_000;
        // Extremely dense -> AllInliers.
        assert_eq!(m.cell_based_case(n, 10.0), CellBasedCase::AllInliers);
        // Extremely sparse -> AllOutliers.
        assert_eq!(m.cell_based_case(n, 1e12), CellBasedCase::AllOutliers);
        // In between -> Fallback. Pick volume so that expected 3^d-block
        // count < k but candidate-block count >= k.
        // inlier_block = 9·(r/(2√2))² = 9·25/8 = 28.125
        // candidate block = 49·25/8 = 153.125
        // need 28.125·ρ < 4 <= 153.125·ρ  ->  ρ in [0.0261, 0.1422)
        let volume = n as f64 / 0.05;
        assert_eq!(m.cell_based_case(n, volume), CellBasedCase::Fallback);
    }

    #[test]
    fn cell_based_linear_in_pruned_regimes() {
        let m = model(5.0, 4, 2);
        assert_eq!(m.cost(AlgorithmKind::CellBased, 10_000, 10.0), 10_000.0);
        assert_eq!(m.cost(AlgorithmKind::CellBased, 10_000, 1e12), 10_000.0);
    }

    #[test]
    fn fallback_case_costs_more_than_indexing() {
        let m = model(5.0, 4, 2);
        let n = 10_000;
        let volume = n as f64 / 0.05;
        let c = m.cost(AlgorithmKind::CellBased, n, volume);
        assert!(c > n as f64);
        assert_eq!(c, n as f64 + m.cost(AlgorithmKind::NestedLoop, n, volume));
    }

    #[test]
    fn corollary_4_3_dense_prefers_cell_based() {
        let m = model(5.0, 4, 2);
        let (alg, _) = choose_algorithm(&m, PAPER_CANDIDATES, 10_000, 10.0);
        assert_eq!(alg, AlgorithmKind::CellBased);
    }

    #[test]
    fn corollary_4_3_sparse_prefers_cell_based() {
        let m = model(5.0, 4, 2);
        let (alg, _) = choose_algorithm(&m, PAPER_CANDIDATES, 10_000, 1e12);
        assert_eq!(alg, AlgorithmKind::CellBased);
    }

    #[test]
    fn corollary_4_3_intermediate_prefers_nested_loop() {
        let m = model(5.0, 4, 2);
        // Dense enough that k/μ is small (NL cheap), but below the
        // inlier-pruning threshold so Cell-Based pays indexing + NL.
        // ρ = 0.1: inlier block 28.125·0.1 = 2.81 < k=4 -> fallback.
        // μ = π·25·0.1/10000·... compute: volume = n/ρ = 1e5, μ = 78.54/1e5
        let n = 10_000;
        let volume = 1e5;
        let (alg, cost) = choose_algorithm(&m, PAPER_CANDIDATES, n, volume);
        assert_eq!(alg, AlgorithmKind::NestedLoop);
        assert!(cost < m.cost(AlgorithmKind::CellBased, n, volume));
    }

    #[test]
    fn empty_partition_costs_nothing() {
        let m = model(1.0, 3, 2);
        assert_eq!(m.cost(AlgorithmKind::NestedLoop, 0, 100.0), 0.0);
        assert_eq!(m.cost(AlgorithmKind::CellBased, 0, 100.0), 0.0);
        assert_eq!(m.cost(AlgorithmKind::IndexBased, 0, 100.0), 0.0);
    }

    #[test]
    fn degenerate_volume_is_ultra_dense() {
        let m = model(1.0, 3, 2);
        assert_eq!(m.hit_probability(0.0), 1.0);
        assert_eq!(m.cell_based_case(100, 0.0), CellBasedCase::AllInliers);
        // NL: k trials per point.
        assert_eq!(m.cost(AlgorithmKind::NestedLoop, 100, 0.0), 300.0);
    }

    #[test]
    fn choose_respects_candidate_order_on_tie() {
        let m = model(1.0, 3, 2);
        // n = 0 makes every cost 0 -> first candidate wins.
        let (alg, cost) = choose_algorithm(
            &m,
            &[AlgorithmKind::NestedLoop, AlgorithmKind::CellBased],
            0,
            1.0,
        );
        assert_eq!(alg, AlgorithmKind::NestedLoop);
        assert_eq!(cost, 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panics() {
        let m = model(1.0, 3, 2);
        choose_algorithm(&m, &[], 10, 1.0);
    }

    #[test]
    fn all_lists_every_kind_once() {
        // Adding or removing a variant breaks this exhaustive match: the
        // new variant gets an arm here at its position in
        // `AlgorithmKind::ALL`, and every "each kind" test follows.
        let position = |kind: AlgorithmKind| match kind {
            AlgorithmKind::NestedLoop => 0,
            AlgorithmKind::CellBased => 1,
            AlgorithmKind::CellBasedFullScan => 2,
            AlgorithmKind::IndexBased => 3,
            AlgorithmKind::Reference => 4,
        };
        for (i, kind) in AlgorithmKind::ALL.into_iter().enumerate() {
            assert_eq!(position(kind), i, "{kind:?}");
        }
    }

    #[test]
    fn detector_factory_names_match() {
        for kind in AlgorithmKind::ALL
            .into_iter()
            .filter(|&kind| kind != AlgorithmKind::CellBasedFullScan)
        {
            assert_eq!(kind.detector().name(), kind.name());
        }
        // The full-scan variant shares the cell-based detector name but
        // has a distinct kind name.
        assert_eq!(
            AlgorithmKind::CellBasedFullScan.detector().name(),
            "cell-based"
        );
        assert_eq!(AlgorithmKind::CellBasedFullScan.name(), "cell-based-full");
    }

    #[test]
    fn three_dimensional_model_is_consistent() {
        let m = model(2.0, 5, 3);
        // Case thresholds still partition the axis: extremes prune.
        assert_eq!(m.cell_based_case(1000, 1e-3), CellBasedCase::AllInliers);
        assert_eq!(m.cell_based_case(1000, 1e15), CellBasedCase::AllOutliers);
    }

    #[test]
    fn unit_weights_reproduce_legacy_costs_exactly() {
        // Every op of either class costs one unit, so the totals are the
        // legacy Section IV constants, pinned literally.
        let m = model(5.0, 4, 2);
        assert_eq!(m.cost(AlgorithmKind::NestedLoop, 100, 0.0), 400.0);
        assert_eq!(m.cost(AlgorithmKind::CellBased, 10_000, 10.0), 10_000.0);
        for &(n, volume) in &[(10_000usize, 10.0), (10_000, 1e5), (10_000, 1e12), (0, 1.0)] {
            for kind in AlgorithmKind::ALL {
                let t = m.cost_terms(kind, n, volume);
                assert_eq!(m.cost(kind, n, volume), t.structural_ops + t.pair_ops);
            }
        }
    }
}
