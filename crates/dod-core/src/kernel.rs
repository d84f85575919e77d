//! Vectorizable neighbor-count kernels over contiguous coordinate tiles.
//!
//! Every detector ultimately reduces to the same primitive: given a query
//! point `q`, count how many candidate points lie within distance `r`,
//! stopping as soon as `k` neighbors are found. The one-pair-at-a-time
//! form of that primitive — `Metric::within` behind a bounds-checked
//! `PointSet::point(i)` — is the per-pair cost `Cd` the paper's Lemmas
//! 4.1/4.2 model, so shrinking it speeds up *every* tactic the
//! multi-tactic optimizer can choose.
//!
//! This module replaces the pair loop with **tile** kernels:
//!
//! * a [`NeighborPredicate`] is built **once per `detect`/`score`
//!   call** from [`OutlierParams`], hoisting the `r²` computation and the
//!   metric-variant dispatch out of the hot loop;
//! * [`NeighborPredicate::count_within_tile`] scans a *contiguous
//!   row-major block* of candidate coordinates (a tile: points back to
//!   back, as a `PointSet` stores them) with slice-pattern chunking, so
//!   the compiler proves away every per-element bounds check and can
//!   autovectorize the distance math;
//! * all three metrics get kernels monomorphized per dimension for
//!   `d = 1..4` (the common spatial cases), falling back to one generic
//!   loop with incremental partial-distance early-abandon for higher
//!   dimensions;
//! * [`NeighborPredicate::count_within_columns`] scans the same
//!   candidates stored one dimension after another, the layout on which
//!   wide vector lanes pay at small `d` (see the `columns` submodule).
//!
//! Tiles are scanned in cache-sized blocks of [`BLOCK_POINTS`] points.
//! Within a block the neighbor test is branchless (a compare-and-add per
//! point); the early-exit check runs once per block, and when the block
//! that crosses the `need` threshold is found it is re-scanned one point
//! at a time so the reported [`TileOutcome::scanned`] is **exactly** what
//! a scalar pair loop would have examined. Counting is order-independent,
//! so detection output is bit-identical to the scalar path.

use crate::metric::Metric;
use crate::params::OutlierParams;

mod columns;

pub use columns::columns_backend;

/// The build of the columnar scan a process runs (see
/// [`columns_backend`]). Both builds produce bit-identical
/// [`TileOutcome`]s, counts *and* early-exit positions, so the choice is
/// purely a throughput decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The portable build, and the oracle the other is tested against.
    Scalar,
    /// The same safe-Rust body compiled with AVX2 enabled (x86-64, picked
    /// at run time).
    Avx2,
}

impl KernelBackend {
    /// Stable lower-case name used by the benchmark JSON schema
    /// (`backend` fields).
    pub fn name(&self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }
}

/// Number of points per cache block inside a tile scan.
///
/// 32 points × 4 dims × 8 bytes = 1 KiB worst case for the monomorphized
/// kernels — comfortably inside L1 while giving the autovectorizer a
/// long, branch-free inner loop.
pub const BLOCK_POINTS: usize = 32;

/// Result of scanning one tile.
///
/// `found` is capped at the requested `need`; the scan early-exits (at
/// exact scalar-equivalent position) as soon as the cap is reached, so
/// `found >= need` signals the early exit and `found < need` means the
/// whole tile was scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileOutcome {
    /// Number of neighbors found, capped at the requested `need`.
    pub found: usize,
    /// Number of candidate points examined — equal to the tile's point
    /// count unless the scan early-exited. Matches what a scalar
    /// one-pair-at-a-time loop over the same tile would have examined,
    /// so it can be charged directly to `distance_evaluations`.
    pub scanned: usize,
}

impl TileOutcome {
    /// Whether the scan stopped early because `need` was reached.
    #[inline]
    pub fn reached(&self, need: usize) -> bool {
        self.found >= need
    }
}

/// The Definition 2.1 neighbor predicate with everything derivable from
/// [`OutlierParams`] precomputed: the squared threshold `r²` and the
/// metric variant, resolved **once per call** instead of once per pair.
///
/// Build one at the top of a `detect`/`score` implementation and
/// feed it contiguous coordinate tiles; never call [`Metric::within`]
/// from a hot loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborPredicate {
    metric: Metric,
    r: f64,
    r_sq: f64,
}

impl NeighborPredicate {
    /// Builds the predicate from validated parameters.
    #[inline]
    pub fn new(params: OutlierParams) -> Self {
        Self::with_metric(params.metric, params.r)
    }

    /// Builds the predicate from a metric and threshold directly.
    #[inline]
    pub fn with_metric(metric: Metric, r: f64) -> Self {
        NeighborPredicate {
            metric,
            r,
            r_sq: r * r,
        }
    }

    /// The distance threshold `r`.
    #[inline]
    pub fn r(&self) -> f64 {
        self.r
    }

    /// The precomputed squared threshold `r²`.
    #[inline]
    pub fn r_sq(&self) -> f64 {
        self.r_sq
    }

    /// The metric the predicate evaluates distances under.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Single-pair neighbor test — identical to
    /// [`Metric::within`] but with `r²` precomputed.
    #[inline]
    pub fn within(&self, a: &[f64], b: &[f64]) -> bool {
        match self.metric {
            Metric::Euclidean => crate::point::dist_sq(a, b) <= self.r_sq,
            _ => self.metric.dist(a, b) <= self.r,
        }
    }

    /// Counts the points of `tile` within `r` of `query`, early-exiting
    /// once `need` neighbors are found.
    ///
    /// `tile` is a contiguous row-major block of candidate coordinates:
    /// `tile.len()` must be a multiple of `query.len()` (one
    /// `query.len()`-sized chunk per point). The scan is
    /// order-independent in its count, and `scanned` reports exactly the
    /// number of points a scalar loop would have examined before
    /// stopping, so callers can charge it to their work counters
    /// unchanged.
    pub fn count_within_tile(&self, query: &[f64], tile: &[f64], need: usize) -> TileOutcome {
        let dim = query.len();
        debug_assert!(dim > 0, "query must have at least one dimension");
        debug_assert_eq!(tile.len() % dim, 0, "tile is not a whole number of points");
        if need == 0 {
            return TileOutcome {
                found: 0,
                scanned: 0,
            };
        }
        match (self.metric, dim) {
            (Metric::Euclidean, 1) => euclid_fixed::<1>(query, tile, self.r_sq, need),
            (Metric::Euclidean, 2) => euclid_fixed::<2>(query, tile, self.r_sq, need),
            (Metric::Euclidean, 3) => euclid_fixed::<3>(query, tile, self.r_sq, need),
            (Metric::Euclidean, 4) => euclid_fixed::<4>(query, tile, self.r_sq, need),
            (Metric::Euclidean, _) => tile_generic::<SumSquares>(query, tile, dim, self.r_sq, need),
            (Metric::Manhattan, 1) => manhattan_fixed::<1>(query, tile, self.r, need),
            (Metric::Manhattan, 2) => manhattan_fixed::<2>(query, tile, self.r, need),
            (Metric::Manhattan, 3) => manhattan_fixed::<3>(query, tile, self.r, need),
            (Metric::Manhattan, 4) => manhattan_fixed::<4>(query, tile, self.r, need),
            (Metric::Manhattan, _) => tile_generic::<SumAbs>(query, tile, dim, self.r, need),
            (Metric::Chebyshev, 1) => chebyshev_fixed::<1>(query, tile, self.r, need),
            (Metric::Chebyshev, 2) => chebyshev_fixed::<2>(query, tile, self.r, need),
            (Metric::Chebyshev, 3) => chebyshev_fixed::<3>(query, tile, self.r, need),
            (Metric::Chebyshev, 4) => chebyshev_fixed::<4>(query, tile, self.r, need),
            (Metric::Chebyshev, _) => tile_generic::<MaxAbs>(query, tile, dim, self.r, need),
        }
    }
}

/// The shared blockwise tile loop behind every monomorphized
/// small-dimension kernel.
///
/// The tile is consumed in [`BLOCK_POINTS`]-point blocks. Each block is
/// counted branchlessly (fixed-size array patterns, no bounds checks, no
/// data-dependent branches), then the running total is checked once. The
/// block that crosses `need` is re-scanned a point at a time to recover
/// the exact scalar early-exit position. `dist` must accumulate
/// dimensions in ascending order so the fixed kernels stay bit-identical
/// to the scalar `Metric` loops.
#[inline(always)]
fn tile_fixed<const D: usize>(
    q: &[f64],
    tile: &[f64],
    thresh: f64,
    need: usize,
    dist: impl Fn(&[f64; D], &[f64; D]) -> f64,
) -> TileOutcome {
    let q: &[f64; D] = q.try_into().expect("query dimension matches kernel");
    let mut found = 0usize;
    let mut scanned = 0usize;
    for block in tile.chunks(D * BLOCK_POINTS) {
        let mut hits = 0usize;
        for p in block.chunks_exact(D) {
            let p: &[f64; D] = p.try_into().expect("chunks_exact yields D-sized chunks");
            hits += usize::from(dist(p, q) <= thresh);
        }
        if found + hits >= need {
            // Exact early-exit position: replay this block scalar-style.
            for (i, p) in block.chunks_exact(D).enumerate() {
                let p: &[f64; D] = p.try_into().expect("chunks_exact yields D-sized chunks");
                if dist(p, q) <= thresh {
                    found += 1;
                    if found >= need {
                        return TileOutcome {
                            found,
                            scanned: scanned + i + 1,
                        };
                    }
                }
            }
            unreachable!("blockwise count promised `need` is reached in this block");
        }
        found += hits;
        scanned += block.len() / D;
    }
    TileOutcome { found, scanned }
}

/// Monomorphized Euclidean kernel for small fixed dimensions.
fn euclid_fixed<const D: usize>(q: &[f64], tile: &[f64], r_sq: f64, need: usize) -> TileOutcome {
    tile_fixed::<D>(q, tile, r_sq, need, |p, q| {
        let mut acc = 0.0;
        for d in 0..D {
            let t = p[d] - q[d];
            acc += t * t;
        }
        acc
    })
}

/// Monomorphized `L1` kernel for small fixed dimensions.
fn manhattan_fixed<const D: usize>(q: &[f64], tile: &[f64], r: f64, need: usize) -> TileOutcome {
    tile_fixed::<D>(q, tile, r, need, |p, q| {
        let mut acc = 0.0;
        for d in 0..D {
            acc += (p[d] - q[d]).abs();
        }
        acc
    })
}

/// Monomorphized `L∞` kernel for small fixed dimensions.
fn chebyshev_fixed<const D: usize>(q: &[f64], tile: &[f64], r: f64, need: usize) -> TileOutcome {
    tile_fixed::<D>(q, tile, r, need, |p, q| {
        let mut m = 0.0f64;
        for d in 0..D {
            m = m.max((p[d] - q[d]).abs());
        }
        m
    })
}

/// How one dimension's gap folds into a point's running distance. Every
/// kernel that is not monomorphized per dimension folds dimensions in
/// ascending order into one accumulator through these, which is the
/// operation sequence of [`crate::point::dist_sq`] and the `Metric` loops
/// — so a pair exactly at the threshold gets the same verdict from a
/// kernel as from [`NeighborPredicate::within`].
trait Fold {
    fn fold(acc: f64, gap: f64) -> f64;
}

/// Squared `L2`: compared against `r²`.
struct SumSquares;
/// `L1`.
struct SumAbs;
/// `L∞`; `f64::max` ignores a `NaN` gap, as the `Metric` fold does.
struct MaxAbs;

impl Fold for SumSquares {
    #[inline(always)]
    fn fold(acc: f64, gap: f64) -> f64 {
        acc + gap * gap
    }
}

impl Fold for SumAbs {
    #[inline(always)]
    fn fold(acc: f64, gap: f64) -> f64 {
        acc + gap.abs()
    }
}

impl Fold for MaxAbs {
    #[inline(always)]
    fn fold(acc: f64, gap: f64) -> f64 {
        acc.max(gap.abs())
    }
}

/// The kernel for dimensions without a monomorphized form: one
/// accumulator per point, dimensions in ascending order, with
/// partial-distance early-abandon every four dimensions.
///
/// All three folds only grow, so once the accumulated prefix exceeds the
/// threshold the point cannot be a neighbor and the remaining dimensions
/// are skipped; the skip never changes a verdict, only the work.
fn tile_generic<F: Fold>(
    q: &[f64],
    tile: &[f64],
    dim: usize,
    thresh: f64,
    need: usize,
) -> TileOutcome {
    let mut found = 0usize;
    let q4 = q.chunks_exact(4);
    'points: for (i, p) in tile.chunks_exact(dim).enumerate() {
        let mut acc = 0.0f64;
        let p4 = p.chunks_exact(4);
        for (pc, qc) in p4.clone().zip(q4.clone()) {
            acc = F::fold(acc, pc[0] - qc[0]);
            acc = F::fold(acc, pc[1] - qc[1]);
            acc = F::fold(acc, pc[2] - qc[2]);
            acc = F::fold(acc, pc[3] - qc[3]);
            if acc > thresh {
                continue 'points;
            }
        }
        for (x, y) in p4.remainder().iter().zip(q4.remainder()) {
            acc = F::fold(acc, x - y);
        }
        if acc <= thresh {
            found += 1;
            if found >= need {
                return TileOutcome {
                    found,
                    scanned: i + 1,
                };
            }
        }
    }
    TileOutcome {
        found,
        scanned: tile.len() / dim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    /// One-pair-at-a-time oracle, the pre-kernel hot path.
    fn scalar_scan(metric: Metric, q: &[f64], tile: &[f64], r: f64, need: usize) -> TileOutcome {
        let dim = q.len();
        let mut found = 0usize;
        let mut scanned = 0usize;
        for p in tile.chunks_exact(dim) {
            if need == 0 {
                break;
            }
            scanned += 1;
            if metric.within(q, p, r) {
                found += 1;
                if found >= need {
                    break;
                }
            }
        }
        if need == 0 {
            scanned = 0;
        }
        TileOutcome { found, scanned }
    }

    fn pred(metric: Metric, r: f64) -> NeighborPredicate {
        NeighborPredicate::with_metric(metric, r)
    }

    #[test]
    fn empty_tile() {
        for m in METRICS {
            let out = pred(m, 1.0).count_within_tile(&[0.0, 0.0], &[], 3);
            assert_eq!(
                out,
                TileOutcome {
                    found: 0,
                    scanned: 0
                }
            );
            assert!(!out.reached(3));
        }
    }

    #[test]
    fn need_zero_scans_nothing() {
        for m in METRICS {
            let out = pred(m, 1.0).count_within_tile(&[0.0], &[0.0, 1.0, 2.0], 0);
            assert_eq!(out.found, 0);
            assert_eq!(out.scanned, 0);
            assert!(out.reached(0));
        }
    }

    #[test]
    fn exact_early_exit_position_matches_scalar() {
        // 1-d points 0, 10, 1, 20, 2, 30 with r=5: neighbors of 0 are at
        // positions 0, 2, 4. Asking for 2 must stop after scanning 3.
        let tile = [0.0, 10.0, 1.0, 20.0, 2.0, 30.0];
        for m in METRICS {
            let out = pred(m, 5.0).count_within_tile(&[0.0], &tile, 2);
            assert_eq!(out.found, 2, "{m:?}");
            assert_eq!(out.scanned, 3, "{m:?}");
            assert!(out.reached(2));
        }
    }

    #[test]
    fn exhausted_counts_everything() {
        let tile = [0.0, 10.0, 1.0, 20.0, 2.0, 30.0];
        for m in METRICS {
            let out = pred(m, 5.0).count_within_tile(&[0.0], &tile, 100);
            assert_eq!(out.found, 3, "{m:?}");
            assert_eq!(out.scanned, 6, "{m:?}");
            assert!(!out.reached(100));
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        // Definition 2.1 uses <=; the kernels must agree on the boundary.
        let out = pred(Metric::Euclidean, 5.0).count_within_tile(&[0.0, 0.0], &[3.0, 4.0], 1);
        assert_eq!(out.found, 1);
        let out = pred(Metric::Manhattan, 7.0).count_within_tile(&[0.0, 0.0], &[3.0, 4.0], 1);
        assert_eq!(out.found, 1);
        let out = pred(Metric::Chebyshev, 4.0).count_within_tile(&[0.0, 0.0], &[3.0, 4.0], 1);
        assert_eq!(out.found, 1);
    }

    #[test]
    fn duplicate_points_all_count() {
        let q = [1.0, 2.0, 3.0];
        let tile: Vec<f64> = q.repeat(70); // 70 copies, spans block boundary
        for m in METRICS {
            let out = pred(m, 0.5).count_within_tile(&q, &tile, usize::MAX);
            assert_eq!(out.found, 70, "{m:?}");
            let out = pred(m, 0.5).count_within_tile(&q, &tile, 41);
            assert_eq!(out.found, 41, "{m:?}");
            assert_eq!(out.scanned, 41, "{m:?}");
        }
    }

    #[test]
    fn within_matches_metric_within() {
        let a = [0.0, 0.0, 0.0];
        let b = [1.0, 2.0, 2.0];
        for m in METRICS {
            for r in [0.5, 2.9, 3.0, 5.0] {
                assert_eq!(
                    pred(m, r).within(&a, &b),
                    m.within(&a, &b, r),
                    "{m:?} r={r}"
                );
            }
        }
    }

    #[test]
    fn high_dimensional_early_abandon_is_exact() {
        // d = 12 exercises the generic kernels' abandon path: the first
        // four dimensions already exceed r for the far point.
        let q = vec![0.0; 12];
        let mut tile = vec![0.1; 12]; // near point
        tile.extend(vec![100.0; 12]); // far point, abandoned early
        tile.extend(vec![0.2; 12]); // near point
        for m in METRICS {
            let out = pred(m, 3.0).count_within_tile(&q, &tile, usize::MAX);
            assert_eq!(out.found, 2, "{m:?}");
            assert_eq!(out.scanned, 3, "{m:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn tile_scan_matches_scalar_scan(
            dim in 1usize..9,
            n_points in 0usize..65,
            need in 0usize..8,
            r in 0.1f64..4.0,
            seed_coords in proptest::collection::vec(-3.0f64..3.0, 0..600),
            metric_sel in 0usize..3,
        ) {
            let metric = METRICS[metric_sel];
            let want = dim * (n_points + 1);
            // Recycle the generated coordinate pool to the needed length.
            let coords: Vec<f64> = (0..want)
                .map(|i| if seed_coords.is_empty() { 0.5 } else { seed_coords[i % seed_coords.len()] })
                .collect();
            let (q, tile) = coords.split_at(dim);
            let kernel = pred(metric, r).count_within_tile(q, tile, need);
            let scalar = scalar_scan(metric, q, tile, r, need);
            prop_assert_eq!(kernel, scalar, "metric {:?} dim {} need {}", metric, dim, need);
        }

        #[test]
        fn k_boundary_cases_match_scalar(
            dim in 1usize..6,
            n_near in 0usize..40,
            n_far in 0usize..40,
            metric_sel in 0usize..3,
        ) {
            // Exactly n_near neighbors exist; probe need at the boundary,
            // one below, and one above.
            let metric = METRICS[metric_sel];
            let q = vec![0.0; dim];
            let mut tile = Vec::new();
            for i in 0..(n_near + n_far) {
                // Far points first so early exit must skip past them.
                let v = if i >= n_far { 0.01 } else { 50.0 };
                tile.extend(std::iter::repeat_n(v, dim));
            }
            for need in [n_near.saturating_sub(1).max(1), n_near.max(1), n_near + 1] {
                let kernel = pred(metric, 1.0).count_within_tile(&q, &tile, need);
                let scalar = scalar_scan(metric, &q, &tile, 1.0, need);
                prop_assert_eq!(kernel, scalar);
            }
        }
    }
}
