//! Opt-in `f32` tile mirrors used as a conservative prefilter.
//!
//! A [`FilterTile`] stores an `f32` copy of a row-major tile. Scanning it
//! costs half the memory traffic of the `f64` tile, but `f32` distances
//! are inexact — so the prefilter never *decides* a point on its own.
//! Instead it classifies each point against an **error-inflated shell**
//! around the threshold:
//!
//! * `f32` distance `> r + E` (or `r² + E₂` for Euclidean): the true
//!   `f64` distance cannot be `≤ r`, the point is definitely out;
//! * `f32` distance `< r − E`: definitely in;
//! * otherwise the point lies inside the shell and is re-evaluated with
//!   the exact `f64` predicate.
//!
//! The inflation bound `E` is derived in DESIGN.md §5b from the `f32`
//! unit roundoff `ε = 2⁻²³` and the largest coordinate magnitude `M`
//! seen by the scan (tile *and* query): each per-dimension gap carries
//! at most a few `M·ε` of rounding error, and summing `d` squared gaps
//! compounds to `O(d²M²ε)` for Euclidean, `O(d²Mε)` for L1, and
//! `O(Mε)` for L∞. The constants used here (32, 16, 8) are several
//! times the worst case, so the shell is conservative: every point the
//! prefilter decides outright would be decided the same way by `f64`
//! math, and the result — count *and* early-exit position — is
//! bit-identical to the scalar scan. Non-finite coordinates make the
//! bound infinite, which degrades safely to rechecking every point.

use super::{NeighborPredicate, TileOutcome, BLOCK_POINTS};
use crate::metric::Metric;

/// An `f32` mirror of a row-major coordinate tile, plus the coordinate
/// magnitude bound its error analysis needs.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterTile {
    dim: usize,
    coords: Vec<f32>,
    max_abs: f64,
}

impl FilterTile {
    /// Mirrors `tile` (a row-major block of `dim`-dimensional points)
    /// into `f32` storage.
    ///
    /// # Panics
    /// If `dim` is zero or `tile` is not a whole number of points.
    pub fn build(tile: &[f64], dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(tile.len() % dim, 0, "tile is not a whole number of points");
        let mut max_abs = 0.0f64;
        let coords = tile
            .iter()
            .map(|&v| {
                // NaN propagates into max_abs as non-finite via the
                // comparison below staying false only for NaN, so force
                // it through explicitly.
                if v.is_nan() {
                    max_abs = f64::INFINITY;
                } else if v.abs() > max_abs {
                    max_abs = v.abs();
                }
                v as f32
            })
            .collect();
        FilterTile {
            dim,
            coords,
            max_abs,
        }
    }

    /// The dimensionality the mirror was built with.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points mirrored.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Whether the mirror holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The largest absolute coordinate in the mirror (infinite if any
    /// coordinate was non-finite).
    #[inline]
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// The raw `f32` coordinates, row-major like the source tile.
    #[inline]
    pub fn coords(&self) -> &[f32] {
        &self.coords
    }
}

/// Per-point classification by the `f32` prefilter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// `f32` distance is below the shell: certainly a neighbor.
    In,
    /// `f32` distance is above the shell: certainly not a neighbor.
    Out,
    /// Inside the shell: needs the exact `f64` predicate.
    Recheck,
}

impl NeighborPredicate {
    /// Counts the points of `tile` within `r` of `query`, consulting the
    /// `f32` mirror `filter` first and touching the `f64` tile only for
    /// points inside the error-inflated shell around `r`.
    ///
    /// `filter` must mirror exactly `tile` (same points, same order,
    /// same dimension). Results are bit-identical to
    /// [`Self::count_within_tile`]: same count, same early-exit
    /// `scanned` position, per-block granularity preserved.
    ///
    /// # Panics
    /// If the mirror's shape disagrees with `query`/`tile`.
    pub fn count_within_tile_prefiltered(
        &self,
        query: &[f64],
        tile: &[f64],
        filter: &FilterTile,
        need: usize,
    ) -> TileOutcome {
        let dim = query.len();
        assert_eq!(filter.dim, dim, "filter dimension mismatch");
        assert_eq!(filter.coords.len(), tile.len(), "filter length mismatch");
        if need == 0 {
            return TileOutcome {
                found: 0,
                scanned: 0,
            };
        }

        let mut q_max = 0.0f64;
        for &v in query {
            if v.is_nan() {
                q_max = f64::INFINITY;
            } else if v.abs() > q_max {
                q_max = v.abs();
            }
        }
        let m = filter.max_abs.max(q_max);
        let eps = f32::EPSILON as f64;
        let d = dim as f64;
        // Shell half-widths; see module docs and DESIGN.md §5b.
        let (lo, hi) = match self.metric {
            Metric::Euclidean => {
                let e2 = 32.0 * d * d * m * m * eps;
                (self.r_sq - e2, self.r_sq + e2)
            }
            Metric::Manhattan => {
                let e1 = 16.0 * d * d * m * eps;
                (self.r - e1, self.r + e1)
            }
            Metric::Chebyshev => {
                let e = 8.0 * m * eps;
                (self.r - e, self.r + e)
            }
        };

        let qf: Vec<f32> = query.iter().map(|&v| v as f32).collect();
        let mut found = 0usize;
        let mut scanned = 0usize;
        let step = dim * BLOCK_POINTS;
        for (blk, block) in filter.coords.chunks(step).enumerate() {
            let pts = block.len() / dim;
            let mut hits = 0usize;
            for (i, p) in block.chunks_exact(dim).enumerate() {
                let dist = f32_distance(self.metric, p, &qf);
                let class = if dist.is_finite() && dist < lo {
                    Class::In
                } else if dist > hi {
                    Class::Out
                } else {
                    Class::Recheck
                };
                hits += usize::from(match class {
                    Class::In => true,
                    Class::Out => false,
                    Class::Recheck => {
                        let p64 = &tile[blk * step + i * dim..blk * step + (i + 1) * dim];
                        self.within(query, p64)
                    }
                });
            }
            if found + hits >= need {
                // Exact early-exit position: replay this block with the
                // `f64` predicate, identical to the scalar kernels.
                for (i, _) in block.chunks_exact(dim).enumerate() {
                    let p64 = &tile[blk * step + i * dim..blk * step + (i + 1) * dim];
                    if self.within(query, p64) {
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
            scanned += pts;
        }
        TileOutcome { found, scanned }
    }
}

/// The `f32` scan distance: squared for Euclidean (compared against the
/// inflated `r²` shell), plain for L1/L∞. Accumulated in `f32` — the
/// error analysis already budgets for that — and widened at the end.
#[inline]
fn f32_distance(metric: Metric, p: &[f32], q: &[f32]) -> f64 {
    match metric {
        Metric::Euclidean => {
            let mut acc = 0.0f32;
            for (x, y) in p.iter().zip(q.iter()) {
                let d = x - y;
                acc += d * d;
            }
            acc as f64
        }
        Metric::Manhattan => {
            let mut acc = 0.0f32;
            for (x, y) in p.iter().zip(q.iter()) {
                acc += (x - y).abs();
            }
            acc as f64
        }
        Metric::Chebyshev => {
            let mut m = 0.0f32;
            for (x, y) in p.iter().zip(q.iter()) {
                m = m.max((x - y).abs());
            }
            m as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    fn pred(metric: Metric, r: f64) -> NeighborPredicate {
        NeighborPredicate::with_metric(metric, r)
    }

    #[test]
    fn mirror_shape() {
        let tile = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let f = FilterTile::build(&tile, 3);
        assert_eq!(f.dim(), 3);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
        assert_eq!(f.max_abs(), 6.0);
        assert_eq!(f.coords().len(), 6);
        let empty = FilterTile::build(&[], 2);
        assert!(empty.is_empty());
    }

    #[test]
    fn nan_coordinates_degrade_to_recheck() {
        let tile = [f64::NAN, 0.5, 100.0];
        let f = FilterTile::build(&tile, 1);
        assert!(f.max_abs().is_infinite());
        for m in METRICS {
            let out = pred(m, 1.0).count_within_tile_prefiltered(&[0.0], &tile, &f, usize::MAX);
            let want = pred(m, 1.0).count_within_tile(&[0.0], &tile, usize::MAX);
            assert_eq!(out, want, "{m:?}");
        }
    }

    /// Coordinates exactly representable in f32 but whose distance sits
    /// exactly on r: only the f64 recheck can decide them, and it must
    /// decide them inclusively.
    #[test]
    fn exact_boundary_points_are_inclusive() {
        // d=2, gaps (3,4): Euclid dist 5, L1 7, L∞ 4 — all exact.
        let tile = [3.0, 4.0, 3.0, 4.0000001];
        let f = FilterTile::build(&tile, 2);
        let q = [0.0, 0.0];
        for (m, r) in [
            (Metric::Euclidean, 5.0),
            (Metric::Manhattan, 7.0),
            (Metric::Chebyshev, 4.0),
        ] {
            let out = pred(m, r).count_within_tile_prefiltered(&q, &tile, &f, usize::MAX);
            let want = pred(m, r).count_within_tile(&q, &tile, usize::MAX);
            assert_eq!(out, want, "{m:?}");
            assert_eq!(out.found, 1, "{m:?} boundary point must count");
        }
    }

    /// Coordinates that f32 cannot distinguish (2²⁴ and 2²⁴+1) but f64
    /// can: the shell must route them to the exact recheck.
    #[test]
    fn f32_indistinguishable_points_are_decided_by_f64() {
        let q = [16777216.0];
        let tile = [16777217.0, 16777216.0];
        let f = FilterTile::build(&tile, 1);
        for m in METRICS {
            // r = 0.5: the first point is out (gap 1), the second in.
            let out = pred(m, 0.5).count_within_tile_prefiltered(&q, &tile, &f, usize::MAX);
            let want = pred(m, 0.5).count_within_tile(&q, &tile, usize::MAX);
            assert_eq!(out, want, "{m:?}");
            assert_eq!(out.found, 1, "{m:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn prefiltered_scan_is_bit_identical(
            dim in 1usize..6,
            n_points in 0usize..70,
            need in 0usize..10,
            r in 0.1f64..4.0,
            seed_coords in proptest::collection::vec(-3.0f64..3.0, 1..400),
            metric_sel in 0usize..3,
        ) {
            let metric = METRICS[metric_sel];
            let want = dim * (n_points + 1);
            let coords: Vec<f64> = (0..want)
                .map(|i| seed_coords[i % seed_coords.len()])
                .collect();
            let (q, tile) = coords.split_at(dim);
            let filter = FilterTile::build(tile, dim);
            let fast = pred(metric, r).count_within_tile_prefiltered(q, tile, &filter, need);
            let exact = pred(metric, r).count_within_tile(q, tile, need);
            prop_assert_eq!(fast, exact, "metric {:?} dim {} need {}", metric, dim, need);
        }
    }
}
