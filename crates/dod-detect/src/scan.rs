//! Contiguous-tile scan helpers shared by the detectors.
//!
//! The randomized detectors (Nested-Loop, and Cell-Based's paper-faithful
//! full-scan fallback) examine candidates in one global random
//! permutation, starting each point's scan at a random offset. Following
//! that permutation through `Partition::point` costs a bounds-checked
//! random access per candidate — the exact per-pair overhead the kernel
//! layer removes. [`PermutedScan`] pays one gather per `detect` call to
//! materialize the permutation as a *columnar buffer* (one dimension
//! after another), after which every wrap-around scan decomposes into at
//! most four contiguous runs that feed
//! [`NeighborPredicate::count_within_columns`] directly.
//!
//! The scan order, the early-exit position, and therefore every work
//! counter are identical to the scalar pair loop; only the memory access
//! pattern changes.

use dod_core::NeighborPredicate;

use crate::partition::Partition;

/// A partition's points gathered into permutation order, plus the inverse
/// permutation for self-exclusion.
pub(crate) struct PermutedScan {
    /// Coordinate `d` of `order[pos]` at `coords[d * order.len() + pos]`.
    coords: Vec<f64>,
    /// `pos_of[unified_index]` = position of that point in the order.
    pos_of: Vec<u32>,
}

impl PermutedScan {
    /// Gathers the partition's points (unified core-then-support
    /// indexing) into the given permutation order.
    pub(crate) fn new(partition: &Partition, order: &[u32]) -> Self {
        let total = order.len();
        let mut coords = vec![0.0; total * partition.dim()];
        let mut pos_of = vec![0u32; total];
        for (pos, &idx) in order.iter().enumerate() {
            for (d, &c) in partition.point(idx as usize).iter().enumerate() {
                coords[d * total + pos] = c;
            }
            pos_of[idx as usize] = pos as u32;
        }
        PermutedScan { coords, pos_of }
    }

    /// Scans the full permutation cycle starting at position `start`
    /// (wrapping), skipping the query point itself (`self_idx`, unified
    /// indexing), counting neighbors of `q` with early exit at `need`.
    ///
    /// Returns `(found, scanned)` where `scanned` is exactly the number
    /// of candidates a scalar loop would have examined (the self point is
    /// never examined, matching the scalar `j == i` skip).
    pub(crate) fn count_cycle(
        &self,
        pred: &NeighborPredicate,
        q: &[f64],
        start: usize,
        self_idx: usize,
        need: usize,
    ) -> (usize, u64) {
        let total = self.pos_of.len();
        let self_pos = self.pos_of[self_idx] as usize;
        let mut found = 0usize;
        let mut scanned = 0u64;
        // The wrap-around cycle is two contiguous runs; excluding the
        // query point splits the run containing it into two more.
        for (lo, hi) in [(start, total), (0, start)] {
            for (a, b) in split_excluding(lo, hi, self_pos) {
                if found >= need {
                    return (found, scanned);
                }
                let out = pred.count_within_columns(q, &self.coords, a..b, need - found);
                scanned += out.scanned as u64;
                found += out.found;
            }
        }
        (found, scanned)
    }
}

/// Counts neighbors of `q` in the contiguous row-major `tile`, skipping
/// the point at position `skip` (if any), early-exiting at `need`.
///
/// Returns `(found, scanned)` with the same exact scalar-equivalent
/// semantics as [`PermutedScan::count_cycle`].
pub(crate) fn count_tile_excluding(
    pred: &NeighborPredicate,
    q: &[f64],
    tile: &[f64],
    dim: usize,
    skip: Option<usize>,
    need: usize,
) -> (usize, u64) {
    let points = tile.len() / dim;
    let mut found = 0usize;
    let mut scanned = 0u64;
    for (a, b) in split_excluding(0, points, skip.unwrap_or(usize::MAX)) {
        if found >= need {
            break;
        }
        let out = pred.count_within_tile(q, &tile[a * dim..b * dim], need - found);
        scanned += out.scanned as u64;
        found += out.found;
    }
    (found, scanned)
}

/// The half-open range `[lo, hi)` with position `skip` removed: up to two
/// sub-ranges (empty ones included for uniform iteration).
fn split_excluding(lo: usize, hi: usize, skip: usize) -> [(usize, usize); 2] {
    if skip >= lo && skip < hi {
        [(lo, skip), (skip + 1, hi)]
    } else {
        [(lo, hi), (hi, hi)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::{OutlierParams, PointSet};

    #[test]
    fn split_excluding_cases() {
        assert_eq!(split_excluding(0, 5, 2), [(0, 2), (3, 5)]);
        assert_eq!(split_excluding(0, 5, 0), [(0, 0), (1, 5)]);
        assert_eq!(split_excluding(0, 5, 4), [(0, 4), (5, 5)]);
        assert_eq!(split_excluding(2, 5, 7), [(2, 5), (5, 5)]);
        assert_eq!(split_excluding(2, 5, 1), [(2, 5), (5, 5)]);
    }

    /// `n` points on a coarse lattice in `dim` dimensions: neighbors,
    /// duplicates and points at exactly `r` all occur.
    fn lattice(n: usize, dim: usize) -> PointSet {
        let mut pts = PointSet::new(dim).unwrap();
        for i in 0..n {
            let p: Vec<f64> = (0..dim)
                .map(|d| ((i * (d + 3) + i / 7) % 5) as f64 * 0.5)
                .collect();
            pts.push(&p).unwrap();
        }
        pts
    }

    #[test]
    fn cycle_matches_scalar_walk() {
        let plane = PointSet::from_xy(&[
            (0.0, 0.0),
            (0.5, 0.0),
            (10.0, 10.0),
            (0.0, 0.5),
            (20.0, 20.0),
        ]);
        // 70 and 41 points: runs of the cycle span whole blocks and tails.
        for pts in [plane, lattice(70, 3), lattice(41, 5)] {
            let n = pts.len();
            let dim = pts.dim();
            let partition = Partition::standalone(pts);
            let params = OutlierParams::new(1.0, 5).unwrap();
            let pred = params.predicate();
            let order: Vec<u32> = (0..n).map(|i| ((i * 3 + 3) % n) as u32).collect();
            let scan = PermutedScan::new(&partition, &order);
            for self_idx in 0..n {
                for start in 0..n {
                    for need in 1..5usize {
                        // Scalar walk of the same cycle.
                        let q = partition.point(self_idx);
                        let mut found = 0usize;
                        let mut scanned = 0u64;
                        for step in 0..n {
                            let j = order[(start + step) % n] as usize;
                            if j == self_idx {
                                continue;
                            }
                            scanned += 1;
                            if params.neighbors(q, partition.point(j)) {
                                found += 1;
                                if found >= need {
                                    break;
                                }
                            }
                        }
                        let got = scan.count_cycle(&pred, q, start, self_idx, need);
                        assert_eq!(
                            got,
                            (found, scanned),
                            "dim {dim} self {self_idx} start {start} need {need}"
                        );
                    }
                }
            }
        }
    }
}
