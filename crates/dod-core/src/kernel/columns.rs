//! Columnar (structure-of-arrays) neighbor counting.
//!
//! A row-major tile keeps a point's coordinates together, so a vector
//! register loaded from it holds *one point's dimensions* and every
//! distance ends in a horizontal add — which is why wider lanes buy
//! nothing on [`NeighborPredicate::count_within_tile`] at `d <= 4`. Here
//! the candidates are stored one dimension after another
//! (`columns[d * total + pos]`), a register holds *one dimension of
//! several points*, and the distance math is lane-wise from the loads to
//! the final compare: four points per AVX2 instruction, none wasted.
//!
//! The contract is [`NeighborPredicate::count_within_tile`]'s, over the
//! same candidates in the same order: every lane folds dimensions in
//! ascending order into a single accumulator with separate IEEE
//! subtract, multiply and add — the operation sequence of
//! [`crate::point::dist_sq`] and the `Metric` loops — so counts *and*
//! early-exit positions are bit-identical. No FMA: fusing the multiply
//! into the add skips a rounding and could flip a compare exactly at the
//! `r` boundary.
//!
//! The scan is portable safe Rust. On x86-64 the same body is compiled a
//! second time with AVX2 enabled and picked at run time when the CPU has
//! it — in the default build, with no cargo feature: the layout is only
//! half of the gain, the other half is the compiler being allowed to use
//! 256-bit lanes on it.

use std::ops::Range;

use super::{
    Fold, KernelBackend, MaxAbs, NeighborPredicate, SumAbs, SumSquares, TileOutcome, BLOCK_POINTS,
};
use crate::metric::Metric;

impl NeighborPredicate {
    /// Counts the points at positions `run` of the columnar buffer
    /// `columns` within `r` of `query`, early-exiting once `need`
    /// neighbors are found.
    ///
    /// `columns` holds `total = columns.len() / query.len()` points, one
    /// dimension after another: coordinate `d` of point `pos` is
    /// `columns[d * total + pos]`. The outcome — count and `scanned`
    /// early-exit position — is bit-identical to
    /// [`Self::count_within_tile`] over the same points stored row-major
    /// in the same order.
    ///
    /// # Panics
    /// If `query` is empty, `columns` is not a whole number of
    /// `query.len()`-dimensional points, or `run` does not lie inside
    /// `0..total`.
    pub fn count_within_columns(
        &self,
        query: &[f64],
        columns: &[f64],
        run: Range<usize>,
        need: usize,
    ) -> TileOutcome {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2, the one feature `scan_avx2` enables, was just
            // detected on the running CPU.
            return unsafe { scan_avx2(self, query, columns, run, need) };
        }
        scan(self, query, columns, run, need)
    }

    /// [`Self::count_within_columns`] pinned to the portable build of the
    /// scan, whatever the CPU offers — the baseline row of the
    /// benchmarks and the oracle the dispatched build is tested against.
    pub fn count_within_columns_scalar(
        &self,
        query: &[f64],
        columns: &[f64],
        run: Range<usize>,
        need: usize,
    ) -> TileOutcome {
        scan(self, query, columns, run, need)
    }
}

/// The build of the columnar scan [`NeighborPredicate::count_within_columns`]
/// dispatches to in this process: [`KernelBackend::Avx2`] on an x86-64
/// CPU that has it, the portable [`KernelBackend::Scalar`] build
/// otherwise.
pub fn columns_backend() -> KernelBackend {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return KernelBackend::Avx2;
    }
    KernelBackend::Scalar
}

/// The scan, compiled with 256-bit lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2(
    pred: &NeighborPredicate,
    query: &[f64],
    columns: &[f64],
    run: Range<usize>,
    need: usize,
) -> TileOutcome {
    scan(pred, query, columns, run, need)
}

/// The one scan body; `inline(always)` so each caller compiles its own
/// copy under its own target features.
#[inline(always)]
fn scan(
    pred: &NeighborPredicate,
    query: &[f64],
    columns: &[f64],
    run: Range<usize>,
    need: usize,
) -> TileOutcome {
    let dim = query.len();
    assert!(dim > 0, "query must have at least one dimension");
    assert_eq!(
        columns.len() % dim,
        0,
        "columns are not a whole number of points"
    );
    let total = columns.len() / dim;
    assert!(
        run.start <= run.end && run.end <= total,
        "run {run:?} outside 0..{total}"
    );
    if need == 0 {
        return TileOutcome {
            found: 0,
            scanned: 0,
        };
    }
    match pred.metric {
        Metric::Euclidean => scan_metric::<SumSquares>(query, columns, total, run, pred.r_sq, need),
        Metric::Manhattan => scan_metric::<SumAbs>(query, columns, total, run, pred.r, need),
        Metric::Chebyshev => scan_metric::<MaxAbs>(query, columns, total, run, pred.r, need),
    }
}

/// Monomorphizes the common spatial dimensions; `0` means "read the
/// dimension from the query".
#[inline(always)]
fn scan_metric<F: Fold>(
    query: &[f64],
    columns: &[f64],
    total: usize,
    run: Range<usize>,
    thresh: f64,
    need: usize,
) -> TileOutcome {
    match query.len() {
        1 => scan_run::<F, 1>(query, columns, total, run, thresh, need),
        2 => scan_run::<F, 2>(query, columns, total, run, thresh, need),
        3 => scan_run::<F, 3>(query, columns, total, run, thresh, need),
        4 => scan_run::<F, 4>(query, columns, total, run, thresh, need),
        _ => scan_run::<F, 0>(query, columns, total, run, thresh, need),
    }
}

/// Whole [`BLOCK_POINTS`]-point blocks are counted branchlessly and the
/// running total checked once per block; the block that crosses `need`
/// and the tail shorter than a block are walked a point at a time, which
/// recovers the exact scalar early-exit position.
#[inline(always)]
fn scan_run<F: Fold, const D: usize>(
    query: &[f64],
    columns: &[f64],
    total: usize,
    run: Range<usize>,
    thresh: f64,
    need: usize,
) -> TileOutcome {
    let mut found = 0usize;
    let mut pos = run.start;
    while pos + BLOCK_POINTS <= run.end {
        let hits = if D == 0 {
            block_hits_by_dimension::<F>(query, columns, total, pos, thresh)
        } else {
            block_hits_fused::<F, D>(query, columns, total, pos, thresh)
        };
        if found + hits >= need {
            break;
        }
        found += hits;
        pos += BLOCK_POINTS;
    }
    for p in pos..run.end {
        let mut acc = 0.0;
        for (d, &q) in query.iter().enumerate() {
            acc = F::fold(acc, columns[d * total + p] - q);
        }
        if acc <= thresh {
            found += 1;
            if found >= need {
                return TileOutcome {
                    found,
                    scanned: p + 1 - run.start,
                };
            }
        }
    }
    TileOutcome {
        found,
        scanned: run.len(),
    }
}

/// The block of column `d` that starts at point `pos`.
#[inline(always)]
fn column_block(columns: &[f64], total: usize, d: usize, pos: usize) -> &[f64; BLOCK_POINTS] {
    columns[d * total + pos..][..BLOCK_POINTS]
        .try_into()
        .expect("a block is BLOCK_POINTS long")
}

/// Hits in one block for a compile-time dimension: every point's whole
/// distance in one expression, `((dx² + dy²) + dz²) + dw²`.
#[inline(always)]
fn block_hits_fused<F: Fold, const D: usize>(
    query: &[f64],
    columns: &[f64],
    total: usize,
    pos: usize,
    thresh: f64,
) -> usize {
    let query: &[f64; D] = query.try_into().expect("query dimension matches kernel");
    let cols: [&[f64; BLOCK_POINTS]; D] =
        std::array::from_fn(|d| column_block(columns, total, d, pos));
    let mut hits = 0usize;
    // `j` walks the points of the block, across all `D` columns at once.
    #[allow(clippy::needless_range_loop)]
    for j in 0..BLOCK_POINTS {
        let mut acc = 0.0;
        for d in 0..D {
            acc = F::fold(acc, cols[d][j] - query[d]);
        }
        hits += usize::from(acc <= thresh);
    }
    hits
}

/// Hits in one block for any dimension: one pass per dimension, in
/// ascending order, over a block of accumulators.
#[inline(always)]
fn block_hits_by_dimension<F: Fold>(
    query: &[f64],
    columns: &[f64],
    total: usize,
    pos: usize,
    thresh: f64,
) -> usize {
    let mut acc = [0.0f64; BLOCK_POINTS];
    for (d, &q) in query.iter().enumerate() {
        let col = column_block(columns, total, d, pos);
        for (a, &c) in acc.iter_mut().zip(col) {
            *a = F::fold(*a, c - q);
        }
    }
    acc.iter().map(|&a| usize::from(a <= thresh)).sum()
}
