//! Equi-width grid partitioning of a domain (Definition 3.1, Step 1 of the
//! DOD framework).
//!
//! A [`GridSpec`] divides a domain [`Rect`] into `n_1 × n_2 × ... × n_d`
//! equal-width cells. Every domain point belongs to exactly one cell
//! (points on the upper domain boundary are clamped into the last cell), so
//! the cells form a partition plan in the sense of Section III-C.

use crate::error::CoreError;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::RangeInclusive;

/// Identifier of a grid cell: the row-major linearization of its
/// per-dimension indices.
pub type CellId = usize;

/// A hash map keyed by [`CellId`] through [`CellIdHasher`].
pub type CellMap<V> = HashMap<CellId, V, BuildHasherDefault<CellIdHasher>>;

/// The hasher behind [`CellMap`]: one multiply by an odd 64-bit constant,
/// then the high half folded onto the low half.
///
/// Row-major cell ids are strided — neighbours along the last dimension
/// differ by 1, along the others by a product of `cells_per_dim`, often a
/// power of two. The multiply alone spreads any stride over the *top*
/// bits (hashbrown's 7 control bits), but leaves the low bits of a
/// power-of-two stride zero; the fold brings the well-mixed top half down
/// onto the bits hashbrown takes its bucket index from.
///
/// **Not HashDoS-resistant, deliberately.** Keys are cell ids the engine
/// computes from a [`GridSpec`] (bounded by `num_cells()`), never strings
/// or numbers a client chooses, so there is no adversary to pick colliding
/// keys; keep the default hasher for any map keyed by outside input.
/// Iteration order of a [`CellMap`] is unspecified, as with any hash map:
/// consumers that need a deterministic order sort the keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct CellIdHasher(u64);

impl CellIdHasher {
    /// 2^64 / φ, odd.
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

    fn mix(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(Self::MULTIPLIER);
        self.0 = h ^ (h >> 32);
    }
}

impl Hasher for CellIdHasher {
    fn write_usize(&mut self, id: usize) {
        self.mix(id as u64);
    }

    /// For the other engine-minted integer key, sequential `u64` point
    /// ids (the resident states' id → slot maps).
    fn write_u64(&mut self, id: u64) {
        self.mix(id);
    }

    /// Not reached for [`CellId`] or `u64` keys (they hash through
    /// [`Hasher::write_usize`] / [`Hasher::write_u64`]); present so the
    /// hasher is total.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The number of cells of a grid with these per-dimension counts, or
/// `None` when it overflows a [`CellId`].
fn cell_count(cells_per_dim: impl IntoIterator<Item = usize>) -> Option<usize> {
    cells_per_dim
        .into_iter()
        .try_fold(1usize, |total, n| total.checked_mul(n))
}

/// An equi-width grid over a rectangular domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    domain: Rect,
    /// Number of cells along each dimension.
    cells_per_dim: Vec<usize>,
    /// Cell side length along each dimension.
    widths: Vec<f64>,
}

impl GridSpec {
    /// Creates a grid with `cells_per_dim[i]` cells along dimension `i`.
    ///
    /// # Errors
    /// Returns an error if the counts don't match the domain dimensionality,
    /// any count is zero, or there are more cells in all than a [`CellId`]
    /// can number. A zero-extent dimension is allowed only with a single
    /// cell in that dimension.
    pub fn new(domain: Rect, cells_per_dim: Vec<usize>) -> Result<Self, CoreError> {
        if cells_per_dim.len() != domain.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: domain.dim(),
                actual: cells_per_dim.len(),
            });
        }
        for (i, &n) in cells_per_dim.iter().enumerate() {
            if n == 0 {
                return Err(CoreError::InvalidParameter {
                    name: "cells_per_dim",
                    reason: format!("dimension {i} has zero cells"),
                });
            }
            if domain.extent(i) == 0.0 && n != 1 {
                return Err(CoreError::InvalidParameter {
                    name: "cells_per_dim",
                    reason: format!("dimension {i} has zero extent but {n} cells"),
                });
            }
        }
        if cell_count(cells_per_dim.iter().copied()).is_none() {
            return Err(CoreError::InvalidParameter {
                name: "cells_per_dim",
                reason: format!("{cells_per_dim:?} cells overflow a cell id"),
            });
        }
        let widths = (0..domain.dim())
            .map(|i| domain.extent(i) / cells_per_dim[i] as f64)
            .collect();
        Ok(GridSpec {
            domain,
            cells_per_dim,
            widths,
        })
    }

    /// Creates a uniform grid with the same cell count in every dimension.
    ///
    /// # Errors
    /// See [`GridSpec::new`].
    pub fn uniform(domain: Rect, cells: usize) -> Result<Self, CoreError> {
        let d = domain.dim();
        GridSpec::new(domain, vec![cells; d])
    }

    /// Creates the Cell-Based algorithm's grid: cell side
    /// `metric.cell_side_for(r, d)` (the paper's `r/(2√d)` under `L2`) so
    /// that any two points in adjacent cells are within distance `r` of
    /// each other.
    ///
    /// # Errors
    /// Returns an error if `r` is not positive. Sizing follows
    /// [`GridSpec::with_cell_side`]: at most `max_cells_per_dim` per
    /// dimension, and never more cells than a [`CellId`] can number.
    pub fn for_cell_based(
        domain: &Rect,
        r: f64,
        metric: crate::metric::Metric,
        max_cells_per_dim: usize,
    ) -> Result<Self, CoreError> {
        if !(r.is_finite() && r > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "r",
                reason: format!("must be a finite positive number, got {r}"),
            });
        }
        let side = metric.cell_side_for(r, domain.dim());
        GridSpec::with_cell_side(domain.clone(), side, max_cells_per_dim)
    }

    /// Creates a grid of cells of side `side`: `⌈extent / side⌉` cells
    /// along each dimension, clamped to `1..=max_cells_per_dim`, and one
    /// cell along a zero-extent dimension.
    ///
    /// When those counts hold more cells than a [`CellId`] can number,
    /// every count is lowered to the largest common cap whose product
    /// fits: the widest dimensions get cells wider than `side`, as a
    /// clamp to `max_cells_per_dim` already makes them, and every caller
    /// sizes its neighbor radius from [`GridSpec::width`]. A grid that
    /// fits is never changed.
    ///
    /// # Errors
    /// See [`GridSpec::new`].
    pub fn with_cell_side(
        domain: Rect,
        side: f64,
        max_cells_per_dim: usize,
    ) -> Result<Self, CoreError> {
        let mut counts: Vec<usize> = (0..domain.dim())
            .map(|i| {
                let extent = domain.extent(i);
                if extent == 0.0 {
                    1
                } else {
                    ((extent / side).ceil() as usize).clamp(1, max_cells_per_dim.max(1))
                }
            })
            .collect();
        if cell_count(counts.iter().copied()).is_none() {
            let capped = |cap: usize| counts.iter().map(move |&n| n.min(cap));
            // Binary search for the largest cap that fits: 1 always does,
            // the largest count does not.
            let (mut fits, mut overflows) = (1, counts.iter().copied().max().unwrap_or(1));
            while overflows - fits > 1 {
                let mid = fits + (overflows - fits) / 2;
                if cell_count(capped(mid)).is_some() {
                    fits = mid;
                } else {
                    overflows = mid;
                }
            }
            counts = capped(fits).collect();
        }
        GridSpec::new(domain, counts)
    }

    /// The domain covered by the grid.
    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.domain.dim()
    }

    /// Number of cells along dimension `i`.
    pub fn cells_in_dim(&self, i: usize) -> usize {
        self.cells_per_dim[i]
    }

    /// Total number of cells; [`GridSpec::new`] guarantees it fits.
    pub fn num_cells(&self) -> usize {
        self.cells_per_dim.iter().product()
    }

    /// Cell side length along dimension `i`.
    pub fn width(&self, i: usize) -> f64 {
        self.widths[i]
    }

    /// Index along dimension `i` of the cell containing coordinate `v`,
    /// clamped into the grid so that upper-boundary (and out-of-domain)
    /// coordinates land in the nearest edge cell.
    pub fn index_in_dim(&self, i: usize, v: f64) -> usize {
        if self.widths[i] == 0.0 {
            0
        } else {
            let raw = ((v - self.domain.min()[i]) / self.widths[i]).floor();
            (raw.max(0.0) as usize).min(self.cells_per_dim[i] - 1)
        }
    }

    /// Per-dimension index of the cell containing `x`, clamped into the
    /// grid so that upper-boundary points land in the last cell.
    pub fn coords_of(&self, x: &[f64]) -> Vec<usize> {
        debug_assert_eq!(x.len(), self.dim());
        (0..self.dim())
            .map(|i| self.index_in_dim(i, x[i]))
            .collect()
    }

    /// Linear id of the cell containing `x` (row-major). Allocation-free.
    pub fn cell_of(&self, x: &[f64]) -> CellId {
        debug_assert_eq!(x.len(), self.dim());
        x.iter().enumerate().fold(0, |id, (i, &v)| {
            id * self.cells_per_dim[i] + self.index_in_dim(i, v)
        })
    }

    /// Row-major linearization of per-dimension cell indices.
    pub fn linearize(&self, idx: &[usize]) -> CellId {
        debug_assert_eq!(idx.len(), self.dim());
        let mut id = 0usize;
        for (i, &c) in idx.iter().enumerate() {
            debug_assert!(c < self.cells_per_dim[i]);
            id = id * self.cells_per_dim[i] + c;
        }
        id
    }

    /// Inverse of [`GridSpec::linearize`].
    pub fn delinearize(&self, mut id: CellId) -> Vec<usize> {
        let d = self.dim();
        let mut idx = vec![0usize; d];
        for i in (0..d).rev() {
            idx[i] = id % self.cells_per_dim[i];
            id /= self.cells_per_dim[i];
        }
        idx
    }

    /// The rectangle covered by cell `id`.
    pub fn cell_rect(&self, id: CellId) -> Rect {
        let idx = self.delinearize(id);
        let min: Vec<f64> = (0..self.dim())
            .map(|i| self.domain.min()[i] + idx[i] as f64 * self.widths[i])
            .collect();
        let max: Vec<f64> = (0..self.dim())
            .map(|i| {
                if idx[i] + 1 == self.cells_per_dim[i] {
                    // Use the exact domain bound to avoid FP drift on the
                    // last cell.
                    self.domain.max()[i]
                } else {
                    self.domain.min()[i] + (idx[i] + 1) as f64 * self.widths[i]
                }
            })
            .collect();
        Rect::new(min, max).expect("cell bounds are valid by construction")
    }

    /// Visits, in ascending id order, every cell whose index along each
    /// dimension `i` lies in the inclusive range `range_of(i)`, for as long
    /// as `visit` returns `true`; returns whether the walk ran to the end
    /// (the contract of [`Iterator::all`]). Allocation-free.
    ///
    /// `range_of(i)` must return `lo <= hi < cells_in_dim(i)`; it is asked
    /// again for each prefix of the outer dimensions, so keep it cheap.
    pub fn visit_block<R, V>(&self, range_of: R, mut visit: V) -> bool
    where
        R: Fn(usize) -> (usize, usize),
        V: FnMut(CellId) -> bool,
    {
        self.visit_block_rows(range_of, |mut row| row.all(&mut visit))
    }

    /// [`GridSpec::visit_block`] a row at a time: `visit_row` receives,
    /// in ascending order, each run of cells that differ only along the
    /// last dimension — consecutive ids. The one odometer over an index
    /// box: every other block enumeration in the workspace goes through
    /// it.
    fn visit_block_rows<R, V>(&self, range_of: R, mut visit_row: V) -> bool
    where
        R: Fn(usize) -> (usize, usize),
        V: FnMut(RangeInclusive<CellId>) -> bool,
    {
        self.visit_rows_from(0, 0, &range_of, &mut visit_row)
    }

    fn visit_rows_from<R, V>(
        &self,
        i: usize,
        prefix: CellId,
        range_of: &R,
        visit_row: &mut V,
    ) -> bool
    where
        R: Fn(usize) -> (usize, usize),
        V: FnMut(RangeInclusive<CellId>) -> bool,
    {
        let (lo, hi) = range_of(i);
        debug_assert!(lo <= hi && hi < self.cells_per_dim[i]);
        let row = prefix * self.cells_per_dim[i];
        if i + 1 == self.dim() {
            visit_row(row + lo..=row + hi)
        } else {
            (row + lo..=row + hi).all(|id| self.visit_rows_from(i + 1, id, range_of, visit_row))
        }
    }

    /// [`GridSpec::visit_block`] over the cells within `radius_of(i)`
    /// index steps of `center_of(i)` along each dimension, clamped to the
    /// grid — the Cell-Based detector's `3^d` ring and candidate block.
    pub fn visit_around<C, R, V>(&self, center_of: C, radius_of: R, visit: V) -> bool
    where
        C: Fn(usize) -> usize,
        R: Fn(usize) -> usize,
        V: FnMut(CellId) -> bool,
    {
        self.visit_block(
            |i| {
                let (c, radius) = (center_of(i), radius_of(i));
                (
                    c.saturating_sub(radius),
                    (c + radius).min(self.cells_per_dim[i] - 1),
                )
            },
            visit,
        )
    }

    /// [`GridSpec::visit_block`] over the cells whose rectangle intersects
    /// the closed box with per-dimension bounds `bounds_of(i) = (min, max)`;
    /// visits nothing when the box is disjoint from the domain.
    pub fn visit_box<B, V>(&self, bounds_of: B, mut visit: V) -> bool
    where
        B: Fn(usize) -> (f64, f64),
        V: FnMut(CellId) -> bool,
    {
        self.visit_box_rows(bounds_of, |mut row| row.all(&mut visit))
    }

    /// [`GridSpec::visit_box`] a row at a time: `visit_row` receives, in
    /// ascending order, each run of cells that differ only along the last
    /// dimension — consecutive ids.
    pub fn visit_box_rows<B, V>(&self, bounds_of: B, visit_row: V) -> bool
    where
        B: Fn(usize) -> (f64, f64),
        V: FnMut(RangeInclusive<CellId>) -> bool,
    {
        let disjoint = (0..self.dim()).any(|i| {
            let (min, max) = bounds_of(i);
            max < self.domain.min()[i] || min > self.domain.max()[i]
        });
        disjoint
            || self.visit_block_rows(
                |i| {
                    let (min, max) = bounds_of(i);
                    (self.index_in_dim(i, min), self.index_in_dim(i, max))
                },
                visit_row,
            )
    }

    /// Ids of all cells whose rectangle intersects `query` (closed test).
    pub fn cells_intersecting(&self, query: &Rect) -> Vec<CellId> {
        debug_assert_eq!(query.dim(), self.dim());
        let mut out = Vec::new();
        self.visit_box(
            |i| (query.min()[i], query.max()[i]),
            |id| {
                out.push(id);
                true
            },
        );
        out
    }

    /// Ids of the cells within `radius_cells` grid steps of cell `id`
    /// (Chebyshev neighborhood), excluding `id` itself when
    /// `include_self == false`. Used by the Cell-Based detector's L1/L2
    /// neighborhoods.
    pub fn neighborhood(&self, id: CellId, radius_cells: usize, include_self: bool) -> Vec<CellId> {
        let idx = self.delinearize(id);
        let mut out = Vec::new();
        self.visit_around(
            |i| idx[i],
            |_| radius_cells,
            |cid| {
                if include_self || cid != id {
                    out.push(cid);
                }
                true
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_grid(nx: usize, ny: usize) -> GridSpec {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        GridSpec::new(domain, vec![nx, ny]).unwrap()
    }

    #[test]
    fn rejects_zero_cells() {
        let domain = Rect::new(vec![0.0], vec![1.0]).unwrap();
        assert!(GridSpec::new(domain, vec![0]).is_err());
    }

    #[test]
    fn rejects_mismatched_counts() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(GridSpec::new(domain, vec![2]).is_err());
    }

    #[test]
    fn zero_extent_needs_one_cell() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 0.0]).unwrap();
        assert!(GridSpec::new(domain.clone(), vec![2, 2]).is_err());
        assert!(GridSpec::new(domain, vec![2, 1]).is_ok());
    }

    #[test]
    fn num_cells_product() {
        assert_eq!(unit_grid(4, 3).num_cells(), 12);
    }

    #[test]
    fn linearize_round_trip() {
        let g = unit_grid(4, 3);
        for id in 0..g.num_cells() {
            assert_eq!(g.linearize(&g.delinearize(id)), id);
        }
    }

    #[test]
    fn cell_of_interior_point() {
        let g = unit_grid(2, 2);
        assert_eq!(g.coords_of(&[0.25, 0.25]), vec![0, 0]);
        assert_eq!(g.coords_of(&[0.75, 0.25]), vec![1, 0]);
        assert_eq!(g.coords_of(&[0.25, 0.75]), vec![0, 1]);
        assert_eq!(g.coords_of(&[0.75, 0.75]), vec![1, 1]);
    }

    #[test]
    fn upper_boundary_clamps_to_last_cell() {
        let g = unit_grid(2, 2);
        assert_eq!(g.coords_of(&[1.0, 1.0]), vec![1, 1]);
    }

    #[test]
    fn cell_rect_tiles_domain() {
        let g = unit_grid(4, 2);
        let total: f64 = (0..g.num_cells()).map(|id| g.cell_rect(id).volume()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Last cell's max hits the domain max exactly.
        let last = g.cell_rect(g.num_cells() - 1);
        assert_eq!(last.max(), g.domain().max());
    }

    #[test]
    fn cells_intersecting_small_query() {
        let g = unit_grid(4, 4);
        let q = Rect::new(vec![0.1, 0.1], vec![0.2, 0.2]).unwrap();
        assert_eq!(g.cells_intersecting(&q), vec![g.cell_of(&[0.15, 0.15])]);
    }

    #[test]
    fn cells_intersecting_spanning_query() {
        let g = unit_grid(4, 4);
        let q = Rect::new(vec![0.1, 0.1], vec![0.6, 0.1]).unwrap();
        // x spans cells 0..=2, y stays in row 0.
        let ids = g.cells_intersecting(&q);
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn cells_intersecting_disjoint_query() {
        let g = unit_grid(4, 4);
        let q = Rect::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap();
        assert!(g.cells_intersecting(&q).is_empty());
    }

    #[test]
    fn cells_intersecting_whole_domain() {
        let g = unit_grid(3, 3);
        let ids = g.cells_intersecting(g.domain());
        assert_eq!(ids.len(), 9);
    }

    #[test]
    fn neighborhood_center_cell() {
        let g = unit_grid(5, 5);
        let center = g.linearize(&[2, 2]);
        let n1 = g.neighborhood(center, 1, false);
        assert_eq!(n1.len(), 8);
        let n1_with_self = g.neighborhood(center, 1, true);
        assert_eq!(n1_with_self.len(), 9);
        let n2 = g.neighborhood(center, 2, true);
        assert_eq!(n2.len(), 25);
    }

    #[test]
    fn neighborhood_corner_cell_truncated() {
        let g = unit_grid(5, 5);
        let corner = g.linearize(&[0, 0]);
        assert_eq!(g.neighborhood(corner, 1, true).len(), 4);
        assert_eq!(g.neighborhood(corner, 2, true).len(), 9);
    }

    #[test]
    fn for_cell_based_side_length() {
        let domain = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]).unwrap();
        let g = GridSpec::for_cell_based(&domain, 10.0, crate::metric::Metric::Euclidean, 4096)
            .unwrap();
        // side = r / (2 sqrt(2)) ≈ 3.5355 -> ceil(100 / 3.5355) = 29 cells
        assert_eq!(g.cells_in_dim(0), 29);
        // Any two points in one cell are within r.
        let diag: f64 = (0..2).map(|i| g.width(i).powi(2)).sum::<f64>().sqrt();
        assert!(diag <= 10.0 / 2.0 + 1e-9);
    }

    #[test]
    fn for_cell_based_rejects_bad_r() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        assert!(
            GridSpec::for_cell_based(&domain, 0.0, crate::metric::Metric::Euclidean, 4096).is_err()
        );
        assert!(
            GridSpec::for_cell_based(&domain, -1.0, crate::metric::Metric::Euclidean, 4096)
                .is_err()
        );
    }

    #[test]
    fn for_cell_based_respects_cap() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1e9, 1e9]).unwrap();
        let g =
            GridSpec::for_cell_based(&domain, 1.0, crate::metric::Metric::Euclidean, 64).unwrap();
        assert_eq!(g.cells_in_dim(0), 64);
    }

    #[test]
    fn new_refuses_a_cell_count_past_cell_ids() {
        let domain = Rect::new(vec![0.0; 8], vec![1.0; 8]).unwrap();
        let err = GridSpec::new(domain.clone(), vec![512; 8]).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::InvalidParameter {
                    name: "cells_per_dim",
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(
            GridSpec::new(domain, vec![255; 8]).unwrap().num_cells(),
            255usize.pow(8)
        );
    }

    #[test]
    fn cell_side_sizing_lowers_only_grids_past_cell_ids() {
        // 512 cells of side 1 per dimension: 2^72 cells in 8-d. The common
        // cap that fits is 255 (256^8 is 2^64).
        let domain = Rect::new(vec![0.0; 8], vec![512.0; 8]).unwrap();
        let g = GridSpec::with_cell_side(domain, 1.0, 1024).unwrap();
        assert!((0..8).all(|i| g.cells_in_dim(i) == 255));
        assert!(g.width(0) > 2.0, "the lowered dimensions' cells widen");
        // A short dimension keeps its count, and the cap is the largest
        // that fits beside it.
        let mut max = vec![512.0; 8];
        max[3] = 7.0;
        let domain = Rect::new(vec![0.0; 8], max).unwrap();
        let g = GridSpec::with_cell_side(domain, 1.0, 1024).unwrap();
        let counts: Vec<usize> = (0..8).map(|i| g.cells_in_dim(i)).collect();
        assert_eq!(counts, [428, 428, 428, 7, 428, 428, 428, 428]);
        assert_eq!(cell_count([429, 429, 429, 7, 429, 429, 429, 429]), None);
        // Grids that fit are sized exactly as before.
        let domain = Rect::new(vec![0.0; 4], vec![512.0, 512.0, 512.0, 0.0]).unwrap();
        let g = GridSpec::with_cell_side(domain, 1.0, 1024).unwrap();
        let counts: Vec<usize> = (0..4).map(|i| g.cells_in_dim(i)).collect();
        assert_eq!(counts, [512, 512, 512, 1]);
    }

    #[test]
    fn visit_block_is_row_major_and_stops_when_told() {
        let domain = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let g = GridSpec::new(domain, vec![4, 5, 6]).unwrap();
        let (lo, hi) = ([1, 0, 2], [2, 3, 4]);
        let mut seen = Vec::new();
        let finished = g.visit_block(
            |i| (lo[i], hi[i]),
            |id| {
                seen.push(id);
                true
            },
        );
        assert!(finished);
        let mut expected = Vec::new();
        for a in lo[0]..=hi[0] {
            for b in lo[1]..=hi[1] {
                for c in lo[2]..=hi[2] {
                    expected.push(g.linearize(&[a, b, c]));
                }
            }
        }
        assert_eq!(seen, expected);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        // The row walk yields the same cells, one last-dimension run each.
        let mut rows = Vec::new();
        g.visit_block_rows(
            |i| (lo[i], hi[i]),
            |row| {
                rows.push(row);
                true
            },
        );
        assert_eq!(rows.len(), 2 * 4);
        assert!(rows
            .iter()
            .all(|row| row.end() - row.start() == hi[2] - lo[2]));
        assert_eq!(rows.into_iter().flatten().collect::<Vec<_>>(), expected);

        let mut visited = 0;
        let finished = g.visit_block(
            |i| (lo[i], hi[i]),
            |_| {
                visited += 1;
                visited < 7
            },
        );
        assert!(!finished);
        assert_eq!(visited, 7);
    }

    #[test]
    fn visit_around_clamps_and_takes_per_dimension_radii() {
        let g = unit_grid(10, 10);
        let count = |center: [usize; 2], radii: [usize; 2]| {
            let mut n = 0;
            g.visit_around(
                |i| center[i],
                |i| radii[i],
                |_| {
                    n += 1;
                    true
                },
            );
            n
        };
        assert_eq!(count([5, 5], [1, 1]), 9);
        // The paper's 2-d outlier block.
        assert_eq!(count([5, 5], [3, 3]), 49);
        assert_eq!(count([5, 5], [0, 2]), 5);
        assert_eq!(count([0, 0], [1, 1]), 4);
        assert_eq!(count([9, 0], [3, 1]), 8);
    }

    /// Largest bin count over the mean bin count when `ids` are hashed and
    /// binned by `bin_of(hash)` into `bins` bins.
    fn worst_over_uniform(
        ids: impl Iterator<Item = CellId>,
        bins: usize,
        bin_of: impl Fn(u64) -> usize,
    ) -> f64 {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<CellIdHasher>::default();
        let mut counts = vec![0u32; bins];
        let mut n = 0usize;
        for id in ids {
            counts[bin_of(build.hash_one(id))] += 1;
            n += 1;
        }
        let worst = *counts.iter().max().unwrap() as f64;
        worst / (n as f64 / bins as f64)
    }

    #[test]
    fn cell_id_hasher_spreads_strided_ids_over_index_and_control_bits() {
        // hashbrown indexes buckets by the low bits and tags them with the
        // top 7. One million ids — consecutive (a walk along the last
        // dimension) and strided by `cells_per_dim` = 1024 (a walk along
        // the first dimension at the default cell cap, a power of two
        // whose products have ten zero low bits before the fold) — must
        // fill both within these factors of uniform occupancy: the 65,536
        // index bins (mean ~15.3) stay under 3x, where a uniformly random
        // hash reaches ~2.6x; the 128 control bins (mean 7,812) under 1.05x.
        const N: usize = 1_000_000;
        for stride in [1usize, 1024] {
            let ids = || (0..N).map(move |i| i * stride);
            let low16 = worst_over_uniform(ids(), 1 << 16, |h| (h & 0xFFFF) as usize);
            let top7 = worst_over_uniform(ids(), 1 << 7, |h| (h >> 57) as usize);
            assert!(
                low16 < 3.0,
                "stride {stride}: low 16 bits {low16:.2}x uniform"
            );
            assert!(
                top7 < 1.05,
                "stride {stride}: top 7 bits {top7:.2}x uniform"
            );
        }
    }

    #[test]
    fn cell_map_round_trips_and_hasher_is_total() {
        let mut m: CellMap<u32> = CellMap::default();
        for id in (0..5000).map(|i| i * 1024) {
            m.insert(id, id as u32);
        }
        assert_eq!(m.len(), 5000);
        assert!((0..5000).all(|i| m.get(&(i * 1024)) == Some(&((i * 1024) as u32))));
        assert_eq!(m.get(&7), None);
        // Byte-slice keys take the `write` path and still hash by content.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<CellIdHasher>::default();
        assert_eq!(build.hash_one("abc"), build.hash_one("abc"));
        assert_ne!(build.hash_one("abc"), build.hash_one("abd"));
    }

    #[test]
    fn three_dimensional_grid() {
        let domain = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let g = GridSpec::new(domain, vec![2, 3, 4]).unwrap();
        assert_eq!(g.num_cells(), 24);
        for id in 0..24 {
            assert_eq!(g.linearize(&g.delinearize(id)), id);
            let rect = g.cell_rect(id);
            let c = rect.center();
            assert_eq!(g.cell_of(&c), id);
        }
    }

    proptest! {
        #[test]
        fn every_domain_point_has_exactly_one_cell(
            x in 0.0f64..=1.0, y in 0.0f64..=1.0,
            nx in 1usize..8, ny in 1usize..8,
        ) {
            let g = unit_grid(nx, ny);
            let id = g.cell_of(&[x, y]);
            prop_assert!(id < g.num_cells());
            // The owning cell's rect contains the point under closed
            // semantics (half-open interior, closed at domain max).
            let rect = g.cell_rect(id);
            prop_assert!(rect.contains_closed(&[x, y]));
        }

        #[test]
        fn cells_intersecting_is_sound_and_complete(
            qx0 in -0.5f64..1.0, qy0 in -0.5f64..1.0,
            w in 0.0f64..0.8, h in 0.0f64..0.8,
            nx in 1usize..6, ny in 1usize..6,
        ) {
            let g = unit_grid(nx, ny);
            let q = Rect::new(vec![qx0, qy0], vec![qx0 + w, qy0 + h]).unwrap();
            let got: std::collections::BTreeSet<_> =
                g.cells_intersecting(&q).into_iter().collect();
            for id in 0..g.num_cells() {
                let expected = g.cell_rect(id).intersects(&q);
                prop_assert_eq!(got.contains(&id), expected,
                    "cell {} mismatch", id);
            }
        }
    }
}
