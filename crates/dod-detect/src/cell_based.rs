//! The Cell-Based detector (Section IV-B).
//!
//! The domain is divided into a grid with cell side `r / (2√d)` (the
//! paper's 2-d cell of diagonal `r/2`). Two pruning rules then classify
//! whole cells without any distance computation:
//!
//! * **inlier rule** — if cell `C` plus its direct (3^d) neighbors hold
//!   more than `k` points, every point of `C` is an inlier, because every
//!   point of that block is within `r` of every point of `C`;
//! * **outlier rule** — if the block of cells that can possibly contain a
//!   neighbor (per-dimension radius `⌈r/wᵢ⌉`, the paper's 49-cell block in
//!   2-d) holds at most `k` points, every point of `C` is an outlier.
//!
//! Points of surviving cells are evaluated individually, "in a fashion
//! similar to Nested-Loop". By default the scan is restricted to the
//! candidate block of cells that can possibly hold a neighbor — Knorr &
//! Ng's actual algorithm, robust even when a partition's density was
//! mispredicted. The [`CellBased::full_scan_fallback`] variant instead
//! scans the whole partition in random order, which is exactly what the
//! Lemma 4.2 case-3 cost model (`|D| + Cost_NL`) charges; Figure 5's
//! middle-band crossover reflects that variant. When the configured cell
//! cap forces cells wider than `r/(2√d)` the inlier rule is disabled (it
//! would be unsound) while the outlier rule's per-dimension radius adapts
//! and stays exact, so the detector is correct for every configuration.

use crate::detector::{Detection, DetectionStats, Detector};
use crate::partition::Partition;
use crate::scan::{count_tile_excluding, PermutedScan};
use dod_core::{CellId, CellMap, GridSpec, OutlierParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The build-phase product of the Cell-Based detector: the grid plus the
/// hash of every point into its non-empty cell.
///
/// Splitting the one-shot detector into an index build and a query phase
/// lets a resident engine (see the `dod-engine` crate) pay the hashing
/// cost once and then answer many requests — both full re-detections
/// ([`CellBased::detect_with_index`]) and per-point neighbor counts for
/// incoming query points ([`CellIndex::count_core_neighbors`]).
#[derive(Debug, Clone)]
pub struct CellIndex {
    grid: GridSpec,
    buckets: CellMap<Bucket>,
    build_ops: u64,
    /// Soundness guard of the inlier rule for this grid: every pair of
    /// points inside a `3^d` block of cells is within `r` — the metric
    /// distance across a 2-cell-per-dimension span does not exceed it.
    /// False when the cell cap forced cells wider than `r/(2√d)`.
    inlier_rule_valid: bool,
}

impl CellIndex {
    /// Hashes every point of `partition` (core and support) into grid
    /// cells of side `r / (2√d)` (capped at `max_cells_per_dim`).
    ///
    /// Returns `None` for a partition with no points at all — there is
    /// no bounding rectangle to build a grid over.
    pub fn build(
        partition: &Partition,
        params: OutlierParams,
        max_cells_per_dim: usize,
    ) -> Option<CellIndex> {
        if partition.total_len() == 0 {
            return None;
        }
        let bounds = partition.bounding_rect().expect("non-empty partition");
        let grid = GridSpec::for_cell_based(&bounds, params.r, params.metric, max_cells_per_dim)
            .expect("validated params");
        let mut index = CellIndex::empty(grid, params);
        let n_core = partition.core().len();
        for idx in 0..partition.total_len() {
            let p = partition.point(idx);
            let bucket = index.buckets.entry(index.grid.cell_of(p)).or_default();
            // Indices arrive ascending, so each sub-tile's index list is
            // sorted at build time and the per-bucket scan order (core
            // tile, then support tile) matches the unified
            // core-then-support order the one-shot detector walks.
            if idx < n_core {
                bucket.core.push(idx as u32);
                bucket.core_coords.extend_from_slice(p);
            } else {
                bucket.support.push((idx - n_core) as u32);
                bucket.support_coords.extend_from_slice(p);
            }
        }
        index.build_ops = partition.total_len() as u64;
        Some(index)
    }

    /// An index over `grid` holding no points yet.
    fn empty(grid: GridSpec, params: OutlierParams) -> CellIndex {
        let dim = grid.dim();
        let span: Vec<f64> = (0..dim).map(|i| 2.0 * grid.width(i)).collect();
        let inlier_rule_valid = params.metric.dist(&vec![0.0; dim], &span) <= params.r + 1e-12;
        CellIndex {
            grid,
            buckets: CellMap::default(),
            build_ops: 0,
            inlier_rule_valid,
        }
    }

    /// Number of points hashed during the build (the `index_operations`
    /// the one-shot detector would have charged).
    pub fn build_ops(&self) -> u64 {
        self.build_ops
    }

    /// Hashes a new core point (index `core_idx` in the partition's core
    /// set) into its cell — the cell-count increment of an incremental
    /// insert.
    ///
    /// Returns `false` when `p` lies outside the grid's domain: the grid
    /// was sized over the bounding rectangle at build time, so a point
    /// beyond it cannot be hashed and the caller must rebuild the index.
    pub fn insert_core(&mut self, core_idx: u32, p: &[f64]) -> bool {
        if !self.grid.domain().contains_closed(p) {
            return false;
        }
        let bucket = self.buckets.entry(self.grid.cell_of(p)).or_default();
        bucket.core.push(core_idx);
        bucket.core_coords.extend_from_slice(p);
        self.build_ops += 1;
        true
    }

    /// Hashes a new support point (index `support_idx` in the
    /// partition's support set) into its cell. Same domain contract as
    /// [`CellIndex::insert_core`].
    pub fn insert_support(&mut self, support_idx: u32, p: &[f64]) -> bool {
        if !self.grid.domain().contains_closed(p) {
            return false;
        }
        let bucket = self.buckets.entry(self.grid.cell_of(p)).or_default();
        bucket.support.push(support_idx);
        bucket.support_coords.extend_from_slice(p);
        self.build_ops += 1;
        true
    }

    /// Unhashes core point `core_idx`, located by its coordinates `p`
    /// (which must be the coordinates it was inserted with).
    pub fn remove_core(&mut self, core_idx: u32, p: &[f64]) {
        let dim = self.grid.dim();
        let cell = self.grid.cell_of(p);
        if let Some(bucket) = self.buckets.get_mut(&cell) {
            swap_remove_entry(&mut bucket.core, &mut bucket.core_coords, dim, core_idx);
            if bucket.is_empty() {
                self.buckets.remove(&cell);
            }
        }
    }

    /// Unhashes support point `support_idx`, located by its coordinates.
    pub fn remove_support(&mut self, support_idx: u32, p: &[f64]) {
        let dim = self.grid.dim();
        let cell = self.grid.cell_of(p);
        if let Some(bucket) = self.buckets.get_mut(&cell) {
            swap_remove_entry(
                &mut bucket.support,
                &mut bucket.support_coords,
                dim,
                support_idx,
            );
            if bucket.is_empty() {
                self.buckets.remove(&cell);
            }
        }
    }

    /// Rewrites the stored core index `from` to `to` (coordinates `p`
    /// locate its cell) — the fix-up after a swap-remove moved the
    /// partition's last core point into slot `to`.
    pub fn renumber_core(&mut self, from: u32, to: u32, p: &[f64]) {
        if let Some(bucket) = self.buckets.get_mut(&self.grid.cell_of(p)) {
            if let Some(slot) = bucket.core.iter_mut().find(|x| **x == from) {
                *slot = to;
            }
        }
    }

    /// Rewrites the stored support index `from` to `to` (coordinates `p`
    /// locate its cell).
    pub fn renumber_support(&mut self, from: u32, to: u32, p: &[f64]) {
        if let Some(bucket) = self.buckets.get_mut(&self.grid.cell_of(p)) {
            if let Some(slot) = bucket.support.iter_mut().find(|x| **x == from) {
                *slot = to;
            }
        }
    }

    /// Counts the **core** points of `partition` within distance `r` of an
    /// arbitrary query point `q` (which need not belong to the partition),
    /// stopping early once `cap` neighbors are found.
    ///
    /// See [`CellIndex::count_core_neighbors_traced`] for how.
    pub fn count_core_neighbors(
        &self,
        partition: &Partition,
        q: &[f64],
        params: OutlierParams,
        cap: usize,
    ) -> usize {
        self.count_core_neighbors_traced(partition, q, params, cap)
            .0
    }

    /// [`CellIndex::count_core_neighbors`] that also returns the work
    /// performed: the number of candidate points examined across all
    /// visited buckets, directly chargeable to `distance_evaluations`.
    ///
    /// The paper's inlier rule (Section IV-B) decides first, with no
    /// distance computation: when `q` lies inside the grid's domain and
    /// the grid passes the rule's soundness guard, every core point of
    /// `q`'s own cell and of its `3^d` ring is within `r` of `q`, so as
    /// soon as those cells — own cell first — hold `cap` core points the
    /// answer is `(cap, 0)`. Support copies never count. Outside the
    /// domain `cell_of` clamps, so the cell says nothing about `q` and the
    /// rule stays off.
    ///
    /// Otherwise only cells intersecting the `[q − r, q + r]` box are
    /// scanned, in ascending cell id; that box contains every possible
    /// neighbor under any supported `Lp` metric because a
    /// single-coordinate difference lower-bounds the distance.
    pub fn count_core_neighbors_traced(
        &self,
        partition: &Partition,
        q: &[f64],
        params: OutlierParams,
        cap: usize,
    ) -> (usize, u64) {
        if cap == 0 {
            return (0, 0);
        }
        debug_assert_eq!(q.len(), partition.dim());
        let grid = &self.grid;
        if self.inlier_rule_valid && grid.domain().contains_closed(q) {
            let core_in = |cell: CellId| self.buckets.get(&cell).map_or(0, |b| b.core.len());
            let own = grid.cell_of(q);
            let mut certain = core_in(own);
            if certain < cap {
                grid.visit_around(
                    |i| grid.index_in_dim(i, q[i]),
                    |_| 1,
                    |cell| {
                        if cell != own {
                            certain += core_in(cell);
                        }
                        certain < cap
                    },
                );
            }
            if certain >= cap {
                return (cap, 0);
            }
        }
        let pred = params.predicate();
        let mut count = 0usize;
        let mut work = 0u64;
        grid.visit_box(
            |i| (q[i] - params.r, q[i] + params.r),
            |cell| {
                if let Some(bucket) = self.buckets.get(&cell) {
                    let outcome = pred.count_within_tile(q, &bucket.core_coords, cap - count);
                    count += outcome.found;
                    work += outcome.scanned as u64;
                }
                count < cap
            },
        );
        (count, work)
    }
}

/// Grid-pruning detector.
#[derive(Debug, Clone, Copy)]
pub struct CellBased {
    /// Upper bound on grid cells per dimension, to bound memory on very
    /// large or very sparse domains.
    max_cells_per_dim: usize,
    /// Whether the fallback scan is restricted to the candidate block
    /// (`true`, what [`CellBased::new`] sets) or runs over the whole
    /// partition as in the paper (`false`, set by
    /// [`CellBased::full_scan_fallback`]).
    block_restricted: bool,
    /// Seed for the randomized fallback scan order.
    seed: u64,
}

impl CellBased {
    /// Per-dimension cell cap used by [`CellBased::default`].
    pub const DEFAULT_MAX_CELLS_PER_DIM: usize = 1024;

    /// Creates a detector with the given per-dimension cell cap.
    pub fn new(max_cells_per_dim: usize) -> Self {
        CellBased {
            max_cells_per_dim: max_cells_per_dim.max(1),
            block_restricted: true,
            seed: 0xD0D_0002,
        }
    }

    /// Scans the whole partition in random order during the fallback —
    /// the behaviour the Lemma 4.2 case-3 cost model charges.
    pub fn full_scan_fallback(mut self) -> Self {
        self.block_restricted = false;
        self
    }
}

impl Default for CellBased {
    fn default() -> Self {
        CellBased::new(CellBased::DEFAULT_MAX_CELLS_PER_DIM)
    }
}

/// Points of one non-empty grid cell, split into core and support
/// sub-tiles. Each side keeps its indices (into the partition's core or
/// support set respectively) aligned with its coordinates gathered into
/// a contiguous row-major tile, which the scans read through
/// `count_tile_excluding` → `count_within_tile`. The split — rather
/// than one unified sorted list — is what makes the cell index
/// incrementally maintainable: an insert appends to one sub-tile and a
/// removal swap-removes one entry, neither disturbing the other side's
/// indices.
#[derive(Debug, Clone, Default)]
struct Bucket {
    core: Vec<u32>,
    core_coords: Vec<f64>,
    support: Vec<u32>,
    support_coords: Vec<f64>,
}

impl Bucket {
    fn len(&self) -> usize {
        self.core.len() + self.support.len()
    }

    fn is_empty(&self) -> bool {
        self.core.is_empty() && self.support.is_empty()
    }
}

/// Swap-removes the entry holding index `target` from an index-aligned
/// `(indices, coords)` sub-tile. Returns whether it was present.
fn swap_remove_entry(
    indices: &mut Vec<u32>,
    coords: &mut Vec<f64>,
    dim: usize,
    target: u32,
) -> bool {
    let Some(pos) = indices.iter().position(|&x| x == target) else {
        return false;
    };
    indices.swap_remove(pos);
    let last = indices.len();
    if pos < last {
        let (head, tail) = coords.split_at_mut(last * dim);
        head[pos * dim..(pos + 1) * dim].copy_from_slice(&tail[..dim]);
    }
    coords.truncate(last * dim);
    true
}

impl Detector for CellBased {
    fn name(&self) -> &'static str {
        "cell-based"
    }

    fn detect(&self, partition: &Partition, params: OutlierParams) -> Detection {
        if partition.core().is_empty() {
            return Detection::default();
        }
        let index = CellIndex::build(partition, params, self.max_cells_per_dim)
            .expect("core is non-empty, so the partition has points");
        self.detect_with_index(partition, params, &index)
    }
}

impl CellBased {
    /// The query phase of the detector: classifies every core point of
    /// `partition` against a prebuilt [`CellIndex`].
    ///
    /// `index` must have been built from the same partition with the same
    /// parameters and cell cap; the outlier set is then exactly the one
    /// the one-shot [`Detector::detect`] returns.
    pub fn detect_with_index(
        &self,
        partition: &Partition,
        params: OutlierParams,
        index: &CellIndex,
    ) -> Detection {
        let n_core = partition.core().len();
        let total = partition.total_len();
        if n_core == 0 {
            return Detection::default();
        }
        let dim = partition.dim();
        let grid = &index.grid;
        let buckets = &index.buckets;
        let mut stats = DetectionStats {
            index_operations: index.build_ops,
            ..Default::default()
        };

        // Per-dimension radius of the exact candidate block: a neighbor
        // differs by at most ceil(r / width) cell indices per dimension.
        let radii: Vec<usize> = (0..dim)
            .map(|i| {
                let w = grid.width(i);
                if w == 0.0 {
                    0
                } else {
                    (params.r / w).ceil() as usize
                }
            })
            .collect();

        // Deterministic cell order.
        let mut cell_ids: Vec<usize> = buckets.keys().copied().collect();
        cell_ids.sort_unstable();

        let count_of = |cid: usize| buckets.get(&cid).map_or(0usize, |b| b.len());

        // Randomized scan order for the paper-faithful full fallback,
        // gathered into a contiguous buffer for the tile kernels.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let full_scan = if self.block_restricted {
            None
        } else {
            let mut full_order: Vec<u32> = (0..total as u32).collect();
            full_order.shuffle(&mut rng);
            Some(PermutedScan::new(partition, &full_order))
        };
        let pred = params.predicate();

        let mut outliers = Vec::new();
        for &cid in &cell_ids {
            let bucket = &buckets[&cid];
            let core_in_cell = &bucket.core;
            if core_in_cell.is_empty() {
                continue; // pure support cell: nothing to classify
            }
            let idx = grid.delinearize(cid);

            // Inlier rule over the 3^d block.
            if index.inlier_rule_valid {
                let mut w1 = 0usize;
                grid.visit_around(
                    |i| idx[i],
                    |_| 1,
                    |c| {
                        w1 += count_of(c);
                        true
                    },
                );
                if w1 > params.k {
                    stats.pruned_points += core_in_cell.len() as u64;
                    continue;
                }
            }

            // Exact candidate block (outlier rule + per-point fallback).
            let mut candidate_cells = Vec::new();
            grid.visit_around(
                |i| idx[i],
                |i| radii[i],
                |c| {
                    candidate_cells.push(c);
                    true
                },
            );
            let w2: usize = candidate_cells.iter().copied().map(count_of).sum();
            if w2 <= params.k {
                // Even counting itself, no point in C can reach k neighbors.
                stats.pruned_points += core_in_cell.len() as u64;
                for &i in core_in_cell {
                    outliers.push(partition.core_id(i as usize));
                }
                continue;
            }

            // Fallback: evaluate each surviving core point individually,
            // nested-loop style with early termination, feeding the
            // candidate cells' gathered tiles to the kernels. Each
            // bucket's core tile is scanned before its support tile —
            // the unified core-then-support order of the one-shot path.
            for &i in core_in_cell {
                let p = partition.core().point(i as usize);
                let mut neighbors = 0usize;
                if let Some(full) = &full_scan {
                    // Paper-faithful: random-order scan over the whole
                    // partition (Lemma 4.2 case 3 models this as Cost_NL).
                    let start = rng.gen_range(0..total);
                    let (found, scanned) = full.count_cycle(&pred, p, start, i as usize, params.k);
                    stats.distance_evaluations += scanned;
                    neighbors = found;
                } else {
                    for &ccid in &candidate_cells {
                        if neighbors >= params.k {
                            break;
                        }
                        let Some(cb) = buckets.get(&ccid) else {
                            continue;
                        };
                        // The point itself lives in its own cell's core
                        // sub-tile; buckets are small, so a linear find
                        // locates it.
                        let skip = if ccid == cid {
                            cb.core.iter().position(|&x| x == i)
                        } else {
                            None
                        };
                        let (found, scanned) = count_tile_excluding(
                            &pred,
                            p,
                            &cb.core_coords,
                            dim,
                            skip,
                            params.k - neighbors,
                        );
                        stats.distance_evaluations += scanned;
                        neighbors += found;
                        if neighbors >= params.k {
                            break;
                        }
                        let (found, scanned) = count_tile_excluding(
                            &pred,
                            p,
                            &cb.support_coords,
                            dim,
                            None,
                            params.k - neighbors,
                        );
                        stats.distance_evaluations += scanned;
                        neighbors += found;
                    }
                }
                if neighbors < params.k {
                    outliers.push(partition.core_id(i as usize));
                }
            }
        }
        outliers.sort_unstable();
        Detection { outliers, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Reference;
    use dod_core::PointSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(r: f64, k: usize) -> OutlierParams {
        OutlierParams::new(r, k).unwrap()
    }

    fn random_partition(seed: u64, n_core: usize, n_support: usize, extent: f64) -> Partition {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut core = PointSet::new(2).unwrap();
        for _ in 0..n_core {
            core.push(&[rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)])
                .unwrap();
        }
        let mut support = PointSet::new(2).unwrap();
        for _ in 0..n_support {
            support
                .push(&[rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)])
                .unwrap();
        }
        let ids = (0..n_core as u64).collect();
        Partition::new(core, ids, support).unwrap()
    }

    #[test]
    fn matches_reference_on_random_data() {
        for seed in 0..10 {
            let p = random_partition(seed, 150, 40, 10.0);
            let prm = params(1.0, 4);
            let cb = CellBased::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            assert_eq!(cb.outliers, rf.outliers, "seed {seed}");
        }
    }

    #[test]
    fn matches_reference_with_tiny_cell_cap() {
        // Cap forces wide cells: inlier rule disabled, result still exact.
        for seed in 0..6 {
            let p = random_partition(seed, 100, 0, 10.0);
            let prm = params(1.5, 3);
            let cb = CellBased::new(3).detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            assert_eq!(cb.outliers, rf.outliers, "seed {seed}");
        }
    }

    #[test]
    fn dense_cluster_pruned_as_inliers() {
        // 100 coincident-ish points: the inlier rule should fire and skip
        // all distance evaluations.
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 1e-4, 0.0)).collect();
        let p = Partition::standalone(PointSet::from_xy(&pts));
        let det = CellBased::default().detect(&p, params(1.0, 4));
        assert!(det.outliers.is_empty());
        assert_eq!(det.stats.pruned_points, 100);
        assert_eq!(det.stats.distance_evaluations, 0);
    }

    #[test]
    fn far_scattered_points_pruned_as_outliers() {
        // Points pairwise far beyond r: outlier rule fires per cell.
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 100.0, 0.0)).collect();
        let p = Partition::standalone(PointSet::from_xy(&pts));
        let det = CellBased::default().detect(&p, params(1.0, 1));
        assert_eq!(det.outliers.len(), 10);
        assert_eq!(det.stats.distance_evaluations, 0);
    }

    #[test]
    fn mixed_core_and_support_cells() {
        // A core point rescued only by support points in an adjacent cell.
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::from_xy(&[(0.9, 0.0), (0.0, 0.9), (0.5, 0.5)]);
        let p = Partition::new(core, vec![0], support).unwrap();
        let det = CellBased::default().detect(&p, params(1.0, 3));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn isolated_support_point_not_reported() {
        let core = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.0)]);
        let support = PointSet::from_xy(&[(500.0, 500.0)]);
        let p = Partition::new(core, vec![0, 1], support).unwrap();
        let det = CellBased::default().detect(&p, params(1.0, 1));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn empty_partition() {
        let det = CellBased::default().detect(
            &Partition::standalone(PointSet::new(2).unwrap()),
            params(1.0, 1),
        );
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn single_point_is_outlier() {
        let p = Partition::standalone(PointSet::from_xy(&[(3.0, 4.0)]));
        let det = CellBased::default().detect(&p, params(1.0, 1));
        assert_eq!(det.outliers, vec![0]);
    }

    #[test]
    fn three_dimensional_exactness() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut core = PointSet::new(3).unwrap();
        for _ in 0..120 {
            core.push(&[
                rng.gen_range(0.0..6.0),
                rng.gen_range(0.0..6.0),
                rng.gen_range(0.0..6.0),
            ])
            .unwrap();
        }
        let p = Partition::standalone(core);
        let prm = params(1.2, 3);
        let cb = CellBased::default().detect(&p, prm);
        let rf = Reference.detect(&p, prm);
        assert_eq!(cb.outliers, rf.outliers);
    }

    #[test]
    fn block_restricted_is_exact_and_cheaper_in_fallback_regime() {
        // Intermediate density: neither pruning rule fires for most
        // cells, so the fallback scan dominates. The block-restricted
        // variant must agree with the reference while doing fewer
        // distance evaluations than the paper-faithful full scan.
        let p = random_partition(21, 2000, 0, 70.0);
        let prm = params(1.0, 4);
        let full = CellBased::default().full_scan_fallback().detect(&p, prm);
        let restricted = CellBased::default().detect(&p, prm);
        let rf = Reference.detect(&p, prm);
        assert_eq!(full.outliers, rf.outliers);
        assert_eq!(restricted.outliers, rf.outliers);
        assert!(
            restricted.stats.distance_evaluations * 2 < full.stats.distance_evaluations,
            "restricted {} vs full {}",
            restricted.stats.distance_evaluations,
            full.stats.distance_evaluations
        );
    }

    /// Checks `count_core_neighbors_traced` against a linear scan over the
    /// core set (`found == min(true, cap)`) for every `cap` in `1..=k+2`,
    /// and returns how many probes the inlier rule decided — the ones
    /// that found neighbors without examining a single candidate.
    fn rule_decided_probes_after_checking_exactness(
        index: &CellIndex,
        part: &Partition,
        prm: OutlierParams,
        queries: &[[f64; 2]],
    ) -> usize {
        let mut decided = 0;
        for q in queries {
            let truth = part.core().iter().filter(|p| prm.neighbors(q, p)).count();
            for cap in 1..=prm.k + 2 {
                let (found, work) = index.count_core_neighbors_traced(part, q, prm, cap);
                assert_eq!(found, truth.min(cap), "query {q:?} cap {cap}");
                if found > 0 && work == 0 {
                    assert_eq!(found, cap, "only the rule answers without work");
                    decided += 1;
                } else {
                    assert!(work >= found as u64, "query {q:?} cap {cap}");
                }
            }
        }
        decided
    }

    /// 120 core points in a 0.3-wide blob at the origin corner plus a far
    /// core point that stretches the bounding box to `[0, 10]²`.
    fn blob_partition(support: &[(f64, f64)]) -> Partition {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pts: Vec<(f64, f64)> = (0..120)
            .map(|_| (rng.gen_range(0.0..0.3), rng.gen_range(0.0..0.3)))
            .collect();
        pts.push((10.0, 10.0));
        let ids = (0..pts.len() as u64).collect();
        Partition::new(PointSet::from_xy(&pts), ids, PointSet::from_xy(support)).unwrap()
    }

    #[test]
    fn inlier_rule_is_exact_and_fires_on_a_dense_blob() {
        let part = blob_partition(&[]);
        let prm = params(1.0, 4);
        let index = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        assert!(index.inlier_rule_valid);
        let queries = [
            [0.1, 0.1],   // own cell decides
            [0.5, 0.5],   // empty own cell, the ring decides
            [0.9, 0.2],   // blob within r but beyond the ring: box walk
            [5.0, 5.0],   // nothing near
            [10.0, 10.0], // upper domain corner: its cell holds one point
        ];
        let decided = rule_decided_probes_after_checking_exactness(&index, &part, prm, &queries);
        // Both blob-side queries at every cap in 1..=k+2, the corner at cap 1.
        assert_eq!(decided, 2 * (prm.k + 2) + 1);
    }

    #[test]
    fn inlier_rule_stays_off_when_the_cell_cap_widens_cells() {
        // Three cells per dimension over a 10-wide box: cells are 3.3 wide,
        // far beyond r/(2√2), so a full ring says nothing about distance.
        let part = blob_partition(&[]);
        let prm = params(1.0, 4);
        let index = CellIndex::build(&part, prm, 3).unwrap();
        assert!(!index.inlier_rule_valid);
        let queries = [[0.1, 0.1], [0.5, 0.5], [2.0, 2.0], [3.2, 0.1], [10.0, 10.0]];
        let decided = rule_decided_probes_after_checking_exactness(&index, &part, prm, &queries);
        assert_eq!(decided, 0);
    }

    #[test]
    fn inlier_rule_stays_off_outside_the_bounding_box() {
        // Outside the grid `cell_of` clamps into an edge cell; its count
        // says nothing about the query, however close the blob is.
        let part = blob_partition(&[]);
        let prm = params(1.0, 4);
        let index = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        let queries = [
            [-0.05, 0.1], // a hair outside, the whole blob within r
            [-0.9, 0.1],  // part of the blob within r
            [0.1, -1.2],  // beyond r of everything, clamps into the blob's cell
            [-30.0, -30.0],
            [10.5, 10.0],
        ];
        let decided = rule_decided_probes_after_checking_exactness(&index, &part, prm, &queries);
        assert_eq!(decided, 0);
    }

    #[test]
    fn inlier_rule_never_counts_support_copies() {
        // A cell packed with support copies only, two core points in the
        // ring: the rule may count the two, never the copies.
        let support: Vec<(f64, f64)> = (0..40).map(|i| (5.0 + 0.001 * i as f64, 5.0)).collect();
        let core = PointSet::from_xy(&[(5.4, 5.0), (5.0, 5.4), (0.0, 0.0), (10.0, 10.0)]);
        let part = Partition::new(core, vec![0, 1, 2, 3], PointSet::from_xy(&support)).unwrap();
        let prm = params(1.0, 4);
        let index = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        assert!(index.inlier_rule_valid);
        let own = &index.buckets[&index.grid.cell_of(&[5.02, 5.0])];
        assert!(own.core.is_empty() && own.support.len() == 40);
        let queries = [[5.02, 5.0], [5.3, 5.3]];
        rule_decided_probes_after_checking_exactness(&index, &part, prm, &queries);
        assert_eq!(
            index
                .count_core_neighbors_traced(&part, &[5.02, 5.0], prm, 6)
                .0,
            2
        );
    }

    #[test]
    fn incremental_mutations_match_fresh_build() {
        // Build an index over a prefix, splice the remaining points in
        // via insert_core/insert_support, remove a few (with renumber
        // fix-ups mirroring Partition::swap_remove_core), and check the
        // detection and count answers against a fresh build of the same
        // surviving partition.
        let prm = params(1.0, 3);
        let full = random_partition(7, 60, 20, 8.0);
        let mut part = Partition::new(
            full.core().gather(&(0..40u64).collect::<Vec<_>>()),
            (0..40u64).collect(),
            full.support().gather(&(0..10u64).collect::<Vec<_>>()),
        )
        .unwrap();
        // Grid over the full bounding rect so incremental inserts stay
        // in-domain (out-of-domain inserts return false and force a
        // rebuild, exercised separately below).
        let bounds = full.bounding_rect().unwrap();
        let grid = GridSpec::for_cell_based(
            &bounds,
            prm.r,
            prm.metric,
            CellBased::DEFAULT_MAX_CELLS_PER_DIM,
        )
        .unwrap();
        let mut index = CellIndex::empty(grid, prm);
        for i in 0..part.core().len() {
            assert!(index.insert_core(i as u32, part.core().point(i)));
        }
        for i in 0..part.support().len() {
            assert!(index.insert_support(i as u32, part.support().point(i)));
        }
        for i in 40..60 {
            let p: Vec<f64> = full.core().point(i).to_vec();
            let ci = part.push_core(&p, i as u64).unwrap();
            assert!(index.insert_core(ci as u32, &p));
        }
        for i in 10..20 {
            let p: Vec<f64> = full.support().point(i).to_vec();
            let si = part.push_support(&p).unwrap();
            assert!(index.insert_support(si as u32, &p));
        }
        // Remove some core and support points, fixing up the moved-last
        // index exactly the way PartitionState does.
        for &victim in &[3usize, 17, 44, 0] {
            let p: Vec<f64> = part.core().point(victim).to_vec();
            let last = part.core().len() - 1;
            let moved: Option<Vec<f64>> = (victim < last).then(|| part.core().point(last).to_vec());
            part.swap_remove_core(victim);
            index.remove_core(victim as u32, &p);
            if let Some(mp) = moved {
                index.renumber_core(last as u32, victim as u32, &mp);
            }
        }
        for &victim in &[5usize, 0] {
            let p: Vec<f64> = part.support().point(victim).to_vec();
            let last = part.support().len() - 1;
            let moved: Option<Vec<f64>> =
                (victim < last).then(|| part.support().point(last).to_vec());
            part.swap_remove_support(victim);
            index.remove_support(victim as u32, &p);
            if let Some(mp) = moved {
                index.renumber_support(last as u32, victim as u32, &mp);
            }
        }
        let fresh = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        let via_mutations = CellBased::default().detect_with_index(&part, prm, &index);
        let via_fresh = CellBased::default().detect_with_index(&part, prm, &fresh);
        assert_eq!(via_mutations.outliers, via_fresh.outliers);
        for q in [&[0.5, 0.5][..], &[4.0, 4.0], &[7.9, 0.1], &[-3.0, 2.0]] {
            assert_eq!(
                index.count_core_neighbors(&part, q, prm, usize::MAX),
                fresh.count_core_neighbors(&part, q, prm, usize::MAX),
                "query {q:?}"
            );
        }
        // Out-of-domain insert is refused, signalling a rebuild.
        assert!(!index.insert_core(999, &[1e6, 1e6]));
        assert!(!index.insert_support(999, &[-1e6, 0.0]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn equivalent_to_reference(
            seed in 0u64..1000,
            n_core in 0usize..70,
            n_support in 0usize..25,
            r in 0.2f64..3.0,
            k in 1usize..6,
        ) {
            let p = random_partition(seed, n_core, n_support, 8.0);
            let prm = params(r, k);
            let cb = CellBased::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            prop_assert_eq!(cb.outliers.clone(), rf.outliers.clone());
            let cbf = CellBased::default().full_scan_fallback().detect(&p, prm);
            prop_assert_eq!(cbf.outliers, rf.outliers);
        }

        #[test]
        fn equivalent_under_duplicates(
            seed in 0u64..500,
            n in 1usize..40,
            k in 1usize..5,
        ) {
            // Many duplicated coordinates stress cell hashing boundaries.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut core = PointSet::new(2).unwrap();
            for _ in 0..n {
                let x = rng.gen_range(0..4) as f64;
                let y = rng.gen_range(0..4) as f64;
                core.push(&[x, y]).unwrap();
            }
            let p = Partition::standalone(core);
            let prm = params(1.0, k);
            let cb = CellBased::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            prop_assert_eq!(cb.outliers, rf.outliers);
        }
    }
}
