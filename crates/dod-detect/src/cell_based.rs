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
use crate::partition::{Partition, Side};
use crate::scan::PermutedScan;
use crate::tile::Tile;
use dod_core::{CellId, CellMap, GridSpec, NeighborPredicate, OutlierParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The build-phase product of the Cell-Based detector: the grid plus
/// every point of the partition laid out by cell.
///
/// Splitting the one-shot detector into an index build and a query phase
/// lets a resident engine (see the `dod-engine` crate) pay the layout
/// cost once and then answer many requests — both full re-detections
/// ([`CellBased::detect_with_index`]) and per-point neighbor counts for
/// incoming query points ([`CellIndex::count_core_neighbors_traced`]).
///
/// Each [`Side`] is one tile (`tile.rs`): an arena sorted by cell id at
/// build, where every occupied cell owns one run. A `Directory` maps a
/// cell to its *entry number*, which indexes both sides' run tables.
/// Because the build lays runs out in ascending cell id, the cells of
/// one grid row sit back to back, and a box walk scans a whole row as
/// one tile.
#[derive(Debug, Clone)]
pub struct CellIndex {
    grid: GridSpec,
    directory: Directory,
    /// Cell id of each entry — and so the length of both sides' run
    /// tables. Ascending for the entries the build made; a cell first
    /// occupied by a splice appends its entry.
    cells: Vec<CellId>,
    /// The core and the support tile, indexed by [`Side`].
    tiles: [Tile; 2],
    build_ops: u64,
    /// Soundness guard of the inlier rule for this grid: every pair of
    /// points inside a `3^d` block of cells is within `r` — the metric
    /// distance across a 2-cell-per-dimension span does not exceed it.
    /// False when the cell cap forced cells wider than `r/(2√d)`.
    inlier_rule_valid: bool,
}

/// Marks a cell with no entry in a dense directory.
const NO_ENTRY: u32 = u32::MAX;

/// Cell id → entry number, in one of two forms; [`Directory::entry`] is
/// the only place that tells them apart.
#[derive(Debug, Clone)]
enum Directory {
    /// One `u32` per grid cell, [`NO_ENTRY`] where the cell is empty —
    /// taken while the grid has at most `8·points + 4096` cells, so at
    /// most ~32 B per point.
    Dense(Vec<u32>),
    /// Occupied cells only, for grids too sparse for the dense form:
    /// clustered partitions in higher dimensions, or a few points spread
    /// over a wide extent.
    Keyed(CellMap<u32>),
}

impl Directory {
    /// The form for a grid holding `points` points.
    fn for_grid(grid: &GridSpec, points: usize) -> Directory {
        if grid.num_cells() <= points.saturating_mul(8).saturating_add(4096) {
            Directory::Dense(vec![NO_ENTRY; grid.num_cells()])
        } else {
            Directory::Keyed(CellMap::default())
        }
    }

    #[inline]
    fn entry(&self, cell: CellId) -> Option<usize> {
        match self {
            Directory::Dense(entries) => {
                let e = entries[cell];
                (e != NO_ENTRY).then_some(e as usize)
            }
            Directory::Keyed(entries) => entries.get(&cell).map(|&e| e as usize),
        }
    }

    fn insert(&mut self, cell: CellId, e: usize) {
        let e = u32::try_from(e).expect("entry numbers fit u32");
        match self {
            Directory::Dense(entries) => entries[cell] = e,
            Directory::Keyed(entries) => {
                entries.insert(cell, e);
            }
        }
    }

    /// Numbers the distinct cells of `cells` in ascending cell id and
    /// returns them in that order.
    fn number(&mut self, cells: &[CellId]) -> Vec<CellId> {
        let occupied = match self {
            // A counting pass: mark, then read the marks in cell order.
            Directory::Dense(entries) => {
                for &c in cells {
                    entries[c] = 0;
                }
                (0..entries.len())
                    .filter(|&c| entries[c] != NO_ENTRY)
                    .collect()
            }
            Directory::Keyed(_) => {
                let mut occupied = cells.to_vec();
                occupied.sort_unstable();
                occupied.dedup();
                occupied
            }
        };
        for (e, &c) in occupied.iter().enumerate() {
            self.insert(c, e);
        }
        occupied
    }
}

impl CellIndex {
    /// Lays every point of `partition` (core and support) out by grid
    /// cell of side `r / (2√d)` (capped at `max_cells_per_dim`).
    ///
    /// Returns `None` for a partition with no points at all — there is
    /// no bounding rectangle to build a grid over.
    pub fn build(
        partition: &Partition,
        params: OutlierParams,
        max_cells_per_dim: usize,
    ) -> Option<CellIndex> {
        let total = partition.total_len();
        if total == 0 {
            return None;
        }
        let bounds = partition.bounding_rect().expect("non-empty partition");
        let grid = GridSpec::for_cell_based(&bounds, params.r, params.metric, max_cells_per_dim)
            .expect("validated params");
        let mut index = CellIndex::empty(grid, params, total);
        let cells: Vec<CellId> = (0..total)
            .map(|i| index.grid.cell_of(partition.point(i)))
            .collect();
        index.cells = index.directory.number(&cells);
        let entry_of: Vec<u32> = cells
            .into_iter()
            .map(|c| index.directory.entry(c).expect("every cell is numbered") as u32)
            .collect();
        let (core, support) = entry_of.split_at(partition.core().len());
        let entries = index.cells.len();
        index.tiles = [
            Tile::build(partition.core(), core, entries),
            Tile::build(partition.support(), support, entries),
        ];
        index.build_ops = total as u64;
        Some(index)
    }

    /// An index over `grid` holding no points yet, with the directory
    /// form for `points` points.
    fn empty(grid: GridSpec, params: OutlierParams, points: usize) -> CellIndex {
        let dim = grid.dim();
        let span: Vec<f64> = (0..dim).map(|i| 2.0 * grid.width(i)).collect();
        let inlier_rule_valid = params.metric.dist(&vec![0.0; dim], &span) <= params.r + 1e-12;
        CellIndex {
            directory: Directory::for_grid(&grid, points),
            grid,
            cells: Vec::new(),
            tiles: [Tile::new(dim), Tile::new(dim)],
            build_ops: 0,
            inlier_rule_valid,
        }
    }

    /// Number of points laid out during the build (the
    /// `index_operations` the one-shot detector would have charged).
    pub fn build_ops(&self) -> u64 {
        self.build_ops
    }

    /// Entry number of the cell holding `p`, creating the entry if the
    /// cell is empty; `None` when `p` lies outside the grid's domain.
    fn entry_for_insert(&mut self, p: &[f64]) -> Option<usize> {
        if !self.grid.domain().contains_closed(p) {
            return None;
        }
        let cell = self.grid.cell_of(p);
        Some(self.directory.entry(cell).unwrap_or_else(|| {
            let e = self.cells.len();
            self.cells.push(cell);
            self.directory.insert(cell, e);
            for tile in &mut self.tiles {
                tile.open_run();
            }
            e
        }))
    }

    /// Adds point `slot` of `side` (its index in the partition's point
    /// set of that side) to its cell — the cell-count increment of an
    /// incremental insert.
    ///
    /// Returns `false` when `p` lies outside the grid's domain: the grid
    /// was sized over the bounding rectangle at build time, so a point
    /// beyond it has no cell and the caller must rebuild the index.
    pub fn push(&mut self, side: Side, slot: u32, p: &[f64]) -> bool {
        let Some(e) = self.entry_for_insert(p) else {
            return false;
        };
        self.tiles[side].push(e, slot, p);
        self.build_ops += 1;
        true
    }

    /// Removes point `slot` of `side`, located by the coordinates `p` it
    /// was inserted with — the index side of [`Partition::swap_remove`].
    /// `moved` is the slot and the coordinates of the point that the
    /// partition's swap-remove moves into `slot` (none when `slot` was
    /// the side's last); its entry is re-pointed at `slot`. Neither entry
    /// is searched for: the tile keeps each slot's arena position.
    pub fn swap_remove(&mut self, side: Side, slot: u32, p: &[f64], moved: Option<(u32, &[f64])>) {
        let Some(e) = self.directory.entry(self.grid.cell_of(p)) else {
            return;
        };
        let last = moved.map_or(slot, |(from, _)| from);
        self.tiles[side].swap_remove(e, slot, last);
    }

    /// Resident core points in `cell`.
    fn core_in(&self, cell: CellId) -> usize {
        let core = &self.tiles[Side::Core];
        self.directory.entry(cell).map_or(0, |e| core.len(e))
    }

    /// Counts the **core** points of `partition` within distance `r` of an
    /// arbitrary query point `q` (which need not belong to the partition),
    /// stopping early once `cap` neighbors are found. Returns the count
    /// and the work performed: the number of candidate points examined
    /// across all visited cells, directly chargeable to
    /// `distance_evaluations`.
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
    /// single-coordinate difference lower-bounds the distance. The cells
    /// of one grid row whose runs lie back to back in the core arena —
    /// as the build lays them out — are scanned as one tile; the order,
    /// and so the early-exit position and the work, is the cell-by-cell
    /// order.
    ///
    /// `pred` is the caller's predicate for the index's parameters — a
    /// resident state builds it once and lends it to every query.
    pub fn count_core_neighbors_traced(
        &self,
        partition: &Partition,
        q: &[f64],
        pred: NeighborPredicate,
        cap: usize,
    ) -> (usize, u64) {
        if cap == 0 {
            return (0, 0);
        }
        debug_assert_eq!(q.len(), partition.dim());
        let grid = &self.grid;
        if self.inlier_rule_valid && grid.domain().contains_closed(q) {
            let own = grid.cell_of(q);
            let mut certain = self.core_in(own);
            if certain < cap {
                grid.visit_around(
                    |i| grid.index_in_dim(i, q[i]),
                    |_| 1,
                    |cell| {
                        if cell != own {
                            certain += self.core_in(cell);
                        }
                        certain < cap
                    },
                );
            }
            if certain >= cap {
                return (cap, 0);
            }
        }
        let mut count = 0usize;
        let mut work = 0u64;
        let core = &self.tiles[Side::Core];
        grid.visit_box_rows(
            |i| (q[i] - pred.r(), q[i] + pred.r()),
            |row| {
                let entries = row.filter_map(|cell| self.directory.entry(cell));
                let (found, scanned) = core.count_runs(entries, &pred, q, cap - count);
                count += found;
                work += scanned;
                count < cap
            },
        );
        (count, work)
    }

    /// Which directory form the index took.
    #[cfg(test)]
    pub(crate) fn directory_kind(&self) -> &'static str {
        match self.directory {
            Directory::Dense(_) => "dense",
            Directory::Keyed(_) => "keyed",
        }
    }

    /// Heap bytes the directory holds.
    #[cfg(test)]
    pub(crate) fn directory_heap_bytes(&self) -> usize {
        match &self.directory {
            Directory::Dense(entries) => entries.capacity() * std::mem::size_of::<u32>(),
            // hashbrown: a power-of-two bucket count whose 7/8 is the
            // capacity; one key-value pair and one control byte a bucket,
            // plus a trailing control group.
            Directory::Keyed(entries) => {
                let buckets = (entries.capacity() * 8 / 7).next_power_of_two();
                buckets * (std::mem::size_of::<(CellId, u32)>() + 1) + 16
            }
        }
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
        let [core, support] = &index.tiles;
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

        // Deterministic cell order: the entries holding core points, in
        // ascending cell id.
        let mut order: Vec<usize> = (0..index.cells.len())
            .filter(|&e| core.len(e) > 0)
            .collect();
        order.sort_unstable_by_key(|&e| index.cells[e]);

        let count_of = |e: usize| core.len(e) + support.len(e);

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
        let mut candidates: Vec<usize> = Vec::new();
        for &e in &order {
            let own = core.live(e);
            let own_slots = &core.slots[own.clone()];
            let idx = grid.delinearize(index.cells[e]);

            // Inlier rule over the 3^d block.
            if index.inlier_rule_valid {
                let mut w1 = 0usize;
                grid.visit_around(
                    |i| idx[i],
                    |_| 1,
                    |c| {
                        w1 += index.directory.entry(c).map_or(0, count_of);
                        true
                    },
                );
                if w1 > params.k {
                    stats.pruned_points += own_slots.len() as u64;
                    continue;
                }
            }

            // Exact candidate block (outlier rule + per-point fallback),
            // as the occupied entries in ascending cell id.
            candidates.clear();
            let mut w2 = 0usize;
            grid.visit_around(
                |i| idx[i],
                |i| radii[i],
                |c| {
                    if let Some(ce) = index.directory.entry(c).filter(|&ce| count_of(ce) > 0) {
                        candidates.push(ce);
                        w2 += count_of(ce);
                    }
                    true
                },
            );
            if w2 <= params.k {
                // Even counting itself, no point in C can reach k neighbors.
                stats.pruned_points += own_slots.len() as u64;
                for &i in own_slots {
                    outliers.push(partition.core_id(i as usize));
                }
                continue;
            }

            // Fallback: evaluate each surviving core point individually,
            // nested-loop style with early termination, feeding the
            // candidate cells' runs to the kernels. Each cell's core run
            // is scanned before its support run — the unified
            // core-then-support order of the one-shot path.
            for (at, &i) in own.zip(own_slots) {
                let p = core.point(at);
                let mut neighbors = 0usize;
                if let Some(full) = &full_scan {
                    // Paper-faithful: random-order scan over the whole
                    // partition (Lemma 4.2 case 3 models this as Cost_NL).
                    let start = rng.gen_range(0..total);
                    let (found, scanned) = full.count_cycle(&pred, p, start, i as usize, params.k);
                    stats.distance_evaluations += scanned;
                    neighbors = found;
                } else {
                    for &ce in &candidates {
                        if neighbors >= params.k {
                            break;
                        }
                        // The point itself sits at arena position `at`,
                        // inside its own cell's core run and no other.
                        let need = params.k - neighbors;
                        let (found, scanned) = core.count_run(ce, &pred, p, Some(at), need);
                        stats.distance_evaluations += scanned;
                        neighbors += found;
                        if neighbors >= params.k {
                            break;
                        }
                        let need = params.k - neighbors;
                        let (found, scanned) = support.count_run(ce, &pred, p, None, need);
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
pub(crate) mod tests {
    use super::*;
    use crate::fixtures::{params, random_partition};
    use crate::reference::Reference;
    use dod_core::PointSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let p = Partition::new(core, vec![0], support, vec![1, 2, 3]).unwrap();
        let det = CellBased::default().detect(&p, params(1.0, 3));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn isolated_support_point_not_reported() {
        let core = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.0)]);
        let support = PointSet::from_xy(&[(500.0, 500.0)]);
        let p = Partition::new(core, vec![0, 1], support, vec![2]).unwrap();
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
                let (found, work) =
                    index.count_core_neighbors_traced(part, q, prm.predicate(), cap);
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
        let n = pts.len() as u64;
        let support_ids = (n..n + support.len() as u64).collect();
        let (core, support) = (PointSet::from_xy(&pts), PointSet::from_xy(support));
        Partition::new(core, (0..n).collect(), support, support_ids).unwrap()
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
        let support_ids = (4..44).collect();
        let support = PointSet::from_xy(&support);
        let part = Partition::new(core, vec![0, 1, 2, 3], support, support_ids).unwrap();
        let prm = params(1.0, 4);
        let index = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        assert!(index.inlier_rule_valid);
        let own = index
            .directory
            .entry(index.grid.cell_of(&[5.02, 5.0]))
            .unwrap();
        let [core, support] = &index.tiles;
        assert!(core.len(own) == 0 && support.len(own) == 40);
        let queries = [[5.02, 5.0], [5.3, 5.3]];
        rule_decided_probes_after_checking_exactness(&index, &part, prm, &queries);
        assert_eq!(
            index
                .count_core_neighbors_traced(&part, &[5.02, 5.0], prm.predicate(), 6)
                .0,
            2
        );
    }

    /// Asserts the directory form `index` took and that its heap stays
    /// within the stated bound for `points` points: 4 B a cell, at most
    /// `8·points + 4096` cells, when dense; when keyed, one `(cell, entry)`
    /// pair and a control byte a bucket, at most ~2.3 buckets a point.
    pub(crate) fn assert_directory(index: &CellIndex, kind: &str, points: usize) {
        assert_eq!(index.directory_kind(), kind);
        let bytes = index.directory_heap_bytes();
        let bound = match kind {
            "dense" => 32 * points + 4 * 4096,
            _ => 40 * points + 64,
        };
        assert!(bytes <= bound, "{kind}: {bytes} B for {points} points");
    }

    /// Removes `part`'s `victim` of `side` from `index` and `part`,
    /// re-pointing the moved-last entry the way `PartitionState` does.
    fn swap_remove(index: &mut CellIndex, part: &mut Partition, side: Side, victim: usize) {
        let points = part.points(side);
        let last = points.len() - 1;
        let moved = (victim < last).then(|| (last as u32, points.point(last)));
        index.swap_remove(side, victim as u32, points.point(victim), moved);
        part.swap_remove(side, victim);
    }

    /// `index` holds each of `part`'s copies once, under its slot, in
    /// its cell's run, at the position its map (if built) names — and
    /// answers as a fresh build over `part` does.
    fn assert_matches_fresh_build(
        index: &CellIndex,
        part: &Partition,
        prm: OutlierParams,
        kind: &str,
    ) {
        for side in [Side::Core, Side::Support] {
            let (tile, points) = (&index.tiles[side], part.points(side));
            let mut seen = vec![false; points.len()];
            for (e, &cell) in index.cells.iter().enumerate() {
                for at in tile.live(e) {
                    let slot = tile.slots[at] as usize;
                    assert!(
                        !std::mem::replace(&mut seen[slot], true),
                        "{kind}: slot {slot} twice"
                    );
                    assert_eq!(tile.point(at), points.point(slot), "{kind}");
                    assert_eq!(index.grid.cell_of(points.point(slot)), cell, "{kind}");
                    if let Some(positions) = &tile.positions {
                        assert_eq!(positions[slot] as usize, at, "{kind}: slot {slot}");
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "{kind}: a slot is missing");
            let mapped = tile.positions.as_ref().map_or(points.len(), Vec::len);
            assert_eq!(mapped, points.len(), "{kind}");
        }
        let fresh = CellIndex::build(part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        assert_directory(&fresh, kind, part.total_len());
        let via_mutations = CellBased::default().detect_with_index(part, prm, index);
        let via_fresh = CellBased::default().detect_with_index(part, prm, &fresh);
        assert_eq!(via_mutations.outliers, via_fresh.outliers, "{kind}");
        let count = |index: &CellIndex, q: &[f64]| {
            let (found, _) =
                index.count_core_neighbors_traced(part, q, prm.predicate(), usize::MAX);
            found
        };
        let probes = [&[0.5, 0.5][..], &[4.0, 4.0], &[7.9, 0.1], &[-3.0, 2.0]];
        for q in probes
            .into_iter()
            .chain(part.core().iter())
            .chain(part.support().iter())
        {
            assert_eq!(count(index, q), count(&fresh, q), "{kind}: query {q:?}");
        }
    }

    #[test]
    fn incremental_mutations_match_fresh_build() {
        // Build an index over a prefix, splice the remaining points in
        // via push, remove a few via swap_remove (mirroring
        // Partition::swap_remove) — then one right after a run move, and
        // more after a compaction — and check the detection and count
        // answers against a fresh build of the same surviving partition
        // after each, over a dense directory, and over a keyed one that
        // two far corners stretch the grid into.
        let prm = params(1.0, 3);
        for (corners, kind) in [(None, "dense"), (Some(150.0), "keyed")] {
            let mut full = random_partition(7, 60, 20, 8.0);
            if let Some(far) = corners {
                full.push(Side::Core, &[-far, -far], 100).unwrap();
                full.push(Side::Core, &[far, far], 101).unwrap();
            }
            let mut part = Partition::new(
                full.core().gather(&(0..40u64).collect::<Vec<_>>()),
                (0..40u64).collect(),
                full.support().gather(&(0..10u64).collect::<Vec<_>>()),
                (60..70u64).collect(),
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
            let mut index = CellIndex::empty(grid, prm, full.total_len());
            for side in [Side::Core, Side::Support] {
                for (i, p) in part.points(side).iter().enumerate() {
                    assert!(index.push(side, i as u32, p));
                }
            }
            for (side, from) in [(Side::Core, 40), (Side::Support, 10)] {
                for i in from..full.points(side).len() {
                    let p = full.points(side).point(i);
                    let slot = part.push(side, p, full.ids(side)[i]).unwrap();
                    assert!(index.push(side, slot as u32, p));
                }
            }
            assert_directory(&index, kind, full.total_len());
            // Remove some core and support points, re-pointing the
            // moved-last entry exactly the way PartitionState does.
            for (side, victims) in [
                (Side::Core, &[3usize, 17, 44, 0][..]),
                (Side::Support, &[5, 0]),
            ] {
                for &victim in victims {
                    swap_remove(&mut index, &mut part, side, victim);
                }
            }
            assert!(index.tiles[Side::Core].positions.is_some());
            assert_matches_fresh_build(&index, &part, prm, kind);
            // A removal right after a run move: copies of a core point
            // fill its cell's run until the run moves to the arena's end,
            // then the point itself goes.
            let core = &index.tiles[Side::Core];
            let victim = (0..part.core().len())
                .find(|&i| {
                    let p = part.core().point(i);
                    let run = core.runs[index.directory.entry(index.grid.cell_of(p)).unwrap()];
                    run.start + run.cap != core.arena_len()
                })
                .expect("a run short of the arena's end");
            let p = part.core().point(victim).to_vec();
            let e = index.directory.entry(index.grid.cell_of(&p)).unwrap();
            let start = index.tiles[Side::Core].runs[e].start;
            let mut id = 200;
            while index.tiles[Side::Core].runs[e].start == start {
                let slot = part.push(Side::Core, &p, id).unwrap();
                assert!(index.push(Side::Core, slot as u32, &p));
                id += 1;
            }
            swap_remove(&mut index, &mut part, Side::Core, victim);
            assert_matches_fresh_build(&index, &part, prm, kind);
            // A removal after a compaction: the rebuilt index has no
            // position map until its first removal builds one.
            index = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
            assert!(index.tiles.iter().all(|t| t.positions.is_none()));
            for (side, victim) in [(Side::Support, 1), (Side::Core, 7), (Side::Core, 0)] {
                swap_remove(&mut index, &mut part, side, victim);
            }
            assert_matches_fresh_build(&index, &part, prm, kind);
            // Out-of-domain insert is refused, signalling a rebuild.
            assert!(!index.push(Side::Core, 999, &[1e6, 1e6]));
            assert!(!index.push(Side::Support, 999, &[-1e6, 0.0]));
        }
    }

    #[test]
    fn cell_ids_never_wrap_on_a_grid_past_usize() {
        // 12 points in 8-d whose bounding box spans 512 cells of side
        // r/(2√8) per dimension: 2^72 cells. Every point is alone — the
        // ten on the first axis sit 16 cells (2.8 r) apart — so all twelve
        // are outliers. Row-major ids used to wrap mod 2^64 and alias
        // distant cells together.
        let w = 1.0 / (2.0 * 8f64.sqrt());
        let mut core = PointSet::new(8).unwrap();
        core.push(&[0.0; 8]).unwrap();
        core.push(&[511.5 * w; 8]).unwrap();
        for j in 1..=10 {
            let mut p = [0.0; 8];
            p[0] = 16.0 * j as f64 * w;
            core.push(&p).unwrap();
        }
        let part = Partition::standalone(core);
        let prm = params(1.0, 2);
        let rf = Reference.detect(&part, prm);
        assert_eq!(rf.outliers, (0..12).collect::<Vec<_>>());
        assert_eq!(
            CellBased::default().detect(&part, prm).outliers,
            rf.outliers
        );
        let index = CellIndex::build(&part, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM).unwrap();
        assert!(
            !index.inlier_rule_valid,
            "the lowered grid's cells are too wide"
        );
        assert_directory(&index, "keyed", 12);
    }

    /// `n_core` core and `n_support` support points in three tight 4-d
    /// clusters, two of them at opposite corners of `[0, 30]^4`: a grid
    /// of ~10^6 cells or more for every `r` below 3, so the directory is
    /// keyed.
    fn clustered_4d_partition(seed: u64, n_core: usize, n_support: usize) -> Partition {
        let mut rng = StdRng::seed_from_u64(seed);
        let third: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..30.0)).collect();
        let centres = [vec![0.0; 4], vec![30.0; 4], third];
        let mut draw = |n: usize| {
            let mut pts = PointSet::new(4).unwrap();
            for i in 0..n {
                let c = &centres[i % 3];
                let p: Vec<f64> = c.iter().map(|&x| x + rng.gen_range(-0.5..0.5)).collect();
                pts.push(&p).unwrap();
            }
            pts
        };
        let (core, support) = (draw(n_core), draw(n_support));
        let (n_core, n_support) = (n_core as u64, n_support as u64);
        let support_ids = (n_core..n_core + n_support).collect();
        Partition::new(core, (0..n_core).collect(), support, support_ids).unwrap()
    }

    /// FNV-1a over 64-bit words: a stable digest for pinned fingerprints.
    fn fnv(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A skewed corpus over `[0, side]^dim`: 40% in a tight blob, 45% in a
    /// looser cluster, 15% uniform — the ledger's mixture shape.
    fn skewed_points(rng: &mut StdRng, n: usize, dim: usize, side: f64) -> Vec<Vec<f64>> {
        let gauss = |rng: &mut StdRng| {
            // Box–Muller; the `1 -` keeps the log argument positive.
            let (u, v): (f64, f64) = (1.0 - rng.gen::<f64>(), rng.gen());
            (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
        };
        (0..n)
            .map(|i| {
                let (centre, sigma) = match i % 20 {
                    0..=7 => (0.3, 0.015),
                    8..=16 => (0.65, 0.08),
                    _ => (f64::NAN, 0.0),
                };
                (0..dim)
                    .map(|_| {
                        let x = if centre.is_nan() {
                            rng.gen_range(0.0..1.0)
                        } else {
                            centre + sigma * gauss(rng)
                        };
                        x.clamp(0.0, 1.0) * side
                    })
                    .collect()
            })
            .collect()
    }

    /// Digest of a state's capped counts over `queries` at caps 1..=k+2
    /// and of its detection: `[Σ found, Σ work, hash of every (found,
    /// work), #outliers, hash of outliers and stats]`.
    fn fingerprint(
        state: &crate::state::PartitionState,
        detection: &Detection,
        queries: &[Vec<f64>],
    ) -> [u64; 5] {
        let (mut found_sum, mut work_sum, mut counts) = (0u64, 0u64, 0xcbf2_9ce4_8422_2325u64);
        for q in queries {
            for cap in 1..=state.params().k + 2 {
                let (found, work) = state.count_core_neighbors_traced(q, cap);
                found_sum += found as u64;
                work_sum += work;
                fnv(&mut counts, found as u64);
                fnv(&mut counts, work);
            }
        }
        let mut det = 0xcbf2_9ce4_8422_2325u64;
        for &id in &detection.outliers {
            fnv(&mut det, id);
        }
        let s = detection.stats;
        for word in [
            s.distance_evaluations,
            s.index_operations,
            s.pruned_points,
            s.early_terminations,
            s.node_visits,
        ] {
            fnv(&mut det, word);
        }
        [
            found_sum,
            work_sum,
            counts,
            detection.outliers.len() as u64,
            det,
        ]
    }

    /// Pins the scan order of every resident kind: every capped count's
    /// `(found, work)`, every outlier set and every `DetectionStats` on a
    /// 20k-point 2-d skewed corpus and a 5k-point 3-d corpus, fresh and
    /// after a seeded splice history that fills, relocates and empties
    /// cells (or kd leaves, or the scanned tile) and crosses the
    /// compaction threshold. The Cell-Based digests are those of the
    /// hash-bucket layout the cell-ordered tiles replaced; the kd-tree and
    /// scan digests were taken while each side had its own splice methods.
    #[test]
    fn scan_order_fingerprint_is_pinned() {
        use crate::cost::AlgorithmKind;
        use crate::state::PartitionState;
        use std::sync::Arc;

        // `[fresh, churned]` digests of each corpus, as the hash-bucket
        // layout computed them.
        #[rustfmt::skip]
        const PINNED_2D: [[u64; 5]; 2] = [
            [9243, 2960, 2601940353614003368, 2656, 5679741596506588630],
            [145177, 28886, 640207927703876678, 2488, 10204175325933606429],
        ];
        #[rustfmt::skip]
        const PINNED_3D: [[u64; 5]; 2] = [
            [4596, 19056, 13301712826148439754, 825, 5368130767427841296],
            [23373, 26686, 14641117648897880225, 785, 13239372937259244116],
        ];
        // The same corpora and histories through a kd-tree and a scan.
        #[rustfmt::skip]
        const PINNED_KD_2D: [[u64; 5]; 2] = [
            [9243, 57314, 7220809557720171968, 2656, 3553569587154279424],
            [145177, 731692, 13333061489916303698, 2488, 8729895406194405629],
        ];
        #[rustfmt::skip]
        const PINNED_KD_3D: [[u64; 5]; 2] = [
            [4596, 55168, 8003960429562664481, 825, 2674530276180696128],
            [23521, 183819, 14487171216226299306, 803, 8649438620353935051],
        ];
        #[rustfmt::skip]
        const PINNED_SCAN_2D: [[u64; 5]; 2] = [
            [9243, 13344352, 17180910845048836851, 2656, 5214195439291595113],
            [145177, 114308804, 455943317101254876, 2488, 6092477458144071075],
        ];
        #[rustfmt::skip]
        const PINNED_SCAN_3D: [[u64; 5]; 2] = [
            [4596, 3362514, 7176965496025626358, 825, 13283678762415004022],
            [23521, 9480989, 13410029671835480224, 803, 12836071105475090848],
        ];
        let corpora = [(2, 20_000, 40.0, 0.6, 6), (3, 5_000, 20.0, 1.0, 4)];
        let pinned = [
            (AlgorithmKind::CellBased, [PINNED_2D, PINNED_3D]),
            (AlgorithmKind::IndexBased, [PINNED_KD_2D, PINNED_KD_3D]),
            (AlgorithmKind::NestedLoop, [PINNED_SCAN_2D, PINNED_SCAN_3D]),
        ];
        let cases = pinned.into_iter().flat_map(|(kind, digests)| {
            let runs = corpora.into_iter().zip(digests);
            runs.map(move |(corpus, expected)| (kind, corpus, expected))
        });
        for (kind, (dim, n, side, r, k), expected) in cases {
            let mut rng = StdRng::seed_from_u64(0x5CA1 + dim as u64);
            let prm = params(r, k);
            let mut core = PointSet::new(dim).unwrap();
            for p in skewed_points(&mut rng, n, dim, side) {
                core.push(&p).unwrap();
            }
            let mut support = PointSet::new(dim).unwrap();
            for p in skewed_points(&mut rng, n / 10, dim, side) {
                support.push(&p).unwrap();
            }
            let n_support = support.len() as u64;
            let support_ids = (n as u64..n as u64 + n_support).collect();
            let part = Partition::new(core, (0..n as u64).collect(), support, support_ids).unwrap();
            let bounds = part.bounding_rect().unwrap();
            let near = |rng: &mut StdRng, p: &[f64], spread: f64| -> Vec<f64> {
                p.iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        (x + rng.gen_range(-spread..spread)).clamp(bounds.min()[i], bounds.max()[i])
                    })
                    .collect()
            };
            let queries: Vec<Vec<f64>> = (0..300)
                .map(|i| {
                    if i % 5 == 4 {
                        (0..dim).map(|_| rng.gen_range(-1.0..side + 1.0)).collect()
                    } else {
                        let j = rng.gen_range(0..n);
                        let p = part.core().point(j).to_vec();
                        p.iter().map(|&x| x + rng.gen_range(-r..r)).collect()
                    }
                })
                .collect();
            let resident = |set: &PointSet, first_id: u64| -> Vec<(u64, Vec<f64>)> {
                (0..set.len())
                    .map(|i| (first_id + i as u64, set.point(i).to_vec()))
                    .collect()
            };
            let mut core_pts = resident(part.core(), 0);
            let mut support_pts = resident(part.support(), n as u64);

            let fresh_detection = kind.detector().detect(&part, prm);
            let mut state = PartitionState::build(kind, Arc::new(part), prm);
            let fresh = fingerprint(&state, &fresh_detection, &queries);

            // The history: inserts beside resident points (runs fill and
            // move) and removals of random residents (runs empty), until a
            // compaction has rebuilt the tiles and a fifth of the corpus
            // has been spliced since. The churned digest also probes every
            // point spliced after that compaction, where the order within
            // a cell is the one the splices left.
            let mut next_id = 10 * n as u64;
            let mut recent: Vec<Vec<f64>> = Vec::new();
            let mut compacted = false;
            while !compacted || recent.len() < n / 5 {
                let before = state.pending_mutations();
                let op = rng.gen_range(0..10);
                let touched = if op < 5 {
                    let j = rng.gen_range(0..state.partition().core().len());
                    let p = near(&mut rng, state.partition().core().point(j), r);
                    if op < 4 {
                        state.insert_core(&p, next_id).unwrap();
                        core_pts.push((next_id, p.clone()));
                    } else {
                        state.insert(Side::Support, &p, next_id).unwrap();
                        support_pts.push((next_id, p.clone()));
                    }
                    next_id += 1;
                    p
                } else if op < 9 {
                    let (id, p) = core_pts.swap_remove(rng.gen_range(0..core_pts.len()));
                    assert!(state.remove_core(id));
                    p
                } else {
                    let (id, p) = support_pts.swap_remove(rng.gen_range(0..support_pts.len()));
                    assert!(state.remove(Side::Support, id));
                    p
                };
                if state.pending_mutations() <= before {
                    compacted = true;
                    recent.clear();
                } else {
                    recent.push(touched);
                }
            }
            let probes: Vec<Vec<f64>> = queries.into_iter().chain(recent).collect();
            let churned = fingerprint(&state, &state.detect(), &probes);
            assert_eq!([fresh, churned], expected, "{} dim {dim}", kind.name());
        }
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
            // The 2-d square takes either directory form, depending on r;
            // the 4-d clusters always take the keyed one.
            let prm = params(r, k);
            for (p, keyed) in [
                (random_partition(seed, n_core, n_support, 8.0), None),
                (clustered_4d_partition(seed, n_core, n_support), Some("keyed")),
            ] {
                if let Some(index) = CellIndex::build(&p, prm, CellBased::DEFAULT_MAX_CELLS_PER_DIM) {
                    assert_directory(&index, keyed.unwrap_or(index.directory_kind()), p.total_len());
                }
                let cb = CellBased::default().detect(&p, prm);
                let rf = Reference.detect(&p, prm);
                prop_assert_eq!(cb.outliers.clone(), rf.outliers.clone());
                let cbf = CellBased::default().full_scan_fallback().detect(&p, prm);
                prop_assert_eq!(cbf.outliers, rf.outliers);
            }
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
