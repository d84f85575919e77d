//! The resident layout of a partition's points: one [`Tile`] a side.
//!
//! Both structure-keeping detectors keep each side (core, support) of a
//! partition as contiguous row-major runs, scan those runs with the
//! kernels and splice copies in and out while serving. Cell-Based keeps
//! one run per occupied grid cell, the kd-tree one per leaf. The caller
//! numbers its runs — their *entry numbers* — and says which entry each
//! point belongs to; the tile owns the rest: the layout, the splices and
//! the scans. It is the one place that slices the coordinate arena or
//! hands the dimension to a kernel.

use std::ops::Range;

use dod_core::{NeighborPredicate, PointSet};

use crate::scan::split_excluding;

/// One entry's copies in a [`Tile`]: `len` live copies at arena positions
/// `start..start + len`, in a reserved span of `cap`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Run {
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) cap: u32,
}

/// One side (core or support) of a resident index: a row-major
/// coordinate arena, the partition slot of each arena position, and each
/// entry's run.
///
/// A run behaves as the `Vec` it replaces: an insert appends at the end
/// of the run, moving the run to the arena's end with doubled capacity
/// when it is full; a removal moves the run's last live copy into the
/// hole. So the order of an entry's copies is exactly the order a
/// per-entry `Vec` would hold. The gaps moved runs leave behind are
/// reclaimed by the next build (a `PartitionState` compaction).
///
/// A removal finds its copy through `positions`, the arena position of
/// each slot, rather than by scanning the run (a cell of a dense blob
/// holds hundreds of copies). The map is built on the tile's first
/// removal, so an index that is only read or only grown — the batch
/// reducer's, or a read-only server's — never pays its pass or its 4 B
/// per copy; from then on every push, run move and swap-remove keeps it
/// current, and a rebuild starts without one.
///
/// The crate reads `slots`, `runs` and `positions` (the detectors walk
/// slots, the tests check the layout); only this module writes them.
#[derive(Debug, Clone)]
pub(crate) struct Tile {
    dim: usize,
    coords: Vec<f64>,
    pub(crate) slots: Vec<u32>,
    pub(crate) runs: Vec<Run>,
    /// Arena position of each live slot; `None` until the first removal.
    pub(crate) positions: Option<Vec<u32>>,
}

impl Tile {
    /// An empty tile of `dim`-dimensional points with no entries.
    pub(crate) fn new(dim: usize) -> Tile {
        Tile {
            dim,
            coords: Vec::new(),
            slots: Vec::new(),
            runs: Vec::new(),
            positions: None,
        }
    }

    /// Lays `points` out by entry — a counting sort over `entry_of`, the
    /// entry number of each point, into `entries` runs — so each run
    /// lists its slots in ascending order.
    pub(crate) fn build(points: &PointSet, entry_of: &[u32], entries: usize) -> Tile {
        let dim = points.dim();
        u32::try_from(entry_of.len()).expect("arena positions fit u32");
        let mut runs = vec![Run::default(); entries];
        for &e in entry_of {
            runs[e as usize].cap += 1;
        }
        let mut start = 0;
        for run in &mut runs {
            run.start = start;
            start += run.cap;
        }
        let mut tile = Tile {
            dim,
            coords: vec![0.0; entry_of.len() * dim],
            slots: vec![0; entry_of.len()],
            runs,
            positions: None,
        };
        for (slot, &e) in entry_of.iter().enumerate() {
            let run = &mut tile.runs[e as usize];
            let at = (run.start + run.len) as usize;
            run.len += 1;
            tile.slots[at] = slot as u32;
            tile.coords[at * dim..(at + 1) * dim].copy_from_slice(points.point(slot));
        }
        tile
    }

    /// Live copies of entry `e`.
    #[inline]
    pub(crate) fn len(&self, e: usize) -> usize {
        self.runs[e].len as usize
    }

    /// Arena positions of entry `e`'s live copies.
    #[inline]
    pub(crate) fn live(&self, e: usize) -> Range<usize> {
        let run = self.runs[e];
        run.start as usize..(run.start + run.len) as usize
    }

    /// Coordinates of the copy at arena position `at`.
    #[inline]
    pub(crate) fn point(&self, at: usize) -> &[f64] {
        &self.coords[at * self.dim..(at + 1) * self.dim]
    }

    /// Adds an empty run for a new entry.
    pub(crate) fn open_run(&mut self) {
        let start = self.arena_len();
        self.runs.push(Run {
            start,
            len: 0,
            cap: 0,
        });
    }

    /// Appends `slot` at `p` to the end of entry `e`'s run.
    pub(crate) fn push(&mut self, e: usize, slot: u32, p: &[f64]) {
        let dim = self.dim;
        let mut run = self.runs[e];
        if run.len == run.cap {
            let end = self.arena_len();
            if run.start + run.cap != end {
                // Move the run to the arena's end; its old span is a gap.
                let live = self.live(e);
                self.slots.extend_from_within(live.clone());
                self.coords
                    .extend_from_within(live.start * dim..live.end * dim);
                run.start = end;
                if let Some(positions) = &mut self.positions {
                    let moved = end as usize..end as usize + live.len();
                    for at in moved {
                        positions[self.slots[at] as usize] = at as u32;
                    }
                }
            }
            run.cap = run
                .cap
                .checked_mul(2)
                .expect("run capacity fits u32")
                .max(1);
            let new_end = run.start as usize + run.cap as usize;
            self.slots.resize(new_end, 0);
            self.coords.resize(new_end * dim, 0.0);
        }
        let at = run.start + run.len;
        self.slots[at as usize] = slot;
        self.coords[at as usize * dim..(at as usize + 1) * dim].copy_from_slice(p);
        run.len += 1;
        self.runs[e] = run;
        if let Some(positions) = &mut self.positions {
            if positions.len() <= slot as usize {
                positions.resize(slot as usize + 1, 0);
            }
            positions[slot as usize] = at;
        }
    }

    /// The arena position of live slot `slot`, building the slot →
    /// position map on first use.
    pub(crate) fn locate(&mut self, slot: u32) -> usize {
        let positions = self.positions.get_or_insert_with(|| {
            let live = self.runs.iter().map(|run| run.len as usize).sum();
            let mut positions = vec![0; live];
            for run in &self.runs {
                for at in run.start..run.start + run.len {
                    positions[self.slots[at as usize] as usize] = at;
                }
            }
            positions
        });
        positions[slot as usize] as usize
    }

    /// Removes `slot` from entry `e`'s run, moving the run's last live
    /// copy into its place, then gives the side's last slot `last` the
    /// number `slot` — the partition's own swap-remove. `slot` must be
    /// live in the run.
    pub(crate) fn swap_remove(&mut self, e: usize, slot: u32, last: u32) {
        let dim = self.dim;
        let at = self.locate(slot);
        let end = self.live(e).end - 1;
        let tail = self.slots[end];
        self.slots[at] = tail;
        self.coords
            .copy_within(end * dim..(end + 1) * dim, at * dim);
        self.runs[e].len -= 1;
        let positions = self.positions.as_mut().expect("built above");
        positions[tail as usize] = at as u32;
        if slot != last {
            let moved = positions[last as usize];
            self.slots[moved as usize] = slot;
            positions[slot as usize] = moved;
        }
        positions.truncate(last as usize);
    }

    /// Arena length in copies, as a run position.
    pub(crate) fn arena_len(&self) -> u32 {
        u32::try_from(self.slots.len()).expect("arena positions fit u32")
    }

    /// Counts the neighbours of `q` in entry `e`'s run, skipping the copy
    /// at arena position `skip` (the query point itself, when it lies in
    /// this run), and stopping once `need` are found.
    ///
    /// Returns `(found, scanned)`: the candidates examined are exactly
    /// those a scalar loop over the run would have examined.
    #[inline]
    pub(crate) fn count_run(
        &self,
        e: usize,
        pred: &NeighborPredicate,
        q: &[f64],
        skip: Option<usize>,
        need: usize,
    ) -> (usize, u64) {
        let live = self.live(e);
        let mut found = 0usize;
        let mut scanned = 0u64;
        for (a, b) in split_excluding(live.start, live.end, skip.unwrap_or(usize::MAX)) {
            if found >= need {
                break;
            }
            let out = pred.count_within_tile(q, self.span(a..b), need - found);
            scanned += out.scanned as u64;
            found += out.found;
        }
        (found, scanned)
    }

    /// Counts the neighbours of `q` in the runs of `entries`, in that
    /// order, stopping once `need` are found; returns `(found, scanned)`.
    ///
    /// Runs that lie back to back in the arena — as the build lays out
    /// the cells of one grid row — are scanned as one kernel call. The
    /// candidates are examined in run order either way, so the early-exit
    /// position and the work are the run-by-run scan's.
    pub(crate) fn count_runs(
        &self,
        entries: impl IntoIterator<Item = usize>,
        pred: &NeighborPredicate,
        q: &[f64],
        need: usize,
    ) -> (usize, u64) {
        let mut found = 0usize;
        let mut scanned = 0u64;
        let mut scan = |span: Range<usize>| {
            let out = pred.count_within_tile(q, self.span(span), need - found);
            found += out.found;
            scanned += out.scanned as u64;
            found < need
        };
        let mut open: Option<Range<usize>> = None;
        for e in entries {
            let live = self.live(e);
            if live.is_empty() {
                continue;
            }
            match &mut open {
                Some(span) if span.end == live.start => span.end = live.end,
                _ => {
                    if let Some(done) = open.replace(live) {
                        if !scan(done) {
                            open = None;
                            break;
                        }
                    }
                }
            }
        }
        if let Some(done) = open {
            scan(done);
        }
        (found, scanned)
    }

    /// Coordinates of arena positions `range`, as one row-major tile.
    #[inline]
    fn span(&self, range: Range<usize>) -> &[f64] {
        &self.coords[range.start * self.dim..range.end * self.dim]
    }
}
