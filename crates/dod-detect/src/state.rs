//! Resident per-partition detector state.
//!
//! The one-shot detectors in this crate interleave their *build* phase
//! (hashing points into a grid, building a kd-tree) with their *query*
//! phase (classifying every core point). A resident engine wants to pay
//! the build once and answer many requests against it; [`PartitionState`]
//! is that split made explicit. It owns the partition (shared via `Arc`
//! so worker threads can hold it without copying points) plus whichever
//! acceleration structure the planned [`AlgorithmKind`] uses, and serves
//! two queries:
//!
//! * [`PartitionState::detect`] — re-classify every core point, returning
//!   exactly what the one-shot [`crate::Detector::detect`] would, and
//! * [`PartitionState::count_core_neighbors_traced`] — count resident
//!   **core** points within `r` of an arbitrary external query point, the
//!   primitive a `score` request reduces to. Core sets partition
//!   the dataset (Lemma 3.1 replicates only *support* copies), so
//!   summing this count across partitions never double-counts.
//!
//! A streaming engine also splices copies in and out. Both sides go
//! through one path: [`PartitionState::insert`] pushes a copy of either
//! [`Side`] onto the partition (which names it by its global id) and onto
//! the index, and [`PartitionState::remove`] finds the copy by id and
//! swap-removes it from both, re-pointing the one entry the swap moved.
//! `insert_core` and `remove_core` are those two for a core point.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use dod_core::{CellIdHasher, CoreError, NeighborPredicate, OutlierParams, PointId};

use crate::cell_based::{CellBased, CellIndex};
use crate::cost::AlgorithmKind;
use crate::detector::Detection;
use crate::index_based::{IndexBased, KdIndex};
use crate::partition::{Partition, Side};

/// The acceleration structure resident for one partition, matching the
/// algorithm the multi-tactic plan assigned to it.
#[derive(Debug, Clone)]
enum StateIndex {
    /// Cell-ordered tiles for the cell-based detectors.
    Cells(Box<CellIndex>),
    /// kd-tree for the index-based detector.
    Tree(Box<KdIndex>),
    /// No auxiliary structure: queries scan the point set directly.
    Scan,
}

/// Id → slot in a tile. Keys are ids the engine minted for resident
/// points (sequential `u64`s); a client chooses which id to *look up*,
/// never which ids are stored, so the cheap hasher's lack of HashDoS
/// resistance (see [`CellIdHasher`]) has no adversary here.
type SlotMap = HashMap<PointId, u32, BuildHasherDefault<CellIdHasher>>;

/// Where each resident id lives on each [`Side`], so a removal is a
/// lookup instead of a scan. Built from the partition's ids on a state's
/// first removal — a state that is only read never pays for it — and
/// kept current from then on by every push and swap-remove.
type IdSlots = [SlotMap; 2];

fn id_slots(partition: &Partition) -> IdSlots {
    [Side::Core, Side::Support].map(|side| {
        let ids = partition.ids(side);
        let mut map = SlotMap::with_capacity_and_hasher(ids.len(), Default::default());
        map.extend(ids.iter().enumerate().map(|(slot, &id)| (id, slot as u32)));
        map
    })
}

/// Runs the build phase of `kind` over `partition`.
fn build_index(kind: AlgorithmKind, partition: &Partition, params: OutlierParams) -> StateIndex {
    if partition.total_len() == 0 {
        return StateIndex::Scan;
    }
    match kind {
        AlgorithmKind::CellBased | AlgorithmKind::CellBasedFullScan => {
            match CellIndex::build(partition, params, CellBased::DEFAULT_MAX_CELLS_PER_DIM) {
                Some(cells) => StateIndex::Cells(Box::new(cells)),
                None => StateIndex::Scan,
            }
        }
        AlgorithmKind::IndexBased => StateIndex::Tree(Box::new(KdIndex::build(partition, 0))),
        AlgorithmKind::NestedLoop | AlgorithmKind::Reference => StateIndex::Scan,
    }
}

/// Built detector state for one partition: the points, the planned
/// algorithm, and its prebuilt index.
#[derive(Debug, Clone)]
pub struct PartitionState {
    partition: Arc<Partition>,
    params: OutlierParams,
    /// The hot-loop neighbor predicate, derived from `params` once at
    /// build time and reused by every resident query.
    pred: NeighborPredicate,
    kind: AlgorithmKind,
    index: StateIndex,
    /// Incremental mutations applied since the index was last built.
    mutations: usize,
    /// Partition size at the last index build — the baseline the
    /// compaction threshold scales with.
    built_total: usize,
    /// `None` until the first removal.
    slots: Option<IdSlots>,
}

impl PartitionState {
    /// Runs the build phase of `kind` over `partition`.
    ///
    /// Algorithms without an index structure (nested-loop, reference)
    /// get a scan-backed state; their [`PartitionState::detect`]
    /// simply runs the one-shot detector, which is already dominated by
    /// its query phase.
    pub fn build(kind: AlgorithmKind, partition: Arc<Partition>, params: OutlierParams) -> Self {
        let index = build_index(kind, &partition, params);
        let built_total = partition.total_len();
        PartitionState {
            partition,
            params,
            pred: params.predicate(),
            kind,
            index,
            mutations: 0,
            built_total,
            slots: None,
        }
    }

    /// Inserts the `side` copy of the point with global id `id`,
    /// splicing it into the resident index so subsequent queries remain
    /// exact.
    ///
    /// If the point falls outside the built index's domain (cell grids
    /// cover a fixed bounding box) the index is rebuilt in place.
    ///
    /// # Errors
    /// Returns an error on dimensionality mismatch; the state is
    /// unchanged in that case.
    pub fn insert(&mut self, side: Side, p: &[f64], id: PointId) -> Result<(), CoreError> {
        let part = Arc::make_mut(&mut self.partition);
        let slot = part.push(side, p, id)? as u32;
        if let Some(slots) = &mut self.slots {
            slots[side].insert(id, slot);
        }
        let out_of_domain = match &mut self.index {
            StateIndex::Cells(cells) => !cells.push(side, slot, p),
            StateIndex::Tree(tree) => {
                tree.push(side, slot, p);
                false
            }
            StateIndex::Scan => false,
        };
        self.note_mutation(out_of_domain);
        Ok(())
    }

    /// Removes the `side` copy of the point with global id `id`,
    /// returning whether this partition held one. It is that point's
    /// copy that goes, not another copy at the same coordinates. The
    /// index is patched in place: a swap-remove that re-points the one
    /// entry it moves.
    pub fn remove(&mut self, side: Side, id: PointId) -> bool {
        let slots = self.slots.get_or_insert_with(|| id_slots(&self.partition));
        let Some(victim) = slots[side].remove(&id) else {
            return false;
        };
        let part = Arc::make_mut(&mut self.partition);
        let points = part.points(side);
        let last = points.len() as u32 - 1;
        let moved = (victim < last).then(|| (last, points.point(last as usize)));
        let p = points.point(victim as usize);
        match &mut self.index {
            StateIndex::Cells(cells) => cells.swap_remove(side, victim, p, moved),
            StateIndex::Tree(tree) => tree.swap_remove(side, victim, p, moved),
            StateIndex::Scan => {}
        }
        part.swap_remove(side, victim as usize);
        if victim < last {
            // The last copy now sits in the victim's slot.
            slots[side].insert(part.ids(side)[victim as usize], victim);
        }
        self.note_mutation(false);
        true
    }

    /// [`PartitionState::insert`] of a core point.
    ///
    /// # Errors
    /// Returns an error on dimensionality mismatch.
    pub fn insert_core(&mut self, p: &[f64], id: PointId) -> Result<(), CoreError> {
        self.insert(Side::Core, p, id)
    }

    /// [`PartitionState::remove`] of a core point.
    pub fn remove_core(&mut self, id: PointId) -> bool {
        self.remove(Side::Core, id)
    }

    /// Frees the id → slot maps; the next removal builds them again. For
    /// a state about to be retired, whose maps would otherwise sit beside
    /// its successor's while that is built.
    pub fn release_id_slots(&mut self) {
        self.slots = None;
    }

    /// Mutations applied since the index was last (re)built.
    pub fn pending_mutations(&self) -> usize {
        self.mutations
    }

    /// Rebuilds the resident index from the current partition contents,
    /// resetting the mutation counter. No point changes slot, so the
    /// id → slot maps carry over as they are.
    pub fn rebuild(&mut self) {
        self.index = build_index(self.kind, &self.partition, self.params);
        self.mutations = 0;
        self.built_total = self.partition.total_len();
    }

    /// Books one incremental mutation and compacts (rebuilds the index)
    /// once enough have accumulated for splice-degraded structures —
    /// overgrown kd leaves, the gaps moved cell runs leave behind — to be
    /// worth paying the build again. `force` short-circuits the threshold
    /// for mutations an index cannot absorb (a point outside a cell
    /// grid's domain).
    fn note_mutation(&mut self, force: bool) {
        self.mutations += 1;
        let threshold = usize::max(32, self.built_total / 2);
        if force || self.mutations > threshold {
            self.rebuild();
        }
    }

    /// The resident partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The outlier parameters the state was built for.
    pub fn params(&self) -> OutlierParams {
        self.params
    }

    /// The algorithm the plan assigned to this partition.
    pub fn kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// Number of resident core points.
    pub fn core_len(&self) -> usize {
        self.partition.core().len()
    }

    /// Classifies every core point of the resident partition.
    ///
    /// Returns exactly the [`Detection`] the one-shot
    /// [`crate::Detector::detect`] of [`PartitionState::kind`] produces for the
    /// same partition and parameters — every detector in the candidate
    /// set is exact, and the index-backed paths reuse the prebuilt
    /// structure rather than rebuilding it.
    pub fn detect(&self) -> Detection {
        if self.partition.core().is_empty() {
            return Detection::default();
        }
        match &self.index {
            StateIndex::Cells(cells) => {
                let detector = match self.kind {
                    AlgorithmKind::CellBasedFullScan => CellBased::default().full_scan_fallback(),
                    _ => CellBased::default(),
                };
                detector.detect_with_index(&self.partition, self.params, cells)
            }
            StateIndex::Tree(tree) => {
                IndexBased::default().detect_with_index(&self.partition, self.params, tree)
            }
            StateIndex::Scan => self.kind.detector().detect(&self.partition, self.params),
        }
    }

    /// Counts resident **core** points within distance `r` of `q`,
    /// stopping early once `cap` neighbors are found.
    ///
    /// `q` need not belong to the partition — this is the primitive for
    /// scoring external query points against the resident dataset. Also
    /// returns the kernel work performed (candidate points examined, plus
    /// tree nodes visited on the index-based path) — the per-request
    /// counterpart of [`crate::DetectionStats::total_work`], feeding the
    /// engine's per-partition work counters. A probe a cell-indexed state decides
    /// by the inlier rule examines no candidate and reports `(cap, 0)`.
    pub fn count_core_neighbors_traced(&self, q: &[f64], cap: usize) -> (usize, u64) {
        match &self.index {
            StateIndex::Cells(cells) => {
                cells.count_core_neighbors_traced(&self.partition, q, self.pred, cap)
            }
            StateIndex::Tree(tree) => {
                tree.count_core_neighbors_traced(&self.partition, q, self.pred, cap)
            }
            StateIndex::Scan => {
                // The core point set is already one contiguous tile — scan
                // it directly with the resident predicate.
                let tile = self.partition.core().as_flat();
                let outcome = self.pred.count_within_tile(q, tile, cap);
                (outcome.found, outcome.scanned as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::PointSet;

    fn sample_partition() -> Arc<Partition> {
        // Three clustered core points, one isolated core point, one
        // support point near the cluster.
        let core = PointSet::from_xy(&[(0.0, 0.0), (0.2, 0.1), (0.1, 0.2), (9.0, 9.0)]);
        let support = PointSet::from_xy(&[(0.3, 0.3)]);
        Arc::new(Partition::new(core, vec![10, 11, 12, 13], support, vec![20]).unwrap())
    }

    #[test]
    fn detect_matches_one_shot_for_every_kind() {
        let partition = sample_partition();
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in AlgorithmKind::ALL {
            let one_shot = kind.detector().detect(&partition, params);
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            assert_eq!(
                state.detect().outliers,
                one_shot.outliers,
                "kind {}",
                kind.name()
            );
        }
    }

    #[test]
    fn count_core_neighbors_agrees_with_linear_scan() {
        let partition = sample_partition();
        let params = OutlierParams::new(1.0, 2).unwrap();
        let queries: [&[f64]; 4] = [
            &[0.1, 0.1],
            &[9.0, 9.0],
            &[-50.0, -50.0], // far outside the partition's bounding box
            &[4.5, 4.5],
        ];
        for kind in AlgorithmKind::ALL {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            for q in queries {
                let expected = partition
                    .core()
                    .iter()
                    .filter(|p| params.neighbors(q, p))
                    .count();
                assert_eq!(
                    state.count_core_neighbors_traced(q, usize::MAX).0,
                    expected,
                    "kind {} query {q:?}",
                    kind.name()
                );
                // The cap is honored.
                if expected > 1 {
                    assert_eq!(
                        state.count_core_neighbors_traced(q, 1).0,
                        1,
                        "kind {}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn traced_counts_match_and_charge_work_unless_the_inlier_rule_decides() {
        let partition = sample_partition();
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in AlgorithmKind::ALL {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            // Uncapped, nothing can be decided early: every kind examines
            // at least the neighbors it reports.
            let (found, work) = state.count_core_neighbors_traced(&[0.1, 0.1], usize::MAX);
            assert_eq!(
                found,
                state.count_core_neighbors_traced(&[0.1, 0.1], usize::MAX).0
            );
            assert_eq!(found, 3, "kind {}", kind.name());
            assert!(
                work >= found as u64,
                "kind {}: work {work} < found {found}",
                kind.name()
            );
            // Capped at k, the query's own grid cell already holds the
            // three cluster points: cell-indexed states answer by the
            // inlier rule with no candidate examined, the others scan.
            let (found, work) = state.count_core_neighbors_traced(&[0.1, 0.1], params.k);
            assert_eq!(found, params.k, "kind {}", kind.name());
            match kind {
                AlgorithmKind::CellBased | AlgorithmKind::CellBasedFullScan => {
                    assert_eq!(work, 0, "kind {}", kind.name());
                }
                _ => assert!(work >= found as u64, "kind {}: work {work}", kind.name()),
            }
        }
    }

    #[test]
    fn empty_partition_is_harmless() {
        let partition = Arc::new(Partition::standalone(PointSet::new(2).unwrap()));
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in AlgorithmKind::ALL {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            assert!(state.detect().outliers.is_empty());
            assert_eq!(state.count_core_neighbors_traced(&[0.0, 0.0], 5).0, 0);
        }
    }

    #[test]
    fn mutations_keep_state_equivalent_to_fresh_build() {
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in AlgorithmKind::ALL {
            let mut state = PartitionState::build(kind, sample_partition(), params);
            state.insert_core(&[0.15, 0.15], 14).unwrap();
            // Outside the built bounding box: cell grids must rebuild.
            state.insert_core(&[20.0, 20.0], 15).unwrap();
            state.insert(Side::Support, &[0.25, 0.05], 21).unwrap();
            assert!(state.remove_core(13));
            assert!(!state.remove_core(99));
            assert!(state.remove(Side::Support, 20));
            assert!(!state.remove(Side::Support, 20), "already gone");
            assert!(
                !state.remove(Side::Support, 10),
                "a core id is not a support id"
            );
            assert!(state.insert_core(&[0.15], 16).is_err(), "dim mismatch");
            assert!(
                state.insert(Side::Support, &[0.15], 22).is_err(),
                "dim mismatch"
            );

            let fresh = PartitionState::build(kind, Arc::new(state.partition().clone()), params);
            assert_eq!(
                state.detect().outliers,
                fresh.detect().outliers,
                "kind {}",
                kind.name()
            );
            for q in [[0.1, 0.1], [9.0, 9.0], [20.0, 20.0]] {
                assert_eq!(
                    state.count_core_neighbors_traced(&q, usize::MAX).0,
                    fresh.count_core_neighbors_traced(&q, usize::MAX).0,
                    "kind {} query {q:?}",
                    kind.name()
                );
            }
        }
    }

    /// `state` answers as a state freshly built over its current contents
    /// does, and its id bookkeeping names every resident copy exactly
    /// once: draining a clone id by id removes that id and nothing else.
    fn assert_equivalent_to_fresh_build(state: &PartitionState, context: &str) {
        let (kind, params) = (state.kind(), state.params());
        let fresh = PartitionState::build(kind, Arc::new(state.partition().clone()), params);
        assert_eq!(
            state.detect().outliers,
            fresh.detect().outliers,
            "{context}: kind {}",
            kind.name()
        );
        for q in [[0.1, 0.1], [0.3, 0.3], [9.0, 9.0], [20.0, 20.0]] {
            assert_eq!(
                state.count_core_neighbors_traced(&q, usize::MAX).0,
                fresh.count_core_neighbors_traced(&q, usize::MAX).0,
                "{context}: kind {} query {q:?}",
                kind.name()
            );
        }
        let mut drained = state.clone();
        for &id in state.partition().core_ids() {
            assert!(drained.remove_core(id), "{context}: core {id}");
            assert!(
                !drained.partition().core_ids().contains(&id),
                "{context}: core {id}"
            );
        }
        for &id in state.partition().ids(Side::Support) {
            assert!(drained.remove(Side::Support, id), "{context}: support {id}");
            assert!(
                !drained.partition().ids(Side::Support).contains(&id),
                "{context}: support {id}"
            );
        }
        assert_eq!(drained.partition().total_len(), 0, "{context}");
    }

    #[test]
    fn a_support_removal_removes_that_points_copy() {
        // Two core points and two support copies share coordinates. By
        // coordinates alone the copy that disappears could be the
        // survivor's; by id it cannot.
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in AlgorithmKind::ALL {
            let core = PointSet::from_xy(&[(0.1, 0.1), (0.1, 0.1), (0.2, 0.1), (9.0, 9.0)]);
            let support = PointSet::from_xy(&[(0.3, 0.3), (0.3, 0.3), (0.4, 0.3)]);
            let partition =
                Partition::new(core, vec![10, 11, 12, 13], support, vec![20, 21, 22]).unwrap();
            let mut state = PartitionState::build(kind, Arc::new(partition), params);
            assert!(state.remove(Side::Support, 20));
            let mut left = state.partition().ids(Side::Support).to_vec();
            left.sort_unstable();
            assert_eq!(left, [21, 22], "kind {}", kind.name());
            assert!(state.remove_core(10));
            assert_equivalent_to_fresh_build(&state, "after removing one of each pair");
            assert!(
                state.remove(Side::Support, 21),
                "the survivor is still removable"
            );
            assert!(state.remove_core(11), "the survivor is still removable");
            assert!(!state.remove(Side::Support, 20) && !state.remove_core(10));
            assert_equivalent_to_fresh_build(&state, "after removing both of each pair");
        }
    }

    #[test]
    fn id_bookkeeping_survives_a_compaction() {
        // Inserts drive the state past the compaction threshold (32
        // mutations at this size); ids from before and after it, core and
        // support, must all still be removable — whether the id maps were
        // built before the compaction (`warm`) or only after it.
        let params = OutlierParams::new(1.0, 2).unwrap();
        let at = |i: u64| [0.01 * (i % 13) as f64, 0.02 * (i % 7) as f64];
        for kind in AlgorithmKind::ALL {
            for warm in [false, true] {
                let context = format!("kind {} warm {warm}", kind.name());
                let mut state = PartitionState::build(kind, sample_partition(), params);
                if warm {
                    assert!(state.remove_core(12), "{context}");
                }
                let mut compactions = 0;
                for i in 0..40u64 {
                    let before = state.pending_mutations();
                    state.insert_core(&at(i), 100 + i).unwrap();
                    state.insert(Side::Support, &at(i + 5), 200 + i).unwrap();
                    compactions += usize::from(state.pending_mutations() < before + 2);
                }
                assert!(
                    compactions > 0,
                    "{context}: 80 mutations cross the threshold"
                );
                assert_equivalent_to_fresh_build(&state, &context);
                // Built-in, pre-compaction and post-compaction ids.
                for id in [10, 100, 139] {
                    assert!(state.remove_core(id), "{context}: core {id}");
                }
                for id in [20, 200, 239] {
                    assert!(state.remove(Side::Support, id), "{context}: support {id}");
                }
                assert_equivalent_to_fresh_build(&state, &context);
            }
        }
    }

    #[test]
    fn swap_remove_edge_cases_keep_the_id_maps_exact() {
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in AlgorithmKind::ALL {
            let context = format!("kind {}", kind.name());
            let mut state = PartitionState::build(kind, sample_partition(), params);
            state.insert(Side::Support, &[0.2, 0.3], 21).unwrap();
            state.insert(Side::Support, &[0.1, 0.3], 22).unwrap();
            // The last slot: nothing moves.
            assert!(state.remove_core(13), "{context}");
            assert!(state.remove(Side::Support, 22), "{context}");
            assert_equivalent_to_fresh_build(&state, &context);
            // A victim, then the id the swap just moved into its slot.
            assert_eq!(state.partition().core_ids(), [10, 11, 12]);
            assert!(state.remove_core(10), "{context}");
            assert_eq!(state.partition().core_ids(), [12, 11]);
            assert!(state.remove_core(12), "{context}");
            assert!(state.remove(Side::Support, 20), "{context}");
            assert!(state.remove(Side::Support, 21), "{context}");
            assert_equivalent_to_fresh_build(&state, &context);
            // Dead and unknown ids find nothing and change nothing.
            let pending = state.pending_mutations();
            assert!(!state.remove_core(10) && !state.remove_core(12) && !state.remove_core(77));
            assert!(!state.remove(Side::Support, 20) && !state.remove(Side::Support, 11));
            assert_eq!(state.pending_mutations(), pending, "{context}");
            // Empty the partition, then insert into it.
            assert!(state.remove_core(11), "{context}");
            assert_eq!(state.partition().total_len(), 0, "{context}");
            state.insert_core(&[0.1, 0.1], 30).unwrap();
            state.insert(Side::Support, &[0.2, 0.2], 31).unwrap();
            state.insert_core(&[0.15, 0.1], 32).unwrap();
            assert_equivalent_to_fresh_build(&state, &context);
            assert!(
                state.remove_core(30) && state.remove(Side::Support, 31),
                "{context}"
            );
            assert_equivalent_to_fresh_build(&state, &context);
        }
    }

    #[test]
    fn capped_counts_stay_exact_through_interleaved_mutations_and_a_compaction() {
        // A dense blob the inlier rule decides, churned by interleaved
        // core/support inserts and removals past the compaction threshold:
        // after every step each capped count must equal the linear scan
        // over the surviving core set — the rule reads live run lengths.
        // Over a dense cell directory, and over a keyed one that a far
        // corner stretches the grid into.
        let params = OutlierParams::new(1.0, 3).unwrap();
        let blob = |i: u64| [0.01 * (i % 17) as f64, 0.013 * (i % 11) as f64];
        for (corner, kind) in [(None, "dense"), (Some([200.0, 200.0]), "keyed")] {
            let mut core = PointSet::new(2).unwrap();
            for i in 0..20 {
                core.push(&blob(i)).unwrap();
            }
            core.push(&[6.0, 6.0]).unwrap();
            if let Some(c) = corner {
                core.push(&c).unwrap();
            }
            let n = core.len() as u64;
            let empty = PointSet::new(2).unwrap();
            let partition = Partition::new(core, (0..n).collect(), empty, vec![]);
            let mut state = PartitionState::build(
                AlgorithmKind::CellBased,
                Arc::new(partition.unwrap()),
                params,
            );
            let queries = [
                [0.05, 0.05],
                [0.5, 0.5],
                [3.0, 3.0],
                [6.0, 6.0],
                [-0.2, 0.0],
            ];
            let mut compacted = false;
            let mut decided = 0;
            for step in 0..60u64 {
                let before = state.pending_mutations();
                match step % 4 {
                    0 => state.insert_core(&blob(step + 3), 100 + step).unwrap(),
                    1 => state
                        .insert(Side::Support, &blob(step), 1000 + step)
                        .unwrap(),
                    // Odd original blob ids first, then the oldest streamed ones.
                    2 if step < 40 => assert!(state.remove_core(step / 2)),
                    2 => assert!(state.remove_core(100 + step - 42)),
                    _ => assert!(state.remove(Side::Support, 1000 + step - 2)),
                }
                compacted |= state.pending_mutations() <= before;
                for q in &queries {
                    let truth = state
                        .partition()
                        .core()
                        .iter()
                        .filter(|p| params.neighbors(q, p))
                        .count();
                    for cap in 1..=params.k + 2 {
                        let (found, work) = state.count_core_neighbors_traced(q, cap);
                        assert_eq!(
                            found,
                            truth.min(cap),
                            "{kind}: step {step} query {q:?} cap {cap}"
                        );
                        decided += usize::from(found > 0 && work == 0);
                    }
                }
            }
            assert!(
                compacted,
                "{kind}: 60 mutations cross the 32-mutation threshold"
            );
            assert!(decided > 0, "{kind}: the blob queries are rule-decided");
            let StateIndex::Cells(cells) = &state.index else {
                panic!("a Cell-Based state keeps a cell index");
            };
            let points = state.partition().total_len();
            crate::cell_based::tests::assert_directory(cells, kind, points);
        }
    }

    #[test]
    fn heavy_churn_triggers_compaction() {
        let params = OutlierParams::new(1.0, 2).unwrap();
        let mut state =
            PartitionState::build(AlgorithmKind::IndexBased, sample_partition(), params);
        for i in 0..40u64 {
            state.insert_core(&[0.01 * i as f64, 0.0], 100 + i).unwrap();
        }
        // The compaction threshold (32 for a tiny partition) fired at
        // least once, so the pending counter wrapped back around.
        assert!(state.pending_mutations() < 40);
        let fresh = PartitionState::build(
            AlgorithmKind::IndexBased,
            Arc::new(state.partition().clone()),
            params,
        );
        assert_eq!(state.detect().outliers, fresh.detect().outliers);
    }

    #[test]
    fn support_points_never_counted_for_external_queries() {
        // The support point at (0.3, 0.3) is within r of the cluster but
        // must not contribute to external scores.
        let partition = sample_partition();
        let params = OutlierParams::new(0.05, 2).unwrap();
        for kind in AlgorithmKind::ALL {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            assert_eq!(
                state.count_core_neighbors_traced(&[0.3, 0.3], usize::MAX).0,
                0
            );
        }
    }
}
