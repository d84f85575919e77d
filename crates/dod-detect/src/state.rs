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
//! * [`PartitionState::count_core_neighbors`] — count resident **core**
//!   points within `r` of an arbitrary external query point, the
//!   primitive a `score` request reduces to. Core sets partition
//!   the dataset (Lemma 3.1 replicates only *support* copies), so
//!   summing this count across partitions never double-counts.

use std::sync::Arc;

use dod_core::{CoreError, FilterTile, NeighborPredicate, OutlierParams, PointId};

use crate::cell_based::{CellBased, CellIndex};
use crate::cost::AlgorithmKind;
use crate::detector::Detection;
use crate::index_based::{IndexBased, KdIndex};
use crate::partition::Partition;

/// The acceleration structure resident for one partition, matching the
/// algorithm the multi-tactic plan assigned to it.
#[derive(Debug, Clone)]
enum StateIndex {
    /// Grid buckets for the cell-based detectors.
    Cells(CellIndex),
    /// kd-tree for the index-based detector.
    Tree(KdIndex),
    /// No auxiliary structure: queries scan the point set directly. With
    /// the `simd` feature an `f32` mirror of the core tile rides along
    /// as a conservative prefilter (bit-identical results; see
    /// [`FilterTile`]). It is dropped on any core mutation and rebuilt
    /// at the next compaction.
    Scan {
        /// `f32` mirror of the core tile, when the build opted in.
        filter: Option<FilterTile>,
    },
}

/// Builds the Scan-variant index for `partition`, mirroring the core
/// tile into `f32` when the `simd` feature opted prefiltering in.
///
/// The mirror is only built past the monomorphized-kernel region
/// (`dim > 4`): at low dimensionality the autovectorized exact `f64`
/// kernels already outrun a scalar `f32` classify pass, so the
/// prefilter would cost memory for no win (same crossover the vector
/// backend dispatch uses).
fn scan_index(partition: &Partition) -> StateIndex {
    let filter =
        if cfg!(feature = "simd") && partition.core().dim() > 4 && !partition.core().is_empty() {
            Some(FilterTile::build(
                partition.core().as_flat(),
                partition.core().dim(),
            ))
        } else {
            None
        };
    StateIndex::Scan { filter }
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
}

impl PartitionState {
    /// Runs the build phase of `kind` over `partition`.
    ///
    /// Algorithms without an index structure (nested-loop, pivot-based,
    /// reference) get a scan-backed state; their [`PartitionState::detect`]
    /// simply runs the one-shot detector, which is already dominated by
    /// its query phase.
    pub fn build(kind: AlgorithmKind, partition: Arc<Partition>, params: OutlierParams) -> Self {
        let index = if partition.total_len() == 0 {
            scan_index(&partition)
        } else {
            match kind {
                AlgorithmKind::CellBased | AlgorithmKind::CellBasedFullScan => {
                    match CellIndex::build(&partition, params, CellBased::DEFAULT_MAX_CELLS_PER_DIM)
                    {
                        Some(cells) => StateIndex::Cells(cells),
                        None => scan_index(&partition),
                    }
                }
                AlgorithmKind::IndexBased => StateIndex::Tree(KdIndex::build(&partition, 0)),
                AlgorithmKind::NestedLoop
                | AlgorithmKind::PivotBased
                | AlgorithmKind::Reference => scan_index(&partition),
            }
        };
        let built_total = partition.total_len();
        PartitionState {
            partition,
            params,
            pred: params.predicate(),
            kind,
            index,
            mutations: 0,
            built_total,
        }
    }

    /// Inserts a new core point with its stable global id, splicing it
    /// into the resident index so subsequent queries remain exact.
    ///
    /// If the point falls outside the built index's domain (cell grids
    /// cover a fixed bounding box) the index is rebuilt in place.
    ///
    /// # Errors
    /// Returns an error on dimensionality mismatch; the state is
    /// unchanged in that case.
    pub fn insert_core(&mut self, p: &[f64], id: PointId) -> Result<(), CoreError> {
        let part = Arc::make_mut(&mut self.partition);
        let ci = part.push_core(p, id)?;
        let out_of_domain = match &mut self.index {
            StateIndex::Cells(cells) => !cells.insert_core(ci as u32, p),
            StateIndex::Tree(tree) => {
                tree.insert_core(ci as u32, p);
                false
            }
            StateIndex::Scan { filter } => {
                // The f32 mirror no longer matches the core tile.
                *filter = None;
                false
            }
        };
        self.note_mutation(out_of_domain);
        Ok(())
    }

    /// Inserts a replicated support point (support points carry no ids).
    ///
    /// # Errors
    /// Returns an error on dimensionality mismatch.
    pub fn insert_support(&mut self, p: &[f64]) -> Result<(), CoreError> {
        let part = Arc::make_mut(&mut self.partition);
        let si = part.push_support(p)?;
        let out_of_domain = match &mut self.index {
            StateIndex::Cells(cells) => !cells.insert_support(si as u32, p),
            StateIndex::Tree(tree) => {
                tree.insert_support(si as u32, p);
                false
            }
            // Support points are not mirrored (external scoring counts
            // core only), so the filter stays valid.
            StateIndex::Scan { .. } => false,
        };
        self.note_mutation(out_of_domain);
        Ok(())
    }

    /// Removes the core point with global id `id`, returning whether it
    /// was resident. The index is patched in place (swap-remove plus a
    /// renumber of the one moved entry).
    pub fn remove_core(&mut self, id: PointId) -> bool {
        let Some(victim) = self.partition.core_ids().iter().position(|&x| x == id) else {
            return false;
        };
        let part = Arc::make_mut(&mut self.partition);
        let p = part.core().point(victim).to_vec();
        let last = part.core().len() - 1;
        let moved = (victim < last).then(|| part.core().point(last).to_vec());
        part.swap_remove_core(victim);
        match &mut self.index {
            StateIndex::Cells(cells) => {
                cells.remove_core(victim as u32, &p);
                if let Some(mp) = &moved {
                    cells.renumber_core(last as u32, victim as u32, mp);
                }
            }
            StateIndex::Tree(tree) => {
                tree.remove_core(victim as u32, &p);
                if let Some(mp) = &moved {
                    tree.renumber_core(last as u32, victim as u32, mp);
                }
            }
            StateIndex::Scan { filter } => *filter = None,
        }
        self.note_mutation(false);
        true
    }

    /// Removes one support point with exactly these coordinates,
    /// returning whether one was found. Duplicate support copies are
    /// interchangeable for neighbor counting, so removing any one of
    /// them is correct.
    pub fn remove_support_matching(&mut self, p: &[f64]) -> bool {
        let support = self.partition.support();
        let Some(victim) = (0..support.len()).find(|&i| support.point(i) == p) else {
            return false;
        };
        let part = Arc::make_mut(&mut self.partition);
        let last = part.support().len() - 1;
        let moved = (victim < last).then(|| part.support().point(last).to_vec());
        part.swap_remove_support(victim);
        match &mut self.index {
            StateIndex::Cells(cells) => {
                cells.remove_support(victim as u32, p);
                if let Some(mp) = &moved {
                    cells.renumber_support(last as u32, victim as u32, mp);
                }
            }
            StateIndex::Tree(tree) => {
                tree.remove_support(victim as u32, p);
                if let Some(mp) = &moved {
                    tree.renumber_support(last as u32, victim as u32, mp);
                }
            }
            StateIndex::Scan { .. } => {}
        }
        self.note_mutation(false);
        true
    }

    /// Mutations applied since the index was last (re)built.
    pub fn pending_mutations(&self) -> usize {
        self.mutations
    }

    /// Rebuilds the resident index from the current partition contents,
    /// resetting the mutation counter.
    pub fn rebuild(&mut self) {
        *self = PartitionState::build(self.kind, Arc::clone(&self.partition), self.params);
    }

    /// Books one incremental mutation and compacts (rebuilds the index)
    /// once enough have accumulated for splice-degraded structures —
    /// overgrown kd leaves, skewed cell buckets — to be worth paying the
    /// build again. `force` short-circuits the threshold for mutations
    /// an index cannot absorb (a point outside a cell grid's domain).
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
            StateIndex::Scan { .. } => self.kind.detector().detect(&self.partition, self.params),
        }
    }

    /// Counts resident **core** points within distance `r` of `q`,
    /// stopping early once `cap` neighbors are found.
    ///
    /// `q` need not belong to the partition — this is the primitive for
    /// scoring external query points against the resident dataset.
    pub fn count_core_neighbors(&self, q: &[f64], cap: usize) -> usize {
        self.count_core_neighbors_traced(q, cap).0
    }

    /// [`PartitionState::count_core_neighbors`] that also returns the
    /// kernel work performed (candidate points examined, plus tree nodes
    /// visited on the index-based path) — the per-request counterpart of
    /// [`crate::DetectionStats::total_work`], feeding the engine's
    /// per-partition work counters. A probe a cell-indexed state decides
    /// by the inlier rule examines no candidate and reports `(cap, 0)`.
    pub fn count_core_neighbors_traced(&self, q: &[f64], cap: usize) -> (usize, u64) {
        match &self.index {
            StateIndex::Cells(cells) => {
                cells.count_core_neighbors_traced(&self.partition, q, self.params, cap)
            }
            StateIndex::Tree(tree) => {
                tree.count_core_neighbors_traced(&self.partition, q, self.params, cap)
            }
            StateIndex::Scan { filter } => {
                // The core point set is already one contiguous columnar
                // tile — scan it directly with the resident predicate,
                // through the f32 prefilter when one is resident.
                let tile = self.partition.core().as_flat();
                let outcome = match filter {
                    Some(f) => self.pred.count_within_tile_prefiltered(q, tile, f, cap),
                    None => self.pred.count_within_tile(q, tile, cap),
                };
                (outcome.found, outcome.scanned as u64)
            }
        }
    }

    /// Batched [`PartitionState::count_core_neighbors_traced`]: scores
    /// several external queries against this partition in one call.
    ///
    /// On scan-backed states the whole batch shares each pass over the
    /// core tile via the kernel layer's query-blocking entry point
    /// (`count_within_tile_multi`), amortizing tile memory traffic;
    /// index-backed states fall back to per-query traversal. Results —
    /// counts *and* traced work — are identical to calling the
    /// single-query form once per `(queries[i], caps[i])`.
    ///
    /// # Panics
    /// If `queries.len() != caps.len()`.
    pub fn count_core_neighbors_multi_traced(
        &self,
        queries: &[&[f64]],
        caps: &[usize],
    ) -> Vec<(usize, u64)> {
        assert_eq!(queries.len(), caps.len(), "one cap per query");
        if let StateIndex::Scan { .. } = &self.index {
            let dim = self.partition.core().dim();
            if queries.iter().all(|q| q.len() == dim) {
                let flat: Vec<f64> = queries.iter().flat_map(|q| q.iter().copied()).collect();
                return self
                    .pred
                    .count_within_tile_multi(&flat, self.partition.core().as_flat(), caps)
                    .into_iter()
                    .map(|o| (o.found, o.scanned as u64))
                    .collect();
            }
        }
        queries
            .iter()
            .zip(caps)
            .map(|(q, &cap)| self.count_core_neighbors_traced(q, cap))
            .collect()
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
        Arc::new(Partition::new(core, vec![10, 11, 12, 13], support).unwrap())
    }

    const ALL_KINDS: [AlgorithmKind; 6] = [
        AlgorithmKind::NestedLoop,
        AlgorithmKind::CellBased,
        AlgorithmKind::CellBasedFullScan,
        AlgorithmKind::IndexBased,
        AlgorithmKind::PivotBased,
        AlgorithmKind::Reference,
    ];

    #[test]
    fn detect_matches_one_shot_for_every_kind() {
        let partition = sample_partition();
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in ALL_KINDS {
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
        for kind in ALL_KINDS {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            for q in queries {
                let expected = partition
                    .core()
                    .iter()
                    .filter(|p| params.neighbors(q, p))
                    .count();
                assert_eq!(
                    state.count_core_neighbors(q, usize::MAX),
                    expected,
                    "kind {} query {q:?}",
                    kind.name()
                );
                // The cap is honored.
                if expected > 1 {
                    assert_eq!(state.count_core_neighbors(q, 1), 1, "kind {}", kind.name());
                }
            }
        }
    }

    #[test]
    fn traced_counts_match_and_charge_work_unless_the_inlier_rule_decides() {
        let partition = sample_partition();
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in ALL_KINDS {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            // Uncapped, nothing can be decided early: every kind examines
            // at least the neighbors it reports.
            let (found, work) = state.count_core_neighbors_traced(&[0.1, 0.1], usize::MAX);
            assert_eq!(found, state.count_core_neighbors(&[0.1, 0.1], usize::MAX));
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
    fn multi_traced_matches_single_query_for_every_kind() {
        let partition = sample_partition();
        let params = OutlierParams::new(1.0, 2).unwrap();
        let queries: [&[f64]; 4] = [&[0.1, 0.1], &[9.0, 9.0], &[-50.0, -50.0], &[4.5, 4.5]];
        let caps = [usize::MAX, 1, 2, 0];
        for kind in ALL_KINDS {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            let batched = state.count_core_neighbors_multi_traced(&queries, &caps);
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    batched[i],
                    state.count_core_neighbors_traced(q, caps[i]),
                    "kind {} query {q:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn empty_partition_is_harmless() {
        let partition = Arc::new(Partition::standalone(PointSet::new(2).unwrap()));
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in ALL_KINDS {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            assert!(state.detect().outliers.is_empty());
            assert_eq!(state.count_core_neighbors(&[0.0, 0.0], 5), 0);
        }
    }

    #[test]
    fn mutations_keep_state_equivalent_to_fresh_build() {
        let params = OutlierParams::new(1.0, 2).unwrap();
        for kind in ALL_KINDS {
            let mut state = PartitionState::build(kind, sample_partition(), params);
            state.insert_core(&[0.15, 0.15], 14).unwrap();
            // Outside the built bounding box: cell grids must rebuild.
            state.insert_core(&[20.0, 20.0], 15).unwrap();
            state.insert_support(&[0.25, 0.05]).unwrap();
            assert!(state.remove_core(13));
            assert!(!state.remove_core(99));
            assert!(state.remove_support_matching(&[0.3, 0.3]));
            assert!(!state.remove_support_matching(&[123.0, 123.0]));
            assert!(state.insert_core(&[0.15], 16).is_err(), "dim mismatch");

            let fresh = PartitionState::build(kind, Arc::new(state.partition().clone()), params);
            assert_eq!(
                state.detect().outliers,
                fresh.detect().outliers,
                "kind {}",
                kind.name()
            );
            for q in [[0.1, 0.1], [9.0, 9.0], [20.0, 20.0]] {
                assert_eq!(
                    state.count_core_neighbors(&q, usize::MAX),
                    fresh.count_core_neighbors(&q, usize::MAX),
                    "kind {} query {q:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn capped_counts_stay_exact_through_interleaved_mutations_and_a_compaction() {
        // A dense blob the inlier rule decides, churned by interleaved
        // core/support inserts and removals past the compaction threshold:
        // after every step each capped count must equal the linear scan
        // over the surviving core set — the rule reads live bucket sizes.
        let params = OutlierParams::new(1.0, 3).unwrap();
        let blob = |i: u64| [0.01 * (i % 17) as f64, 0.013 * (i % 11) as f64];
        let mut core = PointSet::new(2).unwrap();
        for i in 0..20 {
            core.push(&blob(i)).unwrap();
        }
        core.push(&[6.0, 6.0]).unwrap();
        let partition = Partition::new(core, (0..21).collect(), PointSet::new(2).unwrap());
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
                1 => state.insert_support(&blob(step)).unwrap(),
                // Odd original blob ids first, then the oldest streamed ones.
                2 if step < 40 => assert!(state.remove_core(step / 2)),
                2 => assert!(state.remove_core(100 + step - 42)),
                _ => assert!(state.remove_support_matching(&blob(step - 2))),
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
                    assert_eq!(found, truth.min(cap), "step {step} query {q:?} cap {cap}");
                    decided += usize::from(found > 0 && work == 0);
                }
            }
        }
        assert!(compacted, "60 mutations cross the 32-mutation threshold");
        assert!(decided > 0, "the blob queries are rule-decided");
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
        for kind in ALL_KINDS {
            let state = PartitionState::build(kind, Arc::clone(&partition), params);
            assert_eq!(state.count_core_neighbors(&[0.3, 0.3], usize::MAX), 0);
        }
    }
}
