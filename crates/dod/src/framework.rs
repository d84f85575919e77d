//! The single-job DOD framework (Section III-B, Figures 2 and 3).
//!
//! Mappers read raw `(id, coordinates)` records and emit, per point, one
//! core record `(cell, "0-p")` plus zero or more support records
//! `(cell, "1-p")`. After the shuffle groups records by partition id,
//! each reducer materializes the partition (core + support points), runs
//! the detection algorithm assigned to it by the algorithm plan, and
//! reports the outliers among the core points only.
//!
//! A coordinate is copied once on this trip: input rows borrow the
//! caller's [`PointSet`], a shuffle record names its row by id, and the
//! reducer writes the partition's tile from the rows (DESIGN.md, *Batch
//! record path*).

use dod_core::{
    CellId, GridSpec, Metric, NeighborPredicate, OutlierParams, PointId, PointSet, Rect,
};
use dod_detect::cost::AlgorithmKind;
use dod_detect::{Detection, Partition, PartitionState, Side};
use dod_obs::json::Json;
use dod_obs::{names, Obs, ObsScope};
use dod_partition::Router;
use mapreduce::{BlockStore, Durable, EstimateSize, Mapper, Reducer};
use std::sync::Arc;

/// One raw input record: the point's stable id and its coordinates, a
/// row of the caller's [`PointSet`].
pub type InputPoint<'a> = (PointId, &'a [f64]);

/// Loads `data` into the block store every job of this crate reads:
/// point `i` becomes the row `(i, data.point(i))`, borrowed, not copied.
/// Each block is filled in place at its final length. A job's record
/// ids are these row indices, so its reducers read a record's
/// coordinates back from `data`.
pub fn load_points(
    data: &PointSet,
    block_size: usize,
    replication: usize,
) -> BlockStore<InputPoint<'_>> {
    let block_size = block_size.max(1);
    let mut rows = data
        .iter()
        .enumerate()
        .map(|(i, coords)| (i as PointId, coords));
    let blocks = (0..data.len().div_ceil(block_size))
        .map(|_| rows.by_ref().take(block_size).collect())
        .collect();
    BlockStore::from_blocks(blocks, replication)
}

/// The intermediate value of the detection job: a row of the job's
/// input tagged as core (the paper's `"0-p"` prefix) or support (the
/// `"1-p"` prefix).
///
/// A record names its row and carries no coordinates: one `u64` holds
/// the row id in bits 0–62 and the support tag in bit 63, so a shuffle
/// record `(u32, TaggedPoint)` is 16 bytes. Reducers read the
/// coordinates from the job's input [`PointSet`]; [`DodMapper`] charges
/// the shuffle for the full logical `[support, id, coords]` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedPoint(u64);

const _: () = assert!(std::mem::size_of::<(u32, TaggedPoint)>() == 16);

impl TaggedPoint {
    const SUPPORT: u64 = 1 << 63;

    /// The record of row `id`, tagged support (`true`) or core.
    ///
    /// # Panics
    /// Panics if `id` needs bit 63 (no [`PointSet`] has that many rows).
    pub fn new(id: PointId, support: bool) -> Self {
        assert!(id < Self::SUPPORT, "row id {id} overlaps the tag bit");
        TaggedPoint(id | (u64::from(support) << 63))
    }

    /// The row this record names.
    pub fn id(self) -> PointId {
        self.0 & !Self::SUPPORT
    }

    /// Whether the point is replicated support (tag `1`) or core (tag `0`).
    pub fn is_support(self) -> bool {
        self.0 & Self::SUPPORT != 0
    }

    /// Shuffle bytes of the logical `[support, id, coords]` record this
    /// handle stands for, for `dim`-dimensional rows.
    pub fn logical_bytes(dim: usize) -> usize {
        1 + 8 + 8 * dim
    }
}

/// The tag and the id alone; the coordinates the record names are
/// charged by the mapper, which knows their dimension
/// ([`Mapper::record_bytes`]).
impl EstimateSize for TaggedPoint {
    fn estimated_bytes(&self) -> usize {
        1 + 8
    }
}

// Checkpointed detection jobs persist tagged points as `[support, id]`;
// a resumed run reads the coordinates from its input, which the job's
// checkpoint fingerprint pins (`DodRunner`'s input digest). A record in
// any other shape, such as an older `[support, id, coords]` one, does
// not decode.
impl Durable for TaggedPoint {
    fn encode(&self, out: &mut String) {
        (self.is_support(), self.id()).encode(out);
    }
    fn decode(v: &Json) -> Option<Self> {
        let (support, id) = <(bool, PointId)>::decode(v)?;
        (id < Self::SUPPORT).then(|| TaggedPoint::new(id, support))
    }
}

/// The rows `values` name, in record order: the point set the
/// `extensions/` reducers run on.
pub fn gather_rows(data: &PointSet, values: &[TaggedPoint]) -> PointSet {
    let mut rows = PointSet::with_capacity(data.dim(), values.len()).expect("dim >= 1");
    for v in values {
        rows.push(data.point(v.id() as usize)).expect("same dim");
    }
    rows
}

/// The fixed-radius neighbour index the framework's listing jobs share:
/// the similarity join, DBSCAN, LOCI and the Domain baseline's verify
/// job (DESIGN.md, *One neighbour index*).
///
/// A grid of the build's cell side over the points' bounding box, at
/// most [`NeighborIndex::MAX_CELLS_PER_DIM`] cells a dimension, and the
/// `(cell, index)` pair of every point, sorted: one run per occupied
/// cell, its points in index order. Only occupied cells cost memory,
/// however many cells the grid has.
pub(crate) struct NeighborIndex<'a> {
    points: &'a PointSet,
    grid: GridSpec,
    by_cell: Vec<(CellId, u32)>,
    metric: Metric,
}

impl<'a> NeighborIndex<'a> {
    /// The cap on cells per dimension. A clamped grid has cells wider
    /// than the side asked for, which costs candidates, never answers.
    const MAX_CELLS_PER_DIM: usize = 1024;

    /// Indexes `points` on a grid of cell side `side` for queries under
    /// `metric`. An empty set gets one cell at the origin.
    pub(crate) fn build(points: &'a PointSet, side: f64, metric: Metric) -> Self {
        let bounds = if points.is_empty() {
            Rect::new(vec![0.0; points.dim()], vec![0.0; points.dim()])
        } else {
            points.bounding_rect()
        };
        let grid = bounds
            .and_then(|b| GridSpec::with_cell_side(b, side, Self::MAX_CELLS_PER_DIM))
            .expect("a grid over the points' finite bounds");
        let mut by_cell: Vec<(CellId, u32)> = (0..points.len())
            .map(|i| (grid.cell_of(points.point(i)), i as u32))
            .collect();
        by_cell.sort_unstable();
        NeighborIndex {
            points,
            grid,
            by_cell,
            metric,
        }
    }

    /// Calls `visit(j)` for every indexed point `j` that `admit(j)` lets
    /// through and that lies within `r` of `q` (the kernels' predicate),
    /// in ascending `(cell, index)` order, until `visit` returns `false`.
    /// `admit` runs before the distance test, so a point it turns away
    /// costs no evaluation. Any `r` is answered exactly, whatever the
    /// build's cell side; `q` may lie outside the indexed points' box.
    /// Allocation-free: the walk covers the cells meeting `[q − r, q + r]`
    /// a grid row at a time, one binary search a row.
    pub(crate) fn for_each_within(
        &self,
        q: &[f64],
        r: f64,
        mut admit: impl FnMut(u32) -> bool,
        mut visit: impl FnMut(u32) -> bool,
    ) {
        let pred = NeighborPredicate::with_metric(self.metric, r);
        let mut from = 0;
        self.grid.visit_box_rows(
            |i| (q[i] - r, q[i] + r),
            |row| {
                // Rows come in ascending cell order: each search starts
                // where the last row's cells end.
                from += self.by_cell[from..].partition_point(|&(c, _)| c < *row.start());
                let run = self.by_cell[from..].iter();
                for &(_, j) in run.take_while(|&&(c, _)| c <= *row.end()) {
                    if admit(j) && pred.within(q, self.points.point(j as usize)) && !visit(j) {
                        return false;
                    }
                }
                true
            },
        );
    }
}

/// Map function of the detection job: supporting-area routing
/// (lines 2–6 of the Figure 3 map pseudocode).
pub struct DodMapper<'a> {
    router: &'a Router,
}

impl<'a> DodMapper<'a> {
    /// Creates the mapper from the preprocessing job's routing structure
    /// ("the partitioning plan is given as input to Mappers").
    pub fn new(router: &'a Router) -> Self {
        DodMapper { router }
    }
}

impl<'a> Mapper for DodMapper<'a> {
    type In = InputPoint<'a>;
    type K = u32;
    type V = TaggedPoint;

    fn map(&self, item: &InputPoint<'a>, emit: &mut dyn FnMut(u32, TaggedPoint)) {
        let (id, coords) = *item;
        let (core, supported) = self.router.route_iter(coords);
        emit(core, TaggedPoint::new(id, false));
        for pid in supported {
            emit(pid, TaggedPoint::new(id, true));
        }
    }

    fn record_bytes(&self, key: &u32, _value: &TaggedPoint) -> usize {
        key.estimated_bytes() + TaggedPoint::logical_bytes(self.router.dim())
    }
}

/// Reduce function of the detection job (Figure 3 reduce pseudocode): the
/// algorithm plan selects which detector runs on each partition.
pub struct DodReducer<'a> {
    data: &'a PointSet,
    params: OutlierParams,
    algorithms: Arc<Vec<AlgorithmKind>>,
    obs: Obs,
}

impl<'a> DodReducer<'a> {
    /// Creates the reducer from the algorithm plan over the job's input
    /// `data`, whose rows the records name.
    pub fn new(
        data: &'a PointSet,
        params: OutlierParams,
        algorithms: Arc<Vec<AlgorithmKind>>,
    ) -> Self {
        DodReducer {
            data,
            params,
            algorithms,
            obs: Obs::null(),
        }
    }

    /// The job's input, whose rows the records name.
    pub fn data(&self) -> &'a PointSet {
        self.data
    }

    /// Attaches an observability handle: every [`Self::detect`] call then
    /// emits its per-partition `detect.*` work counters through it, and
    /// the steps of a reduce task their `dod.reduce.stage` spans.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Times one step of a reduce task as a `dod.reduce.stage` span (a
    /// no-op guard when no recorder is attached).
    fn stage(&self, stage: &'static str) -> ObsScope {
        self.obs
            .scope(names::DOD_REDUCE_STAGE)
            .with_label("stage", stage)
    }

    /// The algorithm the plan assigns to `partition_id` (out-of-plan ids
    /// fall back to Nested-Loop).
    pub fn algorithm_for(&self, partition_id: u32) -> AlgorithmKind {
        self.algorithms
            .get(partition_id as usize)
            .copied()
            .unwrap_or(AlgorithmKind::NestedLoop)
    }

    /// Materializes a [`Partition`] from the shuffled records of one
    /// partition key — the one copy a coordinate gets on its way from
    /// the caller's [`PointSet`] to the detector's tile.
    pub fn build_partition(&self, values: &[TaggedPoint]) -> Partition {
        let _span = self.stage("tile");
        let dim = self.data.dim();
        let cores = values.iter().filter(|v| !v.is_support()).count();
        let side = |n: usize| {
            let points = PointSet::with_capacity(dim, n).expect("dim >= 1");
            (points, Vec::with_capacity(n))
        };
        let mut sides = [side(cores), side(values.len() - cores)];
        for v in values {
            let side = if v.is_support() {
                Side::Support
            } else {
                Side::Core
            };
            let (points, ids) = &mut sides[side];
            points
                .push(self.data.point(v.id() as usize))
                .expect("same dim");
            ids.push(v.id());
        }
        let [(core, core_ids), (support, support_ids)] = sides;
        Partition::new(core, core_ids, support, support_ids).expect("consistent construction")
    }

    /// Runs the assigned detector on one materialized partition, emitting
    /// its work counters when an observability handle is attached.
    ///
    /// The detection goes through [`PartitionState`] — the same build +
    /// query split the resident engine serves requests from — so the
    /// batch pipeline and the engine share one detection code path.
    pub fn detect(&self, partition_id: u32, partition: Arc<Partition>) -> Detection {
        let kind = self.algorithm_for(partition_id);
        let state = {
            let _span = self.stage("build");
            PartitionState::build(kind, partition, self.params)
        };
        let detection = {
            let _span = self.stage("detect");
            state.detect()
        };
        detection
            .stats
            .record_to(&self.obs, partition_id as usize, kind.name());
        detection
    }
}

impl Reducer<u32, TaggedPoint> for DodReducer<'_> {
    type Out = PointId;

    fn reduce(&self, key: &u32, values: &[TaggedPoint], emit: &mut dyn FnMut(PointId)) {
        let partition = Arc::new(self.build_partition(values));
        let detection = self.detect(*key, partition);
        for id in detection.outliers {
            emit(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_partition::PartitionPlan;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn router_2x2() -> Router {
        let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 2).unwrap());
        plan.router(1.0)
    }

    fn reducer(data: &PointSet, algorithms: Vec<AlgorithmKind>) -> DodReducer<'_> {
        DodReducer::new(
            data,
            OutlierParams::new(1.0, 1).unwrap(),
            Arc::new(algorithms),
        )
    }

    #[test]
    fn mapper_emits_core_and_support_records() {
        let router = router_2x2();
        let mapper = DodMapper::new(&router);
        let mut records: Vec<(u32, TaggedPoint)> = Vec::new();
        // Interior point: one core record only, naming its row.
        mapper.map(&(7, &[2.0, 2.0]), &mut |k, v| records.push((k, v)));
        assert_eq!(records, vec![(0, TaggedPoint::new(7, false))]);
        assert_eq!((records[0].1.id(), records[0].1.is_support()), (7, false));

        // Boundary point near the center cross: 1 core + 3 support.
        records.clear();
        mapper.map(&(8, &[4.8, 4.8]), &mut |k, v| records.push((k, v)));
        assert_eq!(records.len(), 4);
        assert_eq!(records.iter().filter(|(_, v)| v.is_support()).count(), 3);
        assert!(records.iter().all(|(_, v)| v.id() == 8));
        // All four partition keys distinct.
        let mut keys: Vec<u32> = records.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn reducer_separates_core_and_support() {
        let data = PointSet::from_xy(&[(9.0, 9.0), (0.0, 0.0), (0.5, 0.0)]);
        let reducer = reducer(&data, vec![AlgorithmKind::Reference]);
        let values = [TaggedPoint::new(1, false), TaggedPoint::new(2, true)];
        let partition = Arc::new(reducer.build_partition(&values));
        assert_eq!(partition.core().len(), 1);
        assert_eq!(partition.support().len(), 1);
        assert_eq!(partition.core_id(0), 1);
        assert_eq!(partition.core().point(0), data.point(1));
        assert_eq!(partition.support().point(0), data.point(2));
        // The support point rescues the core point from outlier status.
        let det = reducer.detect(0, partition);
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn reducer_reports_only_core_outliers() {
        let data = PointSet::from_xy(&[(5.0, 5.0), (0.0, 0.0), (9.0, 9.0)]);
        let reducer = reducer(&data, vec![AlgorithmKind::NestedLoop]);
        let mut out = Vec::new();
        reducer.reduce(
            &0,
            &[TaggedPoint::new(1, false), TaggedPoint::new(2, true)],
            &mut |o| out.push(o),
        );
        // Core point 1 has no neighbor within 1.0 -> outlier; support
        // point 2 is isolated too but must not be reported here.
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn unknown_partition_falls_back_to_nested_loop() {
        let data = PointSet::from_xy(&[(1.0, 1.0)]);
        let reducer = reducer(&data, vec![]);
        let partition = Arc::new(reducer.build_partition(&[TaggedPoint::new(0, false)]));
        let det = reducer.detect(99, partition);
        assert_eq!(det.outliers, vec![0]);
    }

    /// The shuffle charges the logical `[support, id, coords]` record
    /// behind each 16-byte handle: key 4 + tag 1 + id 8 + 8 per
    /// coordinate, as it did when records carried their coordinates.
    #[test]
    fn tagged_point_size_estimate() {
        let router = router_2x2();
        let t = TaggedPoint::new(1, true);
        assert_eq!(t.estimated_bytes(), 1 + 8);
        assert_eq!(TaggedPoint::logical_bytes(2), 1 + 8 + 16);
        assert_eq!(DodMapper::new(&router).record_bytes(&3, &t), 4 + 1 + 8 + 16);
        assert_eq!(std::mem::size_of::<(u32, TaggedPoint)>(), 16);
    }

    /// The checkpoint format is pinned: a record persists as
    /// `[support, id]` and decodes back to the same handle, up to the
    /// largest row id. A record in the older `[support, id, coords]`
    /// shape, or one whose id needs the tag bit, does not decode, so a
    /// task record holding one re-runs instead of being misread.
    #[test]
    fn record_round_trips_as_support_and_id() {
        let decode = |text: &str| TaggedPoint::decode(&dod_obs::json::parse(text).unwrap());
        let encode = |record: TaggedPoint| {
            let mut out = String::new();
            record.encode(&mut out);
            out
        };
        let top = (1u64 << 63) - 1;
        for (record, text) in [
            (TaggedPoint::new(7, false), "[false,7]".to_string()),
            (TaggedPoint::new(0, true), "[true,0]".to_string()),
            (TaggedPoint::new(top, true), format!("[true,{top}]")),
        ] {
            assert_eq!(encode(record), text);
            assert_eq!(decode(&text), Some(record));
        }
        assert_eq!(decode("[false,7,[1.5,-0,0.0000003]]"), None);
        assert_eq!(decode(&format!("[true,{}]", 1u64 << 63)), None);
        assert_eq!(decode("[1,7]"), None);
    }

    #[test]
    fn loader_lends_the_callers_rows() {
        let data = PointSet::from_xy(&[(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]);
        let store = load_points(&data, 2, 1);
        assert_eq!(store.num_blocks(), 2);
        let shape: Vec<(usize, usize)> = store.blocks().map(|b| (b.len(), b.capacity())).collect();
        assert_eq!(
            shape,
            vec![(2, 2), (1, 1)],
            "blocks are built at their length"
        );
        let rows: Vec<InputPoint> = store.blocks().flat_map(|b| b.to_vec()).collect();
        for (i, (id, coords)) in rows.iter().enumerate() {
            assert_eq!(*id, i as PointId);
            assert!(std::ptr::eq(*coords, data.point(i)));
        }
        assert_eq!(
            load_points(&PointSet::new(2).unwrap(), 2, 1).num_blocks(),
            0
        );
    }

    // The neighbour index lists exactly the points a brute-force
    // scan finds within `r` (those `admit` lets through), in
    // ascending `(cell, index)` order. Coordinates lie on a lattice
    // of step 0.5, so pairs sit exactly 0.5, 1 and 1.5 apart along
    // an axis and on the boundaries of cells of side 0.5 and 1; the
    // sets hold duplicates and zero-extent dimensions, and sometimes
    // a far point that clamps the grid to the cell cap. Queries are
    // every indexed point plus points outside the box, closer and
    // farther than the radius.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn neighbor_index_matches_a_brute_force_scan(
            d in 1usize..9,
            metric in 0usize..3,
            seed in 0u64..1 << 32,
        ) {
            let metric = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev][metric];
            let mut rng = StdRng::seed_from_u64(seed);
            let flat: Vec<bool> = (0..d).map(|_| rng.gen_bool(0.25)).collect();
            let mut points = PointSet::new(d).unwrap();
            for _ in 0..rng.gen_range(1..40) {
                let p: Vec<f64> = (0..d)
                    .map(|i| if flat[i] { 3.0 } else { f64::from(rng.gen_range(0u8..5)) * 0.5 })
                    .collect();
                points.push(&p).unwrap();
                if rng.gen_bool(0.2) {
                    points.push(&p).unwrap();
                }
            }
            let clamped = rng.gen_bool(0.3);
            if clamped {
                let mut far = points.point(0).to_vec();
                far[0] += 5000.0;
                points.push(&far).unwrap();
            }
            let side = [0.5, 1.0, 2.0][rng.gen_range(0..3)];
            let index = NeighborIndex::build(&points, side, metric);
            if clamped {
                prop_assert_eq!(index.grid.cells_in_dim(0), NeighborIndex::MAX_CELLS_PER_DIM);
            }
            let bounds = points.bounding_rect().unwrap();
            let mut queries: Vec<Vec<f64>> = points.iter().map(<[f64]>::to_vec).collect();
            for gap in [0.5, 1.0, 1.5, 0.5, 1.0, 1.5] {
                let mut q = points.point(rng.gen_range(0..points.len())).to_vec();
                let i = rng.gen_range(0..d);
                q[i] = if rng.gen_bool(0.5) { bounds.min()[i] - gap } else { bounds.max()[i] + gap };
                queries.push(q);
            }
            let admit = |j: u32| j % 3 != 1;
            for q in &queries {
                for r in [0.5, 1.0, 1.5] {
                    let mut got = Vec::new();
                    index.for_each_within(q, r, admit, |j| {
                        got.push(j);
                        true
                    });
                    let keys: Vec<(CellId, u32)> = got
                        .iter()
                        .map(|&j| (index.grid.cell_of(points.point(j as usize)), j))
                        .collect();
                    prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
                    // A `visit` that returns `false` ends the walk there.
                    let stop = got.len() / 2 + 1;
                    let mut head = Vec::new();
                    index.for_each_within(q, r, admit, |j| {
                        head.push(j);
                        head.len() < stop
                    });
                    prop_assert_eq!(&head[..], &got[..stop.min(got.len())]);
                    let want: Vec<u32> = (0..points.len() as u32)
                        .filter(|&j| admit(j) && metric.within(q, points.point(j as usize), r))
                        .collect();
                    got.sort_unstable();
                    prop_assert_eq!(got, want, "q {:?} r {} side {}", q, r, side);
                }
            }
        }
    }

    /// Pins the record path per reducer on a fixed 3,000-point corpus:
    /// the `(key, id, support)` sequence every reduce call receives, a
    /// digest of the tile it builds (the `Partition` of the detection
    /// reducers, the gathered rows of the `extensions/` ones), the
    /// detectors' `detect.distance_evals`, and the shuffle's bytes,
    /// records and outputs. The expected values were taken from the
    /// record that carried its coordinates. Digests of each job's sorted
    /// outputs and of the Domain verify job's cleared ids were taken
    /// while each job still kept its own grid-bucket index.
    #[test]
    fn record_path_is_pinned() {
        use crate::extensions::dbscan::DbscanReducer;
        use crate::extensions::loci::{LociConfig, LociReducer};
        use crate::extensions::similarity_join::JoinReducer;
        use crate::pipeline::{DodConfig, DodRunner};
        use crate::two_job::{CandidateMapper, CandidateReducer, VerifyMapper, VerifyReducer};
        use dod_obs::{Event, MemoryRecorder};
        use mapreduce::checkpoint::fingerprint_u64s;
        use mapreduce::{ClusterConfig, JobOptions};
        use std::sync::Mutex;

        /// Delegates to `inner`, logging `[key, records, tile]` digests.
        struct Pin<'r, R> {
            inner: &'r R,
            tile: &'r (dyn Fn(&[TaggedPoint]) -> u64 + Sync),
            log: Mutex<Vec<[u64; 3]>>,
        }
        impl<R: Reducer<u32, TaggedPoint>> Reducer<u32, TaggedPoint> for Pin<'_, R> {
            type Out = R::Out;
            fn reduce(&self, key: &u32, values: &[TaggedPoint], emit: &mut dyn FnMut(R::Out)) {
                let records = values
                    .iter()
                    .flat_map(|v| [v.id(), u64::from(v.is_support())]);
                let entry = [
                    u64::from(*key),
                    fingerprint_u64s(records),
                    (self.tile)(values),
                ];
                self.log.lock().unwrap().push(entry);
                self.inner.reduce(key, values, emit);
            }
        }

        let mut rng = StdRng::seed_from_u64(33);
        let mut data = PointSet::new(2).unwrap();
        for _ in 0..3000 {
            let roll: f64 = rng.gen();
            let (cx, cy, s): (f64, f64, f64) = if roll < 0.5 {
                (10.0, 10.0, 1.5)
            } else if roll < 0.85 {
                (30.0, 25.0, 4.0)
            } else {
                (25.0, 25.0, 25.0)
            };
            data.push(&[
                (cx + rng.gen_range(-s..s)).clamp(0.0, 50.0),
                (cy + rng.gen_range(-s..s)).clamp(0.0, 50.0),
            ])
            .unwrap();
        }
        let params = OutlierParams::new(0.8, 5).unwrap();
        let config = DodConfig::builder(params)
            .sample_rate(0.5)
            .block_size(128)
            .num_reducers(4)
            .target_partitions(12)
            .build()
            .unwrap();
        let pre = DodRunner::builder()
            .config(config)
            .multi_tactic()
            .build()
            .preprocess(&data)
            .unwrap();
        let store = load_points(&data, 128, 1);
        let algorithms = Arc::new(pre.mt.algorithms.clone());
        let bits = |s: &PointSet| {
            let flat = s.as_flat().iter().map(|c| c.to_bits());
            std::iter::once(s.len() as u64)
                .chain(flat)
                .collect::<Vec<u64>>()
        };
        let tiler = DodReducer::new(&data, params, Arc::clone(&algorithms));
        let partition_tile = |values: &[TaggedPoint]| {
            let p = tiler.build_partition(values);
            let ids = p.core_ids().iter().copied();
            fingerprint_u64s(
                bits(p.core())
                    .into_iter()
                    .chain(ids)
                    .chain(bits(p.support())),
            )
        };
        let gathered_tile =
            |values: &[TaggedPoint]| fingerprint_u64s(bits(&gather_rows(&data, values)));
        let evals = |mem: &MemoryRecorder| -> u64 {
            let events = mem.events_named("detect.distance_evals");
            events.iter().filter_map(Event::counter_delta).sum()
        };
        fn pin<'d, M, R>(
            store: &BlockStore<InputPoint<'d>>,
            mapper: &M,
            reducer: &R,
            tile: &(dyn Fn(&[TaggedPoint]) -> u64 + Sync),
        ) -> ([u64; 5], Vec<R::Out>)
        where
            M: Mapper<In = InputPoint<'d>, K = u32, V = TaggedPoint>,
            R: Reducer<u32, TaggedPoint>,
            R::Out: Durable,
        {
            let pin = Pin {
                inner: reducer,
                tile,
                log: Mutex::new(Vec::new()),
            };
            let by_key = |k: &u32, n: usize| (*k as usize) % n;
            // No speculative attempts: a duplicate reduce call would log
            // its group twice.
            let cluster = ClusterConfig::new(2).without_speculation();
            let opts = JobOptions::default();
            let out = mapreduce::run(&cluster, store, mapper, &pin, &by_key, 4, opts).unwrap();
            let mut log = pin.log.into_inner().unwrap();
            log.sort_unstable();
            let m = &out.metrics;
            let groups = log.len() as u64;
            let digest = fingerprint_u64s(log.into_iter().flatten());
            let outputs = out.outputs.len() as u64;
            let got = [groups, digest, m.shuffle_bytes, m.shuffle_records, outputs];
            (got, out.outputs)
        }
        /// Digest of a job's outputs, encoded and sorted, so that it does
        /// not depend on the order the reduce tasks ran in.
        fn sorted_digest<O: Durable>(outputs: &[O]) -> u64 {
            let mut encoded: Vec<String> = outputs
                .iter()
                .map(|o| {
                    let mut s = String::new();
                    o.encode(&mut s);
                    s
                })
                .collect();
            encoded.sort_unstable();
            fingerprint_u64s(encoded.join("\n").bytes().map(u64::from))
        }

        let mapper = DodMapper::new(&pre.router);
        let mem = Arc::new(MemoryRecorder::new());
        let detect =
            DodReducer::new(&data, params, Arc::clone(&algorithms)).with_obs(Obs::new(mem.clone()));
        let (got, outputs) = pin(&store, &mapper, &detect, &partition_tile);
        assert_eq!(got, [85, 0x399c_387f_34f1_9374, 297_627, 10_263, 451]);
        assert_eq!(sorted_digest(&outputs), 0x31bf_78ab_e064_1051);
        assert_eq!(evals(&mem), 1895);

        let mem = Arc::new(MemoryRecorder::new());
        let candidates = CandidateReducer::with_plan(&data, params, Arc::clone(&algorithms))
            .with_obs(Obs::new(mem.clone()));
        let (got, candidates) = pin(
            &store,
            &CandidateMapper::new(&pre.mt.plan),
            &candidates,
            &partition_tile,
        );
        assert_eq!(got, [82, 0x7794_86bd_3479_544a, 87_000, 3000, 462]);
        assert_eq!(evals(&mem), 2235);
        assert_eq!(sorted_digest(&candidates), 0x59fe_573c_4510_c823);

        // The Domain verify job over those candidates: the ids it clears.
        let flat = candidates.iter().flat_map(|c| c.coords.iter().copied());
        let coords = PointSet::from_flat(2, flat.collect()).unwrap();
        let index = NeighborIndex::build(&coords, params.r, params.metric);
        let verify = VerifyMapper::new(&candidates, &index, params.r);
        let by_key = |k: &u32, n: usize| (*k as usize) % n;
        let cluster = ClusterConfig::new(2);
        let opts = JobOptions::default();
        let reducer = VerifyReducer::new(params.k);
        let out = mapreduce::run(&cluster, &store, &verify, &reducer, &by_key, 4, opts).unwrap();
        let mut cleared: Vec<u64> = out
            .outputs
            .iter()
            .map(|&ci| candidates[ci as usize].id)
            .collect();
        cleared.sort_unstable();
        assert_eq!(cleared.len(), 11);
        assert_eq!(fingerprint_u64s(cleared), 0x9273_8614_4bb5_42e7);

        let dbscan = DbscanReducer::new(&data, 0.8, 5, params.metric);
        let (got, outputs) = pin(&store, &mapper, &dbscan, &gathered_tile);
        assert_eq!(got, [85, 0xfc7a_3a37_07b8_eb72, 297_627, 10_263, 9982]);
        assert_eq!(sorted_digest(&outputs), 0x1b55_fa12_da9a_5cbd);

        let join = JoinReducer::new(&data, 0.8, params.metric);
        let (got, outputs) = pin(&store, &mapper, &join, &gathered_tile);
        assert_eq!(got, [85, 0xfc7a_3a37_07b8_eb72, 297_627, 10_263, 204_733]);
        assert_eq!(sorted_digest(&outputs), 0x41df_2a64_4055_d935);

        let loci_cfg = LociConfig::new(0.8);
        let loci_router = pre
            .mt
            .plan
            .router_with_metric(loci_cfg.support_radius(), loci_cfg.metric);
        let loci = LociReducer::new(&data, loci_cfg);
        let (got, outputs) = pin(&store, &DodMapper::new(&loci_router), &loci, &gathered_tile);
        assert_eq!(got, [85, 0xc8d0_8333_aef4_d2d0, 427_112, 14_728, 3]);
        assert_eq!(sorted_digest(&outputs), 0x7ee1_84a1_2120_3486);
    }
}
