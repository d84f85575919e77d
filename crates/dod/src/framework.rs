//! The single-job DOD framework (Section III-B, Figures 2 and 3).
//!
//! Mappers read raw `(id, coordinates)` records and emit, per point, one
//! core record `(cell, "0-p")` plus zero or more support records
//! `(cell, "1-p")`. After the shuffle groups records by partition id,
//! each reducer materializes the partition (core + support points), runs
//! the detection algorithm assigned to it by the algorithm plan, and
//! reports the outliers among the core points only.
//!
//! A coordinate is copied once on this trip: input rows and shuffle
//! records borrow the caller's [`PointSet`], and the reducer writes the
//! partition's tile from them (DESIGN.md, *Batch record path*).

use dod_core::{OutlierParams, PointId, PointSet};
use dod_detect::cost::AlgorithmKind;
use dod_detect::{Detection, Partition, PartitionState};
use dod_obs::json::Json;
use dod_obs::{names, Obs, ObsScope};
use dod_partition::Router;
use mapreduce::checkpoint::encode_seq;
use mapreduce::{BlockStore, Durable, EstimateSize, Mapper, Reducer};
use std::borrow::Cow;
use std::sync::Arc;

/// One raw input record: the point's stable id and its coordinates, a
/// row of the caller's [`PointSet`].
pub type InputPoint<'a> = (PointId, &'a [f64]);

/// Loads `data` into the block store every job of this crate reads:
/// point `i` becomes the row `(i, data.point(i))`, borrowed, not copied.
pub fn load_points(
    data: &PointSet,
    block_size: usize,
    replication: usize,
) -> BlockStore<InputPoint<'_>> {
    let items = data
        .iter()
        .enumerate()
        .map(|(i, coords)| (i as PointId, coords))
        .collect();
    BlockStore::from_items(items, block_size, replication)
}

/// The intermediate value of the detection job: a point tagged as core
/// (`support == false`, the paper's `"0-p"` prefix) or support
/// (`support == true`, the `"1-p"` prefix).
///
/// A record emitted by a mapper borrows its coordinates from the input
/// row; a record restored from a checkpoint has no row to borrow from
/// and owns them. Both kinds can share one shuffle bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedPoint<'a> {
    /// Whether the point is replicated support (tag `1`) or core (tag `0`).
    pub support: bool,
    /// Stable id of the point.
    pub id: PointId,
    /// Coordinates.
    pub coords: Cow<'a, [f64]>,
}

impl EstimateSize for TaggedPoint<'_> {
    fn estimated_bytes(&self) -> usize {
        1 + 8 + 8 * self.coords.len()
    }
}

// Checkpointed detection jobs persist tagged points as `[support, id,
// coords]`; f64 coordinates round-trip bit-exactly (see
// `mapreduce::checkpoint::Durable`), keeping resumed runs identical to
// uninterrupted ones.
impl Durable for TaggedPoint<'_> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.support.encode(out);
        out.push(',');
        self.id.encode(out);
        out.push(',');
        encode_seq(&self.coords, out);
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        let (support, id, coords) = <(bool, PointId, Vec<f64>)>::decode(v)?;
        Some(TaggedPoint {
            support,
            id,
            coords: Cow::Owned(coords),
        })
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
    type V = TaggedPoint<'a>;

    fn map(&self, item: &InputPoint<'a>, emit: &mut dyn FnMut(u32, TaggedPoint<'a>)) {
        let (id, coords) = *item;
        let (core, supported) = self.router.route_iter(coords);
        let record = |support| TaggedPoint {
            support,
            id,
            coords: Cow::Borrowed(coords),
        };
        emit(core, record(false));
        for pid in supported {
            emit(pid, record(true));
        }
    }
}

/// Reduce function of the detection job (Figure 3 reduce pseudocode): the
/// algorithm plan selects which detector runs on each partition.
pub struct DodReducer {
    params: OutlierParams,
    dim: usize,
    algorithms: Arc<Vec<AlgorithmKind>>,
    obs: Obs,
}

impl DodReducer {
    /// Creates the reducer from the algorithm plan.
    pub fn new(params: OutlierParams, dim: usize, algorithms: Arc<Vec<AlgorithmKind>>) -> Self {
        DodReducer {
            params,
            dim,
            algorithms,
            obs: Obs::null(),
        }
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
    pub fn build_partition(&self, values: &[TaggedPoint<'_>]) -> Partition {
        let _span = self.stage("tile");
        let cores = values.iter().filter(|v| !v.support).count();
        let mut core = PointSet::with_capacity(self.dim, cores).expect("dim >= 1");
        let mut core_ids = Vec::with_capacity(cores);
        let mut support =
            PointSet::with_capacity(self.dim, values.len() - cores).expect("dim >= 1");
        for v in values {
            if v.support {
                support.push(&v.coords).expect("same dim");
            } else {
                core.push(&v.coords).expect("same dim");
                core_ids.push(v.id);
            }
        }
        Partition::new(core, core_ids, support).expect("consistent construction")
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

impl Reducer<u32, TaggedPoint<'_>> for DodReducer {
    type Out = PointId;

    fn reduce(&self, key: &u32, values: &[TaggedPoint<'_>], emit: &mut dyn FnMut(PointId)) {
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
    use dod_core::{GridSpec, Rect};
    use dod_partition::PartitionPlan;

    fn router_2x2() -> Router {
        let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 2).unwrap());
        plan.router(1.0)
    }

    fn tagged(support: bool, id: PointId, coords: &[f64]) -> TaggedPoint<'_> {
        TaggedPoint {
            support,
            id,
            coords: Cow::Borrowed(coords),
        }
    }

    #[test]
    fn mapper_emits_core_and_support_records() {
        let router = router_2x2();
        let mapper = DodMapper::new(&router);
        let mut records: Vec<(u32, TaggedPoint)> = Vec::new();
        // Interior point: one core record only, lending the input row.
        let interior = [2.0, 2.0];
        mapper.map(&(7, &interior), &mut |k, v| records.push((k, v)));
        assert_eq!(records.len(), 1);
        assert!(!records[0].1.support);
        assert_eq!(records[0].1.id, 7);
        assert!(
            matches!(records[0].1.coords, Cow::Borrowed(c) if std::ptr::eq(c, &interior[..])),
            "a live record borrows its row"
        );

        // Boundary point near the center cross: 1 core + 3 support.
        records.clear();
        mapper.map(&(8, &[4.8, 4.8]), &mut |k, v| records.push((k, v)));
        assert_eq!(records.len(), 4);
        assert_eq!(records.iter().filter(|(_, v)| v.support).count(), 3);
        // All four partition keys distinct.
        let mut keys: Vec<u32> = records.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn reducer_separates_core_and_support() {
        let reducer = DodReducer::new(
            OutlierParams::new(1.0, 1).unwrap(),
            2,
            Arc::new(vec![AlgorithmKind::Reference]),
        );
        let values = vec![tagged(false, 3, &[0.0, 0.0]), tagged(true, 9, &[0.5, 0.0])];
        let partition = Arc::new(reducer.build_partition(&values));
        assert_eq!(partition.core().len(), 1);
        assert_eq!(partition.support().len(), 1);
        assert_eq!(partition.core_id(0), 3);
        // The support point rescues the core point from outlier status.
        let det = reducer.detect(0, partition);
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn reducer_reports_only_core_outliers() {
        let reducer = DodReducer::new(
            OutlierParams::new(1.0, 1).unwrap(),
            2,
            Arc::new(vec![AlgorithmKind::NestedLoop]),
        );
        let mut out = Vec::new();
        reducer.reduce(
            &0,
            &[tagged(false, 1, &[0.0, 0.0]), tagged(true, 2, &[9.0, 9.0])],
            &mut |o| out.push(o),
        );
        // Core point 1 has no neighbor within 1.0 -> outlier; support
        // point 2 is isolated too but must not be reported here.
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn unknown_partition_falls_back_to_nested_loop() {
        let reducer = DodReducer::new(OutlierParams::new(1.0, 1).unwrap(), 2, Arc::new(vec![]));
        let partition = Arc::new(reducer.build_partition(&[tagged(false, 0, &[1.0, 1.0])]));
        let det = reducer.detect(99, partition);
        assert_eq!(det.outliers, vec![0]);
    }

    #[test]
    fn tagged_point_size_estimate() {
        let t = tagged(true, 1, &[0.0, 0.0]);
        assert_eq!(t.estimated_bytes(), 1 + 8 + 16);
    }

    /// The checkpoint format is pinned: a record restored from disk owns
    /// its coordinates (there is no input row to borrow) and encodes to
    /// the same bytes as a live record of the same point — the bytes the
    /// owned-`Vec` record wrote before (`f64`'s shortest round-trip
    /// `Display`: `-0`, no exponent), which decode back to the same bits.
    #[test]
    fn restored_record_owns_its_coordinates_and_reencodes_identically() {
        let decode = |text: &str| {
            TaggedPoint::decode(&dod_obs::json::parse(text).unwrap()).expect("decodes")
        };
        let encode = |record: &TaggedPoint| {
            let mut out = String::new();
            record.encode(&mut out);
            out
        };
        let canonical = "[false,7,[1.5,-0,0.0000003]]";
        let restored = decode("[false,7,[1.5,-0.0,3e-7]]");
        assert!(matches!(restored.coords, Cow::Owned(_)));
        assert_eq!(restored, tagged(false, 7, &[1.5, -0.0, 3e-7]));
        assert!(restored.coords[1].is_sign_negative());
        assert_eq!(encode(&restored), canonical);
        assert_eq!(encode(&tagged(false, 7, &[1.5, -0.0, 3e-7])), canonical);
        let again = decode(canonical);
        let bits = |r: &TaggedPoint| r.coords.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&restored));
        assert_eq!(encode(&again), canonical);
    }

    #[test]
    fn loader_lends_the_callers_rows() {
        let data = PointSet::from_xy(&[(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]);
        let store = load_points(&data, 2, 1);
        assert_eq!(store.num_blocks(), 2);
        let rows: Vec<InputPoint> = store.blocks().flat_map(|b| b.to_vec()).collect();
        for (i, (id, coords)) in rows.iter().enumerate() {
            assert_eq!(*id, i as PointId);
            assert!(std::ptr::eq(*coords, data.point(i)));
        }
    }
}
