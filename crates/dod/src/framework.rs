//! The single-job DOD framework (Section III-B, Figures 2 and 3).
//!
//! Mappers read raw `(id, coordinates)` records and emit, per point, one
//! core record `(cell, "0-p")` plus zero or more support records
//! `(cell, "1-p")`. After the shuffle groups records by partition id,
//! each reducer materializes the partition (core + support points), runs
//! the detection algorithm assigned to it by the algorithm plan, and
//! reports the outliers among the core points only.

use dod_core::{OutlierParams, PointId, PointSet};
use dod_detect::cost::AlgorithmKind;
use dod_detect::{Detection, Partition, PartitionState};
use dod_obs::json::Json;
use dod_obs::Obs;
use dod_partition::Router;
use mapreduce::{Durable, EstimateSize, Mapper, Reducer};
use std::sync::Arc;

/// One raw input record: the point's stable id and its coordinates.
pub type InputPoint = (PointId, Vec<f64>);

/// The intermediate value of the detection job: a point tagged as core
/// (`support == false`, the paper's `"0-p"` prefix) or support
/// (`support == true`, the `"1-p"` prefix).
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedPoint {
    /// Whether the point is replicated support (tag `1`) or core (tag `0`).
    pub support: bool,
    /// Stable id of the point.
    pub id: PointId,
    /// Coordinates.
    pub coords: Vec<f64>,
}

impl EstimateSize for TaggedPoint {
    fn estimated_bytes(&self) -> usize {
        1 + 8 + 8 * self.coords.len()
    }
}

// Checkpointed detection jobs persist tagged points as `[support, id,
// coords]`; f64 coordinates round-trip bit-exactly (see
// `mapreduce::checkpoint::Durable`), keeping resumed runs identical to
// uninterrupted ones.
impl Durable for TaggedPoint {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.support.encode(out);
        out.push(',');
        self.id.encode(out);
        out.push(',');
        self.coords.encode(out);
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        let (support, id, coords) = <(bool, PointId, Vec<f64>)>::decode(v)?;
        Some(TaggedPoint {
            support,
            id,
            coords,
        })
    }
}

/// Map function of the detection job: supporting-area routing
/// (lines 2–6 of the Figure 3 map pseudocode).
pub struct DodMapper {
    router: Arc<Router>,
}

impl DodMapper {
    /// Creates the mapper from the preprocessing job's routing structure
    /// ("the partitioning plan is given as input to Mappers").
    pub fn new(router: Arc<Router>) -> Self {
        DodMapper { router }
    }
}

impl Mapper for DodMapper {
    type In = InputPoint;
    type K = u32;
    type V = TaggedPoint;

    fn map(&self, item: &InputPoint, emit: &mut dyn FnMut(u32, TaggedPoint)) {
        let (id, coords) = item;
        let routing = self.router.route(coords);
        emit(
            routing.core,
            TaggedPoint {
                support: false,
                id: *id,
                coords: coords.clone(),
            },
        );
        for pid in routing.support {
            emit(
                pid,
                TaggedPoint {
                    support: true,
                    id: *id,
                    coords: coords.clone(),
                },
            );
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
    /// emits its per-partition `detect.*` work counters through it.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
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
    /// partition key.
    pub fn build_partition(&self, values: Vec<TaggedPoint>) -> Partition {
        let mut core = PointSet::new(self.dim).expect("dim >= 1");
        let mut core_ids = Vec::new();
        let mut support = PointSet::new(self.dim).expect("dim >= 1");
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
        let state = PartitionState::build(kind, partition, self.params);
        let detection = state.detect();
        detection
            .stats
            .record_to(&self.obs, partition_id as usize, kind.name());
        detection
    }
}

impl Reducer for DodReducer {
    type K = u32;
    type V = TaggedPoint;
    type Out = PointId;

    fn reduce(&self, key: &u32, values: Vec<TaggedPoint>, emit: &mut dyn FnMut(PointId)) {
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

    fn router_2x2() -> Arc<Router> {
        let domain = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]).unwrap();
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 2).unwrap());
        Arc::new(plan.router(1.0))
    }

    #[test]
    fn mapper_emits_core_and_support_records() {
        let mapper = DodMapper::new(router_2x2());
        let mut records: Vec<(u32, TaggedPoint)> = Vec::new();
        // Interior point: one core record only.
        mapper.map(&(7, vec![2.0, 2.0]), &mut |k, v| records.push((k, v)));
        assert_eq!(records.len(), 1);
        assert!(!records[0].1.support);
        assert_eq!(records[0].1.id, 7);

        // Boundary point near the center cross: 1 core + 3 support.
        records.clear();
        mapper.map(&(8, vec![4.8, 4.8]), &mut |k, v| records.push((k, v)));
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
        let values = vec![
            TaggedPoint {
                support: false,
                id: 3,
                coords: vec![0.0, 0.0],
            },
            TaggedPoint {
                support: true,
                id: 9,
                coords: vec![0.5, 0.0],
            },
        ];
        let partition = Arc::new(reducer.build_partition(values));
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
            vec![
                TaggedPoint {
                    support: false,
                    id: 1,
                    coords: vec![0.0, 0.0],
                },
                TaggedPoint {
                    support: true,
                    id: 2,
                    coords: vec![9.0, 9.0],
                },
            ],
            &mut |o| out.push(o),
        );
        // Core point 1 has no neighbor within 1.0 -> outlier; support
        // point 2 is isolated too but must not be reported here.
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn unknown_partition_falls_back_to_nested_loop() {
        let reducer = DodReducer::new(OutlierParams::new(1.0, 1).unwrap(), 2, Arc::new(vec![]));
        let partition = Arc::new(reducer.build_partition(vec![TaggedPoint {
            support: false,
            id: 0,
            coords: vec![1.0, 1.0],
        }]));
        let det = reducer.detect(99, partition);
        assert_eq!(det.outliers, vec![0]);
    }

    #[test]
    fn tagged_point_size_estimate() {
        let t = TaggedPoint {
            support: true,
            id: 1,
            coords: vec![0.0, 0.0],
        };
        assert_eq!(t.estimated_bytes(), 1 + 8 + 16);
    }
}
