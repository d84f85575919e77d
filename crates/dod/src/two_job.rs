//! The two-job Domain baseline (Section VI-A).
//!
//! Without supporting areas, a point classified as an outlier inside its
//! own partition may still have unseen neighbors in adjacent partitions.
//! The baseline therefore runs:
//!
//! 1. **Candidate job** — grid partitioning without replication; each
//!    reducer detects locally and emits the local outliers as
//!    *candidates*;
//! 2. **Verification job** — every mapper matches its input block against
//!    the broadcast candidate list and emits partial neighbor counts;
//!    a reducer sums them, and candidates that reach `k` global neighbors
//!    are cleared.
//!
//! This is exactly the extra cost ("prohibitive costs involved in reading,
//! writing, and re-distribution of the data over a series of separate
//! jobs") that motivates the single-pass framework.

use crate::framework::{DodReducer, InputPoint, TaggedPoint};
use dod_core::{CellId, GridSpec, OutlierParams, PointId, PointSet, Rect};
use dod_detect::cost::AlgorithmKind;
use dod_obs::json::Json;
use dod_partition::PartitionPlan;
use mapreduce::{Durable, EstimateSize, Mapper, Reducer};
use std::sync::Arc;

/// A locally-detected outlier awaiting global verification.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Stable id of the point.
    pub id: PointId,
    /// Coordinates.
    pub coords: Vec<f64>,
}

impl EstimateSize for Candidate {
    fn estimated_bytes(&self) -> usize {
        8 + 8 * self.coords.len()
    }
}

// Checkpointed baseline jobs persist candidates as `[id, coords]`.
impl Durable for Candidate {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.id.encode(out);
        out.push(',');
        self.coords.encode(out);
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        let (id, coords) = <(PointId, Vec<f64>)>::decode(v)?;
        Some(Candidate { id, coords })
    }
}

/// Job-1 mapper: routes each point to its core partition only (no
/// supporting area).
pub struct CandidateMapper<'a> {
    plan: &'a PartitionPlan,
}

impl<'a> CandidateMapper<'a> {
    /// Creates the mapper over the (grid) partition plan.
    pub fn new(plan: &'a PartitionPlan) -> Self {
        CandidateMapper { plan }
    }
}

impl<'a> Mapper for CandidateMapper<'a> {
    type In = InputPoint<'a>;
    type K = u32;
    type V = TaggedPoint;

    fn map(&self, item: &InputPoint<'a>, emit: &mut dyn FnMut(u32, TaggedPoint)) {
        let (id, coords) = *item;
        emit(self.plan.locate(coords), TaggedPoint::new(id, false));
    }

    fn record_bytes(&self, key: &u32, _value: &TaggedPoint) -> usize {
        key.estimated_bytes() + TaggedPoint::logical_bytes(self.plan.domain().dim())
    }
}

/// Job-1 reducer: detects locally and emits the local outliers as
/// candidates.
pub struct CandidateReducer<'a> {
    inner: DodReducer<'a>,
}

impl<'a> CandidateReducer<'a> {
    /// Creates the reducer from the per-partition algorithm plan over
    /// the job's input `data`, whose rows the records name.
    pub fn with_plan(
        data: &'a PointSet,
        params: OutlierParams,
        algorithms: Arc<Vec<AlgorithmKind>>,
    ) -> Self {
        CandidateReducer {
            inner: DodReducer::new(data, params, algorithms),
        }
    }

    /// Attaches an observability handle (see [`DodReducer::with_obs`]).
    #[must_use]
    pub fn with_obs(mut self, obs: dod_obs::Obs) -> Self {
        self.inner = self.inner.with_obs(obs);
        self
    }
}

impl Reducer<u32, TaggedPoint> for CandidateReducer<'_> {
    type Out = Candidate;

    fn reduce(&self, key: &u32, values: &[TaggedPoint], emit: &mut dyn FnMut(Candidate)) {
        debug_assert!(
            values.iter().all(|v| !v.is_support()),
            "job 1 has no support records"
        );
        let partition = Arc::new(self.inner.build_partition(values));
        let detection = self.inner.detect(*key, partition);
        // Emit coordinates along with ids so job 2 can count neighbors.
        let data = self.inner.data();
        for id in detection.outliers {
            emit(Candidate {
                id,
                coords: data.point(id as usize).to_vec(),
            });
        }
    }
}

/// Spatial index over the broadcast candidate list, shared by all job-2
/// map tasks.
pub struct CandidateIndex {
    candidates: Vec<Candidate>,
    grid: Option<GridSpec>,
    /// `(cell, candidate index)` of every candidate, sorted: one run per
    /// occupied cell, its candidates in index order. Only occupied cells
    /// cost memory, however many cells the grid has.
    by_cell: Vec<(CellId, u32)>,
    r: f64,
    metric: dod_core::Metric,
}

impl CandidateIndex {
    /// Builds the index with cell side ≈ `r` under the Euclidean metric.
    pub fn build(candidates: Vec<Candidate>, r: f64) -> Self {
        Self::build_with_metric(candidates, r, dod_core::Metric::Euclidean)
    }

    /// Builds the index for an arbitrary metric.
    pub fn build_with_metric(candidates: Vec<Candidate>, r: f64, metric: dod_core::Metric) -> Self {
        if candidates.is_empty() {
            return CandidateIndex {
                candidates,
                grid: None,
                by_cell: Vec::new(),
                r,
                metric,
            };
        }
        let dim = candidates[0].coords.len();
        let bounds = Rect::bounding(candidates.iter().map(|c| c.coords.as_slice()), dim)
            .expect("non-empty candidates");
        let grid = GridSpec::with_cell_side(bounds, r, 1024).expect("valid candidate grid");
        let mut by_cell: Vec<(CellId, u32)> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (grid.cell_of(&c.coords), i as u32))
            .collect();
        by_cell.sort_unstable();
        CandidateIndex {
            candidates,
            grid: Some(grid),
            by_cell,
            r,
            metric,
        }
    }

    /// Number of indexed candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidate list, in index order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Indices of candidates within `r` of `x`, excluding the candidate
    /// with id `exclude_id` (the point itself).
    pub fn neighbors_of(&self, x: &[f64], exclude_id: PointId) -> Vec<u32> {
        let Some(grid) = &self.grid else {
            return Vec::new();
        };
        let ball = Rect::new(
            x.iter().map(|v| v - self.r).collect(),
            x.iter().map(|v| v + self.r).collect(),
        )
        .expect("finite coordinates");
        let mut out = Vec::new();
        for cell in grid.cells_intersecting(&ball) {
            let from = self.by_cell.partition_point(|&(c, _)| c < cell);
            let run = self.by_cell[from..].iter().take_while(|&&(c, _)| c == cell);
            for &(_, ci) in run {
                let c = &self.candidates[ci as usize];
                if c.id == exclude_id {
                    continue;
                }
                if self.metric.within(x, &c.coords, self.r) {
                    out.push(ci);
                }
            }
        }
        out
    }
}

/// Job-2 mapper: emits `(candidate index, 1)` for every (point, nearby
/// candidate) pair.
pub struct VerifyMapper<'a> {
    index: &'a CandidateIndex,
}

impl<'a> VerifyMapper<'a> {
    /// Creates the mapper over the broadcast candidate index.
    pub fn new(index: &'a CandidateIndex) -> Self {
        VerifyMapper { index }
    }
}

impl<'a> Mapper for VerifyMapper<'a> {
    type In = InputPoint<'a>;
    type K = u32;
    type V = u32;

    fn map(&self, item: &InputPoint<'a>, emit: &mut dyn FnMut(u32, u32)) {
        let (id, coords) = *item;
        for ci in self.index.neighbors_of(coords, id) {
            emit(ci, 1);
        }
    }
}

/// Job-2 reducer: emits the candidate index if its global neighbor count
/// reaches `k` (candidate cleared — an inlier after all).
pub struct VerifyReducer {
    k: usize,
}

impl VerifyReducer {
    /// Creates the reducer for neighbor-count threshold `k`.
    pub fn new(k: usize) -> Self {
        VerifyReducer { k }
    }
}

impl Reducer<u32, u32> for VerifyReducer {
    type Out = u32;

    fn reduce(&self, key: &u32, values: &[u32], emit: &mut dyn FnMut(u32)) {
        let total: u64 = values.iter().map(|&v| v as u64).sum();
        if total >= self.k as u64 {
            emit(*key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_index_finds_neighbors() {
        let cands = vec![
            Candidate {
                id: 0,
                coords: vec![0.0, 0.0],
            },
            Candidate {
                id: 1,
                coords: vec![5.0, 5.0],
            },
        ];
        let idx = CandidateIndex::build(cands, 1.0);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.neighbors_of(&[0.5, 0.0], 99), vec![0]);
        assert!(idx.neighbors_of(&[2.5, 2.5], 99).is_empty());
    }

    #[test]
    fn candidate_index_excludes_self() {
        let cands = vec![Candidate {
            id: 7,
            coords: vec![1.0, 1.0],
        }];
        let idx = CandidateIndex::build(cands, 1.0);
        assert!(idx.neighbors_of(&[1.0, 1.0], 7).is_empty());
        assert_eq!(idx.neighbors_of(&[1.0, 1.0], 8), vec![0]);
    }

    #[test]
    fn empty_candidate_index() {
        let idx = CandidateIndex::build(vec![], 1.0);
        assert!(idx.is_empty());
        assert!(idx.neighbors_of(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn verify_reducer_thresholds_at_k() {
        let red = VerifyReducer::new(3);
        let mut out = Vec::new();
        red.reduce(&5, &[1, 1], &mut |o| out.push(o));
        assert!(out.is_empty());
        red.reduce(&5, &[1, 1, 1], &mut |o| out.push(o));
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn verify_mapper_emits_counts() {
        let idx = CandidateIndex::build(
            vec![Candidate {
                id: 0,
                coords: vec![0.0, 0.0],
            }],
            1.0,
        );
        let mapper = VerifyMapper::new(&idx);
        let mut out = Vec::new();
        mapper.map(&(42, &[0.5, 0.5]), &mut |k, v| out.push((k, v)));
        assert_eq!(out, vec![(0, 1)]);
        out.clear();
        mapper.map(&(43, &[3.0, 3.0]), &mut |k, v| out.push((k, v)));
        assert!(out.is_empty());
    }

    #[test]
    fn degenerate_candidates_all_identical() {
        let cands: Vec<Candidate> = (0..5)
            .map(|i| Candidate {
                id: i,
                coords: vec![2.0, 2.0],
            })
            .collect();
        let idx = CandidateIndex::build(cands, 0.5);
        // A probe at the same spot sees all 5 except the excluded id.
        assert_eq!(idx.neighbors_of(&[2.0, 2.0], 3).len(), 4);
    }
}
