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

use crate::framework::{DodReducer, InputPoint, NeighborIndex, TaggedPoint};
use dod_core::{OutlierParams, PointId, PointSet};
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

/// Job-2 mapper: emits `(candidate index, 1)` for every (point, nearby
/// candidate) pair, the point and its own candidate excepted.
pub struct VerifyMapper<'a> {
    candidates: &'a [Candidate],
    index: &'a NeighborIndex<'a>,
    r: f64,
}

impl<'a> VerifyMapper<'a> {
    /// Creates the mapper over the broadcast candidate list and `index`,
    /// the neighbour index over the candidates' coordinates in list
    /// order, for neighbour radius `r`. Built once, shared by all map
    /// tasks.
    pub(crate) fn new(candidates: &'a [Candidate], index: &'a NeighborIndex<'a>, r: f64) -> Self {
        VerifyMapper {
            candidates,
            index,
            r,
        }
    }
}

impl<'a> Mapper for VerifyMapper<'a> {
    type In = InputPoint<'a>;
    type K = u32;
    type V = u32;

    fn map(&self, item: &InputPoint<'a>, emit: &mut dyn FnMut(u32, u32)) {
        let (id, coords) = *item;
        let other = |ci: u32| self.candidates[ci as usize].id != id;
        self.index.for_each_within(coords, self.r, other, |ci| {
            emit(ci, 1);
            true
        });
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

    fn candidate(id: PointId, coords: &[f64]) -> Candidate {
        Candidate {
            id,
            coords: coords.to_vec(),
        }
    }

    /// The candidate indices the verify mapper emits for `point` (row
    /// `id`), each with a count of one.
    fn verify(candidates: &[Candidate], r: f64, id: PointId, point: &[f64]) -> Vec<u32> {
        let flat = candidates.iter().flat_map(|c| c.coords.iter().copied());
        let coords = PointSet::from_flat(point.len(), flat.collect()).unwrap();
        let index = NeighborIndex::build(&coords, r, dod_core::Metric::Euclidean);
        let mut out = Vec::new();
        VerifyMapper::new(candidates, &index, r).map(&(id, point), &mut |k, v| {
            assert_eq!(v, 1);
            out.push(k);
        });
        out
    }

    #[test]
    fn candidate_index_finds_neighbors() {
        let cands = [candidate(0, &[0.0, 0.0]), candidate(1, &[5.0, 5.0])];
        assert_eq!(verify(&cands, 1.0, 99, &[0.5, 0.0]), vec![0]);
        assert!(verify(&cands, 1.0, 99, &[2.5, 2.5]).is_empty());
    }

    #[test]
    fn candidate_index_excludes_self() {
        let cands = [candidate(7, &[1.0, 1.0])];
        assert!(verify(&cands, 1.0, 7, &[1.0, 1.0]).is_empty());
        assert_eq!(verify(&cands, 1.0, 8, &[1.0, 1.0]), vec![0]);
    }

    #[test]
    fn empty_candidate_index() {
        assert!(verify(&[], 1.0, 0, &[0.0, 0.0]).is_empty());
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
        let cands = [candidate(0, &[0.0, 0.0])];
        assert_eq!(verify(&cands, 1.0, 42, &[0.5, 0.5]), vec![0]);
        assert!(verify(&cands, 1.0, 43, &[3.0, 3.0]).is_empty());
    }

    #[test]
    fn degenerate_candidates_all_identical() {
        let cands: Vec<Candidate> = (0..5).map(|i| candidate(i, &[2.0, 2.0])).collect();
        // A probe at the same spot sees all 5 except the excluded id.
        assert_eq!(verify(&cands, 0.5, 3, &[2.0, 2.0]), vec![0, 1, 2, 4]);
    }
}
