//! The engine's authoritative dataset: stable ids, liveness, arrival
//! times, window expiry, compaction and the staleness ratio.

use std::collections::VecDeque;
use std::time::Instant;

use dod_core::{PointId, PointSet, Rect};

use crate::error::EngineError;
use crate::request::WindowConfig;

/// Append-only slots with a liveness mask, so streaming inserts and
/// removes are O(1) and stable [`PointId`]s survive epoch swaps. Dead
/// slots are compacted away at each refresh.
pub(crate) struct DatasetState {
    /// Every point ever inserted this compaction era, dead or alive.
    pub(crate) points: PointSet,
    /// Stable id per slot, aligned with `points`. Strictly increasing —
    /// ids are minted in order, appended in order, and compaction keeps
    /// order — so id → slot is a binary search and needs no map.
    pub(crate) ids: Vec<PointId>,
    /// Liveness per slot.
    alive: Vec<bool>,
    /// Number of live slots.
    pub(crate) alive_len: usize,
    /// Next id to mint; never reused.
    next_id: PointId,
    /// The sliding-window bound currently in force.
    pub(crate) window: WindowConfig,
    /// Arrival times, run-length: one `(first id, instant)` per build or
    /// insert request, oldest first, each run spanning the ids up to the
    /// next run's first. Ids are minted in arrival order, so this is the
    /// expiry order; a run is popped once expiry has passed all of it.
    pub(crate) arrivals: VecDeque<(PointId, Instant)>,
    /// Slot of the oldest point expiry has not passed: every slot before
    /// it is dead, so compaction resets it to 0.
    oldest: usize,
    /// Live points at the last materialization — the staleness baseline.
    epoch_points: usize,
    /// Mutations (inserts + removes + expiries) since the last
    /// materialization.
    pub(crate) churn: u64,
}

impl DatasetState {
    pub(crate) fn new(points: PointSet, window: WindowConfig, now: Instant) -> Self {
        let n = points.len();
        DatasetState {
            points,
            ids: (0..n as PointId).collect(),
            alive: vec![true; n],
            alive_len: n,
            next_id: n as PointId,
            window,
            arrivals: VecDeque::from([(0, now)]),
            oldest: 0,
            epoch_points: n,
            churn: 0,
        }
    }

    /// Appends one request's points, all arrived at `now`, minting their
    /// ids in order. Caller validates the dimensions first. An empty
    /// request starts no run: a run without a point would outlive every
    /// compaction that finds no dead slot.
    pub(crate) fn insert(&mut self, points: &[Vec<f64>], now: Instant) -> Vec<PointId> {
        if !points.is_empty() {
            self.arrivals.push_back((self.next_id, now));
        }
        points
            .iter()
            .map(|p| {
                self.points.push(p).expect("caller validated dimension");
                let id = self.next_id;
                self.next_id += 1;
                self.ids.push(id);
                self.alive.push(true);
                self.alive_len += 1;
                self.churn += 1;
                id
            })
            .collect()
    }

    /// Marks `id` dead, returning its coordinates, or `None` if it is
    /// unknown or already dead.
    pub(crate) fn remove(&mut self, id: PointId) -> Option<Vec<f64>> {
        let slot = self.ids.binary_search(&id).ok()?;
        if !self.alive[slot] {
            return None;
        }
        self.alive[slot] = false;
        self.alive_len -= 1;
        self.churn += 1;
        Some(self.points.point(slot).to_vec())
    }

    /// The live points, in slot order.
    pub(crate) fn alive_points(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.points.len())
            .filter(|&slot| self.alive[slot])
            .map(|slot| self.points.point(slot))
    }

    /// Refuses a batch holding a point of the wrong dimension or with a
    /// NaN or infinite coordinate. No distance to such a point is
    /// meaningful, and one resident makes every later re-plan fail.
    pub(crate) fn check_points(&self, points: &[Vec<f64>]) -> Result<(), EngineError> {
        let expected = self.points.dim();
        for (index, p) in points.iter().enumerate() {
            if p.len() != expected {
                return Err(EngineError::Dimension {
                    index,
                    expected,
                    got: p.len(),
                });
            }
            if !p.iter().all(|c| c.is_finite()) {
                return Err(EngineError::NonFinite { index });
            }
        }
        Ok(())
    }

    /// Refuses an insert batch that would widen the live points' bounding
    /// box past what `f64` can span: the refresh it triggers could not
    /// plan over it. Every live point lies in the plan's `domain` (a point
    /// outside it triggers a refresh that re-plans over all of them), so
    /// only a batch that leaves the domain is scanned.
    pub(crate) fn check_extent(
        &self,
        domain: Option<&Rect>,
        points: &[Vec<f64>],
    ) -> Result<(), EngineError> {
        if points
            .iter()
            .all(|p| domain.is_some_and(|d| d.contains_closed(p)))
        {
            return Ok(());
        }
        let batch = points.iter().map(Vec::as_slice);
        Rect::bounding(self.alive_points().chain(batch), self.points.dim())
            .map(drop)
            .map_err(|_| EngineError::Extent)
    }

    /// Expires points the window no longer covers, oldest first,
    /// returning them with their coordinates.
    pub(crate) fn expire(&mut self, now: Instant) -> Vec<(PointId, Vec<f64>)> {
        let mut evicted = Vec::new();
        while let Some(slot) = self.alive[self.oldest..].iter().position(|&a| a) {
            // Skip points removed out of band, then the runs expiry has
            // passed.
            let slot = self.oldest + slot;
            self.oldest = slot;
            let id = self.ids[slot];
            while self.arrivals.get(1).is_some_and(|&(first, _)| first <= id) {
                self.arrivals.pop_front();
            }
            let arrived = self.arrivals[0].1;
            let over_count = self
                .window
                .max_points
                .is_some_and(|cap| self.alive_len > cap);
            let over_age = self
                .window
                .max_age
                .is_some_and(|age| now.duration_since(arrived) > age);
            if !(over_count || over_age) {
                break;
            }
            self.oldest += 1;
            self.alive[slot] = false;
            self.alive_len -= 1;
            self.churn += 1;
            evicted.push((id, self.points.point(slot).to_vec()));
        }
        evicted
    }

    /// Drops dead slots, resetting the staleness baseline. Run at every
    /// materialization so the epoch's plan sees exactly the live points.
    pub(crate) fn compact(&mut self) {
        if self.alive_len < self.points.len() {
            let mut points =
                PointSet::with_capacity(self.points.dim(), self.alive_len).expect("dim >= 1");
            let mut ids = Vec::with_capacity(self.alive_len);
            for slot in 0..self.points.len() {
                if self.alive[slot] {
                    points.push(self.points.point(slot)).expect("same dim");
                    ids.push(self.ids[slot]);
                }
            }
            self.points = points;
            self.ids = ids;
            self.alive = vec![true; self.alive_len];
            self.oldest = 0;
            // Drop the runs left with no live point, so the queue is
            // bounded by the live points rather than by the requests.
            let ends: Vec<PointId> = self.arrivals.iter().skip(1).map(|run| run.0).collect();
            let mut ends = ends.into_iter().chain([self.next_id]);
            let live = &self.ids;
            self.arrivals.retain(|&(first, _)| {
                let end = ends.next().expect("one end per run");
                let at = live.partition_point(|&id| id < first);
                live.get(at).is_some_and(|&id| id < end)
            });
        }
        self.epoch_points = self.alive_len;
        self.churn = 0;
    }

    /// Churn since the last epoch relative to the epoch's size.
    pub(crate) fn staleness(&self) -> f64 {
        self.churn as f64 / self.epoch_points.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Seeded histories of insert / remove / window / compact against a
    /// plain list of the live points — `(id, coordinates, arrival,
    /// request)`, oldest first — checked after every step.
    #[test]
    fn dataset_state_matches_a_plain_model() {
        for seed in 1..=40u64 {
            let mut rng = seed;
            let mut next = |bound: u64| {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (rng >> 33) % bound
            };
            let t0 = Instant::now();
            let mut model: Vec<(PointId, Vec<f64>, Instant, usize)> = (0..1 + next(6))
                .map(|i| (i, vec![i as f64, 0.5], t0, 0))
                .collect();
            let mut data = PointSet::new(2).unwrap();
            for m in &model {
                data.push(&m.1).unwrap();
            }
            let mut ds = DatasetState::new(data, WindowConfig::default(), t0);
            let (mut requests, mut minted) = (1, model.len() as PointId);
            let (mut churn, mut epoch_points) = (0, model.len());
            for step in 1..=60 {
                let now = t0 + Duration::from_millis(10 * step);
                let op = next(5);
                if op < 2 {
                    let points: Vec<Vec<f64>> =
                        (0..next(5)).map(|j| vec![step as f64, j as f64]).collect();
                    let ids = ds.insert(&points, now);
                    let n = points.len() as PointId;
                    assert_eq!(ids, (minted..minted + n).collect::<Vec<_>>());
                    model.extend(
                        ids.into_iter()
                            .zip(points)
                            .map(|(id, p)| (id, p, now, requests)),
                    );
                    (minted, churn, requests) = (minted + n, churn + n, requests + 1);
                } else if op == 2 {
                    let id = next(minted + 2);
                    let at = model.iter().position(|m| m.0 == id);
                    assert_eq!(ds.remove(id), at.map(|at| model.remove(at).1));
                    churn += u64::from(at.is_some());
                } else if op == 3 {
                    let (cap, age) = (
                        Some(next(8) as usize),
                        Some(Duration::from_millis(10 * next(12))),
                    );
                    let limits = [(cap, None), (None, age), (cap, age), (None, None)];
                    let (max_points, max_age) = limits[next(4) as usize];
                    ds.window = WindowConfig {
                        max_points,
                        max_age,
                    };
                } else {
                    ds.compact();
                    assert_eq!(ds.ids, model.iter().map(|m| m.0).collect::<Vec<_>>());
                    assert!(ds
                        .points
                        .as_flat()
                        .iter()
                        .eq(model.iter().flat_map(|m| &m.1)));
                    // One run per request that still has a live point.
                    let mut runs: Vec<usize> = model.iter().map(|m| m.3).collect();
                    runs.dedup();
                    assert_eq!(ds.arrivals.len(), runs.len(), "seed {seed} step {step}");
                    (churn, epoch_points) = (0, model.len());
                }
                if op != 2 && op != 4 {
                    // Inserts and window ticks sweep the window.
                    let (window, mut expected) = (ds.window, Vec::new());
                    while let Some(&(_, _, arrived, _)) = model.first() {
                        let over_count = window.max_points.is_some_and(|cap| model.len() > cap);
                        let over_age = window.max_age.is_some_and(|age| now - arrived > age);
                        if !(over_count || over_age) {
                            break;
                        }
                        let (id, p, ..) = model.remove(0);
                        expected.push((id, p));
                    }
                    churn += expected.len() as u64;
                    assert_eq!(ds.expire(now), expected, "seed {seed} step {step}");
                }
                assert_eq!(ds.alive_len, model.len());
                assert!(ds.alive_points().eq(model.iter().map(|m| m.1.as_slice())));
                assert_eq!(ds.churn, churn);
                assert_eq!(ds.staleness(), churn as f64 / epoch_points.max(1) as f64);
                assert!(ds.arrivals.len() <= requests, "at most one run per request");
            }
        }
    }
}
