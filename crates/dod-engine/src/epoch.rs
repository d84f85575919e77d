//! One plan epoch: the plan, its router and the per-partition states
//! built over the dataset, and the splice that keeps them in step with
//! a streaming mutation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dod::DodRunner;
use dod_core::{PointId, PointSet};
use dod_detect::{Partition, PartitionState, Side};
use dod_partition::{MultiTacticPlan, Router};

use crate::error::EngineError;
use crate::score::fan_out;

/// The materialized serving state of one plan epoch.
pub(crate) struct ResidentPlan {
    pub(crate) mt: MultiTacticPlan,
    /// The routing structure of this epoch's plan, kept so streaming
    /// inserts/removes can locate the partitions a point belongs to.
    pub(crate) router: Arc<Router>,
    /// Per-partition detector state.
    pub(crate) states: Vec<PartitionState>,
}

/// What [`build`] hands back.
#[derive(Default)]
pub(crate) struct Materialized {
    /// `None` for an empty dataset.
    pub(crate) plan: Option<ResidentPlan>,
    /// Per-partition core counts, the seed of the observed distribution.
    pub(crate) counts: Vec<f64>,
    /// Wall time of sample + plan, of the routing pass, and of gathering
    /// the tiles and building the states.
    pub(crate) preprocess: Duration,
    pub(crate) route: Duration,
    pub(crate) build: Duration,
}

/// Preprocesses and materializes per-partition detector state for the
/// points `data` (with ids `point_ids`): one routing pass (Definition 3.3)
/// assigns each point as core to exactly one partition and as support to
/// every partition whose rectangle it is within `r` of, then each
/// partition gets the plan's chosen algorithm's index built once.
///
/// The routing pass runs on up to `threads` threads, never more than
/// there are points, and the result does not depend on the count:
/// contiguous slot ranges are routed independently, and a partition's
/// tile is its ranges' slot lists laid end to end in range order — the
/// order one pass over the dataset produces. Gathering the tiles and
/// building the states stays on the calling thread although partitions
/// are independent (Lemma 3.1): what a short-lived thread allocates lives
/// in that thread's malloc arena, and an epoch's worth of state scattered
/// over arenas whose threads are gone cost more resident memory (+10 MB
/// at the first swap of 250k points, +30 MB after fourteen) than the
/// second thread saved time (~25 ms a swap).
pub(crate) fn build(
    runner: &DodRunner,
    data: &PointSet,
    point_ids: &[PointId],
    threads: usize,
) -> Result<Materialized, EngineError> {
    if data.is_empty() {
        return Ok(Materialized::default());
    }
    let t0 = Instant::now();
    let pre = runner.preprocess(data)?;
    let t_pre = Instant::now();
    let n_parts = pre.mt.num_partitions();
    let n = data.len();
    assert!(
        u32::try_from(n).is_ok(),
        "resident indexes address points with u32 slots"
    );
    // No thread gets an empty range.
    let per_thread = n.div_ceil(threads.clamp(1, n));
    let router = &pre.router;
    // `[pid]` lists the range's core slots of partition `pid`,
    // `[n_parts + pid]` its support slots, ascending.
    let routed: Vec<Vec<Vec<u32>>> = fan_out(n.div_ceil(per_thread), |t| {
        let mut lists = vec![Vec::new(); 2 * n_parts];
        let mut support = Vec::new();
        for slot in t * per_thread..((t + 1) * per_thread).min(n) {
            let core = router.route_into(data.point(slot), &mut support) as usize;
            lists[core].push(slot as u32);
            for &pid in &support {
                lists[n_parts + pid as usize].push(slot as u32);
            }
        }
        lists
    });
    let t_route = Instant::now();
    let params = runner.config().params;
    let dim = data.dim();
    let tile = |list: usize| {
        let len = routed.iter().map(|lists| lists[list].len()).sum();
        let mut points = PointSet::with_capacity(dim, len).expect("dataset dimension is valid");
        let mut ids = Vec::with_capacity(len);
        for &slot in routed.iter().flat_map(|lists| &lists[list]) {
            points
                .push(data.point(slot as usize))
                .expect("same dimension");
            ids.push(point_ids[slot as usize]);
        }
        (points, ids)
    };
    let mut counts = Vec::with_capacity(n_parts);
    let mut states = Vec::with_capacity(n_parts);
    for pid in 0..n_parts {
        let (core, core_ids) = tile(pid);
        let (support, support_ids) = tile(n_parts + pid);
        counts.push(core.len() as f64);
        let partition =
            Partition::new(core, core_ids, support, support_ids).expect("one id per routed point");
        let state = PartitionState::build(pre.mt.algorithms[pid], Arc::new(partition), params);
        states.push(state);
    }
    let t_build = Instant::now();
    Ok(Materialized {
        plan: Some(ResidentPlan {
            mt: pre.mt,
            router: pre.router,
            states,
        }),
        counts,
        preprocess: t_pre - t0,
        route: t_route - t_pre,
        build: t_build - t_route,
    })
}

impl ResidentPlan {
    /// Whether inserting `points` by splicing is exact: each lies inside
    /// the plan's domain (`locate` clamps out-of-domain points, so routing
    /// would be wrong) and inside its core partition's rectangle (then any
    /// resident point within `r` of it already has its partition in its
    /// support set, so no existing membership changes).
    pub(crate) fn absorbs(&self, points: &[Vec<f64>]) -> bool {
        let rects = &self.mt.plan;
        points.iter().all(|p| {
            rects.domain().contains_closed(p)
                && rects.rect(rects.locate(p) as usize).contains_closed(p)
        })
    }

    /// Routes every point of a mutation once and splices each of its
    /// copies under this plan — one core, any number of support — into
    /// (or out of) the partition's state. Each point also adds one unit of
    /// mass to its core partition's slot of `observed`, so the drift
    /// detector sees mutation traffic alongside query traffic.
    ///
    /// The copies are applied grouped by partition, so each touched state
    /// is visited once per request instead of once per copy, and inside a
    /// group in request order (the sort is stable). A state's tile layout
    /// and index are a function of the order its own pushes and
    /// swap-removes arrive in and of nothing that happens in another
    /// partition, so this leaves every state exactly as applying the
    /// request point by point does.
    pub(crate) fn splice(&mut self, change: Splice<'_>, observed: &mut [f64]) {
        // (partition, side, item)
        let mut copies: Vec<(u32, Side, usize)> = Vec::new();
        let mut support = Vec::new();
        for item in 0..change.len() {
            let pid = self.router.route_into(change.point(item).0, &mut support);
            copies.push((pid, Side::Core, item));
            copies.extend(support.iter().map(|&pid| (pid, Side::Support, item)));
            if let Some(slot) = observed.get_mut(pid as usize) {
                *slot += 1.0;
            }
        }
        copies.sort_by_key(|c| c.0);
        for (pid, side, item) in copies {
            let state = &mut self.states[pid as usize];
            let (p, id) = change.point(item);
            match change {
                // An insert's dimensions were validated at the request.
                Splice::Insert(..) => state.insert(side, p, id).expect("a validated point"),
                Splice::Remove(_) => _ = state.remove(side, id),
            }
        }
    }
}

/// A streaming mutation's points, as [`ResidentPlan::splice`] applies them.
#[derive(Clone, Copy)]
pub(crate) enum Splice<'a> {
    /// New points, in request order, and the ids minted for them.
    Insert(&'a [Vec<f64>], &'a [PointId]),
    /// Removed points with their coordinates.
    Remove(&'a [(PointId, Vec<f64>)]),
}

impl<'a> Splice<'a> {
    fn len(self) -> usize {
        match self {
            Splice::Insert(points, _) => points.len(),
            Splice::Remove(removed) => removed.len(),
        }
    }

    /// The coordinates and the id of the mutation's `i`-th point.
    fn point(self, i: usize) -> (&'a [f64], PointId) {
        match self {
            Splice::Insert(points, ids) => (&points[i], ids[i]),
            Splice::Remove(removed) => (&removed[i].1, removed[i].0),
        }
    }
}
