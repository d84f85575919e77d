//! One plan epoch: the plan, its router and the per-partition states
//! built over the dataset, and the splice that keeps them in step with
//! a streaming mutation.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dod::DodRunner;
use dod_core::{PointId, PointSet};
use dod_detect::{Partition, PartitionState, Side};
use dod_partition::{MultiTacticPlan, Router};

use crate::error::EngineError;

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
    /// Wall time of sample + plan, of the routing pass, and of scattering
    /// the copies into their tiles and building the states.
    pub(crate) preprocess: Duration,
    pub(crate) route: Duration,
    pub(crate) build: Duration,
}

/// Calls `f` on each of `inputs` concurrently — on the first on the
/// calling thread, so one input means no spawn — and returns the results
/// in input order. An input whose thread cannot be spawned runs on the
/// caller after the first. A panic in any call resumes on the caller.
///
/// The epoch build is its one caller, twice a build: its inputs borrow
/// the dataset and `&mut` chunks of tiles the caller sized, which only a
/// scoped thread can hold without `unsafe`, and its spawns cost under a
/// thousandth of a build. Scores use the engine's resident helpers
/// instead (`helpers.rs`).
fn fan_out<I: Send, T: Send>(inputs: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    if inputs.len() == 0 {
        return vec![f(first)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        // A helper is handed its input once it has been spawned, so the
        // input of a failed spawn is still the caller's to run.
        let spawned: Vec<_> = inputs
            .map(|input| {
                let (send, recv) = mpsc::sync_channel(1);
                let helper = move || f(recv.recv().expect("sent once spawned"));
                match std::thread::Builder::new().spawn_scoped(scope, helper) {
                    Ok(handle) => {
                        send.send(input).expect("the helper waits for its input");
                        Ok(handle)
                    }
                    Err(_) => Err(input),
                }
            })
            .collect();
        let mut out = vec![f(first)];
        for handle in spawned {
            out.push(match handle {
                Ok(handle) => handle.join().unwrap_or_else(|panic| resume_unwind(panic)),
                Err(input) => f(input),
            });
        }
        out
    })
}

/// Marks a route record's core entry; the point's support entries follow
/// it, each a bare partition id.
const CORE: u32 = 1 << 31;

/// Preprocesses and materializes per-partition detector state for the
/// points `data` (with ids `point_ids`): one routing pass (Definition 3.3)
/// assigns each point as core to exactly one partition and as support to
/// every partition whose rectangle it is within `r` of, then each
/// partition gets the plan's chosen algorithm's index built once.
///
/// The dataset is cut into contiguous slot ranges, one per thread of up
/// to `threads` (never more than there are points), and the tiles are
/// built by count and scatter in three passes:
///
/// 1. *Route* (the range threads): each range routes its points in slot
///    order into one route record — a `u32` per copy, the core entry
///    first — and counts its copies per tile.
/// 2. *Allocate* (the calling thread): every partition's core and support
///    coordinate buffer and id column is allocated at its exact size and
///    split into one chunk per range at the ranges' prefix counts.
/// 3. *Scatter* (the range threads): each range reads its slots and its
///    route record in order and writes every copy at its chunk's cursor.
///
/// A tile is therefore its ranges' copies laid end to end in range order,
/// the order one pass over the dataset produces, whatever the thread
/// count; and a helper thread writes only into buffers the caller sized.
/// The states are built on the calling thread although partitions are
/// independent (Lemma 3.1): what a short-lived thread allocates lives in
/// that thread's malloc arena, and an epoch's worth of state scattered
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
    assert!(
        n_parts < CORE as usize,
        "partition ids leave the core bit free"
    );
    // No thread gets an empty range.
    let per_thread = n.div_ceil(threads.clamp(1, n));
    let ranges: Vec<Range<usize>> = (0..n)
        .step_by(per_thread)
        .map(|lo| lo..(lo + per_thread).min(n))
        .collect();
    let router = &pre.router;
    // Per range: its route record, and its copies per tile — `[pid]` the
    // core tile of partition `pid`, `[n_parts + pid]` its support tile.
    let routed: Vec<(Vec<u32>, Vec<usize>)> = fan_out(ranges.clone(), |range| {
        let mut routes = Vec::with_capacity(range.len());
        let mut counts = vec![0; 2 * n_parts];
        for slot in range {
            let (core, support) = router.route_iter(data.point(slot));
            routes.push(core | CORE);
            counts[core as usize] += 1;
            for pid in support {
                routes.push(pid);
                counts[n_parts + pid as usize] += 1;
            }
        }
        (routes, counts)
    });
    let t_route = Instant::now();
    let dim = data.dim();
    let mut tiles: Vec<(Vec<f64>, Vec<PointId>)> = (0..2 * n_parts)
        .map(|tile| {
            let len: usize = routed.iter().map(|(_, counts)| counts[tile]).sum();
            (vec![0.0; len * dim], vec![0; len])
        })
        .collect();
    // Per range, per tile: the range's chunk of the coordinates and ids.
    let mut chunks: Vec<Vec<(&mut [f64], &mut [PointId])>> = routed
        .iter()
        .map(|_| Vec::with_capacity(2 * n_parts))
        .collect();
    for (tile, (mut coords, mut ids)) in tiles
        .iter_mut()
        .map(|(coords, ids)| (coords.as_mut_slice(), ids.as_mut_slice()))
        .enumerate()
    {
        for (range_chunks, (_, counts)) in chunks.iter_mut().zip(&routed) {
            let (chunk_coords, rest_coords) = coords.split_at_mut(counts[tile] * dim);
            let (chunk_ids, rest_ids) = ids.split_at_mut(counts[tile]);
            range_chunks.push((chunk_coords, chunk_ids));
            (coords, ids) = (rest_coords, rest_ids);
        }
    }
    let scatter: Vec<_> = ranges.into_iter().zip(&routed).zip(chunks).collect();
    fan_out(scatter, |((range, (routes, _)), mut chunks)| {
        let mut copies = routes.iter().peekable();
        for slot in range {
            let (p, id) = (data.point(slot), point_ids[slot]);
            let mut write = |tile: usize| {
                let (coords, ids) = &mut chunks[tile];
                let (at, rest) = std::mem::take(coords).split_at_mut(dim);
                at.copy_from_slice(p);
                *coords = rest;
                let (at, rest) = std::mem::take(ids)
                    .split_first_mut()
                    .expect("one id per counted copy");
                *at = id;
                *ids = rest;
            };
            let core = copies.next().expect("one core entry per slot");
            write((core & !CORE) as usize);
            while let Some(pid) = copies.next_if(|&&route| route & CORE == 0) {
                write(n_parts + *pid as usize);
            }
        }
    });
    drop(routed);
    let params = runner.config().params;
    let supports = tiles.split_off(n_parts);
    let mut counts = Vec::with_capacity(n_parts);
    let mut states = Vec::with_capacity(n_parts);
    for (pid, ((core, core_ids), (support, support_ids))) in
        tiles.into_iter().zip(supports).enumerate()
    {
        counts.push(core_ids.len() as f64);
        let tile = |coords| PointSet::from_flat(dim, coords).expect("dataset dimension is valid");
        let partition = Partition::new(tile(core), core_ids, tile(support), support_ids)
            .expect("one id per routed point");
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

#[cfg(test)]
mod tests {
    use super::*;
    use dod::DodConfig;
    use dod_core::OutlierParams;

    fn runner() -> DodRunner {
        let config = DodConfig::builder(OutlierParams::new(1.5, 4).unwrap())
            .sample_rate(0.5)
            .num_reducers(3)
            .target_partitions(24)
            .build()
            .unwrap();
        DodRunner::builder().config(config).multi_tactic().build()
    }

    /// Per partition, per side: the coordinate bits and the ids.
    type Tiles = Vec<[(Vec<u64>, Vec<PointId>); 2]>;

    fn bits(set: &PointSet) -> Vec<u64> {
        set.as_flat().iter().map(|c| c.to_bits()).collect()
    }

    /// The tiles of one serial pass: every point routed with
    /// `Router::route_into` in slot order and pushed onto its copies'
    /// tiles.
    fn serial_tiles(router: &Router, n_parts: usize, data: &PointSet, ids: &[PointId]) -> Tiles {
        let side = || (PointSet::new(data.dim()).unwrap(), Vec::new());
        let mut tiles: Vec<[(PointSet, Vec<PointId>); 2]> =
            (0..n_parts).map(|_| [side(), side()]).collect();
        let mut support = Vec::new();
        for (slot, &id) in ids.iter().enumerate() {
            let p = data.point(slot);
            let core = router.route_into(p, &mut support) as usize;
            let copies = std::iter::once((core, Side::Core))
                .chain(support.iter().map(|&pid| (pid as usize, Side::Support)));
            for (pid, side) in copies {
                let (points, tile_ids) = &mut tiles[pid][side];
                points.push(p).unwrap();
                tile_ids.push(id);
            }
        }
        tiles
            .iter()
            .map(|sides| {
                [Side::Core, Side::Support].map(|side| {
                    let (points, ids) = &sides[side];
                    (bits(points), ids.clone())
                })
            })
            .collect()
    }

    fn built_tiles(plan: &ResidentPlan) -> Tiles {
        plan.states
            .iter()
            .map(|state| {
                let partition = state.partition();
                [Side::Core, Side::Support].map(|side| {
                    let points = match side {
                        Side::Core => partition.core(),
                        Side::Support => partition.support(),
                    };
                    (bits(points), partition.ids(side).to_vec())
                })
            })
            .collect()
    }

    /// Two blobs far apart, one after the other in slot order, so on two
    /// threads each range holds the copies of one blob's partitions only.
    fn two_blobs() -> PointSet {
        let mut data = PointSet::new(2).unwrap();
        for i in 0..400u64 {
            let p = if i < 200 {
                [0.05 * (i % 20) as f64, 0.05 * (i / 20) as f64]
            } else {
                [30.0 + 0.07 * (i % 17) as f64, 30.0 + 0.07 * (i / 17) as f64]
            };
            data.push(&p).unwrap();
        }
        data
    }

    /// `build` lays every tile out, coordinate bits and ids, as routing
    /// the points one by one in slot order and pushing each copy does, on
    /// any thread count: over ranges that hold no copy of some partition,
    /// for partitions with no core point, and on more threads than points.
    #[test]
    fn the_scatter_lays_tiles_out_as_one_serial_pass() {
        let runner = runner();
        let blobs = two_blobs();
        let few = PointSet::from_xy(&[(0.0, 0.0), (0.5, 0.1), (9.0, 9.0)]);
        for data in [blobs, few] {
            let ids: Vec<PointId> = (0..data.len() as u64).map(|i| 1000 + 3 * i).collect();
            let slot = |id: PointId| (id - 1000) / 3;
            for threads in [1, 2, 3, 7] {
                let plan = build(&runner, &data, &ids, threads).unwrap().plan.unwrap();
                let tiles = built_tiles(&plan);
                let serial = serial_tiles(&plan.router, plan.mt.num_partitions(), &data, &ids);
                assert!(
                    tiles == serial,
                    "threads({threads}) diverged from one serial pass"
                );
                if data.len() < 400 {
                    continue;
                }
                assert!(
                    tiles
                        .iter()
                        .any(|[core, support]| core.1.is_empty() && !support.1.is_empty()),
                    "a partition with support copies only"
                );
                let in_first_half = |t: &[(Vec<u64>, Vec<PointId>); 2]| {
                    let mut slots = t.iter().flat_map(|side| side.1.iter().map(|&id| slot(id)));
                    slots.all(|s| s < 200)
                };
                assert!(
                    tiles.iter().any(|t| !t[0].1.is_empty() && in_first_half(t)),
                    "on two threads, the second range holds no copy of some partition"
                );
            }
        }
    }
}
