//! The read path over one resident plan: query points scored in groups
//! that the calling thread and its helpers claim from one counter, and
//! the plan's own outliers detected partition by partition.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dod_core::PointId;
use dod_obs::Obs;

use crate::epoch::ResidentPlan;
use crate::error::EngineError;
use crate::request::ScorePoint;

/// Queries scored per partition pass of a score request: each partition
/// is visited once per group of this many queries.
pub const SCORE_GROUP: usize = 8;

/// The smallest [`Request::Score`](crate::Request::Score) batch whose
/// groups the engine's [`workers`](crate::EngineBuilder::workers) threads
/// claim together; a smaller batch is scored on the calling thread alone.
/// Set at the measured crossover of one and two threads, where the
/// helper's spawn and wake-up onto an idle core stop costing more than
/// the groups it takes save (DESIGN.md §6b *Steadiness*).
pub const FAN_OUT_MIN_QUERIES: usize = 192;

/// Calls `f(0)`, …, `f(threads - 1)` concurrently — `f(0)` on the calling
/// thread, so one thread means no spawn — and returns the results in
/// argument order. A call whose thread cannot be spawned runs on the
/// caller after `f(0)`. A panic in any call resumes on the caller.
pub(crate) fn fan_out<T: Send>(threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let spawned: Vec<_> = (1..threads)
            .map(|t| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || f(t))
                    .map_err(|_| t)
            })
            .collect();
        let mut out = vec![f(0)];
        for handle in spawned {
            out.push(match handle {
                Ok(handle) => handle.join().unwrap_or_else(|panic| resume_unwind(panic)),
                Err(t) => f(t),
            });
        }
        out
    })
}

/// What [`score`] hands back.
pub(crate) struct Scored {
    /// One verdict per query, in request order.
    pub(crate) verdicts: Vec<ScorePoint>,
    /// Per partition: the queries located in it.
    pub(crate) traffic: Vec<u64>,
    /// Per partition: the kernel work done in it.
    pub(crate) work: Vec<u64>,
}

/// What one thread of a [`score`] call scored: the groups it claimed, in
/// claim order (so ascending), their verdicts back to back, and its
/// traffic and work.
struct Claimed {
    groups: Vec<usize>,
    verdicts: Vec<ScorePoint>,
    traffic: Vec<u64>,
    work: Vec<u64>,
}

/// Scores a batch against `plan` (`None` for an empty resident dataset).
///
/// Partitions are independent (Lemma 3.1), and so are queries. The batch
/// is cut into groups of [`SCORE_GROUP`] queries (the last may be
/// short), and the calling thread and — for a batch of at least
/// [`FAN_OUT_MIN_QUERIES`] points — `workers - 1` helpers ([`fan_out`])
/// claim groups from one shared counter until none is left, all against
/// the one `plan` the caller's read guard holds. The caller starts on the
/// first group at once, and a helper that starts late takes fewer groups
/// rather than holding the request for a fixed half of it. Verdicts are
/// put back in request order by group index, and traffic and work are
/// integer sums per partition, so nothing in the result depends on the
/// worker count or on which thread claimed which group.
pub(crate) fn score(
    plan: Option<&ResidentPlan>,
    k: usize,
    points: &[Vec<f64>],
    deadline: Option<Instant>,
    workers: usize,
) -> Result<Scored, EngineError> {
    let groups = points.len().div_ceil(SCORE_GROUP);
    let threads = if points.len() >= FAN_OUT_MIN_QUERIES {
        workers.clamp(1, groups)
    } else {
        1
    };
    let next = AtomicUsize::new(0);
    let claimed = fan_out(threads, |_| claim_groups(plan, k, points, deadline, &next));
    let n_parts = plan.map_or(0, |p| p.mt.num_partitions());
    let mut total = Scored {
        verdicts: vec![
            ScorePoint {
                neighbors: 0,
                outlier: true,
            };
            points.len()
        ],
        traffic: vec![0; n_parts],
        work: vec![0; n_parts],
    };
    for part in claimed {
        let part = part?;
        let mut verdicts = part.verdicts.as_slice();
        for g in part.groups {
            let span = g * SCORE_GROUP..((g + 1) * SCORE_GROUP).min(points.len());
            let (group, rest) = verdicts.split_at(span.len());
            total.verdicts[span].copy_from_slice(group);
            verdicts = rest;
        }
        for (sum, t) in total.traffic.iter_mut().zip(part.traffic) {
            *sum += t;
        }
        for (sum, w) in total.work.iter_mut().zip(part.work) {
            *sum += w;
        }
    }
    Ok(total)
}

/// One thread's share of a [`score`] call: claims group after group of
/// `points` from `next` and scores each against `plan` (`None` for an
/// empty resident dataset), until no group is left or the deadline has
/// passed.
///
/// It takes no lock: the caller holds the state lock's read side for
/// the whole request and lends `plan` to the helper threads.
///
/// Within a group the partition loop is outside the query loop: the
/// union of the group's lists is walked in ascending partition id, and
/// each partition is visited once per group, scanning for each query that
/// lists it and still needs neighbors. The order swap is
/// exact: a query meets its own partitions in ascending id either way, and
/// its early-exit cap at partition `pid` depends only on the neighbors it
/// found in its partitions before `pid`, which both orders accumulate
/// identically — so per-query results, per-partition work, and traffic
/// counters all match scoring one query at a time against every partition
/// within `r` of it.
fn claim_groups(
    plan: Option<&ResidentPlan>,
    k: usize,
    points: &[Vec<f64>],
    deadline: Option<Instant>,
    next: &AtomicUsize,
) -> Result<Claimed, EngineError> {
    let n_parts = plan.map_or(0, |p| p.mt.num_partitions());
    let mut claimed = Claimed {
        groups: Vec::new(),
        verdicts: Vec::new(),
        traffic: vec![0; n_parts],
        work: vec![0; n_parts],
    };
    // Every query's partition list laid end to end (`lists[..ends[0]]`
    // is the first query's), and a read cursor into each.
    let mut lists: Vec<u32> = Vec::new();
    let mut ends = [0usize; SCORE_GROUP];
    let mut cursors = [0usize; SCORE_GROUP];
    let mut neighbors = [0usize; SCORE_GROUP];
    loop {
        // The counter hands out group numbers and publishes nothing else:
        // `points` and `plan` were shared before the threads started, and
        // each thread's results reach the caller through its join.
        let g = next.fetch_add(1, Ordering::Relaxed);
        let start = g * SCORE_GROUP;
        if start >= points.len() {
            return Ok(claimed);
        }
        let group = &points[start..(start + SCORE_GROUP).min(points.len())];
        if deadline.is_some_and(|d| Instant::now() > d) {
            return Err(EngineError::DeadlineExceeded);
        }
        claimed.groups.push(g);
        let Some(plan) = plan else {
            // Empty resident dataset: zero neighbors, always outlier.
            claimed.verdicts.extend(group.iter().map(|_| ScorePoint {
                neighbors: 0,
                outlier: true,
            }));
            continue;
        };
        lists.clear();
        for (j, q) in group.iter().enumerate() {
            claimed.traffic[plan.mt.plan.locate(q) as usize] += 1;
            cursors[j] = lists.len();
            plan.router.within_r_into(q, &mut lists);
            ends[j] = lists.len();
            neighbors[j] = 0;
        }
        loop {
            // The lowest partition some unsatisfied query still lists.
            let next = (0..group.len())
                .filter(|&j| neighbors[j] < k && cursors[j] < ends[j])
                .map(|j| lists[cursors[j]])
                .min();
            let Some(pid) = next else { break };
            let state = &plan.states[pid as usize];
            let live = state.core_len() > 0;
            for (j, q) in group.iter().enumerate() {
                if neighbors[j] < k && cursors[j] < ends[j] && lists[cursors[j]] == pid {
                    cursors[j] += 1;
                    if live {
                        let (found, w) = state.count_core_neighbors_traced(q, k - neighbors[j]);
                        neighbors[j] += found;
                        claimed.work[pid as usize] += w;
                    }
                }
            }
        }
        claimed
            .verdicts
            .extend(neighbors[..group.len()].iter().map(|&nb| ScorePoint {
                neighbors: nb,
                outlier: nb < k,
            }));
    }
}

/// Runs full detection over every partition of `plan`, recording each
/// one's detector stats to `obs`. Returns the ascending ids of all
/// outliers — exactly the one-shot pipeline's answer for the same
/// configuration and data — and the kernel work per partition.
pub(crate) fn detect(
    plan: &ResidentPlan,
    deadline: Option<Instant>,
    obs: &Obs,
) -> Result<(Vec<PointId>, Vec<u64>), EngineError> {
    let mut outliers = Vec::new();
    let mut work = vec![0u64; plan.states.len()];
    for (pid, state) in plan.states.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() > d) {
            return Err(EngineError::DeadlineExceeded);
        }
        let detection = state.detect();
        detection.stats.record_to(obs, pid, state.kind().name());
        work[pid] = detection.stats.total_work();
        outliers.extend(detection.outliers);
    }
    // Core sets are disjoint, so this is a sort of unique ids.
    outliers.sort_unstable();
    Ok((outliers, work))
}
