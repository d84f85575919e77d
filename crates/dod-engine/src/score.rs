//! The read path over one resident plan: query points scored in slices
//! of whole query groups spread over helper threads, and the plan's own
//! outliers detected partition by partition.

use std::panic::resume_unwind;
use std::time::Instant;

use dod_core::PointId;
use dod_obs::Obs;

use crate::epoch::ResidentPlan;
use crate::error::EngineError;
use crate::request::ScorePoint;

/// Queries scored per partition pass of a score request: each partition
/// is visited once per group of this many queries.
pub const SCORE_GROUP: usize = 8;

/// The smallest [`Request::Score`](crate::Request::Score) batch that is
/// split over the engine's [`workers`](crate::EngineBuilder::workers)
/// threads; a smaller batch is scored on the calling thread alone. Set at
/// the measured crossover of one and two threads, where the helper's
/// wake-up onto an idle core stops costing more than its half of the
/// batch saves (DESIGN.md §6b *Steadiness*).
pub const FAN_OUT_MIN_QUERIES: usize = 256;

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

/// What [`score`] and [`score_slice`] hand back.
pub(crate) struct ScoredSlice {
    /// One verdict per query of the slice, in order.
    pub(crate) verdicts: Vec<ScorePoint>,
    /// Per partition: the slice's queries located in it.
    pub(crate) traffic: Vec<u64>,
    /// Per partition: the kernel work the slice did in it.
    pub(crate) work: Vec<u64>,
}

impl ScoredSlice {
    /// Appends the batch's next slice: its verdicts after these, its
    /// traffic and work added per partition.
    fn append(&mut self, next: ScoredSlice) {
        self.verdicts.extend(next.verdicts);
        for (sum, t) in self.traffic.iter_mut().zip(next.traffic) {
            *sum += t;
        }
        for (sum, w) in self.work.iter_mut().zip(next.work) {
            *sum += w;
        }
    }
}

/// Scores a batch against `plan` (`None` for an empty resident dataset).
///
/// Partitions are independent (Lemma 3.1), and so are queries: a batch
/// of at least [`FAN_OUT_MIN_QUERIES`] points is cut into `workers`
/// contiguous slices on [`SCORE_GROUP`] boundaries, each scored by
/// [`score_slice`] on its own thread ([`fan_out`]; the first on the
/// calling thread) against the one `plan` the caller's read guard holds.
/// A smaller batch is one slice on the calling thread. Verdicts are
/// concatenated in request order and traffic and work summed per
/// partition, so nothing in the result depends on the worker count.
pub(crate) fn score(
    plan: Option<&ResidentPlan>,
    k: usize,
    points: &[Vec<f64>],
    deadline: Option<Instant>,
    workers: usize,
) -> Result<ScoredSlice, EngineError> {
    let threads = if points.len() >= FAN_OUT_MIN_QUERIES {
        workers
    } else {
        1
    };
    // At most `threads` contiguous slices of whole groups; only the
    // last may end in a short group, as it does unsplit.
    let n = points.len();
    let per_slice = n.div_ceil(SCORE_GROUP).div_ceil(threads).max(1) * SCORE_GROUP;
    let mut scored = fan_out(n.div_ceil(per_slice).max(1), |s| {
        let slice = &points[(s * per_slice).min(n)..((s + 1) * per_slice).min(n)];
        score_slice(plan, k, slice, deadline)
    })
    .into_iter();
    let mut total = scored.next().expect("fan_out calls f(0)")?;
    for slice in scored {
        total.append(slice?);
    }
    Ok(total)
}

/// Scores one contiguous slice of a score batch against `plan` (`None`
/// for an empty resident dataset), [`SCORE_GROUP`] queries at a time.
///
/// It takes no lock: the caller holds the state lock's read side for
/// the whole request and lends `plan` to the helper threads.
///
/// Queries run in groups with the partition loop outside the group: the
/// union of the group's lists is walked in ascending partition id, and
/// each partition is visited once per group, scanning for each query that
/// lists it and still needs neighbors. The order swap is
/// exact: a query meets its own partitions in ascending id either way, and
/// its early-exit cap at partition `pid` depends only on the neighbors it
/// found in its partitions before `pid`, which both orders accumulate
/// identically — so per-query results, per-partition work, and traffic
/// counters all match scoring one query at a time against every partition
/// within `r` of it.
fn score_slice(
    plan: Option<&ResidentPlan>,
    k: usize,
    points: &[Vec<f64>],
    deadline: Option<Instant>,
) -> Result<ScoredSlice, EngineError> {
    let n_parts = plan.map_or(0, |p| p.mt.num_partitions());
    let mut scored = ScoredSlice {
        verdicts: Vec::with_capacity(points.len()),
        traffic: vec![0; n_parts],
        work: vec![0; n_parts],
    };
    // Every query's partition list laid end to end (`lists[..ends[0]]`
    // is the first query's), and a read cursor into each.
    let mut lists: Vec<u32> = Vec::new();
    let mut ends = [0usize; SCORE_GROUP];
    let mut cursors = [0usize; SCORE_GROUP];
    let mut neighbors = [0usize; SCORE_GROUP];
    for group in points.chunks(SCORE_GROUP) {
        if deadline.is_some_and(|d| Instant::now() > d) {
            return Err(EngineError::DeadlineExceeded);
        }
        let Some(plan) = plan else {
            // Empty resident dataset: zero neighbors, always outlier.
            scored.verdicts.extend(group.iter().map(|_| ScorePoint {
                neighbors: 0,
                outlier: true,
            }));
            continue;
        };
        lists.clear();
        for (j, q) in group.iter().enumerate() {
            scored.traffic[plan.mt.plan.locate(q) as usize] += 1;
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
                        scored.work[pid as usize] += w;
                    }
                }
            }
        }
        scored
            .verdicts
            .extend(neighbors[..group.len()].iter().map(|&nb| ScorePoint {
                neighbors: nb,
                outlier: nb < k,
            }));
    }
    Ok(scored)
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
