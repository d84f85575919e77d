//! The read path over one resident plan: query points scored in groups
//! that the calling thread and the engine's parked helpers claim from one
//! counter, and the plan's own outliers detected partition by partition.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dod_core::PointId;
use dod_obs::Obs;

use crate::epoch::ResidentPlan;
use crate::error::EngineError;
use crate::helpers::Helpers;
use crate::request::ScorePoint;

/// Queries scored per partition pass of a score request: each partition
/// is visited once per group of this many queries.
pub const SCORE_GROUP: usize = 8;

/// The smallest [`Request::Score`](crate::Request::Score) batch whose
/// groups the engine's [`workers`](crate::EngineBuilder::workers) threads
/// claim together; a smaller batch is scored on the calling thread alone.
/// Set at the measured crossover of one and two threads, where waking a
/// parked helper onto an idle core stops costing more than the groups it
/// takes save (DESIGN.md §6b *Claimed groups*).
pub const FAN_OUT_MIN_QUERIES: usize = 64;

/// One score request as its claimants share it: the epoch it reads, its
/// queries, and the counter that hands out their groups. The caller and
/// the helpers it posts the job to each hold an `Arc` of it, so it owns
/// everything it reads; its `Arc` of the epoch is gone from every helper
/// before the caller has all their replies.
pub(crate) struct ScoreJob {
    /// `None` for an empty resident dataset.
    plan: Option<Arc<ResidentPlan>>,
    k: usize,
    points: Vec<Vec<f64>>,
    deadline: Option<Instant>,
    /// The next group no claimant has taken.
    next: AtomicUsize,
    #[cfg(test)]
    probe: Arc<Probe>,
}

impl ScoreJob {
    pub(crate) fn new(
        plan: Option<Arc<ResidentPlan>>,
        k: usize,
        points: Vec<Vec<f64>>,
        deadline: Option<Instant>,
        #[cfg(test)] probe: Arc<Probe>,
    ) -> ScoreJob {
        ScoreJob {
            plan,
            k,
            points,
            deadline,
            next: AtomicUsize::new(0),
            #[cfg(test)]
            probe,
        }
    }
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

/// What one claimant of a [`ScoreJob`] scored: the groups it claimed, in
/// claim order (so ascending), their verdicts back to back, and its
/// traffic and work.
pub(crate) struct Claimed {
    groups: Vec<usize>,
    verdicts: Vec<ScorePoint>,
    traffic: Vec<u64>,
    work: Vec<u64>,
}

/// Scores `job`'s batch against its plan.
///
/// Partitions are independent (Lemma 3.1), and so are queries. The batch
/// is cut into groups of [`SCORE_GROUP`] queries (the last may be
/// short). For a batch of at least [`FAN_OUT_MIN_QUERIES`] points over a
/// non-empty dataset the job is posted to the engine's parked `helpers`,
/// and the calling thread and every helper that takes a post claim groups
/// from the job's one counter ([`claim_groups`]) until none is left.
/// The caller starts on the first group at once, and a helper that wakes
/// late takes fewer groups rather than holding the request for a fixed
/// share of it; the caller then takes back every post no helper started
/// and waits only for those one did. Verdicts are put back in request
/// order by group index, and traffic and work are integer sums per
/// partition, so nothing in the result depends on the worker count or on
/// which thread claimed which group.
pub(crate) fn score(job: ScoreJob, helpers: &Helpers) -> Result<Scored, EngineError> {
    let n = job.points.len();
    let n_parts = job.plan.as_ref().map_or(0, |p| p.mt.num_partitions());
    let posts = if job.plan.is_some() && n >= FAN_OUT_MIN_QUERIES {
        n.div_ceil(SCORE_GROUP) - 1
    } else {
        0
    };
    let job = Arc::new(job);
    // Should the caller's own share panic, dropping `posted` takes back
    // the untaken posts and waits out the taken ones before the unwind
    // leaves this frame.
    let posted = helpers.post(&job, posts);
    let mine = claim_groups(&job);
    let theirs = posted.settle();
    let mut total = Scored {
        verdicts: vec![
            ScorePoint {
                neighbors: 0,
                outlier: true,
            };
            n
        ],
        traffic: vec![0; n_parts],
        work: vec![0; n_parts],
    };
    let theirs: Vec<_> = theirs
        .into_iter()
        .map(|reply| reply.unwrap_or_else(|panic| resume_unwind(panic)))
        .collect();
    for part in std::iter::once(mine).chain(theirs) {
        let part = part?;
        let mut verdicts = part.verdicts.as_slice();
        for g in part.groups {
            let span = g * SCORE_GROUP..((g + 1) * SCORE_GROUP).min(n);
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

/// One claimant's share of `job`: claims group after group from its
/// counter and scores each against its plan, until no group is left or
/// the deadline has passed.
///
/// It takes no lock: the job owns its queries and its `Arc` of the
/// epoch, and no writer changes an epoch while a score's read guard
/// is held, which the caller's is until every claimant is done.
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
pub(crate) fn claim_groups(job: &ScoreJob) -> Result<Claimed, EngineError> {
    let (plan, k, points) = (job.plan.as_deref(), job.k, &job.points);
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
        // The counter hands out group numbers and publishes nothing
        // else: the job was built before it was posted, and each
        // claimant's results reach the caller through its reply.
        let g = job.next.fetch_add(1, Ordering::Relaxed);
        let start = g * SCORE_GROUP;
        if start >= points.len() {
            return Ok(claimed);
        }
        #[cfg(test)]
        job.probe.claimed();
        let group = &points[start..(start + SCORE_GROUP).min(points.len())];
        if job.deadline.is_some_and(|d| Instant::now() > d) {
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

/// The thread a claimant runs on.
#[cfg(test)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Claimant {
    Caller,
    Helper,
}

/// What a test sees of the claimants of an engine's scores: which
/// threads claimed a group, and a one-shot panic in the next group a
/// claimant of one kind claims.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Probe {
    pub(crate) claimants: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    /// Disarmed when it fires.
    pub(crate) panic_in: std::sync::Mutex<Option<Claimant>>,
}

#[cfg(test)]
impl Probe {
    fn claimed(&self) {
        let thread = std::thread::current();
        self.claimants.lock().unwrap().insert(thread.id());
        let claimant = match thread.name() {
            Some(crate::helpers::HELPER_THREAD) => Claimant::Helper,
            _ => Claimant::Caller,
        };
        let mut armed = self.panic_in.lock().unwrap();
        if *armed == Some(claimant) {
            *armed = None;
            drop(armed);
            panic!("injected claimant panic");
        }
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
