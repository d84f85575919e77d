//! The resident engine: build once, serve many — and mutate in place.

use std::collections::VecDeque;
use std::io::Write;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use dod::{DodConfig, DodRunner};
use dod_core::{PointId, PointSet, Rect};
use dod_detect::{Partition, PartitionState};
use dod_obs::sync::{lock_recover, read_recover, write_recover};
use dod_obs::{names, FanoutRecorder, FlightRecorder, Obs, Recorder, Value};
use dod_partition::{MultiTacticPlan, Router};

use crate::audit::{CostAudit, CostAuditState};
use crate::error::EngineError;

/// Default staleness threshold: once incremental mutations since the
/// last epoch exceed this fraction of the epoch's resident size, a
/// mutation op falls back to an epoch-swap refresh (replanning over the
/// churned dataset) instead of splicing further.
pub const DEFAULT_STALENESS_THRESHOLD: f64 = 0.5;

/// How many of a request's heaviest partitions get individual
/// `engine.partition.work` counters; remaining work is rolled up per
/// algorithm. Bounds per-request telemetry cost independently of how
/// many partitions the plan holds.
pub const PARTITION_WORK_TOP_K: usize = 16;

/// Queries scored per partition pass of a [`Request::Score`]: each
/// partition is visited once per group of this many queries.
pub const SCORE_GROUP: usize = 8;

/// The smallest [`Request::Score`] batch that is split over the engine's
/// [`EngineBuilder::workers`] threads; a smaller batch is scored on the
/// calling thread alone. Set at the measured crossover of one and two
/// threads, where the helper's wake-up onto an idle core stops costing
/// more than its half of the batch saves (DESIGN.md §6b *Steadiness*).
pub const FAN_OUT_MIN_QUERIES: usize = 256;

/// A point-in-time health snapshot of a running engine
/// ([`Engine::health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHealth {
    /// Requests currently executing, on whichever threads called
    /// [`Engine::execute`].
    pub in_flight: usize,
    /// Threads one request or one epoch rebuild may use
    /// ([`EngineBuilder::workers`]).
    pub workers: usize,
    /// Total requests that panicked (each contained to its own request;
    /// the calling thread survived).
    pub panics: u64,
    /// Current plan epoch.
    pub epoch: u64,
    /// Partitions in the resident plan (0 for an empty dataset).
    pub partitions: usize,
    /// Total requests run since the engine was built (each minted
    /// a [`RequestId`]).
    pub requests: u64,
    /// Resident (alive) points in the dataset.
    pub points: usize,
    /// Streaming mutations (inserts, removes, window expiries) applied
    /// since the last epoch swap.
    pub churn: u64,
    /// Dead-letter entries across this engine's durable jobs (0 when the
    /// config carries no checkpoint spec).
    pub dlq_depth: u64,
    /// Milliseconds since the newest checkpoint write across this
    /// engine's durable jobs; `None` without a checkpoint spec or before
    /// the first durable write.
    pub checkpoint_age_ms: Option<u64>,
}

/// The id minted for one engine request, propagated as the `request`
/// label on every event that request emits — the key `dod obs` groups
/// span trees by. Ids start at 1 and are unique per engine instance.
pub type RequestId = u64;

/// The verdict for one scored query point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScorePoint {
    /// Number of resident points within distance `r` of the query,
    /// counted only until it reaches `k` (the exact total is irrelevant
    /// to the outlier decision, so counting stops early).
    pub neighbors: usize,
    /// `true` iff `neighbors < k`: the query point would be a
    /// distance-threshold outlier with respect to the resident dataset.
    pub outlier: bool,
}

/// A sliding-window bound on the resident dataset. Both limits may be
/// active at once; a config with neither is unbounded (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowConfig {
    /// Keep at most this many resident points, expiring the oldest.
    pub max_points: Option<usize>,
    /// Expire points older than this (measured from their insertion).
    pub max_age: Option<Duration>,
}

impl WindowConfig {
    /// Whether the window imposes no bound at all.
    pub fn is_unbounded(&self) -> bool {
        self.max_points.is_none() && self.max_age.is_none()
    }
}

/// One engine operation, run by [`Engine::execute`].
#[derive(Debug, Clone)]
pub enum Request {
    /// Score external query points against the resident dataset.
    Score {
        /// The query points.
        points: Vec<Vec<f64>>,
    },
    /// Detect all outliers of the resident dataset.
    Detect,
    /// Insert new points into the resident dataset, splicing them into
    /// the per-partition state (or epoch-swapping when the plan cannot
    /// absorb them exactly).
    Insert {
        /// The points to insert.
        points: Vec<Vec<f64>>,
    },
    /// Remove resident points by id.
    Remove {
        /// Ids of the points to remove (as minted by insert, or the
        /// build-time dataset positions).
        ids: Vec<PointId>,
    },
    /// Reconfigure the sliding window (`Some`) or just run an expiry
    /// sweep under the current one (`None`). Setting an unbounded
    /// [`WindowConfig`] clears the window.
    Window {
        /// The new window bound, or `None` to tick the existing one.
        config: Option<WindowConfig>,
    },
}

/// The result of one [`Request`], matched to its kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Score`].
    Score(Vec<ScorePoint>),
    /// Answer to [`Request::Detect`]: ascending outlier ids.
    Outliers(Vec<PointId>),
    /// Answer to [`Request::Insert`].
    Insert(InsertReceipt),
    /// Answer to [`Request::Remove`].
    Remove(RemoveReceipt),
    /// Answer to [`Request::Window`].
    Window(WindowStatus),
}

impl Response {
    /// The score vector, if this is a [`Response::Score`].
    pub fn into_score(self) -> Option<Vec<ScorePoint>> {
        match self {
            Response::Score(s) => Some(s),
            _ => None,
        }
    }

    /// The outlier ids, if this is a [`Response::Outliers`].
    pub fn into_outliers(self) -> Option<Vec<PointId>> {
        match self {
            Response::Outliers(o) => Some(o),
            _ => None,
        }
    }

    /// The insert receipt, if this is a [`Response::Insert`].
    pub fn into_insert(self) -> Option<InsertReceipt> {
        match self {
            Response::Insert(r) => Some(r),
            _ => None,
        }
    }

    /// The remove receipt, if this is a [`Response::Remove`].
    pub fn into_remove(self) -> Option<RemoveReceipt> {
        match self {
            Response::Remove(r) => Some(r),
            _ => None,
        }
    }

    /// The window status, if this is a [`Response::Window`].
    pub fn into_window(self) -> Option<WindowStatus> {
        match self {
            Response::Window(w) => Some(w),
            _ => None,
        }
    }
}

/// Outcome of a [`Request::Insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertReceipt {
    /// Stable id minted for each inserted point, in input order. Valid
    /// across refreshes (an epoch swap preserves ids).
    pub ids: Vec<PointId>,
    /// Points the sliding window expired as a consequence of this
    /// insert (possibly including just-inserted points).
    pub expired: usize,
    /// Whether the op fell back to an epoch-swap refresh (out-of-domain
    /// point, no resident plan, or staleness threshold crossed).
    pub refreshed: bool,
    /// Resident (alive) points after the op.
    pub resident: usize,
}

/// Outcome of a [`Request::Remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoveReceipt {
    /// Points actually removed.
    pub removed: usize,
    /// Ids that were unknown or already removed.
    pub missing: usize,
    /// Whether the op fell back to an epoch-swap refresh.
    pub refreshed: bool,
    /// Resident (alive) points after the op.
    pub resident: usize,
}

/// Outcome of a [`Request::Window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStatus {
    /// The window in effect after the op.
    pub window: WindowConfig,
    /// Points the expiry sweep evicted.
    pub expired: usize,
    /// Whether the op fell back to an epoch-swap refresh.
    pub refreshed: bool,
    /// Resident (alive) points after the op.
    pub resident: usize,
}

/// The materialized serving state of one plan epoch.
struct ResidentPlan {
    mt: MultiTacticPlan,
    /// The routing structure of this epoch's plan, kept so streaming
    /// inserts/removes can locate the partitions a point belongs to.
    router: Arc<Router>,
    /// Per-partition detector state.
    states: Vec<PartitionState>,
}

/// Everything the engine's one lock guards: the dataset and the plan
/// epoch materialized over it.
struct State {
    dataset: DatasetState,
    epoch: u64,
    /// `None` for an empty dataset (nothing to plan over).
    plan: Option<ResidentPlan>,
}

/// What [`Engine::health`] reads without taking the state lock. The
/// write side stores these before it releases the lock, so a health probe
/// never waits behind a mutation or an epoch rebuild, and never sees a
/// half-applied one. Each is a statistic that publishes no other data, so
/// `Relaxed` suffices: a reader sees each one's stores in order.
#[derive(Default)]
struct Gauges {
    epoch: AtomicU64,
    partitions: AtomicUsize,
    points: AtomicUsize,
    churn: AtomicU64,
}

impl Gauges {
    fn publish(&self, st: &State) {
        let partitions = st.plan.as_ref().map_or(0, |p| p.mt.num_partitions());
        self.epoch.store(st.epoch, Ordering::Relaxed);
        self.partitions.store(partitions, Ordering::Relaxed);
        self.points.store(st.dataset.alive_len, Ordering::Relaxed);
        self.churn.store(st.dataset.churn, Ordering::Relaxed);
    }
}

/// The engine's authoritative dataset: append-only slots with a
/// liveness mask, so streaming inserts and removes are O(1) and stable
/// [`PointId`]s survive epoch swaps. Dead slots are compacted away at
/// each refresh.
struct DatasetState {
    /// Every point ever inserted this compaction era, dead or alive.
    points: PointSet,
    /// Stable id per slot, aligned with `points`. Strictly increasing —
    /// ids are minted in order, appended in order, and compaction keeps
    /// order — so id → slot is a binary search and needs no map.
    ids: Vec<PointId>,
    /// Liveness per slot.
    alive: Vec<bool>,
    /// Number of live slots.
    alive_len: usize,
    /// Next id to mint; never reused.
    next_id: PointId,
    /// The sliding-window bound currently in force.
    window: WindowConfig,
    /// Arrival times, run-length: one `(first id, instant)` per build or
    /// insert request, oldest first, each run spanning the ids up to the
    /// next run's first. Ids are minted in arrival order, so this is the
    /// expiry order; a run is popped once expiry has passed all of it.
    arrivals: VecDeque<(PointId, Instant)>,
    /// Slot of the oldest point expiry has not passed: every slot before
    /// it is dead, so compaction resets it to 0.
    oldest: usize,
    /// Live points at the last materialization — the staleness baseline.
    epoch_points: usize,
    /// Mutations (inserts + removes + expiries) since the last
    /// materialization.
    churn: u64,
}

impl DatasetState {
    fn new(points: PointSet, window: WindowConfig, now: Instant) -> Self {
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
    /// ids in order. Caller validates the dimensions first.
    fn insert(&mut self, points: &[Vec<f64>], now: Instant) -> Vec<PointId> {
        self.arrivals.push_back((self.next_id, now));
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
    fn remove(&mut self, id: PointId) -> Option<Vec<f64>> {
        let slot = self.ids.binary_search(&id).ok()?;
        if !self.alive[slot] {
            return None;
        }
        self.alive[slot] = false;
        self.alive_len -= 1;
        self.churn += 1;
        Some(self.points.point(slot).to_vec())
    }

    /// Expires points the window no longer covers, oldest first,
    /// returning them with their coordinates.
    fn expire(&mut self, now: Instant) -> Vec<(PointId, Vec<f64>)> {
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
    fn compact(&mut self) {
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
    fn staleness(&self) -> f64 {
        self.churn as f64 / self.epoch_points.max(1) as f64
    }
}

/// One copy of a mutation request's point under the resident plan.
struct PointCopy {
    /// The partition holding the copy.
    pid: u32,
    /// Whether it is the point's core copy (else a support copy).
    core: bool,
    /// Index of the point in the request.
    item: usize,
}

/// What [`Shared::materialize`] hands back.
#[derive(Default)]
struct Materialized {
    /// `None` for an empty dataset.
    plan: Option<ResidentPlan>,
    /// Per-partition core counts, the seed of the observed distribution.
    counts: Vec<f64>,
    /// Wall time of sample + plan, of the routing pass, and of gathering
    /// the tiles and building the states.
    preprocess: Duration,
    route: Duration,
    build: Duration,
}

/// Calls `f(0)`, …, `f(threads - 1)` concurrently — `f(0)` on the calling
/// thread, so one thread means no spawn — and returns the results in
/// argument order. A call whose thread cannot be spawned runs on the
/// caller after `f(0)`. A panic in any call resumes on the caller.
fn fan_out<T: Send>(threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
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

/// What [`score_slice`] hands back for one slice of a score batch.
struct ScoredSlice {
    /// One verdict per query of the slice, in order.
    verdicts: Vec<ScorePoint>,
    /// Per partition: the slice's queries located in it.
    traffic: Vec<u64>,
    /// Per partition: the kernel work the slice did in it.
    work: Vec<u64>,
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

/// Scores one contiguous slice of a score batch against `plan` (`None`
/// for an empty resident dataset), [`SCORE_GROUP`] queries at a time.
///
/// It takes no lock: [`Shared::score`] holds the state lock's read side
/// for the whole request and lends `plan` to the helper threads.
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
        if let Some(d) = deadline {
            if Instant::now() > d {
                return Err(EngineError::DeadlineExceeded);
            }
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

/// The engine behind [`Engine`]'s request surface.
///
/// One reader–writer lock, `state`, is the whole exclusion rule: scores
/// and detects hold its read side for their whole execution, and inserts,
/// removes, window ticks and refreshes hold its write side — so a reader
/// never observes a half-applied mutation (a point core-resident in one
/// partition but missing from a neighbor's support set). Partitions are
/// independent (Lemma 3.1), so nothing finer is needed: a reader reaches
/// the states through the guard, and a mutation through `&mut`.
struct Shared {
    runner: DodRunner,
    dim: usize,
    /// The dataset and the plan epoch built over it.
    state: RwLock<State>,
    /// The state lock's gauges, published by its write side.
    gauges: Gauges,
    /// Observed per-partition mass: core counts at materialization time
    /// plus one unit per scored query point located in the partition,
    /// plus one unit per streaming mutation touching it. Reset on every
    /// refresh.
    observed: Mutex<Vec<f64>>,
    /// Staleness ratio above which a mutation op epoch-swaps.
    staleness_threshold: f64,
    /// Threads one large score or one epoch rebuild may use
    /// ([`EngineBuilder::workers`]); every other request waits at the
    /// state lock while a rebuild runs.
    workers: usize,
    /// The engine's emitting handle: the user's recorder (if any) fanned
    /// out with the always-on flight recorder.
    obs: Obs,
    /// Requests currently executing.
    in_flight: AtomicUsize,
    /// Requests that panicked (contained to the request).
    panics: AtomicU64,
    /// Monotonic [`RequestId`] mint; also the total-requests counter.
    requests: AtomicU64,
    /// Predicted-vs-actual cost accumulators, folded from every
    /// request's per-partition work against the resident plan's report.
    cost_audit: Mutex<CostAuditState>,
    /// Ring of recent events, dumped on panic/typed error/deadline
    /// overrun. `None` only when built with `flight_capacity(0)`.
    flight: Option<Arc<FlightRecorder>>,
    /// Where flight dumps go (`None` = stderr at dump time).
    flight_dump: Mutex<Option<Box<dyn Write + Send>>>,
}

impl Shared {
    /// Preprocesses and materializes per-partition detector state for
    /// the whole dataset: one routing pass (Definition 3.3) assigns each
    /// point as core to exactly one partition and as support to every
    /// partition whose rectangle it is within `r` of, then each
    /// partition gets the plan's chosen algorithm's index built once.
    ///
    /// The routing pass runs on `threads` threads and the result does not
    /// depend on `threads`: contiguous slot ranges are routed
    /// independently, and a partition's tile is its ranges' slot lists
    /// laid end to end in range order — the order one pass over the
    /// dataset produces. Gathering the tiles and building the states
    /// stays on the calling thread although partitions are independent
    /// (Lemma 3.1): what a short-lived thread allocates lives in that
    /// thread's malloc arena, and an epoch's worth of state scattered over
    /// arenas whose threads are gone cost more resident memory (+10 MB at
    /// the first swap of 250k points, +30 MB after fourteen) than the
    /// second thread saved time (~25 ms a swap).
    fn materialize(
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
        let per_thread = n.div_ceil(threads);
        let router = &pre.router;
        // `[pid]` lists the range's core slots of partition `pid`,
        // `[n_parts + pid]` its support slots, ascending.
        let routed: Vec<Vec<Vec<u32>>> = fan_out(threads, |t| {
            let mut lists = vec![Vec::new(); 2 * n_parts];
            let mut support = Vec::new();
            for slot in (t * per_thread).min(n)..((t + 1) * per_thread).min(n) {
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
                Partition::new(core, core_ids, support).expect("one id per routed point");
            let state = PartitionState::build(pre.mt.algorithms[pid], Arc::new(partition), params)
                .with_support_ids(support_ids)
                .expect("one id per routed point");
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

    /// Dumps the flight-recorder ring (when one is armed) as JSONL to
    /// the configured sink, stderr by default. Called on every request
    /// failure: panic, deadline overrun, or typed error.
    fn dump_flight(&self, reason: &str, request: RequestId, op: &'static str) {
        let Some(flight) = &self.flight else {
            return;
        };
        let labels = [("request", Value::from(request)), ("op", Value::from(op))];
        let mut sink = lock_recover(&self.flight_dump);
        match sink.as_mut() {
            Some(out) => {
                let _ = flight.dump_jsonl(&mut **out, reason, &labels);
            }
            None => {
                let mut err = std::io::stderr().lock();
                let _ = flight.dump_jsonl(&mut err, reason, &labels);
            }
        }
    }

    /// Emits `engine.partition.work` counters for the kernel work a
    /// request did, heaviest partitions first.
    ///
    /// Plans can hold hundreds of partitions, so per-request emission is
    /// bounded by design: the [`PARTITION_WORK_TOP_K`] heaviest
    /// partitions get individual counters (with a `partition` label),
    /// and the remaining work folds into one rollup counter per
    /// algorithm (a `partitions` label carries how many were folded).
    /// Metrics aggregation loses nothing — numeric labels never key a
    /// series — and traces keep the partitions worth looking at.
    fn record_partition_work(
        &self,
        rid: RequestId,
        op: &'static str,
        plan: Option<&ResidentPlan>,
        work: &[u64],
    ) {
        let Some(plan) = plan else { return };
        // Fold the measured work into the cost audit first — the audit
        // accumulates (and is queryable via `Engine::cost_audit`) even
        // when no recorder is attached.
        let audit = lock_recover(&self.cost_audit).fold_request(&plan.mt.report, work);
        if !self.obs.enabled() {
            return;
        }
        for (alg, ratio) in &audit.ratios {
            self.obs.observe(
                names::ENGINE_COST_CALIBRATION,
                *ratio,
                &[("algorithm", Value::from(alg.name()))],
            );
        }
        for (alg, better, count) in &audit.mispredicts {
            self.obs.counter(
                names::ENGINE_COST_MISPREDICTS,
                *count,
                &[
                    ("algorithm", Value::from(alg.name())),
                    ("better", Value::from(better.name())),
                ],
            );
        }
        // Gross mispredicts are rare by construction; still cap the
        // marks so a pathological request stays bounded.
        for g in audit.gross.iter().take(4) {
            self.obs.mark(
                names::ENGINE_COST_GROSS_MISPREDICT,
                &[
                    ("request", Value::from(rid)),
                    ("op", Value::from(op)),
                    ("partition", Value::from(g.partition)),
                    ("algorithm", Value::from(g.algorithm.name())),
                    ("better", Value::from(g.better.name())),
                    ("ratio", Value::from(g.ratio)),
                ],
            );
        }
        let algorithm_of = |pid: usize| -> &'static str {
            plan.mt.algorithms.get(pid).map_or("unknown", |a| a.name())
        };
        let mut active: Vec<(usize, u64)> = work
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(pid, &w)| (pid, w))
            .collect();
        if active.len() > PARTITION_WORK_TOP_K {
            active.select_nth_unstable_by_key(PARTITION_WORK_TOP_K - 1, |&(_, w)| {
                std::cmp::Reverse(w)
            });
        }
        let detailed = active.len().min(PARTITION_WORK_TOP_K);
        active[..detailed].sort_unstable_by_key(|&(_, w)| std::cmp::Reverse(w));
        for &(pid, w) in &active[..detailed] {
            self.obs.counter(
                names::ENGINE_PARTITION_WORK,
                w,
                &[
                    ("op", Value::from(op)),
                    ("request", Value::from(rid)),
                    ("partition", Value::from(pid)),
                    ("algorithm", Value::from(algorithm_of(pid))),
                ],
            );
        }
        if detailed < active.len() {
            // Fold the tail per algorithm; the algorithm set is tiny.
            let mut rollup: Vec<(&'static str, u64, u64)> = Vec::new();
            for &(pid, w) in &active[detailed..] {
                let name = algorithm_of(pid);
                match rollup.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, total, count)) => {
                        *total += w;
                        *count += 1;
                    }
                    None => rollup.push((name, w, 1)),
                }
            }
            for (name, total, count) in rollup {
                self.obs.counter(
                    names::ENGINE_PARTITION_WORK,
                    total,
                    &[
                        ("op", Value::from(op)),
                        ("request", Value::from(rid)),
                        ("partitions", Value::from(count)),
                        ("algorithm", Value::from(name)),
                    ],
                );
            }
        }
    }

    /// Refuses a batch holding a point of the wrong dimension or with a
    /// NaN or infinite coordinate. No distance to such a point is
    /// meaningful, and one resident makes every later re-plan fail.
    fn check_points(&self, points: &[Vec<f64>]) -> Result<(), EngineError> {
        for (index, p) in points.iter().enumerate() {
            if p.len() != self.dim {
                return Err(EngineError::Dimension {
                    index,
                    expected: self.dim,
                    got: p.len(),
                });
            }
            if !p.iter().all(|c| c.is_finite()) {
                return Err(EngineError::NonFinite { index });
            }
        }
        Ok(())
    }

    /// Refuses an insert batch that would widen the resident points'
    /// bounding box past what `f64` can span: the refresh it triggers
    /// could not plan over it. Every resident point lies in the plan's
    /// domain (a point outside it triggers a refresh that re-plans over
    /// all of them), so only a batch that leaves the domain is scanned.
    fn check_extent(&self, st: &State, points: &[Vec<f64>]) -> Result<(), EngineError> {
        let domain = st.plan.as_ref().map(|plan| plan.mt.plan.domain());
        if points
            .iter()
            .all(|p| domain.is_some_and(|d| d.contains_closed(p)))
        {
            return Ok(());
        }
        let ds = &st.dataset;
        let alive = (0..ds.points.len())
            .filter(|&slot| ds.alive[slot])
            .map(|slot| ds.points.point(slot));
        Rect::bounding(alive.chain(points.iter().map(Vec::as_slice)), self.dim)
            .map(drop)
            .map_err(|_| EngineError::Extent)
    }

    /// Answers one request of any kind.
    fn answer(
        &self,
        req: Request,
        deadline: Option<Instant>,
        rid: RequestId,
    ) -> Result<Response, EngineError> {
        match req {
            Request::Score { points } => self.score(&points, deadline, rid).map(Response::Score),
            Request::Detect => self.detect_all(deadline, rid).map(Response::Outliers),
            Request::Insert { points } => self.insert(&points, deadline, rid).map(Response::Insert),
            Request::Remove { ids } => self.remove(&ids, deadline, rid).map(Response::Remove),
            Request::Window { config } => self.window(config, deadline, rid).map(Response::Window),
        }
    }

    /// Scores a batch against the resident state (the `score` op).
    ///
    /// Each query's partitions come from the plan's [`Router`]: exactly
    /// the partitions whose rectangle is within `r` of it, ascending, for
    /// queries inside the plan's domain or not (the router's documentation
    /// carries the argument). Core sets partition the dataset (Lemma 3.1
    /// replicates only support copies), so no other partition can hold a
    /// core neighbor.
    ///
    /// Partitions are independent (Lemma 3.1), and so are queries: a
    /// batch of at least [`FAN_OUT_MIN_QUERIES`] points is cut into
    /// `workers` contiguous slices on [`SCORE_GROUP`] boundaries, each
    /// scored by [`score_slice`] on its own thread ([`fan_out`]; the first
    /// on the calling thread) against the plan this request's read guard
    /// holds. A smaller batch is one slice on the calling thread. Verdicts
    /// are concatenated in request order and traffic and work summed per
    /// partition before the one audit fold and the one `observed` update,
    /// so replies, work counters, the cost audit and drift do not depend
    /// on the worker count.
    fn score(
        &self,
        points: &[Vec<f64>],
        deadline: Option<Instant>,
        rid: RequestId,
    ) -> Result<Vec<ScorePoint>, EngineError> {
        self.check_points(points)?;
        let st = read_recover(&self.state);
        let plan = st.plan.as_ref();
        let k = self.runner.config().params.k;
        let threads = if points.len() >= FAN_OUT_MIN_QUERIES {
            self.workers
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
        self.record_partition_work(rid, "score", plan, &total.work);
        if total.traffic.iter().any(|&t| t > 0) {
            // A refresh resizes `observed` to its plan under the write
            // side, so under the read side the two line up.
            let mut observed = lock_recover(&self.observed);
            for (slot, &t) in observed.iter_mut().zip(&total.traffic) {
                *slot += t as f64;
            }
        }
        Ok(total.verdicts)
    }

    /// Runs full detection over every resident partition (the `detect`
    /// op). Returns the ascending ids of all outliers — exactly the
    /// one-shot pipeline's answer for the same configuration and data.
    fn detect_all(
        &self,
        deadline: Option<Instant>,
        rid: RequestId,
    ) -> Result<Vec<PointId>, EngineError> {
        let st = read_recover(&self.state);
        let Some(plan) = &st.plan else {
            return Ok(Vec::new());
        };
        let mut outliers = Vec::new();
        let mut work = vec![0u64; plan.states.len()];
        for (pid, state) in plan.states.iter().enumerate() {
            if let Some(d) = deadline {
                if Instant::now() > d {
                    return Err(EngineError::DeadlineExceeded);
                }
            }
            let detection = state.detect();
            detection
                .stats
                .record_to(&self.obs, pid, state.kind().name());
            work[pid] = detection.stats.total_work();
            outliers.extend(detection.outliers);
        }
        self.record_partition_work(rid, "detect", Some(plan), &work);
        // Core sets are disjoint, so this is a sort of unique ids.
        outliers.sort_unstable();
        Ok(outliers)
    }

    /// Runs one mutation under the write side of the state lock, after
    /// checking the deadline, and publishes the gauges before the lock is
    /// released — whether `f` succeeds or not.
    fn mutate<T>(
        &self,
        deadline: Option<Instant>,
        f: impl FnOnce(&mut State) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let mut st = write_recover(&self.state);
        if let Some(d) = deadline {
            if Instant::now() > d {
                return Err(EngineError::DeadlineExceeded);
            }
        }
        let result = f(&mut st);
        self.gauges.publish(&st);
        result
    }

    /// Inserts a batch into the resident dataset (the `insert` op).
    ///
    /// Points that the current plan can absorb exactly are spliced into
    /// their partitions' states in place; a batch containing any point
    /// the plan cannot absorb (outside the plan's domain or its core
    /// partition's rectangle — where routing may be clamped and support
    /// memberships of existing points could change) falls back to one
    /// epoch-swap refresh over the whole batch. Either way, subsequent
    /// answers are exactly a fresh rebuild's.
    fn insert(
        &self,
        points: &[Vec<f64>],
        deadline: Option<Instant>,
        rid: RequestId,
    ) -> Result<InsertReceipt, EngineError> {
        self.mutate(deadline, |st| {
            // Validate the whole batch before mutating anything.
            self.check_points(points)?;
            self.check_extent(st, points)?;
            let now = Instant::now();
            let ids = st.dataset.insert(points, now);
            let expired = st.dataset.expire(now);
            self.note_churn(rid, "insert", points.len(), expired.len());
            // Splicing p is exact iff p lies inside the plan's domain
            // (locate() clamps out-of-domain points, so routing would be
            // wrong) and inside its core partition's rectangle (then any
            // resident y within r of p already has p's partition in its
            // support set, so no existing membership changes).
            let exact = st.plan.as_ref().is_some_and(|plan| {
                let rects = &plan.mt.plan;
                points.iter().all(|p| {
                    rects.domain().contains_closed(p)
                        && rects.rect(rects.locate(p) as usize).contains_closed(p)
                })
            });
            let refreshed = match st.plan.as_mut() {
                Some(plan) if exact => {
                    let copies = self.route_copies(plan, points.iter().map(Vec::as_slice));
                    for bucket in copies.chunk_by(|a, b| a.pid == b.pid) {
                        let state = &mut plan.states[bucket[0].pid as usize];
                        for copy in bucket {
                            let (p, id) = (&points[copy.item], ids[copy.item]);
                            if copy.core {
                                state.insert_core(p, id)
                            } else {
                                state.insert_support(p, id)
                            }
                            .expect("dimension validated above, support copies carry ids");
                        }
                    }
                    self.apply_removals(plan, &expired);
                    self.staleness_fallback(st)?
                }
                _ => {
                    self.refresh_inner(st)?;
                    true
                }
            };
            Ok(InsertReceipt {
                ids,
                expired: expired.len(),
                refreshed,
                resident: st.dataset.alive_len,
            })
        })
    }

    /// Removes a batch by id (the `remove` op). Removal is always exact
    /// incrementally: a resident point's routing under the current plan
    /// is exactly where materialization (or its incremental insert)
    /// placed its core and support copies.
    fn remove(
        &self,
        ids: &[PointId],
        deadline: Option<Instant>,
        rid: RequestId,
    ) -> Result<RemoveReceipt, EngineError> {
        self.mutate(deadline, |st| {
            let mut removed = Vec::new();
            let mut missing = 0usize;
            for &id in ids {
                match st.dataset.remove(id) {
                    Some(coords) => removed.push((id, coords)),
                    None => missing += 1,
                }
            }
            self.note_churn(rid, "remove", removed.len(), 0);
            if let Some(plan) = &mut st.plan {
                self.apply_removals(plan, &removed);
            }
            let refreshed = self.staleness_fallback(st)?;
            Ok(RemoveReceipt {
                removed: removed.len(),
                missing,
                refreshed,
                resident: st.dataset.alive_len,
            })
        })
    }

    /// Reconfigures and/or ticks the sliding window (the `window` op).
    fn window(
        &self,
        config: Option<WindowConfig>,
        deadline: Option<Instant>,
        rid: RequestId,
    ) -> Result<WindowStatus, EngineError> {
        self.mutate(deadline, |st| {
            if let Some(cfg) = config {
                st.dataset.window = cfg;
            }
            let expired = st.dataset.expire(Instant::now());
            self.note_churn(rid, "window", expired.len(), expired.len());
            if let Some(plan) = &mut st.plan {
                self.apply_removals(plan, &expired);
            }
            let refreshed = self.staleness_fallback(st)?;
            Ok(WindowStatus {
                window: st.dataset.window,
                expired: expired.len(),
                refreshed,
                resident: st.dataset.alive_len,
            })
        })
    }

    /// Splices removals out of the resident states.
    fn apply_removals(&self, plan: &mut ResidentPlan, removed: &[(PointId, Vec<f64>)]) {
        if removed.is_empty() {
            return;
        }
        let copies = self.route_copies(plan, removed.iter().map(|(_, p)| p.as_slice()));
        for bucket in copies.chunk_by(|a, b| a.pid == b.pid) {
            let state = &mut plan.states[bucket[0].pid as usize];
            for copy in bucket {
                let id = removed[copy.item].0;
                if copy.core {
                    state.remove_core(id);
                } else {
                    state.remove_support(id);
                }
            }
        }
    }

    /// Routes every point of a mutation request once and lists the
    /// copies it has under `plan` — one core, any number of support —
    /// grouped by partition so the caller visits each touched state once
    /// per request instead of once per copy.
    ///
    /// Inside a group the copies keep request order (the sort is stable).
    /// A state's tile layout and index are a function of the order its
    /// own pushes and swap-removes arrive in and of nothing that happens
    /// in another partition, so applying the groups one after another
    /// leaves every state exactly as applying the request point by point
    /// does.
    ///
    /// Each point also adds one unit of mass to its core partition, so
    /// the drift detector sees mutation traffic alongside query traffic.
    fn route_copies<'p>(
        &self,
        plan: &ResidentPlan,
        points: impl Iterator<Item = &'p [f64]>,
    ) -> Vec<PointCopy> {
        let mut copies = Vec::new();
        let mut observed = lock_recover(&self.observed);
        let mut support = Vec::new();
        for (item, p) in points.enumerate() {
            let pid = plan.router.route_into(p, &mut support);
            copies.push(PointCopy {
                pid,
                core: true,
                item,
            });
            copies.extend(support.iter().map(|&pid| PointCopy {
                pid,
                core: false,
                item,
            }));
            if let Some(slot) = observed.get_mut(pid as usize) {
                *slot += 1.0;
            }
        }
        copies.sort_by_key(|c| c.pid);
        copies
    }

    /// Emits the churn / window-expiry counters for one mutation op.
    fn note_churn(&self, rid: RequestId, op: &'static str, churned: usize, expired: usize) {
        let labels = [("op", Value::from(op)), ("request", Value::from(rid))];
        if churned > 0 {
            self.obs
                .counter(names::ENGINE_CHURN, churned as u64, &labels);
        }
        if expired > 0 {
            self.obs
                .counter(names::ENGINE_WINDOW_EXPIRED, expired as u64, &labels);
        }
    }

    /// Probes staleness (churn since the last epoch over the epoch's
    /// size) and epoch-swaps when it crossed the threshold — the point
    /// where accumulated splices have degraded partition balance enough
    /// that replanning beats further incremental maintenance. Returns
    /// whether a refresh ran.
    fn staleness_fallback(&self, st: &mut State) -> Result<bool, EngineError> {
        let staleness = st.dataset.staleness();
        let refresh = staleness > self.staleness_threshold;
        self.obs.mark(
            names::ENGINE_STALENESS,
            &[
                ("staleness", Value::from(staleness)),
                ("threshold", Value::from(self.staleness_threshold)),
                ("refreshed", Value::from(u64::from(refresh))),
            ],
        );
        if refresh {
            self.refresh_inner(st)?;
        }
        Ok(refresh)
    }

    /// Rebuilds the plan over the compacted live dataset with a
    /// reseeded configuration and installs it as the next epoch. The
    /// caller holds the state lock's write side, so no request sees the
    /// swap half done; the rebuild reads the dataset in place.
    fn refresh_inner(&self, st: &mut State) -> Result<u64, EngineError> {
        let t0 = Instant::now();
        let epoch = st.epoch + 1;
        let base = self.runner.config();
        let cfg = base
            .to_builder()
            .seed(base.seed.wrapping_add(epoch))
            .build()
            .map_err(dod::Error::from)?;
        st.dataset.compact();
        // The outgoing epoch serves nothing until the swap; should the
        // rebuild fail, its next removal builds the maps again.
        if let Some(plan) = &mut st.plan {
            for state in &mut plan.states {
                state.release_id_slots();
            }
        }
        let compact = t0.elapsed();
        let built = Shared::materialize(
            &self.runner.with_config(cfg),
            &st.dataset.points,
            &st.dataset.ids,
            self.workers,
        )?;
        let t_swap = Instant::now();
        // Frees the old epoch.
        st.plan = built.plan;
        st.epoch = epoch;
        *lock_recover(&self.observed) = built.counts;
        for (stage, took) in [
            ("compact", compact),
            ("preprocess", built.preprocess),
            ("route", built.route),
            ("build", built.build),
            ("swap", t_swap.elapsed()),
        ] {
            self.obs.record_duration(
                names::ENGINE_REFRESH_STAGE,
                took,
                &[("epoch", Value::from(epoch)), ("stage", Value::from(stage))],
            );
        }
        self.obs.record_duration(
            names::ENGINE_REFRESH,
            t0.elapsed(),
            &[("epoch", Value::from(epoch))],
        );
        Ok(epoch)
    }
}

/// Builder for [`Engine`]. Construct with [`Engine::builder`].
pub struct EngineBuilder {
    runner: DodRunner,
    workers: usize,
    default_deadline: Option<Duration>,
    staleness_threshold: f64,
    window: WindowConfig,
    flight_capacity: usize,
    flight_dump: Option<Box<dyn Write + Send>>,
}

impl EngineBuilder {
    /// Threads one request or one epoch rebuild may use (default 2,
    /// min 1): the routing pass of the initial build and of every epoch
    /// swap runs on this many, and a score of at least
    /// [`FAN_OUT_MIN_QUERIES`] points is split into this many slices. The
    /// calling thread is one of them; the rest are spawned for the call
    /// and joined before it returns. Mutations and detects run on the
    /// thread that calls [`Engine::execute`] alone. No answer, work
    /// counter, cost audit or drift reading depends on this count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Deadline applied to every request (default: none), measured from
    /// the call to [`Engine::execute`]. A request's scan loops check it
    /// between steps; one past it fails with
    /// [`EngineError::DeadlineExceeded`].
    pub fn default_deadline(mut self, d: Duration) -> Self {
        self.default_deadline = Some(d);
        self
    }

    /// Staleness threshold (default [`DEFAULT_STALENESS_THRESHOLD`]):
    /// once streaming mutations since the last epoch exceed this
    /// fraction of the epoch's resident size, a mutation op falls back
    /// to an epoch-swap refresh instead of splicing further.
    pub fn staleness_threshold(mut self, t: f64) -> Self {
        self.staleness_threshold = t;
        self
    }

    /// Initial sliding-window bound on the resident dataset (default:
    /// unbounded). The window is enforced at every mutation op
    /// (`insert`, `remove`, `window`); reconfigure it at runtime with
    /// [`Request::Window`].
    pub fn window(mut self, w: WindowConfig) -> Self {
        self.window = w;
        self
    }

    /// Capacity of the always-on flight recorder: the ring of recent
    /// events dumped when a request panics, misses its deadline, or
    /// fails with a typed error (default
    /// [`dod_obs::DEFAULT_FLIGHT_CAPACITY`]). `0` disables it.
    pub fn flight_capacity(mut self, n: usize) -> Self {
        self.flight_capacity = n;
        self
    }

    /// Where flight-recorder dumps are written (default: stderr). Tests
    /// and embedders can capture dumps by supplying their own sink.
    pub fn flight_dump(mut self, sink: Box<dyn Write + Send>) -> Self {
        self.flight_dump = Some(sink);
        self
    }

    /// Runs preprocessing once over `data` and materializes
    /// per-partition detector state.
    ///
    /// The engine takes `data` as its dataset, the slots every later
    /// insert appends to and every epoch is built from. Pass the
    /// [`PointSet`] by value to hand it over without a copy, as `dod
    /// serve` does with the set it reads; a `&PointSet` is cloned once,
    /// for callers that keep their own.
    ///
    /// # Errors
    /// Returns [`EngineError::Pipeline`] if preprocessing fails (e.g.
    /// dimensionally inconsistent input).
    pub fn build(self, data: impl Into<PointSet>) -> Result<Engine, EngineError> {
        let user_obs = self.runner.config().obs.clone();
        // The flight recorder rides alongside whatever recorder the
        // configuration supplied: every engine event reaches both.
        let flight =
            (self.flight_capacity > 0).then(|| Arc::new(FlightRecorder::new(self.flight_capacity)));
        let obs = match &flight {
            Some(flight) => {
                let mut sinks: Vec<Box<dyn Recorder>> = vec![Box::new(Arc::clone(flight))];
                if let Some(user) = user_obs.recorder() {
                    sinks.push(Box::new(user));
                }
                Obs::new(Arc::new(FanoutRecorder::new(sinks)))
            }
            None => user_obs,
        };
        // The caller's points become the dataset; the first epoch is built
        // from it, as every later one is.
        let dataset = DatasetState::new(data.into(), self.window, Instant::now());
        let dim = dataset.points.dim();
        let Materialized { plan, counts, .. } =
            Shared::materialize(&self.runner, &dataset.points, &dataset.ids, self.workers)?;
        let state = State {
            dataset,
            epoch: 0,
            plan,
        };
        let gauges = Gauges::default();
        gauges.publish(&state);
        let shared = Shared {
            runner: self.runner,
            dim,
            state: RwLock::new(state),
            gauges,
            observed: Mutex::new(counts),
            staleness_threshold: self.staleness_threshold,
            workers: self.workers,
            obs,
            in_flight: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            cost_audit: Mutex::new(CostAuditState::default()),
            flight,
            flight_dump: Mutex::new(self.flight_dump),
        };
        Ok(Engine {
            shared,
            default_deadline: self.default_deadline,
        })
    }
}

/// A resident detection engine.
///
/// Preprocessing (sampling, partition planning, per-partition algorithm
/// selection) and detector-state materialization run **once**, at
/// [`EngineBuilder::build`]; every subsequent request is served from the
/// resident [`PartitionState`]s. All requests go through one entry
/// point, [`Engine::execute`], which runs the request on the caller's
/// thread:
///
/// * [`Request::Score`] — classify external query points against the
///   resident dataset;
/// * [`Request::Detect`] — the full outlier set of the resident
///   dataset, identical to the one-shot pipeline's answer;
/// * [`Request::Insert`] / [`Request::Remove`] — streaming mutation of
///   the resident dataset, spliced into the per-partition state in
///   place (falling back to an epoch-swap refresh when a batch cannot
///   be absorbed exactly, so answers always equal a fresh rebuild's);
/// * [`Request::Window`] — sliding-window maintenance, expiring old
///   points by count and/or age.
///
/// [`Engine::drift`] measures how far the observed per-partition
/// distribution has moved from the plan's predictions, and
/// [`Engine::refresh_plan`] rebuilds the plan on demand; mutation ops
/// trigger the same epoch swap once churn crosses the staleness
/// threshold.
///
/// The engine is `Send + Sync`: concurrency comes from the callers'
/// own threads, each calling [`Engine::execute`] on a shared reference,
/// and nothing inside the engine queues or rejects a request. The
/// dataset and the plan sit behind one reader–writer lock: scores and
/// detects share it, a mutation or a refresh holds it alone, so a reader
/// never observes a half-applied mutation.
pub struct Engine {
    shared: Shared,
    default_deadline: Option<Duration>,
}

impl Engine {
    /// Starts building an engine around a configured pipeline runner.
    pub fn builder(runner: DodRunner) -> EngineBuilder {
        EngineBuilder {
            runner,
            workers: 2,
            default_deadline: None,
            staleness_threshold: DEFAULT_STALENESS_THRESHOLD,
            window: WindowConfig::default(),
            flight_capacity: dod_obs::DEFAULT_FLIGHT_CAPACITY,
            flight_dump: None,
        }
    }

    /// The underlying pipeline configuration.
    pub fn config(&self) -> &DodConfig {
        self.shared.runner.config()
    }

    /// Current plan epoch (0 until the first refresh).
    pub fn epoch(&self) -> u64 {
        self.shared.gauges.epoch.load(Ordering::Relaxed)
    }

    /// Number of partitions in the resident plan (0 for an empty
    /// dataset).
    pub fn num_partitions(&self) -> usize {
        self.shared.gauges.partitions.load(Ordering::Relaxed)
    }

    /// A point-in-time health snapshot: in-flight requests, contained
    /// panics, current epoch, resident points, churn. Never blocks on
    /// request processing: the engine-state gauges are the ones the last
    /// mutation published, so a snapshot taken during a mutation or a
    /// rebuild reports the state before it.
    pub fn health(&self) -> EngineHealth {
        let gauges = &self.shared.gauges;
        // Durability gauges are read straight off the checkpoint store's
        // directory: cheap (a handful of stats on tiny files), and
        // always consistent with what `dod jobs` would report.
        let durability = self
            .config()
            .checkpoint
            .as_ref()
            .map(|spec| mapreduce::checkpoint::durability_stats(&spec.dir, &spec.job_id))
            .unwrap_or_default();
        EngineHealth {
            in_flight: self.shared.in_flight.load(Ordering::Acquire),
            workers: self.shared.workers,
            panics: self.shared.panics.load(Ordering::Acquire),
            epoch: gauges.epoch.load(Ordering::Relaxed),
            partitions: gauges.partitions.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Acquire),
            points: gauges.points.load(Ordering::Relaxed),
            churn: gauges.churn.load(Ordering::Relaxed),
            dlq_depth: durability.dlq_depth,
            checkpoint_age_ms: durability
                .last_checkpoint_age
                .map(|age| age.as_millis() as u64),
        }
    }

    /// The engine's always-on flight recorder, when armed (it is by
    /// default; disable with [`EngineBuilder::flight_capacity`]`(0)`).
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.flight.as_ref()
    }

    /// A snapshot of the live predicted-vs-actual cost audit: measured
    /// request work folded against the resident plan's predicted costs,
    /// per algorithm, plus mispredict counts (see [`CostAudit`]).
    /// Accumulates across epochs; empty until the first request that
    /// does kernel work.
    pub fn cost_audit(&self) -> CostAudit {
        lock_recover(&self.shared.cost_audit).snapshot()
    }

    /// The resident plan's introspection report — per-partition
    /// candidate costs, winners, and margins — or `None` for an empty
    /// dataset.
    pub fn plan_report(&self) -> Option<dod_partition::PlanReport> {
        let st = read_recover(&self.shared.state);
        st.plan.as_ref().map(|p| p.mt.report.clone())
    }

    /// Runs a request to completion on the calling thread and returns the
    /// request kind's [`Response`] arm.
    ///
    /// This is the engine's one entry point. Every request gets a request
    /// id, the engine's default deadline, panic containment, the
    /// in-flight gauge, the request span, and the flight dump on error.
    /// Any number of threads may call `execute` on one engine at once:
    /// scores and detects run side by side on the read side of the
    /// state lock, and a mutation waits for its write side. Nothing
    /// queues or rejects a request; the callers' threads bound the
    /// concurrency.
    pub fn execute(&self, req: Request) -> Result<Response, EngineError> {
        let (op, items) = match &req {
            Request::Score { points } => ("score", points.len()),
            Request::Detect => ("detect", self.shared.gauges.points.load(Ordering::Relaxed)),
            Request::Insert { points } => ("insert", points.len()),
            Request::Remove { ids } => ("remove", ids.len()),
            Request::Window { .. } => ("window", 0),
        };
        let shared = &self.shared;
        self.run_request(op, items, |d, rid| shared.answer(req, d, rid))
    }

    /// [`Engine::execute`], its answer handed back in a [`Pending`] that
    /// is already resolved: `submit(req)?.wait()` is `execute(req)`.
    pub fn submit(&self, req: Request) -> Result<Pending<Response>, EngineError> {
        Ok(Pending(self.execute(req)))
    }

    /// Runs a request whose body panics — the chaos hook used to exercise
    /// panic containment end-to-end. Hidden from docs; tests and the
    /// chaos suite are the only intended callers.
    #[doc(hidden)]
    pub fn inject_panic(&self) -> Result<(), EngineError> {
        self.run_request("inject_panic", 0, |_, _| panic!("injected engine panic"))
    }

    /// Total-variation distance in `[0, 1]` between the resident plan's
    /// predicted per-partition distribution and the observed one (core
    /// counts plus scored query traffic). 0.0 for an empty dataset.
    pub fn drift(&self) -> f64 {
        let st = read_recover(&self.shared.state);
        let Some(plan) = &st.plan else {
            return 0.0;
        };
        let observed = lock_recover(&self.shared.observed);
        if observed.iter().sum::<f64>() <= 0.0 {
            return 0.0;
        }
        plan.mt.drift_against(&observed)
    }

    /// Rebuilds the plan unconditionally: re-samples with a reseeded
    /// configuration (base seed + new epoch), re-plans, re-materializes
    /// every partition's detector state, and installs the new epoch.
    /// Requests wait for it at the state lock. Returns the new epoch.
    ///
    /// # Errors
    /// Returns [`EngineError::Pipeline`] if re-planning fails; the
    /// previous resident state stays live in that case.
    pub fn refresh_plan(&self) -> Result<u64, EngineError> {
        self.shared.mutate(None, |st| self.shared.refresh_inner(st))
    }

    /// Numbers a request, starts its deadline clock, runs `f` on the
    /// calling thread with the deadline and the request id, and accounts
    /// for it.
    fn run_request<T>(
        &self,
        op: &'static str,
        items: usize,
        f: impl FnOnce(Option<Instant>, RequestId) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let shared = &self.shared;
        let rid = shared.requests.fetch_add(1, Ordering::AcqRel) + 1;
        let deadline_at = self.default_deadline.map(|d| Instant::now() + d);
        let obs = &shared.obs;
        let epoch = shared.gauges.epoch.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let result = {
            // Contain a panicking request to this request: it resolves
            // to `TaskPanicked` and the calling thread carries on. The
            // in-flight gauge covers exactly the execution (released
            // before the result is returned, so a caller who just
            // observed completion sees a consistent snapshot).
            let _in_flight = InFlightGuard::new(&shared.in_flight);
            match catch_unwind(AssertUnwindSafe(|| f(deadline_at, rid))) {
                Ok(result) => result,
                Err(payload) => {
                    shared.panics.fetch_add(1, Ordering::AcqRel);
                    obs.counter(
                        names::ENGINE_PANICS,
                        1,
                        &[("op", Value::from(op)), ("request", Value::from(rid))],
                    );
                    Err(EngineError::TaskPanicked {
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        };
        // The request span is emitted for failures too, tagged with the
        // error kind, so the flight recorder's dump always contains the
        // offending request's span.
        let error = result.as_ref().err().map(error_reason);
        let mut labels = vec![
            ("op", Value::from(op)),
            ("items", Value::from(items)),
            ("epoch", Value::from(epoch)),
            ("request", Value::from(rid)),
        ];
        if let Some(reason) = error {
            labels.push(("error", Value::from(reason)));
        }
        obs.record_duration(names::ENGINE_REQUEST, t0.elapsed(), &labels);
        match &result {
            Ok(_) => {
                // Served entirely from resident state — no rebuild.
                obs.counter(names::ENGINE_CACHE_HITS, 1, &[("op", Value::from(op))]);
            }
            Err(EngineError::DeadlineExceeded) => {
                obs.counter(names::ENGINE_DEADLINE_MISSES, 1, &[("op", Value::from(op))]);
            }
            Err(_) => {}
        }
        if let Some(reason) = error {
            shared.dump_flight(reason, rid, op);
        }
        result
    }
}

/// An already-resolved request, as [`Engine::submit`] returns it.
#[derive(Debug)]
pub struct Pending<T>(Result<T, EngineError>);

impl<T> Pending<T> {
    /// The request's result.
    pub fn wait(self) -> Result<T, EngineError> {
        self.0
    }
}

/// Decrements the in-flight gauge when the request ends, however it ends.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl InFlightGuard<'_> {
    fn new(gauge: &AtomicUsize) -> InFlightGuard<'_> {
        gauge.fetch_add(1, Ordering::AcqRel);
        InFlightGuard(gauge)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Short stable tag for an error, used as the `error` label on failed
/// request spans and as the flight-dump `reason`.
fn error_reason(e: &EngineError) -> &'static str {
    match e {
        EngineError::DeadlineExceeded => "deadline",
        EngineError::Dimension { .. } => "dimension",
        EngineError::NonFinite { .. } => "non_finite",
        EngineError::Extent => "extent",
        EngineError::TaskPanicked { .. } => "panic",
        EngineError::Pipeline(_) => "pipeline",
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod::DodConfig;
    use dod_core::OutlierParams;
    use dod_obs::{EventKind, MemoryRecorder};

    /// A dense blob on a sparse lattice: the plan gives the blob small
    /// partitions and leaves others with a handful of points.
    fn skewed(n: u64) -> PointSet {
        let mut data = PointSet::new(2).unwrap();
        for i in 0..n {
            let p = if i % 3 == 0 {
                [(i % 61) as f64, ((i * 7) % 59) as f64]
            } else {
                [
                    20.0 + 0.01 * ((i * 31) % 397) as f64,
                    20.0 + 0.01 * ((i * 17) % 389) as f64,
                ]
            };
            data.push(&p).unwrap();
        }
        data
    }

    fn engine(data: &PointSet, workers: usize, memory: &Arc<MemoryRecorder>) -> Engine {
        let config = DodConfig::builder(OutlierParams::new(1.5, 4).unwrap())
            .sample_rate(0.5)
            .num_reducers(3)
            .target_partitions(24)
            .obs(Obs::new(memory.clone()))
            .build()
            .unwrap();
        let runner = DodRunner::builder().config(config).multi_tactic().build();
        Engine::builder(runner)
            .workers(workers)
            .build(data)
            .unwrap()
    }

    /// Per partition: algorithm, core ids, support ids, and the bit
    /// patterns of the core and support tiles.
    type Layout = Vec<(&'static str, Vec<PointId>, Vec<PointId>, Vec<u64>, Vec<u64>)>;

    fn layout(engine: &Engine) -> Layout {
        let st = read_recover(&engine.shared.state);
        let Some(plan) = &st.plan else {
            return Vec::new();
        };
        let bits = |set: &PointSet| set.as_flat().iter().map(|c| c.to_bits()).collect();
        plan.states
            .iter()
            .zip(&plan.mt.algorithms)
            .map(|(state, algorithm)| {
                let partition = state.partition();
                (
                    algorithm.name(),
                    partition.core_ids().to_vec(),
                    state.support_ids().to_vec(),
                    bits(partition.core()),
                    bits(partition.support()),
                )
            })
            .collect()
    }

    /// Request, partition (or rolled-up partition count), algorithm, work.
    type WorkCounters = Vec<(u64, Option<u64>, Option<u64>, String, u64)>;

    /// Every `engine.partition.work` counter the score requests emitted,
    /// in emission order.
    fn score_work(memory: &MemoryRecorder) -> WorkCounters {
        let label = |e: &dod_obs::Event, key: &str| e.label(key).and_then(|v| v.as_u64());
        memory
            .events()
            .iter()
            .filter(|e| e.name == names::ENGINE_PARTITION_WORK)
            .filter(|e| e.label("op").and_then(|v| v.as_str()) == Some("score"))
            .map(|e| {
                let EventKind::Counter { delta } = e.kind else {
                    panic!("{} is a counter", e.name)
                };
                let algorithm = e.label("algorithm").and_then(|v| v.as_str()).unwrap();
                (
                    label(e, "request").unwrap(),
                    label(e, "partition"),
                    label(e, "partitions"),
                    algorithm.to_string(),
                    delta,
                )
            })
            .collect()
    }

    /// The initial build and an epoch rebuild lay every tile out the same
    /// way on one thread, on two, and on more threads than some
    /// partitions have points; and a score answers the same on any of
    /// them, fanned out or not: verdicts, per-partition work counters,
    /// the cost audit and drift all match.
    #[test]
    fn rebuild_is_deterministic_in_its_thread_count() {
        let data = skewed(3000);
        let queries: Vec<Vec<f64>> = (0..512u64)
            .map(|i| vec![((i * 13) % 64) as f64 * 0.97, ((i * 29) % 64) as f64 * 0.95])
            .collect();
        let batches = [1, FAN_OUT_MIN_QUERIES - 1, FAN_OUT_MIN_QUERIES, 512];
        let mut reference = None;
        for workers in [1, 2, 5] {
            let memory = Arc::new(MemoryRecorder::new());
            let engine = engine(&data, workers, &memory);
            let built = layout(&engine);
            assert!(built.len() > 4, "a multi-partition plan");
            assert!(
                built.iter().any(|p| p.1.len() < 5),
                "some partition has fewer core points than the widest run has threads"
            );
            let verdicts: Vec<Vec<ScorePoint>> = batches
                .iter()
                .map(|&n| {
                    let points = queries[..n].to_vec();
                    let scored = engine.execute(Request::Score { points }).unwrap();
                    scored.into_score().unwrap()
                })
                .collect();
            let work = score_work(&memory);
            assert!(work.iter().map(|w| w.4).sum::<u64>() > 0);
            let audit = engine.cost_audit();
            assert!(!audit.per_algorithm.is_empty());
            let drift = engine.drift().to_bits();
            engine.refresh_plan().unwrap();
            let observed = (built, verdicts, work, audit, drift, layout(&engine));
            match &reference {
                None => reference = Some(observed),
                Some(reference) => assert!(
                    *reference == observed,
                    "workers({workers}) diverged from workers(1)"
                ),
            }
        }
    }

    /// One span per stage per epoch swap, in order, and together they
    /// are the refresh: nothing they leave out takes measurable time.
    #[test]
    fn a_refresh_reports_its_five_stages() {
        let memory = Arc::new(MemoryRecorder::new());
        let engine = engine(&skewed(3000), 2, &memory);
        engine.refresh_plan().unwrap();
        engine.refresh_plan().unwrap();
        let events = memory.events();
        let nanos = |e: &dod_obs::Event| match e.kind {
            EventKind::Span { nanos } => nanos,
            _ => panic!("{} is a span", e.name),
        };
        for epoch in [1u64, 2] {
            let of_epoch = |name: &str| -> Vec<&dod_obs::Event> {
                events
                    .iter()
                    .filter(|e| e.name == name)
                    .filter(|e| e.label("epoch").and_then(|v| v.as_u64()) == Some(epoch))
                    .collect()
            };
            let stages = of_epoch(names::ENGINE_REFRESH_STAGE);
            let labels: Vec<_> = stages
                .iter()
                .map(|e| e.label("stage").and_then(|v| v.as_str()).unwrap())
                .collect();
            assert_eq!(labels, ["compact", "preprocess", "route", "build", "swap"]);
            let total = nanos(of_epoch(names::ENGINE_REFRESH)[0]);
            let staged: u64 = stages.iter().map(|e| nanos(e)).sum();
            assert!(staged <= total, "stages {staged} ns of {total} ns");
        }
    }

    /// The arrival queue holds one run for the build and one per insert
    /// request, whatever their sizes; a compaction drops the runs left
    /// with no live point and keeps the rest.
    #[test]
    fn arrivals_hold_one_run_per_request() {
        let memory = Arc::new(MemoryRecorder::new());
        let engine = engine(&skewed(500), 1, &memory);
        let runs = || {
            let st = read_recover(&engine.shared.state);
            st.dataset
                .arrivals
                .iter()
                .map(|&(first, _)| first)
                .collect::<Vec<_>>()
        };
        assert_eq!(runs(), [0]);
        let insert = |n: usize| {
            let points = (0..n)
                .map(|i| vec![20.0 + 0.001 * i as f64, 21.0])
                .collect();
            engine.execute(Request::Insert { points }).unwrap();
        };
        insert(40);
        insert(1);
        insert(25);
        assert_eq!(runs(), [0, 500, 540, 541]);
        engine
            .execute(Request::Remove {
                ids: vec![540, 541, 560],
            })
            .unwrap();
        engine.refresh_plan().unwrap();
        assert_eq!(runs(), [0, 500, 541]);
    }

    #[test]
    fn degenerate_datasets_build_on_many_threads() {
        let memory = Arc::new(MemoryRecorder::new());
        let empty = engine(&PointSet::new(2).unwrap(), 5, &memory);
        assert!(layout(&empty).is_empty());
        assert_eq!(empty.refresh_plan().unwrap(), 1);
        let one = engine(&PointSet::from_xy(&[(3.0, 4.0)]), 5, &memory);
        let built = layout(&one);
        assert_eq!(built.iter().map(|p| p.1.len()).sum::<usize>(), 1);
        assert_eq!(one.refresh_plan().unwrap(), 1);
        assert_eq!(layout(&one), built);
    }
}
