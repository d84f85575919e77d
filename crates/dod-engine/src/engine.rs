//! The resident engine: build once, serve many — and mutate in place.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use dod::{DodConfig, DodRunner};
use dod_core::{PointId, PointSet};
use dod_obs::sync::{lock_recover, read_recover, write_recover};
use dod_obs::{names, FanoutRecorder, FlightRecorder, Obs, Recorder, Value};

use crate::audit::{CostAudit, CostAuditState};
use crate::dataset::DatasetState;
use crate::epoch::{self, Materialized, ResidentPlan, Splice};
use crate::error::EngineError;
use crate::request::{
    EngineHealth, InsertReceipt, Pending, RemoveReceipt, Request, RequestId, Response, ScorePoint,
    WindowConfig, WindowStatus,
};
use crate::score;

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
    /// swap runs on up to this many (never more than there are points),
    /// and a score of at least [`FAN_OUT_MIN_QUERIES`](crate::FAN_OUT_MIN_QUERIES)
    /// points has its query groups claimed by this many threads. The
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
        let Materialized { plan, counts, .. } =
            epoch::build(&self.runner, &dataset.points, &dataset.ids, self.workers)?;
        let state = State {
            dataset,
            epoch: 0,
            plan,
        };
        let gauges = Gauges::default();
        gauges.publish(&state);
        Ok(Engine {
            runner: self.runner,
            state: RwLock::new(state),
            gauges,
            observed: Mutex::new(counts),
            staleness_threshold: self.staleness_threshold,
            workers: self.workers,
            default_deadline: self.default_deadline,
            obs,
            in_flight: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            cost_audit: Mutex::new(CostAuditState::default()),
            flight,
            flight_dump: Mutex::new(self.flight_dump),
        })
    }
}

/// A resident detection engine: preprocessing and detector-state
/// materialization run **once**, at [`EngineBuilder::build`], and every
/// [`Request`] after that is served from the resident state through one
/// entry point, [`Engine::execute`], on the caller's thread (the crate
/// documentation walks through the request kinds).
///
/// The engine is `Send + Sync`: concurrency comes from the callers'
/// own threads, each calling [`Engine::execute`] on a shared reference,
/// and nothing inside the engine queues or rejects a request. One
/// reader–writer lock over the dataset and the plan is the whole
/// exclusion rule: scores and detects hold its read side for their whole
/// execution, and inserts, removes, window ticks and refreshes hold its
/// write side — so a reader never observes a half-applied mutation (a
/// point core-resident in one partition but missing from a neighbor's
/// support set). Partitions are independent (Lemma 3.1), so nothing finer
/// is needed: a reader reaches the states through the guard, and a
/// mutation through `&mut`.
pub struct Engine {
    runner: DodRunner,
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
    /// Deadline of every request, from the call to [`Engine::execute`].
    default_deadline: Option<Duration>,
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
        self.runner.config()
    }

    /// Current plan epoch (0 until the first refresh).
    pub fn epoch(&self) -> u64 {
        self.gauges.epoch.load(Ordering::Relaxed)
    }

    /// Number of partitions in the resident plan (0 for an empty
    /// dataset).
    pub fn num_partitions(&self) -> usize {
        self.gauges.partitions.load(Ordering::Relaxed)
    }

    /// A point-in-time health snapshot: in-flight requests, contained
    /// panics, current epoch, resident points, churn. Never blocks on
    /// request processing: the engine-state gauges are the ones the last
    /// mutation published, so a snapshot taken during a mutation or a
    /// rebuild reports the state before it.
    pub fn health(&self) -> EngineHealth {
        let gauges = &self.gauges;
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
            in_flight: self.in_flight.load(Ordering::Acquire),
            workers: self.workers,
            panics: self.panics.load(Ordering::Acquire),
            epoch: gauges.epoch.load(Ordering::Relaxed),
            partitions: gauges.partitions.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Acquire),
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
        self.flight.as_ref()
    }

    /// A snapshot of the live predicted-vs-actual cost audit: measured
    /// request work folded against the resident plan's predicted costs,
    /// per algorithm, plus mispredict counts (see [`CostAudit`]).
    /// Accumulates across epochs; empty until the first request that
    /// does kernel work.
    pub fn cost_audit(&self) -> CostAudit {
        lock_recover(&self.cost_audit).snapshot()
    }

    /// The resident plan's introspection report — per-partition
    /// candidate costs, winners, and margins — or `None` for an empty
    /// dataset.
    pub fn plan_report(&self) -> Option<dod_partition::PlanReport> {
        let st = read_recover(&self.state);
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
            Request::Detect => ("detect", self.gauges.points.load(Ordering::Relaxed)),
            Request::Insert { points } => ("insert", points.len()),
            Request::Remove { ids } => ("remove", ids.len()),
            Request::Window { .. } => ("window", 0),
        };
        self.run_request(op, items, |d, rid| self.answer(req, d, rid))
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
        let st = read_recover(&self.state);
        let Some(plan) = &st.plan else {
            return 0.0;
        };
        let observed = lock_recover(&self.observed);
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
        self.mutate(None, |st| self.refresh_inner(st))
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
        let rid = self.requests.fetch_add(1, Ordering::AcqRel) + 1;
        let deadline_at = self.default_deadline.map(|d| Instant::now() + d);
        let obs = &self.obs;
        let epoch = self.gauges.epoch.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let result = {
            // Contain a panicking request to this request: it resolves
            // to `TaskPanicked` and the calling thread carries on. The
            // in-flight gauge covers exactly the execution (released
            // before the result is returned, so a caller who just
            // observed completion sees a consistent snapshot).
            let _in_flight = InFlightGuard::new(&self.in_flight);
            match catch_unwind(AssertUnwindSafe(|| f(deadline_at, rid))) {
                Ok(result) => result,
                Err(payload) => {
                    self.panics.fetch_add(1, Ordering::AcqRel);
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
        let error = result.as_ref().err().map(EngineError::code);
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
        if let Err(EngineError::DeadlineExceeded) = result {
            obs.counter(names::ENGINE_DEADLINE_MISSES, 1, &[("op", Value::from(op))]);
        }
        if let Some(reason) = error {
            self.dump_flight(reason, rid, op);
        }
        result
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
    /// Each query's partitions come from the plan's router: exactly the
    /// partitions whose rectangle is within `r` of it, ascending, for
    /// queries inside the plan's domain or not (the router's documentation
    /// carries the argument). Core sets partition the dataset (Lemma 3.1
    /// replicates only support copies), so no other partition can hold a
    /// core neighbor. Traffic and work come back from [`score::score`]
    /// summed over its slices, for one audit fold and one `observed` update.
    fn score(
        &self,
        points: &[Vec<f64>],
        deadline: Option<Instant>,
        rid: RequestId,
    ) -> Result<Vec<ScorePoint>, EngineError> {
        let st = read_recover(&self.state);
        st.dataset.check_points(points)?;
        let plan = st.plan.as_ref();
        let k = self.runner.config().params.k;
        let total = score::score(plan, k, points, deadline, self.workers)?;
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
        let (outliers, work) = score::detect(plan, deadline, &self.obs)?;
        self.record_partition_work(rid, "detect", Some(plan), &work);
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
        if deadline.is_some_and(|d| Instant::now() > d) {
            return Err(EngineError::DeadlineExceeded);
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
            let domain = st.plan.as_ref().map(|plan| plan.mt.plan.domain());
            st.dataset.check_points(points)?;
            st.dataset.check_extent(domain, points)?;
            let now = Instant::now();
            let ids = st.dataset.insert(points, now);
            let expired = st.dataset.expire(now);
            self.note_churn(rid, "insert", points.len(), expired.len());
            let refreshed = match st.plan.as_mut() {
                Some(plan) if plan.absorbs(points) => {
                    plan.splice(
                        Splice::Insert(points, &ids),
                        &mut lock_recover(&self.observed),
                    );
                    self.splice_out(st, &expired)?
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
            let removed: Vec<(PointId, Vec<f64>)> = ids
                .iter()
                .filter_map(|&id| Some((id, st.dataset.remove(id)?)))
                .collect();
            let missing = ids.len() - removed.len();
            self.note_churn(rid, "remove", removed.len(), 0);
            let refreshed = self.splice_out(st, &removed)?;
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
            let refreshed = self.splice_out(st, &expired)?;
            Ok(WindowStatus {
                window: st.dataset.window,
                expired: expired.len(),
                refreshed,
                resident: st.dataset.alive_len,
            })
        })
    }

    /// Splices removed points out of the resident states, then falls back
    /// to an epoch swap if staleness calls for one; returns whether it did.
    fn splice_out(
        &self,
        st: &mut State,
        removed: &[(PointId, Vec<f64>)],
    ) -> Result<bool, EngineError> {
        if let Some(plan) = st.plan.as_mut().filter(|_| !removed.is_empty()) {
            plan.splice(Splice::Remove(removed), &mut lock_recover(&self.observed));
        }
        self.staleness_fallback(st)
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
        let built = epoch::build(
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
mod tests;
