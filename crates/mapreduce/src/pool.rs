//! The task pool: each stage's tasks on a bounded host thread pool,
//! with Hadoop-style recovery tactics.
//!
//! * Failed attempts (panics, injected faults, lost-node placements) are
//!   retried up to `cluster.max_task_retries` times with exponential
//!   backoff between attempts.
//! * Long-running attempts are speculatively re-executed by idle
//!   workers; the first successful attempt commits the result and the
//!   loser's output is discarded (the losing thread itself runs to
//!   completion — host threads cannot be killed).
//! * Nodes accumulating `cluster.blacklist_after` attempt failures are
//!   blacklisted and receive no further placements.
//!
//! With a checkpoint store attached, checkpointed tasks are skipped,
//! fresh completions are persisted before they become visible, and a
//! task that exhausts its retries is diverted to the dead-letter queue
//! (its slot stays `None`) instead of failing the stage.

use crate::blockstore::BlockReadError;
use crate::checkpoint::CheckpointStore;
use crate::cluster::ClusterConfig;
use crate::dlq::DlqEntry;
use crate::durable::Durable;
use crate::fault::TaskFault;
use crate::job::JobError;
use crate::metrics::JobMetrics;
use dod_obs::sync::lock_recover;
use dod_obs::{names, Obs, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One stage's results, per task: the winning attempt's duration and
/// output, or `None` for a task diverted to the dead-letter queue.
pub(crate) type Slots<T> = Vec<Option<(Duration, T)>>;

/// The task pool of one job: runs its stages one after the other on
/// the host threads.
pub(crate) struct TaskPool<'a> {
    cluster: &'a ClusterConfig,
    obs: &'a Obs,
    checkpoint: Option<&'a CheckpointStore>,
    /// The recovery counts of the stages run so far, in their
    /// [`JobMetrics`] fields; the rest is the job's to fill.
    pub(crate) metrics: JobMetrics,
    /// Fresh (non-restored) completions of the stages run so far; the
    /// fault plan's `interrupt_after` kill switch counts these.
    fresh: u64,
}

impl<'a> TaskPool<'a> {
    pub(crate) fn new(
        cluster: &'a ClusterConfig,
        obs: &'a Obs,
        checkpoint: Option<&'a CheckpointStore>,
    ) -> Self {
        TaskPool {
            cluster,
            obs,
            checkpoint,
            metrics: JobMetrics::default(),
            fresh: 0,
        }
    }

    /// Runs the `num_tasks` tasks of stage `name` to completion; `run`
    /// executes one attempt, `(task, attempt number) -> output`. In a
    /// durable job the stage's task records carry `shuffle_fp`.
    ///
    /// Returns the stage's [`Slots`], or the error that stopped it: a
    /// task out of retries (non-durable jobs only) or the
    /// `interrupt_after` kill switch.
    pub(crate) fn run<T, F>(
        &mut self,
        name: &'static str,
        num_tasks: usize,
        shuffle_fp: u64,
        run: F,
    ) -> Result<Slots<T>, JobError>
    where
        T: Send + Durable,
        F: Fn(usize, usize) -> T + Sync,
    {
        let metrics = std::mem::take(&mut self.metrics);
        let mut sched = Sched::new(num_tasks, self.cluster.nodes, metrics, self.fresh);
        let durability = self.checkpoint.map(|store| StageDurability {
            store,
            dlq: store.dlq_snapshot(),
            shuffle_fp,
        });
        if let Some(d) = &durability {
            d.seed(name, &mut sched, self.obs);
        }
        let stage = Stage {
            name,
            cluster: self.cluster,
            obs: self.obs,
            durability,
            sched: Mutex::new(sched),
            run,
        };
        let threads = self.cluster.effective_host_threads().max(1).min(num_tasks);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(|| stage.work())).collect();
            // Join every worker before the stage returns. The scope alone
            // waits only for the closures, so a worker's OS thread could
            // still be exiting, holding its malloc arena, when the next
            // stage spawns its threads; those would then open fresh
            // arenas, and how much memory the process keeps would depend
            // on thread timing.
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let sched = stage
            .sched
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(task) = sched.failed {
            return Err(JobError::TaskFailed {
                stage: name,
                task,
                attempts: self.cluster.max_task_retries + 1,
            });
        }
        if sched.interrupted {
            return Err(JobError::Interrupted {
                stage: name,
                completed: sched.tasks.iter().filter(|t| t.done).count(),
            });
        }
        self.metrics = sched.metrics;
        self.fresh = sched.fresh;
        Ok(sched.results)
    }
}

/// Attempt number used for speculative re-executions. Primary attempts
/// number `0, 1, 2, …` deterministically; giving speculative attempts a
/// fixed out-of-band number keeps the primary retry sequence — and with
/// it the fault plan's per-attempt decisions — independent of *when* a
/// speculation happened to launch.
const SPECULATIVE_ATTEMPT: usize = 1 << 16;

/// How one task attempt failed.
enum AttemptError {
    /// The attempt was placed on a node the fault plan marks as lost.
    NodeLost,
    /// The attempt panicked (injected or real).
    Panic,
    /// The attempt's input-block read failed transiently.
    BlockRead,
}

/// Per-task scheduler bookkeeping.
#[derive(Clone, Default)]
struct TaskState {
    /// Primary attempts launched so far (also the next attempt number).
    attempts: usize,
    /// Primary attempts failed so far (counted against the retry budget).
    failures: usize,
    /// Start of the primary attempt executing now, if one is.
    started: Option<Instant>,
    /// A speculative attempt has been launched (at most one per task).
    speculated: bool,
    /// A successful attempt has committed this task's result.
    done: bool,
    /// Attempt-failure history, for the dead-letter record.
    errors: Vec<String>,
}

/// One attempt handed to a worker.
#[derive(Clone, Copy)]
struct Attempt {
    task: usize,
    /// `0, 1, 2, …` for primaries, [`SPECULATIVE_ATTEMPT`] otherwise.
    number: usize,
    spec: bool,
    node: usize,
}

/// One stage's scheduler state, behind one lock: the task table, the
/// committed results, node health and the job's recovery counts.
struct Sched<T> {
    tasks: Vec<TaskState>,
    results: Slots<T>,
    /// Next fresh task index to dispatch.
    next: usize,
    /// Durations of completed attempts, for the straggler median.
    durations: Vec<Duration>,
    node_failures: Vec<usize>,
    node_blacklisted: Vec<bool>,
    failed: Option<usize>,
    /// The `interrupt_after` kill switch fired; workers drain out.
    interrupted: bool,
    metrics: JobMetrics,
    fresh: u64,
}

impl<T> Sched<T> {
    fn new(num_tasks: usize, nodes: usize, metrics: JobMetrics, fresh: u64) -> Self {
        Sched {
            tasks: vec![TaskState::default(); num_tasks],
            results: (0..num_tasks).map(|_| None).collect(),
            next: 0,
            durations: Vec::new(),
            node_failures: vec![0; nodes],
            node_blacklisted: vec![false; nodes],
            failed: None,
            interrupted: false,
            metrics,
            fresh,
        }
    }

    /// Launches the next primary attempt of `task`: the first one or a
    /// retry.
    fn launch(&mut self, task: usize) -> Attempt {
        let st = &mut self.tasks[task];
        let number = st.attempts;
        st.attempts += 1;
        st.started = Some(Instant::now());
        Attempt {
            task,
            number,
            spec: false,
            node: self.pick_node(task, number),
        }
    }

    /// Deterministic node placement for an attempt: round-robin by
    /// `task + attempt` (so a retry lands on a different node),
    /// skipping blacklisted nodes; if every node is blacklisted the raw
    /// choice is used rather than wedging the job.
    fn pick_node(&self, task: usize, attempt: usize) -> usize {
        let nodes = self.node_blacklisted.len();
        for off in 0..nodes {
            let n = (task + attempt + off) % nodes;
            if !self.node_blacklisted[n] {
                return n;
            }
        }
        (task + attempt) % nodes
    }

    /// A running, not-yet-speculated task whose elapsed time exceeds the
    /// straggler threshold, if any.
    fn straggler(&self, cluster: &ClusterConfig, now: Instant) -> Option<usize> {
        if !cluster.speculation {
            return None;
        }
        let mut threshold = Duration::from_millis(cluster.speculation_floor_ms);
        if !self.durations.is_empty() {
            let mut ds = self.durations.clone();
            ds.sort();
            let median = ds[ds.len() / 2];
            threshold = threshold.max(median * cluster.speculation_ratio_pct / 100);
        }
        self.tasks.iter().position(|t| {
            !t.done && !t.speculated && t.started.is_some_and(|s| now.duration_since(s) > threshold)
        })
    }

    /// Whether an idle worker may still find work later: a fresh task,
    /// or (with speculation on) a task that might yet straggle.
    fn may_have_work(&self, cluster: &ClusterConfig) -> bool {
        self.next < self.tasks.len()
            || (cluster.speculation && self.tasks.iter().any(|t| !t.done && !t.speculated))
    }
}

/// The checkpoint store one stage restores from, persists to and
/// dead-letters into; absent for non-durable jobs.
struct StageDurability<'a> {
    store: &'a CheckpointStore,
    /// The dead-letter queue as it stood when the stage started. Only
    /// the other stage's entries change while a stage runs.
    dlq: Vec<DlqEntry>,
    /// Shuffle fingerprint the stage's task records carry (0 for map).
    shuffle_fp: u64,
}

impl StageDurability<'_> {
    fn dead_letter(&self, stage: &str, task: usize) -> Option<&DlqEntry> {
        self.dlq.iter().find(|e| e.stage == stage && e.task == task)
    }

    /// Seeds the slots that will not run as done: a task parked in the
    /// dead-letter queue contributes nothing, and a task with a valid
    /// checkpoint record is restored and never re-executed. A task
    /// flagged for redrive runs unless its record survived.
    fn seed<T: Durable>(&self, stage: &'static str, sched: &mut Sched<T>, obs: &Obs) {
        let mut restored = 0;
        for t in 0..sched.tasks.len() {
            if self.dead_letter(stage, t).is_none_or(|e| e.redrive) {
                let Some(record) = self.store.load_task(stage, t, self.shuffle_fp) else {
                    continue;
                };
                sched.results[t] = Some(record);
                restored += 1;
            }
            sched.tasks[t].done = true;
        }
        if restored > 0 {
            sched.metrics.checkpoint_skips += restored;
            let labels = [("stage", Value::from(stage))];
            obs.counter(names::MAPREDUCE_CHECKPOINT_SKIP, restored, &labels);
        }
    }

    /// Persists a fresh completion; the caller holds the scheduler lock
    /// and publishes the result after. A task re-driven from the
    /// dead-letter queue resolves its entry; returns whether it did.
    fn persist<T: Durable>(
        &self,
        stage: &str,
        task: usize,
        duration: Duration,
        value: &T,
        metrics: &mut JobMetrics,
    ) -> bool {
        self.store
            .save_task(stage, task, self.shuffle_fp, duration, value);
        metrics.checkpoint_writes += 1;
        // Parked tasks are seeded as done and never commit, so an entry
        // here is one flagged for redrive.
        if self.dead_letter(stage, task).is_none() {
            return false;
        }
        self.store.dlq_resolve(stage, task);
        metrics.dlq_redriven += 1;
        true
    }

    /// Diverts a task that exhausted its retries to the dead-letter
    /// queue: it is done with no result and the job goes on.
    /// Returns whether it diverted the task (a sibling attempt may have
    /// committed it meanwhile).
    fn divert<T>(
        &self,
        stage: &str,
        task: usize,
        mut sched: MutexGuard<'_, Sched<T>>,
        fault_seed: Option<u64>,
    ) -> bool {
        if sched.tasks[task].done {
            return false;
        }
        sched.tasks[task].done = true;
        sched.metrics.dlq_diverted += 1;
        let st = &mut sched.tasks[task];
        st.started = None;
        let entry = DlqEntry {
            stage: stage.to_string(),
            task,
            attempts: st.failures,
            errors: std::mem::take(&mut st.errors),
            fault_seed,
            redrive: false,
        };
        drop(sched);
        self.store.dlq_divert(entry);
        true
    }
}

/// One stage on the task pool. Each worker loops over four steps:
/// [`acquire`](Stage::acquire) an attempt, [`execute`](Stage::execute)
/// it, then [`commit`](Stage::commit) its result or
/// [`fail_or_retry`](Stage::fail_or_retry).
struct Stage<'a, T, F> {
    name: &'static str,
    cluster: &'a ClusterConfig,
    obs: &'a Obs,
    durability: Option<StageDurability<'a>>,
    sched: Mutex<Sched<T>>,
    run: F,
}

impl<T, F> Stage<'_, T, F>
where
    T: Send + Durable,
    F: Fn(usize, usize) -> T + Sync,
{
    /// One worker: drives each attempt it acquires — and, for a
    /// primary, its retries — to completion.
    fn work(&self) {
        while let Some(mut attempt) = self.acquire() {
            loop {
                match self.execute(attempt) {
                    Ok((duration, value)) => {
                        self.commit(attempt, duration, value);
                        break;
                    }
                    Err(err) => match self.fail_or_retry(attempt, err) {
                        Some(retry) => attempt = retry,
                        None => break,
                    },
                }
            }
        }
    }

    /// The `(stage, task)` labels of a task's telemetry.
    fn labels(&self, task: usize) -> [(&'static str, Value); 2] {
        [
            ("stage", Value::from(self.name)),
            ("task", Value::from(task)),
        ]
    }

    /// Acquires work under the scheduler lock: a fresh task, else a
    /// straggler to speculate on. An idle worker polls every 200 µs
    /// while work may still appear; `None` once the stage has finished,
    /// failed or been interrupted.
    fn acquire(&self) -> Option<Attempt> {
        loop {
            let mut s = lock_recover(&self.sched);
            if s.failed.is_some() || s.interrupted || s.tasks.iter().all(|t| t.done) {
                return None;
            }
            // Skip slots seeded as done (restored from the checkpoint or
            // parked in the DLQ).
            while s.next < s.tasks.len() && s.tasks[s.next].done {
                s.next += 1;
            }
            if s.next < s.tasks.len() {
                let task = s.next;
                s.next += 1;
                return Some(s.launch(task));
            }
            if let Some(task) = s.straggler(self.cluster, Instant::now()) {
                s.tasks[task].speculated = true;
                s.metrics.speculative_launched += 1;
                let node = s.pick_node(task, SPECULATIVE_ATTEMPT);
                drop(s);
                let obs = self.obs;
                obs.counter(names::MAPREDUCE_TASK_SPECULATIVE, 1, &self.labels(task));
                return Some(Attempt {
                    task,
                    number: SPECULATIVE_ATTEMPT,
                    spec: true,
                    node,
                });
            }
            if !s.may_have_work(self.cluster) {
                return None;
            }
            drop(s);
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Executes one attempt: applies the fault plan's decision for this
    /// (stage, task, attempt, node), then runs the task under
    /// `catch_unwind`. The injected straggle sleep counts toward the
    /// attempt's duration — that is what makes a straggler look slow.
    fn execute(&self, a: Attempt) -> Result<(Duration, T), AttemptError> {
        let start = Instant::now();
        if let Some(plan) = self.cluster.fault.filter(|p| p.is_active()) {
            if plan.node_lost(a.node) {
                return Err(AttemptError::NodeLost);
            }
            match plan.decide(self.name, a.task, a.number) {
                TaskFault::Panic => return Err(AttemptError::Panic),
                TaskFault::Straggle(d) => std::thread::sleep(d),
                // BlockRead is injected at the blockstore read inside the
                // map task, where the block index is known.
                TaskFault::None | TaskFault::BlockRead => {}
            }
        }
        match catch_unwind(AssertUnwindSafe(|| (self.run)(a.task, a.number))) {
            Ok(v) => Ok((start.elapsed(), v)),
            Err(payload) => Err(if payload.downcast_ref::<BlockReadError>().is_some() {
                AttemptError::BlockRead
            } else {
                AttemptError::Panic
            }),
        }
    }

    /// Commits a successful attempt. First writer wins; a losing
    /// speculative (or primary) attempt's output is discarded. A durable
    /// stage persists the record under the scheduler lock, before the
    /// completion becomes visible.
    fn commit(&self, a: Attempt, duration: Duration, value: T) {
        let resolved = {
            let mut s = lock_recover(&self.sched);
            s.durations.push(duration);
            if !a.spec {
                s.tasks[a.task].started = None;
            }
            if s.tasks[a.task].done {
                return;
            }
            s.tasks[a.task].done = true;
            let resolved = self
                .durability
                .as_ref()
                .is_some_and(|d| d.persist(self.name, a.task, duration, &value, &mut s.metrics));
            s.results[a.task] = Some((duration, value));
            if a.spec {
                s.metrics.speculative_won += 1;
            }
            s.fresh += 1;
            let interrupt_after = self.cluster.fault.map_or(0, |p| p.interrupt_after);
            if interrupt_after > 0 && s.fresh >= interrupt_after {
                s.interrupted = true;
            }
            resolved
        };
        let (obs, labels) = (self.obs, self.labels(a.task));
        if self.durability.is_some() {
            obs.counter(names::MAPREDUCE_CHECKPOINT_WRITE, 1, &labels);
        }
        if resolved {
            obs.counter(names::MAPREDUCE_DLQ_REDRIVEN, 1, &labels);
        }
    }

    /// Books a failed attempt, then schedules the task's retry after its
    /// backoff, or returns `None` when the task needs no retry: the
    /// attempt was speculative, a sibling attempt already won, the stage
    /// stopped, or the task is out of retries (diverted to the
    /// dead-letter queue in a durable job, failing the stage otherwise).
    fn fail_or_retry(&self, a: Attempt, err: AttemptError) -> Option<Attempt> {
        if self.book_failure(a, &err) || a.spec {
            return None;
        }
        let failures = {
            let mut s = lock_recover(&self.sched);
            s.tasks[a.task].failures += 1;
            let failures = s.tasks[a.task].failures;
            if failures > self.cluster.max_task_retries {
                let Some(d) = &self.durability else {
                    s.failed = Some(a.task);
                    return None;
                };
                if d.divert(self.name, a.task, s, self.cluster.fault.map(|f| f.seed)) {
                    let obs = self.obs;
                    obs.counter(names::MAPREDUCE_DLQ_DIVERTED, 1, &self.labels(a.task));
                }
                return None;
            }
            failures
        };
        let backoff = self.backoff(a.task, failures);
        // Re-check before the retry: the stage may have stopped, or a
        // speculative sibling may have finished this task during the
        // backoff.
        let mut s = lock_recover(&self.sched);
        s.metrics.backoff_total += backoff;
        if s.failed.is_some() || s.interrupted || s.tasks[a.task].done {
            return None;
        }
        Some(s.launch(a.task))
    }

    /// Attributes a failed attempt to its node, blacklisting the node
    /// once it accumulates enough failures, and emits the retry
    /// telemetry. Returns whether the task is already done (a sibling
    /// attempt won while this one was failing).
    fn book_failure(&self, a: Attempt, err: &AttemptError) -> bool {
        let (done, newly_blacklisted) = {
            let mut s = lock_recover(&self.sched);
            s.metrics.task_retries += 1;
            if matches!(err, AttemptError::BlockRead) {
                s.metrics.block_read_errors += 1;
            }
            let done = s.tasks[a.task].done;
            let mut newly = false;
            // First-writer-wins accounting: an attempt that loses to an
            // already-committed sibling (a primary finishing after its
            // speculative twin won, or vice versa) says nothing about
            // node health — its failure must not push the node toward
            // the blacklist, and the task's history is already settled.
            if !done {
                let node = a.node;
                s.node_failures[node] += 1;
                newly = self.cluster.blacklist_after > 0
                    && !s.node_blacklisted[node]
                    && s.node_failures[node] >= self.cluster.blacklist_after;
                if newly {
                    s.node_blacklisted[node] = true;
                    s.metrics.nodes_blacklisted += 1;
                }
                let what = match err {
                    AttemptError::NodeLost => "node lost",
                    AttemptError::Panic => "panic",
                    AttemptError::BlockRead => "block read error",
                };
                let desc = if a.spec {
                    format!("speculative attempt on node {node}: {what}")
                } else {
                    format!("attempt {} on node {node}: {what}", a.number)
                };
                s.tasks[a.task].errors.push(desc);
            }
            if !a.spec {
                s.tasks[a.task].started = None;
            }
            (done, newly)
        };
        let obs = self.obs;
        if newly_blacklisted {
            let labels = [
                ("stage", Value::from(self.name)),
                ("node", Value::from(a.node)),
            ];
            obs.counter(names::MAPREDUCE_NODE_BLACKLISTED, 1, &labels);
        }
        obs.counter(names::MAPREDUCE_TASK_RETRY, 1, &self.labels(a.task));
        done
    }

    /// Sleeps the exponential backoff before a task's retry; returns how
    /// long it slept.
    fn backoff(&self, task: usize, failures: usize) -> Duration {
        if self.cluster.retry_backoff_ms == 0 {
            return Duration::ZERO;
        }
        let ms = (self.cluster.retry_backoff_ms << (failures - 1).min(6))
            .min(ClusterConfig::MAX_BACKOFF_MS);
        let backoff = Duration::from_millis(ms);
        std::thread::sleep(backoff);
        self.obs.observe(
            names::MAPREDUCE_TASK_BACKOFF,
            backoff.as_secs_f64() * 1e3,
            &self.labels(task),
        );
        backoff
    }
}
