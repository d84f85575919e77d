//! The MapReduce job executor.
//!
//! [`run`] executes one job: map tasks over the input blocks, an
//! in-memory shuffle (partition → sort → group by key) on the same host
//! threads, then reduce tasks over the borrowed key groups. Its
//! [`JobOptions`] attach telemetry, a map-side combiner and a checkpoint
//! store.
//! Per-task wall times are measured and folded into stage makespans on the
//! logical cluster topology (see [`crate::metrics`]).
//!
//! Failed attempts are retried like Hadoop task attempts, with
//! exponential backoff; stragglers are speculatively re-executed by idle
//! workers (first success wins); repeatedly-failing nodes are
//! blacklisted. All of it can be exercised deterministically against a
//! seeded [`crate::fault::FaultPlan`] via [`ClusterConfig::fault`].

use crate::blockstore::{BlockReadError, BlockStore};
use crate::checkpoint::{fingerprint_u64s, CheckpointStore, Durable};
use crate::cluster::ClusterConfig;
use crate::dlq::DlqEntry;
use crate::fault::TaskFault;
use crate::metrics::{makespan, JobMetrics};
use crate::size::EstimateSize;
use dod_obs::sync::lock_recover;
use dod_obs::{names, Obs, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A map function: consumes one input item, emits zero or more key/value
/// records.
///
/// Implementations must be deterministic and side-effect free: a failed
/// task attempt is re-executed from scratch.
pub trait Mapper: Send + Sync {
    /// Input item type (one element of an input block).
    type In: Send + Sync;
    /// Intermediate key. Ordering defines the within-reducer group order.
    type K: Ord + Clone + Send + EstimateSize;
    /// Intermediate value.
    type V: Send + EstimateSize;

    /// Maps one item.
    fn map(&self, item: &Self::In, emit: &mut dyn FnMut(Self::K, Self::V));

    /// Bytes the shuffle charges for one emitted record: by default the
    /// key's and the value's [`EstimateSize`]. A mapper whose values
    /// name data held elsewhere (a row of the job's input) overrides it
    /// to charge the logical record it stands for.
    fn record_bytes(&self, key: &Self::K, value: &Self::V) -> usize {
        key.estimated_bytes() + value.estimated_bytes()
    }
}

/// A reduce function over key groups of `(K, V)` records (the mapper's
/// intermediate key and value).
///
/// The group is borrowed from the reducer's materialised shuffle bucket,
/// which stays in place across task attempts: a retried reduce task
/// re-reads the same records, and nothing is cloned per record. `K` and
/// `V` are parameters rather than associated types so that one reducer
/// serves values of any lifetime (`impl<'a> Reducer<u32, Rec<'a>>`).
pub trait Reducer<K, V>: Send + Sync {
    /// Output record type.
    type Out: Send;

    /// Reduces one `(key, values)` group.
    fn reduce(&self, key: &K, values: &[V], emit: &mut dyn FnMut(Self::Out));
}

/// Routes a key to one of `num_reducers` reduce tasks.
pub type Partitioner<K> = dyn Fn(&K, usize) -> usize + Send + Sync;

/// A map-side combiner: locally folds one key group before the shuffle,
/// like Hadoop's combiner. Must be semantically idempotent with the
/// reducer (the reducer still sees one group per key, now with
/// pre-aggregated values).
pub trait Combiner: Send + Sync {
    /// Intermediate key (matches the mapper's).
    type K: Ord;
    /// Intermediate value (matches the mapper's).
    type V;

    /// Folds one locally-collected key group into (usually fewer) values.
    fn combine(&self, key: &Self::K, values: Vec<Self::V>) -> Vec<Self::V>;
}

/// A combiner that sums numeric values — the classic word-count shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumCombiner<K>(std::marker::PhantomData<K>);

impl<K> SumCombiner<K> {
    /// Creates the combiner.
    pub fn new() -> Self {
        SumCombiner(std::marker::PhantomData)
    }
}

impl<K: Ord + Send + Sync> Combiner for SumCombiner<K> {
    type K = K;
    type V = u32;

    fn combine(&self, _key: &K, values: Vec<u32>) -> Vec<u32> {
        vec![values.into_iter().sum()]
    }
}

/// Errors from a job execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A task kept failing after exhausting its retry budget.
    TaskFailed {
        /// `"map"` or `"reduce"`.
        stage: &'static str,
        /// Index of the failing task.
        task: usize,
        /// Number of attempts made.
        attempts: usize,
    },
    /// The job was configured with zero reducers but the mappers emitted
    /// records.
    NoReducers,
    /// The job was deliberately aborted mid-stage by
    /// [`FaultPlan::interrupt_after`](crate::fault::FaultPlan) — the
    /// durability suite's simulated crash. Completed tasks are already
    /// checkpointed; re-running the job resumes from them.
    Interrupted {
        /// Stage that was executing when the interrupt fired.
        stage: &'static str,
        /// Tasks of that stage completed (and persisted) before it.
        completed: usize,
    },
    /// A durable job could not persist its state; the run is aborted
    /// rather than continuing half-durable.
    Checkpoint(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::TaskFailed {
                stage,
                task,
                attempts,
            } => {
                write!(f, "{stage} task {task} failed after {attempts} attempts")
            }
            JobError::NoReducers => write!(f, "job emitted records but has no reducers"),
            JobError::Interrupted { stage, completed } => {
                write!(
                    f,
                    "job interrupted during the {stage} stage after {completed} completed tasks"
                )
            }
            JobError::Checkpoint(detail) => write!(f, "checkpoint write failed: {detail}"),
        }
    }
}

impl std::error::Error for JobError {}

/// How a job finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every task completed.
    Complete,
    /// The job finished, but some tasks sit in the dead-letter queue
    /// and their contribution is missing from the outputs. Only durable
    /// jobs can end here; without a checkpoint store an exhausted task
    /// still fails the whole job.
    PartialWithDlq {
        /// Tasks (across both stages) missing from this run's outputs.
        diverted: usize,
    },
}

/// Result of a successful job.
#[derive(Debug)]
pub struct JobOutput<K, O> {
    /// All reducer outputs, ordered by reducer index then key order.
    pub outputs: Vec<O>,
    /// Per-stage metrics.
    pub metrics: JobMetrics,
    /// Measured processing time of every key group, for per-partition cost
    /// attribution (reducer order, then key order).
    pub key_times: Vec<(K, Duration)>,
    /// Whether every task contributed or some are dead-lettered.
    pub outcome: JobOutcome,
}

/// Options of one [`run`]. The default runs without telemetry, without a
/// combiner and without a checkpoint store.
pub struct JobOptions<'a, K, V> {
    /// Receives per-task spans, retry counters, shuffle volume
    /// counters/histograms and the locality outcome (see DESIGN.md
    /// §Observability).
    pub obs: Obs,
    /// A map-side combiner applied to each map task's output before the
    /// shuffle.
    pub combiner: Option<&'a dyn Combiner<K = K, V = V>>,
    /// Makes the job durable: completed tasks are persisted to the store
    /// and skipped on resume, and a task that exhausts its retry budget is
    /// diverted to the dead-letter queue (the job then finishes with
    /// [`JobOutcome::PartialWithDlq`] instead of failing).
    pub checkpoint: Option<&'a CheckpointStore>,
}

impl<K, V> Default for JobOptions<'_, K, V> {
    fn default() -> Self {
        JobOptions {
            obs: Obs::null(),
            combiner: None,
            checkpoint: None,
        }
    }
}

/// Sort-groups one map task's output by key and folds each group through
/// the combiner.
fn apply_combiner<K: Ord + Clone, V>(
    combiner: &dyn Combiner<K = K, V = V>,
    mut records: Vec<(K, V)>,
) -> Vec<(K, V)> {
    records.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::with_capacity(records.len());
    let mut iter = records.into_iter().peekable();
    while let Some((key, first)) = iter.next() {
        let mut values = vec![first];
        while iter.peek().is_some_and(|(k, _)| *k == key) {
            values.push(iter.next().expect("peeked").1);
        }
        for v in combiner.combine(&key, values) {
            out.push((key.clone(), v));
        }
    }
    out
}

/// Recovery counters shared by the map and reduce stages of one job,
/// drained into [`JobMetrics`] at the end.
#[derive(Default)]
struct PoolCounters {
    retries: AtomicU64,
    speculative_launched: AtomicU64,
    speculative_won: AtomicU64,
    nodes_blacklisted: AtomicU64,
    block_read_errors: AtomicU64,
    backoff_nanos: AtomicU64,
    checkpoint_writes: AtomicU64,
    checkpoint_skips: AtomicU64,
    dlq_diverted: AtomicU64,
    dlq_redriven: AtomicU64,
    /// Fresh (non-restored) completions across both stages; the
    /// fault plan's `interrupt_after` kill switch counts these.
    fresh_completions: AtomicU64,
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
#[derive(Clone, Copy, Default)]
struct TaskState {
    /// Primary attempts launched so far (also the next attempt number).
    attempts: usize,
    /// Primary attempts failed so far (counted against the retry budget).
    failures: usize,
    /// A primary attempt is currently executing.
    running: bool,
    /// Start of the currently-executing primary attempt.
    started: Option<Instant>,
    /// A speculative attempt has been launched (at most one per task).
    speculated: bool,
    /// A successful attempt has committed this task's result.
    done: bool,
}

/// Shared scheduler state: task table plus node health.
struct Sched {
    tasks: Vec<TaskState>,
    /// Next fresh task index to dispatch.
    next: usize,
    /// Durations of completed attempts, for the straggler median.
    durations: Vec<Duration>,
    node_failures: Vec<usize>,
    node_blacklisted: Vec<bool>,
    done_count: usize,
    failed: Option<usize>,
    /// The `interrupt_after` kill switch fired; workers drain out.
    interrupted: bool,
    /// Per-task attempt-failure history, for dead-letter records
    /// (`TaskState` stays `Copy`, so histories live here).
    errors: Vec<Vec<String>>,
}

impl Sched {
    fn new(num_tasks: usize, nodes: usize) -> Self {
        Sched {
            tasks: vec![TaskState::default(); num_tasks],
            next: 0,
            durations: Vec::new(),
            node_failures: vec![0; nodes],
            node_blacklisted: vec![false; nodes],
            done_count: 0,
            failed: None,
            interrupted: false,
            errors: vec![Vec::new(); num_tasks],
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
            t.running
                && !t.done
                && !t.speculated
                && t.started.is_some_and(|s| now.duration_since(s) > threshold)
        })
    }

    /// Whether an idle worker may still find work later: a fresh task,
    /// or (with speculation on) a task that might yet straggle.
    fn may_have_work(&self, cluster: &ClusterConfig, num_tasks: usize) -> bool {
        self.next < num_tasks
            || (cluster.speculation && self.tasks.iter().any(|t| !t.done && !t.speculated))
    }
}

/// The checkpoint store one stage of [`run_task_pool`] restores from,
/// persists to and dead-letters into; absent for non-durable jobs.
struct StageDurability<'a> {
    store: &'a CheckpointStore,
    /// The dead-letter queue as it stood when the job started.
    dlq: &'a [DlqEntry],
    /// Shuffle fingerprint the stage's task records carry (0 for map).
    shuffle_fp: u64,
}

/// Why a stage stopped early.
enum StageFailure {
    /// A task exhausted its retries (non-durable jobs only).
    Task(usize),
    /// The `interrupt_after` kill switch fired after this many
    /// completions.
    Interrupted(usize),
}

/// Runs tasks from a shared queue on a bounded host thread pool with
/// Hadoop-style recovery tactics:
///
/// * failed attempts (panics, injected faults, lost-node placements) are
///   retried up to `cluster.max_task_retries` times with exponential
///   backoff between attempts;
/// * long-running attempts are speculatively re-executed by idle
///   workers; the first successful attempt commits the result and the
///   loser's output is discarded (the losing thread itself runs to
///   completion — host threads cannot be killed);
/// * nodes accumulating `cluster.blacklist_after` attempt failures are
///   blacklisted and receive no further placements.
///
/// With `durability` attached, checkpointed tasks are skipped, fresh
/// completions are persisted before they become visible, and a task
/// that exhausts its retries is diverted to the dead-letter queue
/// (its slot stays `None`) instead of failing the stage.
///
/// Returns per-task `(duration_of_winning_attempt, result)` — `None`
/// only for diverted tasks — or a [`StageFailure`].
fn run_task_pool<T, F>(
    stage: &'static str,
    obs: &Obs,
    num_tasks: usize,
    cluster: &ClusterConfig,
    counters: &PoolCounters,
    durability: Option<StageDurability<'_>>,
    run: F,
) -> Result<Vec<Option<(Duration, T)>>, StageFailure>
where
    T: Send + Durable,
    F: Fn(usize, usize) -> T + Sync,
{
    if num_tasks == 0 {
        return Ok(Vec::new());
    }
    let mut initial: Vec<Option<(Duration, T)>> = (0..num_tasks).map(|_| None).collect();
    let mut sched0 = Sched::new(num_tasks, cluster.nodes);
    // Tasks being re-driven from the DLQ this run; a win resolves their
    // queue entry.
    let mut redriven = vec![false; num_tasks];
    if let Some(d) = &durability {
        let mut skips = 0u64;
        for t in 0..num_tasks {
            match d.dlq.iter().find(|e| e.stage == stage && e.task == t) {
                // Dead-lettered and not redriven: scheduled as done,
                // contributes nothing.
                Some(e) if !e.redrive => {}
                entry => {
                    redriven[t] = entry.is_some();
                    // Restored from the checkpoint: seeded as done, never
                    // re-executed.
                    let Some(v) = d.store.load_task(stage, t, d.shuffle_fp) else {
                        continue;
                    };
                    initial[t] = Some(v);
                    skips += 1;
                }
            }
            sched0.tasks[t].done = true;
            sched0.done_count += 1;
        }
        if skips > 0 {
            counters
                .checkpoint_skips
                .fetch_add(skips, Ordering::Relaxed);
            obs.counter(
                names::MAPREDUCE_CHECKPOINT_SKIP,
                skips,
                &[("stage", Value::from(stage))],
            );
        }
    }
    let results: Mutex<Vec<Option<(Duration, T)>>> = Mutex::new(initial);
    let sched = Mutex::new(sched0);
    let retries = cluster.max_task_retries;
    let fault = cluster.fault.filter(|p| p.is_active());
    let interrupt_after = cluster.fault.as_ref().map_or(0, |p| p.interrupt_after);
    let redriven = &redriven;
    let durability = &durability;

    // Executes one attempt: applies the fault plan's decision for this
    // (stage, task, attempt, node), then runs the closure under
    // catch_unwind. The injected straggle sleep counts toward the
    // attempt's duration — that is what makes a straggler look slow.
    let execute =
        |task: usize, attempt: usize, node: usize| -> Result<(Duration, T), AttemptError> {
            let start = Instant::now();
            if let Some(plan) = &fault {
                if plan.node_lost(node) {
                    return Err(AttemptError::NodeLost);
                }
                match plan.decide(stage, task, attempt) {
                    TaskFault::Panic => return Err(AttemptError::Panic),
                    TaskFault::Straggle(d) => std::thread::sleep(d),
                    // BlockRead is injected at the blockstore read inside
                    // the map closure, where the block index is known.
                    TaskFault::None | TaskFault::BlockRead => {}
                }
            }
            match catch_unwind(AssertUnwindSafe(|| run(task, attempt))) {
                Ok(v) => Ok((start.elapsed(), v)),
                Err(payload) => Err(if payload.downcast_ref::<BlockReadError>().is_some() {
                    AttemptError::BlockRead
                } else {
                    AttemptError::Panic
                }),
            }
        };

    // Commits a successful attempt. First writer wins; a losing
    // speculative (or primary) attempt's output is discarded. For a
    // durable stage the record is persisted under the scheduler lock,
    // before the completion becomes visible — a crash right after a
    // commit always finds the commit on disk.
    let commit = |task: usize, spec: bool, dur: Duration, value: T| {
        let mut won = false;
        let mut resolved = false;
        {
            let mut s = lock_recover(&sched);
            s.durations.push(dur);
            if !spec {
                s.tasks[task].running = false;
            }
            if !s.tasks[task].done {
                s.tasks[task].done = true;
                won = true;
                s.done_count += 1;
                if let Some(d) = durability {
                    d.store.save_task(stage, task, d.shuffle_fp, dur, &value);
                    counters.checkpoint_writes.fetch_add(1, Ordering::Relaxed);
                    if redriven[task] {
                        d.store.dlq_resolve(stage, task);
                        counters.dlq_redriven.fetch_add(1, Ordering::Relaxed);
                        resolved = true;
                    }
                }
                lock_recover(&results)[task] = Some((dur, value));
                let fresh = counters.fresh_completions.fetch_add(1, Ordering::Relaxed) + 1;
                if interrupt_after > 0 && fresh >= interrupt_after {
                    s.interrupted = true;
                }
            }
        }
        if won && spec {
            counters.speculative_won.fetch_add(1, Ordering::Relaxed);
        }
        if won && durability.is_some() {
            obs.counter(
                names::MAPREDUCE_CHECKPOINT_WRITE,
                1,
                &[("stage", Value::from(stage)), ("task", Value::from(task))],
            );
        }
        if resolved {
            obs.counter(
                names::MAPREDUCE_DLQ_REDRIVEN,
                1,
                &[("stage", Value::from(stage)), ("task", Value::from(task))],
            );
        }
    };

    // Books a failed attempt: attributes it to its node (blacklisting
    // the node once it accumulates enough failures) and emits the retry
    // telemetry. Returns whether the task is already done (a sibling
    // attempt won while this one was failing).
    let book_failure =
        |task: usize, attempt: usize, spec: bool, node: usize, err: &AttemptError| -> bool {
            counters.retries.fetch_add(1, Ordering::Relaxed);
            if matches!(err, AttemptError::BlockRead) {
                counters.block_read_errors.fetch_add(1, Ordering::Relaxed);
            }
            let (done, newly_blacklisted) = {
                let mut s = lock_recover(&sched);
                let already_done = s.tasks[task].done;
                let mut newly = false;
                // First-writer-wins accounting: an attempt that loses to an
                // already-committed sibling (a primary finishing after its
                // speculative twin won, or vice versa) says nothing about
                // node health — its failure must not push the node toward
                // the blacklist, and the task's history is already settled.
                if !already_done {
                    s.node_failures[node] += 1;
                    newly = cluster.blacklist_after > 0
                        && !s.node_blacklisted[node]
                        && s.node_failures[node] >= cluster.blacklist_after;
                    if newly {
                        s.node_blacklisted[node] = true;
                    }
                    let what = match err {
                        AttemptError::NodeLost => "node lost",
                        AttemptError::Panic => "panic",
                        AttemptError::BlockRead => "block read error",
                    };
                    let desc = if spec {
                        format!("speculative attempt on node {node}: {what}")
                    } else {
                        format!("attempt {attempt} on node {node}: {what}")
                    };
                    s.errors[task].push(desc);
                }
                let st = &mut s.tasks[task];
                if !spec {
                    st.running = false;
                }
                (already_done, newly)
            };
            if newly_blacklisted {
                counters.nodes_blacklisted.fetch_add(1, Ordering::Relaxed);
                obs.counter(
                    names::MAPREDUCE_NODE_BLACKLISTED,
                    1,
                    &[("stage", Value::from(stage)), ("node", Value::from(node))],
                );
            }
            obs.counter(
                names::MAPREDUCE_TASK_RETRY,
                1,
                &[("stage", Value::from(stage)), ("task", Value::from(task))],
            );
            done
        };

    let threads = cluster.effective_host_threads().max(1).min(num_tasks);
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(scope.spawn(|| {
                'acquire: loop {
                    // Acquire work under the scheduler lock: a fresh
                    // task, a straggler to speculate on, or nothing yet.
                    let (task, mut attempt, spec, mut node);
                    {
                        let mut s = lock_recover(&sched);
                        // The job already failed, was interrupted, or
                        // finished: stop.
                        if s.failed.is_some() || s.interrupted || s.done_count == num_tasks {
                            return;
                        }
                        // Skip slots seeded as done (restored from the
                        // checkpoint or parked in the DLQ).
                        while s.next < num_tasks && s.tasks[s.next].done {
                            s.next += 1;
                        }
                        if s.next < num_tasks {
                            task = s.next;
                            s.next += 1;
                            attempt = s.tasks[task].attempts;
                            spec = false;
                            let st = &mut s.tasks[task];
                            st.attempts += 1;
                            st.running = true;
                            st.started = Some(Instant::now());
                            node = s.pick_node(task, attempt);
                        } else if let Some(t) = s.straggler(cluster, Instant::now()) {
                            task = t;
                            attempt = SPECULATIVE_ATTEMPT;
                            spec = true;
                            s.tasks[task].speculated = true;
                            node = s.pick_node(task, attempt);
                        } else if !s.may_have_work(cluster, num_tasks) {
                            return;
                        } else {
                            drop(s);
                            std::thread::sleep(Duration::from_micros(200));
                            continue 'acquire;
                        }
                    }
                    if spec {
                        counters
                            .speculative_launched
                            .fetch_add(1, Ordering::Relaxed);
                        obs.counter(
                            names::MAPREDUCE_TASK_SPECULATIVE,
                            1,
                            &[("stage", Value::from(stage)), ("task", Value::from(task))],
                        );
                    }

                    // Drive the attempt — and, for a primary, its retry
                    // loop — to completion.
                    loop {
                        match execute(task, attempt, node) {
                            Ok((dur, value)) => {
                                commit(task, spec, dur, value);
                                continue 'acquire;
                            }
                            Err(err) => {
                                let done = book_failure(task, attempt, spec, node, &err);
                                // A speculative loser never retries and
                                // never fails the job; a primary whose
                                // speculative sibling already won is
                                // likewise finished.
                                if spec || done {
                                    continue 'acquire;
                                }
                                let failures = {
                                    let mut s = lock_recover(&sched);
                                    s.tasks[task].failures += 1;
                                    let failures = s.tasks[task].failures;
                                    if failures > retries {
                                        if let Some(d) = durability {
                                            // Durable job: divert the
                                            // exhausted task to the DLQ
                                            // and keep the job going.
                                            if !s.tasks[task].done {
                                                s.tasks[task].done = true;
                                                s.tasks[task].running = false;
                                                s.done_count += 1;
                                                let errors = std::mem::take(&mut s.errors[task]);
                                                drop(s);
                                                d.store.dlq_divert(DlqEntry {
                                                    stage: stage.to_string(),
                                                    task,
                                                    attempts: failures,
                                                    errors,
                                                    fault_seed: cluster.fault.map(|f| f.seed),
                                                    redrive: false,
                                                });
                                                counters
                                                    .dlq_diverted
                                                    .fetch_add(1, Ordering::Relaxed);
                                                obs.counter(
                                                    names::MAPREDUCE_DLQ_DIVERTED,
                                                    1,
                                                    &[
                                                        ("stage", Value::from(stage)),
                                                        ("task", Value::from(task)),
                                                    ],
                                                );
                                            }
                                            continue 'acquire;
                                        }
                                        s.failed = Some(task);
                                        return;
                                    }
                                    failures
                                };
                                // Exponential backoff before the retry.
                                if cluster.retry_backoff_ms > 0 {
                                    let ms = (cluster.retry_backoff_ms << (failures - 1).min(6))
                                        .min(ClusterConfig::MAX_BACKOFF_MS);
                                    let backoff = Duration::from_millis(ms);
                                    std::thread::sleep(backoff);
                                    counters
                                        .backoff_nanos
                                        .fetch_add(backoff.as_nanos() as u64, Ordering::Relaxed);
                                    obs.observe(
                                        names::MAPREDUCE_TASK_BACKOFF,
                                        backoff.as_secs_f64() * 1e3,
                                        &[
                                            ("stage", Value::from(stage)),
                                            ("task", Value::from(task)),
                                        ],
                                    );
                                }
                                // Re-check before the retry: the job may
                                // have failed elsewhere, or a speculative
                                // sibling may have finished this task
                                // during the backoff.
                                let mut s = lock_recover(&sched);
                                if s.failed.is_some() || s.interrupted {
                                    return;
                                }
                                if s.tasks[task].done {
                                    continue 'acquire;
                                }
                                attempt = s.tasks[task].attempts;
                                let st = &mut s.tasks[task];
                                st.attempts += 1;
                                st.running = true;
                                st.started = Some(Instant::now());
                                node = s.pick_node(task, attempt);
                            }
                        }
                    }
                }
            }));
        }
        // Join every worker before the stage returns. The scope alone
        // waits only for the closures, so a worker's OS thread could still
        // be exiting, holding its malloc arena, when the next stage spawns
        // its threads; those would then open fresh arenas, and how much
        // memory the process keeps would depend on thread timing.
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let (failed, interrupted, done_count) = {
        let s = lock_recover(&sched);
        (s.failed, s.interrupted, s.done_count)
    };
    if let Some(t) = failed {
        return Err(StageFailure::Task(t));
    }
    if interrupted {
        return Err(StageFailure::Interrupted(done_count));
    }
    Ok(results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// One stage-2 task's persisted payload: the reducer outputs plus the
/// per-key-group timings.
type ReducePayload<K, O> = (Vec<O>, Vec<(K, Duration)>);

/// Maps a [`StageFailure`] to the job-level error.
fn stage_error(stage: &'static str, failure: StageFailure, cluster: &ClusterConfig) -> JobError {
    match failure {
        StageFailure::Task(task) => JobError::TaskFailed {
            stage,
            task,
            attempts: cluster.max_task_retries + 1,
        },
        StageFailure::Interrupted(completed) => JobError::Interrupted { stage, completed },
    }
}

/// A run of intermediate records: one map task's emissions, or the part
/// of them bound for one reducer.
type Records<K, V> = Vec<(K, V)>;

/// One reducer's materialised shuffle input: its records stably sorted
/// by key, then parted into the key of each group and the values alone,
/// so a reduce task hands out `&values[start..end]` per group.
struct ReducerInput<K, V> {
    /// `(key, index of the group's first value)`, ascending by key.
    groups: Vec<(K, usize)>,
    values: Vec<V>,
}

impl<K: Ord, V> ReducerInput<K, V> {
    /// Concatenates one reducer's chunks in map-task order and sorts
    /// them stably by key: the record sequence a serial walk over the
    /// map outputs would have produced.
    fn merge(chunks: Vec<Records<K, V>>) -> Self {
        let mut records = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for mut chunk in chunks {
            records.append(&mut chunk);
        }
        records.sort_by(|a, b| a.0.cmp(&b.0));
        let mut groups: Vec<(K, usize)> = Vec::new();
        let mut values = Vec::with_capacity(records.len());
        for (key, value) in records {
            if groups.last().is_none_or(|(last, _)| *last != key) {
                groups.push((key, values.len()));
            }
            values.push(value);
        }
        ReducerInput { groups, values }
    }

    /// The value slice of group `g`.
    fn group(&self, g: usize) -> &[V] {
        let end = self
            .groups
            .get(g + 1)
            .map_or(self.values.len(), |next| next.1);
        &self.values[self.groups[g].1..end]
    }
}

/// Runs `f(item)` for every item on up to `threads` scoped host
/// threads (inline when one suffices) and returns the results in item
/// order, whichever thread ran them. A panic in `f` resumes on the
/// caller.
fn on_host_threads<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = lock_recover(&queue).next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| match worker.join() {
                Ok(done) => done,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// Executes one MapReduce job.
///
/// Every job's keys, values and outputs are [`Durable`], so any job can
/// run against a checkpoint store; a resumed run is bit-identical to an
/// uninterrupted one.
///
/// # Errors
/// [`JobError::TaskFailed`] when a task exhausts its retry budget (with a
/// checkpoint store the task diverts to the dead-letter queue instead),
/// [`JobError::NoReducers`] when records were emitted but
/// `num_reducers == 0`, [`JobError::Interrupted`] for a deliberate
/// mid-stage abort and [`JobError::Checkpoint`] when the store could not
/// persist its state.
pub fn run<M, R>(
    cluster: &ClusterConfig,
    input: &BlockStore<M::In>,
    mapper: &M,
    reducer: &R,
    partitioner: &Partitioner<M::K>,
    num_reducers: usize,
    options: JobOptions<'_, M::K, M::V>,
) -> Result<JobOutput<M::K, R::Out>, JobError>
where
    M: Mapper,
    M::In: EstimateSize,
    M::K: Sync + Durable,
    M::V: Sync + Durable,
    R: Reducer<M::K, M::V>,
    R::Out: Durable,
{
    let job_start = Instant::now();
    let counters = PoolCounters::default();
    let JobOptions {
        obs,
        combiner,
        checkpoint,
    } = options;
    let obs = &obs;
    let dlq = checkpoint
        .map(CheckpointStore::dlq_snapshot)
        .unwrap_or_default();
    let durability = |shuffle_fp| {
        checkpoint.map(|store| StageDurability {
            store,
            dlq: &dlq,
            shuffle_fp,
        })
    };

    // Simulated I/O charge per byte (zero when disabled).
    let io_secs_per_byte = if cluster.io_bytes_per_sec > 0 {
        1.0 / cluster.io_bytes_per_sec as f64
    } else {
        0.0
    };
    let io_charge = |bytes: u64| Duration::from_secs_f64(bytes as f64 * io_secs_per_byte);

    // ---- Map stage: one task per input block. ----
    let num_map_tasks = input.num_blocks();
    let map_stage = obs.scope(names::MAPREDUCE_STAGE).with_label("stage", "map");
    let map_results = run_task_pool(
        "map",
        obs,
        num_map_tasks,
        cluster,
        &counters,
        durability(0),
        |t, attempt| {
            // A transiently-failing block read aborts the attempt; the
            // pool books it as a task failure and retries, drawing a
            // fresh (usually clean) read decision.
            let block = match input.try_block(t, cluster.fault.as_ref(), attempt) {
                Ok(block) => block,
                Err(err) => std::panic::panic_any(err),
            };
            let mut out: Vec<(M::K, M::V)> = Vec::new();
            for item in block.iter() {
                mapper.map(item, &mut |k, v| out.push((k, v)));
            }
            if let Some(c) = combiner {
                out = apply_combiner(c, out);
            }
            out
        },
    )
    .map_err(|f| stage_error("map", f, cluster))?;

    // Charge each map task the simulated read of its input block.
    // Diverted (dead-lettered) tasks have no winning attempt and
    // contribute zero time.
    let map_task_times: Vec<Duration> = map_results
        .iter()
        .enumerate()
        .map(|(t, r)| match r {
            // Pricing a block walks every item of it: only when the
            // charge is not multiplied by zero.
            Some((d, _)) if cluster.io_bytes_per_sec > 0 => {
                let block_bytes: u64 = input
                    .block(t)
                    .iter()
                    .map(|x| x.estimated_bytes() as u64)
                    .sum();
                *d + io_charge(block_bytes)
            }
            Some((d, _)) => *d,
            None => Duration::ZERO,
        })
        .collect();
    drop(map_stage);
    for (t, d) in map_task_times.iter().enumerate() {
        if map_results[t].is_none() {
            continue;
        }
        obs.record_duration(
            names::MAPREDUCE_TASK,
            *d,
            &[("stage", Value::from("map")), ("task", Value::from(t))],
        );
    }
    let map_diverted = map_results.iter().filter(|r| r.is_none()).count();
    // Fingerprint of which map tasks fed the shuffle: reduce checkpoint
    // records carry it, so reduce state persisted against a *different*
    // map completion set (e.g. before a DLQ redrive filled a hole) is
    // invalidated instead of silently reused.
    let shuffle_fp = fingerprint_u64s(
        map_results
            .iter()
            .enumerate()
            .filter_map(|(t, r)| r.as_ref().map(|_| t as u64)),
    );

    // ---- Shuffle, on the host threads: split every map output by
    // reducer, then merge each reducer's chunks in map-task order and
    // sort them stably by key. A bucket's record sequence depends on
    // the map outputs alone, never on which thread moved what. ----
    let shuffle_stage = obs
        .scope(names::MAPREDUCE_STAGE)
        .with_label("stage", "shuffle");
    let map_outputs: Vec<Records<M::K, M::V>> = map_results
        .into_iter()
        .flatten()
        .map(|(_, records)| records)
        .collect();
    if num_reducers == 0 && map_outputs.iter().any(|records| !records.is_empty()) {
        return Err(JobError::NoReducers);
    }
    let host_threads = cluster.effective_host_threads();
    let splits = on_host_threads(host_threads, map_outputs, |records| {
        let mut chunks: Vec<Records<M::K, M::V>> = (0..num_reducers).map(|_| Vec::new()).collect();
        let mut bytes = vec![0u64; num_reducers];
        for (k, v) in records {
            let r = partitioner(&k, num_reducers).min(num_reducers - 1);
            bytes[r] += mapper.record_bytes(&k, &v) as u64;
            chunks[r].push((k, v));
        }
        (chunks, bytes)
    });
    let mut reducer_bytes = vec![0u64; num_reducers];
    let mut reducer_chunks: Vec<Vec<Records<M::K, M::V>>> =
        (0..num_reducers).map(|_| Vec::new()).collect();
    for (chunks, bytes) in splits {
        for (r, chunk) in chunks.into_iter().enumerate() {
            reducer_bytes[r] += bytes[r];
            reducer_chunks[r].push(chunk);
        }
    }
    let buckets = on_host_threads(host_threads, reducer_chunks, ReducerInput::merge);
    let shuffle_records: u64 = buckets.iter().map(|b| b.values.len() as u64).sum();
    let shuffle_bytes: u64 = reducer_bytes.iter().sum();
    drop(shuffle_stage);
    obs.counter(names::MAPREDUCE_SHUFFLE_RECORDS, shuffle_records, &[]);
    obs.counter(names::MAPREDUCE_SHUFFLE_BYTES, shuffle_bytes, &[]);
    if obs.enabled() {
        for (r, bytes) in reducer_bytes.iter().enumerate() {
            obs.observe(
                names::MAPREDUCE_SHUFFLE_REDUCER_BYTES,
                *bytes as f64,
                &[("reducer", Value::from(r))],
            );
            obs.observe(
                names::MAPREDUCE_SHUFFLE_REDUCER_RECORDS,
                buckets[r].values.len() as f64,
                &[("reducer", Value::from(r))],
            );
        }
    }

    // ---- Reduce stage: one task per reducer. ----
    // Buckets stay in place across task attempts (the in-memory analog of
    // Hadoop's materialized shuffle output), so a retried reduce task
    // re-reads its full input; each group is lent to the reducer.
    let reduce_stage = obs
        .scope(names::MAPREDUCE_STAGE)
        .with_label("stage", "reduce");
    type ReduceResult<O, K> = Option<(Duration, ReducePayload<K, O>)>;
    let reduce_results: Vec<ReduceResult<R::Out, M::K>> = run_task_pool(
        "reduce",
        obs,
        num_reducers,
        cluster,
        &counters,
        durability(shuffle_fp),
        |t, _attempt| {
            let bucket = &buckets[t];
            let mut outputs = Vec::new();
            let mut key_times = Vec::with_capacity(bucket.groups.len());
            for (g, (key, _)) in bucket.groups.iter().enumerate() {
                let key_start = Instant::now();
                reducer.reduce(key, bucket.group(g), &mut |o| outputs.push(o));
                key_times.push((key.clone(), key_start.elapsed()));
            }
            (outputs, key_times)
        },
    )
    .map_err(|f| stage_error("reduce", f, cluster))?;

    // Charge each reduce task the simulated fetch of its shuffle input.
    let reduce_task_times: Vec<Duration> = reduce_results
        .iter()
        .enumerate()
        .map(|(t, r)| match r {
            Some((d, _)) => *d + io_charge(reducer_bytes[t]),
            None => Duration::ZERO,
        })
        .collect();
    drop(reduce_stage);
    for (t, d) in reduce_task_times.iter().enumerate() {
        if reduce_results[t].is_none() {
            continue;
        }
        obs.record_duration(
            names::MAPREDUCE_TASK,
            *d,
            &[("stage", Value::from("reduce")), ("task", Value::from(t))],
        );
    }
    let reduce_diverted = reduce_results.iter().filter(|r| r.is_none()).count();
    let mut outputs = Vec::new();
    let mut key_times = Vec::new();
    for r in reduce_results {
        let Some((_, (outs, times))) = r else {
            continue;
        };
        outputs.extend(outs);
        key_times.extend(times);
    }

    let placements: Vec<Vec<usize>> = (0..num_map_tasks)
        .map(|b| input.placement(b, cluster.nodes))
        .collect();
    let map_schedule = crate::metrics::locality_makespan(
        &map_task_times,
        cluster.nodes,
        cluster.map_slots_per_node,
        &placements,
    );
    obs.mark(
        names::MAPREDUCE_LOCALITY,
        &[
            ("stage", Value::from("map")),
            ("local_fraction", Value::from(map_schedule.local_fraction)),
            ("nodes", Value::from(cluster.nodes)),
        ],
    );
    let metrics = JobMetrics {
        map_makespan: map_schedule.makespan,
        map_locality: map_schedule.local_fraction,
        reduce_makespan: makespan(&reduce_task_times, cluster.reduce_lanes()),
        map_task_times,
        reduce_task_times,
        shuffle_records,
        shuffle_bytes,
        host_wall: job_start.elapsed(),
        task_retries: counters.retries.load(Ordering::Relaxed),
        speculative_launched: counters.speculative_launched.load(Ordering::Relaxed),
        speculative_won: counters.speculative_won.load(Ordering::Relaxed),
        nodes_blacklisted: counters.nodes_blacklisted.load(Ordering::Relaxed),
        block_read_errors: counters.block_read_errors.load(Ordering::Relaxed),
        backoff_total: Duration::from_nanos(counters.backoff_nanos.load(Ordering::Relaxed)),
        checkpoint_writes: counters.checkpoint_writes.load(Ordering::Relaxed),
        checkpoint_skips: counters.checkpoint_skips.load(Ordering::Relaxed),
        dlq_diverted: counters.dlq_diverted.load(Ordering::Relaxed),
        dlq_redriven: counters.dlq_redriven.load(Ordering::Relaxed),
    };
    // A durable run that could not persist its state must not report
    // success — the next resume would silently redo (or worse, skip)
    // work. Surface the first latched write error as a typed failure.
    if let Some(detail) = checkpoint.and_then(CheckpointStore::take_write_error) {
        return Err(JobError::Checkpoint(detail));
    }
    let diverted = map_diverted + reduce_diverted;
    let outcome = if diverted > 0 {
        JobOutcome::PartialWithDlq { diverted }
    } else {
        JobOutcome::Complete
    };
    Ok(JobOutput {
        outputs,
        metrics,
        key_times,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Classic word-count over integer "words".
    struct CountMapper;
    impl Mapper for CountMapper {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
            emit(*item, 1);
        }
    }

    struct SumReducer;
    impl Reducer<u32, u64> for SumReducer {
        type Out = (u32, u64);
        fn reduce(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut((u32, u64))) {
            emit((*key, values.iter().sum()));
        }
    }

    fn hash_partitioner(k: &u32, n: usize) -> usize {
        (*k as usize) % n
    }

    /// The word count of [`CountMapper`] and [`SumReducer`], with default
    /// options.
    fn word_count(
        cluster: &ClusterConfig,
        store: &BlockStore<u32>,
        reducers: usize,
    ) -> Result<JobOutput<u32, (u32, u64)>, JobError> {
        run(
            cluster,
            store,
            &CountMapper,
            &SumReducer,
            &hash_partitioner,
            reducers,
            JobOptions::default(),
        )
    }

    #[test]
    fn word_count_end_to_end() {
        let items = vec![1u32, 2, 1, 3, 2, 1];
        let store = BlockStore::from_items(items, 2, 1);
        let cluster = ClusterConfig::new(2).with_host_threads(2);
        let out = word_count(&cluster, &store, 3).unwrap();
        let mut counts = out.outputs;
        counts.sort();
        assert_eq!(counts, vec![(1, 3), (2, 2), (3, 1)]);
        assert_eq!(out.metrics.shuffle_records, 6);
        assert_eq!(out.metrics.shuffle_bytes, 6 * 12);
        assert_eq!(out.metrics.map_task_times.len(), 3);
        assert_eq!(out.metrics.reduce_task_times.len(), 3);
        assert_eq!(out.metrics.task_retries, 0);
    }

    #[test]
    fn empty_input_runs() {
        let store: BlockStore<u32> = BlockStore::from_items(vec![], 4, 1);
        let cluster = ClusterConfig::new(1);
        let out = word_count(&cluster, &store, 2).unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.metrics.shuffle_records, 0);
    }

    #[test]
    fn key_times_cover_every_group() {
        let store = BlockStore::from_items(vec![5u32, 5, 7, 9], 2, 1);
        let out = word_count(&ClusterConfig::new(1), &store, 2).unwrap();
        let mut keys: Vec<u32> = out.key_times.iter().map(|(k, _)| *k).collect();
        keys.sort();
        assert_eq!(keys, vec![5, 7, 9]);
    }

    #[test]
    fn single_reducer_receives_everything_sorted() {
        struct EchoReducer;
        impl Reducer<u32, u64> for EchoReducer {
            type Out = u32;
            fn reduce(&self, key: &u32, _v: &[u64], emit: &mut dyn FnMut(u32)) {
                emit(*key);
            }
        }
        let store = BlockStore::from_items(vec![9u32, 3, 7, 1], 1, 1);
        let out = run(
            &ClusterConfig::new(1),
            &store,
            &CountMapper,
            &EchoReducer,
            &hash_partitioner,
            1,
            JobOptions::default(),
        )
        .unwrap();
        assert_eq!(out.outputs, vec![1, 3, 7, 9]);
    }

    /// Mapper that panics once on a chosen item, then succeeds — exercises
    /// the retry path.
    struct FlakyMapper {
        tripped: AtomicBool,
    }
    impl Mapper for FlakyMapper {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
            if *item == 13 && !self.tripped.swap(true, Ordering::SeqCst) {
                panic!("injected failure");
            }
            emit(*item, 1);
        }
    }

    #[test]
    fn injected_failure_is_retried() {
        let store = BlockStore::from_items(vec![13u32, 1, 2], 1, 1);
        let cluster = ClusterConfig::new(1).with_retries(2).with_host_threads(1);
        let out = run(
            &cluster,
            &store,
            &FlakyMapper {
                tripped: AtomicBool::new(false),
            },
            &SumReducer,
            &hash_partitioner,
            2,
            JobOptions::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.task_retries, 1);
        let mut counts = out.outputs;
        counts.sort();
        assert_eq!(counts, vec![(1, 1), (2, 1), (13, 1)]);
    }

    /// Mapper that always panics on one item — the job must fail cleanly.
    struct BrokenMapper;
    impl Mapper for BrokenMapper {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, _emit: &mut dyn FnMut(u32, u64)) {
            if *item == 13 {
                panic!("always broken");
            }
        }
    }

    #[test]
    fn exhausted_retries_fail_the_job() {
        let store = BlockStore::from_items(vec![13u32], 1, 1);
        let cluster = ClusterConfig::new(1).with_retries(1).with_host_threads(1);
        let err = run(
            &cluster,
            &store,
            &BrokenMapper,
            &SumReducer,
            &hash_partitioner,
            1,
            JobOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            JobError::TaskFailed {
                stage: "map",
                task: 0,
                attempts: 2
            }
        );
    }

    /// Reducer that panics on its first invocation for key 5 — verifies
    /// that a retried reduce task still sees its full input.
    struct FlakyReducer {
        tripped: AtomicBool,
    }
    impl Reducer<u32, u64> for FlakyReducer {
        type Out = (u32, u64);
        fn reduce(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut((u32, u64))) {
            if *key == 5 && !self.tripped.swap(true, Ordering::SeqCst) {
                panic!("injected reduce failure");
            }
            emit((*key, values.iter().sum()));
        }
    }

    #[test]
    fn reduce_retry_does_not_lose_input() {
        let store = BlockStore::from_items(vec![5u32, 5, 6, 7], 2, 1);
        let cluster = ClusterConfig::new(1).with_retries(2).with_host_threads(1);
        let out = run(
            &cluster,
            &store,
            &CountMapper,
            &FlakyReducer {
                tripped: AtomicBool::new(false),
            },
            &|_k, _n| 0usize,
            1,
            JobOptions::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.task_retries, 1);
        let mut counts = out.outputs;
        counts.sort();
        assert_eq!(counts, vec![(5, 2), (6, 1), (7, 1)]);
    }

    #[test]
    fn io_charging_inflates_simulated_makespans_only() {
        let items: Vec<u32> = (0..100).collect();
        let store = BlockStore::from_items(items, 10, 1);
        let cluster = ClusterConfig::new(2);
        let plain = word_count(&cluster, &store, 2).unwrap();
        // 10 blocks x 10 items x 4 bytes at 400 B/s = 100 ms simulated
        // read per block; shuffle records are 12 bytes each.
        let slow_io = cluster.with_io_bandwidth(400);
        let charged = word_count(&slow_io, &store, 2).unwrap();
        let mut a = plain.outputs;
        let mut b = charged.outputs;
        a.sort();
        b.sort();
        assert_eq!(a, b, "results unchanged");
        // Map stage: 10 tasks x 100ms over 8 lanes -> >= 200ms.
        assert!(charged.metrics.map_makespan >= Duration::from_millis(200));
        assert!(charged.metrics.map_makespan > plain.metrics.map_makespan * 10);
        assert!(charged.metrics.reduce_makespan > plain.metrics.reduce_makespan);
        // Real execution stays fast: charging is simulation-only.
        assert!(charged.metrics.host_wall < Duration::from_secs(2));
    }

    #[test]
    fn partitioner_out_of_range_is_clamped() {
        let bad_partitioner = |_k: &u32, _n: usize| 999usize;
        let store = BlockStore::from_items(vec![1u32, 2], 1, 1);
        let out = run(
            &ClusterConfig::new(1),
            &store,
            &CountMapper,
            &SumReducer,
            &bad_partitioner,
            2,
            JobOptions::default(),
        )
        .unwrap();
        assert_eq!(out.outputs.len(), 2);
    }

    /// [`CountMapper`] with `u32` counts, the value type [`SumCombiner`]
    /// folds.
    struct CountMapper32;
    impl Mapper for CountMapper32 {
        type In = u32;
        type K = u32;
        type V = u32;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u32)) {
            emit(*item, 1);
        }
    }

    struct SumReducer32;
    impl Reducer<u32, u32> for SumReducer32 {
        type Out = (u32, u32);
        fn reduce(&self, key: &u32, values: &[u32], emit: &mut dyn FnMut((u32, u32))) {
            emit((*key, values.iter().sum()));
        }
    }

    #[test]
    fn combiner_reduces_shuffle_volume_same_result() {
        let items: Vec<u32> = (0..300).map(|i| i % 5).collect();
        let store = BlockStore::from_items(items, 50, 1);
        let cluster = ClusterConfig::new(2);
        let count = |combiner: Option<&dyn Combiner<K = u32, V = u32>>| {
            let options = JobOptions {
                combiner,
                ..JobOptions::default()
            };
            run(
                &cluster,
                &store,
                &CountMapper32,
                &SumReducer32,
                &hash_partitioner,
                3,
                options,
            )
            .unwrap()
        };
        let plain = count(None);
        let combined = count(Some(&SumCombiner::new()));
        let mut a = plain.outputs;
        let mut b = combined.outputs;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // 6 map tasks × 5 keys = 30 records instead of 300.
        assert_eq!(plain.metrics.shuffle_records, 300);
        assert_eq!(combined.metrics.shuffle_records, 30);
        assert!(combined.metrics.shuffle_bytes < plain.metrics.shuffle_bytes);
    }

    #[test]
    fn makespans_reflect_lanes() {
        // Charge simulated I/O (4 bytes at 400 B/s = 10 ms per block) so
        // per-task durations dwarf real-scheduler jitter: the comparison
        // below is then deterministic, not a race between wall clocks.
        let store = BlockStore::from_items((0..64u32).collect(), 1, 1);
        let wide = ClusterConfig::new(64)
            .with_slots(1, 1)
            .with_io_bandwidth(400);
        let narrow = ClusterConfig::new(1)
            .with_slots(1, 1)
            .with_io_bandwidth(400);
        let w = word_count(&wide, &store, 4).unwrap();
        let n = word_count(&narrow, &store, 4).unwrap();
        // One lane serializes all 64 map tasks; 64 lanes don't.
        assert!(n.metrics.map_makespan >= w.metrics.map_makespan);
        assert!(n.metrics.map_makespan >= Duration::from_millis(640));
    }

    #[test]
    fn obs_sees_every_task_and_shuffle_volume() {
        use std::sync::Arc;
        let mem = Arc::new(dod_obs::MemoryRecorder::new());
        let obs = Obs::new(mem.clone());
        let items = vec![1u32, 2, 1, 3, 2, 1];
        let store = BlockStore::from_items(items, 2, 1);
        let out = run(
            &ClusterConfig::new(2),
            &store,
            &CountMapper,
            &SumReducer,
            &hash_partitioner,
            3,
            JobOptions {
                obs,
                ..JobOptions::default()
            },
        )
        .unwrap();
        // One span per map task and per reduce task.
        let tasks = mem.events_named("mapreduce.task");
        let map_spans: Vec<_> = tasks
            .iter()
            .filter(|e| e.label("stage").and_then(Value::as_str) == Some("map"))
            .collect();
        let reduce_spans: Vec<_> = tasks
            .iter()
            .filter(|e| e.label("stage").and_then(Value::as_str) == Some("reduce"))
            .collect();
        assert_eq!(map_spans.len(), out.metrics.map_task_times.len());
        assert_eq!(reduce_spans.len(), out.metrics.reduce_task_times.len());
        // Task spans carry the same (charged) durations as the metrics.
        for (t, e) in map_spans.iter().enumerate() {
            assert_eq!(e.label("task").and_then(Value::as_u64), Some(t as u64));
            assert_eq!(
                e.span_nanos(),
                Some(out.metrics.map_task_times[t].as_nanos() as u64)
            );
        }
        // All three stages emitted a stage span.
        let stages: Vec<_> = mem
            .events_named("mapreduce.stage")
            .iter()
            .filter_map(|e| e.label("stage").and_then(Value::as_str).map(str::to_owned))
            .collect();
        assert_eq!(stages, vec!["map", "shuffle", "reduce"]);
        // Shuffle volume counters match the metrics.
        assert_eq!(
            mem.counter_total("mapreduce.shuffle.records"),
            out.metrics.shuffle_records
        );
        assert_eq!(
            mem.counter_total("mapreduce.shuffle.bytes"),
            out.metrics.shuffle_bytes
        );
        // Per-reducer histograms sum to the totals.
        let per_reducer: f64 = mem
            .observations("mapreduce.shuffle.reducer_bytes")
            .iter()
            .sum();
        assert_eq!(per_reducer as u64, out.metrics.shuffle_bytes);
        assert_eq!(mem.events_named("mapreduce.locality").len(), 1);
    }

    #[test]
    fn obs_counts_retries() {
        use std::sync::Arc;
        let mem = Arc::new(dod_obs::MemoryRecorder::new());
        let obs = Obs::new(mem.clone());
        let store = BlockStore::from_items(vec![5u32, 5, 6, 7], 2, 1);
        let cluster = ClusterConfig::new(1).with_retries(2).with_host_threads(1);
        let out = run(
            &cluster,
            &store,
            &CountMapper,
            &FlakyReducer {
                tripped: AtomicBool::new(false),
            },
            &|_k, _n| 0usize,
            1,
            JobOptions {
                obs,
                ..JobOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.metrics.task_retries, 1);
        assert_eq!(mem.counter_total("mapreduce.task.retry"), 1);
        let retry = &mem.events_named("mapreduce.task.retry")[0];
        assert_eq!(retry.label("stage").and_then(Value::as_str), Some("reduce"));
    }

    #[test]
    fn retries_sleep_exponential_backoff() {
        let store = BlockStore::from_items(vec![13u32, 1], 1, 1);
        let cluster = ClusterConfig::new(1)
            .with_retries(2)
            .with_host_threads(1)
            .with_backoff_ms(4);
        let out = run(
            &cluster,
            &store,
            &FlakyMapper {
                tripped: AtomicBool::new(false),
            },
            &SumReducer,
            &hash_partitioner,
            1,
            JobOptions::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.task_retries, 1);
        // One failure -> one backoff of the 4 ms base.
        assert!(out.metrics.backoff_total >= Duration::from_millis(4));
        assert!(out.metrics.backoff_total < Duration::from_millis(100));
    }

    /// Mapper whose first invocation on item 13 sleeps long enough to be
    /// flagged a straggler; re-executions are fast.
    struct StragglerMapper {
        tripped: AtomicBool,
    }
    impl Mapper for StragglerMapper {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
            if *item == 13 && !self.tripped.swap(true, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(250));
            }
            emit(*item, 1);
        }
    }

    #[test]
    fn straggler_is_speculatively_reexecuted() {
        // Block 0 straggles on its first attempt only; with two workers
        // the idle one must speculate and win long before the 250 ms
        // primary finishes.
        let store = BlockStore::from_items(vec![13u32, 1, 2, 3], 1, 1);
        let cluster = ClusterConfig::new(2)
            .with_host_threads(2)
            .with_speculation(10, 100);
        let out = run(
            &cluster,
            &store,
            &StragglerMapper {
                tripped: AtomicBool::new(false),
            },
            &SumReducer,
            &hash_partitioner,
            2,
            JobOptions::default(),
        )
        .unwrap();
        assert!(out.metrics.speculative_launched >= 1);
        assert!(out.metrics.speculative_won >= 1);
        let mut counts = out.outputs;
        counts.sort();
        assert_eq!(counts, vec![(1, 1), (2, 1), (3, 1), (13, 1)]);
        // The winning attempt's duration, not the straggler's, is
        // scheduled into the makespan.
        assert!(out.metrics.map_task_times[0] < Duration::from_millis(250));
    }

    #[test]
    fn lost_node_is_blacklisted_and_job_recovers() {
        let plan = crate::fault::FaultPlan::new(0).with_lost_node(1);
        let items: Vec<u32> = (0..32).collect();
        let store = BlockStore::from_items(items, 2, 1);
        let cluster = ClusterConfig::new(4)
            .with_host_threads(4)
            .with_backoff_ms(0)
            .with_blacklist_after(2)
            .with_fault(plan);
        let out = word_count(&cluster, &store, 4).unwrap();
        // Attempts landed on the lost node, failed, were re-placed, and
        // the node was eventually blacklisted.
        assert!(out.metrics.task_retries >= 2);
        assert_eq!(out.metrics.nodes_blacklisted, 1);
        assert_eq!(out.outputs.len(), 32);
    }

    #[test]
    fn certain_block_read_errors_exhaust_retries() {
        // Rate 1000‰: every map attempt's block read fails, so the job
        // must fail with the typed error after the retry budget.
        let plan = crate::fault::FaultPlan::new(9).with_block_errors(1000);
        let store = BlockStore::from_items(vec![1u32, 2], 2, 1);
        let cluster = ClusterConfig::new(2)
            .with_retries(1)
            .with_host_threads(1)
            .with_backoff_ms(0)
            .without_speculation()
            .with_fault(plan);
        let err = word_count(&cluster, &store, 1).unwrap_err();
        assert_eq!(
            err,
            JobError::TaskFailed {
                stage: "map",
                task: 0,
                attempts: 2
            }
        );
    }

    #[test]
    fn transient_block_read_errors_are_counted_and_recovered() {
        // A moderate rate with a generous retry budget: some attempts
        // fail their read, retries draw fresh decisions and succeed.
        let plan = crate::fault::FaultPlan::new(4).with_block_errors(400);
        let items: Vec<u32> = (0..64).collect();
        let store = BlockStore::from_items(items, 2, 1);
        let cluster = ClusterConfig::new(4)
            .with_retries(8)
            .with_backoff_ms(0)
            .with_fault(plan);
        let out = word_count(&cluster, &store, 4).unwrap();
        assert!(out.metrics.block_read_errors > 0);
        assert_eq!(out.metrics.block_read_errors, out.metrics.task_retries);
        assert_eq!(out.outputs.len(), 64);
    }

    #[test]
    fn chaos_panics_produce_identical_outputs_when_job_succeeds() {
        let items: Vec<u32> = (0..200).map(|i| i % 23).collect();
        let store = BlockStore::from_items(items, 5, 1);
        let clean = word_count(&ClusterConfig::new(4), &store, 4).unwrap();
        let mut expected = clean.outputs;
        expected.sort();
        for seed in 0..8u64 {
            // Panic-only plans keep the outcome deterministic (node loss
            // would couple it to cross-task timing via the blacklist).
            let plan = crate::fault::FaultPlan::new(seed).with_panics(250);
            let cluster = ClusterConfig::new(4)
                .with_retries(6)
                .with_backoff_ms(0)
                .with_fault(plan);
            let out = word_count(&cluster, &store, 4).unwrap();
            assert!(out.metrics.task_retries > 0, "seed {seed} injected nothing");
            let mut got = out.outputs;
            got.sort();
            assert_eq!(got, expected, "seed {seed} corrupted the output");
        }
    }

    /// Mapper whose first invocation on item 13 straggles long enough to
    /// be speculated on, then panics *after* the speculative sibling has
    /// committed — the regression shape for first-writer-wins
    /// accounting.
    struct StragglerThenPanicMapper {
        tripped: AtomicBool,
    }
    impl Mapper for StragglerThenPanicMapper {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
            if *item == 13 && !self.tripped.swap(true, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(250));
                panic!("late failure after sibling committed");
            }
            emit(*item, 1);
        }
    }

    #[test]
    fn loser_failing_after_commit_does_not_blacklist_its_node() {
        // blacklist_after == 1: a single *booked* failure blacklists a
        // node. The only failure in this job is the straggling primary
        // panicking long after its speculative twin committed the task —
        // which says nothing about the node, so nothing may be
        // blacklisted.
        let store = BlockStore::from_items(vec![13u32, 1, 2, 3], 1, 1);
        let cluster = ClusterConfig::new(2)
            .with_host_threads(2)
            .with_speculation(10, 100)
            .with_blacklist_after(1);
        let out = run(
            &cluster,
            &store,
            &StragglerThenPanicMapper {
                tripped: AtomicBool::new(false),
            },
            &SumReducer,
            &hash_partitioner,
            2,
            JobOptions::default(),
        )
        .unwrap();
        assert!(out.metrics.speculative_won >= 1);
        assert_eq!(
            out.metrics.nodes_blacklisted, 0,
            "a post-commit loser failure was booked against its node"
        );
        let mut counts = out.outputs;
        counts.sort();
        assert_eq!(counts, vec![(1, 1), (2, 1), (3, 1), (13, 1)]);
    }

    fn ckpt_root(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mapreduce-job-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn job_fp(map_tasks: usize, reducers: usize) -> crate::checkpoint::JobFingerprint {
        crate::checkpoint::JobFingerprint {
            map_tasks,
            reducers,
            tag: "test".to_string(),
        }
    }

    /// Kills a durable job after three fresh task completions, resumes it
    /// from its checkpoint, and compares the outputs with a clean run of
    /// the same job.
    fn kill_and_resume<M, R>(
        name: &str,
        mapper: &M,
        reducer: &R,
        combiner: Option<&dyn Combiner<K = u32, V = M::V>>,
    ) where
        M: Mapper<In = u32, K = u32>,
        M::V: Sync + Durable,
        R: Reducer<u32, M::V>,
        R::Out: Durable + PartialEq + std::fmt::Debug,
    {
        // Eight map tasks of six items over four keys: a combiner folds
        // every task's output down to four records.
        let items: Vec<u32> = (0..48).map(|i| i % 4).collect();
        let store = BlockStore::from_items(items, 6, 1);
        let job = |cluster: &ClusterConfig, checkpoint| {
            let options = JobOptions {
                combiner,
                checkpoint,
                ..JobOptions::default()
            };
            run(
                cluster,
                &store,
                mapper,
                reducer,
                &hash_partitioner,
                3,
                options,
            )
        };
        let clean = job(&ClusterConfig::new(2), None).unwrap();

        let root = ckpt_root(name);
        let fp = job_fp(store.num_blocks(), 3);
        let ck = CheckpointStore::open(&root, name, &fp).unwrap();
        let interrupting = ClusterConfig::new(2)
            .with_fault(crate::fault::FaultPlan::new(0).with_interrupt_after(3));
        let err = job(&interrupting, Some(&ck)).unwrap_err();
        assert!(
            matches!(err, JobError::Interrupted { completed, .. } if completed >= 3),
            "unexpected error: {err}"
        );

        let ck = CheckpointStore::open(&root, name, &fp).unwrap();
        assert_eq!(
            ck.resume_state(),
            &crate::checkpoint::ResumeState::Resumable
        );
        let resumed = job(&ClusterConfig::new(2), Some(&ck)).unwrap();
        assert_eq!(resumed.outcome, JobOutcome::Complete);
        assert!(
            resumed.metrics.checkpoint_skips >= 3,
            "completed tasks were re-executed: {} skips",
            resumed.metrics.checkpoint_skips
        );
        assert_eq!(resumed.outputs, clean.outputs, "resume changed the output");
        assert_eq!(
            resumed.metrics.shuffle_records, clean.metrics.shuffle_records,
            "resume changed the shuffle"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_durable_job_resumes_bit_identical() {
        kill_and_resume("wordcount", &CountMapper, &SumReducer, None);
        // A combiner and a checkpoint together, as Domain's verify job
        // runs them: the persisted map records are the combined ones.
        kill_and_resume(
            "wordcount-combined",
            &CountMapper32,
            &SumReducer32,
            Some(&SumCombiner::new()),
        );
    }

    /// Emits like [`CountMapper`] but always panics on item 13 — a
    /// permanent fault until "fixed" by swapping the mapper.
    struct BrokenOnThirteen;
    impl Mapper for BrokenOnThirteen {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
            if *item == 13 {
                panic!("permanently broken");
            }
            emit(*item, 1);
        }
    }

    #[test]
    fn exhausted_task_diverts_to_dlq_and_redrive_converges() {
        let items = vec![13u32, 1, 2, 3];
        let store = BlockStore::from_items(items, 1, 1);
        let clean = word_count(&ClusterConfig::new(1), &store, 2).unwrap();

        let root = ckpt_root("dlq");
        let fp = job_fp(store.num_blocks(), 2);
        let cluster = ClusterConfig::new(1)
            .with_retries(1)
            .with_host_threads(1)
            .with_backoff_ms(0)
            .with_fault(crate::fault::FaultPlan::new(7));
        let ck = CheckpointStore::open(&root, "dlq-job", &fp).unwrap();
        let partial = run(
            &cluster,
            &store,
            &BrokenOnThirteen,
            &SumReducer,
            &hash_partitioner,
            2,
            JobOptions {
                checkpoint: Some(&ck),
                ..JobOptions::default()
            },
        )
        .unwrap();
        assert_eq!(partial.outcome, JobOutcome::PartialWithDlq { diverted: 1 });
        assert_eq!(partial.metrics.dlq_diverted, 1);
        let dead = ck.dlq_snapshot();
        assert_eq!(dead.len(), 1);
        assert_eq!((dead[0].stage.as_str(), dead[0].task), ("map", 0));
        assert_eq!(dead[0].attempts, 2);
        assert_eq!(dead[0].errors.len(), 2);
        assert_eq!(dead[0].fault_seed, Some(7));
        let mut partial_counts = partial.outputs.clone();
        partial_counts.sort();
        assert_eq!(partial_counts, vec![(1, 1), (2, 1), (3, 1)]);

        // A re-run *without* redrive keeps the task parked: same
        // partial result, no re-execution of the dead task.
        let ck = CheckpointStore::open(&root, "dlq-job", &fp).unwrap();
        let still_partial = run(
            &cluster,
            &store,
            &BrokenOnThirteen,
            &SumReducer,
            &hash_partitioner,
            2,
            JobOptions {
                checkpoint: Some(&ck),
                ..JobOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            still_partial.outcome,
            JobOutcome::PartialWithDlq { diverted: 1 }
        );
        assert_eq!(still_partial.metrics.dlq_diverted, 0, "dead task re-ran");

        // Redrive with the fault cleared (fixed mapper): the dead task
        // re-executes, its entry resolves, and the output converges to
        // the fault-free run.
        assert_eq!(
            crate::checkpoint::mark_redrive(&root, "dlq-job").unwrap(),
            1
        );
        let ck = CheckpointStore::open(&root, "dlq-job", &fp).unwrap();
        let redriven = run(
            &ClusterConfig::new(1),
            &store,
            &CountMapper,
            &SumReducer,
            &hash_partitioner,
            2,
            JobOptions {
                checkpoint: Some(&ck),
                ..JobOptions::default()
            },
        )
        .unwrap();
        assert_eq!(redriven.outcome, JobOutcome::Complete);
        assert_eq!(redriven.metrics.dlq_redriven, 1);
        assert!(redriven.metrics.checkpoint_skips >= 3);
        assert_eq!(redriven.outputs, clean.outputs);
        assert!(ck.dlq_snapshot().is_empty(), "resolved entry survived");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupt_without_checkpoint_is_a_typed_error() {
        let store = BlockStore::from_items((0..8u32).collect(), 1, 1);
        let cluster = ClusterConfig::new(1)
            .with_host_threads(1)
            .with_fault(crate::fault::FaultPlan::new(0).with_interrupt_after(2));
        let err = word_count(&cluster, &store, 2).unwrap_err();
        assert_eq!(
            err,
            JobError::Interrupted {
                stage: "map",
                completed: 2
            }
        );
    }

    #[test]
    fn many_threads_and_blocks_deterministic_outputs() {
        let items: Vec<u32> = (0..500).map(|i| i % 17).collect();
        let store = BlockStore::from_items(items, 7, 1);
        let cluster = ClusterConfig::new(4).with_host_threads(8);
        let mut last: Option<Vec<(u32, u64)>> = None;
        for _ in 0..3 {
            let out = word_count(&cluster, &store, 5).unwrap();
            let mut counts = out.outputs;
            counts.sort();
            if let Some(prev) = &last {
                assert_eq!(prev, &counts);
            }
            last = Some(counts);
        }
    }
    /// Keys item % 12 (so keys `k` and `k + 6` collide on a reducer of
    /// six), the item itself as the value: a group's value order shows
    /// the order its records reached the bucket in.
    struct TraceMapper {
        broken_item: Option<u32>,
    }
    impl Mapper for TraceMapper {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
            if self.broken_item == Some(*item) {
                panic!("permanently broken");
            }
            emit(*item % 12, u64::from(*item));
            if item.is_multiple_of(5) {
                emit((*item + 6) % 12, u64::from(*item) + 1000);
            }
        }
    }

    /// Emits every group exactly as it was lent.
    struct GroupEcho;
    impl Reducer<u32, u64> for GroupEcho {
        type Out = (u32, Vec<u64>);
        fn reduce(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut((u32, Vec<u64>))) {
            emit((*key, values.to_vec()));
        }
    }

    /// Six reducers, of which reducer 3 never receives a key.
    fn skip_three(k: &u32, n: usize) -> usize {
        match *k as usize % n {
            3 => 0,
            r => r,
        }
    }

    /// Everything the shuffle decides: group order and contents per
    /// reducer, record and byte totals, and the per-reducer volumes.
    type ShuffleView = (Vec<(u32, Vec<u64>)>, Vec<u32>, u64, u64, Vec<f64>, Vec<f64>);

    /// With a checkpoint store, item 40 is broken, so map task 4 is
    /// dead-lettered.
    fn shuffle_view(host_threads: usize, checkpoint: Option<&CheckpointStore>) -> ShuffleView {
        use std::sync::Arc;
        let mem = Arc::new(dod_obs::MemoryRecorder::new());
        let obs = Obs::new(mem.clone());
        // 90 items in blocks of 9: ten map tasks; task 4 holds item 40.
        let store = BlockStore::from_items((0..90u32).collect(), 9, 1);
        let cluster = ClusterConfig::new(3)
            .with_host_threads(host_threads)
            .with_retries(0)
            .with_backoff_ms(0);
        let out = run(
            &cluster,
            &store,
            &TraceMapper {
                broken_item: checkpoint.map(|_| 40),
            },
            &GroupEcho,
            &skip_three,
            6,
            JobOptions {
                obs,
                checkpoint,
                ..JobOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            out.outcome,
            match checkpoint {
                Some(_) => JobOutcome::PartialWithDlq { diverted: 1 },
                None => JobOutcome::Complete,
            }
        );
        (
            out.outputs,
            out.key_times.iter().map(|(k, _)| *k).collect(),
            out.metrics.shuffle_records,
            out.metrics.shuffle_bytes,
            mem.observations(names::MAPREDUCE_SHUFFLE_REDUCER_BYTES),
            mem.observations(names::MAPREDUCE_SHUFFLE_REDUCER_RECORDS),
        )
    }

    #[test]
    fn shuffle_is_identical_for_any_host_thread_count() {
        let serial = shuffle_view(1, None);
        let (groups, keys, records, bytes, reducer_bytes, reducer_records) = &serial;
        // 90 records plus one more for each of the 18 multiples of five.
        assert_eq!(*records, 108);
        assert_eq!(*bytes, 108 * 12);
        // Reducer order, then key order; within a group, map-task order
        // then emission order — ascending values here, with the `+1000`
        // record of a multiple of five right where its item put it.
        assert_eq!(keys, &[0, 3, 6, 9, 1, 7, 2, 8, 4, 10, 5, 11]);
        assert_eq!(keys, &groups.iter().map(|(k, _)| *k).collect::<Vec<_>>());
        assert_eq!(groups[0].1, vec![0, 12, 24, 1030, 36, 48, 60, 72, 84]);
        assert!(groups.iter().all(|(_, vs)| {
            let mut plain: Vec<u64> = vs.iter().map(|v| v % 1000).collect();
            let sorted = plain.is_sorted();
            plain.dedup();
            sorted && plain.len() == vs.len()
        }));
        // Reducer 3 is empty: no group, zero volume, still one task.
        assert_eq!(reducer_records[3], 0.0);
        assert_eq!(reducer_bytes[3], 0.0);
        assert_eq!(reducer_bytes.len(), 6);
        assert_eq!(reducer_bytes.iter().sum::<f64>() as u64, *bytes);
        for threads in [2, 5] {
            assert_eq!(
                shuffle_view(threads, None),
                serial,
                "{threads} host threads"
            );
        }
    }

    #[test]
    fn shuffle_skips_a_dead_lettered_map_task_identically_for_any_thread_count() {
        let mut views = Vec::new();
        for threads in [1, 2, 5] {
            let root = ckpt_root(&format!("shuffle-dlq-{threads}"));
            let ck = CheckpointStore::open(&root, "shuffle", &job_fp(10, 6)).unwrap();
            views.push(shuffle_view(threads, Some(&ck)));
            assert_eq!(ck.dlq_snapshot().len(), 1);
            let _ = std::fs::remove_dir_all(&root);
        }
        let (groups, _, records, ..) = &views[0];
        // Map task 4 (items 36..45, one multiple of five) is missing.
        assert_eq!(*records, 108 - 9 - 1);
        assert!(groups
            .iter()
            .all(|(_, vs)| vs.iter().all(|v| !(36..45).contains(&(v % 1000)))));
        assert_eq!(groups[0].1, vec![0, 12, 24, 1030, 48, 60, 72, 84]);
        assert_eq!(views[1], views[0]);
        assert_eq!(views[2], views[0]);
    }

    #[test]
    fn records_without_a_reducer_are_an_error_and_silence_is_not() {
        let store = BlockStore::from_items(vec![1u32, 2, 3], 1, 1);
        for threads in [1, 2] {
            let cluster = ClusterConfig::new(1).with_host_threads(threads);
            let err = word_count(&cluster, &store, 0).unwrap_err();
            assert_eq!(err, JobError::NoReducers);
            // A mapper that emits nothing needs no reducer.
            let out = run(
                &cluster,
                &store,
                &BrokenMapper,
                &SumReducer,
                &hash_partitioner,
                0,
                JobOptions::default(),
            )
            .unwrap();
            assert!(out.outputs.is_empty());
            assert_eq!(out.metrics.shuffle_records, 0);
        }
    }

    #[test]
    fn host_thread_helper_keeps_item_order_and_resumes_panics() {
        let squares = on_host_threads(3, (0..40u64).collect(), |x| x * x);
        assert_eq!(squares, (0..40u64).map(|x| x * x).collect::<Vec<_>>());
        assert!(on_host_threads(4, Vec::<u8>::new(), |x| x).is_empty());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            on_host_threads(2, vec![1u32, 2, 3], |x| {
                assert_ne!(x, 2, "boom");
                x
            })
        }));
        assert!(caught.is_err());
    }

    /// Task-pool threads that ran a [`ProbeMapper`] task, and those whose
    /// exit path has dropped their [`ExitProbe`].
    static PROBED: AtomicU64 = AtomicU64::new(0);
    static EXITED: AtomicU64 = AtomicU64::new(0);

    /// Dropped as its thread exits; it sleeps first, so a thread that
    /// nobody waited for is still exiting when the job returns.
    struct ExitProbe;
    impl Drop for ExitProbe {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(50));
            EXITED.fetch_add(1, Ordering::SeqCst);
        }
    }

    thread_local! {
        static PROBE: ExitProbe = {
            PROBED.fetch_add(1, Ordering::SeqCst);
            ExitProbe
        };
    }

    struct ProbeMapper;
    impl Mapper for ProbeMapper {
        type In = u32;
        type K = u32;
        type V = u64;
        fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
            PROBE.with(|_| {});
            emit(*item, 1);
        }
    }

    /// The next stage must not spawn threads while this one's are still
    /// exiting: glibc hands a thread's malloc arena back only on its exit
    /// path, so the new threads would open arenas of their own.
    #[test]
    fn task_pool_workers_have_exited_when_run_returns() {
        let store = BlockStore::from_items((0..8u32).collect(), 1, 1);
        let cluster = ClusterConfig::new(2).with_host_threads(2);
        run(
            &cluster,
            &store,
            &ProbeMapper,
            &SumReducer,
            &hash_partitioner,
            2,
            JobOptions::default(),
        )
        .unwrap();
        let probed = PROBED.load(Ordering::SeqCst);
        assert!(probed > 0);
        assert_eq!(EXITED.load(Ordering::SeqCst), probed);
    }
}
