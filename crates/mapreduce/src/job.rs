//! The MapReduce job executor: [`run`] executes one job — map tasks over
//! the input blocks, the shuffle, then reduce tasks over the borrowed key
//! groups — on the task pool, which recovers from failed attempts,
//! stragglers and failing nodes. Per-task wall times are measured and
//! folded into stage makespans on the logical cluster topology (see
//! [`crate::metrics`]).

use crate::blockstore::BlockStore;
use crate::checkpoint::{fingerprint_u64s, CheckpointStore, Durable};
use crate::cluster::ClusterConfig;
use crate::metrics::{locality_makespan, makespan, JobMetrics};
use crate::pool::TaskPool;
use crate::shuffle::shuffle;
use crate::size::EstimateSize;
use dod_obs::{names, Obs, ObsScope, Value};
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

/// Ends one stage: charges each task that ran its simulated I/O
/// (`io_charge(task)`), closes the stage span, then records each such
/// task's `mapreduce.task` span. Returns the charged task times and how
/// many tasks were diverted to the dead-letter queue: they have no
/// winning attempt and take no time.
fn close_stage<T>(
    obs: &Obs,
    span: ObsScope,
    stage: &'static str,
    results: &[Option<(Duration, T)>],
    io_charge: impl Fn(usize) -> Duration,
) -> (Vec<Duration>, usize) {
    let times: Vec<Duration> = results
        .iter()
        .enumerate()
        .map(|(t, r)| {
            r.as_ref()
                .map_or(Duration::ZERO, |(d, _)| *d + io_charge(t))
        })
        .collect();
    drop(span);
    for (t, d) in times.iter().enumerate() {
        if results[t].is_some() {
            obs.record_duration(
                names::MAPREDUCE_TASK,
                *d,
                &[("stage", Value::from(stage)), ("task", Value::from(t))],
            );
        }
    }
    (times, results.iter().filter(|r| r.is_none()).count())
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
    let (obs, combiner, checkpoint) = (&options.obs, options.combiner, options.checkpoint);
    let mut pool = TaskPool::new(cluster, obs, checkpoint);
    // Simulated I/O charge for `bytes()` bytes; zero, and `bytes` never
    // called, when disabled.
    let io_charge = |bytes: &dyn Fn() -> u64| match cluster.io_bytes_per_sec {
        0 => Duration::ZERO,
        rate => Duration::from_secs_f64(bytes() as f64 * (1.0 / rate as f64)),
    };

    // ---- Map stage: one task per input block, each charged the
    // simulated read of its block. ----
    let num_map_tasks = input.num_blocks();
    let map_stage = obs.scope(names::MAPREDUCE_STAGE).with_label("stage", "map");
    let map_results = pool.run("map", num_map_tasks, 0, |t, attempt| {
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
    })?;
    let (map_task_times, map_diverted) = close_stage(obs, map_stage, "map", &map_results, |t| {
        io_charge(&|| {
            input
                .block(t)
                .iter()
                .map(|x| x.estimated_bytes() as u64)
                .sum()
        })
    });
    // Fingerprint of which map tasks fed the shuffle: reduce checkpoint
    // records carry it, so reduce state persisted against a *different*
    // map completion set (e.g. before a DLQ redrive filled a hole) is
    // invalidated instead of silently reused.
    let fed = (0..num_map_tasks).filter(|&t| map_results[t].is_some());
    let shuffle_fp = fingerprint_u64s(fed.map(|t| t as u64));

    let buckets = shuffle(
        obs,
        cluster.effective_host_threads(),
        map_results,
        mapper,
        partitioner,
        num_reducers,
    )?;

    // ---- Reduce stage: one task per reducer, each charged the
    // simulated fetch of its shuffle input. Buckets stay in place across
    // task attempts (the in-memory analog of Hadoop's materialized
    // shuffle output), so a retried reduce task re-reads its full input;
    // each group is lent to the reducer. ----
    let reduce_stage = obs
        .scope(names::MAPREDUCE_STAGE)
        .with_label("stage", "reduce");
    let reduce_results = pool.run("reduce", num_reducers, shuffle_fp, |t, _attempt| {
        let bucket = &buckets[t];
        let mut outputs = Vec::new();
        let mut key_times = Vec::with_capacity(bucket.groups.len());
        for (g, (key, _)) in bucket.groups.iter().enumerate() {
            let key_start = Instant::now();
            reducer.reduce(key, bucket.group(g), &mut |o| outputs.push(o));
            key_times.push((key.clone(), key_start.elapsed()));
        }
        (outputs, key_times)
    })?;
    let (reduce_task_times, reduce_diverted) =
        close_stage(obs, reduce_stage, "reduce", &reduce_results, |t| {
            io_charge(&|| buckets[t].bytes)
        });
    let mut outputs = Vec::new();
    let mut key_times = Vec::new();
    for (_, (outs, times)) in reduce_results.into_iter().flatten() {
        outputs.extend(outs);
        key_times.extend(times);
    }

    let placements: Vec<Vec<usize>> = (0..num_map_tasks)
        .map(|b| input.placement(b, cluster.nodes))
        .collect();
    let map_schedule = locality_makespan(
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
        shuffle_records: buckets.iter().map(|b| b.values.len() as u64).sum(),
        shuffle_bytes: buckets.iter().map(|b| b.bytes).sum(),
        host_wall: job_start.elapsed(),
        ..pool.metrics
    };
    // A durable run that could not persist its state must not report
    // success — the next resume would silently redo (or worse, skip)
    // work. Surface the first latched write error as a typed failure.
    if let Some(detail) = checkpoint.and_then(CheckpointStore::take_write_error) {
        return Err(JobError::Checkpoint(detail));
    }
    let outcome = match map_diverted + reduce_diverted {
        0 => JobOutcome::Complete,
        diverted => JobOutcome::PartialWithDlq { diverted },
    };
    Ok(JobOutput {
        outputs,
        metrics,
        key_times,
        outcome,
    })
}

#[cfg(test)]
pub(crate) mod tests;
