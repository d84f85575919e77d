use super::*;
use crate::checkpoint::CheckpointStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// The counts of `mapper`'s records by [`SumReducer`], with default
/// options.
fn count_with<M: Mapper<In = u32, K = u32, V = u64>>(
    cluster: &ClusterConfig,
    store: &BlockStore<u32>,
    mapper: &M,
    reducers: usize,
) -> Result<JobOutput<u32, (u32, u64)>, JobError> {
    run(
        cluster,
        store,
        mapper,
        &SumReducer,
        &hash_partitioner,
        reducers,
        JobOptions::default(),
    )
}

/// The word count of [`CountMapper`] and [`SumReducer`], with default
/// options.
fn word_count(
    cluster: &ClusterConfig,
    store: &BlockStore<u32>,
    reducers: usize,
) -> Result<JobOutput<u32, (u32, u64)>, JobError> {
    count_with(cluster, store, &CountMapper, reducers)
}

fn sorted<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort();
    items
}

/// Counts like [`CountMapper`], but item 13 first calls `hook(first)`,
/// `first` telling whether 13 is mapped for the first time; a hook that
/// panics fails the attempt.
struct OnThirteen<H> {
    seen: AtomicBool,
    hook: H,
}
impl<H: Fn(bool) + Send + Sync> Mapper for OnThirteen<H> {
    type In = u32;
    type K = u32;
    type V = u64;
    fn map(&self, item: &u32, emit: &mut dyn FnMut(u32, u64)) {
        if *item == 13 {
            (self.hook)(!self.seen.swap(true, Ordering::SeqCst));
        }
        emit(*item, 1);
    }
}

fn on_thirteen<H: Fn(bool) + Send + Sync>(hook: H) -> OnThirteen<H> {
    OnThirteen {
        seen: AtomicBool::new(false),
        hook,
    }
}

/// Panics the first time it maps item 13, then succeeds — exercises the
/// retry path.
fn flaky() -> OnThirteen<impl Fn(bool) + Send + Sync> {
    on_thirteen(|first| assert!(!first, "injected failure"))
}

#[test]
fn word_count_end_to_end() {
    let items = vec![1u32, 2, 1, 3, 2, 1];
    let store = BlockStore::from_items(items, 2, 1);
    let cluster = ClusterConfig::new(2).with_host_threads(2);
    let out = word_count(&cluster, &store, 3).unwrap();
    assert_eq!(sorted(out.outputs), vec![(1, 3), (2, 2), (3, 1)]);
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

#[test]
fn injected_failure_is_retried() {
    let store = BlockStore::from_items(vec![13u32, 1, 2], 1, 1);
    let cluster = ClusterConfig::new(1).with_retries(2).with_host_threads(1);
    let out = count_with(&cluster, &store, &flaky(), 2).unwrap();
    assert_eq!(out.metrics.task_retries, 1);
    assert_eq!(sorted(out.outputs), vec![(1, 1), (2, 1), (13, 1)]);
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
    let err = count_with(&cluster, &store, &BrokenMapper, 1).unwrap_err();
    assert_eq!(
        err,
        JobError::TaskFailed {
            stage: "map",
            task: 0,
            attempts: 2
        }
    );
}

/// Runs a job whose reducer panics on its first invocation for key 5 —
/// a retried reduce task must still see its full input.
fn flaky_reduce(obs: Obs) -> JobOutput<u32, (u32, u64)> {
    struct FlakyReducer(AtomicBool);
    impl Reducer<u32, u64> for FlakyReducer {
        type Out = (u32, u64);
        fn reduce(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut((u32, u64))) {
            if *key == 5 && !self.0.swap(true, Ordering::SeqCst) {
                panic!("injected reduce failure");
            }
            emit((*key, values.iter().sum()));
        }
    }
    let store = BlockStore::from_items(vec![5u32, 5, 6, 7], 2, 1);
    let cluster = ClusterConfig::new(1).with_retries(2).with_host_threads(1);
    let reducer = FlakyReducer(AtomicBool::new(false));
    let options = JobOptions {
        obs,
        ..JobOptions::default()
    };
    run(
        &cluster,
        &store,
        &CountMapper,
        &reducer,
        &|_k, _n| 0usize,
        1,
        options,
    )
    .unwrap()
}

#[test]
fn reduce_retry_does_not_lose_input() {
    let out = flaky_reduce(Obs::null());
    assert_eq!(out.metrics.task_retries, 1);
    assert_eq!(sorted(out.outputs), vec![(5, 2), (6, 1), (7, 1)]);
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
    assert_eq!(
        sorted(plain.outputs),
        sorted(charged.outputs),
        "results unchanged"
    );
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
    assert_eq!(sorted(plain.outputs), sorted(combined.outputs));
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
    let tasks = mem.events_named(names::MAPREDUCE_TASK);
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
        .events_named(names::MAPREDUCE_STAGE)
        .iter()
        .filter_map(|e| e.label("stage").and_then(Value::as_str).map(str::to_owned))
        .collect();
    assert_eq!(stages, vec!["map", "shuffle", "reduce"]);
    // Shuffle volume counters match the metrics.
    assert_eq!(
        mem.counter_total(names::MAPREDUCE_SHUFFLE_RECORDS),
        out.metrics.shuffle_records
    );
    assert_eq!(
        mem.counter_total(names::MAPREDUCE_SHUFFLE_BYTES),
        out.metrics.shuffle_bytes
    );
    // Per-reducer histograms sum to the totals.
    let per_reducer: f64 = mem
        .observations(names::MAPREDUCE_SHUFFLE_REDUCER_BYTES)
        .iter()
        .sum();
    assert_eq!(per_reducer as u64, out.metrics.shuffle_bytes);
    assert_eq!(mem.events_named(names::MAPREDUCE_LOCALITY).len(), 1);
}

#[test]
fn obs_counts_retries() {
    use std::sync::Arc;
    let mem = Arc::new(dod_obs::MemoryRecorder::new());
    let obs = Obs::new(mem.clone());
    let out = flaky_reduce(obs);
    assert_eq!(out.metrics.task_retries, 1);
    assert_eq!(mem.counter_total(names::MAPREDUCE_TASK_RETRY), 1);
    let retry = &mem.events_named(names::MAPREDUCE_TASK_RETRY)[0];
    assert_eq!(retry.label("stage").and_then(Value::as_str), Some("reduce"));
}

#[test]
fn retries_sleep_exponential_backoff() {
    let store = BlockStore::from_items(vec![13u32, 1], 1, 1);
    let cluster = ClusterConfig::new(1)
        .with_retries(2)
        .with_host_threads(1)
        .with_backoff_ms(4);
    let out = count_with(&cluster, &store, &flaky(), 1).unwrap();
    assert_eq!(out.metrics.task_retries, 1);
    // One failure -> one backoff of the 4 ms base.
    assert!(out.metrics.backoff_total >= Duration::from_millis(4));
    assert!(out.metrics.backoff_total < Duration::from_millis(100));
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
    // Item 13's first map sleeps long enough to be flagged a
    // straggler; re-executions are fast.
    let straggler = on_thirteen(|first| {
        if first {
            std::thread::sleep(Duration::from_millis(250));
        }
    });
    let out = count_with(&cluster, &store, &straggler, 2).unwrap();
    assert!(out.metrics.speculative_launched >= 1);
    assert!(out.metrics.speculative_won >= 1);
    assert_eq!(sorted(out.outputs), vec![(1, 1), (2, 1), (3, 1), (13, 1)]);
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
    let expected = sorted(clean.outputs);
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
        let got = sorted(out.outputs);
        assert_eq!(got, expected, "seed {seed} corrupted the output");
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
    // Item 13's first map straggles long enough to be speculated on,
    // then panics *after* the speculative sibling has committed — the
    // regression shape for first-writer-wins accounting.
    let late_failure = on_thirteen(|first| {
        if first {
            std::thread::sleep(Duration::from_millis(250));
            panic!("late failure after sibling committed");
        }
    });
    let out = count_with(&cluster, &store, &late_failure, 2).unwrap();
    assert!(out.metrics.speculative_won >= 1);
    assert_eq!(
        out.metrics.nodes_blacklisted, 0,
        "a post-commit loser failure was booked against its node"
    );
    assert_eq!(sorted(out.outputs), vec![(1, 1), (2, 1), (3, 1), (13, 1)]);
}

pub(crate) fn ckpt_root(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mapreduce-job-ckpt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

pub(crate) fn job_fp(map_tasks: usize, reducers: usize) -> crate::checkpoint::JobFingerprint {
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
    let interrupting =
        ClusterConfig::new(2).with_fault(crate::fault::FaultPlan::new(0).with_interrupt_after(3));
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
    // Item 13 is a permanent fault until "fixed" by swapping the mapper.
    let broken = on_thirteen(|_| panic!("permanently broken"));
    fn durable<M: Mapper<In = u32, K = u32, V = u64>>(
        cluster: &ClusterConfig,
        store: &BlockStore<u32>,
        mapper: &M,
        ck: &CheckpointStore,
    ) -> JobOutput<u32, (u32, u64)> {
        let options = JobOptions {
            checkpoint: Some(ck),
            ..JobOptions::default()
        };
        run(
            cluster,
            store,
            mapper,
            &SumReducer,
            &hash_partitioner,
            2,
            options,
        )
        .unwrap()
    }
    let ck = CheckpointStore::open(&root, "dlq-job", &fp).unwrap();
    let partial = durable(&cluster, &store, &broken, &ck);
    assert_eq!(partial.outcome, JobOutcome::PartialWithDlq { diverted: 1 });
    assert_eq!(partial.metrics.dlq_diverted, 1);
    let dead = ck.dlq_snapshot();
    assert_eq!(dead.len(), 1);
    assert_eq!((dead[0].stage.as_str(), dead[0].task), ("map", 0));
    assert_eq!(dead[0].attempts, 2);
    assert_eq!(dead[0].errors.len(), 2);
    assert_eq!(dead[0].fault_seed, Some(7));
    assert_eq!(sorted(partial.outputs), vec![(1, 1), (2, 1), (3, 1)]);

    // A re-run *without* redrive keeps the task parked: same
    // partial result, no re-execution of the dead task.
    let ck = CheckpointStore::open(&root, "dlq-job", &fp).unwrap();
    let still_partial = durable(&cluster, &store, &broken, &ck);
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
    let redriven = durable(&ClusterConfig::new(1), &store, &CountMapper, &ck);
    assert_eq!(redriven.outcome, JobOutcome::Complete);
    assert_eq!(redriven.metrics.dlq_redriven, 1);
    assert!(redriven.metrics.checkpoint_skips >= 3);
    assert_eq!(redriven.outputs, clean.outputs);
    assert!(ck.dlq_snapshot().is_empty(), "resolved entry survived");
    let _ = std::fs::remove_dir_all(&root);
}

/// Pins the task pool's whole schedule on one durable job: which
/// attempt ran on which node, what failed, what was blacklisted and
/// what was dead-lettered. One host thread with speculation off and no
/// backoff makes the schedule a function of the fault plan alone; seed
/// 42 loses an attempt to node 1 in each stage, blacklists node 1 once
/// and dead-letters one task per stage.
#[test]
fn durable_schedule_under_faults_is_pinned() {
    // Eight map tasks of five items over seven keys, three reducers.
    let store = BlockStore::from_items((0..40).map(|i| i % 7).collect(), 5, 1);
    let root = ckpt_root("pin");
    let ck = CheckpointStore::open(&root, "pin", &job_fp(8, 3)).unwrap();
    let cluster = ClusterConfig::new(3)
        .with_host_threads(1)
        .without_speculation()
        .with_backoff_ms(0)
        .with_retries(1)
        .with_blacklist_after(2)
        .with_fault(
            crate::fault::FaultPlan::new(42)
                .with_panics(250)
                .with_lost_node(1),
        );
    let options = JobOptions {
        checkpoint: Some(&ck),
        ..JobOptions::default()
    };
    let out = run(
        &cluster,
        &store,
        &CountMapper,
        &SumReducer,
        &hash_partitioner,
        3,
        options,
    )
    .unwrap();
    let dead = |stage: &str, task, errors: [&str; 2]| crate::DlqEntry {
        stage: stage.to_string(),
        task,
        attempts: 2,
        errors: errors.map(str::to_string).to_vec(),
        fault_seed: Some(42),
        redrive: false,
    };
    let map_errors = [
        "attempt 0 on node 0: panic",
        "attempt 1 on node 1: node lost",
    ];
    let reduce_errors = [
        "attempt 0 on node 1: node lost",
        "attempt 1 on node 2: panic",
    ];
    assert_eq!(
        ck.dlq_snapshot(),
        vec![dead("map", 0, map_errors), dead("reduce", 1, reduce_errors)]
    );
    assert_eq!(out.outcome, JobOutcome::PartialWithDlq { diverted: 2 });
    assert_eq!(out.metrics.task_retries, 6);
    assert_eq!(out.metrics.nodes_blacklisted, 1);
    let mut outputs = out.outputs;
    outputs.sort();
    // Map task 0 (items 0..5) and reducer 1 (keys 1 and 4) are missing.
    assert_eq!(outputs, vec![(0, 5), (2, 5), (3, 5), (5, 5), (6, 5)]);
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
        let counts = sorted(word_count(&cluster, &store, 5).unwrap().outputs);
        if let Some(prev) = &last {
            assert_eq!(prev, &counts);
        }
        last = Some(counts);
    }
}

#[test]
fn records_without_a_reducer_are_an_error_and_silence_is_not() {
    let store = BlockStore::from_items(vec![1u32, 2, 3], 1, 1);
    for threads in [1, 2] {
        let cluster = ClusterConfig::new(1).with_host_threads(threads);
        let err = word_count(&cluster, &store, 0).unwrap_err();
        assert_eq!(err, JobError::NoReducers);
        // A mapper that emits nothing needs no reducer.
        let out = count_with(&cluster, &store, &BrokenMapper, 0).unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.metrics.shuffle_records, 0);
    }
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
