//! Durability suite: checkpoint/resume and the dead-letter queue,
//! exercised through the full pipeline.
//!
//! Three oracles, mirroring the chaos suite's structure:
//!
//! 1. **Kill and resume.** A checkpointed run interrupted mid-stage must
//!    fail with the typed [`JobError::Interrupted`], and a re-run over
//!    the same checkpoint directory must produce outliers bit-identical
//!    to an uninterrupted run while restoring (not recomputing) the
//!    tasks that completed before the kill.
//! 2. **Dead-letter convergence.** A run whose tasks permanently fail
//!    completes as a partial result with a populated dead-letter queue;
//!    after `mark_redrive` and with the fault cleared, a re-run
//!    converges to the fault-free output.
//! 3. **Corruption fallback.** Truncated or garbage checkpoint state
//!    never panics and never yields a silently wrong answer — corrupt
//!    task records re-run, a corrupt manifest resets the job.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use dod::prelude::*;
use dod_engine::Engine;
use dod_integration::mixed_density;
use mapreduce::checkpoint::mark_redrive;
use mapreduce::JobError;
use proptest::prelude::*;

/// Hard ceiling on any single durability run (same rationale as chaos).
const WATCHDOG: Duration = Duration::from_secs(60);

fn with_watchdog<T, F>(label: &str, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("durability-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn durability watchdog thread");
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(_) => panic!("durability run `{label}` exceeded the {WATCHDOG:?} watchdog"),
    }
}

/// A fresh, empty checkpoint root unique to this test + process.
fn temp_root(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dod-durability-{}-{label}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create checkpoint root");
    dir
}

fn config(
    params: OutlierParams,
    cluster: ClusterConfig,
    checkpoint: Option<(&Path, &str)>,
) -> DodConfig {
    let mut b = DodConfig::builder(params)
        .sample_rate(1.0)
        .block_size(32)
        .num_reducers(3)
        .target_partitions(8)
        .cluster(cluster);
    if let Some((dir, job)) = checkpoint {
        b = b.checkpoint(dir, job);
    }
    b.build().unwrap()
}

fn cluster(fault: Option<FaultPlan>) -> ClusterConfig {
    let base = ClusterConfig::new(4).with_retries(2).with_backoff_ms(1);
    match fault {
        Some(plan) => base.with_fault(plan),
        None => base,
    }
}

/// The single-job strategies the kill-and-resume matrix covers; the
/// two-job Domain baseline has its own dedicated test below.
#[derive(Clone, Copy, Debug)]
enum Strat {
    UniSpaceFixed,
    DDrivenCell,
    DmtMultiTactic,
}

const STRATS: [Strat; 3] = [
    Strat::UniSpaceFixed,
    Strat::DDrivenCell,
    Strat::DmtMultiTactic,
];

fn runner_for(strat: Strat, cfg: DodConfig) -> DodRunner {
    let b = DodRunner::builder().config(cfg);
    match strat {
        Strat::UniSpaceFixed => b
            .strategy(UniSpace)
            .fixed(AlgorithmKind::NestedLoop)
            .build(),
        Strat::DDrivenCell => b.strategy(DDriven).fixed(AlgorithmKind::CellBased).build(),
        Strat::DmtMultiTactic => b.strategy(Dmt::default()).multi_tactic().build(),
    }
}

fn run_strat(
    strat: Strat,
    data: &PointSet,
    fault: Option<FaultPlan>,
    checkpoint: Option<(&Path, &str)>,
) -> Result<DodOutcome, dod::Error> {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let cfg = config(params, cluster(fault), checkpoint);
    runner_for(strat, cfg).run(data)
}

fn total_skips(out: &DodOutcome) -> u64 {
    out.report.jobs.iter().map(|j| j.checkpoint_skips).sum()
}

/// The headline acceptance test: for three data seeds and all three
/// single-job strategies, a run killed after three task completions
/// resumes from its checkpoints to the exact fault-free outlier set,
/// restoring at least those three tasks instead of recomputing them.
#[test]
fn kill_and_resume_matrix_is_bit_identical() {
    for (i, &data_seed) in [5u64, 23, 77].iter().enumerate() {
        let data = mixed_density(data_seed, 380);
        for (j, &strat) in STRATS.iter().enumerate() {
            let root = temp_root(&format!("resume-{i}-{j}"));
            let expected = run_strat(strat, &data, None, None)
                .expect("fault-free run must succeed")
                .outliers;

            let interrupted = with_watchdog(&format!("kill-{strat:?}-{data_seed}"), {
                let (data, root) = (data.clone(), root.clone());
                move || {
                    let plan = FaultPlan::new(data_seed).with_interrupt_after(3);
                    run_strat(strat, &data, Some(plan), Some((&root, "job")))
                }
            });
            match interrupted {
                Err(dod::Error::Job(JobError::Interrupted { completed, .. })) => {
                    assert!(
                        completed >= 3,
                        "{strat:?} seed {data_seed}: interrupt fired after {completed} < 3 tasks"
                    );
                }
                other => panic!(
                    "{strat:?} seed {data_seed}: expected Interrupted, got {:?}",
                    other.map(|o| o.outliers)
                ),
            }

            let resumed = with_watchdog(&format!("resume-{strat:?}-{data_seed}"), {
                let (data, root) = (data.clone(), root.clone());
                move || run_strat(strat, &data, None, Some((&root, "job")))
            })
            .expect("resumed run must succeed");
            assert_eq!(
                resumed.outliers, expected,
                "{strat:?} seed {data_seed}: resumed run diverged from fault-free run"
            );
            assert!(
                total_skips(&resumed) >= 3,
                "{strat:?} seed {data_seed}: resume recomputed everything \
                 (checkpoint_skips = {})",
                total_skips(&resumed)
            );
            let _ = fs::remove_dir_all(&root);
        }
    }
}

/// Resuming against a changed input starts fresh. The job's plan only
/// sees the input through its bounding box (a uniform grid, one fixed
/// detector), so moving one row inside that box leaves the plan, the
/// parameters and the seed as they were; the checkpoint fingerprint
/// must still tell the two inputs apart. The first run is killed once
/// every map task has completed; the rerun on the changed input must
/// restore nothing and match a clean run on it.
#[test]
fn resume_after_the_input_changed_starts_fresh() {
    let data = mixed_density(5, 380);
    let params = OutlierParams::new(1.2, 4).unwrap();
    let run = |data: &PointSet, fault: Option<FaultPlan>, ckpt: Option<(&Path, &str)>| {
        runner_for(Strat::UniSpaceFixed, config(params, cluster(fault), ckpt)).run(data)
    };
    // Move the first inlier row to the first spot of the bounding box
    // with no point within 2r: it becomes an outlier there.
    let before = run(&data, None, None).expect("clean run").outliers;
    let row = (0..data.len() as u64)
        .find(|i| !before.contains(i))
        .unwrap() as usize;
    let bounds = data.bounding_rect().unwrap();
    let isolated = (0..60 * 60)
        .map(|c| {
            let (cx, cy) = ((c % 60) as f64, (c / 60) as f64);
            [bounds.min()[0] + cx, bounds.min()[1] + cy]
        })
        .find(|spot| {
            data.iter()
                .all(|p| dod_core::dist(p, spot) > 2.0 * params.r)
        })
        .expect("an empty spot inside the bounding box");
    let mut flat = data.as_flat().to_vec();
    flat[2 * row..2 * row + 2].copy_from_slice(&isolated);
    let changed = PointSet::from_flat(2, flat).unwrap();
    assert_eq!(changed.bounding_rect().unwrap(), bounds);
    let expected = run(&changed, None, None).expect("clean run").outliers;
    assert!(expected.contains(&(row as u64)));

    let root = temp_root("changed-input");
    let map_tasks = data.len().div_ceil(32) as u64;
    let kill = FaultPlan::new(5).with_interrupt_after(map_tasks + 1);
    match run(&data, Some(kill), Some((&root, "job"))) {
        Err(dod::Error::Job(JobError::Interrupted { stage, .. })) => assert_eq!(stage, "reduce"),
        other => panic!("expected Interrupted, got {:?}", other.map(|o| o.outliers)),
    }
    let resumed = run(&changed, None, Some((&root, "job"))).expect("rerun");
    assert_eq!(
        total_skips(&resumed),
        0,
        "the rerun restored the old input's tasks"
    );
    assert_eq!(resumed.outliers, expected);
    let _ = fs::remove_dir_all(&root);
}

/// The Domain baseline runs two chained jobs (`-candidates`, `-verify`);
/// a kill in the first job must resume across the whole chain.
#[test]
fn domain_two_job_protocol_resumes_bit_identical() {
    let data = mixed_density(9, 300);
    let params = OutlierParams::new(1.2, 4).unwrap();
    let run = |fault: Option<FaultPlan>, ckpt: Option<(&Path, &str)>| {
        DodRunner::builder()
            .config(config(params, cluster(fault), ckpt))
            .strategy(Domain)
            .fixed(AlgorithmKind::CellBased)
            .build()
            .run(&data)
    };
    let expected = run(None, None).expect("fault-free Domain run").outliers;

    let root = temp_root("domain");
    let plan = FaultPlan::new(1).with_interrupt_after(2);
    match run(Some(plan), Some((&root, "dom"))) {
        Err(dod::Error::Job(JobError::Interrupted { .. })) => {}
        other => panic!("expected Interrupted, got {:?}", other.map(|o| o.outliers)),
    }
    // The kill landed in the candidate job; its checkpoint dir exists.
    assert!(root.join("dom-candidates").join("manifest.json").is_file());

    let resumed = run(None, Some((&root, "dom"))).expect("resumed Domain run");
    assert_eq!(resumed.outliers, expected, "Domain resume diverged");
    assert!(total_skips(&resumed) >= 2, "Domain resume restored nothing");
    assert!(root.join("dom-verify").join("manifest.json").is_file());
    let _ = fs::remove_dir_all(&root);
}

/// Dead-letter convergence, end to end: a plan that panics every attempt
/// exhausts retries on every task, so a checkpointed run completes as a
/// partial result with every task diverted. The engine health snapshot
/// over the same config exposes the queue depth. After `mark_redrive`
/// and with the fault cleared, a re-run converges to the fault-free
/// outliers with an empty queue.
#[test]
fn dlq_partial_result_then_redrive_converges() {
    let data = mixed_density(31, 240);
    let params = OutlierParams::new(1.2, 4).unwrap();
    let expected = run_strat(Strat::DmtMultiTactic, &data, None, None)
        .expect("fault-free run")
        .outliers;
    assert!(!expected.is_empty(), "test data must contain outliers");

    let root = temp_root("dlq");
    let always_panic = FaultPlan::new(7).with_panics(1000);
    let partial = with_watchdog("dlq-partial", {
        let (data, root) = (data.clone(), root.clone());
        move || {
            run_strat(
                Strat::DmtMultiTactic,
                &data,
                Some(always_panic),
                Some((&root, "pipe")),
            )
        }
    })
    .expect("durable run with exhausted tasks must complete partially, not error");
    assert!(
        partial.report.diverted_tasks > 0,
        "every task panics, so some must divert to the dead-letter queue"
    );

    // Satellite: the engine health snapshot surfaces the durable state.
    let cfg = config(params, cluster(None), Some((&root, "pipe")));
    let engine = Engine::builder(runner_for(Strat::DmtMultiTactic, cfg))
        .workers(2)
        .build(&data)
        .unwrap();
    let health = engine.health();
    assert!(
        health.dlq_depth > 0,
        "health must report the dead-letter backlog, got {}",
        health.dlq_depth
    );
    assert!(
        health.checkpoint_age_ms.is_some(),
        "health must report the checkpoint age for a checkpointed config"
    );
    drop(engine);

    // Without redrive, re-running does not resurrect dead tasks: the
    // result stays partial even though the fault is gone.
    let still_partial = run_strat(Strat::DmtMultiTactic, &data, None, Some((&root, "pipe")))
        .expect("re-run without redrive");
    assert!(
        still_partial.report.diverted_tasks > 0,
        "dead tasks must stay dead until explicitly redriven"
    );

    let marked = mark_redrive(&root, "pipe-detect").expect("mark redrive");
    assert!(marked > 0, "redrive must flag the dead tasks");
    let redriven = with_watchdog("dlq-redrive", {
        let (data, root) = (data.clone(), root.clone());
        move || run_strat(Strat::DmtMultiTactic, &data, None, Some((&root, "pipe")))
    })
    .expect("redriven run");
    assert_eq!(
        redriven.outliers, expected,
        "redrive with the fault cleared must converge to the fault-free output"
    );
    assert_eq!(redriven.report.diverted_tasks, 0);
    let _ = fs::remove_dir_all(&root);
}

/// Fixed corruption scenarios: a truncated task record re-runs just that
/// task; a garbage manifest or dead-letter file resets the job. Every
/// scenario re-runs to the exact fault-free outliers without panicking.
#[test]
fn corrupted_checkpoints_fall_back_cleanly() {
    let data = mixed_density(55, 240);
    let root = temp_root("corrupt");
    let expected = run_strat(Strat::DmtMultiTactic, &data, None, None)
        .expect("fault-free run")
        .outliers;
    let complete = |root: &Path| {
        run_strat(Strat::DmtMultiTactic, &data, None, Some((root, "fix")))
            .expect("durable run")
            .outliers
    };
    assert_eq!(complete(&root), expected);
    let job_dir = root.join("fix-detect");

    // Truncate one task record to half its length: only that task (and
    // any reduce task downstream of it) re-runs.
    let record = job_dir.join("map-0.json");
    let len = fs::metadata(&record).expect("map-0 exists").len();
    let bytes = fs::read(&record).unwrap();
    fs::write(&record, &bytes[..(len / 2) as usize]).unwrap();
    assert_eq!(complete(&root), expected, "truncated record diverged");

    // Garbage manifest: the whole job resets and recomputes from
    // scratch — zero restored tasks, same answer.
    fs::write(job_dir.join("manifest.json"), b"{not json").unwrap();
    let reset = run_strat(Strat::DmtMultiTactic, &data, None, Some((&root, "fix")))
        .expect("run after manifest corruption");
    assert_eq!(reset.outliers, expected, "manifest reset diverged");
    assert_eq!(
        total_skips(&reset),
        0,
        "a corrupt manifest must reset the job, not partially resume"
    );

    // Garbage dead-letter file: also a full reset, never a panic.
    fs::write(job_dir.join("dlq.jsonl"), b"\x00\xff not jsonl\n").unwrap();
    assert_eq!(complete(&root), expected, "dlq corruption diverged");
    let _ = fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Satellite sweep: truncate an arbitrary checkpoint file at an
    // arbitrary offset after a completed durable run. The re-run must
    // never panic and must reproduce the fault-free outliers exactly —
    // corrupt records re-run, a corrupt manifest resets the job.
    #[test]
    fn truncated_checkpoint_state_never_corrupts_results(
        file_ix in 0usize..16,
        cut_ppm in 0u32..1000,
    ) {
        let data = mixed_density(8, 160);
        let root = temp_root(&format!("prop-{file_ix}-{cut_ppm}"));
        let expected = run_strat(Strat::UniSpaceFixed, &data, None, None)
            .expect("fault-free run")
            .outliers;
        let first = run_strat(Strat::UniSpaceFixed, &data, None, Some((&root, "p")))
            .expect("durable run")
            .outliers;
        prop_assert_eq!(&first, &expected);

        let job_dir = root.join("p-detect");
        let mut files: Vec<PathBuf> = fs::read_dir(&job_dir)
            .expect("job dir exists")
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        prop_assert!(!files.is_empty());
        let target = &files[file_ix % files.len()];
        let bytes = fs::read(target).unwrap();
        let keep = (bytes.len() as u64 * cut_ppm as u64 / 1000) as usize;
        fs::write(target, &bytes[..keep]).unwrap();

        let rerun = with_watchdog(&format!("prop-{file_ix}-{cut_ppm}"), {
            let (data, root) = (data.clone(), root.clone());
            move || run_strat(Strat::UniSpaceFixed, &data, None, Some((&root, "p")))
        });
        match rerun {
            Ok(out) => prop_assert_eq!(&out.outliers, &expected),
            Err(e) => prop_assert!(false, "re-run over truncated state errored: {}", e),
        }
        let _ = fs::remove_dir_all(&root);
    }
}
