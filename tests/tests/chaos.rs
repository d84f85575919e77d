//! Chaos suite: deterministic fault injection against the full pipeline
//! and the resident engine, and the engine's state lock under
//! concurrent callers.
//!
//! The oracle for every fault plan is the same: a faulty run must either
//! produce output bit-identical to the fault-free run, or fail with a
//! clean typed error ([`dod::Error::Job`]) once retries are exhausted —
//! never hang, never return a silently wrong answer. Each chaos run
//! executes under a global watchdog so a hang fails the test instead of
//! blocking the suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

use dod::prelude::*;
use dod_engine::{Engine, Request, FAN_OUT_MIN_QUERIES};
use dod_integration::{mixed_density, uniform_nd};
use mapreduce::FaultPlan;
use proptest::prelude::*;

/// Hard ceiling on any single chaos run. Generous: a fault-free run
/// takes well under a second, and injected straggler delays are ~15ms.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on a helper thread and fails the test if it does not finish
/// within [`WATCHDOG`] — the "never hangs" half of the chaos oracle.
fn with_watchdog<T, F>(label: &str, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(format!("chaos-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn chaos watchdog thread");
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(_) => panic!("chaos run `{label}` exceeded the {WATCHDOG:?} watchdog: likely hang"),
    }
}

fn config(params: OutlierParams, cluster: ClusterConfig) -> DodConfig {
    DodConfig::builder(params)
        .sample_rate(1.0)
        .block_size(32)
        .num_reducers(3)
        .target_partitions(8)
        .cluster(cluster)
        .build()
        .unwrap()
}

/// A cluster that aggressively exercises the recovery machinery: many
/// retries so chaos-rate faults usually still succeed, near-zero backoff
/// so exhausted-retry cases fail fast, and a low speculation floor so the
/// injected ~15ms stragglers actually trigger speculative re-execution.
fn recovery_cluster(fault: Option<FaultPlan>) -> ClusterConfig {
    let base = ClusterConfig::new(8)
        .with_retries(6)
        .with_backoff_ms(1)
        .with_speculation(5, 200)
        .with_blacklist_after(2);
    match fault {
        Some(plan) => base.with_fault(plan),
        None => base,
    }
}

/// The three partitioning strategies the chaos matrix covers.
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

/// Runs the pipeline for one strategy under an optional fault plan.
fn run_pipeline(
    strat: Strat,
    data: &PointSet,
    fault: Option<FaultPlan>,
) -> Result<DodOutcome, dod::Error> {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let cfg = config(params, recovery_cluster(fault));
    runner_for(strat, cfg).run(data)
}

/// The chaos oracle applied to one `(strategy, seed)` cell: the faulty
/// run either reproduces the fault-free outliers exactly or fails with a
/// typed `Job` error. Returns the faulty run's job metrics on success so
/// the caller can confirm faults were actually injected.
fn check_cell(strat: Strat, seed: u64, data: &PointSet) -> Vec<mapreduce::JobMetrics> {
    let expected = run_pipeline(strat, data, None)
        .expect("fault-free run must succeed")
        .outliers;
    let outcome = with_watchdog(&format!("{strat:?}-{seed}"), {
        let data = data.clone();
        move || run_pipeline(strat, &data, Some(FaultPlan::chaos(seed)))
    });
    match outcome {
        Ok(out) => {
            assert_eq!(
                out.outliers, expected,
                "{strat:?} seed {seed}: faulty run succeeded but outliers diverged"
            );
            out.report.jobs
        }
        Err(dod::Error::Job(_)) => Vec::new(), // clean typed failure: retries exhausted
        Err(other) => panic!("{strat:?} seed {seed}: unexpected error class: {other}"),
    }
}

/// The headline acceptance test: 32+ fixed chaos seeds across all three
/// strategies, each under the watchdog. Beyond identical-or-typed-error,
/// the matrix as a whole must show the fault machinery actually fired
/// (retries, block-read errors) and recovered (some runs still succeed).
#[test]
fn chaos_seed_matrix_is_identical_or_typed_error() {
    let data = mixed_density(77, 400);
    let mut retries = 0u64;
    let mut block_errors = 0u64;
    let mut successes = 0usize;
    for seed in 0..36u64 {
        let strat = STRATS[(seed % 3) as usize];
        let jobs = check_cell(strat, seed, &data);
        if !jobs.is_empty() {
            successes += 1;
        }
        for j in &jobs {
            retries += j.task_retries;
            block_errors += j.block_read_errors;
        }
    }
    assert!(
        successes >= 18,
        "chaos plans should mostly be recoverable, got {successes}/36 successes"
    );
    assert!(retries > 0, "chaos matrix never triggered a retry");
    assert!(
        block_errors > 0,
        "chaos matrix never triggered a block-read error"
    );
}

/// Same oracle on a higher-dimensional dataset, exercising the two-job
/// Domain protocol's neighbor: every strategy, a handful of seeds.
#[test]
fn chaos_oracle_holds_in_three_dimensions() {
    let data = uniform_nd(5, 300, 3, 6.0);
    for seed in [3u64, 11, 19, 27] {
        for strat in STRATS {
            check_cell(strat, seed, &data);
        }
    }
}

/// A panic-only plan with enough retries always succeeds, and repeated
/// runs under the same seed are bit-identical: fault decisions are a
/// pure function of `(seed, stage, task, attempt)`, not of timing.
#[test]
fn panic_only_chaos_is_deterministic_across_repeats() {
    let data = mixed_density(13, 300);
    for seed in [1u64, 2, 3, 4] {
        let plan = FaultPlan::new(seed).with_panics(250);
        let first = run_pipeline(Strat::DmtMultiTactic, &data, Some(plan))
            .expect("panic-only plan with 6 retries must recover")
            .outliers;
        let again = run_pipeline(Strat::DmtMultiTactic, &data, Some(plan))
            .expect("second run under the same plan")
            .outliers;
        assert_eq!(first, again, "seed {seed}: non-deterministic recovery");
    }
}

/// Engine chaos: injected panics are contained to their own request on
/// the calling thread, the health snapshot records them, and
/// `Request::Detect` still matches the one-shot pipeline afterwards.
#[test]
fn engine_survives_injected_panics_and_stays_exact() {
    let data = mixed_density(41, 300);
    let params = OutlierParams::new(1.2, 4).unwrap();
    let make = || {
        runner_for(
            Strat::DmtMultiTactic,
            config(params, recovery_cluster(None)),
        )
    };
    let expected = make().run(&data).unwrap().outliers;
    let engine = Engine::builder(make()).build(&data).unwrap();
    with_watchdog("engine-panics", move || {
        for _ in 0..8 {
            let err = engine
                .inject_panic()
                .expect_err("injected panic must surface as an error");
            assert!(
                matches!(err, dod_engine::EngineError::TaskPanicked { .. }),
                "expected TaskPanicked, got {err}"
            );
        }
        let got = engine.execute(Request::Detect).unwrap().into_outliers();
        assert_eq!(
            got,
            Some(expected),
            "engine diverged after contained panics"
        );
        let health = engine.health();
        assert_eq!(health.panics, 8);
        assert_eq!(health.in_flight, 0);
    });
}

/// Three readers score two fixed probe batches in a loop while one
/// writer inserts batches, one of them out of domain (an epoch swap
/// mid-run), all through `Engine::execute` on one shared engine. Each
/// batch puts three points within `r` of every one of the eight anchor
/// probes and `k` is above every final count, so a reply is the exact
/// neighbour counts: it must equal the brute-force counts over the corpus
/// plus the first `i` batches for some `i` — a half-applied batch gives
/// counts no prefix has — and `i` never goes back within one reader. The
/// second probe batch holds `FAN_OUT_MIN_QUERIES` points (the anchors
/// first), so its scores fan out over the engine's two workers: helper
/// threads read the partitions while inserts wait at the state lock.
/// Beside them, a gauge reader polls `Engine::health` and `Engine::epoch`,
/// which take no lock: the resident count must always be the corpus plus
/// a whole number of batches, a number that never goes back, and the
/// epoch must never go back either.
#[test]
fn concurrent_scores_see_whole_insert_batches() {
    const READERS: usize = 3;
    const BATCHES: usize = 16;
    let params = OutlierParams::new(1.2, 1_000).unwrap();
    let corpus = mixed_density(43, 400);
    let probes: Vec<Vec<f64>> = [
        (1.0, 1.0),
        (2.5, 2.5),
        (4.0, 1.0),
        (1.0, 4.0),
        (25.0, 15.0),
        (30.0, 20.0),
        (40.0, 30.0),
        (35.0, 12.0),
    ]
    .iter()
    .map(|&(x, y)| vec![x, y])
    .collect();
    let wide: Vec<Vec<f64>> = (0..FAN_OUT_MIN_QUERIES)
        .map(|i| {
            let (q, d) = (&probes[i % probes.len()], 0.05 * (i / probes.len()) as f64);
            vec![q[0] + d, q[1] - d]
        })
        .collect();
    let batches: Vec<Vec<Vec<f64>>> = (0..BATCHES)
        .map(|b| {
            let mut batch: Vec<Vec<f64>> = probes
                .iter()
                .flat_map(|q| {
                    (0..3).map(move |j| {
                        let d = 0.1 * (1 + (b + j) % 5) as f64;
                        vec![q[0] + d, q[1] - d / 2.0]
                    })
                })
                .collect();
            if b == BATCHES / 2 {
                batch.push(vec![500.0, 500.0]);
            }
            batch
        })
        .collect();
    let probe_sets = [probes, wide];
    // `[set][i]`: the counts of probe set `set` after the first `i` batches.
    let expected: Vec<Vec<Vec<usize>>> = probe_sets
        .iter()
        .map(|set| {
            (0..=BATCHES)
                .map(|i| {
                    set.iter()
                        .map(|q| {
                            let near = |p: &[f64]| params.metric.within(q, p, params.r);
                            (0..corpus.len()).filter(|&j| near(corpus.point(j))).count()
                                + batches[..i].iter().flatten().filter(|p| near(p)).count()
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    // `[i]`: the resident count after the first `i` batches.
    let resident: Vec<usize> = (0..=BATCHES)
        .map(|i| corpus.len() + batches[..i].iter().map(Vec::len).sum::<usize>())
        .collect();
    let runner = runner_for(
        Strat::DmtMultiTactic,
        config(params, recovery_cluster(None)),
    );
    let engine = Engine::builder(runner).build(&corpus).unwrap();
    with_watchdog("engine-concurrent-history", move || {
        let applied = AtomicUsize::new(0);
        let rounds = Barrier::new(READERS + 1);
        // Scores every probe set once; per set, the prefix its reply
        // matches, or the reply no prefix gives.
        let score = || -> Vec<Result<usize, Vec<usize>>> {
            probe_sets
                .iter()
                .zip(&expected)
                .map(|(set, expected)| {
                    let req = Request::Score {
                        points: set.clone(),
                    };
                    let scores = engine.execute(req).unwrap().into_score().unwrap();
                    let reply: Vec<usize> = scores.iter().map(|s| s.neighbors).collect();
                    expected.iter().position(|e| *e == reply).ok_or(reply)
                })
                .collect()
        };
        // A reader collects what it saw wrong and carries on, so one torn
        // reply cannot leave the others waiting at the barrier.
        let torn: Vec<String> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    s.spawn(|| {
                        let (mut seen, mut torn) = (0, Vec::new());
                        for b in 0..BATCHES {
                            rounds.wait();
                            // Score until batch `b` has landed, overlapping
                            // its insert.
                            loop {
                                for reply in score() {
                                    match reply {
                                        Ok(i) if i >= seen => seen = i,
                                        reply => torn.push(format!("{reply:?} after {seen}")),
                                    }
                                }
                                if applied.load(Ordering::Acquire) > b {
                                    break;
                                }
                            }
                        }
                        for last in score() {
                            if last != Ok(BATCHES) {
                                torn.push(format!("{last:?} after the last batch"));
                            }
                        }
                        torn
                    })
                })
                .collect();
            // Stops at its first wrong reading: it polls in a tight loop.
            let gauges = s.spawn(|| {
                let (mut seen, mut epoch) = (0, 0);
                loop {
                    let done = applied.load(Ordering::Acquire) == BATCHES;
                    let health = engine.health();
                    match resident.iter().position(|&n| n == health.points) {
                        Some(i) if i >= seen => seen = i,
                        _ => return vec![format!("{} points after {seen} batches", health.points)],
                    }
                    for e in [health.epoch, engine.epoch()] {
                        if e < epoch {
                            return vec![format!("epoch {e} after epoch {epoch}")];
                        }
                        epoch = e;
                    }
                    if done {
                        break;
                    }
                    std::thread::yield_now();
                }
                if seen != BATCHES {
                    return vec![format!("{seen} batches in the gauges after the last")];
                }
                Vec::new()
            });
            for (b, batch) in batches.iter().enumerate() {
                rounds.wait();
                let req = Request::Insert {
                    points: batch.clone(),
                };
                engine.execute(req).unwrap();
                applied.store(b + 1, Ordering::Release);
            }
            readers
                .into_iter()
                .chain([gauges])
                .flat_map(|r| r.join().unwrap())
                .collect()
        });
        assert!(
            torn.is_empty(),
            "replies no prefix of the batches gives: {torn:?}"
        );
        assert!(engine.epoch() > 0, "the out-of-domain batch swaps epochs");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random chaos seeds × random strategy × random data seed: the
    // identical-or-typed-error oracle holds everywhere, under the
    // watchdog. This is the satellite's randomized sweep on top of the
    // fixed acceptance matrix above.
    #[test]
    fn chaos_oracle_holds_for_random_seeds(
        seed in 0u64..100_000,
        strat_ix in 0usize..3,
        data_seed in 0u64..50,
    ) {
        let data = mixed_density(data_seed, 250);
        let strat = STRATS[strat_ix];
        let expected = run_pipeline(strat, &data, None)
            .expect("fault-free run must succeed")
            .outliers;
        let outcome = with_watchdog(&format!("prop-{strat:?}-{seed}"), {
            let data = data.clone();
            move || run_pipeline(strat, &data, Some(FaultPlan::chaos(seed)))
        });
        match outcome {
            Ok(out) => prop_assert_eq!(out.outliers, expected),
            Err(dod::Error::Job(_)) => {} // typed failure is allowed
            Err(other) => prop_assert!(false, "unexpected error class: {}", other),
        }
    }
}
