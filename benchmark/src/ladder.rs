//! The per-layer ladder of a traced run: the same sequence of calls
//! into each crate's public functions for every workload, over that
//! workload's own corpus, bottom layer first. Each call is timed from
//! the harness and wrapped in a span. README.md says which end-to-end
//! metric each number here is expected to move, and on which workload.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

use dod::prelude::*;
use dod_detect::{Partition, PartitionState};
use dod_engine::{Engine, Request};
use dod_obs::{MetricsRecorder, Obs};
use dod_partition::{sample_points, PlanContext};

use crate::env::Error;
use crate::gen::Rng;
use crate::run::Session;
use crate::stats::{median, percentile};
use crate::wire::{self, ServeChild};
use crate::workloads::{CHURN_BATCH, SCORE_BATCH, THREADS};

/// Points of the kernel micro-benchmark's tile (128 KiB in 4-d: inside
/// L2, as the per-partition tiles of a run mostly are).
const TILE_POINTS: usize = 4096;
const TILE_QUERIES: usize = 256;
/// Points of the homogeneous partition the detector stage runs on. A
/// cap, because Nested-Loop outliers cost a full scan each.
const DETECT_POINTS: usize = 50_000;
/// Insert and remove batches per mutation measurement.
const MUTATION_BATCHES: usize = 16;

/// What the workload's own traced replay saw of inserts and epoch swaps
/// (all zero unless the workload churns).
#[derive(Default)]
pub struct Replay {
    pub inserts: usize,
    pub spliced: usize,
    pub refreshes: usize,
    /// Growth of the child's peak memory from its first epoch swap to
    /// its last.
    pub rss_creep_mb: f64,
}

fn rows(flat: &[f64], dim: usize) -> Vec<Vec<f64>> {
    flat.chunks_exact(dim).map(<[f64]>::to_vec).collect()
}

pub fn run(
    s: &mut Session,
    dod: &Path,
    quick: bool,
    replay: &Replay,
) -> Result<Vec<(&'static str, f64)>, Error> {
    let (w, inp) = (s.w, s.inp);
    let shape = w.shape;
    let dim = shape.dim;
    let n = inp.points;
    let params = w.params();
    let script = &inp.script;
    let mut stream = Rng::new(inp.stream_seed);
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let root = s.log.enter("ladder", 0);

    // ---- dod-data ----------------------------------------------------
    let mut read_ms = Vec::new();
    let mut data = None;
    for op in 0..3 {
        let (read, ms) = s
            .log
            .timed("dod-data.read_csv", op, || dod_data::io::read_csv(&inp.csv));
        data = Some(read?);
        read_ms.push(ms);
    }
    let data = data.expect("read three times");
    m.push(("dod-data.read_csv_ms", median(&read_ms)));

    // ---- dod-core: the tile kernel on this corpus's coordinates -------
    let tile_points = TILE_POINTS.min(n / 2);
    let tile = &inp.corpus[..tile_points * dim];
    let queries = &inp.corpus[tile_points * dim..(tile_points + TILE_QUERIES.min(n / 2)) * dim];
    let pairs = (tile_points * queries.len() / dim) as f64;
    let pred = params.predicate();
    let mut ns_per_pair = Vec::new();
    for op in 0..7 {
        let ((), ms) = s.log.timed("dod-core.count_within_tile", op, || {
            for q in queries.chunks_exact(dim) {
                black_box(pred.count_within_tile(black_box(q), black_box(tile), usize::MAX));
            }
        });
        ns_per_pair.push(ms * 1e6 / pairs);
    }
    let ns_per_pair = median(&ns_per_pair);
    let scanned: usize = queries
        .chunks_exact(dim)
        .map(|q| pred.count_within_tile(q, tile, shape.k).scanned)
        .sum();
    m.push(("dod-core.kernel_ns_per_pair", ns_per_pair));
    m.push(("dod-core.kernel_scanned_share", scanned as f64 / pairs));

    // ---- dod-detect: the workload's detector on one partition ---------
    let kind = if w.nested_loop {
        AlgorithmKind::NestedLoop
    } else {
        AlgorithmKind::CellBased
    };
    let part_points = DETECT_POINTS.min(n);
    let core = PointSet::from_flat(dim, inp.corpus[..part_points * dim].to_vec())?;
    let partition = Arc::new(Partition::standalone(core));
    let (mut state, ms) = s.log.timed("dod-detect.state_build", 0, || {
        PartitionState::build(kind, partition, params)
    });
    m.push(("dod-detect.state_build_ms", ms));
    let (detection, ms) = s.log.timed("dod-detect.detect", 0, || state.detect());
    m.push(("dod-detect.detect_ms", ms));
    let per_point = |count: u64| count as f64 / part_points as f64;
    let stats = detection.stats;
    m.push((
        "dod-detect.index_ops_per_point",
        per_point(stats.index_operations),
    ));
    m.push((
        "dod-detect.dist_evals_per_point",
        per_point(stats.distance_evaluations),
    ));
    let scored = &script.queries[..4];
    let ((), ms) = s.log.timed("dod-detect.score", 0, || {
        for q in scored.iter().flat_map(|batch| batch.chunks_exact(dim)) {
            black_box(state.count_core_neighbors_traced(q, shape.k));
        }
    });
    m.push((
        "dod-detect.score_us_per_point",
        ms * 1e3 / (4 * SCORE_BATCH) as f64,
    ));
    let spliced = shape.stream(8 * CHURN_BATCH, &mut stream);
    let first_id = part_points as u64;
    let (splice, ms) = s.log.timed("dod-detect.splice", 0, || {
        for (i, p) in spliced.chunks_exact(dim).enumerate() {
            state.insert_core(p, first_id + i as u64)?;
        }
        for i in 0..spliced.len() / dim {
            state.remove_core(first_id + i as u64);
        }
        Ok::<(), Error>(())
    });
    splice?;
    m.push((
        "dod-detect.splice_us_per_point",
        ms * 1e3 / (16 * CHURN_BATCH) as f64,
    ));
    drop(state);

    // ---- dod-partition -------------------------------------------------
    let counter = Arc::new(MetricsRecorder::new());
    let counted_runner = w.runner(Obs::new(counter.clone()), false);
    let runner = w.runner(Obs::null(), true);
    let config = runner.config();
    let (sample, ms) = s.log.timed("dod-partition.sample_points", 0, || {
        sample_points(&data, config.sample_rate, config.seed)
    });
    m.push(("dod-partition.sample_ms", ms));
    let domain = data.bounding_rect()?;
    let ctx = PlanContext::new(params, config.target_partitions, config.sample_rate);
    let (_, ms) = s.log.timed("dod-partition.build_plan", 0, || {
        black_box(Dmt::default().build_plan(&sample, &domain, &ctx))
    });
    m.push(("dod-partition.plan_ms", ms));
    let pre = s
        .log
        .wrap("dod.preprocess", 0, || runner.preprocess(&data))?;
    m.push(("dod-partition.partitions", pre.mt.num_partitions() as f64));
    let mut reducer_cost = vec![0.0; config.num_reducers];
    for (&reducer, &cost) in pre.mt.allocation.iter().zip(&pre.mt.predicted_costs) {
        reducer_cost[reducer] += cost;
    }
    let mean_cost = reducer_cost.iter().sum::<f64>() / reducer_cost.len() as f64;
    let max_cost = reducer_cost.iter().copied().fold(0.0, f64::max);
    m.push(("dod-partition.cost_imbalance", max_cost / mean_cost));

    // ---- mapreduce and dod: whole runs --------------------------------
    let counted = s.log.wrap("dod.run", 0, || counted_runner.run(&data))?;
    s.checks.check(counted.outliers == inp.outliers, || {
        "ladder count run's outlier set".into()
    });
    let evals = counter.counter_total("detect.distance_evals") as f64;
    // One row per run: run, preprocess, self, map, reduce, host wall (ms),
    // shuffle bytes/point, reduce skew, attempts/task, records/point.
    let mut runs: Vec<[f64; 10]> = Vec::new();
    for op in 1..=(if quick { 2 } else { 3 }) {
        let (outcome, run_ms) = s.log.timed("dod.run", op, || runner.run(&data));
        let outcome = outcome?;
        s.checks.check(outcome.outliers == inp.outliers, || {
            "ladder run's outlier set".into()
        });
        let jobs = &outcome.report.jobs;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let map: Vec<f64> = jobs
            .iter()
            .flat_map(|j| &j.map_task_times)
            .map(|t| ms(*t))
            .collect();
        let reduce: Vec<f64> = jobs
            .iter()
            .flat_map(|j| &j.reduce_task_times)
            .map(|t| ms(*t))
            .collect();
        let tasks = (map.len() + reduce.len()) as f64;
        let extra: u64 = jobs
            .iter()
            .map(|j| j.task_retries + j.speculative_launched)
            .sum();
        let records: u64 = jobs.iter().map(|j| j.shuffle_records).sum();
        let pre_ms = ms(outcome.report.breakdown.preprocess);
        let host_ms: f64 = jobs.iter().map(|j| ms(j.host_wall)).sum();
        let reduce_sum: f64 = reduce.iter().sum();
        runs.push([
            run_ms,
            pre_ms,
            run_ms - pre_ms - host_ms,
            map.iter().sum(),
            reduce_sum,
            host_ms,
            outcome.report.shuffle_bytes as f64 / n as f64,
            reduce.iter().copied().fold(0.0, f64::max) / (reduce_sum / reduce.len() as f64),
            (tasks + extra as f64) / tasks,
            records as f64 / n as f64,
        ]);
    }
    let col = |i: usize| median(&runs.iter().map(|row| row[i]).collect::<Vec<_>>());
    let (run_ms, pre_ms, self_ms, map_ms, reduce_ms) = (col(0), col(1), col(2), col(3), col(4));
    // The run's busy time: what it spends outside jobs plus every task.
    let busy_ms = pre_ms + self_ms + map_ms + reduce_ms;
    // A model, not a measurement: the count run's pairs at the tile
    // micro-benchmark's price (L2-resident tile, no early exit), over the
    // busy time of other runs. Timing the kernel where it runs takes a
    // span inside dod-core, which the harness cannot place.
    m.push((
        "dod-core.kernel_modelled_share",
        evals * ns_per_pair / 1e6 / busy_ms,
    ));
    m.push(("mapreduce.map_ms", map_ms));
    m.push(("mapreduce.reduce_ms", reduce_ms));
    m.push(("mapreduce.host_wall_ms", col(5)));
    m.push(("mapreduce.shuffle_bytes_per_point", col(6)));
    m.push(("mapreduce.reduce_skew", col(7)));
    m.push(("mapreduce.attempts_per_task", col(8)));
    m.push(("dod.run_ms", run_ms));
    m.push(("dod.preprocess_ms", pre_ms));
    m.push(("dod.self_ms", self_ms));
    m.push(("dod.replication_factor", col(9)));
    m.push(("dod.outlier_share", inp.outliers.len() as f64 / n as f64));

    // ---- dod-engine: the resident engine, in process ------------------
    let (engine, ms) = s.log.timed("dod-engine.build", 0, || {
        Engine::builder(runner.clone())
            .workers(THREADS)
            .build(&data)
    });
    let engine = engine?;
    m.push(("dod-engine.build_ms", ms));
    let passes = if quick { 1 } else { 3 };
    let mut engine_score_us = Vec::new();
    for op in 0..passes * script.queries.len() {
        let points = rows(&script.queries[op % script.queries.len()], dim);
        let (scores, ms) = s.log.timed("dod-engine.score", op as u64, || {
            engine.submit(Request::Score { points })?.wait()
        });
        scores?
            .into_score()
            .ok_or("score request answered with another response")?;
        engine_score_us.push(ms * 1e3);
    }
    m.push(("dod-engine.score_p50_us", median(&engine_score_us)));
    m.push((
        "dod-engine.score_p99_us",
        percentile(&engine_score_us, 99.0),
    ));
    let mut b1_us = Vec::new();
    for (op, q) in script.queries[0].chunks_exact(dim).enumerate() {
        let points = vec![q.to_vec()];
        let (scores, ms) = s.log.timed("dod-engine.score_b1", op as u64, || {
            engine.submit(Request::Score { points })?.wait()
        });
        scores?;
        b1_us.push(ms * 1e3);
    }
    m.push(("dod-engine.score_b1_p50_us", median(&b1_us)));
    let mut insert_ms = Vec::new();
    let mut remove_ms = Vec::new();
    let mut batches = Vec::new();
    let (mut inserts, mut spliced) = (replay.inserts, replay.spliced);
    for op in 0..MUTATION_BATCHES {
        let points = rows(&shape.stream(CHURN_BATCH, &mut stream), dim);
        let (receipt, ms) = s.log.timed("dod-engine.insert", op as u64, || {
            engine.submit(Request::Insert { points })?.wait()
        });
        let receipt = receipt?
            .into_insert()
            .ok_or("insert request answered with another response")?;
        insert_ms.push(ms);
        inserts += 1;
        spliced += usize::from(!receipt.refreshed);
        batches.push(receipt.ids);
    }
    for (op, ids) in batches.into_iter().enumerate() {
        let (receipt, ms) = s.log.timed("dod-engine.remove", op as u64, || {
            engine.submit(Request::Remove { ids })?.wait()
        });
        receipt?;
        remove_ms.push(ms);
    }
    let per_s = |batch_ms: &[f64]| CHURN_BATCH as f64 / (median(batch_ms) / 1e3);
    m.push(("dod-engine.insert_points_per_s", per_s(&insert_ms)));
    m.push(("dod-engine.remove_points_per_s", per_s(&remove_ms)));
    let mut refresh_ms = Vec::new();
    for op in 0..2 {
        let (epoch, ms) = s
            .log
            .timed("dod-engine.refresh_plan", op, || engine.refresh_plan());
        epoch?;
        refresh_ms.push(ms);
    }
    m.push(("dod-engine.refresh_ms", median(&refresh_ms)));
    m.push(("dod-engine.splice_share", spliced as f64 / inserts as f64));
    drop(engine);

    // ---- dod-cli: the same requests over the wire ---------------------
    let span = s.log.enter("dod-cli.spawn", 0);
    let (mut serve, ready) = ServeChild::spawn(dod, &inp.csv, &w.serve_args())?;
    s.log.exit(span);
    m.push(("dod-cli.ready_ms", ready.as_secs_f64() * 1e3));
    let mut wire_score_ms = Vec::new();
    let mut request_bytes = 0;
    for op in 0..passes * script.requests.len() {
        let request = &script.requests[op % script.requests.len()];
        let (ms, reply) = s.request(&mut serve, "dod-cli.score", op as u64, request)?;
        wire_score_ms.push(ms);
        request_bytes += request.len() + 1;
        s.checks.check(
            wire::score_results(reply).is_some_and(|r| r.len() == SCORE_BATCH),
            || "ladder score response".into(),
        );
    }
    let wire_p50_ms = median(&wire_score_ms);
    m.push(("dod-cli.score_p50_ms", wire_p50_ms));
    m.push(("dod-cli.score_p99_ms", percentile(&wire_score_ms, 99.0)));
    let mut insert_ms = Vec::new();
    let mut remove_ms = Vec::new();
    let mut batches = Vec::new();
    for op in 0..MUTATION_BATCHES {
        let request = wire::points_request("insert", &shape.stream(CHURN_BATCH, &mut stream), dim);
        let (ms, reply) = s.request(&mut serve, "dod-cli.insert", op as u64, &request)?;
        insert_ms.push(ms);
        let ids = wire::field_ids(reply, "ids").filter(|ids| ids.len() == CHURN_BATCH);
        s.checks.check(wire::is_ok(reply) && ids.is_some(), || {
            "ladder insert receipt".into()
        });
        batches.push(ids.unwrap_or_default());
    }
    for (op, ids) in batches.iter().enumerate() {
        let request = wire::remove_request(ids);
        let (ms, reply) = s.request(&mut serve, "dod-cli.remove", op as u64, &request)?;
        remove_ms.push(ms);
        s.checks.check(
            wire::field_u64(reply, "removed") == Some(ids.len() as u64),
            || "ladder remove receipt".into(),
        );
    }
    m.push(("dod-cli.insert_p50_ms", median(&insert_ms)));
    m.push(("dod-cli.remove_p50_ms", median(&remove_ms)));
    // A point outside the plan's domain cannot be spliced: the insert
    // answers `"refreshed":true` after a full epoch swap.
    let mut stall_ms = Vec::new();
    for op in 0..2 {
        let outside = vec![shape.side + 1.0 + op as f64; dim];
        let request = wire::points_request("insert", &outside, dim);
        let (ms, reply) = s.request(&mut serve, "dod-cli.insert_outside", op, &request)?;
        stall_ms.push(ms);
        s.checks
            .check(wire::field_bool(reply, "refreshed") == Some(true), || {
                format!("out-of-domain insert did not swap epochs: {reply}")
            });
    }
    serve.quit()?;
    m.push(("dod-cli.refresh_stall_ms", median(&stall_ms)));
    m.push((
        "dod-cli.wire_overhead_us",
        wire_p50_ms * 1e3 - median(&engine_score_us),
    ));
    let scored_points = (wire_score_ms.len() * SCORE_BATCH) as f64;
    m.push((
        "dod-cli.request_bytes_per_point",
        request_bytes as f64 / scored_points,
    ));
    m.push(("dod-cli.replay_refreshes", replay.refreshes as f64));
    m.push(("dod-cli.replay_rss_creep_mb", replay.rss_creep_mb));
    s.log.exit(root);
    Ok(m)
}
