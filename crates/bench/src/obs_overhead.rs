//! `bench obs-overhead`: the cost of always-on telemetry on the serving
//! path.
//!
//! Two resident engines over the same dataset and plan answer identical
//! `score_batch` streams:
//!
//! * **null** — `Obs::null()` and the flight recorder disabled: the
//!   zero-telemetry floor;
//! * **telemetry** — the full serving configuration: a
//!   [`dod_obs::MetricsRecorder`] aggregating every event into
//!   percentile histograms, plus the default-capacity flight recorder
//!   fanned out in front of it (exactly what `dod serve` runs).
//!
//! The documented budget is [`OVERHEAD_BUDGET_PCT`] (< 2% median
//! `score_batch` latency). Two design choices keep it there: per-event
//! work is one atomic fetch-add plus a `try_lock` ring write on the
//! flight path and a mutexed histogram bump on the metrics path, all
//! off the kernel hot loop; and per-request emission is bounded — the
//! engine details only its [`dod_engine::PARTITION_WORK_TOP_K`]
//! heaviest partitions and rolls the tail up per algorithm, so cost
//! does not scale with plan size. Full runs enforce the budget
//! (non-zero exit on breach); `--quick` runs are too short to be
//! statistically meaningful, so they only report.

use std::sync::Arc;
use std::time::Instant;

use dod::prelude::*;
use dod_engine::{Engine, Request};
use dod_obs::{MetricsRecorder, Obs, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Documented telemetry overhead budget, in percent of median
/// `score_batch` latency.
pub const OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// The measured comparison.
#[derive(Debug, Clone)]
pub struct ObsOverheadResult {
    /// Batches timed per engine.
    pub batches: usize,
    /// Query points per batch.
    pub points_per_batch: usize,
    /// Median `score_batch` latency with `Obs::null()`, microseconds.
    pub null_us: f64,
    /// Median `score_batch` latency with full telemetry, microseconds.
    pub telemetry_us: f64,
    /// Median of paired per-batch `(telemetry - null)` differences over
    /// the null median, in percent. Negative values (noise) mean
    /// telemetry measured faster.
    pub overhead_pct: f64,
    /// Whether `overhead_pct` is within [`OVERHEAD_BUDGET_PCT`].
    pub within_budget: bool,
}

/// Mixed-density dataset matching the serving benchmarks.
fn dataset(seed: u64, n: usize) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = PointSet::new(2).expect("dim 2");
    for _ in 0..n {
        let roll: f64 = rng.gen();
        let p = if roll < 0.45 {
            [rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)]
        } else if roll < 0.9 {
            [rng.gen_range(20.0..44.0), rng.gen_range(10.0..34.0)]
        } else {
            [rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)]
        };
        data.push(&p).expect("dim 2");
    }
    data
}

fn build_engine(data: &PointSet, obs: Obs, flight_capacity: usize) -> Engine {
    let params = OutlierParams::new(1.2, 4).expect("valid parameters");
    let config = DodConfig::builder(params)
        .sample_rate(0.05)
        .num_reducers(8)
        .target_partitions(32)
        .obs(obs)
        .build()
        .expect("valid config");
    let runner = DodRunner::builder().config(config).multi_tactic().build();
    Engine::builder(runner)
        .flight_capacity(flight_capacity)
        .build(data)
        .expect("engine builds")
}

/// Times one `score_batch` request, in microseconds.
fn one_batch_us(engine: &Engine, queries: &[Vec<f64>]) -> f64 {
    let t0 = Instant::now();
    engine
        .execute(Request::Score {
            points: queries.to_vec(),
        })
        .expect("score");
    t0.elapsed().as_secs_f64() * 1e6
}

/// Median of a sample set — robust against scheduler spikes, which on a
/// shared host dwarf the effect being measured.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    samples[samples.len() / 2]
}

/// Runs the comparison. `quick` shrinks the dataset and repetitions to
/// smoke-test scale.
pub fn run(quick: bool) -> ObsOverheadResult {
    let (n, batches, points_per_batch): (usize, usize, usize) = if quick {
        (2_000, 20, 64)
    } else {
        (20_000, 200, 256)
    };
    let data = dataset(11, n);
    let mut rng = StdRng::seed_from_u64(13);
    let queries: Vec<Vec<f64>> = (0..points_per_batch)
        .map(|_| vec![rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)])
        .collect();

    let null_engine = build_engine(&data, Obs::null(), 0);
    let metrics = Arc::new(MetricsRecorder::new());
    let telemetry_engine = build_engine(
        &data,
        Obs::new(Arc::clone(&metrics) as Arc<dyn Recorder>),
        dod_obs::DEFAULT_FLIGHT_CAPACITY,
    );

    // Warm both engines (partition state, caches, allocator).
    for _ in 0..batches.div_ceil(8).max(2) {
        one_batch_us(&null_engine, &queries);
        one_batch_us(&telemetry_engine, &queries);
    }
    // Interleave batch-by-batch so drift (thermal, scheduler, noisy
    // neighbors) hits both engines equally. The overhead estimate is
    // the median of *paired* per-batch differences — adjacent batches
    // see the same machine state, so pairing cancels drift that
    // independent medians would leave in.
    let mut null_samples = Vec::with_capacity(batches);
    let mut tele_samples = Vec::with_capacity(batches);
    let mut deltas = Vec::with_capacity(batches);
    for _ in 0..batches {
        let n = one_batch_us(&null_engine, &queries);
        let t = one_batch_us(&telemetry_engine, &queries);
        null_samples.push(n);
        tele_samples.push(t);
        deltas.push(t - n);
    }
    let null_us = median(&mut null_samples);
    let telemetry_us = median(&mut tele_samples);

    let overhead_pct = 100.0 * median(&mut deltas) / null_us;
    ObsOverheadResult {
        batches,
        points_per_batch,
        null_us,
        telemetry_us,
        overhead_pct,
        within_budget: overhead_pct <= OVERHEAD_BUDGET_PCT,
    }
}

/// Serializes a result as the `dod-bench-obs/v1` JSON document.
pub fn to_json(r: &ObsOverheadResult, quick: bool) -> String {
    format!(
        "{{\n  \"schema\": \"dod-bench-obs/v1\",\n  \"budget_pct\": {},\n  \
         \"quick\": {},\n  \"batches\": {},\n  \"points_per_batch\": {},\n  \
         \"null_us\": {:.3},\n  \"telemetry_us\": {:.3},\n  \
         \"overhead_pct\": {:.3},\n  \"within_budget\": {}\n}}\n",
        OVERHEAD_BUDGET_PCT,
        quick,
        r.batches,
        r.points_per_batch,
        r.null_us,
        r.telemetry_us,
        r.overhead_pct,
        r.within_budget
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_measures_both_engines_and_serializes() {
        let r = run(true);
        assert!(r.null_us > 0.0);
        assert!(r.telemetry_us > 0.0);
        assert!(r.overhead_pct.is_finite());
        let json = to_json(&r, true);
        assert!(json.contains("\"schema\": \"dod-bench-obs/v1\""));
        assert!(json.contains("\"budget_pct\": 2"));
        assert!(json.contains("\"quick\": true"));
    }
}
