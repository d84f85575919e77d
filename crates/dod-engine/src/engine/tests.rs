//! Tests of the engine that reach into its lock: tile layouts, refresh
//! stages and the epoch build on more threads than points.

use super::*;
use crate::FAN_OUT_MIN_QUERIES;
use dod::DodConfig;
use dod_core::OutlierParams;
use dod_detect::Side;
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
    let st = read_recover(&engine.state);
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
                partition.ids(Side::Support).to_vec(),
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
