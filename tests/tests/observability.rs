//! Observability integration tests: the Lemma 4.1/4.2 cost models
//! validated against *observed* work counters, and the Figure 10 stage
//! breakdown reconstructed from a JSONL trace alone.

use dod::framework::{DodReducer, TaggedPoint};
use dod::pipeline::StageBreakdown;
use dod::prelude::*;
use dod_data::mixture::{GaussianMixture, MixtureComponent};
use dod_data::region::{region_dataset, Region};
use dod_detect::cost::CostModel;
use dod_obs::{Event, JsonlRecorder, MemoryRecorder, Obs, Value};
use mapreduce::Reducer;
use std::sync::Arc;

fn tagged(data: &PointSet) -> Vec<TaggedPoint> {
    (0..data.len() as dod_core::PointId)
        .map(|id| TaggedPoint::new(id, false))
        .collect()
}

fn counter_for(mem: &MemoryRecorder, name: &str, partition: u64) -> u64 {
    mem.events_named(name)
        .iter()
        .filter(|e| e.label("partition").and_then(Value::as_u64) == Some(partition))
        .filter_map(Event::counter_delta)
        .sum()
}

/// Satellite: the distance-computation counters observed through a
/// `MemoryRecorder` must sit within a documented factor of the Lemma
/// 4.1/4.2 predictions from `dod_detect::cost`.
///
/// The models assume uniform density inside the partition (Section IV),
/// so the dataset is a *mild* mixture — broad components over a strong
/// uniform background — the regime a partition ends up in after DSHC
/// splits the hotspots off. The documented contract is agreement within
/// a factor of 4 in either direction, which is what makes Corollary
/// 4.3's cost-ranked algorithm choice meaningful.
#[test]
fn observed_work_is_within_factor_4_of_lemma_predictions() {
    const FACTOR: f64 = 4.0;
    let domain = dod_core::Rect::new(vec![0.0, 0.0], vec![40.0, 40.0]).unwrap();
    let mixture = GaussianMixture::new(
        domain.clone(),
        vec![
            MixtureComponent {
                center: vec![12.0, 14.0],
                std_dev: vec![9.0, 9.0],
                weight: 1.0,
            },
            MixtureComponent {
                center: vec![28.0, 24.0],
                std_dev: vec![9.0, 9.0],
                weight: 1.0,
            },
        ],
        0.5,
    );
    let data = mixture.generate(2000, 71);
    let params = OutlierParams::new(1.5, 4).unwrap();
    let n = data.len();
    let volume = domain.volume();
    let model = CostModel::new(params, 2);

    let mem = Arc::new(MemoryRecorder::new());
    let reducer = DodReducer::new(
        &data,
        params,
        // Partition 0 runs Nested-Loop, partition 1 the full-scan
        // Cell-Based the Lemma 4.2 model charges.
        Arc::new(vec![
            AlgorithmKind::NestedLoop,
            AlgorithmKind::CellBasedFullScan,
        ]),
    )
    .with_obs(Obs::new(mem.clone()));
    let values = tagged(&data);
    reducer.reduce(&0, &values, &mut |_| {});
    reducer.reduce(&1, &values, &mut |_| {});

    // Lemma 4.1: Nested-Loop work == expected distance evaluations.
    let observed_nl = counter_for(&mem, "detect.distance_evals", 0) as f64;
    let predicted_nl = model.cost(AlgorithmKind::NestedLoop, n, volume);
    assert!(
        observed_nl >= predicted_nl / FACTOR && observed_nl <= predicted_nl * FACTOR,
        "nested-loop: observed {observed_nl} vs predicted {predicted_nl} \
         exceeds the documented x{FACTOR} band"
    );

    // Lemma 4.2 charges one indexing operation per point plus the
    // nested-loop fallback's distance evaluations.
    let observed_cb = (counter_for(&mem, "detect.index_ops", 1)
        + counter_for(&mem, "detect.distance_evals", 1)) as f64;
    let predicted_cb = model.cost(AlgorithmKind::CellBased, n, volume);
    assert!(
        observed_cb >= predicted_cb / FACTOR && observed_cb <= predicted_cb * FACTOR,
        "cell-based: observed {observed_cb} vs predicted {predicted_cb} \
         exceeds the documented x{FACTOR} band"
    );

    // The counters carry the algorithm label so traces can be split by
    // detector.
    let nl_events = mem.events_named("detect.distance_evals");
    assert!(nl_events
        .iter()
        .filter(|e| e.label("partition").and_then(Value::as_u64) == Some(0))
        .all(|e| e.label("algorithm").and_then(Value::as_str) == Some("nested-loop")));
}

/// Acceptance criterion: with a `JsonlRecorder` attached, one pipeline
/// run emits spans for every map and reduce task plus per-partition
/// detector counters, and the Figure 10 Preprocess/Map/Reduce breakdown
/// is reconstructed from the replayed events alone — exactly.
#[test]
fn jsonl_trace_replays_the_figure_10_breakdown() {
    let (data, _) = region_dataset(Region::Ohio, 1500, 11);
    let mut path = std::env::temp_dir();
    path.push(format!("dod-fig10-replay-{}.jsonl", std::process::id()));
    let recorder = JsonlRecorder::create(&path).unwrap();
    let config = DodConfig::builder(OutlierParams::new(1.8, 4).unwrap())
        .num_reducers(4)
        .target_partitions(16)
        .sample_rate(0.2)
        .obs(Obs::new(Arc::new(recorder)))
        .build()
        .unwrap();
    let runner = DodRunner::builder()
        .config(config)
        .strategy(Dmt::default())
        .multi_tactic()
        .build();
    let outcome = runner.run(&data).unwrap();

    let events = dod_obs::replay::read_jsonl(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Figure 10 bars, from events alone: exact equality, not
    // approximation — the pipeline emits the same Durations it reports.
    let replayed = StageBreakdown::from_events(&events);
    assert_eq!(replayed, outcome.report.breakdown);
    assert!(replayed.total() > std::time::Duration::ZERO);

    // One span per map task and per reduce task, across all jobs run.
    let task_spans = |stage: &str| {
        events
            .iter()
            .filter(|e| {
                e.name == "mapreduce.task"
                    && e.label("stage").and_then(Value::as_str) == Some(stage)
            })
            .count()
    };
    let expected_map: usize = outcome
        .report
        .jobs
        .iter()
        .map(|j| j.map_task_times.len())
        .sum();
    let expected_reduce: usize = outcome
        .report
        .jobs
        .iter()
        .map(|j| j.reduce_task_times.len())
        .sum();
    assert!(expected_map > 0 && expected_reduce > 0);
    assert_eq!(task_spans("map"), expected_map);
    assert_eq!(task_spans("reduce"), expected_reduce);

    // Per-partition detector counters: every partition that did work
    // appears, labelled with the algorithm the plan chose for it.
    let mut detect_partitions: Vec<u64> = events
        .iter()
        .filter(|e| e.name.starts_with("detect."))
        .filter_map(|e| e.label("partition").and_then(Value::as_u64))
        .collect();
    detect_partitions.sort_unstable();
    detect_partitions.dedup();
    assert!(!detect_partitions.is_empty());
    assert!(detect_partitions.len() <= outcome.report.num_partitions);
    assert!(events
        .iter()
        .filter(|e| e.name.starts_with("detect."))
        .all(|e| e.label("algorithm").is_some()));

    // Inside the preprocessing job: four steps, once, in order, and
    // together no longer than the bar they break down.
    let stage_spans = |name: &str| -> Vec<(&str, u64)> {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| {
                let stage = e.label("stage").and_then(Value::as_str).unwrap();
                (stage, e.span_nanos().unwrap())
            })
            .collect()
    };
    let pre = stage_spans("dod.preprocess.stage");
    let steps: Vec<&str> = pre.iter().map(|(stage, _)| *stage).collect();
    assert_eq!(steps, ["sample", "plan", "estimate", "route"]);
    let staged: u64 = pre.iter().map(|(_, nanos)| nanos).sum();
    assert_eq!(u128::from(staged), replayed.preprocess.as_nanos());

    // Inside the reduce tasks: tile, build, detect once for every
    // partition that received records.
    let red = stage_spans("dod.reduce.stage");
    let reduced = red.len() / 3;
    assert!(detect_partitions.len() <= reduced && reduced <= outcome.report.num_partitions);
    for stage in ["tile", "build", "detect"] {
        let spans = red.iter().filter(|(s, _)| *s == stage).count();
        assert_eq!(spans, reduced, "{stage}");
    }

    // The plan decisions (Corollary 4.3) are traced per partition.
    let plan_marks = events
        .iter()
        .filter(|e| e.name == "dod.plan.partition")
        .count();
    assert_eq!(plan_marks, outcome.report.num_partitions);
}

/// Source audit: every metric name is spelled once, in
/// `dod_obs::names`. No shipped code elsewhere in the workspace writes a
/// `"mapreduce.`, `"detect.`, `"dod.` or `"engine.` literal; emit sites
/// use the registry's constants.
#[test]
fn metric_names_are_spelled_only_in_the_registry() {
    let prefixes = ["\"mapreduce.", "\"detect.", "\"dod.", "\"engine."];
    for (path, source) in dod_integration::workspace_sources("crates") {
        if path.ends_with("dod-obs/src/names.rs") {
            continue;
        }
        let violations: Vec<&str> = dod_integration::shipped_lines(&source)
            .filter(|l| prefixes.iter().any(|p| l.contains(p)))
            .collect();
        assert!(
            violations.is_empty(),
            "{path}: metric names spelled outside dod_obs::names: {violations:?}"
        );
    }
}
