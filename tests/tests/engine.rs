//! Resident engine vs. one-shot pipeline: the equivalence anchor.
//!
//! `Request::Detect` must return exactly the one-shot pipeline's
//! outlier set for the same configuration, strategy, and data — both
//! paths run the same exact detectors, so any divergence is a routing
//! or state-materialization bug. Plus: scoring against the brute-force
//! reference.

use dod::prelude::*;
use dod_core::Metric;
use dod_engine::{Engine, EngineError, Request};
use dod_integration::{mixed_density, reference_outliers, uniform_nd};

fn config(params: OutlierParams) -> DodConfig {
    DodConfig::builder(params)
        .sample_rate(1.0)
        .block_size(32)
        .num_reducers(3)
        .target_partitions(8)
        .build()
        .unwrap()
}

fn engine_for(runner: DodRunner, data: &PointSet) -> Engine {
    Engine::builder(runner).workers(2).build(data).unwrap()
}

fn detect(engine: &Engine) -> Vec<dod_core::PointId> {
    engine
        .execute(Request::Detect)
        .unwrap()
        .into_outliers()
        .unwrap()
}

type RunnerFactory = fn(DodConfig) -> DodRunner;

/// Every strategy × both generators: the engine's `Request::Detect`
/// answers exactly what the one-shot pipeline answers (which itself
/// matches the brute-force reference).
#[test]
fn detect_all_equals_one_shot_for_every_strategy() {
    let params = OutlierParams::new(1.2, 4).unwrap();
    for data in [mixed_density(21, 400), uniform_nd(22, 300, 3, 6.0)] {
        let expected = reference_outliers(&data, params);
        let builders: Vec<(&str, RunnerFactory)> = vec![
            ("domain", |c| {
                // Domain runs the two-job protocol in the pipeline; the
                // engine serves the same plan via supporting areas.
                DodRunner::builder()
                    .config(c)
                    .strategy(Domain)
                    .fixed(AlgorithmKind::NestedLoop)
                    .build()
            }),
            ("unispace", |c| {
                DodRunner::builder()
                    .config(c)
                    .strategy(UniSpace)
                    .multi_tactic()
                    .build()
            }),
            ("ddriven", |c| {
                DodRunner::builder()
                    .config(c)
                    .strategy(DDriven)
                    .multi_tactic()
                    .build()
            }),
            ("cdriven", |c| {
                DodRunner::builder()
                    .config(c)
                    .strategy(CDriven::new(AlgorithmKind::NestedLoop))
                    .multi_tactic()
                    .build()
            }),
            ("dmt", |c| {
                DodRunner::builder()
                    .config(c)
                    .strategy(Dmt::default())
                    .multi_tactic()
                    .build()
            }),
        ];
        for (name, make) in builders {
            let one_shot = make(config(params)).run(&data).unwrap().outliers;
            assert_eq!(one_shot, expected, "{name}: pipeline vs reference");
            let engine = engine_for(make(config(params)), &data);
            let resident = detect(&engine);
            assert_eq!(resident, one_shot, "{name}: engine vs pipeline");
        }
    }
}

/// The equivalence holds for fixed single-algorithm modes too — each
/// detector kind materializes a different resident index (grid, kd-tree,
/// or plain scan).
#[test]
fn detect_all_equals_one_shot_for_every_fixed_algorithm() {
    let params = OutlierParams::new(1.0, 3).unwrap();
    let data = mixed_density(23, 350);
    let expected = reference_outliers(&data, params);
    for kind in AlgorithmKind::ALL {
        let make = || {
            DodRunner::builder()
                .config(config(params))
                .fixed(kind)
                .build()
        };
        assert_eq!(make().run(&data).unwrap().outliers, expected, "{kind:?}");
        let engine = engine_for(make(), &data);
        assert_eq!(detect(&engine), expected, "{kind:?} via engine");
    }
}

/// Equivalence survives a non-Euclidean metric (the `[q−r, q+r]`
/// pruning boxes and rectangle min-distances must agree with it).
#[test]
fn detect_all_equals_one_shot_under_manhattan_metric() {
    let params = OutlierParams::new(1.5, 4)
        .unwrap()
        .with_metric(Metric::Manhattan);
    let data = mixed_density(29, 300);
    let expected = reference_outliers(&data, params);
    let make = || {
        DodRunner::builder()
            .config(config(params))
            .multi_tactic()
            .build()
    };
    assert_eq!(make().run(&data).unwrap().outliers, expected);
    let engine = engine_for(make(), &data);
    assert_eq!(detect(&engine), expected);
}

/// Scoring the dataset's own points (nudged by zero) against the
/// resident state agrees with brute force over the whole dataset.
#[test]
fn score_batch_matches_brute_force_neighbor_counts() {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = mixed_density(31, 250);
    let engine = engine_for(
        DodRunner::builder()
            .config(config(params))
            .multi_tactic()
            .build(),
        &data,
    );
    // Query points off the dataset: midpoints and far-out probes.
    let queries: Vec<Vec<f64>> = (0..50)
        .map(|i| {
            let a = data.point(i * 3);
            let b = data.point(i * 5 + 1);
            vec![(a[0] + b[0]) / 2.0 + 0.003, (a[1] + b[1]) / 2.0 - 0.007]
        })
        .chain([vec![1e4, -1e4]])
        .collect();
    let scores = engine
        .execute(Request::Score {
            points: queries.clone(),
        })
        .unwrap()
        .into_score()
        .unwrap();
    for (q, s) in queries.iter().zip(&scores) {
        let brute = (0..data.len())
            .filter(|&i| params.metric.within(q, data.point(i), params.r))
            .count();
        assert_eq!(
            s.outlier,
            brute < params.k,
            "query {q:?}: engine {s:?} vs brute count {brute}"
        );
        // Neighbor counts agree up to the early-stop cap at k.
        assert_eq!(s.neighbors, brute.min(params.k), "query {q:?}");
    }
}

/// `refresh_plan` re-plans with a new seed; the outlier set must be
/// unchanged (exactness is plan-independent), and the epoch advances.
#[test]
fn refresh_preserves_the_outlier_set() {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = mixed_density(37, 400);
    let engine = engine_for(
        DodRunner::builder()
            .config(config(params))
            .multi_tactic()
            .build(),
        &data,
    );
    let before = detect(&engine);
    assert_eq!(before, reference_outliers(&data, params));
    for expected_epoch in 1..=3 {
        assert_eq!(engine.refresh_plan().unwrap(), expected_epoch);
        assert_eq!(detect(&engine), before);
    }
}

/// An insert whose points would stretch the resident bounding box past
/// what `f64` can span (`1e308` resident, `-1e308` inserted) is refused
/// before anything is mutated: the resident count holds, and the next
/// requests answer over exactly the resident points.
#[test]
fn insert_that_overflows_the_span_is_refused_unmutated() {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = mixed_density(43, 300);
    let runner = DodRunner::builder()
        .config(config(params))
        .multi_tactic()
        .build();
    // The refusal dumps the flight ring, as every failed request does.
    let engine = Engine::builder(runner)
        .flight_dump(Box::new(std::io::sink()))
        .build(&data)
        .unwrap();
    let far = engine
        .execute(Request::Insert {
            points: vec![vec![1e308, 1e308]],
        })
        .unwrap()
        .into_insert()
        .unwrap();
    assert_eq!(far.resident, 301);
    let mut resident = data.clone();
    resident.push(&[1e308, 1e308]).unwrap();

    let err = engine
        .execute(Request::Insert {
            points: vec![vec![0.5, 0.5], vec![-1e308, -1e308]],
        })
        .unwrap_err();
    assert!(matches!(err, EngineError::Extent), "{err}");
    assert_eq!(engine.health().points, 301);
    assert_eq!(detect(&engine), reference_outliers(&resident, params));
    let scores = engine
        .execute(Request::Score {
            points: vec![vec![1e308, 1e308]],
        })
        .unwrap()
        .into_score()
        .unwrap();
    assert_eq!(scores.len(), 1);
    assert!(scores[0].outlier);
}
