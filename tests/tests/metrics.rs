//! Cross-metric exactness: everything that holds under the Euclidean
//! metric (Definition 2.1's `dist` is arbitrary) must hold under `L1`
//! and `L∞` too — detectors, the distributed pipeline, and the
//! extensions.

use dod::extensions::similarity_join::{reference_join_metric, similarity_join};
use dod::prelude::*;
use dod_core::Metric;
use dod_detect::{Detector, Partition, Reference};
use dod_integration::{mixed_density, uniform_nd};

const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

fn config(params: OutlierParams) -> DodConfig {
    DodConfig::builder(params)
        .sample_rate(1.0)
        .block_size(128)
        .num_reducers(4)
        .target_partitions(12)
        .build()
        .unwrap()
}

#[test]
fn every_detector_matches_reference_under_every_metric() {
    let data = mixed_density(31, 400);
    for metric in METRICS {
        let params = OutlierParams::new(1.3, 4).unwrap().with_metric(metric);
        let partition = Partition::standalone(data.clone());
        let expected = Reference.detect(&partition, params).outliers;
        for kind in AlgorithmKind::ALL
            .into_iter()
            .filter(|&kind| kind != AlgorithmKind::Reference)
        {
            assert_eq!(
                kind.detector().detect(&partition, params).outliers,
                expected,
                "{} under {:?}",
                kind.name(),
                metric
            );
        }
    }
}

#[test]
fn metrics_produce_genuinely_different_answers() {
    // Sanity: the metric matters — a point at L∞ distance r but larger L1
    // distance flips between inlier and outlier.
    let data = PointSet::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
    let partition = Partition::standalone(data);
    let r = 1.2;
    // L∞ distance is 1.0 <= 1.2: neighbors. L1 distance is 2.0 > 1.2.
    let cheb = OutlierParams::new(r, 1)
        .unwrap()
        .with_metric(Metric::Chebyshev);
    let manh = OutlierParams::new(r, 1)
        .unwrap()
        .with_metric(Metric::Manhattan);
    assert!(Reference.detect(&partition, cheb).outliers.is_empty());
    assert_eq!(Reference.detect(&partition, manh).outliers, vec![0, 1]);
}

#[test]
fn pipeline_is_exact_under_every_metric_and_strategy() {
    let data = mixed_density(32, 500);
    for metric in METRICS {
        let params = OutlierParams::new(1.1, 3).unwrap().with_metric(metric);
        let expected = Reference
            .detect(&Partition::standalone(data.clone()), params)
            .outliers;
        for (name, runner) in [
            (
                "dmt",
                DodRunner::builder()
                    .config(config(params))
                    .multi_tactic()
                    .build(),
            ),
            (
                "unispace+cb",
                DodRunner::builder()
                    .config(config(params))
                    .strategy(UniSpace)
                    .fixed(AlgorithmKind::CellBased)
                    .build(),
            ),
            (
                "domain+nl",
                DodRunner::builder()
                    .config(config(params))
                    .strategy(Domain)
                    .fixed(AlgorithmKind::NestedLoop)
                    .build(),
            ),
            (
                "cdriven+mt",
                DodRunner::builder()
                    .config(config(params))
                    .strategy(CDriven::new(AlgorithmKind::NestedLoop))
                    .multi_tactic()
                    .build(),
            ),
        ] {
            let outcome = runner.run(&data).unwrap();
            assert_eq!(outcome.outliers, expected, "{name} under {metric:?}");
        }
    }
}

#[test]
fn three_dimensional_chebyshev_pipeline() {
    let data = uniform_nd(33, 300, 3, 10.0);
    let params = OutlierParams::new(1.0, 3)
        .unwrap()
        .with_metric(Metric::Chebyshev);
    let expected = Reference
        .detect(&Partition::standalone(data.clone()), params)
        .outliers;
    let runner = DodRunner::builder()
        .config(config(params))
        .multi_tactic()
        .build();
    assert_eq!(runner.run(&data).unwrap().outliers, expected);
}

#[test]
fn similarity_join_exact_under_every_metric() {
    let data = mixed_density(34, 300);
    for metric in METRICS {
        let params = OutlierParams::new(0.9, 1).unwrap().with_metric(metric);
        let out = similarity_join(&data, &config(params), &UniSpace).unwrap();
        assert_eq!(
            out.pairs,
            reference_join_metric(&data, 0.9, metric),
            "join under {metric:?}"
        );
    }
}

#[test]
fn dbscan_exact_under_every_metric() {
    use dod::extensions::dbscan::{dbscan, dbscan_local_metric, Label};
    let data = mixed_density(35, 400);
    for metric in METRICS {
        let params = OutlierParams::new(0.8, 4).unwrap().with_metric(metric);
        let out = dbscan(&data, &config(params), &UniSpace).unwrap();
        // Noise set must match the centralized run exactly.
        let (reference_clusters, _) = dbscan_local_metric(&data, 0.8, 4, metric);
        for (i, reference) in reference_clusters.iter().enumerate() {
            assert_eq!(
                out.labels[i] == Label::Noise,
                reference.is_none(),
                "noise mismatch at {i} under {metric:?}"
            );
        }
    }
}
