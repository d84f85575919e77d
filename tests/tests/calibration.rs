//! The measured cost-calibration profile, end to end: the checked-in
//! `BENCH_calibration.json` must parse and cover every metric, and
//! loading a profile must be able to change the planner's algorithm
//! assignments without ever changing the answer.

use dod::prelude::*;
use dod_core::Metric;
use dod_detect::cost::CostWeights;
use dod_detect::{CalibrationProfile, ProfileEntry};
use dod_integration::{mixed_density, reference_outliers};

/// Path of the profile `bench calibrate --json` writes at the repo root.
fn checked_in_profile_path() -> String {
    format!("{}/../BENCH_calibration.json", env!("CARGO_MANIFEST_DIR"))
}

fn runner_with(profile: CalibrationProfile) -> DodRunner {
    let params = OutlierParams::new(1.0, 4).unwrap();
    let config = DodConfig::builder(params)
        .target_partitions(32)
        .sample_rate(1.0)
        .calibration(profile)
        .build()
        .unwrap();
    DodRunner::builder()
        .config(config)
        .strategy(Dmt::default())
        .multi_tactic()
        .build()
}

/// Plans `data` under `profile` and returns the per-partition winners
/// plus the detected outliers.
fn plan_and_run(data: &PointSet, profile: CalibrationProfile) -> (Vec<AlgorithmKind>, Vec<u64>) {
    let runner = runner_with(profile);
    let pre = runner.preprocess(data).unwrap();
    let winners = pre.mt.report.partitions.iter().map(|p| p.winner).collect();
    let outliers = runner.run(data).unwrap().outliers;
    (winners, outliers)
}

/// Guard on the artifact `bench calibrate` checks in: it parses under
/// the current schema, covers all three metrics, and every row carries
/// the derived-weight invariants (`pair = 1`, `structural >= 1`).
#[test]
fn checked_in_profile_parses_and_covers_every_metric() {
    let profile = CalibrationProfile::load(&checked_in_profile_path())
        .expect("BENCH_calibration.json must parse; regenerate with `bench calibrate --json`");
    assert!(!profile.is_unit());
    for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
        assert!(profile.covers(metric), "profile must cover {metric:?}");
    }
    for e in profile.entries() {
        assert!(e.dim >= 1);
        assert!(e.kernel_pair_ns.is_finite() && e.kernel_pair_ns > 0.0);
        assert!(e.scalar_pair_ns.is_finite() && e.scalar_pair_ns > 0.0);
        assert_eq!(e.weights.pair, 1.0, "{e:?}");
        assert!(e.weights.structural >= 1.0, "{e:?}");
    }
}

/// A profile that re-prices structural ops changes which algorithms DMT
/// commits to — and the answer stays exactly the same, because every
/// tactic is exact.
#[test]
fn calibration_changes_assignments_but_never_answers() {
    let data = mixed_density(7, 4000);
    let params = OutlierParams::new(1.0, 4).unwrap();
    let expected = reference_outliers(&data, params);

    let (unit_winners, unit_outliers) = plan_and_run(&data, CalibrationProfile::unit());
    assert_eq!(unit_outliers, expected);

    // A strongly structural-heavy profile (scalar bookkeeping measured
    // 6x a kernel pair) — the regime the kernel layer actually created.
    let heavy = CalibrationProfile::new(vec![ProfileEntry::from_measurement(
        Metric::Euclidean,
        2,
        1.0,
        6.0,
    )]);
    let (heavy_winners, heavy_outliers) = plan_and_run(&data, heavy);
    assert_eq!(
        heavy_outliers, expected,
        "calibration must not change answers"
    );
    assert_eq!(unit_winners.len(), heavy_winners.len());
    assert_ne!(
        unit_winners, heavy_winners,
        "a 6x structural weight must flip at least one assignment"
    );
}

/// The checked-in measured profile (not a synthetic one) also flips at
/// least one assignment on a mixed-density dataset, while the answers
/// stay identical — the ROADMAP recalibration criterion.
#[test]
fn checked_in_profile_changes_at_least_one_assignment() {
    let profile = CalibrationProfile::load(&checked_in_profile_path()).unwrap();
    let weights = profile.weights_for(Metric::Euclidean, 2);
    assert_ne!(weights, CostWeights::UNIT);

    let data = mixed_density(7, 4000);
    let params = OutlierParams::new(1.0, 4).unwrap();
    let expected = reference_outliers(&data, params);

    let (unit_winners, unit_outliers) = plan_and_run(&data, CalibrationProfile::unit());
    let (cal_winners, cal_outliers) = plan_and_run(&data, profile);
    assert_eq!(unit_outliers, expected);
    assert_eq!(
        cal_outliers, expected,
        "calibration must not change answers"
    );
    if weights.structural >= 1.5 {
        assert_ne!(
            unit_winners, cal_winners,
            "measured structural weight {:.2} should re-price at least one partition",
            weights.structural
        );
    } else {
        // A machine where the kernel barely beats the scalar loop
        // measures a near-unit profile; there is nothing to flip.
        eprintln!(
            "skipping flip assertion: measured structural weight {:.2} is near unit",
            weights.structural
        );
    }
}

/// The report the plan carries is self-consistent under a calibrated
/// profile: flagged as calibrated, winners drawn from the candidates,
/// margins matching the candidate costs.
#[test]
fn calibrated_report_is_self_consistent() {
    let data = mixed_density(11, 2500);
    let heavy = CalibrationProfile::new(vec![ProfileEntry::from_measurement(
        Metric::Euclidean,
        2,
        1.0,
        4.0,
    )]);
    let runner = runner_with(heavy);
    let pre = runner.preprocess(&data).unwrap();
    let report = &pre.mt.report;
    assert!(report.calibrated);
    assert_eq!(report.weights.structural, 4.0);
    assert!(!report.partitions.is_empty());
    for p in &report.partitions {
        let winner = p
            .candidates
            .iter()
            .find(|c| c.algorithm == p.winner)
            .expect("winner among candidates");
        assert_eq!(winner.cost, p.winner_cost);
        let runner_up = p
            .candidates
            .iter()
            .filter(|c| c.algorithm != p.winner)
            .map(|c| c.cost - p.winner_cost)
            .fold(f64::INFINITY, f64::min);
        if runner_up.is_finite() {
            assert_eq!(p.margin, runner_up);
        } else {
            assert_eq!(p.margin, 0.0);
        }
    }
}

/// A profile written while the kernel had a second, feature-gated build
/// carried an `avx2` row beside each `scalar` one. It still loads, and it
/// prices every plan exactly as its scalar rows alone do: the default
/// build always preferred them. The one deliberate change is a metric
/// that has *only* `avx2` rows, which used to fall back to them and now
/// falls back to unit weights.
#[test]
fn profiles_with_backend_tagged_rows_resolve_to_their_scalar_rows() {
    let row = |metric: &str, dim: usize, backend: &str, structural: f64| {
        format!(
            "{{\"metric\": \"{metric}\", \"dim\": {dim}, \"backend\": \"{backend}\", \
             \"kernel_pair_ns\": 1.0, \"scalar_pair_ns\": {structural}, \"pair\": 1.0, \
             \"structural\": {structural}}}"
        )
    };
    let mut rows = Vec::new();
    let mut scalar_only = Vec::new();
    for (m, metric) in [(0.0, "euclidean"), (10.0, "manhattan")] {
        for dim in [1, 2, 3, 4, 8] {
            let structural = 2.0 + m + dim as f64;
            rows.push(row(metric, dim, "scalar", structural));
            rows.push(row(metric, dim, "avx2", 50.0 + structural));
            scalar_only.push(row(metric, dim, "scalar", structural));
        }
    }
    rows.push(row("chebyshev", 3, "avx2", 7.0));
    let doc = |rows: &[String]| {
        format!(
            "{{\"schema\": \"dod-calibration/v1\", \"entries\": [{}]}}",
            rows.join(",")
        )
    };
    let tagged = CalibrationProfile::from_json(&doc(&rows)).expect("tagged profile loads");
    let scalar = CalibrationProfile::from_json(&doc(&scalar_only)).unwrap();
    assert_eq!(tagged, scalar, "only the scalar rows are kept");
    for metric in [Metric::Euclidean, Metric::Manhattan] {
        for dim in 1..=9 {
            let w = tagged.weights_for(metric, dim);
            assert_eq!(w, scalar.weights_for(metric, dim), "{metric:?} d{dim}");
            assert!(
                w.structural < 50.0,
                "{metric:?} d{dim} priced by an avx2 row"
            );
        }
    }
    for dim in 1..=9 {
        assert_eq!(
            tagged.weights_for(Metric::Chebyshev, dim),
            CostWeights::UNIT,
            "an avx2-only metric falls back to unit weights"
        );
    }
}
