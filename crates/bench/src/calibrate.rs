//! `bench calibrate`: measure the cost model's per-pair constants
//! through the kernel layer and emit a [`CalibrationProfile`].
//!
//! The Section IV cost models charge every operation in abstract "ops"
//! where one op ≈ one distance predicate. That was true of the scalar
//! per-pair loops the paper assumes; the PR 3 kernel layer made pair
//! ops several times cheaper while cell/index bookkeeping stayed
//! scalar, so the constants now overcharge pair-heavy candidates. This
//! bench re-measures both sides per `(metric, dimension)` using the
//! exact scan pair the kernel benches compare — [`scalar_pair_scan`]
//! (the pre-kernel loop, the cost a *structural* op still carries) vs
//! [`kernel_tile_scan`] (the cost a *pair* op actually has now) — and
//! folds each measurement into a [`ProfileEntry`].
//!
//! The resulting `dod-calibration/v1` document is checked in as
//! `BENCH_calibration.json`; `dod --calibration BENCH_calibration.json`
//! (or `DodConfigBuilder::calibration`) loads it into the planner.

use dod_core::{Metric, NeighborPredicate};
use dod_detect::{CalibrationProfile, ProfileEntry};

use crate::kernels::{
    half_hit_radius, kernel_tile_scan, scalar_pair_scan, throughput, MicroFixture, MICRO_POINTS,
};

/// The `(metric, dim)` grid the profile measures: every metric at the
/// low dimensionalities the planner sees most, plus one high-d
/// Euclidean row to anchor the nearest-dimension fallback.
pub fn measurement_grid() -> Vec<(Metric, usize)> {
    let mut grid = Vec::new();
    for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
        for dim in 1..=4 {
            grid.push((metric, dim));
        }
    }
    grid.push((Metric::Euclidean, 8));
    grid
}

/// Measures one `(metric, dim)` cell: nanoseconds per kernel-tile pair
/// and per scalar pair over the shared micro fixture.
pub fn measure(metric: Metric, dim: usize, min_time_s: f64) -> ProfileEntry {
    let r = half_hit_radius(metric, dim);
    let fx = MicroFixture::new(23 + dim as u64, MICRO_POINTS, dim);
    let pred = NeighborPredicate::with_metric(metric, r);

    let scalar_pairs = throughput(MICRO_POINTS, min_time_s, || {
        scalar_pair_scan(metric, r, &fx.query, &fx.data, &fx.order)
    });
    let kernel_pairs = throughput(MICRO_POINTS, min_time_s, || {
        kernel_tile_scan(&pred, &fx.query, &fx.tile)
    });
    ProfileEntry::from_measurement(metric, dim, 1e9 / kernel_pairs, 1e9 / scalar_pairs)
}

/// Runs the full grid into a profile, one row per `(metric, dim)`.
/// `min_time_s` is the per-side wall-clock floor of each measurement.
pub fn run_all(min_time_s: f64) -> CalibrationProfile {
    let entries = measurement_grid()
        .into_iter()
        .map(|(metric, dim)| measure(metric, dim, min_time_s))
        .collect();
    CalibrationProfile::new(entries)
}

/// Renders the human table printed by the subcommand.
pub fn render_table(profile: &CalibrationProfile) -> String {
    let mut out = format!(
        "{:<12} {:>4} {:>15} {:>15} {:>11}\n",
        "metric", "dim", "kernel ns/pair", "scalar ns/pair", "structural"
    );
    for e in profile.entries() {
        out.push_str(&format!(
            "{:<12} {:>4} {:>15.4} {:>15.4} {:>10.2}x\n",
            e.metric.name(),
            e.dim,
            e.kernel_pair_ns,
            e.scalar_pair_ns,
            e.weights.structural
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_metric() {
        let grid = measurement_grid();
        for metric in [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev] {
            assert!(grid.iter().any(|&(m, _)| m == metric), "{metric:?}");
        }
        assert!(grid.contains(&(Metric::Euclidean, 8)));
    }

    /// One fast cell end to end: the emitted entry is well-formed and
    /// its weights satisfy the profile's invariants (pair = 1,
    /// structural >= 1, both finite).
    #[test]
    fn measured_entries_are_well_formed() {
        let e = measure(Metric::Euclidean, 2, 0.005);
        assert_eq!(e.metric, Metric::Euclidean);
        assert_eq!(e.dim, 2);
        assert!(e.kernel_pair_ns.is_finite() && e.kernel_pair_ns > 0.0);
        assert!(e.scalar_pair_ns.is_finite() && e.scalar_pair_ns > 0.0);
        assert_eq!(e.weights.pair, 1.0);
        assert!(e.weights.structural >= 1.0);
        // The produced profile round-trips through the JSON schema.
        let p = CalibrationProfile::new(vec![e]);
        let parsed = CalibrationProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(parsed.entries().len(), 1);
        assert!(!render_table(&p).is_empty());
    }
}
