//! Kernel-layer microbenchmarks: tiled neighbor counting vs. the scalar
//! per-pair path it replaced.
//!
//! Two families of measurements, both reported as *pair throughput*
//! (candidate distance predicates evaluated per second):
//!
//! * **micro** — a single query point scanned against a large candidate
//!   set with no early exit. The baseline walks a permuted index array
//!   through `PointSet::point` and calls `Metric::within` per pair (the
//!   pre-kernel inner loop, bounds-checked random access and re-derived
//!   `r²` included); the kernel side scans the same candidates gathered
//!   into one contiguous columnar tile via
//!   [`NeighborPredicate::count_within_tile`].
//! * **columns** — the same single-query scan over the candidates stored
//!   one dimension after another, via
//!   [`NeighborPredicate::count_within_columns`]: the layout
//!   `NestedLoop` scans. One row for the portable build of the scan and
//!   one for the build the process dispatched to (AVX2 on x86-64, in the
//!   default build), against the same per-pair baseline as the micro rows.
//! * **e2e** — a whole detector run. The kernelized detectors from
//!   `dod-detect` are compared against scalar twins reimplemented here
//!   with the original per-pair loops; both report identical outlier
//!   sets, so the ratio isolates the kernel layer's effect.
//!
//! The `bench kernels` subcommand prints these rows and `--json` writes
//! them to `BENCH_kernels.json` (schema `dod-bench-kernels/v1`).

use std::hint::black_box;
use std::time::Instant;

use dod_core::{KernelBackend, Metric, NeighborPredicate, OutlierParams, PointSet};
use dod_detect::{Detector, NestedLoop, Partition, Reference};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One measured comparison between the kernel path and its scalar
/// baseline, in pairs (distance predicates) per second.
#[derive(Debug, Clone)]
pub struct KernelBenchResult {
    /// Row identifier, e.g. `micro_euclid_d2`.
    pub name: String,
    /// Build of the kernel the fast side ran on (`"scalar"` or
    /// `"avx2"`). Columns rows are emitted once per build of the columnar
    /// scan the process can run; the row-major tile kernel has one build
    /// and reports `"scalar"`.
    pub backend: String,
    /// Kernel-path throughput.
    pub pairs_per_sec: f64,
    /// Scalar-baseline throughput.
    pub baseline_pairs_per_sec: f64,
    /// `pairs_per_sec / baseline_pairs_per_sec`.
    pub speedup: f64,
}

/// Candidate-set size for the microbenchmark tiles.
pub const MICRO_POINTS: usize = 4096;

fn uniform_set(seed: u64, n: usize, dim: usize, side: f64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = PointSet::new(dim).expect("dim >= 1");
    let mut buf = vec![0.0; dim];
    for _ in 0..n {
        for b in buf.iter_mut() {
            *b = rng.gen_range(0.0..side);
        }
        set.push(&buf).expect("same dim");
    }
    set
}

/// Times `work` (which must evaluate `pairs_per_call` predicates per
/// call) adaptively until `min_time_s` of wall clock has accumulated,
/// after one untimed warm-up call. Three independent passes run and the
/// fastest wins: on a shared machine the max is the least-interfered
/// estimate. Returns pairs per second.
pub fn throughput(pairs_per_call: usize, min_time_s: f64, mut work: impl FnMut() -> usize) -> f64 {
    black_box(work());
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut calls = 0u64;
        let start = Instant::now();
        loop {
            black_box(work());
            calls += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= min_time_s {
                best = best.max((calls as f64) * (pairs_per_call as f64) / elapsed);
                break;
            }
        }
    }
    best
}

/// The pre-kernel inner loop: follow a permuted index order through
/// `PointSet::point` (bounds-checked random access per candidate) and
/// apply `Metric::within` with `r` re-derived every call.
pub fn scalar_pair_scan(
    metric: Metric,
    r: f64,
    q: &[f64],
    data: &PointSet,
    order: &[u32],
) -> usize {
    let mut found = 0usize;
    for &j in order {
        if metric.within(q, data.point(j as usize), r) {
            found += 1;
        }
    }
    found
}

/// The kernel path over the same candidates gathered contiguously.
pub fn kernel_tile_scan(pred: &NeighborPredicate, q: &[f64], tile: &[f64]) -> usize {
    pred.count_within_tile(q, tile, usize::MAX).found
}

/// Builds the shared fixture for one micro row: dataset, permuted order,
/// the order-gathered contiguous tile, and a query point.
pub struct MicroFixture {
    /// Candidate points in storage order.
    pub data: PointSet,
    /// Random permutation of candidate indices (the nested-loop idiom).
    pub order: Vec<u32>,
    /// Candidates gathered into permutation order, back to back.
    pub tile: Vec<f64>,
    /// The query point.
    pub query: Vec<f64>,
}

impl MicroFixture {
    /// Fixture for `n` points in `dim` dimensions.
    pub fn new(seed: u64, n: usize, dim: usize) -> Self {
        let data = uniform_set(seed, n, dim, 10.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let mut tile = Vec::with_capacity(n * dim);
        for &j in &order {
            tile.extend_from_slice(data.point(j as usize));
        }
        let query = (0..dim).map(|_| rng.gen_range(0.0..10.0)).collect();
        MicroFixture {
            data,
            order,
            tile,
            query,
        }
    }
}

/// Radius at which roughly half the uniform micro candidates are
/// neighbors: the predicate outcome must not be branch-predictor trivia.
pub fn half_hit_radius(metric: Metric, dim: usize) -> f64 {
    match metric {
        Metric::Euclidean => 4.0 * (dim as f64).sqrt(),
        Metric::Manhattan => 4.0 * dim as f64,
        Metric::Chebyshev => 4.0,
    }
}

/// The rows of one single-query config: the `portable` scan always
/// (backend `"scalar"`), plus the `dispatched` scan when the process
/// dispatches to the AVX2 build. Both share `per_pair`, the pre-kernel
/// scan of the same candidates, as baseline, so `speedup` stays "vs the
/// pre-kernel loop" across backends and layouts.
fn rows_per_backend(
    name: &str,
    min_time_s: f64,
    per_pair: impl Fn() -> usize,
    mut portable: impl FnMut() -> usize,
    backend: KernelBackend,
    mut dispatched: impl FnMut() -> usize,
) -> Vec<KernelBenchResult> {
    // All sides count the same neighbors — a cheap sanity anchor.
    assert_eq!(
        (portable(), dispatched()),
        (per_pair(), per_pair()),
        "fixture disagreement for {name}"
    );
    let baseline = throughput(MICRO_POINTS, min_time_s, &per_pair);
    let row = |backend: KernelBackend, pairs_per_sec: f64| KernelBenchResult {
        name: name.to_string(),
        backend: backend.name().to_string(),
        pairs_per_sec,
        baseline_pairs_per_sec: baseline,
        speedup: pairs_per_sec / baseline,
    };
    let mut rows = vec![row(
        KernelBackend::Scalar,
        throughput(MICRO_POINTS, min_time_s, portable),
    )];
    if backend != KernelBackend::Scalar {
        rows.push(row(
            backend,
            throughput(MICRO_POINTS, min_time_s, dispatched),
        ));
    }
    rows
}

/// One micro config: the row-major tile scan, which has one build.
fn micro_rows(name: &str, metric: Metric, dim: usize, min_time_s: f64) -> Vec<KernelBenchResult> {
    let r = half_hit_radius(metric, dim);
    let fx = MicroFixture::new(11 + dim as u64, MICRO_POINTS, dim);
    let pred = NeighborPredicate::with_metric(metric, r);
    let scan = || kernel_tile_scan(&pred, &fx.query, &fx.tile);
    rows_per_backend(
        name,
        min_time_s,
        || scalar_pair_scan(metric, r, &fx.query, &fx.data, &fx.order),
        scan,
        KernelBackend::Scalar,
        scan,
    )
}

/// One columnar config: the micro row's candidates, query and radius
/// stored one dimension after another, scanned by the portable build of
/// the columnar kernel and by the build the process dispatched to — so
/// `columns_euclid_d4` reads directly against `micro_euclid_d4`.
fn columns_rows(name: &str, metric: Metric, dim: usize, min_time_s: f64) -> Vec<KernelBenchResult> {
    let r = half_hit_radius(metric, dim);
    let fx = MicroFixture::new(11 + dim as u64, MICRO_POINTS, dim);
    let pred = NeighborPredicate::with_metric(metric, r);
    let columns: Vec<f64> = (0..dim)
        .flat_map(|d| fx.tile.chunks_exact(dim).map(move |p| p[d]))
        .collect();
    let run = 0..MICRO_POINTS;
    rows_per_backend(
        name,
        min_time_s,
        || scalar_pair_scan(metric, r, &fx.query, &fx.data, &fx.order),
        || {
            pred.count_within_columns_scalar(&fx.query, &columns, run.clone(), usize::MAX)
                .found
        },
        dod_core::columns_backend(),
        || {
            pred.count_within_columns(&fx.query, &columns, run.clone(), usize::MAX)
                .found
        },
    )
}

/// A scalar twin of [`NestedLoop`]: identical RNG sequence and scan
/// order, but the original per-pair loop (`Partition::point` +
/// `OutlierParams::neighbors`) instead of the kernel layer. Returns
/// `(outliers, distance_evaluations)`.
pub fn scalar_nested_loop(partition: &Partition, params: OutlierParams) -> (Vec<u64>, u64) {
    let n = partition.core().len();
    let total = partition.total_len();
    let mut outliers = Vec::new();
    let mut evals = 0u64;
    if n == 0 {
        return (outliers, evals);
    }
    let mut rng = StdRng::seed_from_u64(0xD0D_0001);
    let mut order: Vec<u32> = (0..total as u32).collect();
    order.shuffle(&mut rng);
    for i in 0..n {
        let p = partition.core().point(i);
        let start = rng.gen_range(0..total);
        let mut found = 0usize;
        for step in 0..total {
            let j = order[(start + step) % total] as usize;
            if j == i {
                continue;
            }
            evals += 1;
            if params.neighbors(p, partition.point(j)) {
                found += 1;
                if found >= params.k {
                    break;
                }
            }
        }
        if found < params.k {
            outliers.push(partition.core_id(i));
        }
    }
    outliers.sort_unstable();
    (outliers, evals)
}

/// A scalar twin of [`Reference`]: every core point against every other
/// point with the original per-pair loop. Returns `(outliers, evals)`.
pub fn scalar_reference(partition: &Partition, params: OutlierParams) -> (Vec<u64>, u64) {
    let total = partition.total_len();
    let mut outliers = Vec::new();
    let mut evals = 0u64;
    for i in 0..partition.core().len() {
        let q = partition.core().point(i);
        let mut found = 0usize;
        for j in 0..total {
            if j == i {
                continue;
            }
            evals += 1;
            if params.neighbors(q, partition.point(j)) {
                found += 1;
                if found >= params.k {
                    break;
                }
            }
        }
        if found < params.k {
            outliers.push(partition.core_id(i));
        }
    }
    outliers.sort_unstable();
    (outliers, evals)
}

/// A scalar detector twin: `(partition, params) -> (outliers, evals)`.
type ScalarTwin = dyn Fn(&Partition, OutlierParams) -> (Vec<u64>, u64);

fn e2e_row(
    name: &str,
    dim: usize,
    n: usize,
    min_time_s: f64,
    kernelized: &dyn Detector,
    scalar: &ScalarTwin,
    backend: KernelBackend,
) -> KernelBenchResult {
    let data = uniform_set(42 + dim as u64, n, dim, 12.0);
    let partition = Partition::standalone(data);
    let params = OutlierParams::new(1.0, 4).expect("valid params");

    let k_det = kernelized.detect(&partition, params);
    let (s_out, s_evals) = scalar(&partition, params);
    assert_eq!(k_det.outliers, s_out, "e2e fixture disagreement for {name}");
    let k_evals = k_det.stats.distance_evaluations.max(1) as usize;

    let kernel = throughput(k_evals, min_time_s, || {
        kernelized.detect(&partition, params).outliers.len()
    });
    let baseline = throughput(s_evals.max(1) as usize, min_time_s, || {
        scalar(&partition, params).0.len()
    });
    KernelBenchResult {
        name: name.to_string(),
        backend: backend.name().to_string(),
        pairs_per_sec: kernel,
        baseline_pairs_per_sec: baseline,
        speedup: kernel / baseline,
    }
}

/// Runs every kernel bench row. `min_time_s` is the per-measurement
/// wall-clock floor (0.2 s is plenty on a quiet machine; the CI compile
/// check never calls this).
pub fn run_all(min_time_s: f64) -> Vec<KernelBenchResult> {
    let mut rows = Vec::new();
    for dim in 1..=4 {
        rows.extend(micro_rows(
            &format!("micro_euclid_d{dim}"),
            Metric::Euclidean,
            dim,
            min_time_s,
        ));
    }
    rows.extend(micro_rows(
        "micro_euclid_d8",
        Metric::Euclidean,
        8,
        min_time_s,
    ));
    rows.extend(micro_rows(
        "micro_manhattan_d3",
        Metric::Manhattan,
        3,
        min_time_s,
    ));
    rows.extend(micro_rows(
        "micro_chebyshev_d3",
        Metric::Chebyshev,
        3,
        min_time_s,
    ));
    for (name, metric, dim) in [
        ("columns_euclid_d2", Metric::Euclidean, 2),
        ("columns_euclid_d4", Metric::Euclidean, 4),
        ("columns_euclid_d8", Metric::Euclidean, 8),
        ("columns_manhattan_d3", Metric::Manhattan, 3),
        ("columns_chebyshev_d3", Metric::Chebyshev, 3),
    ] {
        rows.extend(columns_rows(name, metric, dim, min_time_s));
    }
    // Nested-Loop scans the columnar layout, Reference the row-major one.
    for dim in [2, 4] {
        rows.push(e2e_row(
            &format!("e2e_nested_loop_d{dim}"),
            dim,
            2000,
            min_time_s,
            &NestedLoop::default(),
            &scalar_nested_loop,
            dod_core::columns_backend(),
        ));
    }
    rows.push(e2e_row(
        "e2e_reference_d4",
        4,
        900,
        min_time_s,
        &Reference,
        &scalar_reference,
        KernelBackend::Scalar,
    ));
    rows
}

/// Serializes results to the checked-in `BENCH_kernels.json` schema.
pub fn to_json(results: &[KernelBenchResult]) -> String {
    let mut out = String::from("{\n  \"schema\": \"dod-bench-kernels/v1\",\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"backend\": \"{}\", \"pairs_per_sec\": {:.0}, \
             \"baseline_pairs_per_sec\": {:.0}, \"speedup_vs_scalar\": {:.2}}}{}\n",
            r.name,
            r.backend,
            r.pairs_per_sec,
            r.baseline_pairs_per_sec,
            r.speedup,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_twins_match_kernelized_detectors() {
        for dim in [1usize, 2, 3, 5] {
            let data = uniform_set(7 + dim as u64, 300, dim, 8.0);
            let partition = Partition::standalone(data);
            let params = OutlierParams::new(1.2, 3).unwrap();
            let nl = NestedLoop::default().detect(&partition, params);
            let (nl_out, nl_evals) = scalar_nested_loop(&partition, params);
            assert_eq!(nl.outliers, nl_out, "nested-loop outliers, dim {dim}");
            assert_eq!(
                nl.stats.distance_evaluations, nl_evals,
                "nested-loop evals, dim {dim}"
            );
            let rf = Reference.detect(&partition, params);
            let (rf_out, rf_evals) = scalar_reference(&partition, params);
            assert_eq!(rf.outliers, rf_out, "reference outliers, dim {dim}");
            assert_eq!(
                rf.stats.distance_evaluations, rf_evals,
                "reference evals, dim {dim}"
            );
        }
    }

    #[test]
    fn json_schema_shape() {
        let rows = vec![KernelBenchResult {
            name: "x".into(),
            backend: "avx2".into(),
            pairs_per_sec: 2.0e9,
            baseline_pairs_per_sec: 1.0e9,
            speedup: 2.0,
        }];
        let json = to_json(&rows);
        assert!(json.contains("\"schema\": \"dod-bench-kernels/v1\""));
        assert!(json.contains("\"backend\": \"avx2\""));
        assert!(json.contains("\"speedup_vs_scalar\": 2.00"));
        assert!(json.ends_with("}\n"));
    }
}
