//! Kernel-layer equivalence: the tiled neighbor-counting kernels must be
//! observationally identical to a scalar `Metric::within` loop — same
//! counts, same early-exit positions, and therefore the same outlier
//! sets from every detector. Covers all three metrics, dimensions 1–9,
//! tile sizes 1..64, k-boundary hit patterns, and duplicated points, for
//! the row-major tiles and the columnar scan alike.

use dod_core::{Metric, NeighborPredicate, OutlierParams, PointId, PointSet};
use dod_detect::{CellBased, Detector, IndexBased, NestedLoop, Partition, Reference};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

/// The scalar oracle the kernels must reproduce: walk the tile point by
/// point with `Metric::within`, stopping as soon as `need` neighbors are
/// found. Returns `(found, scanned)`.
fn scalar_scan(
    metric: Metric,
    r: f64,
    q: &[f64],
    tile: &[f64],
    dim: usize,
    need: usize,
) -> (usize, usize) {
    let mut found = 0;
    let mut scanned = 0;
    for p in tile.chunks(dim) {
        if found >= need {
            break;
        }
        scanned += 1;
        if metric.within(q, p, r) {
            found += 1;
        }
    }
    (found, scanned)
}

/// Brute-force Definition 2.1 outliers of a partition's core under an
/// arbitrary metric, written directly against `Metric::within` so the
/// detectors' kernelized paths are compared with code that never touches
/// the kernel layer.
fn scalar_outliers(partition: &Partition, params: OutlierParams) -> Vec<PointId> {
    let total = partition.total_len();
    let mut outliers = Vec::new();
    for i in 0..partition.core().len() {
        let q = partition.core().point(i);
        let mut neighbors = 0;
        for j in 0..total {
            if j == i {
                continue;
            }
            if params.metric.within(q, partition.point(j), params.r) {
                neighbors += 1;
                if neighbors >= params.k {
                    break;
                }
            }
        }
        if neighbors < params.k {
            outliers.push(partition.core_id(i));
        }
    }
    outliers
}

fn random_tile(seed: u64, points: usize, dim: usize, side: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..points * dim)
        .map(|_| rng.gen_range(0.0..side))
        .collect()
}

fn random_partition(
    seed: u64,
    n_core: usize,
    n_support: usize,
    dim: usize,
    side: f64,
) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut push_n = |n: usize| {
        let mut set = PointSet::new(dim).expect("dim >= 1");
        let mut buf = vec![0.0; dim];
        for _ in 0..n {
            for b in buf.iter_mut() {
                *b = rng.gen_range(0.0..side);
            }
            set.push(&buf).expect("same dim");
        }
        set
    };
    let core = push_n(n_core);
    let support = push_n(n_support);
    let ids = (0..(n_core + n_support) as u64).collect::<Vec<_>>();
    let (core_ids, support_ids) = ids.split_at(n_core);
    Partition::new(core, core_ids.to_vec(), support, support_ids.to_vec()).expect("valid partition")
}

/// Detectors exercised at dimension `dim`. The cell-based pair is
/// limited to low dimensions: its candidate block enumerates
/// `(2·radius+1)^d` cells, which is intractable (not incorrect) in high
/// `d` — a grid limitation that predates the kernel layer.
fn detectors(dim: usize) -> Vec<(&'static str, Box<dyn Detector>)> {
    let mut v: Vec<(&'static str, Box<dyn Detector>)> = vec![
        ("nested-loop", Box::new(NestedLoop::default())),
        ("index-based", Box::new(IndexBased::default())),
        ("reference", Box::new(Reference)),
    ];
    if dim <= 3 {
        v.push(("cell-based", Box::new(CellBased::default())));
        v.push((
            "cell-based-fallback",
            Box::new(CellBased::default().full_scan_fallback()),
        ));
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Core tentpole guarantee: `count_within_tile` is indistinguishable
    // from the scalar scan for every metric, dimension, and tile size.
    #[test]
    fn tile_counts_match_scalar(
        seed in 0u64..10_000,
        metric_idx in 0usize..3,
        dim in 1usize..9,
        points in 1usize..64,
        r in 0.1f64..4.0,
        need in 0usize..10,
    ) {
        let metric = METRICS[metric_idx];
        let tile = random_tile(seed, points, dim, 3.0);
        let q = random_tile(seed.wrapping_add(1), 1, dim, 3.0);
        let pred = NeighborPredicate::with_metric(metric, r);
        let out = pred.count_within_tile(&q, &tile, need);
        let (found, scanned) = scalar_scan(metric, r, &q, &tile, dim, need);
        prop_assert_eq!(out.found, found, "{} dim {} points {}", metric.name(), dim, points);
        prop_assert_eq!(out.scanned, scanned, "{} dim {} points {}", metric.name(), dim, points);
        prop_assert_eq!(out.reached(need), found >= need);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Detector outlier sets survive the kernel rewrite across metrics
    // and dimensions, with support points in the mix.
    #[test]
    fn detector_outlier_sets_match_scalar_oracle(
        seed in 0u64..1000,
        metric_idx in 0usize..3,
        dim in 1usize..9,
        n_core in 0usize..50,
        n_support in 0usize..15,
        r in 0.3f64..3.0,
        k in 1usize..6,
    ) {
        let metric = METRICS[metric_idx];
        let partition = random_partition(seed, n_core, n_support, dim, 6.0);
        let params = OutlierParams::new(r, k).unwrap().with_metric(metric);
        let expected = scalar_outliers(&partition, params);
        for (name, det) in detectors(dim) {
            let got = det.detect(&partition, params).outliers;
            prop_assert_eq!(
                &got, &expected,
                "{} under {} in dim {}", name, metric.name(), dim
            );
        }
    }
}

/// k-boundary coverage: tiles engineered so the hit count lands exactly
/// on, just below, and just above `need`, with the crossing hit placed at
/// every position of a cache block (including the block edges).
#[test]
fn k_boundary_early_exit_positions() {
    for metric in METRICS {
        for dim in [1usize, 3, 5] {
            // 70 points span two-plus cache blocks of 32.
            for hit_pos in [0usize, 1, 30, 31, 32, 33, 63, 64, 69] {
                let mut tile = vec![50.0; 70 * dim];
                // Hits at `hit_pos` and everything after it.
                for p in hit_pos..70 {
                    for d in 0..dim {
                        tile[p * dim + d] = 0.01;
                    }
                }
                let q = vec![0.0; dim];
                let pred = NeighborPredicate::with_metric(metric, 1.0);
                let total_hits = 70 - hit_pos;
                for need in [
                    1usize,
                    2,
                    total_hits.saturating_sub(1).max(1),
                    total_hits,
                    total_hits + 1,
                ] {
                    let out = pred.count_within_tile(&q, &tile, need);
                    let (found, scanned) = scalar_scan(metric, 1.0, &q, &tile, dim, need);
                    assert_eq!(
                        (out.found, out.scanned),
                        (found, scanned),
                        "{} dim {dim} hit_pos {hit_pos} need {need}",
                        metric.name()
                    );
                }
            }
        }
    }
}

/// Duplicate-point coverage: every point identical, so the k-th neighbor
/// is found after exactly k scans — for the tile kernel and for every
/// detector (no duplicated point can ever be an outlier for k < n).
#[test]
fn duplicate_points_are_exact() {
    for metric in METRICS {
        for dim in 1usize..=8 {
            let tile: Vec<f64> = vec![1.5; 40 * dim];
            let q = vec![1.5; dim];
            let pred = NeighborPredicate::with_metric(metric, 0.5);
            for need in [1usize, 7, 40, 41] {
                let out = pred.count_within_tile(&q, &tile, need);
                assert_eq!(out.found, need.min(40), "{} dim {dim}", metric.name());
                assert_eq!(out.scanned, need.min(40), "{} dim {dim}", metric.name());
            }
            let mut set = PointSet::new(dim).unwrap();
            for _ in 0..40 {
                set.push(&vec![1.5; dim]).unwrap();
            }
            let partition = Partition::standalone(set);
            let params = OutlierParams::new(0.5, 4).unwrap().with_metric(metric);
            for (name, det) in detectors(dim) {
                assert!(
                    det.detect(&partition, params).outliers.is_empty(),
                    "{name} under {} in dim {dim}",
                    metric.name()
                );
            }
        }
    }
}

/// Points sitting *exactly* at distance `r` count as neighbors (the
/// predicate is inclusive), in the row-major tile and the columnar scan
/// alike — for every metric and with the boundary point at every
/// position of a cache block.
#[test]
fn exact_boundary_points_are_inclusive() {
    // Distances engineered to be exact: Euclid 3-4-5, Manhattan 3+4=7,
    // Chebyshev max(3,4)=4.
    for (metric, r) in [
        (Metric::Euclidean, 5.0),
        (Metric::Manhattan, 7.0),
        (Metric::Chebyshev, 4.0),
    ] {
        for boundary_pos in [0usize, 15, 31, 32, 33, 63, 69] {
            let dim = 2;
            let mut tile = vec![100.0; 70 * dim]; // far outside
            tile[boundary_pos * dim] = 3.0; // exactly at distance r
            tile[boundary_pos * dim + 1] = 4.0;
            if boundary_pos + 1 < 70 {
                tile[(boundary_pos + 1) * dim] = 0.5; // strictly inside
                tile[(boundary_pos + 1) * dim + 1] = 0.5;
            }
            let q = vec![0.0; dim];
            let pred = NeighborPredicate::with_metric(metric, r);
            let columns = columns_of(&tile, dim);
            for need in [1usize, 2, 3, usize::MAX] {
                let want = scalar_scan(metric, r, &q, &tile, dim, need);
                for (entry, out) in [
                    ("tile", pred.count_within_tile(&q, &tile, need)),
                    (
                        "columns",
                        pred.count_within_columns(&q, &columns, 0..70, need),
                    ),
                ] {
                    assert_eq!(
                        (out.found, out.scanned),
                        want,
                        "{entry} under {} boundary_pos {boundary_pos} need {need}",
                        metric.name()
                    );
                }
            }
        }
    }
}

/// The same points one dimension after another: coordinate `d` of point
/// `pos` at `d * total + pos`.
fn columns_of(tile: &[f64], dim: usize) -> Vec<f64> {
    (0..dim)
        .flat_map(|d| tile.chunks_exact(dim).map(move |p| p[d]))
        .collect()
}

/// `count_within_columns` over a run `[a, b)` is `count_within_tile` over
/// the same candidates stored row-major — count and early-exit position —
/// for every alignment of the run against the 32-point block, and the
/// dispatched build of the scan agrees with the portable one. The data
/// sits on a quarter grid so sums are exact: plenty of duplicates and of
/// points at exactly `r`, plus one NaN coordinate.
#[test]
fn columns_match_tile_on_every_alignment() {
    let mut rng = StdRng::seed_from_u64(0xC01);
    for metric in METRICS {
        for dim in 1usize..=9 {
            let q: Vec<f64> = (0..dim)
                .map(|_| rng.gen_range(4..12) as f64 / 4.0)
                .collect();
            for total in [1usize, 31, 32, 33, 97, 199] {
                let mut tile: Vec<f64> = (0..total * dim)
                    .map(|_| rng.gen_range(0..16) as f64 / 4.0)
                    .collect();
                for pos in (0..total).step_by(7) {
                    tile[pos * dim..][..dim].copy_from_slice(&q); // duplicates of the query
                }
                for pos in (3..total).step_by(11) {
                    tile[pos * dim..][..dim].copy_from_slice(&q);
                    tile[pos * dim] += 1.0; // exactly r away under all three metrics
                }
                if total > 5 {
                    tile[5 * dim + dim / 2] = f64::NAN;
                }
                let columns = columns_of(&tile, dim);
                let pred = NeighborPredicate::with_metric(metric, 1.0);
                for a in 0..total.min(34) {
                    let ends = [a, a + 1, a + 31, a + 32, a + 33, a + 64, a + 70, total];
                    for b in ends.into_iter().filter(|&b| b <= total) {
                        for need in [0usize, 1, 2, 5, 9, usize::MAX] {
                            let want = pred.count_within_tile(&q, &tile[a * dim..b * dim], need);
                            let got = pred.count_within_columns(&q, &columns, a..b, need);
                            let portable =
                                pred.count_within_columns_scalar(&q, &columns, a..b, need);
                            assert_eq!(
                                (got, portable),
                                (want, want),
                                "{} dim {dim} total {total} run {a}..{b} need {need}",
                                metric.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The crossing hit at every position of every block and of the tail: the
/// hits are exactly the positions from `hit_pos` on, so `need = 1` must
/// stop on `hit_pos` itself and larger needs further along.
#[test]
fn columns_early_exit_lands_on_every_block_position() {
    const TOTAL: usize = 100; // three blocks and a four-point tail
    for metric in METRICS {
        for dim in [1usize, 2, 4, 5, 8] {
            let q = vec![0.0; dim];
            let pred = NeighborPredicate::with_metric(metric, 1.0);
            for hit_pos in 0..TOTAL {
                let mut tile = vec![50.0; TOTAL * dim];
                tile[hit_pos * dim..].fill(0.01);
                let columns = columns_of(&tile, dim);
                let hits = TOTAL - hit_pos;
                for a in [0usize, 1, 5] {
                    for need in [1usize, 2, hits.saturating_sub(a).max(1), hits + 1] {
                        let want = pred.count_within_tile(&q, &tile[a * dim..], need);
                        let got = pred.count_within_columns(&q, &columns, a..TOTAL, need);
                        let portable =
                            pred.count_within_columns_scalar(&q, &columns, a..TOTAL, need);
                        assert_eq!(
                            (got, portable),
                            (want, want),
                            "{} dim {dim} hit_pos {hit_pos} from {a} need {need}",
                            metric.name()
                        );
                    }
                }
            }
        }
    }
}

/// One summation order in every dimension: a pair whose distance equals
/// the threshold (or sits one ulp either side of it) is decided by the
/// last bit of the accumulated distance, so every kernel entry point must
/// add dimensions in the order `Metric::within` does. The detectors mix
/// the tile kernels with the pair form; a kernel that sums in another
/// order makes them disagree on such pairs.
#[test]
fn kernels_decide_threshold_pairs_as_metric_within_does() {
    const COPIES: usize = 40; // one full block and a tail
    let mut rng = StdRng::seed_from_u64(0x71E5);
    for metric in METRICS {
        for dim in 1usize..=9 {
            for _ in 0..300 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let tile = p.repeat(COPIES);
                let columns: Vec<f64> = p
                    .iter()
                    .flat_map(|&c| std::iter::repeat_n(c, COPIES))
                    .collect();
                let at = metric.dist(&q, &p);
                for r in [at.next_down(), at, at.next_up()] {
                    let want = if metric.within(&q, &p, r) { COPIES } else { 0 };
                    let pred = NeighborPredicate::with_metric(metric, r);
                    let need = usize::MAX;
                    let got = [
                        ("within", usize::from(pred.within(&q, &p)) * COPIES),
                        ("tile", pred.count_within_tile(&q, &tile, need).found),
                        (
                            "columns",
                            pred.count_within_columns(&q, &columns, 0..COPIES, need)
                                .found,
                        ),
                        (
                            "columns-scalar",
                            pred.count_within_columns_scalar(&q, &columns, 0..COPIES, need)
                                .found,
                        ),
                    ];
                    for (entry, found) in got {
                        assert_eq!(
                            found,
                            want,
                            "{entry} under {} in dim {dim}: q {q:?} p {p:?} r {r:?}",
                            metric.name()
                        );
                    }
                }
            }
        }
    }
}

/// Satellite audit: no detector hot loop bypasses the predicate. The
/// non-test portion of every dod-detect source file must route distance
/// predicates through `NeighborPredicate` — never `Metric::within` or
/// `OutlierParams::neighbors` directly.
#[test]
fn hot_paths_use_the_kernel_predicate() {
    for (name, source) in dod_integration::workspace_sources("crates/dod-detect/src") {
        let hot = source.split("#[cfg(test)]").next().unwrap();
        for forbidden in [".within(", ".neighbors("] {
            // `pred.within(` is the predicate's own (precomputed) entry
            // point and is allowed; raw metric/params calls are not.
            let violations: Vec<&str> = hot
                .lines()
                .filter(|l| l.contains(forbidden) && !l.contains("pred.within("))
                .collect();
            assert!(
                violations.is_empty(),
                "{name}: hot path bypasses NeighborPredicate via `{forbidden}`: {violations:?}"
            );
        }
    }
}

/// Source audit: the kernel layer is one build. The workspace's only
/// `unsafe` is the call into the AVX2 build of the columnar scan, made
/// after detecting AVX2 at run time; no crate gates code on a cargo
/// feature, and no workspace crate's manifest declares one.
#[test]
fn workspace_has_one_unsafe_site() {
    let mut unsafe_sites = Vec::new();
    for (path, source) in dod_integration::workspace_sources("crates") {
        for line in source.lines().filter(|l| !l.trim_start().starts_with("//")) {
            let mut tokens = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            if tokens.any(|t| t == "unsafe") {
                unsafe_sites.push(format!("{path}: {}", line.trim()));
            }
        }
    }
    assert_eq!(unsafe_sites.len(), 1, "{unsafe_sites:?}");
    assert!(
        unsafe_sites[0].starts_with("crates/dod-core/src/kernel/columns.rs"),
        "{unsafe_sites:?}"
    );

    // Spelled in two pieces so this file does not match itself.
    let gates = ["cfg", "cfg!"].map(|c| format!("{c}(feature"));
    for dir in ["crates", "compat", "tests"] {
        for (path, source) in dod_integration::workspace_sources(dir) {
            for gate in &gates {
                assert!(!source.contains(gate.as_str()), "{path} has `{gate}`");
            }
        }
    }
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let crates = std::fs::read_dir(format!("{root}/crates")).unwrap();
    let manifests = crates
        .map(|e| e.unwrap().path().join("Cargo.toml"))
        .chain([format!("{root}/tests/Cargo.toml").into()]);
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(!text.contains("[features]"), "{}", manifest.display());
    }
}
