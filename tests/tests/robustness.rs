//! Edge-case robustness of the full pipeline.

use dod::prelude::*;
use dod_integration::reference_outliers;

fn config(params: OutlierParams) -> DodConfig {
    DodConfig::builder(params)
        .sample_rate(1.0)
        .block_size(32)
        .num_reducers(3)
        .target_partitions(8)
        .build()
        .unwrap()
}

fn run_dmt(data: &PointSet, params: OutlierParams) -> Vec<u64> {
    DodRunner::builder()
        .config(config(params))
        .multi_tactic()
        .build()
        .run(data)
        .unwrap()
        .outliers
}

#[test]
fn empty_dataset() {
    let params = OutlierParams::new(1.0, 2).unwrap();
    assert!(run_dmt(&PointSet::new(2).unwrap(), params).is_empty());
}

#[test]
fn single_point_is_always_an_outlier() {
    let params = OutlierParams::new(1.0, 1).unwrap();
    let mut data = PointSet::new(2).unwrap();
    data.push(&[-7.0, 11.0]).unwrap();
    assert_eq!(run_dmt(&data, params), vec![0]);
}

#[test]
fn all_points_identical() {
    let params = OutlierParams::new(0.1, 3).unwrap();
    let data = PointSet::from_xy(&vec![(5.0, 5.0); 50]);
    // 49 coincident neighbors each: nobody is an outlier.
    assert!(run_dmt(&data, params).is_empty());
}

#[test]
fn k_larger_than_dataset_makes_everything_an_outlier() {
    let params = OutlierParams::new(100.0, 50).unwrap();
    let data = PointSet::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
    assert_eq!(run_dmt(&data, params), vec![0, 1, 2]);
}

#[test]
fn huge_r_makes_everything_an_inlier() {
    let params = OutlierParams::new(1e9, 2).unwrap();
    let data = PointSet::from_xy(&[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]);
    assert!(run_dmt(&data, params).is_empty());
}

#[test]
fn negative_coordinates() {
    let params = OutlierParams::new(1.5, 2).unwrap();
    let data = PointSet::from_xy(&[
        (-10.0, -10.0),
        (-10.5, -10.5),
        (-9.5, -10.2),
        (30.0, 30.0), // isolated
    ]);
    assert_eq!(run_dmt(&data, params), reference_outliers(&data, params));
    assert_eq!(run_dmt(&data, params), vec![3]);
}

#[test]
fn collinear_points() {
    let params = OutlierParams::new(1.1, 2).unwrap();
    let pts: Vec<(f64, f64)> = (0..30).map(|i| (i as f64, 0.0)).collect();
    let data = PointSet::from_xy(&pts);
    assert_eq!(run_dmt(&data, params), reference_outliers(&data, params));
}

#[test]
fn grid_aligned_points_on_partition_boundaries() {
    // Integer lattice coordinates land exactly on grid-cell boundaries of
    // many plans; membership must stay exactly-once.
    let params = OutlierParams::new(1.0, 4).unwrap();
    let mut pts = Vec::new();
    for x in 0..12 {
        for y in 0..12 {
            pts.push((x as f64, y as f64));
        }
    }
    let data = PointSet::from_xy(&pts);
    let expected = reference_outliers(&data, params);
    for strategy_run in [
        DodRunner::builder()
            .config(config(params))
            .strategy(UniSpace)
            .multi_tactic()
            .build(),
        DodRunner::builder()
            .config(config(params))
            .strategy(Domain)
            .fixed(AlgorithmKind::NestedLoop)
            .build(),
        DodRunner::builder()
            .config(config(params))
            .strategy(Dmt::default())
            .multi_tactic()
            .build(),
    ] {
        assert_eq!(strategy_run.run(&data).unwrap().outliers, expected);
    }
}

#[test]
fn one_dimensional_data() {
    let params = OutlierParams::new(1.0, 2).unwrap();
    let mut data = PointSet::new(1).unwrap();
    for i in 0..20 {
        data.push(&[i as f64 * 0.3]).unwrap();
    }
    data.push(&[100.0]).unwrap();
    let outliers = run_dmt(&data, params);
    assert_eq!(outliers, reference_outliers(&data, params));
    assert!(outliers.contains(&20));
}

#[test]
fn five_dimensional_data() {
    let params = OutlierParams::new(2.0, 3).unwrap();
    let data = dod_integration::uniform_nd(9, 250, 5, 8.0);
    assert_eq!(run_dmt(&data, params), reference_outliers(&data, params));
}

#[test]
fn tiny_sample_rate_still_exact() {
    // A 0.1% sample of 500 points is a single rescued point; the plan is
    // degenerate but the answer must not change.
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = dod_integration::mixed_density(12, 500);
    let cfg = config(params)
        .to_builder()
        .sample_rate(0.001)
        .build()
        .unwrap();
    let runner = DodRunner::builder().config(cfg).multi_tactic().build();
    assert_eq!(
        runner.run(&data).unwrap().outliers,
        reference_outliers(&data, params)
    );
}

#[test]
fn more_reducers_than_partitions() {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = dod_integration::mixed_density(13, 300);
    // Deliberately degenerate (more reducers than partitions): built by
    // mutating the `pub` fields because `DodConfig::builder` rejects the
    // combination, yet the pipeline must still answer exactly.
    let mut cfg = config(params);
    cfg.num_reducers = 64;
    cfg.target_partitions = 4;
    let runner = DodRunner::builder().config(cfg).multi_tactic().build();
    assert_eq!(
        runner.run(&data).unwrap().outliers,
        reference_outliers(&data, params)
    );
}

/// Puts one partitioning strategy on a runner builder.
type WithStrategy = fn(dod::DodRunnerBuilder) -> dod::DodRunnerBuilder;

/// Finite coordinates whose span overflows `f64` (`1e308 - -1e308`):
/// every strategy refuses with the one typed error instead of panicking.
/// A span just inside `f64` (`±8.9e307`) still answers exactly.
#[test]
fn overflowing_span_is_a_typed_error_under_every_strategy() {
    let params = OutlierParams::new(0.5, 4).unwrap();
    let strategies: [(&str, WithStrategy); 5] = [
        ("domain", |b| b.strategy(Domain)),
        ("unispace", |b| b.strategy(UniSpace)),
        ("ddriven", |b| b.strategy(DDriven)),
        ("cdriven", |b| {
            b.strategy(CDriven::new(AlgorithmKind::NestedLoop))
        }),
        ("dmt", |b| b.strategy(Dmt::default())),
    ];
    for (edge, overflows) in [(1e308, true), (8.9e307, false)] {
        let mut data = dod_integration::mixed_density(5, 200);
        data.push(&[edge, edge]).unwrap();
        data.push(&[-edge, -edge]).unwrap();
        for (name, strategy) in strategies {
            let builder = DodRunner::builder().config(config(params)).multi_tactic();
            let runner = strategy(builder).build();
            match runner.run(&data) {
                Err(e) if overflows => assert_eq!(
                    e.to_string(),
                    "invalid input: invalid parameter `bounds`: \
                     the extent of dimension 0 overflows f64",
                    "{name}"
                ),
                Ok(out) if !overflows => {
                    assert_eq!(out.outliers, reference_outliers(&data, params), "{name}")
                }
                other => panic!("{name} at ±{edge}: {:?}", other.map(|o| o.outliers)),
            }
        }
    }
}
