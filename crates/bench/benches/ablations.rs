//! Ablation benches for the design decisions called out in DESIGN.md §5:
//! packing policy, sampling rate, DSHC mini-bucket resolution, and the
//! Cell-Based fallback-scan variant.

use bench::scale::Scale;
use bench::setup::{build_runner, experiment_config, ModeChoice, StrategyChoice};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dod::prelude::*;
use dod_data::hierarchy::{hierarchy_dataset, HierarchyLevel};
use dod_data::uniform::uniform_with_density_measure;
use dod_detect::{CellBased, Detector, Partition};
use dod_partition::AllocationSpec;
use std::time::Duration;

fn bench_packing(c: &mut Criterion) {
    let scale = Scale::small();
    let params = OutlierParams::new(0.8, 4).unwrap();
    let (data, _) = hierarchy_dataset(HierarchyLevel::NewEngland, scale.hierarchy_base, 131);

    let mut group = c.benchmark_group("ablation_packing");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for (name, spec) in [
        ("round_robin", AllocationSpec::round_robin()),
        ("lpt_cardinality", AllocationSpec::cardinality()),
        ("lpt_cost", AllocationSpec::cost()),
    ] {
        group.bench_function(name, |b| {
            let config = experiment_config(params)
                .to_builder()
                .allocation(spec)
                .build()
                .expect("valid configuration");
            let runner = build_runner(StrategyChoice::Dmt, ModeChoice::MultiTactic, config);
            b.iter(|| runner.run(&data).unwrap())
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let scale = Scale::small();
    let params = OutlierParams::new(0.8, 4).unwrap();
    let (data, _) = hierarchy_dataset(HierarchyLevel::NewEngland, scale.hierarchy_base, 121);

    let mut group = c.benchmark_group("ablation_sampling_rate");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for rate in [0.005, 0.02, 0.08] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            let config = experiment_config(params)
                .to_builder()
                .sample_rate(rate)
                .build()
                .expect("valid configuration");
            let runner = build_runner(StrategyChoice::Dmt, ModeChoice::MultiTactic, config);
            b.iter(|| runner.run(&data).unwrap())
        });
    }
    group.finish();
}

fn bench_dshc_resolution(c: &mut Criterion) {
    let scale = Scale::small();
    let params = OutlierParams::new(0.8, 4).unwrap();
    let (data, _) = hierarchy_dataset(HierarchyLevel::NewEngland, scale.hierarchy_base, 141);

    let mut group = c.benchmark_group("ablation_dshc_buckets");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for buckets in [8usize, 16, 32, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(buckets),
            &buckets,
            |b, &buckets| {
                let runner = DodRunner::builder()
                    .config(experiment_config(params))
                    .strategy(Dmt::new(buckets))
                    .multi_tactic()
                    .build();
                b.iter(|| runner.run(&data).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_block_scan(c: &mut Criterion) {
    let scale = Scale::small();
    let params = OutlierParams::new(5.0, 4).unwrap();
    let (data, _) = uniform_with_density_measure(scale.fig45_n, params.r, 3.0, 151);
    let partition = Partition::standalone(data);

    let mut group = c.benchmark_group("ablation_cell_based_fallback");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("paper_full_scan", |b| {
        b.iter(|| {
            CellBased::default()
                .full_scan_fallback()
                .detect(&partition, params)
        })
    });
    group.bench_function("block_restricted", |b| {
        b.iter(|| CellBased::default().detect(&partition, params))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_packing,
    bench_sampling,
    bench_dshc_resolution,
    bench_block_scan
);
criterion_main!(benches);
