//! Geospatial anomaly detection on an OpenStreetMap-like regional dataset
//! — the workload class the paper's evaluation is built on.
//!
//! Generates the Massachusetts analog (clustered building locations),
//! plants a handful of remote "buildings", and runs the full DOD pipeline
//! with cost-driven partitioning, reporting which points are isolated and
//! how the work was spread over the simulated cluster.
//!
//! ```sh
//! cargo run --release -p dod --example geo_anomalies
//! ```

use dod::prelude::*;
use dod_data::region::{region_dataset, Region};

fn main() {
    // 40k clustered "buildings" in the Massachusetts analog.
    let n = 40_000;
    let (mut data, domain) = region_dataset(Region::Massachusetts, n, 7);

    // Plant five remote cabins: scan a coarse grid for empty areas and
    // put one building in the middle of each — guaranteed far from every
    // existing structure.
    // Cells of side 1.0; a planted point at a cell center can only have
    // neighbors (r = 0.5) inside the cell's 3x3 block, so blocks with
    // fewer than k points are guaranteed anomaly sites.
    let grid = dod_core::GridSpec::uniform(domain.clone(), 120).expect("valid grid");
    let mut counts = vec![0u32; grid.num_cells()];
    for p in data.iter() {
        counts[grid.cell_of(p)] += 1;
    }
    let mut planted_ids = Vec::new();
    let mut planted = Vec::new();
    let mut cell = 0;
    while planted.len() < 5 && cell < grid.num_cells() {
        let idx = grid.delinearize(cell);
        let mut block = 0u32;
        grid.visit_around(
            |i| idx[i],
            |_| 1,
            |c| {
                block += counts[c];
                true
            },
        );
        if block < 3 {
            let center = grid.cell_rect(cell).center();
            planted.push((center[0], center[1]));
            planted_ids.push(data.push(&center).expect("2-d point"));
            cell += 240; // skip two rows so the cabins stay isolated
        } else {
            cell += 1;
        }
    }
    assert_eq!(
        planted.len(),
        5,
        "the MA analog always has empty countryside"
    );

    // The MA analog has ~0.8 background buildings per unit²; at r = 0.5 a
    // typical rural building sees under one neighbor, so k = 3 isolates
    // the truly remote ones.
    let params = OutlierParams::new(0.5, 3).expect("valid parameters");
    let config = DodConfig::builder(params)
        .sample_rate(0.05) // 5% sample: small dataset, want a stable plan
        .num_reducers(16)
        .target_partitions(64)
        .block_size(4096)
        .build()
        .expect("valid configuration");
    let runner = DodRunner::builder()
        .config(config)
        .strategy(CDriven::new(AlgorithmKind::NestedLoop))
        .multi_tactic()
        .build();

    let outcome = runner.run(&data).expect("pipeline runs");

    println!(
        "region: MA analog, {} buildings over {:.0} x {:.0} domain",
        data.len(),
        domain.extent(0),
        domain.extent(1)
    );
    println!(
        "outliers: {} points with fewer than {} neighbors within {}",
        outcome.outliers.len(),
        params.k,
        params.r
    );
    let found_planted = planted_ids
        .iter()
        .filter(|id| outcome.outliers.contains(id))
        .count();
    println!(
        "planted anomalies recovered: {found_planted}/{}",
        planted.len()
    );

    println!("\n-- plan --");
    println!("partitions: {}", outcome.report.num_partitions);
    for (alg, count) in &outcome.report.algorithm_histogram {
        println!("  {:<12} assigned to {count} partitions", alg.name());
    }
    println!(
        "shuffle volume: {:.1} MiB",
        outcome.report.shuffle_bytes as f64 / (1024.0 * 1024.0)
    );

    println!("\n-- simulated cluster stages --");
    let b = outcome.report.breakdown;
    println!("  preprocess: {:>10.3?}", b.preprocess);
    println!("  map:        {:>10.3?}", b.map);
    println!("  reduce:     {:>10.3?}", b.reduce);
    println!("  total:      {:>10.3?}", b.total());

    // The most- and least-loaded partitions, to show cost balance.
    if let (Some(max), Some(min)) = (
        outcome
            .report
            .partition_times
            .iter()
            .max_by_key(|(_, d)| *d),
        outcome
            .report
            .partition_times
            .iter()
            .min_by_key(|(_, d)| *d),
    ) {
        println!(
            "\npartition reduce times: max {:?} (partition {}), min {:?} (partition {})",
            max.1, max.0, min.1, min.0
        );
    }

    assert!(
        found_planted == planted.len(),
        "all planted anomalies must be found"
    );
}
