//! Plan-quality diagnostics: prints, for one dataset and every
//! (strategy, mode) pair, the partition statistics behind the end-to-end
//! numbers — partition count, shuffle replication, predicted-vs-measured
//! cost balance, and the reduce makespan.
//!
//! ```sh
//! cargo run --release -p bench --bin diag -- [region|hierarchy|tiger] \
//!     [--trace <path>] [--profile]
//! ```

use bench::scale::Scale;
use bench::setup::{build_runner, experiment_config, ModeChoice, StrategyChoice};
use bench::trace;
use dod::prelude::*;
use dod_data::hierarchy::{hierarchy_dataset, HierarchyLevel};
use dod_data::region::{region_dataset, Region};
use dod_data::tiger_analog;
use dod_obs::Value;

const USAGE: &str = "diag [region|hierarchy|tiger] [--trace <path>] [--profile]";

fn main() {
    let (args, session) = trace::from_args(std::env::args().skip(1).collect(), &[])
        .unwrap_or_else(|e| trace::usage_error(&e, USAGE));
    if let Some(extra) = args.get(1) {
        trace::usage_error(&format!("unexpected argument {extra}"), USAGE);
    }
    let which = args.first().map_or("region", String::as_str);
    trace::check_name("dataset", which, &trace::DATASETS)
        .unwrap_or_else(|e| trace::usage_error(&e, USAGE));
    let obs = session.obs();
    let scale = Scale::paper();
    let (data, params) = match which {
        "hierarchy" => {
            let (d, _) = hierarchy_dataset(HierarchyLevel::Planet, scale.hierarchy_base, 81);
            (d, OutlierParams::new(2.0, 4).unwrap())
        }
        "tiger" => {
            let domain = dod_core::Rect::new(vec![0.0, 0.0], vec![200.0, 200.0]).unwrap();
            (
                tiger_analog(&domain, scale.tiger_n, 60, 103),
                OutlierParams::new(0.4, 4).unwrap(),
            )
        }
        "region" => {
            let (d, _) = region_dataset(Region::Ohio, scale.region_n, 71);
            (d, OutlierParams::new(1.8, 4).unwrap())
        }
        _ => unreachable!("checked against DATASETS"),
    };
    println!(
        "dataset: {which}, {} points, r={}, k={}",
        data.len(),
        params.r,
        params.k
    );
    println!(
        "{:<22} {:>5} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "config", "parts", "repl", "pre(ms)", "map(ms)", "red(ms)", "tot(ms)", "algs"
    );
    for strategy in [
        StrategyChoice::Domain,
        StrategyChoice::UniSpace,
        StrategyChoice::DDriven,
        StrategyChoice::CDriven,
        StrategyChoice::Dmt,
    ] {
        for mode in [
            ModeChoice::NestedLoop,
            ModeChoice::CellBased,
            ModeChoice::MultiTactic,
        ] {
            let config = experiment_config(params)
                .to_builder()
                .obs(obs.clone())
                .build()
                .expect("valid configuration");
            let runner = build_runner(strategy, mode, config);
            let scope = obs
                .scope("bench.config")
                .with_label("strategy", strategy.label())
                .with_label("mode", mode.label());
            let o = runner.run(&data).unwrap();
            drop(scope);
            obs.counter(
                "bench.outliers",
                o.outliers.len() as u64,
                &[
                    ("strategy", Value::from(strategy.label())),
                    ("mode", Value::from(mode.label())),
                ],
            );
            let repl = o.report.jobs[0].shuffle_records as f64 / data.len() as f64;
            let algs: Vec<String> = o
                .report
                .algorithm_histogram
                .iter()
                .map(|(a, n)| format!("{}:{}", &a.name()[..2], n))
                .collect();
            let b = o.report.breakdown;
            println!(
                "{:<22} {:>5} {:>8.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12}",
                format!("{}+{}", strategy.label(), mode.label()),
                o.report.num_partitions,
                repl,
                b.preprocess.as_secs_f64() * 1e3,
                b.map.as_secs_f64() * 1e3,
                b.reduce.as_secs_f64() * 1e3,
                b.total().as_secs_f64() * 1e3,
                algs.join(",")
            );
        }
    }
    print!("{}", session.finish());
}
