//! Targeted benchmark subcommands (distinct from the figure-reproducing
//! `repro` binary).
//!
//! ```sh
//! cargo run --release -p bench --bin bench -- kernels          # table
//! cargo run --release -p bench --bin bench -- kernels --json   # + BENCH_kernels.json
//! cargo run --release -p bench --bin bench -- kernels --json out.json
//! ```

use bench::{kernels, obs_overhead};
use std::process::ExitCode;

/// The flags every subcommand takes: `--json [path]` (the path defaults
/// to `default_json`) and `--quick`. `None` after reporting an unknown one.
fn flags(args: &[String], subcommand: &str, default_json: &str) -> Option<(Option<String>, bool)> {
    let mut json_path: Option<String> = None;
    let mut quick = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let next = it.next_if(|a| !a.starts_with("--"));
                json_path = Some(next.map_or(default_json, String::as_str).to_string());
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown {subcommand} flag: {other}");
                return None;
            }
        }
    }
    Some((json_path, quick))
}

fn run_kernels(args: &[String]) -> ExitCode {
    let Some((json_path, quick)) = flags(args, "kernels", "BENCH_kernels.json") else {
        return ExitCode::FAILURE;
    };

    let min_time_s = if quick { 0.05 } else { 0.4 };
    let rows = kernels::run_all(min_time_s);
    println!(
        "{:<22} {:>8} {:>16} {:>16} {:>9}",
        "bench", "backend", "kernel pairs/s", "scalar pairs/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<22} {:>8} {:>16.3e} {:>16.3e} {:>8.2}x",
            r.name, r.backend, r.pairs_per_sec, r.baseline_pairs_per_sec, r.speedup
        );
    }
    if let Some(path) = json_path {
        dod_obs::write_atomic(
            std::path::Path::new(&path),
            kernels::to_json(&rows).as_bytes(),
        )
        .expect("write json");
        println!("\nwrote {path}");
    }
    ExitCode::SUCCESS
}

fn run_obs_overhead(args: &[String]) -> ExitCode {
    let Some((json_path, quick)) = flags(args, "obs-overhead", "BENCH_obs_overhead.json") else {
        return ExitCode::FAILURE;
    };

    let r = obs_overhead::run(quick);
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>8}",
        "bench", "null med us", "telemetry us", "overhead", "budget"
    );
    println!(
        "{:<12} {:>14.1} {:>14.1} {:>9.2}% {:>7.1}%",
        "score_batch",
        r.null_us,
        r.telemetry_us,
        r.overhead_pct,
        bench::obs_overhead::OVERHEAD_BUDGET_PCT
    );
    if let Some(path) = json_path {
        dod_obs::write_atomic(
            std::path::Path::new(&path),
            obs_overhead::to_json(&r, quick).as_bytes(),
        )
        .expect("write json");
        println!("\nwrote {path}");
    }
    // Quick runs are smoke tests: too short to hold the budget to, so
    // they report without enforcing.
    if !quick && !r.within_budget {
        eprintln!(
            "telemetry overhead {:.2}% exceeds the {:.1}% budget",
            r.overhead_pct,
            bench::obs_overhead::OVERHEAD_BUDGET_PCT
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("kernels") => run_kernels(&args[1..]),
        Some("obs-overhead") => run_obs_overhead(&args[1..]),
        _ => {
            eprintln!(
                "usage: bench kernels  [--json [path]] [--quick]\n       \
                 bench obs-overhead [--json [path]] [--quick]"
            );
            ExitCode::FAILURE
        }
    }
}
