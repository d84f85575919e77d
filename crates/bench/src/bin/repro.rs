//! Regenerates the paper's evaluation figures as text tables.
//!
//! ```sh
//! cargo run --release -p bench --bin repro            # everything
//! cargo run --release -p bench --bin repro -- fig5    # one experiment
//! cargo run --release -p bench --bin repro -- --small # quick preset
//! ```
//!
//! Experiments: fig4, fig5, fig7, fig8, fig9, fig10, ablations.
//! Add `--trace <path>` / `--profile` to capture per-experiment spans.

use bench::experiments::{self, StageRow};
use bench::scale::Scale;
use bench::setup::ModeChoice;
use bench::trace;
use std::time::Duration;

fn fmt(d: Duration) -> String {
    format!("{:>10.3}ms", d.as_secs_f64() * 1e3)
}

fn section(title: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
}

fn print_stage_rows(rows: &[StageRow]) {
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "configuration", "preprocess", "map", "reduce", "total", "outliers"
    );
    for r in rows {
        println!(
            "{:<24} {} {} {} {} {:>9}",
            r.label,
            fmt(r.preprocess),
            fmt(r.map),
            fmt(r.reduce),
            fmt(r.total()),
            r.outliers
        );
    }
}

fn run_fig4(scale: &Scale) {
    section("Figure 4(a): Nested-Loop execution time vs dataset density");
    println!("(equal cardinality; D-Dense covers 1/4 of D-Sparse's area; r=5, k=4)\n");
    let rows = experiments::fig4(scale);
    println!("{:<10} {:>12} {:>16}", "dataset", "time", "distance evals");
    for r in &rows {
        println!("{:<10} {} {:>16}", r.dataset, fmt(r.time), r.evals);
    }
    let ratio = rows[0].time.as_secs_f64() / rows[1].time.as_secs_f64().max(1e-12);
    println!("\nD-Sparse / D-Dense time ratio: {ratio:.1}x (paper: ~4.5x)");
}

fn run_fig5(scale: &Scale) {
    section("Figure 5: detection algorithms vs density measure");
    println!("(uniform points, domain resized per density measure; r=5, k=4)\n");
    let rows = experiments::fig5(scale);
    println!(
        "{:<10} {:>14} {:>14} {:>14}   winner (model variant)",
        "density", "Cell-Based", "CB-full-scan", "Nested-Loop"
    );
    for r in &rows {
        let winner = if r.cell_based_full < r.nested_loop {
            "Cell-Based"
        } else {
            "Nested-Loop"
        };
        println!(
            "{:<10} {} {} {}   {winner}",
            r.density_measure,
            fmt(r.cell_based),
            fmt(r.cell_based_full),
            fmt(r.nested_loop)
        );
    }
    println!("\npaper shape: Cell-Based wins at the sparse and dense extremes,");
    println!("Nested-Loop wins in the intermediate band. `CB-full-scan` is the");
    println!("variant the Lemma 4.2 cost model charges (the paper's measured");
    println!("behaviour); the default block-restricted Cell-Based narrows the");
    println!("Nested-Loop window.");
}

fn run_fig7(scale: &Scale) {
    for (panel, mode) in [("a", ModeChoice::NestedLoop), ("b", ModeChoice::CellBased)] {
        section(&format!(
            "Figure 7({panel}): partitioning effectiveness, {} at the reducers",
            mode.label()
        ));
        println!("(four region analogs at equal cardinality; bars = time relative to CDriven)\n");
        let rows = experiments::fig7(scale, mode);
        print!("{:<8}", "region");
        for (label, _, _) in &rows[0].strategies {
            print!(" {label:>22}");
        }
        println!();
        for row in &rows {
            print!("{:<8}", row.region);
            for (_, time, ratio) in &row.strategies {
                print!(" {:>14} ({ratio:>4.2}x)", fmt(*time).trim_start());
            }
            println!();
        }
    }
    println!("\npaper shape: CDriven fastest everywhere (others up to ~5x slower).");
}

fn run_fig8(scale: &Scale) {
    for (panel, mode) in [("a", ModeChoice::NestedLoop), ("b", ModeChoice::CellBased)] {
        section(&format!(
            "Figure 8({panel}): partitioning scalability, {} at the reducers (log scale in paper)",
            mode.label()
        ));
        let rows = experiments::fig8(scale, mode);
        print!("{:<8} {:>9}", "level", "points");
        for (label, _) in &rows[0].strategies {
            print!(" {label:>14}");
        }
        println!();
        for row in &rows {
            print!("{:<8} {:>9}", row.level, row.n);
            for (_, time) in &row.strategies {
                print!(" {:>14}", fmt(*time).trim_start());
            }
            println!();
        }
    }
    println!("\npaper shape: CDriven wins at every size; the gap widens with scale");
    println!("(6x over DDriven and 17x over Domain at Planet scale).");
}

fn run_fig9(scale: &Scale) {
    section("Figure 9(a): detection methods across distributions");
    let rows = experiments::fig9_regions(scale);
    print_fig9(&rows);
    section("Figure 9(b): detection methods across data sizes (log scale in paper)");
    let rows = experiments::fig9_scalability(scale);
    print_fig9(&rows);
    println!("\npaper shape: Cell-Based beats Nested-Loop on dense regions (CA/NY),");
    println!("Nested-Loop wins on sparse OH; DMT is fastest and stays stable everywhere,");
    println!("winning more the larger (more skewed) the dataset.");
}

fn print_fig9(rows: &[experiments::Fig9Row]) {
    print!("{:<8} {:>9}", "dataset", "points");
    for (label, _) in &rows[0].methods {
        print!(" {label:>14}");
    }
    println!();
    for row in rows {
        print!("{:<8} {:>9}", row.dataset, row.n);
        for (_, time) in &row.methods {
            print!(" {:>14}", fmt(*time).trim_start());
        }
        println!();
    }
}

fn run_fig10(scale: &Scale) {
    section("Figure 10(a): stage breakdown, 2TB-analog (distorted) dataset");
    print_stage_rows(&experiments::fig10a(scale));
    section("Figure 10(b): stage breakdown, TIGER analog");
    print_stage_rows(&experiments::fig10b(scale));
    println!("\npaper shape: DMT pays a little more preprocessing, matches map time,");
    println!("and wins the reduce stage by up to 10-20x -> fastest end-to-end.");
}

fn run_ablations(scale: &Scale) {
    section("Ablation: cost model prediction vs measured partition time");
    let cm = experiments::ablation_cost_model(scale);
    println!(
        "{} partitions; Pearson correlation(predicted cost, measured reduce time):",
        cm.partitions
    );
    println!(
        "  locality-aware estimator (default): {:.3}",
        cm.local_correlation
    );
    println!(
        "  paper Lemma 4.1/4.2 model:          {:.3}",
        cm.paper_correlation
    );
    println!(
        "  locality-aware vs counted work:     {:.3}",
        cm.local_work_correlation
    );
    println!(
        "  paper model vs counted work:        {:.3}",
        cm.paper_work_correlation
    );

    section("Ablation: sampling rate Y (result set must be invariant)");
    println!(
        "{:<8} {:>14} {:>14} {:>9}",
        "rate", "preprocess", "total", "outliers"
    );
    for r in experiments::ablation_sampling(scale) {
        println!(
            "{:<8} {} {} {:>9}",
            format!("{:.1}%", r.rate * 100.0),
            fmt(r.preprocess),
            fmt(r.total),
            r.outliers
        );
    }

    section("Ablation: partition->reducer packing policy");
    println!("{:<14} {:>14}", "policy", "reduce stage");
    for r in experiments::ablation_packing(scale) {
        println!("{:<14} {}", r.policy, fmt(r.reduce));
    }

    section("Ablation: Cell-Based fallback scan (paper full-scan vs block-restricted)");
    println!(
        "{:<10} {:>14} {:>18}",
        "density", "full scan", "block-restricted"
    );
    for r in experiments::ablation_block_scan(scale) {
        println!(
            "{:<10} {} {:>18}",
            r.density_measure,
            fmt(r.full_scan),
            fmt(r.block_restricted).trim_start()
        );
    }
}

fn main() {
    let (args, session) = match trace::from_args(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let obs = session.obs();
    let small = args.iter().any(|a| a == "--small");
    let scale = if small {
        Scale::small()
    } else {
        Scale::paper()
    };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let all = wanted.is_empty();
    let want = |name: &str| all || wanted.contains(&name);

    println!(
        "DOD reproduction harness (scale: {})",
        if small { "small" } else { "paper" }
    );

    type Experiment = (&'static str, fn(&Scale));
    let experiments: [Experiment; 7] = [
        ("fig4", run_fig4),
        ("fig5", run_fig5),
        ("fig7", run_fig7),
        ("fig8", run_fig8),
        ("fig9", run_fig9),
        ("fig10", run_fig10),
        ("ablations", run_ablations),
    ];
    for (name, run) in experiments {
        if want(name) {
            let scope = obs.scope("bench.experiment").with_label("experiment", name);
            run(&scale);
            drop(scope);
        }
    }
    session.finish();
}
