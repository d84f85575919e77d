//! `--aa`: does the benchmark agree with itself?
//!
//! Two sets of ten runs of the same code per workload, interleaved
//! (A1 B1 A2 B2 …) with a new seed for every run — the acceptance
//! driver's procedure. For every end-to-end metric it prints each set's
//! interquartile range as a share of its median, and how much worse the
//! second set's median is than the first's, beside the metric's bound.

use std::process::{Command, Stdio};

use crate::env::Error;
use crate::report::{metric_value, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::{Workload, ALL};

const RUNS_PER_SET: u64 = 10;

/// One end-to-end run of this same binary in its own process, so that
/// peak memory and warm-up are a fresh run's.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<String, Error> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::null())
        .output()?;
    let stdout = String::from_utf8(output.stdout)?;
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !line.starts_with("{\"correct\": true, ") {
        return Err(format!("{workload} seed {seed} failed ({}): {line}", output.status).into());
    }
    eprintln!("{line}");
    Ok(line.to_string())
}

pub fn run(only: Option<&Workload>, seconds: u64) -> Result<(), Error> {
    let mut over_bound = 0;
    println!("| workload | metric | IQR/median A | IQR/median B | B median worse by | bound |");
    println!("|---|---|---|---|---|---|");
    for w in ALL.iter().filter(|w| only.is_none_or(|o| o.name == w.name)) {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for i in 0..RUNS_PER_SET {
            for (set, lines) in sets.iter_mut().enumerate() {
                let seed = 1 + i + set as u64 * RUNS_PER_SET;
                eprintln!(
                    "{} set {} run {} (seed {seed})",
                    w.name,
                    ["A", "B"][set],
                    i + 1
                );
                lines.push(one_run(w.name, seed, seconds)?);
            }
        }
        for m in &END_TO_END {
            let values = |lines: &[String]| -> Result<Vec<f64>, Error> {
                lines
                    .iter()
                    .map(|l| {
                        metric_value(l, m.name)
                            .ok_or_else(|| format!("no {} in {l}", m.name).into())
                    })
                    .collect()
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            let (spread_a, spread_b) = (iqr_share(&a), iqr_share(&b));
            let change = median(&b) / median(&a) - 1.0;
            let worse = if m.lower_is_better { change } else { -change };
            // As the driver does: set-up time is gated on its shift only.
            let spread_gated = m.name != "setup_s";
            let bad = worse > m.bound || (spread_gated && spread_a.max(spread_b) > m.bound);
            over_bound += usize::from(bad);
            println!(
                "| {} | {} | {:.4} | {:.4} | {:+.4} | {}{} |",
                w.name,
                m.name,
                spread_a,
                spread_b,
                worse,
                m.bound,
                if bad { " EXCEEDED" } else { "" }
            );
        }
    }
    if over_bound > 0 {
        return Err(format!("{over_bound} metric(s) outside their bound").into());
    }
    Ok(())
}
