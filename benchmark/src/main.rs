//! End-to-end and per-layer benchmark of the dod workspace.
//!
//! ```text
//! dod-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! dod-benchmark --aa [--seconds <s>] [--workload <name>]
//! ```
//!
//! A run prints one JSON object as the last line of its standard output;
//! everything else goes to standard error. README.md defines the
//! workloads and metrics.

mod aa;
mod env;
mod gen;
mod ladder;
mod oracle;
mod report;
mod run;
mod spans;
mod stats;
mod wire;
mod workloads;

use std::process::ExitCode;

use env::Error;
use workloads::Workload;

const USAGE: &str = "\
usage: dod-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       dod-benchmark --aa [--seconds <s>] [--workload <name>]

  --workload  batch_skew2d | batch_dense4d | serve_read | serve_churn
  --seed      draws the points and queries; the workload's shape is fixed
  --seconds   length of the timed phase (whole seconds, 1 to 60)     [20]
  --trace     0: end-to-end metrics; 1: spans and per-layer metrics   [0]
  --quick     smoke test: small corpus, 2 s, checks on, no gating
  --aa        two interleaved sets of ten runs per workload; prints each
              metric's spread and shift beside its bound, exits non-zero
              if one is exceeded
  --plant-wrong-answer
              self-test: flips one oracle verdict; the run must then
              print \"correct\": false";

struct Cli {
    workload: Option<&'static Workload>,
    aa: bool,
    seconds: Option<u64>,
    options: run::Options,
}

fn parse(args: &[String]) -> Result<Cli, Error> {
    let mut cli = Cli {
        workload: None,
        aa: false,
        seconds: None,
        options: run::Options {
            seed: 1,
            seconds: 20.0,
            trace: false,
            quick: false,
            plant_wrong_answer: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::named(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => cli.options.seed = value()?.parse()?,
            "--seconds" => cli.seconds = Some(value()?.parse()?),
            "--trace" => {
                cli.options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                }
            }
            "--quick" => cli.options.quick = true,
            "--aa" => cli.aa = true,
            "--plant-wrong-answer" => cli.options.plant_wrong_answer = true,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if let Some(s) = cli.seconds {
        if !(1..=60).contains(&s) {
            return Err("--seconds takes a whole number from 1 to 60".into());
        }
    }
    cli.options.seconds = match (cli.seconds, cli.options.quick) {
        (Some(s), _) => s as f64,
        (None, true) => 2.0,
        (None, false) => 20.0,
    };
    Ok(cli)
}

fn main_inner() -> Result<(), Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    if cli.aa {
        return aa::run(cli.workload, cli.options.seconds as u64);
    }
    let workload = cli
        .workload
        .ok_or_else(|| format!("--workload is required\n\n{USAGE}"))?;
    let outcome = run::run(workload, &cli.options)?;
    let names = if cli.options.trace {
        report::PER_LAYER.to_vec()
    } else {
        report::end_to_end_names()
    };
    // The result line is printed only once everything above succeeded:
    // a run that errors exits non-zero without one.
    println!("{}", outcome.to_json(&names)?);
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dod-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
