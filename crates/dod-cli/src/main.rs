//! `dod` — exact distance-based outlier detection over CSV files, from
//! the command line.
//!
//! ```sh
//! dod --input points.csv --r 0.5 --k 4 --report
//! dod serve --input points.csv --r 0.5 --k 4   # resident engine, JSONL
//! dod explain --input points.csv --r 0.5 --k 4 # planner introspection
//! dod obs run.jsonl                            # offline trace analysis
//! ```

mod args;
mod explain_cmd;
mod jobs_cmd;
mod obs_cmd;
mod serve;

use args::{ArgError, Args, Command, ModeArg, StrategyArg, USAGE};
use dod::prelude::*;
use dod_obs::{FanoutRecorder, JsonlRecorder, MemoryRecorder, Obs};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

/// Builds the observability handle requested by `--trace` / `--profile`.
/// Returns the memory recorder too when `--profile` asks for the
/// post-run summary.
fn build_obs(args: &Args) -> Result<(Obs, Option<Arc<MemoryRecorder>>), String> {
    let memory = args.profile.then(|| Arc::new(MemoryRecorder::new()));
    let jsonl = match &args.trace {
        Some(path) => {
            Some(JsonlRecorder::create(path).map_err(|e| format!("creating {path}: {e}"))?)
        }
        None => None,
    };
    let obs = match (jsonl, &memory) {
        (None, None) => Obs::null(),
        (Some(j), None) => Obs::new(Arc::new(j)),
        (None, Some(m)) => Obs::new(Arc::clone(m) as Arc<dyn dod_obs::Recorder>),
        (Some(j), Some(m)) => Obs::new(Arc::new(FanoutRecorder::new(vec![
            Box::new(j),
            Box::new(Arc::clone(m)),
        ]))),
    };
    Ok((obs, memory))
}

fn build_runner(args: &Args, obs: Obs) -> Result<DodRunner, String> {
    let mut builder = DodConfig::builder(args.params)
        .num_reducers(args.reducers)
        .target_partitions(args.partitions)
        .sample_rate(args.sample_rate)
        .obs(obs);
    let mut fault = args.chaos_seed.map(FaultPlan::chaos);
    if let Some(n) = args.interrupt_after {
        // The interrupt rides on the fault plan (chaos seed 0 when none
        // was requested — seed-derived faults stay off unless armed).
        fault = Some(fault.unwrap_or(FaultPlan::new(0)).with_interrupt_after(n));
    }
    if let Some(plan) = fault {
        // Deterministic fault injection: same seed, same faults. Extra
        // retries keep chaos-rate plans recoverable so the run usually
        // still produces the exact answer.
        builder = builder.cluster(
            ClusterConfig::default()
                .with_retries(6)
                .with_backoff_ms(1)
                .with_fault(plan),
        );
    }
    if let Some(dir) = &args.checkpoint_dir {
        let job = match &args.job_name {
            Some(name) => name.clone(),
            // Default to the input file's stem, e.g. `points.csv` ->
            // job ids `points-detect` / `points-candidates` / ....
            None => std::path::Path::new(&args.input)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "job".to_string()),
        };
        builder = builder.checkpoint(dir, job);
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let builder = DodRunner::builder().config(config);
    let builder = match args.strategy {
        StrategyArg::Domain => builder.strategy(Domain),
        StrategyArg::UniSpace => builder.strategy(UniSpace),
        StrategyArg::DDriven => builder.strategy(DDriven),
        StrategyArg::CDriven => builder.strategy(CDriven::new(match args.mode {
            ModeArg::Fixed(kind) => kind,
            ModeArg::MultiTactic => AlgorithmKind::NestedLoop,
        })),
        StrategyArg::Dmt => builder.strategy(Dmt::default()),
    };
    Ok(match args.mode {
        ModeArg::MultiTactic => builder.multi_tactic().build(),
        ModeArg::Fixed(kind) => builder.fixed(kind).build(),
    })
}

fn run(args: &Args) -> Result<(), String> {
    let data = dod_data::io::read_csv(std::path::Path::new(&args.input))
        .map_err(|e| format!("reading {}: {e}", args.input))?;
    if data.is_empty() {
        println!("0 points, 0 outliers");
        return Ok(());
    }
    let (obs, memory) = build_obs(args)?;
    let runner = build_runner(args, obs)?;
    let outcome = runner.run(&data).map_err(|e| e.to_string())?;

    println!(
        "{} points ({}-d), {} outliers (r = {}, k = {})",
        data.len(),
        data.dim(),
        outcome.outliers.len(),
        args.params.r,
        args.params.k
    );
    if outcome.report.diverted_tasks > 0 {
        eprintln!(
            "warning: {} task(s) dead-lettered — the outlier set is PARTIAL; \
             inspect with `dod jobs` and redrive when the fault is fixed",
            outcome.report.diverted_tasks
        );
    }

    match &args.output {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            for &id in &outcome.outliers {
                write!(out, "{id}").map_err(|e| e.to_string())?;
                for v in data.point(id as usize) {
                    write!(out, ",{v}").map_err(|e| e.to_string())?;
                }
                writeln!(out).map_err(|e| e.to_string())?;
            }
            out.flush().map_err(|e| e.to_string())?;
            println!("outlier rows written to {path}");
        }
        None => {
            for &id in &outcome.outliers {
                let p = data.point(id as usize);
                let coords: Vec<String> = p.iter().map(|v| format!("{v:.4}")).collect();
                println!("  {id}: [{}]", coords.join(", "));
            }
        }
    }

    if args.report {
        let r = &outcome.report;
        println!("\n-- execution report --");
        println!("partitions:        {}", r.num_partitions);
        for (alg, n) in &r.algorithm_histogram {
            println!("  {:<12} x {n}", alg.name());
        }
        println!("shuffle bytes:     {}", r.shuffle_bytes);
        println!("jobs executed:     {}", r.jobs.len());
        println!("preprocess:        {:?}", r.breakdown.preprocess);
        println!("map makespan:      {:?}", r.breakdown.map);
        println!("reduce makespan:   {:?}", r.breakdown.reduce);
        println!("simulated total:   {:?}", r.breakdown.total());
    }

    if let Some(mem) = &memory {
        println!("\n-- profile --");
        print!("{}", dod_obs::render::render_summary(&mem.events()));
    }
    if let Some(path) = &args.trace {
        println!("trace written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match args::parse_command(&raw) {
        Ok(cmd) => {
            let result = match &cmd {
                Command::Run(args) => run(args),
                Command::Serve(args) => serve::serve(args),
                Command::Obs(args) => obs_cmd::run(args),
                Command::Explain(args) => explain_cmd::run(args),
                Command::Jobs(args) => jobs_cmd::run(args),
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(ArgError::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(ArgError::Invalid(msg)) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_args() -> Args {
        args::parse(
            &["--input", "x.csv", "--r", "0.5", "--k", "4"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn runner_uses_cli_knobs() {
        let mut a = base_args();
        a.reducers = 7;
        a.partitions = 21;
        a.sample_rate = 0.25;
        let runner = build_runner(&a, Obs::null()).unwrap();
        assert_eq!(runner.config().num_reducers, 7);
        assert_eq!(runner.config().target_partitions, 21);
        assert_eq!(runner.config().sample_rate, 0.25);
    }

    #[test]
    fn chaos_seed_arms_the_cluster_fault_plan() {
        let mut a = base_args();
        let runner = build_runner(&a, Obs::null()).unwrap();
        assert!(runner.config().cluster.fault.is_none());
        a.chaos_seed = Some(9);
        let runner = build_runner(&a, Obs::null()).unwrap();
        assert_eq!(
            runner.config().cluster.fault,
            Some(mapreduce::FaultPlan::chaos(9))
        );
    }

    #[test]
    fn chaos_run_still_finds_the_exact_outliers() {
        let data = {
            let mut d = PointSet::new(2).unwrap();
            for i in 0..60 {
                d.push(&[(i % 10) as f64, (i / 10) as f64]).unwrap();
            }
            d.push(&[100.0, 100.0]).unwrap();
            d
        };
        let mut a = base_args();
        a.sample_rate = 1.0;
        a.params = OutlierParams::new(1.5, 3).unwrap();
        let expected = build_runner(&a, Obs::null())
            .unwrap()
            .run(&data)
            .unwrap()
            .outliers;
        a.chaos_seed = Some(5);
        match build_runner(&a, Obs::null()).unwrap().run(&data) {
            Ok(outcome) => assert_eq!(outcome.outliers, expected),
            Err(e) => assert!(matches!(e, dod::Error::Job(_)), "unexpected error: {e}"),
        }
    }

    #[test]
    fn every_strategy_mode_combination_builds_and_runs() {
        let data = {
            let mut d = PointSet::new(2).unwrap();
            for i in 0..50 {
                d.push(&[(i % 10) as f64, (i / 10) as f64]).unwrap();
            }
            d.push(&[100.0, 100.0]).unwrap();
            d
        };
        for strategy in [
            StrategyArg::Domain,
            StrategyArg::UniSpace,
            StrategyArg::DDriven,
            StrategyArg::CDriven,
            StrategyArg::Dmt,
        ] {
            for mode in [
                ModeArg::MultiTactic,
                ModeArg::Fixed(AlgorithmKind::NestedLoop),
                ModeArg::Fixed(AlgorithmKind::CellBased),
                ModeArg::Fixed(AlgorithmKind::IndexBased),
            ] {
                let mut a = base_args();
                a.strategy = strategy;
                a.mode = mode;
                a.sample_rate = 1.0;
                let runner = build_runner(&a, Obs::null()).unwrap();
                let outcome = runner.run(&data).unwrap();
                assert!(
                    outcome.outliers.contains(&50),
                    "{strategy:?}/{mode:?} missed the isolated point"
                );
            }
        }
    }

    #[test]
    fn cli_end_to_end_via_run() {
        let mut path = std::env::temp_dir();
        path.push(format!("dod-cli-test-{}.csv", std::process::id()));
        let data = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.1), (0.2, 0.0), (50.0, 50.0)]);
        dod_data::io::write_csv(&path, &data).unwrap();
        let mut out_path = std::env::temp_dir();
        out_path.push(format!("dod-cli-out-{}.csv", std::process::id()));
        let mut a = base_args();
        a.input = path.to_string_lossy().into_owned();
        a.output = Some(out_path.to_string_lossy().into_owned());
        a.params = OutlierParams::new(1.0, 1).unwrap();
        a.sample_rate = 1.0;
        run(&a).unwrap();
        let written = std::fs::read_to_string(&out_path).unwrap();
        assert!(written.starts_with("3,50"), "unexpected output: {written}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out_path).ok();
    }

    #[test]
    fn trace_flag_writes_replayable_jsonl() {
        let mut path = std::env::temp_dir();
        path.push(format!("dod-cli-trace-in-{}.csv", std::process::id()));
        let data = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.1), (0.2, 0.0), (50.0, 50.0)]);
        dod_data::io::write_csv(&path, &data).unwrap();
        let mut trace_path = std::env::temp_dir();
        trace_path.push(format!("dod-cli-trace-{}.jsonl", std::process::id()));
        let mut a = base_args();
        a.input = path.to_string_lossy().into_owned();
        a.trace = Some(trace_path.to_string_lossy().into_owned());
        a.profile = true;
        a.params = OutlierParams::new(1.0, 1).unwrap();
        a.sample_rate = 1.0;
        run(&a).unwrap();
        let events = dod_obs::replay::read_jsonl(&trace_path).unwrap();
        let stages: Vec<_> = events
            .iter()
            .filter(|e| e.name == "dod.stage")
            .filter_map(|e| e.label("stage").and_then(dod_obs::Value::as_str))
            .collect();
        assert_eq!(stages, vec!["preprocess", "map", "reduce"]);
        assert!(events.iter().any(|e| e.name == "mapreduce.task"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn missing_input_is_reported() {
        let mut a = base_args();
        a.input = "/definitely/not/here.csv".into();
        let err = run(&a).unwrap_err();
        assert!(err.contains("reading"), "{err}");
    }
}
