//! Hand-rolled argument parsing for the `dod` binary (no external CLI
//! dependency).

use dod_core::{CoreError, Metric, OutlierParams};
use dod_detect::cost::AlgorithmKind;

/// Partitioning strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyArg {
    /// Grid without supporting areas (two-job baseline).
    Domain,
    /// Equi-width grid.
    UniSpace,
    /// Cardinality-balanced splits.
    DDriven,
    /// Cost-balanced splits.
    CDriven,
    /// DSHC density clustering (default).
    Dmt,
}

/// Detection mode selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeArg {
    /// Per-partition selection (default).
    MultiTactic,
    /// A fixed detector everywhere.
    Fixed(AlgorithmKind),
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Input CSV path.
    pub input: String,
    /// Outlier parameters.
    pub params: OutlierParams,
    /// Partitioning strategy.
    pub strategy: StrategyArg,
    /// Detection mode.
    pub mode: ModeArg,
    /// Number of reducers.
    pub reducers: usize,
    /// Target partitions.
    pub partitions: usize,
    /// Sampling rate Υ.
    pub sample_rate: f64,
    /// Optional output CSV for outlier rows.
    pub output: Option<String>,
    /// Print the per-stage report.
    pub report: bool,
    /// Optional JSONL trace file: one structured event per line.
    pub trace: Option<String>,
    /// Print the aggregated event summary after the run.
    pub profile: bool,
    /// Seed a deterministic chaos fault plan into the simulated cluster
    /// (task panics, stragglers, transient block-read errors, one lost
    /// node). The run must still produce the exact answer or fail with
    /// a typed error.
    pub chaos_seed: Option<u64>,
    /// Durability root: checkpoint completed tasks (and divert dead ones
    /// to the per-job dead-letter queue) under this directory, and
    /// resume from it on the next run.
    pub checkpoint_dir: Option<String>,
    /// Operator-chosen job name for the checkpoint store; defaults to
    /// the input file's stem.
    pub job_name: Option<String>,
    /// Kill the run after this many fresh task completions (a
    /// deterministic mid-stage interrupt, for exercising resume).
    pub interrupt_after: Option<u64>,
}

/// Parsed `serve` subcommand: the base pipeline arguments plus the
/// engine's serving knobs.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Base pipeline arguments (input, params, strategy, …).
    pub run: Args,
    /// Threads one engine request or one epoch rebuild may use.
    pub workers: usize,
    /// Default per-request deadline in milliseconds (none = unbounded).
    pub deadline_ms: Option<u64>,
    /// Optional TCP address (e.g. `127.0.0.1:9100`) serving Prometheus
    /// `/metrics` and `/healthz` alongside the JSONL loop.
    pub metrics_addr: Option<String>,
    /// Sliding-window count bound: keep at most this many resident
    /// points, expiring the oldest on each mutation op.
    pub window_points: Option<usize>,
    /// Sliding-window age bound in milliseconds: expire resident points
    /// older than this on each mutation op.
    pub window_age_ms: Option<u64>,
}

/// Parsed `explain` subcommand: plan a run and report the planner's
/// per-partition reasoning without executing detection.
#[derive(Debug, Clone)]
pub struct ExplainArgs {
    /// Base pipeline arguments (input, params, strategy, …).
    pub run: Args,
    /// Emit the report as one JSON document instead of the human tree.
    pub json: bool,
}

/// Parsed `obs` subcommand: offline analysis of a JSONL trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsArgs {
    /// Path of the JSONL trace to analyze (from `--trace` or a flight
    /// dump).
    pub trace: String,
    /// How many of the slowest requests to expand into span trees.
    pub top: usize,
}

/// What `dod jobs` should do with the checkpoint store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobsAction {
    /// Summarize every job under the store root.
    List,
    /// Print one job's manifest, task progress, and dead-letter queue.
    Inspect(String),
    /// Flag a job's dead-letter entries for re-execution.
    Redrive(String),
}

/// Parsed `jobs` subcommand: durable-state operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobsArgs {
    /// Checkpoint store root (the `--checkpoint-dir` of the runs).
    pub dir: String,
    /// The requested operation.
    pub action: JobsAction,
}

/// A parsed invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// One-shot detection over a CSV file (the default).
    Run(Args),
    /// Resident engine serving JSONL requests over stdin.
    Serve(ServeArgs),
    /// Offline trace analysis.
    Obs(ObsArgs),
    /// Plan introspection: per-partition candidate costs and winners.
    Explain(ExplainArgs),
    /// Checkpoint-store operations: list, inspect, redrive.
    Jobs(JobsArgs),
}

/// Usage string printed on `--help` or bad arguments.
pub const USAGE: &str = "\
dod — exact distance-based outlier detection over CSV files

USAGE:
    dod --input <points.csv> --r <radius> --k <count> [options]
    dod serve --input <points.csv> --r <radius> --k <count> [options]
    dod explain --input <points.csv> --r <radius> --k <count> [--json] [options]
    dod obs <trace.jsonl> [--top <int>]
    dod jobs list --dir <checkpoints>
    dod jobs inspect <job-id> --dir <checkpoints>
    dod jobs redrive <job-id> --dir <checkpoints>

A point is an outlier iff it has fewer than k neighbors within distance r.
Rows of the CSV are comma-separated coordinates (any dimensionality).

`dod serve` loads the CSV into a resident engine (preprocessing and
index construction run once) and then answers JSONL requests from stdin,
one JSON object per line (every response starts with \"v\":1), e.g.:

    {\"op\": \"score\", \"points\": [[0.1, 0.2], [5.0, 5.0]]}
    {\"op\": \"detect\"}
    {\"op\": \"insert\", \"points\": [[0.3, 0.4]]}
    {\"op\": \"remove\", \"ids\": [3, 17]}
    {\"op\": \"window\", \"max_points\": 1000, \"max_age_ms\": 60000}
    {\"op\": \"drift\"}    {\"op\": \"refresh\"}   {\"op\": \"stats\"}
    {\"op\": \"metrics\"}  {\"op\": \"quit\"}

`dod explain` runs preprocessing and planning only, then prints why the
planner chose each partition's algorithm: every candidate with its
predicted cost (split into pair and structural terms), the winner, and
its margin over the runner-up. `--json` emits the same report as one
JSON document for scripting.

`dod obs` analyzes a JSONL trace offline: per-stage time breakdown,
request latency percentiles, the top-k slowest requests as span trees,
and a predicted-vs-actual cost audit per partition.

`dod jobs` operates on the durable state a checkpointed run leaves under
--checkpoint-dir: `list` summarizes every job (task progress, dead
letters, checkpoint age), `inspect` prints one job's manifest and its
dead-letter queue, and `redrive` flags dead tasks for re-execution on
the next run with the same arguments.

SERVE OPTIONS:
    --workers <int>         threads one request or one epoch rebuild may  [2]
                            use: a score of 192 points or more is split
                            over them; other requests run on the stdin
                            loop's thread. Replies do not depend on it
    --deadline-ms <int>     default per-request deadline          [unbounded]
    --metrics-addr <addr>   serve Prometheus /metrics and /healthz over
                            HTTP on this address (e.g. 127.0.0.1:9100)
    --window-points <int>   sliding window: keep at most this many
                            resident points, expiring the oldest
    --window-age-ms <int>   sliding window: expire resident points older
                            than this many milliseconds

EXPLAIN OPTIONS:
    --json                  emit the plan report as one JSON document

OBS OPTIONS:
    --top <int>             slow requests to expand into span trees       [5]

JOBS OPTIONS:
    --dir <path>            checkpoint store root (required)

OPTIONS (the run, serve and explain):
    --input <path>          input CSV (required)
    --r <float>             distance threshold (required, > 0)
    --k <int>               neighbor-count threshold (required, >= 1)
    --strategy <name>       domain | unispace | ddriven | cdriven | dmt  [dmt]
    --mode <name>           mt | nl | cb | ib                            [mt]
    --reducers <int>        number of reduce tasks                       [16]
    --partitions <int>      target partition count                      [64]
    --metric <name>         euclidean | manhattan | chebyshev      [euclidean]
    --sample-rate <float>   preprocessing sampling rate                [0.005]
    --help                  show this help

RUN OPTIONS (the one-shot run only; serve also takes --trace,
--checkpoint-dir and --job-name; any other is a usage error there, and
every one is a usage error for explain, which runs no job):
    --output <path>         write outlier rows (id,coords...) as CSV
    --report                print the per-stage execution report
    --trace <path>          write structured events (spans, counters) as JSONL
    --profile               print an aggregated event summary after the run
    --chaos-seed <int>      inject a seeded chaos fault plan (panics,
                            stragglers, block-read errors, one lost node)
                            into the simulated cluster; the answer must
                            still be exact or fail with a typed error
    --checkpoint-dir <path> persist per-task completion state and the
                            dead-letter queue under this directory; an
                            interrupted run re-invoked with the same
                            arguments resumes from the last completed
                            task
    --job-name <name>       checkpoint job name            [input file stem]
    --interrupt-after <n>   abort after n fresh task completions (a
                            deterministic mid-stage kill, for exercising
                            checkpoint resume)
";

/// Errors from argument parsing.
#[derive(Debug, PartialEq)]
pub enum ArgError {
    /// `--help` requested.
    Help,
    /// A specific problem, described for the user.
    Invalid(String),
}

impl From<CoreError> for ArgError {
    fn from(e: CoreError) -> Self {
        ArgError::Invalid(e.to_string())
    }
}

/// Parses the full command line (without the program name): a leading
/// `serve` selects the resident-engine loop, anything else is the
/// one-shot run.
pub fn parse_command(args: &[String]) -> Result<Command, ArgError> {
    match args.first().map(String::as_str) {
        Some("serve") => {}
        Some("obs") => return parse_obs(&args[1..]).map(Command::Obs),
        Some("explain") => return parse_explain(&args[1..]).map(Command::Explain),
        Some("jobs") => return parse_jobs(&args[1..]).map(Command::Jobs),
        _ => return parse(args).map(Command::Run),
    }
    let mut workers = 2usize;
    let mut deadline_ms = None;
    let mut metrics_addr = None;
    let mut window_points = None;
    let mut window_age_ms = None;
    let mut rest = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, ArgError> {
            it.next()
                .ok_or_else(|| ArgError::Invalid(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|e| ArgError::Invalid(format!("--workers: {e}")))?
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse::<u64>()
                        .map_err(|e| ArgError::Invalid(format!("--deadline-ms: {e}")))?,
                )
            }
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?.clone()),
            "--window-points" => {
                window_points = Some(
                    value("--window-points")?
                        .parse::<usize>()
                        .map_err(|e| ArgError::Invalid(format!("--window-points: {e}")))?,
                )
            }
            "--window-age-ms" => {
                window_age_ms = Some(
                    value("--window-age-ms")?
                        .parse::<u64>()
                        .map_err(|e| ArgError::Invalid(format!("--window-age-ms: {e}")))?,
                )
            }
            _ => rest.push(arg.clone()),
        }
    }
    if workers == 0 {
        return Err(ArgError::Invalid("--workers must be at least 1".into()));
    }
    if window_points == Some(0) {
        return Err(ArgError::Invalid(
            "--window-points must be at least 1".into(),
        ));
    }
    // `--trace` records the engine's events; `--checkpoint-dir` and
    // `--job-name` name the store the `dlq_depth` gauge reads.
    let kept = ["--trace", "--checkpoint-dir", "--job-name"];
    Ok(Command::Serve(ServeArgs {
        run: refuse_ignored("serve", parse(&rest)?, &kept)?,
        workers,
        deadline_ms,
        metrics_addr,
        window_points,
        window_age_ms,
    }))
}

/// Parses the `explain` subcommand: the base run arguments plus
/// `--json`.
fn parse_explain(args: &[String]) -> Result<ExplainArgs, ArgError> {
    let mut json = false;
    let mut rest = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            _ => rest.push(arg.clone()),
        }
    }
    Ok(ExplainArgs {
        run: refuse_ignored("explain", parse(&rest)?, &[])?,
        json,
    })
}

/// Refuses the run options set in `run` that `command` would accept and
/// then ignore — every option only the one-shot run acts on in full,
/// except `kept` — naming the first such flag in [`USAGE`] order.
fn refuse_ignored(command: &str, run: Args, kept: &[&str]) -> Result<Args, ArgError> {
    let set = [
        ("--output", run.output.is_some()),
        ("--report", run.report),
        ("--trace", run.trace.is_some()),
        ("--profile", run.profile),
        ("--chaos-seed", run.chaos_seed.is_some()),
        ("--checkpoint-dir", run.checkpoint_dir.is_some()),
        ("--job-name", run.job_name.is_some()),
        ("--interrupt-after", run.interrupt_after.is_some()),
    ];
    match set
        .iter()
        .find(|&&(flag, set)| set && !kept.contains(&flag))
    {
        Some((flag, _)) => Err(ArgError::Invalid(format!(
            "{flag} does not apply to `dod {command}`"
        ))),
        None => Ok(run),
    }
}

/// Parses the `jobs` subcommand: an action (`list` | `inspect <job>` |
/// `redrive <job>`) plus the required `--dir`.
fn parse_jobs(args: &[String]) -> Result<JobsArgs, ArgError> {
    let mut dir = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(ArgError::Help),
            "--dir" => {
                dir = Some(
                    it.next()
                        .ok_or_else(|| ArgError::Invalid("--dir needs a value".into()))?
                        .clone(),
                )
            }
            other if other.starts_with("--") => {
                return Err(ArgError::Invalid(format!("unknown argument {other:?}")))
            }
            word => positional.push(word.to_string()),
        }
    }
    let action = match positional.as_slice() {
        [action] if action == "list" => JobsAction::List,
        [action, job] if action == "inspect" => JobsAction::Inspect(job.clone()),
        [action, job] if action == "redrive" => JobsAction::Redrive(job.clone()),
        _ => {
            return Err(ArgError::Invalid(
                "jobs needs one of: list, inspect <job-id>, redrive <job-id>".into(),
            ))
        }
    };
    let dir = dir.ok_or_else(|| ArgError::Invalid("jobs needs --dir <path>".into()))?;
    Ok(JobsArgs { dir, action })
}

/// Parses the `obs` subcommand: a positional trace path plus `--top`.
fn parse_obs(args: &[String]) -> Result<ObsArgs, ArgError> {
    let mut trace = None;
    let mut top = 5usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(ArgError::Help),
            "--top" => {
                top = it
                    .next()
                    .ok_or_else(|| ArgError::Invalid("--top needs a value".into()))?
                    .parse()
                    .map_err(|e| ArgError::Invalid(format!("--top: {e}")))?
            }
            other if other.starts_with("--") => {
                return Err(ArgError::Invalid(format!("unknown argument {other:?}")))
            }
            path => {
                if trace.replace(path.to_string()).is_some() {
                    return Err(ArgError::Invalid("obs takes exactly one trace path".into()));
                }
            }
        }
    }
    let trace = trace.ok_or_else(|| ArgError::Invalid("obs needs a trace path".into()))?;
    if top == 0 {
        return Err(ArgError::Invalid("--top must be at least 1".into()));
    }
    Ok(ObsArgs { trace, top })
}

/// Parses the argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Args, ArgError> {
    let mut input = None;
    let mut r = None;
    let mut k = None;
    let mut strategy = StrategyArg::Dmt;
    let mut mode = ModeArg::MultiTactic;
    let mut reducers = 16usize;
    let mut partitions = 64usize;
    let mut sample_rate = 0.005f64;
    let mut metric = Metric::Euclidean;
    let mut output = None;
    let mut report = false;
    let mut trace = None;
    let mut profile = false;
    let mut chaos_seed = None;
    let mut checkpoint_dir = None;
    let mut job_name = None;
    let mut interrupt_after = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, ArgError> {
            it.next()
                .ok_or_else(|| ArgError::Invalid(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(ArgError::Help),
            "--input" => input = Some(value("--input")?.clone()),
            "--r" => {
                r = Some(
                    value("--r")?
                        .parse::<f64>()
                        .map_err(|e| ArgError::Invalid(format!("--r: {e}")))?,
                )
            }
            "--k" => {
                k = Some(
                    value("--k")?
                        .parse::<usize>()
                        .map_err(|e| ArgError::Invalid(format!("--k: {e}")))?,
                )
            }
            "--strategy" => {
                strategy = match value("--strategy")?.as_str() {
                    "domain" => StrategyArg::Domain,
                    "unispace" => StrategyArg::UniSpace,
                    "ddriven" => StrategyArg::DDriven,
                    "cdriven" => StrategyArg::CDriven,
                    "dmt" => StrategyArg::Dmt,
                    other => return Err(ArgError::Invalid(format!("unknown strategy {other:?}"))),
                }
            }
            "--mode" => {
                mode = match value("--mode")?.as_str() {
                    "mt" => ModeArg::MultiTactic,
                    "nl" => ModeArg::Fixed(AlgorithmKind::NestedLoop),
                    "cb" => ModeArg::Fixed(AlgorithmKind::CellBased),
                    "ib" => ModeArg::Fixed(AlgorithmKind::IndexBased),
                    other => return Err(ArgError::Invalid(format!("unknown mode {other:?}"))),
                }
            }
            "--reducers" => {
                reducers = value("--reducers")?
                    .parse()
                    .map_err(|e| ArgError::Invalid(format!("--reducers: {e}")))?
            }
            "--partitions" => {
                partitions = value("--partitions")?
                    .parse()
                    .map_err(|e| ArgError::Invalid(format!("--partitions: {e}")))?
            }
            "--sample-rate" => {
                sample_rate = value("--sample-rate")?
                    .parse()
                    .map_err(|e| ArgError::Invalid(format!("--sample-rate: {e}")))?
            }
            "--metric" => {
                metric = match value("--metric")?.as_str() {
                    "euclidean" | "l2" => Metric::Euclidean,
                    "manhattan" | "l1" => Metric::Manhattan,
                    "chebyshev" | "linf" => Metric::Chebyshev,
                    other => return Err(ArgError::Invalid(format!("unknown metric {other:?}"))),
                }
            }
            "--output" => output = Some(value("--output")?.clone()),
            "--report" => report = true,
            "--trace" => trace = Some(value("--trace")?.clone()),
            "--profile" => profile = true,
            "--chaos-seed" => {
                chaos_seed = Some(
                    value("--chaos-seed")?
                        .parse::<u64>()
                        .map_err(|e| ArgError::Invalid(format!("--chaos-seed: {e}")))?,
                )
            }
            "--checkpoint-dir" => checkpoint_dir = Some(value("--checkpoint-dir")?.clone()),
            "--job-name" => job_name = Some(value("--job-name")?.clone()),
            "--interrupt-after" => {
                interrupt_after = Some(
                    value("--interrupt-after")?
                        .parse::<u64>()
                        .map_err(|e| ArgError::Invalid(format!("--interrupt-after: {e}")))?,
                )
            }
            other => return Err(ArgError::Invalid(format!("unknown argument {other:?}"))),
        }
    }

    let input = input.ok_or_else(|| ArgError::Invalid("--input is required".into()))?;
    let r = r.ok_or_else(|| ArgError::Invalid("--r is required".into()))?;
    let k = k.ok_or_else(|| ArgError::Invalid("--k is required".into()))?;
    let params = OutlierParams::new(r, k)?.with_metric(metric);
    if reducers == 0 {
        return Err(ArgError::Invalid("--reducers must be at least 1".into()));
    }
    if partitions == 0 {
        return Err(ArgError::Invalid("--partitions must be at least 1".into()));
    }
    if !(sample_rate > 0.0 && sample_rate <= 1.0) {
        return Err(ArgError::Invalid("--sample-rate must be in (0, 1]".into()));
    }
    if job_name.is_some() && checkpoint_dir.is_none() {
        return Err(ArgError::Invalid(
            "--job-name has no effect without --checkpoint-dir".into(),
        ));
    }
    if interrupt_after == Some(0) {
        return Err(ArgError::Invalid(
            "--interrupt-after must be at least 1".into(),
        ));
    }
    Ok(Args {
        input,
        params,
        strategy,
        mode,
        reducers,
        partitions,
        sample_rate,
        output,
        report,
        trace,
        profile,
        chaos_seed,
        checkpoint_dir,
        job_name,
        interrupt_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn minimal_arguments() {
        let a = parse(&v(&["--input", "x.csv", "--r", "0.5", "--k", "4"])).unwrap();
        assert_eq!(a.input, "x.csv");
        assert_eq!(a.params.r, 0.5);
        assert_eq!(a.params.k, 4);
        assert_eq!(a.strategy, StrategyArg::Dmt);
        assert_eq!(a.mode, ModeArg::MultiTactic);
        assert!(!a.report);
    }

    #[test]
    fn full_arguments() {
        let a = parse(&v(&[
            "--input",
            "x.csv",
            "--r",
            "2",
            "--k",
            "3",
            "--strategy",
            "cdriven",
            "--mode",
            "cb",
            "--reducers",
            "8",
            "--partitions",
            "32",
            "--sample-rate",
            "0.05",
            "--output",
            "out.csv",
            "--report",
        ]))
        .unwrap();
        assert_eq!(a.strategy, StrategyArg::CDriven);
        assert_eq!(a.mode, ModeArg::Fixed(AlgorithmKind::CellBased));
        assert_eq!(a.reducers, 8);
        assert_eq!(a.partitions, 32);
        assert_eq!(a.sample_rate, 0.05);
        assert_eq!(a.output.as_deref(), Some("out.csv"));
        assert!(a.report);
    }

    #[test]
    fn help_flag() {
        assert!(matches!(parse(&v(&["--help"])), Err(ArgError::Help)));
        assert!(matches!(parse(&v(&["-h"])), Err(ArgError::Help)));
    }

    #[test]
    fn missing_required() {
        assert!(matches!(
            parse(&v(&["--r", "1", "--k", "2"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&["--input", "x", "--k", "2"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&["--input", "x", "--r", "1"])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn invalid_values() {
        assert!(matches!(
            parse(&v(&["--input", "x", "--r", "zero", "--k", "2"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&["--input", "x", "--r", "-1", "--k", "2"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&["--input", "x", "--r", "1", "--k", "0"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&[
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--strategy",
                "magic"
            ])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&[
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--sample-rate",
                "0"
            ])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&["--input", "x", "--r", "1", "--k", "2", "--bogus"])),
            Err(ArgError::Invalid(_))
        ));
        let pb = parse(&v(&[
            "--input", "x", "--r", "1", "--k", "2", "--mode", "pb",
        ]));
        assert!(
            matches!(&pb, Err(ArgError::Invalid(msg)) if msg.contains("unknown mode")),
            "{pb:?}"
        );
    }

    #[test]
    fn trace_and_profile_arguments() {
        let a = parse(&v(&["--input", "x", "--r", "1", "--k", "2"])).unwrap();
        assert_eq!(a.trace, None);
        assert!(!a.profile);
        let a = parse(&v(&[
            "--input",
            "x",
            "--r",
            "1",
            "--k",
            "2",
            "--trace",
            "run.jsonl",
            "--profile",
        ]))
        .unwrap();
        assert_eq!(a.trace.as_deref(), Some("run.jsonl"));
        assert!(a.profile);
        assert!(matches!(
            parse(&v(&["--input", "x", "--r", "1", "--k", "2", "--trace"])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn chaos_seed_argument() {
        let a = parse(&v(&["--input", "x", "--r", "1", "--k", "2"])).unwrap();
        assert_eq!(a.chaos_seed, None);
        let a = parse(&v(&[
            "--input",
            "x",
            "--r",
            "1",
            "--k",
            "2",
            "--chaos-seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(a.chaos_seed, Some(42));
        assert!(matches!(
            parse(&v(&[
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--chaos-seed",
                "not-a-seed"
            ])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&[
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--chaos-seed"
            ])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn metric_argument() {
        let a = parse(&v(&[
            "--input", "x", "--r", "1", "--k", "2", "--metric", "l1",
        ]))
        .unwrap();
        assert_eq!(a.params.metric, Metric::Manhattan);
        assert!(matches!(
            parse(&v(&[
                "--input", "x", "--r", "1", "--k", "2", "--metric", "cosine"
            ])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn serve_subcommand() {
        let cmd = parse_command(&v(&[
            "serve",
            "--input",
            "x.csv",
            "--r",
            "0.5",
            "--k",
            "4",
            "--workers",
            "3",
            "--deadline-ms",
            "250",
        ]))
        .unwrap();
        let Command::Serve(serve) = cmd else {
            panic!("expected serve command");
        };
        assert_eq!(serve.run.input, "x.csv");
        assert_eq!(serve.workers, 3);
        assert_eq!(serve.deadline_ms, Some(250));
        assert_eq!(serve.metrics_addr, None);
    }

    #[test]
    fn serve_metrics_addr() {
        let cmd = parse_command(&v(&[
            "serve",
            "--input",
            "x.csv",
            "--r",
            "1",
            "--k",
            "2",
            "--metrics-addr",
            "127.0.0.1:9100",
        ]))
        .unwrap();
        let Command::Serve(serve) = cmd else {
            panic!("expected serve command");
        };
        assert_eq!(serve.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
        assert!(matches!(
            parse_command(&v(&[
                "serve",
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--metrics-addr"
            ])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn serve_window_flags() {
        let cmd = parse_command(&v(&[
            "serve",
            "--input",
            "x.csv",
            "--r",
            "1",
            "--k",
            "2",
            "--window-points",
            "1000",
            "--window-age-ms",
            "60000",
        ]))
        .unwrap();
        let Command::Serve(serve) = cmd else {
            panic!("expected serve command");
        };
        assert_eq!(serve.window_points, Some(1000));
        assert_eq!(serve.window_age_ms, Some(60000));

        let cmd =
            parse_command(&v(&["serve", "--input", "x.csv", "--r", "1", "--k", "2"])).unwrap();
        let Command::Serve(serve) = cmd else {
            panic!("expected serve command");
        };
        assert_eq!(serve.window_points, None);
        assert_eq!(serve.window_age_ms, None);

        assert!(matches!(
            parse_command(&v(&[
                "serve",
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--window-points",
                "0"
            ])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse_command(&v(&[
                "serve",
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--window-age-ms",
                "soon"
            ])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn obs_subcommand() {
        let cmd = parse_command(&v(&["obs", "run.jsonl"])).unwrap();
        let Command::Obs(obs) = cmd else {
            panic!("expected obs command");
        };
        assert_eq!(
            obs,
            ObsArgs {
                trace: "run.jsonl".into(),
                top: 5
            }
        );

        let cmd = parse_command(&v(&["obs", "run.jsonl", "--top", "3"])).unwrap();
        let Command::Obs(obs) = cmd else {
            panic!("expected obs command");
        };
        assert_eq!(obs.top, 3);

        assert!(matches!(
            parse_command(&v(&["obs"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse_command(&v(&["obs", "a.jsonl", "b.jsonl"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse_command(&v(&["obs", "a.jsonl", "--top", "0"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse_command(&v(&["obs", "a.jsonl", "--bogus"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse_command(&v(&["obs", "--help"])),
            Err(ArgError::Help)
        ));
    }

    #[test]
    fn explain_subcommand() {
        let cmd =
            parse_command(&v(&["explain", "--input", "x.csv", "--r", "1", "--k", "2"])).unwrap();
        let Command::Explain(explain) = cmd else {
            panic!("expected explain command");
        };
        assert_eq!(explain.run.input, "x.csv");
        assert!(!explain.json);

        let cmd = parse_command(&v(&[
            "explain", "--input", "x.csv", "--r", "1", "--k", "2", "--json",
        ]))
        .unwrap();
        let Command::Explain(explain) = cmd else {
            panic!("expected explain command");
        };
        assert!(explain.json);

        // The base-run flags still validate underneath.
        assert!(matches!(
            parse_command(&v(&["explain", "--r", "1", "--k", "2"])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse_command(&v(&["explain", "--help"])),
            Err(ArgError::Help)
        ));
    }

    #[test]
    fn calibration_argument() {
        // The planner has one set of unit costs; no profile re-weights it,
        // so `--calibration` is an unknown argument in every subcommand.
        for sub in [None, Some("serve"), Some("explain")] {
            let mut args: Vec<&str> = sub.into_iter().collect();
            args.extend(["--input", "x", "--r", "1", "--k", "2"]);
            args.extend(["--calibration", "profile.json"]);
            assert_eq!(
                parse_command(&v(&args)).unwrap_err(),
                ArgError::Invalid("unknown argument \"--calibration\"".into()),
                "{sub:?}"
            );
        }
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        let base = ["--input", "x", "--r", "1", "--k", "2"];
        for (flag, message) in [
            ("--reducers", "--reducers must be at least 1"),
            ("--partitions", "--partitions must be at least 1"),
        ] {
            let mut args = base.to_vec();
            args.extend([flag, "0"]);
            assert_eq!(
                parse(&v(&args)).unwrap_err(),
                ArgError::Invalid(message.into())
            );
        }
        let mut args = base.to_vec();
        args.extend(["--partitions", "1", "--reducers", "1"]);
        assert_eq!(parse(&v(&args)).unwrap().partitions, 1);
    }

    #[test]
    fn checkpoint_arguments() {
        let a = parse(&v(&["--input", "x", "--r", "1", "--k", "2"])).unwrap();
        assert_eq!(a.checkpoint_dir, None);
        assert_eq!(a.job_name, None);
        assert_eq!(a.interrupt_after, None);

        let a = parse(&v(&[
            "--input",
            "x",
            "--r",
            "1",
            "--k",
            "2",
            "--checkpoint-dir",
            "ck",
            "--job-name",
            "nightly",
            "--interrupt-after",
            "5",
        ]))
        .unwrap();
        assert_eq!(a.checkpoint_dir.as_deref(), Some("ck"));
        assert_eq!(a.job_name.as_deref(), Some("nightly"));
        assert_eq!(a.interrupt_after, Some(5));

        // --job-name without a checkpoint dir is a user error.
        assert!(matches!(
            parse(&v(&[
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--job-name",
                "nightly"
            ])),
            Err(ArgError::Invalid(_))
        ));
        assert!(matches!(
            parse(&v(&[
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--interrupt-after",
                "0"
            ])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn jobs_subcommand() {
        let cmd = parse_command(&v(&["jobs", "list", "--dir", "ck"])).unwrap();
        let Command::Jobs(jobs) = cmd else {
            panic!("expected jobs command");
        };
        assert_eq!(jobs.dir, "ck");
        assert_eq!(jobs.action, JobsAction::List);

        let cmd = parse_command(&v(&["jobs", "inspect", "nightly-detect", "--dir", "ck"])).unwrap();
        let Command::Jobs(jobs) = cmd else {
            panic!("expected jobs command");
        };
        assert_eq!(jobs.action, JobsAction::Inspect("nightly-detect".into()));

        let cmd = parse_command(&v(&["jobs", "--dir", "ck", "redrive", "nightly-detect"])).unwrap();
        let Command::Jobs(jobs) = cmd else {
            panic!("expected jobs command");
        };
        assert_eq!(jobs.action, JobsAction::Redrive("nightly-detect".into()));

        for bad in [
            vec!["jobs"],
            vec!["jobs", "list"],
            vec!["jobs", "inspect", "--dir", "ck"],
            vec!["jobs", "explode", "x", "--dir", "ck"],
            vec!["jobs", "list", "inspect", "x", "--dir", "ck"],
            vec!["jobs", "list", "--bogus", "--dir", "ck"],
        ] {
            assert!(
                matches!(parse_command(&v(&bad)), Err(ArgError::Invalid(_))),
                "accepted {bad:?}"
            );
        }
        assert!(matches!(
            parse_command(&v(&["jobs", "--help"])),
            Err(ArgError::Help)
        ));
    }

    #[test]
    fn serve_defaults_and_validation() {
        let cmd =
            parse_command(&v(&["serve", "--input", "x.csv", "--r", "1", "--k", "2"])).unwrap();
        let Command::Serve(serve) = cmd else {
            panic!("expected serve command");
        };
        assert_eq!(serve.workers, 2);
        assert_eq!(serve.deadline_ms, None);
        // The help text quotes the engine's fan-out threshold.
        assert!(USAGE.contains(&format!(
            "a score of {} points or more",
            dod_engine::FAN_OUT_MIN_QUERIES
        )));
        assert!(matches!(
            parse_command(&v(&[
                "serve",
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--workers",
                "0"
            ])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn non_serve_first_argument_is_a_run() {
        let cmd = parse_command(&v(&["--input", "x.csv", "--r", "1", "--k", "2"])).unwrap();
        assert!(matches!(cmd, Command::Run(_)));
        // Serve-only flags are rejected outside `serve`.
        assert!(matches!(
            parse_command(&v(&[
                "--input",
                "x",
                "--r",
                "1",
                "--k",
                "2",
                "--workers",
                "2"
            ])),
            Err(ArgError::Invalid(_))
        ));
    }

    #[test]
    fn subcommands_refuse_the_run_flags_they_ignore() {
        let base = ["--input", "x", "--r", "1", "--k", "2"];
        // Each run-only flag, with a value when it takes one.
        let run_only = [
            ("--output", Some("out.csv")),
            ("--report", None),
            ("--trace", Some("t.jsonl")),
            ("--profile", None),
            ("--chaos-seed", Some("3")),
            ("--checkpoint-dir", Some("ck")),
            ("--job-name", Some("nightly")),
            ("--interrupt-after", Some("3")),
        ];
        for (flag, value) in run_only {
            for (sub, accepted) in [
                (None, true),
                (
                    Some("serve"),
                    matches!(flag, "--trace" | "--checkpoint-dir" | "--job-name"),
                ),
                (Some("explain"), false),
            ] {
                let mut args: Vec<&str> = sub.into_iter().collect();
                args.extend(base);
                args.push(flag);
                args.extend(value);
                if flag == "--job-name" {
                    // Refused without a store to name, whatever the command.
                    args.extend(["--checkpoint-dir", "ck"]);
                }
                let parsed = parse_command(&v(&args));
                if accepted {
                    assert!(parsed.is_ok(), "{sub:?} {flag}: {parsed:?}");
                } else {
                    let command = sub.unwrap_or_default();
                    // The first refused flag is named: `--job-name`'s store
                    // comes first in explain.
                    let named = match (command, flag) {
                        ("explain", "--job-name") => "--checkpoint-dir",
                        _ => flag,
                    };
                    assert_eq!(
                        parsed.unwrap_err(),
                        ArgError::Invalid(format!("{named} does not apply to `dod {command}`")),
                        "{sub:?} {flag}"
                    );
                }
            }
        }
    }

    #[test]
    fn dangling_value() {
        assert!(matches!(
            parse(&v(&["--input", "x", "--r", "1", "--k"])),
            Err(ArgError::Invalid(_))
        ));
    }
}
