//! One benchmark run: inputs from the seed, set-up repeats, the count
//! pass, the timed phase, and the checks around them.
//!
//! Steadiness rules (the numbers behind them are in README.md):
//! the program gets two threads; the timed phase repeats equal-work
//! blocks until `--seconds` is up and drops the first; every reported
//! time is a median; generation, CSV writing, the oracle, the count pass
//! and all checks happen outside the timed regions.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dod::prelude::*;
use dod_obs::{MetricsRecorder, Obs};

use crate::env::{self, Error, Scratch};
use crate::gen::{write_csv, Rng};
use crate::ladder;
use crate::oracle::Oracle;
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::wire::{self, ServeChild};
use crate::workloads::{Kind, Workload, CHURN_BATCH, SCORE_BATCH, SCRIPT_REQUESTS};

/// Set-ups measured inside one run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Cycles a streamed point stays resident before `serve_churn` removes
/// it: the "oldest streamed ids" are those inserted this many cycles ago.
const STREAM_LAG: usize = 8;
/// Cycles of the `serve_churn` count pass.
const COUNT_CYCLES: usize = 64;
/// Epoch swaps a full `serve_churn` run must see to count as churn.
const MIN_REFRESHES: usize = 5;
/// Peak memory is read after a fixed amount of work, because a faster
/// box fits more work into `--seconds` and memory creeps with it: after
/// this many timed batch runs, and after the first epoch swap of
/// `serve_churn` (the resident set plus one rebuild beside it). The serve
/// child's peak grows by another ~100 MB over the next eight swaps, by
/// 0 to 45 MB a swap; the traced run reports that creep on its own.
const RSS_AFTER_RUNS: usize = 10;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small corpora, no gating: a smoke test.
    pub quick: bool,
    /// Flip one oracle verdict; the run must then report `correct: false`.
    pub plant_wrong_answer: bool,
}

/// Counts compared outputs; the first few mismatches go to stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }
}

/// The `score` requests of a workload, encoded once.
pub struct Script {
    pub requests: Vec<String>,
    /// The query points of each request, flat.
    pub queries: Vec<Vec<f64>>,
    /// The verdicts each request must get from the unchanged corpus.
    expected: Vec<Vec<(usize, bool)>>,
}

/// Everything a run derives from `--seed` before it measures anything.
pub struct Inputs {
    pub corpus: Vec<f64>,
    pub csv: PathBuf,
    pub oracle: Oracle,
    /// The corpus's outlier ids, as the oracle sees them.
    pub outliers: Vec<u64>,
    pub script: Script,
    /// Number of corpus points.
    pub points: usize,
    /// Seed of the points `serve_churn` and the ladder insert.
    pub stream_seed: u64,
    _scratch: Scratch,
}

impl Inputs {
    fn new(w: &Workload, opts: &Options, build_dir: &Path) -> Result<Self, Error> {
        let shape = w.shape;
        let n = if opts.quick { w.quick_points } else { w.points };
        let corpus = shape.corpus(n, &mut Rng::new(opts.seed));
        let scratch = Scratch::new(build_dir, w.name, opts.seed)?;
        let csv = scratch.path("corpus.csv");
        write_csv(&csv, &corpus, shape.dim)?;
        let mut oracle = Oracle::with_points(shape.dim, shape.r, shape.k, &corpus);
        if opts.plant_wrong_answer {
            let victim = *oracle.outliers().first().ok_or("corpus has no outlier")?;
            oracle.plant_wrong_answer(victim);
        }
        let outliers = oracle.outliers();
        let mut rng = Rng::new(opts.seed ^ 0x5C0_4E5);
        let queries: Vec<Vec<f64>> = (0..SCRIPT_REQUESTS)
            .map(|_| shape.queries(SCORE_BATCH, &corpus, &mut rng))
            .collect();
        let requests = queries
            .iter()
            .map(|q| wire::points_request("score", q, shape.dim))
            .collect();
        let expected = queries
            .iter()
            .map(|q| expected_scores(&oracle, q, shape.dim))
            .collect();
        Ok(Inputs {
            corpus,
            csv,
            oracle,
            outliers,
            script: Script {
                requests,
                queries,
                expected,
            },
            points: n,
            stream_seed: opts.seed ^ 0x57_4EA3,
            _scratch: scratch,
        })
    }
}

/// Latencies in ms of a phase's primary op, each with whether a span was
/// recorded around it.
type Latencies = Vec<(f64, bool)>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn p50(lat: &Latencies) -> f64 {
    median(&lat.iter().map(|(ms, _)| *ms).collect::<Vec<_>>())
}

/// What the phases of one run share.
pub struct Session<'a> {
    pub w: &'a Workload,
    pub inp: &'a Inputs,
    pub log: SpanLog,
    /// Traced run: spans are recorded on every other op only, so the two
    /// halves of the same script give the tracing overhead.
    alternate: bool,
    pub checks: Checks,
}

impl Session<'_> {
    fn trace_this(&mut self, op: u64) {
        if self.alternate {
            self.log.enabled = op.is_multiple_of(2);
        }
    }

    /// One request inside a span; the reply borrows the child's buffer.
    pub fn request<'c>(
        &mut self,
        serve: &'c mut ServeChild,
        span: &'static str,
        op: u64,
        request: &str,
    ) -> Result<(f64, &'c str), Error> {
        let span = self.log.enter(span, op);
        let (elapsed, reply) = serve.request(request)?;
        self.log.exit(span);
        Ok((ms(elapsed), reply))
    }

    fn check_scores(&mut self, reply: &str, expected: &[(usize, bool)], what: &str) {
        let k = self.w.shape.k;
        let Some(got) = wire::score_results(reply).filter(|g| g.len() == expected.len()) else {
            self.checks.check(false, || {
                format!("{what}: error or truncated score response")
            });
            return;
        };
        let wrong = got
            .iter()
            .zip(expected)
            // The engine counts up to k; only that much is part of the answer.
            .filter(|((neighbors, outlier), want)| ((*neighbors).min(k), *outlier) != **want)
            .count();
        self.checks.check(wrong == 0, || {
            format!("{what}: {wrong} of {} verdicts differ", got.len())
        });
    }

    /// Compares the child's `detect` answer with the oracle's outlier set.
    fn check_detect(&mut self, serve: &mut ServeChild, expected: &[u64]) -> Result<(), Error> {
        let (_, reply) = serve.request("{\"op\":\"detect\"}")?;
        let got = wire::field_ids(reply, "outliers").filter(|_| wire::is_ok(reply));
        self.checks.check(got.as_deref() == Some(expected), || {
            format!(
                "final detect: {:?} outliers, oracle has {}",
                got.map(|g| g.len()),
                expected.len()
            )
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Batch: one op = one `DodRunner::run`.
    // ------------------------------------------------------------------

    /// Runs until `seconds` are up; drops the first. Also returns the
    /// harness's peak memory after `RSS_AFTER_RUNS` runs.
    fn batch_phase(
        &mut self,
        runner: &DodRunner,
        data: &PointSet,
        expected: &[u64],
        seconds: f64,
    ) -> Result<(Latencies, f64), Error> {
        let mut lat = Latencies::new();
        let mut peak_rss_mb = None;
        let phase = Instant::now();
        // The first op is dropped, so a phase needs at least two more.
        while lat.len() < 3 || phase.elapsed().as_secs_f64() < seconds {
            if lat.len() == RSS_AFTER_RUNS {
                peak_rss_mb = Some(env::peak_rss_mb(std::process::id())?);
            }
            let op = lat.len() as u64;
            self.trace_this(op);
            let start = Instant::now();
            let outcome = self.log.wrap("dod.run", op, || runner.run(data))?;
            lat.push((ms(start.elapsed()), self.log.enabled));
            self.checks.check(outcome.outliers == expected, || {
                format!(
                    "run {op}: {} outliers, oracle has {}",
                    outcome.outliers.len(),
                    expected.len()
                )
            });
        }
        lat.remove(0);
        eprintln!("{} timed runs", lat.len());
        let peak_rss_mb = match peak_rss_mb {
            Some(mb) => mb,
            None => env::peak_rss_mb(std::process::id())?,
        };
        Ok((lat, peak_rss_mb))
    }

    fn batch_end_to_end(&mut self, seconds: f64) -> Result<Vec<(&'static str, f64)>, Error> {
        let (w, inp) = (self.w, self.inp);
        let expected = &inp.outliers;
        let n = inp.points as f64;

        // CSV on disk → first answer, five times over.
        let mut setups = Vec::new();
        let mut resident = None;
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            let data = dod_data::io::read_csv(&inp.csv)?;
            let runner = w.runner(Obs::null(), true);
            let outcome = runner.run(&data)?;
            setups.push(start.elapsed().as_secs_f64());
            self.checks.check(outcome.outliers == *expected, || {
                "set-up run's outlier set".into()
            });
            resident = Some((data, runner));
        }
        let (data, runner) = resident.expect("SETUP_REPEATS > 0");

        // Count pass: speculation off, so that a straggler's second
        // attempt cannot count its pairs twice and the count repeats
        // exactly.
        let counter = Arc::new(MetricsRecorder::new());
        let counted = w.runner(Obs::new(counter.clone()), false).run(&data)?;
        self.checks.check(counted.outliers == *expected, || {
            "count pass's outlier set".into()
        });
        let evals = counter.counter_total("detect.distance_evals") as f64;

        let (lat, peak_rss_mb) = self.batch_phase(&runner, &data, expected, seconds)?;
        let op_p50_ms = p50(&lat);
        Ok(vec![
            ("setup_s", median(&setups)),
            ("op_p50_ms", op_p50_ms),
            // One run is one equal-work block: every corpus point detected.
            ("points_per_s", n / (op_p50_ms / 1e3)),
            ("peak_rss_mb", peak_rss_mb),
            ("dist_evals_per_point", evals / n),
        ])
    }

    // ------------------------------------------------------------------
    // Serve: a `dod serve` child driven over stdin/stdout.
    // ------------------------------------------------------------------

    /// One pass over the score script; returns the sum of its round
    /// trips in ms and appends each to `score_ms`.
    fn read_block(
        &mut self,
        serve: &mut ServeChild,
        first_op: u64,
        score_ms: &mut Latencies,
    ) -> Result<f64, Error> {
        let script = &self.inp.script;
        let mut block = 0.0;
        for (op, (request, expected)) in
            (first_op..).zip(script.requests.iter().zip(&script.expected))
        {
            self.trace_this(op);
            let (elapsed, reply) = self.request(serve, "dod-cli.score", op, request)?;
            score_ms.push((elapsed, self.log.enabled));
            block += elapsed;
            self.check_scores(reply, expected, "score");
        }
        Ok(block)
    }

    /// Passes over the score script until `seconds` are up; the first
    /// pass is dropped.
    fn read_phase(&mut self, serve: &mut ServeChild, seconds: f64) -> Result<ReadPhase, Error> {
        let mut out = ReadPhase {
            score_ms: Latencies::new(),
            block_ms: Vec::new(),
        };
        let phase = Instant::now();
        while out.block_ms.len() < 3 || phase.elapsed().as_secs_f64() < seconds {
            let first_op = out.score_ms.len() as u64;
            let block = self.read_block(serve, first_op, &mut out.score_ms)?;
            out.block_ms.push(block);
        }
        out.score_ms.drain(..SCRIPT_REQUESTS);
        out.block_ms.remove(0);
        eprintln!(
            "{} timed score requests in {} blocks",
            out.score_ms.len(),
            out.block_ms.len()
        );
        Ok(out)
    }

    fn serve_end_to_end(
        &mut self,
        opts: &Options,
        dod: &Path,
    ) -> Result<Vec<(&'static str, f64)>, Error> {
        let (w, inp) = (self.w, self.inp);
        let args = w.serve_args();
        let mut setups = Vec::new();

        // Spawn → first `stats` reply, five times; the fourth child also
        // runs the count pass, the fifth the timed phase.
        for _ in 0..SETUP_REPEATS - 2 {
            let (serve, ready) = ServeChild::spawn(dod, &inp.csv, &args)?;
            setups.push(ready.as_secs_f64());
            serve.quit()?;
        }

        let (mut serve, ready) = ServeChild::spawn(dod, &inp.csv, &args)?;
        setups.push(ready.as_secs_f64());
        // The engine counts the distance work of `score` ops only (it has
        // no counter for what insert, remove and refresh do), so the
        // count is divided by scored points only.
        let scored = match w.kind {
            Kind::ServeChurn => {
                Churn::new(inp).phase(self, &mut serve, 0.0, Some(COUNT_CYCLES))?;
                COUNT_CYCLES * SCORE_BATCH
            }
            _ => {
                self.read_block(&mut serve, 0, &mut Latencies::new())?;
                SCRIPT_REQUESTS * SCORE_BATCH
            }
        };
        let (_, reply) = serve.request("{\"op\":\"metrics\"}")?;
        let work = wire::score_work(reply).ok_or("no score work counter in the metrics reply")?;
        serve.quit()?;

        let (mut serve, ready) = ServeChild::spawn(dod, &inp.csv, &args)?;
        setups.push(ready.as_secs_f64());
        let (op_p50_ms, points_per_s, swap_rss_mb, churned) = match w.kind {
            Kind::ServeChurn => {
                let mut churn = Churn::new(inp);
                let phase = churn.phase(self, &mut serve, opts.seconds, None)?;
                let swaps = phase.swap_rss_mb.len();
                if !opts.quick && swaps < MIN_REFRESHES {
                    return Err(format!(
                        "serve_churn saw {swaps} epoch swaps, needs {MIN_REFRESHES} to measure churn"
                    )
                    .into());
                }
                (
                    p50(&phase.score_ms),
                    churn_rate(&phase),
                    phase.swap_rss_mb,
                    Some(churn),
                )
            }
            _ => {
                let phase = self.read_phase(&mut serve, opts.seconds)?;
                let block_points = (SCRIPT_REQUESTS * SCORE_BATCH) as f64;
                let rate = block_points / (median(&phase.block_ms) / 1e3);
                (p50(&phase.score_ms), rate, Vec::new(), None)
            }
        };
        let (_, reply) = serve.request("{\"op\":\"stats\"}")?;
        let swaps = swap_rss_mb.len() as u64;
        self.checks
            .check(wire::field_u64(reply, "epoch") == Some(swaps), || {
                format!("expected {swaps} epoch swaps: {reply}")
            });
        let peak_rss_mb = match swap_rss_mb.first() {
            Some(mb) => *mb,
            None => env::peak_rss_mb(serve.pid())?,
        };
        let outliers =
            churned.map_or_else(|| inp.outliers.clone(), |churn| churn.oracle.outliers());
        self.check_detect(&mut serve, &outliers)?;
        serve.quit()?;

        Ok(vec![
            ("setup_s", median(&setups)),
            ("op_p50_ms", op_p50_ms),
            ("points_per_s", points_per_s),
            ("peak_rss_mb", peak_rss_mb),
            ("dist_evals_per_point", work as f64 / scored as f64),
        ])
    }

    // ------------------------------------------------------------------
    // Traced run: replay three quarters as long with spans on every
    // other op, then the per-layer ladder.
    // ------------------------------------------------------------------

    fn traced(
        &mut self,
        opts: &Options,
        build_dir: &Path,
        dod: &Path,
    ) -> Result<Vec<(&'static str, f64)>, Error> {
        let (w, inp) = (self.w, self.inp);
        let seconds = opts.seconds * 0.75;
        let mut replay = ladder::Replay::default();
        let root = self.log.enter("replay", 0);
        self.alternate = true;
        let lat = match w.kind {
            Kind::Batch => {
                let data = dod_data::io::read_csv(&inp.csv)?;
                let runner = w.runner(Obs::null(), true);
                self.batch_phase(&runner, &data, &inp.outliers, seconds)?.0
            }
            Kind::ServeRead => {
                let (mut serve, _) = ServeChild::spawn(dod, &inp.csv, &w.serve_args())?;
                let phase = self.read_phase(&mut serve, seconds)?;
                serve.quit()?;
                phase.score_ms
            }
            Kind::ServeChurn => {
                let (mut serve, _) = ServeChild::spawn(dod, &inp.csv, &w.serve_args())?;
                let mut churn = Churn::new(inp);
                let phase = churn.phase(self, &mut serve, seconds, None)?;
                self.check_detect(&mut serve, &churn.oracle.outliers())?;
                serve.quit()?;
                let rss = &phase.swap_rss_mb;
                replay = ladder::Replay {
                    inserts: phase.inserts,
                    spliced: phase.spliced,
                    refreshes: rss.len(),
                    rss_creep_mb: rss.last().map_or(0.0, |last| last - rss[0]),
                };
                phase.score_ms
            }
        };
        self.alternate = false;
        self.log.enabled = true;
        self.log.exit(root);

        let mut metrics = ladder::run(self, dod, opts.quick, &replay)?;
        let half = |traced: bool| {
            let v: Vec<f64> = lat
                .iter()
                .filter(|(_, t)| *t == traced)
                .map(|(ms, _)| *ms)
                .collect();
            median(&v)
        };
        metrics.push((
            "harness.trace_overhead_pct",
            (half(true) / half(false) - 1.0) * 100.0,
        ));
        metrics.push(("harness.spans", self.log.len() as f64));

        let dir = build_dir.join("dod-benchmark-traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-{}.jsonl", w.name, opts.seed));
        self.log.write_file(&path)?;
        eprintln!("{} spans written to {}", self.log.len(), path.display());
        Ok(metrics)
    }
}

struct ReadPhase {
    score_ms: Latencies,
    /// Sum of the round trips of each pass over the script.
    block_ms: Vec<f64>,
}

#[derive(Default)]
struct ChurnPhase {
    score_ms: Latencies,
    /// `(points handled, sum of round trips in ms)` between one epoch
    /// swap and the next, stall included; one swap per block makes the
    /// blocks equal work.
    blocks: Vec<(f64, f64)>,
    points: f64,
    wall_ms: f64,
    inserts: usize,
    /// Inserts absorbed without an epoch swap.
    spliced: usize,
    /// The child's peak memory (`VmHWM`) right after each epoch swap.
    swap_rss_mb: Vec<f64>,
}

/// The mutable state of one churned child, mirrored in an oracle.
struct Churn {
    oracle: Oracle,
    stream: Rng,
    /// Streamed batches still resident, oldest first.
    window: VecDeque<(Vec<u64>, Vec<f64>)>,
    next_id: u64,
    cycle: usize,
}

impl Churn {
    fn new(inp: &Inputs) -> Self {
        Churn {
            oracle: inp.oracle.clone(),
            stream: Rng::new(inp.stream_seed),
            window: VecDeque::new(),
            next_id: inp.points as u64,
            cycle: 0,
        }
    }

    /// `insert 256 → score 512 → remove the 256 oldest streamed ids`,
    /// each answer checked against the oracle before the next request.
    fn cycle(
        &mut self,
        s: &mut Session,
        serve: &mut ServeChild,
        out: &mut ChurnPhase,
    ) -> Result<(), Error> {
        let (shape, script) = (s.w.shape, &s.inp.script);
        let dim = shape.dim;
        let op = self.cycle as u64;
        s.trace_this(op);
        let traced = s.log.enabled;
        let cycle_span = s.log.enter("serve_churn.cycle", op);
        let mut cycle_points = 0;
        let mut cycle_ms = 0.0;
        let mut swapped = false;

        // insert
        let points = shape.stream(CHURN_BATCH, &mut self.stream);
        let request = wire::points_request("insert", &points, dim);
        let (elapsed, reply) = s.request(serve, "dod-cli.insert", op, &request)?;
        let ids: Vec<u64> = (self.next_id..self.next_id + CHURN_BATCH as u64).collect();
        self.next_id += CHURN_BATCH as u64;
        for (id, p) in ids.iter().zip(points.chunks_exact(dim)) {
            self.oracle.insert(*id, p);
        }
        let refreshed = wire::field_bool(reply, "refreshed");
        s.checks.check(
            wire::is_ok(reply)
                && wire::field_ids(reply, "ids").as_ref() == Some(&ids)
                && wire::field_u64(reply, "expired") == Some(0)
                && wire::field_u64(reply, "resident") == Some(self.oracle.len() as u64)
                && refreshed.is_some(),
            || format!("insert receipt of cycle {op}: {reply:.200}"),
        );
        out.inserts += 1;
        out.spliced += usize::from(refreshed != Some(true));
        swapped |= refreshed == Some(true);
        cycle_points += CHURN_BATCH;
        cycle_ms += elapsed;
        self.window.push_back((ids, points));

        // score
        let slot = self.cycle % SCRIPT_REQUESTS;
        let (elapsed, reply) = s.request(serve, "dod-cli.score", op, &script.requests[slot])?;
        out.score_ms.push((elapsed, traced));
        let expected = expected_scores(&self.oracle, &script.queries[slot], dim);
        s.check_scores(reply, &expected, "score");
        cycle_points += SCORE_BATCH;
        cycle_ms += elapsed;

        // remove
        if self.window.len() > STREAM_LAG {
            let (ids, points) = self.window.pop_front().expect("window is not empty");
            let request = wire::remove_request(&ids);
            let (elapsed, reply) = s.request(serve, "dod-cli.remove", op, &request)?;
            for (id, p) in ids.iter().zip(points.chunks_exact(dim)) {
                assert!(self.oracle.remove(*id, p), "oracle lost a streamed point");
            }
            let refreshed = wire::field_bool(reply, "refreshed");
            s.checks.check(
                wire::is_ok(reply)
                    && wire::field_u64(reply, "removed") == Some(CHURN_BATCH as u64)
                    && wire::field_u64(reply, "missing") == Some(0)
                    && wire::field_u64(reply, "resident") == Some(self.oracle.len() as u64)
                    && refreshed.is_some(),
                || format!("remove receipt of cycle {op}: {reply:.200}"),
            );
            swapped |= refreshed == Some(true);
            cycle_points += CHURN_BATCH;
            cycle_ms += elapsed;
        }
        s.log.exit(cycle_span);

        out.points += cycle_points as f64;
        out.wall_ms += cycle_ms;
        if out.blocks.is_empty() {
            out.blocks.push((0.0, 0.0));
        }
        let open = out.blocks.last_mut().expect("an open block");
        open.0 += cycle_points as f64;
        open.1 += cycle_ms;
        if swapped {
            out.swap_rss_mb.push(env::peak_rss_mb(serve.pid())?);
            out.blocks.push((0.0, 0.0));
        }
        self.cycle += 1;
        Ok(())
    }

    /// Cycles until `seconds` are up (or exactly `cycles`, for the count
    /// pass). Keeps only whole swap-to-swap blocks, without the first.
    fn phase(
        &mut self,
        s: &mut Session,
        serve: &mut ServeChild,
        seconds: f64,
        cycles: Option<usize>,
    ) -> Result<ChurnPhase, Error> {
        let mut out = ChurnPhase::default();
        let phase = Instant::now();
        let mut done = 0;
        while cycles.map_or(phase.elapsed().as_secs_f64() < seconds, |c| done < c) {
            self.cycle(s, serve, &mut out)?;
            done += 1;
        }
        out.blocks.pop(); // the block still open when time ran out
        if !out.blocks.is_empty() {
            out.blocks.remove(0);
        }
        eprintln!(
            "{done} cycles, {} epoch swaps, {} whole blocks",
            out.swap_rss_mb.len(),
            out.blocks.len()
        );
        Ok(out)
    }
}

/// What the oracle says a `score` request over `queries` must answer.
fn expected_scores(oracle: &Oracle, queries: &[f64], dim: usize) -> Vec<(usize, bool)> {
    queries.chunks_exact(dim).map(|q| oracle.score(q)).collect()
}

/// Points handled per second: the median over equal-work blocks, or the
/// whole phase when it was too short to hold two blocks.
fn churn_rate(phase: &ChurnPhase) -> f64 {
    if phase.blocks.len() < 2 {
        return phase.points / (phase.wall_ms / 1e3);
    }
    let rates: Vec<f64> = phase.blocks.iter().map(|(p, ms)| p / (ms / 1e3)).collect();
    median(&rates)
}

/// Runs one workload once and returns what it measured.
pub fn run(w: &Workload, opts: &Options) -> Result<Outcome, Error> {
    env::threads_note();
    let build_dir = env::build_dir()?;
    let dod = match (w.kind, opts.trace) {
        (Kind::Batch, false) => PathBuf::new(),
        _ => env::build_dod(&build_dir)?,
    };
    let inp = Inputs::new(w, opts, &build_dir)?;
    let mut session = Session {
        w,
        inp: &inp,
        log: SpanLog::new(opts.trace),
        alternate: false,
        checks: Checks::default(),
    };
    let metrics = match (opts.trace, w.kind) {
        (true, _) => session.traced(opts, &build_dir, &dod)?,
        (false, Kind::Batch) => session.batch_end_to_end(opts.seconds)?,
        (false, _) => session.serve_end_to_end(opts, &dod)?,
    };
    Ok(Outcome {
        attempted: session.checks.attempted,
        failed: session.checks.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_batch(plant_wrong_answer: bool) -> Outcome {
        let opts = Options {
            seed: 5,
            seconds: 0.0,
            trace: false,
            quick: true,
            plant_wrong_answer,
        };
        run(Workload::named("batch_skew2d").expect("a workload"), &opts).expect("quick run")
    }

    #[test]
    fn a_quick_batch_run_is_correct_until_a_wrong_answer_is_planted() {
        let honest = quick_batch(false);
        assert!(honest.correct() && honest.attempted >= 8);
        assert!(honest.to_json(&crate::report::end_to_end_names()).is_ok());
        assert!(honest.metrics.iter().all(|(_, value)| *value > 0.0));

        // One flipped verdict out of thousands: every compared outlier
        // set must now disagree.
        let planted = quick_batch(true);
        assert!(!planted.correct());
        assert_eq!(planted.failed, planted.attempted);
        assert!(planted
            .to_json(&crate::report::end_to_end_names())
            .is_ok_and(|line| line.starts_with("{\"correct\": false, ")));
    }

    #[test]
    fn churn_rate_is_the_median_block_or_the_whole_phase() {
        let mut phase = ChurnPhase {
            points: 3000.0,
            wall_ms: 1500.0,
            ..ChurnPhase::default()
        };
        assert_eq!(churn_rate(&phase), 2000.0);
        phase.blocks = vec![(1000.0, 500.0), (1000.0, 250.0), (1000.0, 1000.0)];
        assert_eq!(churn_rate(&phase), 2000.0);
    }
}
