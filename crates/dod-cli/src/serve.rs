//! The `dod serve` loop: a resident engine answering JSONL requests.
//!
//! One JSON object per input line, one JSON object per response line.
//! Every response carries the protocol version as its **first key**
//! (`"v":1`), so clients can dispatch on schema before reading anything
//! else. Response schemas, per op:
//!
//! ```text
//! > {"op": "score", "points": [[0.1, 0.2], [5.0, 5.0]]}
//! < {"v":1,"ok":true,"op":"score","results":[{"neighbors":4,"outlier":false}, …]}
//! > {"op": "detect"}
//! < {"v":1,"ok":true,"op":"detect","outliers":[3,17]}
//! > {"op": "insert", "points": [[0.3, 0.4]]}
//! < {"v":1,"ok":true,"op":"insert","ids":[41],"expired":0,"refreshed":false,"resident":42}
//! > {"op": "remove", "ids": [3, 99]}
//! < {"v":1,"ok":true,"op":"remove","removed":1,"missing":1,"refreshed":false,"resident":41}
//! > {"op": "window", "max_points": 1000}
//! < {"v":1,"ok":true,"op":"window","max_points":1000,"max_age_ms":null,
//!    "expired":0,"refreshed":false,"resident":41}
//! > {"op": "drift"}
//! < {"v":1,"ok":true,"op":"drift","drift":0.12,"epoch":0}
//! > {"op": "explain"}
//! < {"v":1,"ok":true,"op":"explain","epoch":0,
//!    "partitions":[{"partition":0,"winner":"cell-based","winner_cost":80,
//!      "margin":120,"n_est":10,"volume":0.25,"density_mu":1.5,
//!      "candidates":[{"algorithm":"cell-based","cost":80,
//!        "pair_ops":20,"structural_ops":20}, …]}]}
//! > {"op": "refresh"}
//! < {"v":1,"ok":true,"op":"refresh","epoch":1}
//! > {"op": "stats"}
//! < {"v":1,"ok":true,"op":"stats","partitions":64,"epoch":0,"in_flight":0,
//!    "workers":2,"panics":0,"requests":17,"points":41,"churn":2,
//!    "dlq_depth":0,"checkpoint_age_ms":null}
//! > {"op": "metrics"}
//! < {"v":1,"ok":true,"op":"metrics","metrics":"# HELP dod_engine_request_seconds …"}
//! > {"op": "quit"}
//! < {"v":1,"ok":true,"op":"quit"}
//! ```
//!
//! `insert` streams points into the resident dataset (ids are assigned
//! in order and returned); `remove` evicts by id; `window` configures
//! or ticks the sliding window — with no bound fields it just enforces
//! the current window, `max_points` / `max_age_ms` set a new bound
//! (absent or `null` means unbounded on that axis), and `"clear": true`
//! removes both. `expired` counts points the window evicted during the
//! op, and `refreshed` reports whether the op fell back to a full
//! epoch-swap rebuild (answers are exact either way).
//!
//! `explain` returns the resident plan's [`dod_partition::PlanReport`]:
//! per partition, every candidate algorithm with its predicted cost and
//! raw cost terms, the committed winner, and the winner's margin over
//! the runner-up — the same document `dod explain --json` prints for a
//! batch run. `epoch` tells clients which plan generation the report
//! describes.
//!
//! `stats` is the full [`dod_engine::EngineHealth`] snapshot; `workers`
//! is the threads one request or one epoch rebuild may use: a `score` of
//! at least [`dod_engine::FAN_OUT_MIN_QUERIES`] points is split between
//! the loop's thread and `workers - 1` helpers that start with the engine
//! and park between scores, and every other request runs on the loop's
//! own thread. `metrics`
//! returns the Prometheus text-format exposition (the same document the
//! optional `--metrics-addr` HTTP listener serves at `/metrics`) as one
//! JSON-escaped string. Non-finite numbers (`NaN`, `±Inf`) serialize as
//! `null` in every response — bare `NaN` is not valid JSON.
//!
//! With `--metrics-addr <host:port>` the server additionally answers
//! plain HTTP on that address: `GET /metrics` returns the exposition
//! document and `GET /healthz` returns the `stats` JSON body, both
//! backed by the same engine.
//!
//! Failures answer `{"v":1,"ok":false,"code":"…","error":"…"}` and keep
//! the loop alive; `quit` or end-of-input ends it. `code` is stable and
//! machine-readable:
//!
//! - `bad_request`: the line is not UTF-8, not JSON, or lacks or
//!   mistypes a field the op needs;
//! - `unknown_op`;
//! - `deadline`: the request ran past `--deadline-ms`;
//! - `dimension`: a point of a `score` or `insert` batch has another
//!   dimension than the resident dataset (`error` names the point's
//!   position in the batch, e.g. `point 1 has dimension 1, resident
//!   dataset has dimension 2`); nothing was scored or inserted;
//! - `extent`: an `insert` would widen the resident bounding box past
//!   what `f64` can span; nothing was inserted;
//! - `panic`, `pipeline`, `non_finite`: the engine's other error codes
//!   ([`EngineError::code`], the `error` label of the request's span);
//! - `engine`: `explain` found no resident plan;
//! - `internal`: the engine answered a request with another op's
//!   response kind, a server bug.
//!
//! `error` is human-readable prose and not part of the contract.
//! Requests are read token by token by the workspace's one JSON
//! tokenizer, [`dod_obs::json::Reader`], straight into the engine's
//! types — no [`dod_obs::json::Json`] tree is built — under the same
//! contract [`dod_obs::json::parse`] keeps: numbers follow the JSON
//! grammar and must be finite, so `1e999` is a `bad_request`, as is a
//! line nested deeper than [`dod_obs::json::MAX_DEPTH`]; a syntax error
//! anywhere in the line wins over a field error; and of duplicate keys
//! the first counts. Responses are written with the same module's
//! primitives; the `score`, `insert`, `remove` and `detect` replies
//! encode their integers and booleans into one reply buffer the loop
//! keeps, with no `fmt`.

use std::borrow::Cow;
use std::io::{BufRead, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use dod_engine::{Engine, EngineError, EngineHealth, Request, Response, WindowConfig};
use dod_obs::json::{self, ParseError, Reader, Token};
use dod_obs::prom::PromWriter;
use dod_obs::{FanoutRecorder, MetricsRecorder, Obs, Recorder, Session};

use crate::args::ServeArgs;

// ---------------------------------------------------------------------
// Request dispatch.
// ---------------------------------------------------------------------

/// A failed request: a stable machine-readable `code` plus prose.
struct ServeError {
    code: &'static str,
    msg: String,
}

impl ServeError {
    fn bad(msg: impl Into<String>) -> Self {
        ServeError {
            code: "bad_request",
            msg: msg.into(),
        }
    }
}

/// The payload of an engine response, or an `internal` error when the
/// engine answered the `op` request with another response kind.
fn answer<T>(payload: Option<T>, op: &str) -> Result<T, ServeError> {
    payload.ok_or_else(|| ServeError {
        code: "internal",
        msg: format!("the engine answered a \"{op}\" request with another response kind"),
    })
}

/// An engine error under its stable code ([`EngineError::code`]).
fn engine_error(e: EngineError) -> ServeError {
    ServeError {
        code: e.code(),
        msg: e.to_string(),
    }
}

fn error_line(e: &ServeError) -> String {
    format!(
        "{{\"v\":1,\"ok\":false,\"code\":\"{}\",\"error\":\"{}\"}}",
        e.code,
        json::escape(&e.msg)
    )
}

/// Everything a request handler needs: the engine plus the metrics
/// aggregator scraped by the `metrics` op and the HTTP listener.
#[derive(Clone)]
pub struct ServeContext {
    /// The resident engine.
    pub engine: Arc<Engine>,
    /// Aggregated counters and latency histograms across all requests.
    pub metrics: Arc<MetricsRecorder>,
}

/// Renders the `stats` / `/healthz` JSON body from a health snapshot.
fn health_json(h: &EngineHealth) -> String {
    format!(
        "{{\"v\":1,\"ok\":true,\"op\":\"stats\",\"partitions\":{},\"epoch\":{},\
         \"in_flight\":{},\"workers\":{},\"panics\":{},\"requests\":{},\
         \"points\":{},\"churn\":{},\"dlq_depth\":{},\"checkpoint_age_ms\":{}}}",
        h.partitions,
        h.epoch,
        h.in_flight,
        h.workers,
        h.panics,
        h.requests,
        h.points,
        h.churn,
        h.dlq_depth,
        match h.checkpoint_age_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_string(),
        }
    )
}

/// Renders the full Prometheus exposition document: every aggregated
/// series plus live engine-health gauges sampled at scrape time.
pub fn render_metrics(ctx: &ServeContext) -> String {
    let mut text = ctx.metrics.render_prometheus();
    let h = ctx.engine.health();
    let mut w = PromWriter::new();
    w.gauge(
        "dod_engine_partitions",
        "Resident partitions.",
        h.partitions as f64,
    );
    w.gauge("dod_engine_epoch", "Current plan epoch.", h.epoch as f64);
    w.gauge(
        "dod_engine_in_flight_now",
        "Requests being executed at scrape time.",
        h.in_flight as f64,
    );
    w.gauge(
        "dod_engine_workers",
        "Threads one request or one epoch rebuild may use.",
        h.workers as f64,
    );
    w.gauge(
        "dod_engine_panics",
        "Contained request panics so far.",
        h.panics as f64,
    );
    w.gauge(
        "dod_engine_requests",
        "Requests run so far.",
        h.requests as f64,
    );
    w.gauge(
        "dod_engine_points",
        "Resident (alive) points.",
        h.points as f64,
    );
    w.gauge(
        "dod_engine_churn",
        "Points inserted or removed since the last epoch swap.",
        h.churn as f64,
    );
    w.gauge(
        "dod_engine_dlq_depth",
        "Dead-letter entries across this engine's durable jobs.",
        h.dlq_depth as f64,
    );
    // Only meaningful once a durable write exists; absent otherwise so
    // alerting can distinguish "no checkpointing" from "age 0".
    if let Some(ms) = h.checkpoint_age_ms {
        w.gauge(
            "dod_engine_checkpoint_age_seconds",
            "Seconds since the newest checkpoint write across this engine's durable jobs.",
            ms as f64 / 1000.0,
        );
    }
    // Cost-audit state: cumulative calibration error per algorithm plus
    // mispredict totals, sampled at scrape time (the incremental
    // counters behind them flow through the recorder as
    // `engine.cost.*` families).
    let audit = ctx.engine.cost_audit();
    if !audit.per_algorithm.is_empty() {
        let ratio_labels: Vec<[(String, String); 1]> = audit
            .per_algorithm
            .iter()
            .map(|a| [("algorithm".to_string(), a.algorithm.name().to_string())])
            .collect();
        let ratios: Vec<(&[(String, String)], f64)> = audit
            .per_algorithm
            .iter()
            .zip(&ratio_labels)
            .map(|(a, labels)| (&labels[..], a.ratio()))
            .collect();
        w.gauge_series(
            "dod_engine_cost_calibration_ratio",
            "Cumulative measured-over-predicted cost ratio per algorithm (1.0 = exact model).",
            &ratios,
        );
    }
    w.gauge(
        "dod_engine_cost_audit_mispredicts",
        "Partition observations where a rejected plan candidate measured cheaper.",
        audit.mispredicts as f64,
    );
    w.gauge(
        "dod_engine_cost_audit_gross_mispredicts",
        "Mispredicted observations that crossed the gross threshold.",
        audit.gross_mispredicts as f64,
    );
    text.push_str(&w.finish());
    text
}

/// Renders a [`dod_partition::PlanReport`] body (everything after the
/// response envelope): the per-partition candidate table. Shared between the `explain` op here and the
/// `dod explain --json` subcommand so both emit the same schema.
pub fn plan_report_json(report: &dod_partition::PlanReport) -> String {
    let partitions: Vec<String> = report
        .partitions
        .iter()
        .map(|p| {
            let candidates: Vec<String> = p
                .candidates
                .iter()
                .map(|c| {
                    format!(
                        "{{\"algorithm\":\"{}\",\"cost\":{},\"pair_ops\":{},\
                         \"structural_ops\":{}}}",
                        c.algorithm.name(),
                        json::number(c.cost),
                        json::number(c.terms.pair_ops),
                        json::number(c.terms.structural_ops)
                    )
                })
                .collect();
            format!(
                "{{\"partition\":{},\"winner\":\"{}\",\"winner_cost\":{},\"margin\":{},\
                 \"n_est\":{},\"volume\":{},\"density_mu\":{},\"candidates\":[{}]}}",
                p.partition,
                p.winner.name(),
                json::number(p.winner_cost),
                json::number(p.margin),
                json::number(p.n_est),
                json::number(p.volume),
                json::number(p.density_mu),
                candidates.join(",")
            )
        })
        .collect();
    format!("\"partitions\":[{}]", partitions.join(","))
}

// ---------------------------------------------------------------------
// Request reading.
// ---------------------------------------------------------------------

/// A request line read into what its op needs.
#[derive(Debug)]
enum Op {
    /// An engine request: `score`, `detect`, `insert`, `remove`, `window`.
    Run(Request),
    Explain,
    Drift,
    Refresh,
    Stats,
    Metrics,
    Quit,
}

/// The first occurrence of a `points` or `ids` field.
enum List<T> {
    /// Not an array.
    NotArray,
    /// An array with an item of the wrong shape: the first such item's
    /// complaint.
    Bad(&'static str),
    /// Every item, read.
    Items(Vec<T>),
}

/// The first occurrence of a `max_points` or `max_age_ms` field.
#[derive(Clone, Copy)]
enum Count {
    /// `null`.
    Unset,
    /// A non-negative integer.
    Set(u64),
    /// Anything else.
    Wrong,
}

/// Every field of a request line that some op reads, each as its first
/// occurrence left it — a later duplicate is read for syntax only, as
/// [`Json::get`](dod_obs::json::Json::get) takes the first match — and
/// `None` where the line has none. A line that is not an object has no
/// fields.
#[derive(Default)]
struct Fields<'a> {
    /// `Some(None)` when the first `op` is not a string.
    op: Option<Option<Cow<'a, str>>>,
    points: Option<List<Vec<f64>>>,
    ids: Option<List<u64>>,
    max_points: Option<Count>,
    max_age_ms: Option<Count>,
    /// Whether the first `clear` is `true`.
    clear: Option<bool>,
}

const BAD_POINT: &str = "each point must be an array of numbers";
const BAD_COORDINATE: &str = "each coordinate must be a number";
const BAD_ID: &str = "each id must be a non-negative integer";

impl<'a> Fields<'a> {
    /// Reads one request line with the shared JSON [`Reader`], straight
    /// into the engine's types: no [`Json`](dod_obs::json::Json) tree is
    /// built. Any syntax error in the line wins over what its fields
    /// hold.
    fn read(line: &'a str) -> Result<Fields<'a>, ParseError> {
        let mut r = Reader::new(line);
        let mut fields = Fields::default();
        let first = r.next_token()?;
        if first != Token::ObjStart {
            r.skip(&first)?;
            r.finish()?;
            return Ok(fields);
        }
        loop {
            let key = match r.next_token()? {
                Token::ObjEnd => break,
                Token::Key(key) => key,
                other => unreachable!("an object holds keys, not {other:?}"),
            };
            let value = r.next_token()?;
            match &*key {
                "op" if fields.op.is_none() => {
                    fields.op = Some(match value {
                        Token::Str(op) => Some(op),
                        other => {
                            r.skip(&other)?;
                            None
                        }
                    });
                }
                "points" if fields.points.is_none() => {
                    fields.points = Some(read_list(&mut r, value, read_point)?);
                }
                "ids" if fields.ids.is_none() => {
                    fields.ids = Some(read_list(&mut r, value, |r, id| match id {
                        Token::Num(n) => Ok(n.as_u64().ok_or(BAD_ID)),
                        other => r.skip(&other).map(|()| Err(BAD_ID)),
                    })?);
                }
                "max_points" if fields.max_points.is_none() => {
                    fields.max_points = Some(read_count(&mut r, value)?);
                }
                "max_age_ms" if fields.max_age_ms.is_none() => {
                    fields.max_age_ms = Some(read_count(&mut r, value)?);
                }
                "clear" if fields.clear.is_none() => {
                    fields.clear = Some(value == Token::Bool(true));
                    r.skip(&value)?;
                }
                _ => r.skip(&value)?,
            }
        }
        r.finish()?;
        Ok(fields)
    }

    /// The `points` an op needs.
    fn points(&mut self, op: &str) -> Result<Vec<Vec<f64>>, ServeError> {
        match self.points.take() {
            Some(List::Items(points)) => Ok(points),
            Some(List::Bad(msg)) => Err(ServeError::bad(msg)),
            None | Some(List::NotArray) => Err(ServeError::bad(format!(
                "\"{op}\" needs a \"points\" array"
            ))),
        }
    }

    /// What the line asks for, or the error its fields earn for its op.
    fn into_op(mut self) -> Result<Op, ServeError> {
        let Some(Some(op)) = self.op.take() else {
            return Err(ServeError::bad("request needs a string \"op\" field"));
        };
        Ok(match &*op {
            "score" => Op::Run(Request::Score {
                points: self.points("score")?,
            }),
            "detect" => Op::Run(Request::Detect),
            "insert" => Op::Run(Request::Insert {
                points: self.points("insert")?,
            }),
            "remove" => Op::Run(Request::Remove {
                ids: match self.ids {
                    Some(List::Items(ids)) => ids,
                    Some(List::Bad(msg)) => return Err(ServeError::bad(msg)),
                    None | Some(List::NotArray) => {
                        return Err(ServeError::bad("\"remove\" needs an \"ids\" array"))
                    }
                },
            }),
            "window" => {
                let count = |field: Option<Count>, key: &str| match field {
                    None | Some(Count::Unset) => Ok(None),
                    Some(Count::Set(v)) => Ok(Some(v)),
                    Some(Count::Wrong) => Err(ServeError::bad(format!(
                        "\"{key}\" must be a non-negative integer"
                    ))),
                };
                let max_points = count(self.max_points, "max_points")?;
                let max_age_ms = count(self.max_age_ms, "max_age_ms")?;
                let config = if self.clear == Some(true) {
                    Some(WindowConfig::default()) // unbounded = cleared
                } else if max_points.is_some() || max_age_ms.is_some() {
                    let max_points = max_points.map(usize::try_from).transpose().map_err(|_| {
                        ServeError::bad("\"max_points\" does not fit this platform's usize")
                    })?;
                    Some(WindowConfig {
                        max_points,
                        max_age: max_age_ms.map(Duration::from_millis),
                    })
                } else {
                    None // just a tick: enforce the current window
                };
                Op::Run(Request::Window { config })
            }
            "explain" => Op::Explain,
            "drift" => Op::Drift,
            "refresh" => Op::Refresh,
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "quit" => Op::Quit,
            other => {
                return Err(ServeError {
                    code: "unknown_op",
                    msg: format!("unknown op {other:?}"),
                })
            }
        })
    }
}

/// Reads the array that begins with `first`, each item by `item`, which
/// answers `Err(complaint)` for an item of the wrong shape once it has
/// read past it. Items after the first bad one are read for syntax only.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    first: Token<'a>,
    mut item: impl FnMut(&mut Reader<'a>, Token<'a>) -> Result<Result<T, &'static str>, ParseError>,
) -> Result<List<T>, ParseError> {
    if first != Token::ArrStart {
        r.skip(&first)?;
        return Ok(List::NotArray);
    }
    let mut items = Vec::new();
    let mut bad = None;
    loop {
        let token = r.next_token()?;
        if token == Token::ArrEnd {
            break;
        }
        if bad.is_some() {
            r.skip(&token)?;
            continue;
        }
        match item(r, token)? {
            Ok(v) => items.push(v),
            Err(complaint) => bad = Some(complaint),
        }
    }
    Ok(match bad {
        Some(complaint) => List::Bad(complaint),
        None => List::Items(items),
    })
}

/// One point of a `points` array: an array of numbers.
fn read_point<'a>(
    r: &mut Reader<'a>,
    first: Token<'a>,
) -> Result<Result<Vec<f64>, &'static str>, ParseError> {
    if first != Token::ArrStart {
        r.skip(&first)?;
        return Ok(Err(BAD_POINT));
    }
    let mut point = Vec::with_capacity(4);
    let mut numbers = true;
    loop {
        match r.next_token()? {
            Token::ArrEnd => break,
            Token::Num(n) => point.push(n.as_f64()),
            other => {
                numbers = false;
                r.skip(&other)?;
            }
        }
    }
    Ok(if numbers {
        Ok(point)
    } else {
        Err(BAD_COORDINATE)
    })
}

/// A `max_points` or `max_age_ms` value.
fn read_count<'a>(r: &mut Reader<'a>, value: Token<'a>) -> Result<Count, ParseError> {
    Ok(match value {
        Token::Null => Count::Unset,
        Token::Num(n) => n.as_u64().map_or(Count::Wrong, Count::Set),
        other => {
            r.skip(&other)?;
            Count::Wrong
        }
    })
}

/// Reads one request line: its syntax, then its fields for its op.
fn read_request(line: &str) -> Result<Op, ServeError> {
    Fields::read(line)
        .map_err(|e| ServeError::bad(format!("bad request: {e}")))?
        .into_op()
}

// ---------------------------------------------------------------------
// Replies.
// ---------------------------------------------------------------------

/// Runs one engine request on the loop's thread.
fn run_request(engine: &Engine, req: Request) -> Result<Response, ServeError> {
    engine.execute(req).map_err(engine_error)
}

/// Appends `ids` as a JSON array.
fn push_ids(out: &mut String, ids: &[u64]) {
    out.push('[');
    for (i, &id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_u64(out, id);
    }
    out.push(']');
}

/// Appends `,"key":true` or `,"key":false`.
fn push_flag(out: &mut String, key: &str, v: bool) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str(if v { "\":true" } else { "\":false" });
}

/// Appends `,"key":` and `v`.
fn push_count(out: &mut String, key: &str, v: usize) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    json::push_u64(out, v as u64);
}

/// Answers one request into `out` (empty on entry). The replies of the
/// ops a client sends by the thousand — `score`, `insert`, `remove`,
/// `detect` — are encoded straight into it, with no `fmt`.
fn respond(ctx: &ServeContext, op: Op, out: &mut String) -> Result<(), ServeError> {
    let engine = &*ctx.engine;
    match op {
        Op::Run(req @ Request::Score { .. }) => {
            let scores = answer(run_request(engine, req)?.into_score(), "score")?;
            // ~34 bytes per result.
            out.reserve(48 + 36 * scores.len());
            out.push_str("{\"v\":1,\"ok\":true,\"op\":\"score\",\"results\":[");
            for (i, s) in scores.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"neighbors\":");
                json::push_u64(out, s.neighbors as u64);
                push_flag(out, "outlier", s.outlier);
                out.push('}');
            }
            out.push_str("]}");
        }
        Op::Run(Request::Detect) => {
            let outliers = answer(
                run_request(engine, Request::Detect)?.into_outliers(),
                "detect",
            )?;
            out.push_str("{\"v\":1,\"ok\":true,\"op\":\"detect\",\"outliers\":");
            push_ids(out, &outliers);
            out.push('}');
        }
        Op::Run(req @ Request::Insert { .. }) => {
            let receipt = answer(run_request(engine, req)?.into_insert(), "insert")?;
            out.push_str("{\"v\":1,\"ok\":true,\"op\":\"insert\",\"ids\":");
            push_ids(out, &receipt.ids);
            push_count(out, "expired", receipt.expired);
            push_flag(out, "refreshed", receipt.refreshed);
            push_count(out, "resident", receipt.resident);
            out.push('}');
        }
        Op::Run(req @ Request::Remove { .. }) => {
            let receipt = answer(run_request(engine, req)?.into_remove(), "remove")?;
            out.push_str("{\"v\":1,\"ok\":true,\"op\":\"remove\"");
            push_count(out, "removed", receipt.removed);
            push_count(out, "missing", receipt.missing);
            push_flag(out, "refreshed", receipt.refreshed);
            push_count(out, "resident", receipt.resident);
            out.push('}');
        }
        Op::Run(req @ Request::Window { .. }) => {
            let status = answer(run_request(engine, req)?.into_window(), "window")?;
            let points = status
                .window
                .max_points
                .map_or("null".to_string(), |n| n.to_string());
            let age = status
                .window
                .max_age
                .map_or("null".to_string(), |d| d.as_millis().to_string());
            out.push_str(&format!(
                "{{\"v\":1,\"ok\":true,\"op\":\"window\",\"max_points\":{},\"max_age_ms\":{},\
                 \"expired\":{},\"refreshed\":{},\"resident\":{}}}",
                points, age, status.expired, status.refreshed, status.resident
            ));
        }
        Op::Explain => {
            let Some(report) = engine.plan_report() else {
                return Err(ServeError {
                    code: "engine",
                    msg: "no resident plan to explain".into(),
                });
            };
            out.push_str(&format!(
                "{{\"v\":1,\"ok\":true,\"op\":\"explain\",\"epoch\":{},{}}}",
                engine.epoch(),
                plan_report_json(&report)
            ));
        }
        Op::Drift => out.push_str(&format!(
            "{{\"v\":1,\"ok\":true,\"op\":\"drift\",\"drift\":{},\"epoch\":{}}}",
            json::number(engine.drift()),
            engine.epoch()
        )),
        Op::Refresh => {
            let epoch = engine.refresh_plan().map_err(engine_error)?;
            out.push_str(&format!(
                "{{\"v\":1,\"ok\":true,\"op\":\"refresh\",\"epoch\":{epoch}}}"
            ));
        }
        Op::Stats => out.push_str(&health_json(&engine.health())),
        Op::Metrics => out.push_str(&format!(
            "{{\"v\":1,\"ok\":true,\"op\":\"metrics\",\"metrics\":\"{}\"}}",
            json::escape(&render_metrics(ctx))
        )),
        Op::Quit => out.push_str("{\"v\":1,\"ok\":true,\"op\":\"quit\"}"),
    }
    Ok(())
}

/// Runs the serve loop over arbitrary input/output streams (stdin and
/// stdout in production, buffers in tests).
///
/// Lines are read as bytes, so a line that is not UTF-8 answers
/// `bad_request` like any other malformed line instead of ending the
/// loop; only a failed read or write does.
pub fn serve_streams(
    ctx: &ServeContext,
    mut input: impl BufRead,
    mut output: impl Write,
) -> Result<(), String> {
    let mut bytes = Vec::new();
    // One reply buffer for the whole session.
    let mut reply = String::new();
    loop {
        bytes.clear();
        let read = input
            .read_until(b'\n', &mut bytes)
            .map_err(|e| format!("reading request: {e}"))?;
        if read == 0 {
            break;
        }
        let line = bytes.strip_suffix(b"\n").unwrap_or(&bytes);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let op = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => read_request(line),
            Err(e) => Err(ServeError::bad(format!("bad request: not UTF-8: {e}"))),
        };
        let quit = matches!(op, Ok(Op::Quit));
        reply.clear();
        if let Err(e) = op.and_then(|op| respond(ctx, op, &mut reply)) {
            reply.clear();
            reply.push_str(&error_line(&e));
        }
        // The line and its terminator leave in one write: a reader woken
        // by the body alone would find no newline and go back to sleep.
        reply.push('\n');
        output
            .write_all(reply.as_bytes())
            .and_then(|()| output.flush())
            .map_err(|e| e.to_string())?;
        if quit {
            break;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// HTTP exposition listener.
// ---------------------------------------------------------------------

/// How long the metrics listener waits on one read or write of a
/// connection before dropping it unanswered. The listener answers one
/// connection at a time, so without this a client that connects and
/// sends nothing would stall every later scrape.
const HTTP_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// Answers one HTTP connection: `GET /metrics` with the exposition
/// document, `GET /healthz` with the health JSON, 404 otherwise. The
/// protocol is deliberately minimal (HTTP/1.0, connection-per-request)
/// — enough for `curl` and any Prometheus-compatible scraper. A failed
/// read, a timed-out one included, drops the connection unanswered.
fn answer_http(ctx: &ServeContext, stream: &mut (impl Read + Write)) {
    // Read until the header-terminating blank line (or a size cap) —
    // the request may arrive split across several TCP segments.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 4096 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
    }
    let request_line = std::str::from_utf8(&buf)
        .ok()
        .and_then(|s| s.lines().next())
        .unwrap_or("");
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", render_metrics(ctx)),
        "/healthz" => (
            "200 OK",
            "application/json",
            health_json(&ctx.engine.health()),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Binds `addr` and serves `/metrics` and `/healthz` from a detached
/// thread for the lifetime of the process. Returns the bound address
/// (useful when `addr` asks for port 0).
pub fn spawn_metrics_listener(
    addr: &str,
    ctx: ServeContext,
) -> Result<std::net::SocketAddr, String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("binding metrics address {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::Builder::new()
        .name("dod-metrics".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let timeouts = stream
                    .set_read_timeout(Some(HTTP_IO_TIMEOUT))
                    .and_then(|()| stream.set_write_timeout(Some(HTTP_IO_TIMEOUT)));
                if timeouts.is_ok() {
                    answer_http(&ctx, &mut stream);
                }
            }
        })
        .map_err(|e| format!("spawning metrics listener: {e}"))?;
    Ok(bound)
}

/// Builds the engine for a parsed `serve` invocation and runs the loop
/// over stdin/stdout.
pub fn serve(args: &ServeArgs) -> Result<(), String> {
    let data = dod_data::io::read_csv(std::path::Path::new(&args.run.input))
        .map_err(|e| format!("reading {}: {e}", args.run.input))?;
    // `--profile` is refused at parse time, so there is no memory
    // recorder to keep a copy of every event.
    let user_obs = Session::open(args.run.trace.as_deref(), false)?.obs();
    // The metrics aggregator sees every event the user's sinks see.
    let metrics = Arc::new(MetricsRecorder::new());
    let mut sinks: Vec<Box<dyn Recorder>> = vec![Box::new(Arc::clone(&metrics))];
    if let Some(user) = user_obs.recorder() {
        sinks.push(Box::new(user));
    }
    let obs = Obs::new(Arc::new(FanoutRecorder::new(sinks)));
    let runner = crate::build_runner(&args.run, obs)?;
    let mut builder = Engine::builder(runner).workers(args.workers);
    if let Some(ms) = args.deadline_ms {
        builder = builder.default_deadline(Duration::from_millis(ms));
    }
    if args.window_points.is_some() || args.window_age_ms.is_some() {
        builder = builder.window(WindowConfig {
            max_points: args.window_points,
            max_age: args.window_age_ms.map(Duration::from_millis),
        });
    }
    let (n, dim) = (data.len(), data.dim());
    // The engine takes the set over; the CLI keeps no copy of its own.
    let engine = builder.build(data).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {n} points ({dim}-d) across {} partitions; one JSON request per line",
        engine.num_partitions()
    );
    let ctx = ServeContext {
        engine: Arc::new(engine),
        metrics,
    };
    if let Some(addr) = &args.metrics_addr {
        let bound = spawn_metrics_listener(addr, ctx.clone())?;
        eprintln!("metrics: http://{bound}/metrics  health: http://{bound}/healthz");
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_streams(&ctx, stdin.lock(), stdout.lock())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse_command, Command};
    use dod_core::PointSet;
    use dod_obs::json::{Json, MAX_DEPTH};

    /// The request grammar, through the shared reader and this module's
    /// layer on top: integer and exponent tokens are coordinates too.
    #[test]
    fn json_parser_round_trips_the_request_grammar() {
        let line = r#"{"op": "score", "points": [[0.5, -1e2], [3, 4.25]]}"#;
        let Ok(Op::Run(Request::Score { points })) = read_request(line) else {
            panic!("a score request");
        };
        assert_eq!(points, vec![vec![0.5, -100.0], vec![3.0, 4.25]]);
    }

    /// The request reader as it was before it read tokens: `json::parse`'s
    /// tree, then `Json::get` per field and a copy of the points. Kept as
    /// the oracle `read_request` is held to.
    fn read_request_tree(line: &str) -> Result<Op, ServeError> {
        let request =
            json::parse(line).map_err(|e| ServeError::bad(format!("bad request: {e}")))?;
        let op = match request.get("op") {
            Some(Json::Str(op)) => op.as_str(),
            _ => return Err(ServeError::bad("request needs a string \"op\" field")),
        };
        Ok(match op {
            "score" => Op::Run(Request::Score {
                points: parse_points(&request, "score")?,
            }),
            "detect" => Op::Run(Request::Detect),
            "insert" => Op::Run(Request::Insert {
                points: parse_points(&request, "insert")?,
            }),
            "remove" => {
                let Some(Json::Arr(raw)) = request.get("ids") else {
                    return Err(ServeError::bad("\"remove\" needs an \"ids\" array"));
                };
                let ids = raw
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Option<Vec<u64>>>()
                    .ok_or_else(|| ServeError::bad("each id must be a non-negative integer"))?;
                Op::Run(Request::Remove { ids })
            }
            "window" => {
                let clear = matches!(request.get("clear"), Some(Json::Bool(true)));
                let max_points = parse_count(&request, "max_points")?;
                let max_age_ms = parse_count(&request, "max_age_ms")?;
                let config = if clear {
                    Some(WindowConfig::default())
                } else if max_points.is_some() || max_age_ms.is_some() {
                    let max_points = max_points.map(usize::try_from).transpose().map_err(|_| {
                        ServeError::bad("\"max_points\" does not fit this platform's usize")
                    })?;
                    Some(WindowConfig {
                        max_points,
                        max_age: max_age_ms.map(Duration::from_millis),
                    })
                } else {
                    None
                };
                Op::Run(Request::Window { config })
            }
            "explain" => Op::Explain,
            "drift" => Op::Drift,
            "refresh" => Op::Refresh,
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "quit" => Op::Quit,
            other => {
                return Err(ServeError {
                    code: "unknown_op",
                    msg: format!("unknown op {other:?}"),
                })
            }
        })
    }

    /// Extracts a `"points": [[…], …]` field as coordinate rows.
    fn parse_points(request: &Json, op: &str) -> Result<Vec<Vec<f64>>, ServeError> {
        let Some(Json::Arr(rows)) = request.get("points") else {
            return Err(ServeError::bad(format!(
                "\"{op}\" needs a \"points\" array"
            )));
        };
        let mut points = Vec::with_capacity(rows.len());
        for row in rows {
            let Json::Arr(coords) = row else {
                return Err(ServeError::bad("each point must be an array of numbers"));
            };
            let mut point = Vec::with_capacity(coords.len());
            for c in coords {
                let Some(v) = c.as_f64() else {
                    return Err(ServeError::bad("each coordinate must be a number"));
                };
                point.push(v);
            }
            points.push(point);
        }
        Ok(points)
    }

    /// Extracts an optional non-negative integer field (absent or `null`
    /// both mean "not set").
    fn parse_count(request: &Json, key: &str) -> Result<Option<u64>, ServeError> {
        match request.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                ServeError::bad(format!("\"{key}\" must be a non-negative integer"))
            }),
        }
    }

    /// What a read made of a line: the request with coordinates as bits,
    /// or the error reply's bytes.
    fn read_outcome(read: Result<Op, ServeError>) -> String {
        let bits = |points: &[Vec<f64>]| -> Vec<Vec<u64>> {
            points
                .iter()
                .map(|p| p.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        match read {
            Err(e) => error_line(&e),
            Ok(Op::Run(Request::Score { points })) => format!("score {:?}", bits(&points)),
            Ok(Op::Run(Request::Insert { points })) => format!("insert {:?}", bits(&points)),
            Ok(other) => format!("{other:?}"),
        }
    }

    /// Every single-edit mutant of `sample` (at each offset: a bit
    /// flipped, the high bit flipped, the byte deleted, the line truncated,
    /// eight bytes duplicated), blank ones dropped.
    fn mutants(sample: &str) -> Vec<String> {
        let sample = sample.as_bytes();
        (0..sample.len())
            .flat_map(|at| {
                let (head, tail) = (&sample[..at], &sample[at + 1..]);
                let again = &sample[at..sample.len().min(at + 8)];
                [
                    [head, &[sample[at] ^ 1], tail].concat(),
                    [head, &[sample[at] ^ 0x80], tail].concat(),
                    [head, tail].concat(),
                    head.to_vec(),
                    [head, again, &sample[at..]].concat(),
                ]
            })
            .map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
            // Blank lines get no reply by design.
            .filter(|line| !line.trim().is_empty())
            .collect()
    }

    /// The token reader gives every line of the corpus the request the
    /// tree path gives it, coordinates bit for bit, or the same error
    /// reply byte for byte: mutants of each op's request, numbers on and
    /// off the decimal fast path, key order, duplicate and unknown keys,
    /// whitespace, nesting at the bound, and syntax errors after field
    /// errors.
    #[test]
    fn the_token_reader_matches_the_tree_reader() {
        let samples = [
            r#"{"op": "score", "points": [[0.5, -1e2], [3, 4.25]], "note": "a\"b é"}"#,
            r#"{"op":"insert","points":[[12.345678,-0.000001],[7,8]]}"#,
            r#"{"op": "remove", "ids": [3, 99, 0]}"#,
            r#"{"op": "window", "max_points": 10, "max_age_ms": null, "clear": false}"#,
            r#"{"op":"detect","x":{"y":[true,null]}}"#,
        ];
        let mut corpus: Vec<String> = samples.iter().flat_map(|s| mutants(s)).collect();
        let numbers = [
            "123.456789",
            "-0.000001",
            "999999.999999",
            "123456789012345",
            "1234567890.12345",
            "1234567890123456",
            "0.1234567890123456",
            "12345678901234567",
            "1.2345678901234567",
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
            "1234567890123456789012",
            "1e5",
            "-2.5E-3",
            "1E+2",
            "-0",
            "-0.0",
            "0",
            "1e308",
            "1e309",
            "-1e309",
            "5e-324",
            "1.7976931348623157e308",
            "0.000000000000000001",
        ];
        for a in numbers {
            for b in ["0.5", a] {
                corpus.push(format!("{{\"op\":\"score\",\"points\":[[{a},{b}]]}}"));
                corpus.push(format!("{{\"op\":\"remove\",\"ids\":[{a}]}}"));
                corpus.push(format!("{{\"op\":\"window\",\"max_points\":{a}}}"));
            }
        }
        let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        corpus.extend([
            // Whitespace between every token, and reordered keys.
            " {\t\"points\" :\r[ [ 1.5 , 2 ] ,[3,4] ] , \"op\" : \"score\" } ".to_string(),
            r#"{"points":[[1,2]],"op":"insert"}"#.to_string(),
            r#"{"ids":[1,2],"op":"remove","points":"ignored"}"#.to_string(),
            // Duplicate keys: the first occurrence counts.
            r#"{"op":"score","op":"detect","points":[[1,2]]}"#.to_string(),
            r#"{"op":"score","points":[[1,2]],"points":"not an array"}"#.to_string(),
            r#"{"op":"score","points":"not an array","points":[[1,2]]}"#.to_string(),
            r#"{"op":7,"op":"stats"}"#.to_string(),
            r#"{"op":"window","clear":false,"clear":true,"max_points":3}"#.to_string(),
            r#"{"op":"window","max_points":null,"max_points":-1}"#.to_string(),
            r#"{"op":"window","max_age_ms":[1],"max_points":1.5}"#.to_string(),
            r#"{"op":"remove","ids":[1,"2"],"ids":[3]}"#.to_string(),
            // Unknown keys of every shape.
            r#"{"op":"stats","a":{"b":[1,{"c":"d"}]},"e":"\u00e9\ud83d\ude00"}"#.to_string(),
            // Points of the wrong shape, first offence in document order.
            r#"{"op":"score","points":[[1,2],3,[4,"x"]]}"#.to_string(),
            r#"{"op":"score","points":[[1,[2]],{"a":1}]}"#.to_string(),
            r#"{"op":"insert","points":[[],[1,2]]}"#.to_string(),
            r#"{"op":"score","points":[]}"#.to_string(),
            // Not an object at all.
            "[1,2]".to_string(),
            "\"op\"".to_string(),
            "null".to_string(),
            // Nesting at the bound and one past it, in an unknown key and
            // inside the points.
            format!(r#"{{"op":"stats","x":{}}}"#, deep(MAX_DEPTH - 1)),
            format!(r#"{{"op":"stats","x":{}}}"#, deep(MAX_DEPTH)),
            format!(r#"{{"op":"score","points":{}}}"#, deep(MAX_DEPTH - 1)),
            format!(r#"{{"op":"score","points":{}}}"#, deep(MAX_DEPTH)),
            // A syntax error after a field error: the syntax error wins.
            r#"{"op":"score","points":[["a"]],"x": }"#.to_string(),
            r#"{"op":"remove","ids":[-1] "y":1}"#.to_string(),
            r#"{"op":"window","max_points":1.5,"z":01}"#.to_string(),
            r#"{"op":"nope","x":[1,}"#.to_string(),
            r#"{"points":5,"op":"insert"} trailing"#.to_string(),
        ]);
        for line in &corpus {
            assert_eq!(
                read_outcome(read_request(line)),
                read_outcome(read_request_tree(line)),
                "{line}"
            );
        }
        // The corpus reaches both kinds of outcome.
        let ok = corpus.iter().filter(|l| read_request(l).is_ok()).count();
        assert!(
            ok > 100 && ok < corpus.len() - 100,
            "{ok} of {}",
            corpus.len()
        );
    }

    /// Escapes reach dispatch decoded, and every kind of malformed line —
    /// truncated, trailing bytes, nested past the reader's bound — answers
    /// `bad_request` and leaves the loop serving.
    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        let deep = "[".repeat(100_000);
        let responses = session(&format!(
            "{{\"op\": \"st\\u0061ts\"}}\n{{\"a\": }}\n[1, 2\n{{}} trailing\n{deep}\n{{\"op\": \"stats\"}}\n"
        ));
        assert_eq!(responses.len(), 6);
        for served in [&responses[0], &responses[5]] {
            assert!(served.contains("\"op\":\"stats\""), "{served}");
        }
        for bad in &responses[1..5] {
            assert!(bad.contains("\"code\":\"bad_request\""), "{bad}");
        }
    }

    /// Every single-edit mutant of a request line (at each offset: a bit
    /// flipped, the byte deleted, the line truncated, eight bytes
    /// duplicated) gets exactly one reply — the answer or a coded error,
    /// `bad_request` whenever the reader refused the line — and the loop
    /// is still serving after the last.
    #[test]
    fn mutated_requests_get_one_coded_reply_each() {
        let mutants =
            mutants(r#"{"op": "score", "points": [[0.5, -1e2], [3, 4.25]], "note": "a\"b é"}"#);
        let responses = session(&format!("{}\n{{\"op\": \"stats\"}}\n", mutants.join("\n")));
        assert_eq!(responses.len(), mutants.len() + 1);
        let mut refused = 0;
        for (line, reply) in mutants.iter().zip(&responses) {
            if json::parse(line).is_err() {
                refused += 1;
                assert!(
                    reply.contains("\"ok\":false,\"code\":\"bad_request\""),
                    "{line} -> {reply}"
                );
            } else {
                assert!(
                    reply.starts_with("{\"v\":1,\"ok\":true,\"op\":\"score\"")
                        || reply.starts_with("{\"v\":1,\"ok\":false,\"code\":\""),
                    "{line} -> {reply}"
                );
            }
        }
        assert!(
            refused > mutants.len() / 2 && refused < mutants.len(),
            "{refused}"
        );
        assert!(responses[mutants.len()].contains("\"op\":\"stats\""));
    }

    fn serve_args(input: &str) -> ServeArgs {
        let cmd = parse_command(
            &[
                "serve",
                "--input",
                input,
                "--r",
                "0.75",
                "--k",
                "4",
                "--sample-rate",
                "1.0",
                "--workers",
                "1",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        match cmd {
            Command::Serve(s) => s,
            _ => panic!("expected serve"),
        }
    }

    /// Builds a small resident engine (cluster + one isolated point)
    /// plus the metrics context, over a temp CSV.
    fn test_context() -> (ServeContext, std::path::PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "dod-serve-test-{}-{:?}.csv",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut pts: Vec<(f64, f64)> = (0..40)
            .map(|i| ((i % 8) as f64 * 0.2, (i / 8) as f64 * 0.2))
            .collect();
        pts.push((50.0, 50.0));
        dod_data::io::write_csv(&path, &PointSet::from_xy(&pts)).unwrap();
        let args = serve_args(&path.to_string_lossy());

        let data = dod_data::io::read_csv(&path).unwrap();
        let metrics = Arc::new(MetricsRecorder::new());
        let obs = Obs::new(Arc::clone(&metrics) as Arc<dyn Recorder>);
        let runner = crate::build_runner(&args.run, obs).unwrap();
        let engine = Engine::builder(runner)
            .workers(args.workers)
            .build(&data)
            .unwrap();
        let ctx = ServeContext {
            engine: Arc::new(engine),
            metrics,
        };
        (ctx, path)
    }

    fn session(requests: &str) -> Vec<String> {
        session_bytes(requests.as_bytes())
    }

    fn session_bytes(requests: &[u8]) -> Vec<String> {
        let (ctx, path) = test_context();
        let mut out = Vec::new();
        serve_streams(&ctx, requests, &mut out).unwrap();
        std::fs::remove_file(&path).ok();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    }

    #[test]
    fn full_session_over_buffers() {
        let responses = session(concat!(
            "{\"op\": \"stats\"}\n",
            "\n", // blank lines are skipped
            "{\"op\": \"score\", \"points\": [[0.7, 0.7], [200.0, 0.0]]}\n",
            "{\"op\": \"detect\"}\n",
            "{\"op\": \"drift\"}\n",
            "{\"op\": \"refresh\"}\n",
            "{\"op\": \"quit\"}\n",
            "{\"op\": \"detect\"}\n", // after quit: never answered
        ));
        assert_eq!(responses.len(), 6);
        // Protocol v1: every response leads with the version key.
        for r in &responses {
            assert!(r.starts_with("{\"v\":1,"), "{r}");
        }
        assert!(responses[0].contains("\"op\":\"stats\""));
        // The stats response is the full health snapshot.
        for field in [
            "\"partitions\":",
            "\"epoch\":",
            "\"in_flight\":",
            "\"workers\":1",
            "\"panics\":0",
            "\"requests\":",
            "\"points\":41",
            "\"churn\":0",
        ] {
            assert!(responses[0].contains(field), "{field} in {}", responses[0]);
        }
        assert_eq!(
            responses[1],
            "{\"v\":1,\"ok\":true,\"op\":\"score\",\"results\":[\
             {\"neighbors\":4,\"outlier\":false},{\"neighbors\":0,\"outlier\":true}]}"
        );
        // Point 40 is the isolated corner point.
        assert_eq!(
            responses[2],
            "{\"v\":1,\"ok\":true,\"op\":\"detect\",\"outliers\":[40]}"
        );
        assert!(responses[3].contains("\"drift\":"));
        assert_eq!(
            responses[4],
            "{\"v\":1,\"ok\":true,\"op\":\"refresh\",\"epoch\":1}"
        );
        assert_eq!(responses[5], "{\"v\":1,\"ok\":true,\"op\":\"quit\"}");
    }

    /// A streaming session: insert a neighborhood around the isolated
    /// point (absorbing the outlier), remove it again, and bound the
    /// window — all through the JSONL protocol.
    #[test]
    fn streaming_session_over_buffers() {
        let responses = session(concat!(
            "{\"op\": \"detect\"}\n",
            "{\"op\": \"insert\", \"points\": [[50.1, 50.0], [49.9, 50.0], \
             [50.0, 50.1], [50.0, 49.9]]}\n",
            "{\"op\": \"detect\"}\n",
            "{\"op\": \"remove\", \"ids\": [41, 42, 43, 44, 999]}\n",
            "{\"op\": \"detect\"}\n",
            "{\"op\": \"window\", \"max_points\": 10}\n",
            "{\"op\": \"window\", \"clear\": true}\n",
            "{\"op\": \"stats\"}\n",
        ));
        assert_eq!(responses.len(), 8);
        for r in &responses {
            assert!(r.starts_with("{\"v\":1,\"ok\":true,"), "{r}");
        }
        assert!(responses[0].contains("\"outliers\":[40]"));
        assert!(
            responses[1].contains("\"ids\":[41,42,43,44]"),
            "{}",
            responses[1]
        );
        assert!(responses[1].contains("\"resident\":45"));
        assert!(responses[2].contains("\"outliers\":[]"));
        assert!(
            responses[3].contains("\"removed\":4,\"missing\":1"),
            "{}",
            responses[3]
        );
        assert!(responses[3].contains("\"resident\":41"));
        assert!(responses[4].contains("\"outliers\":[40]"));
        // Tightening the window to 10 expires the 31 oldest points.
        assert!(
            responses[5].contains("\"max_points\":10,\"max_age_ms\":null,\"expired\":31"),
            "{}",
            responses[5]
        );
        assert!(responses[5].contains("\"resident\":10"));
        // Clearing reports unbounded axes and expires nothing further.
        assert!(
            responses[6].contains("\"max_points\":null,\"max_age_ms\":null,\"expired\":0"),
            "{}",
            responses[6]
        );
        assert!(responses[7].contains("\"points\":10"));
    }

    /// An engine response of another op's kind answers a typed
    /// `internal` error line instead of panicking the loop.
    #[test]
    fn a_mismatched_engine_response_is_an_internal_error() {
        let err = answer(Response::Outliers(vec![3]).into_score(), "score").unwrap_err();
        let line = error_line(&err);
        assert!(
            line.starts_with("{\"v\":1,\"ok\":false,\"code\":\"internal\""),
            "{line}"
        );
        assert!(line.contains("\\\"score\\\" request"), "{line}");
        assert_eq!(answer(Some(7), "score").ok(), Some(7));
    }

    #[test]
    fn bad_requests_answer_errors_and_keep_serving() {
        let responses = session(concat!(
            "not json at all\n",
            "{\"op\": \"launch\"}\n",
            "{\"op\": \"score\"}\n",
            "{\"op\": \"score\", \"points\": [[\"a\"]]}\n",
            "{\"op\": \"insert\"}\n",
            "{\"op\": \"remove\", \"ids\": [-1]}\n",
            "{\"op\": \"window\", \"max_points\": 1.5}\n",
            // A coordinate JSON cannot express is refused at the wire.
            "{\"op\": \"insert\", \"points\": [[1e999, 0.5]]}\n",
            "{\"op\": \"score\", \"points\": [[-1e999, 0.5]]}\n",
            "{\"op\": \"detect\"}\n",
            "{\"op\": \"stats\"}\n",
            "{\"op\": \"refresh\"}\n",
        ));
        assert_eq!(responses.len(), 12);
        for bad in &responses[..9] {
            assert!(bad.starts_with("{\"v\":1,\"ok\":false,\"code\":"), "{bad}");
        }
        // The codes are stable and machine-readable.
        assert!(responses[0].contains("\"code\":\"bad_request\""));
        assert!(responses[1].contains("\"code\":\"unknown_op\""));
        for bad in &responses[2..9] {
            assert!(bad.contains("\"code\":\"bad_request\""), "{bad}");
        }
        assert!(responses[9].contains("\"outliers\":[40]"));
        // No refused request applied in part: the point count stands and a
        // re-plan over the resident data succeeds.
        assert!(responses[10].contains("\"points\":41"), "{}", responses[10]);
        assert!(responses[11].contains("\"ok\":true,\"op\":\"refresh\""));
    }

    /// A line that is not UTF-8 is one more malformed request: it answers
    /// `bad_request` and the loop keeps serving.
    #[test]
    fn a_non_utf8_line_answers_bad_request_and_keeps_serving() {
        let responses = session_bytes(
            b"{\"op\":\"stats\"}\n{\"op\":\"st\xffats\"}\n{\"op\":\"stats\"}\n{\"op\":\"quit\"}\n",
        );
        assert_eq!(responses.len(), 4, "{responses:?}");
        for served in [&responses[0], &responses[2]] {
            assert!(served.contains("\"op\":\"stats\""), "{served}");
        }
        assert!(
            responses[1].starts_with("{\"v\":1,\"ok\":false,\"code\":\"bad_request\""),
            "{}",
            responses[1]
        );
        assert_eq!(responses[3], "{\"v\":1,\"ok\":true,\"op\":\"quit\"}");
    }

    /// Behind a line-buffered writer — what standard output is — each
    /// response reaches the pipe as one write, terminator included, however
    /// long it is: the client is woken once per response, not once for the
    /// body and again for the newline.
    #[test]
    fn each_response_is_one_write() {
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (ctx, path) = test_context();
        // Longer than any line buffer: 600 results, ~20 KB.
        let big = vec!["[0.7,0.7]"; 600].join(",");
        let requests = format!(
            "{{\"op\":\"stats\"}}\n{{\"op\":\"score\",\"points\":[{big}]}}\nnot json\n{{\"op\":\"quit\"}}\n"
        );
        let mut out = std::io::LineWriter::new(Writes(Vec::new()));
        serve_streams(&ctx, requests.as_bytes(), &mut out).unwrap();
        std::fs::remove_file(&path).ok();
        let writes = &out.get_ref().0;
        assert_eq!(writes.len(), 4, "{writes:?}");
        assert!(writes[1] > 16 * 1024, "{writes:?}");
    }

    /// A dimension mismatch surfaces the engine's typed error code, and
    /// so does every other engine error.
    #[test]
    fn engine_errors_carry_their_code() {
        let responses = session("{\"op\": \"score\", \"points\": [[1.0, 2.0, 3.0]]}\n");
        assert_eq!(responses.len(), 1);
        assert!(
            responses[0].starts_with("{\"v\":1,\"ok\":false,\"code\":\"dimension\""),
            "{}",
            responses[0]
        );
        let errors = [
            EngineError::DeadlineExceeded,
            EngineError::Dimension {
                index: 0,
                expected: 2,
                got: 1,
            },
            EngineError::NonFinite { index: 0 },
            EngineError::Extent,
            EngineError::TaskPanicked {
                message: "boom".into(),
            },
            EngineError::Pipeline(dod::ConfigError::NoReducers.into()),
        ];
        for e in errors {
            let code = format!("\"code\":\"{}\"", e.code());
            let line = error_line(&engine_error(e));
            assert!(line.contains(&code), "{line}");
        }
    }

    /// Regression: non-finite f64s must serialize as `null`, never as
    /// bare `NaN`/`inf` (which no JSON parser accepts back).
    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(json::number(1.5), "1.5");
        assert_eq!(json::number(0.0), "0");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::number(f64::INFINITY), "null");
        assert_eq!(json::number(f64::NEG_INFINITY), "null");
        // The drift response stays parseable by our own reader either way.
        let line = format!(
            "{{\"v\":1,\"ok\":true,\"op\":\"drift\",\"drift\":{},\"epoch\":0}}",
            json::number(f64::NAN)
        );
        assert_eq!(json::parse(&line).unwrap().get("drift"), Some(&Json::Null));
    }

    #[test]
    fn metrics_op_returns_prometheus_exposition() {
        let responses = session(concat!(
            "{\"op\": \"score\", \"points\": [[0.7, 0.7]]}\n",
            "{\"op\": \"metrics\"}\n",
        ));
        assert_eq!(responses.len(), 2);
        let v = json::parse(&responses[1]).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let Some(Json::Str(text)) = v.get("metrics") else {
            panic!("metrics is a string: {}", responses[1]);
        };
        // The scored request shows up in the latency summary, and the
        // health gauges are appended.
        assert!(
            text.contains("# TYPE dod_engine_request_seconds summary"),
            "{text}"
        );
        assert!(text.contains("dod_engine_request_seconds_count{op=\"score\"} 1"));
        assert!(text.contains("dod_engine_partitions "));
        assert!(text.contains("dod_engine_workers 1"));
        assert!(text.contains("dod_engine_points 41"));
    }

    /// The `explain` op round-trips through the JSONL protocol: every
    /// partition reports a winner drawn from its candidate set, finite
    /// costs, and a margin.
    #[test]
    fn explain_op_reports_the_resident_plan() {
        let responses = session(concat!("{\"op\": \"explain\"}\n", "{\"op\": \"detect\"}\n",));
        assert_eq!(responses.len(), 2);
        let v = json::parse(&responses[0]).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("op"), Some(&Json::Str("explain".into())));
        assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("weights"), None);
        assert_eq!(v.get("calibrated"), None);
        let Some(Json::Arr(partitions)) = v.get("partitions") else {
            panic!("partitions array: {}", responses[0]);
        };
        assert!(!partitions.is_empty());
        for p in partitions {
            let Some(Json::Str(winner)) = p.get("winner") else {
                panic!("winner: {p:?}");
            };
            let Some(Json::Arr(candidates)) = p.get("candidates") else {
                panic!("candidates: {p:?}");
            };
            assert!(!candidates.is_empty());
            // The winner is one of the candidates, at its reported cost.
            let found = candidates.iter().any(|c| {
                c.get("algorithm") == Some(&Json::Str(winner.clone()))
                    && c.get("cost") == p.get("winner_cost")
            });
            assert!(found, "winner in candidates: {p:?}");
            assert!(p.get("winner_cost").and_then(Json::as_f64).is_some());
            assert!(p.get("margin").and_then(Json::as_f64).is_some());
            assert!(matches!(p.get("n_est"), Some(Json::Num(_))));
            for c in candidates {
                assert!(c
                    .get("cost")
                    .and_then(Json::as_f64)
                    .is_some_and(|c| c > 0.0));
                assert!(matches!(c.get("pair_ops"), Some(Json::Num(_))));
                assert!(matches!(c.get("structural_ops"), Some(Json::Num(_))));
            }
        }
    }

    /// After measured work exists, the exposition carries the cost-audit
    /// gauges next to the health gauges.
    #[test]
    fn metrics_include_cost_audit_gauges() {
        let responses = session(concat!("{\"op\": \"detect\"}\n", "{\"op\": \"metrics\"}\n",));
        let v = json::parse(&responses[1]).unwrap();
        let Some(Json::Str(text)) = v.get("metrics") else {
            panic!("metrics is a string: {}", responses[1]);
        };
        assert!(
            text.contains("dod_engine_cost_calibration_ratio{algorithm=\""),
            "{text}"
        );
        assert!(
            text.contains("dod_engine_cost_audit_mispredicts "),
            "{text}"
        );
        assert!(
            text.contains("dod_engine_cost_audit_gross_mispredicts "),
            "{text}"
        );
        // The recorder-side observation family is present too.
        assert!(text.contains("dod_engine_cost_calibration"), "{text}");
    }

    #[test]
    fn http_listener_serves_metrics_and_healthz() {
        let (ctx, path) = test_context();
        ctx.engine
            .execute(Request::Score {
                points: vec![vec![0.7, 0.7]],
            })
            .unwrap();
        let bound = spawn_metrics_listener("127.0.0.1:0", ctx.clone()).unwrap();
        std::fs::remove_file(&path).ok();
        // A client that connects and never sends a byte, held open for
        // the whole test: the listener must drop it and keep answering.
        let _silent = std::net::TcpStream::connect(bound).unwrap();

        let get = |p: &str| -> String {
            let mut s = std::net::TcpStream::connect(bound).unwrap();
            // A stalled listener fails the test instead of hanging it.
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            s.write_all(format!("GET {p} HTTP/1.0\r\n\r\n").as_bytes())
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("dod_engine_request_seconds_count{op=\"score\"} 1"));
        assert!(metrics.contains("dod_engine_in_flight_now 0"));

        let health = get("/healthz");
        assert!(health.starts_with("HTTP/1.0 200 OK"), "{health}");
        let body = health.split("\r\n\r\n").nth(1).unwrap();
        let v = json::parse(body).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(1));
        assert!(v
            .get("requests")
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1));
        assert_eq!(v.get("points").and_then(Json::as_u64), Some(41));

        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
    }
}
