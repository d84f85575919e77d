//! The `dod serve` child and its JSONL protocol, client side.
//!
//! Closed loop, one client, one request in flight: a request line is
//! written, the response line is read, and the time between is the op's
//! latency. Requests are encoded before the clock starts and responses
//! are parsed after it stops. The child process itself belongs to a
//! keeper thread that sleeps beside the client and kills the child when
//! a request goes unanswered, or when the client's handle is dropped.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::env::Error;
use crate::gen::write_row;

/// A request unanswered for this long means the child is stuck (the
/// slowest honest one, an epoch swap over 1M points, takes seconds). The
/// child is then killed, the blocked read sees its output close, and the
/// run fails without a result line well inside the driver's 180 s.
const REQUEST_LIMIT: Duration = Duration::from_secs(60);
/// `in_flight` when no request is.
const IDLE: u64 = u64::MAX;

/// Kills and reaps the child when dropped, whichever thread drops it and
/// why: no `dod serve` may outlive the run.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

pub struct ServeChild {
    pid: u32,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    line: String,
    clock: Instant,
    /// When the request in flight was written, in ms on `clock`.
    in_flight: Arc<AtomicU64>,
    /// The thread that owns the child process, and the line to it: a
    /// message lets the child exit by itself, hanging up has it killed.
    keeper: Option<(Sender<()>, JoinHandle<Option<ExitStatus>>)>,
}

/// The keeper thread: sleeps, wakes once a second to see whether a
/// request is overdue, and ends with the child dead and reaped. Returns
/// the exit status if the child was told to quit and did.
fn keep(
    mut child: Reaped,
    orders: &mpsc::Receiver<()>,
    in_flight: &AtomicU64,
    clock: Instant,
    limit: Duration,
) -> Option<ExitStatus> {
    let overdue = || {
        let since = in_flight.load(Ordering::Relaxed);
        since != IDLE && clock.elapsed() > Duration::from_millis(since) + limit
    };
    loop {
        match orders.recv_timeout(limit.min(Duration::from_secs(1))) {
            Ok(()) => break,
            Err(RecvTimeoutError::Timeout) if !overdue() => {}
            Err(RecvTimeoutError::Timeout) => {
                eprintln!("dod serve left a request unanswered for {limit:?}; killing it");
                return None;
            }
            Err(RecvTimeoutError::Disconnected) => return None,
        }
    }
    let asked = Instant::now();
    while asked.elapsed() < limit {
        if let Ok(Some(status)) = child.0.try_wait() {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

impl ServeChild {
    /// Spawns `dod serve` over `csv` and waits for its first `stats`
    /// reply; the elapsed time is one set-up (CSV parse, sample, plan,
    /// per-partition state build).
    pub fn spawn(dod: &Path, csv: &Path, args: &[String]) -> Result<(Self, Duration), Error> {
        let mut command = Command::new(dod);
        command.arg("serve").arg("--input").arg(csv).args(args);
        Self::start(&mut command, REQUEST_LIMIT)
    }

    fn start(command: &mut Command, limit: Duration) -> Result<(Self, Duration), Error> {
        let clock = Instant::now();
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let pid = child.id();
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let in_flight = Arc::new(AtomicU64::new(IDLE));
        let (line_to_keeper, orders) = mpsc::channel();
        let watched = Arc::clone(&in_flight);
        // Should the thread not start, the closure is dropped and the
        // child in it killed.
        let child = Reaped(child);
        let keeper = std::thread::Builder::new()
            .name("serve-keeper".into())
            .spawn(move || keep(child, &orders, &watched, clock, limit))?;
        let mut serve = ServeChild {
            pid,
            stdin,
            stdout: BufReader::with_capacity(1 << 16, stdout),
            line: String::new(),
            clock,
            in_flight,
            keeper: Some((line_to_keeper, keeper)),
        };
        let (_, reply) = serve.request("{\"op\":\"stats\"}")?;
        if !is_ok(reply) {
            return Err(format!("first stats request failed: {reply}").into());
        }
        Ok((serve, clock.elapsed()))
    }

    /// One round trip. The returned line borrows the child's buffer and
    /// is valid until the next request.
    pub fn request(&mut self, request: &str) -> Result<(Duration, &str), Error> {
        let sent = self.clock.elapsed().as_millis() as u64;
        self.in_flight.store(sent, Ordering::Relaxed);
        let start = Instant::now();
        self.stdin.write_all(request.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        self.line.clear();
        let read = self.stdout.read_line(&mut self.line)?;
        let elapsed = start.elapsed();
        self.in_flight.store(IDLE, Ordering::Relaxed);
        if read == 0 {
            return Err("dod serve closed its output (did it crash or hang?)".into());
        }
        Ok((elapsed, self.line.trim_end()))
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Ends the keeper thread, and with it the child: by itself within
    /// the request limit if `asked_to_quit`, killed otherwise.
    fn reap(&mut self, asked_to_quit: bool) -> Option<ExitStatus> {
        let (line_to_keeper, keeper) = self.keeper.take()?;
        if asked_to_quit {
            let _ = line_to_keeper.send(());
        }
        drop(line_to_keeper);
        keeper.join().ok().flatten()
    }

    /// Asks the child to quit and reaps it.
    pub fn quit(mut self) -> Result<(), Error> {
        self.request("{\"op\":\"quit\"}")?;
        match self.reap(true) {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(format!("dod serve exited with {status}").into()),
            None => Err("dod serve answered quit but did not exit; killed".into()),
        }
    }
}

/// Every exit path — an error return, a failed check, a panic — drops
/// the handle, which hangs up on the keeper thread and waits for it to
/// have killed and reaped the child.
impl Drop for ServeChild {
    fn drop(&mut self) {
        self.reap(false);
    }
}

fn points_json(out: &mut Vec<u8>, points: &[f64], dim: usize) {
    out.push(b'[');
    for (i, p) in points.chunks_exact(dim).enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'[');
        write_row(out, p).expect("writing to a Vec cannot fail");
        out.push(b']');
    }
    out.push(b']');
}

/// A `score` or `insert` request line for `points` (flat, row-major).
pub fn points_request(op: &str, points: &[f64], dim: usize) -> String {
    let mut out = format!("{{\"op\":\"{op}\",\"points\":").into_bytes();
    points_json(&mut out, points, dim);
    out.push(b'}');
    String::from_utf8(out).expect("numbers and brackets are ASCII")
}

pub fn remove_request(ids: &[u64]) -> String {
    let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
    format!("{{\"op\":\"remove\",\"ids\":[{}]}}", ids.join(","))
}

// Responses have a fixed key order and no nesting beyond one level, so
// fields are read by scanning for `"key":` rather than by a JSON parser.

pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"v\":1,\"ok\":true,")
}

fn after<'a>(response: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    Some(&response[response.find(&pattern)? + pattern.len()..])
}

pub fn field_u64(response: &str, key: &str) -> Option<u64> {
    let rest = after(response, key)?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

pub fn field_bool(response: &str, key: &str) -> Option<bool> {
    let rest = after(response, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

pub fn field_ids(response: &str, key: &str) -> Option<Vec<u64>> {
    let rest = after(response, key)?.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|id| id.parse().ok()).collect()
}

/// The `(neighbors, outlier)` verdicts of a `score` response.
pub fn score_results(response: &str) -> Option<Vec<(usize, bool)>> {
    if !is_ok(response) {
        return None;
    }
    let mut out = Vec::new();
    let mut rest = after(response, "results")?;
    while let Some(at) = rest.find("{\"neighbors\":") {
        rest = &rest[at + "{\"neighbors\":".len()..];
        let end = rest.find(',')?;
        let neighbors = rest[..end].parse().ok()?;
        let outlier = field_bool(rest, "outlier")?;
        out.push((neighbors, outlier));
    }
    Some(out)
}

/// Kernel work (candidates examined) the engine has spent on `score`
/// requests so far, summed over algorithms, from a `metrics` response.
pub fn score_work(response: &str) -> Option<u64> {
    // The exposition document arrives as one JSON-escaped string.
    let text = after(response, "metrics")?
        .replace("\\n", "\n")
        .replace("\\\"", "\"");
    let mut total = None;
    for line in text.lines() {
        if line.starts_with("dod_engine_partition_work_total{") && line.contains("op=\"score\"") {
            let value: f64 = line.rsplit(' ').next()?.parse().ok()?;
            *total.get_or_insert(0) += value as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_the_protocols_json() {
        assert_eq!(
            points_request("score", &[0.5, 1.25, 3.0, 4.0], 2),
            "{\"op\":\"score\",\"points\":[[0.5,1.25],[3,4]]}"
        );
        assert_eq!(
            remove_request(&[3, 99]),
            "{\"op\":\"remove\",\"ids\":[3,99]}"
        );
    }

    #[test]
    fn a_child_that_never_answers_is_killed_and_the_request_fails() {
        let limit = Duration::from_millis(300);
        let started = Instant::now();
        let result = ServeChild::start(Command::new("sleep").arg("30"), limit);
        assert!(result.is_err_and(|e| e.to_string().contains("closed its output")));
        // One limit, one keeper tick, and the kill: nowhere near `sleep`'s 30 s.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn responses_are_read_field_by_field() {
        let insert = "{\"v\":1,\"ok\":true,\"op\":\"insert\",\"ids\":[41,42],\"expired\":0,\
                      \"refreshed\":true,\"resident\":43}";
        assert!(is_ok(insert));
        assert_eq!(field_ids(insert, "ids"), Some(vec![41, 42]));
        assert_eq!(field_u64(insert, "expired"), Some(0));
        assert_eq!(field_bool(insert, "refreshed"), Some(true));
        assert_eq!(field_u64(insert, "resident"), Some(43));
        assert_eq!(field_u64(insert, "missing"), None);

        let detect = "{\"v\":1,\"ok\":true,\"op\":\"detect\",\"outliers\":[]}";
        assert_eq!(field_ids(detect, "outliers"), Some(vec![]));

        let score = "{\"v\":1,\"ok\":true,\"op\":\"score\",\"results\":[\
                     {\"neighbors\":4,\"outlier\":false},{\"neighbors\":0,\"outlier\":true}]}";
        assert_eq!(score_results(score), Some(vec![(4, false), (0, true)]));

        let error = "{\"v\":1,\"ok\":false,\"code\":\"overloaded\",\"error\":\"queue full\"}";
        assert!(!is_ok(error));
        assert_eq!(score_results(error), None);
    }

    #[test]
    fn score_work_sums_the_score_series_only() {
        let metrics = "{\"v\":1,\"ok\":true,\"op\":\"metrics\",\"metrics\":\"# TYPE x counter\\n\
            dod_engine_partition_work_total{algorithm=\\\"cell-based\\\",op=\\\"score\\\"} 1200\\n\
            dod_engine_partition_work_total{algorithm=\\\"nested-loop\\\",op=\\\"score\\\"} 34\\n\
            dod_engine_partition_work_total{algorithm=\\\"cell-based\\\",op=\\\"detect\\\"} 999\\n\"}";
        assert_eq!(score_work(metrics), Some(1234));
        assert_eq!(
            score_work("{\"v\":1,\"ok\":true,\"op\":\"metrics\",\"metrics\":\"\"}"),
            None
        );
    }
}
