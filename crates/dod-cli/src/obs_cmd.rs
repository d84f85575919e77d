//! The `dod obs` subcommand: offline analysis of a JSONL trace.
//!
//! Input is any trace this workspace writes — a `--trace` file from a
//! batch run, a `dod serve` trace, or a flight-recorder dump. Output has
//! four sections:
//!
//! 1. **Stage breakdown** — the Figure-10 view: wall time per pipeline
//!    stage (`dod.stage` spans: preprocess / map / reduce) with
//!    percentages of the total.
//!    A serve trace that swapped epochs gets the same table for the
//!    stages of a refresh (`engine.refresh.stage` spans).
//! 2. **Span latency** — per span family, count and p50/p95/p99/p999/max
//!    from a mergeable log-linear histogram ([`dod_obs::Histogram`]);
//!    `engine.request` spans are split per `op`.
//! 3. **Top-k slow requests** — the slowest `engine.request` spans, each
//!    expanded into a span tree of the per-partition kernel work
//!    (`engine.partition.work` counters carrying the same `request` id;
//!    the engine details its heaviest partitions and rolls the tail up
//!    per algorithm, rendered as a `+N more partitions` line).
//!    Traces without request spans (batch runs) fall back to the slowest
//!    spans overall.
//! 4. **Plan** — the committed plan as recorded by `dod.plan.partition`
//!    marks: per partition, the winning algorithm, its predicted cost,
//!    and (on PlanReport-enriched traces) the estimated population and
//!    the winner's margin over the runner-up. `dod explain` prints the
//!    full candidate table live; this section recovers what a trace
//!    kept of it.
//! 5. **Cost audit** — predicted vs actual work per partition: the
//!    plan rows' predicted cost against measured kernel work
//!    (`engine.partition.work`, or the `detect.distance_evals` +
//!    `detect.index_ops` counters for batch traces). A ratio far from 1
//!    flags a partition the cost model misjudged.

use std::collections::BTreeMap;

use dod_obs::{names, Event, EventKind, Histogram, Value};

use crate::args::ObsArgs;

/// Reads the trace and prints the analysis.
pub fn run(args: &ObsArgs) -> Result<(), String> {
    let events = dod_obs::replay::read_jsonl(&args.trace)
        .map_err(|e| format!("reading {}: {e}", args.trace))?;
    print!("{}", analyze(&events, args.top));
    Ok(())
}

fn fmt_nanos(n: f64) -> String {
    if !n.is_finite() {
        "-".to_string()
    } else if n >= 1e9 {
        format!("{:.2}s", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.2}ms", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.2}us", n / 1e3)
    } else {
        format!("{n:.0}ns")
    }
}

fn label_str<'e>(e: &'e Event, key: &str) -> Option<&'e str> {
    e.label(key).and_then(Value::as_str)
}

fn label_u64(e: &Event, key: &str) -> Option<u64> {
    e.label(key).and_then(Value::as_u64)
}

fn label_f64(e: &Event, key: &str) -> Option<f64> {
    e.label(key).and_then(Value::as_f64)
}

fn span_nanos(e: &Event) -> Option<u64> {
    match e.kind {
        EventKind::Span { nanos } => Some(nanos),
        _ => None,
    }
}

/// Renders the full report for a parsed trace.
pub fn analyze(events: &[Event], top: usize) -> String {
    let mut out = String::new();
    summary_section(&mut out, events);
    stage_section(&mut out, events);
    refresh_section(&mut out, events);
    latency_section(&mut out, events);
    slow_requests_section(&mut out, events, top);
    // The plan marks are parsed once and shared between the plan section
    // and the cost audit, which consumes their predicted costs as-is.
    let plan = plan_rows(events);
    plan_section(&mut out, &plan);
    cost_audit_section(&mut out, events, &plan);
    out
}

fn summary_section(out: &mut String, events: &[Event]) {
    let (mut spans, mut counters, mut observes, mut marks) = (0usize, 0usize, 0usize, 0usize);
    for e in events {
        match e.kind {
            EventKind::Span { .. } => spans += 1,
            EventKind::Counter { .. } => counters += 1,
            EventKind::Observe { .. } => observes += 1,
            EventKind::Mark => marks += 1,
        }
    }
    out.push_str(&format!(
        "== trace summary ==\n{} events ({spans} spans, {counters} counters, \
         {observes} observations, {marks} marks)\n",
        events.len()
    ));
    let dumps = events
        .iter()
        .filter(|e| e.name == names::ENGINE_FLIGHT_DUMP)
        .count();
    if dumps > 0 {
        out.push_str(&format!("contains {dumps} flight-recorder dump(s)\n"));
    }
}

fn stage_section(out: &mut String, events: &[Event]) {
    out.push_str("\n== stage breakdown ==\n");
    if !breakdown(out, events, names::DOD_STAGE) {
        out.push_str("(no dod.stage spans in this trace)\n");
    }
    // Inside the preprocessing job and inside the reduce tasks (summed
    // over tasks, so over host threads too), when the run recorded them.
    for (title, name) in [
        ("preprocess breakdown", names::DOD_PREPROCESS_STAGE),
        ("reduce task breakdown", names::DOD_REDUCE_STAGE),
    ] {
        let mut table = String::new();
        if breakdown(&mut table, events, name) {
            out.push_str(&format!("\n== {title} ==\n{table}"));
        }
    }
}

/// Where the epoch swaps of a serve trace went: the `engine.refresh.stage`
/// spans summed per stage. Absent from traces without a refresh.
fn refresh_section(out: &mut String, events: &[Event]) {
    let mut table = String::new();
    if breakdown(&mut table, events, names::ENGINE_REFRESH_STAGE) {
        let swaps = events
            .iter()
            .filter(|e| e.name == names::ENGINE_REFRESH)
            .count();
        out.push_str(&format!(
            "\n== refresh breakdown ({swaps} epoch swaps) ==\n{table}"
        ));
    }
}

/// Sums the `name` spans per `stage` label in emission order and prints
/// each with its share of the total. Returns whether there were any.
fn breakdown(out: &mut String, events: &[Event], name: &str) -> bool {
    let mut stages: Vec<(String, u64)> = Vec::new();
    for e in events.iter().filter(|e| e.name == name) {
        let (Some(stage), Some(nanos)) = (label_str(e, "stage"), span_nanos(e)) else {
            continue;
        };
        match stages.iter_mut().find(|(s, _)| s == stage) {
            Some((_, total)) => *total += nanos,
            None => stages.push((stage.to_string(), nanos)),
        }
    }
    if stages.is_empty() {
        return false;
    }
    let total: u64 = stages.iter().map(|(_, n)| n).sum();
    for (stage, nanos) in &stages {
        out.push_str(&format!(
            "{stage:<12} {:>10}  {:5.1}%\n",
            fmt_nanos(*nanos as f64),
            100.0 * *nanos as f64 / total.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>10}\n",
        "total",
        fmt_nanos(total as f64)
    ));
    true
}

fn latency_section(out: &mut String, events: &[Event]) {
    out.push_str("\n== span latency ==\n");
    // Family key: span name, plus the op for engine requests.
    let mut families: BTreeMap<String, Histogram> = BTreeMap::new();
    for e in events {
        let Some(nanos) = span_nanos(e) else { continue };
        let key = match label_str(e, "op") {
            Some(op) if e.name == names::ENGINE_REQUEST => format!("{}[{op}]", e.name),
            _ => e.name.to_string(),
        };
        families.entry(key).or_default().record(nanos as f64);
    }
    if families.is_empty() {
        out.push_str("(no spans in this trace)\n");
        return;
    }
    out.push_str(&format!(
        "{:<24} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "span", "count", "p50", "p95", "p99", "p999", "max"
    ));
    for (name, hist) in &families {
        let s = hist.summary();
        out.push_str(&format!(
            "{name:<24} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            s.count,
            fmt_nanos(s.p50),
            fmt_nanos(s.p95),
            fmt_nanos(s.p99),
            fmt_nanos(s.p999),
            fmt_nanos(s.max),
        ));
    }
}

fn slow_requests_section(out: &mut String, events: &[Event], top: usize) {
    out.push_str(&format!("\n== top {top} slow requests ==\n"));
    let mut requests: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == names::ENGINE_REQUEST && span_nanos(e).is_some())
        .collect();
    if requests.is_empty() {
        // Batch traces have no request spans: show the slowest spans.
        out.push_str("(no engine.request spans — slowest spans instead)\n");
        let mut spans: Vec<&Event> = events.iter().filter(|e| span_nanos(e).is_some()).collect();
        spans.sort_by_key(|e| std::cmp::Reverse(span_nanos(e).unwrap_or(0)));
        for e in spans.iter().take(top) {
            let labels: Vec<String> = e.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "{:<18} {:>10}  {}\n",
                e.name,
                fmt_nanos(span_nanos(e).unwrap_or(0) as f64),
                labels.join(" ")
            ));
        }
        return;
    }
    requests.sort_by_key(|e| std::cmp::Reverse(span_nanos(e).unwrap_or(0)));
    for req in requests.iter().take(top) {
        let rid = label_u64(req, "request");
        let op = label_str(req, "op").unwrap_or("?");
        let mut line = format!(
            "#{} {op} {}",
            rid.map_or("?".to_string(), |r| r.to_string()),
            fmt_nanos(span_nanos(req).unwrap_or(0) as f64)
        );
        if let Some(items) = label_u64(req, "items") {
            line.push_str(&format!(" items={items}"));
        }
        if let Some(epoch) = label_u64(req, "epoch") {
            line.push_str(&format!(" epoch={epoch}"));
        }
        if let Some(err) = label_str(req, "error") {
            line.push_str(&format!(" ERROR={err}"));
        }
        out.push_str(&line);
        out.push('\n');
        // The request's children: per-partition kernel work counters
        // carrying the same request id.
        let children: Vec<&Event> = events
            .iter()
            .filter(|e| e.name == names::ENGINE_PARTITION_WORK && label_u64(e, "request") == rid)
            .collect();
        for (i, child) in children.iter().enumerate() {
            let branch = if i + 1 == children.len() {
                "`--"
            } else {
                "|--"
            };
            let work = match child.kind {
                EventKind::Counter { delta } => delta,
                _ => 0,
            };
            let algorithm = label_str(child, "algorithm").unwrap_or("?");
            // The engine details its top-K heaviest partitions and rolls
            // the tail up per algorithm (a `partitions` count label).
            let line = match label_u64(child, "partition") {
                Some(pid) => format!("  {branch} partition {pid} [{algorithm}] work={work}\n"),
                None => format!(
                    "  {branch} +{} more partitions [{algorithm}] work={work}\n",
                    label_u64(child, "partitions").unwrap_or(0)
                ),
            };
            out.push_str(&line);
        }
    }
}

/// One partition's `dod.plan.partition` mark, as enriched by the
/// pipeline from its [`dod_partition::PlanReport`]: the committed
/// winner, its predicted cost, and — on enriched traces — the
/// estimated population and the winner's margin over the runner-up.
#[derive(Debug, Default, Clone)]
struct PlanRow {
    algorithm: String,
    predicted: Option<f64>,
    n_est: Option<f64>,
    margin: Option<f64>,
}

/// Folds the plan marks into per-partition rows, parsed once for both
/// the plan section and the cost audit. Later marks win: a refreshed
/// plan supersedes the old one.
fn plan_rows(events: &[Event]) -> BTreeMap<u64, PlanRow> {
    let mut rows: BTreeMap<u64, PlanRow> = BTreeMap::new();
    for e in events
        .iter()
        .filter(|e| e.name == names::DOD_PLAN_PARTITION)
    {
        let Some(pid) = label_u64(e, "partition") else {
            continue;
        };
        let row = rows.entry(pid).or_default();
        if let Some(alg) = label_str(e, "algorithm") {
            row.algorithm = alg.to_string();
        }
        row.predicted = label_f64(e, "predicted_cost");
        row.n_est = label_f64(e, "n_est");
        row.margin = label_f64(e, "margin");
    }
    rows
}

fn plan_section(out: &mut String, plan: &BTreeMap<u64, PlanRow>) {
    out.push_str("\n== plan ==\n");
    if plan.is_empty() {
        out.push_str("(no dod.plan.partition marks in this trace)\n");
        return;
    }
    out.push_str(&format!(
        "{:>9}  {:<16} {:>12} {:>10} {:>12}\n",
        "partition", "algorithm", "predicted", "n_est", "margin"
    ));
    for (pid, row) in plan {
        out.push_str(&format!(
            "{pid:>9}  {:<16} {:>12} {:>10} {:>12}\n",
            if row.algorithm.is_empty() {
                "?"
            } else {
                &row.algorithm
            },
            row.predicted.map_or("-".to_string(), |p| format!("{p:.1}")),
            row.n_est.map_or("-".to_string(), |n| format!("{n:.1}")),
            row.margin.map_or("-".to_string(), |m| format!("{m:.1}")),
        ));
    }
}

/// Per-partition audit row, keyed by partition id.
#[derive(Debug, Default, Clone)]
struct AuditRow {
    algorithm: String,
    predicted: Option<f64>,
    engine_work: u64,
    detect_work: u64,
}

fn cost_audit_section(out: &mut String, events: &[Event], plan: &BTreeMap<u64, PlanRow>) {
    out.push_str("\n== cost audit (predicted vs actual) ==\n");
    // Predictions come straight from the parsed plan rows; this section
    // only folds in the measured work.
    let mut rows: BTreeMap<u64, AuditRow> = plan
        .iter()
        .map(|(&pid, p)| {
            (
                pid,
                AuditRow {
                    algorithm: p.algorithm.clone(),
                    predicted: p.predicted,
                    engine_work: 0,
                    detect_work: 0,
                },
            )
        })
        .collect();
    for e in events {
        match e.name.as_ref() {
            names::ENGINE_PARTITION_WORK => {
                let Some(pid) = label_u64(e, "partition") else {
                    continue;
                };
                if let EventKind::Counter { delta } = e.kind {
                    let row = rows.entry(pid).or_default();
                    row.engine_work += delta;
                    if row.algorithm.is_empty() {
                        if let Some(alg) = label_str(e, "algorithm") {
                            row.algorithm = alg.to_string();
                        }
                    }
                }
            }
            names::DETECT_DISTANCE_EVALS | names::DETECT_INDEX_OPS => {
                let Some(pid) = label_u64(e, "partition") else {
                    continue;
                };
                if let EventKind::Counter { delta } = e.kind {
                    let row = rows.entry(pid).or_default();
                    row.detect_work += delta;
                    if row.algorithm.is_empty() {
                        if let Some(alg) = label_str(e, "algorithm") {
                            row.algorithm = alg.to_string();
                        }
                    }
                }
            }
            _ => {}
        }
    }
    rows.retain(|_, r| r.predicted.is_some() || r.engine_work > 0 || r.detect_work > 0);
    if rows.is_empty() {
        out.push_str("(no plan marks or work counters in this trace)\n");
        return;
    }
    out.push_str(&format!(
        "{:>9}  {:<16} {:>12} {:>12} {:>8}\n",
        "partition", "algorithm", "predicted", "actual", "ratio"
    ));
    for (pid, row) in &rows {
        // Engine work counters already include the detect-path work of
        // `detect_all` requests; fall back to the batch detectors'
        // counters only when the engine never measured this partition.
        let actual = if row.engine_work > 0 {
            row.engine_work
        } else {
            row.detect_work
        };
        let predicted = row.predicted;
        let ratio = match predicted {
            Some(p) if p > 0.0 => format!("{:8.2}", actual as f64 / p),
            _ => format!("{:>8}", "-"),
        };
        out.push_str(&format!(
            "{pid:>9}  {:<16} {:>12} {actual:>12} {ratio}\n",
            if row.algorithm.is_empty() {
                "?"
            } else {
                &row.algorithm
            },
            predicted.map_or("-".to_string(), |p| format!("{p:.1}")),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, nanos: u64) -> Event {
        Event::new(name, EventKind::Span { nanos })
    }

    fn engine_trace() -> Vec<Event> {
        let mut events = vec![
            span("dod.stage", 2_000_000).with_label("stage", "preprocess"),
            span("dod.stage", 6_000_000).with_label("stage", "map"),
            span("dod.stage", 2_000_000).with_label("stage", "reduce"),
            Event::new("dod.plan.partition", EventKind::Mark)
                .with_label("partition", 0u64)
                .with_label("algorithm", "cell-based")
                .with_label("predicted_cost", 100.0)
                .with_label("n_est", 24.0)
                .with_label("margin", 60.5),
            Event::new("dod.plan.partition", EventKind::Mark)
                .with_label("partition", 1u64)
                .with_label("algorithm", "kd-tree")
                .with_label("predicted_cost", 50.0),
        ];
        for (rid, nanos) in [(1u64, 3_000_000u64), (2, 9_000_000), (3, 1_000_000)] {
            events.push(
                span(names::ENGINE_REQUEST, nanos)
                    .with_label("op", "score")
                    .with_label("items", 4u64)
                    .with_label("epoch", 0u64)
                    .with_label("request", rid),
            );
            events.push(
                Event::new(
                    names::ENGINE_PARTITION_WORK,
                    EventKind::Counter { delta: 40 * rid },
                )
                .with_label("op", "score")
                .with_label("request", rid)
                .with_label("partition", 0u64)
                .with_label("algorithm", "cell-based"),
            );
        }
        events
    }

    #[test]
    fn stage_breakdown_sums_and_percentages() {
        let text = analyze(&engine_trace(), 2);
        assert!(text.contains("== stage breakdown =="), "{text}");
        assert!(text.contains("preprocess"), "{text}");
        assert!(text.contains("map          "), "{text}");
        assert!(text.contains("60.0%"), "{text}");
        assert!(text.contains("total"), "{text}");
    }

    #[test]
    fn preprocess_and_reduce_breakdowns_appear_when_recorded() {
        let plain = analyze(&engine_trace(), 1);
        assert!(!plain.contains("preprocess breakdown"), "{plain}");
        assert!(!plain.contains("reduce task breakdown"), "{plain}");
        let mut events = engine_trace();
        for (stage, nanos) in [("sample", 500_000u64), ("plan", 1_500_000)] {
            events.push(span(names::DOD_PREPROCESS_STAGE, nanos).with_label("stage", stage));
        }
        for _task in 0..2 {
            for (stage, nanos) in [("tile", 100_000u64), ("build", 0), ("detect", 900_000)] {
                events.push(span(names::DOD_REDUCE_STAGE, nanos).with_label("stage", stage));
            }
        }
        let text = analyze(&events, 1);
        let pre = text
            .split("== preprocess breakdown ==")
            .nth(1)
            .expect(&text);
        assert!(pre.contains("plan             1.50ms   75.0%"), "{pre}");
        let red = text
            .split("== reduce task breakdown ==")
            .nth(1)
            .expect(&text);
        assert!(red.contains("detect           1.80ms   90.0%"), "{red}");
    }

    #[test]
    fn refresh_breakdown_appears_only_when_an_epoch_swapped() {
        assert!(!analyze(&engine_trace(), 1).contains("refresh breakdown"));
        let mut events = engine_trace();
        for epoch in [1u64, 2] {
            for (stage, nanos) in [("compact", 1_000_000u64), ("build", 3_000_000)] {
                events.push(
                    span(names::ENGINE_REFRESH_STAGE, nanos)
                        .with_label("epoch", epoch)
                        .with_label("stage", stage),
                );
            }
            events.push(span(names::ENGINE_REFRESH, 4_100_000).with_label("epoch", epoch));
        }
        let text = analyze(&events, 1);
        let table = text
            .split("== refresh breakdown (2 epoch swaps) ==")
            .nth(1)
            .expect(&text);
        assert!(table.contains("build            6.00ms   75.0%"), "{table}");
    }

    #[test]
    fn slow_requests_render_span_trees_in_latency_order() {
        let text = analyze(&engine_trace(), 2);
        let slow = text.split("== top 2 slow requests ==").nth(1).unwrap();
        // Request 2 (9ms) before request 1 (3ms); request 3 cut by top=2.
        let p2 = slow.find("#2 score 9.00ms").expect("slowest first");
        let p1 = slow.find("#1 score 3.00ms").expect("runner-up second");
        assert!(p2 < p1, "{slow}");
        assert!(!slow.contains("#3 "), "{slow}");
        assert!(
            slow.contains("`-- partition 0 [cell-based] work=80"),
            "{slow}"
        );
    }

    #[test]
    fn latency_percentiles_split_request_ops() {
        let text = analyze(&engine_trace(), 1);
        assert!(text.contains("engine.request[score]"), "{text}");
        let line = text
            .lines()
            .find(|l| l.starts_with("engine.request[score]"))
            .unwrap();
        assert!(line.contains("     3"), "count of 3 in {line}");
    }

    #[test]
    fn cost_audit_compares_predicted_against_engine_work() {
        let text = analyze(&engine_trace(), 1);
        let audit = text.split("== cost audit").nth(1).unwrap();
        // Partition 0: predicted 100, actual 40+80+120 = 240 → ratio 2.40.
        assert!(audit.contains("cell-based"), "{audit}");
        assert!(audit.contains("240"), "{audit}");
        assert!(audit.contains("2.40"), "{audit}");
        // Partition 1 predicted but never touched: ratio dash.
        assert!(audit.contains("kd-tree"), "{audit}");
    }

    /// The plan section renders the report-enriched mark labels and
    /// dashes out fields older traces never carried.
    #[test]
    fn plan_section_renders_report_enriched_marks() {
        let text = analyze(&engine_trace(), 1);
        let plan = text
            .split("== plan ==")
            .nth(1)
            .unwrap()
            .split("== cost audit")
            .next()
            .unwrap();
        let p0 = plan.lines().find(|l| l.contains("cell-based")).unwrap();
        assert!(p0.contains("100.0"), "{p0}");
        assert!(p0.contains("24.0"), "{p0}");
        assert!(p0.contains("60.5"), "{p0}");
        // Partition 1's mark predates the report enrichment: dashes.
        let p1 = plan.lines().find(|l| l.contains("kd-tree")).unwrap();
        assert!(p1.contains("50.0"), "{p1}");
        assert!(p1.trim_end().ends_with('-'), "{p1}");
    }

    #[test]
    fn batch_trace_without_requests_falls_back_gracefully() {
        let events = vec![
            span("dod.stage", 5_000_000).with_label("stage", "map"),
            span("mapreduce.task", 4_000_000).with_label("task", 7u64),
            Event::new("detect.distance_evals", EventKind::Counter { delta: 123 })
                .with_label("partition", 2u64)
                .with_label("algorithm", "nested-loop"),
        ];
        let text = analyze(&events, 3);
        assert!(text.contains("no engine.request spans"), "{text}");
        assert!(text.contains("mapreduce.task"), "{text}");
        // Audit uses the detect counters when no engine work exists.
        assert!(text.contains("nested-loop"), "{text}");
        assert!(text.contains("123"), "{text}");
    }

    #[test]
    fn empty_trace_is_reported_not_crashed() {
        let text = analyze(&[], 5);
        assert!(text.contains("0 events"), "{text}");
        assert!(
            text.contains("(no dod.stage spans in this trace)"),
            "{text}"
        );
        assert!(
            text.contains("(no dod.plan.partition marks in this trace)"),
            "{text}"
        );
        assert!(
            text.contains("(no plan marks or work counters in this trace)"),
            "{text}"
        );
    }
}
