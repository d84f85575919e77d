//! Hand-rolled Prometheus text-format exposition (no dependencies).
//!
//! Rendering rules, matching the exposition-format spec closely enough
//! for any Prometheus-compatible scraper:
//!
//! * event names are sanitized to `[a-zA-Z0-9_]` and prefixed `dod_`
//!   (`engine.request` → `dod_engine_request`);
//! * counters render as `# TYPE … counter` with a `_total` suffix;
//! * span and observation histograms render as `# TYPE … summary` with
//!   `quantile` series (p50/p95/p99/p999) plus `_sum` and `_count`;
//!   span metrics additionally get a `_seconds` unit suffix;
//! * gauges ([`PromWriter::gauge`]) carry live engine state (queue
//!   depth, in-flight, epoch) sampled at scrape time;
//! * label values are escaped per the spec (`\\`, `\"`, `\n`);
//! * non-finite sample values render as `NaN`/`+Inf`/`-Inf`, which the
//!   format permits (unlike JSON).

use crate::hist::HistogramSummary;
use crate::metrics::MetricsSnapshot;

/// Maps an event name to a Prometheus metric name: sanitize, prefix.
pub fn metric_name(event_name: &str) -> String {
    let mut out = String::with_capacity(event_name.len() + 4);
    out.push_str("dod_");
    for c in event_name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Incrementally builds one exposition document.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        PromWriter::default()
    }

    /// Appends one gauge sample (already-sanitized metric name).
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
            format_value(value)
        ));
    }

    /// Appends a gauge family with one sample per label set (e.g. a
    /// per-algorithm calibration ratio).
    pub fn gauge_series(&mut self, name: &str, help: &str, series: &[(&[(String, String)], f64)]) {
        self.out
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
        for (labels, value) in series {
            self.out.push_str(&format!(
                "{name}{} {}\n",
                render_labels(labels, None),
                format_value(*value)
            ));
        }
    }

    /// Appends a counter family: one `_total` sample per label set.
    pub fn counter(&mut self, name: &str, help: &str, series: &[(&[(String, String)], u64)]) {
        self.out.push_str(&format!(
            "# HELP {name}_total {help}\n# TYPE {name}_total counter\n"
        ));
        for (labels, value) in series {
            self.out.push_str(&format!(
                "{name}_total{} {value}\n",
                render_labels(labels, None)
            ));
        }
    }

    /// Appends a summary family: four `quantile` samples plus `_sum`
    /// and `_count` per label set.
    pub fn summary(
        &mut self,
        name: &str,
        help: &str,
        series: &[(&[(String, String)], HistogramSummary)],
    ) {
        self.out
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
        for (labels, s) in series {
            for (q, v) in [
                ("0.5", s.p50),
                ("0.95", s.p95),
                ("0.99", s.p99),
                ("0.999", s.p999),
            ] {
                self.out.push_str(&format!(
                    "{name}{} {}\n",
                    render_labels(labels, Some(("quantile", q))),
                    format_value(v)
                ));
            }
            let plain = render_labels(labels, None);
            self.out
                .push_str(&format!("{name}_sum{plain} {}\n", format_value(s.sum)));
            self.out
                .push_str(&format!("{name}_count{plain} {}\n", s.count));
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Renders every series of a [`MetricsSnapshot`]: counters, span
/// summaries (with a `_seconds` suffix), and observation summaries.
pub fn render_snapshot(snapshot: &MetricsSnapshot) -> String {
    let mut w = PromWriter::new();
    for_each_family(&snapshot.counters, |name, series| {
        let series: Vec<(&[(String, String)], u64)> = series
            .iter()
            .map(|((_, labels), v)| (labels.as_slice(), *v))
            .collect();
        let help = crate::names::prom_help(name).unwrap_or("Aggregated event counter.");
        w.counter(&metric_name(name), help, &series);
    });
    for_each_family(&snapshot.spans, |name, series| {
        let series: Vec<(&[(String, String)], HistogramSummary)> = series
            .iter()
            .map(|((_, labels), s)| (labels.as_slice(), *s))
            .collect();
        let help = crate::names::prom_help(name).unwrap_or("Span duration summary in seconds.");
        w.summary(&format!("{}_seconds", metric_name(name)), help, &series);
    });
    for_each_family(&snapshot.observes, |name, series| {
        let series: Vec<(&[(String, String)], HistogramSummary)> = series
            .iter()
            .map(|((_, labels), s)| (labels.as_slice(), *s))
            .collect();
        let help = crate::names::prom_help(name).unwrap_or("Observed sample summary.");
        w.summary(&metric_name(name), help, &series);
    });
    w.finish()
}

/// Groups consecutive snapshot entries (sorted by key) by event name.
fn for_each_family<T>(
    entries: &[(crate::metrics::SeriesKey, T)],
    mut f: impl FnMut(&str, &[(crate::metrics::SeriesKey, T)]),
) {
    let mut start = 0;
    while start < entries.len() {
        let name = &entries[start].0 .0;
        let mut end = start + 1;
        while end < entries.len() && entries[end].0 .0 == *name {
            end += 1;
        }
        f(name, &entries[start..end]);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::metrics::MetricsRecorder;
    use crate::recorder::Recorder;

    #[test]
    fn metric_names_are_sanitized_and_prefixed() {
        assert_eq!(metric_name("engine.request"), "dod_engine_request");
        assert_eq!(
            metric_name("detect.distance_evals"),
            "dod_detect_distance_evals"
        );
        assert_eq!(metric_name("weird-name!"), "dod_weird_name_");
    }

    #[test]
    fn exposition_contains_counters_summaries_and_gauges() {
        let m = MetricsRecorder::new();
        m.record(
            Event::new("engine.task_panics", EventKind::Counter { delta: 2 })
                .with_label("op", "score"),
        );
        for nanos in [1_000_000u64, 2_000_000, 100_000_000] {
            m.record(
                Event::new("engine.request", EventKind::Span { nanos }).with_label("op", "score"),
            );
        }
        m.record(Event::new(
            "engine.cost.calibration",
            EventKind::Observe { value: 3.0 },
        ));
        let mut text = m.render_prometheus();
        let mut w = PromWriter::new();
        w.gauge("dod_engine_in_flight_now", "Live requests.", 1.0);
        text.push_str(&w.finish());

        assert!(text.contains("# TYPE dod_engine_task_panics_total counter"));
        assert!(text.contains("dod_engine_task_panics_total{op=\"score\"} 2"));
        assert!(text.contains("# TYPE dod_engine_request_seconds summary"));
        assert!(text.contains("dod_engine_request_seconds{op=\"score\",quantile=\"0.99\"}"));
        assert!(text.contains("dod_engine_request_seconds_count{op=\"score\"} 3"));
        assert!(text.contains("# TYPE dod_engine_cost_calibration summary"));
        assert!(text.contains("dod_engine_in_flight_now 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn label_values_are_escaped_and_nonfinite_values_render() {
        let mut w = PromWriter::new();
        w.counter(
            "dod_x",
            "h",
            &[(&[("k".to_string(), "a\"b\\c\nd".to_string())][..], 1)],
        );
        w.gauge("dod_g", "h", f64::NAN);
        let text = w.finish();
        assert!(text.contains(r#"dod_x_total{k="a\"b\\c\nd"} 1"#));
        assert!(text.contains("dod_g NaN"));
    }
}
