//! Replays a JSONL trace back into [`Event`]s.
//!
//! Each line is read by [`crate::json::parse`]; this module layers the
//! trace schema on top — the keys [`crate::JsonlRecorder`] writes, in
//! any order, nothing else — so hand-edited or externally produced
//! traces also load.

use std::borrow::Cow;
use std::fs;
use std::path::Path;

use crate::event::{Event, EventKind, Value};
use crate::json::{self, Json};

/// A parse failure, with the offending line (1-based) when known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number, 0 when not tied to a line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parses a whole JSONL document (blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ReplayError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let event = parse_line(line).map_err(|message| ReplayError {
            line: idx + 1,
            message,
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Reads and parses a trace file.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<Event>, ReplayError> {
    let text = fs::read_to_string(path.as_ref()).map_err(|e| ReplayError {
        line: 0,
        message: format!("cannot read {}: {e}", path.as_ref().display()),
    })?;
    parse_jsonl(&text)
}

/// Parses one JSONL line into an event: [`json::parse`], then the
/// trace schema on the resulting object.
pub fn parse_line(line: &str) -> Result<Event, String> {
    let Json::Obj(fields) = json::parse(line).map_err(|e| e.to_string())? else {
        return Err("expected an object".to_string());
    };
    let mut name: Option<String> = None;
    let mut kind_tag: Option<String> = None;
    let mut nanos: Option<u64> = None;
    let mut delta: Option<u64> = None;
    let mut value: Option<f64> = None;
    let mut labels: Vec<(Cow<'static, str>, Value)> = Vec::new();
    for (key, v) in fields {
        match key.as_str() {
            "name" => name = Some(string(v)?),
            "kind" => kind_tag = Some(string(v)?),
            "nanos" => nanos = Some(v.as_u64().ok_or("expected a non-negative integer")?),
            "delta" => delta = Some(v.as_u64().ok_or("expected a non-negative integer")?),
            "value" => value = Some(float(&v)?),
            "labels" => {
                let Json::Obj(pairs) = v else {
                    return Err("\"labels\" must be an object".to_string());
                };
                for (label_key, label_value) in pairs {
                    labels.push((Cow::Owned(label_key), label(label_value)?));
                }
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    let name = name.ok_or("missing \"name\"")?;
    let kind = match kind_tag.as_deref() {
        Some("span") => EventKind::Span {
            nanos: nanos.ok_or("span missing \"nanos\"")?,
        },
        Some("counter") => EventKind::Counter {
            delta: delta.ok_or("counter missing \"delta\"")?,
        },
        Some("observe") => EventKind::Observe {
            value: value.ok_or("observe missing \"value\"")?,
        },
        Some("mark") => EventKind::Mark,
        Some(other) => return Err(format!("unknown kind {other:?}")),
        None => return Err("missing \"kind\"".to_string()),
    };
    Ok(Event {
        name: Cow::Owned(name),
        kind,
        labels,
    })
}

fn string(v: Json) -> Result<String, String> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err("expected a string".to_string()),
    }
}

/// A label value. A number is the variant it was written from: only
/// `F64` carries a `.` or exponent.
fn label(v: Json) -> Result<Value, String> {
    Ok(if let Some(u) = v.as_u64() {
        Value::U64(u)
    } else if let Some(i) = v.as_i64() {
        Value::I64(i)
    } else if let Json::Str(s) = v {
        Value::Str(Cow::Owned(s))
    } else {
        Value::F64(float(&v)?)
    })
}

/// A number, or the `null` the writer emits for a non-finite one.
fn float(v: &Json) -> Result<f64, String> {
    match v {
        Json::Null => Ok(f64::NAN),
        _ => v.as_f64().ok_or_else(|| "expected a number".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_each_kind() {
        let text = concat!(
            "{\"name\":\"s\",\"kind\":\"span\",\"nanos\":12,\"labels\":{\"stage\":\"map\"}}\n",
            "{\"name\":\"c\",\"kind\":\"counter\",\"delta\":3,\"labels\":{\"p\":7}}\n",
            "{\"name\":\"o\",\"kind\":\"observe\",\"value\":2.5,\"labels\":{}}\n",
            "\n",
            "{\"name\":\"m\",\"kind\":\"mark\",\"labels\":{\"neg\":-4,\"rate\":0.5}}\n",
        );
        let events = parse_jsonl(text).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].span_nanos(), Some(12));
        assert_eq!(
            events[0].label("stage").and_then(Value::as_str),
            Some("map")
        );
        assert_eq!(events[1].counter_delta(), Some(3));
        assert_eq!(events[1].label("p"), Some(&Value::U64(7)));
        assert_eq!(events[2].observed(), Some(2.5));
        assert_eq!(events[3].kind, EventKind::Mark);
        assert_eq!(events[3].label("neg"), Some(&Value::I64(-4)));
        assert_eq!(events[3].label("rate"), Some(&Value::F64(0.5)));
    }

    #[test]
    fn tolerates_whitespace_and_reordered_keys() {
        let line = r#" { "labels": { "a": 1 } , "kind": "span", "nanos": 9, "name": "x" } "#;
        let e = parse_line(line.trim()).unwrap();
        assert_eq!(e.name, "x");
        assert_eq!(e.span_nanos(), Some(9));
        assert_eq!(e.label("a"), Some(&Value::U64(1)));
    }

    #[test]
    fn escapes_round_trip() {
        let line = r#"{"name":"q\"uote\n","kind":"mark","labels":{"k":"tab\there é"}}"#;
        let e = parse_line(line).unwrap();
        assert_eq!(e.name, "q\"uote\n");
        assert_eq!(e.label("k").and_then(Value::as_str), Some("tab\there é"));
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_jsonl("{\"name\":\"ok\",\"kind\":\"mark\",\"labels\":{}}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn histogram_events_round_trip_through_jsonl() {
        use crate::jsonl::event_to_json;
        use crate::memory::MemoryRecorder;
        use crate::recorder::Recorder;

        // Record a realistic mix of spans and observations…
        let original = MemoryRecorder::new();
        for i in 1..=200u64 {
            original.record(
                Event::new("engine.request", EventKind::Span { nanos: i * 17_000 })
                    .with_label("op", "score")
                    .with_label("request", i),
            );
            original.record(Event::new(
                "engine.cost.calibration",
                EventKind::Observe {
                    value: (i % 7) as f64,
                },
            ));
        }
        original.record(Event::new(
            "engine.cost.calibration",
            EventKind::Observe { value: 0.125 },
        ));

        // …write them as JSONL, replay, and re-record into a fresh sink.
        let text: String = original
            .events()
            .iter()
            .map(|e| format!("{}\n", event_to_json(e)))
            .collect();
        let replayed = MemoryRecorder::new();
        for event in parse_jsonl(&text).unwrap() {
            replayed.record(event);
        }

        // The snapshots are identical, event for event…
        assert_eq!(original.events(), replayed.events());
        // …and so are the derived percentile summaries.
        assert_eq!(
            original.span_histogram("engine.request").summary(),
            replayed.span_histogram("engine.request").summary(),
        );
        assert_eq!(
            original
                .observation_histogram("engine.cost.calibration")
                .summary(),
            replayed
                .observation_histogram("engine.cost.calibration")
                .summary(),
        );
        assert_eq!(original.span_histogram("engine.request").count(), 200);
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(parse_line(r#"{"kind":"mark","labels":{}}"#).is_err());
        assert!(parse_line(r#"{"name":"x","labels":{}}"#).is_err());
        assert!(parse_line(r#"{"name":"x","kind":"span","labels":{}}"#).is_err());
        // One value per line: bytes after the closing brace are an error,
        // and the file-level error still names the line.
        let trailing = r#"{"name":"x","kind":"mark","labels":{}} trailing"#;
        assert!(parse_line(trailing).is_err());
        let good = r#"{"name":"x","kind":"mark","labels":{}}"#;
        let err = parse_jsonl(&format!("{good}\n\n{trailing}\n")).unwrap_err();
        assert_eq!(err.line, 3);
    }
}
