//! JSON Lines recorder: one event per line, hand-rolled (no serde).
//!
//! Line format (stable, consumed by [`crate::replay`]):
//!
//! ```json
//! {"name":"mapreduce.task","kind":"span","nanos":12345,"labels":{"stage":"map","task":0}}
//! {"name":"detect.distance_evals","kind":"counter","delta":99,"labels":{"partition":2}}
//! {"name":"mapreduce.shuffle.bytes","kind":"observe","value":4096.0,"labels":{}}
//! {"name":"dod.plan.partition","kind":"mark","labels":{"algorithm":"cell_based"}}
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::{Event, EventKind, Value};
use crate::json::{write_f64 as write_json_f64, write_str as write_json_string};
use crate::recorder::Recorder;
use crate::sync::lock_recover;

/// Writes each event as one JSON object per line.
pub struct JsonlRecorder {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlRecorder {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlRecorder::from_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer (tests use `Vec<u8>` via a cursor).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlRecorder {
            writer: Mutex::new(BufWriter::new(writer)),
        }
    }

    fn write_event(out: &mut impl Write, event: &Event) -> io::Result<()> {
        out.write_all(b"{\"name\":")?;
        write_json_string(out, &event.name)?;
        match event.kind {
            EventKind::Span { nanos } => write!(out, ",\"kind\":\"span\",\"nanos\":{nanos}")?,
            EventKind::Counter { delta } => write!(out, ",\"kind\":\"counter\",\"delta\":{delta}")?,
            EventKind::Observe { value } => {
                out.write_all(b",\"kind\":\"observe\",\"value\":")?;
                write_json_f64(out, value)?;
            }
            EventKind::Mark => out.write_all(b",\"kind\":\"mark\"")?,
        }
        out.write_all(b",\"labels\":{")?;
        for (i, (key, value)) in event.labels.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write_json_string(out, key)?;
            out.write_all(b":")?;
            match value {
                Value::Str(s) => write_json_string(out, s)?,
                Value::U64(v) => write!(out, "{v}")?,
                Value::I64(v) => write!(out, "{v}")?,
                Value::F64(v) => write_json_f64(out, *v)?,
            }
        }
        out.write_all(b"}}\n")
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: Event) {
        let mut writer = lock_recover(&self.writer);
        // Ignore I/O errors at emit time; a broken trace file must not
        // take down the pipeline run it observes.
        let _ = Self::write_event(&mut *writer, &event);
    }

    fn flush(&self) {
        let _ = lock_recover(&self.writer).flush();
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Serializes one event to its JSONL line (no trailing newline) — the
/// exact format [`JsonlRecorder`] writes and [`crate::replay`] parses.
/// Used by the flight recorder to dump its ring as replayable JSONL.
pub fn event_to_json(event: &Event) -> String {
    let mut buf = Vec::new();
    JsonlRecorder::write_event(&mut buf, event).expect("writing to a Vec cannot fail");
    buf.pop(); // trailing '\n'
    String::from_utf8(buf).expect("writer emits valid UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Shared byte sink so the test can inspect what was written.
    #[derive(Clone, Default)]
    struct CaptureBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for CaptureBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emits_one_escaped_json_object_per_line() {
        let buf = CaptureBuf::default();
        let rec = JsonlRecorder::from_writer(Box::new(buf.clone()));
        rec.record(
            Event::new("a.b", EventKind::Span { nanos: 5 })
                .with_label("stage", "map")
                .with_label("task", 1u64),
        );
        rec.record(Event::new("quote\"d", EventKind::Mark).with_label("f", 0.5f64));
        rec.record(Event::new("int_float", EventKind::Observe { value: 3.0 }));
        rec.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"name":"a.b","kind":"span","nanos":5,"labels":{"stage":"map","task":1}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"name":"quote\"d","kind":"mark","labels":{"f":0.5}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"name":"int_float","kind":"observe","value":3.0,"labels":{}}"#
        );
    }

    #[test]
    fn non_finite_values_serialize_as_null_not_bare_nan() {
        // Regression: `format!("{}", f64::NAN)` yields the bare token
        // `NaN`, which is not JSON. Observe values and f64 labels must
        // both degrade to `null` so every emitted line stays parseable.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = event_to_json(
                &Event::new("drift", EventKind::Observe { value: v }).with_label("ratio", v),
            );
            assert_eq!(
                line,
                r#"{"name":"drift","kind":"observe","value":null,"labels":{"ratio":null}}"#
            );
            crate::replay::parse_line(&line).expect("null round-trips through replay");
        }
    }

    #[test]
    fn event_to_json_matches_recorder_output() {
        let event = Event::new("a.b", EventKind::Counter { delta: 9 }).with_label("p", 3u64);
        let buf = CaptureBuf::default();
        let rec = JsonlRecorder::from_writer(Box::new(buf.clone()));
        rec.record(event.clone());
        rec.flush();
        let written = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(written.trim_end(), event_to_json(&event));
    }
}
