//! In-memory spans around every call from the harness into the program.
//!
//! A span is (name, start, end, parent, op id). Spans are only pushed to
//! a `Vec` while the run measures and are written as JSONL when it ends.
//! The log can be switched off between operations, so a traced run can
//! interleave traced and untraced operations of the same script and
//! report the difference as the tracing overhead.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Spans of one operation (say, the three requests of a churn
    /// cycle) share an id.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanLog {
    origin: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
    /// The innermost open span: the parent of the next one.
    open: Option<usize>,
}

/// Handle of an open span; `None` while the log is off.
pub struct Open(Option<(usize, Option<usize>)>);

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open,
            op,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some((index, self.open.replace(index))))
    }

    pub fn exit(&mut self, span: Open) {
        if let Open(Some((index, outer))) = span {
            self.spans[index].end_ns = self.now_ns();
            self.open = outer;
        }
    }

    /// Runs `call` inside a span.
    pub fn wrap<T>(&mut self, name: &'static str, op: u64, call: impl FnOnce() -> T) -> T {
        let span = self.enter(name, op);
        let out = call();
        self.exit(span);
        out
    }

    /// Runs `call` inside a span and also returns how long it took, in ms.
    pub fn timed<T>(&mut self, name: &'static str, op: u64, call: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = self.wrap(name, op, call);
        (out, start.elapsed().as_secs_f64() * 1e3)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }

    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut out)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize_one_object_per_line() {
        let mut log = SpanLog::new(true);
        let cycle = log.enter("cycle", 7);
        log.wrap("dod-cli.insert", 7, || ());
        log.wrap("dod-cli.score", 7, || ());
        log.exit(cycle);
        log.wrap("dod.run", 8, || ());
        assert_eq!(log.len(), 4);

        let mut text = Vec::new();
        log.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"id\":0,\"name\":\"cycle\",\"parent\":null,\"op\":7,"));
        assert!(
            lines[1].starts_with("{\"id\":1,\"name\":\"dod-cli.insert\",\"parent\":0,\"op\":7,")
        );
        assert!(lines[2].contains("\"parent\":0"));
        assert!(lines[3].starts_with("{\"id\":3,\"name\":\"dod.run\",\"parent\":null,\"op\":8,"));
        for (line, span) in lines.iter().zip(&log.spans) {
            assert!(line.ends_with('}'));
            assert!(span.end_ns >= span.start_ns);
        }
    }

    #[test]
    fn a_switched_off_log_records_nothing() {
        let mut log = SpanLog::new(false);
        assert_eq!(log.wrap("dod.run", 1, || 5), 5);
        log.enabled = true;
        log.wrap("dod.run", 2, || ());
        log.enabled = false;
        log.wrap("dod.run", 3, || ());
        assert_eq!(log.len(), 1);
        assert_eq!(log.spans[0].op, 2);
    }
}
