//! The dead-letter queue: tasks that exhausted their retry budget.
//!
//! Pre-durability, a single task running out of retries aborted the
//! whole job (`JobError::TaskFailed`). With a checkpoint store
//! attached, the scheduler instead *diverts* the task here: the job
//! keeps going, finishes with [`crate::JobOutcome::PartialWithDlq`],
//! and each dead task is recorded as one JSONL line carrying enough
//! context to reproduce it — stage, task id, attempt history, and the
//! fault-plan seed that was active. `dod jobs redrive` flips the
//! `redrive` flag; on the next run the scheduler re-executes flagged
//! tasks through the normal retry machinery and resolves them out of
//! the queue when they complete.
//!
//! The queue is tiny (it holds failures, not data), so mutations
//! rewrite the whole file atomically instead of appending — a crash
//! can never leave a torn final line.

use dod_obs::json::{self, Json};

/// One dead task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlqEntry {
    /// Stage the task belonged to (`"map"` or `"reduce"`).
    pub stage: String,
    /// Task index within the stage.
    pub task: usize,
    /// Attempts consumed before the task was diverted.
    pub attempts: usize,
    /// Per-attempt failure descriptions, oldest first.
    pub errors: Vec<String>,
    /// Seed of the fault plan active when the task died, if any —
    /// enough to replay the failure deterministically.
    pub fault_seed: Option<u64>,
    /// Whether an operator asked for this task to be re-driven.
    pub redrive: bool,
}

impl DlqEntry {
    fn render(&self, out: &mut String) {
        out.push_str("{\"stage\":");
        json::push_str(out, &self.stage);
        out.push_str(&format!(
            ",\"task\":{},\"attempts\":{},\"errors\":[",
            self.task, self.attempts
        ));
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(out, e);
        }
        out.push_str("],\"fault_seed\":");
        match self.fault_seed {
            Some(seed) => out.push_str(&seed.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"redrive\":{}}}\n",
            if self.redrive { "true" } else { "false" }
        ));
    }

    fn decode(line: &str) -> Result<DlqEntry, String> {
        let doc = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let stage = doc
            .get("stage")
            .and_then(Json::as_str)
            .ok_or("missing stage")?
            .to_string();
        let task = doc
            .get("task")
            .and_then(Json::as_usize)
            .ok_or("missing task")?;
        let attempts = doc
            .get("attempts")
            .and_then(Json::as_usize)
            .ok_or("missing attempts")?;
        let errors = doc
            .get("errors")
            .and_then(Json::as_arr)
            .ok_or("missing errors")?
            .iter()
            .map(|e| e.as_str().map(str::to_string).ok_or("non-string error"))
            .collect::<Result<Vec<_>, _>>()?;
        let fault_seed = match doc.get("fault_seed") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("bad fault_seed")?),
        };
        let redrive = match doc.get("redrive") {
            Some(Json::Bool(b)) => *b,
            None => false,
            _ => return Err("bad redrive".to_string()),
        };
        Ok(DlqEntry {
            stage,
            task,
            attempts,
            errors,
            fault_seed,
            redrive,
        })
    }
}

/// The queue: an in-memory mirror of `dlq.jsonl`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeadLetterQueue {
    entries: Vec<DlqEntry>,
}

impl DeadLetterQueue {
    /// Parses the JSONL form. Any malformed line is a typed error for
    /// the whole queue — a half-readable DLQ could silently lose or
    /// resurrect dead tasks, so callers reset durable state instead.
    pub fn parse(text: &str) -> Result<DeadLetterQueue, String> {
        let mut entries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let entry = DlqEntry::decode(line).map_err(|e| format!("dlq line {}: {e}", idx + 1))?;
            entries.push(entry);
        }
        Ok(DeadLetterQueue { entries })
    }

    /// Renders the JSONL form (one entry per line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            entry.render(&mut out);
        }
        out
    }

    /// All entries, in divert order.
    pub fn entries(&self) -> &[DlqEntry] {
        &self.entries
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for a task, if it is dead.
    pub fn entry(&self, stage: &str, task: usize) -> Option<&DlqEntry> {
        self.entries
            .iter()
            .find(|e| e.stage == stage && e.task == task)
    }

    /// Appends a dead task (replacing any stale entry for the same
    /// task, e.g. a redriven task that died again).
    pub fn divert(&mut self, entry: DlqEntry) {
        self.resolve(&entry.stage, entry.task);
        self.entries.push(entry);
    }

    /// Removes a task's entry; returns whether one existed.
    pub fn resolve(&mut self, stage: &str, task: usize) -> bool {
        let before = self.entries.len();
        self.entries
            .retain(|e| !(e.stage == stage && e.task == task));
        self.entries.len() != before
    }

    /// Flags every entry for redrive; returns how many were flagged.
    pub fn mark_redrive_all(&mut self) -> usize {
        let mut marked = 0;
        for e in &mut self.entries {
            if !e.redrive {
                e.redrive = true;
                marked += 1;
            }
        }
        marked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(task: usize) -> DlqEntry {
        DlqEntry {
            stage: "map".to_string(),
            task,
            attempts: 3,
            errors: vec![
                "attempt 1: panic".to_string(),
                "attempt 2: block read error \"b\\\"ad\"".to_string(),
            ],
            fault_seed: Some(17),
            redrive: false,
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let mut q = DeadLetterQueue::default();
        q.divert(entry(3));
        q.divert(DlqEntry {
            stage: "reduce".to_string(),
            fault_seed: None,
            redrive: true,
            ..entry(0)
        });
        let back = DeadLetterQueue::parse(&q.render()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn divert_replaces_and_resolve_removes() {
        let mut q = DeadLetterQueue::default();
        q.divert(entry(3));
        q.divert(DlqEntry {
            attempts: 9,
            ..entry(3)
        });
        assert_eq!(q.entries().len(), 1);
        assert_eq!(q.entry("map", 3).unwrap().attempts, 9);
        assert!(q.resolve("map", 3));
        assert!(!q.resolve("map", 3));
        assert!(q.is_empty());
    }

    #[test]
    fn mark_redrive_flags_once() {
        let mut q = DeadLetterQueue::default();
        q.divert(entry(1));
        q.divert(entry(2));
        assert_eq!(q.mark_redrive_all(), 2);
        assert_eq!(q.mark_redrive_all(), 0);
    }

    #[test]
    fn corrupt_lines_are_typed_errors() {
        for bad in [
            "{",
            "{\"stage\":\"map\"}",
            "{\"stage\":5,\"task\":0,\"attempts\":0,\"errors\":[]}",
            "not json at all",
        ] {
            assert!(DeadLetterQueue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Truncations of a valid file never panic.
        let mut q = DeadLetterQueue::default();
        q.divert(entry(0));
        let text = q.render();
        for cut in 0..text.len() {
            let _ = DeadLetterQueue::parse(&text[..cut]);
        }
    }
}
