//! The observability session of one command-line invocation: the
//! `--trace <path>` / `--profile` pair that `dod` and the bench binaries
//! share.

use crate::memory::MemoryRecorder;
use crate::recorder::{FanoutRecorder, Recorder};
use crate::{JsonlRecorder, Obs};
use std::sync::Arc;

/// The sinks one invocation asked for, behind one [`Obs`] handle.
///
/// `--trace <path>` streams every event to a [`JsonlRecorder`];
/// `--profile` buffers them in a [`MemoryRecorder`] for the summary
/// [`Session::finish`] renders. With neither the handle is
/// [`Obs::null`] and costs nothing.
pub struct Session {
    obs: Obs,
    memory: Option<Arc<MemoryRecorder>>,
    trace_path: Option<String>,
}

impl Session {
    /// Opens the sinks: creates the trace file at `trace` (if any) and
    /// the profile buffer if `profile`.
    pub fn open(trace: Option<&str>, profile: bool) -> Result<Session, String> {
        let memory = profile.then(|| Arc::new(MemoryRecorder::new()));
        let jsonl = match trace {
            Some(path) => {
                Some(JsonlRecorder::create(path).map_err(|e| format!("creating {path}: {e}"))?)
            }
            None => None,
        };
        let obs = match (jsonl, &memory) {
            (None, None) => Obs::null(),
            (Some(j), None) => Obs::new(Arc::new(j)),
            (None, Some(m)) => Obs::new(Arc::clone(m) as Arc<dyn Recorder>),
            (Some(j), Some(m)) => Obs::new(Arc::new(FanoutRecorder::new(vec![
                Box::new(j),
                Box::new(Arc::clone(m)),
            ]))),
        };
        Ok(Session {
            obs,
            memory,
            trace_path: trace.map(str::to_string),
        })
    }

    /// The handle to thread into runners and scopes.
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Flushes the sinks and returns what to print after the run's own
    /// output: the `--profile` summary, then the `--trace` notice.
    pub fn finish(self) -> String {
        self.obs.flush();
        let mut out = String::new();
        if let Some(mem) = &self.memory {
            out.push_str("\n-- profile --\n");
            out.push_str(&crate::render::render_summary(&mem.events()));
        }
        if let Some(path) = &self.trace_path {
            out.push_str(&format!("trace written to {path}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritable_trace_path_is_an_error() {
        let dir = std::env::temp_dir().join("dod-obs-session-no-such-dir");
        let path = dir.join("t.jsonl").to_string_lossy().into_owned();
        let err = Session::open(Some(&path), false).err().unwrap();
        assert!(err.starts_with(&format!("creating {path}: ")), "{err}");
    }
}
