//! Durable job state: manifests, per-task completion records, resume.
//!
//! A [`CheckpointStore`] persists one job's progress under
//! `<root>/<job id>/`:
//!
//! * `manifest.json` — job shape (`map_tasks`, `reducers`) plus an
//!   opaque `tag` fingerprinting everything else the outputs depend on
//!   (parameters, plan, input). A manifest that does not match the job
//!   being run means the prior state answers a *different* question, so
//!   the store wipes it and starts fresh rather than silently resuming.
//! * `map-<t>.json` / `reduce-<t>.json` — one record per completed
//!   task: the winning attempt's duration and its full output, encoded
//!   via [`Durable`]. Reduce records also carry the shuffle fingerprint
//!   (hash of which map tasks fed them), so a resume where the map
//!   completion set changed — e.g. after a DLQ redrive — invalidates
//!   stale reduce state instead of mixing epochs.
//! * `dlq.jsonl` — the dead-letter queue (see [`crate::dlq`]).
//!
//! Every write goes through [`dod_obs::write_atomic`] (temp file +
//! fsync + rename), so a crash at any byte leaves either the previous
//! record or the new one, never a torn file. Corruption that slips
//! through anyway (truncated by an operator, bit rot) is handled at
//! read time: a record that fails to parse is discarded and its task
//! re-runs; a manifest or DLQ that fails to parse resets the whole
//! store with a typed [`CheckpointError`] surfaced via
//! [`CheckpointStore::resume_state`]. No parse failure panics, and no
//! partial resume happens silently.
//!
//! Values are written with [`dod_obs::json`]'s primitives and read
//! back through its one reader. Floats round-trip bit-exactly: Rust's
//! shortest `Display` repr is re-parsed to the identical bits (rule 3
//! of the reader's contract), which is what makes resumed runs
//! byte-identical to uninterrupted ones.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use dod_obs::json::{self, Json};
use dod_obs::sync::lock_recover;
use dod_obs::write_atomic;

use crate::dlq::{DeadLetterQueue, DlqEntry};

/// Current on-disk format version for manifests and task records.
const FORMAT_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Durable encoding
// ---------------------------------------------------------------------

/// A value that can round-trip through a checkpoint record.
///
/// `decode(encode(v)) == v` must hold bit-exactly — resumed runs are
/// asserted byte-identical to uninterrupted ones, so lossy encodings
/// (e.g. floats through a fixed number of digits) are not acceptable.
pub trait Durable: Sized {
    /// Appends the JSON encoding of `self`.
    fn encode(&self, out: &mut String);
    /// Decodes a parsed JSON value; `None` on any shape mismatch.
    fn decode(v: &Json) -> Option<Self>;
}

impl Durable for u32 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64().and_then(|n| u32::try_from(n).ok())
    }
}

impl Durable for u64 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

impl Durable for usize {
    fn encode(&self, out: &mut String) {
        out.push_str(&(*self as u64).to_string());
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_usize()
    }
}

impl Durable for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn decode(v: &Json) -> Option<Self> {
        match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Durable for Duration {
    fn encode(&self, out: &mut String) {
        out.push_str(&(self.as_nanos() as u64).to_string());
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64().map(Duration::from_nanos)
    }
}

impl Durable for f64 {
    fn encode(&self, out: &mut String) {
        if self.is_finite() {
            // Shortest round-trip repr: re-parsing yields identical bits.
            out.push_str(&format!("{self}"));
        } else if self.is_nan() {
            out.push_str("\"NaN\"");
        } else if *self > 0.0 {
            out.push_str("\"inf\"");
        } else {
            out.push_str("\"-inf\"");
        }
    }
    fn decode(v: &Json) -> Option<Self> {
        match v.as_str() {
            None => v.as_f64(),
            Some("NaN") => Some(f64::NAN),
            Some("inf") => Some(f64::INFINITY),
            Some("-inf") => Some(f64::NEG_INFINITY),
            Some(_) => None,
        }
    }
}

impl Durable for String {
    fn encode(&self, out: &mut String) {
        json::push_str(out, self);
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl<T: Durable> Durable for Vec<T> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.encode(out);
        }
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::decode).collect()
    }
}

/// `None` is `null`; `Some(v)` is `v`'s encoding.
impl<T: Durable> Durable for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
    fn decode(v: &Json) -> Option<Self> {
        match v {
            Json::Null => Some(None),
            v => T::decode(v).map(Some),
        }
    }
}

impl<A: Durable, B: Durable> Durable for (A, B) {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.0.encode(out);
        out.push(',');
        self.1.encode(out);
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        match v.as_arr()? {
            [a, b] => Some((A::decode(a)?, B::decode(b)?)),
            _ => None,
        }
    }
}

impl<A: Durable, B: Durable, C: Durable> Durable for (A, B, C) {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.0.encode(out);
        out.push(',');
        self.1.encode(out);
        out.push(',');
        self.2.encode(out);
        out.push(']');
    }
    fn decode(v: &Json) -> Option<Self> {
        match v.as_arr()? {
            [a, b, c] => Some((A::decode(a)?, B::decode(b)?, C::decode(c)?)),
            _ => None,
        }
    }
}

/// FNV-1a over the little-endian bytes of a `u64` sequence; used for
/// shuffle fingerprints (which map tasks fed the reduce stage) and plan
/// tags.
pub fn fingerprint_u64s(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// Errors and resume state
// ---------------------------------------------------------------------

/// A typed durability failure. Corruption and mismatches never panic
/// and never silently resume: they surface here and the store falls
/// back to a from-scratch run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing durable state.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// A manifest or DLQ file that failed to parse.
    Corrupt {
        /// The offending path.
        path: String,
        /// What failed to parse.
        detail: String,
    },
    /// A manifest that parsed but describes a different job shape.
    Mismatch {
        /// The manifest field that disagreed.
        field: &'static str,
        /// Expected vs. found, rendered.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint io error at {path}: {detail}")
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint file {path}: {detail}")
            }
            CheckpointError::Mismatch { field, detail } => {
                write!(f, "checkpoint manifest mismatch on {field}: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What [`CheckpointStore::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeState {
    /// No prior state: first run of this job.
    Fresh,
    /// A matching manifest: completed tasks will be restored.
    Resumable,
    /// Prior state existed but was corrupt or described a different
    /// job; it was wiped and the run starts from scratch. The typed
    /// cause is preserved for observability.
    Reset(CheckpointError),
}

/// The shape a checkpoint must match to be resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFingerprint {
    /// Number of map tasks (input blocks).
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reducers: usize,
    /// Opaque fingerprint of everything else the outputs depend on
    /// (parameters, plan, input identity).
    pub tag: String,
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Durable per-job state: manifest, task records, dead-letter queue.
///
/// The store is `Sync`; the job scheduler calls [`save_task`] from the
/// committing worker under the scheduler lock, so records are persisted
/// *before* a completion becomes visible — a crash immediately after a
/// commit always finds the commit on disk.
///
/// Write failures do not panic mid-stage: the first error is latched
/// and surfaced at stage end via [`take_write_error`], turning the job
/// into a typed `JobError::Checkpoint` instead of a silent
/// half-durable run.
///
/// [`save_task`]: CheckpointStore::save_task
/// [`take_write_error`]: CheckpointStore::take_write_error
pub struct CheckpointStore {
    dir: PathBuf,
    job_id: String,
    resume: ResumeState,
    dlq: Mutex<DeadLetterQueue>,
    write_error: Mutex<Option<String>>,
}

impl CheckpointStore {
    /// Opens (or creates) the store for `job_id` under `root`.
    ///
    /// Only real filesystem failures return `Err`; corrupt or
    /// mismatched prior state is wiped and reported through
    /// [`resume_state`](Self::resume_state) as [`ResumeState::Reset`].
    pub fn open(
        root: &Path,
        job_id: &str,
        fingerprint: &JobFingerprint,
    ) -> Result<CheckpointStore, CheckpointError> {
        if job_id.is_empty()
            || job_id
                .chars()
                .any(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
            || job_id.starts_with('.')
        {
            return Err(CheckpointError::Io {
                path: job_id.to_string(),
                detail: "job id must be non-empty [A-Za-z0-9._-] and not start with '.'"
                    .to_string(),
            });
        }
        let dir = root.join(job_id);
        fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io {
            path: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        let manifest_path = dir.join("manifest.json");
        let mut resume = match fs::read_to_string(&manifest_path) {
            Ok(text) => match check_manifest(&text, job_id, fingerprint) {
                Ok(()) => ResumeState::Resumable,
                Err(e) => ResumeState::Reset(e),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => ResumeState::Fresh,
            // Non-UTF-8 bytes are corruption (a torn or scribbled-over
            // file), not an environment failure: reset, don't error.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                ResumeState::Reset(CheckpointError::Corrupt {
                    path: manifest_path.display().to_string(),
                    detail: e.to_string(),
                })
            }
            Err(e) => {
                return Err(CheckpointError::Io {
                    path: manifest_path.display().to_string(),
                    detail: e.to_string(),
                })
            }
        };
        // A resumable manifest still needs a readable DLQ; a corrupt
        // queue could silently resurrect or lose dead tasks, so it
        // resets the whole store.
        let mut dlq = DeadLetterQueue::default();
        if resume == ResumeState::Resumable {
            let dlq_path = dir.join("dlq.jsonl");
            match fs::read_to_string(&dlq_path) {
                Ok(text) => match DeadLetterQueue::parse(&text) {
                    Ok(q) => dlq = q,
                    Err(detail) => {
                        resume = ResumeState::Reset(CheckpointError::Corrupt {
                            path: dlq_path.display().to_string(),
                            detail,
                        })
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    resume = ResumeState::Reset(CheckpointError::Corrupt {
                        path: dlq_path.display().to_string(),
                        detail: e.to_string(),
                    })
                }
                Err(e) => {
                    return Err(CheckpointError::Io {
                        path: dlq_path.display().to_string(),
                        detail: e.to_string(),
                    })
                }
            }
        }
        if resume != ResumeState::Resumable {
            // Fresh or reset: no prior record may survive (a stale task
            // file next to a fresh manifest would be a silent partial
            // resume), and the manifest is (re)written.
            wipe_dir(&dir)?;
            let manifest = render_manifest(job_id, fingerprint);
            write_atomic(&manifest_path, manifest.as_bytes()).map_err(|e| CheckpointError::Io {
                path: manifest_path.display().to_string(),
                detail: e.to_string(),
            })?;
        }
        Ok(CheckpointStore {
            dir,
            job_id: job_id.to_string(),
            resume,
            dlq: Mutex::new(dlq),
            write_error: Mutex::new(None),
        })
    }

    /// The job id this store was opened for.
    pub fn job_id(&self) -> &str {
        &self.job_id
    }

    /// What `open` found on disk.
    pub fn resume_state(&self) -> &ResumeState {
        &self.resume
    }

    /// Loads a completed task record, if one exists and is valid.
    ///
    /// Any parse failure or field mismatch (wrong stage/task/shuffle
    /// fingerprint) discards the record — the task simply re-runs.
    pub fn load_task<T: Durable>(
        &self,
        stage: &str,
        task: usize,
        shuffle_fp: u64,
    ) -> Option<(Duration, T)> {
        if self.resume != ResumeState::Resumable {
            return None;
        }
        let path = self.task_path(stage, task);
        let text = fs::read_to_string(&path).ok()?;
        match decode_task_record(&text, stage, task, shuffle_fp) {
            Some(v) => Some(v),
            None => {
                // Corrupt or stale: drop it so the slot is re-run and
                // re-persisted cleanly.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists a completed task record atomically.
    ///
    /// Errors are latched (first one wins) rather than returned, so the
    /// committing worker does not have to unwind; the job surfaces them
    /// at stage end via [`take_write_error`](Self::take_write_error).
    pub fn save_task<T: Durable>(
        &self,
        stage: &str,
        task: usize,
        shuffle_fp: u64,
        duration: Duration,
        value: &T,
    ) {
        let mut out = String::with_capacity(128);
        out.push_str(&format!("{{\"v\":{FORMAT_VERSION},\"stage\":"));
        json::push_str(&mut out, stage);
        out.push_str(&format!(
            ",\"task\":{task},\"fp\":{shuffle_fp},\"nanos\":{}",
            duration.as_nanos() as u64
        ));
        out.push_str(",\"value\":");
        value.encode(&mut out);
        out.push('}');
        let path = self.task_path(stage, task);
        if let Err(e) = write_atomic(&path, out.as_bytes()) {
            self.latch_write_error(&path, &e);
        }
    }

    /// A snapshot of the dead-letter queue.
    pub fn dlq_snapshot(&self) -> Vec<DlqEntry> {
        lock_recover(&self.dlq).entries().to_vec()
    }

    /// Appends an entry to the DLQ and persists it.
    pub fn dlq_divert(&self, entry: DlqEntry) {
        let mut q = lock_recover(&self.dlq);
        q.divert(entry);
        self.persist_dlq(&q);
    }

    /// Removes a resolved entry (its task completed on redrive) and
    /// persists the queue. Returns whether an entry was removed.
    pub fn dlq_resolve(&self, stage: &str, task: usize) -> bool {
        let mut q = lock_recover(&self.dlq);
        let removed = q.resolve(stage, task);
        if removed {
            self.persist_dlq(&q);
        }
        removed
    }

    /// Takes the first latched write error, if any occurred.
    pub fn take_write_error(&self) -> Option<String> {
        lock_recover(&self.write_error).take()
    }

    fn persist_dlq(&self, q: &DeadLetterQueue) {
        let path = self.dir.join("dlq.jsonl");
        if let Err(e) = write_atomic(&path, q.render().as_bytes()) {
            self.latch_write_error(&path, &e);
        }
    }

    fn latch_write_error(&self, path: &Path, e: &std::io::Error) {
        let mut slot = lock_recover(&self.write_error);
        if slot.is_none() {
            *slot = Some(format!("{}: {e}", path.display()));
        }
    }

    fn task_path(&self, stage: &str, task: usize) -> PathBuf {
        self.dir.join(format!("{stage}-{task}.json"))
    }
}

fn render_manifest(job_id: &str, fp: &JobFingerprint) -> String {
    let mut out = String::with_capacity(96);
    out.push_str(&format!("{{\"v\":{FORMAT_VERSION},\"job_id\":"));
    json::push_str(&mut out, job_id);
    out.push_str(&format!(
        ",\"map_tasks\":{},\"reducers\":{},\"tag\":",
        fp.map_tasks, fp.reducers
    ));
    json::push_str(&mut out, &fp.tag);
    out.push_str("}\n");
    out
}

fn check_manifest(text: &str, job_id: &str, fp: &JobFingerprint) -> Result<(), CheckpointError> {
    let corrupt = |detail: String| CheckpointError::Corrupt {
        path: "manifest.json".to_string(),
        detail,
    };
    let doc = json::parse(text).map_err(|e| corrupt(e.to_string()))?;
    let field = |name: &'static str| {
        doc.get(name)
            .ok_or_else(|| corrupt(format!("missing field {name:?}")))
    };
    let version = field("v")?
        .as_u64()
        .ok_or_else(|| corrupt("field \"v\" is not an integer".to_string()))?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::Mismatch {
            field: "v",
            detail: format!("expected {FORMAT_VERSION}, found {version}"),
        });
    }
    let checks: [(&'static str, String, Option<String>); 4] = [
        (
            "job_id",
            job_id.to_string(),
            field("job_id")?.as_str().map(str::to_string),
        ),
        (
            "map_tasks",
            fp.map_tasks.to_string(),
            field("map_tasks")?.as_u64().map(|v| v.to_string()),
        ),
        (
            "reducers",
            fp.reducers.to_string(),
            field("reducers")?.as_u64().map(|v| v.to_string()),
        ),
        (
            "tag",
            fp.tag.clone(),
            field("tag")?.as_str().map(str::to_string),
        ),
    ];
    for (name, expected, found) in checks {
        let found = found.ok_or_else(|| corrupt(format!("field {name:?} has wrong type")))?;
        if found != expected {
            return Err(CheckpointError::Mismatch {
                field: name,
                detail: format!("expected {expected:?}, found {found:?}"),
            });
        }
    }
    Ok(())
}

fn decode_task_record<T: Durable>(
    text: &str,
    stage: &str,
    task: usize,
    shuffle_fp: u64,
) -> Option<(Duration, T)> {
    let doc = json::parse(text).ok()?;
    if doc.get("v")?.as_u64()? != FORMAT_VERSION
        || doc.get("stage")?.as_str()? != stage
        || doc.get("task")?.as_usize()? != task
        || doc.get("fp")?.as_u64()? != shuffle_fp
    {
        return None;
    }
    let nanos = doc.get("nanos")?.as_u64()?;
    let value = T::decode(doc.get("value")?)?;
    Some((Duration::from_nanos(nanos), value))
}

fn wipe_dir(dir: &Path) -> Result<(), CheckpointError> {
    let entries = fs::read_dir(dir).map_err(|e| CheckpointError::Io {
        path: dir.display().to_string(),
        detail: e.to_string(),
    })?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_file() {
            fs::remove_file(&path).map_err(|e| CheckpointError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            })?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Inspection (for `dod jobs` and EngineHealth gauges)
// ---------------------------------------------------------------------

/// Summary of one job's durable state, for `dod jobs list`/`inspect`.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Job id (directory name under the checkpoint root).
    pub job_id: String,
    /// Total map tasks, from the manifest.
    pub map_tasks: usize,
    /// Total reduce tasks, from the manifest.
    pub reducers: usize,
    /// Opaque job tag, from the manifest.
    pub tag: String,
    /// Map-task completion records on disk.
    pub map_done: usize,
    /// Reduce-task completion records on disk.
    pub reduce_done: usize,
    /// Dead-letter entries.
    pub dlq: Vec<DlqEntry>,
    /// Age of the newest durable write, when the filesystem reports
    /// modification times.
    pub last_write_age: Option<Duration>,
}

/// Summarizes one job directory. Corrupt manifests and queues return
/// the typed error instead of panicking.
pub fn job_summary(root: &Path, job_id: &str) -> Result<JobSummary, CheckpointError> {
    let dir = root.join(job_id);
    let manifest_path = dir.join("manifest.json");
    let text = fs::read_to_string(&manifest_path).map_err(|e| CheckpointError::Io {
        path: manifest_path.display().to_string(),
        detail: e.to_string(),
    })?;
    let corrupt = |detail: String| CheckpointError::Corrupt {
        path: manifest_path.display().to_string(),
        detail,
    };
    let doc = json::parse(&text).map_err(|e| corrupt(e.to_string()))?;
    let map_tasks = doc
        .get("map_tasks")
        .and_then(Json::as_usize)
        .ok_or_else(|| corrupt("missing map_tasks".to_string()))?;
    let reducers = doc
        .get("reducers")
        .and_then(Json::as_usize)
        .ok_or_else(|| corrupt("missing reducers".to_string()))?;
    let tag = doc
        .get("tag")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt("missing tag".to_string()))?
        .to_string();
    let dlq_path = dir.join("dlq.jsonl");
    let dlq = match fs::read_to_string(&dlq_path) {
        Ok(text) => DeadLetterQueue::parse(&text)
            .map_err(|detail| CheckpointError::Corrupt {
                path: dlq_path.display().to_string(),
                detail,
            })?
            .entries()
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(CheckpointError::Io {
                path: dlq_path.display().to_string(),
                detail: e.to_string(),
            })
        }
    };
    let mut map_done = 0;
    let mut reduce_done = 0;
    let mut newest: Option<SystemTime> = None;
    if let Ok(entries) = fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("map-") && name.ends_with(".json") {
                map_done += 1;
            } else if name.starts_with("reduce-") && name.ends_with(".json") {
                reduce_done += 1;
            }
            if let Ok(modified) = entry.metadata().and_then(|m| m.modified()) {
                newest = Some(newest.map_or(modified, |n| n.max(modified)));
            }
        }
    }
    let last_write_age = newest.and_then(|n| SystemTime::now().duration_since(n).ok());
    Ok(JobSummary {
        job_id: job_id.to_string(),
        map_tasks,
        reducers,
        tag,
        map_done,
        reduce_done,
        dlq,
        last_write_age,
    })
}

/// Lists every job directory under `root`, skipping entries that are
/// not job directories. Corrupt jobs are skipped here (use
/// [`job_summary`] directly to see the typed error).
pub fn list_jobs(root: &Path) -> Result<Vec<JobSummary>, CheckpointError> {
    let entries = fs::read_dir(root).map_err(|e| CheckpointError::Io {
        path: root.display().to_string(),
        detail: e.to_string(),
    })?;
    let mut jobs = Vec::new();
    for entry in entries.flatten() {
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name();
        let job_id = name.to_string_lossy().to_string();
        if let Ok(summary) = job_summary(root, &job_id) {
            jobs.push(summary);
        }
    }
    jobs.sort_by(|a, b| a.job_id.cmp(&b.job_id));
    Ok(jobs)
}

/// Marks every DLQ entry of `job_id` for redrive. Returns how many
/// entries were marked.
pub fn mark_redrive(root: &Path, job_id: &str) -> Result<usize, CheckpointError> {
    let dlq_path = root.join(job_id).join("dlq.jsonl");
    let text = match fs::read_to_string(&dlq_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => {
            return Err(CheckpointError::Io {
                path: dlq_path.display().to_string(),
                detail: e.to_string(),
            })
        }
    };
    let mut q = DeadLetterQueue::parse(&text).map_err(|detail| CheckpointError::Corrupt {
        path: dlq_path.display().to_string(),
        detail,
    })?;
    let marked = q.mark_redrive_all();
    if marked > 0 {
        write_atomic(&dlq_path, q.render().as_bytes()).map_err(|e| CheckpointError::Io {
            path: dlq_path.display().to_string(),
            detail: e.to_string(),
        })?;
    }
    Ok(marked)
}

/// Aggregate durability gauges across every job whose id starts with
/// `prefix` — the engine health surface. Best-effort: unreadable state
/// simply does not count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Total dead-letter entries across matching jobs.
    pub dlq_depth: u64,
    /// Age of the newest durable write across matching jobs.
    pub last_checkpoint_age: Option<Duration>,
}

/// Scans `root` for jobs whose id starts with `prefix` and folds their
/// durable state into [`DurabilityStats`].
pub fn durability_stats(root: &Path, prefix: &str) -> DurabilityStats {
    let mut stats = DurabilityStats::default();
    let Ok(entries) = fs::read_dir(root) else {
        return stats;
    };
    let mut newest: Option<SystemTime> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let job_id = name.to_string_lossy();
        if !job_id.starts_with(prefix) || !entry.path().is_dir() {
            continue;
        }
        if let Ok(summary) = job_summary(root, &job_id) {
            stats.dlq_depth += summary.dlq.len() as u64;
            if let Some(age) = summary.last_write_age {
                let when = SystemTime::now() - age;
                newest = Some(newest.map_or(when, |n| n.max(when)));
            }
        }
    }
    stats.last_checkpoint_age = newest.and_then(|n| SystemTime::now().duration_since(n).ok());
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dod-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn fp() -> JobFingerprint {
        JobFingerprint {
            map_tasks: 4,
            reducers: 2,
            tag: "test".to_string(),
        }
    }

    #[test]
    fn f64_encoding_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -3.25,
            std::f64::consts::PI,
            1e300,
            -1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let mut s = String::new();
            v.encode(&mut s);
            let back = f64::decode(&json::parse(&s).unwrap()).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v}");
        }
        let mut s = String::new();
        f64::NAN.encode(&mut s);
        assert!(f64::decode(&json::parse(&s).unwrap()).unwrap().is_nan());
    }

    /// A nested composite exercising every `Durable` impl at once.
    type Composite = Vec<(Option<u32>, (bool, Vec<f64>, String))>;

    #[test]
    fn composite_durable_round_trips() {
        let value: Composite = vec![
            (
                Some(7),
                (true, vec![1.5, -2.25], "a \"quoted\"\nline".to_string()),
            ),
            (None, (false, vec![], String::new())),
        ];
        let mut s = String::new();
        value.encode(&mut s);
        let back = Composite::decode(&json::parse(&s).unwrap());
        assert_eq!(back.as_deref(), Some(&value[..]));
    }

    #[test]
    fn save_load_round_trip_and_stale_fp_rejected() {
        let root = temp_root("roundtrip");
        let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
        assert_eq!(store.resume_state(), &ResumeState::Fresh);
        store.save_task("map", 2, 0, Duration::from_nanos(42), &vec![(1u32, 2.5f64)]);
        assert!(store.take_write_error().is_none());

        let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
        assert_eq!(store.resume_state(), &ResumeState::Resumable);
        let (dur, value): (Duration, Vec<(u32, f64)>) = store.load_task("map", 2, 0).unwrap();
        assert_eq!(dur, Duration::from_nanos(42));
        assert_eq!(value, vec![(1, 2.5)]);
        // Wrong task / stage / fingerprint: not restored.
        assert!(store.load_task::<Vec<(u32, f64)>>("map", 1, 0).is_none());
        assert!(store.load_task::<Vec<(u32, f64)>>("reduce", 2, 0).is_none());
        store.save_task("reduce", 0, 11, Duration::ZERO, &3u32);
        assert!(store.load_task::<u32>("reduce", 0, 12).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn mismatched_manifest_resets_and_wipes() {
        let root = temp_root("mismatch");
        let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
        store.save_task("map", 0, 0, Duration::ZERO, &1u32);
        let other = JobFingerprint {
            tag: "different".to_string(),
            ..fp()
        };
        let store = CheckpointStore::open(&root, "job-a", &other).unwrap();
        assert!(matches!(
            store.resume_state(),
            ResumeState::Reset(CheckpointError::Mismatch { field: "tag", .. })
        ));
        // The stale record must not survive the reset.
        assert!(store.load_task::<u32>("map", 0, 0).is_none());
        assert!(!root.join("job-a").join("map-0.json").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_files_never_panic_and_fall_back() {
        let root = temp_root("truncate");
        let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
        store.save_task("map", 0, 0, Duration::from_nanos(7), &vec![1u32, 2, 3]);
        let record_path = root.join("job-a").join("map-0.json");
        let manifest_path = root.join("job-a").join("manifest.json");
        let record = fs::read(&record_path).unwrap();
        let manifest = fs::read(&manifest_path).unwrap();
        for cut in 0..record.len() {
            fs::write(&record_path, &record[..cut]).unwrap();
            let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
            assert_eq!(store.resume_state(), &ResumeState::Resumable);
            assert!(store.load_task::<Vec<u32>>("map", 0, 0).is_none());
            // Restore for the next iteration.
            fs::write(&record_path, &record).unwrap();
        }
        for cut in 0..manifest.len().saturating_sub(1) {
            fs::write(&manifest_path, &manifest[..cut]).unwrap();
            let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
            assert!(
                matches!(store.resume_state(), ResumeState::Reset(_)),
                "cut at {cut} silently resumed"
            );
            fs::write(&manifest_path, &manifest).unwrap();
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rejects_path_traversal_job_ids() {
        let root = temp_root("traversal");
        for bad in ["", "..", "a/b", "a\\b", ".hidden"] {
            assert!(
                CheckpointStore::open(&root, bad, &fp()).is_err(),
                "job id {bad:?} accepted"
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn summary_and_redrive_marking() {
        let root = temp_root("summary");
        let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
        store.save_task("map", 0, 0, Duration::ZERO, &1u32);
        store.save_task("map", 1, 0, Duration::ZERO, &2u32);
        store.save_task("reduce", 0, 5, Duration::ZERO, &3u32);
        store.dlq_divert(DlqEntry {
            stage: "map".to_string(),
            task: 3,
            attempts: 2,
            errors: vec!["attempt 1: panic".to_string()],
            fault_seed: Some(9),
            redrive: false,
        });
        let summary = job_summary(&root, "job-a").unwrap();
        assert_eq!((summary.map_done, summary.reduce_done), (2, 1));
        assert_eq!(summary.dlq.len(), 1);
        assert_eq!(mark_redrive(&root, "job-a").unwrap(), 1);
        let summary = job_summary(&root, "job-a").unwrap();
        assert!(summary.dlq[0].redrive);
        let stats = durability_stats(&root, "job");
        assert_eq!(stats.dlq_depth, 1);
        assert_eq!(durability_stats(&root, "other").dlq_depth, 0);
        let jobs = list_jobs(&root).unwrap();
        assert_eq!(jobs.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }
}
