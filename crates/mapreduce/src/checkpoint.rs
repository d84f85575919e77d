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
//! partial resume happens silently. Each file has one reader, which
//! the store, `dod jobs` and the engine's health gauges all share.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

use dod_obs::json;
use dod_obs::sync::lock_recover;
use dod_obs::write_atomic;

use crate::dlq::{DeadLetterQueue, DlqEntry};
pub use crate::durable::Durable;

/// Current on-disk format version for manifests and task records.
const FORMAT_VERSION: u64 = 1;

/// A job's manifest file, in its directory.
const MANIFEST: &str = "manifest.json";
/// A job's dead-letter queue file, in its directory.
const DLQ: &str = "dlq.jsonl";

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
/// The store is `Sync`; the job's task pool calls [`save_task`] from the
/// committing worker, before the completion becomes visible (see the
/// crate docs).
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
        check_job_id(job_id)?;
        let dir = root.join(job_id);
        fs::create_dir_all(&dir).map_err(|e| io_error(&dir, e))?;
        // A matching manifest still needs a readable DLQ: a corrupt queue
        // could silently resurrect or lose dead tasks. Corrupt or
        // mismatched state resets the store; only a filesystem failure is
        // an error.
        let found = read_manifest(&dir).and_then(|manifest| match manifest {
            None => Ok(None),
            Some(manifest) => {
                manifest.check(job_id, fingerprint)?;
                read_dlq(&dir).map(Some)
            }
        });
        let (resume, dlq) = match found {
            Ok(None) => (ResumeState::Fresh, DeadLetterQueue::default()),
            Ok(Some(dlq)) => (ResumeState::Resumable, dlq),
            Err(e @ CheckpointError::Io { .. }) => return Err(e),
            Err(e) => (ResumeState::Reset(e), DeadLetterQueue::default()),
        };
        if resume != ResumeState::Resumable {
            // Fresh or reset: no prior record may survive (a stale task
            // file next to a fresh manifest would be a silent partial
            // resume), and the manifest is (re)written.
            wipe_dir(&dir)?;
            let manifest_path = dir.join(MANIFEST);
            let manifest = render_manifest(job_id, fingerprint);
            write_atomic(&manifest_path, manifest.as_bytes())
                .map_err(|e| io_error(&manifest_path, e))?;
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
        let record = decode_task_record(&text, stage, task, shuffle_fp);
        if record.is_none() {
            // Corrupt or stale: drop it so the slot is re-run and
            // re-persisted cleanly.
            let _ = fs::remove_file(&path);
        }
        record
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
        let path = self.dir.join(DLQ);
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

/// Refuses a job id that could name a path outside the checkpoint root.
fn check_job_id(job_id: &str) -> Result<(), CheckpointError> {
    if job_id.is_empty()
        || job_id.starts_with('.')
        || job_id
            .chars()
            .any(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
    {
        return Err(CheckpointError::Io {
            path: job_id.to_string(),
            detail: "job id must be non-empty [A-Za-z0-9._-] and not start with '.'".to_string(),
        });
    }
    Ok(())
}

fn io_error(path: &Path, e: impl fmt::Display) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Reads one checkpoint file; `None` when it does not exist. Non-UTF-8
/// bytes are corruption (a torn or scribbled-over file), not an
/// environment failure.
fn read_file(path: &Path) -> Result<Option<String>, CheckpointError> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Err(CheckpointError::Corrupt {
            path: path.display().to_string(),
            detail: e.to_string(),
        }),
        Err(e) => Err(io_error(path, e)),
    }
}

/// A job's dead-letter queue; a missing `dlq.jsonl` is an empty queue.
fn read_dlq(dir: &Path) -> Result<DeadLetterQueue, CheckpointError> {
    let path = dir.join(DLQ);
    let Some(text) = read_file(&path)? else {
        return Ok(DeadLetterQueue::default());
    };
    DeadLetterQueue::parse(&text).map_err(|detail| CheckpointError::Corrupt {
        path: path.display().to_string(),
        detail,
    })
}

/// What a job's `manifest.json` records.
struct Manifest {
    job_id: String,
    map_tasks: usize,
    reducers: usize,
    tag: String,
}

/// A job's manifest; `None` when it has none. A manifest of another
/// format version is a [`CheckpointError::Mismatch`] on `v`: a run
/// would wipe it.
fn read_manifest(dir: &Path) -> Result<Option<Manifest>, CheckpointError> {
    let path = dir.join(MANIFEST);
    let Some(text) = read_file(&path)? else {
        return Ok(None);
    };
    let corrupt = |detail: String| CheckpointError::Corrupt {
        path: path.display().to_string(),
        detail,
    };
    let doc = json::parse(&text).map_err(|e| corrupt(e.to_string()))?;
    let field = |name: &'static str| {
        doc.get(name)
            .ok_or_else(|| corrupt(format!("missing field {name:?}")))
    };
    let wrong_type = |name: &str| corrupt(format!("field {name:?} has wrong type"));
    let version = field("v")?
        .as_u64()
        .ok_or_else(|| corrupt("field \"v\" is not an integer".to_string()))?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::Mismatch {
            field: "v",
            detail: format!("expected {FORMAT_VERSION}, found {version}"),
        });
    }
    let text_field = |name| {
        let text = field(name)?.as_str().map(str::to_string);
        text.ok_or_else(|| wrong_type(name))
    };
    let count_field = |name| field(name)?.as_usize().ok_or_else(|| wrong_type(name));
    Ok(Some(Manifest {
        job_id: text_field("job_id")?,
        map_tasks: count_field("map_tasks")?,
        reducers: count_field("reducers")?,
        tag: text_field("tag")?,
    }))
}

impl Manifest {
    /// The first field on which this manifest describes a different job.
    fn check(&self, job_id: &str, fp: &JobFingerprint) -> Result<(), CheckpointError> {
        let checks = [
            ("job_id", job_id.to_string(), self.job_id.clone()),
            (
                "map_tasks",
                fp.map_tasks.to_string(),
                self.map_tasks.to_string(),
            ),
            (
                "reducers",
                fp.reducers.to_string(),
                self.reducers.to_string(),
            ),
            ("tag", fp.tag.clone(), self.tag.clone()),
        ];
        for (field, expected, found) in checks {
            if found != expected {
                return Err(CheckpointError::Mismatch {
                    field,
                    detail: format!("expected {expected:?}, found {found:?}"),
                });
            }
        }
        Ok(())
    }
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
    let entries = fs::read_dir(dir).map_err(|e| io_error(dir, e))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_file() {
            fs::remove_file(&path).map_err(|e| io_error(&path, e))?;
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
    check_job_id(job_id)?;
    let dir = root.join(job_id);
    let manifest =
        read_manifest(&dir)?.ok_or_else(|| io_error(&dir.join(MANIFEST), "no such file"))?;
    let dlq = read_dlq(&dir)?.entries().to_vec();
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
        map_tasks: manifest.map_tasks,
        reducers: manifest.reducers,
        tag: manifest.tag,
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
    summaries(root, "")
}

/// The summaries of the readable jobs under `root` whose id starts with
/// `prefix`, by job id; other jobs are not read.
fn summaries(root: &Path, prefix: &str) -> Result<Vec<JobSummary>, CheckpointError> {
    let entries = fs::read_dir(root).map_err(|e| io_error(root, e))?;
    let mut jobs = Vec::new();
    for entry in entries.flatten() {
        let job_id = entry.file_name().to_string_lossy().to_string();
        if !job_id.starts_with(prefix) || !entry.path().is_dir() {
            continue;
        }
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
    check_job_id(job_id)?;
    let dir = root.join(job_id);
    let mut q = read_dlq(&dir)?;
    let marked = q.mark_redrive_all();
    if marked > 0 {
        let path = dir.join(DLQ);
        write_atomic(&path, q.render().as_bytes()).map_err(|e| io_error(&path, e))?;
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
    let jobs = summaries(root, prefix).unwrap_or_default();
    DurabilityStats {
        dlq_depth: jobs.iter().map(|j| j.dlq.len() as u64).sum(),
        last_checkpoint_age: jobs.iter().filter_map(|j| j.last_write_age).min(),
    }
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
        // A job beside the root that a traversing id would reach.
        CheckpointStore::open(&root.join("outside"), "job-a", &fp()).unwrap();
        let inside = root.join("inside");
        fs::create_dir_all(&inside).unwrap();
        for bad in ["", "..", "a/b", "a\\b", ".hidden", "../outside/job-a"] {
            assert!(
                CheckpointStore::open(&inside, bad, &fp()).is_err(),
                "job id {bad:?} accepted"
            );
            assert!(job_summary(&inside, bad).is_err(), "{bad:?} summarized");
            assert!(mark_redrive(&inside, bad).is_err(), "{bad:?} redriven");
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn every_reader_of_a_file_agrees() {
        let root = temp_root("readers");
        CheckpointStore::open(&root, "job-a", &fp()).unwrap();
        let dir = root.join("job-a");
        // A queue that is not UTF-8 is corrupt to all three readers.
        fs::write(dir.join("dlq.jsonl"), [0xff, b'\n']).unwrap();
        let corrupt = |e: &CheckpointError| matches!(e, CheckpointError::Corrupt { .. });
        assert!(corrupt(&job_summary(&root, "job-a").unwrap_err()));
        assert!(corrupt(&mark_redrive(&root, "job-a").unwrap_err()));
        let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
        assert!(matches!(store.resume_state(), ResumeState::Reset(e) if corrupt(e)));
        // A manifest of another format version is one the next run
        // wipes: `dod jobs` does not list it as a job.
        let manifest = fs::read_to_string(dir.join("manifest.json")).unwrap();
        fs::write(
            dir.join("manifest.json"),
            manifest.replace("\"v\":1", "\"v\":2"),
        )
        .unwrap();
        let version =
            |e: &CheckpointError| matches!(e, CheckpointError::Mismatch { field: "v", .. });
        assert!(version(&job_summary(&root, "job-a").unwrap_err()));
        assert!(list_jobs(&root).unwrap().is_empty());
        let store = CheckpointStore::open(&root, "job-a", &fp()).unwrap();
        assert!(matches!(store.resume_state(), ResumeState::Reset(e) if version(e)));
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
