//! Hostile input against the workspace's one JSON reader
//! (`dod_obs::json::parse`) and the three file formats layered on it
//! (checkpoint files, the dead-letter queue and JSONL traces), and
//! against the CSV point reader (`dod_data::io::read_csv`).
//!
//! The reader's grammar is unit-tested beside it; this suite holds what
//! needs other crates: the bit-exact number round trip over drawn
//! values, every single-edit byte mutant of a sample of each on-disk
//! format through its loader (a typed error or a value, never a panic —
//! the reader sits under each loader, so it sees them all), the deep-nesting
//! reproducers at the loader level, and the source audit that keeps the
//! reader the only one. The protocol-v1 side of each lives with
//! `serve.rs`, whose dispatch is private to the `dod` binary.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use dod_data::io::CsvError;
use dod_obs::json::{self, Json};
use dod_obs::replay;
use mapreduce::{
    CheckpointError, CheckpointStore, DeadLetterQueue, DlqEntry, JobFingerprint, ResumeState,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    // Reader rule 3: what Rust's shortest `Display` writes, the reader
    // re-reads to the same bits — every finite f64, sign of zero and
    // subnormals included — and integers stay exact past 2^53.
    #[test]
    fn numbers_round_trip_bit_exactly(bits in 0u64..=u64::MAX, int in 0u64..=u64::MAX) {
        let float = f64::from_bits(bits);
        if float.is_finite() {
            let back = json::parse(&format!("{float}")).unwrap().as_f64().unwrap();
            prop_assert_eq!(back.to_bits(), bits);
        }
        let unsigned = json::parse(&format!("{int}")).unwrap();
        prop_assert_eq!(unsigned.as_u64(), Some(int));
        prop_assert_eq!(unsigned.as_f64(), Some(int as f64));
        let signed = int as i64;
        prop_assert_eq!(json::parse(&format!("{signed}")).unwrap().as_i64(), Some(signed));
    }
}

fn temp_root(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dod-json-{}-{label}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp root");
    dir
}

fn fingerprint() -> JobFingerprint {
    JobFingerprint {
        map_tasks: 4,
        reducers: 2,
        tag: "r=0.5 \"quoted\" é".to_string(),
    }
}

type Record = Vec<(u32, (bool, Vec<f64>, String))>;

/// A job directory holding one of each checkpoint file, and their bytes:
/// `(root, manifest, task record, dlq)`.
fn checkpoint_samples(label: &str) -> (PathBuf, Vec<u8>, Vec<u8>, Vec<u8>) {
    let root = temp_root(label);
    let store = CheckpointStore::open(&root, "job", &fingerprint()).unwrap();
    let record: Record = vec![(7, (true, vec![-0.0, 5e-324, 1.5], "a\n\"b\"".to_string()))];
    store.save_task("map", 0, 9, Duration::from_nanos(42), &record);
    store.dlq_divert(DlqEntry {
        stage: "reduce".to_string(),
        task: 1,
        attempts: 3,
        errors: vec!["attempt 1: panic \"boom\"".to_string()],
        fault_seed: Some(u64::MAX),
        redrive: false,
    });
    assert!(store.take_write_error().is_none());
    let [manifest, record, dlq] = ["manifest.json", "map-0.json", "dlq.jsonl"]
        .map(|name| fs::read(root.join("job").join(name)).unwrap());
    (root, manifest, record, dlq)
}

/// Every single-edit mutant of `sample`: at each offset the byte's low
/// bit flipped, its high bit flipped (so the text stops being UTF-8), the
/// byte deleted, the input truncated there, the next eight bytes
/// duplicated.
fn mutants(sample: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..sample.len()).flat_map(move |at| {
        let (head, tail) = (&sample[..at], &sample[at + 1..]);
        let again = &sample[at..sample.len().min(at + 8)];
        [
            [head, &[sample[at] ^ 1], tail].concat(),
            [head, &[sample[at] ^ 0x80], tail].concat(),
            [head, tail].concat(),
            head.to_vec(),
            [head, again, &sample[at..]].concat(),
        ]
    })
}

/// The mutants as the text a loader sees once the file is read.
fn mutant_texts(sample: &[u8]) -> impl Iterator<Item = String> + '_ {
    mutants(sample).map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Each of the three on-disk formats' loaders (checkpoint manifest and
/// task record, DLQ, trace), over every single-edit mutant of a sample
/// file, answers with a value or its own typed error.
#[test]
fn mutated_files_load_or_fail_typed() {
    let (root, manifest, record, dlq) = checkpoint_samples("sweep");
    let job = root.join("job");

    for bytes in mutants(&manifest) {
        fs::write(job.join("manifest.json"), &bytes).unwrap();
        let store = CheckpointStore::open(&root, "job", &fingerprint())
            .expect("a damaged manifest resets the store, it is not an I/O failure");
        if let ResumeState::Reset(cause) = store.resume_state() {
            assert!(!matches!(cause, CheckpointError::Io { .. }), "{cause:?}");
            // The reset wiped the records; put them back for the next.
            assert!(!job.join("map-0.json").exists());
            fs::write(job.join("map-0.json"), &record).unwrap();
            fs::write(job.join("dlq.jsonl"), &dlq).unwrap();
        }
    }
    fs::write(job.join("manifest.json"), &manifest).unwrap();

    let store = CheckpointStore::open(&root, "job", &fingerprint()).unwrap();
    assert_eq!(store.resume_state(), &ResumeState::Resumable);
    let (_, intact) = store.load_task::<Record>("map", 0, 9).expect("intact");
    assert!(intact[0].1 .1[0].is_sign_negative(), "-0 keeps its sign");
    for bytes in mutants(&record) {
        fs::write(job.join("map-0.json"), &bytes).unwrap();
        // A readable record that no longer decodes is dropped so the task
        // re-runs (an unreadable one is overwritten when it does).
        let dropped = store.load_task::<Record>("map", 0, 9).is_none();
        if dropped && std::str::from_utf8(&bytes).is_ok() {
            assert!(!job.join("map-0.json").exists());
        }
    }
    for text in mutant_texts(&dlq) {
        if let Err(detail) = DeadLetterQueue::parse(&text) {
            assert!(detail.starts_with("dlq line "), "{detail}");
        }
    }

    let trace = concat!(
        r#"{"name":"engine.request","kind":"span","nanos":11608,"#,
        r#""labels":{"op":"score","items":512,"skew":-3,"share":0.25,"note":"a\"b é"}}"#
    );
    assert!(replay::parse_line(trace).is_ok());
    for text in mutant_texts(trace.as_bytes()) {
        if let Err(e) = replay::parse_jsonl(&format!("\n{text}")) {
            assert_eq!(e.line, 2, "{e}");
        }
    }
    let _ = fs::remove_dir_all(&root);
}

/// Every single-edit mutant of a small 3-d CSV reads as points that are
/// all finite, or fails as a parse error; none panics. `1e308` is one
/// bit from `1e309`, which parses to infinity, so the sweep reaches the
/// finiteness check. A lone `0xff` byte anywhere is a parse error naming
/// its line.
#[test]
fn mutated_csv_reads_finite_points_or_fails_typed() {
    let path = temp_root("csv").join("points.csv");
    let sample = b"0.5,1.25,-3\n2e3,0,7.125\n\n-0.0,1e308,9\n";
    let mut refused_non_finite = 0;
    for bytes in mutants(sample) {
        fs::write(&path, &bytes).unwrap();
        match dod_data::io::read_csv(&path) {
            Ok(points) => assert!(points.iter().flatten().all(|c| c.is_finite())),
            Err(CsvError::Parse { reason, .. }) => {
                refused_non_finite += usize::from(reason.starts_with("non-finite"));
            }
            Err(CsvError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            Err(e) => panic!("{e}"),
        }
    }
    assert!(refused_non_finite > 0);
    for at in 0..sample.len() {
        let line = 1 + sample[..at].iter().filter(|&&b| b == b'\n').count();
        fs::write(&path, [&sample[..at], &[0xff], &sample[at + 1..]].concat()).unwrap();
        match dod_data::io::read_csv(&path) {
            Err(CsvError::Parse { line: got, reason }) => {
                assert_eq!(got, line, "0xff at byte {at}: {reason}");
                assert!(reason.starts_with("not UTF-8"), "{reason}");
            }
            other => panic!("0xff at byte {at}: {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(path.parent().unwrap());
}

/// 100,000 open brackets where each of the three file formats
/// (checkpoint, DLQ, trace) expects a document: a typed error and, for
/// the checkpoint store, a reset that leaves a store a run can use.
#[test]
fn deep_nesting_is_a_typed_error_in_every_file_format() {
    let (root, ..) = checkpoint_samples("deep");
    for hostile in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        fs::write(root.join("job").join("manifest.json"), &hostile).unwrap();
        let store = CheckpointStore::open(&root, "job", &fingerprint()).unwrap();
        let state = store.resume_state();
        assert!(
            matches!(state, ResumeState::Reset(CheckpointError::Corrupt { .. })),
            "{state:?}"
        );
        store.save_task("map", 0, 9, Duration::ZERO, &1u32);
        let store = CheckpointStore::open(&root, "job", &fingerprint()).unwrap();
        assert_eq!(store.resume_state(), &ResumeState::Resumable);
        assert_eq!(store.load_task("map", 0, 9), Some((Duration::ZERO, 1u32)));

        assert!(DeadLetterQueue::parse(&hostile).is_err());
        assert_eq!(replay::parse_jsonl(&hostile).unwrap_err().line, 1);
    }
    let _ = fs::remove_dir_all(&root);
}

/// Keep it one: no caller of the shared reader grows a JSON value parser
/// of its own again. (`benchmark/`'s field scanner is exempt by design —
/// it shares no code with the program it measures.)
#[test]
fn callers_define_no_json_parser() {
    macro_rules! source {
        ($path:literal) => {
            ($path, include_str!(concat!("../../crates/", $path)))
        };
    }
    let sources = [
        source!("dod-cli/src/serve.rs"),
        source!("dod-cli/src/explain_cmd.rs"),
        source!("dod-cli/src/obs_cmd.rs"),
        source!("dod-cli/src/jobs_cmd.rs"),
        source!("mapreduce/src/checkpoint.rs"),
        source!("mapreduce/src/durable.rs"),
        source!("mapreduce/src/dlq.rs"),
        source!("dod-obs/src/replay.rs"),
    ];
    for (name, source) in sources {
        let shipped = source.split("#[cfg(test)]").next().unwrap();
        for forbidden in [
            "fn parse_value",
            "fn parse_string",
            "fn parse_number",
            "from_str_radix(",
        ] {
            assert!(
                !shipped.contains(forbidden),
                "{name} defines its own JSON parsing (`{forbidden}`); use dod_obs::json::parse"
            );
        }
    }
    // The audit would pass vacuously if the reader moved: it is here.
    let reader = include_str!("../../crates/dod-obs/src/json.rs");
    assert!(reader.contains("pub fn parse(text: &str) -> Result<Json, ParseError>"));
    assert!(matches!(json::parse("[]"), Ok(Json::Arr(items)) if items.is_empty()));
}
