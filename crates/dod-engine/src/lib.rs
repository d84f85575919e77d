//! Resident detection engine over the DOD pipeline (`dod-engine`).
//!
//! The batch pipeline ([`dod::DodRunner::run`]) pays for preprocessing —
//! sampling, partition planning, per-partition algorithm selection — and
//! index construction on **every** invocation. This crate makes that
//! work resident: an [`Engine`] runs preprocessing once, materializes
//! each partition's detector state ([`dod_detect::PartitionState`] — the
//! same build/query split the batch reducers use), and then serves
//! micro-batch requests against that state through one entry point,
//! [`Engine::execute`]:
//!
//! * [`Request::Score`] classifies external query points (is each one a
//!   distance-threshold outlier with respect to the resident dataset?),
//!   pruning partitions whose rectangle is farther than `r` and
//!   stopping each count at `k`;
//! * [`Request::Detect`] returns the resident dataset's full outlier
//!   set — bit-for-bit the one-shot pipeline's answer for the same
//!   configuration, strategy, and data, because both paths run the same
//!   exact detectors over the same supporting-area routing;
//! * [`Request::Insert`] / [`Request::Remove`] mutate the resident
//!   dataset in place: points the current plan can absorb exactly are
//!   spliced into their partitions' index structures (cell-count
//!   increments, kd-leaf buffer splices), and batches it cannot absorb
//!   fall back to an epoch-swap refresh — either way every subsequent
//!   answer equals a fresh rebuild over the surviving points;
//! * [`Request::Window`] bounds the resident dataset as a sliding
//!   window by count and/or age ([`WindowConfig`]), expiring the oldest
//!   points automatically at each mutation op;
//! * [`Engine::drift`] probes the total-variation distance between the
//!   plan's predicted per-partition distribution and the observed one
//!   (query traffic plus mutation churn), and [`Engine::refresh_plan`]
//!   re-samples and re-plans (a new *epoch*) on demand; mutation ops
//!   trigger the same swap once churn crosses the staleness threshold
//!   ([`EngineBuilder::staleness_threshold`]).
//!
//! A request runs on the thread that calls [`Engine::execute`], under the
//! one lock [`Engine`] describes, and nothing inside the engine queues or
//! rejects it. A large score is the one request that borrows threads: a
//! batch of at least [`FAN_OUT_MIN_QUERIES`] points has its query groups
//! claimed by the caller and the `workers - 1` helper threads
//! ([`EngineBuilder::workers`]) that start with the engine, park between
//! scores and are joined when it drops, with the same answer on any
//! count.
//! An engine-wide deadline ([`EngineBuilder::default_deadline`]) bounds
//! each request ([`EngineError::DeadlineExceeded`]).
//!
//! Modules: `request` (the types a caller sends and gets back),
//! `dataset` (ids, liveness, window, compaction), `score` (the read path
//! over one plan), `epoch` (building a plan epoch, splicing a mutation into
//! it), `helpers` (the score helpers' queue and lifetime) and `engine`
//! (the lock and the request lifecycle); only `engine` takes the engine.
//!
//! The engine is hardened against misbehaving requests: a panicking
//! request fails alone ([`EngineError::TaskPanicked`]) and the calling
//! thread carries on, and [`Engine::health`] snapshots in-flight
//! requests / contained panics / resident points / churn.
//!
//! Every request is traced: each one mints a [`RequestId`], carried as
//! the `request` label on the request's span and on the
//! `engine.partition.work` counters measuring kernel work per partition.
//! An always-on [`dod_obs::FlightRecorder`] keeps the most recent events
//! in a bounded ring and dumps them as replayable JSONL (to stderr, or
//! the [`EngineBuilder::flight_dump`] sink) whenever a request panics,
//! misses its deadline, or fails with a typed error — the span of the
//! offending request, tagged with an `error` label, is always part of
//! the dump.
//!
//! ```
//! use dod::{DodConfig, DodRunner};
//! use dod_core::{OutlierParams, PointSet};
//! use dod_engine::{Engine, Request};
//!
//! let mut data = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.0), (0.0, 0.1)]);
//! data.push(&[9.0, 9.0]).unwrap(); // isolated
//! let params = OutlierParams::new(0.5, 2).unwrap();
//! let config = DodConfig::builder(params).sample_rate(1.0).build().unwrap();
//! let runner = DodRunner::builder().config(config).multi_tactic().build();
//!
//! let engine = Engine::builder(runner).build(&data).unwrap();
//! // The resident outlier set, identical to the one-shot pipeline's.
//! let outliers = engine.execute(Request::Detect).unwrap().into_outliers();
//! assert_eq!(outliers, Some(vec![3]));
//! // Micro-batch scoring of external points against the same state.
//! let scores = engine
//!     .execute(Request::Score {
//!         points: vec![vec![0.05, 0.05], vec![-7.0, 8.0]],
//!     })
//!     .unwrap()
//!     .into_score()
//!     .unwrap();
//! assert!(!scores[0].outlier);
//! assert!(scores[1].outlier);
//! // Stream a point in: the isolated point gains a neighborhood.
//! let receipt = engine
//!     .execute(Request::Insert {
//!         points: vec![vec![8.9, 9.0], vec![9.0, 8.9]],
//!     })
//!     .unwrap()
//!     .into_insert()
//!     .unwrap();
//! assert_eq!(receipt.ids, vec![4, 5]);
//! let outliers = engine.execute(Request::Detect).unwrap().into_outliers();
//! assert_eq!(outliers, Some(vec![]));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod audit;
mod dataset;
mod engine;
mod epoch;
mod error;
mod helpers;
mod request;
mod score;

pub use audit::{AlgorithmAudit, CostAudit, GROSS_MISPREDICT_FACTOR, GROSS_MISPREDICT_MIN_WORK};
pub use engine::{Engine, EngineBuilder, DEFAULT_STALENESS_THRESHOLD, PARTITION_WORK_TOP_K};
pub use error::EngineError;
pub use request::{
    EngineHealth, InsertReceipt, Pending, RemoveReceipt, Request, RequestId, Response, ScorePoint,
    WindowConfig, WindowStatus,
};
pub use score::FAN_OUT_MIN_QUERIES;

// Concurrency comes from the callers' threads sharing one engine.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Engine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dod::{DodConfig, DodRunner};
    use dod_core::{OutlierParams, PointSet};

    fn runner(params: OutlierParams) -> DodRunner {
        let config = DodConfig::builder(params)
            .sample_rate(1.0)
            .num_reducers(3)
            .target_partitions(8)
            .build()
            .unwrap();
        DodRunner::builder().config(config).multi_tactic().build()
    }

    fn cluster_with_outlier() -> (PointSet, OutlierParams) {
        let mut pts: Vec<(f64, f64)> = (0..40)
            .map(|i| ((i % 8) as f64 * 0.2, (i / 8) as f64 * 0.2))
            .collect();
        pts.push((50.0, 50.0));
        (
            PointSet::from_xy(&pts),
            OutlierParams::new(0.75, 4).unwrap(),
        )
    }

    fn detect(engine: &Engine) -> Vec<dod_core::PointId> {
        engine
            .execute(Request::Detect)
            .unwrap()
            .into_outliers()
            .unwrap()
    }

    fn score(engine: &Engine, points: Vec<Vec<f64>>) -> Vec<ScorePoint> {
        let req = Request::Score { points };
        engine.execute(req).unwrap().into_score().unwrap()
    }

    fn insert(engine: &Engine, points: Vec<Vec<f64>>) -> InsertReceipt {
        let req = Request::Insert { points };
        engine.execute(req).unwrap().into_insert().unwrap()
    }

    fn remove(engine: &Engine, ids: Vec<dod_core::PointId>) -> RemoveReceipt {
        let req = Request::Remove { ids };
        engine.execute(req).unwrap().into_remove().unwrap()
    }

    fn window(engine: &Engine, config: Option<WindowConfig>) -> WindowStatus {
        let req = Request::Window { config };
        engine.execute(req).unwrap().into_window().unwrap()
    }

    #[test]
    fn detect_all_matches_one_shot_pipeline() {
        let (data, params) = cluster_with_outlier();
        let expected = runner(params).run(&data).unwrap().outliers;
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        assert_eq!(detect(&engine), expected);
        assert_eq!(expected, vec![40]);
    }

    #[test]
    fn scoring_counts_resident_neighbors() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        let scores = score(
            &engine,
            vec![
                vec![0.7, 0.7],   // inside the cluster
                vec![200.0, 0.0], // far away from everything
            ],
        );
        assert!(!scores[0].outlier);
        assert_eq!(scores[0].neighbors, params.k); // counting stopped at k
        assert!(scores[1].outlier);
        assert_eq!(scores[1].neighbors, 0);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        let err = engine
            .execute(Request::Score {
                points: vec![vec![1.0, 2.0, 3.0]],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Dimension {
                index: 0,
                expected: 2,
                got: 3
            }
        ));
        // An insert names the offending point too, and inserts nothing.
        let err = engine
            .execute(Request::Insert {
                points: vec![vec![0.5, 0.5], vec![1.0]],
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "point 1 has dimension 1, resident dataset has dimension 2"
        );
        assert_eq!(engine.health().points, data.len());
    }

    #[test]
    fn empty_dataset_serves_trivial_answers() {
        let params = OutlierParams::new(1.0, 2).unwrap();
        let engine = Engine::builder(runner(params))
            .build(PointSet::new(2).unwrap())
            .unwrap();
        assert_eq!(engine.num_partitions(), 0);
        assert!(detect(&engine).is_empty());
        let scores = score(&engine, vec![vec![0.0, 0.0]]);
        assert!(scores[0].outlier);
        assert_eq!(engine.drift(), 0.0);
    }

    #[test]
    fn insert_into_empty_engine_materializes_a_plan() {
        let params = OutlierParams::new(1.0, 2).unwrap();
        let engine = Engine::builder(runner(params))
            .build(PointSet::new(2).unwrap())
            .unwrap();
        let receipt = insert(
            &engine,
            vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1]],
        );
        assert_eq!(receipt.ids, vec![0, 1, 2]);
        assert!(receipt.refreshed, "no resident plan: must epoch-swap");
        assert_eq!(receipt.resident, 3);
        assert!(engine.num_partitions() > 0);
        let scores = score(&engine, vec![vec![0.05, 0.05]]);
        assert!(!scores[0].outlier);
    }

    #[test]
    fn refresh_bumps_epoch_and_preserves_answers() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        let before = detect(&engine);
        assert_eq!(engine.epoch(), 0);
        let epoch = engine.refresh_plan().unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(engine.epoch(), 1);
        // A reseeded plan partitions differently but must answer exactly
        // the same (the detectors are exact under any plan).
        assert_eq!(detect(&engine), before);
    }

    #[test]
    fn skewed_query_traffic_raises_drift_and_triggers_refresh() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        assert!(engine.drift() < 0.3, "fresh plan should not be drifted");
        // Hammer one corner of the domain with queries: the observed
        // distribution concentrates in one partition.
        let batch: Vec<Vec<f64>> = (0..2000).map(|_| vec![50.0, 50.0]).collect();
        score(&engine, batch);
        assert!(engine.drift() > 0.3, "drift = {}", engine.drift());
        assert_eq!(engine.refresh_plan().unwrap(), 1);
        // The refresh resets the observed distribution.
        assert!(engine.drift() < 0.3);
    }

    #[test]
    fn streaming_mutations_update_answers_exactly() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        assert_eq!(detect(&engine), vec![40]);
        assert_eq!(engine.health().points, 41);

        // Give the isolated point at (50, 50) a k-neighborhood.
        let receipt = insert(
            &engine,
            vec![
                vec![50.1, 50.0],
                vec![49.9, 50.0],
                vec![50.0, 50.1],
                vec![50.0, 49.9],
            ],
        );
        assert_eq!(receipt.ids, vec![41, 42, 43, 44]);
        assert_eq!(receipt.resident, 45);
        assert!(
            detect(&engine).is_empty(),
            "neighborhood absorbs the outlier"
        );

        // Remove the neighborhood again: the outlier returns, and the
        // answer matches a fresh engine built over the surviving points.
        let receipt = remove(&engine, vec![41, 42, 43, 44]);
        assert_eq!(receipt.removed, 4);
        assert_eq!(receipt.missing, 0);
        assert_eq!(receipt.resident, 41);
        assert_eq!(detect(&engine), vec![40]);
        // Unknown and double-removed ids are reported, not errors.
        let receipt = remove(&engine, vec![41, 999]);
        assert_eq!(receipt.removed, 0);
        assert_eq!(receipt.missing, 2);
    }

    #[test]
    fn sliding_window_expires_oldest_points() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params))
            .window(WindowConfig {
                max_points: Some(41),
                max_age: None,
            })
            .build(&data)
            .unwrap();
        // Within the bound: a window tick expires nothing.
        let status = window(&engine, None);
        assert_eq!(status.expired, 0);
        assert_eq!(status.resident, 41);

        // Two inserts push the two oldest points (ids 0, 1) out.
        let receipt = insert(&engine, vec![vec![0.05, 0.05], vec![0.15, 0.05]]);
        assert_eq!(receipt.expired, 2);
        assert_eq!(receipt.resident, 41);
        let rr = remove(&engine, vec![0, 1]);
        assert_eq!(rr.missing, 2, "expired points are gone");

        // Reconfiguring to a tighter bound expires immediately.
        let status = window(
            &engine,
            Some(WindowConfig {
                max_points: Some(10),
                max_age: None,
            }),
        );
        assert_eq!(status.expired, 31);
        assert_eq!(status.resident, 10);
        assert_eq!(engine.health().points, 10);
    }

    #[test]
    fn expired_deadline_is_reported() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params))
            .default_deadline(std::time::Duration::ZERO)
            .build(&data)
            .unwrap();
        // A zero deadline has expired by the time the first partition's
        // scan checks it.
        let err = engine.execute(Request::Detect).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded));
    }

    #[test]
    fn panicking_request_fails_alone_and_engine_survives() {
        let (data, params) = cluster_with_outlier();
        let expected = runner(params).run(&data).unwrap().outliers;
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        match engine.inject_panic().unwrap_err() {
            EngineError::TaskPanicked { message } => {
                assert!(message.contains("injected engine panic"))
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        // The panic stayed inside its request: both ops still serve
        // correctly on the same thread.
        assert_eq!(detect(&engine), expected);
        let scores = score(&engine, vec![vec![0.7, 0.7]]);
        assert!(!scores[0].outlier);
        let health = engine.health();
        assert_eq!(health.panics, 1);
        assert_eq!(health.in_flight, 0);
    }

    #[test]
    fn health_snapshot_reflects_engine_state() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params))
            .workers(3)
            .build(&data)
            .unwrap();
        let h = engine.health();
        assert_eq!(h.workers, 3);
        assert_eq!(h.epoch, 0);
        assert_eq!(h.partitions, engine.num_partitions());
        assert_eq!(h.panics, 0);
        assert_eq!(h.in_flight, 0);
        assert_eq!(h.points, 41);
        assert_eq!(h.churn, 0);
        engine.refresh_plan().unwrap();
        assert_eq!(engine.health().epoch, 1);
    }

    /// A NaN or infinite coordinate is refused before anything is scored
    /// or stored: the typed error, the resident count unchanged, and
    /// detection — before and after a re-plan — answering as it did.
    #[test]
    fn non_finite_points_never_reach_resident_state() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        let before = detect(&engine);
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let points = vec![vec![0.1, 0.1], vec![bad, 0.5]];
            for req in [
                Request::Insert {
                    points: points.clone(),
                },
                Request::Score { points },
            ] {
                let err = engine.execute(req).unwrap_err();
                assert!(matches!(err, EngineError::NonFinite { index: 1 }), "{err}");
            }
        }
        assert_eq!(engine.health().points, 41);
        assert_eq!(detect(&engine), before);
        engine.refresh_plan().unwrap();
        assert_eq!(detect(&engine), before);
    }

    /// A `Write` sink whose contents the test can inspect after the
    /// engine dumps into it.
    #[derive(Clone, Default)]
    struct CaptureBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl CaptureBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for CaptureBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Acceptance criterion: a forced panic produces a flight-recorder
    /// dump that contains the offending request's span.
    #[test]
    fn panic_dumps_flight_ring_with_offending_request() {
        use dod_obs::{names, EventKind};
        let (data, params) = cluster_with_outlier();
        let sink = CaptureBuf::default();
        let engine = Engine::builder(runner(params))
            .flight_dump(Box::new(sink.clone()))
            .build(&data)
            .unwrap();
        // A healthy request first, so the ring holds unrelated history too.
        score(&engine, vec![vec![0.7, 0.7]]);
        engine.inject_panic().unwrap_err();

        let events = dod_obs::replay::parse_jsonl(&sink.contents()).unwrap();
        let header = events
            .iter()
            .find(|e| e.name == names::ENGINE_FLIGHT_DUMP)
            .expect("dump header mark present");
        assert_eq!(
            header.label("reason").and_then(|v| v.as_str()),
            Some("panic")
        );
        let rid = header.label("request").and_then(|v| v.as_u64()).unwrap();
        // The offending request's span is in the dump, tagged with the
        // same request id and the error reason.
        let span = events
            .iter()
            .find(|e| {
                e.name == names::ENGINE_REQUEST
                    && e.label("request").and_then(|v| v.as_u64()) == Some(rid)
            })
            .expect("offending request span present in dump");
        assert!(matches!(span.kind, EventKind::Span { .. }));
        assert_eq!(span.label("error").and_then(|v| v.as_str()), Some("panic"));
        assert_eq!(
            span.label("op").and_then(|v| v.as_str()),
            Some("inject_panic")
        );
    }

    /// Acceptance criterion: a deadline overrun also triggers a dump.
    #[test]
    fn deadline_overrun_dumps_flight_ring() {
        use dod_obs::names;
        let (data, params) = cluster_with_outlier();
        let sink = CaptureBuf::default();
        let engine = Engine::builder(runner(params))
            .default_deadline(std::time::Duration::ZERO)
            .flight_dump(Box::new(sink.clone()))
            .build(&data)
            .unwrap();
        let err = engine.execute(Request::Detect).unwrap_err();
        assert!(matches!(err, EngineError::DeadlineExceeded));
        let events = dod_obs::replay::parse_jsonl(&sink.contents()).unwrap();
        let header = events
            .iter()
            .find(|e| e.name == names::ENGINE_FLIGHT_DUMP)
            .expect("dump header mark present");
        assert_eq!(
            header.label("reason").and_then(|v| v.as_str()),
            Some("deadline")
        );
        assert_eq!(header.label("op").and_then(|v| v.as_str()), Some("detect"));
    }

    #[test]
    fn requests_are_counted_and_flight_recorder_is_on_by_default() {
        let (data, params) = cluster_with_outlier();
        let engine = Engine::builder(runner(params)).build(&data).unwrap();
        assert!(engine.flight_recorder().is_some());
        assert_eq!(engine.health().requests, 0);
        score(&engine, vec![vec![0.7, 0.7]]);
        detect(&engine);
        assert_eq!(engine.health().requests, 2);
        // flight_capacity(0) disables the recorder entirely.
        let bare = Engine::builder(runner(params))
            .flight_capacity(0)
            .build(&data)
            .unwrap();
        assert!(bare.flight_recorder().is_none());
    }

    /// Request spans and per-partition work counters reach a user-supplied
    /// recorder alongside the flight ring, tied together by request id.
    #[test]
    fn partition_work_counters_carry_request_ids() {
        use dod_obs::{names, MemoryRecorder, Obs};
        let (data, params) = cluster_with_outlier();
        let memory = std::sync::Arc::new(MemoryRecorder::new());
        let config = DodConfig::builder(params)
            .sample_rate(1.0)
            .num_reducers(3)
            .target_partitions(8)
            .obs(Obs::new(memory.clone()))
            .build()
            .unwrap();
        let runner = DodRunner::builder().config(config).multi_tactic().build();
        let engine = Engine::builder(runner).build(&data).unwrap();
        // Off the cluster's edge: five cluster points lie within r, but
        // none in the query's own grid cell or its ring, so no state can
        // answer by the inlier rule — a rule-decided probe examines no
        // candidate, reports zero work, and emits no counter at all.
        let scores = score(&engine, vec![vec![2.0, 0.4]]);
        assert_eq!(scores[0].neighbors, 4, "capped at k");
        let events = memory.events();
        let span = events
            .iter()
            .find(|e| e.name == names::ENGINE_REQUEST)
            .expect("request span reaches the user recorder");
        let rid = span.label("request").and_then(|v| v.as_u64()).unwrap();
        assert!(rid > 0);
        let work: Vec<_> = events
            .iter()
            .filter(|e| e.name == names::ENGINE_PARTITION_WORK)
            .collect();
        assert!(
            !work.is_empty(),
            "scoring off the cluster's edge examines candidates"
        );
        for w in &work {
            assert_eq!(w.label("request").and_then(|v| v.as_u64()), Some(rid));
            assert_eq!(w.label("op").and_then(|v| v.as_str()), Some("score"));
            assert!(
                w.label("partition").is_some() || w.label("partitions").is_some(),
                "either a detailed partition counter or a rollup"
            );
            assert!(w.label("algorithm").is_some());
        }
    }

    #[test]
    fn partition_work_emission_is_bounded_per_request() {
        use dod_obs::{names, MemoryRecorder, Obs};
        // A broad uniform dataset so a scattered batch touches many
        // more partitions than PARTITION_WORK_TOP_K.
        let mut data = PointSet::new(2).unwrap();
        for i in 0..4000u64 {
            let x = (i % 63) as f64;
            let y = ((i * 7) % 61) as f64;
            data.push(&[x, y]).unwrap();
        }
        let params = OutlierParams::new(1.5, 3).unwrap();
        let memory = std::sync::Arc::new(MemoryRecorder::new());
        let config = DodConfig::builder(params)
            .sample_rate(0.2)
            .num_reducers(4)
            .target_partitions(64)
            .obs(Obs::new(memory.clone()))
            .build()
            .unwrap();
        let runner = DodRunner::builder().config(config).multi_tactic().build();
        let engine = Engine::builder(runner).build(&data).unwrap();
        let queries: Vec<Vec<f64>> = (0..128)
            .map(|i| vec![((i * 13) % 63) as f64, ((i * 17) % 61) as f64])
            .collect();
        score(&engine, queries);
        let events = memory.events();
        let work: Vec<_> = events
            .iter()
            .filter(|e| e.name == names::ENGINE_PARTITION_WORK)
            .collect();
        assert!(!work.is_empty(), "a scattered batch does kernel work");
        let detailed = work
            .iter()
            .filter(|e| e.label("partition").is_some())
            .count();
        let rollups: Vec<_> = work
            .iter()
            .filter(|e| e.label("partitions").is_some())
            .collect();
        assert!(
            detailed <= PARTITION_WORK_TOP_K,
            "at most top-K detailed counters per request, got {detailed}"
        );
        // One rollup per algorithm at most, and the total stays small
        // no matter how many partitions did work.
        assert!(
            work.len() <= PARTITION_WORK_TOP_K + 8,
            "bounded emission, got {} events",
            work.len()
        );
        for r in &rollups {
            assert!(r.label("algorithm").is_some());
            assert!(r.label("partitions").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
        }
    }

    #[test]
    fn cost_audit_folds_measured_work_and_reaches_metrics() {
        use dod_obs::{names, MetricsRecorder, Obs};
        let (data, params) = cluster_with_outlier();
        let metrics = std::sync::Arc::new(MetricsRecorder::new());
        let config = DodConfig::builder(params)
            .sample_rate(1.0)
            .num_reducers(3)
            .target_partitions(8)
            .obs(Obs::new(metrics.clone()))
            .build()
            .unwrap();
        let runner = dod::DodRunner::builder()
            .config(config)
            .multi_tactic()
            .build();
        let engine = Engine::builder(runner).build(&data).unwrap();
        assert!(engine.cost_audit().per_algorithm.is_empty());
        let report = engine.plan_report().expect("resident plan present");
        assert!(!report.partitions.is_empty());
        for p in &report.partitions {
            assert!(p.margin.is_finite());
            assert!(!p.candidates.is_empty());
        }
        detect(&engine);
        let audit = engine.cost_audit();
        assert!(
            !audit.per_algorithm.is_empty(),
            "a full detect does kernel work somewhere"
        );
        for a in &audit.per_algorithm {
            assert!(a.observations > 0);
            assert!(a.measured > 0.0 && a.predicted > 0.0);
            assert!(a.ratio().is_finite());
        }
        // The calibration-error observations reached the metrics
        // recorder and render as a Prometheus summary.
        assert!(metrics
            .observe_histogram(names::ENGINE_COST_CALIBRATION)
            .is_some());
        let text = metrics.render_prometheus();
        assert!(text.contains("dod_engine_cost_calibration"));
        assert!(text.contains("algorithm="));
    }

    /// Every request kind runs on the thread that calls `execute`: its
    /// request span is emitted there, an error comes back typed, and each
    /// request is counted once.
    #[test]
    fn execute_answers_on_the_calling_thread() {
        use dod_obs::{names, Event, Obs, Recorder};
        use std::sync::{Arc, Mutex};
        use std::thread::ThreadId;

        /// The threads `engine.request` spans were emitted on.
        #[derive(Default)]
        struct SpanThreads(Mutex<Vec<ThreadId>>);

        impl Recorder for SpanThreads {
            fn record(&self, event: Event) {
                if event.name == names::ENGINE_REQUEST {
                    self.0.lock().unwrap().push(std::thread::current().id());
                }
            }
        }

        let (data, params) = cluster_with_outlier();
        let threads = Arc::new(SpanThreads::default());
        let config = DodConfig::builder(params)
            .sample_rate(1.0)
            .num_reducers(3)
            .target_partitions(8)
            .obs(Obs::new(threads.clone()))
            .build()
            .unwrap();
        let runner = DodRunner::builder().config(config).multi_tactic().build();
        let engine = Engine::builder(runner).build(&data).unwrap();
        assert_eq!(detect(&engine), vec![40]);
        assert!(!score(&engine, vec![vec![0.7, 0.7]])[0].outlier);
        assert_eq!(insert(&engine, vec![vec![49.9, 50.0]]).ids, vec![41]);
        assert_eq!(remove(&engine, vec![41]).removed, 1);
        assert_eq!(window(&engine, None).resident, 41);
        let err = engine
            .execute(Request::Score {
                points: vec![vec![1.0]],
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::Dimension { .. }));
        let caller = std::thread::current().id();
        let spans = threads.0.lock().unwrap();
        assert_eq!(spans.len(), 6);
        assert!(spans.iter().all(|&t| t == caller));
        let health = engine.health();
        assert_eq!(health.requests, 6);
        assert_eq!(health.in_flight, 0);
    }
}
