//! Well-known event names of the resident engine, the job executor, the
//! batch pipeline and the detectors.
//!
//! The engine's names are shared between the engine crate (producer)
//! and dashboards/tests (consumers polling request spans or deadline
//! misses), so they live here as constants both sides can reference; so
//! do the executor's stage, task, shuffle, checkpoint and dead-letter
//! names, the pipeline's `dod.*` stage and plan names and the detectors'
//! `detect.*` work counters, which `dod obs` and the benchmark read by
//! name. No shipped code outside this file spells one of these names as
//! a literal; a source audit in the integration tests holds that.

/// Span: one engine request, from start to completion. Labels: `op`
/// (`"score"` or `"detect"`), `items` (points scored), `epoch`.
pub const ENGINE_REQUEST: &str = "engine.request";

/// Counter: requests that missed their deadline and returned
/// `DeadlineExceeded`.
pub const ENGINE_DEADLINE_MISSES: &str = "engine.deadline_misses";

/// Span: one full plan refresh (re-sample, re-plan, re-materialize),
/// whether asked for (`refresh`) or forced by a mutation (staleness, an
/// out-of-domain insert). Labels: `epoch` (the new epoch).
pub const ENGINE_REFRESH: &str = "engine.refresh";

/// Span: one stage of a plan refresh; the five stages of an epoch swap
/// add up to its [`ENGINE_REFRESH`] span. Labels: `epoch`, `stage` —
/// `compact` (drop the dataset's dead slots; the rebuild then reads the
/// dataset in place), `preprocess` (sample + plan), `route` (assign every
/// point its core and support partitions and count each tile's copies),
/// `build` (allocate every tile at its counted size, scatter the copies
/// into it, build detector states), `swap` (install the epoch, free the
/// old one).
pub const ENGINE_REFRESH_STAGE: &str = "engine.refresh.stage";

/// Counter: requests that panicked; the panic was contained to the
/// request (`TaskPanicked`) and the calling thread carried on. Labels:
/// `op`.
pub const ENGINE_PANICS: &str = "engine.task_panics";

/// Counter: measured kernel work (distance evaluations plus index
/// operations) one request spent in one partition. Labels: `op`,
/// `request`, `algorithm`, plus either `partition` (a detailed counter
/// for one of the request's heaviest partitions) or `partitions` (a
/// per-algorithm rollup of the remaining partitions — emission per
/// request is bounded no matter how many partitions the plan holds).
/// Zero-work partitions are skipped. The detailed counters are the
/// measured side of the predicted-vs-actual cost audit (`dod obs`),
/// against the `predicted_cost` label of `dod.plan.partition` marks.
pub const ENGINE_PARTITION_WORK: &str = "engine.partition.work";

/// Mark: header of a flight-recorder dump, preceding the dumped ring as
/// JSONL. Labels: `reason` (`panic`, `deadline`, `dimension`, …),
/// `dropped` (events lost to write contention), plus the offending
/// request's `request` and `op` when known.
pub const ENGINE_FLIGHT_DUMP: &str = "engine.flight.dump";

/// Counter: points inserted into or removed from the resident dataset
/// by streaming-ingest operations. Labels: `op` (`insert`, `remove`, or
/// `window`), `request`.
pub const ENGINE_CHURN: &str = "engine.churn";

/// Counter: resident points expired by the sliding window. Labels: `op`
/// (the operation whose expiry sweep evicted them), `request`.
pub const ENGINE_WINDOW_EXPIRED: &str = "engine.window.expired";

/// Mark: a staleness probe after a mutation op. Labels: `staleness`
/// (mutations since the last epoch over the epoch's resident size),
/// `threshold`, `refreshed` (whether an epoch swap was triggered).
pub const ENGINE_STALENESS: &str = "engine.staleness";

/// Observation: measured-over-predicted work ratio of one partition,
/// folded from `engine.partition.work` counters against the plan's
/// predicted costs. 1.0 means the Section IV model was exact; the
/// per-algorithm p50 is the model's calibration error for that tactic,
/// the evidence a measured cost constant in the estimator would have to
/// cite. Labels: `algorithm`.
pub const ENGINE_COST_CALIBRATION: &str = "engine.cost.calibration";

/// Counter: partitions whose measured work exceeded what a *rejected*
/// plan candidate would have cost under the observed per-algorithm
/// measured/predicted ratio — i.e. the planner picked a loser. Labels:
/// `algorithm` (the winner that was picked), `better` (the candidate
/// that measured cheaper).
pub const ENGINE_COST_MISPREDICTS: &str = "engine.cost.mispredicts";

/// Mark: a gross mispredict — the picked algorithm's measured work beat
/// a rejected candidate's estimate by a large factor on a partition with
/// non-trivial work; the flight recorder notes it for post-mortems.
/// Labels: `partition`, `algorithm`, `better`, `ratio`.
pub const ENGINE_COST_GROSS_MISPREDICT: &str = "engine.cost.gross_mispredict";

/// Span: one stage of a job on the host. Labels: `stage` (`map`,
/// `shuffle` or `reduce`).
pub const MAPREDUCE_STAGE: &str = "mapreduce.stage";

/// Span: one task's winning attempt plus its simulated I/O charge.
/// Labels: `stage` (`map` or `reduce`), `task`.
pub const MAPREDUCE_TASK: &str = "mapreduce.task";

/// Counter: a task attempt failed and will be retried (or diverted).
/// Labels: `stage`, `task`.
pub const MAPREDUCE_TASK_RETRY: &str = "mapreduce.task.retry";

/// Counter: a speculative backup attempt was launched for a straggler.
/// Labels: `stage`, `task`.
pub const MAPREDUCE_TASK_SPECULATIVE: &str = "mapreduce.task.speculative";

/// Observation: milliseconds slept before retrying a failed attempt.
/// Labels: `stage`, `task`.
pub const MAPREDUCE_TASK_BACKOFF: &str = "mapreduce.task.backoff";

/// Counter: a node crossed the failure threshold and takes no more
/// attempts of the stage. Labels: `stage`, `node`.
pub const MAPREDUCE_NODE_BLACKLISTED: &str = "mapreduce.node.blacklisted";

/// Mark: the map stage's data locality. Labels: `stage`,
/// `local_fraction` (share of map tasks placed on a replica's node),
/// `nodes`.
pub const MAPREDUCE_LOCALITY: &str = "mapreduce.locality";

/// Counter: records crossing the map → reduce boundary of one job.
pub const MAPREDUCE_SHUFFLE_RECORDS: &str = "mapreduce.shuffle.records";

/// Counter: estimated bytes crossing the map → reduce boundary of one
/// job (see `mapreduce::EstimateSize`).
pub const MAPREDUCE_SHUFFLE_BYTES: &str = "mapreduce.shuffle.bytes";

/// Observation: estimated shuffle bytes fetched by one reduce task.
/// Labels: `reducer`.
pub const MAPREDUCE_SHUFFLE_REDUCER_BYTES: &str = "mapreduce.shuffle.reducer_bytes";

/// Observation: shuffle records fetched by one reduce task. Labels:
/// `reducer`.
pub const MAPREDUCE_SHUFFLE_REDUCER_RECORDS: &str = "mapreduce.shuffle.reducer_records";

/// Counter: task-completion records persisted to the checkpoint store.
/// Labels: `stage` (`map` or `reduce`).
pub const MAPREDUCE_CHECKPOINT_WRITE: &str = "mapreduce.checkpoint.write";

/// Counter: tasks restored from the checkpoint store on resume and
/// skipped by the scheduler instead of being re-executed. Labels:
/// `stage`.
pub const MAPREDUCE_CHECKPOINT_SKIP: &str = "mapreduce.checkpoint.skip";

/// Counter: tasks that exhausted their retry budget and were diverted
/// to the dead-letter queue instead of aborting the job. Labels:
/// `stage`.
pub const MAPREDUCE_DLQ_DIVERTED: &str = "mapreduce.dlq.diverted";

/// Counter: dead-letter entries re-driven through the scheduler that
/// completed and were resolved out of the queue. Labels: `stage`.
pub const MAPREDUCE_DLQ_REDRIVEN: &str = "mapreduce.dlq.redriven";

/// Span: one bar of the paper's Figure 10 for one `DodRunner::run`,
/// carrying the exact duration the run's `StageBreakdown` reports.
/// Labels: `stage` (`preprocess`, `map` or `reduce`).
pub const DOD_STAGE: &str = "dod.stage";

/// Span: one step of the preprocessing job; the four add up to the
/// `preprocess` [`DOD_STAGE`] span. Labels: `stage` — `sample` (bounding
/// box + random sample), `plan` (the strategy's `build_plan`: mini
/// buckets and DSHC under DMT), `estimate` (per-partition costs, tactic
/// selection, reducer allocation), `route` (the support-area router).
pub const DOD_PREPROCESS_STAGE: &str = "dod.preprocess.stage";

/// Span: one step of one detection reduce task. Labels: `stage` — `tile`
/// (shuffled records gathered into the partition's core and support
/// tiles), `build` (the tactic's index or grid), `detect` (the scan).
pub const DOD_REDUCE_STAGE: &str = "dod.reduce.stage";

/// Mark: the plan of one run. Labels: `num_partitions`, `num_reducers`,
/// `sample_size`.
pub const DOD_PLAN: &str = "dod.plan";

/// Mark: the tactic chosen for one partition (Corollary 4.3). Labels:
/// `partition`, `algorithm`, and when known `predicted_cost`, `n_est`,
/// `margin`.
pub const DOD_PLAN_PARTITION: &str = "dod.plan.partition";

/// Counter: distance evaluations of one detector run. Labels (all
/// `detect.*` counters): `partition`, `algorithm`; zero counts are not
/// emitted.
pub const DETECT_DISTANCE_EVALS: &str = "detect.distance_evals";

/// Counter: index operations of one detector run — the points hashed or
/// placed while building the Cell-Based grid or the kd-tree. Cell and
/// node visits during the queries are not in it.
pub const DETECT_INDEX_OPS: &str = "detect.index_ops";

/// Counter: points settled by a pruning rule without a scan.
pub const DETECT_PRUNED_POINTS: &str = "detect.pruned_points";

/// Counter: scans that stopped at the `k`-th neighbor.
pub const DETECT_EARLY_TERMINATIONS: &str = "detect.early_terminations";

/// Counter: tree nodes visited by an index-based detector run.
pub const DETECT_NODE_VISITS: &str = "detect.node_visits";

/// Centralized Prometheus `# HELP` text for well-known event names.
///
/// [`crate::prom::render_snapshot`] consults this so every exposition
/// (serve `/metrics`, `metrics` ops, tests) describes a family the same
/// way; unknown names fall back to a generic per-kind description.
pub fn prom_help(event_name: &str) -> Option<&'static str> {
    Some(match event_name {
        n if n == ENGINE_REQUEST => "Engine request latency from start to completion.",
        n if n == ENGINE_DEADLINE_MISSES => "Requests that missed their deadline.",
        n if n == ENGINE_PANICS => "Requests whose job panicked (contained to the request).",
        n if n == ENGINE_PARTITION_WORK => {
            "Measured kernel work one request spent in one partition."
        }
        n if n == ENGINE_CHURN => "Points inserted or removed by streaming-ingest operations.",
        n if n == ENGINE_WINDOW_EXPIRED => "Resident points expired by the sliding window.",
        n if n == ENGINE_COST_CALIBRATION => {
            "Measured-over-predicted partition work ratio per algorithm (1.0 = exact model)."
        }
        n if n == ENGINE_COST_MISPREDICTS => {
            "Partitions where a rejected plan candidate measured cheaper than the picked one."
        }
        n if n == MAPREDUCE_CHECKPOINT_WRITE => {
            "Task-completion records persisted to the checkpoint store."
        }
        n if n == MAPREDUCE_CHECKPOINT_SKIP => {
            "Tasks restored from a checkpoint on resume instead of re-executed."
        }
        n if n == MAPREDUCE_DLQ_DIVERTED => {
            "Tasks diverted to the dead-letter queue after exhausting retries."
        }
        n if n == MAPREDUCE_DLQ_REDRIVEN => {
            "Dead-letter entries re-driven through the scheduler and resolved."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry: every name above, once. A new constant is added
    /// here, where the checks below see it.
    const ALL: [&str; 38] = [
        ENGINE_REQUEST,
        ENGINE_DEADLINE_MISSES,
        ENGINE_REFRESH,
        ENGINE_REFRESH_STAGE,
        ENGINE_PANICS,
        ENGINE_PARTITION_WORK,
        ENGINE_FLIGHT_DUMP,
        ENGINE_CHURN,
        ENGINE_WINDOW_EXPIRED,
        ENGINE_STALENESS,
        ENGINE_COST_CALIBRATION,
        ENGINE_COST_MISPREDICTS,
        ENGINE_COST_GROSS_MISPREDICT,
        MAPREDUCE_STAGE,
        MAPREDUCE_TASK,
        MAPREDUCE_TASK_RETRY,
        MAPREDUCE_TASK_SPECULATIVE,
        MAPREDUCE_TASK_BACKOFF,
        MAPREDUCE_NODE_BLACKLISTED,
        MAPREDUCE_LOCALITY,
        MAPREDUCE_SHUFFLE_RECORDS,
        MAPREDUCE_SHUFFLE_BYTES,
        MAPREDUCE_SHUFFLE_REDUCER_BYTES,
        MAPREDUCE_SHUFFLE_REDUCER_RECORDS,
        MAPREDUCE_CHECKPOINT_WRITE,
        MAPREDUCE_CHECKPOINT_SKIP,
        MAPREDUCE_DLQ_DIVERTED,
        MAPREDUCE_DLQ_REDRIVEN,
        DOD_STAGE,
        DOD_PREPROCESS_STAGE,
        DOD_REDUCE_STAGE,
        DOD_PLAN,
        DOD_PLAN_PARTITION,
        DETECT_DISTANCE_EVALS,
        DETECT_INDEX_OPS,
        DETECT_PRUNED_POINTS,
        DETECT_EARLY_TERMINATIONS,
        DETECT_NODE_VISITS,
    ];

    #[test]
    fn names_are_distinct_dotted_and_lowercase() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name), "{name} is declared twice");
            assert!(name.contains('.'), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "{name}"
            );
        }
        // The stage spans sit under the span they break down.
        assert_eq!(ENGINE_REFRESH_STAGE, format!("{ENGINE_REFRESH}.stage"));
        assert!(
            DOD_PREPROCESS_STAGE.starts_with("dod.") && DOD_PREPROCESS_STAGE.ends_with(".stage")
        );
        assert!(DOD_REDUCE_STAGE.starts_with("dod.") && DOD_REDUCE_STAGE.ends_with(".stage"));
    }

    /// Consumers outside the workspace read these by their spelling (the
    /// benchmark's count pass sums `detect.distance_evals`; checked-in
    /// traces replay `dod.stage`), so the strings are part of the
    /// contract, not only the constants.
    #[test]
    fn pipeline_and_detector_names_keep_their_spelling() {
        assert_eq!(DOD_STAGE, "dod.stage");
        assert_eq!(DOD_PLAN, "dod.plan");
        assert_eq!(DOD_PLAN_PARTITION, "dod.plan.partition");
        assert_eq!(DETECT_DISTANCE_EVALS, "detect.distance_evals");
        assert_eq!(DETECT_INDEX_OPS, "detect.index_ops");
        assert_eq!(DETECT_PRUNED_POINTS, "detect.pruned_points");
        assert_eq!(DETECT_EARLY_TERMINATIONS, "detect.early_terminations");
        assert_eq!(DETECT_NODE_VISITS, "detect.node_visits");
    }

    /// The executor's scheduling names kept the spellings they had when
    /// they were written inline at their emit sites.
    #[test]
    fn scheduling_names_keep_their_spelling() {
        assert_eq!(MAPREDUCE_TASK_RETRY, "mapreduce.task.retry");
        assert_eq!(MAPREDUCE_TASK_SPECULATIVE, "mapreduce.task.speculative");
        assert_eq!(MAPREDUCE_TASK_BACKOFF, "mapreduce.task.backoff");
        assert_eq!(MAPREDUCE_NODE_BLACKLISTED, "mapreduce.node.blacklisted");
        assert_eq!(MAPREDUCE_LOCALITY, "mapreduce.locality");
    }
}
