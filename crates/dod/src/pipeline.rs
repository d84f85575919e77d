//! The end-to-end DOD pipeline (Figure 6).
//!
//! A run executes the two MapReduce jobs of the full-fledged system:
//!
//! 1. **Preprocessing** on a small random sample: partition-plan
//!    generation (any [`PartitionStrategy`]), algorithm-plan selection
//!    (Corollary 4.3 over the candidate set), and partition→reducer
//!    allocation (multi-bin packing). Its wall time is the `Preprocess`
//!    bar of Figure 10.
//! 2. **Detection** over the full dataset: supporting-area routing at the
//!    mappers (`Map` bar), shuffle, and per-partition detection at the
//!    reducers (`Reduce` bar).
//!
//! The Domain baseline (no supporting areas) instead runs the two-job
//! candidate/verification protocol of [`crate::two_job`].

pub use crate::config::{ConfigError, DodConfig};

use crate::framework::{load_points, DodMapper, DodReducer, InputPoint};
use crate::two_job::{
    Candidate, CandidateIndex, CandidateMapper, CandidateReducer, VerifyMapper, VerifyReducer,
};
use dod_core::{CoreError, OutlierParams, PointId, PointSet};
use dod_detect::cost::{AlgorithmKind, PAPER_CANDIDATES};
use dod_obs::{names, Value};
use dod_partition::{
    sample_points, Dmt, LocalCostEstimator, MultiTacticPlan, PartitionStrategy, PlanContext, Router,
};
use mapreduce::checkpoint::{fingerprint_u64s, CheckpointStore, JobFingerprint};
use mapreduce::{BlockStore, JobError, JobMetrics, JobOptions, JobOutcome, SumCombiner};
use std::collections::HashSet;
use std::sync::Arc;

/// Per-job metrics, sorted outlier ids, per-partition reduce times, and
/// the number of tasks diverted to the dead-letter queue, returned by
/// one detection protocol run.
type JobOutputs = (Vec<JobMetrics>, Vec<PointId>, Vec<(u32, Duration)>, u64);
use std::time::{Duration, Instant};

/// Errors from a pipeline run.
///
/// This is the single error surface of the crate (re-exported as
/// [`crate::Error`]): configuration validation, geometry/parameter
/// checks, and MapReduce execution failures all arrive here, with the
/// underlying error reachable through [`std::error::Error::source`].
#[derive(Debug)]
#[non_exhaustive]
pub enum DodError {
    /// A MapReduce job failed (task retries exhausted, or records were
    /// emitted to a job with no reducers).
    Job(JobError),
    /// Invalid geometry or parameters (dimension mismatch, empty input
    /// where points are required, out-of-range parameter).
    Core(CoreError),
    /// A configuration failed [`DodConfig::builder`] validation.
    Config(ConfigError),
}

impl std::fmt::Display for DodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DodError::Job(e) => write!(f, "job failed: {e}"),
            DodError::Core(e) => write!(f, "invalid input: {e}"),
            DodError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for DodError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DodError::Job(e) => Some(e),
            DodError::Core(e) => Some(e),
            DodError::Config(e) => Some(e),
        }
    }
}

impl From<JobError> for DodError {
    fn from(e: JobError) -> Self {
        DodError::Job(e)
    }
}

impl From<CoreError> for DodError {
    fn from(e: CoreError) -> Self {
        DodError::Core(e)
    }
}

impl From<ConfigError> for DodError {
    fn from(e: ConfigError) -> Self {
        DodError::Config(e)
    }
}

/// Stage breakdown of a run (the Figure 10 bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Preprocessing job wall time (sampling + plan generation).
    pub preprocess: Duration,
    /// Simulated map-stage makespan, summed over jobs.
    pub map: Duration,
    /// Simulated reduce-stage makespan, summed over jobs.
    pub reduce: Duration,
}

impl StageBreakdown {
    /// Simulated end-to-end execution time.
    pub fn total(&self) -> Duration {
        self.preprocess + self.map + self.reduce
    }

    /// Reconstructs the breakdown from an event stream (e.g. a replayed
    /// `--trace` JSONL file): sums the `dod.stage` spans by their `stage`
    /// label. A trace of a run replays to exactly the breakdown that run
    /// reported, because the pipeline emits those spans from the same
    /// `Duration` values.
    pub fn from_events(events: &[dod_obs::Event]) -> StageBreakdown {
        let mut breakdown = StageBreakdown::default();
        for event in events {
            if event.name != names::DOD_STAGE {
                continue;
            }
            let Some(nanos) = event.span_nanos() else {
                continue;
            };
            let d = Duration::from_nanos(nanos);
            match event.label("stage").and_then(Value::as_str) {
                Some("preprocess") => breakdown.preprocess += d,
                Some("map") => breakdown.map += d,
                Some("reduce") => breakdown.reduce += d,
                _ => {}
            }
        }
        breakdown
    }
}

/// Full diagnostics of a run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-stage simulated times.
    pub breakdown: StageBreakdown,
    /// Metrics of every MapReduce job executed (1 normally, 2 for the
    /// Domain baseline).
    pub jobs: Vec<JobMetrics>,
    /// Number of partitions in the plan.
    pub num_partitions: usize,
    /// How many partitions each algorithm was assigned to.
    pub algorithm_histogram: Vec<(AlgorithmKind, usize)>,
    /// Total bytes crossing all shuffles.
    pub shuffle_bytes: u64,
    /// Measured reduce time per partition of the detection job.
    pub partition_times: Vec<(u32, Duration)>,
    /// Predicted per-partition costs from the plan.
    pub predicted_costs: Vec<f64>,
    /// Tasks diverted to the dead-letter queue across all jobs. Non-zero
    /// only for checkpointed runs (see [`DodConfig::checkpoint`] — the
    /// field on the config struct, set via the builder's `checkpoint`
    /// method) whose jobs finished [`JobOutcome::PartialWithDlq`]; the
    /// outlier set is then a partial result.
    pub diverted_tasks: u64,
}

/// The result of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct DodOutcome {
    /// Ids of all detected outliers, ascending.
    pub outliers: Vec<PointId>,
    /// Diagnostics.
    pub report: RunReport,
}

/// The configured pipeline. Construct with [`DodRunner::builder`].
///
/// Cloning is cheap (the strategy is shared behind an [`Arc`]); a clone
/// runs against the same strategy and a copy of the configuration. The
/// resident engine relies on this to re-plan with a reseeded config via
/// [`DodRunner::with_config`].
#[derive(Clone)]
pub struct DodRunner {
    config: DodConfig,
    strategy: Arc<dyn PartitionStrategy + Send + Sync>,
    /// The algorithms each partition's plan chooses among (Corollary
    /// 4.3); one candidate runs it everywhere.
    candidates: Vec<AlgorithmKind>,
}

/// Builder for [`DodRunner`].
pub struct DodRunnerBuilder {
    config: Option<DodConfig>,
    params: Option<OutlierParams>,
    strategy: Arc<dyn PartitionStrategy + Send + Sync>,
    candidates: Vec<AlgorithmKind>,
}

impl Default for DodRunnerBuilder {
    fn default() -> Self {
        DodRunnerBuilder {
            config: None,
            params: None,
            strategy: Arc::new(Dmt::default()),
            candidates: PAPER_CANDIDATES.to_vec(),
        }
    }
}

impl DodRunnerBuilder {
    /// Sets the outlier parameters (required unless a full config is
    /// given).
    pub fn params(mut self, params: OutlierParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: DodConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the partitioning strategy (default: [`Dmt`]).
    pub fn strategy(mut self, strategy: impl PartitionStrategy + Send + Sync + 'static) -> Self {
        self.strategy = Arc::new(strategy);
        self
    }

    /// Uses one fixed detection algorithm everywhere — the "monolithic"
    /// approach of all prior work (Section I).
    pub fn fixed(self, kind: AlgorithmKind) -> Self {
        self.candidates(vec![kind])
    }

    /// Uses per-partition algorithm selection over the paper's candidate
    /// set (Cell-Based + Nested-Loop).
    pub fn multi_tactic(self) -> Self {
        self.candidates(PAPER_CANDIDATES.to_vec())
    }

    /// Uses per-partition algorithm selection over a custom candidate set.
    pub fn candidates(mut self, candidates: Vec<AlgorithmKind>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Finalizes the runner.
    ///
    /// # Panics
    /// Panics if neither `params` nor a full `config` was provided.
    pub fn build(self) -> DodRunner {
        let config = match (self.config, self.params) {
            (Some(c), _) => c,
            (None, Some(p)) => DodConfig::new(p),
            (None, None) => panic!("DodRunner::builder() needs .params(...) or .config(...)"),
        };
        DodRunner {
            config,
            strategy: self.strategy,
            candidates: self.candidates,
        }
    }
}

/// Output of the preprocessing job: everything the detection phase (or a
/// resident engine) needs to route points and detect, plus timing.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// The multi-tactic plan: partitions, per-partition algorithms,
    /// reducer allocation, and predicted costs.
    pub mt: MultiTacticPlan,
    /// Supporting-area routing structure over the plan's partitions.
    pub router: Arc<Router>,
    /// Number of points in the preprocessing sample.
    pub sample_size: usize,
    /// Wall time of the preprocessing job.
    pub elapsed: Duration,
}

impl DodRunner {
    /// Starts building a runner.
    pub fn builder() -> DodRunnerBuilder {
        DodRunnerBuilder::default()
    }

    /// The active configuration.
    pub fn config(&self) -> &DodConfig {
        &self.config
    }

    /// A runner with the same strategy and candidates but a different
    /// configuration — e.g. the same pipeline reseeded for a plan refresh.
    pub fn with_config(&self, config: DodConfig) -> DodRunner {
        DodRunner {
            config,
            strategy: Arc::clone(&self.strategy),
            candidates: self.candidates.clone(),
        }
    }

    /// Runs the preprocessing job alone (Figure 6, top): sampling,
    /// partition-plan generation, per-partition algorithm selection, and
    /// reducer allocation.
    ///
    /// [`DodRunner::run`] calls this internally; a resident engine calls
    /// it once and serves many requests against the returned plan.
    ///
    /// # Errors
    /// Returns [`DodError::Core`] if the input is dimensionally
    /// inconsistent or empty where points are required.
    pub fn preprocess(&self, data: &PointSet) -> Result<Preprocessed, DodError> {
        let cfg = &self.config;
        let t0 = Instant::now();
        let domain = data.bounding_rect()?;
        let sample = sample_points(data, cfg.sample_rate, cfg.seed);
        let t_sampled = Instant::now();
        let ctx = PlanContext::new(cfg.params, cfg.target_partitions, cfg.sample_rate);
        let plan = self.strategy.build_plan(&sample, &domain, &ctx);
        let t_planned = Instant::now();
        let allocation = cfg
            .allocation
            .unwrap_or_else(|| self.strategy.default_allocation());
        let estimator = LocalCostEstimator::new(&domain, &sample, cfg.sample_rate, cfg.params, 32);
        let estimates = estimator.estimate(&plan, &sample, &self.candidates);
        let mt = MultiTacticPlan::from_estimates(plan, estimates, cfg.num_reducers, allocation);
        let t_estimated = Instant::now();
        let router = Arc::new(mt.plan.router_with_metric(cfg.params.r, cfg.params.metric));
        let t_routed = Instant::now();
        let elapsed = t_routed - t0;
        if cfg.obs.enabled() {
            for (stage, took) in [
                ("sample", t_sampled - t0),
                ("plan", t_planned - t_sampled),
                ("estimate", t_estimated - t_planned),
                ("route", t_routed - t_estimated),
            ] {
                cfg.obs.record_duration(
                    names::DOD_PREPROCESS_STAGE,
                    took,
                    &[("stage", Value::from(stage))],
                );
            }
            // One mark per partition documents the DMT plan decision
            // (Corollary 4.3: the cheapest candidate per partition).
            for p in &mt.report.partitions {
                let labels = [
                    ("partition", Value::from(p.partition)),
                    ("algorithm", Value::from(p.winner.name())),
                    ("predicted_cost", Value::from(p.winner_cost)),
                    ("n_est", Value::from(p.n_est)),
                    ("margin", Value::from(p.margin)),
                ];
                cfg.obs.mark(names::DOD_PLAN_PARTITION, &labels);
            }
            cfg.obs.mark(
                names::DOD_PLAN,
                &[
                    ("num_partitions", Value::from(mt.num_partitions())),
                    ("num_reducers", Value::from(cfg.num_reducers)),
                    ("sample_size", Value::from(sample.len())),
                ],
            );
        }
        Ok(Preprocessed {
            mt,
            router,
            sample_size: sample.len(),
            elapsed,
        })
    }

    /// Detects all distance-threshold outliers in `data`.
    ///
    /// # Errors
    /// Returns [`DodError`] if a MapReduce job exhausts its retries or the
    /// input is dimensionally inconsistent.
    pub fn run(&self, data: &PointSet) -> Result<DodOutcome, DodError> {
        if data.is_empty() {
            return Ok(DodOutcome::default());
        }
        let cfg = &self.config;

        // ---- Preprocessing job (Figure 6, top). ----
        let Preprocessed {
            mt,
            router,
            elapsed: preprocess,
            ..
        } = self.preprocess(data)?;

        // ---- Load into the block store. ----
        let store = load_points(data, cfg.block_size, cfg.replication);

        // ---- Detection (single-job or two-job). ----
        // A checkpointed job's records name rows of `data`, so its store
        // is bound to the input itself, not only to the plan.
        let input = match cfg.checkpoint {
            Some(_) => input_digest(data),
            None => 0,
        };
        let detection = if self.strategy.uses_support_area() {
            self.run_single_job(data, input, &store, &mt, &router)?
        } else {
            self.run_two_job(data, input, &store, &mt)?
        };

        let mut histogram: Vec<(AlgorithmKind, usize)> = Vec::new();
        for &alg in &mt.algorithms {
            match histogram.iter_mut().find(|(a, _)| *a == alg) {
                Some((_, n)) => *n += 1,
                None => histogram.push((alg, 1)),
            }
        }
        histogram.sort_by_key(|(a, _)| *a);

        let (jobs, outliers, partition_times, diverted_tasks) = detection;
        let breakdown = StageBreakdown {
            preprocess,
            map: jobs.iter().map(|j| j.map_makespan).sum(),
            reduce: jobs.iter().map(|j| j.reduce_makespan).sum(),
        };
        // The Figure 10 bars, one span each, carrying the exact durations
        // of the StageBreakdown so a JSONL trace replays to the same
        // numbers (see `breakdown_from_events`).
        for (stage, took) in [
            ("preprocess", breakdown.preprocess),
            ("map", breakdown.map),
            ("reduce", breakdown.reduce),
        ] {
            cfg.obs
                .record_duration(names::DOD_STAGE, took, &[("stage", Value::from(stage))]);
        }
        cfg.obs.flush();
        let shuffle_bytes = jobs.iter().map(|j| j.shuffle_bytes).sum();
        Ok(DodOutcome {
            outliers,
            report: RunReport {
                breakdown,
                jobs,
                num_partitions: mt.num_partitions(),
                algorithm_histogram: histogram,
                shuffle_bytes,
                partition_times,
                predicted_costs: mt.predicted_costs.clone(),
                diverted_tasks,
            },
        })
    }

    /// Opens the checkpoint store for one of the pipeline's jobs, or
    /// `None` when the config carries no durability spec. The job id is
    /// the operator's name plus a per-job `suffix`; the fingerprint tag
    /// binds the store to the input, parameters and plan that produced
    /// it, so a resumed run against different inputs starts fresh
    /// instead of restoring foreign state.
    fn open_store(
        &self,
        suffix: &str,
        map_tasks: usize,
        tag: String,
    ) -> Result<Option<CheckpointStore>, DodError> {
        let Some(spec) = &self.config.checkpoint else {
            return Ok(None);
        };
        let fingerprint = JobFingerprint {
            map_tasks,
            reducers: self.config.num_reducers,
            tag,
        };
        CheckpointStore::open(&spec.dir, &format!("{}{suffix}", spec.job_id), &fingerprint)
            .map(Some)
            .map_err(|e| DodError::Job(JobError::Checkpoint(e.to_string())))
    }

    /// Fingerprint tag of one job: the `input` digest, `r`, `k`, metric,
    /// seed, and the partition plan (allocation + per-partition
    /// algorithms), plus a job-specific `extra` word (the verify job
    /// hashes its candidate set in).
    fn job_tag(&self, job: &str, input: u64, mt: &MultiTacticPlan, extra: u64) -> String {
        let cfg = &self.config;
        let words = [
            input,
            cfg.params.r.to_bits(),
            cfg.params.k as u64,
            fnv_str(&format!("{:?}", cfg.params.metric)),
            cfg.seed,
            extra,
        ]
        .into_iter()
        .chain(mt.allocation.iter().map(|&a| a as u64))
        .chain(mt.algorithms.iter().map(|a| fnv_str(a.name())));
        format!("{job} fp={:016x}", fingerprint_u64s(words))
    }

    /// The supporting-area single-job protocol (Section III).
    fn run_single_job(
        &self,
        data: &PointSet,
        input: u64,
        store: &BlockStore<InputPoint<'_>>,
        mt: &MultiTacticPlan,
        router: &Router,
    ) -> Result<JobOutputs, DodError> {
        let cfg = &self.config;
        let mapper = DodMapper::new(router);
        let reducer = DodReducer::new(data, cfg.params, Arc::new(mt.algorithms.clone()))
            .with_obs(cfg.obs.clone());
        let allocation = mt.allocation.clone();
        let partitioner = move |k: &u32, _n: usize| allocation[*k as usize];
        let tag = self.job_tag("detect", input, mt, 0);
        let ck = self.open_store("-detect", store.num_blocks(), tag)?;
        let out = mapreduce::run(
            &cfg.cluster,
            store,
            &mapper,
            &reducer,
            &partitioner,
            cfg.num_reducers,
            JobOptions {
                obs: cfg.obs.clone(),
                checkpoint: ck.as_ref(),
                ..JobOptions::default()
            },
        )?;
        let diverted = diverted_count(out.outcome);
        let mut outliers = out.outputs;
        outliers.sort_unstable();
        let times = out.key_times;
        Ok((vec![out.metrics], outliers, times, diverted))
    }

    /// The Domain baseline's two-job protocol (Section VI-A).
    fn run_two_job(
        &self,
        data: &PointSet,
        input: u64,
        store: &BlockStore<InputPoint<'_>>,
        mt: &MultiTacticPlan,
    ) -> Result<JobOutputs, DodError> {
        let cfg = &self.config;

        // Job 1: local detection, emitting candidates.
        let mapper = CandidateMapper::new(&mt.plan);
        let reducer =
            CandidateReducer::with_plan(data, cfg.params, Arc::new(mt.algorithms.clone()))
                .with_obs(cfg.obs.clone());
        let allocation = mt.allocation.clone();
        let partitioner = move |k: &u32, _n: usize| allocation[*k as usize];
        let tag = self.job_tag("candidates", input, mt, 0);
        let ck1 = self.open_store("-candidates", store.num_blocks(), tag)?;
        let job1 = mapreduce::run(
            &cfg.cluster,
            store,
            &mapper,
            &reducer,
            &partitioner,
            cfg.num_reducers,
            JobOptions {
                obs: cfg.obs.clone(),
                checkpoint: ck1.as_ref(),
                ..JobOptions::default()
            },
        )?;
        let mut diverted = diverted_count(job1.outcome);
        let candidates: Vec<Candidate> = job1.outputs;
        let partition_times = job1.key_times.clone();

        if candidates.is_empty() {
            return Ok((vec![job1.metrics], Vec::new(), partition_times, diverted));
        }

        // Job 2: global verification of the candidates.
        let index = CandidateIndex::build_with_metric(candidates, cfg.params.r, cfg.params.metric);
        let verify_mapper = VerifyMapper::new(&index);
        let verify_reducer = VerifyReducer::new(cfg.params.k);
        let hash_partitioner = |k: &u32, n: usize| (*k as usize) % n;
        // The verify job's work depends on which candidates job 1
        // produced, so its fingerprint hashes the candidate ids: a
        // redrive that changes the candidate set invalidates stale
        // verify checkpoints instead of restoring them.
        let candidate_fp = fingerprint_u64s(index.candidates().iter().map(|c| c.id));
        let tag = self.job_tag("verify", input, mt, candidate_fp);
        let ck2 = self.open_store("-verify", store.num_blocks(), tag)?;
        // Partial counts fold map-side (a Hadoop combiner), keeping the
        // second job's shuffle tiny.
        let job2 = mapreduce::run(
            &cfg.cluster,
            store,
            &verify_mapper,
            &verify_reducer,
            &hash_partitioner,
            cfg.num_reducers,
            JobOptions {
                obs: cfg.obs.clone(),
                combiner: Some(&SumCombiner::new()),
                checkpoint: ck2.as_ref(),
            },
        )?;
        diverted += diverted_count(job2.outcome);
        let cleared: HashSet<u32> = job2.outputs.into_iter().collect();
        let mut outliers: Vec<PointId> = index
            .candidates()
            .iter()
            .enumerate()
            .filter(|(i, _)| !cleared.contains(&(*i as u32)))
            .map(|(_, c)| c.id)
            .collect();
        outliers.sort_unstable();
        Ok((
            vec![job1.metrics, job2.metrics],
            outliers,
            partition_times,
            diverted,
        ))
    }
}

/// Dead-lettered task count of one job outcome.
fn diverted_count(outcome: JobOutcome) -> u64 {
    match outcome {
        JobOutcome::Complete => 0,
        JobOutcome::PartialWithDlq { diverted } => diverted as u64,
    }
}

/// Digest of a job's input for its checkpoint fingerprint: the row
/// count, the dimension and the bits of every coordinate.
fn input_digest(data: &PointSet) -> u64 {
    let shape = [data.len() as u64, data.dim() as u64];
    fingerprint_u64s(
        shape
            .into_iter()
            .chain(data.as_flat().iter().map(|c| c.to_bits())),
    )
}

/// FNV-1a over a string — stable words for the job fingerprint tag.
fn fnv_str(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_detect::{Detector, Reference};
    use dod_partition::{CDriven, DDriven, Domain, UniSpace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered_data(seed: u64, n: usize) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = PointSet::new(2).unwrap();
        for _ in 0..n {
            // Two clusters plus sparse noise.
            let roll: f64 = rng.gen();
            let (cx, cy, spread): (f64, f64, f64) = if roll < 0.45 {
                (10.0, 10.0, 1.5)
            } else if roll < 0.9 {
                (40.0, 35.0, 2.5)
            } else {
                (25.0, 25.0, 25.0)
            };
            pts.push(&[
                (cx + rng.gen_range(-spread..spread)).clamp(0.0, 50.0),
                (cy + rng.gen_range(-spread..spread)).clamp(0.0, 50.0),
            ])
            .unwrap();
        }
        pts
    }

    fn reference_outliers(data: &PointSet, params: OutlierParams) -> Vec<PointId> {
        Reference
            .detect(&dod_detect::Partition::standalone(data.clone()), params)
            .outliers
    }

    fn small_config(params: OutlierParams) -> DodConfig {
        DodConfig::builder(params)
            .sample_rate(1.0)
            .block_size(64)
            .num_reducers(4)
            .target_partitions(9)
            .build()
            .unwrap()
    }

    #[test]
    fn dmt_pipeline_matches_reference() {
        let data = clustered_data(1, 600);
        let params = OutlierParams::new(1.5, 4).unwrap();
        let runner = DodRunner::builder()
            .config(small_config(params))
            .multi_tactic()
            .build();
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, reference_outliers(&data, params));
        assert!(outcome.report.num_partitions >= 1);
        assert!(outcome.report.breakdown.total() > Duration::ZERO);
    }

    #[test]
    fn every_strategy_is_exact() {
        let data = clustered_data(2, 400);
        let params = OutlierParams::new(2.0, 3).unwrap();
        let expected = reference_outliers(&data, params);

        let strategies: Vec<Box<dyn Fn() -> DodRunner>> = vec![
            Box::new(move || {
                DodRunner::builder()
                    .config(small_config(params))
                    .strategy(UniSpace)
                    .fixed(AlgorithmKind::NestedLoop)
                    .build()
            }),
            Box::new(move || {
                DodRunner::builder()
                    .config(small_config(params))
                    .strategy(DDriven)
                    .fixed(AlgorithmKind::CellBased)
                    .build()
            }),
            Box::new(move || {
                DodRunner::builder()
                    .config(small_config(params))
                    .strategy(CDriven::new(AlgorithmKind::NestedLoop))
                    .multi_tactic()
                    .build()
            }),
            Box::new(move || {
                DodRunner::builder()
                    .config(small_config(params))
                    .strategy(Domain)
                    .fixed(AlgorithmKind::NestedLoop)
                    .build()
            }),
        ];
        for (i, make) in strategies.iter().enumerate() {
            let outcome = make().run(&data).unwrap();
            assert_eq!(outcome.outliers, expected, "strategy {i}");
        }
    }

    #[test]
    fn domain_baseline_runs_two_jobs_when_candidates_exist() {
        let data = clustered_data(3, 300);
        let params = OutlierParams::new(1.0, 6).unwrap();
        let runner = DodRunner::builder()
            .config(small_config(params))
            .strategy(Domain)
            .fixed(AlgorithmKind::NestedLoop)
            .build();
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, reference_outliers(&data, params));
        // With a 3x3 grid over clustered data there are always edge
        // candidates, so job 2 must have run.
        assert_eq!(outcome.report.jobs.len(), 2);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let params = OutlierParams::new(1.0, 3).unwrap();
        let runner = DodRunner::builder().params(params).build();
        let outcome = runner.run(&PointSet::new(2).unwrap()).unwrap();
        assert!(outcome.outliers.is_empty());
        assert!(outcome.report.jobs.is_empty());
    }

    #[test]
    fn single_point_is_outlier() {
        let params = OutlierParams::new(1.0, 1).unwrap();
        let mut data = PointSet::new(2).unwrap();
        data.push(&[3.0, 4.0]).unwrap();
        let runner = DodRunner::builder().config(small_config(params)).build();
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, vec![0]);
    }

    #[test]
    fn report_accounts_every_partition() {
        let data = clustered_data(4, 500);
        let params = OutlierParams::new(1.5, 4).unwrap();
        let runner = DodRunner::builder()
            .config(small_config(params))
            .multi_tactic()
            .build();
        let outcome = runner.run(&data).unwrap();
        let total_algs: usize = outcome
            .report
            .algorithm_histogram
            .iter()
            .map(|(_, n)| n)
            .sum();
        assert_eq!(total_algs, outcome.report.num_partitions);
        assert_eq!(
            outcome.report.predicted_costs.len(),
            outcome.report.num_partitions
        );
        assert!(outcome.report.shuffle_bytes > 0);
    }

    #[test]
    fn multi_tactic_uses_multiple_algorithms_on_skewed_data() {
        // Three density regimes: a dense blob (Lemma 4.2 case 1 ->
        // Cell-Based), an intermediate-density block (case 3 ->
        // Nested-Loop wins), and a sparse background (case 2 ->
        // Cell-Based).
        let mut data = PointSet::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3000 {
            data.push(&[rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0)])
                .unwrap();
        }
        for _ in 0..2000 {
            // Density ~2 points per unit area: the Corollary 4.3 middle.
            data.push(&[rng.gen_range(40.0..72.0), rng.gen_range(0.0..31.0)])
                .unwrap();
        }
        for _ in 0..300 {
            data.push(&[rng.gen_range(3.0..100.0), rng.gen_range(31.0..100.0)])
                .unwrap();
        }
        let params = OutlierParams::new(1.0, 4).unwrap();
        let config = small_config(params)
            .to_builder()
            .target_partitions(32)
            .build()
            .unwrap();
        // The paper-variant candidate set: the full-scan Cell-Based pays
        // Nested-Loop-like fallback costs, so the intermediate-density
        // block genuinely favors Nested-Loop and the plan mixes.
        let runner = DodRunner::builder()
            .config(config)
            .candidates(dod_detect::cost::PAPER_VARIANT_CANDIDATES.to_vec())
            .build();
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, reference_outliers(&data, params));
        assert!(
            outcome.report.algorithm_histogram.len() >= 2,
            "expected a mixed algorithm plan, got {:?}",
            outcome.report.algorithm_histogram
        );
    }

    #[test]
    #[should_panic]
    fn builder_without_params_panics() {
        let _ = DodRunner::builder().build();
    }

    #[test]
    fn three_dimensional_pipeline_is_exact() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut data = PointSet::new(3).unwrap();
        for _ in 0..300 {
            data.push(&[
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
            ])
            .unwrap();
        }
        let params = OutlierParams::new(1.5, 3).unwrap();
        let runner = DodRunner::builder()
            .config(small_config(params))
            .strategy(UniSpace)
            .multi_tactic()
            .build();
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, reference_outliers(&data, params));
    }

    /// A detect-job store in the format whose records carried their
    /// coordinates — `[support, id, coords]` records under a tag with no
    /// input digest — starts fresh: the tag no longer matches, nothing is
    /// restored, and the answer is exact although the stored records
    /// send every point to partition 0 at a far-off spot.
    #[test]
    fn a_store_in_the_coordinate_carrying_format_starts_fresh() {
        let data = clustered_data(8, 400);
        let params = OutlierParams::new(1.5, 4).unwrap();
        let root = std::env::temp_dir().join(format!("dod-old-format-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = small_config(params)
            .to_builder()
            .checkpoint(&root, "old")
            .build()
            .unwrap();
        let runner = DodRunner::builder().config(config).multi_tactic().build();
        let mt = runner.preprocess(&data).unwrap().mt;
        let cfg = runner.config();
        let words = [
            cfg.params.r.to_bits(),
            cfg.params.k as u64,
            fnv_str(&format!("{:?}", cfg.params.metric)),
            cfg.seed,
            0,
        ]
        .into_iter()
        .chain(mt.allocation.iter().map(|&a| a as u64))
        .chain(mt.algorithms.iter().map(|a| fnv_str(a.name())));
        let fingerprint = JobFingerprint {
            map_tasks: data.len().div_ceil(cfg.block_size),
            reducers: cfg.num_reducers,
            tag: format!("detect fp={:016x}", fingerprint_u64s(words)),
        };
        let store = CheckpointStore::open(&root, "old-detect", &fingerprint).unwrap();
        // `[support, id, [coords]]`, every point core in partition 0.
        type OldRecord = (u32, (bool, u64, Vec<f64>));
        let ids: Vec<u64> = (0..data.len() as u64).collect();
        for (task, rows) in ids.chunks(cfg.block_size).enumerate() {
            let records: Vec<OldRecord> = rows
                .iter()
                .map(|&id| (0, (false, id, vec![1e9, 1e9])))
                .collect();
            store.save_task("map", task, 0, Duration::ZERO, &records);
        }
        drop(store);
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, reference_outliers(&data, params));
        assert_eq!(outcome.report.jobs[0].checkpoint_skips, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
