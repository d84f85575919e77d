//! Pipeline configuration and its validating builder.
//!
//! [`DodConfig`] is constructed through [`DodConfig::builder`], which
//! checks the cross-field invariants the pipeline assumes (a usable
//! sampling rate, at least one reducer, at least as many partitions as
//! reducers) and reports violations as [`ConfigError`] instead of letting
//! them surface as confusing behaviour deep inside a run.
//!
//! The struct is `#[non_exhaustive]`: fields stay readable (and, for
//! tests that deliberately probe degenerate combinations, writable), but
//! downstream crates cannot construct it literally, so adding a field is
//! not a breaking change.

use dod_core::OutlierParams;
use dod_obs::Obs;
use dod_partition::sample::DEFAULT_SAMPLE_RATE;
use dod_partition::AllocationSpec;
use mapreduce::ClusterConfig;
use std::path::PathBuf;

/// Where to persist job durability state (checkpoints + dead-letter
/// queue). Attaching one switches every MapReduce job the pipeline runs
/// to its durable variant: completed tasks are checkpointed under
/// `dir/<job_id>-<stage suffix>/` and an interrupted run resumes from
/// the last completed task instead of starting over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Root directory of the checkpoint store.
    pub dir: PathBuf,
    /// Operator-chosen job name; the pipeline appends a per-job suffix
    /// (`-detect`, `-candidates`, `-verify`) for each MapReduce job it
    /// launches.
    pub job_id: String,
}

/// A [`DodConfig::builder`] validation failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `sample_rate` must lie in `(0, 1]`: the preprocessing job needs a
    /// non-empty sample and cannot up-sample.
    SampleRate(f64),
    /// `num_reducers` must be at least 1: the detection job has to run
    /// its reduce phase somewhere.
    NoReducers,
    /// `target_partitions` must be at least `num_reducers`, otherwise
    /// some reducers can never receive work and the balance objective of
    /// the allocation phase is vacuous.
    TooFewPartitions {
        /// The requested partition count `m`.
        target_partitions: usize,
        /// The requested reducer count.
        num_reducers: usize,
    },
    /// The outlier radius `r` must be positive and finite.
    NonPositiveRadius(f64),
    /// `block_size` must be at least 1 input item per block.
    ZeroBlockSize,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::SampleRate(v) => {
                write!(f, "sample_rate must be in (0, 1], got {v}")
            }
            ConfigError::NoReducers => write!(f, "num_reducers must be at least 1"),
            ConfigError::TooFewPartitions {
                target_partitions,
                num_reducers,
            } => write!(
                f,
                "target_partitions ({target_partitions}) must be >= num_reducers ({num_reducers})"
            ),
            ConfigError::NonPositiveRadius(r) => {
                write!(f, "outlier radius r must be positive and finite, got {r}")
            }
            ConfigError::ZeroBlockSize => write!(f, "block_size must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Pipeline configuration. Construct with [`DodConfig::builder`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DodConfig {
    /// Outlier parameters (`r`, `k`).
    pub params: OutlierParams,
    /// Logical cluster topology.
    pub cluster: ClusterConfig,
    /// Number of reduce tasks.
    pub num_reducers: usize,
    /// Desired number of partitions `m` (≥ reducers for balance slack).
    pub target_partitions: usize,
    /// Sampling rate Υ of the preprocessing job.
    pub sample_rate: f64,
    /// Input items per HDFS-like block (map-task granularity).
    pub block_size: usize,
    /// Block replication factor (storage accounting only).
    pub replication: usize,
    /// Seed for sampling and randomized detectors.
    pub seed: u64,
    /// Partition→reducer allocation override. `None` uses the strategy's
    /// paper-faithful default (round-robin for Domain/uniSpace,
    /// cardinality-balanced for DDriven, cost-balanced for CDriven/DMT).
    pub allocation: Option<AllocationSpec>,
    /// Observability sink for the run: stage spans, plan decisions,
    /// MapReduce task spans, and per-partition detector counters flow
    /// through it. Defaults to the disabled handle (zero overhead).
    pub obs: Obs,
    /// Durability root for checkpoint/resume and the dead-letter queue.
    /// `None` (the default) runs every job in-memory only.
    pub checkpoint: Option<CheckpointSpec>,
}

impl DodConfig {
    /// The default configuration for the given parameters.
    ///
    /// Cluster-shaped values are *derived* from [`ClusterConfig::default`]
    /// rather than fixed constants: `num_reducers` is the cluster's
    /// reduce-lane count, and `target_partitions` is four times that (the
    /// `m > n` slack Section V's packing needs). Sampling uses the
    /// paper's default rate ([`DEFAULT_SAMPLE_RATE`]).
    pub fn new(params: OutlierParams) -> Self {
        let cluster = ClusterConfig::default();
        let lanes = cluster.reduce_lanes();
        DodConfig {
            params,
            cluster,
            num_reducers: lanes,
            target_partitions: lanes * 4,
            sample_rate: DEFAULT_SAMPLE_RATE,
            block_size: 64 * 1024,
            replication: 3,
            seed: 0xD0D_5EED,
            allocation: None,
            obs: Obs::null(),
            checkpoint: None,
        }
    }

    /// Starts building a configuration for the given parameters.
    pub fn builder(params: OutlierParams) -> DodConfigBuilder {
        DodConfigBuilder {
            params,
            cluster: None,
            num_reducers: None,
            target_partitions: None,
            sample_rate: DEFAULT_SAMPLE_RATE,
            block_size: 64 * 1024,
            replication: 3,
            seed: 0xD0D_5EED,
            allocation: None,
            obs: Obs::null(),
            checkpoint: None,
        }
    }

    /// Re-opens this configuration as a builder, for deriving a variant
    /// with a few fields changed.
    pub fn to_builder(&self) -> DodConfigBuilder {
        DodConfigBuilder {
            params: self.params,
            cluster: Some(self.cluster),
            num_reducers: Some(self.num_reducers),
            target_partitions: Some(self.target_partitions),
            sample_rate: self.sample_rate,
            block_size: self.block_size,
            replication: self.replication,
            seed: self.seed,
            allocation: self.allocation,
            obs: self.obs.clone(),
            checkpoint: self.checkpoint.clone(),
        }
    }
}

/// Validating builder for [`DodConfig`].
///
/// Unset cluster-shaped values are derived at [`DodConfigBuilder::build`]
/// time: `num_reducers` defaults to the cluster's reduce-lane count and
/// `target_partitions` to four times `num_reducers`.
#[derive(Debug, Clone)]
pub struct DodConfigBuilder {
    params: OutlierParams,
    cluster: Option<ClusterConfig>,
    num_reducers: Option<usize>,
    target_partitions: Option<usize>,
    sample_rate: f64,
    block_size: usize,
    replication: usize,
    seed: u64,
    allocation: Option<AllocationSpec>,
    obs: Obs,
    checkpoint: Option<CheckpointSpec>,
}

impl DodConfigBuilder {
    /// Sets the logical cluster topology.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Sets the number of reduce tasks.
    pub fn num_reducers(mut self, n: usize) -> Self {
        self.num_reducers = Some(n);
        self
    }

    /// Sets the desired partition count `m`.
    pub fn target_partitions(mut self, m: usize) -> Self {
        self.target_partitions = Some(m);
        self
    }

    /// Sets the preprocessing sampling rate Υ.
    pub fn sample_rate(mut self, rate: f64) -> Self {
        self.sample_rate = rate;
        self
    }

    /// Sets the input items per block (map-task granularity).
    pub fn block_size(mut self, items: usize) -> Self {
        self.block_size = items;
        self
    }

    /// Sets the block replication factor.
    pub fn replication(mut self, factor: usize) -> Self {
        self.replication = factor;
        self
    }

    /// Sets the seed for sampling and randomized detectors.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the partition→reducer allocation policy.
    pub fn allocation(mut self, spec: AllocationSpec) -> Self {
        self.allocation = Some(spec);
        self
    }

    /// Attaches an observability sink.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Enables durable jobs: checkpoints and the dead-letter queue are
    /// persisted under `dir`, keyed by `job_id` plus a per-job suffix.
    pub fn checkpoint(mut self, dir: impl Into<PathBuf>, job_id: impl Into<String>) -> Self {
        self.checkpoint = Some(CheckpointSpec {
            dir: dir.into(),
            job_id: job_id.into(),
        });
        self
    }

    /// Validates and finalizes the configuration.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] when `sample_rate ∉ (0, 1]`,
    /// `num_reducers == 0`, `target_partitions < num_reducers`,
    /// `block_size == 0`, or the outlier radius is not positive and
    /// finite.
    pub fn build(self) -> Result<DodConfig, ConfigError> {
        if !(self.params.r.is_finite() && self.params.r > 0.0) {
            return Err(ConfigError::NonPositiveRadius(self.params.r));
        }
        if !(self.sample_rate.is_finite() && self.sample_rate > 0.0 && self.sample_rate <= 1.0) {
            return Err(ConfigError::SampleRate(self.sample_rate));
        }
        if self.block_size == 0 {
            return Err(ConfigError::ZeroBlockSize);
        }
        let cluster = self.cluster.unwrap_or_default();
        let num_reducers = self.num_reducers.unwrap_or_else(|| cluster.reduce_lanes());
        if num_reducers == 0 {
            return Err(ConfigError::NoReducers);
        }
        let target_partitions = self.target_partitions.unwrap_or(num_reducers * 4);
        if target_partitions < num_reducers {
            return Err(ConfigError::TooFewPartitions {
                target_partitions,
                num_reducers,
            });
        }
        Ok(DodConfig {
            params: self.params,
            cluster,
            num_reducers,
            target_partitions,
            sample_rate: self.sample_rate,
            block_size: self.block_size,
            replication: self.replication,
            seed: self.seed,
            allocation: self.allocation,
            obs: self.obs,
            checkpoint: self.checkpoint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OutlierParams {
        OutlierParams::new(1.0, 3).unwrap()
    }

    #[test]
    fn builder_defaults_match_new() {
        let built = DodConfig::builder(params()).build().unwrap();
        let legacy = DodConfig::new(params());
        assert_eq!(built.num_reducers, legacy.num_reducers);
        assert_eq!(built.target_partitions, legacy.target_partitions);
        assert_eq!(built.sample_rate, legacy.sample_rate);
        assert_eq!(built.block_size, legacy.block_size);
        assert_eq!(built.replication, legacy.replication);
        assert_eq!(built.seed, legacy.seed);
    }

    #[test]
    fn sample_rate_bounds_enforced() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let err = DodConfig::builder(params())
                .sample_rate(bad)
                .build()
                .unwrap_err();
            assert!(matches!(err, ConfigError::SampleRate(_)), "rate {bad}");
        }
        assert!(DodConfig::builder(params())
            .sample_rate(1.0)
            .build()
            .is_ok());
    }

    #[test]
    fn zero_reducers_rejected() {
        let err = DodConfig::builder(params())
            .num_reducers(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoReducers);
    }

    #[test]
    fn too_few_partitions_rejected() {
        let err = DodConfig::builder(params())
            .num_reducers(8)
            .target_partitions(4)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooFewPartitions {
                target_partitions: 4,
                num_reducers: 8
            }
        );
    }

    #[test]
    fn zero_block_size_rejected() {
        let err = DodConfig::builder(params())
            .block_size(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroBlockSize);
    }

    #[test]
    fn partitions_default_tracks_explicit_reducers() {
        let cfg = DodConfig::builder(params())
            .num_reducers(5)
            .build()
            .unwrap();
        assert_eq!(cfg.target_partitions, 20);
    }

    #[test]
    fn to_builder_round_trips() {
        let cfg = DodConfig::builder(params())
            .num_reducers(3)
            .target_partitions(11)
            .seed(42)
            .build()
            .unwrap();
        let copy = cfg.to_builder().build().unwrap();
        assert_eq!(copy.num_reducers, 3);
        assert_eq!(copy.target_partitions, 11);
        assert_eq!(copy.seed, 42);
        let derived = cfg.to_builder().seed(7).build().unwrap();
        assert_eq!(derived.seed, 7);
        assert_eq!(derived.target_partitions, 11);
    }

    #[test]
    fn errors_display_the_offending_values() {
        let msg = ConfigError::TooFewPartitions {
            target_partitions: 2,
            num_reducers: 9,
        }
        .to_string();
        assert!(msg.contains('2') && msg.contains('9'));
        assert!(ConfigError::SampleRate(7.0).to_string().contains("7"));
    }
}
