//! DOD — distributed distance-based outlier detection.
//!
//! This crate assembles the full system of the paper on top of the
//! workspace's substrates:
//!
//! * [`framework`] — the single-job DOD framework of Section III: mappers
//!   route each point to its core partition plus every partition it
//!   supports (Definition 3.3); reducers run the per-partition detection
//!   algorithm in total isolation (Lemma 3.1);
//! * [`two_job`] — the Domain baseline of Section VI-A, which skips
//!   supporting areas and pays a second MapReduce job to verify candidate
//!   outliers at partition edges;
//! * [`pipeline`] — the end-to-end runner: preprocessing job (sampling →
//!   plan generation, Figure 6) followed by the detection job, with the
//!   per-stage breakdown the evaluation reports.
//!
//! # Quick start
//!
//! ```
//! use dod::prelude::*;
//!
//! // A tight cluster plus one isolated point.
//! let mut pts = vec![(0.0, 0.0), (0.2, 0.1), (0.1, 0.2), (0.2, 0.2)];
//! pts.push((50.0, 50.0));
//! let data = dod_core::PointSet::from_xy(&pts);
//!
//! let runner = DodRunner::builder()
//!     .params(OutlierParams::new(1.0, 2).unwrap())
//!     .multi_tactic()
//!     .build();
//! let outcome = runner.run(&data).unwrap();
//! assert_eq!(outcome.outliers, vec![4]);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod extensions;
pub mod framework;
pub mod pipeline;
pub mod two_job;

pub use config::{CheckpointSpec, ConfigError, DodConfig, DodConfigBuilder};
pub use framework::TaggedPoint;
pub use pipeline::{
    DodError, DodOutcome, DodRunner, DodRunnerBuilder, Preprocessed, RunReport, StageBreakdown,
};

/// The crate's single error surface: every fallible public operation
/// reports a [`pipeline::DodError`], with the underlying configuration,
/// geometry, or MapReduce failure reachable via
/// [`std::error::Error::source`].
pub use pipeline::DodError as Error;

/// Convenient re-exports for typical callers.
pub mod prelude {
    pub use crate::config::{ConfigError, DodConfig, DodConfigBuilder};
    pub use crate::pipeline::{DodOutcome, DodRunner, RunReport};
    pub use dod_core::{OutlierParams, PointSet};
    pub use dod_detect::cost::AlgorithmKind;
    pub use dod_partition::{
        AllocationPolicy, CDriven, DDriven, Dmt, Domain, PartitionStrategy, UniSpace,
    };
    pub use mapreduce::{ClusterConfig, FaultPlan};
}
