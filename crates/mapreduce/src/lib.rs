//! A shared-nothing MapReduce substrate.
//!
//! The DOD paper evaluates on a 40-node Hadoop cluster; this crate is the
//! laptop-scale substitute described in DESIGN.md §3. It provides:
//!
//! * an HDFS-like [`BlockStore`] holding the input split into blocks with a
//!   configurable replication factor,
//! * [`Mapper`]/[`Reducer`] traits and one job entry point, [`run`], with
//!   a real shuffle (partition → sort → group) in between; its
//!   [`JobOptions`] attach telemetry, a map-side [`Combiner`] and a
//!   [`CheckpointStore`],
//! * a logical [`ClusterConfig`] (nodes × slots); tasks execute on a host
//!   thread pool while per-task wall times are recorded, and the
//!   end-to-end stage times are computed as the **makespan** of list-
//!   scheduling those measured durations onto the logical slots
//!   ([`metrics::makespan`]) — reproducing cluster-scale behaviour shape
//!   on one machine,
//! * fault-tolerant execution: a panicking task is retried up to
//!   [`ClusterConfig::max_task_retries`] times with exponential backoff,
//!   stragglers are speculatively re-executed (first successful attempt
//!   wins), and repeatedly-failing nodes are blacklisted — Hadoop's
//!   recovery tactics, all deterministic enough to chaos-test against a
//!   seeded [`FaultPlan`] (see [`fault`]),
//! * shuffle volume accounting via [`EstimateSize`], since minimizing
//!   communication overhead is one of the paper's core claims for the
//!   single-pass framework.
//!
//! # Example: word count
//!
//! ```
//! use mapreduce::{run, BlockStore, ClusterConfig, JobOptions, Mapper, Reducer};
//!
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type In = &'static str;
//!     type K = String;
//!     type V = u64;
//!     fn map(&self, line: &&'static str, emit: &mut dyn FnMut(String, u64)) {
//!         for word in line.split_whitespace() {
//!             emit(word.to_string(), 1);
//!         }
//!     }
//! }
//!
//! struct Sum;
//! impl Reducer<String, u64> for Sum {
//!     type Out = (String, u64);
//!     fn reduce(&self, k: &String, vs: &[u64], emit: &mut dyn FnMut((String, u64))) {
//!         emit((k.clone(), vs.iter().sum()));
//!     }
//! }
//!
//! let store = BlockStore::from_items(vec!["a b a", "b a"], 1, 3);
//! let out = run(
//!     &ClusterConfig::new(2),
//!     &store,
//!     &Tokenize,
//!     &Sum,
//!     &|k: &String, n| k.len() % n,
//!     2,
//!     JobOptions::default(),
//! )
//! .unwrap();
//! let mut counts = out.outputs;
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 3), ("b".into(), 2)]);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod blockstore;
pub mod checkpoint;
pub mod cluster;
pub mod dlq;
pub mod fault;
pub mod job;
pub mod metrics;
pub mod size;

pub use blockstore::{BlockReadError, BlockStore};
pub use checkpoint::{
    CheckpointError, CheckpointStore, DurabilityStats, Durable, JobFingerprint, ResumeState,
};
pub use cluster::ClusterConfig;
pub use dlq::{DeadLetterQueue, DlqEntry};
pub use fault::{FaultPlan, TaskFault};
pub use job::{
    run, Combiner, JobError, JobOptions, JobOutcome, JobOutput, Mapper, Partitioner, Reducer,
    SumCombiner,
};
pub use metrics::{makespan, JobMetrics};
pub use size::EstimateSize;
