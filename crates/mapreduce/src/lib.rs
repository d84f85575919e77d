//! A shared-nothing MapReduce substrate.
//!
//! The DOD paper evaluates on a 40-node Hadoop cluster; this crate is the
//! laptop-scale substitute described in DESIGN.md §3. Tasks execute on a
//! host thread pool while per-task wall times are recorded, and the
//! end-to-end stage times are the **makespan** of list-scheduling those
//! durations onto the logical slots ([`metrics::makespan`]) — reproducing
//! cluster-scale behaviour shape on one machine.
//!
//! # Modules
//!
//! * [`job`] — the [`Mapper`]/[`Reducer`] traits and [`run`]: map stage →
//!   shuffle → reduce stage → metrics.
//! * `pool` — the task pool a stage runs on: retries, speculation,
//!   blacklisting.
//! * `shuffle` — the map outputs into one sorted, grouped input per
//!   reducer.
//! * `durable` — the bit-exact [`Durable`] encoding of task records.
//! * [`checkpoint`] — a job's durable state, one reader per file.
//! * [`dlq`] — the dead-letter queue of exhausted tasks.
//! * [`fault`] — the seeded [`FaultPlan`] recovery is chaos-tested on.
//! * [`cluster`] — the logical [`ClusterConfig`] (nodes × slots).
//! * [`blockstore`] — the HDFS-like input, [`BlockStore`].
//! * [`metrics`] — [`JobMetrics`] and the makespan schedulers.
//! * [`size`] — [`EstimateSize`], the shuffle's volume accounting.
//!
//! A durable job persists each fresh completion before the completion
//! becomes visible: the pool writes the task record under its scheduler
//! lock, before it publishes the result, so a crash right after a commit
//! always finds the commit on disk.
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
mod durable;
pub mod fault;
pub mod job;
pub mod metrics;
mod pool;
mod shuffle;
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
