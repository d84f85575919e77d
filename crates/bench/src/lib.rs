//! Experiment harness regenerating every figure of the paper's
//! evaluation (Section VI).
//!
//! Each `figN_*` function in [`experiments`] reproduces one figure's
//! series at a configurable [`Scale`]; the `repro` binary prints them as
//! tables, and the Criterion benches in `benches/` time the underlying
//! workloads. The absolute numbers differ from the paper's 40-node
//! Hadoop cluster — what must match is the *shape*: who wins, by roughly
//! what factor, and where the crossovers fall (see EXPERIMENTS.md).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod experiments;
pub mod kernels;
pub mod obs_overhead;
pub mod scale;
pub mod setup;
pub mod svg;
pub mod trace;

pub use scale::Scale;
