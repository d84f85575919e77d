//! Centralized distance-threshold outlier detectors and their cost models.
//!
//! The multi-tactic optimizer chooses, per data partition, among a
//! candidate set `A` of centralized algorithms (Section III-C). This crate
//! provides that candidate set:
//!
//! * [`NestedLoop`] — the randomized scan with early termination
//!   (Section IV-A, Knorr & Ng),
//! * [`CellBased`] — the grid-pruning algorithm (Section IV-B, Knorr & Ng),
//! * [`IndexBased`] — a kd-tree range-counting detector (an extension to
//!   the evaluation's two-candidate set),
//! * [`Reference`] — a straightforward exact detector used as the
//!   correctness oracle in tests,
//!
//! plus the theoretical cost models of Section IV ([`cost`]) that drive
//! both cost-balanced partitioning and per-partition algorithm selection.
//!
//! # Example
//!
//! ```
//! use dod_core::{OutlierParams, PointSet};
//! use dod_detect::{CellBased, Detector, Partition};
//!
//! // Three clustered points and one isolated point.
//! let data = PointSet::from_xy(&[(0.0, 0.0), (0.2, 0.1), (0.1, 0.2), (9.0, 9.0)]);
//! let params = OutlierParams::new(1.0, 2).unwrap();
//! let detection = CellBased::default().detect(&Partition::standalone(data), params);
//! assert_eq!(detection.outliers, vec![3]);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cell_based;
pub mod cost;
pub mod detector;
pub mod index_based;
pub mod nested_loop;
pub mod partition;
pub mod reference;
mod scan;
pub mod state;

pub use cell_based::{CellBased, CellIndex};
pub use cost::{choose_algorithm, AlgorithmKind, CostModel, CostTerms};
pub use detector::{Detection, DetectionStats, Detector};
pub use index_based::{IndexBased, KdIndex};
pub use nested_loop::NestedLoop;
pub use partition::{Partition, Side};
pub use reference::Reference;
pub use state::PartitionState;
