//! Core geometry and outlier-semantics types shared by every crate of the
//! DOD workspace.
//!
//! This crate implements Section II of the paper ("Preliminaries") plus the
//! geometric machinery of Section III: d-dimensional points stored in a
//! cache-friendly columnar [`PointSet`], hyper-rectangles ([`Rect`]),
//! and equi-width grid specifications ([`grid::GridSpec`]). The
//! supporting-area routing of Definition 3.3 lives with the partition
//! plans, in `dod-partition`'s `Router`.
//!
//! Everything downstream — the centralized detectors in `dod-detect`, the
//! partition planners in `dod-partition`, and the distributed pipelines in
//! `dod` — is built on these types.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod dataset;
pub mod density;
pub mod error;
pub mod grid;
pub mod kernel;
pub mod metric;
pub mod params;
pub mod point;
pub mod rect;

pub use dataset::{PointId, PointSet};
pub use error::CoreError;
pub use grid::{CellId, CellIdHasher, CellMap, GridSpec};
pub use kernel::{columns_backend, KernelBackend, NeighborPredicate, TileOutcome};
pub use metric::Metric;
pub use params::OutlierParams;
pub use point::{dist, dist_sq};
pub use rect::Rect;
