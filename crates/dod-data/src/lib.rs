//! Synthetic dataset generators mirroring the DOD paper's evaluation data
//! (Section VI-A), plus CSV I/O.
//!
//! The paper evaluates on TIGER (60 GB of census road features), four
//! equal-cardinality OpenStreetMap segments of very different density
//! (Ohio, Massachusetts, California, New York), a growth hierarchy
//! (Massachusetts → New England → United States → Planet, 30 M → 4 B
//! points), and a 2 TB distortion of OpenStreetMap. Those datasets are not
//! redistributable at that scale, so this crate generates synthetic
//! analogs that preserve the statistical property each experiment
//! exercises — spatial skew, density contrast at fixed cardinality, and
//! growth in both size and skew (see DESIGN.md §3 for the substitution
//! argument).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

// The exact short-decimal conversion the JSON reader of `dod-obs` uses
// too: one source file, compiled into both crates.
#[path = "../../dod-obs/src/decimal.rs"]
mod decimal;
pub mod distort;
pub mod hierarchy;
pub mod io;
pub mod mixture;
pub mod region;
pub mod tiger;
pub mod uniform;

pub use distort::distort;
pub use hierarchy::{hierarchy_dataset, HierarchyLevel};
pub use mixture::{GaussianMixture, MixtureComponent};
pub use region::{region_dataset, Region};
pub use tiger::tiger_analog;
pub use uniform::{uniform_in, D_DENSE_DOMAIN, D_SPARSE_DOMAIN};
