//! Partition planning for distributed outlier detection.
//!
//! This crate implements the map-side half of the paper's contribution:
//!
//! * the four partitioning strategies of the evaluation (Section VI-A) —
//!   [`strategies::Domain`] (grid, no supporting area, two-job protocol),
//!   [`strategies::UniSpace`] (equi-width grid), [`strategies::DDriven`]
//!   (cardinality-balanced recursive splits) and [`strategies::CDriven`]
//!   (cost-balanced recursive splits driven by the Section IV models);
//! * the DMT preprocessing pipeline (Section V): random [`sample`]-ing,
//!   [`minibucket`] statistics and the [`dshc`] density-and-spatial-aware
//!   hierarchical clustering over them;
//! * per-partition algorithm selection and cost estimation ([`plan`],
//!   [`estimate`]), and
//! * reducer allocation via multi-bin [`packing`] (Section V-A step 3).
//!
//! # Example: plan a skewed dataset
//!
//! ```
//! use dod_core::{OutlierParams, PointSet, Rect};
//! use dod_partition::{Dmt, PartitionStrategy, PlanContext};
//!
//! // A dense blob in one corner of a mostly-empty domain.
//! let pts: Vec<(f64, f64)> =
//!     (0..400).map(|i| ((i % 20) as f64 * 0.05, (i / 20) as f64 * 0.05)).collect();
//! let sample = PointSet::from_xy(&pts);
//! let domain = Rect::new(vec![0.0, 0.0], vec![16.0, 16.0]).unwrap();
//! let ctx = PlanContext::new(OutlierParams::new(0.5, 4).unwrap(), 16, 1.0);
//!
//! let plan = Dmt::default().build_plan(&sample, &domain, &ctx);
//! // DSHC separates the dense blob from the empty space.
//! assert!(plan.num_partitions() >= 2);
//! let blob = plan.locate(&[0.5, 0.5]);
//! let empty = plan.locate(&[15.0, 15.0]);
//! assert_ne!(blob, empty);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod dshc;
pub mod estimate;
pub mod intrect;
pub mod minibucket;
pub mod packing;
pub mod plan;
pub mod sample;
pub mod strategies;

pub use dshc::{Dshc, DshcConfig};
pub use estimate::{LocalCostEstimator, PartitionEstimate};
pub use intrect::IntRect;
pub use minibucket::MiniBucketGrid;
pub use packing::{allocate, AllocationPolicy, AllocationSpec, BalanceWeight};
pub use plan::{
    distribution_drift, CandidateCost, MultiTacticPlan, PartitionPlan, PartitionReport,
    PlanContext, PlanReport, Router,
};
pub use sample::sample_points;
pub use strategies::{CDriven, DDriven, Dmt, Domain, PartitionStrategy, UniSpace};
