//! The exact brute-force oracle.
//!
//! `Reference` counts, for every core point, its neighbors among all core
//! and support points with a full O(n·m) scan (early-terminated at `k`).
//! It exists so every other detector — and the whole distributed pipeline —
//! can be property-tested for exactness against it.
//!
//! The scan runs on the kernel layer: a point's candidates in unified
//! core-then-support order are exactly three contiguous tiles (core
//! before the point, core after it, support), so no per-candidate
//! indexing happens at all. Splitting a scan into tiles never changes
//! results: a tile scan's count and `scanned` are exactly the scalar
//! loop's, so scanning the three tiles in turn with the remaining need
//! visits the same candidates, stops at the same one, and charges the
//! same work counters as a one-pair-at-a-time loop.

use crate::detector::{Detection, DetectionStats, Detector};
use crate::partition::Partition;
use dod_core::OutlierParams;

/// Brute-force exact detector (correctness oracle).
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference;

impl Detector for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn detect(&self, partition: &Partition, params: OutlierParams) -> Detection {
        let dim = partition.dim();
        let mut outliers = Vec::new();
        let mut evals = 0u64;
        let pred = params.predicate();
        let core_flat = partition.core().as_flat();
        let support_flat = partition.support().as_flat();
        for (i, p) in core_flat.chunks_exact(dim).enumerate() {
            // A point is not its own neighbor.
            let mut neighbors = 0usize;
            for tile in [
                &core_flat[..i * dim],
                &core_flat[(i + 1) * dim..],
                support_flat,
            ] {
                if neighbors >= params.k {
                    break;
                }
                let out = pred.count_within_tile(p, tile, params.k - neighbors);
                evals += out.scanned as u64;
                neighbors += out.found;
            }
            if neighbors < params.k {
                outliers.push(partition.core_id(i));
            }
        }
        outliers.sort_unstable();
        Detection {
            outliers,
            stats: DetectionStats {
                distance_evaluations: evals,
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::params;
    use dod_core::PointSet;

    #[test]
    fn isolated_point_is_outlier() {
        // Three clustered points plus one far away; k=1 means a point
        // needs at least one neighbor.
        let pts = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (100.0, 100.0)]);
        let det = Reference.detect(&Partition::standalone(pts), params(1.0, 1));
        assert_eq!(det.outliers, vec![3]);
    }

    #[test]
    fn all_inliers_in_tight_cluster() {
        let pts = PointSet::from_xy(&[(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)]);
        let det = Reference.detect(&Partition::standalone(pts), params(1.0, 3));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn k_threshold_is_strict() {
        // Two points within r of each other: each has exactly 1 neighbor.
        let pts = PointSet::from_xy(&[(0.0, 0.0), (0.5, 0.0)]);
        // k=1: 1 neighbor >= 1 -> inlier.
        let det = Reference.detect(&Partition::standalone(pts.clone()), params(1.0, 1));
        assert!(det.outliers.is_empty());
        // k=2: 1 neighbor < 2 -> both outliers.
        let det = Reference.detect(&Partition::standalone(pts), params(1.0, 2));
        assert_eq!(det.outliers, vec![0, 1]);
    }

    #[test]
    fn support_points_rescue_core_points() {
        // Core point with no core neighbors, but a support neighbor.
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::from_xy(&[(0.5, 0.0)]);
        let p = Partition::new(core, vec![0], support, vec![1]).unwrap();
        let det = Reference.detect(&p, params(1.0, 1));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn support_points_are_never_reported() {
        // The support point itself is isolated but must not be reported.
        let core = PointSet::from_xy(&[(0.0, 0.0), (0.2, 0.0)]);
        let support = PointSet::from_xy(&[(50.0, 50.0)]);
        let p = Partition::new(core, vec![10, 11], support, vec![12]).unwrap();
        let det = Reference.detect(&p, params(1.0, 1));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn boundary_distance_counts_as_neighbor() {
        let pts = PointSet::from_xy(&[(0.0, 0.0), (1.0, 0.0)]);
        let det = Reference.detect(&Partition::standalone(pts), params(1.0, 1));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn duplicate_points_are_neighbors() {
        let pts = PointSet::from_xy(&[(3.0, 3.0), (3.0, 3.0)]);
        let det = Reference.detect(&Partition::standalone(pts), params(0.5, 1));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn empty_partition_yields_nothing() {
        let p = Partition::standalone(PointSet::new(2).unwrap());
        let det = Reference.detect(&p, params(1.0, 1));
        assert!(det.outliers.is_empty());
        assert_eq!(det.stats.distance_evaluations, 0);
    }

    #[test]
    fn outliers_are_global_ids_sorted() {
        let core = PointSet::from_xy(&[(100.0, 100.0), (0.0, 0.0), (-100.0, -100.0)]);
        let p = Partition::new(core, vec![9, 4, 7], PointSet::new(2).unwrap(), vec![]).unwrap();
        let det = Reference.detect(&p, params(1.0, 1));
        assert_eq!(det.outliers, vec![4, 7, 9]);
    }
}
