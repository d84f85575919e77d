//! The common interface of all centralized detectors.

use crate::partition::Partition;
use dod_core::{OutlierParams, PointId};
use dod_obs::{names, Obs, Value};

/// Work counters a detector reports alongside its result.
///
/// `distance_evaluations` is the unit the paper's cost models predict
/// (Lemmas 4.1/4.2 count random comparisons plus indexing scans), so the
/// `ablation_cost_model` bench can compare prediction against measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionStats {
    /// Number of point-to-point distance evaluations performed.
    pub distance_evaluations: u64,
    /// Number of points scanned/hashed during index construction
    /// (Cell-Based and Index-Based only).
    pub index_operations: u64,
    /// Core points classified without any distance evaluation (pruned).
    pub pruned_points: u64,
    /// Core points whose scan stopped before exhausting the candidates
    /// (Nested-Loop inliers at `k` neighbors — the Lemma 4.1 `k/μ` term —
    /// and index-based early stops).
    pub early_terminations: u64,
    /// kd-tree nodes visited during range counting (Index-Based only).
    pub node_visits: u64,
}

impl DetectionStats {
    /// The total abstract work: distance evaluations plus index operations
    /// — directly comparable with [`crate::cost::CostModel`] predictions.
    pub fn total_work(&self) -> u64 {
        self.distance_evaluations + self.index_operations
    }

    /// Emits every counter through `obs` under the `detect.*` names
    /// (see DESIGN.md §Observability), labelled with the partition id and
    /// the algorithm that produced the stats. Zero counters are skipped.
    pub fn record_to(&self, obs: &Obs, partition: usize, algorithm: &'static str) {
        if !obs.enabled() {
            return;
        }
        let labels = [
            ("partition", Value::from(partition)),
            ("algorithm", Value::from(algorithm)),
        ];
        for (name, value) in [
            (names::DETECT_DISTANCE_EVALS, self.distance_evaluations),
            (names::DETECT_INDEX_OPS, self.index_operations),
            (names::DETECT_PRUNED_POINTS, self.pruned_points),
            (names::DETECT_EARLY_TERMINATIONS, self.early_terminations),
            (names::DETECT_NODE_VISITS, self.node_visits),
        ] {
            if value > 0 {
                obs.counter(name, value, &labels);
            }
        }
    }
}

/// A centralized distance-threshold outlier detector.
///
/// Implementations must return exactly the set of core-point ids that
/// satisfy Definition 2.2 (`|N_r(p)| < k`, the point itself not counted as
/// its own neighbor), in ascending id order.
pub trait Detector: Send + Sync {
    /// Human-readable name used in logs and benchmark output.
    fn name(&self) -> &'static str;

    /// Detects the outliers among the partition's core points.
    fn detect(&self, partition: &Partition, params: OutlierParams) -> Detection;
}

/// The output of a detector run: the outliers plus work counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Detection {
    /// Ids of the core points classified as outliers, ascending.
    pub outliers: Vec<PointId>,
    /// Work counters for cost-model validation.
    pub stats: DetectionStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_work_sums_counters() {
        let s = DetectionStats {
            distance_evaluations: 10,
            index_operations: 5,
            pruned_points: 2,
            early_terminations: 1,
            node_visits: 4,
        };
        assert_eq!(s.total_work(), 15);
    }

    #[test]
    fn default_stats_are_zero() {
        assert_eq!(DetectionStats::default().total_work(), 0);
    }

    #[test]
    fn record_to_emits_nonzero_counters_with_labels() {
        use std::sync::Arc;
        let mem = Arc::new(dod_obs::MemoryRecorder::new());
        let obs = Obs::new(mem.clone());
        let s = DetectionStats {
            distance_evaluations: 10,
            index_operations: 0,
            pruned_points: 2,
            early_terminations: 3,
            node_visits: 0,
        };
        s.record_to(&obs, 7, "nested-loop");
        assert_eq!(mem.counter_total("detect.distance_evals"), 10);
        assert_eq!(mem.counter_total("detect.pruned_points"), 2);
        assert_eq!(mem.counter_total("detect.early_terminations"), 3);
        // Zero counters are not emitted at all.
        assert!(mem.events_named("detect.index_ops").is_empty());
        assert!(mem.events_named("detect.node_visits").is_empty());
        let e = &mem.events_named("detect.distance_evals")[0];
        assert_eq!(e.label("partition").and_then(Value::as_u64), Some(7));
        assert_eq!(
            e.label("algorithm").and_then(Value::as_str),
            Some("nested-loop")
        );
    }
}
