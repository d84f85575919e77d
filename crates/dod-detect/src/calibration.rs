//! Measured calibration profiles for the Section IV cost models.
//!
//! The PR 3 kernel layer accelerated distance predicates by 2.6–11.6x
//! while cell/index bookkeeping stayed scalar, so the legacy unit
//! constants in [`crate::cost`] overcharge pair ops relative to
//! structural ops. `bench calibrate` micro-measures both op classes per
//! `(metric, dimension)` through the same kernel entry points the
//! detectors use and writes the result as a [`CalibrationProfile`]
//! (checked in as `BENCH_calibration.json`). Loading a profile keeps
//! `pair = 1.0` and sets `structural` to the measured scalar/kernel
//! per-pair ratio; with no profile the model falls back to
//! [`CostWeights::UNIT`], bit-identical to the pre-calibration planner.
//!
//! The JSON schema (`dod-calibration/v1`) is flat; it is read through
//! [`dod_obs::json::parse`]:
//!
//! ```json
//! {
//!   "schema": "dod-calibration/v1",
//!   "entries": [
//!     {"metric": "euclidean", "dim": 2,
//!      "kernel_pair_ns": 0.9, "scalar_pair_ns": 3.6,
//!      "pair": 1.0, "structural": 4.0}
//!   ]
//! }
//! ```

use crate::cost::CostWeights;
use dod_core::Metric;
use dod_obs::json::{self, Json};
use std::fmt;

/// Schema identifier accepted by [`CalibrationProfile::from_json`].
pub const CALIBRATION_SCHEMA: &str = "dod-calibration/v1";

/// A measured `(metric, dimension)` row of the profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileEntry {
    /// Distance metric the row was measured under.
    pub metric: Metric,
    /// Dimensionality the row was measured at.
    pub dim: usize,
    /// Measured nanoseconds per kernel-tile distance predicate.
    pub kernel_pair_ns: f64,
    /// Measured nanoseconds per scalar (pre-kernel) distance predicate.
    pub scalar_pair_ns: f64,
    /// Weights derived from the measurement (normally `pair = 1.0`,
    /// `structural = scalar_pair_ns / kernel_pair_ns`).
    pub weights: CostWeights,
}

impl ProfileEntry {
    /// Builds an entry from the two micro-measurements, deriving the
    /// weights. Structural ops are modeled as costing one *scalar* pair
    /// each (they were never kernelized), so in kernel-pair units the
    /// structural weight is the measured speedup ratio, floored at 1.0
    /// (a kernel slower than scalar would mean the measurement is noise).
    pub fn from_measurement(
        metric: Metric,
        dim: usize,
        kernel_pair_ns: f64,
        scalar_pair_ns: f64,
    ) -> Self {
        let ratio = if kernel_pair_ns > 0.0 && scalar_pair_ns.is_finite() {
            (scalar_pair_ns / kernel_pair_ns).max(1.0)
        } else {
            1.0
        };
        ProfileEntry {
            metric,
            dim,
            kernel_pair_ns,
            scalar_pair_ns,
            weights: CostWeights {
                pair: 1.0,
                structural: ratio,
            },
        }
    }
}

/// Error raised when a profile fails to load or parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibrationError {
    msg: String,
}

impl CalibrationError {
    fn new(msg: impl Into<String>) -> Self {
        CalibrationError { msg: msg.into() }
    }
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "calibration profile: {}", self.msg)
    }
}

impl std::error::Error for CalibrationError {}

/// A set of measured [`ProfileEntry`] rows with nearest-dimension lookup.
///
/// Lookup order for `(metric, dim)`: exact match, else the entry for the
/// same metric with the nearest dimension (cost ratios drift slowly with
/// `d`), else [`CostWeights::UNIT`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CalibrationProfile {
    entries: Vec<ProfileEntry>,
}

impl CalibrationProfile {
    /// The empty profile: every lookup falls back to the legacy unit
    /// weights, making the planner bit-identical to pre-calibration.
    pub fn unit() -> Self {
        CalibrationProfile::default()
    }

    /// A profile over the given measured rows.
    pub fn new(entries: Vec<ProfileEntry>) -> Self {
        CalibrationProfile { entries }
    }

    /// Whether the profile has no measurements (pure unit fallback).
    pub fn is_unit(&self) -> bool {
        self.entries.is_empty()
    }

    /// The measured rows.
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// Whether at least one row was measured under `metric`.
    pub fn covers(&self, metric: Metric) -> bool {
        self.entries.iter().any(|e| e.metric == metric)
    }

    /// Weights for a `(metric, dim)` pair: exact row, else nearest
    /// dimension for the metric (the first row at the smallest gap), else
    /// unit.
    pub fn weights_for(&self, metric: Metric, dim: usize) -> CostWeights {
        let mut best: Option<(usize, CostWeights)> = None;
        for e in self.entries.iter().filter(|e| e.metric == metric) {
            let gap = e.dim.abs_diff(dim);
            if best.is_none_or(|(g, _)| gap < g) {
                best = Some((gap, e.weights));
            }
        }
        best.map_or(CostWeights::UNIT, |(_, w)| w)
    }

    /// Serializes to the `dod-calibration/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{CALIBRATION_SCHEMA}\",\n"));
        s.push_str(
            "  \"unit\": \"nanoseconds per distance predicate; weights in kernel-pair units\",\n",
        );
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"metric\": \"{}\", \"dim\": {}, \
                 \"kernel_pair_ns\": {:.4}, \"scalar_pair_ns\": {:.4}, \"pair\": {:.4}, \
                 \"structural\": {:.4}}}{}\n",
                e.metric.name(),
                e.dim,
                e.kernel_pair_ns,
                e.scalar_pair_ns,
                e.weights.pair,
                e.weights.structural,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a `dod-calibration/v1` JSON document.
    ///
    /// # Errors
    /// Returns an error on malformed JSON, a wrong/missing schema tag, an
    /// unknown metric name, or non-finite/non-positive weights.
    pub fn from_json(text: &str) -> Result<Self, CalibrationError> {
        // A document or row that is not an object has none of the fields
        // below, so it fails on the first one asked for.
        let doc =
            json::parse(text).map_err(|e| CalibrationError::new(format!("json error: {e}")))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == CALIBRATION_SCHEMA => {}
            Some(s) => {
                return Err(CalibrationError::new(format!(
                    "unsupported schema {s:?} (expected {CALIBRATION_SCHEMA:?})"
                )))
            }
            None => return Err(CalibrationError::new("missing \"schema\" tag")),
        }
        let rows = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| CalibrationError::new("missing \"entries\" array"))?;
        let mut entries = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let field_num = |name: &str| -> Result<f64, CalibrationError> {
                row.get(name).and_then(Json::as_f64).ok_or_else(|| {
                    CalibrationError::new(format!("entry {i}: missing number {name:?}"))
                })
            };
            let metric_name = row
                .get("metric")
                .and_then(Json::as_str)
                .ok_or_else(|| CalibrationError::new(format!("entry {i}: missing \"metric\"")))?;
            let metric = metric_from_name(metric_name).ok_or_else(|| {
                CalibrationError::new(format!("entry {i}: unknown metric {metric_name:?}"))
            })?;
            let dim = field_num("dim")? as usize;
            if dim == 0 {
                return Err(CalibrationError::new(format!(
                    "entry {i}: dim must be >= 1"
                )));
            }
            // Rows some earlier build measured through another kernel
            // backend priced a build that no longer exists.
            if row
                .get("backend")
                .is_some_and(|b| b.as_str() != Some("scalar"))
            {
                continue;
            }
            let weights = CostWeights {
                pair: field_num("pair")?,
                structural: field_num("structural")?,
            };
            if !(weights.pair.is_finite()
                && weights.structural.is_finite()
                && weights.pair > 0.0
                && weights.structural > 0.0)
            {
                return Err(CalibrationError::new(format!(
                    "entry {i}: weights must be finite and positive, got {weights:?}"
                )));
            }
            entries.push(ProfileEntry {
                metric,
                dim,
                kernel_pair_ns: field_num("kernel_pair_ns")?,
                scalar_pair_ns: field_num("scalar_pair_ns")?,
                weights,
            });
        }
        Ok(CalibrationProfile { entries })
    }

    /// Reads and parses a profile file.
    ///
    /// # Errors
    /// Returns an error if the file cannot be read or does not parse.
    pub fn load(path: &str) -> Result<Self, CalibrationError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CalibrationError::new(format!("read {path}: {e}")))?;
        Self::from_json(&text)
    }
}

/// Inverse of [`Metric::name`].
pub fn metric_from_name(name: &str) -> Option<Metric> {
    match name {
        "euclidean" => Some(Metric::Euclidean),
        "manhattan" => Some(Metric::Manhattan),
        "chebyshev" => Some(Metric::Chebyshev),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> CalibrationProfile {
        CalibrationProfile::new(vec![
            ProfileEntry::from_measurement(Metric::Euclidean, 2, 1.0, 4.0),
            ProfileEntry::from_measurement(Metric::Euclidean, 4, 1.0, 6.0),
            ProfileEntry::from_measurement(Metric::Manhattan, 3, 2.0, 5.0),
        ])
    }

    #[test]
    fn lookup_prefers_exact_then_nearest_then_unit() {
        let p = sample_profile();
        assert_eq!(p.weights_for(Metric::Euclidean, 2).structural, 4.0);
        // dim 3 is equidistant from 2 and 4: first (lowest-gap-first) wins.
        let near = p.weights_for(Metric::Euclidean, 3);
        assert!(near.structural == 4.0 || near.structural == 6.0);
        assert_eq!(p.weights_for(Metric::Euclidean, 9).structural, 6.0);
        assert_eq!(p.weights_for(Metric::Chebyshev, 2), CostWeights::UNIT);
        assert!(CalibrationProfile::unit().is_unit());
    }

    #[test]
    fn json_round_trip_preserves_entries() {
        let p = sample_profile();
        let parsed = CalibrationProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(parsed.entries().len(), 3);
        for (a, b) in p.entries().iter().zip(parsed.entries()) {
            assert_eq!(a.metric, b.metric);
            assert_eq!(a.dim, b.dim);
            assert!((a.weights.structural - b.weights.structural).abs() < 1e-3);
        }
        assert!(parsed.covers(Metric::Euclidean));
        assert!(parsed.covers(Metric::Manhattan));
        assert!(!parsed.covers(Metric::Chebyshev));
    }

    #[test]
    fn parser_rejects_bad_documents() {
        assert!(CalibrationProfile::from_json("not json").is_err());
        assert!(
            CalibrationProfile::from_json("{\"schema\": \"other/v9\", \"entries\": []}").is_err()
        );
        assert!(CalibrationProfile::from_json("{\"entries\": []}").is_err());
        let bad_metric = format!(
            "{{\"schema\": \"{CALIBRATION_SCHEMA}\", \"entries\": [{{\"metric\": \"cosine\", \
             \"dim\": 2, \"kernel_pair_ns\": 1, \"scalar_pair_ns\": 2, \"pair\": 1, \
             \"structural\": 2}}]}}"
        );
        assert!(CalibrationProfile::from_json(&bad_metric).is_err());
        let bad_weight = format!(
            "{{\"schema\": \"{CALIBRATION_SCHEMA}\", \"entries\": [{{\"metric\": \"euclidean\", \
             \"dim\": 2, \"kernel_pair_ns\": 1, \"scalar_pair_ns\": 2, \"pair\": 0, \
             \"structural\": 2}}]}}"
        );
        assert!(CalibrationProfile::from_json(&bad_weight).is_err());
    }

    #[test]
    fn measurement_ratio_floors_at_one() {
        let e = ProfileEntry::from_measurement(Metric::Euclidean, 2, 5.0, 2.0);
        assert_eq!(e.weights.structural, 1.0);
        assert_eq!(e.weights.pair, 1.0);
    }
}
