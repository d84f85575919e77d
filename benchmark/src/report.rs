//! Metric names, and the one-line JSON result a run prints last.
//!
//! The tables here are the benchmark's contract: `BENCHMARK.json` lists
//! the same names, units, directions and bounds (a test compares them),
//! and every later performance claim names one of them.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "points_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.2,
    },
    EndToEnd {
        name: "dist_evals_per_point",
        unit: "count",
        lower_is_better: true,
        bound: 0.08,
    },
];

/// `(name, unit)` of every per-layer metric, in ladder order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("dod-data.read_csv_ms", "ms"),
    ("dod-core.kernel_ns_per_pair", "ns"),
    ("dod-core.kernel_scanned_share", "ratio"),
    ("dod-core.kernel_modelled_share", "ratio"),
    ("dod-detect.state_build_ms", "ms"),
    ("dod-detect.detect_ms", "ms"),
    ("dod-detect.index_ops_per_point", "count"),
    ("dod-detect.dist_evals_per_point", "count"),
    ("dod-detect.score_us_per_point", "us"),
    ("dod-detect.splice_us_per_point", "us"),
    ("dod-partition.sample_ms", "ms"),
    ("dod-partition.plan_ms", "ms"),
    ("dod-partition.partitions", "count"),
    ("dod-partition.cost_imbalance", "ratio"),
    ("mapreduce.map_ms", "ms"),
    ("mapreduce.reduce_ms", "ms"),
    ("mapreduce.host_wall_ms", "ms"),
    ("mapreduce.shuffle_bytes_per_point", "B"),
    ("mapreduce.reduce_skew", "ratio"),
    ("mapreduce.attempts_per_task", "ratio"),
    ("dod.run_ms", "ms"),
    ("dod.preprocess_ms", "ms"),
    ("dod.self_ms", "ms"),
    ("dod.replication_factor", "ratio"),
    ("dod.outlier_share", "ratio"),
    ("dod-engine.build_ms", "ms"),
    ("dod-engine.score_p50_us", "us"),
    ("dod-engine.score_p99_us", "us"),
    ("dod-engine.score_b1_p50_us", "us"),
    ("dod-engine.insert_points_per_s", "1/s"),
    ("dod-engine.remove_points_per_s", "1/s"),
    ("dod-engine.refresh_ms", "ms"),
    ("dod-engine.splice_share", "ratio"),
    ("dod-cli.ready_ms", "ms"),
    ("dod-cli.score_p50_ms", "ms"),
    ("dod-cli.score_p99_ms", "ms"),
    ("dod-cli.insert_p50_ms", "ms"),
    ("dod-cli.remove_p50_ms", "ms"),
    ("dod-cli.refresh_stall_ms", "ms"),
    ("dod-cli.wire_overhead_us", "us"),
    ("dod-cli.request_bytes_per_point", "B"),
    ("dod-cli.replay_refreshes", "count"),
    ("dod-cli.replay_rss_creep_mb", "MB"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.spans", "count"),
];

/// What a run found: how many program outputs were compared with the
/// oracle, how many disagreed or were error responses, and the metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line. Fails if the metrics are not exactly the `names`
    /// the mode promises, or if a value is not a finite number.
    pub fn to_json(&self, names: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let mut hits = self.metrics.iter().filter(|(n, _)| n == name);
            let (Some((_, value)), None) = (hits.next(), hits.next()) else {
                return Err(format!("metric {name} was not measured exactly once"));
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not a finite number: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some((stray, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !names.iter().any(|(name, _)| name == n))
        {
            return Err(format!(
                "metric {stray} is not part of this mode's contract"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

pub fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

/// Reads one metric value back out of a result line (the `--aa` mode
/// parses the lines of the runs it spawns).
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + "\"value\": ".len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let outcome = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![("b_ms", 1.25), ("a_s", 0.8127)],
        };
        let line = outcome.to_json(&[("a_s", "s"), ("b_ms", "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"b_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(metric_value(&line, "a_s"), Some(0.8127));
        assert_eq!(metric_value(&line, "b_ms"), Some(1.25));
        assert_eq!(metric_value(&line, "c"), None);
    }

    #[test]
    fn a_failed_check_reads_incorrect_and_bad_metric_sets_are_refused() {
        let mut outcome = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![("a_s", 1.0)],
        };
        assert!(outcome
            .to_json(&[("a_s", "s")])
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
        assert!(outcome.to_json(&[("a_s", "s"), ("b_ms", "ms")]).is_err());
        assert!(outcome.to_json(&[]).is_err());
        outcome.metrics[0].1 = f64::NAN;
        assert!(outcome.to_json(&[("a_s", "s")]).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_same_names_and_bounds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in &crate::workloads::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)));
        }
        for m in &END_TO_END {
            let better = if m.lower_is_better { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(text.contains(&entry), "missing {entry}");
        }
        let listed = text.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            crate::workloads::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
