//! The `dod explain` subcommand: run preprocessing and planning only,
//! then report why the planner chose each partition's algorithm.
//!
//! The human rendering is a per-partition tree — every candidate with
//! its predicted cost split into pair and structural terms, the winner
//! marked, and the winner's margin over the runner-up. `--json` emits
//! the same report as one JSON document (the schema shared with the
//! serve protocol's `explain` op, minus the engine `epoch`).

use dod_partition::PlanReport;

use crate::args::ExplainArgs;
use crate::serve::plan_report_json;

/// Formats a cost-model quantity: plain with one decimal for readable
/// magnitudes, scientific beyond.
fn fmt(v: f64) -> String {
    if !v.is_finite() {
        format!("{v}")
    } else if v.abs() < 1e7 {
        format!("{v:.1}")
    } else {
        format!("{v:.3e}")
    }
}

/// Renders the human plan-report tree.
pub fn render_report(report: &PlanReport) -> String {
    let mut out = String::new();
    out.push_str("== plan report ==\n");
    out.push_str(&format!("partitions: {}\n", report.partitions.len()));
    for p in &report.partitions {
        out.push_str(&format!(
            "\n-- partition {} [winner {}] cost={} margin={} n_est={} volume={} mu={}\n",
            p.partition,
            p.winner.name(),
            fmt(p.winner_cost),
            fmt(p.margin),
            fmt(p.n_est),
            fmt(p.volume),
            fmt(p.density_mu)
        ));
        for c in &p.candidates {
            out.push_str(&format!(
                "     {:<12} cost={:<12} pair={:<12} structural={}{}\n",
                c.algorithm.name(),
                fmt(c.cost),
                fmt(c.terms.pair_ops),
                fmt(c.terms.structural_ops),
                if c.algorithm == p.winner {
                    "   <- winner"
                } else {
                    ""
                }
            ));
        }
    }
    out
}

/// Renders the `--json` document.
pub fn render_json(report: &PlanReport, points: usize, dim: usize) -> String {
    format!(
        "{{\"v\":1,\"ok\":true,\"op\":\"explain\",\"points\":{points},\"dim\":{dim},{}}}",
        plan_report_json(report)
    )
}

/// Runs `dod explain`: load, preprocess, plan, report — no detection.
pub fn run(args: &ExplainArgs) -> Result<(), String> {
    let data = dod_data::io::read_csv(std::path::Path::new(&args.run.input))
        .map_err(|e| format!("reading {}: {e}", args.run.input))?;
    if data.is_empty() {
        return Err("nothing to explain: the input holds no points".into());
    }
    let runner = crate::build_runner(&args.run, dod_obs::Obs::null())?;
    let pre = runner.preprocess(&data).map_err(|e| e.to_string())?;
    if args.json {
        println!("{}", render_json(&pre.mt.report, data.len(), data.dim()));
    } else {
        print!("{}", render_report(&pre.mt.report));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse_command, Command};
    use dod_core::PointSet;
    use dod_obs::json::{self, Json};

    fn explain_args(input: &str, json: bool) -> ExplainArgs {
        let mut raw = vec![
            "explain".to_string(),
            "--input".to_string(),
            input.to_string(),
            "--r".to_string(),
            "0.75".to_string(),
            "--k".to_string(),
            "4".to_string(),
            "--sample-rate".to_string(),
            "1.0".to_string(),
        ];
        if json {
            raw.push("--json".to_string());
        }
        match parse_command(&raw).unwrap() {
            Command::Explain(e) => e,
            _ => panic!("expected explain"),
        }
    }

    fn temp_csv(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("dod-explain-{tag}-{}.csv", std::process::id()));
        let mut pts: Vec<(f64, f64)> = (0..40)
            .map(|i| ((i % 8) as f64 * 0.2, (i / 8) as f64 * 0.2))
            .collect();
        pts.push((50.0, 50.0));
        dod_data::io::write_csv(&path, &PointSet::from_xy(&pts)).unwrap();
        path
    }

    /// Golden schema: the `--json` document parses, and every partition
    /// carries a winner drawn from its candidates, finite costs with
    /// both term fields, and a finite margin.
    #[test]
    fn json_report_schema_is_stable() {
        let path = temp_csv("json");
        let args = explain_args(&path.to_string_lossy(), true);
        let data = dod_data::io::read_csv(&path).unwrap();
        let runner = crate::build_runner(&args.run, dod_obs::Obs::null()).unwrap();
        let pre = runner.preprocess(&data).unwrap();
        let doc = render_json(&pre.mt.report, data.len(), data.dim());
        std::fs::remove_file(&path).ok();

        let v = json::parse(&doc).unwrap();
        let Json::Obj(fields) = &v else {
            panic!("object: {doc}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["v", "ok", "op", "points", "dim", "partitions"]);
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("op"), Some(&Json::Str("explain".into())));
        assert_eq!(v.get("points").and_then(Json::as_u64), Some(41));
        assert_eq!(v.get("dim").and_then(Json::as_u64), Some(2));
        let Some(Json::Arr(partitions)) = v.get("partitions") else {
            panic!("partitions: {doc}");
        };
        assert!(!partitions.is_empty());
        for p in partitions {
            let Some(Json::Str(winner)) = p.get("winner") else {
                panic!("winner: {p:?}");
            };
            let Some(Json::Arr(candidates)) = p.get("candidates") else {
                panic!("candidates: {p:?}");
            };
            assert!(candidates
                .iter()
                .any(|c| c.get("algorithm") == Some(&Json::Str(winner.clone()))));
            assert!(p.get("winner_cost").and_then(Json::as_f64).is_some());
            assert!(p.get("margin").and_then(Json::as_f64).is_some());
            for key in ["n_est", "volume", "density_mu"] {
                assert!(matches!(p.get(key), Some(Json::Num(_))), "{key}: {p:?}");
            }
            for c in candidates {
                for key in ["cost", "pair_ops", "structural_ops"] {
                    assert!(matches!(c.get(key), Some(Json::Num(_))), "{key}: {c:?}");
                }
            }
        }
    }

    #[test]
    fn human_tree_marks_winners_and_margins() {
        let path = temp_csv("tree");
        let args = explain_args(&path.to_string_lossy(), false);
        let data = dod_data::io::read_csv(&path).unwrap();
        let runner = crate::build_runner(&args.run, dod_obs::Obs::null()).unwrap();
        let pre = runner.preprocess(&data).unwrap();
        let text = render_report(&pre.mt.report);
        std::fs::remove_file(&path).ok();

        assert!(
            text.starts_with("== plan report ==\npartitions: "),
            "{text}"
        );
        assert!(text.contains("-- partition 0 [winner "), "{text}");
        assert!(text.contains("<- winner"), "{text}");
        assert!(text.contains("margin="), "{text}");
        // Every partition line names a winner; every winner row appears
        // exactly once per partition.
        let partitions = text.matches("-- partition ").count();
        assert_eq!(text.matches("<- winner").count(), partitions);
        assert!(partitions >= 1);
    }

    #[test]
    fn run_end_to_end_over_a_temp_csv() {
        let path = temp_csv("run");
        let args = explain_args(&path.to_string_lossy(), true);
        run(&args).unwrap();
        let args = explain_args(&path.to_string_lossy(), false);
        run(&args).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
