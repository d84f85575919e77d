//! SVG rendering of partition plans — a debugging and documentation aid:
//! one look at a plan shows how DSHC hugs the density structure where a
//! grid or kd split cannot.
//!
//! ```sh
//! cargo run --release -p bench --bin planviz -- region /tmp/plans
//! ```

use dod_core::PointSet;
#[cfg(test)]
use dod_core::Rect;
use dod_detect::cost::AlgorithmKind;
use dod_partition::PartitionPlan;
use std::fmt::Write;

/// Fill colors per algorithm (multi-tactic plans color partitions by
/// their assigned detector).
fn fill_for(kind: Option<AlgorithmKind>) -> &'static str {
    match kind {
        Some(AlgorithmKind::NestedLoop) => "#fde2c8",
        Some(AlgorithmKind::CellBased) | Some(AlgorithmKind::CellBasedFullScan) => "#cfe3f7",
        Some(AlgorithmKind::IndexBased) => "#d9f0d4",
        _ => "#f2f2f2",
    }
}

/// Renders a 2-d partition plan (plus an optional point sample and
/// per-partition algorithm assignment) as a standalone SVG document.
///
/// # Panics
/// Panics if the plan is not 2-dimensional.
pub fn plan_to_svg(
    plan: &PartitionPlan,
    sample: Option<&PointSet>,
    algorithms: Option<&[AlgorithmKind]>,
) -> String {
    assert_eq!(plan.domain().dim(), 2, "SVG rendering is 2-d only");
    let domain = plan.domain();
    let (w, h) = (domain.extent(0), domain.extent(1));
    let size = 720.0;
    let scale = size / w.max(h).max(1e-12);
    let (img_w, img_h) = (w * scale, h * scale);
    let px = |x: f64| (x - domain.min()[0]) * scale;
    // SVG y grows downward; flip so the plot reads like a map.
    let py = |y: f64| img_h - (y - domain.min()[1]) * scale;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{img_w:.0}" height="{img_h:.0}" viewBox="0 0 {img_w:.2} {img_h:.2}">"#
    );
    let _ = writeln!(out, r#"<rect width="100%" height="100%" fill="white"/>"#);

    for (pid, rect) in plan.rects().iter().enumerate() {
        let kind = algorithms.and_then(|a| a.get(pid)).copied();
        let x = px(rect.min()[0]);
        let y = py(rect.max()[1]);
        let rw = rect.extent(0) * scale;
        let rh = rect.extent(1) * scale;
        let _ = writeln!(
            out,
            r##"<rect x="{x:.2}" y="{y:.2}" width="{rw:.2}" height="{rh:.2}" fill="{}" stroke="#666" stroke-width="0.6"/>"##,
            fill_for(kind)
        );
    }

    if let Some(points) = sample {
        for p in points.iter() {
            let _ = writeln!(
                out,
                r##"<circle cx="{:.2}" cy="{:.2}" r="1.1" fill="#c0392b" fill-opacity="0.55"/>"##,
                px(p[0]),
                py(p[1])
            );
        }
    }
    out.push_str("</svg>\n");
    out
}

/// Convenience: renders and writes the SVG to `path`.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_plan_svg(
    path: &std::path::Path,
    plan: &PartitionPlan,
    sample: Option<&PointSet>,
    algorithms: Option<&[AlgorithmKind]>,
) -> std::io::Result<()> {
    dod_obs::write_atomic(path, plan_to_svg(plan, sample, algorithms).as_bytes())
}

/// Minimal check that `s` is a well-formed single-root SVG (used by tests
/// and the `planviz` binary's self-check).
pub fn looks_like_svg(s: &str) -> bool {
    s.starts_with("<svg") && s.trim_end().ends_with("</svg>") && s.matches("<svg").count() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::{GridSpec, OutlierParams};
    use dod_partition::{Dmt, PartitionStrategy, PlanContext};

    fn domain() -> Rect {
        Rect::new(vec![0.0, 0.0], vec![10.0, 5.0]).unwrap()
    }

    #[test]
    fn grid_plan_renders() {
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 4).unwrap());
        let svg = plan_to_svg(&plan, None, None);
        assert!(looks_like_svg(&svg));
        // One rect per partition plus the background.
        assert_eq!(svg.matches("<rect").count(), plan.num_partitions() + 1);
        assert_eq!(svg.matches("<circle").count(), 0);
    }

    #[test]
    fn sample_points_render_as_circles() {
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 2).unwrap());
        let sample = PointSet::from_xy(&[(1.0, 1.0), (9.0, 4.0)]);
        let svg = plan_to_svg(&plan, Some(&sample), None);
        assert_eq!(svg.matches("<circle").count(), 2);
    }

    #[test]
    fn algorithms_color_partitions() {
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain(), 2).unwrap());
        let algs = vec![
            AlgorithmKind::NestedLoop,
            AlgorithmKind::CellBased,
            AlgorithmKind::IndexBased,
        ];
        let svg = plan_to_svg(&plan, None, Some(&algs));
        assert!(svg.contains("#fde2c8"));
        assert!(svg.contains("#cfe3f7"));
        assert!(svg.contains("#d9f0d4"));
    }

    #[test]
    fn dshc_plan_renders() {
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|i| ((i % 20) as f64 * 0.1, (i / 20) as f64 * 0.1))
            .collect();
        let sample = PointSet::from_xy(&pts);
        let ctx = PlanContext::new(OutlierParams::new(0.5, 4).unwrap(), 16, 1.0);
        let plan = Dmt::default().build_plan(&sample, &domain(), &ctx);
        let svg = plan_to_svg(&plan, Some(&sample), None);
        assert!(looks_like_svg(&svg));
        assert!(svg.matches("<rect").count() >= 2);
    }

    #[test]
    #[should_panic]
    fn non_2d_panics() {
        let domain = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 2).unwrap());
        plan_to_svg(&plan, None, None);
    }
}
