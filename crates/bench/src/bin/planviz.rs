//! Renders every partitioning strategy's plan for a dataset as SVG files
//! — the visual counterpart of `diag`.
//!
//! ```sh
//! cargo run --release -p bench --bin planviz -- [region|hierarchy|tiger] [out_dir] \
//!     [--trace <path>] [--profile]
//! ```

use bench::scale::Scale;
use bench::svg::write_plan_svg;
use bench::trace;
use dod::prelude::*;
use dod_core::Rect;
use dod_data::hierarchy::{hierarchy_dataset, HierarchyLevel};
use dod_data::region::{region_dataset, Region};
use dod_data::tiger_analog;
use dod_detect::cost::PAPER_CANDIDATES;
use dod_partition::{sample_points, LocalCostEstimator, PlanContext};

fn main() -> std::io::Result<()> {
    let (args, session) = trace::from_args(std::env::args().skip(1).collect())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let obs = session.obs();
    let which = args.first().cloned().unwrap_or_else(|| "region".into());
    let out_dir = args.get(1).cloned().unwrap_or_else(|| ".".into());
    let scale = Scale::small();
    let (data, params) = match which.as_str() {
        "hierarchy" => {
            let (d, _) = hierarchy_dataset(HierarchyLevel::NewEngland, scale.hierarchy_base, 81);
            (d, OutlierParams::new(2.0, 4).unwrap())
        }
        "tiger" => {
            let domain = Rect::new(vec![0.0, 0.0], vec![200.0, 200.0]).unwrap();
            (
                tiger_analog(&domain, scale.tiger_n, 60, 103),
                OutlierParams::new(0.4, 4).unwrap(),
            )
        }
        _ => {
            let (d, _) = region_dataset(Region::Massachusetts, scale.region_n, 71);
            (d, OutlierParams::new(1.8, 4).unwrap())
        }
    };

    let domain = data.bounding_rect().expect("non-empty data");
    let sample = sample_points(&data, 0.05, 7);
    let ctx = PlanContext::new(params, 64, 0.05);
    let estimator = LocalCostEstimator::new(&domain, &sample, 0.05, params, 32);

    std::fs::create_dir_all(&out_dir)?;
    let strategies: Vec<(&str, Box<dyn PartitionStrategy>)> = vec![
        ("unispace", Box::new(UniSpace)),
        ("ddriven", Box::new(DDriven)),
        ("cdriven", Box::new(CDriven::new(AlgorithmKind::NestedLoop))),
        ("dmt", Box::new(Dmt::default())),
    ];
    for (name, strategy) in strategies {
        let mut scope = obs.scope("planviz.plan").with_label("strategy", name);
        let plan = strategy.build_plan(&sample, &domain, &ctx);
        let estimates = estimator.estimate(&plan, &sample, PAPER_CANDIDATES);
        let algorithms: Vec<_> = estimates.iter().map(|e| e.best().algorithm).collect();
        scope.add_label("partitions", plan.num_partitions() as u64);
        let path = std::path::Path::new(&out_dir).join(format!("plan_{which}_{name}.svg"));
        write_plan_svg(&path, &plan, Some(&sample), Some(&algorithms))?;
        println!(
            "{:<10} {:>4} partitions -> {}",
            name,
            plan.num_partitions(),
            path.display()
        );
    }
    session.finish();
    Ok(())
}
