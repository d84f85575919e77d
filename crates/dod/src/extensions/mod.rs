//! Other analytics tasks on the DOD framework.
//!
//! Section III-B claims the single-pass supporting-area framework "can be
//! easily adapted to support other mining tasks". These modules
//! substantiate the claim:
//!
//! * [`similarity_join`] — exact distance self-join (all pairs within
//!   `r`), the workload of the paper's related-work comparison \[14\];
//! * [`dbscan`] — distributed density-based clustering (the MR-DBSCAN
//!   task of reference \[16\]): local DBSCAN per partition plus a global
//!   cluster-merge step;
//! * [`loci`] — distributed LOCI outlier detection (reference \[22\]),
//!   exact thanks to a widened `(1+α)·r_max` supporting radius.
//!
//! All three run through one driver and list neighbours through one
//! index, the framework's `NeighborIndex`.

pub mod dbscan;
pub mod loci;
pub mod similarity_join;

use crate::framework::{load_points, DodMapper, TaggedPoint};
use crate::pipeline::{DodConfig, DodError};
use dod_core::{Metric, PointSet};
use dod_partition::{sample_points, PartitionStrategy, PlanContext};
use mapreduce::{Durable, JobMetrics, JobOptions, Reducer};

/// Runs `reducer` over `data` on the DOD framework: sample, plan with
/// `strategy`, route every point to the partitions within
/// `support_radius` of it under `metric`, and run one job that records
/// through `config.obs`. Empty input runs no job.
fn run_job<R>(
    data: &PointSet,
    config: &DodConfig,
    strategy: &dyn PartitionStrategy,
    (support_radius, metric): (f64, Metric),
    reducer: &R,
) -> Result<(Vec<R::Out>, JobMetrics), DodError>
where
    R: Reducer<u32, TaggedPoint>,
    R::Out: Durable,
{
    if data.is_empty() {
        return Ok((Vec::new(), JobMetrics::default()));
    }
    let domain = data.bounding_rect()?;
    let sample = sample_points(data, config.sample_rate, config.seed);
    let ctx = PlanContext::new(config.params, config.target_partitions, config.sample_rate);
    let plan = strategy.build_plan(&sample, &domain, &ctx);
    let router = plan.router_with_metric(support_radius, metric);
    let store = load_points(data, config.block_size, config.replication);
    let out = mapreduce::run(
        &config.cluster,
        &store,
        &DodMapper::new(&router),
        reducer,
        &|k: &u32, n: usize| (*k as usize) % n,
        config.num_reducers,
        JobOptions {
            obs: config.obs.clone(),
            ..JobOptions::default()
        },
    )?;
    Ok((out.outputs, out.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::OutlierParams;
    use dod_obs::{names, MemoryRecorder, Obs};
    use dod_partition::UniSpace;
    use std::sync::Arc;

    /// The driver runs each job with `config.obs`: a traced join, DBSCAN
    /// or LOCI run records a `mapreduce.task` span for every map task.
    #[test]
    fn extension_jobs_record_through_the_configured_obs() {
        let xy: Vec<(f64, f64)> = (0..60)
            .map(|i| ((i % 10) as f64, (i / 10) as f64))
            .collect();
        let data = PointSet::from_xy(&xy);
        for job in ["join", "dbscan", "loci"] {
            let mem = Arc::new(MemoryRecorder::new());
            let config = DodConfig::builder(OutlierParams::new(1.5, 3).unwrap())
                .sample_rate(1.0)
                .block_size(16)
                .num_reducers(2)
                .target_partitions(4)
                .obs(Obs::new(mem.clone()))
                .build()
                .unwrap();
            match job {
                "join" => {
                    drop(similarity_join::similarity_join(&data, &config, &UniSpace).unwrap())
                }
                "dbscan" => drop(dbscan::dbscan(&data, &config, &UniSpace).unwrap()),
                _ => {
                    let cfg = loci::LociConfig::new(1.5);
                    drop(loci::loci(&data, &cfg, &config, &UniSpace).unwrap());
                }
            }
            let tasks = mem.span_nanos(names::MAPREDUCE_TASK).len();
            assert!(
                tasks >= data.len().div_ceil(16),
                "{job}: {tasks} task spans"
            );
        }
    }
}
