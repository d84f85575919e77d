//! Distributed LOCI outlier detection on the DOD framework — the second
//! mining task Section III-B names as adaptable ("density-based
//! clustering \[16\] and LOCI outlier detection \[22\]").
//!
//! LOCI (Papadimitriou et al., ICDE 2003), bounded-radius variant: for a
//! geometric ladder of radii `r ∈ {r_max, r_max/2, ...}` define
//!
//! * `n(p, αr)` — points within `αr` of `p` (counting `p` itself),
//! * `n̂(p, r)` — the average of `n(q, αr)` over all `q` within `r` of `p`,
//! * `MDEF(p, r) = 1 − n(p, αr) / n̂(p, r)`, and
//! * `σMDEF(p, r)` — the normalized standard deviation of `n(q, αr)`.
//!
//! `p` is flagged iff `MDEF > kσ · σMDEF` at some radius with at least
//! `n_min` sampling neighbors. A point deviating from the local density
//! of its own neighborhood is caught at the radius of that neighborhood —
//! multi-granularity, with no single global density threshold.
//!
//! # Distribution
//!
//! Every quantity above for a core point `p` depends only on points
//! within `(1 + α)·r_max` of `p`: the sampling neighbors `q` are within
//! `r_max`, and their counting neighbors within a further `α·r_max`.
//! Routing with a supporting radius of `(1 + α)·r_max` therefore makes
//! each partition self-sufficient (the Lemma 3.1 argument verbatim), and
//! the distributed result is bit-identical to a centralized run.

use crate::framework::{gather_rows, load_points, DodMapper, TaggedPoint};
use crate::pipeline::{DodConfig, DodError};
use dod_core::{GridSpec, Metric, PointId, PointSet};
use dod_partition::{sample_points, PartitionStrategy, PlanContext};
use mapreduce::{run, JobMetrics, JobOptions, Reducer};

/// LOCI parameters.
#[derive(Debug, Clone, Copy)]
pub struct LociConfig {
    /// Largest sampling radius.
    pub r_max: f64,
    /// Counting-to-sampling radius ratio (the paper uses 0.5).
    pub alpha: f64,
    /// Number of radius levels (`r_max, r_max/2, ..., r_max/2^(levels-1)`).
    pub levels: usize,
    /// Minimum sampling-neighborhood size for a radius to be considered
    /// (the paper recommends 20; lower it for small data).
    pub n_min: usize,
    /// Deviation threshold multiplier `kσ` (the paper uses 3).
    pub k_sigma: f64,
    /// Distance metric.
    pub metric: Metric,
}

impl LociConfig {
    /// Paper-default parameters for the given `r_max`.
    pub fn new(r_max: f64) -> Self {
        LociConfig {
            r_max,
            alpha: 0.5,
            levels: 4,
            n_min: 20,
            k_sigma: 3.0,
            metric: Metric::Euclidean,
        }
    }

    /// The supporting radius that makes partitions self-sufficient.
    pub fn support_radius(&self) -> f64 {
        (1.0 + self.alpha) * self.r_max
    }

    fn radii(&self) -> Vec<f64> {
        (0..self.levels.max(1))
            .map(|j| self.r_max / 2f64.powi(j as i32))
            .collect()
    }
}

/// Grid-accelerated range counting within one partition.
struct RangeCounter<'a> {
    points: &'a PointSet,
    grid: GridSpec,
    buckets: std::collections::HashMap<usize, Vec<u32>>,
    radius_cells: usize,
    metric: Metric,
}

impl<'a> RangeCounter<'a> {
    fn build(points: &'a PointSet, r: f64, metric: Metric) -> Self {
        let bounds = points.bounding_rect().expect("non-empty");
        let grid = GridSpec::with_cell_side(bounds, r, 256).expect("valid grid");
        let mut buckets: std::collections::HashMap<usize, Vec<u32>> = Default::default();
        for i in 0..points.len() {
            buckets
                .entry(grid.cell_of(points.point(i)))
                .or_default()
                .push(i as u32);
        }
        let radius_cells = (0..points.dim())
            .map(|i| {
                let w = grid.width(i);
                if w == 0.0 {
                    0
                } else {
                    (r / w).ceil() as usize
                }
            })
            .max()
            .unwrap_or(1);
        RangeCounter {
            points,
            grid,
            buckets,
            radius_cells,
            metric,
        }
    }

    /// Indices within `r` of point `i`, **including `i` itself** (LOCI's
    /// counts are inclusive).
    fn neighbors_within(&self, i: usize, r: f64) -> Vec<u32> {
        let p = self.points.point(i);
        let cell = self.grid.cell_of(p);
        let mut out = Vec::new();
        for ncid in self.grid.neighborhood(cell, self.radius_cells, true) {
            if let Some(b) = self.buckets.get(&ncid) {
                for &j in b {
                    if self.metric.within(p, self.points.point(j as usize), r) {
                        out.push(j);
                    }
                }
            }
        }
        out
    }
}

/// Runs bounded LOCI over one materialized point set; returns the flag
/// per point (index order). Exactness of the distributed run is checked
/// against this same function run centrally.
pub fn loci_local(points: &PointSet, cfg: &LociConfig) -> Vec<bool> {
    let n = points.len();
    let mut flagged = vec![false; n];
    if n == 0 {
        return flagged;
    }
    for r in cfg.radii() {
        let alpha_r = cfg.alpha * r;
        // Counting neighborhoods n(·, αr) for every point, then sampling
        // statistics over N(·, r).
        let counter_small = RangeCounter::build(points, alpha_r, cfg.metric);
        let counts: Vec<f64> = (0..n)
            .map(|i| counter_small.neighbors_within(i, alpha_r).len() as f64)
            .collect();
        let counter_big = RangeCounter::build(points, r, cfg.metric);
        for i in 0..n {
            if flagged[i] {
                continue;
            }
            let sampling = counter_big.neighbors_within(i, r);
            if sampling.len() < cfg.n_min {
                continue;
            }
            let m = sampling.len() as f64;
            let mean = sampling.iter().map(|&q| counts[q as usize]).sum::<f64>() / m;
            if mean <= 0.0 {
                continue;
            }
            let var = sampling
                .iter()
                .map(|&q| {
                    let d = counts[q as usize] - mean;
                    d * d
                })
                .sum::<f64>()
                / m;
            let mdef = 1.0 - counts[i] / mean;
            let sigma_mdef = var.sqrt() / mean;
            if mdef > cfg.k_sigma * sigma_mdef {
                flagged[i] = true;
            }
        }
    }
    flagged
}

/// Reducer of the distributed LOCI job: local LOCI over core + support,
/// reporting flags for core points only.
pub struct LociReducer<'a> {
    data: &'a PointSet,
    cfg: LociConfig,
}

impl<'a> LociReducer<'a> {
    /// Creates the reducer over the job's input `data`, whose rows the
    /// records name.
    pub fn new(data: &'a PointSet, cfg: LociConfig) -> Self {
        LociReducer { data, cfg }
    }
}

impl Reducer<u32, TaggedPoint> for LociReducer<'_> {
    type Out = PointId;

    fn reduce(&self, _key: &u32, values: &[TaggedPoint], emit: &mut dyn FnMut(PointId)) {
        let flags = loci_local(&gather_rows(self.data, values), &self.cfg);
        for (i, v) in values.iter().enumerate() {
            if !v.is_support() && flags[i] {
                emit(v.id());
            }
        }
    }
}

/// Result of a distributed LOCI run.
#[derive(Debug)]
pub struct LociOutcome {
    /// Flagged point ids, ascending.
    pub outliers: Vec<PointId>,
    /// Job metrics.
    pub metrics: JobMetrics,
}

/// Runs distributed LOCI over `data` using `strategy` for partitioning
/// (`config` supplies the cluster/sampling knobs; `cfg` the LOCI
/// parameters).
///
/// # Errors
/// Returns [`DodError`] on job failure or inconsistent input.
pub fn loci(
    data: &PointSet,
    cfg: &LociConfig,
    config: &DodConfig,
    strategy: &dyn PartitionStrategy,
) -> Result<LociOutcome, DodError> {
    if data.is_empty() {
        return Ok(LociOutcome {
            outliers: Vec::new(),
            metrics: JobMetrics::default(),
        });
    }
    let domain = data.bounding_rect()?;
    let sample = sample_points(data, config.sample_rate, config.seed);
    let ctx = PlanContext::new(config.params, config.target_partitions, config.sample_rate);
    let plan = strategy.build_plan(&sample, &domain, &ctx);
    // The wider supporting radius is what makes LOCI exact per partition.
    let router = plan.router_with_metric(cfg.support_radius(), cfg.metric);

    let store = load_points(data, config.block_size, config.replication);
    let mapper = DodMapper::new(&router);
    let reducer = LociReducer::new(data, *cfg);
    let partitioner = |k: &u32, n: usize| (*k as usize) % n;
    let out = run(
        &config.cluster,
        &store,
        &mapper,
        &reducer,
        &partitioner,
        config.num_reducers,
        JobOptions::default(),
    )?;
    let mut outliers = out.outputs;
    outliers.sort_unstable();
    Ok(LociOutcome {
        outliers,
        metrics: out.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::OutlierParams;
    use dod_partition::{Dmt, UniSpace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dod_config(r: f64) -> DodConfig {
        DodConfig::builder(OutlierParams::new(r, 1).unwrap())
            .sample_rate(1.0)
            .block_size(128)
            .num_reducers(4)
            .target_partitions(9)
            .build()
            .unwrap()
    }

    fn uniform_with_planted(seed: u64, n: usize) -> (PointSet, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = PointSet::new(2).unwrap();
        for _ in 0..n {
            data.push(&[rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)])
                .unwrap();
        }
        // A tight micro-cluster: locally FAR denser than its surroundings
        // — the pattern LOCI exists to catch.
        let mut planted = Vec::new();
        for i in 0..15 {
            let id = data
                .push(&[10.0 + (i % 4) as f64 * 0.01, 10.0 + (i / 4) as f64 * 0.01])
                .unwrap();
            planted.push(id);
        }
        (data, planted)
    }

    #[test]
    fn local_loci_flags_nothing_on_uniform_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut data = PointSet::new(2).unwrap();
        for _ in 0..800 {
            data.push(&[rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
                .unwrap();
        }
        let cfg = LociConfig {
            n_min: 10,
            ..LociConfig::new(2.0)
        };
        let flags = loci_local(&data, &cfg);
        let flagged = flags.iter().filter(|&&f| f).count();
        // 3-sigma threshold: a small false-positive rate is expected, but
        // uniform data must not light up wholesale.
        assert!(
            flagged < data.len() / 20,
            "{flagged} of {} flagged",
            data.len()
        );
    }

    #[test]
    fn neighbors_of_micro_cluster_deviate() {
        // Points NEXT TO a dense micro-cluster have n(p, αr) typical of
        // the background but sampling neighborhoods dominated by the
        // cluster's counts — high MDEF. The cluster members themselves
        // are the high-count points. Either way LOCI must flag something
        // around the anomaly while uniform regions stay quiet.
        let (data, _) = uniform_with_planted(4, 900);
        let cfg = LociConfig {
            n_min: 10,
            ..LociConfig::new(2.0)
        };
        let flags = loci_local(&data, &cfg);
        let near_anomaly = (0..data.len()).filter(|&i| {
            flags[i] && dod_core::Metric::Euclidean.dist(data.point(i), &[10.0, 10.0]) < 4.0
        });
        assert!(
            near_anomaly.count() > 0,
            "no flags near the planted micro-cluster"
        );
    }

    #[test]
    fn distributed_matches_centralized_exactly() {
        let (data, _) = uniform_with_planted(5, 700);
        let cfg = LociConfig {
            n_min: 10,
            ..LociConfig::new(2.0)
        };
        let expected: Vec<u64> = loci_local(&data, &cfg)
            .into_iter()
            .enumerate()
            .filter(|(_, f)| *f)
            .map(|(i, _)| i as u64)
            .collect();
        for strategy in [&UniSpace as &dyn PartitionStrategy, &Dmt::default()] {
            let out = loci(&data, &cfg, &dod_config(2.0), strategy).unwrap();
            assert_eq!(out.outliers, expected);
        }
    }

    #[test]
    fn empty_input() {
        let cfg = LociConfig::new(1.0);
        let out = loci(
            &PointSet::new(2).unwrap(),
            &cfg,
            &dod_config(1.0),
            &UniSpace,
        )
        .unwrap();
        assert!(out.outliers.is_empty());
    }

    #[test]
    fn support_radius_is_one_plus_alpha() {
        let cfg = LociConfig::new(2.0);
        assert_eq!(cfg.support_radius(), 3.0);
        assert_eq!(cfg.radii(), vec![2.0, 1.0, 0.5, 0.25]);
    }

    #[test]
    fn n_min_gates_small_neighborhoods() {
        // With n_min larger than the dataset nothing can be flagged.
        let (data, _) = uniform_with_planted(6, 100);
        let cfg = LociConfig {
            n_min: 10_000,
            ..LociConfig::new(2.0)
        };
        assert!(loci_local(&data, &cfg).iter().all(|&f| !f));
    }
}
