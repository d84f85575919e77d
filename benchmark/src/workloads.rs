//! The four workloads. Each is a fixed corpus shape, size and op mix;
//! `--seed` draws the points and queries.

use dod::prelude::*;
use dod_obs::Obs;

use crate::gen::{Cluster, Shape};

/// Geo-like skew (the OSM/TIGER analog): 40% of the points in a dense
/// blob, 45% in a moderate cluster 28 times less dense at its centre,
/// 15% sparse background over the whole square.
const GEO_CLUSTERS: &[Cluster] = &[
    Cluster {
        centre: &[30.0, 30.0],
        sigma: 1.5,
        share: 0.40,
    },
    Cluster {
        centre: &[65.0, 60.0],
        sigma: 8.0,
        share: 0.45,
    },
];

const SKEW2D: Shape = Shape {
    dim: 2,
    side: 100.0,
    clusters: GEO_CLUSTERS,
    r: 0.6,
    k: 6,
};

/// The same mixture for the 1M-point resident set; `r` shrinks with the
/// doubled density so that about as many points stay outliers.
const GEO_1M: Shape = Shape {
    dim: 2,
    side: 100.0,
    clusters: GEO_CLUSTERS,
    r: 0.4,
    k: 6,
};

/// Six tight 4-d clusters (sigma 1.25 against r 0.9) and 4% background
/// in a cube wide enough that DSHC's 16 buckets per dimension are ~7r
/// across, which keeps supporting areas thin.
const DENSE4D: Shape = Shape {
    dim: 4,
    side: 100.0,
    clusters: &[
        Cluster {
            centre: &[20.0, 20.0, 20.0, 20.0],
            sigma: 1.25,
            share: 0.16,
        },
        Cluster {
            centre: &[70.0, 25.0, 60.0, 20.0],
            sigma: 1.25,
            share: 0.16,
        },
        Cluster {
            centre: &[40.0, 70.0, 30.0, 75.0],
            sigma: 1.25,
            share: 0.16,
        },
        Cluster {
            centre: &[80.0, 80.0, 80.0, 30.0],
            sigma: 1.25,
            share: 0.16,
        },
        Cluster {
            centre: &[25.0, 45.0, 80.0, 60.0],
            sigma: 1.25,
            share: 0.16,
        },
        Cluster {
            centre: &[60.0, 50.0, 45.0, 85.0],
            sigma: 1.25,
            share: 0.16,
        },
    ],
    r: 0.9,
    k: 16,
};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One op = one in-process `DodRunner::run` over the corpus.
    Batch,
    /// `score` requests against a `dod serve` child; no writes.
    ServeRead,
    /// `insert → score → remove` cycles against a `dod serve` child.
    ServeChurn,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub shape: &'static Shape,
    pub points: usize,
    /// Corpus size under `--quick`.
    pub quick_points: usize,
    /// Fixed Nested-Loop at every reducer instead of per-partition
    /// selection (`--mode nl` on the command line).
    pub nested_loop: bool,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "batch_skew2d",
        kind: Kind::Batch,
        shape: &SKEW2D,
        points: 500_000,
        quick_points: 40_000,
        nested_loop: false,
    },
    // Multi-tactic selection would pick Cell-Based for every partition of
    // this corpus and take ~7 s per run (its 4-d cell ring is 9^4 cells);
    // fixed Nested-Loop takes ~0.7 s and spends it in the tile kernel,
    // which is the layer this workload is here to load.
    Workload {
        name: "batch_dense4d",
        kind: Kind::Batch,
        shape: &DENSE4D,
        points: 200_000,
        quick_points: 20_000,
        nested_loop: true,
    },
    Workload {
        name: "serve_read",
        kind: Kind::ServeRead,
        shape: &GEO_1M,
        points: 1_000_000,
        quick_points: 60_000,
        nested_loop: false,
    },
    // 250k, not 300k: a staleness swap then falls every 493 mutation ops
    // (~2.2 s here), so a 20 s run sees ~9 of them, and because 493 is
    // odd they alternate between insert and remove ops.
    Workload {
        name: "serve_churn",
        kind: Kind::ServeChurn,
        shape: &SKEW2D,
        points: 250_000,
        quick_points: 20_000,
        nested_loop: false,
    },
];

/// Points per `score` request, the unit of the read path.
pub const SCORE_BATCH: usize = 512;
/// Points per `insert` and per `remove` request.
pub const CHURN_BATCH: usize = 256;
/// Distinct `score` requests in a workload's query script; one pass over
/// them is one equal-work block of `serve_read`.
pub const SCRIPT_REQUESTS: usize = 64;
/// Threads the program may use, in-process and in the serve child: the
/// box has two vCPUs, and a third runnable thread makes every timing
/// depend on the scheduler.
pub const THREADS: usize = 2;

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        ALL.iter().find(|w| w.name == name)
    }

    pub fn params(&self) -> OutlierParams {
        OutlierParams::new(self.shape.r, self.shape.k).expect("workload constants are valid")
    }

    /// The in-process pipeline with the reducer and partition counts the
    /// `dod` command line defaults to, so that an engine built here plans
    /// like the `dod serve` child does.
    pub fn runner(&self, obs: Obs, speculation: bool) -> DodRunner {
        let mut cluster = ClusterConfig::default().with_host_threads(THREADS);
        if !speculation {
            cluster = cluster.without_speculation();
        }
        let config = DodConfig::builder(self.params())
            .cluster(cluster)
            .num_reducers(16)
            .target_partitions(64)
            .obs(obs)
            .build()
            .expect("workload constants are valid");
        let builder = DodRunner::builder().config(config);
        if self.nested_loop {
            builder.fixed(AlgorithmKind::NestedLoop).build()
        } else {
            builder.multi_tactic().build()
        }
    }

    /// Arguments after `dod serve --input <csv>`.
    pub fn serve_args(&self) -> Vec<String> {
        let mut args = vec![
            "--r".to_string(),
            self.shape.r.to_string(),
            "--k".to_string(),
            self.shape.k.to_string(),
            "--workers".to_string(),
            THREADS.to_string(),
        ];
        if self.nested_loop {
            args.extend(["--mode".to_string(), "nl".to_string()]);
        }
        args
    }
}
