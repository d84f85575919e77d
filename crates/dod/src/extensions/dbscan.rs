//! Distributed density-based clustering (DBSCAN) on the DOD framework —
//! the MR-DBSCAN task of the paper's reference \[16\], included to
//! substantiate the framework-generality claim of Section III-B.
//!
//! DBSCAN(ε, minPts): a point is a **core point** iff it has at least
//! `minPts` neighbors within `ε` (neighbors exclude the point itself, to
//! stay consistent with this workspace's Definition 2.2 convention);
//! clusters are the connected components of core points under the
//! within-ε relation, plus the border points within ε of a core point.
//!
//! # Distribution
//!
//! Since ε-neighborhoods are exactly the supporting-area radius, every
//! partition can decide **authoritatively** whether each of its *core
//! (tag-0)* points is a DBSCAN core point, and can assign it a local
//! cluster. A point replicated as support may be mislabeled locally (its
//! neighborhood is not fully visible), so merging is driven only by
//! authoritative facts:
//!
//! * every partition emits, for each point it placed in a local cluster,
//!   the record `(point id, local cluster, authoritative?)`;
//! * the driver unions two local clusters iff they share a point whose
//!   authoritative record says *DBSCAN core* — a core point belonging to
//!   two clusters forces them to be one cluster;
//! * border points take their authoritative partition's assignment
//!   (border membership is ambiguous in DBSCAN; any within-ε core
//!   neighbor's cluster is acceptable, and we keep the local choice).
//!
//! The result matches centralized DBSCAN exactly on noise and on the
//! core-point partition structure (see the equivalence tests).

use crate::framework::{gather_rows, load_points, DodMapper, TaggedPoint};
use crate::pipeline::{DodConfig, DodError};
use dod_core::{GridSpec, PointId, PointSet};
use dod_obs::json::Json;
use dod_partition::{sample_points, PartitionStrategy, PlanContext};
use mapreduce::{run, Durable, EstimateSize, JobMetrics, JobOptions, Reducer};
use std::collections::HashMap;

/// Final label of a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Not density-reachable from any core point.
    Noise,
    /// Member of the cluster with this global id.
    Cluster(u32),
}

/// One reducer-emitted labeling fact.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelRecord {
    /// Global point id.
    pub id: PointId,
    /// Local cluster: `(partition id, local cluster index)`; `None` for
    /// local noise.
    pub cluster: Option<(u32, u32)>,
    /// Whether this record comes from the point's core partition (then
    /// `is_dbscan_core` is exact).
    pub authoritative: bool,
    /// Whether the point is a DBSCAN core point (exact only when
    /// `authoritative`).
    pub is_dbscan_core: bool,
}

impl EstimateSize for LabelRecord {
    fn estimated_bytes(&self) -> usize {
        8 + 9 + 2
    }
}

// Checkpointed clustering jobs persist a record as `[id, cluster,
// [authoritative, is_dbscan_core]]`, local noise's cluster as `null`.
impl Durable for LabelRecord {
    fn encode(&self, out: &mut String) {
        let flags = (self.authoritative, self.is_dbscan_core);
        (self.id, self.cluster, flags).encode(out);
    }
    fn decode(v: &Json) -> Option<Self> {
        let (id, cluster, (authoritative, is_dbscan_core)) =
            <(PointId, Option<(u32, u32)>, (bool, bool))>::decode(v)?;
        Some(LabelRecord {
            id,
            cluster,
            authoritative,
            is_dbscan_core,
        })
    }
}

/// Runs DBSCAN over the points of one partition (core + support).
/// Returns, per unified index: `(local cluster or None, is_core_point)`.
///
/// Grid-accelerated: ε-range queries scan only the neighboring cells.
pub fn dbscan_local(points: &PointSet, eps: f64, min_pts: usize) -> (Vec<Option<u32>>, Vec<bool>) {
    dbscan_local_metric(points, eps, min_pts, dod_core::Metric::Euclidean)
}

/// [`dbscan_local`] under an arbitrary metric.
pub fn dbscan_local_metric(
    points: &PointSet,
    eps: f64,
    min_pts: usize,
    metric: dod_core::Metric,
) -> (Vec<Option<u32>>, Vec<bool>) {
    let n = points.len();
    let mut cluster: Vec<Option<u32>> = vec![None; n];
    let mut is_core = vec![false; n];
    if n == 0 {
        return (cluster, is_core);
    }
    let bounds = points.bounding_rect().expect("non-empty");
    let grid = GridSpec::with_cell_side(bounds, eps, 512).expect("valid grid");
    let mut buckets: HashMap<usize, Vec<u32>> = HashMap::new();
    for i in 0..n {
        buckets
            .entry(grid.cell_of(points.point(i)))
            .or_default()
            .push(i as u32);
    }
    let radius: usize = (0..points.dim())
        .map(|i| {
            let w = grid.width(i);
            if w == 0.0 {
                0
            } else {
                (eps / w).ceil() as usize
            }
        })
        .max()
        .unwrap_or(1);
    let neighbors_of = |i: usize| -> Vec<u32> {
        let cell = grid.cell_of(points.point(i));
        let mut out = Vec::new();
        for ncid in grid.neighborhood(cell, radius, true) {
            if let Some(b) = buckets.get(&ncid) {
                for &j in b {
                    if j as usize != i
                        && metric.within(points.point(i), points.point(j as usize), eps)
                    {
                        out.push(j);
                    }
                }
            }
        }
        out
    };

    // Mark core points.
    for (i, core) in is_core.iter_mut().enumerate().take(n) {
        if neighbors_of(i).len() >= min_pts {
            *core = true;
        }
    }
    // Expand clusters from core points (BFS over core connectivity).
    let mut next_cluster = 0u32;
    for i in 0..n {
        if !is_core[i] || cluster[i].is_some() {
            continue;
        }
        let cid = next_cluster;
        next_cluster += 1;
        cluster[i] = Some(cid);
        let mut queue = vec![i as u32];
        while let Some(cur) = queue.pop() {
            for j in neighbors_of(cur as usize) {
                let j = j as usize;
                if cluster[j].is_none() {
                    cluster[j] = Some(cid);
                    if is_core[j] {
                        queue.push(j as u32);
                    }
                }
            }
        }
    }
    (cluster, is_core)
}

/// Reducer of the clustering job: local DBSCAN plus labeling facts.
pub struct DbscanReducer<'a> {
    data: &'a PointSet,
    eps: f64,
    min_pts: usize,
    metric: dod_core::Metric,
}

impl<'a> DbscanReducer<'a> {
    /// Creates the reducer over the job's input `data`, whose rows the
    /// records name.
    pub fn new(data: &'a PointSet, eps: f64, min_pts: usize, metric: dod_core::Metric) -> Self {
        DbscanReducer {
            data,
            eps,
            min_pts,
            metric,
        }
    }
}

impl Reducer<u32, TaggedPoint> for DbscanReducer<'_> {
    type Out = LabelRecord;

    fn reduce(&self, key: &u32, values: &[TaggedPoint], emit: &mut dyn FnMut(LabelRecord)) {
        let points = gather_rows(self.data, values);
        let (cluster, is_core) = dbscan_local_metric(&points, self.eps, self.min_pts, self.metric);
        for (i, v) in values.iter().enumerate() {
            let authoritative = !v.is_support();
            let local = cluster[i].map(|c| (*key, c));
            if local.is_none() && !authoritative {
                continue; // unlabeled support points carry no information
            }
            emit(LabelRecord {
                id: v.id(),
                cluster: local,
                authoritative,
                is_dbscan_core: is_core[i],
            });
        }
    }
}

/// Result of a distributed DBSCAN run.
#[derive(Debug)]
pub struct DbscanOutcome {
    /// Label per point id (index = id).
    pub labels: Vec<Label>,
    /// Number of global clusters.
    pub num_clusters: usize,
    /// Job metrics.
    pub metrics: JobMetrics,
}

/// Union-find over local cluster labels.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// Runs distributed DBSCAN(`eps = config.params.r`,
/// `min_pts = config.params.k`) over `data`.
///
/// # Errors
/// Returns [`DodError`] on job failure or inconsistent input.
pub fn dbscan(
    data: &PointSet,
    config: &DodConfig,
    strategy: &dyn PartitionStrategy,
) -> Result<DbscanOutcome, DodError> {
    if data.is_empty() {
        return Ok(DbscanOutcome {
            labels: Vec::new(),
            num_clusters: 0,
            metrics: JobMetrics::default(),
        });
    }
    let eps = config.params.r;
    let min_pts = config.params.k;
    let domain = data.bounding_rect()?;
    let sample = sample_points(data, config.sample_rate, config.seed);
    let ctx = PlanContext::new(config.params, config.target_partitions, config.sample_rate);
    let plan = strategy.build_plan(&sample, &domain, &ctx);
    let router = plan.router_with_metric(eps, config.params.metric);

    let store = load_points(data, config.block_size, config.replication);
    let mapper = DodMapper::new(&router);
    let reducer = DbscanReducer::new(data, eps, min_pts, config.params.metric);
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

    // ---- Global merge (driver side). ----
    // Intern local cluster labels.
    let mut label_ids: HashMap<(u32, u32), u32> = HashMap::new();
    for rec in &out.outputs {
        if let Some(local) = rec.cluster {
            let next = label_ids.len() as u32;
            label_ids.entry(local).or_insert(next);
        }
    }
    let mut uf = UnionFind::new(label_ids.len());
    // Group records by point.
    let mut by_point: HashMap<PointId, Vec<&LabelRecord>> = HashMap::new();
    for rec in &out.outputs {
        by_point.entry(rec.id).or_default().push(rec);
    }
    for recs in by_point.values() {
        // Local core-ness is never over-claimed (a partition sees a
        // subset of a support point's true neighborhood and the full
        // neighborhood of a core point), so *any* record marking the
        // point as a DBSCAN core point is exact — and a core point
        // belonging to several local clusters unions them all.
        let known_core = recs.iter().any(|r| r.is_dbscan_core);
        if !known_core {
            continue;
        }
        let mut first: Option<u32> = None;
        for r in recs.iter() {
            if let Some(local) = r.cluster {
                let lid = label_ids[&local];
                match first {
                    Some(f) => uf.union(f, lid),
                    None => first = Some(lid),
                }
            }
        }
    }

    // Compact global cluster ids.
    let mut global_of_root: HashMap<u32, u32> = HashMap::new();
    let mut labels = vec![Label::Noise; data.len()];
    // Deterministic assignment order: by point id, preferring the
    // authoritative record.
    let mut ids: Vec<PointId> = by_point.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let recs = &by_point[&id];
        // Any clustered record is valid (see the merge comment); a point
        // is noise only if no partition could cluster it. Prefer the
        // authoritative clustered record, then the smallest local label,
        // for determinism.
        let chosen = recs
            .iter()
            .filter(|r| r.cluster.is_some())
            .min_by_key(|r| (!r.authoritative, r.cluster));
        if let Some(local) = chosen.and_then(|r| r.cluster) {
            let root = uf.find(label_ids[&local]);
            let next = global_of_root.len() as u32;
            let gid = *global_of_root.entry(root).or_insert(next);
            labels[id as usize] = Label::Cluster(gid);
        }
    }
    let num_clusters = global_of_root.len();
    Ok(DbscanOutcome {
        labels,
        num_clusters,
        metrics: out.metrics,
    })
}

/// Centralized reference DBSCAN, for tests.
pub fn dbscan_reference(data: &PointSet, eps: f64, min_pts: usize) -> (Vec<Label>, usize) {
    let (cluster, _) = dbscan_local(data, eps, min_pts);
    let mut remap: HashMap<u32, u32> = HashMap::new();
    let mut labels = Vec::with_capacity(data.len());
    for c in cluster {
        match c {
            Some(local) => {
                let next = remap.len() as u32;
                let gid = *remap.entry(local).or_insert(next);
                labels.push(Label::Cluster(gid));
            }
            None => labels.push(Label::Noise),
        }
    }
    (labels, remap.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::OutlierParams;
    use dod_partition::{Dmt, UniSpace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config(eps: f64, min_pts: usize) -> DodConfig {
        DodConfig::builder(OutlierParams::new(eps, min_pts).unwrap())
            .sample_rate(1.0)
            .block_size(64)
            .num_reducers(4)
            .target_partitions(9)
            .build()
            .unwrap()
    }

    /// Two labelings are equivalent if they induce the same partition of
    /// the non-noise points and the same noise set — modulo cluster ids.
    fn assert_equivalent(a: &[Label], b: &[Label]) {
        assert_eq!(a.len(), b.len());
        let mut fwd: HashMap<u32, u32> = HashMap::new();
        let mut bwd: HashMap<u32, u32> = HashMap::new();
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (Label::Noise, Label::Noise) => {}
                (Label::Cluster(ca), Label::Cluster(cb)) => {
                    assert_eq!(*fwd.entry(*ca).or_insert(*cb), *cb, "cluster split");
                    assert_eq!(*bwd.entry(*cb).or_insert(*ca), *ca, "cluster merge");
                }
                other => panic!("noise/cluster mismatch: {other:?}"),
            }
        }
    }

    fn two_blobs_and_noise() -> PointSet {
        let mut rng = StdRng::seed_from_u64(5);
        let mut data = PointSet::new(2).unwrap();
        for _ in 0..200 {
            data.push(&[rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)])
                .unwrap();
        }
        for _ in 0..200 {
            data.push(&[rng.gen_range(8.0..10.0), rng.gen_range(8.0..10.0)])
                .unwrap();
        }
        data.push(&[5.0, 5.0]).unwrap(); // lone noise point
        data
    }

    #[test]
    fn local_dbscan_finds_two_blobs() {
        let data = two_blobs_and_noise();
        let (labels, n) = dbscan_reference(&data, 0.5, 4);
        assert_eq!(n, 2);
        assert_eq!(labels[400], Label::Noise);
        // All of blob 1 in one cluster.
        let first = labels[0];
        assert!(matches!(first, Label::Cluster(_)));
        for l in &labels[..200] {
            assert_eq!(*l, first);
        }
    }

    #[test]
    fn distributed_matches_reference_on_blobs() {
        let data = two_blobs_and_noise();
        let (expected, n_ref) = dbscan_reference(&data, 0.5, 4);
        for strategy in [&UniSpace as &dyn PartitionStrategy, &Dmt::default()] {
            let out = dbscan(&data, &config(0.5, 4), strategy).unwrap();
            assert_eq!(out.num_clusters, n_ref);
            assert_equivalent(&out.labels, &expected);
        }
    }

    #[test]
    fn cluster_spanning_partitions_is_merged() {
        // A dense line crossing the whole domain: every grid partitioning
        // cuts it, so the merge step must reunify it.
        let mut pts = Vec::new();
        for i in 0..400 {
            pts.push((i as f64 * 0.05, 5.0));
            pts.push((i as f64 * 0.05, 5.05));
        }
        let data = PointSet::from_xy(&pts);
        let out = dbscan(&data, &config(0.3, 3), &UniSpace).unwrap();
        assert_eq!(out.num_clusters, 1, "the line is one cluster");
        assert!(out.labels.iter().all(|l| *l == Label::Cluster(0)));
    }

    #[test]
    fn random_data_matches_reference_semantics() {
        // On arbitrary data, border points may legitimately be assigned
        // to different (adjacent) clusters than a centralized run — the
        // classic DBSCAN ambiguity. The exact invariants are:
        // same noise set, same core-point partition, and every border
        // point in a cluster that has a core point within eps of it.
        let (eps, min_pts) = (0.7, 4);
        let mut rng = StdRng::seed_from_u64(11);
        let mut data = PointSet::new(2).unwrap();
        for _ in 0..600 {
            data.push(&[rng.gen_range(0.0..12.0), rng.gen_range(0.0..12.0)])
                .unwrap();
        }
        let (expected, n_ref) = dbscan_reference(&data, eps, min_pts);
        let (_, is_core) = dbscan_local(&data, eps, min_pts);
        let out = dbscan(&data, &config(eps, min_pts), &UniSpace).unwrap();
        assert_eq!(out.num_clusters, n_ref);

        // Noise sets identical.
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(
                out.labels[i] == Label::Noise,
                *exp == Label::Noise,
                "noise mismatch at {i}"
            );
        }
        // Core-point partition identical (bijective id mapping).
        let mut fwd: HashMap<u32, u32> = HashMap::new();
        let mut bwd: HashMap<u32, u32> = HashMap::new();
        for i in 0..data.len() {
            if !is_core[i] {
                continue;
            }
            let (Label::Cluster(ca), Label::Cluster(cb)) = (out.labels[i], expected[i]) else {
                panic!("core point {i} not clustered");
            };
            assert_eq!(
                *fwd.entry(ca).or_insert(cb),
                cb,
                "core cluster split at {i}"
            );
            assert_eq!(
                *bwd.entry(cb).or_insert(ca),
                ca,
                "core cluster merge at {i}"
            );
        }
        // Border points: assigned cluster must contain a core point
        // within eps.
        let eps_sq = eps * eps;
        for i in 0..data.len() {
            if is_core[i] {
                continue;
            }
            if let Label::Cluster(c) = out.labels[i] {
                let ok = (0..data.len()).any(|j| {
                    is_core[j]
                        && out.labels[j] == Label::Cluster(c)
                        && dod_core::point::dist_sq(data.point(i), data.point(j)) <= eps_sq
                });
                assert!(ok, "border point {i} assigned to a non-adjacent cluster");
            }
        }
    }

    /// The checkpoint format is pinned, for a clustered record and for
    /// local noise.
    #[test]
    fn label_record_round_trips() {
        for (record, text) in [
            (
                LabelRecord {
                    id: 7,
                    cluster: Some((2, 0)),
                    authoritative: false,
                    is_dbscan_core: true,
                },
                "[7,[2,0],[false,true]]",
            ),
            (
                LabelRecord {
                    id: 9,
                    cluster: None,
                    authoritative: true,
                    is_dbscan_core: false,
                },
                "[9,null,[true,false]]",
            ),
        ] {
            let mut out = String::new();
            record.encode(&mut out);
            assert_eq!(out, text);
            let back = LabelRecord::decode(&dod_obs::json::parse(text).unwrap());
            assert_eq!(back, Some(record));
        }
    }

    #[test]
    fn empty_input() {
        let out = dbscan(&PointSet::new(2).unwrap(), &config(1.0, 3), &UniSpace).unwrap();
        assert!(out.labels.is_empty());
        assert_eq!(out.num_clusters, 0);
    }

    #[test]
    fn all_noise_when_min_pts_too_high() {
        let data = PointSet::from_xy(&[(0.0, 0.0), (10.0, 10.0), (20.0, 0.0)]);
        let out = dbscan(&data, &config(1.0, 5), &UniSpace).unwrap();
        assert_eq!(out.num_clusters, 0);
        assert!(out.labels.iter().all(|l| *l == Label::Noise));
    }
}
