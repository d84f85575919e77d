//! Density and Spatial-aware Hierarchical Clustering (Section V-A, step 1).
//!
//! DSHC groups mini buckets of similar density into rectangular clusters
//! with a single scan. It implements the paper's three constraints:
//!
//! 1. *density and spatial-aware*: only spatially-adjacent clusters of
//!    similar density (|Δdensity| < `Tdiff`, Definition 5.2) merge;
//! 2. *rectangle-shaped clusters only* (Definition 5.3), so the final
//!    partition plan stays cheap to apply at the mappers;
//! 3. *cardinality constraint*: a cluster never exceeds `Tmax#` points
//!    (the number a single reducer can hold in memory).
//!
//! Merging a bucket triggers the recursive upward merge of Definition 5.4:
//! the augmented cluster keeps absorbing eligible neighbors until no
//! further merge applies.
//!
//! # Finding merge candidates
//!
//! The paper finds the clusters adjacent to a rectangle with an R-tree
//! over Aggregate Features (the "AF-tree"). The bucket grid here is dense
//! and small (DMT caps it at 65,536 buckets), and Definition 5.3 leaves
//! very few of the adjacent clusters eligible: the union with `T` is a
//! rectangle only for a cluster that spans exactly `T`'s cross-section
//! beyond one of `T`'s `2d` faces, and clusters are disjoint, so that
//! cluster is the owner of the bucket just beyond the face at `T`'s low
//! corner. One `bucket → cluster` table therefore answers the search with
//! at most `2d` lookups and no tree. Among equally similar candidates the
//! lowest cluster id wins, which is what the tree's id-sorted result list
//! gave, so the clusters are the same.

use crate::intrect::IntRect;
use crate::minibucket::MiniBucketGrid;

/// A DSHC cluster: the materialized Aggregate Feature of Definition 5.1
/// (`numPoints`, bucket-space bounds; density is derived).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// Bucket-space bounds of the cluster.
    pub rect: IntRect,
    /// Number of sample points aggregated in the cluster.
    pub count: u64,
}

impl Cluster {
    /// Density in real coordinates: sample count over covered volume.
    pub fn density(&self, grid: &MiniBucketGrid) -> f64 {
        density(self.count, self.rect.cells(), grid.bucket_volume())
    }
}

/// `count` sample points over `cells` buckets of volume `bucket_volume`.
fn density(count: u64, cells: u64, bucket_volume: f64) -> f64 {
    let vol = cells as f64 * bucket_volume;
    if vol == 0.0 {
        if count == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        count as f64 / vol
    }
}

/// DSHC tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct DshcConfig {
    /// Maximum density difference `Tdiff` (Definition 5.2), in absolute
    /// sample-points-per-volume units.
    pub tdiff: f64,
    /// Maximum number of (sample) points per cluster `Tmax#`
    /// (Definition 5.2). `u64::MAX` disables the cap.
    pub max_points: u64,
}

impl DshcConfig {
    /// A config with `tdiff` set relative to the grid's mean non-empty
    /// density: `tdiff = factor × total_count / domain_volume`.
    pub fn relative(grid: &MiniBucketGrid, factor: f64, max_points: u64) -> Self {
        let volume = grid.grid().domain().volume();
        let mean = if volume > 0.0 {
            grid.total_count() as f64 / volume
        } else {
            0.0
        };
        DshcConfig {
            tdiff: mean * factor,
            max_points,
        }
    }
}

impl Default for DshcConfig {
    fn default() -> Self {
        DshcConfig {
            tdiff: f64::INFINITY,
            max_points: u64::MAX,
        }
    }
}

/// `owner` entry of a bucket the scan has not reached yet.
const UNSCANNED: u32 = u32::MAX;

/// The clusters under construction: a dense `bucket → slot` table over
/// the grid and the slots in a flat arena (slot `s` keeps its bounds in
/// `lo[s * dim..][..dim]` / `hi[..]`). An absorbed slot points at its
/// absorber through `parent` (union-find), so `owner` is written once per
/// bucket and never rewritten; bounds, count and id are current at root
/// slots only.
struct OwnerTable {
    dim: usize,
    owner: Vec<u32>,
    lo: Vec<u32>,
    hi: Vec<u32>,
    count: Vec<u64>,
    /// Cluster id: the linear index of the bucket whose scan last formed
    /// the cluster (the AF-tree issued a fresh id per scanned bucket).
    id: Vec<u32>,
    parent: Vec<u32>,
}

impl OwnerTable {
    /// The live cluster that holds `bucket`, if the scan has reached it.
    fn cluster_at(&mut self, bucket: usize) -> Option<u32> {
        let mut slot = self.owner[bucket];
        if slot == UNSCANNED {
            return None;
        }
        while self.parent[slot as usize] != slot {
            let up = self.parent[slot as usize];
            self.parent[slot as usize] = self.parent[up as usize];
            slot = self.parent[slot as usize];
        }
        Some(slot)
    }

    fn bounds(&self, slot: u32) -> (&[u32], &[u32]) {
        let at = slot as usize * self.dim;
        (&self.lo[at..at + self.dim], &self.hi[at..at + self.dim])
    }

    /// Appends an empty root slot.
    fn fresh_slot(&mut self) -> u32 {
        let slot = self.parent.len() as u32;
        self.lo.resize(self.lo.len() + self.dim, 0);
        self.hi.resize(self.hi.len() + self.dim, 0);
        self.count.push(0);
        self.id.push(0);
        self.parent.push(slot);
        slot
    }

    fn store(&mut self, slot: u32, lo: &[u32], hi: &[u32], count: u64, id: u32) {
        let at = slot as usize * self.dim;
        self.lo[at..at + self.dim].copy_from_slice(lo);
        self.hi[at..at + self.dim].copy_from_slice(hi);
        self.count[slot as usize] = count;
        self.id[slot as usize] = id;
    }
}

/// The DSHC clustering algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dshc;

impl Dshc {
    /// Clusters every mini bucket of `grid` into rectangular partitions.
    ///
    /// The returned clusters are pairwise disjoint in bucket space and
    /// cover the grid exactly.
    pub fn cluster(grid: &MiniBucketGrid, config: &DshcConfig) -> Vec<Cluster> {
        let dim = grid.dim();
        assert!(
            grid.num_buckets() < UNSCANNED as usize,
            "bucket ids and cluster slots are u32"
        );
        let limits: Vec<u32> = (0..dim).map(|i| grid.buckets_per_dim(i)).collect();
        // Row-major: the last dimension is contiguous.
        let mut strides = vec![1usize; dim];
        for i in (0..dim.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * limits[i + 1] as usize;
        }
        let search = Search {
            config,
            limits: &limits,
            strides: &strides,
            bucket_volume: grid.bucket_volume(),
        };
        let mut table = OwnerTable {
            dim,
            owner: vec![UNSCANNED; grid.num_buckets()],
            lo: Vec::new(),
            hi: Vec::new(),
            count: Vec::new(),
            id: Vec::new(),
            parent: Vec::new(),
        };

        // The cluster being grown around the scanned bucket; it is in no
        // slot while it grows, as it was out of the tree.
        let mut lo = vec![0u32; dim];
        let mut hi = vec![0u32; dim];
        let mut cursor = vec![0u32; dim];
        for bucket in 0..grid.num_buckets() {
            lo.copy_from_slice(&cursor);
            hi.copy_from_slice(&cursor);
            let mut count = grid.count_of(bucket) as u64;
            // Search, merge, and the recursive upward merge of
            // Definition 5.4: absorb the most density-similar eligible
            // neighbor until none is left. The first one absorbed lends
            // its slot; later ones are redirected to it.
            let mut home: Option<u32> = None;
            while let Some(cand) = search.best_merge_candidate(&mut table, &lo, &hi, count) {
                let (cand_lo, cand_hi) = table.bounds(cand);
                for i in 0..dim {
                    lo[i] = lo[i].min(cand_lo[i]);
                    hi[i] = hi[i].max(cand_hi[i]);
                }
                count += table.count[cand as usize];
                match home {
                    None => home = Some(cand),
                    Some(home) => table.parent[cand as usize] = home,
                }
            }
            let home = home.unwrap_or_else(|| table.fresh_slot());
            table.store(home, &lo, &hi, count, bucket as u32);
            table.owner[bucket] = home;

            for i in (0..dim).rev() {
                cursor[i] += 1;
                if cursor[i] < limits[i] {
                    break;
                }
                cursor[i] = 0;
            }
        }

        let mut clusters: Vec<Cluster> = (0..table.parent.len() as u32)
            .filter(|&s| table.parent[s as usize] == s)
            .map(|s| {
                let (lo, hi) = table.bounds(s);
                Cluster {
                    rect: IntRect::new(lo.to_vec(), hi.to_vec()),
                    count: table.count[s as usize],
                }
            })
            .collect();
        // Deterministic output order: by lower-left corner.
        clusters.sort_by(|a, b| a.rect.lo().cmp(b.rect.lo()));
        clusters
    }
}

/// What a candidate search needs besides the clusters themselves.
struct Search<'a> {
    config: &'a DshcConfig,
    limits: &'a [u32],
    strides: &'a [usize],
    bucket_volume: f64,
}

impl Search<'_> {
    /// Applies the Definition 5.2 merging criteria to the clusters across
    /// the `2d` faces of the target `[lo, hi]` holding `count` points and
    /// returns the slot of the one with the most similar density (the
    /// lowest id among equals), if any.
    fn best_merge_candidate(
        &self,
        table: &mut OwnerTable,
        lo: &[u32],
        hi: &[u32],
        count: u64,
    ) -> Option<u32> {
        let cells = |lo: &[u32], hi: &[u32]| -> u64 {
            lo.iter().zip(hi).map(|(l, h)| (h - l + 1) as u64).product()
        };
        let corner: usize = lo
            .iter()
            .zip(self.strides)
            .map(|(&l, s)| l as usize * s)
            .sum();
        let target_density = density(count, cells(lo, hi), self.bucket_volume);
        let mut best: Option<(u32, f64)> = None;
        for axis in 0..lo.len() {
            let below = (lo[axis] > 0).then(|| corner - self.strides[axis]);
            let above = (hi[axis] + 1 < self.limits[axis])
                .then(|| corner + (hi[axis] + 1 - lo[axis]) as usize * self.strides[axis]);
            for (beyond, is_below) in [(below, true), (above, false)] {
                let Some(cand) = beyond.and_then(|b| table.cluster_at(b)) else {
                    continue;
                };
                let (cand_lo, cand_hi) = table.bounds(cand);
                // Criterion 2: rectangular union — the same cross-section,
                // touching along `axis`.
                let touches = if is_below {
                    cand_hi[axis] + 1 == lo[axis]
                } else {
                    cand_lo[axis] == hi[axis] + 1
                };
                let same_section = (0..lo.len())
                    .all(|j| j == axis || (cand_lo[j] == lo[j] && cand_hi[j] == hi[j]));
                if !(touches && same_section) {
                    continue;
                }
                // Criterion 1: density similarity.
                let cand_count = table.count[cand as usize];
                let cand_density = density(cand_count, cells(cand_lo, cand_hi), self.bucket_volume);
                let diff = (cand_density - target_density).abs();
                if diff.partial_cmp(&self.config.tdiff) != Some(std::cmp::Ordering::Less) {
                    continue;
                }
                // Criterion 3: cardinality cap.
                if count + cand_count >= self.config.max_points {
                    continue;
                }
                let id = table.id[cand as usize];
                if best.is_none_or(|(b, d)| diff < d || (diff == d && id < table.id[b as usize])) {
                    best = Some((cand, diff));
                }
            }
        }
        best.map(|(cand, _)| cand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::{PointSet, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_from(points: &[(f64, f64)], buckets: usize) -> MiniBucketGrid {
        let domain = Rect::new(vec![0.0, 0.0], vec![8.0, 8.0]).unwrap();
        MiniBucketGrid::build(&domain, buckets, &PointSet::from_xy(points)).unwrap()
    }

    /// Every bucket must end up in exactly one cluster.
    fn assert_exact_cover(grid: &MiniBucketGrid, clusters: &[Cluster]) {
        let total: u64 = clusters.iter().map(|c| c.rect.cells()).sum();
        assert_eq!(total, grid.num_buckets() as u64, "cell count covers grid");
        for (i, a) in clusters.iter().enumerate() {
            for b in &clusters[i + 1..] {
                assert!(
                    !a.rect.intersects(&b.rect),
                    "{:?} overlaps {:?}",
                    a.rect,
                    b.rect
                );
            }
        }
        let count: u64 = clusters.iter().map(|c| c.count).sum();
        assert_eq!(count, grid.total_count());
    }

    #[test]
    fn uniform_empty_grid_collapses_to_one_cluster() {
        let grid = grid_from(&[], 8);
        let clusters = Dshc::cluster(&grid, &DshcConfig::default());
        assert_exact_cover(&grid, &clusters);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].rect.cells(), 64);
    }

    #[test]
    fn unbounded_config_merges_everything() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| (0.1 + (i % 8) as f64, 0.1 + (i / 8) as f64))
            .collect();
        let grid = grid_from(&pts, 8);
        let clusters = Dshc::cluster(&grid, &DshcConfig::default());
        assert_exact_cover(&grid, &clusters);
        assert_eq!(clusters.len(), 1, "infinite tdiff merges all: {clusters:?}");
    }

    #[test]
    fn density_gate_separates_dense_block() {
        // Left half dense (16 pts per bucket), right half empty.
        let mut pts = Vec::new();
        for bx in 0..4 {
            for by in 0..8 {
                for i in 0..16 {
                    pts.push((bx as f64 + 0.03 * i as f64, by as f64 + 0.5));
                }
            }
        }
        let grid = grid_from(&pts, 8);
        let config = DshcConfig {
            tdiff: 1.0,
            max_points: u64::MAX,
        };
        let clusters = Dshc::cluster(&grid, &config);
        assert_exact_cover(&grid, &clusters);
        // Dense and empty halves cannot merge (Δdensity = 16 >= 1).
        assert!(clusters.len() >= 2);
        for c in &clusters {
            let d = c.density(&grid);
            assert!(!(1.0..=15.0).contains(&d), "mixed-density cluster: {d}");
        }
    }

    #[test]
    fn cardinality_cap_limits_cluster_counts() {
        let pts: Vec<(f64, f64)> = (0..64)
            .flat_map(|b| {
                let (bx, by) = (b % 8, b / 8);
                (0..4).map(move |i| (bx as f64 + 0.1 + 0.01 * i as f64, by as f64 + 0.5))
            })
            .collect();
        let grid = grid_from(&pts, 8);
        // Every bucket holds 4 samples; cap at 32 -> clusters of <= 8 buckets.
        let config = DshcConfig {
            tdiff: f64::INFINITY,
            max_points: 32,
        };
        let clusters = Dshc::cluster(&grid, &config);
        assert_exact_cover(&grid, &clusters);
        for c in &clusters {
            assert!(c.count < 32, "cluster of {} points exceeds Tmax#", c.count);
        }
        assert!(clusters.len() >= 8);
    }

    #[test]
    fn clusters_are_rectangular_by_construction() {
        // An L-shaped dense region must split into >= 2 rectangles.
        let mut pts = Vec::new();
        // Vertical bar x in [0,1), full height; horizontal bar y in [0,1).
        for by in 0..8 {
            for i in 0..8 {
                pts.push((0.1 + 0.05 * i as f64, by as f64 + 0.5));
            }
        }
        for bx in 1..8 {
            for i in 0..8 {
                pts.push((bx as f64 + 0.5, 0.1 + 0.05 * i as f64));
            }
        }
        let grid = grid_from(&pts, 8);
        let config = DshcConfig {
            tdiff: 4.0,
            max_points: u64::MAX,
        };
        let clusters = Dshc::cluster(&grid, &config);
        assert_exact_cover(&grid, &clusters);
        let dense: Vec<&Cluster> = clusters.iter().filter(|c| c.density(&grid) > 4.0).collect();
        assert!(
            dense.len() >= 2,
            "L-shape needs >= 2 rectangles, got {}",
            dense.len()
        );
    }

    #[test]
    fn single_bucket_grid() {
        let domain = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let grid = MiniBucketGrid::build(&domain, 1, &PointSet::from_xy(&[(0.5, 0.5)])).unwrap();
        let clusters = Dshc::cluster(&grid, &DshcConfig::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].count, 1);
    }

    #[test]
    fn relative_config_scales_with_mean_density() {
        let pts: Vec<(f64, f64)> = (0..640)
            .map(|i| ((i % 80) as f64 * 0.1, (i / 80) as f64))
            .collect();
        let grid = grid_from(&pts, 8);
        let c = DshcConfig::relative(&grid, 0.5, 1000);
        // mean density = 640/64 = 10 per unit²; tdiff = 5.
        assert!((c.tdiff - 5.0).abs() < 1e-9);
        assert_eq!(c.max_points, 1000);
    }

    #[test]
    fn deterministic_output() {
        let pts: Vec<(f64, f64)> = (0..200)
            .map(|i| ((i * 7 % 80) as f64 * 0.1, (i * 13 % 80) as f64 * 0.1))
            .collect();
        let grid = grid_from(&pts, 8);
        let config = DshcConfig {
            tdiff: 2.0,
            max_points: 64,
        };
        let a = Dshc::cluster(&grid, &config);
        let b = Dshc::cluster(&grid, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn gaussian_blob_produces_fewer_clusters_than_buckets() {
        // A skewed dataset: dense 2x2-bucket blob + sparse background.
        let mut pts = Vec::new();
        for i in 0..400 {
            pts.push((2.0 + (i % 20) as f64 * 0.1, 2.0 + (i / 20) as f64 * 0.1));
        }
        for i in 0..16 {
            pts.push((0.5 + (i % 4) as f64 * 2.0, 0.5 + (i / 4) as f64 * 2.0));
        }
        let grid = grid_from(&pts, 8);
        let config = DshcConfig::relative(&grid, 1.0, u64::MAX);
        let clusters = Dshc::cluster(&grid, &config);
        assert_exact_cover(&grid, &clusters);
        assert!(clusters.len() < 64, "got {} clusters", clusters.len());
        assert!(clusters.len() > 1);
    }
    /// The candidate search the AF-tree used to answer: every live
    /// cluster whose rectangle intersects the probe, in ascending id
    /// order, found by looking at all of them. It drives the merge loop
    /// of Definitions 5.2–5.4 exactly as written, so it is the oracle the
    /// owner table is held to.
    fn cluster_by_brute_force(grid: &MiniBucketGrid, config: &DshcConfig) -> Vec<Cluster> {
        use std::collections::BTreeMap;

        fn best(
            grid: &MiniBucketGrid,
            config: &DshcConfig,
            target: &Cluster,
            live: &BTreeMap<u32, Cluster>,
            limits: &[u32],
        ) -> Option<u32> {
            let probe = target.rect.grown_by_one(limits);
            let target_density = target.density(grid);
            let mut best: Option<(u32, f64)> = None;
            for (&cid, cand) in live.iter().filter(|(_, c)| c.rect.intersects(&probe)) {
                if !target.rect.union_is_rectangular(&cand.rect) {
                    continue;
                }
                let diff = (cand.density(grid) - target_density).abs();
                if diff.partial_cmp(&config.tdiff) != Some(std::cmp::Ordering::Less) {
                    continue;
                }
                if target.count + cand.count >= config.max_points {
                    continue;
                }
                if best.is_none_or(|(_, d)| diff < d) {
                    best = Some((cid, diff));
                }
            }
            best.map(|(cid, _)| cid)
        }

        let limits: Vec<u32> = (0..grid.dim()).map(|i| grid.buckets_per_dim(i)).collect();
        let mut live: BTreeMap<u32, Cluster> = BTreeMap::new();
        let mut cursor = vec![0u32; grid.dim()];
        for id in 0..grid.num_buckets() {
            let mut cluster = Cluster {
                rect: IntRect::unit(&cursor),
                count: grid.count_at(&cursor) as u64,
            };
            while let Some(cid) = best(grid, config, &cluster, &live, &limits) {
                let other = live.remove(&cid).expect("live cluster");
                cluster.rect = cluster.rect.union(&other.rect);
                cluster.count += other.count;
            }
            // A fresh id per scanned bucket, merged or not.
            live.insert(id as u32, cluster);
            for i in (0..cursor.len()).rev() {
                cursor[i] += 1;
                if cursor[i] < limits[i] {
                    break;
                }
                cursor[i] = 0;
            }
        }
        let mut clusters: Vec<Cluster> = live.into_values().collect();
        clusters.sort_by(|a, b| a.rect.lo().cmp(b.rect.lo()));
        clusters
    }

    /// `n` points in the cube `[0, side]^dim`: all uniform, or most of
    /// them in `blobs` tight Gaussian-ish clusters over a thin background.
    fn drawn_sample(rng: &mut StdRng, dim: usize, side: f64, n: usize, blobs: usize) -> PointSet {
        let centres: Vec<Vec<f64>> = (0..blobs)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.gen_range(0.1 * side..0.9 * side))
                    .collect()
            })
            .collect();
        let mut sample = PointSet::new(dim).unwrap();
        let mut p = vec![0.0; dim];
        for i in 0..n {
            if blobs == 0 || i % 25 == 0 {
                p.iter_mut().for_each(|v| *v = rng.gen_range(0.0..side));
            } else {
                let c = &centres[i % blobs];
                for (v, c) in p.iter_mut().zip(c) {
                    // Sum of three uniforms: bell-shaped, bounded.
                    let bell: f64 = (0..3).map(|_| rng.gen_range(-1.0..1.0)).sum();
                    *v = (c + bell * 0.02 * side).clamp(0.0, side);
                }
            }
            sample.push(&p).unwrap();
        }
        sample
    }

    fn cube(dim: usize, side: f64) -> Rect {
        Rect::new(vec![0.0; dim], vec![side; dim]).unwrap()
    }

    #[test]
    fn owner_table_matches_brute_force_candidate_search() {
        let mut rng = StdRng::seed_from_u64(0xD5C);
        let mut grids = 0;
        for dim in 1..=4usize {
            let max_buckets = [64, 16, 8, 6][dim - 1];
            for round in 0..110 {
                let buckets = rng.gen_range(1..=max_buckets);
                let n = rng.gen_range(0..400);
                let blobs = if round % 2 == 0 {
                    0
                } else {
                    rng.gen_range(1..5)
                };
                let sample = drawn_sample(&mut rng, dim, 8.0, n, blobs);
                let grid = MiniBucketGrid::build(&cube(dim, 8.0), buckets, &sample).unwrap();
                let drawn = DshcConfig {
                    tdiff: rng.gen_range(0.0..3.0) * n as f64 / grid.grid().domain().volume(),
                    max_points: rng.gen_range(1..200),
                };
                for config in [
                    DshcConfig::default(),
                    DshcConfig::relative(&grid, 1.0, 32),
                    DshcConfig::relative(&grid, 0.3, u64::MAX),
                    drawn,
                ] {
                    let got = Dshc::cluster(&grid, &config);
                    assert_exact_cover_nd(&grid, &got);
                    assert_eq!(
                        got,
                        cluster_by_brute_force(&grid, &config),
                        "dim {dim} buckets {buckets} n {n} blobs {blobs} {config:?}"
                    );
                }
                grids += 1;
            }
        }
        assert!(grids >= 400);
    }

    fn assert_exact_cover_nd(grid: &MiniBucketGrid, clusters: &[Cluster]) {
        let cells: u64 = clusters.iter().map(|c| c.rect.cells()).sum();
        assert_eq!(cells, grid.num_buckets() as u64);
        for c in clusters {
            assert_eq!(c.count, grid.count_in(&c.rect), "{:?}", c.rect);
        }
    }

    /// FNV-1a over every cluster's bounds and count, in output order.
    fn fingerprint(clusters: &[Cluster]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in clusters {
            c.rect.lo().iter().for_each(|&v| eat(v as u64));
            c.rect.hi().iter().for_each(|&v| eat(v as u64));
            eat(c.count);
        }
        h
    }

    /// The plans of the two batch shapes, as the AF-tree implementation
    /// produced them (fingerprints taken from it before it was deleted):
    /// a 16⁴ grid over six tight 4-d clusters and a 32² grid over a
    /// skewed 2-d mixture, configured the way `Dmt::build_plan` does.
    #[test]
    fn plans_of_the_batch_shapes_are_pinned() {
        let mut rng = StdRng::seed_from_u64(23);
        let dense4d = drawn_sample(&mut rng, 4, 100.0, 1000, 6);
        let grid = MiniBucketGrid::build(&cube(4, 100.0), 16, &dense4d).unwrap();
        let clusters = Dshc::cluster(&grid, &DshcConfig::relative(&grid, 1.0, 32));
        assert_eq!(
            (clusters.len(), fingerprint(&clusters)),
            (DENSE4D_CLUSTERS, DENSE4D_FINGERPRINT)
        );

        let skew2d = drawn_sample(&mut rng, 2, 100.0, 2500, 2);
        let grid = MiniBucketGrid::build(&cube(2, 100.0), 32, &skew2d).unwrap();
        let clusters = Dshc::cluster(&grid, &DshcConfig::relative(&grid, 1.0, 50));
        assert_eq!(
            (clusters.len(), fingerprint(&clusters)),
            (SKEW2D_CLUSTERS, SKEW2D_FINGERPRINT)
        );
    }

    const DENSE4D_CLUSTERS: usize = 427;
    const DENSE4D_FINGERPRINT: u64 = 18_141_859_408_101_569_411;
    const SKEW2D_CLUSTERS: usize = 41;
    const SKEW2D_FINGERPRINT: u64 = 1_647_808_901_349_730_982;
}
