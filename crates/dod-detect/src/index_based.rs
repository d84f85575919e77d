//! A kd-tree index-based detector.
//!
//! The third class of centralized detection algorithms the paper cites
//! (index-based solutions such as DOLPHIN \[4\]). A balanced kd-tree is
//! built over core and support points; each core point then runs a range
//! count with early termination at `k` neighbors. Included as an extension
//! to the paper's two-candidate set `A = {Nested-Loop, Cell-Based}` — its
//! cost model in [`crate::cost`] lets the multi-tactic planner pick it when
//! configured.

use crate::detector::{Detection, DetectionStats, Detector};
use crate::partition::{Partition, Side};
use crate::scan::count_tile_excluding;
use dod_core::{Metric, NeighborPredicate, OutlierParams, PointSet};

/// kd-tree range-counting detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexBased {
    /// Maximum number of points in a leaf node.
    leaf_size: usize,
}

impl IndexBased {
    /// Creates a detector with the given kd-tree leaf size (0 is coerced
    /// to the default of 16).
    pub fn new(leaf_size: usize) -> Self {
        IndexBased {
            leaf_size: if leaf_size == 0 { 16 } else { leaf_size },
        }
    }
}

/// One side's entries in a leaf: partition slots, index-aligned with
/// their coordinates gathered into a contiguous row-major tile for the
/// kernel scans.
#[derive(Debug, Clone, Default)]
struct LeafTile {
    slots: Vec<u32>,
    coords: Vec<f64>,
}

impl LeafTile {
    /// Gathers the points `slots` of `points` into a tile.
    fn gather(points: &PointSet, slots: Vec<u32>) -> LeafTile {
        let mut coords = Vec::with_capacity(slots.len() * points.dim());
        for &j in &slots {
            coords.extend_from_slice(points.point(j as usize));
        }
        LeafTile { slots, coords }
    }

    /// Swap-removes the entry holding `slot`. Returns whether it was
    /// present.
    fn swap_remove(&mut self, slot: u32, dim: usize) -> bool {
        let Some(pos) = self.slots.iter().position(|&x| x == slot) else {
            return false;
        };
        self.slots.swap_remove(pos);
        let last = self.slots.len();
        if pos < last {
            let (head, tail) = self.coords.split_at_mut(last * dim);
            head[pos * dim..(pos + 1) * dim].copy_from_slice(&tail[..dim]);
        }
        self.coords.truncate(last * dim);
        true
    }

    /// Rewrites the stored slot `from` to `to`. Returns whether it was
    /// present.
    fn renumber(&mut self, from: u32, to: u32) -> bool {
        let found = self.slots.iter_mut().find(|x| **x == from);
        found.map(|slot| *slot = to).is_some()
    }
}

#[derive(Debug, Clone)]
enum Node {
    /// The leaf's core and support entries, indexed by [`Side`]. Kept
    /// apart so the leaf can be spliced incrementally: an insert appends
    /// to one side, a removal swap-removes one entry, and neither
    /// disturbs the other side's slots.
    Leaf([LeafTile; 2]),
    Inner {
        split_dim: usize,
        split_val: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// The build-phase product of the Index-Based detector: a balanced
/// kd-tree over a partition's core and support points.
///
/// The tree stores point *indices* only, so it can outlive the build call
/// and serve many queries against the same partition — full
/// re-detections ([`IndexBased::detect_with_index`]) as well as neighbor
/// counts for external query points
/// ([`KdIndex::count_core_neighbors`]) from a resident engine.
#[derive(Debug, Clone)]
pub struct KdIndex {
    root: Node,
    build_ops: u64,
}

impl KdIndex {
    /// Builds the tree over every point of `partition` with the given
    /// leaf size (0 is coerced to 16).
    pub fn build(partition: &Partition, leaf_size: usize) -> KdIndex {
        let leaf_size = if leaf_size == 0 { 16 } else { leaf_size };
        let total = partition.total_len();
        let mut idx: Vec<u32> = (0..total as u32).collect();
        let mut ops = 0u64;
        let root = Self::build_node(partition, &mut idx, leaf_size, 0, &mut ops);
        KdIndex {
            root,
            build_ops: ops,
        }
    }

    /// Number of index operations charged during the build.
    pub fn build_ops(&self) -> u64 {
        self.build_ops
    }

    /// Splices point `slot` of `side` (its index in the partition's
    /// point set of that side) into the leaf buffer its coordinates
    /// descend to.
    ///
    /// The tree's balance is not restored — repeated inserts grow leaf
    /// buffers, which stays exact but degrades query cost; callers
    /// compact by rebuilding once enough mutations accumulate.
    pub fn push(&mut self, side: Side, slot: u32, p: &[f64]) {
        let Node::Leaf(tiles) = Self::leaf_for_mut(&mut self.root, p) else {
            unreachable!("leaf_for_mut returns a leaf")
        };
        tiles[side].slots.push(slot);
        tiles[side].coords.extend_from_slice(p);
        self.build_ops += 1;
    }

    /// Removes point `slot` of `side`, located by the coordinates `p` it
    /// was inserted with — the index side of [`Partition::swap_remove`].
    /// `moved` is the slot and the coordinates of the point that the
    /// partition's swap-remove moves into `slot` (none when `slot` was
    /// the side's last); its entry is re-pointed at `slot`.
    pub fn swap_remove(&mut self, side: Side, slot: u32, p: &[f64], moved: Option<(u32, &[f64])>) {
        Self::find_leaf(&mut self.root, p, &mut |tiles| {
            tiles[side].swap_remove(slot, p.len())
        });
        if let Some((from, mp)) = moved {
            Self::find_leaf(&mut self.root, mp, &mut |tiles| {
                tiles[side].renumber(from, slot)
            });
        }
    }

    /// The leaf `p` descends to under the build's split rule (`< split`
    /// goes left, `>= split` goes right).
    fn leaf_for_mut<'a>(node: &'a mut Node, p: &[f64]) -> &'a mut Node {
        match node {
            Node::Leaf(_) => node,
            Node::Inner {
                split_dim,
                split_val,
                left,
                right,
            } => {
                if p[*split_dim] < *split_val {
                    Self::leaf_for_mut(left, p)
                } else {
                    Self::leaf_for_mut(right, p)
                }
            }
        }
    }

    /// Descends to the leaves that can hold a point stored at `p` until
    /// `edit` reports it found its entry. A coordinate equal to a split
    /// value must search **both** subtrees, right first: the median build
    /// places equal values on either side.
    fn find_leaf<F>(node: &mut Node, p: &[f64], edit: &mut F) -> bool
    where
        F: FnMut(&mut [LeafTile; 2]) -> bool,
    {
        match node {
            Node::Leaf(tiles) => edit(tiles),
            Node::Inner {
                split_dim,
                split_val,
                left,
                right,
            } => {
                let delta = p[*split_dim] - *split_val;
                if delta < 0.0 {
                    Self::find_leaf(left, p, edit)
                } else if delta > 0.0 {
                    Self::find_leaf(right, p, edit)
                } else {
                    Self::find_leaf(right, p, edit) || Self::find_leaf(left, p, edit)
                }
            }
        }
    }

    /// Counts the **core** points of `partition` within distance `r` of an
    /// arbitrary query point `q` (not necessarily part of the partition),
    /// stopping early once `cap` neighbors are found.
    pub fn count_core_neighbors(
        &self,
        partition: &Partition,
        q: &[f64],
        params: OutlierParams,
        cap: usize,
    ) -> usize {
        self.count_core_neighbors_traced(partition, q, params, cap)
            .0
    }

    /// [`KdIndex::count_core_neighbors`] that also returns the work
    /// performed: distance evaluations plus tree nodes visited — the
    /// index-based analogue of points scanned.
    pub fn count_core_neighbors_traced(
        &self,
        partition: &Partition,
        q: &[f64],
        params: OutlierParams,
        cap: usize,
    ) -> (usize, u64) {
        debug_assert_eq!(q.len(), partition.dim());
        let mut count = 0usize;
        let mut evals = 0u64;
        let mut visits = 0u64;
        self.visit(
            &self.root,
            &Query {
                coords: q,
                skip: None,
                core_only: true,
                pred: params.predicate(),
                cap,
            },
            &mut count,
            &mut evals,
            &mut visits,
        );
        (count, evals + visits)
    }

    /// Counts neighbors of resident core point `qi` (core index) within
    /// `r`, stopping early once `k` are found. Returns
    /// `(count_capped_at_k, evals, nodes_visited)`.
    fn count_neighbors(
        &self,
        partition: &Partition,
        qi: usize,
        r: f64,
        k: usize,
        metric: Metric,
    ) -> (usize, u64, u64) {
        let mut count = 0usize;
        let mut evals = 0u64;
        let mut visits = 0u64;
        self.visit(
            &self.root,
            &Query {
                coords: partition.point(qi),
                skip: Some(qi),
                core_only: false,
                pred: NeighborPredicate::with_metric(metric, r),
                cap: k,
            },
            &mut count,
            &mut evals,
            &mut visits,
        );
        (count, evals, visits)
    }

    /// Recursive range-count with early termination at `query.cap`.
    ///
    /// The splitting-plane prune `|q[dim] − split| > r` is valid for
    /// every `Lp` metric: a single-coordinate difference lower-bounds the
    /// distance.
    fn visit(
        &self,
        node: &Node,
        query: &Query<'_>,
        count: &mut usize,
        evals: &mut u64,
        visits: &mut u64,
    ) {
        if *count >= query.cap {
            return;
        }
        *visits += 1;
        match node {
            Node::Leaf([core, support]) => {
                let dim = query.coords.len();
                // The query point itself is always a core point, so only
                // the core tile needs the self-exclusion check.
                let skip = query
                    .skip
                    .and_then(|s| core.slots.iter().position(|&x| x == s as u32));
                let (found, scanned) = count_tile_excluding(
                    &query.pred,
                    query.coords,
                    &core.coords,
                    dim,
                    skip,
                    query.cap - *count,
                );
                *evals += scanned;
                *count += found;
                if !query.core_only && *count < query.cap && !support.slots.is_empty() {
                    let (found, scanned) = count_tile_excluding(
                        &query.pred,
                        query.coords,
                        &support.coords,
                        dim,
                        None,
                        query.cap - *count,
                    );
                    *evals += scanned;
                    *count += found;
                }
            }
            Node::Inner {
                split_dim,
                split_val,
                left,
                right,
            } => {
                let delta = query.coords[*split_dim] - split_val;
                // Visit the side containing q first for faster termination.
                let (near, far) = if delta < 0.0 {
                    (left, right)
                } else {
                    (right, left)
                };
                self.visit(near, query, count, evals, visits);
                if *count < query.cap && delta.abs() <= query.pred.r() {
                    self.visit(far, query, count, evals, visits);
                }
            }
        }
    }

    /// Builds a leaf: the unified indices are sorted ascending and split
    /// into core and support tiles (core indices come first in the
    /// unified order).
    fn make_leaf(partition: &Partition, idx: &[u32]) -> Node {
        let total_core = partition.core().len() as u32;
        let mut points = idx.to_vec();
        points.sort_unstable();
        let n_core = points.partition_point(|&j| j < total_core);
        let support = points.split_off(n_core);
        let support = support.into_iter().map(|j| j - total_core).collect();
        Node::Leaf([
            LeafTile::gather(partition.core(), points),
            LeafTile::gather(partition.support(), support),
        ])
    }

    fn build_node(
        partition: &Partition,
        idx: &mut [u32],
        leaf_size: usize,
        depth: usize,
        ops: &mut u64,
    ) -> Node {
        *ops += idx.len() as u64;
        if idx.len() <= leaf_size {
            return Self::make_leaf(partition, idx);
        }
        let dim = depth % partition.dim();
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&a, &b| {
            let va = partition.point(a as usize)[dim];
            let vb = partition.point(b as usize)[dim];
            va.partial_cmp(&vb).expect("finite coordinates")
        });
        let split_val = partition.point(idx[mid] as usize)[dim];
        let (left, right) = idx.split_at_mut(mid);
        // Degenerate guard: if all values are equal the median split can
        // produce an empty side repeatedly; fall back to a leaf.
        if left.is_empty() || right.is_empty() {
            let mut all = Vec::with_capacity(left.len() + right.len());
            all.extend_from_slice(left);
            all.extend_from_slice(right);
            return Self::make_leaf(partition, &all);
        }
        Node::Inner {
            split_dim: dim,
            split_val,
            left: Box::new(Self::build_node(partition, left, leaf_size, depth + 1, ops)),
            right: Box::new(Self::build_node(
                partition,
                right,
                leaf_size,
                depth + 1,
                ops,
            )),
        }
    }
}

/// One range-count request against a [`KdIndex`].
struct Query<'a> {
    /// Query coordinates.
    coords: &'a [f64],
    /// **Core** index of the query point itself (excluded from its own
    /// neighbor count), or `None` for external query points.
    skip: Option<usize>,
    /// Whether only core points count as neighbors.
    core_only: bool,
    /// The neighbor predicate, built once per query.
    pred: NeighborPredicate,
    /// Early-termination cap on the count.
    cap: usize,
}

impl Detector for IndexBased {
    fn name(&self) -> &'static str {
        "index-based"
    }

    fn detect(&self, partition: &Partition, params: OutlierParams) -> Detection {
        if partition.core().is_empty() {
            return Detection::default();
        }
        let index = KdIndex::build(partition, self.leaf_size);
        self.detect_with_index(partition, params, &index)
    }
}

impl IndexBased {
    /// The query phase of the detector: classifies every core point of
    /// `partition` against a prebuilt [`KdIndex`].
    ///
    /// `index` must have been built over the same partition; the outlier
    /// set is then exactly the one the one-shot [`Detector::detect`]
    /// returns.
    pub fn detect_with_index(
        &self,
        partition: &Partition,
        params: OutlierParams,
        index: &KdIndex,
    ) -> Detection {
        let n_core = partition.core().len();
        if n_core == 0 {
            return Detection::default();
        }
        let mut stats = DetectionStats {
            index_operations: index.build_ops,
            ..Default::default()
        };
        let mut outliers = Vec::new();
        for i in 0..n_core {
            let (count, evals, visits) =
                index.count_neighbors(partition, i, params.r, params.k, params.metric);
            stats.distance_evaluations += evals;
            stats.node_visits += visits;
            if count < params.k {
                outliers.push(partition.core_id(i));
            } else {
                stats.early_terminations += 1;
            }
        }
        outliers.sort_unstable();
        Detection { outliers, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Reference;
    use dod_core::PointSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params(r: f64, k: usize) -> OutlierParams {
        OutlierParams::new(r, k).unwrap()
    }

    fn random_partition(seed: u64, n_core: usize, n_support: usize, extent: f64) -> Partition {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut core = PointSet::new(2).unwrap();
        for _ in 0..n_core {
            core.push(&[rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)])
                .unwrap();
        }
        let mut support = PointSet::new(2).unwrap();
        for _ in 0..n_support {
            support
                .push(&[rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)])
                .unwrap();
        }
        let ids = (0..(n_core + n_support) as u64).collect::<Vec<_>>();
        let (core_ids, support_ids) = ids.split_at(n_core);
        Partition::new(core, core_ids.to_vec(), support, support_ids.to_vec()).unwrap()
    }

    #[test]
    fn matches_reference_on_random_data() {
        for seed in 0..10 {
            let p = random_partition(seed, 140, 35, 10.0);
            let prm = params(1.0, 4);
            let ib = IndexBased::default().detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            assert_eq!(ib.outliers, rf.outliers, "seed {seed}");
        }
    }

    #[test]
    fn duplicate_heavy_data_is_exact() {
        // All points identical: the degenerate-split guard must fire.
        let pts: Vec<(f64, f64)> = vec![(1.0, 1.0); 100];
        let p = Partition::standalone(PointSet::from_xy(&pts));
        let det = IndexBased::default().detect(&p, params(0.5, 4));
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn tiny_leaf_size_is_exact() {
        let p = random_partition(5, 100, 20, 6.0);
        let prm = params(0.8, 3);
        let ib = IndexBased::new(1).detect(&p, prm);
        let rf = Reference.detect(&p, prm);
        assert_eq!(ib.outliers, rf.outliers);
    }

    #[test]
    fn pruning_reduces_evaluations() {
        let p = random_partition(11, 3000, 0, 20.0);
        let prm = params(0.5, 4);
        let ib = IndexBased::default().detect(&p, prm);
        let rf = Reference.detect(&p, prm);
        assert_eq!(ib.outliers, rf.outliers);
        assert!(ib.stats.distance_evaluations < rf.stats.distance_evaluations / 2);
    }

    #[test]
    fn empty_partition() {
        let det = IndexBased::default().detect(
            &Partition::standalone(PointSet::new(2).unwrap()),
            params(1.0, 1),
        );
        assert!(det.outliers.is_empty());
    }

    #[test]
    fn five_dimensional_exactness() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut core = PointSet::new(5).unwrap();
        for _ in 0..150 {
            let p: Vec<f64> = (0..5).map(|_| rng.gen_range(0.0..4.0)).collect();
            core.push(&p).unwrap();
        }
        let p = Partition::standalone(core);
        let prm = params(1.5, 3);
        let ib = IndexBased::default().detect(&p, prm);
        let rf = Reference.detect(&p, prm);
        assert_eq!(ib.outliers, rf.outliers);
    }

    #[test]
    fn incremental_mutations_match_fresh_build() {
        let full = random_partition(42, 60, 20, 8.0);
        let prm = params(1.0, 4);

        // Start from a prefix of the partition…
        let mut part = Partition::new(
            full.core().gather(&(0..40u64).collect::<Vec<_>>()),
            (0..40u64).collect(),
            full.support().gather(&(0..10u64).collect::<Vec<_>>()),
            (60..70u64).collect(),
        )
        .unwrap();
        let mut index = KdIndex::build(&part, 16);

        // …splice in the remaining points…
        for (side, from) in [(Side::Core, 40), (Side::Support, 10)] {
            for i in from..full.points(side).len() {
                let p = full.points(side).point(i);
                let slot = part.push(side, p, full.ids(side)[i]).unwrap();
                index.push(side, slot as u32, p);
            }
        }

        // …and remove a few, re-pointing the entry each swap-remove moves.
        for (side, victims) in [
            (Side::Core, &[3usize, 17, 44, 0][..]),
            (Side::Support, &[5, 0]),
        ] {
            for &victim in victims {
                let points = part.points(side);
                let last = points.len() - 1;
                let moved = (victim < last).then(|| (last as u32, points.point(last)));
                index.swap_remove(side, victim as u32, points.point(victim), moved);
                part.swap_remove(side, victim);
            }
        }

        let fresh = KdIndex::build(&part, 16);
        let det = IndexBased::default().detect_with_index(&part, prm, &index);
        let fresh_det = IndexBased::default().detect_with_index(&part, prm, &fresh);
        assert_eq!(det.outliers, fresh_det.outliers);
        for q in [[0.5, 0.5], [4.0, 4.0], [7.5, 7.5]] {
            assert_eq!(
                index.count_core_neighbors(&part, &q, prm, usize::MAX),
                fresh.count_core_neighbors(&part, &q, prm, usize::MAX),
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn equivalent_to_reference(
            seed in 0u64..1000,
            n_core in 0usize..70,
            n_support in 0usize..25,
            r in 0.2f64..3.0,
            k in 1usize..6,
            leaf in 1usize..32,
        ) {
            let p = random_partition(seed, n_core, n_support, 8.0);
            let prm = params(r, k);
            let ib = IndexBased::new(leaf).detect(&p, prm);
            let rf = Reference.detect(&p, prm);
            prop_assert_eq!(ib.outliers, rf.outliers);
        }
    }
}
