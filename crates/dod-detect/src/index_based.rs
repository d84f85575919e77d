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
use crate::tile::Tile;
use dod_core::{NeighborPredicate, OutlierParams};

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

#[derive(Debug, Clone)]
enum Node {
    /// The leaf's entry number: its run in each side's tile.
    Leaf(usize),
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
/// The tree's leaves are runs of one tile per [`Side`] (`tile.rs`), the
/// layout Cell-Based keeps per grid cell: leaf `e` owns entry `e` of
/// both sides' tiles. The index can outlive the build call and serve
/// many queries against the same partition — full re-detections
/// ([`IndexBased::detect_with_index`]) as well as neighbor counts for
/// external query points ([`KdIndex::count_core_neighbors_traced`]) from
/// a resident engine — and is spliced as the partition is: an insert
/// appends to one side's run, a removal swap-removes one copy, and
/// neither disturbs the other side's slots.
#[derive(Debug, Clone)]
pub struct KdIndex {
    root: Node,
    /// The core and the support tile, indexed by [`Side`].
    tiles: [Tile; 2],
    build_ops: u64,
}

impl KdIndex {
    /// Builds the tree over every point of `partition` with the given
    /// leaf size (0 is coerced to 16).
    pub fn build(partition: &Partition, leaf_size: usize) -> KdIndex {
        let leaf_size = if leaf_size == 0 { 16 } else { leaf_size };
        let total = partition.total_len();
        let mut idx: Vec<u32> = (0..total as u32).collect();
        let mut build = Build {
            partition,
            leaf_size,
            entry_of: vec![0; total],
            leaves: 0,
            ops: 0,
        };
        let root = build.node(&mut idx, 0);
        let (core, support) = build.entry_of.split_at(partition.core().len());
        KdIndex {
            root,
            tiles: [
                Tile::build(partition.core(), core, build.leaves),
                Tile::build(partition.support(), support, build.leaves),
            ],
            build_ops: build.ops,
        }
    }

    /// Number of index operations charged during the build.
    pub fn build_ops(&self) -> u64 {
        self.build_ops
    }

    /// Splices point `slot` of `side` (its index in the partition's
    /// point set of that side) into the leaf its coordinates descend to.
    ///
    /// The tree's balance is not restored — repeated inserts grow leaf
    /// runs, which stays exact but degrades query cost; callers compact
    /// by rebuilding once enough mutations accumulate.
    pub fn push(&mut self, side: Side, slot: u32, p: &[f64]) {
        let e = Self::leaf_for(&self.root, p);
        self.tiles[side].push(e, slot, p);
        self.build_ops += 1;
    }

    /// Removes point `slot` of `side`, located by the coordinates `p` it
    /// was inserted with — the index side of [`Partition::swap_remove`].
    /// `moved` is the slot and the coordinates of the point that the
    /// partition's swap-remove moves into `slot` (none when `slot` was
    /// the side's last); its entry is re-pointed at `slot`. Neither entry
    /// is searched for: the tile keeps each slot's arena position, and
    /// one descent finds the leaf whose run holds it.
    pub fn swap_remove(&mut self, side: Side, slot: u32, p: &[f64], moved: Option<(u32, &[f64])>) {
        let tile = &mut self.tiles[side];
        let at = tile.locate(slot);
        let Some(e) = Self::find_leaf(&self.root, p, &|e| tile.live(e).contains(&at)) else {
            return;
        };
        let last = moved.map_or(slot, |(from, _)| from);
        tile.swap_remove(e, slot, last);
    }

    /// The leaf `p` descends to under the build's split rule (`< split`
    /// goes left, `>= split` goes right).
    fn leaf_for(node: &Node, p: &[f64]) -> usize {
        match node {
            Node::Leaf(e) => *e,
            Node::Inner {
                split_dim,
                split_val,
                left,
                right,
            } => {
                if p[*split_dim] < *split_val {
                    Self::leaf_for(left, p)
                } else {
                    Self::leaf_for(right, p)
                }
            }
        }
    }

    /// The first leaf that can hold a point stored at `p` and that
    /// `holds` accepts. A coordinate equal to a split value must search
    /// **both** subtrees, right first: the median build places equal
    /// values on either side.
    fn find_leaf(node: &Node, p: &[f64], holds: &impl Fn(usize) -> bool) -> Option<usize> {
        match node {
            Node::Leaf(e) => holds(*e).then_some(*e),
            Node::Inner {
                split_dim,
                split_val,
                left,
                right,
            } => {
                let delta = p[*split_dim] - *split_val;
                if delta < 0.0 {
                    Self::find_leaf(left, p, holds)
                } else if delta > 0.0 {
                    Self::find_leaf(right, p, holds)
                } else {
                    Self::find_leaf(right, p, holds).or_else(|| Self::find_leaf(left, p, holds))
                }
            }
        }
    }

    /// Counts the **core** points of `partition` within distance `r` of an
    /// arbitrary query point `q` (not necessarily part of the partition),
    /// stopping early once `cap` neighbors are found. Returns the count
    /// and the work performed: distance evaluations plus tree nodes
    /// visited — the index-based analogue of points scanned.
    ///
    /// `pred` is the caller's predicate for the index's parameters — a
    /// resident state builds it once and lends it to every query.
    pub fn count_core_neighbors_traced(
        &self,
        partition: &Partition,
        q: &[f64],
        pred: NeighborPredicate,
        cap: usize,
    ) -> (usize, u64) {
        debug_assert_eq!(q.len(), partition.dim());
        let query = Query {
            coords: q,
            skip: None,
            core_only: true,
            pred,
            cap,
        };
        let (count, evals, visits) = self.range_count(&query);
        (count, evals + visits)
    }

    /// Runs `query` from the root. Returns `(count_capped_at_cap, evals,
    /// nodes_visited)`.
    fn range_count(&self, query: &Query<'_>) -> (usize, u64, u64) {
        let mut count = 0usize;
        let mut evals = 0u64;
        let mut visits = 0u64;
        self.visit(&self.root, query, &mut count, &mut evals, &mut visits);
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
            Node::Leaf(e) => {
                let [core, support] = &self.tiles;
                // The query point itself is always a core point, so only
                // the core run needs the self-exclusion.
                let (q, pred) = (query.coords, &query.pred);
                let (found, scanned) = core.count_run(*e, pred, q, query.skip, query.cap - *count);
                *evals += scanned;
                *count += found;
                if !query.core_only && *count < query.cap && support.len(*e) > 0 {
                    let need = query.cap - *count;
                    let (found, scanned) = support.count_run(*e, pred, q, None, need);
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
}

/// The state of one [`KdIndex::build`]: the leaves are numbered in the
/// order the recursion closes them, and each point is given its leaf's
/// number.
struct Build<'a> {
    partition: &'a Partition,
    leaf_size: usize,
    /// Leaf number of each point, in unified core-then-support indexing.
    entry_of: Vec<u32>,
    leaves: usize,
    ops: u64,
}

impl Build<'_> {
    fn leaf(&mut self, idx: &[u32]) -> Node {
        let e = self.leaves;
        self.leaves += 1;
        for &j in idx {
            self.entry_of[j as usize] = e as u32;
        }
        Node::Leaf(e)
    }

    fn node(&mut self, idx: &mut [u32], depth: usize) -> Node {
        self.ops += idx.len() as u64;
        if idx.len() <= self.leaf_size {
            return self.leaf(idx);
        }
        let partition = self.partition;
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
            return self.leaf(idx);
        }
        Node::Inner {
            split_dim: dim,
            split_val,
            left: Box::new(self.node(left, depth + 1)),
            right: Box::new(self.node(right, depth + 1)),
        }
    }
}

/// One range-count request against a [`KdIndex`].
struct Query<'a> {
    /// Query coordinates.
    coords: &'a [f64],
    /// Core-tile arena position of the query point itself (excluded from
    /// its own neighbor count), or `None` for external query points.
    skip: Option<usize>,
    /// Whether only core points count as neighbors.
    core_only: bool,
    /// The neighbor predicate, the caller's.
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
    ///
    /// The core points are walked leaf by leaf in run order, so each
    /// point's own arena position — the copy its count skips — is known
    /// rather than searched for.
    pub fn detect_with_index(
        &self,
        partition: &Partition,
        params: OutlierParams,
        index: &KdIndex,
    ) -> Detection {
        if partition.core().is_empty() {
            return Detection::default();
        }
        let mut stats = DetectionStats {
            index_operations: index.build_ops,
            ..Default::default()
        };
        let pred = params.predicate();
        let core = &index.tiles[Side::Core];
        let mut outliers = Vec::new();
        for e in 0..core.runs.len() {
            for at in core.live(e) {
                let (count, evals, visits) = index.range_count(&Query {
                    coords: core.point(at),
                    skip: Some(at),
                    core_only: false,
                    pred,
                    cap: params.k,
                });
                stats.distance_evaluations += evals;
                stats.node_visits += visits;
                if count < params.k {
                    outliers.push(partition.core_id(core.slots[at] as usize));
                } else {
                    stats.early_terminations += 1;
                }
            }
        }
        outliers.sort_unstable();
        Detection { outliers, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{params, random_partition};
    use crate::reference::Reference;
    use dod_core::PointSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
                index
                    .count_core_neighbors_traced(&part, &q, prm.predicate(), usize::MAX)
                    .0,
                fresh
                    .count_core_neighbors_traced(&part, &q, prm.predicate(), usize::MAX)
                    .0,
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
