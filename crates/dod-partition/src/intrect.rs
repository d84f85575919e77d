//! Integer rectangles in mini-bucket index space.
//!
//! DSHC clusters are unions of mini buckets, and the merging criteria of
//! Definition 5.3 ("two clusters can form a rectangular shape iff their
//! bounds coincide in d−1 dimensions and touch in the remaining one") need
//! exact coordinate comparisons. Operating on integer bucket indices makes
//! those comparisons exact; the conversion back to real coordinates happens
//! once, when the final partition plan is emitted.

/// An axis-aligned box of mini-bucket indices; bounds are inclusive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntRect {
    lo: Vec<u32>,
    hi: Vec<u32>,
}

impl IntRect {
    /// Creates a box from inclusive per-dimension bounds.
    ///
    /// # Panics
    /// Panics if the vectors differ in length, are empty, or `lo[i] >
    /// hi[i]` for some `i`.
    pub fn new(lo: Vec<u32>, hi: Vec<u32>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound length mismatch");
        assert!(!lo.is_empty(), "empty bounds");
        for i in 0..lo.len() {
            assert!(lo[i] <= hi[i], "lo > hi in dimension {i}");
        }
        IntRect { lo, hi }
    }

    /// The unit box covering a single bucket index.
    pub fn unit(idx: &[u32]) -> Self {
        IntRect {
            lo: idx.to_vec(),
            hi: idx.to_vec(),
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Inclusive lower bounds.
    pub fn lo(&self) -> &[u32] {
        &self.lo
    }

    /// Inclusive upper bounds.
    pub fn hi(&self) -> &[u32] {
        &self.hi
    }

    /// Number of buckets covered (product of per-dimension spans).
    pub fn cells(&self) -> u64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l + 1) as u64)
            .product()
    }

    /// Whether the boxes overlap (inclusive).
    pub fn intersects(&self, other: &IntRect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|i| self.lo[i] <= other.hi[i] && other.lo[i] <= self.hi[i])
    }

    /// Definition 5.3: whether the union of the two boxes is itself a box:
    /// bounds equal in d−1 dimensions, and touching (adjacent) in the
    /// remaining one.
    pub fn union_is_rectangular(&self, other: &IntRect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        let mut merge_dim: Option<usize> = None;
        for i in 0..self.dim() {
            if self.lo[i] == other.lo[i] && self.hi[i] == other.hi[i] {
                continue;
            }
            if merge_dim.is_some() {
                return false; // differs in more than one dimension
            }
            let touch = self.hi[i] + 1 == other.lo[i] || other.hi[i] + 1 == self.lo[i];
            if !touch {
                return false;
            }
            merge_dim = Some(i);
        }
        merge_dim.is_some()
    }

    /// The bounding box of both inputs.
    pub fn union(&self, other: &IntRect) -> IntRect {
        debug_assert_eq!(self.dim(), other.dim());
        IntRect {
            lo: self
                .lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| *a.min(b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| *a.max(b))
                .collect(),
        }
    }

    /// Expands the box by one bucket in every direction, clamped at zero
    /// and at `limits` (exclusive per-dimension bucket counts). Used to
    /// probe for DSHC merge candidates around a cluster.
    pub fn grown_by_one(&self, limits: &[u32]) -> IntRect {
        IntRect {
            lo: self.lo.iter().map(|l| l.saturating_sub(1)).collect(),
            hi: self
                .hi
                .iter()
                .zip(limits)
                .map(|(h, lim)| (*h + 1).min(lim.saturating_sub(1)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: [u32; 2], hi: [u32; 2]) -> IntRect {
        IntRect::new(lo.to_vec(), hi.to_vec())
    }

    #[test]
    fn unit_box() {
        let u = IntRect::unit(&[3, 4]);
        assert_eq!(u.cells(), 1);
        assert_eq!(u.lo(), &[3, 4]);
        assert_eq!(u.hi(), &[3, 4]);
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        IntRect::new(vec![2], vec![1]);
    }

    #[test]
    fn cells_product() {
        assert_eq!(b([0, 0], [3, 1]).cells(), 8);
    }

    #[test]
    fn intersects_inclusive() {
        assert!(b([0, 0], [2, 2]).intersects(&b([2, 2], [4, 4])));
        assert!(!b([0, 0], [2, 2]).intersects(&b([3, 0], [4, 2])));
    }

    #[test]
    fn rectangular_union_same_extent() {
        // Equal y-range, touching in x: union is a box.
        assert!(b([0, 0], [1, 3]).union_is_rectangular(&b([2, 0], [3, 3])));
        // Equal y-range but x-gap: no.
        assert!(!b([0, 0], [1, 3]).union_is_rectangular(&b([3, 0], [4, 3])));
        // Different y-extents: no.
        assert!(!b([0, 0], [1, 3]).union_is_rectangular(&b([2, 0], [3, 2])));
        // Identical boxes: no merge dimension -> not rectangular (would be
        // a duplicate, not a union).
        assert!(!b([0, 0], [1, 1]).union_is_rectangular(&b([0, 0], [1, 1])));
    }

    #[test]
    fn rectangular_union_symmetry() {
        let a = b([2, 0], [3, 3]);
        let c = b([0, 0], [1, 3]);
        assert_eq!(a.union_is_rectangular(&c), c.union_is_rectangular(&a));
    }

    #[test]
    fn union_bounds() {
        let u = b([0, 2], [1, 3]).union(&b([3, 0], [4, 1]));
        assert_eq!(u.lo(), &[0, 0]);
        assert_eq!(u.hi(), &[4, 3]);
    }

    #[test]
    fn grown_by_one_clamps() {
        let g = b([0, 5], [2, 7]).grown_by_one(&[8, 8]);
        assert_eq!(g.lo(), &[0, 4]);
        assert_eq!(g.hi(), &[3, 7]);
    }

    #[test]
    fn three_dimensional_rectangular_union() {
        let a = IntRect::new(vec![0, 0, 0], vec![1, 1, 1]);
        let c = IntRect::new(vec![0, 0, 2], vec![1, 1, 3]);
        assert!(a.union_is_rectangular(&c));
        let d = IntRect::new(vec![0, 0, 2], vec![1, 2, 3]);
        assert!(!a.union_is_rectangular(&d));
    }
}
