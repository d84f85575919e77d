//! Columnar point storage.
//!
//! Datasets in the millions of points must not pay one heap allocation per
//! point, so [`PointSet`] stores all coordinates in a single flat buffer and
//! hands out `&[f64]` slices. Points are identified by their stable index
//! ([`PointId`]), which is how the distributed pipeline refers to outliers
//! across map/reduce boundaries.

use crate::error::CoreError;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// Stable identifier of a point within its dataset: the insertion index.
pub type PointId = u64;

/// A set of d-dimensional points stored in one contiguous buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSet {
    dim: usize,
    coords: Vec<f64>,
}

impl PointSet {
    /// Creates an empty point set of the given dimensionality.
    ///
    /// # Errors
    /// Returns an error if `dim == 0`.
    pub fn new(dim: usize) -> Result<Self, CoreError> {
        if dim == 0 {
            return Err(CoreError::InvalidParameter {
                name: "dim",
                reason: "dimensionality must be at least 1".into(),
            });
        }
        Ok(PointSet {
            dim,
            coords: Vec::new(),
        })
    }

    /// Creates an empty point set with capacity for `n` points.
    ///
    /// # Errors
    /// Returns an error if `dim == 0`.
    pub fn with_capacity(dim: usize, n: usize) -> Result<Self, CoreError> {
        let mut s = PointSet::new(dim)?;
        s.coords.reserve(n * dim);
        Ok(s)
    }

    /// Builds a point set from a flat coordinate buffer.
    ///
    /// # Errors
    /// Returns an error if `dim == 0` or the buffer length is not a
    /// multiple of `dim`.
    pub fn from_flat(dim: usize, coords: Vec<f64>) -> Result<Self, CoreError> {
        if dim == 0 {
            return Err(CoreError::InvalidParameter {
                name: "dim",
                reason: "dimensionality must be at least 1".into(),
            });
        }
        if !coords.len().is_multiple_of(dim) {
            return Err(CoreError::InvalidParameter {
                name: "coords",
                reason: format!("length {} is not a multiple of dim {dim}", coords.len()),
            });
        }
        Ok(PointSet { dim, coords })
    }

    /// Builds a 2-d point set from `(x, y)` pairs — the common case in the
    /// paper's spatial evaluation.
    pub fn from_xy(pairs: &[(f64, f64)]) -> Self {
        let mut coords = Vec::with_capacity(pairs.len() * 2);
        for &(x, y) in pairs {
            coords.push(x);
            coords.push(y);
        }
        PointSet { dim: 2, coords }
    }

    /// Dimensionality of every point in the set.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Whether the set holds no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Coordinates of point `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a point given as a coordinate slice.
    ///
    /// # Errors
    /// Returns an error on dimensionality mismatch.
    pub fn push(&mut self, coords: &[f64]) -> Result<PointId, CoreError> {
        if coords.len() != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                actual: coords.len(),
            });
        }
        let id = self.len() as PointId;
        self.coords.extend_from_slice(coords);
        Ok(id)
    }

    /// Iterator over all coordinate slices, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.coords.chunks_exact(self.dim)
    }

    /// The flat coordinate buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.coords
    }

    /// Bounding box of the set.
    ///
    /// # Errors
    /// Returns an error if the set is empty.
    pub fn bounding_rect(&self) -> Result<Rect, CoreError> {
        Rect::bounding(self.iter(), self.dim)
    }

    /// A new set containing the points whose ids are listed, in order.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn gather(&self, ids: &[PointId]) -> PointSet {
        let mut out = PointSet {
            dim: self.dim,
            coords: Vec::with_capacity(ids.len() * self.dim),
        };
        for &id in ids {
            out.coords.extend_from_slice(self.point(id as usize));
        }
        out
    }

    /// Removes point `i` in O(d) by moving the last point into its slot.
    ///
    /// The point previously at index `len() - 1` takes index `i`; all
    /// other indices are unchanged. Callers tracking ids per index must
    /// renumber that one moved point.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        assert!(i <= last, "swap_remove index {i} out of range {}", last + 1);
        if i < last {
            let (head, tail) = self.coords.split_at_mut(last * self.dim);
            head[i * self.dim..(i + 1) * self.dim].copy_from_slice(&tail[..self.dim]);
        }
        self.coords.truncate(last * self.dim);
    }

    /// Appends every point of `other`.
    ///
    /// # Errors
    /// Returns an error on dimensionality mismatch.
    pub fn extend_from(&mut self, other: &PointSet) -> Result<(), CoreError> {
        if other.dim != self.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim,
                actual: other.dim,
            });
        }
        self.coords.extend_from_slice(&other.coords);
        Ok(())
    }
}

/// A copy of a borrowed set, for APIs that take `impl Into<PointSet>` so
/// that an owner can hand its set over without one.
impl From<&PointSet> for PointSet {
    fn from(points: &PointSet) -> Self {
        points.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_dim_rejected() {
        assert!(PointSet::new(0).is_err());
        assert!(PointSet::from_flat(0, vec![]).is_err());
    }

    #[test]
    fn push_and_read_back() {
        let mut s = PointSet::new(3).unwrap();
        let a = s.push(&[1.0, 2.0, 3.0]).unwrap();
        let b = s.push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.point(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn push_wrong_dim_errors() {
        let mut s = PointSet::new(2).unwrap();
        assert!(s.push(&[1.0]).is_err());
        assert!(s.push(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_flat_validates_multiple() {
        assert!(PointSet::from_flat(2, vec![1.0, 2.0, 3.0]).is_err());
        let s = PointSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn from_xy_layout() {
        let s = PointSet::from_xy(&[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.point(1), &[3.0, 4.0]);
    }

    #[test]
    fn iter_matches_point() {
        let s = PointSet::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let collected: Vec<&[f64]> = s.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2], s.point(2));
    }

    #[test]
    fn gather_selects_in_order() {
        let s = PointSet::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let g = s.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.point(0), &[2.0, 2.0]);
        assert_eq!(g.point(1), &[0.0, 0.0]);
    }

    #[test]
    fn swap_remove_moves_last_into_slot() {
        let mut s = PointSet::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        s.swap_remove(0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(0), &[2.0, 2.0]);
        assert_eq!(s.point(1), &[1.0, 1.0]);
        s.swap_remove(1); // removing the last point moves nothing
        assert_eq!(s.len(), 1);
        assert_eq!(s.point(0), &[2.0, 2.0]);
        s.swap_remove(0);
        assert!(s.is_empty());
    }

    #[test]
    fn extend_from_appends() {
        let mut a = PointSet::from_xy(&[(0.0, 0.0)]);
        let b = PointSet::from_xy(&[(1.0, 1.0)]);
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 2);
        let c = PointSet::new(3).unwrap();
        assert!(a.extend_from(&c).is_err());
    }

    #[test]
    fn bounding_rect_empty_errors() {
        let s = PointSet::new(2).unwrap();
        assert!(s.bounding_rect().is_err());
    }

    #[test]
    fn bounding_rect_covers_points() {
        let s = PointSet::from_xy(&[(0.0, 5.0), (-3.0, 2.0), (4.0, -1.0)]);
        let r = s.bounding_rect().unwrap();
        assert_eq!(r.min(), &[-3.0, -1.0]);
        assert_eq!(r.max(), &[4.0, 5.0]);
    }

    proptest! {
        #[test]
        fn push_then_point_round_trips(
            pts in proptest::collection::vec(
                proptest::collection::vec(-1e9f64..1e9, 3), 1..50)
        ) {
            let mut s = PointSet::new(3).unwrap();
            for p in &pts {
                s.push(p).unwrap();
            }
            prop_assert_eq!(s.len(), pts.len());
            for (i, p) in pts.iter().enumerate() {
                prop_assert_eq!(s.point(i), p.as_slice());
            }
        }

        #[test]
        fn bounding_rect_contains_all(
            pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..40)
        ) {
            let s = PointSet::from_xy(&pts);
            let r = s.bounding_rect().unwrap();
            for p in s.iter() {
                prop_assert!(r.contains_closed(p));
            }
        }
    }
}
