//! The unit of work a detector operates on.
//!
//! After the map/shuffle phase of the DOD framework (Section III-B), each
//! reducer receives for its partition the *core* points (tag `0`) whose
//! outlier status it must decide, plus the *support* points (tag `1`)
//! replicated from neighboring partitions. Lemma 3.1 guarantees this is
//! exactly the information needed to classify every core point.

use std::ops::{Index, IndexMut};

use dod_core::{CoreError, PointId, PointSet, Rect};

/// Which copy of a resident point an operation addresses: the one core
/// copy whose outlier status its partition decides (tag `0`), or one of
/// the support copies replicated to every other partition whose
/// rectangle the point is within `r` of (tag `1`, Definition 3.3).
///
/// Every layer that stores copies — [`Partition`], [`crate::CellIndex`],
/// [`crate::KdIndex`] and [`crate::PartitionState`] — keeps one store per
/// side in a `[T; 2]` indexed by `Side`, and splices both sides through
/// one insert and one removal method that take the side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The copy the partition classifies.
    Core,
    /// A replicated neighbor's copy, counted but never classified.
    Support,
}

impl<T> Index<Side> for [T; 2] {
    type Output = T;

    #[inline]
    fn index(&self, side: Side) -> &T {
        &self[side as usize]
    }
}

impl<T> IndexMut<Side> for [T; 2] {
    #[inline]
    fn index_mut(&mut self, side: Side) -> &mut T {
        &mut self[side as usize]
    }
}

/// A self-contained detection task: core points plus replicated support
/// points, each with its global id.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The core and the support points, indexed by [`Side`].
    points: [PointSet; 2],
    /// Global id of every point, index-aligned with `points`.
    ids: [Vec<PointId>; 2],
}

impl Partition {
    /// Creates a partition from core and support points, each with their
    /// stable global ids.
    ///
    /// # Errors
    /// Returns an error if either side's id count doesn't match its
    /// number of points or the two point sets disagree on
    /// dimensionality.
    pub fn new(
        core: PointSet,
        core_ids: Vec<PointId>,
        support: PointSet,
        support_ids: Vec<PointId>,
    ) -> Result<Self, CoreError> {
        for (name, ids, points, side) in [
            ("core_ids", &core_ids, &core, "core"),
            ("support_ids", &support_ids, &support, "support"),
        ] {
            if ids.len() != points.len() {
                return Err(CoreError::InvalidParameter {
                    name,
                    reason: format!("{} ids for {} {side} points", ids.len(), points.len()),
                });
            }
        }
        if core.dim() != support.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: core.dim(),
                actual: support.dim(),
            });
        }
        Ok(Partition {
            points: [core, support],
            ids: [core_ids, support_ids],
        })
    }

    /// A partition whose core ids are simply `0..core.len()` and with no
    /// support points — convenient for centralized (single-partition) use.
    pub fn standalone(core: PointSet) -> Self {
        let ids = (0..core.len() as PointId).collect();
        let support = PointSet::new(core.dim()).expect("dim >= 1");
        Partition {
            points: [core, support],
            ids: [ids, Vec::new()],
        }
    }

    /// Dimensionality of the partition's points.
    pub fn dim(&self) -> usize {
        self.core().dim()
    }

    /// The points of one side.
    pub(crate) fn points(&self, side: Side) -> &PointSet {
        &self.points[side]
    }

    /// Global ids of one side's points, index-aligned with that side's
    /// point set.
    pub fn ids(&self, side: Side) -> &[PointId] {
        &self.ids[side]
    }

    /// The core points.
    pub fn core(&self) -> &PointSet {
        &self.points[Side::Core]
    }

    /// Global id of core point `i`.
    pub fn core_id(&self, i: usize) -> PointId {
        self.ids[Side::Core][i]
    }

    /// All core ids, index-aligned with [`Partition::core`].
    pub fn core_ids(&self) -> &[PointId] {
        &self.ids[Side::Core]
    }

    /// The support points.
    pub fn support(&self) -> &PointSet {
        &self.points[Side::Support]
    }

    /// Total number of points visible to the detector.
    pub fn total_len(&self) -> usize {
        self.core().len() + self.support().len()
    }

    /// Coordinates of the `i`-th point in the unified core-then-support
    /// ordering.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        let n_core = self.core().len();
        if i < n_core {
            self.core().point(i)
        } else {
            self.support().point(i - n_core)
        }
    }

    /// Bounding box over core and support points together.
    ///
    /// # Errors
    /// Returns an error if the partition holds no points at all.
    pub fn bounding_rect(&self) -> Result<Rect, CoreError> {
        let dim = self.dim();
        Rect::bounding(self.core().iter().chain(self.support().iter()), dim)
    }

    /// Appends a point to `side` with its stable global id, returning its
    /// index on that side.
    ///
    /// # Errors
    /// Returns an error on dimensionality mismatch.
    pub fn push(&mut self, side: Side, p: &[f64], id: PointId) -> Result<usize, CoreError> {
        self.points[side].push(p)?;
        self.ids[side].push(id);
        Ok(self.ids[side].len() - 1)
    }

    /// Removes point `i` of `side` in O(d) by moving that side's last
    /// point into its slot (see [`PointSet::swap_remove`]), returning the
    /// removed point's id. The side's point previously at its last index
    /// now sits at index `i`.
    ///
    /// # Panics
    /// Panics if `i` is not an index of `side`'s points.
    pub fn swap_remove(&mut self, side: Side, i: usize) -> PointId {
        self.points[side].swap_remove(i);
        self.ids[side].swap_remove(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_ids_are_sequential() {
        let p = Partition::standalone(PointSet::from_xy(&[(0.0, 0.0), (1.0, 1.0)]));
        assert_eq!(p.core_ids(), &[0, 1]);
        assert_eq!(p.total_len(), 2);
        assert_eq!(p.support().len(), 0);
    }

    #[test]
    fn id_count_mismatch_rejected() {
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::new(2).unwrap();
        assert!(Partition::new(core, vec![0, 1], support, vec![]).is_err());
    }

    #[test]
    fn support_id_count_mismatch_rejected() {
        // Every support copy is named: a copy without an id could be
        // queried but never removed.
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::from_xy(&[(0.3, 0.3)]);
        assert!(Partition::new(core.clone(), vec![0], support.clone(), vec![]).is_err());
        assert!(Partition::new(core.clone(), vec![0], support.clone(), vec![20, 21]).is_err());
        let p = Partition::new(core, vec![0], support, vec![20]).unwrap();
        assert_eq!(p.ids(Side::Support), &[20]);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::new(3).unwrap();
        assert!(Partition::new(core, vec![7], support, vec![]).is_err());
    }

    #[test]
    fn unified_point_indexing() {
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::from_xy(&[(9.0, 9.0)]);
        let p = Partition::new(core, vec![42], support, vec![43]).unwrap();
        assert_eq!(p.point(0), &[0.0, 0.0]);
        assert_eq!(p.point(1), &[9.0, 9.0]);
        assert_eq!(p.core_id(0), 42);
    }

    #[test]
    fn bounding_rect_spans_support() {
        let core = PointSet::from_xy(&[(0.0, 0.0)]);
        let support = PointSet::from_xy(&[(9.0, -3.0)]);
        let p = Partition::new(core, vec![0], support, vec![1]).unwrap();
        let r = p.bounding_rect().unwrap();
        assert_eq!(r.min(), &[0.0, -3.0]);
        assert_eq!(r.max(), &[9.0, 0.0]);
    }

    #[test]
    fn empty_partition_bounding_rect_errors() {
        let p = Partition::standalone(PointSet::new(2).unwrap());
        assert!(p.bounding_rect().is_err());
    }
}
