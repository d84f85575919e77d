//! Hyper-rectangles.
//!
//! Grid cells (Definition 3.1), supporting areas (Definition 3.3), mini
//! buckets and DSHC clusters (Definition 5.1) are all axis-aligned
//! hyper-rectangles. Cells must tile the domain without overlap, so
//! membership is half-open: a point belongs to a rect iff
//! `min[i] <= x[i] < max[i]` in every dimension, except that the rect owning
//! the global domain boundary also accepts `x[i] == max[i]` (see
//! [`Rect::contains_with_upper`]).

use crate::error::CoreError;
use serde::{Deserialize, Serialize};

/// An axis-aligned hyper-rectangle `⟨(low_1, high_1), ..., (low_d, high_d)⟩`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Rect {
    /// Creates a rectangle from per-dimension bounds.
    ///
    /// # Errors
    /// Returns an error if the bound vectors differ in length, are empty,
    /// contain non-finite values, or `min[i] > max[i]` for some dimension.
    pub fn new(min: Vec<f64>, max: Vec<f64>) -> Result<Self, CoreError> {
        if min.len() != max.len() {
            return Err(CoreError::DimensionMismatch {
                expected: min.len(),
                actual: max.len(),
            });
        }
        if min.is_empty() {
            return Err(CoreError::Empty("rect bounds"));
        }
        for (i, (lo, hi)) in min.iter().zip(max.iter()).enumerate() {
            if !lo.is_finite() || !hi.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "bounds",
                    reason: format!("non-finite bound in dimension {i}"),
                });
            }
            if lo > hi {
                return Err(CoreError::InvalidParameter {
                    name: "bounds",
                    reason: format!("min {lo} > max {hi} in dimension {i}"),
                });
            }
        }
        Ok(Rect { min, max })
    }

    /// The bounding box of a set of coordinate slices.
    ///
    /// # Errors
    /// Returns an error if the iterator yields no points, or if some
    /// dimension's extent `max - min` overflows `f64` (finite coordinates
    /// such as `±1e308` can span more than `f64::MAX`; no grid, bucket or
    /// volume over such a box is finite).
    pub fn bounding<'a, I>(points: I, dim: usize) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let mut min = vec![f64::INFINITY; dim];
        let mut max = vec![f64::NEG_INFINITY; dim];
        let mut any = false;
        for p in points {
            any = true;
            for i in 0..dim {
                min[i] = min[i].min(p[i]);
                max[i] = max[i].max(p[i]);
            }
        }
        if !any {
            return Err(CoreError::Empty("point set for bounding box"));
        }
        let rect = Rect::new(min, max)?;
        match (0..dim).find(|&i| !rect.extent(i).is_finite()) {
            Some(i) => Err(CoreError::InvalidParameter {
                name: "bounds",
                reason: format!("the extent of dimension {i} overflows f64"),
            }),
            None => Ok(rect),
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Lower bounds.
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Upper bounds.
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// Side length in dimension `i`.
    pub fn extent(&self, i: usize) -> f64 {
        self.max[i] - self.min[i]
    }

    /// Volume (the paper's "domain area" `A(D)` in 2-d).
    ///
    /// Degenerate rects (zero extent in some dimension) have volume 0.
    pub fn volume(&self) -> f64 {
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| hi - lo)
            .product()
    }

    /// Half-open membership test: `min[i] <= x[i] < max[i]` for all `i`.
    pub fn contains(&self, x: &[f64]) -> bool {
        debug_assert_eq!(x.len(), self.dim());
        self.min
            .iter()
            .zip(&self.max)
            .zip(x)
            .all(|((lo, hi), v)| *lo <= *v && *v < *hi)
    }

    /// Membership where dimensions listed in `closed_above` also accept
    /// `x[i] == max[i]`.
    ///
    /// Used by grid cells on the upper domain boundary so that every domain
    /// point belongs to exactly one cell.
    pub fn contains_with_upper(&self, x: &[f64], closed_above: impl Fn(usize) -> bool) -> bool {
        debug_assert_eq!(x.len(), self.dim());
        (0..self.dim()).all(|i| {
            let v = x[i];
            v >= self.min[i] && (v < self.max[i] || (closed_above(i) && v == self.max[i]))
        })
    }

    /// Closed membership test: `min[i] <= x[i] <= max[i]` for all `i`.
    pub fn contains_closed(&self, x: &[f64]) -> bool {
        debug_assert_eq!(x.len(), self.dim());
        self.min
            .iter()
            .zip(&self.max)
            .zip(x)
            .all(|((lo, hi), v)| *lo <= *v && *v <= *hi)
    }

    /// The rectangle grown by `r` on every side (the Definition 3.3
    /// supporting-area envelope: `⟨(low_i − r, high_i + r)⟩`).
    pub fn expanded(&self, r: f64) -> Rect {
        Rect {
            min: self.min.iter().map(|v| v - r).collect(),
            max: self.max.iter().map(|v| v + r).collect(),
        }
    }

    /// Squared Euclidean distance from `x` to the closest point of the
    /// rectangle (0 when inside).
    ///
    /// This is the exact predicate behind Definition 3.2: `x` can influence
    /// a core point of cell `C` iff `min_dist(x, C) <= r`.
    pub fn min_dist_sq(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        let mut acc = 0.0;
        for (i, &v) in x.iter().enumerate() {
            let d = if v < self.min[i] {
                self.min[i] - v
            } else if v > self.max[i] {
                v - self.max[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Whether two rectangles overlap (closed-interval test).
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// The smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), other.dim());
        Rect {
            min: self
                .min
                .iter()
                .zip(&other.min)
                .map(|(a, b)| a.min(*b))
                .collect(),
            max: self
                .max
                .iter()
                .zip(&other.max)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// Splits the rectangle at coordinate `at` along dimension `d`,
    /// returning the `(lower, upper)` halves.
    ///
    /// # Panics
    /// Panics if `at` lies outside the rect's extent in dimension `d`.
    pub fn split_at(&self, d: usize, at: f64) -> (Rect, Rect) {
        assert!(
            at >= self.min[d] && at <= self.max[d],
            "split coordinate {at} outside [{}, {}]",
            self.min[d],
            self.max[d]
        );
        let mut lo_max = self.max.clone();
        lo_max[d] = at;
        let mut hi_min = self.min.clone();
        hi_min[d] = at;
        (
            Rect {
                min: self.min.clone(),
                max: lo_max,
            },
            Rect {
                min: hi_min,
                max: self.max.clone(),
            },
        )
    }

    /// Center point of the rectangle.
    pub fn center(&self) -> Vec<f64> {
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| 0.5 * (lo + hi))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect2(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(vec![x0, y0], vec![x1, y1]).unwrap()
    }

    #[test]
    fn rejects_mismatched_dims() {
        assert!(Rect::new(vec![0.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_inverted_bounds() {
        assert!(Rect::new(vec![1.0], vec![0.0]).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(Rect::new(vec![], vec![]).is_err());
    }

    #[test]
    fn rejects_nan() {
        assert!(Rect::new(vec![f64::NAN], vec![1.0]).is_err());
    }

    #[test]
    fn bounding_refuses_an_overflowing_extent() {
        let wide = [[1e308, 0.0], [-1e308, 1.0]];
        let err = Rect::bounding(wide.iter().map(|p| &p[..]), 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid parameter `bounds`: the extent of dimension 0 overflows f64"
        );
        let widest = [[8.9e307, 0.0], [-8.9e307, 1.0]];
        let r = Rect::bounding(widest.iter().map(|p| &p[..]), 2).unwrap();
        assert!(r.extent(0).is_finite());
    }

    #[test]
    fn volume_2d() {
        assert_eq!(rect2(0.0, 0.0, 4.0, 2.0).volume(), 8.0);
    }

    #[test]
    fn degenerate_volume_is_zero() {
        assert_eq!(rect2(0.0, 0.0, 0.0, 5.0).volume(), 0.0);
    }

    #[test]
    fn half_open_membership() {
        let r = rect2(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(&[0.0, 0.0]));
        assert!(r.contains(&[0.5, 0.999]));
        assert!(!r.contains(&[1.0, 0.5])); // upper face excluded
        assert!(!r.contains(&[-0.1, 0.5]));
    }

    #[test]
    fn closed_membership_includes_upper_face() {
        let r = rect2(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains_closed(&[1.0, 1.0]));
        assert!(!r.contains_closed(&[1.0 + 1e-12, 1.0]));
    }

    #[test]
    fn contains_with_upper_boundary() {
        let r = rect2(0.0, 0.0, 1.0, 1.0);
        // Closed above only in dimension 0.
        assert!(r.contains_with_upper(&[1.0, 0.5], |i| i == 0));
        assert!(!r.contains_with_upper(&[0.5, 1.0], |i| i == 0));
    }

    #[test]
    fn expanded_grows_every_side() {
        let r = rect2(0.0, 0.0, 1.0, 1.0).expanded(0.5);
        assert_eq!(r.min(), &[-0.5, -0.5]);
        assert_eq!(r.max(), &[1.5, 1.5]);
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let r = rect2(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.min_dist_sq(&[1.0, 1.0]), 0.0);
        assert_eq!(r.min_dist_sq(&[0.0, 2.0]), 0.0); // boundary
    }

    #[test]
    fn min_dist_to_corner() {
        let r = rect2(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.min_dist_sq(&[4.0, 5.0]), 9.0 + 16.0);
    }

    #[test]
    fn min_dist_to_face() {
        let r = rect2(0.0, 0.0, 1.0, 1.0);
        assert_eq!(r.min_dist_sq(&[0.5, 3.0]), 4.0);
    }

    #[test]
    fn intersects_touching_rects() {
        let a = rect2(0.0, 0.0, 1.0, 1.0);
        let b = rect2(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b)); // closed test: shared face counts
        let c = rect2(1.1, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn union_covers_both() {
        let a = rect2(0.0, 0.0, 1.0, 1.0);
        let b = rect2(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert_eq!(u.min(), &[0.0, -1.0]);
        assert_eq!(u.max(), &[3.0, 1.0]);
    }

    #[test]
    fn split_preserves_volume() {
        let r = rect2(0.0, 0.0, 4.0, 2.0);
        let (lo, hi) = r.split_at(0, 1.0);
        assert_eq!(lo.volume() + hi.volume(), r.volume());
        assert_eq!(lo.max()[0], 1.0);
        assert_eq!(hi.min()[0], 1.0);
    }

    #[test]
    #[should_panic]
    fn split_outside_panics() {
        rect2(0.0, 0.0, 1.0, 1.0).split_at(0, 2.0);
    }

    #[test]
    fn bounding_box() {
        let pts: Vec<Vec<f64>> = vec![vec![0.0, 5.0], vec![2.0, -1.0], vec![1.0, 3.0]];
        let r = Rect::bounding(pts.iter().map(|p| p.as_slice()), 2).unwrap();
        assert_eq!(r.min(), &[0.0, -1.0]);
        assert_eq!(r.max(), &[2.0, 5.0]);
    }

    #[test]
    fn bounding_empty_errors() {
        let r = Rect::bounding(std::iter::empty(), 2);
        assert!(r.is_err());
    }

    #[test]
    fn center_is_midpoint() {
        assert_eq!(rect2(0.0, 2.0, 4.0, 6.0).center(), vec![2.0, 4.0]);
    }

    proptest! {
        #[test]
        fn expanded_contains_original_points(
            xs in proptest::collection::vec(-100.0f64..100.0, 2),
            r in 0.0f64..10.0,
        ) {
            let rect = Rect::new(vec![-100.0, -100.0], vec![100.0, 100.0]).unwrap();
            let grown = rect.expanded(r);
            prop_assert!(grown.contains_closed(&xs));
        }

        #[test]
        fn min_dist_zero_iff_inside_closed(
            x in -10.0f64..10.0, y in -10.0f64..10.0,
        ) {
            let rect = Rect::new(vec![-1.0, -1.0], vec![1.0, 1.0]).unwrap();
            let inside = rect.contains_closed(&[x, y]);
            prop_assert_eq!(rect.min_dist_sq(&[x, y]) == 0.0, inside);
        }

        #[test]
        fn union_volume_at_least_max(
            a0 in -10.0f64..0.0, a1 in 0.1f64..10.0,
            b0 in -10.0f64..0.0, b1 in 0.1f64..10.0,
        ) {
            let a = Rect::new(vec![a0, a0], vec![a1, a1]).unwrap();
            let b = Rect::new(vec![b0, b0], vec![b1, b1]).unwrap();
            let u = a.union(&b);
            prop_assert!(u.volume() >= a.volume().max(b.volume()) - 1e-9);
        }
    }
}
