//! Euclidean distance functions.
//!
//! The paper (Definition 2.1) assumes a distance function `dist(pi, pj)`;
//! like the original evaluation we use the Euclidean metric by default.
//! Points are `&[f64]` coordinate slices (borrowed from a columnar
//! [`crate::PointSet`]), so no per-point allocation happens during detection.

/// Squared Euclidean distance between two coordinate slices.
///
/// Panics in debug builds if the slices have different lengths; in release
/// builds the shorter length is used (both callers in this workspace always
/// pass equal-dimension slices).
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch in dist_sq");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean distance between two coordinate slices.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn euclidean_345() {
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn zero_distance_to_self() {
        let p = [1.5, -2.5, 0.0];
        assert_eq!(dist(&p, &p), 0.0);
    }

    #[test]
    fn one_dimensional_distance() {
        assert_eq!(dist(&[-2.0], &[3.0]), 5.0);
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(a in proptest::collection::vec(-1e6f64..1e6, 1..6),
                                 b in proptest::collection::vec(-1e6f64..1e6, 1..6)) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            prop_assert_eq!(dist_sq(a, b), dist_sq(b, a));
        }

        #[test]
        fn distance_nonnegative(a in proptest::collection::vec(-1e6f64..1e6, 1..6),
                                b in proptest::collection::vec(-1e6f64..1e6, 1..6)) {
            let n = a.len().min(b.len());
            prop_assert!(dist_sq(&a[..n], &b[..n]) >= 0.0);
        }

        #[test]
        fn triangle_inequality(a in proptest::collection::vec(-1e3f64..1e3, 2..4),
                               b in proptest::collection::vec(-1e3f64..1e3, 2..4),
                               c in proptest::collection::vec(-1e3f64..1e3, 2..4)) {
            let n = a.len().min(b.len()).min(c.len());
            let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
            prop_assert!(dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9);
        }
    }
}
