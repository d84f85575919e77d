//! Serialized-size estimation for shuffle-volume accounting.
//!
//! The single-pass DOD framework exists to minimize communication overhead
//! (Section I), so the engine reports how many bytes cross the map→reduce
//! boundary. Records estimate their own wire size through [`EstimateSize`];
//! the estimates correspond to a simple fixed-width binary encoding.

/// Estimated serialized size of a value, in bytes.
pub trait EstimateSize {
    /// Number of bytes a fixed-width binary encoding of `self` would use.
    fn estimated_bytes(&self) -> usize;
}

macro_rules! impl_fixed {
    ($($t:ty),*) => {
        $(impl EstimateSize for $t {
            fn estimated_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

impl_fixed!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

impl EstimateSize for String {
    fn estimated_bytes(&self) -> usize {
        8 + self.len()
    }
}

impl EstimateSize for &str {
    fn estimated_bytes(&self) -> usize {
        8 + self.len()
    }
}

impl<T: EstimateSize> EstimateSize for &[T] {
    fn estimated_bytes(&self) -> usize {
        8 + self
            .iter()
            .map(EstimateSize::estimated_bytes)
            .sum::<usize>()
    }
}

impl<T: EstimateSize> EstimateSize for Vec<T> {
    fn estimated_bytes(&self) -> usize {
        self.as_slice().estimated_bytes()
    }
}

impl<T: EstimateSize> EstimateSize for Option<T> {
    fn estimated_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, EstimateSize::estimated_bytes)
    }
}

impl<A: EstimateSize, B: EstimateSize> EstimateSize for (A, B) {
    fn estimated_bytes(&self) -> usize {
        self.0.estimated_bytes() + self.1.estimated_bytes()
    }
}

impl<A: EstimateSize, B: EstimateSize, C: EstimateSize> EstimateSize for (A, B, C) {
    fn estimated_bytes(&self) -> usize {
        self.0.estimated_bytes() + self.1.estimated_bytes() + self.2.estimated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(42u32.estimated_bytes(), 4);
        assert_eq!(42u64.estimated_bytes(), 8);
        assert_eq!(1.5f64.estimated_bytes(), 8);
        assert_eq!(true.estimated_bytes(), 1);
    }

    #[test]
    fn strings_carry_length_prefix() {
        assert_eq!("abc".to_string().estimated_bytes(), 11);
    }

    #[test]
    fn vectors_sum_elements() {
        assert_eq!(vec![1.0f64, 2.0, 3.0].estimated_bytes(), 8 + 24);
    }

    #[test]
    fn a_borrowed_slice_is_priced_like_the_vector_it_views() {
        let v = vec![1.0f64, 2.0, 3.0];
        assert_eq!(v.as_slice().estimated_bytes(), v.estimated_bytes());
        assert_eq!((7u64, v.as_slice()).estimated_bytes(), 8 + 8 + 24);
    }

    #[test]
    fn options_and_tuples() {
        assert_eq!(Some(7u32).estimated_bytes(), 5);
        assert_eq!(None::<u32>.estimated_bytes(), 1);
        assert_eq!((1u32, 2.0f64).estimated_bytes(), 12);
        assert_eq!((1u8, 2u8, 3u8).estimated_bytes(), 3);
    }

    #[test]
    fn nested_vectors() {
        let v: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0]];
        assert_eq!(v.estimated_bytes(), 8 + (8 + 16) + (8 + 8));
    }
}
