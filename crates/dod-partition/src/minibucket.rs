//! Mini-bucket statistics (Section V-A, stage 1).
//!
//! "The map tasks assume the entire data space is discretized to 'mini
//! buckets' that form the unit of processing. The map task will aggregate
//! the individual sample points and produce the statistics at the mini
//! bucket level." The bucket grid is the integer coordinate system DSHC
//! clusters in.

use crate::intrect::IntRect;
use dod_core::{CoreError, GridSpec, PointSet, Rect};

/// Upper bound on the total number of mini buckets.
const MAX_TOTAL_BUCKETS: usize = 65_536;

/// The per-dimension resolution a `dim`-dimensional mini-bucket grid
/// uses: `buckets_per_dim`, reduced in high dimensions so the grid stays
/// tractable (`per_dim^dim <= MAX_TOTAL_BUCKETS`), and at least 1.
pub fn clamp_buckets_per_dim(buckets_per_dim: usize, dim: usize) -> usize {
    let cap = (MAX_TOTAL_BUCKETS as f64).powf(1.0 / dim as f64).floor() as usize;
    buckets_per_dim.clamp(1, cap.max(1))
}

/// A uniform grid of mini buckets over the domain, with per-bucket sample
/// counts.
#[derive(Debug, Clone)]
pub struct MiniBucketGrid {
    grid: GridSpec,
    counts: Vec<u32>,
}

impl MiniBucketGrid {
    /// Discretizes `domain` into `buckets_per_dim`^d mini buckets and
    /// aggregates `sample` into per-bucket counts.
    ///
    /// # Errors
    /// Returns an error if the grid cannot be constructed (zero buckets,
    /// dimension mismatch) or a sample point has the wrong dimension.
    pub fn build(
        domain: &Rect,
        buckets_per_dim: usize,
        sample: &PointSet,
    ) -> Result<Self, CoreError> {
        if sample.dim() != domain.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: domain.dim(),
                actual: sample.dim(),
            });
        }
        let per_dim: Vec<usize> = (0..domain.dim())
            .map(|i| {
                if domain.extent(i) == 0.0 {
                    1
                } else {
                    buckets_per_dim
                }
            })
            .collect();
        let grid = GridSpec::new(domain.clone(), per_dim)?;
        let mut counts = vec![0u32; grid.num_cells()];
        for p in sample.iter() {
            // Points outside the declared domain are clamped into the
            // nearest boundary bucket, mirroring the paper's assumption
            // that the domain covers the data.
            counts[grid.cell_of(p)] += 1;
        }
        Ok(MiniBucketGrid { grid, counts })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.grid.dim()
    }

    /// Bucket counts per dimension.
    pub fn buckets_per_dim(&self, i: usize) -> u32 {
        self.grid.cells_in_dim(i) as u32
    }

    /// Total number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Total sample points aggregated.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Sample count of the bucket with row-major linear index `id`
    /// (`id < num_buckets()`, last dimension contiguous).
    pub fn count_of(&self, id: usize) -> u32 {
        self.counts[id]
    }

    /// Sample count of the bucket at integer coordinates `idx`.
    pub fn count_at(&self, idx: &[u32]) -> u32 {
        debug_assert_eq!(idx.len(), self.dim());
        let id = idx.iter().enumerate().fold(0usize, |id, (i, &c)| {
            id * self.grid.cells_in_dim(i) + c as usize
        });
        self.counts[id]
    }

    /// Sum of sample counts over an integer box.
    pub fn count_in(&self, rect: &IntRect) -> u64 {
        let mut total = 0u64;
        self.grid.visit_block(
            |i| (rect.lo()[i] as usize, rect.hi()[i] as usize),
            |id| {
                total += self.counts[id] as u64;
                true
            },
        );
        total
    }

    /// Volume of a single mini bucket in real coordinates.
    pub fn bucket_volume(&self) -> f64 {
        (0..self.dim()).map(|i| self.grid.width(i)).product()
    }

    /// Converts an integer box of buckets into its real-coordinate
    /// rectangle (exact at domain boundaries).
    pub fn to_real_rect(&self, rect: &IntRect) -> Rect {
        let domain = self.grid.domain();
        let min: Vec<f64> = (0..self.dim())
            .map(|i| domain.min()[i] + rect.lo()[i] as f64 * self.grid.width(i))
            .collect();
        let max: Vec<f64> = (0..self.dim())
            .map(|i| {
                if rect.hi()[i] + 1 == self.buckets_per_dim(i) {
                    domain.max()[i]
                } else {
                    domain.min()[i] + (rect.hi()[i] + 1) as f64 * self.grid.width(i)
                }
            })
            .collect();
        Rect::new(min, max).expect("bucket bounds are valid")
    }

    /// Density of the single bucket containing `p` (sample points per
    /// unit volume).
    pub fn density_at(&self, p: &[f64]) -> f64 {
        let count = self.counts[self.grid.cell_of(p)];
        let vol = self.bucket_volume();
        if vol == 0.0 {
            return if count == 0 { 0.0 } else { f64::INFINITY };
        }
        count as f64 / vol
    }

    /// Density of an integer box: sample count divided by real volume.
    pub fn density_of(&self, rect: &IntRect) -> f64 {
        let vol = rect.cells() as f64 * self.bucket_volume();
        if vol == 0.0 {
            return if self.count_in(rect) == 0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        self.count_in(rect) as f64 / vol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Rect {
        Rect::new(vec![0.0, 0.0], vec![8.0, 8.0]).unwrap()
    }

    fn grid_with(points: &[(f64, f64)], buckets: usize) -> MiniBucketGrid {
        MiniBucketGrid::build(&domain(), buckets, &PointSet::from_xy(points)).unwrap()
    }

    #[test]
    fn counts_aggregate_into_buckets() {
        let g = grid_with(&[(0.5, 0.5), (0.6, 0.4), (7.5, 7.5)], 8);
        assert_eq!(g.count_at(&[0, 0]), 2);
        assert_eq!(g.count_at(&[7, 7]), 1);
        assert_eq!(g.total_count(), 3);
        assert_eq!(g.num_buckets(), 64);
    }

    #[test]
    fn boundary_points_clamp() {
        let g = grid_with(&[(8.0, 8.0)], 8);
        assert_eq!(g.count_at(&[7, 7]), 1);
    }

    #[test]
    fn count_in_box() {
        let g = grid_with(&[(0.5, 0.5), (1.5, 0.5), (2.5, 0.5), (0.5, 1.5)], 8);
        let rect = IntRect::new(vec![0, 0], vec![1, 1]);
        assert_eq!(g.count_in(&rect), 3);
        let all = IntRect::new(vec![0, 0], vec![7, 7]);
        assert_eq!(g.count_in(&all), 4);
    }

    #[test]
    fn bucket_volume_and_density() {
        let g = grid_with(&[(0.5, 0.5), (0.6, 0.6)], 8);
        assert_eq!(g.bucket_volume(), 1.0);
        let unit = IntRect::unit(&[0, 0]);
        assert_eq!(g.density_of(&unit), 2.0);
        assert_eq!(g.density_of(&IntRect::unit(&[5, 5])), 0.0);
    }

    #[test]
    fn real_rect_round_trip() {
        let g = grid_with(&[], 8);
        let rect = g.to_real_rect(&IntRect::new(vec![2, 4], vec![3, 7]));
        assert_eq!(rect.min(), &[2.0, 4.0]);
        assert_eq!(rect.max(), &[4.0, 8.0]); // hi bucket 7 ends at domain max
    }

    #[test]
    fn count_of_is_row_major() {
        // Width 4.0 per bucket: (0.5, 5.5) is x-bucket 0, y-bucket 1, and
        // the last dimension is the contiguous one.
        let g = grid_with(&[(0.5, 5.5), (5.5, 0.5), (5.5, 0.5)], 2);
        let counts: Vec<u32> = (0..g.num_buckets()).map(|id| g.count_of(id)).collect();
        assert_eq!(counts, [0, 1, 2, 0]);
        assert_eq!(g.count_at(&[0, 1]), 1);
        assert_eq!(g.count_at(&[1, 0]), 2);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let sample = PointSet::new(3).unwrap();
        assert!(MiniBucketGrid::build(&domain(), 4, &sample).is_err());
    }

    #[test]
    fn degenerate_dimension_single_bucket() {
        let dom = Rect::new(vec![0.0, 0.0], vec![8.0, 0.0]).unwrap();
        let sample = PointSet::from_xy(&[(1.0, 0.0)]);
        let g = MiniBucketGrid::build(&dom, 4, &sample).unwrap();
        assert_eq!(g.buckets_per_dim(1), 1);
        assert_eq!(g.total_count(), 1);
    }
}
