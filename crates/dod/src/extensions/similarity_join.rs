//! Exact distance self-join on the DOD framework.
//!
//! Finds every unordered pair `(a, b)` with `dist(a, b) <= r`, in one
//! MapReduce job, using the same supporting-area routing as outlier
//! detection. Deduplication invariant: a pair is emitted by the reducer
//! of the partition in which its **smaller id is a core point** — the
//! smaller point is core in exactly one partition, and the larger point
//! is guaranteed visible there (it is within `r` of the partition, hence
//! core or support by Definition 3.3), so every qualifying pair appears
//! exactly once.

use crate::framework::{gather_rows, NeighborIndex, TaggedPoint};
use crate::pipeline::{DodConfig, DodError};
use dod_core::{PointId, PointSet};
use dod_partition::PartitionStrategy;
use mapreduce::{JobMetrics, Reducer};

/// Reducer of the join job: emits qualifying pairs with the
/// smaller-id-core deduplication rule.
pub struct JoinReducer<'a> {
    data: &'a PointSet,
    r: f64,
    metric: dod_core::Metric,
}

impl<'a> JoinReducer<'a> {
    /// Creates the reducer for distance threshold `r` over the job's
    /// input `data`, whose rows the records name.
    pub fn new(data: &'a PointSet, r: f64, metric: dod_core::Metric) -> Self {
        JoinReducer { data, r, metric }
    }
}

impl Reducer<u32, TaggedPoint> for JoinReducer<'_> {
    type Out = (PointId, PointId);

    fn reduce(&self, _key: &u32, values: &[TaggedPoint], emit: &mut dyn FnMut((PointId, PointId))) {
        let points = gather_rows(self.data, values);
        let index = NeighborIndex::build(&points, self.r, self.metric);
        for (i, a) in values.iter().enumerate() {
            // Each unordered pair once, from its lower index; the pair
            // belongs here only if its smaller id is core here.
            let admit = |j: u32| {
                let b = values[j as usize];
                let lo = if a.id() < b.id() { *a } else { b };
                j as usize > i && a.id() != b.id() && !lo.is_support()
            };
            index.for_each_within(points.point(i), self.r, admit, |j| {
                let b = values[j as usize].id();
                emit((a.id().min(b), a.id().max(b)));
                true
            });
        }
    }
}

/// Result of a distributed similarity join.
#[derive(Debug)]
pub struct JoinOutcome {
    /// All unordered pairs within distance `r`, sorted.
    pub pairs: Vec<(PointId, PointId)>,
    /// Job metrics.
    pub metrics: JobMetrics,
}

/// Runs the exact self-join over `data` using `strategy` for
/// partitioning; `config.params.r` is the join radius (`k` is unused).
///
/// # Errors
/// Returns [`DodError`] if the job fails or the data is inconsistent.
pub fn similarity_join(
    data: &PointSet,
    config: &DodConfig,
    strategy: &dyn PartitionStrategy,
) -> Result<JoinOutcome, DodError> {
    let (r, metric) = (config.params.r, config.params.metric);
    let reducer = JoinReducer::new(data, r, metric);
    let (mut pairs, metrics) = super::run_job(data, config, strategy, (r, metric), &reducer)?;
    pairs.sort_unstable();
    debug_assert!(pairs.windows(2).all(|w| w[0] != w[1]), "pair emitted twice");
    Ok(JoinOutcome { pairs, metrics })
}

/// Brute-force reference join, for tests and small data.
pub fn reference_join(data: &PointSet, r: f64) -> Vec<(PointId, PointId)> {
    reference_join_metric(data, r, dod_core::Metric::Euclidean)
}

/// Brute-force reference join under an arbitrary metric.
pub fn reference_join_metric(
    data: &PointSet,
    r: f64,
    metric: dod_core::Metric,
) -> Vec<(PointId, PointId)> {
    let mut pairs = Vec::new();
    for i in 0..data.len() {
        for j in i + 1..data.len() {
            if metric.within(data.point(i), data.point(j), r) {
                pairs.push((i as PointId, j as PointId));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::OutlierParams;
    use dod_partition::{Dmt, Domain, UniSpace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config(r: f64) -> DodConfig {
        DodConfig::builder(OutlierParams::new(r, 1).unwrap())
            .sample_rate(1.0)
            .block_size(64)
            .num_reducers(4)
            .target_partitions(9)
            .build()
            .unwrap()
    }

    fn random_data(seed: u64, n: usize, extent: f64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = PointSet::new(2).unwrap();
        for _ in 0..n {
            data.push(&[rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)])
                .unwrap();
        }
        data
    }

    #[test]
    fn matches_reference_join() {
        for seed in 0..5 {
            let data = random_data(seed, 300, 10.0);
            let out = similarity_join(&data, &config(0.8), &UniSpace).unwrap();
            assert_eq!(out.pairs, reference_join(&data, 0.8), "seed {seed}");
        }
    }

    #[test]
    fn works_with_dmt_partitioning() {
        let data = random_data(9, 400, 12.0);
        let out = similarity_join(&data, &config(0.5), &Dmt::default()).unwrap();
        assert_eq!(out.pairs, reference_join(&data, 0.5));
    }

    #[test]
    fn no_pair_duplicated_even_with_grid_partitioning() {
        // Points placed symmetrically around partition boundaries.
        let mut pts = Vec::new();
        for i in 0..20 {
            let x = i as f64;
            pts.push((x - 0.05, 5.0));
            pts.push((x + 0.05, 5.0));
        }
        let data = PointSet::from_xy(&pts);
        let out = similarity_join(&data, &config(0.2), &Domain).unwrap();
        let mut dedup = out.pairs.clone();
        dedup.dedup();
        assert_eq!(dedup, out.pairs);
        assert_eq!(out.pairs, reference_join(&data, 0.2));
    }

    #[test]
    fn empty_and_single() {
        let empty = PointSet::new(2).unwrap();
        assert!(similarity_join(&empty, &config(1.0), &UniSpace)
            .unwrap()
            .pairs
            .is_empty());
        let mut one = PointSet::new(2).unwrap();
        one.push(&[1.0, 1.0]).unwrap();
        assert!(similarity_join(&one, &config(1.0), &UniSpace)
            .unwrap()
            .pairs
            .is_empty());
    }

    #[test]
    fn duplicate_points_pair_up() {
        let data = PointSet::from_xy(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let out = similarity_join(&data, &config(0.5), &UniSpace).unwrap();
        assert_eq!(out.pairs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn boundary_distance_included() {
        let data = PointSet::from_xy(&[(0.0, 0.0), (1.0, 0.0)]);
        let out = similarity_join(&data, &config(1.0), &UniSpace).unwrap();
        assert_eq!(out.pairs, vec![(0, 1)]);
    }
}
