//! The correctness oracle: a grid-bucket neighbour counter that shares
//! no code with the program under test.
//!
//! Points live in cubic cells of side `r`, so every neighbour of a point
//! is in its own cell or one of the `3^d − 1` around it. A point is an
//! outlier iff fewer than `k` *other* points lie within distance `r`
//! (closed ball, squared distances summed in ascending dimension order —
//! the definition the program documents, evaluated the same way so that
//! a pair at exactly `r` gets the same verdict on both sides).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Cell keys are already well mixed by the packing multiply; a full
/// SipHash per bucket lookup would dominate the oracle's run time.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("cell keys hash through write_u64")
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
}

#[derive(Default, Clone)]
struct Cell {
    ids: Vec<u64>,
    coords: Vec<f64>,
}

#[derive(Clone)]
pub struct Oracle {
    dim: usize,
    r: f64,
    r_sq: f64,
    k: usize,
    cells: HashMap<u64, Cell, BuildHasherDefault<CellHasher>>,
    /// Key deltas of the `3^d − 1` cells around a cell.
    ring: Vec<u64>,
    len: usize,
    /// Test hook: the verdict of this id is reported flipped, to prove
    /// that a wrong answer from the program would be caught.
    planted: Option<u64>,
}

/// Bits per dimension in a packed cell key.
const KEY_BITS: u32 = 16;
/// Cell indices are offset so that the ring around cell 0 stays positive.
const KEY_BIAS: i64 = 8;

impl Oracle {
    pub fn new(dim: usize, r: f64, k: usize) -> Self {
        assert!(
            (1..=4).contains(&dim),
            "cell keys pack at most four dimensions"
        );
        // Offsets -1, 0, +1 per dimension; a negative offset is a
        // wrapping add, which the bias keeps from borrowing across fields.
        let ring = (0..3usize.pow(dim as u32))
            .map(|code| {
                (0..dim).fold((0u64, code), |(delta, rest), d| {
                    let step = ((rest % 3) as i64 - 1) as u64;
                    (delta.wrapping_add(step << (KEY_BITS * d as u32)), rest / 3)
                })
            })
            .map(|(delta, _)| delta)
            .filter(|&delta| delta != 0)
            .collect();
        Oracle {
            dim,
            r,
            r_sq: r * r,
            k,
            cells: HashMap::default(),
            ring,
            len: 0,
            planted: None,
        }
    }

    /// An oracle over `points` (flat, row-major) with ids `0..n`.
    pub fn with_points(dim: usize, r: f64, k: usize, points: &[f64]) -> Self {
        let mut oracle = Oracle::new(dim, r, k);
        for (id, p) in points.chunks_exact(dim).enumerate() {
            oracle.insert(id as u64, p);
        }
        oracle
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Makes [`Oracle::outliers`] lie about one point (the self-test
    /// behind `--plant-wrong-answer`).
    pub fn plant_wrong_answer(&mut self, id: u64) {
        self.planted = Some(id);
    }

    fn cell_index(&self, x: f64) -> i64 {
        let i = (x / self.r).floor() as i64 + KEY_BIAS;
        assert!(
            (1..(1 << KEY_BITS) - 1).contains(&i),
            "coordinate {x} is outside the oracle's key range"
        );
        i
    }

    fn key_of(&self, p: &[f64]) -> u64 {
        p.iter().fold(0u64, |key, &x| {
            (key << KEY_BITS) | self.cell_index(x) as u64
        })
    }

    pub fn insert(&mut self, id: u64, p: &[f64]) {
        assert_eq!(p.len(), self.dim);
        let cell = self.cells.entry(self.key_of(p)).or_default();
        cell.ids.push(id);
        cell.coords.extend_from_slice(p);
        self.len += 1;
    }

    /// Removes the point `id` stored at `p`; `false` if it is not there.
    pub fn remove(&mut self, id: u64, p: &[f64]) -> bool {
        let dim = self.dim;
        let key = self.key_of(p);
        let Some(cell) = self.cells.get_mut(&key) else {
            return false;
        };
        let Some(at) = cell.ids.iter().position(|&other| other == id) else {
            return false;
        };
        cell.ids.swap_remove(at);
        // Mirror swap_remove on the flat coordinate rows.
        let last = cell.ids.len() * dim;
        cell.coords.copy_within(last..last + dim, at * dim);
        cell.coords.truncate(last);
        self.len -= 1;
        true
    }

    /// Points within `r` of `p`, not counting `skip`, counted up to
    /// `cap` (the verdict needs no more than `k`).
    pub fn count(&self, p: &[f64], skip: Option<u64>, cap: usize) -> usize {
        let dim = self.dim;
        let home = self.key_of(p);
        let mut found = 0;
        // Home cell first: in dense regions it alone holds `cap`
        // neighbours.
        let around = self.ring.iter().map(|delta| home.wrapping_add(*delta));
        for key in std::iter::once(home).chain(around) {
            let Some(cell) = self.cells.get(&key) else {
                continue;
            };
            for (q, &id) in cell.coords.chunks_exact(dim).zip(&cell.ids) {
                let mut acc = 0.0;
                for d in 0..dim {
                    let t = q[d] - p[d];
                    acc += t * t;
                }
                if acc <= self.r_sq && Some(id) != skip {
                    found += 1;
                    if found >= cap {
                        return found;
                    }
                }
            }
        }
        found
    }

    /// The `(neighbours counted up to k, outlier)` verdict a `score`
    /// request must return for an external query point.
    pub fn score(&self, p: &[f64]) -> (usize, bool) {
        let n = self.count(p, None, self.k);
        (n, n < self.k)
    }

    /// Ascending ids of every resident outlier.
    pub fn outliers(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for cell in self.cells.values() {
            for (p, &id) in cell.coords.chunks_exact(self.dim).zip(&cell.ids) {
                let outlier = self.count(p, Some(id), self.k) < self.k;
                if outlier != (self.planted == Some(id)) {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Cluster, Rng, Shape};

    const SHAPE2: Shape = Shape {
        dim: 2,
        side: 30.0,
        clusters: &[Cluster {
            centre: &[10.0, 12.0],
            sigma: 2.0,
            share: 0.8,
        }],
        r: 0.7,
        k: 5,
    };
    const SHAPE4: Shape = Shape {
        dim: 4,
        side: 12.0,
        clusters: &[Cluster {
            centre: &[5.0, 5.0, 6.0, 6.0],
            sigma: 1.0,
            share: 0.9,
        }],
        r: 0.8,
        k: 4,
    };

    fn brute_outliers(shape: &Shape, pts: &[f64], alive: &[bool]) -> Vec<u64> {
        let d = shape.dim;
        let n = pts.len() / d;
        (0..n)
            .filter(|&i| alive[i])
            .filter(|&i| {
                let near = (0..n)
                    .filter(|&j| j != i && alive[j])
                    .filter(|&j| {
                        let mut acc = 0.0;
                        for x in 0..d {
                            let t = pts[j * d + x] - pts[i * d + x];
                            acc += t * t;
                        }
                        acc <= shape.r * shape.r
                    })
                    .count();
                near < shape.k
            })
            .map(|i| i as u64)
            .collect()
    }

    #[test]
    fn matches_brute_force_on_2k_points_with_inserts_and_removes() {
        for shape in [&SHAPE2, &SHAPE4] {
            let d = shape.dim;
            let mut rng = Rng::new(11);
            let pts = shape.corpus(2000, &mut rng);
            let mut oracle = Oracle::with_points(d, shape.r, shape.k, &pts[..1500 * d]);
            let mut alive = vec![true; 2000];
            alive[1500..].fill(false);
            let got = oracle.outliers();
            assert!(!got.is_empty() && got.len() < 1500);
            assert_eq!(got, brute_outliers(shape, &pts, &alive));

            // Stream the last 500 in, take 400 scattered ones out.
            for id in 1500..2000 {
                oracle.insert(id as u64, &pts[id * d..(id + 1) * d]);
                alive[id] = true;
            }
            for id in (0..2000).step_by(5) {
                assert!(oracle.remove(id as u64, &pts[id * d..(id + 1) * d]));
                alive[id] = false;
            }
            assert!(!oracle.remove(0, &pts[..d]), "already removed");
            assert_eq!(oracle.len(), 1600);
            assert_eq!(oracle.outliers(), brute_outliers(shape, &pts, &alive));

            // External queries count every resident point, capped at k.
            let queries = shape.queries(200, &pts, &mut rng);
            for q in queries.chunks_exact(d) {
                let all = oracle.count(q, None, usize::MAX);
                assert_eq!(oracle.score(q), (all.min(shape.k), all < shape.k));
            }
        }
    }

    #[test]
    fn planted_answer_flips_exactly_one_verdict() {
        let pts = SHAPE2.corpus(500, &mut Rng::new(2));
        let mut oracle = Oracle::with_points(2, SHAPE2.r, SHAPE2.k, &pts);
        let honest = oracle.outliers();
        oracle.plant_wrong_answer(honest[0]);
        let planted = oracle.outliers();
        assert_eq!(planted.len(), honest.len() - 1);
        assert!(!planted.contains(&honest[0]));
    }
}
