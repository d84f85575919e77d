//! Seeded corpus and query generation.
//!
//! A workload's [`Shape`] — cluster centres, sizes, spreads, `r`, `k` —
//! is a constant; `--seed` only picks the points drawn from it, so ten
//! seeds give statistically equal work. Coordinates are rounded to six
//! decimals (geo-like precision): the CSV the program reads, the JSON
//! requests it receives and the oracle all see the same `f64` bits.

use std::io::Write;
use std::path::Path;

/// xoshiro256** seeded through splitmix64: the benchmark's only source
/// of randomness, so that inputs depend on `--seed` and nothing else.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Standard normal (Box–Muller; the second variate is dropped to
    /// keep the stream position a function of the call count alone).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// One Gaussian component of a corpus.
pub struct Cluster {
    pub centre: &'static [f64],
    pub sigma: f64,
    /// Share of the corpus drawn from this component.
    pub share: f64,
}

/// The fixed shape of a workload's corpus: a Gaussian mixture over a
/// uniform background inside the cube `[0, side]^dim`.
pub struct Shape {
    pub dim: usize,
    pub side: f64,
    pub clusters: &'static [Cluster],
    pub r: f64,
    pub k: usize,
}

/// Corpus points keep this far from the cube's faces and streamed points
/// three times as far. A streamed point therefore never falls outside
/// the resident set's bounding box, which would force an epoch swap by
/// chance; swaps then come from the staleness rule alone, the same
/// number for every seed.
const MARGIN: f64 = 0.5;
const STREAM_MARGIN: f64 = 3.0 * MARGIN;

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

impl Shape {
    /// Appends one point of the mixture, `margin` inside the cube.
    fn draw(&self, rng: &mut Rng, margin: f64, out: &mut Vec<f64>) {
        let mut pick = rng.unit();
        let cluster = self.clusters.iter().find(|c| {
            pick -= c.share;
            pick < 0.0
        });
        let (lo, hi) = (margin, self.side - margin);
        for d in 0..self.dim {
            let x = match cluster {
                // Redraw the rare tail that leaves the cube; clamping
                // would pile points onto its faces.
                Some(c) => loop {
                    let x = c.centre[d] + c.sigma * rng.normal();
                    if (lo..=hi).contains(&x) {
                        break x;
                    }
                },
                None => lo + (hi - lo) * rng.unit(),
            };
            out.push(round6(x));
        }
    }

    fn points(&self, n: usize, margin: f64, rng: &mut Rng) -> Vec<f64> {
        let mut out = Vec::with_capacity(n * self.dim);
        for _ in 0..n {
            self.draw(rng, margin, &mut out);
        }
        out
    }

    /// `n` resident points of the mixture, flat row-major.
    pub fn corpus(&self, n: usize, rng: &mut Rng) -> Vec<f64> {
        self.points(n, MARGIN, rng)
    }

    /// `n` points of the same mixture to insert into a resident corpus.
    pub fn stream(&self, n: usize, rng: &mut Rng) -> Vec<f64> {
        self.points(n, STREAM_MARGIN, rng)
    }

    /// `n` query points: four in five within about `r` of a resident
    /// point (the common case for a scorer fed from the same source as
    /// its corpus), one in five uniform over the cube (mostly empty
    /// space, where the verdict is "outlier" after little work).
    pub fn queries(&self, n: usize, resident: &[f64], rng: &mut Rng) -> Vec<f64> {
        let resident_len = resident.len() / self.dim;
        let mut out = Vec::with_capacity(n * self.dim);
        for _ in 0..n {
            if rng.unit() < 0.8 {
                let base = rng.below(resident_len) * self.dim;
                for d in 0..self.dim {
                    let x = resident[base + d] + 0.5 * self.r * rng.normal();
                    out.push(round6(x.clamp(0.0, self.side)));
                }
            } else {
                for _ in 0..self.dim {
                    out.push(round6(self.side * rng.unit()));
                }
            }
        }
        out
    }
}

/// Writes one point as comma-separated shortest-round-trip decimals.
pub fn write_row(out: &mut impl Write, point: &[f64]) -> std::io::Result<()> {
    for (d, x) in point.iter().enumerate() {
        if d > 0 {
            out.write_all(b",")?;
        }
        write!(out, "{x}")?;
    }
    Ok(())
}

/// The corpus as CSV bytes, one point per line.
pub fn csv_bytes(points: &[f64], dim: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(points.len() * 11);
    for p in points.chunks_exact(dim) {
        write_row(&mut out, p).expect("writing to a Vec cannot fail");
        out.push(b'\n');
    }
    out
}

pub fn write_csv(path: &Path, points: &[f64], dim: usize) -> std::io::Result<()> {
    std::fs::write(path, csv_bytes(points, dim))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        dim: 2,
        side: 20.0,
        clusters: &[Cluster {
            centre: &[5.0, 5.0],
            sigma: 1.0,
            share: 0.7,
        }],
        r: 1.0,
        k: 4,
    };

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = csv_bytes(&SHAPE.corpus(500, &mut Rng::new(7)), 2);
        let b = csv_bytes(&SHAPE.corpus(500, &mut Rng::new(7)), 2);
        let c = csv_bytes(&SHAPE.corpus(500, &mut Rng::new(8)), 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_keeps_its_shape_and_stays_inside_the_cube() {
        let pts = SHAPE.corpus(4000, &mut Rng::new(1));
        assert_eq!(pts.len(), 8000);
        assert!(pts.iter().all(|x| (MARGIN..=20.0 - MARGIN).contains(x)));
        let near = pts
            .chunks_exact(2)
            .filter(|p| (p[0] - 5.0).hypot(p[1] - 5.0) < 3.0)
            .count();
        // 70% Gaussian within 3 sigma plus a little background.
        assert!((2700..3100).contains(&near), "near = {near}");
    }

    #[test]
    fn csv_round_trips_the_exact_bits() {
        let pts = SHAPE.corpus(200, &mut Rng::new(3));
        let text = String::from_utf8(csv_bytes(&pts, 2)).unwrap();
        let back: Vec<f64> = text
            .lines()
            .flat_map(|l| l.split(','))
            .map(|f| f.parse().unwrap())
            .collect();
        assert_eq!(pts, back);
    }

    #[test]
    fn queries_are_seeded_and_inside_the_cube() {
        let pts = SHAPE.corpus(300, &mut Rng::new(3));
        let q1 = SHAPE.queries(100, &pts, &mut Rng::new(9));
        let q2 = SHAPE.queries(100, &pts, &mut Rng::new(9));
        assert_eq!(q1, q2);
        assert!(q1.iter().all(|x| (0.0..=20.0).contains(x)));
    }
}
