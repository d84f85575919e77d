//! Shared helpers for the cross-crate integration tests.
//!
//! The tests themselves live in `tests/tests/`; this library provides the
//! dataset builders and the reference oracle they all compare against.

use dod_core::{OutlierParams, PointId, PointSet};
use dod_detect::{Detector, Partition, Reference};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground-truth outliers via the brute-force oracle.
pub fn reference_outliers(data: &PointSet, params: OutlierParams) -> Vec<PointId> {
    Reference
        .detect(&Partition::standalone(data.clone()), params)
        .outliers
}

/// A mixed-density 2-d dataset: dense blob, moderate cluster, sparse
/// background — the shape that exercises every branch of the
/// multi-tactic machinery.
pub fn mixed_density(seed: u64, n: usize) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = PointSet::new(2).expect("dim 2");
    for _ in 0..n {
        let roll: f64 = rng.gen();
        let p = if roll < 0.4 {
            [rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)]
        } else if roll < 0.8 {
            [rng.gen_range(20.0..44.0), rng.gen_range(10.0..34.0)]
        } else {
            [rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)]
        };
        data.push(&p).expect("dim 2");
    }
    data
}

/// A dataset of `n` points uniform over a `side × side` square in `dim`
/// dimensions.
pub fn uniform_nd(seed: u64, n: usize, dim: usize, side: f64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = PointSet::new(dim).expect("dim >= 1");
    let mut buf = vec![0.0; dim];
    for _ in 0..n {
        for b in buf.iter_mut() {
            *b = rng.gen_range(0.0..side);
        }
        data.push(&buf).expect("same dim");
    }
    data
}

/// Every `.rs` file under `dir` (relative to the workspace root), as
/// `(path relative to the root, contents)`, sorted by path — the input of
/// the source-audit tests.
pub fn workspace_sources(dir: &str) -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut pending = vec![root.join(dir)];
    let mut files = Vec::new();
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable source directory") {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source file");
                let rel = path.strip_prefix(&root).unwrap_or(&path);
                files.push((rel.to_string_lossy().into_owned(), text));
            }
        }
    }
    files.sort();
    files
}

/// The shipped part of a source file: everything before its first
/// `#[cfg(test)]`, without comment lines.
pub fn shipped_lines(source: &str) -> impl Iterator<Item = &str> {
    source
        .split("#[cfg(test)]")
        .next()
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
}
