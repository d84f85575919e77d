//! The load-bearing guarantee of the whole system (Lemma 3.1): every
//! combination of partitioning strategy and detection mode returns
//! exactly the distance-threshold outliers of Definition 2.2.

use dod::prelude::*;
use dod_integration::{mixed_density, reference_outliers, uniform_nd};
use proptest::prelude::*;

fn test_config(params: OutlierParams) -> DodConfig {
    DodConfig::builder(params)
        .sample_rate(1.0)
        .block_size(128)
        .num_reducers(5)
        .target_partitions(12)
        .build()
        .unwrap()
}

type Apply = Box<dyn Fn(dod::DodRunnerBuilder) -> dod::DodRunnerBuilder>;

fn all_runners(params: OutlierParams) -> Vec<(String, DodRunner)> {
    let mut runners = Vec::new();
    let modes: Vec<(&str, Apply)> = vec![
        ("nl", Box::new(|b| b.fixed(AlgorithmKind::NestedLoop))),
        ("cb", Box::new(|b| b.fixed(AlgorithmKind::CellBased))),
        ("ib", Box::new(|b| b.fixed(AlgorithmKind::IndexBased))),
        ("mt", Box::new(|b| b.multi_tactic())),
    ];
    for (mode_name, apply_mode) in &modes {
        let strategies: Vec<(&str, Apply)> = vec![
            ("domain", Box::new(|b| b.strategy(Domain))),
            ("unispace", Box::new(|b| b.strategy(UniSpace))),
            ("ddriven", Box::new(|b| b.strategy(DDriven))),
            (
                "cdriven",
                Box::new(|b| b.strategy(CDriven::new(AlgorithmKind::NestedLoop))),
            ),
            ("dmt", Box::new(|b| b.strategy(Dmt::default()))),
        ];
        for (strat_name, apply_strat) in strategies {
            let builder = DodRunner::builder().config(test_config(params));
            let runner = apply_mode(apply_strat(builder)).build();
            runners.push((format!("{strat_name}+{mode_name}"), runner));
        }
    }
    runners
}

#[test]
fn full_matrix_matches_reference_on_mixed_density_data() {
    let data = mixed_density(1, 700);
    let params = OutlierParams::new(1.2, 4).unwrap();
    let expected = reference_outliers(&data, params);
    assert!(!expected.is_empty(), "test data should contain outliers");
    for (name, runner) in all_runners(params) {
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, expected, "configuration {name}");
    }
}

#[test]
fn full_matrix_matches_reference_in_three_dimensions() {
    let data = uniform_nd(2, 400, 3, 12.0);
    let params = OutlierParams::new(1.6, 3).unwrap();
    let expected = reference_outliers(&data, params);
    for (name, runner) in all_runners(params) {
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, expected, "configuration {name}");
    }
}

#[test]
fn full_matrix_matches_reference_on_a_grid_past_cell_ids() {
    // 12 isolated points in 8-d whose bounding box spans 512 Cell-Based
    // cells (side r/(2√8)) per dimension — 2^72 cells — and 91 Domain
    // candidate cells (side r) per dimension — 4.7·10^15. Cell ids used to
    // wrap, and Domain's candidate index allocated one `Vec` per cell and
    // aborted.
    let w = 1.0 / (2.0 * 8f64.sqrt());
    let mut data = PointSet::new(8).unwrap();
    data.push(&[0.0; 8]).unwrap();
    data.push(&[511.5 * w; 8]).unwrap();
    for j in 1..=10 {
        let mut p = [0.0; 8];
        p[0] = 16.0 * j as f64 * w;
        data.push(&p).unwrap();
    }
    let params = OutlierParams::new(1.0, 2).unwrap();
    let expected = reference_outliers(&data, params);
    assert_eq!(expected.len(), 12);
    for (name, runner) in all_runners(params) {
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, expected, "configuration {name}");
    }
}

/// DMT with per-partition selection, planned over 32 partitions of a
/// 4000-point mixed-density corpus, returns the reference set.
#[test]
fn dmt_multi_tactic_matches_reference_on_mixed_density() {
    let data = mixed_density(7, 4000);
    let params = OutlierParams::new(1.0, 4).unwrap();
    let config = DodConfig::builder(params)
        .target_partitions(32)
        .sample_rate(1.0)
        .build()
        .unwrap();
    let runner = DodRunner::builder()
        .config(config)
        .strategy(Dmt::default())
        .multi_tactic()
        .build();
    let expected = reference_outliers(&data, params);
    assert_eq!(runner.run(&data).unwrap().outliers, expected);
}

#[test]
fn repeated_runs_are_deterministic() {
    let data = mixed_density(3, 500);
    let params = OutlierParams::new(1.0, 3).unwrap();
    let runner = DodRunner::builder()
        .config(test_config(params))
        .multi_tactic()
        .build();
    let first = runner.run(&data).unwrap().outliers;
    for _ in 0..3 {
        assert_eq!(runner.run(&data).unwrap().outliers, first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_data_random_params_exact(
        seed in 0u64..10_000,
        n in 1usize..150,
        r in 0.2f64..4.0,
        k in 1usize..6,
        reducers in 1usize..6,
        partitions in 1usize..20,
    ) {
        let data = mixed_density(seed, n);
        let params = OutlierParams::new(r, k).unwrap();
        let expected = reference_outliers(&data, params);
        // Direct field mutation (possible because the fields stay `pub`)
        // deliberately bypasses builder validation: the proptest ranges
        // include degenerate reducer/partition combinations the builder
        // rejects, and exactness must hold even for those.
        let mut config = test_config(params);
        config.num_reducers = reducers;
        config.target_partitions = partitions;
        // DMT multi-tactic, the full system.
        let runner = DodRunner::builder().config(config.clone()).multi_tactic().build();
        prop_assert_eq!(&runner.run(&data).unwrap().outliers, &expected);
        // Domain two-job baseline, the trickiest correctness path.
        let runner = DodRunner::builder()
            .config(config)
            .strategy(Domain)
            .fixed(AlgorithmKind::CellBased)
            .build();
        prop_assert_eq!(&runner.run(&data).unwrap().outliers, &expected);
    }
}

/// Source audit: the batch record path copies no point before the
/// reducer's tile. The mappers and the loader neither `to_vec` nor clone
/// a coordinate vector, a shuffle record names its row instead of
/// holding (or borrowing) coordinates, the executor lends each key group
/// instead of cloning its records, every job loads its input through the
/// one loader, and no thread-local scratch hides a per-call buffer.
#[test]
fn batch_record_path_copies_no_point() {
    fn shipped(source: &str) -> &str {
        source.split("#[cfg(test)]").next().unwrap()
    }
    /// The text of every block that starts with `opener`, each up to its
    /// closing brace at the start of a line.
    fn blocks<'a>(source: &'a str, opener: &str) -> Vec<&'a str> {
        let found: Vec<&str> = source
            .match_indices(opener)
            .map(|(at, _)| &source[at..at + source[at..].find("\n}\n").unwrap()])
            .collect();
        assert!(!found.is_empty(), "no `{opener}` block to audit");
        found
    }
    fn forbid(name: &str, text: &str, patterns: &[&str]) {
        for pattern in patterns {
            let hits: Vec<&str> = text.lines().filter(|l| l.contains(pattern)).collect();
            assert!(hits.is_empty(), "{name}: `{pattern}` is back: {hits:?}");
        }
    }

    let framework = shipped(include_str!("../../crates/dod/src/framework.rs"));
    let two_job = shipped(include_str!("../../crates/dod/src/two_job.rs"));
    let copies = [".to_vec()", ".to_owned()", ".clone()", "Cow::Owned"];
    for (name, source) in [("framework.rs", framework), ("two_job.rs", two_job)] {
        for block in blocks(source, "impl<'a> Mapper for") {
            forbid(name, block, &copies);
        }
    }
    forbid(
        "framework.rs loader",
        blocks(framework, "pub fn load_points")[0],
        &copies,
    );
    // Records name rows: no record owns or borrows coordinates.
    forbid("framework.rs", framework, &["Cow"]);

    let job = shipped(include_str!("../../crates/mapreduce/src/job.rs"));
    forbid("job.rs", job, &["v.clone()", "M::V: Clone", "V: Clone"]);

    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/dod/src");
    let mut pending = vec![src];
    let mut loaders = 0;
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
                continue;
            }
            let source = std::fs::read_to_string(&path).unwrap();
            let name = path.display().to_string();
            forbid(&name, &source, &["thread_local!"]);
            for builder in ["BlockStore::from_items", "BlockStore::from_blocks"] {
                loaders += shipped(&source).matches(builder).count();
            }
        }
    }
    assert_eq!(loaders, 1, "one loader builds every job's block store");
}
