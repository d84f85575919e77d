//! Streaming-ingest equivalence oracle.
//!
//! The engine's contract for `Request::Insert` / `Request::Remove` /
//! `Request::Window` is exactness under churn: after ANY interleaving of
//! mutations and queries, the resident outlier set must be bit-identical
//! to a from-scratch pipeline run over the surviving points — whether a
//! given batch was absorbed incrementally (spliced into resident
//! indexes) or fell back to an epoch-swap rebuild is invisible in the
//! answers. The oracle below maintains a shadow model (the surviving
//! `(id, coords)` pairs in id order), replays a scripted interleaving
//! against the engine, and checks the resident `Detect` answer against a
//! fresh build over the survivors after every mutation, across the same
//! three strategy/mode combinations the chaos suite covers.

use dod::prelude::*;
use dod_engine::{Engine, Request, WindowConfig};
use dod_integration::mixed_density;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn config(params: OutlierParams) -> DodConfig {
    DodConfig::builder(params)
        .sample_rate(1.0)
        .block_size(32)
        .num_reducers(3)
        .target_partitions(8)
        .build()
        .unwrap()
}

/// The three partitioning/mode combinations under test (mirrors the
/// chaos matrix).
#[derive(Clone, Copy, Debug)]
enum Strat {
    UniSpaceFixed,
    DDrivenCell,
    DmtMultiTactic,
}

const STRATS: [Strat; 3] = [
    Strat::UniSpaceFixed,
    Strat::DDrivenCell,
    Strat::DmtMultiTactic,
];

fn runner_for(strat: Strat, cfg: DodConfig) -> DodRunner {
    let b = DodRunner::builder().config(cfg);
    match strat {
        Strat::UniSpaceFixed => b
            .strategy(UniSpace)
            .fixed(AlgorithmKind::NestedLoop)
            .build(),
        Strat::DDrivenCell => b.strategy(DDriven).fixed(AlgorithmKind::CellBased).build(),
        Strat::DmtMultiTactic => b.strategy(Dmt::default()).multi_tactic().build(),
    }
}

/// The ground truth: a from-scratch pipeline run over the surviving
/// points, with positional outlier ids mapped back to engine ids.
fn fresh_outliers(strat: Strat, params: OutlierParams, survivors: &[(u64, Vec<f64>)]) -> Vec<u64> {
    let mut data = PointSet::new(2).unwrap();
    for (_, p) in survivors {
        data.push(p).unwrap();
    }
    let fresh = runner_for(strat, config(params))
        .run(&data)
        .unwrap()
        .outliers;
    fresh.iter().map(|&i| survivors[i as usize].0).collect()
}

fn resident_outliers(engine: &Engine) -> Vec<u64> {
    engine
        .execute(Request::Detect)
        .unwrap()
        .into_outliers()
        .unwrap()
}

/// Replays a seeded interleaving of insert/remove/score ops against one
/// strategy's engine, checking the detect oracle after every mutation.
fn run_interleaving(strat: Strat, data_seed: u64, op_seed: u64, ops: usize) {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = mixed_density(data_seed, 80);
    let engine = Engine::builder(runner_for(strat, config(params)))
        .workers(2)
        .build(&data)
        .unwrap();

    // Shadow model: surviving (id, coords), in id order.
    let mut survivors: Vec<(u64, Vec<f64>)> = (0..data.len())
        .map(|i| (i as u64, data.point(i).to_vec()))
        .collect();
    let mut next_id = data.len() as u64;
    let mut rng = StdRng::seed_from_u64(op_seed);

    assert_eq!(
        resident_outliers(&engine),
        fresh_outliers(strat, params, &survivors),
        "{strat:?}: diverged before any mutation"
    );

    for step in 0..ops {
        match rng.gen_range(0u8..4) {
            // Insert 1–3 points: jittered copies of residents (likely
            // absorbed incrementally) and occasional far-out points
            // (out of domain: forces the epoch-swap fallback).
            0 | 1 => {
                let n = rng.gen_range(1..=3);
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    let p = if rng.gen_bool(0.2) || survivors.is_empty() {
                        vec![rng.gen_range(-30.0..30.0), rng.gen_range(-30.0..30.0)]
                    } else {
                        let (_, base) = &survivors[rng.gen_range(0..survivors.len())];
                        vec![
                            base[0] + rng.gen_range(-0.4..0.4),
                            base[1] + rng.gen_range(-0.4..0.4),
                        ]
                    };
                    points.push(p);
                }
                let receipt = engine
                    .execute(Request::Insert {
                        points: points.clone(),
                    })
                    .unwrap()
                    .into_insert()
                    .unwrap();
                let expected_ids: Vec<u64> = (next_id..next_id + n as u64).collect();
                assert_eq!(receipt.ids, expected_ids, "{strat:?} step {step}");
                for (id, p) in expected_ids.iter().zip(points) {
                    survivors.push((*id, p));
                }
                next_id += n as u64;
            }
            // Remove 1–2 surviving points (plus sometimes a missing id).
            2 => {
                let mut ids = Vec::new();
                for _ in 0..rng.gen_range(1..=2usize) {
                    if survivors.len() > 10 {
                        let victim = rng.gen_range(0..survivors.len());
                        ids.push(survivors.remove(victim).0);
                    }
                }
                let missing = rng.gen_bool(0.3);
                if missing {
                    ids.push(next_id + 1000);
                }
                let removed = ids.len() - usize::from(missing);
                let receipt = engine
                    .execute(Request::Remove { ids })
                    .unwrap()
                    .into_remove()
                    .unwrap();
                assert_eq!(receipt.removed, removed, "{strat:?} step {step}");
                assert_eq!(receipt.missing, usize::from(missing));
                assert_eq!(receipt.resident, survivors.len());
            }
            // Score a probe batch: interleaves read traffic between the
            // mutations (and feeds the drift accounting).
            _ => {
                let points: Vec<Vec<f64>> = (0..3)
                    .map(|_| vec![rng.gen_range(-2.0..12.0), rng.gen_range(-2.0..12.0)])
                    .collect();
                engine.execute(Request::Score { points }).unwrap();
            }
        }
        assert_eq!(
            resident_outliers(&engine),
            fresh_outliers(strat, params, &survivors),
            "{strat:?}: diverged after step {step}"
        );
    }
}

/// Fixed seeds × all three strategies: fast, deterministic anchor.
#[test]
fn incremental_mutations_match_fresh_rebuild_for_every_strategy() {
    for strat in STRATS {
        run_interleaving(strat, 51, 52, 12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random interleavings on the heaviest strategy (multi-tactic: all
    // detector kinds can appear, so splice paths for every resident
    // index structure get exercised).
    #[test]
    fn random_interleavings_stay_exact(
        data_seed in 1u64..1000,
        op_seed in 1u64..1000,
    ) {
        run_interleaving(Strat::DmtMultiTactic, data_seed, op_seed, 8);
    }
}

/// One scripted history of the cases id-addressed swap-removal makes
/// sharp, checked against the rebuild oracle after every op.
fn run_edge_history(strat: Strat, seed: u64) {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = mixed_density(seed, 70);
    // Odd seeds never epoch-swap on staleness, so every op below is
    // spliced; even seeds let the swaps fall where they fall.
    let staleness = if seed % 2 == 1 { 1e9 } else { 0.5 };
    let engine = Engine::builder(runner_for(strat, config(params)))
        .workers(2)
        .staleness_threshold(staleness)
        .build(&data)
        .unwrap();
    let mut survivors: Vec<(u64, Vec<f64>)> = (0..data.len())
        .map(|i| (i as u64, data.point(i).to_vec()))
        .collect();
    let mut next_id = data.len() as u64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut step = 0;
    let mut check = |survivors: &[(u64, Vec<f64>)], what: &str| {
        step += 1;
        assert_eq!(
            resident_outliers(&engine),
            fresh_outliers(strat, params, survivors),
            "{strat:?} seed {seed}: diverged after step {step} ({what})"
        );
    };
    let insert = |points: Vec<Vec<f64>>| {
        engine
            .execute(Request::Insert { points })
            .unwrap()
            .into_insert()
            .unwrap()
    };
    let remove = |ids: Vec<u64>| {
        engine
            .execute(Request::Remove { ids })
            .unwrap()
            .into_remove()
            .unwrap()
    };

    // Four jittered copies of one resident point: the tail of its
    // partition's core tile.
    let (base_id, base) = survivors[rng.gen_range(0..survivors.len())].clone();
    let near: Vec<Vec<f64>> = (0..4)
        .map(|_| {
            vec![
                (base[0] + rng.gen_range(-0.05..0.05)).clamp(0.0, 60.0),
                (base[1] + rng.gen_range(-0.05..0.05)).clamp(0.0, 60.0),
            ]
        })
        .collect();
    let receipt = insert(near.clone());
    assert_eq!(
        receipt.ids,
        (next_id..next_id + 4).collect::<Vec<_>>(),
        "{strat:?} seed {seed}"
    );
    survivors.extend(receipt.ids.iter().copied().zip(near));
    let n = next_id;
    next_id += 4;
    check(&survivors, "insert near one point");

    // The last slot: nothing moves into the hole.
    assert_eq!(remove(vec![n + 3]).removed, 1);
    survivors.retain(|(id, _)| *id != n + 3);
    check(&survivors, "remove the newest point");

    // A victim and, in the same request, the point the swap just moved
    // into its slot (the newest of the same partition).
    assert_eq!(remove(vec![base_id, n + 2]).removed, 2);
    survivors.retain(|(id, _)| *id != base_id && *id != n + 2);
    check(
        &survivors,
        "remove a victim and the point moved into its slot",
    );

    // Repeated, dead and unknown ids: counted missing, applied once.
    let receipt = remove(vec![n, n, n + 3, base_id, 1_000_000]);
    assert_eq!(
        (receipt.removed, receipt.missing),
        (1, 4),
        "{strat:?} seed {seed}"
    );
    survivors.retain(|(id, _)| *id != n);
    assert_eq!(receipt.resident, survivors.len());
    check(&survivors, "repeated and dead ids");

    // Empty the dense corner — every partition inside it loses all of
    // its points — then insert into the hole.
    let in_corner = |p: &[f64]| p[0] < 4.0 && p[1] < 4.0;
    let corner: Vec<u64> = survivors
        .iter()
        .filter(|(_, p)| in_corner(p))
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(remove(corner.clone()).removed, corner.len());
    survivors.retain(|(_, p)| !in_corner(p));
    check(&survivors, "empty the dense corner");
    let refill: Vec<Vec<f64>> = (0..6)
        .map(|_| vec![rng.gen_range(0.5..3.5), rng.gen_range(0.5..3.5)])
        .collect();
    let receipt = insert(refill.clone());
    survivors.extend(receipt.ids.iter().copied().zip(refill));
    next_id += 6;
    check(&survivors, "insert into the emptied corner");

    // Window expiry and explicit removal of the same ids in one history:
    // the oldest point leaves by `Remove`, the next two by the window,
    // and an expired id is dead to a later `Remove`.
    let cap = survivors.len();
    let status = engine
        .execute(Request::Window {
            config: Some(WindowConfig {
                max_points: Some(cap),
                max_age: None,
            }),
        })
        .unwrap()
        .into_window()
        .unwrap();
    assert_eq!((status.expired, status.resident), (0, cap));
    let oldest = survivors.remove(0).0;
    assert_eq!(remove(vec![oldest]).removed, 1);
    check(&survivors, "remove the oldest under a window");
    let fresh: Vec<Vec<f64>> = (0..3)
        .map(|_| vec![rng.gen_range(20.0..44.0), rng.gen_range(10.0..34.0)])
        .collect();
    let receipt = insert(fresh.clone());
    assert_eq!(
        (receipt.expired, receipt.resident),
        (2, cap),
        "{strat:?} seed {seed}"
    );
    survivors.extend((next_id..next_id + 3).zip(fresh));
    let expired: Vec<u64> = survivors.drain(..2).map(|(id, _)| id).collect();
    check(&survivors, "window expiry after an explicit removal");
    let receipt = remove(vec![expired[0], oldest]);
    assert_eq!((receipt.removed, receipt.missing), (0, 2));
    check(&survivors, "remove what the window already expired");
}

/// Seeded edge-case histories × all three strategies.
#[test]
fn swap_remove_edge_cases_stay_exact_for_every_strategy() {
    for seed in 1..=4 {
        for strat in STRATS {
            run_edge_history(strat, seed);
        }
    }
}

/// A count-bounded window: inserts push the oldest points out, and the
/// resident answer still matches a fresh build over the survivors.
#[test]
fn count_bounded_window_expires_oldest_and_stays_exact() {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = mixed_density(61, 60);
    let cap = data.len();
    let engine = Engine::builder(runner_for(Strat::DmtMultiTactic, config(params)))
        .window(WindowConfig {
            max_points: Some(cap),
            max_age: None,
        })
        .build(&data)
        .unwrap();
    let mut survivors: Vec<(u64, Vec<f64>)> = (0..data.len())
        .map(|i| (i as u64, data.point(i).to_vec()))
        .collect();

    // Each batch of 5 inserts must expire the 5 oldest survivors.
    let mut next_id = data.len() as u64;
    for round in 0..4 {
        let points: Vec<Vec<f64>> = (0..5)
            .map(|i| {
                let (_, base) = &survivors[10 + i];
                vec![base[0] + 0.05, base[1] - 0.05]
            })
            .collect();
        let receipt = engine
            .execute(Request::Insert {
                points: points.clone(),
            })
            .unwrap()
            .into_insert()
            .unwrap();
        assert_eq!(receipt.expired, 5, "round {round}");
        assert_eq!(receipt.resident, cap);
        for (off, p) in points.into_iter().enumerate() {
            survivors.push((next_id + off as u64, p));
        }
        next_id += 5;
        survivors.drain(..5); // the 5 oldest fell out of the window
        assert_eq!(
            resident_outliers(&engine),
            fresh_outliers(Strat::DmtMultiTactic, params, &survivors),
            "round {round}: window expiry diverged from fresh rebuild"
        );
    }
}

/// An age-bounded window: once the initial points out-age the bound, the
/// next mutation op expires them all.
#[test]
fn age_bounded_window_expires_old_points() {
    let params = OutlierParams::new(1.2, 4).unwrap();
    let data = mixed_density(71, 30);
    let engine = Engine::builder(runner_for(Strat::DmtMultiTactic, config(params)))
        .window(WindowConfig {
            max_points: None,
            max_age: Some(Duration::from_millis(40)),
        })
        .build(&data)
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // A window tick after the bound has passed sweeps everything.
    let status = engine
        .execute(Request::Window { config: None })
        .unwrap()
        .into_window()
        .unwrap();
    assert_eq!(status.expired, data.len());
    assert_eq!(status.resident, 0);

    // Fresh inserts are young and survive the next tick.
    let receipt = engine
        .execute(Request::Insert {
            points: vec![vec![0.0, 0.0], vec![0.2, 0.0], vec![0.0, 0.2]],
        })
        .unwrap()
        .into_insert()
        .unwrap();
    assert_eq!(receipt.expired, 0);
    assert_eq!(receipt.resident, 3);
    let status = engine
        .execute(Request::Window { config: None })
        .unwrap()
        .into_window()
        .unwrap();
    assert_eq!(status.expired, 0);
    assert_eq!(status.resident, 3);
    // All three are mutual neighbors but below k=4: all outliers — and
    // their engine ids survived the churn.
    assert_eq!(
        resident_outliers(&engine),
        vec![30, 31, 32],
        "ids are stable across expiry"
    );
}

/// One scripted window history, for `params`: a 300-point build, two
/// insert batches, out-of-band removes (three inside the build's run),
/// a refresh that compacts, expiry by count, and then by age across
/// every run. A per-id model predicts which ids each step evicts,
/// oldest first; the engine's receipts must agree on the counts and its
/// detect answer must equal a fresh build over the model's survivors.
/// Returns the survivors' ids after each step.
fn scripted_window_history(params: OutlierParams) -> Vec<Vec<u64>> {
    let data = mixed_density(83, 300);
    let engine = Engine::builder(runner_for(Strat::DmtMultiTactic, config(params)))
        .build(&data)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(83);
    let mut survivors: Vec<(u64, Vec<f64>)> = (0..data.len())
        .map(|i| (i as u64, data.point(i).to_vec()))
        .collect();
    let mut steps = Vec::new();
    let mut check = |survivors: &[(u64, Vec<f64>)], step: &str| {
        assert_eq!(
            resident_outliers(&engine),
            fresh_outliers(Strat::DmtMultiTactic, params, survivors),
            "{step}"
        );
        steps.push(survivors.iter().map(|(id, _)| *id).collect());
    };
    let mut insert = |survivors: &mut Vec<(u64, Vec<f64>)>, n: usize| {
        let points: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(20.0..44.0), rng.gen_range(10.0..34.0)])
            .collect();
        let receipt = engine
            .execute(Request::Insert {
                points: points.clone(),
            })
            .unwrap()
            .into_insert()
            .unwrap();
        survivors.extend(receipt.ids.iter().copied().zip(points));
        receipt.expired
    };
    let remove = |survivors: &mut Vec<(u64, Vec<f64>)>, ids: &[u64]| {
        let receipt = engine
            .execute(Request::Remove { ids: ids.to_vec() })
            .unwrap()
            .into_remove()
            .unwrap();
        assert_eq!(receipt.removed, ids.len());
        survivors.retain(|(id, _)| !ids.contains(id));
    };
    let window = |max_points, max_age| {
        engine
            .execute(Request::Window {
                config: Some(WindowConfig {
                    max_points,
                    max_age,
                }),
            })
            .unwrap()
            .into_window()
            .unwrap()
            .expired
    };

    assert_eq!(insert(&mut survivors, 20), 0);
    assert_eq!(insert(&mut survivors, 30), 0);
    check(&survivors, "two insert batches");
    remove(&mut survivors, &[0, 2, 3, 150, 305]);
    check(&survivors, "removes inside the oldest runs");
    // A tick moves expiry's cursor past id 0 before the compaction
    // renumbers the slots under it.
    assert_eq!(window(None, None), 0);
    engine.refresh_plan().unwrap();
    check(&survivors, "refresh");

    // Expiry by count passes the removed ids and stops inside the build's
    // run; one more removal there, then an insert pushes out the next.
    let cap = survivors.len() - 40;
    assert_eq!(window(Some(cap), None), 40);
    survivors.drain(..40);
    check(&survivors, "expiry by count");
    assert_eq!(survivors[0].0, 43, "ids 0, 2 and 3 were already gone");
    remove(&mut survivors, &[44]);
    assert_eq!(insert(&mut survivors, 12), 11);
    survivors.drain(..11);
    check(&survivors, "an insert under the count bound");

    // Expiry by age: everything but the youngest batch outlives the
    // bound, across the build's run and three insert runs.
    assert_eq!(window(None, None), 0);
    let age = Duration::from_millis(300);
    std::thread::sleep(2 * age);
    assert_eq!(insert(&mut survivors, 5), 0);
    let young = survivors.split_off(survivors.len() - 5);
    assert_eq!(window(None, Some(age)), survivors.len());
    survivors = young;
    check(&survivors, "expiry by age");
    steps
}

/// Window expiry over the run-length arrival queue evicts exactly the
/// ids a per-id model predicts, oldest first, through out-of-band
/// removes and a compaction, and the answers stay exact. With `k` above
/// the point count every resident point is an outlier, so the detect
/// answer lists the survivors themselves.
#[test]
fn window_expiry_follows_arrival_order_through_compaction() {
    let exact = scripted_window_history(OutlierParams::new(1.2, 4).unwrap());
    let listed = scripted_window_history(OutlierParams::new(1.2, 10_000).unwrap());
    assert_eq!(exact, listed);
}

/// Source audit: removal stays a lookup. The non-test portion of the
/// resident state finds a point by its id map — no `.position(` over the
/// id column, no coordinate compare over the support tile — the
/// Cell-Based tiles find an entry by their slot → position map, with no
/// `.position(` or `.find(` over a cell's run, and the engine keeps no
/// id → slot map beside its sorted `ids` column.
#[test]
fn removal_paths_hold_no_linear_search() {
    let audits: [(&str, &str, &[&str]); 3] = [
        (
            "state.rs",
            include_str!("../../crates/dod-detect/src/state.rs"),
            &[".position(", "support.point(i) =="],
        ),
        (
            "cell_based.rs",
            include_str!("../../crates/dod-detect/src/cell_based.rs"),
            &[".position(", ".find("],
        ),
        (
            "engine.rs",
            include_str!("../../crates/dod-engine/src/engine.rs"),
            &["index_of"],
        ),
    ];
    for (name, source, forbidden) in audits {
        let shipped = source.split("#[cfg(test)]").next().unwrap();
        for pattern in forbidden {
            let violations: Vec<&str> = shipped.lines().filter(|l| l.contains(pattern)).collect();
            assert!(
                violations.is_empty(),
                "{name}: `{pattern}` is back on the removal path: {violations:?}"
            );
        }
    }
}
