//! One function per figure of the paper's evaluation, plus the ablations
//! called out in DESIGN.md §5.
//!
//! Every function is deterministic given the [`Scale`] and returns the
//! series the corresponding figure plots; the `repro` binary renders them
//! as tables and EXPERIMENTS.md records paper-vs-measured.

use crate::scale::Scale;
use crate::setup::{build_runner, experiment_config, ModeChoice, StrategyChoice};
use dod::prelude::*;
use dod_core::Rect;
use dod_data::hierarchy::{hierarchy_dataset, HierarchyLevel};
use dod_data::region::{region_dataset, Region};
use dod_data::uniform::{sparse_dense_pair, uniform_with_density_measure};
use dod_data::{distort, tiger_analog};
use dod_detect::cost::CostModel;
use dod_detect::{CellBased, Detector, NestedLoop, Partition};
use dod_obs::{names, MemoryRecorder, Obs};
use dod_partition::AllocationSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-stage timing of one pipeline configuration (a Figure 10 bar
/// group).
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Configuration label.
    pub label: String,
    /// Preprocessing time.
    pub preprocess: Duration,
    /// Map-stage makespan.
    pub map: Duration,
    /// Reduce-stage makespan.
    pub reduce: Duration,
    /// Number of outliers found (identical across configurations by
    /// construction — checked by the integration tests).
    pub outliers: usize,
}

impl StageRow {
    /// End-to-end simulated time.
    pub fn total(&self) -> Duration {
        self.preprocess + self.map + self.reduce
    }
}

fn run_pipeline(
    label: impl Into<String>,
    strategy: StrategyChoice,
    mode: ModeChoice,
    params: OutlierParams,
    data: &PointSet,
) -> StageRow {
    // Best of 3 runs: single-shot wall times at the millisecond scale are
    // noisy; the minimum is the standard robust estimator.
    let runner = build_runner(strategy, mode, experiment_config(params));
    let mut best: Option<StageRow> = None;
    let label = label.into();
    for _ in 0..3 {
        let outcome = runner.run(data).expect("experiment pipeline runs");
        let b = outcome.report.breakdown;
        let row = StageRow {
            label: label.clone(),
            preprocess: b.preprocess,
            map: b.map,
            reduce: b.reduce,
            outliers: outcome.outliers.len(),
        };
        if best.as_ref().is_none_or(|prev| row.total() < prev.total()) {
            best = Some(row);
        }
    }
    best.expect("three runs executed")
}

// ---------------------------------------------------------------------
// Figure 4: Nested-Loop sensitivity to density.
// ---------------------------------------------------------------------

/// One bar of Figure 4(a).
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Dataset name (`D-Sparse` / `D-Dense`).
    pub dataset: &'static str,
    /// Measured Nested-Loop execution time.
    pub time: Duration,
    /// Distance evaluations performed (the cost-model unit).
    pub evals: u64,
}

/// Figure 4(a): Nested-Loop on two equal-cardinality datasets whose
/// densities differ 4×; `r = 5`, `k = 4` as in the paper.
pub fn fig4(scale: &Scale) -> Vec<Fig4Row> {
    let params = OutlierParams::new(5.0, 4).expect("paper parameters");
    let (sparse, dense) = sparse_dense_pair(scale.fig45_n, 41);
    let mut rows = Vec::new();
    for (name, data) in [("D-Sparse", sparse), ("D-Dense", dense)] {
        let partition = Partition::standalone(data);
        let start = Instant::now();
        let det = NestedLoop::default().detect(&partition, params);
        rows.push(Fig4Row {
            dataset: name,
            time: start.elapsed(),
            evals: det.stats.distance_evaluations,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 5: Nested-Loop vs Cell-Based across densities.
// ---------------------------------------------------------------------

/// One x-position of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// The density measure (`n·πr²/A`, the figure's x-axis).
    pub density_measure: f64,
    /// Cell-Based (Knorr & Ng block-restricted fallback) execution time.
    pub cell_based: Duration,
    /// Cell-Based with the Lemma 4.2 full-scan fallback — the variant the
    /// paper's cost model charges and its Figure 5 exhibits.
    pub cell_based_full: Duration,
    /// Nested-Loop execution time.
    pub nested_loop: Duration,
}

/// Figure 5: the algorithm crossover. Density measure swept 0.01 → 100
/// by shrinking the domain at fixed cardinality; `r = 5`, `k = 4`.
pub fn fig5(scale: &Scale) -> Vec<Fig5Row> {
    let params = OutlierParams::new(5.0, 4).expect("paper parameters");
    let measures = [0.01, 0.1, 0.5, 1.0, 3.0, 6.0, 10.0, 30.0, 100.0];
    let mut rows = Vec::new();
    for (i, &m) in measures.iter().enumerate() {
        let (data, _domain) =
            uniform_with_density_measure(scale.fig45_n, params.r, m, 51 + i as u64);
        let partition = Partition::standalone(data);
        let t0 = Instant::now();
        let _ = CellBased::default().detect(&partition, params);
        let cell_based = t0.elapsed();
        let t1 = Instant::now();
        let _ = CellBased::default()
            .full_scan_fallback()
            .detect(&partition, params);
        let cell_based_full = t1.elapsed();
        let t2 = Instant::now();
        let _ = NestedLoop::default().detect(&partition, params);
        let nested_loop = t2.elapsed();
        rows.push(Fig5Row {
            density_measure: m,
            cell_based,
            cell_based_full,
            nested_loop,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 7: partitioning effectiveness across distributions.
// ---------------------------------------------------------------------

/// One region group of Figure 7: strategy times as ratios to CDriven.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Region abbreviation.
    pub region: &'static str,
    /// `(strategy, end-to-end time, ratio to CDriven)`, in plot order
    /// (Domain, uniSpace, DDriven, CDriven).
    pub strategies: Vec<(&'static str, Duration, f64)>,
}

/// Figure 7(a)/(b): the four partitioning strategies on the four region
/// analogs, with the detector at the reducers fixed to `mode`.
pub fn fig7(scale: &Scale, mode: ModeChoice) -> Vec<Fig7Row> {
    // r chosen so the sparse OH analog sits in the intermediate-density
    // band (Nested-Loop territory) while CA/NY prune as inliers.
    let params = OutlierParams::new(1.8, 4).expect("valid parameters");
    let mut rows = Vec::new();
    for region in Region::ALL {
        let (data, _domain) = region_dataset(region, scale.region_n, 71);
        let mut times = Vec::new();
        for strategy in StrategyChoice::FIG78 {
            let row = run_pipeline(strategy.label(), strategy, mode, params, &data);
            times.push((strategy.label(), row.total()));
        }
        let cdriven = times.last().expect("four strategies").1;
        let strategies = times
            .into_iter()
            .map(|(label, t)| {
                let ratio = t.as_secs_f64() / cdriven.as_secs_f64().max(1e-12);
                (label, t, ratio)
            })
            .collect();
        rows.push(Fig7Row {
            region: region.abbrev(),
            strategies,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 8: partitioning scalability across data sizes.
// ---------------------------------------------------------------------

/// One level group of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Hierarchy level abbreviation.
    pub level: &'static str,
    /// Number of points at this level.
    pub n: usize,
    /// `(strategy, end-to-end time)` in plot order.
    pub strategies: Vec<(&'static str, Duration)>,
}

/// Figure 8(a)/(b): the four strategies on the MA → Planet hierarchy,
/// detector fixed to `mode`.
pub fn fig8(scale: &Scale, mode: ModeChoice) -> Vec<Fig8Row> {
    let params = OutlierParams::new(2.0, 4).expect("valid parameters");
    let mut rows = Vec::new();
    for level in HierarchyLevel::ALL {
        let (data, _domain) = hierarchy_dataset(level, scale.hierarchy_base, 81);
        let mut strategies = Vec::new();
        for strategy in StrategyChoice::FIG78 {
            let row = run_pipeline(strategy.label(), strategy, mode, params, &data);
            strategies.push((strategy.label(), row.total()));
        }
        rows.push(Fig8Row {
            level: level.abbrev(),
            n: data.len(),
            strategies,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 9: detection methods.
// ---------------------------------------------------------------------

/// One group of Figure 9: Nested-Loop vs Cell-Based vs DMT.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Dataset label (region or hierarchy level).
    pub dataset: String,
    /// Number of points.
    pub n: usize,
    /// `(method, end-to-end time)` for NL / CB / DMT.
    pub methods: Vec<(&'static str, Duration)>,
}

/// The three Figure 9 configurations: monolithic detectors run on the
/// most advanced cost-driven partitioning; DMT is the full system.
fn fig9_methods(params: OutlierParams, data: &PointSet, label: String, n: usize) -> Fig9Row {
    let mut methods = Vec::new();
    for (name, strategy, mode) in [
        (
            "Nested-Loop",
            StrategyChoice::CDriven,
            ModeChoice::NestedLoop,
        ),
        ("Cell-Based", StrategyChoice::CDriven, ModeChoice::CellBased),
        ("DMT", StrategyChoice::Dmt, ModeChoice::MultiTactic),
        (
            "Cell-Based*",
            StrategyChoice::CDriven,
            ModeChoice::CellBasedOpt,
        ),
        ("DMT*", StrategyChoice::Dmt, ModeChoice::MultiTacticOpt),
    ] {
        let row = run_pipeline(name, strategy, mode, params, data);
        methods.push((name, row.total()));
    }
    Fig9Row {
        dataset: label,
        n,
        methods,
    }
}

/// Figure 9(a): detection methods across the four region distributions.
pub fn fig9_regions(scale: &Scale) -> Vec<Fig9Row> {
    let params = OutlierParams::new(1.8, 4).expect("valid parameters");
    Region::ALL
        .iter()
        .map(|&region| {
            let (data, _) = region_dataset(region, scale.region_n, 91);
            fig9_methods(params, &data, region.abbrev().to_string(), data.len())
        })
        .collect()
}

/// Figure 9(b): detection methods across the MA → Planet hierarchy.
pub fn fig9_scalability(scale: &Scale) -> Vec<Fig9Row> {
    let params = OutlierParams::new(2.0, 4).expect("valid parameters");
    HierarchyLevel::ALL
        .iter()
        .map(|&level| {
            let (data, _) = hierarchy_dataset(level, scale.hierarchy_base, 92);
            fig9_methods(params, &data, level.abbrev().to_string(), data.len())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 10: stage breakdown of the overall approach.
// ---------------------------------------------------------------------

/// Figure 10(a): stage breakdown on the distorted ("2 TB"-analog)
/// dataset — Domain / uniSpace / DDriven (all + Cell-Based, the better
/// average detector on this dense data) versus DMT.
pub fn fig10a(scale: &Scale) -> Vec<StageRow> {
    let params = OutlierParams::new(1.0, 4).expect("valid parameters");
    let (base, domain) =
        hierarchy_dataset(HierarchyLevel::UnitedStates, scale.distort_base / 16, 101);
    let data = distort(&base, &domain, 3, 0.3, 102);
    vec![
        run_pipeline(
            "Domain + Cell-Based",
            StrategyChoice::Domain,
            ModeChoice::CellBased,
            params,
            &data,
        ),
        run_pipeline(
            "uniSpace + Cell-Based",
            StrategyChoice::UniSpace,
            ModeChoice::CellBased,
            params,
            &data,
        ),
        run_pipeline(
            "DDriven + Cell-Based",
            StrategyChoice::DDriven,
            ModeChoice::CellBased,
            params,
            &data,
        ),
        run_pipeline(
            "DMT",
            StrategyChoice::Dmt,
            ModeChoice::MultiTactic,
            params,
            &data,
        ),
    ]
}

/// Figure 10(b): stage breakdown on the TIGER analog — CDriven paired
/// with each monolithic detector versus DMT.
pub fn fig10b(scale: &Scale) -> Vec<StageRow> {
    let params = OutlierParams::new(0.4, 4).expect("valid parameters");
    let domain = Rect::new(vec![0.0, 0.0], vec![200.0, 200.0]).expect("static bounds");
    let data = tiger_analog(&domain, scale.tiger_n, 60, 103);
    vec![
        run_pipeline(
            "CDriven + Nested-Loop",
            StrategyChoice::CDriven,
            ModeChoice::NestedLoop,
            params,
            &data,
        ),
        run_pipeline(
            "CDriven + Cell-Based",
            StrategyChoice::CDriven,
            ModeChoice::CellBased,
            params,
            &data,
        ),
        run_pipeline(
            "DMT",
            StrategyChoice::Dmt,
            ModeChoice::MultiTactic,
            params,
            &data,
        ),
    ]
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// Cost-model validation: Pearson correlation between per-partition
/// predicted costs and the measured reduce times of the detection job —
/// for the locality-aware estimator that planned the run and for the
/// paper's Lemma 4.1 model pricing the same partitions.
#[derive(Debug, Clone)]
pub struct CostModelAblation {
    /// Number of partitions compared.
    pub partitions: usize,
    /// Correlation of the locality-aware estimator.
    pub local_correlation: f64,
    /// Correlation of the paper's average-density model.
    pub paper_correlation: f64,
    /// Correlation of the locality-aware estimator with the work each
    /// partition's detector counted (`detect.distance_evals` +
    /// `detect.index_ops`) in the same run — no clock involved, so it
    /// repeats exactly.
    pub local_work_correlation: f64,
    /// Correlation of the paper's model with the same counted work.
    pub paper_work_correlation: f64,
}

/// Runs CDriven + Nested-Loop (the workload with real per-partition
/// cost variance) once on a skewed dataset, prices each of its
/// partitions under both models, and correlates predicted vs measured
/// per-partition cost.
pub fn ablation_cost_model(scale: &Scale) -> CostModelAblation {
    let params = OutlierParams::new(2.0, 4).expect("valid parameters");
    let (data, _) = hierarchy_dataset(HierarchyLevel::NewEngland, scale.hierarchy_base, 111);
    let counters = Arc::new(MemoryRecorder::new());
    let base = experiment_config(params);
    let config = base
        .to_builder()
        // One attempt per task, so each partition's counters arrive once.
        .cluster(base.cluster.without_speculation())
        // Validation wants accurate cardinality estimates, so sample densely.
        .sample_rate(0.2)
        .obs(Obs::new(counters.clone()))
        .build()
        .expect("valid configuration");
    let runner = build_runner(StrategyChoice::CDriven, ModeChoice::NestedLoop, config);
    // Planning is deterministic in the config's seed, so this is the plan
    // the run below executes.
    let plan = runner.preprocess(&data).expect("pipeline plans").mt;
    let outcome = runner.run(&data).expect("pipeline runs");
    let local = outcome.report.predicted_costs;
    assert_eq!(local, plan.predicted_costs, "the run executes this plan");
    let model = CostModel::new(params, data.dim());
    let paper: Vec<f64> = (plan.report.partitions.iter())
        .map(|p| model.cost(AlgorithmKind::NestedLoop, p.n_est as usize, p.volume))
        .collect();
    let mut seconds = vec![0.0f64; local.len()];
    for (pid, d) in &outcome.report.partition_times {
        seconds[*pid as usize] = d.as_secs_f64();
    }
    let mut work = vec![0.0f64; local.len()];
    for name in [names::DETECT_DISTANCE_EVALS, names::DETECT_INDEX_OPS] {
        for e in counters.events_named(name) {
            let pid = e.label("partition").and_then(|v| v.as_u64());
            let pid = pid.expect("detector counters carry their partition") as usize;
            work[pid] += e.counter_delta().expect("a counter") as f64;
        }
    }
    CostModelAblation {
        partitions: local.len(),
        local_correlation: pearson(&local, &seconds),
        paper_correlation: pearson(&paper, &seconds),
        local_work_correlation: pearson(&local, &work),
        paper_work_correlation: pearson(&paper, &work),
    }
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if n < 2.0 {
        return 1.0;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Sampling-rate sensitivity (Section V-A sets Υ = 0.5% by default): the
/// result set must not change; only plan quality / preprocessing cost do.
#[derive(Debug, Clone)]
pub struct SamplingRow {
    /// Sampling rate Υ.
    pub rate: f64,
    /// Preprocessing time.
    pub preprocess: Duration,
    /// End-to-end time.
    pub total: Duration,
    /// Number of outliers (identical across rates).
    pub outliers: usize,
}

/// Sweeps the sampling rate of the DMT preprocessing job.
pub fn ablation_sampling(scale: &Scale) -> Vec<SamplingRow> {
    let params = OutlierParams::new(2.0, 4).expect("valid parameters");
    let (data, _) = hierarchy_dataset(HierarchyLevel::NewEngland, scale.hierarchy_base, 121);
    [0.002, 0.005, 0.02, 0.08, 0.32]
        .into_iter()
        .map(|rate| {
            let config = experiment_config(params)
                .to_builder()
                .sample_rate(rate)
                .build()
                .expect("valid configuration");
            let runner = build_runner(StrategyChoice::Dmt, ModeChoice::MultiTactic, config);
            let outcome = runner.run(&data).expect("pipeline runs");
            SamplingRow {
                rate,
                preprocess: outcome.report.breakdown.preprocess,
                total: outcome.report.breakdown.total(),
                outliers: outcome.outliers.len(),
            }
        })
        .collect()
}

/// Allocation-policy comparison (Section V-A step 3): reduce-stage
/// makespan under each packing policy.
#[derive(Debug, Clone)]
pub struct PackingRow {
    /// Policy name.
    pub policy: &'static str,
    /// Reduce-stage makespan.
    pub reduce: Duration,
}

/// Compares round-robin, LPT and refined-LPT partition allocation.
pub fn ablation_packing(scale: &Scale) -> Vec<PackingRow> {
    let params = OutlierParams::new(2.0, 4).expect("valid parameters");
    let (data, _) = hierarchy_dataset(HierarchyLevel::NewEngland, scale.hierarchy_base, 131);
    [
        ("round-robin", AllocationSpec::round_robin()),
        ("LPT-cardinality", AllocationSpec::cardinality()),
        ("LPT-cost", AllocationSpec::cost()),
    ]
    .into_iter()
    .map(|(name, spec)| {
        let config = experiment_config(params)
            .to_builder()
            .allocation(spec)
            .build()
            .expect("valid configuration");
        let runner = build_runner(StrategyChoice::Dmt, ModeChoice::MultiTactic, config);
        let outcome = runner.run(&data).expect("pipeline runs");
        PackingRow {
            policy: name,
            reduce: outcome.report.breakdown.reduce,
        }
    })
    .collect()
}

/// Cell-Based fallback-scan comparison: the paper-faithful full scan vs
/// the block-restricted optimization, at an intermediate density where
/// the fallback dominates.
#[derive(Debug, Clone)]
pub struct BlockScanRow {
    /// Density measure of the dataset.
    pub density_measure: f64,
    /// Paper-faithful full-scan time.
    pub full_scan: Duration,
    /// Block-restricted-scan time.
    pub block_restricted: Duration,
}

/// Sweeps density and times both Cell-Based fallback variants.
pub fn ablation_block_scan(scale: &Scale) -> Vec<BlockScanRow> {
    let params = OutlierParams::new(5.0, 4).expect("paper parameters");
    [0.5, 3.0, 6.0, 10.0]
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            let (data, _) =
                uniform_with_density_measure(scale.fig45_n, params.r, m, 141 + i as u64);
            let partition = Partition::standalone(data);
            let t0 = Instant::now();
            let _ = CellBased::default()
                .full_scan_fallback()
                .detect(&partition, params);
            let full_scan = t0.elapsed();
            let t1 = Instant::now();
            let _ = CellBased::default().detect(&partition, params);
            let block_restricted = t1.elapsed();
            BlockScanRow {
                density_measure: m,
                full_scan,
                block_restricted,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            region_n: 1_500,
            hierarchy_base: 300,
            fig45_n: 800,
            distort_base: 1_600,
            tiger_n: 2_000,
        }
    }

    #[test]
    fn fig4_runs_and_sparse_costs_more() {
        let rows = fig4(&tiny());
        assert_eq!(rows.len(), 2);
        assert!(rows[0].evals > rows[1].evals, "{rows:?}");
    }

    #[test]
    fn fig5_covers_sweep() {
        let rows = fig5(&tiny());
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| r.cell_based > Duration::ZERO));
    }

    #[test]
    fn fig7_produces_ratio_one_for_cdriven() {
        let rows = fig7(&tiny(), ModeChoice::NestedLoop);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            let (label, _, ratio) = row.strategies.last().unwrap();
            assert_eq!(*label, "CDriven");
            assert!((ratio - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig8_sizes_grow() {
        let rows = fig8(&tiny(), ModeChoice::CellBased);
        assert_eq!(rows.len(), 4);
        assert!(rows.windows(2).all(|w| w[0].n < w[1].n));
    }

    #[test]
    fn fig9_has_five_methods() {
        let rows = fig9_regions(&tiny());
        assert_eq!(rows.len(), 4);
        // NL, CB (paper), DMT (paper), CB* (optimized), DMT* (optimized).
        assert!(rows.iter().all(|r| r.methods.len() == 5));
    }

    #[test]
    fn fig10_breakdowns_agree_on_outliers() {
        let a = fig10a(&tiny());
        assert_eq!(a.len(), 4);
        assert!(
            a.windows(2).all(|w| w[0].outliers == w[1].outliers),
            "{a:?}"
        );
        let b = fig10b(&tiny());
        assert_eq!(b.len(), 3);
        assert!(
            b.windows(2).all(|w| w[0].outliers == w[1].outliers),
            "{b:?}"
        );
    }

    #[test]
    fn cost_model_correlates() {
        // Needs partitions with measurable work, so run above tiny scale.
        let scale = Scale {
            hierarchy_base: 2_500,
            ..tiny()
        };
        // Judged on counted work, never on the clock: wall time per
        // partition at this scale is scheduler noise (the timed
        // correlations are what `repro` reports at full scale).
        let r = ablation_cost_model(&scale);
        assert!(r.partitions > 1);
        assert!(
            r.local_work_correlation > 0.5,
            "predicted cost vs counted work: {}",
            r.local_work_correlation
        );
        let again = ablation_cost_model(&scale);
        assert_eq!(
            (r.local_work_correlation, r.paper_work_correlation),
            (again.local_work_correlation, again.paper_work_correlation),
            "counted work repeats exactly"
        );
    }

    #[test]
    fn sampling_rate_never_changes_the_answer() {
        let rows = ablation_sampling(&tiny());
        assert!(
            rows.windows(2).all(|w| w[0].outliers == w[1].outliers),
            "{rows:?}"
        );
    }

    #[test]
    fn packing_rows_cover_policies() {
        let rows = ablation_packing(&tiny());
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn pearson_sanity() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn block_scan_rows() {
        let rows = ablation_block_scan(&tiny());
        assert_eq!(rows.len(), 4);
    }
}
