//! Shared runner construction for the experiments.

use dod::prelude::*;
use dod_detect::cost::{PAPER_CANDIDATES, PAPER_VARIANT_CANDIDATES};

/// The partitioning strategies compared in Figures 7, 8 and 10(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// Grid without supporting areas (two-job protocol).
    Domain,
    /// Equi-width grid.
    UniSpace,
    /// Cardinality-balanced splits.
    DDriven,
    /// Cost-balanced splits for the detector under test.
    CDriven,
    /// DSHC density clustering.
    Dmt,
}

impl StrategyChoice {
    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            StrategyChoice::Domain => "Domain",
            StrategyChoice::UniSpace => "uniSpace",
            StrategyChoice::DDriven => "DDriven",
            StrategyChoice::CDriven => "CDriven",
            StrategyChoice::Dmt => "DMT",
        }
    }

    /// The four strategies of the Figure 7/8 comparison, in plot order.
    pub const FIG78: [StrategyChoice; 4] = [
        StrategyChoice::Domain,
        StrategyChoice::UniSpace,
        StrategyChoice::DDriven,
        StrategyChoice::CDriven,
    ];
}

/// The reducer-side detection configuration.
///
/// Each non-Nested-Loop mode exists in two flavours: the *paper variant*
/// uses the full-scan Cell-Based (the implementation the Lemma 4.2 model
/// charges, reproducing the paper's measured shapes); the *optimized*
/// flavour uses the block-restricted Cell-Based. Every mode is planned
/// by the locality-aware estimator, the pipeline's only planner; the
/// paper's average-density model prices one run's partitions beside it
/// in `ablation_cost_model`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeChoice {
    /// Fixed Nested-Loop everywhere.
    NestedLoop,
    /// Fixed full-scan Cell-Based everywhere (paper variant).
    CellBased,
    /// Fixed block-restricted Cell-Based everywhere (optimized).
    CellBasedOpt,
    /// Per-partition selection over `{CB-full, NL}` (the paper's DMT).
    MultiTactic,
    /// Per-partition selection over `{CB, NL}` (optimized DMT).
    MultiTacticOpt,
}

impl ModeChoice {
    /// Figure label.
    pub fn label(&self) -> &'static str {
        match self {
            ModeChoice::NestedLoop => "Nested-Loop",
            ModeChoice::CellBased => "Cell-Based",
            ModeChoice::CellBasedOpt => "Cell-Based*",
            ModeChoice::MultiTactic => "DMT",
            ModeChoice::MultiTacticOpt => "DMT*",
        }
    }
}

/// The experiment cluster: 8 logical nodes × 2 slots, 16 reducers, 64
/// target partitions, 2% sampling (the datasets are small; the paper's
/// 0.5% assumes tens of millions of points).
///
/// Simulated I/O is enabled at 32 MB/s per node — scaled down from
/// datacenter disks in the same proportion as our datasets are scaled
/// down from the paper's, so multi-job protocols (the Domain baseline)
/// pay a representative price for re-reading the input.
pub fn experiment_config(params: OutlierParams) -> DodConfig {
    DodConfig::builder(params)
        .cluster(
            ClusterConfig::new(8)
                .with_slots(2, 2)
                .with_io_bandwidth(32 * 1024 * 1024),
        )
        .num_reducers(16)
        .target_partitions(64)
        .sample_rate(0.02)
        .block_size(8 * 1024)
        .build()
        .expect("valid experiment configuration")
}

/// Builds the pipeline runner for one (strategy, mode) cell of an
/// experiment grid.
pub fn build_runner(strategy: StrategyChoice, mode: ModeChoice, config: DodConfig) -> DodRunner {
    let builder = DodRunner::builder().config(config);
    let builder = match (strategy, mode) {
        (StrategyChoice::Domain, _) => builder.strategy(Domain),
        (StrategyChoice::UniSpace, _) => builder.strategy(UniSpace),
        (StrategyChoice::DDriven, _) => builder.strategy(DDriven),
        (StrategyChoice::CDriven, ModeChoice::CellBased) => {
            builder.strategy(CDriven::new(AlgorithmKind::CellBasedFullScan))
        }
        (StrategyChoice::CDriven, ModeChoice::CellBasedOpt) => {
            builder.strategy(CDriven::new(AlgorithmKind::CellBased))
        }
        (StrategyChoice::CDriven, _) => builder.strategy(CDriven::new(AlgorithmKind::NestedLoop)),
        (StrategyChoice::Dmt, _) => builder.strategy(Dmt::default()),
    };
    match mode {
        ModeChoice::NestedLoop => builder.fixed(AlgorithmKind::NestedLoop).build(),
        ModeChoice::CellBased => builder.fixed(AlgorithmKind::CellBasedFullScan).build(),
        ModeChoice::CellBasedOpt => builder.fixed(AlgorithmKind::CellBased).build(),
        ModeChoice::MultiTactic => builder
            .candidates(PAPER_VARIANT_CANDIDATES.to_vec())
            .build(),
        ModeChoice::MultiTacticOpt => builder.candidates(PAPER_CANDIDATES.to_vec()).build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(StrategyChoice::Dmt.label(), "DMT");
        assert_eq!(ModeChoice::MultiTactic.label(), "DMT");
        assert_eq!(StrategyChoice::FIG78.len(), 4);
    }

    #[test]
    fn all_grid_cells_build() {
        let params = OutlierParams::new(1.0, 4).unwrap();
        for s in [
            StrategyChoice::Domain,
            StrategyChoice::UniSpace,
            StrategyChoice::DDriven,
            StrategyChoice::CDriven,
            StrategyChoice::Dmt,
        ] {
            for m in [
                ModeChoice::NestedLoop,
                ModeChoice::CellBased,
                ModeChoice::CellBasedOpt,
                ModeChoice::MultiTactic,
                ModeChoice::MultiTacticOpt,
            ] {
                let runner = build_runner(s, m, experiment_config(params));
                assert_eq!(runner.config().num_reducers, 16);
            }
        }
    }
}
