//! Live predicted-vs-actual cost auditing.
//!
//! The planner commits to one algorithm per partition based on the
//! Section IV cost models; the engine then measures what that choice
//! actually cost through its `engine.partition.work` counters. This
//! module folds the two together continuously: per-algorithm
//! measured-over-predicted ratios (the *calibration error*: how far
//! the one unit-cost model is from the work each tactic measures), and
//! *mispredict* detection — partitions where a rejected plan candidate,
//! scaled by its own algorithm's observed ratio, would have been cheaper
//! than what the winner actually cost.
//!
//! The fold is unit-agnostic: predicted costs are model ops while
//! measured work is kernel ops per request, so absolute ratios drift
//! with request shape. Mispredicts therefore never compare raw units —
//! they compare the winner's measured work against rejected candidates
//! *after* scaling each by its algorithm's observed ratio, which cancels
//! the unit mismatch. Until ratios diverge between algorithms, no
//! mispredict can fire.

use dod_detect::AlgorithmKind;
use dod_partition::PlanReport;

/// Minimum measured work (ops) for a partition observation to qualify
/// as a *gross* mispredict; tiny partitions are noise.
pub const GROSS_MISPREDICT_MIN_WORK: u64 = 10_000;

/// Factor by which measured work must exceed a rejected candidate's
/// scaled estimate to count as gross (and hit the flight recorder).
pub const GROSS_MISPREDICT_FACTOR: f64 = 8.0;

/// Accumulated audit state for one algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgorithmAudit {
    /// The algorithm these totals cover (as the plan's winner).
    pub algorithm: AlgorithmKind,
    /// Partition observations folded (one per partition per request
    /// that did work there).
    pub observations: u64,
    /// Summed predicted cost of the observed partitions (model ops).
    pub predicted: f64,
    /// Summed measured work of the observed partitions (kernel ops).
    pub measured: f64,
    /// Observations where a rejected candidate's scaled estimate beat
    /// the winner's measured work.
    pub mispredicts: u64,
}

impl AlgorithmAudit {
    fn new(algorithm: AlgorithmKind) -> Self {
        AlgorithmAudit {
            algorithm,
            observations: 0,
            predicted: 0.0,
            measured: 0.0,
            mispredicts: 0,
        }
    }

    /// Cumulative measured-over-predicted ratio (`NaN` before the first
    /// observation).
    pub fn ratio(&self) -> f64 {
        if self.predicted > 0.0 {
            self.measured / self.predicted
        } else {
            f64::NAN
        }
    }
}

/// A point-in-time snapshot of the engine's cost audit
/// (`Engine::cost_audit`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostAudit {
    /// Per-algorithm accumulators, in first-observed order.
    pub per_algorithm: Vec<AlgorithmAudit>,
    /// Total mispredicted partition observations.
    pub mispredicts: u64,
    /// Mispredicts that crossed the gross threshold.
    pub gross_mispredicts: u64,
}

impl CostAudit {
    /// The accumulator for `kind`, if it has been observed as a winner.
    pub fn algorithm(&self, kind: AlgorithmKind) -> Option<&AlgorithmAudit> {
        self.per_algorithm.iter().find(|a| a.algorithm == kind)
    }
}

/// One gross mispredict, reported back for flight-recorder marking.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GrossMispredict {
    pub partition: usize,
    pub algorithm: AlgorithmKind,
    pub better: AlgorithmKind,
    /// Measured work over the better candidate's scaled estimate.
    pub ratio: f64,
}

/// What one request's fold produced, for bounded telemetry emission.
#[derive(Debug, Default)]
pub(crate) struct FoldOutcome {
    /// Per-algorithm `(winner, measured/predicted)` ratio of this
    /// request alone — at most one entry per algorithm.
    pub ratios: Vec<(AlgorithmKind, f64)>,
    /// `(winner, better, count)` mispredicted observations, folded per
    /// pair.
    pub mispredicts: Vec<(AlgorithmKind, AlgorithmKind, u64)>,
    /// Gross mispredicts worth a flight-recorder mark.
    pub gross: Vec<GrossMispredict>,
}

/// The engine's internal accumulator behind a mutex.
#[derive(Debug, Default)]
pub(crate) struct CostAuditState {
    entries: Vec<AlgorithmAudit>,
    mispredicts: u64,
    gross: u64,
}

impl CostAuditState {
    fn entry_mut(&mut self, kind: AlgorithmKind) -> &mut AlgorithmAudit {
        if let Some(i) = self.entries.iter().position(|a| a.algorithm == kind) {
            return &mut self.entries[i];
        }
        self.entries.push(AlgorithmAudit::new(kind));
        self.entries.last_mut().expect("just pushed")
    }

    fn ratio_of(&self, kind: AlgorithmKind) -> Option<f64> {
        self.entries
            .iter()
            .find(|a| a.algorithm == kind && a.predicted > 0.0 && a.measured > 0.0)
            .map(|a| a.measured / a.predicted)
    }

    /// Folds one request's per-partition work vector against the plan
    /// report, updating the cumulative accumulators and returning the
    /// request-scoped outcome for emission.
    pub fn fold_request(&mut self, report: &PlanReport, work: &[u64]) -> FoldOutcome {
        let mut out = FoldOutcome::default();
        // Request-local (winner, predicted, measured) aggregates.
        let mut req: Vec<(AlgorithmKind, f64, f64)> = Vec::new();
        for (pid, &w) in work.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let Some(p) = report.partitions.get(pid) else {
                continue;
            };
            let measured = w as f64;
            {
                let e = self.entry_mut(p.winner);
                e.observations += 1;
                e.predicted += p.winner_cost;
                e.measured += measured;
            }
            match req.iter_mut().find(|(a, _, _)| *a == p.winner) {
                Some((_, pr, me)) => {
                    *pr += p.winner_cost;
                    *me += measured;
                }
                None => req.push((p.winner, p.winner_cost, measured)),
            }
            // Mispredict check: a rejected candidate, scaled by its own
            // algorithm's observed ratio (falling back to the winner's,
            // which makes the comparison predicted-vs-predicted and
            // never fires), estimated cheaper than the measured work.
            let fallback = self.ratio_of(p.winner);
            let mut best: Option<(AlgorithmKind, f64)> = None;
            for c in p.candidates.iter().filter(|c| c.algorithm != p.winner) {
                let Some(r) = self.ratio_of(c.algorithm).or(fallback) else {
                    continue;
                };
                let est = c.cost * r;
                if est.is_finite() && est > 0.0 && est < measured {
                    match best {
                        Some((_, b)) if b <= est => {}
                        _ => best = Some((c.algorithm, est)),
                    }
                }
            }
            if let Some((better, est)) = best {
                self.entry_mut(p.winner).mispredicts += 1;
                self.mispredicts += 1;
                match out
                    .mispredicts
                    .iter_mut()
                    .find(|(a, b, _)| *a == p.winner && *b == better)
                {
                    Some((_, _, n)) => *n += 1,
                    None => out.mispredicts.push((p.winner, better, 1)),
                }
                let ratio = measured / est;
                if w >= GROSS_MISPREDICT_MIN_WORK && ratio >= GROSS_MISPREDICT_FACTOR {
                    self.gross += 1;
                    out.gross.push(GrossMispredict {
                        partition: pid,
                        algorithm: p.winner,
                        better,
                        ratio,
                    });
                }
            }
        }
        out.ratios = req
            .into_iter()
            .filter(|(_, pr, _)| *pr > 0.0)
            .map(|(a, pr, me)| (a, me / pr))
            .collect();
        out
    }

    /// A snapshot for [`CostAudit`] consumers.
    pub fn snapshot(&self) -> CostAudit {
        CostAudit {
            per_algorithm: self.entries.clone(),
            mispredicts: self.mispredicts,
            gross_mispredicts: self.gross,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_core::{GridSpec, Rect};
    use dod_partition::{
        AllocationSpec, CandidateCost, MultiTacticPlan, PartitionEstimate, PartitionPlan,
        PlanReport,
    };

    /// The plan report of a one-partition plan whose candidates cost
    /// `costs`.
    fn report(costs: &[(AlgorithmKind, f64)]) -> PlanReport {
        let domain = Rect::new(vec![0.0], vec![1.0]).unwrap();
        let plan = PartitionPlan::from_grid(GridSpec::uniform(domain, 1).unwrap());
        let candidates = (costs.iter())
            .map(|&(algorithm, cost)| CandidateCost {
                algorithm,
                cost,
                terms: Default::default(),
            })
            .collect();
        let estimate = PartitionEstimate {
            n_est: 100.0,
            hit_mu: 0.5,
            candidates,
        };
        let spec = AllocationSpec::cost();
        MultiTacticPlan::from_estimates(plan, vec![estimate], 1, spec).report
    }

    #[test]
    fn accurate_predictions_never_mispredict() {
        let r = report(&[
            (AlgorithmKind::CellBased, 1_000.0),
            (AlgorithmKind::NestedLoop, 5_000.0),
        ]);
        let mut state = CostAuditState::default();
        for _ in 0..10 {
            let out = state.fold_request(&r, &[1_000]);
            assert!(out.mispredicts.is_empty());
            assert_eq!(out.ratios, vec![(AlgorithmKind::CellBased, 1.0)]);
        }
        let snap = state.snapshot();
        assert_eq!(snap.mispredicts, 0);
        let cb = snap.algorithm(AlgorithmKind::CellBased).unwrap();
        assert_eq!(cb.observations, 10);
        assert!((cb.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diverged_ratios_expose_the_planners_loser() {
        // Two plans: one picks NL (and NL measures near its prediction),
        // one picks CB — and CB measures 20x its prediction, so NL's
        // rejected estimate (scaled by NL's observed ~1x ratio) beats it.
        let nl_plan = report(&[
            (AlgorithmKind::NestedLoop, 10_000.0),
            (AlgorithmKind::CellBased, 50_000.0),
        ]);
        let cb_plan = report(&[
            (AlgorithmKind::CellBased, 1_000.0),
            (AlgorithmKind::NestedLoop, 2_000.0),
        ]);
        let mut state = CostAuditState::default();
        state.fold_request(&nl_plan, &[10_000]); // NL ratio = 1.0
        let out = state.fold_request(&cb_plan, &[20_000]); // CB 20x over
        assert_eq!(
            out.mispredicts,
            vec![(AlgorithmKind::CellBased, AlgorithmKind::NestedLoop, 1)]
        );
        // 20_000 measured vs NL's scaled estimate 2_000 → 10x: gross.
        assert_eq!(out.gross.len(), 1);
        assert!(out.gross[0].ratio >= GROSS_MISPREDICT_FACTOR);
        let snap = state.snapshot();
        assert_eq!(snap.mispredicts, 1);
        assert_eq!(snap.gross_mispredicts, 1);
        assert_eq!(
            snap.algorithm(AlgorithmKind::CellBased)
                .unwrap()
                .mispredicts,
            1
        );
    }

    #[test]
    fn small_work_never_counts_as_gross() {
        let nl_plan = report(&[
            (AlgorithmKind::NestedLoop, 100.0),
            (AlgorithmKind::CellBased, 500.0),
        ]);
        let cb_plan = report(&[
            (AlgorithmKind::CellBased, 10.0),
            (AlgorithmKind::NestedLoop, 20.0),
        ]);
        let mut state = CostAuditState::default();
        state.fold_request(&nl_plan, &[100]);
        let out = state.fold_request(&cb_plan, &[2_000]); // 100x over, tiny
        assert_eq!(out.mispredicts.len(), 1);
        assert!(out.gross.is_empty(), "below the work floor");
    }

    #[test]
    fn work_beyond_the_report_is_ignored() {
        let r = report(&[(AlgorithmKind::NestedLoop, 100.0)]);
        let mut state = CostAuditState::default();
        let out = state.fold_request(&r, &[50, 999, 999]);
        assert_eq!(out.ratios.len(), 1);
        assert_eq!(state.snapshot().per_algorithm[0].observations, 1);
    }
}
