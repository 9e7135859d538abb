//! The OpenTuner-style ensemble search: a multi-armed bandit that picks,
//! for every step, one of several sub-techniques and credits it when its
//! proposal improves the best cost.
//!
//! OpenTuner's meta-technique is an AUC (area-under-curve) credit-assignment
//! bandit over a window of recent outcomes with an exploration bonus
//! (Ansel et al., PACT 2014). This module reimplements that scheme: each arm
//! scores `AUC_w(arm) + C * sqrt(2 ln(uses_total) / uses(arm))`, where
//! `AUC_w` weights recent improvements linearly by recency within a sliding
//! window of `w = 50` outcomes, and `C = 0.3`. The paper uses this engine as
//! ATF's third search technique over the *valid* space index (Section IV-C),
//! and it also powers the OpenTuner baseline over the unconstrained space.

use super::{
    DifferentialEvolution, GreedyMutation, NelderMead, PatternSearch, Point, RandomSearch,
    SearchTechnique, SpaceDims, Torczon,
};
use std::collections::VecDeque;

/// Exploration constant `C` of the UCB-style bonus.
const EXPLORATION: f64 = 0.3;

/// Sliding-window length `w` for AUC credit.
const WINDOW: usize = 50;

/// AUC-credit bandit state for one arm.
#[derive(Clone, Debug, Default)]
struct ArmStats {
    /// Recent outcomes, `true` = the arm's proposal improved the best cost.
    history: VecDeque<bool>,
    uses: u64,
}

impl ArmStats {
    fn record(&mut self, improved: bool, window: usize) {
        self.history.push_back(improved);
        while self.history.len() > window {
            self.history.pop_front();
        }
        self.uses += 1;
    }

    /// Area under the credit curve: recent improvements weigh more.
    fn auc(&self) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        let n = self.history.len();
        let denom = (n * (n + 1) / 2) as f64;
        let score: f64 = self
            .history
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| (i + 1) as f64)
            .sum();
        score / denom
    }
}

/// The multi-armed-bandit scheduler behind [`Ensemble`].
#[derive(Clone, Debug)]
struct AucBandit {
    arms: Vec<ArmStats>,
    total_uses: u64,
}

impl AucBandit {
    /// A bandit over `n_arms` arms.
    fn new(n_arms: usize) -> Self {
        assert!(n_arms > 0, "bandit needs at least one arm");
        AucBandit {
            arms: vec![ArmStats::default(); n_arms],
            total_uses: 0,
        }
    }

    /// Selects the best-scoring arm (AUC + exploration bonus) among
    /// `allowed` only (`None` if the slice is empty); unused arms are always
    /// tried first. Under parallel evaluation, arms busy with a full batch
    /// are temporarily ineligible — selection skips them *without*
    /// recording anything, so bandit statistics stay untouched by
    /// scheduling constraints.
    fn select_among(&self, allowed: &[usize]) -> Option<usize> {
        // Any arm never used yet gets priority (infinite exploration bonus).
        if let Some(&i) = allowed.iter().find(|&&i| self.arms[i].uses == 0) {
            return Some(i);
        }
        let ln_total = (self.total_uses.max(1) as f64).ln();
        let mut best = None;
        let mut best_score = f64::NEG_INFINITY;
        for &i in allowed {
            let a = &self.arms[i];
            let score = a.auc() + EXPLORATION * (2.0 * ln_total / a.uses as f64).sqrt();
            if score > best_score {
                best_score = score;
                best = Some(i);
            }
        }
        best
    }

    /// Records the outcome of an arm's proposal.
    fn record(&mut self, arm: usize, improved: bool) {
        self.arms[arm].record(improved, WINDOW);
        self.total_uses += 1;
    }
}

/// The ensemble search technique: a bandit over sub-techniques sharing one
/// global best-cost signal.
pub struct Ensemble {
    techniques: Vec<Box<dyn SearchTechnique>>,
    bandit: AucBandit,
    /// Arms that produced the outstanding proposals, in proposal order.
    /// Reports arrive in the same order, so popping the front routes each
    /// cost to the right arm — and because this is a FIFO, each *arm* also
    /// sees its own reports in its own proposal order.
    queue: VecDeque<usize>,
    /// Outstanding proposal count per arm (drives per-arm `can_propose`).
    arm_outstanding: Vec<usize>,
    best: f64,
}

impl Ensemble {
    /// The OpenTuner-like default ensemble, mirroring OpenTuner's
    /// `AUCBanditMetaTechniqueA` family: differential evolution, greedy
    /// mutation, Nelder-Mead, Torczon, pattern search, and uniform random —
    /// seeded deterministically from `seed`.
    pub fn opentuner_default(seed: u64) -> Self {
        Self::new(vec![
            Box::new(DifferentialEvolution::with_seed(seed ^ 0x6)),
            Box::new(GreedyMutation::with_seed(seed ^ 0x4)),
            Box::new(NelderMead::with_seed(seed ^ 0x1)),
            Box::new(Torczon::with_seed(seed ^ 0x2)),
            Box::new(PatternSearch::with_seed(seed ^ 0x3)),
            Box::new(RandomSearch::with_seed(seed ^ 0x5)),
        ])
    }

    /// An ensemble over `techniques`, one bandit arm each.
    fn new(techniques: Vec<Box<dyn SearchTechnique>>) -> Self {
        assert!(!techniques.is_empty(), "ensemble needs ≥ 1 technique");
        let n = techniques.len();
        Ensemble {
            techniques,
            bandit: AucBandit::new(n),
            queue: VecDeque::new(),
            arm_outstanding: vec![0; n],
            best: f64::INFINITY,
        }
    }

    /// Per-arm use counts (diagnostics).
    pub fn arm_uses(&self) -> Vec<u64> {
        self.bandit.arms.iter().map(|a| a.uses).collect()
    }
}

impl SearchTechnique for Ensemble {
    fn initialize(&mut self, dims: SpaceDims) {
        for t in &mut self.techniques {
            t.initialize(dims.clone());
        }
        self.queue.clear();
        self.arm_outstanding = vec![0; self.techniques.len()];
        self.best = f64::INFINITY;
    }

    fn finalize(&mut self) {
        for t in &mut self.techniques {
            t.finalize();
        }
    }

    fn get_next_point(&mut self) -> Option<Point> {
        // Try eligible arms in bandit preference order until one proposes a
        // point (the six default arms never exhaust, but an exhaustive arm
        // would). Arms busy with a full batch are skipped without touching
        // their bandit statistics.
        for _ in 0..self.techniques.len() {
            let eligible: Vec<usize> = (0..self.techniques.len())
                .filter(|&i| self.techniques[i].can_propose(self.arm_outstanding[i]))
                .collect();
            let arm = self.bandit.select_among(&eligible)?;
            if let Some(p) = self.techniques[arm].get_next_point() {
                self.queue.push_back(arm);
                self.arm_outstanding[arm] += 1;
                return Some(p);
            }
            // Arm exhausted: record a non-improvement so its score decays
            // and other arms get selected.
            self.bandit.record(arm, false);
        }
        None
    }

    fn report_cost(&mut self, cost: f64) {
        let Some(arm) = self.queue.pop_front() else {
            return;
        };
        self.arm_outstanding[arm] -= 1;
        self.techniques[arm].report_cost(cost);
        let improved = cost < self.best;
        if improved {
            self.best = cost;
        }
        self.bandit.record(arm, improved);
    }

    /// The ensemble can propose while *any* arm can: the bandit then
    /// selects among the currently eligible arms only.
    fn can_propose(&self, _outstanding: usize) -> bool {
        (0..self.techniques.len()).any(|i| self.techniques[i].can_propose(self.arm_outstanding[i]))
    }

    fn name(&self) -> &'static str {
        "opentuner-ensemble"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_util::*;

    #[test]
    fn auc_weights_recency() {
        let mut a = ArmStats::default();
        for _ in 0..5 {
            a.record(false, 10);
        }
        let low = a.auc();
        a.record(true, 10);
        let high = a.auc();
        assert!(high > low);
        // An early improvement followed by failures scores lower than a
        // recent improvement.
        let mut early = ArmStats::default();
        early.record(true, 10);
        for _ in 0..5 {
            early.record(false, 10);
        }
        let mut late = ArmStats::default();
        for _ in 0..5 {
            late.record(false, 10);
        }
        late.record(true, 10);
        assert!(late.auc() > early.auc());
    }

    #[test]
    fn window_bounds_history() {
        let mut a = ArmStats::default();
        for _ in 0..100 {
            a.record(true, 8);
        }
        assert_eq!(a.history.len(), 8);
        assert_eq!(a.uses, 100);
    }

    #[test]
    fn bandit_prefers_improving_arm() {
        let mut b = AucBandit::new(3);
        // Arm 1 improves often; others never.
        for _ in 0..30 {
            b.record(0, false);
            b.record(1, true);
            b.record(2, false);
        }
        assert_eq!(b.select_among(&[0, 1, 2]), Some(1));
    }

    #[test]
    fn bandit_explores_unused_arms_first() {
        let mut b = AucBandit::new(3);
        let all = [0, 1, 2];
        assert_eq!(b.select_among(&all), Some(0));
        b.record(0, true);
        assert_eq!(b.select_among(&all), Some(1));
        b.record(1, false);
        assert_eq!(b.select_among(&all), Some(2));
    }

    #[test]
    fn ensemble_converges_on_bowl() {
        let mut t = Ensemble::opentuner_default(42);
        let (_, c) = drive(
            &mut t,
            SpaceDims::new(vec![128, 128]),
            1200,
            bowl(vec![40, 90]),
        );
        assert!(c <= 9.0, "ensemble far from optimum: cost {c}");
    }

    #[test]
    fn ensemble_uses_multiple_arms() {
        let mut t = Ensemble::opentuner_default(7);
        t.initialize(SpaceDims::new(vec![64, 64]));
        for i in 0..200 {
            let _ = t.get_next_point().unwrap();
            t.report_cost(((i * 31) % 17) as f64);
        }
        let uses = t.arm_uses();
        assert_eq!(uses.iter().sum::<u64>(), 200);
        assert!(
            uses.iter().filter(|&&u| u > 0).count() >= 3,
            "bandit collapsed to too few arms: {uses:?}"
        );
    }

    #[test]
    fn exhausted_arms_are_skipped() {
        // An ensemble of one exhaustive technique over a 2-point space
        // returns None after 2 proposals.
        let mut t = Ensemble::new(vec![Box::new(super::super::Exhaustive::new())]);
        t.initialize(SpaceDims::new(vec![2]));
        assert!(t.get_next_point().is_some());
        t.report_cost(1.0);
        assert!(t.get_next_point().is_some());
        t.report_cost(2.0);
        assert!(t.get_next_point().is_none());
    }
}
