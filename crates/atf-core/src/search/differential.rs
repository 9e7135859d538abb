//! Differential evolution (Storn & Price) in ask/tell form. OpenTuner's
//! default meta-technique includes `DifferentialEvolutionAlt`, so this
//! technique is part of the faithful ensemble (paper, Section IV-C).
//!
//! Classic `DE/rand/1/bin`: for each population member `x_i`, a trial vector
//! `t = x_a + F (x_b - x_c)` (distinct random members) is crossed over with
//! `x_i` coordinate-wise (rate `CR`); the trial replaces `x_i` when it
//! measures better. Steady-state evaluation fits the one-point-at-a-time
//! tuner loop naturally.

use super::{Point, SearchTechnique, SpaceDims};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Differential weight `F`.
pub const DEFAULT_F: f64 = 0.7;
/// Crossover rate `CR`.
pub const DEFAULT_CR: f64 = 0.8;
/// Population size (clamped to the space size, at least 4).
pub const DEFAULT_POPULATION: usize = 20;

/// `DE/rand/1/bin` differential evolution over the grid's continuous
/// relaxation.
#[derive(Clone, Debug)]
pub struct DifferentialEvolution {
    rng: ChaCha8Rng,
    dims: Option<SpaceDims>,
    population: Vec<(Vec<f64>, f64)>,
    /// Members already *proposed* for their initial (seeding) evaluation.
    seed_asked: usize,
    /// Members whose seeding cost has been *reported*. All seeds are
    /// proposed before any trial, and reports arrive in proposal order, so
    /// the first `population.len()` reports are exactly the seed reports.
    seed_reported: usize,
    /// Target member of the next trial *proposal*.
    trial_ask: usize,
    /// Target member of the next trial *report*.
    trial_report: usize,
    /// Outstanding proposals in proposal order: `None` is a seeding
    /// evaluation, `Some(trial)` carries the continuous trial vector.
    pending: VecDeque<Option<Vec<f64>>>,
}

impl DifferentialEvolution {
    /// Creates the technique with a fixed seed.
    pub fn with_seed(seed: u64) -> Self {
        DifferentialEvolution {
            rng: ChaCha8Rng::seed_from_u64(seed),
            dims: None,
            population: Vec::new(),
            seed_asked: 0,
            seed_reported: 0,
            trial_ask: 0,
            trial_report: 0,
            pending: VecDeque::new(),
        }
    }

    fn random_continuous(&mut self) -> Vec<f64> {
        let dims = self.dims.as_ref().expect("initialized");
        (0..dims.dims())
            .map(|d| self.rng.gen_range(0.0..dims.size(d) as f64))
            .collect()
    }

    /// Builds the trial vector for population member `i`.
    fn trial_for(&mut self, i: usize) -> Vec<f64> {
        let n = self.population.len();
        debug_assert!(n >= 4);
        // Three distinct donors, all different from i.
        let mut pick = || loop {
            let j = self.rng.gen_range(0..n);
            if j != i {
                break j;
            }
        };
        let (a, b, c) = {
            let a = pick();
            let b = loop {
                let x = pick();
                if x != a {
                    break x;
                }
            };
            let c = loop {
                let x = pick();
                if x != a && x != b {
                    break x;
                }
            };
            (a, b, c)
        };
        let dims = self.dims.clone().expect("initialized");
        let target = self.population[i].0.clone();
        let (xa, xb, xc) = (
            self.population[a].0.clone(),
            self.population[b].0.clone(),
            self.population[c].0.clone(),
        );
        let forced = self.rng.gen_range(0..dims.dims()); // ≥1 mutated coord
        (0..dims.dims())
            .map(|d| {
                if d == forced || self.rng.gen_bool(DEFAULT_CR) {
                    let v = xa[d] + DEFAULT_F * (xb[d] - xc[d]);
                    // Reflect into range to keep diversity at the borders.
                    let hi = (dims.size(d) - 1) as f64;
                    if hi == 0.0 {
                        0.0
                    } else {
                        let mut v = v;
                        while v < 0.0 || v > hi {
                            v = if v < 0.0 { -v } else { 2.0 * hi - v };
                        }
                        v
                    }
                } else {
                    target[d]
                }
            })
            .collect()
    }
}

impl Default for DifferentialEvolution {
    fn default() -> Self {
        Self::with_seed(0xde)
    }
}

impl SearchTechnique for DifferentialEvolution {
    fn initialize(&mut self, dims: SpaceDims) {
        let pop = (dims.len().min(DEFAULT_POPULATION as u128) as usize).max(4);
        self.dims = Some(dims);
        self.population.clear();
        self.population.reserve(pop);
        for _ in 0..pop {
            let x = self.random_continuous();
            self.population.push((x, f64::NAN));
        }
        self.seed_asked = 0;
        self.seed_reported = 0;
        self.trial_ask = 0;
        self.trial_report = 0;
        self.pending.clear();
    }

    fn get_next_point(&mut self) -> Option<Point> {
        let x = if self.seed_asked < self.population.len() {
            let x = self.population[self.seed_asked].0.clone();
            self.seed_asked += 1;
            self.pending.push_back(None);
            x
        } else {
            let t = self.trial_for(self.trial_ask);
            self.trial_ask = (self.trial_ask + 1) % self.population.len();
            self.pending.push_back(Some(t.clone()));
            t
        };
        Some(self.dims.as_ref().expect("initialize not called").round(&x))
    }

    fn report_cost(&mut self, cost: f64) {
        match self.pending.pop_front() {
            None => {} // spurious report; ignore
            Some(None) => {
                let i = self.seed_reported;
                self.population[i].1 = cost;
                self.seed_reported += 1;
            }
            Some(Some(trial)) => {
                let i = self.trial_report;
                if cost <= self.population[i].1 {
                    self.population[i] = (trial, cost);
                }
                self.trial_report = (i + 1) % self.population.len();
            }
        }
    }

    /// One generation may be in flight at once — no member gets a second
    /// trial before its previous trial's report lands.
    fn can_propose(&self, outstanding: usize) -> bool {
        outstanding < self.population.len().max(1)
    }

    fn name(&self) -> &'static str {
        "differential-evolution"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_util::*;

    #[test]
    fn converges_on_bowl() {
        let mut t = DifferentialEvolution::with_seed(31);
        let (_, c) = drive(
            &mut t,
            SpaceDims::new(vec![128, 128]),
            1500,
            bowl(vec![100, 20]),
        );
        assert!(c <= 4.0, "DE far from optimum: cost {c}");
    }

    #[test]
    fn handles_tiny_spaces() {
        // Space smaller than the population: must still work.
        let mut t = DifferentialEvolution::with_seed(2);
        t.initialize(SpaceDims::new(vec![2, 2]));
        for i in 0..50 {
            let p = t.get_next_point().expect("proposal");
            assert!(p[0] < 2 && p[1] < 2);
            t.report_cost((i % 3) as f64);
        }
    }

    #[test]
    fn one_dimensional() {
        let mut t = DifferentialEvolution::with_seed(5);
        let (_, c) = drive(&mut t, SpaceDims::new(vec![4096]), 1200, |p: &Point| {
            (p[0] as f64 - 3000.0).abs()
        });
        assert!(c <= 30.0, "cost {c}");
    }

    #[test]
    fn deterministic_with_seed() {
        let run = |seed| {
            let mut t = DifferentialEvolution::with_seed(seed);
            t.initialize(SpaceDims::new(vec![64, 64]));
            (0..60)
                .map(|i| {
                    let p = t.get_next_point().unwrap();
                    t.report_cost((i % 7) as f64);
                    p
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn trial_improvement_replaces_member() {
        let mut t = DifferentialEvolution::with_seed(1);
        t.initialize(SpaceDims::new(vec![100]));
        // Seed the population with cost 10 each.
        for _ in 0..DEFAULT_POPULATION {
            let _ = t.get_next_point().unwrap();
            t.report_cost(10.0);
        }
        // First trial with a better cost must replace member 0.
        let trial = t.get_next_point().unwrap();
        t.report_cost(1.0);
        let stored = &t.population[0];
        assert_eq!(stored.1, 1.0);
        assert_eq!(
            t.dims.as_ref().unwrap().round(&stored.0),
            trial,
            "trial vector adopted"
        );
    }
}
