//! Greedy-mutation hill climber: mutate random coordinates of the best
//! configuration found so far; adopt on improvement. OpenTuner's evolutionary
//! component in miniature, and a strong technique on rugged auto-tuning
//! landscapes.

use super::{Point, SearchTechnique, SpaceDims};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Mutation rate: expected fraction of coordinates perturbed per step.
const RATE: f64 = 0.35;

/// Restart from a fresh random point after this many consecutive steps
/// without improving the incumbent.
const RESTART_AFTER: u64 = 400;

/// Greedy mutation of the incumbent best point.
#[derive(Clone, Debug)]
pub struct GreedyMutation {
    rng: ChaCha8Rng,
    dims: Option<SpaceDims>,
    best: Option<(Point, f64)>,
    /// Proposals awaiting their cost reports, in proposal order. Several
    /// speculative mutants of the (possibly stale) incumbent may be
    /// outstanding at once under parallel evaluation.
    pending: VecDeque<Point>,
    /// Non-improving steps since the incumbent last changed.
    stagnation: u64,
}

impl GreedyMutation {
    /// Creates the technique with a fixed seed.
    pub fn with_seed(seed: u64) -> Self {
        GreedyMutation {
            rng: ChaCha8Rng::seed_from_u64(seed),
            dims: None,
            best: None,
            pending: VecDeque::new(),
            stagnation: 0,
        }
    }

    #[allow(clippy::needless_range_loop)] // `d` indexes dims and q together
    fn mutate(&mut self, p: &Point) -> Point {
        let dims = self.dims.as_ref().expect("initialized");
        let mut q = p.clone();
        let mut touched = false;
        for d in 0..dims.dims() {
            let size = dims.size(d);
            if size > 1 && self.rng.gen_bool(RATE) {
                q[d] = self.rng.gen_range(0..size);
                touched = true;
            }
        }
        if !touched {
            // Force at least one perturbation on a mutable dimension.
            let mutable: Vec<usize> = (0..dims.dims()).filter(|&d| dims.size(d) > 1).collect();
            if let Some(&d) = mutable.get(self.rng.gen_range(0..mutable.len().max(1))) {
                q[d] = self.rng.gen_range(0..dims.size(d));
            }
        }
        q
    }
}

impl Default for GreedyMutation {
    fn default() -> Self {
        Self::with_seed(0x6e47)
    }
}

impl SearchTechnique for GreedyMutation {
    fn initialize(&mut self, dims: SpaceDims) {
        self.dims = Some(dims);
        self.best = None;
        self.pending.clear();
        self.stagnation = 0;
    }

    fn get_next_point(&mut self) -> Option<Point> {
        let dims = self.dims.clone().expect("initialize not called");
        let p = match &self.best {
            None => dims.random_point(&mut self.rng),
            Some((b, _)) => {
                let b = b.clone();
                self.mutate(&b)
            }
        };
        self.pending.push_back(p.clone());
        Some(p)
    }

    fn report_cost(&mut self, cost: f64) {
        let Some(p) = self.pending.pop_front() else {
            return;
        };
        match &self.best {
            Some((_, bc)) if cost >= *bc => {
                self.stagnation += 1;
                if self.stagnation >= RESTART_AFTER {
                    self.best = None;
                    self.stagnation = 0;
                }
            }
            _ => {
                self.best = Some((p, cost));
                self.stagnation = 0;
            }
        }
    }

    /// Speculative lookahead: mutants of the incumbent are independent of
    /// each other, so any number may be outstanding at once.
    fn can_propose(&self, _outstanding: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "greedy-mutation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_util::*;

    #[test]
    fn converges_on_bowl() {
        let mut t = GreedyMutation::with_seed(19);
        let (_, c) = drive(
            &mut t,
            SpaceDims::new(vec![64, 64]),
            1500,
            bowl(vec![10, 60]),
        );
        assert!(c <= 16.0, "greedy mutation far from optimum: cost {c}");
    }

    #[test]
    fn all_dims_size_one() {
        let mut t = GreedyMutation::with_seed(1);
        t.initialize(SpaceDims::new(vec![1, 1, 1]));
        for _ in 0..10 {
            assert_eq!(t.get_next_point(), Some(vec![0, 0, 0]));
            t.report_cost(1.0);
        }
    }

    #[test]
    fn mutation_stays_in_bounds() {
        let mut t = GreedyMutation::with_seed(7);
        let dims = SpaceDims::new(vec![5, 2, 9]);
        t.initialize(dims.clone());
        for i in 0..200 {
            let p = t.get_next_point().unwrap();
            for (d, &c) in p.iter().enumerate() {
                assert!(c < dims.size(d));
            }
            t.report_cost((i % 9) as f64);
        }
    }

    #[test]
    fn restart_clears_incumbent() {
        let mut t = GreedyMutation::with_seed(2);
        t.initialize(SpaceDims::new(vec![100]));
        let _ = t.get_next_point().unwrap();
        t.report_cost(0.0); // incumbent cost 0 — nothing can improve on it
        for _ in 0..RESTART_AFTER {
            let _ = t.get_next_point().unwrap();
            t.report_cost(1.0);
        }
        // Without a restart the incumbent would still be the cost-0 point
        // (1.0 never improves on 0.0); the RESTART_AFTER-th non-improving
        // step cleared it, so the next 1.0 report is adopted as the fresh
        // incumbent.
        assert!(t.best.is_none());
        let _ = t.get_next_point().unwrap();
        t.report_cost(1.0);
        assert!(t.best.as_ref().is_some_and(|(_, c)| *c == 1.0));
    }
}
