//! Simulated annealing — "has proven to be effective for auto-tuning OpenCL
//! and CUDA applications if search spaces are too large to be explored
//! exhaustively" (paper, Sections II/IV-B; Kirkpatrick et al. 1983).
//!
//! In each step the technique proposes a random neighbour `c'` of the
//! current configuration `c`; after the cost `t'` is reported, `c'` becomes
//! the new current configuration with probability
//! `P(t, t', T) = exp(-(t' - t) / T)` if `t' ≥ t` and 1 otherwise. The value
//! `T = 4` was reported as suitable for OpenCL and CUDA (CLTune); costs are
//! normalized by the best cost seen so far, so that `T` is scale-free (raw
//! kernel runtimes may be nanoseconds or minutes).

use super::{Point, SearchTechnique, SpaceDims, PENALTY_COST};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// The paper's default annealing temperature (from CLTune).
pub const DEFAULT_TEMPERATURE: f64 = 4.0;

/// Restart from a fresh random point after this many consecutive steps
/// without improving the best cost.
const RESTART_AFTER: u64 = 500;

/// Simulated-annealing search.
#[derive(Clone, Debug)]
pub struct SimulatedAnnealing {
    rng: ChaCha8Rng,
    dims: Option<SpaceDims>,
    /// Temperature `T`, constant over the run (the paper's variant has no
    /// cooling).
    t0: f64,
    /// Current configuration and its cost.
    current: Option<(Point, f64)>,
    /// Proposals awaiting their cost reports, in proposal order. Under
    /// speculative (parallel) proposing several neighbours of the same —
    /// possibly stale — current point may be outstanding at once; reports
    /// arrive in this order and are reconciled one by one.
    pending: VecDeque<Point>,
    /// Best cost seen (for cost normalization).
    best_seen: f64,
    /// Steps since the last improvement of `best_seen` (drives restarts).
    stagnation: u64,
}

impl SimulatedAnnealing {
    /// Annealing with the paper's settings (`T = 4`, no cooling) and a fixed
    /// seed; the walk restarts after 500 non-improving steps.
    pub fn with_seed(seed: u64) -> Self {
        SimulatedAnnealing {
            rng: ChaCha8Rng::seed_from_u64(seed),
            dims: None,
            t0: DEFAULT_TEMPERATURE,
            current: None,
            pending: VecDeque::new(),
            best_seen: f64::INFINITY,
            stagnation: 0,
        }
    }

    /// Sets the temperature (default 4, per the paper).
    pub fn temperature(mut self, t: f64) -> Self {
        assert!(t > 0.0, "temperature must be positive");
        self.t0 = t;
        self
    }

    /// Acceptance probability for moving from cost `t` to cost `t_new` at
    /// temperature `temp`, with costs normalized by `scale` (the best cost
    /// seen). Public for testing and documentation.
    pub fn acceptance_probability(t: f64, t_new: f64, temp: f64, scale: f64) -> f64 {
        if t_new <= t {
            1.0
        } else {
            let scale = if scale.is_finite() && scale > 0.0 {
                scale
            } else {
                1.0
            };
            (-((t_new - t) / scale) / temp).exp()
        }
    }

    /// Proposes a random neighbour of `p`: one dimension is perturbed by a
    /// geometrically distributed step (small steps common, large rare), so
    /// the walk can both fine-tune and escape local basins.
    fn neighbour(&mut self, p: &Point) -> Point {
        let dims = self.dims.as_ref().expect("initialized");
        let mut q = p.clone();
        // Perturb 1 dimension (occasionally 2 if available).
        let n_perturb = if dims.dims() > 1 && self.rng.gen_bool(0.25) {
            2
        } else {
            1
        };
        for _ in 0..n_perturb {
            let d = self.rng.gen_range(0..dims.dims());
            let size = dims.size(d);
            if size == 1 {
                continue;
            }
            // Scale-free (log-uniform) step magnitude: on large dimensions
            // (e.g. a single-group valid space with millions of indices) the
            // walk must mix short fine-tuning moves with long-range jumps,
            // or it never leaves the basin it started in.
            let max_exp = 63 - (size - 1).max(1).leading_zeros() as u64; // ⌊log2⌋
            let exp = self.rng.gen_range(0..=max_exp);
            let lo = 1u64 << exp;
            let hi = (lo * 2 - 1).min(size - 1);
            let step = self.rng.gen_range(lo..=hi.max(lo));
            let cur = q[d];
            q[d] = if self.rng.gen_bool(0.5) {
                // Wrap-around keeps the stationary distribution uniform.
                (cur + step) % size
            } else {
                (cur + size - (step % size)) % size
            };
        }
        q
    }
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        Self::with_seed(0xa17f)
    }
}

impl SearchTechnique for SimulatedAnnealing {
    fn initialize(&mut self, dims: SpaceDims) {
        self.dims = Some(dims);
        self.current = None;
        self.pending.clear();
        self.best_seen = f64::INFINITY;
        self.stagnation = 0;
    }

    fn get_next_point(&mut self) -> Option<Point> {
        let p = match &self.current {
            None => {
                let dims = self.dims.as_ref().expect("initialize not called");
                dims.random_point(&mut self.rng)
            }
            Some((cur, _)) => {
                let cur = cur.clone();
                self.neighbour(&cur)
            }
        };
        self.pending.push_back(p.clone());
        Some(p)
    }

    fn report_cost(&mut self, cost: f64) {
        let Some(p) = self.pending.pop_front() else {
            return; // spurious report; ignore
        };
        if cost < self.best_seen {
            self.best_seen = cost;
            self.stagnation = 0;
        } else {
            self.stagnation += 1;
        }
        match &self.current {
            None => self.current = Some((p, cost)),
            Some((_, t)) => {
                let accept = if cost >= PENALTY_COST {
                    false // never walk onto failed configurations
                } else {
                    let pr = Self::acceptance_probability(*t, cost, self.t0, self.best_seen);
                    pr >= 1.0 || self.rng.gen_bool(pr)
                };
                if accept {
                    self.current = Some((p, cost));
                }
            }
        }
        if self.stagnation >= RESTART_AFTER {
            self.current = None; // restart from a fresh random point
            self.stagnation = 0;
        }
    }

    /// Speculative lookahead: several neighbours of the (possibly stale)
    /// current point may be outstanding at once; reports are reconciled in
    /// proposal order, so the walk stays well-defined.
    fn can_propose(&self, _outstanding: usize) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "simulated-annealing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::test_util::*;

    #[test]
    fn acceptance_probability_laws() {
        // Better or equal: always accept.
        assert_eq!(
            SimulatedAnnealing::acceptance_probability(5.0, 4.0, 4.0, 1.0),
            1.0
        );
        assert_eq!(
            SimulatedAnnealing::acceptance_probability(5.0, 5.0, 4.0, 1.0),
            1.0
        );
        // Worse: exp(-(Δ/scale)/T), monotone in Δ and T.
        let p1 = SimulatedAnnealing::acceptance_probability(1.0, 2.0, 4.0, 1.0);
        let p2 = SimulatedAnnealing::acceptance_probability(1.0, 3.0, 4.0, 1.0);
        assert!(p2 < p1 && p1 < 1.0);
        let hot = SimulatedAnnealing::acceptance_probability(1.0, 2.0, 8.0, 1.0);
        assert!(hot > p1);
        // The paper's formula exactly: Δ=1, T=4 → e^{-0.25}.
        assert!((p1 - (-0.25f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance() {
        // Costs in nanoseconds vs seconds give identical probabilities when
        // normalized by the best seen.
        let a = SimulatedAnnealing::acceptance_probability(1e-9, 2e-9, 4.0, 1e-9);
        let b = SimulatedAnnealing::acceptance_probability(1.0, 2.0, 4.0, 1.0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn finds_good_point_on_bowl() {
        let mut t = SimulatedAnnealing::with_seed(11);
        let (p, c) = drive(
            &mut t,
            SpaceDims::new(vec![64, 64]),
            800,
            bowl(vec![50, 13]),
        );
        assert!(c <= 8.0, "annealing ended far from optimum: {p:?} cost {c}");
    }

    #[test]
    fn handles_penalty_costs() {
        // A landscape where half the space "fails"; annealing must still
        // find the valid minimum and never crash on the penalty.
        let mut t = SimulatedAnnealing::with_seed(5);
        let (_, c) = drive(&mut t, SpaceDims::new(vec![128]), 600, |p: &Point| {
            if p[0] % 2 == 1 {
                PENALTY_COST
            } else {
                (p[0] as f64 - 64.0).abs()
            }
        });
        assert!(c <= 6.0, "cost {c}");
    }

    #[test]
    fn neighbour_stays_in_bounds() {
        let mut t = SimulatedAnnealing::with_seed(1);
        let dims = SpaceDims::new(vec![7, 1, 13]);
        t.initialize(dims.clone());
        let p = vec![3, 0, 12];
        for _ in 0..200 {
            let q = t.neighbour(&p);
            for (d, &c) in q.iter().enumerate() {
                assert!(c < dims.size(d));
            }
        }
    }

    #[test]
    fn restart_resets_current() {
        let mut t = SimulatedAnnealing::with_seed(2);
        t.initialize(SpaceDims::new(vec![100]));
        let _ = t.get_next_point().unwrap();
        t.report_cost(0.0); // best cost 0 — nothing can improve on it
        for _ in 1..RESTART_AFTER {
            let _ = t.get_next_point().unwrap();
            t.report_cost(1.0);
        }
        assert!(
            t.current.is_some(),
            "restarted before {RESTART_AFTER} steps"
        );
        // The RESTART_AFTER-th non-improving step restarts the walk from a
        // fresh random point.
        let _ = t.get_next_point().unwrap();
        t.report_cost(1.0);
        assert!(t.current.is_none());
        assert!(t.get_next_point().is_some());
    }

    #[test]
    fn deterministic_with_seed() {
        let run = |seed| {
            let mut t = SimulatedAnnealing::with_seed(seed);
            t.initialize(SpaceDims::new(vec![50, 50]));
            let mut pts = Vec::new();
            for i in 0..20 {
                let p = t.get_next_point().unwrap();
                pts.push(p.clone());
                t.report_cost((i % 5) as f64);
            }
            pts
        };
        assert_eq!(run(9), run(9));
    }
}
