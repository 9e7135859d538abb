//! Search techniques and their generic interface.
//!
//! All techniques implement the paper's `search_technique` interface
//! (Section IV): `initialize(search_space)`, `finalize()`,
//! `get_next_config()`, `report_cost(cost)`. ATF repeatedly takes a
//! configuration from the technique, measures it with the cost function, and
//! reports the cost back, until the abort condition fires.
//!
//! Techniques navigate the *valid* space through its per-group coordinates
//! ([`SpaceDims`]): one dimension per parameter group, each a contiguous
//! integer range `0..size`. With a single group this degenerates to the
//! paper's "one integer parameter `TP ∈ [1, S]`" encoding used for the
//! OpenTuner engine (Section IV-C); with several groups the techniques get a
//! multi-dimensional grid for free. `report_cost` receives the scalar
//! projection of the measured cost ([`crate::cost::CostValue::as_scalar`]);
//! failed measurements are reported as [`PENALTY_COST`].

pub mod annealing;
pub mod bandit;
pub mod differential;
pub mod exhaustive;
pub mod mutation;
pub mod nelder_mead;
pub mod pattern;
pub mod random;
pub mod torczon;

pub use annealing::SimulatedAnnealing;
pub use bandit::Ensemble;
pub use differential::DifferentialEvolution;
pub use exhaustive::Exhaustive;
pub use mutation::GreedyMutation;
pub use nelder_mead::NelderMead;
pub use pattern::PatternSearch;
pub use random::RandomSearch;
pub use torczon::Torczon;

use rand::Rng;

/// The scalar cost reported to techniques for configurations whose
/// measurement failed (compile error, invalid launch, ...). Finite so that
/// arithmetic acceptance rules (annealing) behave, but far above any real
/// cost.
pub const PENALTY_COST: f64 = 1e30;

/// Coordinates of one configuration: one index per dimension of
/// [`SpaceDims`].
pub type Point = Vec<u64>;

/// The shape of the (valid) search space presented to techniques: the size
/// of each dimension. All sizes are ≥ 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpaceDims {
    sizes: Vec<u64>,
}

impl SpaceDims {
    /// Creates the dimensions from per-dimension sizes.
    ///
    /// # Panics
    /// Panics if any dimension is empty — an empty space cannot be searched.
    pub fn new(sizes: Vec<u64>) -> Self {
        assert!(!sizes.is_empty(), "search space must have ≥ 1 dimension");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "all search-space dimensions must be non-empty"
        );
        SpaceDims { sizes }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.sizes.len()
    }

    /// Size of dimension `d`.
    pub fn size(&self, d: usize) -> u64 {
        self.sizes[d]
    }

    /// All sizes.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Total number of points (product of sizes).
    pub fn len(&self) -> u128 {
        self.sizes.iter().map(|&s| s as u128).product()
    }

    /// Always `false`: every dimension is non-empty, so the space has at
    /// least one point.
    pub fn is_empty(&self) -> bool {
        false // by construction all dims are non-empty
    }

    /// A uniformly random point.
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        self.sizes.iter().map(|&s| rng.gen_range(0..s)).collect()
    }

    /// Clamps integer coordinates into range.
    pub fn clamp(&self, point: &mut Point) {
        for (c, &s) in point.iter_mut().zip(&self.sizes) {
            *c = (*c).min(s - 1);
        }
    }

    /// Rounds and clamps a continuous point onto the grid (used by the
    /// simplex-based techniques, which work in a continuous relaxation).
    pub fn round(&self, x: &[f64]) -> Point {
        x.iter()
            .zip(&self.sizes)
            .map(|(&v, &s)| {
                let r = v.round();
                if r < 0.0 {
                    0
                } else if r >= s as f64 {
                    s - 1
                } else {
                    r as u64
                }
            })
            .collect()
    }
}

/// The paper's generic `search_technique` interface.
///
/// Contract: after [`SearchTechnique::initialize`], the tuner calls
/// `get_next_point` → (measure) → `report_cost` until the abort condition
/// fires or `get_next_point` returns `None` (space exhausted from the
/// technique's perspective). `finalize` is called once at the end.
///
/// With parallel evaluation several proposals may be *outstanding* (handed
/// out, cost not yet reported) at once. Two guarantees shield techniques
/// from the resulting chaos:
///
/// * the driver never calls `get_next_point` with `k` proposals outstanding
///   unless [`can_propose(k)`](SearchTechnique::can_propose) returns `true`;
/// * costs are always reported **in proposal order** — the `i`-th
///   `report_cost` call belongs to the `i`-th point returned by
///   `get_next_point`, regardless of the order measurements actually
///   finished in.
///
/// The default `can_propose` only allows proposing with nothing
/// outstanding, which reproduces the strict serial alternation — existing
/// third-party techniques keep working unchanged.
pub trait SearchTechnique: Send {
    /// Called once before exploration with the search-space shape.
    fn initialize(&mut self, dims: SpaceDims);

    /// Called once after exploration (free memory, close handles, ...).
    fn finalize(&mut self) {}

    /// The next configuration (as coordinates) to measure, or `None` if the
    /// technique has nothing further to propose.
    fn get_next_point(&mut self) -> Option<Point>;

    /// Reports the scalar cost of the oldest outstanding point (costs
    /// arrive in proposal order; see the trait docs).
    fn report_cost(&mut self, cost: f64);

    /// Whether the technique can propose another point while `outstanding`
    /// earlier proposals still await their cost reports.
    ///
    /// The driver consults this before every `get_next_point` call. The
    /// default (`outstanding == 0`) keeps the serial ask/report
    /// alternation; techniques supporting batched or speculative proposals
    /// override it (e.g. a population technique allows a whole generation
    /// outstanding at once).
    fn can_propose(&self, outstanding: usize) -> bool {
        outstanding == 0
    }

    /// Technique name for logs and experiment records.
    fn name(&self) -> &'static str;
}

impl<T: SearchTechnique + ?Sized> SearchTechnique for Box<T> {
    fn initialize(&mut self, dims: SpaceDims) {
        (**self).initialize(dims)
    }
    fn finalize(&mut self) {
        (**self).finalize()
    }
    fn get_next_point(&mut self) -> Option<Point> {
        (**self).get_next_point()
    }
    fn report_cost(&mut self, cost: f64) {
        (**self).report_cost(cost)
    }
    fn can_propose(&self, outstanding: usize) -> bool {
        (**self).can_propose(outstanding)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Drives a technique against a synthetic cost landscape and returns the
    /// best (point, cost) found within `budget` evaluations.
    pub fn drive(
        tech: &mut dyn SearchTechnique,
        dims: SpaceDims,
        budget: usize,
        mut cost: impl FnMut(&Point) -> f64,
    ) -> (Point, f64) {
        tech.initialize(dims.clone());
        let mut best: Option<(Point, f64)> = None;
        for _ in 0..budget {
            let Some(p) = tech.get_next_point() else {
                break;
            };
            for (d, &c) in p.iter().enumerate() {
                assert!(c < dims.size(d), "technique proposed out-of-range point");
            }
            let c = cost(&p);
            tech.report_cost(c);
            if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                best = Some((p, c));
            }
        }
        tech.finalize();
        best.expect("technique proposed no point")
    }

    /// A bowl-shaped landscape with minimum at `target`.
    pub fn bowl(target: Vec<u64>) -> impl FnMut(&Point) -> f64 {
        move |p: &Point| {
            p.iter()
                .zip(&target)
                .map(|(&a, &b)| {
                    let d = a as f64 - b as f64;
                    d * d
                })
                .sum::<f64>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn dims_basics() {
        let d = SpaceDims::new(vec![4, 5, 6]);
        assert_eq!(d.dims(), 3);
        assert_eq!(d.len(), 120);
        assert_eq!(d.size(1), 5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dim_rejected() {
        SpaceDims::new(vec![4, 0]);
    }

    #[test]
    fn random_point_in_range() {
        let d = SpaceDims::new(vec![3, 1, 100]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            let p = d.random_point(&mut rng);
            assert!(p[0] < 3 && p[1] < 1 && p[2] < 100);
        }
    }

    #[test]
    fn round_clamps() {
        let d = SpaceDims::new(vec![10]);
        assert_eq!(d.round(&[-3.2]), vec![0]);
        assert_eq!(d.round(&[4.4]), vec![4]);
        assert_eq!(d.round(&[4.6]), vec![5]);
        assert_eq!(d.round(&[99.0]), vec![9]);
    }

    #[test]
    fn clamp_point() {
        let d = SpaceDims::new(vec![10, 2]);
        let mut p = vec![50, 1];
        d.clamp(&mut p);
        assert_eq!(p, vec![9, 1]);
    }
}
