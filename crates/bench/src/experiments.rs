//! The paper's evaluation, one function per experiment. Each takes its sizes
//! (range caps, budgets, seeds) as arguments — [`EXPERIMENTS`] runs them at
//! full scale, `tests/gemm_reproduction.rs` at test scale — and returns its
//! records. Next to each are the predicates that state its shape claims.

use crate::{cltune_xgemm, devices, saxpy_cost_function, xgemm_cost_function, Experiment, Record};
use atf_core::constraint::divides;
use atf_core::expr::param;
use atf_core::prelude::*;
use atf_core::spacegen::generate_group_chunked;
use atf_core::trace::NullSink;
use atf_ocl::OclCostFunction;
use baselines::{CltuneGenError, OpenTunerStyleTuner};
use clblast::caffe::{INPUT_SIZES, IS2, IS4, LABELS};
use clblast::xgemm_space::{atf_space_wgd_max, WGD_MAX};
use clblast::{
    atf_space_cltune_constraints, clblast_limited_space, default_config, unconstrained_params,
};
use ocl_sim::DeviceModel;
use std::time::{Duration, Instant};

/// `(name, predicate)` pairs, each predicate named after its function.
macro_rules! claims {
    ($($predicate:ident),*) => { &[$((stringify!($predicate), $predicate)),*] };
}

/// Every experiment, at the scale its results are committed at.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig2",
        paper: "Figure 2: XgemmDirect tuned by ATF vs CLTune and OpenTuner, CPU/GPU x IS1-IS4 \
                (paper: ATF/CLTune 1.66-17.60x CPU, 1.33-3.62x GPU; ATF/OpenTuner 1.98-5.31x CPU, \
                1.20-1.65x GPU)",
        run: || fig2(WGD_MAX, 3_000, 10_000),
        predicates: claims![
            atf_beats_both_baselines,
            cpu_speedup_above_gpu_at_every_is,
            largest_cltune_speedup_at_cpu_is4
        ],
    },
    Experiment {
        name: "tab_generation",
        paper: "Section VI-A: space generation, ATF's constrained ranges vs CLTune's filtered \
                cross product (paper: CLTune aborted after 3 h on unrestricted 32x32 ranges; \
                ATF < 1 s)",
        run: || tab_generation(&[4, 6, 8, 12, 16, 24, 32, 48, 64], Duration::from_secs(20)),
        predicates: claims![
            cltune_agrees_where_it_completes,
            atf_under_1s_where_cltune_aborted,
            cltune_projects_hours_at_full_ranges
        ],
    },
    Experiment {
        name: "tab_space_sizes",
        paper: "Section VI: unconstrained vs valid XgemmDirect space (paper: >1e19 vs ~1e7 at \
                2^10 x 2^10; 1e13 vs 1e6 at IS4)",
        run: || tab_space_sizes(&[8, 16, 32, 64], WGD_MAX),
        predicates: claims![limited_space_empty_at_every_is],
    },
    Experiment {
        name: "tab_constraint_relaxation",
        paper: "Section VI-A: dropping CLTune's WGD-divides-M/N constraints (paper, IS4: CPU \
                12.85x -> 17.60x, GPU 2.89x -> 3.62x)",
        run: || tab_constraint_relaxation(WGD_MAX, 4_000, 3),
        predicates: claims![relaxation_improves_everywhere],
    },
    Experiment {
        name: "tab_opentuner_validity",
        paper: "Section VI-B: OpenTuner on the unconstrained space (paper: no valid configuration \
                in 10 000 evaluations; valid fraction ~1e-7)",
        run: || tab_opentuner_validity(WGD_MAX, 10_000),
        predicates: claims![opentuner_finds_no_valid_configuration],
    },
    Experiment {
        name: "tab_search_comparison",
        paper: "Section IV: search techniques on saxpy (exhaustive feasible) and XgemmDirect IS2, \
                plus the annealing temperature around the paper's T = 4",
        run: || tab_search_comparison(WGD_MAX, &[500, 2_000]),
        predicates: &[],
    },
    Experiment {
        name: "tab_parallel_generation",
        paper: "Section V / Figure 1: parallel generation of independent groups and chunked \
                generation of one group",
        run: || {
            tab_parallel_generation(&[(2, 1024), (4, 1024), (8, 768), (16, 56)], 32, &[1, 2, 8])
        },
        predicates: &[],
    },
    Experiment {
        name: "tab_ensemble_ablation",
        paper: "Ablation: the AUC-bandit ensemble vs each isolated technique, XgemmDirect IS4 \
                on the GPU",
        run: || tab_ensemble_ablation(WGD_MAX, 1_500, &[11, 23, 37, 51, 67]),
        predicates: claims![ensemble_beats_the_weaker_half],
    },
];

/// `Ok` when `ok` holds for every record of a non-empty selection; otherwise
/// names the first record it fails on.
fn every<'a>(
    records: impl IntoIterator<Item = &'a Record>,
    ok: impl Fn(&Record) -> bool,
) -> Result<(), String> {
    let records: Vec<&Record> = records.into_iter().collect();
    match records.iter().find(|r| !ok(r)) {
        _ if records.is_empty() => Err("no record to check".into()),
        Some(r) => Err(format!("fails at {}: {:?} {:?}", r.key(), r.exact, r.timed)),
        None => Ok(()),
    }
}

/// Best cost `technique` reaches within `budget` evaluations of `space`.
fn best_cost(
    technique: impl SearchTechnique + 'static,
    space: &SearchSpace,
    mut cost_function: OclCostFunction,
    budget: u64,
) -> f64 {
    let result = Tuner::new()
        .technique(technique)
        .abort_condition(abort::evaluations(budget))
        .tune_space(space, &mut cost_function)
        .expect("the space is non-empty");
    result.best_cost
}

fn count(groups: &[ParamGroup]) -> f64 {
    SearchSpace::count(groups).expect("the space is countable") as f64
}

/// Figure 2. *CLTune*: CLBlast's range-limited space is empty for every Caffe
/// size (`tab_space_sizes`), so the kernel runs with the device-optimized
/// values CLTune finds on the 256×256 "average" size (Section VI-A).
/// *OpenTuner*: penalty search over the unconstrained ranges, falling back to
/// CLBlast's defaults unless it finds something faster (Section VI-B).
/// *ATF*: the ensemble over the constrained space, generated once — it does
/// not depend on the matrix size.
pub fn fig2(cap: u64, atf_budget: u64, opentuner_budget: u64) -> Vec<Record> {
    let space = SearchSpace::generate(&atf_space_wgd_max(cap));
    let mut records = Vec::new();
    for (dev, device) in devices() {
        let cltune_config = cltune_device_optimized(&device);
        for (label, &shape) in LABELS.iter().zip(&INPUT_SIZES) {
            let cf = || xgemm_cost_function(device.clone(), shape);
            let atf = best_cost(Ensemble::opentuner_default(0xa7f), &space, cf(), atf_budget);
            let cltune = cf()
                .measure(&cltune_config)
                .expect("CLTune's configuration launches with the padded global size");
            let ot = OpenTunerStyleTuner::from_u64_ranges(unconstrained_params(cap))
                .seed(0x07)
                .tune(opentuner_budget, &mut cf());
            let default = cf()
                .measure(&default_config())
                .expect("the defaults launch");
            let opentuner = ot.best.as_ref().map_or(default, |(_, c)| c.min(default));
            records.push(
                Record::new(dev, *label)
                    .exact("atf_ns", atf)
                    .exact("cltune_ns", cltune)
                    .exact("opentuner_ns", opentuner)
                    .exact("default_ns", default)
                    .exact("speedup_vs_cltune", cltune / atf)
                    .exact("speedup_vs_opentuner", opentuner / atf)
                    .exact("opentuner_valid_fraction", ot.valid_fraction()),
            );
        }
    }
    records
}

/// CLTune's device-optimized configuration: CLBlast's limited ranges tuned on
/// the 256×256×256 size, where they leave a non-empty space.
fn cltune_device_optimized(device: &DeviceModel) -> Config {
    let pow2 = || vec![8, 16, 32];
    let mut tuner = cltune_xgemm([pow2(), pow2(), pow2(), pow2(), pow2(), vec![2, 8, 16]]);
    tuner.use_annealing(0.5, 4.0);
    tuner.seed(0xc1);
    let mut cf = xgemm_cost_function(device.clone(), (256, 256, 256));
    let result = tuner
        .tune(&mut cf)
        .expect("the limited cross product is small");
    result.expect("the 256x256 space is non-empty").best_config
}

/// ATF's best is at least as fast as CLTune's and OpenTuner's on every device × IS.
pub fn atf_beats_both_baselines(records: &[Record]) -> Result<(), String> {
    every(records, |r| {
        r.get("speedup_vs_cltune") >= 1.0 && r.get("speedup_vs_opentuner") >= 1.0
    })
}

/// The CPU's ATF/CLTune speedup is above the GPU's at every IS.
pub fn cpu_speedup_above_gpu_at_every_is(records: &[Record]) -> Result<(), String> {
    let gpu = |workload: &str| {
        let r = records
            .iter()
            .find(|r| r.device == "GPU" && r.workload == workload);
        r.map_or(f64::NAN, |r| r.get("speedup_vs_cltune"))
    };
    every(records.iter().filter(|r| r.device == "CPU"), |cpu| {
        cpu.get("speedup_vs_cltune") > gpu(&cpu.workload)
    })
}

/// The largest ATF/CLTune speedup is at CPU/IS4.
pub fn largest_cltune_speedup_at_cpu_is4(records: &[Record]) -> Result<(), String> {
    let speedup = |r: &&Record| r.get("speedup_vs_cltune");
    let largest = records
        .iter()
        .max_by(|a, b| speedup(a).total_cmp(&speedup(b)));
    every(largest, |r| r.key() == "CPU/IS4")
}

/// Section VI-A: the XgemmDirect space with every range capped at each of
/// `caps`, generated by ATF's constrained-range walk and by CLTune's filtered
/// cross product. CLTune gets `budget` per cap (the paper's 3 hours, scaled
/// down); where it runs out, its time is projected from the fraction done.
pub fn tab_generation(caps: &[u64], budget: Duration) -> Vec<Record> {
    let mut records = Vec::new();
    for &cap in caps {
        let t0 = Instant::now();
        let valid = count(&atf_space_wgd_max(cap));
        let atf_s = t0.elapsed().as_secs_f64();
        let mut cltune = cltune_xgemm(std::array::from_fn(|_| (1..=cap).collect()));
        cltune.generation_budget(budget);
        let cross = cltune.cross_product_size() as f64;
        let t0 = Instant::now();
        let outcome = cltune.generate_space();
        let cltune_s = t0.elapsed().as_secs_f64();
        let record = Record::new("-", format!("cap{cap}"))
            .exact("cross_product", cross)
            .exact("valid", valid)
            .timed("atf_s", atf_s)
            .timed("cltune_s", cltune_s);
        records.push(match outcome {
            Ok(space) => record.timed("cltune_valid", space.len() as f64),
            Err(CltuneGenError::TimedOut {
                candidates_enumerated,
                ..
            }) => {
                let done = candidates_enumerated as f64 / cross;
                record
                    .timed("cltune_done", done)
                    .timed("cltune_projected_s", cltune_s / done)
            }
            Err(e) => panic!("cap {cap}: CLTune has no candidate limit here, yet: {e}"),
        });
    }
    records
}

/// Wherever CLTune's generation completes, it counts ATF's valid space.
pub fn cltune_agrees_where_it_completes(records: &[Record]) -> Result<(), String> {
    every(records.iter().filter(|r| r.has("cltune_valid")), |r| {
        r.get("cltune_valid") == r.get("valid")
    })
}

/// ATF generates in under a second wherever CLTune ran out of time.
pub fn atf_under_1s_where_cltune_aborted(records: &[Record]) -> Result<(), String> {
    every(
        records.iter().filter(|r| r.has("cltune_projected_s")),
        |r| r.get("atf_s") < 1.0,
    )
}

/// At the largest cap CLTune's projected generation takes at least an hour
/// while ATF takes under a second (the paper: aborted after 3 h vs < 1 s).
pub fn cltune_projects_hours_at_full_ranges(records: &[Record]) -> Result<(), String> {
    let cross = |r: &&Record| r.get("cross_product");
    let full = records.iter().max_by(|a, b| cross(a).total_cmp(&cross(b)));
    every(full, |r| {
        r.get("atf_s") < 1.0 && r.get("cltune_projected_s") >= 3600.0
    })
}

/// XgemmDirect's unconstrained cross product with `{1..n}` integer ranges:
/// `n⁶ · 4² · 2²` (six integers, two vector widths, two booleans).
fn unconstrained(n: u64) -> f64 {
    ((n as u128).pow(6) * 64) as f64
}

/// Section VI: the valid space under each WGD cap in `caps`, against the
/// unconstrained cross product; the paper's two reference points; and per
/// Caffe size, the valid space at `is_cap` and CLBlast's range-limited one.
pub fn tab_space_sizes(caps: &[u64], is_cap: u64) -> Vec<Record> {
    let mut records: Vec<Record> = caps
        .iter()
        .map(|&cap| {
            Record::new("-", format!("cap{cap}"))
                .exact("valid", count(&atf_space_wgd_max(cap)))
                .exact("unconstrained", unconstrained(cap))
        })
        .collect();
    // With `{1..N}` ranges the unconstrained space keeps growing but the
    // valid one does not: local memory caps WGD, and every parameter that
    // divides it, at 77, so the valid count is the capped one.
    let valid = count(&atf_space_wgd_max(is_cap));
    for (label, n) in [("IS4 (N = 500)", 500), ("2^10 x 2^10", 1024)] {
        let record = Record::new("-", label).exact("valid", valid);
        records.push(record.exact("unconstrained", unconstrained(n)));
    }
    for (label, &(m, n, k)) in LABELS.iter().zip(&INPUT_SIZES) {
        let record = Record::new("-", *label)
            .exact("valid", valid)
            .exact("clblast_limited", count(&clblast_limited_space(m, n, k)));
        records.push(record.exact("unconstrained", unconstrained(is_cap)));
    }
    records
}

/// CLBlast's range-limited space is empty at every Caffe size.
pub fn limited_space_empty_at_every_is(records: &[Record]) -> Result<(), String> {
    every(records.iter().filter(|r| r.has("clblast_limited")), |r| {
        r.get("clblast_limited") == 0.0
    })
}

/// Section VI-A: ATF can express CLBlast's padded global size, so it can drop
/// the `WGD divides rows/columns` constraints CLTune needs. The constrained
/// space is searched exhaustively; the relaxed one (ranges capped at `cap`)
/// by the ensemble, best of `restarts` runs of `budget` evaluations.
pub fn tab_constraint_relaxation(cap: u64, budget: u64, restarts: u64) -> Vec<Record> {
    let full = SearchSpace::generate(&atf_space_wgd_max(cap));
    let mut records = Vec::new();
    for (dev, device) in devices() {
        for (label, &(m, n, k)) in LABELS.iter().zip(&INPUT_SIZES) {
            let cf = || xgemm_cost_function(device.clone(), (m, n, k));
            let constrained = atf_space_cltune_constraints(m, n, k);
            let best_constrained = Tuner::new()
                .technique(Exhaustive::new())
                .tune(&constrained, &mut cf())
                .expect("the constrained space is non-empty at the Caffe sizes")
                .best_cost;
            let best_full = (0..restarts)
                .map(|r| best_cost(Ensemble::opentuner_default(0x11 + r), &full, cf(), budget))
                .fold(f64::INFINITY, f64::min);
            records.push(
                Record::new(dev, *label)
                    .exact("constrained_space", count(&constrained))
                    .exact("full_space", full.len() as f64)
                    .exact("best_constrained_ns", best_constrained)
                    .exact("best_full_ns", best_full)
                    .exact("improvement", best_constrained / best_full),
            );
        }
    }
    records
}

/// Dropping CLTune's constraints improves the best cost on every device × IS.
pub fn relaxation_improves_everywhere(records: &[Record]) -> Result<(), String> {
    every(records, |r| r.get("improvement") > 1.0)
}

/// Section VI-B: the valid fraction of the unconstrained space (exactly: the
/// ATF count over the cross product, ranges capped at `cap`), and a
/// penalty-driven OpenTuner run of `budget` evaluations per device × size.
pub fn tab_opentuner_validity(cap: u64, budget: u64) -> Vec<Record> {
    let ranges = unconstrained_params(cap);
    let cross: u128 = ranges.iter().map(|(_, r)| r.len() as u128).product();
    let cross = cross as f64;
    let valid = count(&atf_space_wgd_max(cap));
    let mut records = vec![Record::new("-", "space")
        .exact("unconstrained", cross)
        .exact("valid", valid)
        .exact("exact_fraction", valid / cross)];
    for (dev, device) in devices() {
        for (label, &(m, n, k)) in LABELS.iter().zip(&INPUT_SIZES) {
            let mut cf = xgemm_cost_function(device.clone(), (m, n, k));
            let run = OpenTunerStyleTuner::from_u64_ranges(ranges.clone())
                .seed(0x5eed ^ m ^ n)
                .tune(budget, &mut cf);
            let mut record = Record::new(dev, *label)
                .exact("evaluations", run.evaluations as f64)
                .exact("valid", run.valid_evaluations as f64);
            if let Some((_, best)) = run.best {
                record = record.exact("best_ns", best);
            }
            records.push(record);
        }
    }
    records
}

/// OpenTuner finds no valid configuration on any device × IS.
pub fn opentuner_finds_no_valid_configuration(records: &[Record]) -> Result<(), String> {
    every(records.iter().filter(|r| r.has("evaluations")), |r| {
        r.get("valid") == 0.0 && !r.has("best_ns")
    })
}

fn techniques(seed: u64) -> Vec<(&'static str, Box<dyn SearchTechnique>)> {
    vec![
        ("random", Box::new(RandomSearch::with_seed(seed))),
        (
            "annealing(T=4)",
            Box::new(SimulatedAnnealing::with_seed(seed)),
        ),
        ("nelder-mead", Box::new(NelderMead::with_seed(seed))),
        ("torczon", Box::new(Torczon::with_seed(seed))),
        ("pattern", Box::new(PatternSearch::with_seed(seed))),
        ("mutation", Box::new(GreedyMutation::with_seed(seed))),
        ("ensemble", Box::new(Ensemble::opentuner_default(seed))),
    ]
}

/// Section IV: every technique on saxpy with 120 evaluations, against the
/// exhaustive optimum; on XgemmDirect IS2 (ranges capped at `cap`) at each of
/// `budgets`; and annealing's temperature around the paper's T = 4 at the
/// largest budget.
pub fn tab_search_comparison(cap: u64, budgets: &[u64]) -> Vec<Record> {
    let n = 1 << 20;
    let saxpy = SearchSpace::generate(&clblast::saxpy_space(n));
    let saxpy_cf = || saxpy_cost_function(DeviceModel::tesla_k20m(), n);
    let exhaustive = Tuner::new()
        .technique(Exhaustive::new())
        .tune_space(&saxpy, &mut saxpy_cf())
        .expect("the saxpy space is non-empty");
    let mut records = vec![Record::new("GPU", "saxpy")
        .exact("exhaustive_best_ns", exhaustive.best_cost)
        .exact("exhaustive_evals", exhaustive.evaluations as f64)];
    for (name, tech) in techniques(0x41) {
        let best = best_cost(tech, &saxpy, saxpy_cf(), 120);
        records.push(
            Record::new("GPU", format!("saxpy/{name}"))
                .exact("best_ns", best)
                .exact("off_optimal", best / exhaustive.best_cost),
        );
    }
    let xgemm = SearchSpace::generate(&atf_space_wgd_max(cap));
    let xgemm_cf = || xgemm_cost_function(DeviceModel::tesla_k20m(), IS2);
    for &budget in budgets {
        for (name, tech) in techniques(0x42) {
            let best = best_cost(tech, &xgemm, xgemm_cf(), budget);
            let record = Record::new("GPU", format!("xgemm/{name}/b{budget}"));
            records.push(record.exact("best_ns", best));
        }
    }
    let budget = budgets.iter().copied().max().unwrap_or(0);
    for t in [0.5f64, 1.0, 4.0, 16.0, 64.0] {
        let annealing = SimulatedAnnealing::with_seed(0x43).temperature(t);
        let best = best_cost(annealing, &xgemm, xgemm_cf(), budget);
        records.push(Record::new("GPU", format!("xgemm/annealing-T{t}")).exact("best_ns", best));
    }
    records
}

/// `g` independent groups, each a WPT/LS-style divisor chain over `1..=n` —
/// the paper's Figure-1 example, scaled up.
fn independent_groups(g: usize, n: u64) -> Vec<ParamGroup> {
    let group = |i| {
        let (a, b) = (format!("tp{i}_a"), format!("tp{i}_b"));
        let chain = tp_c(b, Range::interval(1, n), divides(param(a.clone())));
        ParamGroup::new(vec![tp(a, Range::interval(1, n)), chain])
    };
    (0..g).map(group).collect()
}

/// Section V: the Figure-1 example (two groups of 3 configurations); each
/// `(groups, n)` of `independent` generated sequentially and in parallel;
/// and XgemmDirect capped at `cap` as one group, chunked over each of
/// `threads`.
pub fn tab_parallel_generation(
    independent: &[(usize, u64)],
    cap: u64,
    threads: &[usize],
) -> Vec<Record> {
    let fig1 = SearchSpace::generate_parallel(&independent_groups(2, 2));
    let mut records = vec![Record::new("-", "fig1").exact("space", fig1.len() as f64)];
    for &(g, n) in independent {
        let groups = independent_groups(g, n);
        let t0 = Instant::now();
        let seq = SearchSpace::generate(&groups);
        let sequential_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let par = SearchSpace::generate_parallel(&groups);
        let parallel_s = t0.elapsed().as_secs_f64();
        assert_eq!(seq.len(), par.len(), "parallel must equal sequential");
        records.push(
            Record::new("-", format!("g{g}_n{n}"))
                .exact("space", seq.len() as f64)
                .timed("sequential_s", sequential_s)
                .timed("parallel_s", parallel_s)
                .timed("speedup", sequential_s / parallel_s),
        );
    }
    let group = &atf_space_wgd_max(cap)[0];
    let mut base = None;
    for &t in threads {
        let t0 = Instant::now();
        let space = generate_group_chunked(group, t, u64::MAX, None, &NullSink, 0)
            .expect("unlimited generation cannot fail");
        let seconds = t0.elapsed().as_secs_f64();
        let base = *base.get_or_insert(seconds);
        records.push(
            Record::new("-", format!("chunked_t{t}"))
                .exact("space", space.len() as f64)
                .timed("seconds", seconds)
                .timed("speedup", base / seconds),
        );
    }
    records
}

type Arm = fn(u64) -> Box<dyn SearchTechnique>;

/// The ensemble against each isolated technique — its six members and
/// annealing — on XgemmDirect IS4 on the GPU (ranges capped at `cap`), mean
/// and best over `seeds` of `budget` evaluations each.
pub fn tab_ensemble_ablation(cap: u64, budget: u64, seeds: &[u64]) -> Vec<Record> {
    let space = SearchSpace::generate(&atf_space_wgd_max(cap));
    let record = |name: &str, make: &dyn Fn(u64) -> Box<dyn SearchTechnique>| {
        let cf = || xgemm_cost_function(DeviceModel::tesla_k20m(), IS4);
        let costs: Vec<f64> = seeds
            .iter()
            .map(|&seed| best_cost(make(seed), &space, cf(), budget))
            .collect();
        let best = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        Record::new("GPU", name)
            .exact("mean_ns", mean)
            .exact("best_ns", best)
    };
    let arms: [(&str, Arm); 8] = [
        ("random", |s| Box::new(RandomSearch::with_seed(s))),
        ("annealing", |s| Box::new(SimulatedAnnealing::with_seed(s))),
        ("nelder-mead", |s| Box::new(NelderMead::with_seed(s))),
        ("torczon", |s| Box::new(Torczon::with_seed(s))),
        ("pattern", |s| Box::new(PatternSearch::with_seed(s))),
        ("mutation", |s| Box::new(GreedyMutation::with_seed(s))),
        ("diff-evolution", |s| {
            Box::new(DifferentialEvolution::with_seed(s))
        }),
        ("ENSEMBLE (default)", |s| {
            Box::new(Ensemble::opentuner_default(s))
        }),
    ];
    arms.iter().map(|(name, make)| record(name, make)).collect()
}

/// The ensemble's mean best beats at least half of the isolated techniques
/// (the weaker half).
pub fn ensemble_beats_the_weaker_half(records: &[Record]) -> Result<(), String> {
    let ensemble = records.iter().find(|r| r.workload == "ENSEMBLE (default)");
    let mean = ensemble.map_or(f64::NAN, |r| r.get("mean_ns"));
    let isolated: Vec<&Record> = records
        .iter()
        .filter(|r| !r.workload.starts_with("ENSEMBLE"))
        .collect();
    let beaten = isolated.iter().filter(|r| r.get("mean_ns") > mean).count();
    let n = isolated.len();
    match n > 0 && 2 * beaten >= n {
        true => Ok(()),
        false => Err(format!("mean {mean} beats {beaten} of {n} techniques")),
    }
}
