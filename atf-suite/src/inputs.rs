//! Seeded generators of everything a workload feeds the program under test:
//! spaces, wire specs, cost functions, request streams. The same seed gives
//! the same inputs; nothing here reads the clock.

use atf_core::expr::{cst, param};
use atf_core::prelude::*;
use atf_ocl::{buffer_random_f32, scalar, OclCostFunction};
use clblast::XgemmDirectKernel;
use ocl_sim::{DeviceModel, Scalar};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Caffe input size IS2 (the paper's Section VI shape the tuning workloads
/// use): `20×25 · 25×576`.
pub const IS2: (u64, u64, u64) = clblast::caffe::IS2;

/// A deterministic generator for stream `stream` of run seed `seed`, so two
/// generators of one run never share a sequence.
pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// `n` uniform indices below `len`.
pub fn random_indices(seed: u64, stream: u64, n: usize, len: u128) -> Vec<u128> {
    let mut r = rng(seed, stream);
    (0..n).map(|_| u128::from(r.next_u64()) % len).collect()
}

/// The XgemmDirect cost function on the Tesla K20m model at `shape`, with
/// CLBlast's padded launch geometry; `seed` seeds the buffers and the
/// simulated measurement noise.
pub fn xgemm_cost(shape: (u64, u64, u64), seed: u64) -> OclCostFunction {
    let (m, n, k) = shape;
    atf_ocl::ocl_on(DeviceModel::tesla_k20m(), XgemmDirectKernel)
        .arg(scalar(Scalar::U64(m)))
        .arg(scalar(Scalar::U64(n)))
        .arg(scalar(Scalar::U64(k)))
        .arg(scalar(1.0f32))
        .arg(scalar(0.0f32))
        .arg(buffer_random_f32((m * k) as usize))
        .arg(buffer_random_f32((k * n) as usize))
        .arg(buffer_random_f32((m * n) as usize))
        .global_size([
            cst(m).ceil_div(param("WGD")) * param("MDIMCD"),
            cst(n).ceil_div(param("WGD")) * param("NDIMCD"),
        ])
        .local_size([param("MDIMCD"), param("NDIMCD")])
        .seed(seed)
        .build()
}

/// The ten XgemmDirect parameters as wire `ParameterSpec`s with ranges
/// capped at `cap` — the constraint text of `examples/campaigns/gemm/*.json`.
pub fn xgemm_wire_spec(cap: u64) -> Vec<ParameterSpec> {
    let interval = |name: &str, constraint: Option<&str>| ParameterSpec {
        name: name.into(),
        interval: Some(IntervalSpec {
            begin: 1,
            end: cap,
            step: 1,
        }),
        set: None,
        constraint: constraint.map(str::to_string),
    };
    let set = |name: &str, values: &[u64], constraint: Option<&str>| ParameterSpec {
        name: name.into(),
        interval: None,
        set: Some(values.to_vec()),
        constraint: constraint.map(str::to_string),
    };
    vec![
        interval("WGD", None),
        interval("MDIMCD", Some("divides(WGD)")),
        interval(
            "NDIMCD",
            Some("divides(WGD) && less_than(1024 / MDIMCD + 1)"),
        ),
        interval("MDIMAD", Some("divides(WGD) && divides(MDIMCD * NDIMCD)")),
        interval("NDIMBD", Some("divides(WGD) && divides(MDIMCD * NDIMCD)")),
        interval("KWID", Some("divides(WGD)")),
        set(
            "VWMD",
            &[1, 2, 4, 8],
            Some("divides(WGD / MDIMCD) && divides(WGD / MDIMAD)"),
        ),
        set(
            "VWND",
            &[1, 2, 4, 8],
            Some("divides(WGD / NDIMCD) && divides(WGD / NDIMBD)"),
        ),
        set("PADA", &[0, 1], None),
        set("PADB", &[0, 1], None),
    ]
}

/// The constraint strings of [`xgemm_wire_spec`], in declaration order.
pub fn xgemm_constraint_texts() -> Vec<String> {
    xgemm_wire_spec(64)
        .into_iter()
        .filter_map(|p| p.constraint)
        .collect()
}

/// The cost a service client reports for a wire configuration: a cheap
/// seeded arithmetic landscape (the service workloads measure the service,
/// not a cost model).
pub fn wire_cost(config: &BTreeMap<String, u64>, seed: u64) -> f64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for v in config.values() {
        h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    }
    1.0 + (h % 100_000) as f64 / 100.0
}

fn fnv_fold(h: u64, value: &Value) -> u64 {
    (h ^ value.as_u64().unwrap_or(u64::MAX)).wrapping_mul(0x100_0000_01b3)
}

/// The oracle's side of the space check: length and FNV-1a over the values
/// of every `stride`-th configuration of the reference walk.
pub fn checksum_reference(space: &GroupSpace, stride: u64) -> (u128, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in (0..space.len()).step_by(stride as usize) {
        h = space.values(i).iter().fold(h, fnv_fold);
    }
    (u128::from(space.len()), h)
}

/// The same checksum taken through `SearchSpace::get`, the way users read
/// a generated space.
pub fn checksum_space(space: &SearchSpace, stride: u64) -> (u128, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0u128;
    while i < space.len() {
        h = space.get(i).iter().fold(h, |h, (_, v)| fnv_fold(h, v));
        i += u128::from(stride);
    }
    (space.len(), h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(
            random_indices(7, 1, 100, 1000),
            random_indices(7, 1, 100, 1000)
        );
        assert_ne!(
            random_indices(7, 1, 100, 1000),
            random_indices(8, 1, 100, 1000)
        );
        assert_ne!(
            random_indices(7, 1, 100, 1000),
            random_indices(7, 2, 100, 1000)
        );
        assert!(random_indices(3, 0, 1000, 17).iter().all(|&i| i < 17));
    }

    #[test]
    fn wire_spec_matches_the_native_space() {
        let params = atf_core::spec::build_params(&xgemm_wire_spec(8)).expect("spec parses");
        let wire = SearchSpace::generate(&auto_group(params));
        let native = SearchSpace::generate(&clblast::xgemm_space::atf_space_wgd_max(8));
        assert_eq!(wire.len(), native.len());
        // The two checksums agree on one space read both ways, and notice a
        // different one.
        let group = &clblast::xgemm_space::atf_space_wgd_max(8)[0];
        let reference = GroupSpace::generate_reference(group);
        assert_eq!(
            checksum_reference(&reference, 7),
            checksum_space(&native, 7)
        );
        let smaller = SearchSpace::generate(&clblast::xgemm_space::atf_space_wgd_max(7));
        assert_ne!(
            checksum_reference(&reference, 7),
            checksum_space(&smaller, 7)
        );
        assert_eq!(xgemm_constraint_texts().len(), 7);
    }
}
