//! # clblast — the paper's tunable kernels on the simulated OpenCL platform
//!
//! A faithful functional port of the two CLBlast kernels the ATF paper uses:
//!
//! * [`saxpy`] — the introductory example (Listings 1-2): parameters `WPT`
//!   and `LS` with the divisibility dependencies of Section II;
//! * [`xgemm_direct`] — the evaluation workload (Section VI): the
//!   `XgemmDirect` GEMM kernel with its 10 tuning parameters and
//!   interdependencies, plus a functional executor verified against the
//!   naive [`reference`] BLAS;
//! * [`xgemm_space`] — the tuning-space definitions: the native ATF space,
//!   the CLTune-constrained variants, CLBlast's artificially limited ranges
//!   (empty for the Caffe sizes!), and the unconstrained OpenTuner ranges;
//! * [`caffe`] — the four deep-learning input sizes of Figure 2.

pub mod caffe;
pub mod reference;
pub mod saxpy;
pub mod xgemm_direct;
pub mod xgemm_space;

pub use saxpy::{saxpy_space, SaxpyKernel, SAXPY_SOURCE};
pub use xgemm_direct::{XgemmDirectKernel, XgemmParams, XGEMM_DIRECT_SOURCE, XGEMM_PARAMS};
pub use xgemm_space::{
    atf_space, atf_space_cltune_constraints, atf_space_wgd_max, clblast_launch,
    clblast_limited_space, cltune_launch, config_is_valid, default_config, defines_from_config,
    params_from_config, unconstrained_params, WGD_MAX,
};
