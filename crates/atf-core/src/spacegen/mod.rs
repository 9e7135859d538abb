//! The search-space construction engine.
//!
//! Replaces the naive per-candidate predicate re-evaluation walk behind
//! [`SearchSpace::generate*`](crate::space::SearchSpace) with layered
//! mechanisms:
//!
//! - **Constraint compilation** ([`compile`]): alias-built constraints
//!   (`divides`, `less_than`, ...) expose their structure via
//!   [`ConstraintKind`](crate::constraint::ConstraintKind); the compiler
//!   resolves operand names to parameter slots, binds each operand
//!   expression at most once per generation *prefix* instead of once per
//!   candidate, draws candidates from memoised divisor lists instead of
//!   scanning windows where `divides` atoms allow it, and stops scans early
//!   with monotone propagators. The walk allocates nothing per prefix. Opaque predicates fall back to per-candidate evaluation —
//!   the soundness fallback — so arbitrary constraints keep working, just
//!   without the speedup. The walk stops at the last constrained parameter
//!   and emits range *positions*; the unconstrained tail is never walked.
//! - **Packed rows** ([`packed`]): the one stored form of a group's valid
//!   prefixes — a flat byte vector of positions, 1/2/4/8 bytes each —
//!   behind [`GroupSpace`](crate::space::GroupSpace), the reference
//!   generator and chunked generation alike.
//! - **Chunked intra-group parallelism** ([`chunked`]): the leading
//!   parameter's candidates are partitioned into chunks enumerated
//!   concurrently, each into its own rows, concatenated in chunk order, so
//!   output is bit-identical to sequential generation at any thread count.
//!
//! [`space_from_spec`] is the one entry point that strings them together
//! for a parameter spec — group, then generate chunked — shared by
//! `atf-tune run` and the service's `open`. A space is generated on every
//! run and every `open`; nothing persists one (DESIGN.md, "Why there is no
//! space cache").
//!
//! Two leaf modules are library-only — no product path reaches them, and
//! nothing else in `crates/*/src` names them: [`lazy`] ([`LazySpace`]
//! enumerates configurations on demand from block checkpoints) and
//! [`cache`] ([`SpaceCache`] stores and loads group spaces as files keyed
//! by [`spec_key`]). They stay because `atf-suite` still times them.

mod cache;
mod chunked;
mod compile;
mod from_spec;
mod lazy;
mod packed;

pub use cache::{spec_key, SpaceCache};
pub use chunked::{default_threads, generate_group_chunked, generate_groups_chunked};
pub use from_spec::{space_from_spec, SpaceBuild};
pub use lazy::{LazyGroup, LazySpace, DEFAULT_BLOCK_SIZE};

pub(crate) use compile::{configs, tail_len, GroupPlan};
pub(crate) use packed::PackedRows;
