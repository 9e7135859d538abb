//! The search-space construction engine.
//!
//! Replaces the naive per-candidate predicate re-evaluation walk behind
//! [`SearchSpace::generate*`](crate::space::SearchSpace) with layered
//! mechanisms:
//!
//! - **Constraint compilation** ([`compile`]): alias-built constraints
//!   (`divides`, `less_than`, ...) expose their structure via
//!   [`ConstraintKind`](crate::constraint::ConstraintKind); the compiler
//!   binds each operand expression once per generation *prefix* instead of
//!   once per candidate, enumerates divisors instead of scanning windows
//!   where a `divides` atom allows it, and stops scans early with monotone
//!   propagators. Opaque predicates fall back to per-candidate evaluation —
//!   the soundness fallback — so arbitrary constraints keep working, just
//!   without the speedup. The walk stops at the last constrained parameter
//!   and emits range *positions*; the unconstrained tail is never walked.
//! - **Packed rows** ([`packed`]): the one stored form of a group's valid
//!   prefixes — a flat byte vector of positions, 1/2/4/8 bytes each —
//!   behind [`GroupSpace`](crate::space::GroupSpace), the reference
//!   generator, chunked generation and cache entries alike.
//! - **Chunked intra-group parallelism** ([`chunked`]): the leading
//!   parameter's candidates are partitioned into chunks enumerated
//!   concurrently, each into its own rows, concatenated in chunk order, so
//!   output is bit-identical to sequential generation at any thread count.
//! - **Lazy streaming spaces** ([`lazy`]): [`LazySpace`] enumerates valid
//!   configurations on demand behind the same indexable interface as the
//!   generated space, with bounded memory (block checkpoints + a small
//!   LRU block cache).
//! - **A persistent space cache** ([`cache`]): generated spaces are keyed
//!   by a content hash of the canonicalized parameter spec and persisted
//!   next to the tuning database, so a service restart re-opens sessions
//!   without regenerating identical spaces.
//!
//! [`space_from_spec`] is the one entry point that strings them together
//! for a parameter spec — probe the cache, else generate chunked and
//! store — shared by `atf-tune run` and the service's `open`.

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
pub(crate) use from_spec::space_from_groups;
pub(crate) use packed::PackedRows;
