//! The one spec → space step: what `atf-tune run` and the service's `open`
//! both do between parsing a parameter spec and opening a session.

use super::{default_threads, generate_groups_chunked};
use crate::metrics::MetricsRegistry;
use crate::param::auto_group;
use crate::space::SearchSpace;
use crate::spec::{build_params, ParameterSpec, SpecError};
use crate::trace::TraceSink;
use std::time::{Duration, Instant};

/// What [`space_from_spec`] spent building a space.
#[derive(Clone, Copy, Debug)]
pub struct SpaceBuild {
    /// Wall-clock time of the generation.
    pub elapsed: Duration,
}

impl SpaceBuild {
    /// Counts this build in the registry of the session opened over the
    /// space (`space_gen_micros`).
    pub fn record(&self, metrics: &MetricsRegistry) {
        metrics
            .space_gen_micros
            .add(u64::try_from(self.elapsed.as_micros()).unwrap_or(u64::MAX));
    }
}

/// Builds the search space of a parameter spec: parameters are grouped
/// automatically ([`auto_group`]) and every group is generated, chunked
/// across its leading parameter ([`generate_groups_chunked`]). Emits
/// `space_chunk` and `space_gen` events to `trace`.
pub fn space_from_spec(
    parameters: &[ParameterSpec],
    trace: &dyn TraceSink,
) -> Result<(SearchSpace, SpaceBuild), SpecError> {
    let groups = auto_group(build_params(parameters)?);
    let started = Instant::now();
    let generated = generate_groups_chunked(&groups, default_threads(), trace);
    let space = SearchSpace::from_group_spaces(generated);
    let elapsed = started.elapsed();
    Ok((space, SpaceBuild { elapsed }))
}
