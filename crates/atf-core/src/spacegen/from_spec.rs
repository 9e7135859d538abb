//! The one spec → space step: what `atf-tune run` and the service's `open`
//! both do between parsing a parameter spec and opening a session.

use super::{default_threads, generate_groups_chunked, spec_key, SpaceCache};
use crate::metrics::MetricsRegistry;
use crate::param::{auto_group, ParamGroup};
use crate::space::SearchSpace;
use crate::spec::{build_params, ParameterSpec, SpecError};
use crate::trace::{TraceEvent, TraceSink};
use std::path::Path;
use std::time::{Duration, Instant};

/// How [`space_from_spec`] obtained a space.
#[derive(Clone, Copy, Debug)]
pub struct SpaceBuild {
    /// Wall-clock time of the cache probe plus the load, or the generation
    /// and store.
    pub elapsed: Duration,
    /// Whether the space came from the persistent cache (`None` when no
    /// cache directory was given).
    pub cache_hit: Option<bool>,
}

impl SpaceBuild {
    /// Counts this build in the registry of the session opened over the
    /// space: `space_gen_micros` and the cache hit or miss.
    pub fn record(&self, metrics: &MetricsRegistry) {
        metrics
            .space_gen_micros
            .add(u64::try_from(self.elapsed.as_micros()).unwrap_or(u64::MAX));
        match self.cache_hit {
            Some(true) => metrics.space_cache_hits.inc(),
            Some(false) => metrics.space_cache_misses.inc(),
            None => {}
        }
    }
}

/// Builds the search space of a parameter spec: parameters are grouped
/// automatically ([`auto_group`]), and with a `cache_dir` the persistent
/// [`SpaceCache`] (capped by `max_entries` / `max_bytes`) is probed by the
/// spec's content hash before generating — a miss generates (chunked
/// across each group's leading parameter) and stores the result for the
/// next run or `open`. Emits `space_cache`, `space_chunk` and `space_gen`
/// events to `trace`.
pub fn space_from_spec(
    parameters: &[ParameterSpec],
    cache_dir: Option<&Path>,
    max_entries: Option<usize>,
    max_bytes: Option<u64>,
    trace: &dyn TraceSink,
) -> Result<(SearchSpace, SpaceBuild), SpecError> {
    let groups = auto_group(build_params(parameters)?);
    let cache = cache_dir.map(|dir| {
        (
            SpaceCache::new(dir).with_limits(max_entries, max_bytes),
            spec_key(parameters),
        )
    });
    let started = Instant::now();
    let (space, cache_hit) = space_from_groups(&groups, cache.as_ref(), trace);
    let elapsed = started.elapsed();
    Ok((space, SpaceBuild { elapsed, cache_hit }))
}

/// Probe `cache` under `key`, else generate and store; without a cache,
/// just generate ([`SearchSpace::generate_parallel`]).
pub(crate) fn space_from_groups(
    groups: &[ParamGroup],
    cache: Option<&(SpaceCache, String)>,
    trace: &dyn TraceSink,
) -> (SearchSpace, Option<bool>) {
    let cached = cache.and_then(|(cache, key)| {
        let hit = cache.load(key);
        trace.emit(&TraceEvent::space_cache(key, hit.is_some()));
        hit
    });
    let cache_hit = cache.map(|_| cached.is_some());
    let group_spaces = cached.unwrap_or_else(|| {
        let generated = generate_groups_chunked(groups, default_threads(), trace);
        if let Some((cache, key)) = cache {
            if let Err(e) = cache.store(key, &generated) {
                eprintln!("atf: could not store space cache entry {key}: {e}");
            }
        }
        generated
    });
    (SearchSpace::from_group_spaces(group_spaces), cache_hit)
}
