//! Lazy streaming spaces: enumerate valid configurations on demand instead
//! of materializing them.
//!
//! A [`LazyGroup`] runs one counting pass at construction (same compiled
//! walk as materialized generation, but nothing is stored except a
//! *checkpoint* — the per-depth candidate positions — every `block_size`
//! valid configs). Random access restores the nearest checkpoint and
//! re-enumerates at most one block, which lands in a small LRU block cache.
//! Memory is O(valid/block_size) for checkpoints plus O(blocks · block_size)
//! for the cache — bounded regardless of how many valid configurations the
//! group has.
//!
//! [`LazySpace`] is the cross product of lazy groups and implements the
//! same indexable interface as the materialized
//! [`SearchSpace`](crate::space::SearchSpace) (`len`/`get`/`decompose`/
//! `compose`/`iter`). It is library-only: a
//! [`TuningSession`](crate::session::TuningSession) reads a `SearchSpace`,
//! which holds packed rows and nothing else.

use super::compile::{GroupPlan, Walker};
use crate::config::Config;
use crate::param::ParamGroup;
use crate::space::SpaceError;
use crate::value::Value;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// How many blocks the per-group LRU cache retains.
const CACHE_BLOCKS: usize = 8;

/// Default block size (configs between checkpoints).
pub const DEFAULT_BLOCK_SIZE: u64 = 1024;

/// A resumable iterative enumerator over one group's valid configurations.
/// Equivalent to the reference walk over every parameter (it does not stop
/// at the unconstrained tail), but iterative, so the position after any
/// emitted config can be snapshotted and restored. The walker's per-depth
/// cursors are its frames: the parameter at every depth up to the walker's
/// is bound under the prefix above it.
pub(crate) struct GroupCursor<'p> {
    walker: Walker<'p>,
    /// Number of parameters.
    len: usize,
    started: bool,
    done: bool,
}

impl<'p> GroupCursor<'p> {
    pub(crate) fn new(plan: &'p GroupPlan) -> Self {
        GroupCursor {
            walker: Walker::new(plan),
            len: plan.len(),
            started: false,
            done: false,
        }
    }

    /// Fills depths from `d0` to the last one with the first valid
    /// completion, backtracking within `d0..` as needed. On `false` the
    /// walker is back at depth `d0`.
    fn descend(&mut self, d0: usize) -> bool {
        debug_assert_eq!(self.walker.depth(), d0);
        let mut d = d0;
        'outer: loop {
            self.walker.bind();
            if let Some((pos, v)) = self.walker.next() {
                self.walker.push(pos, v);
                if d + 1 == self.len {
                    return true;
                }
                d += 1;
                continue 'outer;
            }
            // No candidate at depth d: advance an earlier depth.
            loop {
                if d == d0 {
                    return false;
                }
                d -= 1;
                self.walker.pop();
                if let Some((pos, v)) = self.walker.next() {
                    self.walker.push(pos, v);
                    d += 1;
                    continue 'outer;
                }
            }
        }
    }

    /// Advances to the next valid configuration.
    pub(crate) fn next(&mut self) -> Option<&Config> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            if !self.descend(0) {
                self.done = true;
                return None;
            }
            return Some(self.walker.config());
        }
        loop {
            let d = self.walker.depth() - 1;
            self.walker.pop();
            if let Some((pos, v)) = self.walker.next() {
                self.walker.push(pos, v);
                if d + 1 == self.len || self.descend(d + 1) {
                    return Some(self.walker.config());
                }
                continue; // deeper subtree empty: advance depth d again
            }
            if d == 0 {
                self.done = true;
                return None;
            }
        }
    }

    /// The per-depth range positions of the configuration the cursor
    /// currently points at. Valid only right after [`Self::next`] returned
    /// `Some`.
    pub(crate) fn snapshot(&self) -> Vec<u64> {
        debug_assert_eq!(self.walker.depth(), self.len);
        self.walker.positions().to_vec()
    }

    /// Repositions the cursor at a previously snapshotted configuration and
    /// returns it. The positions are trusted — they were valid when
    /// snapshotted, and candidate sources are deterministic per prefix.
    pub(crate) fn restore(&mut self, positions: &[u64]) -> &Config {
        while self.walker.depth() > 0 {
            self.walker.pop();
        }
        self.started = true;
        self.done = false;
        for &pos in positions {
            self.walker.bind();
            let v = self.walker.seek(pos);
            self.walker.push(pos, v);
        }
        self.walker.config()
    }
}

/// One parameter group enumerated lazily: a compiled plan, block
/// checkpoints from the counting pass, and a bounded LRU block cache.
/// Cloning shares the cache.
#[derive(Clone)]
pub struct LazyGroup {
    plan: Arc<GroupPlan>,
    names: Arc<[Arc<str>]>,
    len: u64,
    block_size: u64,
    /// Cursor positions of configs `0, B, 2B, ...`.
    checkpoints: Arc<[Vec<u64>]>,
    cache: Arc<Mutex<BlockCache>>,
}

/// One materialized block of configurations, shared between the cache and
/// readers.
type Block = Arc<Vec<Box<[Value]>>>;

#[derive(Default)]
struct BlockCache {
    /// `(block index, configs)` in LRU order (front = oldest).
    blocks: VecDeque<(u64, Block)>,
}

impl LazyGroup {
    /// Builds the lazy view of `group`: one counting pass recording a
    /// checkpoint every `block_size` valid configurations.
    pub fn build(group: &ParamGroup, block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let plan = GroupPlan::compile(group);
        let mut checkpoints = Vec::new();
        let mut len = 0u64;
        {
            let mut cursor = GroupCursor::new(&plan);
            while cursor.next().is_some() {
                if len.is_multiple_of(block_size) {
                    checkpoints.push(cursor.snapshot());
                }
                len += 1;
            }
        }
        let names = plan.names();
        LazyGroup {
            plan: Arc::new(plan),
            names,
            len,
            block_size,
            checkpoints: checkpoints.into(),
            cache: Arc::new(Mutex::new(BlockCache::default())),
        }
    }

    /// Number of valid configurations.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the group has no valid configuration.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The parameter names of this group, in declaration order.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    fn block(&self, block: u64) -> Block {
        let mut cache = self.cache.lock().expect("lazy block cache lock");
        if let Some(i) = cache.blocks.iter().position(|(b, _)| *b == block) {
            let hit = cache.blocks.remove(i).expect("position valid");
            cache.blocks.push_back(hit.clone());
            return hit.1;
        }
        let start = block * self.block_size;
        let count = self.block_size.min(self.len - start) as usize;
        let mut configs = Vec::with_capacity(count);
        let mut cursor = GroupCursor::new(&self.plan);
        let values = |cfg: &Config| cfg.iter().map(|(_, v)| v.clone()).collect();
        configs.push(values(cursor.restore(&self.checkpoints[block as usize])));
        while configs.len() < count {
            configs.push(values(
                cursor.next().expect("count pass said configs exist"),
            ));
        }
        let entry = Arc::new(configs);
        cache.blocks.push_back((block, entry.clone()));
        while cache.blocks.len() > CACHE_BLOCKS {
            cache.blocks.pop_front();
        }
        entry
    }

    /// The `i`-th valid configuration's values.
    pub fn values(&self, i: u64) -> Vec<Value> {
        assert!(i < self.len, "lazy group index {i} out of bounds");
        let block = self.block(i / self.block_size);
        block[(i % self.block_size) as usize].to_vec()
    }

    /// Appends the `i`-th valid configuration's entries to `out`.
    pub fn write_config(&self, i: u64, out: &mut Config) {
        assert!(i < self.len, "lazy group index {i} out of bounds");
        let block = self.block(i / self.block_size);
        let vals = &block[(i % self.block_size) as usize];
        for (name, value) in self.names.iter().zip(vals.iter()) {
            out.push(name.clone(), value.clone());
        }
    }
}

impl fmt::Debug for LazyGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LazyGroup({:?}; {} valid configs, block {})",
            self.names.iter().map(|n| n.as_ref()).collect::<Vec<_>>(),
            self.len,
            self.block_size
        )
    }
}

/// A lazily enumerated search space: the (virtual) cross product of
/// [`LazyGroup`]s, indexable exactly like the materialized
/// [`SearchSpace`](crate::space::SearchSpace).
#[derive(Clone, Debug)]
pub struct LazySpace {
    groups: Vec<LazyGroup>,
    len: u128,
}

impl LazySpace {
    /// Builds lazy views of all groups with the default block size.
    pub fn generate(groups: &[ParamGroup]) -> Result<Self, SpaceError> {
        Self::generate_with_block(groups, DEFAULT_BLOCK_SIZE)
    }

    /// Builds lazy views with an explicit block size (configs between
    /// checkpoints — smaller blocks mean faster random access and more
    /// checkpoint memory).
    pub fn generate_with_block(groups: &[ParamGroup], block_size: u64) -> Result<Self, SpaceError> {
        let lazy: Vec<LazyGroup> = groups
            .iter()
            .map(|g| LazyGroup::build(g, block_size))
            .collect();
        Self::from_groups(lazy)
    }

    /// Assembles a lazy space from already-built lazy groups.
    pub fn from_groups(groups: Vec<LazyGroup>) -> Result<Self, SpaceError> {
        let mut len: u128 = if groups.is_empty() { 0 } else { 1 };
        for g in &groups {
            len = len
                .checked_mul(g.len() as u128)
                .ok_or(SpaceError::Overflow)?;
        }
        Ok(LazySpace { groups, len })
    }

    /// Total number of valid configurations.
    pub fn len(&self) -> u128 {
        self.len
    }

    /// `true` if the space contains no valid configuration.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lazy group views.
    pub fn groups(&self) -> &[LazyGroup] {
        &self.groups
    }

    /// The per-group sizes — the dimensions search techniques navigate.
    pub fn dims(&self) -> Vec<u64> {
        self.groups.iter().map(|g| g.len()).collect()
    }

    /// The configuration at per-group coordinates `coords`.
    pub fn get_by_coords(&self, coords: &[u64]) -> Config {
        assert_eq!(coords.len(), self.groups.len(), "coordinate arity mismatch");
        let mut cfg = Config::new();
        for (g, &i) in self.groups.iter().zip(coords) {
            g.write_config(i, &mut cfg);
        }
        cfg
    }

    /// The configuration at flat index `index`.
    pub fn get(&self, index: u128) -> Config {
        self.get_by_coords(&self.decompose(index))
    }

    /// Decomposes a flat index into per-group coordinates.
    pub fn decompose(&self, mut index: u128) -> Vec<u64> {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        let mut coords = vec![0u64; self.groups.len()];
        for (c, g) in coords.iter_mut().zip(&self.groups).rev() {
            let n = g.len() as u128;
            *c = (index % n) as u64;
            index /= n;
        }
        coords
    }

    /// Recomposes per-group coordinates into a flat index.
    pub fn compose(&self, coords: &[u64]) -> u128 {
        assert_eq!(coords.len(), self.groups.len(), "coordinate arity mismatch");
        let mut index = 0u128;
        for (g, &c) in self.groups.iter().zip(coords) {
            debug_assert!(c < g.len());
            index = index * g.len() as u128 + c as u128;
        }
        index
    }

    /// Iterates over all configurations in index order.
    pub fn iter(&self) -> impl Iterator<Item = Config> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::divides;
    use crate::expr::{cst, param as p};
    use crate::param::{tp, tp_c};
    use crate::range::Range;
    use crate::space::SearchSpace;

    fn saxpy_groups(n: u64) -> Vec<ParamGroup> {
        vec![ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, n), divides(cst(n))),
            tp_c("LS", Range::interval(1, n), divides(cst(n) / p("WPT"))),
        ])]
    }

    #[test]
    fn lazy_agrees_with_materialized() {
        let groups = saxpy_groups(64);
        let lazy = LazySpace::generate_with_block(&groups, 7).unwrap();
        let eager = SearchSpace::generate(&groups);
        assert_eq!(lazy.len(), eager.len());
        assert_eq!(lazy.dims(), eager.dims());
        for i in 0..lazy.len() {
            assert_eq!(lazy.get(i), eager.get(i), "config {i}");
            let coords = lazy.decompose(i);
            assert_eq!(coords, eager.decompose(i));
            assert_eq!(lazy.compose(&coords), i);
        }
    }

    #[test]
    fn random_access_after_cache_eviction() {
        let groups = saxpy_groups(256);
        let lazy = LazySpace::generate_with_block(&groups, 4).unwrap();
        let eager = SearchSpace::generate(&groups);
        // Jump around far more blocks than the cache holds.
        let n = lazy.len();
        let mut i = 0u128;
        for k in 0..200u128 {
            i = (i * 31 + k * 17 + 7) % n;
            assert_eq!(lazy.get(i), eager.get(i), "config {i}");
        }
    }

    #[test]
    fn multi_group_lazy_space() {
        let g1 = ParamGroup::new(vec![
            tp("A", Range::interval(1, 16)),
            tp_c("B", Range::interval(1, 16), divides(p("A"))),
        ]);
        let g2 = ParamGroup::new(vec![tp("C", Range::set([1u64, 2, 4]))]);
        let lazy = LazySpace::generate(&[g1.clone(), g2.clone()]).unwrap();
        let eager = SearchSpace::generate(&[g1, g2]);
        assert_eq!(lazy.len(), eager.len());
        for i in (0..lazy.len()).step_by(5) {
            assert_eq!(lazy.get(i), eager.get(i));
        }
    }

    #[test]
    fn empty_lazy_space() {
        let g = ParamGroup::new(vec![tp_c(
            "X",
            Range::interval(1, 10),
            crate::constraint::less_than(cst(0u64)),
        )]);
        let lazy = LazySpace::generate(&[g]).unwrap();
        assert!(lazy.is_empty());
        assert_eq!(lazy.iter().count(), 0);
    }
}
