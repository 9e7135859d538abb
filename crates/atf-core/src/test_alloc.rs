//! The counting allocator of this crate's unit-test binary: per-thread
//! heap accounting, so a test can bound what a decoder allocates for a
//! hostile input, or what a generated space keeps, while the other tests
//! of the binary run beside it. Memory a thread frees on behalf of another
//! is not attributed; measure work that stays on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-locals (no allocation, no drop glue) and
// ignores a thread-local that is already torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size());
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
        let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get().saturating_sub(1)));
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak bytes `f` had live on this thread beyond what was live before.
pub(crate) fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

/// What `f` asked of the allocator on this thread and what its result
/// still holds.
#[derive(Debug)]
pub(crate) struct Footprint {
    /// Allocation calls (a growing `Vec` makes one per regrowth).
    pub(crate) calls: usize,
    /// Heap blocks live after `f` beyond those live before.
    pub(crate) live_blocks: usize,
    /// Heap bytes live after `f` beyond those live before.
    pub(crate) live_bytes: usize,
}

pub(crate) fn footprint<T>(f: impl FnOnce() -> T) -> (T, Footprint) {
    let before = (
        CALLS.with(Cell::get),
        BLOCKS.with(Cell::get),
        LIVE.with(Cell::get),
    );
    let out = f();
    let after = Footprint {
        calls: CALLS.with(Cell::get) - before.0,
        live_blocks: BLOCKS.with(Cell::get).saturating_sub(before.1),
        live_bytes: LIVE.with(Cell::get).saturating_sub(before.2),
    };
    (out, after)
}
