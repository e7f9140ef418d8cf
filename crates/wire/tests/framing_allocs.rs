//! Framing records into a large enough [`Writer`] must not touch the
//! heap: the length-prefix path (`reserve_u32` → body → `patch_u32`)
//! exists so that no record needs an intermediate `Vec`. A counting
//! global allocator sees every allocation this test's own thread makes
//! while counting is on; the test runner's other threads are ignored.

use pmp_wire::Writer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts an allocation if this thread is counting. The cells are
/// `const`-initialised and have no destructor, so reading them never
/// allocates and never re-enters the allocator.
fn count() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `count` only touches
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// How many allocations (and reallocations) `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn framing_into_a_presized_writer_never_allocates() {
    const RECORDS: usize = 20_000;
    const PAYLOAD: usize = 64;
    // The counter must see a heap allocation, or a zero below proves
    // nothing.
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(8)))),
        1
    );

    let payload = [0xabu8; PAYLOAD];
    let mut w = Writer::with_capacity(RECORDS * (PAYLOAD + 16));
    let allocations = allocations_in(|| {
        for i in 0..RECORDS {
            let slot = w.reserve_u32();
            let body = w.mark();
            w.put_u64(i as u64);
            w.put_raw(&payload);
            let len = (w.mark() - body) as u32;
            w.patch_u32(slot, len);
        }
    });
    assert_eq!(
        allocations, 0,
        "framing {RECORDS} records allocated {allocations} times"
    );
    assert_eq!(w.len(), RECORDS * (4 + 8 + PAYLOAD));
}
