//! "No heap allocation per operation": a Memory-mode histogram run makes
//! the same number of heap allocations at every size, so nothing the VM
//! executes per loop iteration or per map element touches the heap.
//!
//! The test binary installs a counting global allocator; only the
//! allocations of the thread running the measured call are counted.

use arraymem_exec::{Mode, Session};
use arraymem_workloads::irregular::histogram_case;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `Some(n)` while this thread is being measured.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations (including reallocations) this thread makes in `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

/// Allocations of one warm Memory-mode histogram run over `n` items at
/// one worker thread (the warm-up run fills the store's free lists, as
/// in any session serving more than one call).
fn histogram_run_allocations(n: usize) -> u64 {
    let case = histogram_case("alloc", n, 64, 1);
    let compiled = case.compile(true);
    let mut session = Session::new();
    let h = session
        .prepare_full(
            &compiled.program,
            &case.kernels,
            &[],
            &compiled.report.merges,
            &compiled.report.par_safety,
        )
        .expect("prepare");
    let mut run = || {
        session
            .run_plan(h, &case.inputs, &case.kernels, Mode::Memory, 1)
            .expect("histogram run");
    };
    run();
    allocations(run)
}

#[test]
fn histogram_allocations_do_not_grow_with_its_size() {
    let small = histogram_run_allocations(1_000);
    let large = histogram_run_allocations(4_000);
    assert_eq!(
        small, large,
        "a histogram run allocates {small} times at n = 1000 but {large} times at n = 4000"
    );
}
