//! Allocation-count gate for the smooth relaxation behind the dosa mapper.
//!
//! A counting global allocator pins the exact number of heap allocations of
//! one `SmoothContext::cost` call and one `cost_and_grad_into` call (after a
//! warm-up call has grown the reused tape), on the shapes the `search_dosa`
//! benchmark runs. Both are zero: `build` works in fixed-size arrays, the
//! graph is recorded once per context, and the gradient lands in the
//! caller's buffer. Unlike a timing gate it is deterministic, so it cannot
//! flake on a loaded or small machine; a change that adds a per-call buffer
//! (or a per-call graph recording) fails it.

use arch::Arch;
use costmodel::smooth::Tape;
use costmodel::SmoothContext;
use mapping::MapSpace;
use problem::Problem;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts `alloc`/`alloc_zeroed`/`realloc` calls made on the current
/// thread, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// `(cost, cost_and_grad_into)` allocations per call at a random legal
/// point of `problem` on accel-b, after one warm-up call of each.
fn per_call(problem: Problem) -> (u64, u64) {
    let arch = Arch::accel_b();
    let sctx = SmoothContext::dense(&problem, &arch);
    let space = MapSpace::new(problem, arch);
    let feats = mapping::features::features(&space.random(&mut SmallRng::seed_from_u64(3)));
    let mut tape = Tape::new();
    let mut grad = vec![0.0; feats.len()];
    sctx.cost(&feats);
    sctx.cost_and_grad_into(&feats, &mut tape, &mut grad);
    (
        allocations(|| sctx.cost(&feats)),
        allocations(|| sctx.cost_and_grad_into(&feats, &mut tape, &mut grad)),
    )
}

#[test]
fn conv4_allocations_per_call() {
    assert_eq!(per_call(problem::zoo::resnet_conv4()), (0, 0));
}

#[test]
fn bert_kqv_allocations_per_call() {
    assert_eq!(per_call(problem::zoo::bert_kqv()), (0, 0));
}

#[test]
fn tiny_gemm_allocations_per_call() {
    assert_eq!(per_call(Problem::gemm("Tiny GEMM", 2, 32, 32, 32)), (0, 0));
}
