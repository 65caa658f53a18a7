//! Allocation-count gate for the dense and sparse engines' costing paths.
//!
//! A counting global allocator pins the exact number of heap allocations
//! of 64 one-shot `evaluate` calls, one `evaluate_batch` of the same 64
//! mappings, one `evaluate_neighbors` of 63 of them against the first, and
//! 64 `cost_bound` calls (after one warm-up call of each), on the problems
//! and presets the `search_mix` benchmark runs. Neighbors run the batch
//! loop, so 63 of them cost exactly what a batch of 63 costs: one shared
//! workspace plus what each result owns. Unlike a timing gate it is
//! deterministic, so it cannot flake on a loaded or small machine; a
//! change that adds a per-mapping buffer, or drops the shared scratch
//! workspace of the batch and neighbor paths, fails it.

use arch::{Arch, SparseCaps};
use costmodel::{CostModel, DenseModel, SparseModel};
use mapping::{MapSpace, Mapping};
use problem::{Density, Problem};
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

/// `(one-shot x64, batch of 64, neighbors of 63, bound x64)` allocations
/// on `model` over 64 random mappings of seed 1, after one warm-up call of
/// each.
fn counts(model: &dyn CostModel) -> (u64, u64, u64, u64) {
    let space = MapSpace::new(model.problem().clone(), model.arch().clone());
    let mut rng = SmallRng::seed_from_u64(1);
    let ms: Vec<Mapping> = (0..64).map(|_| space.random(&mut rng)).collect();
    let (parent, neighbors) = (&ms[0], &ms[1..]);
    let _ = std::hint::black_box(model.evaluate(parent));
    std::hint::black_box(model.evaluate_batch(&ms[..1]));
    std::hint::black_box(model.evaluate_neighbors(parent, &neighbors[..1]));
    std::hint::black_box(model.cost_bound(parent));
    let one_shot = allocations(|| {
        for m in &ms {
            std::hint::black_box(model.evaluate(m)).ok();
        }
    });
    let batch = allocations(|| model.evaluate_batch(&ms));
    let neighborhood = allocations(|| model.evaluate_neighbors(parent, neighbors));
    let bound = allocations(|| {
        for m in &ms {
            assert!(std::hint::black_box(model.cost_bound(m)).is_some());
        }
    });
    (one_shot, batch, neighborhood, bound)
}

/// Asserts the counts of the dense and the sparse engine on `problem` on
/// both presets (all four must equal `expected`).
fn check(problem: Problem, expected: (u64, u64, u64, u64)) {
    let mut got = Vec::new();
    for arch in [Arch::accel_a(), Arch::accel_b()] {
        let tag = format!("{}/{}", problem.name(), arch.name());
        let dense = DenseModel::new(problem.clone(), arch.clone());
        let sparse = SparseModel::new(
            problem.clone(),
            arch,
            SparseCaps::flexible(),
            Density::weight_sparse(0.3),
        );
        got.push((format!("{tag}/dense"), counts(&dense)));
        got.push((format!("{tag}/sparse"), counts(&sparse)));
    }
    let want: Vec<_> = got.iter().map(|(tag, _)| (tag.clone(), expected)).collect();
    assert_eq!(got, want);
}

#[test]
fn conv4_allocations() {
    check(problem::zoo::resnet_conv4(), (320, 195, 192, 0));
}

#[test]
fn bert_kqv_allocations() {
    check(problem::zoo::bert_kqv(), (320, 195, 192, 0));
}

#[test]
fn tiny_gemm_allocations() {
    check(Problem::gemm("Tiny GEMM", 2, 32, 32, 32), (320, 195, 192, 0));
}
