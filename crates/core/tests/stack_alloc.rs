//! Allocation-count gate for a whole guarded search.
//!
//! A counting global allocator pins the exact number of heap allocations
//! one `Mse::run_guarded_with` search makes (mapper, watchdog, evaluation
//! cache, guard and engine together) with the evaluation cache off and on.
//! Every search runs on one lane, so no pool worker allocates off the
//! counting thread; each runs 3,000 samples of seed 1 on Accel-B through
//! `guarded_engine(.., Reject)`, after one warm-up search. Like any
//! count-based gate it is deterministic and cannot flake on a loaded
//! machine. Besides the exact counts, the cache must add at most
//! [`MAX_CACHE_ALLOCS_PER_EVAL`] allocations per evaluation on every row:
//! a heap block per cache entry, or per-batch regrouping buffers, break it.

use arch::Arch;
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{Budget, EdpEvaluator};
use mse::{EvalConfig, Mse, RunPolicy};
use problem::Problem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts `alloc`/`alloc_zeroed`/`realloc` calls made on the current
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run while the thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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

/// What the evaluation cache may add to a search, per evaluation.
const MAX_CACHE_ALLOCS_PER_EVAL: f64 = 0.12;

const MAPPERS: [&str; 4] = ["gamma", "cem", "annealing", "random"];

/// `(allocations, evaluations)` of one single-lane search with an
/// evaluation cache of `cache_capacity` entries (0 = off), after one
/// warm-up search.
fn count(problem: &Problem, mapper: &str, cache_capacity: usize) -> (u64, usize) {
    let model = guarded_engine(problem, &Arch::accel_b(), None, GuardPolicy::Reject);
    let evaluator = EdpEvaluator::new(&model);
    let mapper = mappers::by_name(mapper).expect("known mapper");
    let mse = Mse::new(&model);
    let policy = RunPolicy::with_retries(0).with_eval(EvalConfig { threads: 1, cache_capacity });
    let budget = Budget::samples(3_000);
    let search =
        || mse.run_guarded_with(mapper.as_ref(), &evaluator, budget, 1, policy, Some(&model));
    drop(search());
    let before = ALLOCS.with(Cell::get);
    let outcome = search();
    let allocs = ALLOCS.with(Cell::get) - before;
    let evaluated = outcome.result.expect("the search finds a legal mapping").evaluated;
    (allocs, evaluated)
}

/// Asserts every mapper's `(evaluations, allocations with the cache off,
/// allocations with it on)` on `problem`, in [`MAPPERS`] order, and that
/// the cache stays within its per-evaluation allowance.
fn check(problem: Problem, expected: &[(usize, u64, u64)]) {
    let mut got = Vec::new();
    for name in MAPPERS {
        let (off, evaluated) = count(&problem, name, 0);
        let (on, evaluated_on) = count(&problem, name, 1 << 16);
        assert_eq!(evaluated, evaluated_on, "{name}: the cache changed the search");
        let added = on.saturating_sub(off) as f64 / evaluated as f64;
        assert!(
            added <= MAX_CACHE_ALLOCS_PER_EVAL,
            "{name} on {}: the cache adds {added:.3} allocations per evaluation \
             ({off} off, {on} on, {evaluated} evaluations)",
            problem.name()
        );
        got.push((name, evaluated, off, on));
    }
    let want: Vec<_> =
        MAPPERS.iter().zip(expected).map(|(&name, &(e, off, on))| (name, e, off, on)).collect();
    assert_eq!(got, want);
}

#[test]
fn conv4_allocations() {
    // gamma, cem, annealing, random: (evaluations, cache off, cache on).
    check(
        problem::zoo::resnet_conv4(),
        &[(3000, 658, 870), (3000, 336, 500), (3000, 23, 43), (3000, 210, 234)],
    );
}

#[test]
fn bert_kqv_allocations() {
    check(
        problem::zoo::bert_kqv(),
        &[(3000, 658, 955), (3000, 336, 409), (3000, 27, 47), (3000, 210, 233)],
    );
}
