//! Allocation-count gate for the mappers' own per-generation work.
//!
//! A counting global allocator pins the exact number of heap allocations
//! gamma, standard-ga, cem, random and annealing make over a 1000-sample
//! search (after one warm-up search), on the problems and presets the
//! `search_mix` benchmark runs. The cost model runs with counting paused
//! (its allocations are pinned by `costmodel`'s `engine_alloc` test), so
//! the counts are the mapper's candidate generation, cloning, legality
//! checks and `Recorder` bookkeeping. Each count comes with the number of
//! evaluator calls (generations, batches or annealing steps) it spans.
//! Like any count-based gate it is deterministic, so it cannot flake on a
//! loaded machine; a per-candidate heap buffer shows up as ~1000 more
//! allocations.

use arch::Arch;
use costmodel::{Cost, DenseModel};
use mappers::{Budget, EdpEvaluator, Evaluator, Mapper};
use mapping::{MapSpace, Mapping};
use problem::Problem;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts `alloc`/`alloc_zeroed`/`realloc` calls made on the current
/// thread while counting is not paused.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn bump() {
    // `try_with`: the allocator may run while the thread's locals are torn
    // down.
    let _ = PAUSED.try_with(|p| {
        if !p.get() {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
    });
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

/// Runs `f` with counting paused.
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    PAUSED.with(|p| p.set(true));
    let r = f();
    PAUSED.with(|p| p.set(false));
    r
}

/// Forwards to `inner` with counting paused, and counts the calls.
struct Uncounted<'a> {
    inner: &'a dyn Evaluator,
    calls: std::sync::atomic::AtomicU64,
}

impl Uncounted<'_> {
    fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        uncounted(f)
    }
}

impl Evaluator for Uncounted<'_> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        self.call(|| self.inner.evaluate(m))
    }

    fn evaluate_batch(&self, batch: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.call(|| self.inner.evaluate_batch(batch))
    }

    fn evaluate_neighbors(&self, parent: &Mapping, neighbors: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.call(|| self.inner.evaluate_neighbors(parent, neighbors))
    }

    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        uncounted(|| self.inner.score_bound(m))
    }
}

const MAPPERS: [&str; 5] = ["gamma", "standard-ga", "cem", "random", "annealing"];

/// `(allocations, evaluator calls)` of one 1000-sample search of seed 3,
/// after one warm-up search.
fn count(mapper: &dyn Mapper, space: &MapSpace, model: &DenseModel) -> (u64, u64) {
    let edp = EdpEvaluator::new(model);
    let eval = Uncounted { inner: &edp, calls: Default::default() };
    let budget = Budget::samples(1000);
    let search = || mapper.search(space, &eval, budget, &mut SmallRng::seed_from_u64(3));
    drop(std::hint::black_box(search()));
    eval.calls.store(0, std::sync::atomic::Ordering::Relaxed);
    let before = ALLOCS.with(Cell::get);
    let result = search();
    let allocs = ALLOCS.with(Cell::get) - before;
    uncounted(|| drop(result));
    (allocs, eval.calls.into_inner())
}

/// Counts of every mapper on `problem` on both presets, as
/// `(tag, allocations, evaluator calls)`.
fn counts(problem: Problem) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for arch in [Arch::accel_a(), Arch::accel_b()] {
        let space = MapSpace::new(problem.clone(), arch.clone());
        let model = DenseModel::new(problem.clone(), arch.clone());
        for name in MAPPERS {
            let mapper = mappers::by_name(name).expect("library mapper");
            let (allocs, calls) = count(mapper.as_ref(), &space, &model);
            out.push((format!("{}/{}/{name}", problem.name(), arch.name()), allocs, calls));
        }
    }
    out
}

/// Asserts `counts(problem)` equals `expected`, in [`MAPPERS`] order on
/// Accel-A then Accel-B.
fn check(problem: Problem, expected: &[(u64, u64)]) {
    let got = counts(problem);
    let want: Vec<_> =
        got.iter().zip(expected).map(|((tag, _, _), &(a, c))| (tag.clone(), a, c)).collect();
    assert_eq!(got, want);
}

#[test]
fn conv4_allocations() {
    // gamma, standard-ga, cem, random, annealing on Accel-A, then Accel-B.
    check(
        problem::zoo::resnet_conv4(),
        &[
            (136, 26), (178, 26), (42, 25), (22, 16), (9, 1000),
            (138, 26), (178, 26), (36, 25), (20, 16), (10, 1000),
        ],
    );
}

#[test]
fn bert_kqv_allocations() {
    check(
        problem::zoo::bert_kqv(),
        &[
            (137, 26), (179, 26), (35, 25), (20, 16), (11, 1000),
            (137, 26), (178, 26), (36, 25), (20, 16), (10, 1000),
        ],
    );
}

#[test]
fn tiny_gemm_allocations() {
    check(
        Problem::gemm("Tiny GEMM", 2, 32, 32, 32),
        &[
            (138, 26), (174, 26), (36, 25), (20, 16), (6, 1000),
            (137, 26), (173, 26), (43, 25), (21, 16), (7, 1000),
        ],
    );
}
