//! Warm-start MSE (§5.1): initialize the mapper with the optimized mapping
//! of the most similar previously seen workload, scaled to the new tensor
//! shape.
//!
//! The replay buffer stores `(workload, optimized mapping)` pairs. For a
//! new workload, similarity is the *editing distance* between dimension
//! vectors ([`problem::Problem::edit_distance`]); the chosen mapping's
//! order and parallelization are inherited and its tile sizes rescaled
//! ([`mapping::Mapping::scale_to`]).

use arch::Arch;
use costmodel::CostModel;
use mappers::{Budget, Mapper, SearchResult};
use mapping::Mapping;
use problem::Problem;
use std::sync::RwLock;

use crate::driver::{convergence_sample, Mse};

/// Schema version written by [`ReplayBuffer::save`]. Bump on any change to
/// the line format; older binaries then skip the file gracefully instead of
/// misparsing it.
pub const REPLAY_FORMAT_VERSION: u32 = 1;
/// Header-line prefix; the version number follows immediately.
const REPLAY_HEADER_PREFIX: &str = "#mapex-replay v";

/// How the mapper is initialized for each new workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// Default random initialization.
    Random,
    /// Warm-start from the most recently optimized workload (the paper's
    /// "warm-start by previous layers", Fig. 9 red bars).
    PreviousLayer,
    /// Warm-start from the highest-similarity workload in the replay
    /// buffer (the paper's full proposal, Fig. 9 yellow bars).
    BySimilarity,
}

/// Thread-safe replay buffer of optimized mappings.
#[derive(Debug, Default)]
pub struct ReplayBuffer {
    entries: RwLock<Vec<(Problem, Mapping)>>,
}

impl ReplayBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        ReplayBuffer::default()
    }

    /// Poison-tolerant read guard: a panic in another thread that held the
    /// lock (e.g. an isolated mapper panic, see `mse::runtime`) must not
    /// take the replay buffer down with it — entries are plain data and
    /// every write is a single `push`, so the state is always consistent.
    fn entries_read(&self) -> std::sync::RwLockReadGuard<'_, Vec<(Problem, Mapping)>> {
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Poison-tolerant write guard (see [`ReplayBuffer::entries_read`]).
    fn entries_write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<(Problem, Mapping)>> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Stores the optimized mapping for a finished workload.
    pub fn insert(&self, problem: Problem, mapping: Mapping) {
        self.entries_write().push((problem, mapping));
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries_read().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries_read().is_empty()
    }

    /// The most recently stored entry.
    pub fn last(&self) -> Option<(Problem, Mapping)> {
        self.entries_read().last().cloned()
    }

    /// The entry with the smallest editing distance to `p` (ties broken
    /// toward the most recent), with that distance.
    pub fn most_similar(&self, p: &Problem) -> Option<(Problem, Mapping, usize)> {
        let entries = self.entries_read();
        entries
            .iter()
            .enumerate()
            .map(|(i, (q, m))| (q.edit_distance(p), std::cmp::Reverse(i), q, m))
            .min_by_key(|&(d, i, _, _)| (d, i))
            .map(|(d, _, q, m)| (q.clone(), m.clone(), d))
    }

    /// Serializes the buffer, a `#mapex-replay v1` schema header followed by
    /// one `problem-spec<TAB>mapping-spec` line per entry, so a deployment
    /// can persist optimized mappings across runs (the compile-time MSE use
    /// case of §3).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn save<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "{}{}", REPLAY_HEADER_PREFIX, REPLAY_FORMAT_VERSION)?;
        for (p, m) in self.entries_read().iter() {
            writeln!(w, "{}\t{}", problem::codec::to_spec(p), mapping::codec::to_spec(m))?;
        }
        Ok(())
    }

    /// Persists the buffer to `path` via the chaos-routed file shims, with
    /// an fsync before returning so a torn write is confined to the tail
    /// (the valid-prefix property [`ReplayBuffer::load`] relies on).
    ///
    /// # Errors
    ///
    /// Propagates I/O (or injected-fault) errors; the file may hold a
    /// partial prefix on error, which the loader tolerates.
    pub fn save_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = crate::chaos::create(path)?;
        let mut buf = Vec::new();
        self.save(&mut buf)?;
        crate::chaos::write_all(&mut f, &buf)?;
        crate::chaos::sync_all(&f)
    }

    /// Loads entries from `path` (written by [`ReplayBuffer::save_to_path`])
    /// through the chaos-routed read shim. Returns the number of entries
    /// appended; malformed lines — including a torn final line — are
    /// skipped, never a panic.
    ///
    /// # Errors
    ///
    /// Propagates I/O (or injected-fault) errors from the read.
    pub fn load_from_path(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let raw = crate::chaos::read_bytes(path)?;
        self.load(raw.as_slice())
    }

    /// Loads entries previously written by [`ReplayBuffer::save`],
    /// appending them to this buffer. Malformed lines are skipped; returns
    /// the number of entries loaded. Versioning: a `#mapex-replay vN` header
    /// with `N` beyond this binary's [`REPLAY_FORMAT_VERSION`] stops the
    /// load gracefully (zero new entries, no error) — a newer format must
    /// not be misparsed line by line. Headerless streams load as the
    /// original v0 format, and other `#` lines are skipped as comments.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `r`.
    pub fn load<R: std::io::BufRead>(&self, r: R) -> std::io::Result<usize> {
        let mut n = 0;
        for line in r.lines() {
            let line = line?;
            if let Some(rest) = line.strip_prefix(REPLAY_HEADER_PREFIX) {
                match rest.trim().parse::<u32>() {
                    Ok(v) if v <= REPLAY_FORMAT_VERSION => continue,
                    _ => return Ok(n),
                }
            }
            if line.starts_with('#') {
                continue;
            }
            let Some((pspec, mspec)) = line.split_once('\t') else { continue };
            let (Ok(p), Ok(m)) =
                (problem::codec::from_spec(pspec), mapping::codec::from_spec(mspec))
            else {
                continue;
            };
            self.insert(p, m);
            n += 1;
        }
        Ok(n)
    }

    /// Produces the warm-start seed for `p` under `strategy`: the selected
    /// stored mapping with inherited order/parallelism and rescaled tiles.
    /// `None` when the buffer is empty, the strategy is
    /// [`InitStrategy::Random`], or scaling fails.
    pub fn seed_for(&self, p: &Problem, arch: &Arch, strategy: InitStrategy) -> Option<Mapping> {
        let (source_problem, source_mapping) = match strategy {
            InitStrategy::Random => return None,
            InitStrategy::PreviousLayer => self.last()?,
            InitStrategy::BySimilarity => {
                let (q, m, _) = self.most_similar(p)?;
                (q, m)
            }
        };
        source_mapping.scale_to(&source_problem, p, arch)
    }
}

/// Per-layer outcome of a warm-start network run.
#[derive(Debug, Clone)]
pub struct LayerOutcome {
    /// Workload name.
    pub name: String,
    /// EDP of the warm-start (or random) initialization point.
    pub init_score: f64,
    /// Full search result.
    pub result: SearchResult,
    /// Sample index reaching 99.5% of the improvement (the paper's
    /// convergence metric, reported as generations in Fig. 11).
    pub converge_sample: usize,
}

/// The serial per-layer sweep loop (the reference every thread count
/// reproduces) behind [`run_network`] and the checkpointing runtime
/// (`mse::runtime`): starts at layer `start`
/// (earlier layers are assumed already folded into `buffer`) and calls
/// `on_layer(i, outcome)` after each layer — a fallible hook so a
/// checkpoint write failure can abort the sweep cleanly.
///
/// Seed derivations depend only on the *global* layer index `i`, never on
/// `start`, so resuming at layer `k` reproduces exactly the samples a
/// fresh run would have drawn there.
#[allow(clippy::too_many_arguments)] // mirrors the sweep's full parameter surface
pub(crate) fn run_network_from<'m, M, F, E>(
    start: usize,
    layers: &[Problem],
    arch: &Arch,
    buffer: &ReplayBuffer,
    strategy: InitStrategy,
    budget: Budget,
    seed: u64,
    mut make_model: M,
    mut make_mapper: F,
    mut on_layer: impl FnMut(usize, &LayerOutcome) -> Result<(), E>,
) -> Result<Vec<LayerOutcome>, E>
where
    M: FnMut(&Problem) -> Box<dyn CostModel + 'm>,
    F: FnMut() -> Box<dyn Mapper>,
{
    let mut out = Vec::with_capacity(layers.len().saturating_sub(start));
    for (i, layer) in layers.iter().enumerate().skip(start) {
        let model = make_model(layer);
        let mut mapper = make_mapper();
        let outcome =
            run_layer(i, layer, arch, buffer, strategy, budget, seed, model.as_ref(), &mut mapper);
        if let Some((best, _)) = &outcome.result.best {
            buffer.insert(layer.clone(), best.clone());
        }
        on_layer(i, &outcome)?;
        out.push(outcome);
    }
    Ok(out)
}

/// One layer of a sweep: derives the warm-start (or reference random)
/// init score, seeds the mapper, and searches. Seed derivations depend
/// only on the *global* layer index `i`, so the same layer produces the
/// same outcome regardless of which thread (or resume point) runs it.
///
/// Does **not** insert the winner into the replay buffer — the caller
/// does, so insertion order stays the layer order even when layers finish
/// out of order (see [`run_network`]).
#[allow(clippy::too_many_arguments)] // mirrors the sweep's full parameter surface
pub(crate) fn run_layer(
    i: usize,
    layer: &Problem,
    arch: &Arch,
    buffer: &ReplayBuffer,
    strategy: InitStrategy,
    budget: Budget,
    seed: u64,
    model: &dyn CostModel,
    mapper: &mut Box<dyn Mapper>,
) -> LayerOutcome {
    let mse = Mse::new(model);
    let warm = buffer.seed_for(layer, arch, strategy);
    let init_score = match &warm {
        Some(m) => model.evaluate(m).map(|c| c.edp()).unwrap_or(f64::INFINITY),
        None => {
            // Reference random-init quality: the first legal random
            // draw, matching how Fig. 9's blue bars are measured.
            let space = mse.space();
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ (i as u64) << 32);
            model.evaluate(&space.random(&mut rng)).map(|c| c.edp()).unwrap_or(f64::INFINITY)
        }
    };
    if let Some(m) = warm {
        mapper.set_seeds(vec![m]);
    }
    let result = mse.run(mapper.as_ref(), budget, seed.wrapping_add(i as u64));
    let converge_sample = convergence_sample(&result, 0.995);
    LayerOutcome { name: layer.name().to_string(), init_score, result, converge_sample }
}

/// Runs MSE over a sequence of workloads (the layers of one DNN), feeding
/// each optimized mapping back into `buffer` and seeding each search per
/// `strategy`. `make_model` binds a cost model per layer; `make_mapper`
/// builds a fresh mapper per layer (so seeds do not leak across layers).
///
/// Layers are claimed by `threads` scoped worker threads (0 = one per
/// available core) and their outcomes flushed in layer order, so the
/// returned vector and the replay-buffer contents are **bit-identical**
/// at any thread count. Only [`InitStrategy::Random`] layers are
/// independent (warm-start strategies read the replay buffer between
/// layers, which forces the serial chain), so any other strategy — or
/// `threads == 1` — runs the serial loop.
#[allow(clippy::too_many_arguments)] // mirrors the sweep's full parameter surface
pub fn run_network<'m, M, F>(
    layers: &[Problem],
    arch: &Arch,
    buffer: &ReplayBuffer,
    strategy: InitStrategy,
    budget: Budget,
    seed: u64,
    threads: usize,
    make_model: M,
    make_mapper: F,
) -> Vec<LayerOutcome>
where
    M: Fn(&Problem) -> Box<dyn CostModel + 'm> + Sync,
    F: Fn() -> Box<dyn Mapper> + Sync,
{
    match run_network_parallel_from(
        0,
        layers,
        arch,
        buffer,
        strategy,
        budget,
        seed,
        threads,
        make_model,
        make_mapper,
        |_, _| Ok::<(), std::convert::Infallible>(()),
    ) {
        Ok(out) => out,
        Err(e) => match e {},
    }
}

/// Why the in-order flush stopped early.
enum FlushStop<E> {
    /// The `on_layer` hook failed (e.g. a checkpoint write error).
    Hook(E),
    /// A worker's layer panicked; the payload is re-thrown on the caller.
    Panic(Box<dyn std::any::Any + Send>),
}

/// The parallel counterpart of [`run_network_from`] (same contract, same
/// checkpoint hook), shared by [`run_network`] and
/// `mse::runtime::run_network_checkpointed`; falls back to the serial loop
/// when only one worker would run.
#[allow(clippy::too_many_arguments)] // mirrors the sweep's full parameter surface
pub(crate) fn run_network_parallel_from<'m, M, F, E>(
    start: usize,
    layers: &[Problem],
    arch: &Arch,
    buffer: &ReplayBuffer,
    strategy: InitStrategy,
    budget: Budget,
    seed: u64,
    threads: usize,
    make_model: M,
    make_mapper: F,
    mut on_layer: impl FnMut(usize, &LayerOutcome) -> Result<(), E>,
) -> Result<Vec<LayerOutcome>, E>
where
    M: Fn(&Problem) -> Box<dyn CostModel + 'm> + Sync,
    F: Fn() -> Box<dyn Mapper> + Sync,
{
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};

    let n = layers.len();
    let remaining = n.saturating_sub(start);
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    };
    let workers = threads.min(remaining);
    if workers <= 1 || strategy != InitStrategy::Random {
        return run_network_from(
            start, layers, arch, buffer, strategy, budget, seed, make_model, make_mapper, on_layer,
        );
    }

    type Slot = Option<Result<LayerOutcome, Box<dyn std::any::Any + Send>>>;
    let cursor = AtomicUsize::new(start);
    let abort = AtomicBool::new(false);
    let slots: Mutex<Vec<Slot>> = Mutex::new((0..remaining).map(|_| None).collect());
    let filled = Condvar::new();

    let (out, stop) = std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                if abort.load(Ordering::Acquire) {
                    return;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let layer = &layers[i];
                // Catch panics here so the flusher below (which waits on
                // this slot) never deadlocks on a dead worker; the payload
                // is re-thrown on the calling thread in layer order,
                // matching what the serial sweep would have raised.
                let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let model = make_model(layer);
                    let mut mapper = make_mapper();
                    run_layer(
                        i,
                        layer,
                        arch,
                        buffer,
                        strategy,
                        budget,
                        seed,
                        model.as_ref(),
                        &mut mapper,
                    )
                }));
                let mut st = slots.lock().unwrap_or_else(|e| e.into_inner());
                st[i - start] = Some(done);
                filled.notify_all();
            });
        }
        // Flush strictly in layer order on the calling thread: replay
        // buffer inserts, checkpoint writes, and the returned vector all
        // match the serial sweep exactly.
        let mut out = Vec::with_capacity(remaining);
        let mut stop: Option<FlushStop<E>> = None;
        for i in start..n {
            let slot = {
                let mut st = slots.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(slot) = st[i - start].take() {
                        break slot;
                    }
                    st = filled.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            match slot {
                Ok(outcome) => {
                    if let Some((best, _)) = &outcome.result.best {
                        buffer.insert(layers[i].clone(), best.clone());
                    }
                    if let Err(e) = on_layer(i, &outcome) {
                        stop = Some(FlushStop::Hook(e));
                        break;
                    }
                    out.push(outcome);
                }
                Err(payload) => {
                    stop = Some(FlushStop::Panic(payload));
                    break;
                }
            }
        }
        if stop.is_some() {
            // Workers drain: each finishes its in-flight layer, then sees
            // the flag before claiming another and exits.
            abort.store(true, Ordering::Release);
        }
        (out, stop)
    });
    match stop {
        None => Ok(out),
        Some(FlushStop::Hook(e)) => Err(e),
        Some(FlushStop::Panic(p)) => std::panic::resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costmodel::DenseModel;
    use mappers::Gamma;

    #[test]
    fn most_similar_prefers_smaller_distance() {
        let buf = ReplayBuffer::new();
        let a = Problem::conv2d("a", 16, 128, 128, 28, 28, 3, 3);
        let b = Problem::conv2d("b", 16, 256, 256, 14, 14, 3, 3);
        let arch = Arch::accel_b();
        buf.insert(a.clone(), Mapping::trivial(&a, &arch));
        buf.insert(b.clone(), Mapping::trivial(&b, &arch));
        // Query closest to `a` (only K differs).
        let q = Problem::conv2d("q", 16, 64, 128, 28, 28, 3, 3);
        let (found, _, d) = buf.most_similar(&q).unwrap();
        assert_eq!(found.name(), "a");
        assert_eq!(d, 1);
    }

    #[test]
    fn ties_break_toward_most_recent() {
        let buf = ReplayBuffer::new();
        let arch = Arch::accel_b();
        let a = Problem::conv2d("first", 16, 128, 128, 28, 28, 3, 3);
        let b = Problem::conv2d("second", 16, 128, 128, 28, 28, 3, 3);
        buf.insert(a.clone(), Mapping::trivial(&a, &arch));
        buf.insert(b.clone(), Mapping::trivial(&b, &arch));
        let (found, _, d) = buf.most_similar(&a).unwrap();
        assert_eq!(d, 0);
        assert_eq!(found.name(), "second");
    }

    #[test]
    fn seed_for_respects_strategy() {
        let buf = ReplayBuffer::new();
        let arch = Arch::accel_b();
        let p = Problem::conv2d("p", 4, 16, 16, 14, 14, 3, 3);
        assert!(buf.seed_for(&p, &arch, InitStrategy::BySimilarity).is_none());
        buf.insert(p.clone(), Mapping::trivial(&p, &arch));
        assert!(buf.seed_for(&p, &arch, InitStrategy::Random).is_none());
        let s = buf.seed_for(&p, &arch, InitStrategy::PreviousLayer).unwrap();
        assert!(s.is_legal(&p, &arch));
        let s = buf.seed_for(&p, &arch, InitStrategy::BySimilarity).unwrap();
        assert!(s.is_legal(&p, &arch));
    }

    #[test]
    fn warm_start_improves_init_on_regular_network() {
        // Two near-identical layers: the second layer's warm-start init
        // must be better than its random init (Fig. 9's message).
        let arch = Arch::accel_b();
        let layers = vec![
            Problem::conv2d("l1", 4, 32, 16, 14, 14, 3, 3),
            Problem::conv2d("l2", 4, 32, 32, 14, 14, 3, 3),
        ];
        let run = |strategy| {
            let buf = ReplayBuffer::new();
            run_network(
                &layers,
                &arch,
                &buf,
                strategy,
                Budget::samples(400),
                7,
                1,
                |p| Box::new(DenseModel::new(p.clone(), Arch::accel_b())),
                || Box::new(Gamma::new()),
            )
        };
        let warm = run(InitStrategy::BySimilarity);
        let cold = run(InitStrategy::Random);
        assert!(
            warm[1].init_score < cold[1].init_score,
            "warm init {:.3e} not better than random init {:.3e}",
            warm[1].init_score,
            cold[1].init_score
        );
        // Final quality comparable (within 2x), per Fig. 11(a).
        let ratio = warm[1].result.best_score / cold[1].result.best_score;
        assert!(ratio < 2.0, "warm-start degraded final quality by {ratio:.2}x");
    }

    #[test]
    fn parallel_network_run_matches_serial() {
        let arch = Arch::accel_b();
        let layers = vec![
            Problem::conv2d("l1", 2, 8, 8, 7, 7, 3, 3),
            Problem::conv2d("l2", 2, 16, 8, 7, 7, 3, 3),
            Problem::conv2d("l3", 2, 16, 16, 7, 7, 3, 3),
            Problem::gemm("l4", 2, 16, 16, 16),
        ];
        let make_model =
            |p: &Problem| -> Box<dyn CostModel> { Box::new(DenseModel::new(p.clone(), Arch::accel_b())) };
        let make_mapper = || -> Box<dyn Mapper> { Box::new(Gamma::new()) };
        let serial_buf = ReplayBuffer::new();
        let serial = run_network(
            &layers,
            &arch,
            &serial_buf,
            InitStrategy::Random,
            Budget::samples(120),
            9,
            1,
            make_model,
            make_mapper,
        );
        for threads in [2, 8] {
            let buf = ReplayBuffer::new();
            let par = run_network(
                &layers,
                &arch,
                &buf,
                InitStrategy::Random,
                Budget::samples(120),
                9,
                threads,
                make_model,
                make_mapper,
            );
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(p.name, s.name);
                assert_eq!(p.init_score, s.init_score, "init diverged on {}", p.name);
                assert_eq!(p.result.best_score, s.result.best_score, "score diverged on {}", p.name);
                assert_eq!(p.result.best, s.result.best, "mapping diverged on {}", p.name);
                // `seconds` is wall-clock; compare the deterministic fields.
                assert_eq!(p.result.history.len(), s.result.history.len());
                for (hp, hs) in p.result.history.iter().zip(&s.result.history) {
                    assert_eq!((hp.samples, hp.best_score), (hs.samples, hs.best_score));
                }
                assert_eq!(p.converge_sample, s.converge_sample);
            }
            // Replay-buffer contents (and order) match the serial sweep.
            assert_eq!(buf.len(), serial_buf.len());
            let mut a = Vec::new();
            let mut b = Vec::new();
            buf.save(&mut a).unwrap();
            serial_buf.save(&mut b).unwrap();
            assert_eq!(a, b, "replay buffer diverged at {threads} threads");
        }
    }

    #[test]
    fn parallel_network_run_propagates_layer_panics() {
        let arch = Arch::accel_b();
        let layers = vec![
            Problem::conv2d("ok", 2, 8, 8, 7, 7, 3, 3),
            Problem::conv2d("boom", 2, 16, 8, 7, 7, 3, 3),
        ];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_network(
                &layers,
                &arch,
                &ReplayBuffer::new(),
                InitStrategy::Random,
                Budget::samples(60),
                0,
                4,
                |p: &Problem| -> Box<dyn CostModel> {
                    if p.name() == "boom" {
                        std::panic::panic_any("rigged layer");
                    }
                    Box::new(DenseModel::new(p.clone(), Arch::accel_b()))
                },
                || -> Box<dyn Mapper> { Box::new(Gamma::new()) },
            )
        }));
        let payload = caught.expect_err("rigged panic swallowed");
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "rigged layer");
    }

    #[test]
    fn buffer_save_load_round_trips() {
        let arch = Arch::accel_b();
        let buf = ReplayBuffer::new();
        let p1 = Problem::conv2d("a", 4, 16, 16, 14, 14, 3, 3);
        let p2 = Problem::gemm("b", 2, 8, 8, 8);
        buf.insert(p1.clone(), Mapping::trivial(&p1, &arch));
        buf.insert(p2.clone(), Mapping::trivial(&p2, &arch));
        let mut bytes = Vec::new();
        buf.save(&mut bytes).unwrap();
        let restored = ReplayBuffer::new();
        let n = restored.load(std::io::BufReader::new(&bytes[..])).unwrap();
        assert_eq!(n, 2);
        let (found, m, d) = restored.most_similar(&p2).unwrap();
        assert_eq!(d, 0);
        assert_eq!(found.name(), "b");
        assert!(m.is_legal(&p2, &arch));
        // Malformed lines are skipped, not fatal.
        let garbage = b"not a line\nCONV2D;x;B=1\tbroken\n".to_vec();
        let n = restored.load(std::io::BufReader::new(&garbage[..])).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn buffer_load_handles_schema_versions() {
        let arch = Arch::accel_b();
        let buf = ReplayBuffer::new();
        let p = Problem::gemm("g", 2, 8, 8, 8);
        buf.insert(p.clone(), Mapping::trivial(&p, &arch));
        let mut bytes = Vec::new();
        buf.save(&mut bytes).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(
            text.starts_with(&format!("#mapex-replay v{REPLAY_FORMAT_VERSION}\n")),
            "save must emit the schema header first: {text:?}"
        );
        // Current version: loads normally.
        let restored = ReplayBuffer::new();
        assert_eq!(restored.load(std::io::BufReader::new(&bytes[..])).unwrap(), 1);
        // A future version stops the load gracefully — zero entries, no
        // error — even when the following lines would parse under v1.
        let entry = text.lines().nth(1).unwrap();
        let future = format!("#mapex-replay v{}\n{entry}\n", REPLAY_FORMAT_VERSION + 1);
        let skipping = ReplayBuffer::new();
        assert_eq!(skipping.load(std::io::BufReader::new(future.as_bytes())).unwrap(), 0);
        assert!(skipping.is_empty());
        // A mangled header is likewise a stop, not a misparse.
        let mangled = "#mapex-replay vNaN\n".to_string() + entry + "\n";
        assert_eq!(
            ReplayBuffer::new().load(std::io::BufReader::new(mangled.as_bytes())).unwrap(),
            0
        );
        // Headerless v0 files (pre-versioning) still load, and stray
        // comments are skipped.
        let legacy = format!("# a comment\n{entry}\n");
        let old = ReplayBuffer::new();
        assert_eq!(old.load(std::io::BufReader::new(legacy.as_bytes())).unwrap(), 1);
    }

    #[test]
    fn buffer_grows_during_network_run() {
        let arch = Arch::accel_b();
        let layers = vec![
            Problem::conv2d("l1", 2, 8, 8, 7, 7, 3, 3),
            Problem::conv2d("l2", 2, 16, 8, 7, 7, 3, 3),
            Problem::conv2d("l3", 2, 16, 16, 7, 7, 3, 3),
        ];
        let buf = ReplayBuffer::new();
        let out = run_network(
            &layers,
            &arch,
            &buf,
            InitStrategy::BySimilarity,
            Budget::samples(150),
            0,
            1,
            |p| Box::new(DenseModel::new(p.clone(), Arch::accel_b())),
            || Box::new(Gamma::new()),
        );
        assert_eq!(out.len(), 3);
        assert_eq!(buf.len(), 3);
        assert!(out.iter().all(|o| o.converge_sample <= o.result.evaluated));
    }
}
