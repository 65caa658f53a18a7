//! Parallel evaluation engine: a persistent worker pool and a sharded
//! evaluation cache, both packaged as [`mappers::Evaluator`] decorators.
//!
//! Timeloop-style map-space exploration spends >95% of wall-clock inside
//! `evaluate()` (PAPER.md §IV), so this module is the throughput layer the
//! rest of the runtime sits on. Three design rules keep it safe to enable
//! everywhere:
//!
//! 1. **Determinism.** Mappers submit work through
//!    [`Evaluator::evaluate_batch`] and always receive outcomes in
//!    submission order; the thread count only changes *which worker*
//!    computes each slot, never the values or their order. Cache lookups
//!    and inserts happen on the submitting thread, in submission order, so
//!    the hit/miss sequence is also independent of the thread count.
//!    Parallel runs are therefore bit-identical to serial runs.
//! 2. **Panic transparency.** A panic on a worker is caught, carried back,
//!    and re-raised on the submitting thread *with its original payload*,
//!    so the resilient runtime's classifier (`mse::runtime`) still
//!    downcasts sentinels like `InjectedFault` exactly as it does for
//!    serial evaluation.
//! 3. **No new dependencies.** The pool is std threads + mutex/condvar;
//!    work is claimed item-by-item from a shared atomic cursor, so a slow
//!    mapping (straggler) never idles a whole chunk's worth of threads the
//!    way static partitioning did.

use costmodel::Cost;
use mappers::{CacheStats, Evaluator};
use mapping::Mapping;
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Tuning knobs for the evaluation stack built by `mse::runtime`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Worker threads for batch evaluation. `0` means "all cores"
    /// (`std::thread::available_parallelism`); `1` evaluates inline on the
    /// submitting thread with no pool at all.
    pub threads: usize,
    /// Evaluation-cache capacity in entries; `0` disables the cache.
    pub cache_capacity: usize,
}

impl EvalConfig {
    /// Serial, uncached — the historical behavior, and the default for
    /// library callers so existing deterministic tests keep their exact
    /// evaluation counts.
    pub fn serial() -> Self {
        EvalConfig { threads: 1, cache_capacity: 0 }
    }

    /// All cores plus a bounded cache — what the CLI uses by default.
    pub fn full() -> Self {
        EvalConfig { threads: 0, cache_capacity: 1 << 16 }
    }

    /// Resolves `threads == 0` to the machine's core count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::serial()
    }
}

/// Items claimed per cursor bump. Chunked claims let each lane run the
/// evaluator's *batched* path (`Evaluator::evaluate_batch`, SoA costing in
/// the analytical engines) instead of one scalar evaluation per claim,
/// while staying small enough that a straggler chunk cannot idle the other
/// lanes for long.
const DISPATCH_CHUNK: usize = 16;

/// One in-flight batch. The evaluator and mapping slice are smuggled
/// across threads as raw pointers; they are only dereferenced by workers
/// holding a claimed index range, and the submitting thread blocks until
/// every index is accounted for, so both outlive every dereference.
struct Job {
    eval: *const dyn Evaluator,
    batch: *const Mapping,
    len: usize,
    /// Next unclaimed item — claimed in [`DISPATCH_CHUNK`]-sized ranges
    /// from a shared cursor, no static partitioning.
    next: AtomicUsize,
    state: Mutex<JobState>,
    done_cv: Condvar,
}

struct JobState {
    results: Vec<Option<Option<(Cost, f64)>>>,
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

// Safety: the raw pointers are only dereferenced while the submitting
// thread is parked inside `EvalPool::evaluate_batch`, which keeps the
// referents alive; `dyn Evaluator` is `Sync` by trait bound and `Mapping`
// is only read.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and evaluates chunks until the batch is drained. Runs on
    /// workers *and* on the submitting thread, so progress never depends
    /// on pool size. Each claim evaluates its chunk through the
    /// evaluator's batched path, so per-lane work benefits from SoA
    /// costing; results land by absolute index, so submission order is
    /// preserved regardless of which lane ran which chunk.
    fn work(&self) {
        loop {
            let start = self.next.fetch_add(DISPATCH_CHUNK, Ordering::Relaxed);
            if start >= self.len {
                return;
            }
            let end = (start + DISPATCH_CHUNK).min(self.len);
            // Safety: holding an unfinished claim `start < len` means
            // `done < len`, so the submitting thread is still parked in
            // `evaluate_batch` and the referents are alive. A worker that
            // wakes after the batch drained fails the claim above and
            // never forms these references.
            let (eval, chunk) = unsafe {
                (&*self.eval, std::slice::from_raw_parts(self.batch.add(start), end - start))
            };
            let out = catch_unwind(AssertUnwindSafe(|| eval.evaluate_batch(chunk)));
            let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            match out {
                Ok(vs) => {
                    for (k, v) in vs.into_iter().enumerate() {
                        st.results[start + k] = Some(v);
                    }
                }
                // Keep the first payload; the submitter re-raises it. The
                // chunk's slots are filled so counters stay exact.
                Err(p) => {
                    if st.panic.is_none() {
                        st.panic = Some(p);
                    }
                    for slot in &mut st.results[start..end] {
                        *slot = Some(None);
                    }
                }
            }
            st.done += end - start;
            if st.done == self.len {
                self.done_cv.notify_all();
            }
        }
    }
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    wake: Condvar,
}

struct JobSlot {
    generation: u64,
    job: Option<Arc<Job>>,
    shutdown: bool,
}

/// A persistent pool of evaluation workers.
///
/// Submitting a batch blocks until every item is evaluated; results come
/// back indexed by submission order. With fewer than two workers the pool
/// holds no threads and batches run inline — the degenerate configuration
/// used to represent "serial" without a second code path.
///
/// Multiple threads may submit concurrently (the service daemon's request
/// workers share one pool): every batch completes correctly because each
/// submitter drains its own batch itself; parked workers simply assist
/// whichever submission most recently occupied the slot.
pub struct EvalPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl EvalPool {
    /// Spawns a pool sized by `config.threads` (`0` = all cores).
    pub fn new(config: EvalConfig) -> Self {
        let threads = config.resolved_threads();
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot { generation: 0, job: None, shutdown: false }),
            wake: Condvar::new(),
        });
        // The submitting thread also works its own batches, so `threads`
        // total lanes means `threads - 1` parked workers.
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        EvalPool { shared, workers }
    }

    /// Total evaluation lanes (workers plus the submitting thread).
    pub fn lanes(&self) -> usize {
        self.workers.len() + 1
    }

    fn worker_loop(shared: &PoolShared) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if slot.shutdown {
                        return;
                    }
                    if slot.generation != seen {
                        seen = slot.generation;
                        if let Some(job) = slot.job.clone() {
                            break job;
                        }
                    }
                    slot = shared.wake.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            };
            job.work();
        }
    }

    /// Evaluates `batch` against `eval`, returning outcomes in submission
    /// order. Blocks until the whole batch is done. A worker panic is
    /// re-raised here with its original payload once the batch has
    /// drained (remaining items still complete, keeping counters exact).
    pub fn evaluate_batch(
        &self,
        eval: &dyn Evaluator,
        batch: &[Mapping],
    ) -> Vec<Option<(Cost, f64)>> {
        if batch.is_empty() {
            return Vec::new();
        }
        if self.workers.is_empty() || batch.len() == 1 {
            // No concurrency to exploit — but still take the evaluator's
            // batched (SoA) path rather than one scalar call per item.
            return eval.evaluate_batch(batch);
        }
        // Safety: erases the borrow's lifetime so the pointer can live in
        // the 'static Job; it is only dereferenced under an unfinished
        // claim, while this call keeps `eval` alive (see `Job::work`).
        let eval_static: &'static dyn Evaluator =
            unsafe { std::mem::transmute::<&dyn Evaluator, &'static dyn Evaluator>(eval) };
        let job = Arc::new(Job {
            eval: eval_static as *const dyn Evaluator,
            batch: batch.as_ptr(),
            len: batch.len(),
            next: AtomicUsize::new(0),
            state: Mutex::new(JobState {
                results: vec![None; batch.len()],
                done: 0,
                panic: None,
            }),
            done_cv: Condvar::new(),
        });
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            slot.generation += 1;
            slot.job = Some(Arc::clone(&job));
        }
        self.shared.wake.notify_all();
        // Work the batch from this thread too, then wait out stragglers.
        job.work();
        let mut st = job.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.done < job.len {
            st = job.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        {
            // Drop our handle from the slot so the batch's borrows end
            // with this call (workers may still hold the Arc briefly, but
            // only touch it to fail a claim). Concurrent submitters are
            // legal (the service daemon's request workers share one pool):
            // a later submission may already occupy the slot, in which
            // case it is not ours to clear — each submitter always drains
            // its own batch itself, so forward progress never depends on
            // winning the slot.
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            if slot.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
                slot.job = None;
            }
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            std::panic::resume_unwind(p);
        }
        st.results.drain(..).map(|r| r.expect("all slots filled")).collect()
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            slot.shutdown = true;
        }
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// [`Evaluator`] decorator that routes batches through an [`EvalPool`].
/// Single evaluations stay inline — there is nothing to overlap.
pub struct PoolEvaluator<'a> {
    pool: &'a EvalPool,
    inner: &'a dyn Evaluator,
}

impl<'a> PoolEvaluator<'a> {
    /// Wraps `inner` with pool-backed batch evaluation.
    pub fn new(pool: &'a EvalPool, inner: &'a dyn Evaluator) -> Self {
        PoolEvaluator { pool, inner }
    }
}

impl Evaluator for PoolEvaluator<'_> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        self.inner.evaluate(m)
    }

    fn evaluate_batch(&self, batch: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        self.pool.evaluate_batch(self.inner, batch)
    }

    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Option<(Cost, f64)>> {
        // Neighborhoods are small (dosa's projection: at most seven
        // mappings by default), too few to split across lanes, so they run
        // inline.
        self.inner.evaluate_neighbors(parent, neighbors)
    }

    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        self.inner.score_bound(m)
    }
}

const SHARDS: usize = 16;

/// Multiply-xor step of the streamed canonical hash (fxhash-style: one
/// rotate, one xor, one multiply per word — an order of magnitude cheaper
/// than the SipHash rounds `DefaultHasher` pays per word).
#[inline]
fn mix(h: &mut u64, v: u64) {
    *h = (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
}

/// Hash of a mapping's *canonical form* ([`mappers::canonicalize`]: per
/// level, non-unit temporal dims keep their declared order, unit dims sink
/// to the end in ascending order), streamed directly off the raw mapping.
/// Two mappings hash equal iff their canonical forms are equal, without
/// ever materializing those forms — the allocation-per-probe that made the
/// cached stack slower than the serial one on low-hit-rate runs.
fn canonical_hash(m: &Mapping) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in 0..m.num_levels() {
        let temporal = m.temporal(l);
        for &t in temporal {
            mix(&mut h, t);
        }
        for &s in m.spatial(l) {
            mix(&mut h, s);
        }
        for &d in m.order(l).iter().filter(|&&d| temporal[d as usize] > 1) {
            mix(&mut h, d as u64);
        }
        for d in (0..temporal.len()).filter(|&d| temporal[d] <= 1) {
            mix(&mut h, d as u64);
        }
    }
    h
}

/// Whether `raw`'s canonical form equals the stored canonical mapping
/// `canon` — the zero-allocation probe paired with [`canonical_hash`].
fn canonical_eq(raw: &Mapping, canon: &Mapping) -> bool {
    if raw.num_levels() != canon.num_levels() || raw.num_dims() != canon.num_dims() {
        return false;
    }
    for l in 0..raw.num_levels() {
        let temporal = raw.temporal(l);
        if temporal != canon.temporal(l) || raw.spatial(l) != canon.spatial(l) {
            return false;
        }
        let mut it = canon.order(l).iter().map(|&d| d as usize);
        let non_unit = raw.order(l).iter().map(|&d| d as usize).filter(|&d| temporal[d] > 1);
        let unit = (0..temporal.len()).filter(|&d| temporal[d] <= 1);
        for d in non_unit.chain(unit) {
            if it.next() != Some(d) {
                return false;
            }
        }
    }
    true
}

/// Pass-through hasher for the pre-hashed `u64` bucket keys: the streamed
/// canonical hash *is* the hash, so the shard map must not SipHash it
/// again.
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | b as u64;
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type PassThrough = std::hash::BuildHasherDefault<PassThroughHasher>;

/// A sharded, capacity-bounded memo table over canonical mapping forms.
///
/// Keys are canonical-form hashes; each holds one boxed entry — the
/// materialized canonical mapping with its memoized outcome, one heap
/// block per entry. Probing hashes and compares against the *raw* mapping
/// with zero allocations; the canonical copy is materialized once, on
/// insert. A second canonical form with the same 64-bit hash replaces the
/// resident one in place (counted as an insert plus an eviction), so a
/// collision costs at most a re-evaluation, never a wrong outcome. Values
/// memoize the *outcome*, including `None` (illegal / guard-rejected), so
/// a rejected duplicate costs a lookup rather than a second guarded
/// analysis. Eviction is per-shard FIFO over hashes: crude, but bounded
/// and deterministic.
pub struct EvalCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    /// Lookups actually probed (vs bypassed) — the denominator of the
    /// adaptive pays-for-itself test.
    probes: AtomicU64,
    /// Total lookups submitted through the adaptive gate, probed or not;
    /// positions the recheck windows.
    gate_position: AtomicU64,
}

/// Probe unconditionally for the first this many lookups — enough signal
/// to judge the mapper's revisit rate.
const ADAPTIVE_WARMUP: u64 = 128;
/// A probe (hash + shard lock + compare) costs roughly 1/16 of a dense
/// cost-model evaluation; probing pays while `hits * 16 >= probes`.
const ADAPTIVE_PAY: u64 = 16;
/// While bypassing, re-open a probe window this often…
const ADAPTIVE_SPAN: u64 = 1024;
/// …for this many lookups, so a mapper that *starts* revisiting late
/// (e.g. an annealer converging) can win the cache back.
const ADAPTIVE_RECHECK: u64 = 128;

/// A memoized evaluation outcome; `None` records an illegal or
/// guard-rejected mapping.
type Outcome = Option<(Cost, f64)>;
/// One pre-hashed entry for [`EvalCache::insert_batch`].
type HashedEntry<'a> = (u64, &'a Mapping, Outcome);

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Box<(Mapping, Outcome)>, PassThrough>,
    /// Resident hashes, oldest first.
    fifo: VecDeque<u64>,
}

impl Shard {
    fn probe(&self, hash: u64, raw: &Mapping) -> Option<Outcome> {
        let (canon, value) = &**self.map.get(&hash)?;
        canonical_eq(raw, canon).then_some(*value)
    }

    /// Returns `(inserted, evictions)`. A re-insert of a resident
    /// canonical form updates the value in place (no FIFO movement),
    /// matching the historical `HashMap::insert` semantics.
    fn insert(&mut self, cap: usize, hash: u64, raw: &Mapping, value: Option<(Cost, f64)>) -> (bool, u64) {
        match self.map.entry(hash) {
            Entry::Occupied(mut e) => {
                let entry = e.get_mut();
                entry.1 = value;
                if canonical_eq(raw, &entry.0) {
                    return (false, 0);
                }
                entry.0 = mappers::canonicalize(raw);
                return (true, 1);
            }
            Entry::Vacant(e) => {
                e.insert(Box::new((mappers::canonicalize(raw), value)));
            }
        }
        self.fifo.push_back(hash);
        let mut evictions = 0u64;
        while self.map.len() > cap {
            let Some(old) = self.fifo.pop_front() else { break };
            self.map.remove(&old);
            evictions += 1;
        }
        (true, evictions)
    }
}

impl EvalCache {
    /// A cache bounded at roughly `capacity` entries (rounded up to the
    /// shard count). `capacity == 0` builds a disabled cache that misses
    /// everything and stores nothing.
    pub fn new(capacity: usize) -> Self {
        EvalCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            gate_position: AtomicU64::new(0),
        }
    }

    /// Adaptive bypass gate: advances the position by `n` lookups and
    /// decides — once per batch, from its start position — whether probing
    /// the cache is worth the hashing for a mapper with this observed
    /// revisit rate. Always probes through the warmup; after that, probes
    /// while hits pay for probes, otherwise bypasses except for periodic
    /// recheck windows. Bypassed lookups are still accounted as misses by
    /// the caller, so `stats()` hit rates stay truthful.
    fn admit_probe(&self, n: usize) -> bool {
        let start = self.gate_position.fetch_add(n as u64, Ordering::Relaxed);
        if start < ADAPTIVE_WARMUP {
            return true;
        }
        let hits = self.hits.load(Ordering::Relaxed);
        let probes = self.probes.load(Ordering::Relaxed).max(1);
        if hits.saturating_mul(ADAPTIVE_PAY) >= probes {
            return true;
        }
        start % ADAPTIVE_SPAN < ADAPTIVE_RECHECK
    }

    /// Whether lookups can ever hit.
    pub fn enabled(&self) -> bool {
        self.per_shard_capacity > 0
    }

    fn shard_index(hash: u64) -> usize {
        // The low bits feed the bucket map; shard on high bits.
        (hash >> 48) as usize % SHARDS
    }

    /// Looks up a raw (not canonicalized) mapping, counting the hit or
    /// miss.
    pub fn lookup(&self, m: &Mapping) -> Option<Option<(Cost, f64)>> {
        if !self.enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.probes.fetch_add(1, Ordering::Relaxed);
        let hash = canonical_hash(m);
        let shard =
            self.shards[Self::shard_index(hash)].lock().unwrap_or_else(|e| e.into_inner());
        match shard.probe(hash, m) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts an outcome for a raw mapping, evicting FIFO beyond
    /// capacity. The canonical form is materialized here, once.
    pub fn insert(&self, m: &Mapping, value: Option<(Cost, f64)>) {
        if !self.enabled() {
            return;
        }
        let hash = canonical_hash(m);
        let mut shard =
            self.shards[Self::shard_index(hash)].lock().unwrap_or_else(|e| e.into_inner());
        let (inserted, evictions) = shard.insert(self.per_shard_capacity, hash, m, value);
        drop(shard);
        if inserted {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        if evictions > 0 {
            self.evictions.fetch_add(evictions, Ordering::Relaxed);
        }
    }

    /// Records `n` misses without probing — the disabled-cache fast path,
    /// where the probe could never hit but the accounting must still show
    /// every submission as a miss.
    fn count_misses(&self, n: usize) {
        self.misses.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Probes a whole batch of raw mappings, touching each shard's lock at
    /// most once (per-item probes pay one lock round-trip per mapping —
    /// measurably slower than the evaluations they were meant to save on
    /// cache-friendly random-mapper runs). Hit/miss counters are bumped in
    /// bulk; all probes happen before any caller-side insert, preserving
    /// the per-item path's duplicate-within-batch semantics (both copies
    /// miss and are both evaluated). Returns the outcomes alongside each
    /// mapping's canonical hash so the caller's insert pass need not
    /// re-hash.
    pub fn lookup_batch(&self, batch: &[Mapping]) -> (Vec<Option<Outcome>>, Vec<u64>) {
        let hashes: Vec<u64> = batch.iter().map(canonical_hash).collect();
        if !self.enabled() {
            self.count_misses(batch.len());
            return (vec![None; batch.len()], hashes);
        }
        self.probes.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut out: Vec<Option<Outcome>> = vec![None; batch.len()];
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
        for (i, &h) in hashes.iter().enumerate() {
            by_shard[Self::shard_index(h)].push(i);
        }
        let mut hits = 0u64;
        for (si, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let shard = self.shards[si].lock().unwrap_or_else(|e| e.into_inner());
            for &i in idxs {
                if let Some(v) = shard.probe(hashes[i], &batch[i]) {
                    out[i] = Some(v);
                    hits += 1;
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(batch.len() as u64 - hits, Ordering::Relaxed);
        (out, hashes)
    }

    /// Inserts a batch of outcomes (pre-hashed by [`EvalCache::lookup_batch`]),
    /// touching each shard's lock at most once. Within a shard, entries
    /// land in submission order, so the per-shard FIFO evicts exactly as
    /// the per-item path would.
    pub fn insert_batch(&self, entries: &[HashedEntry]) {
        if !self.enabled() || entries.is_empty() {
            return;
        }
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
        for (i, &(h, _, _)) in entries.iter().enumerate() {
            by_shard[Self::shard_index(h)].push(i);
        }
        let mut inserts = 0u64;
        let mut evictions = 0u64;
        for (si, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut shard = self.shards[si].lock().unwrap_or_else(|e| e.into_inner());
            for &i in idxs {
                let (h, m, value) = entries[i];
                let (ins, ev) = shard.insert(self.per_shard_capacity, h, m, value);
                inserts += ins as u64;
                evictions += ev;
            }
        }
        self.inserts.fetch_add(inserts, Ordering::Relaxed);
        self.evictions.fetch_add(evictions, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// [`Evaluator`] decorator memoizing outcomes in an [`EvalCache`].
///
/// All cache traffic happens on the submitting thread in submission
/// order — misses are forwarded (as one batch) to the inner evaluator and
/// the results merged back by position — so enabling a pool underneath
/// changes nothing about which lookups hit.
pub struct CachedEvaluator<'a> {
    cache: &'a EvalCache,
    inner: &'a dyn Evaluator,
}

impl<'a> CachedEvaluator<'a> {
    /// Wraps `inner` with memoization in `cache`.
    pub fn new(cache: &'a EvalCache, inner: &'a dyn Evaluator) -> Self {
        CachedEvaluator { cache, inner }
    }
}

impl Evaluator for CachedEvaluator<'_> {
    fn evaluate(&self, m: &Mapping) -> Option<(Cost, f64)> {
        if !self.cache.enabled() || !self.cache.admit_probe(1) {
            // Bypass: the mapper's revisit rate hasn't paid for probing.
            // No insert either — the hash is the cost being avoided.
            self.cache.count_misses(1);
            return self.inner.evaluate(m);
        }
        if let Some(hit) = self.cache.lookup(m) {
            return hit;
        }
        let out = self.inner.evaluate(m);
        self.cache.insert(m, out);
        out
    }

    fn evaluate_batch(&self, batch: &[Mapping]) -> Vec<Option<(Cost, f64)>> {
        // A disabled cache can never hit — and a bypassed one shouldn't:
        // skip hashing entirely while still accounting every submission
        // as a miss.
        if !self.cache.enabled() || !self.cache.admit_probe(batch.len()) {
            self.cache.count_misses(batch.len());
            return self.inner.evaluate_batch(batch);
        }
        let (probed, hashes) = self.cache.lookup_batch(batch);
        let n_hits = probed.iter().filter(|p| p.is_some()).count();
        if n_hits == 0 {
            // The common cold-cache case: forward the caller's slice
            // untouched — no per-mapping clones, one inner batch.
            let fresh = self.inner.evaluate_batch(batch);
            let inserts: Vec<HashedEntry> = hashes
                .iter()
                .zip(batch)
                .zip(&fresh)
                .map(|((&h, m), &out)| (h, m, out))
                .collect();
            self.cache.insert_batch(&inserts);
            return fresh;
        }
        let missing: Vec<Mapping> = batch
            .iter()
            .zip(&probed)
            .filter(|(_, p)| p.is_none())
            .map(|(m, _)| m.clone())
            .collect();
        let fresh = self.inner.evaluate_batch(&missing);
        let mut fresh_it = fresh.into_iter();
        let mut inserts: Vec<HashedEntry> = Vec::with_capacity(missing.len());
        let mut results: Vec<Option<(Cost, f64)>> = Vec::with_capacity(batch.len());
        for ((m, &h), p) in batch.iter().zip(&hashes).zip(probed) {
            match p {
                Some(hit) => results.push(hit),
                None => {
                    let out = fresh_it.next().expect("one outcome per miss");
                    inserts.push((h, m, out));
                    results.push(out);
                }
            }
        }
        self.cache.insert_batch(&inserts);
        results
    }

    fn evaluate_neighbors(
        &self,
        parent: &Mapping,
        neighbors: &[Mapping],
    ) -> Vec<Option<(Cost, f64)>> {
        self.inner.evaluate_neighbors(parent, neighbors)
    }

    fn score_bound(&self, m: &Mapping) -> Option<f64> {
        // Bounds are analytical and cheaper than a probe; memoizing them
        // would pollute the outcome cache with a second value shape.
        self.inner.score_bound(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Arch;
    use costmodel::DenseModel;
    use mappers::EdpEvaluator;
    use mapping::MapSpace;
    use problem::Problem;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (MapSpace, DenseModel) {
        let p = Problem::conv2d("t", 2, 8, 8, 7, 7, 3, 3);
        let a = Arch::accel_b();
        (MapSpace::new(p.clone(), a.clone()), DenseModel::new(p, a))
    }

    fn batch(space: &MapSpace, seed: u64, n: usize) -> Vec<Mapping> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| space.random(&mut rng)).collect()
    }

    #[test]
    fn pool_matches_serial_bit_for_bit() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let b = batch(&space, 0, 100);
        let serial: Vec<_> = b.iter().map(|m| eval.evaluate(m)).collect();
        for threads in [1, 2, 8] {
            let pool = EvalPool::new(EvalConfig { threads, cache_capacity: 0 });
            let pooled = PoolEvaluator::new(&pool, &eval);
            let got = pooled.evaluate_batch(&b);
            assert_eq!(got.len(), serial.len());
            for (g, s) in got.iter().zip(&serial) {
                assert_eq!(
                    g.map(|(c, s)| (c.latency_cycles.to_bits(), c.energy_uj.to_bits(), s.to_bits())),
                    s.map(|(c, s)| (c.latency_cycles.to_bits(), c.energy_uj.to_bits(), s.to_bits())),
                    "thread count changed an outcome"
                );
            }
        }
    }

    #[test]
    fn pool_propagates_original_panic_payload() {
        #[derive(Debug)]
        struct Marker(u64);
        struct Bomb;
        impl Evaluator for Bomb {
            fn evaluate(&self, _m: &Mapping) -> Option<(Cost, f64)> {
                std::panic::panic_any(Marker(42));
            }
        }
        crate::fault::quiet_sentinel_panics();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (space, _) = setup();
        let b = batch(&space, 1, 16);
        let pool = EvalPool::new(EvalConfig { threads: 4, cache_capacity: 0 });
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.evaluate_batch(&Bomb, &b);
        }))
        .unwrap_err();
        std::panic::set_hook(prev);
        let m = err.downcast_ref::<Marker>().expect("original payload preserved");
        assert_eq!(m.0, 42);
    }

    #[test]
    fn cache_hits_return_identical_outcomes() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let cache = EvalCache::new(1 << 12);
        let cached = CachedEvaluator::new(&cache, &eval);
        let b = batch(&space, 2, 50);
        let first = cached.evaluate_batch(&b);
        let again = cached.evaluate_batch(&b);
        let s = cache.stats();
        assert_eq!(s.misses, 50);
        assert_eq!(s.hits, 50);
        for (f, a) in first.iter().zip(&again) {
            assert_eq!(
                f.map(|(c, s)| (c.latency_cycles.to_bits(), c.energy_uj.to_bits(), s.to_bits())),
                a.map(|(c, s)| (c.latency_cycles.to_bits(), c.energy_uj.to_bits(), s.to_bits()))
            );
        }
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let cache = EvalCache::new(SHARDS * 2);
        let cached = CachedEvaluator::new(&cache, &eval);
        let b = batch(&space, 3, 400);
        let _ = cached.evaluate_batch(&b);
        let s = cache.stats();
        assert!(s.evictions > 0, "no evictions despite tiny capacity");
        let live: usize = (0..SHARDS).map(|i| cache.shards[i].lock().unwrap().map.len()).sum();
        assert!(live <= SHARDS * 2, "cache exceeded its bound: {live}");
        // The FIFO tracks exactly the resident entries.
        let queued: usize = (0..SHARDS).map(|i| cache.shards[i].lock().unwrap().fifo.len()).sum();
        assert_eq!(live, queued);
        assert_eq!(s.inserts - s.evictions, live as u64);
    }

    #[test]
    fn unit_loop_permutations_share_an_entry() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let cache = EvalCache::new(1 << 12);
        let cached = CachedEvaluator::new(&cache, &eval);
        let mut rng = SmallRng::seed_from_u64(7);
        let m = space.random(&mut rng);
        // Shuffle unit-bound temporal loops to the front of a level's
        // order: cost-equivalent, canonically identical.
        let mut variant = m.clone();
        for l in 0..variant.num_levels() {
            let temporal = variant.temporal(l);
            let (mut unit, mut non_unit): (Vec<usize>, Vec<usize>) =
                variant.order(l).iter().map(|&d| d as usize).partition(|&d| temporal[d] <= 1);
            unit.reverse();
            unit.append(&mut non_unit);
            variant.set_order(l, &unit);
        }
        let a = cached.evaluate(&m);
        let b = cached.evaluate(&variant);
        let s = cache.stats();
        assert_eq!(s.misses, 1, "variant should hit the first entry");
        assert_eq!(s.hits, 1);
        assert_eq!(
            a.map(|(c, s)| (c.latency_cycles.to_bits(), c.energy_uj.to_bits(), s.to_bits())),
            b.map(|(c, s)| (c.latency_cycles.to_bits(), c.energy_uj.to_bits(), s.to_bits()))
        );
    }

    #[test]
    fn disabled_cache_never_stores() {
        let (space, model) = setup();
        let eval = EdpEvaluator::new(&model);
        let cache = EvalCache::new(0);
        let cached = CachedEvaluator::new(&cache, &eval);
        let b = batch(&space, 4, 10);
        let _ = cached.evaluate_batch(&b);
        let _ = cached.evaluate_batch(&b);
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.inserts, 0);
        assert_eq!(s.misses, 20);
    }

    /// `(probes, hits, lookups)` of one single-lane `mapper` search of
    /// 3,000 samples (seed 0) on Conv_4 / Accel-B through a fresh cache.
    fn cache_traffic(mapper: &str) -> (u64, u64, u64) {
        let (p, a) = (problem::zoo::resnet_conv4(), Arch::accel_b());
        let model = DenseModel::new(p.clone(), a.clone());
        let eval = EdpEvaluator::new(&model);
        let cache = EvalCache::new(1 << 16);
        let cached = CachedEvaluator::new(&cache, &eval);
        let mapper = mappers::by_name(mapper).expect("known mapper");
        let mut rng = SmallRng::seed_from_u64(0);
        let space = MapSpace::new(p, a);
        let _ = mapper.search(&space, &cached, mappers::Budget::samples(3000), &mut rng);
        let s = cache.stats();
        (cache.probes.load(Ordering::Relaxed), s.hits, s.hits + s.misses)
    }

    /// The adaptive bypass, deterministically: a mapper that never
    /// revisits stops probing after the warm-up (one recheck window
    /// aside), while one that revisits keeps probing and its hits pay for
    /// its probes. The exact counts pin today's trajectories.
    #[test]
    fn adaptive_bypass_tracks_the_revisit_rate() {
        let random = cache_traffic("random");
        let (probes, hits, lookups) = random;
        assert_eq!(hits, 0, "random never revisits");
        assert!(
            probes <= ADAPTIVE_WARMUP + ADAPTIVE_RECHECK,
            "random kept probing: {probes} probes over {lookups} lookups"
        );
        let gamma = cache_traffic("gamma");
        let (probes, hits, lookups) = gamma;
        assert!(probes * 2 > lookups, "gamma stopped probing: {probes} of {lookups}");
        assert!(hits * ADAPTIVE_PAY >= probes, "gamma's {hits} hits don't pay for {probes} probes");
        assert_eq!((random, gamma), ((251, 0, 1246), (2122, 1516, 2996)));
    }
}
