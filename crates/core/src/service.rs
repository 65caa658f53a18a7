//! `mapex serve` — a crash-only mapping-as-a-service daemon.
//!
//! Concurrent clients connect over TCP and exchange one JSON document per
//! line (the protocol reuses [`crate::json`]; there are no new
//! dependencies). Evaluate/search requests run on the daemon's shared
//! [`EvalPool`], each search with its own [`EvalCache`], under the
//! invariant guard, through the same resilient runtime the batch CLI
//! uses — so the robustness machinery of the earlier layers (watchdog
//! budgets, panic isolation, guard quarantine) is what stands between a
//! request and the process.
//!
//! Robustness properties, in order of importance:
//!
//! 1. **Bounded admission.** Work requests pass a bounded queue; when it
//!    is full the client gets an immediate structured overload response
//!    carrying a `retry_after_ms` hint instead of unbounded buffering or a
//!    hung connection.
//! 2. **Deadlines that degrade, not error.** A request's `deadline_ms` is
//!    enforced by the watchdog *inside* the evaluation path; when it
//!    expires the best-so-far incumbent is salvaged and returned flagged
//!    `"degraded": true`.
//! 3. **Error taxonomy.** Every failure response says whether it is
//!    `"transient"` (retry the same request: overload, drain, a panic, a
//!    missed deadline with nothing salvaged) or `"permanent"` (don't:
//!    malformed JSON, a bad spec, an unmappable pairing).
//! 4. **Panic isolation.** A request that panics the mapper or the model
//!    produces a structured error response; the daemon keeps serving.
//! 5. **Graceful drain.** SIGTERM (or [`ServerHandle::drain`]) stops
//!    accepting, finishes everything already admitted, answers each
//!    admitted request exactly once, and exits 0.
//!
//! A `stats` request surfaces uptime, queue depth, cache and
//! guard-quarantine counters, so a live daemon is debuggable in place.
//!
//! # Protocol
//!
//! Request (one line): `{"id": <any>, "op": "ping" | "stats" | "validate"
//! | "evaluate" | "search", ...}`. The `id` is echoed verbatim in the
//! response. Workloads are given either as `"problem"` (the CLI's
//! one-liner codec, e.g. `"GEMM;g;B=4,M=64,K=64,N=64"`) or `"problem_toml"`
//! (the hardened [`spec`] TOML subset); architectures as `"arch"`
//! (`"accel-a"` / `"accel-b"`) or `"arch_toml"`.
//!
//! Response (one line): `{"id": ..., "ok": true, ...}` or `{"id": ...,
//! "ok": false, "error": {"code": ..., "kind": "transient" | "permanent",
//! "message": ..., "retry_after_ms": ...}}`.

use crate::driver::Mse;
use crate::eval::{EvalCache, EvalConfig, EvalPool};
use crate::fleet::{
    self, ArchWire, Fleet, FleetConfig, SearchOk, ServeRole, ShardData, ShardError, ShardKind,
    ShardOutcome, ShardSpec, WorkerLink,
};
use crate::json;
use crate::runtime::{reseed, LayerCheckpoint, RunPolicy, SweepCheckpoint};
use crate::store::WarmStore;
use crate::warmstart::{run_layer, InitStrategy, ReplayBuffer};
use arch::Arch;
use costmodel::{guarded_engine, CostModel, GuardAudit, GuardPolicy};
use mappers::{score_cmp, Budget, EdpEvaluator, Mapper, RunError, RunStatus};
use mapping::Mapping;
use problem::{Density, Problem};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the serving daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Request-worker threads (each runs one admitted request at a time).
    /// `0` resolves to half the cores, at least one.
    pub workers: usize,
    /// Admission-queue bound: requests beyond `workers` in flight plus
    /// this many queued are rejected with an overload response.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`. `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Largest accepted request line; longer ones get a permanent
    /// `request-too-large` response and the connection is closed (there is
    /// no way to resynchronize a line protocol mid-line).
    pub max_request_bytes: usize,
    /// Evaluation stack: worker-pool width shared by the whole daemon,
    /// and the capacity of the evaluation cache each search (or island)
    /// builds for itself and drops when it finishes.
    pub eval: EvalConfig,
    /// Invariant-guard policy applied to every cost-model evaluation
    /// ([`GuardPolicy::Trust`] skips the checks: `--guard off`).
    pub guard: GuardPolicy,
    /// Test hook: accept `"mapper": "panic-injector"`, a mapper that
    /// panics mid-search, to exercise panic isolation end to end. Off by
    /// default; never enable in production.
    pub fault_injection: bool,
    /// Fleet topology role: standalone (default), coordinator, or worker.
    pub role: ServeRole,
    /// Fleet timing/retry knobs (read by coordinators and workers).
    pub fleet: FleetConfig,
    /// Directory for service-managed sweep checkpoints. `sweep` requests
    /// that name a `checkpoint` are rejected when this is unset — clients
    /// must not choose arbitrary filesystem paths.
    pub checkpoint_dir: Option<PathBuf>,
    /// Durable warm-start store path ([`crate::store::WarmStore`]). When
    /// set, completed searches and sweep layers deposit their incumbents,
    /// new searches are seeded from the most similar validated prior, and
    /// mapper `auto` resolves through the store's bandit. `None` disables
    /// all warm-start behavior (requests run exactly as before).
    pub store: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            default_deadline_ms: Some(30_000),
            max_request_bytes: 1 << 20,
            eval: EvalConfig { threads: 1, cache_capacity: 1 << 14 },
            guard: GuardPolicy::Reject,
            fault_injection: false,
            role: ServeRole::Standalone,
            fleet: FleetConfig::default(),
            checkpoint_dir: None,
            store: None,
        }
    }
}

impl ServeConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            (std::thread::available_parallelism().map_or(1, |n| n.get()) / 2).max(1)
        } else {
            self.workers
        }
    }
}

/// Whether a failed request is worth retrying verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Retry later (overload, drain, panic, missed deadline with nothing
    /// salvaged): the failure is about the daemon's current state, not the
    /// request.
    Transient,
    /// Do not retry: the request itself is the problem (malformed JSON,
    /// bad spec, unmappable pairing, a space with no legal point).
    Permanent,
}

impl ErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Transient => "transient",
            ErrorKind::Permanent => "permanent",
        }
    }
}

/// A structured failure response before rendering.
struct ServiceError {
    code: &'static str,
    kind: ErrorKind,
    message: String,
    retry_after_ms: Option<u64>,
}

impl ServiceError {
    fn permanent(code: &'static str, message: impl Into<String>) -> Self {
        ServiceError { code, kind: ErrorKind::Permanent, message: message.into(), retry_after_ms: None }
    }

    fn transient(code: &'static str, message: impl Into<String>, retry_after_ms: Option<u64>) -> Self {
        ServiceError { code, kind: ErrorKind::Transient, message: message.into(), retry_after_ms }
    }

    fn render(&self, id: &str) -> String {
        let mut s = format!(
            "{{\"id\": {id}, \"ok\": false, \"error\": {{\"code\": {}, \"kind\": {}, \"message\": {}",
            json::escape(self.code),
            json::escape(self.kind.as_str()),
            json::escape(&self.message),
        );
        if let Some(ms) = self.retry_after_ms {
            s.push_str(&format!(", \"retry_after_ms\": {ms}"));
        }
        s.push_str("}}");
        s
    }
}

/// Terminal statistics returned by [`ServerHandle::join`].
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Wall-clock seconds the daemon served.
    pub uptime_secs: f64,
    /// Connections accepted.
    pub connections: u64,
    /// Work requests admitted to the queue.
    pub accepted: u64,
    /// Admitted requests answered (every admitted request is, exactly once).
    pub completed: u64,
    /// Work requests rejected with an overload response.
    pub rejected_overload: u64,
    /// Work requests rejected because the daemon was draining.
    pub rejected_draining: u64,
    /// Responses flagged `degraded: true` (deadline/budget salvage).
    pub degraded: u64,
    /// Requests whose handler panicked (isolated, answered with an error).
    pub request_panics: u64,
    /// Malformed or invalid requests answered inline.
    pub invalid: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_draining: AtomicU64,
    degraded: AtomicU64,
    request_panics: AtomicU64,
    invalid: AtomicU64,
}

/// One admitted unit of work plus everything needed to answer it.
struct Job {
    id: String,
    work: Work,
    writer: Arc<Mutex<TcpStream>>,
}

enum Work {
    Evaluate {
        problem: Problem,
        arch: Arch,
        density: Option<Density>,
        /// Boxed: an inline mapping would size every queued job like it.
        mapping: Box<Mapping>,
    },
    Search {
        problem: Problem,
        arch: Arch,
        arch_wire: ArchWire,
        density: Option<Density>,
        mapper: String,
        samples: usize,
        deadline: Option<Duration>,
        seed: u64,
        retries: usize,
        /// `>= 2` fans the search out into this many independently seeded
        /// population islands (across the fleet when one is attached),
        /// merging to the best incumbent; `0`/`1` searches once.
        islands: usize,
    },
    Sweep(Box<SweepWork>),
}

/// An admitted multi-layer sweep (the fleet's main fan-out unit).
/// Mappability was checked against the parsed arch at admission; only the
/// wire form is kept — shards re-derive the arch from it.
struct SweepWork {
    layers: Vec<Problem>,
    arch_wire: ArchWire,
    density: Option<Density>,
    mapper: String,
    samples: usize,
    seed: u64,
    /// Resolved checkpoint path under [`ServeConfig::checkpoint_dir`].
    checkpoint: Option<PathBuf>,
    /// The client-facing checkpoint name (echoed in the response).
    checkpoint_name: Option<String>,
    resume: bool,
}

struct Shared {
    cfg: ServeConfig,
    started: Instant,
    draining: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    counters: Counters,
    pool: EvalPool,
    /// Daemon-lifetime sums of every search's own cache statistics.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_inserts: AtomicU64,
    cache_evictions: AtomicU64,
    guard_violations: AtomicU64,
    guard_rejections: AtomicU64,
    /// EWMA of recent request service time in ms (backs `retry_after_ms`).
    ewma_ms: AtomicU64,
    /// Read-half clones of live *client* connections keyed by a per-conn
    /// token, shut down at drain so reader threads unblock. Connections
    /// that register as fleet workers are removed from this map: shard
    /// results must keep flowing during drain.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_token: AtomicU64,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Coordinator scheduler ([`ServeRole::Coordinator`] only).
    fleet: Option<Arc<Fleet>>,
    /// Link to the coordinator ([`ServeRole::Worker`] only).
    worker_link: Option<Arc<WorkerLink>>,
    /// Hard-kill flag ([`ServerHandle::kill`], the chaos-test stand-in
    /// for SIGKILL): in-flight sweep drivers abandon their jobs at the
    /// next layer boundary instead of finishing the drain.
    aborted: AtomicBool,
    /// Durable warm-start store (standalone and coordinator roles; workers
    /// receive seeds in shard payloads and never open a store themselves).
    store: Option<Arc<WarmStore>>,
}

impl Shared {
    fn should_drain(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || signal_drain_requested()
    }

    /// `retry_after_ms` hint: roughly how long until a queue slot frees up
    /// — the smoothed service time times the line ahead of the client.
    fn retry_hint(&self, queue_len: usize) -> u64 {
        let ewma = self.ewma_ms.load(Ordering::Relaxed).max(20);
        (ewma * (queue_len as u64 + 1)).clamp(50, 30_000)
    }

    fn observe_service_ms(&self, ms: u64) {
        let old = self.ewma_ms.load(Ordering::Relaxed);
        let new = if old == 0 { ms } else { (old * 7 + ms) / 8 };
        self.ewma_ms.store(new, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// SIGTERM / SIGINT → drain (unix only; other platforms drain via the API)
// ---------------------------------------------------------------------------

static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

fn signal_drain_requested() -> bool {
    SIGNAL_DRAIN.load(Ordering::SeqCst)
}

/// Installs SIGTERM/SIGINT handlers that request a graceful drain (the
/// crash-only shutdown path: stop accepting, finish in-flight, answer
/// everything exactly once, exit 0). Safe to call more than once.
#[cfg(unix)]
pub fn install_drain_signal_handlers() {
    // Raw libc `signal(2)` via FFI: the build is dependency-free and std
    // exposes no signal API. The handler only stores to an atomic, which
    // is async-signal-safe.
    extern "C" fn on_signal(_sig: i32) {
        SIGNAL_DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

/// Non-unix stub: signals are not wired up; drain via [`ServerHandle`].
#[cfg(not(unix))]
pub fn install_drain_signal_handlers() {}

// ---------------------------------------------------------------------------
// Server lifecycle
// ---------------------------------------------------------------------------

/// A running daemon. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::drain`] then [`ServerHandle::join`] (or send SIGTERM
/// when the signal handlers are installed).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Fleet supervisor (coordinator) or link manager + shard executors
    /// (worker).
    fleet_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain: stop accepting, finish everything
    /// admitted, answer each admitted request exactly once. Returns
    /// immediately; use [`ServerHandle::join`] to wait it out.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// Chaos hook: sever this worker daemon's link to its coordinator
    /// (simulated worker death, as the coordinator sees it — the daemon
    /// itself keeps serving its own clients). No-op on other roles.
    pub fn chaos_sever_fleet_link(&self) {
        if let Some(link) = &self.shared.worker_link {
            link.sever();
        }
    }

    /// Chaos hook: stop this worker daemon's heartbeats while leaving the
    /// connection and shard execution running — forces a lease expiry
    /// whose late results arrive as discardable duplicates. No-op on
    /// other roles.
    pub fn chaos_mute_fleet_link(&self) {
        if let Some(link) = &self.shared.worker_link {
            link.mute();
        }
    }

    /// Hard stop — the in-process stand-in for SIGKILL in coordinator
    /// chaos tests. Unlike [`ServerHandle::drain`], admitted sweeps are
    /// abandoned at the next layer boundary (the checkpoint keeps the
    /// completed prefix), connections are cut both ways, and every thread
    /// is joined. The listen port is free when this returns.
    pub fn kill(mut self) {
        self.shared.aborted.store(true, Ordering::SeqCst);
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        if let Some(f) = &self.shared.fleet {
            f.shutdown();
        }
        if let Some(link) = &self.shared.worker_link {
            link.sever();
        }
        let conns: Vec<TcpStream> = {
            let mut c = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            c.drain().map(|(_, s)| s).collect()
        };
        for c in conns {
            let _ = c.shutdown(Shutdown::Both);
        }
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The fleet stops only after the service workers have drained:
        // an admitted sweep keeps its workers until its last layer lands.
        if let Some(f) = &self.shared.fleet {
            f.shutdown();
        }
        for t in self.fleet_threads.drain(..) {
            let _ = t.join();
        }
        let readers: Vec<JoinHandle<()>> = {
            let mut r = self.shared.readers.lock().unwrap_or_else(|e| e.into_inner());
            r.drain(..).collect()
        };
        for r in readers {
            let _ = r.join();
        }
    }

    /// Waits for the daemon to finish draining (triggered by
    /// [`ServerHandle::drain`] or a signal) and returns final statistics.
    pub fn join(mut self) -> ServeStats {
        self.join_threads();
        let c = &self.shared.counters;
        ServeStats {
            uptime_secs: self.shared.started.elapsed().as_secs_f64(),
            connections: c.connections.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            rejected_draining: c.rejected_draining.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            request_panics: c.request_panics.load(Ordering::Relaxed),
            invalid: c.invalid.load(Ordering::Relaxed),
        }
    }
}

/// Binds and starts the daemon: an accept thread, `workers` request
/// workers, and one reader thread per connection.
///
/// # Errors
///
/// I/O errors binding the listen address.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    crate::fault::quiet_sentinel_panics();
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = cfg.resolved_workers();
    let pool = EvalPool::new(cfg.eval);
    let (fleet_sched, worker_link) = match &cfg.role {
        ServeRole::Coordinator => (Some(Arc::new(Fleet::new(cfg.fleet.clone()))), None),
        ServeRole::Worker { coordinator } => (
            None,
            Some(Arc::new(WorkerLink::new(cfg.fleet.clone(), coordinator.clone(), workers))),
        ),
        ServeRole::Standalone => (None, None),
    };
    // Workers never open a store — seeds arrive inside shard payloads, so
    // the coordinator's store stays the single source of priors.
    let store = match (&cfg.store, &cfg.role) {
        (Some(path), ServeRole::Standalone | ServeRole::Coordinator) => {
            Some(Arc::new(WarmStore::open(path)?))
        }
        _ => None,
    };
    let shared = Arc::new(Shared {
        cfg,
        started: Instant::now(),
        draining: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        counters: Counters::default(),
        pool,
        cache_hits: AtomicU64::new(0),
        cache_misses: AtomicU64::new(0),
        cache_inserts: AtomicU64::new(0),
        cache_evictions: AtomicU64::new(0),
        guard_violations: AtomicU64::new(0),
        guard_rejections: AtomicU64::new(0),
        ewma_ms: AtomicU64::new(0),
        conns: Mutex::new(HashMap::new()),
        conn_token: AtomicU64::new(1),
        readers: Mutex::new(Vec::new()),
        fleet: fleet_sched,
        worker_link,
        aborted: AtomicBool::new(false),
        store,
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    let worker_handles = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    let mut fleet_threads = Vec::new();
    if let Some(f) = &shared.fleet {
        fleet_threads.push(Fleet::spawn_supervisor(Arc::clone(f)));
    }
    if let Some(link) = &shared.worker_link {
        let drain_view = Arc::clone(&shared);
        fleet_threads
            .push(WorkerLink::spawn_manager(Arc::clone(link), move || drain_view.should_drain()));
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            fleet_threads.push(std::thread::spawn(move || worker_shard_loop(&shared)));
        }
    }
    Ok(ServerHandle { addr, shared, accept: Some(accept), workers: worker_handles, fleet_threads })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.should_drain() {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                let token = shared.conn_token.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap_or_else(|e| e.into_inner()).insert(token, clone);
                }
                let shared2 = Arc::clone(shared);
                let handle = std::thread::spawn(move || reader_loop(stream, &shared2, token));
                shared.readers.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // Drain: we have stopped accepting. Propagate the flag (the trigger
    // may have been a signal), unblock parked workers, and shut down the
    // read half of every connection so reader threads see EOF instead of
    // blocking forever. Write halves stay open: workers are still
    // answering the admitted backlog.
    shared.draining.store(true, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    let conns: Vec<TcpStream> = {
        let mut c = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        c.drain().map(|(_, s)| s).collect()
    };
    for c in conns {
        let _ = c.shutdown(Shutdown::Read);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.should_drain() {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let started = Instant::now();
        // Panic isolation: one poisoned request becomes a structured
        // transient error; the worker (and daemon) keep serving.
        let response = match catch_unwind(AssertUnwindSafe(|| execute(shared, &job))) {
            Ok(line) => line,
            Err(payload) => {
                shared.counters.request_panics.fetch_add(1, Ordering::Relaxed);
                ServiceError::transient(
                    "internal-panic",
                    format!(
                        "request handler panicked: {}",
                        crate::fault::panic_message(&*payload)
                    ),
                    Some(shared.retry_hint(0)),
                )
                .render(&job.id)
            }
        };
        shared.observe_service_ms(started.elapsed().as_millis() as u64);
        write_line(&job.writer, &response);
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    }
}

fn write_line(writer: &Arc<Mutex<TcpStream>>, line: &str) {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    match crate::chaos::net_send_fault() {
        Some(crate::chaos::NetFault::Reset) => {
            // Mid-frame reset: the client sees a dropped connection with no
            // (or a torn) response and must recover by retrying.
            let _ = w.shutdown(std::net::Shutdown::Both);
            return;
        }
        Some(crate::chaos::NetFault::Short(n)) => {
            let cut = n.min(line.len());
            let _ = w.write_all(&line.as_bytes()[..cut]);
            let _ = w.flush();
            let _ = w.shutdown(std::net::Shutdown::Both);
            return;
        }
        Some(crate::chaos::NetFault::Delay(d)) => std::thread::sleep(d),
        None => {}
    }
    // A vanished client is not an error worth anything but moving on.
    let _ = w.write_all(line.as_bytes()).and_then(|()| w.write_all(b"\n"));
    let _ = w.flush();
}

// ---------------------------------------------------------------------------
// Connection reader: framing, parsing, admission
// ---------------------------------------------------------------------------

enum LineRead {
    Eof,
    Line(Vec<u8>),
    TooLong,
}

/// Reads one `\n`-terminated line without ever buffering more than `max`
/// bytes — network input must not size our memory.
fn read_bounded_line(r: &mut BufReader<TcpStream>, max: usize) -> std::io::Result<LineRead> {
    match crate::chaos::net_recv_fault() {
        Some(crate::chaos::NetFault::Reset) => {
            let _ = r.get_ref().shutdown(std::net::Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "chaos: connection reset",
            ));
        }
        Some(crate::chaos::NetFault::Delay(d)) => std::thread::sleep(d),
        // A short *read* of a line-framed stream is just a later read.
        Some(crate::chaos::NetFault::Short(_)) | None => {}
    }
    let mut line = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if line.is_empty() { LineRead::Eof } else { LineRead::Line(line) });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > max {
                    r.consume(pos + 1);
                    return Ok(LineRead::TooLong);
                }
                line.extend_from_slice(&buf[..pos]);
                r.consume(pos + 1);
                return Ok(LineRead::Line(line));
            }
            None => {
                let take = buf.len();
                if line.len() + take > max {
                    r.consume(take);
                    return Ok(LineRead::TooLong);
                }
                line.extend_from_slice(buf);
                r.consume(take);
            }
        }
    }
}

fn reader_loop(stream: TcpStream, shared: &Arc<Shared>, token: u64) {
    // `worker_id` is set iff this connection registered as a fleet
    // worker; its death must then re-dispatch that worker's shards.
    let mut worker_id: Option<u64> = None;
    if let Ok(w) = stream.try_clone() {
        let writer = Arc::new(Mutex::new(w));
        let mut reader = BufReader::new(stream);
        loop {
            match read_bounded_line(&mut reader, shared.cfg.max_request_bytes) {
                Ok(LineRead::Eof) | Err(_) => break,
                Ok(LineRead::TooLong) => {
                    shared.counters.invalid.fetch_add(1, Ordering::Relaxed);
                    let err = ServiceError::permanent(
                        "request-too-large",
                        format!("request line exceeds {} bytes", shared.cfg.max_request_bytes),
                    );
                    write_line(&writer, &err.render("null"));
                    // A line protocol cannot resynchronize after an
                    // oversized line; close rather than misparse.
                    break;
                }
                Ok(LineRead::Line(bytes)) => {
                    if bytes.iter().all(|b| b.is_ascii_whitespace()) {
                        continue;
                    }
                    handle_line(shared, &writer, &bytes, token, &mut worker_id);
                }
            }
        }
    }
    shared.conns.lock().unwrap_or_else(|e| e.into_inner()).remove(&token);
    if let (Some(fleet), Some(wid)) = (&shared.fleet, worker_id) {
        fleet.disconnected(wid);
    }
}

/// Parses, validates, and either answers inline (control ops, rejections,
/// malformed input) or admits the request to the work queue.
fn handle_line(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    bytes: &[u8],
    token: u64,
    worker_id: &mut Option<u64>,
) {
    let invalid = |err: ServiceError, id: &str| {
        shared.counters.invalid.fetch_add(1, Ordering::Relaxed);
        write_line(writer, &err.render(id));
    };
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t,
        Err(_) => {
            return invalid(
                ServiceError::permanent("bad-json", "request is not valid UTF-8"),
                "null",
            )
        }
    };
    let doc = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            return invalid(
                ServiceError::permanent("bad-json", format!("malformed request: {e}")),
                "null",
            )
        }
    };
    let id = doc.get("id").map_or_else(|| "null".to_string(), json::Value::to_text);
    let op = match doc.get("op").and_then(json::Value::as_str) {
        Some(op) => op,
        None => {
            return invalid(
                ServiceError::permanent("bad-request", "missing string field `op`"),
                &id,
            )
        }
    };
    match op {
        "ping" => write_line(writer, &format!("{{\"id\": {id}, \"ok\": true, \"op\": \"pong\"}}")),
        "stats" => write_line(writer, &render_stats(shared, &id)),
        "health" => write_line(writer, &render_health(shared, &id)),
        "validate" => match parse_validate(&doc) {
            Ok(line) => write_line(writer, &format!("{{\"id\": {id}, \"ok\": true, {line}}}")),
            Err(err) => invalid(err, &id),
        },
        "evaluate" | "search" => {
            let work = match parse_work(shared, op, &doc) {
                Ok(w) => w,
                Err(err) => return invalid(err, &id),
            };
            admit(shared, writer, Job { id, work, writer: Arc::clone(writer) });
        }
        "sweep" => {
            let work = match parse_sweep(shared, &doc) {
                Ok(w) => w,
                Err(err) => return invalid(err, &id),
            };
            admit(shared, writer, Job { id, work, writer: Arc::clone(writer) });
        }
        // --- fleet channel (worker → coordinator), same listener -------
        "register-worker" => match &shared.fleet {
            Some(f) => {
                // This connection is now a worker channel: exempt it from
                // the drain-time read shutdown (results flow during
                // drain), and track it for re-dispatch on death.
                shared.conns.lock().unwrap_or_else(|e| e.into_inner()).remove(&token);
                let slots = doc.get("slots").and_then(json::Value::as_usize).unwrap_or(1);
                let wid = f.register(Arc::clone(writer), slots);
                *worker_id = Some(wid);
                write_line(
                    writer,
                    &format!(
                        "{{\"id\": {id}, \"ok\": true, \"op\": \"registered\", \
                         \"worker\": {wid}, \"heartbeat_ms\": {}, \"lease_ms\": {}}}",
                        f.config().heartbeat_ms,
                        f.config().lease_ms,
                    ),
                );
            }
            None => invalid(
                ServiceError::permanent("bad-request", "this daemon is not a coordinator"),
                &id,
            ),
        },
        // Fire-and-forget worker traffic: never answered (a reply would
        // desynchronize the worker's line protocol), ignored unless the
        // connection actually registered.
        "heartbeat" => {
            if let (Some(f), Some(wid)) = (&shared.fleet, *worker_id) {
                f.touch(wid);
            }
        }
        "deregister" => {
            if let (Some(f), Some(wid)) = (&shared.fleet, *worker_id) {
                f.deregister(wid);
            }
        }
        "shard-result" => {
            if let (Some(f), Some(wid)) = (&shared.fleet, *worker_id) {
                // A malformed result is dropped: the lease/retry machinery
                // re-dispatches the shard as if it never came back.
                if let Ok((sid, outcome)) = fleet::parse_shard_result(&doc) {
                    f.result(wid, &sid, outcome);
                }
            }
        }
        other => invalid(
            ServiceError::permanent("bad-request", format!("unknown op `{other}`")),
            &id,
        ),
    }
}

/// Admission control: bounded queue, explicit backpressure, drain refusal.
fn admit(shared: &Arc<Shared>, writer: &Arc<Mutex<TcpStream>>, job: Job) {
    let rejection = {
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if shared.should_drain() {
            shared.counters.rejected_draining.fetch_add(1, Ordering::Relaxed);
            Some(ServiceError::transient(
                "draining",
                "daemon is draining; retry against a healthy instance",
                Some(1_000),
            )
            .render(&job.id))
        } else if q.len() >= shared.cfg.queue_capacity {
            shared.counters.rejected_overload.fetch_add(1, Ordering::Relaxed);
            let hint = shared.retry_hint(q.len());
            Some(ServiceError::transient(
                "overloaded",
                format!(
                    "admission queue is full ({} queued, capacity {})",
                    q.len(),
                    shared.cfg.queue_capacity
                ),
                Some(hint),
            )
            .render(&job.id))
        } else {
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            q.push_back(job);
            shared.queue_cv.notify_one();
            None
        }
    };
    if let Some(line) = rejection {
        write_line(writer, &line);
    }
}

// ---------------------------------------------------------------------------
// Request validation (the crates/spec ingestion path)
// ---------------------------------------------------------------------------

fn parse_validate(doc: &json::Value) -> Result<String, ServiceError> {
    let text = doc
        .get("spec")
        .and_then(json::Value::as_str)
        .ok_or_else(|| ServiceError::permanent("bad-request", "validate needs a string `spec`"))?;
    match spec::parse_any(text)
        .map_err(|e| ServiceError::permanent("bad-spec", e.to_string()))?
    {
        spec::Spec::Arch(a) => Ok(format!(
            "\"kind\": \"arch\", \"name\": {}, \"levels\": {}",
            json::escape(a.name()),
            a.num_levels()
        )),
        spec::Spec::Problem(p) => Ok(format!(
            "\"kind\": \"problem\", \"name\": {}, \"macs\": {}",
            json::escape(p.name()),
            p.total_macs()
        )),
    }
}

fn parse_problem_field(doc: &json::Value) -> Result<Problem, ServiceError> {
    if let Some(spec_line) = doc.get("problem").and_then(json::Value::as_str) {
        return problem::codec::from_spec(spec_line)
            .map_err(|e| ServiceError::permanent("bad-spec", format!("problem: {e}")));
    }
    if let Some(toml) = doc.get("problem_toml").and_then(json::Value::as_str) {
        return spec::parse_problem(toml)
            .map_err(|e| ServiceError::permanent("bad-spec", format!("problem_toml: {e}")));
    }
    Err(ServiceError::permanent(
        "bad-request",
        "need `problem` (codec one-liner) or `problem_toml` (TOML spec)",
    ))
}

/// Parses the architecture and keeps its wire form — the coordinator
/// re-ships the *original* client encoding to workers, never a re-derived
/// one.
fn parse_arch_field(doc: &json::Value) -> Result<(Arch, ArchWire), ServiceError> {
    if let Some(toml) = doc.get("arch_toml").and_then(json::Value::as_str) {
        let arch = spec::parse_arch(toml)
            .map_err(|e| ServiceError::permanent("bad-spec", format!("arch_toml: {e}")))?;
        return Ok((arch, ArchWire::Toml(toml.to_string())));
    }
    let name = doc.get("arch").and_then(json::Value::as_str).unwrap_or("accel-b");
    let arch = match name {
        "accel-a" => Arch::accel_a(),
        "accel-b" => Arch::accel_b(),
        other => {
            return Err(ServiceError::permanent(
                "bad-request",
                format!("unknown arch `{other}` (accel-a | accel-b, or pass arch_toml)"),
            ))
        }
    };
    Ok((arch, ArchWire::Preset(name.to_string())))
}

/// Resolves a preset/TOML wire form back to an [`Arch`] (worker side).
fn arch_from_wire(wire: &ArchWire) -> Result<Arch, ShardError> {
    match wire {
        ArchWire::Preset(name) => match name.as_str() {
            "accel-a" => Ok(Arch::accel_a()),
            "accel-b" => Ok(Arch::accel_b()),
            other => Err(ShardError {
                kind: ErrorKind::Permanent,
                code: "bad-request".to_string(),
                message: format!("unknown arch preset `{other}`"),
            }),
        },
        ArchWire::Toml(toml) => spec::parse_arch(toml).map_err(|e| ShardError {
            kind: ErrorKind::Permanent,
            code: "bad-spec".to_string(),
            message: format!("arch_toml: {e}"),
        }),
    }
}

fn parse_density_fields(doc: &json::Value) -> Result<Option<Density>, ServiceError> {
    let get = |key: &str| -> Result<f64, ServiceError> {
        match doc.get(key) {
            None | Some(json::Value::Null) => Ok(1.0),
            Some(v) => v.as_f64().ok_or_else(|| {
                ServiceError::permanent("bad-request", format!("`{key}` must be a number"))
            }),
        }
    };
    let dw = get("weight_density")?;
    let da = get("input_density")?;
    if !(dw > 0.0 && dw <= 1.0 && da > 0.0 && da <= 1.0) {
        return Err(ServiceError::permanent("bad-request", "densities must be in (0, 1]"));
    }
    if dw == 1.0 && da == 1.0 {
        Ok(None)
    } else {
        Ok(Some(Density { weight: dw, input: da }))
    }
}

fn parse_work(shared: &Shared, op: &str, doc: &json::Value) -> Result<Work, ServiceError> {
    let problem = parse_problem_field(doc)?;
    let (arch, arch_wire) = parse_arch_field(doc)?;
    let density = parse_density_fields(doc)?;
    // An unmappable pairing would burn a whole deadline discovering there
    // is nothing to find; reject it at admission instead.
    let space = mapping::MapSpace::new(problem.clone(), arch.clone());
    if !space.is_mappable() {
        return Err(ServiceError::permanent(
            "unmappable",
            format!("problem `{}` cannot be mapped onto `{}`", problem.name(), arch.name()),
        ));
    }
    match op {
        "evaluate" => {
            let spec_text = doc.get("mapping").and_then(json::Value::as_str).ok_or_else(|| {
                ServiceError::permanent("bad-request", "evaluate needs a string `mapping`")
            })?;
            let mapping = mapping::codec::from_spec(spec_text.trim())
                .map_err(|e| ServiceError::permanent("bad-spec", format!("mapping: {e}")))?;
            Ok(Work::Evaluate { problem, arch, density, mapping: Box::new(mapping) })
        }
        _ => {
            let mapper = doc
                .get("mapper")
                .and_then(json::Value::as_str)
                .unwrap_or("gamma")
                .to_string();
            // `auto` is a virtual mapper: the warm store's bandit resolves
            // it to a concrete arm at execution time (search only).
            if mapper != "auto" && mapper_by_name(&mapper, shared.cfg.fault_injection).is_none() {
                return Err(ServiceError::permanent(
                    "bad-request",
                    format!("unknown mapper `{mapper}`"),
                ));
            }
            let samples = match doc.get("samples") {
                None | Some(json::Value::Null) => 2_000,
                Some(v) => v.as_u64().ok_or_else(|| {
                    ServiceError::permanent("bad-request", "`samples` must be a non-negative integer")
                })? as usize,
            };
            let deadline_ms = match doc.get("deadline_ms") {
                None | Some(json::Value::Null) => shared.cfg.default_deadline_ms,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    ServiceError::permanent("bad-request", "`deadline_ms` must be a non-negative integer")
                })?),
            };
            if deadline_ms == Some(0) {
                return Err(ServiceError::permanent("bad-request", "`deadline_ms` must be positive"));
            }
            let seed = match doc.get("seed") {
                None | Some(json::Value::Null) => 0,
                Some(v) => v.as_u64().ok_or_else(|| {
                    ServiceError::permanent("bad-request", "`seed` must be a non-negative integer")
                })?,
            };
            let retries = match doc.get("retries") {
                None | Some(json::Value::Null) => 0,
                Some(v) => v.as_u64().ok_or_else(|| {
                    ServiceError::permanent("bad-request", "`retries` must be a non-negative integer")
                })? as usize,
            };
            let islands = match doc.get("islands") {
                None | Some(json::Value::Null) => 0,
                Some(v) => v.as_usize().ok_or_else(|| {
                    ServiceError::permanent("bad-request", "`islands` must be a non-negative integer")
                })?,
            };
            if islands > 64 {
                return Err(ServiceError::permanent("bad-request", "`islands` must be <= 64"));
            }
            if islands >= 2 && samples < islands {
                return Err(ServiceError::permanent(
                    "bad-request",
                    "`samples` must be at least `islands` (every island needs a budget)",
                ));
            }
            Ok(Work::Search {
                problem,
                arch,
                arch_wire,
                density,
                mapper,
                samples,
                deadline: deadline_ms.map(Duration::from_millis),
                seed,
                retries,
                islands,
            })
        }
    }
}

/// A checkpoint name a client may use: a plain filename, no path
/// traversal, and never colliding with the checkpoint code's own `.bak`
/// rolling-backup / `.tmp` staging siblings.
fn sanitize_checkpoint_name(name: &str) -> Result<(), ServiceError> {
    let bad = |msg: &str| Err(ServiceError::permanent("bad-request", format!("checkpoint: {msg}")));
    if name.is_empty() || name.len() > 128 {
        return bad("name must be 1..=128 characters");
    }
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')) {
        return bad("name may contain only [A-Za-z0-9._-]");
    }
    if name.starts_with('.') {
        return bad("name must not start with '.'");
    }
    if name.ends_with(".bak") || name.ends_with(".tmp") {
        return bad("names ending in .bak/.tmp are reserved for the checkpoint writer");
    }
    Ok(())
}

fn parse_sweep(shared: &Shared, doc: &json::Value) -> Result<Work, ServiceError> {
    let layer_values = doc
        .get("layers")
        .and_then(json::Value::as_array)
        .ok_or_else(|| ServiceError::permanent("bad-request", "sweep needs an array `layers`"))?;
    if layer_values.is_empty() {
        return Err(ServiceError::permanent("bad-request", "`layers` must be non-empty"));
    }
    if layer_values.len() > 1024 {
        return Err(ServiceError::permanent("bad-request", "`layers` must have <= 1024 entries"));
    }
    let (arch, arch_wire) = parse_arch_field(doc)?;
    let density = parse_density_fields(doc)?;
    let mut layers = Vec::with_capacity(layer_values.len());
    for (i, v) in layer_values.iter().enumerate() {
        let line = v.as_str().ok_or_else(|| {
            ServiceError::permanent("bad-request", format!("layers[{i}] must be a codec string"))
        })?;
        let p = problem::codec::from_spec(line)
            .map_err(|e| ServiceError::permanent("bad-spec", format!("layers[{i}]: {e}")))?;
        let space = mapping::MapSpace::new(p.clone(), arch.clone());
        if !space.is_mappable() {
            return Err(ServiceError::permanent(
                "unmappable",
                format!("layers[{i}] `{}` cannot be mapped onto `{}`", p.name(), arch.name()),
            ));
        }
        layers.push(p);
    }
    let mapper = doc.get("mapper").and_then(json::Value::as_str).unwrap_or("gamma").to_string();
    if mapper_by_name(&mapper, shared.cfg.fault_injection).is_none() {
        return Err(ServiceError::permanent("bad-request", format!("unknown mapper `{mapper}`")));
    }
    let samples = match doc.get("samples") {
        None | Some(json::Value::Null) => 2_000,
        Some(v) => v.as_usize().ok_or_else(|| {
            ServiceError::permanent("bad-request", "`samples` must be a non-negative integer")
        })?,
    };
    let seed = match doc.get("seed") {
        None | Some(json::Value::Null) => 0,
        Some(v) => v.as_u64().ok_or_else(|| {
            ServiceError::permanent("bad-request", "`seed` must be a non-negative integer")
        })?,
    };
    let checkpoint_name = match doc.get("checkpoint") {
        None | Some(json::Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| {
                    ServiceError::permanent("bad-request", "`checkpoint` must be a string name")
                })?
                .to_string(),
        ),
    };
    let checkpoint = match &checkpoint_name {
        Some(name) => {
            sanitize_checkpoint_name(name)?;
            let dir = shared.cfg.checkpoint_dir.as_ref().ok_or_else(|| {
                ServiceError::permanent(
                    "bad-request",
                    "this daemon has no checkpoint directory (start it with --checkpoint-dir)",
                )
            })?;
            Some(dir.join(name))
        }
        None => None,
    };
    let resume = match doc.get("resume") {
        None | Some(json::Value::Null) => false,
        Some(v) => v.as_bool().ok_or_else(|| {
            ServiceError::permanent("bad-request", "`resume` must be a boolean")
        })?,
    };
    if resume && checkpoint.is_none() {
        return Err(ServiceError::permanent("bad-request", "`resume` needs a `checkpoint`"));
    }
    Ok(Work::Sweep(Box::new(SweepWork {
        layers,
        arch_wire,
        density,
        mapper,
        samples,
        seed,
        checkpoint,
        checkpoint_name,
        resume,
    })))
}

// ---------------------------------------------------------------------------
// Request execution (on the worker threads)
// ---------------------------------------------------------------------------

/// A mapper that panics mid-search — the fault-injection hook behind
/// [`ServeConfig::fault_injection`], for proving panic isolation across
/// the wire.
struct PanicInjector;

impl Mapper for PanicInjector {
    fn name(&self) -> &str {
        "panic-injector"
    }

    fn search(
        &self,
        _space: &mapping::MapSpace,
        _evaluator: &dyn mappers::Evaluator,
        _budget: Budget,
        _rng: &mut rand::rngs::SmallRng,
    ) -> mappers::SearchResult {
        panic!("injected service fault");
    }
}

/// A mapper that never looks at its budget — the watchdog's sample cap or
/// hard deadline is the only thing that stops it. Fault-injection hook for
/// proving deadline salvage (`"degraded": true`) across the wire.
struct DeadlineIgnorer;

impl Mapper for DeadlineIgnorer {
    fn name(&self) -> &str {
        "deadline-ignorer"
    }

    fn search(
        &self,
        space: &mapping::MapSpace,
        evaluator: &dyn mappers::Evaluator,
        _budget: Budget,
        rng: &mut rand::rngs::SmallRng,
    ) -> mappers::SearchResult {
        loop {
            let batch: Vec<Mapping> = (0..64).map(|_| space.random(rng)).collect();
            let _ = evaluator.evaluate_batch(&batch);
        }
    }
}

/// Mapper factory shared by request validation and execution: the
/// library's mappers ([`mappers::by_name`]) plus, with fault injection on,
/// the two test mappers above.
fn mapper_by_name(name: &str, fault_injection: bool) -> Option<Box<dyn Mapper>> {
    match name {
        "panic-injector" if fault_injection => Some(Box::new(PanicInjector)),
        "deadline-ignorer" if fault_injection => Some(Box::new(DeadlineIgnorer)),
        _ => mappers::by_name(name),
    }
}

fn execute(shared: &Arc<Shared>, job: &Job) -> String {
    match &job.work {
        Work::Evaluate { problem, arch, density, mapping } => {
            execute_evaluate(shared, &job.id, problem, arch, *density, mapping)
        }
        Work::Search {
            problem,
            arch,
            arch_wire,
            density,
            mapper,
            samples,
            deadline,
            seed,
            retries,
            islands,
        } => execute_search(
            shared, &job.id, problem, arch, arch_wire, *density, mapper, *samples, *deadline,
            *seed, *retries, *islands,
        ),
        Work::Sweep(sweep) => execute_sweep(shared, &job.id, sweep),
    }
}

fn execute_evaluate(
    shared: &Arc<Shared>,
    id: &str,
    problem: &Problem,
    arch: &Arch,
    density: Option<Density>,
    mapping: &Mapping,
) -> String {
    let model = guarded_engine(problem, arch, density, shared.cfg.guard);
    let breakdown = model.evaluate_detailed(mapping);
    let report = model.report();
    shared.guard_violations.fetch_add(report.violations, Ordering::Relaxed);
    shared.guard_rejections.fetch_add(report.rejections, Ordering::Relaxed);
    match breakdown {
        Ok(b) => format!(
            "{{\"id\": {id}, \"ok\": true, \"score\": {}, \"latency_cycles\": {}, \
             \"energy_uj\": {}, \"lanes\": {}}}",
            json::num(b.cost.edp()),
            json::num(b.cost.latency_cycles),
            json::num(b.cost.energy_uj),
            b.lanes
        ),
        Err(e) => {
            ServiceError::permanent("illegal-mapping", e.to_string()).render(id)
        }
    }
}

/// One self-contained search run (a whole request, or one island of a
/// fanned-out one), returning wire-portable data instead of a rendered
/// response so fleet shards and direct requests share the exact path.
#[allow(clippy::too_many_arguments)]
fn run_search_core(
    shared: &Arc<Shared>,
    problem: &Problem,
    arch: &Arch,
    density: Option<Density>,
    mapper_name: &str,
    samples: usize,
    deadline: Option<Duration>,
    seed: u64,
    retries: usize,
    warm: Option<&Mapping>,
) -> Result<SearchOk, ServiceError> {
    let Some(mut mapper) = mapper_by_name(mapper_name, shared.cfg.fault_injection) else {
        return Err(ServiceError::permanent(
            "bad-request",
            format!("unknown mapper `{mapper_name}`"),
        ));
    };
    // A validated warm-start prior seeds the mapper's initial population;
    // it biases where the search *starts*, never what is accepted.
    if let Some(m) = warm {
        mapper.set_seeds(vec![m.clone()]);
    }
    let model = guarded_engine(problem, arch, density, shared.cfg.guard);
    // The budget tells the mapper to aim for 90% of the deadline; the
    // watchdog's hard deadline is the deadline itself. A well-behaved
    // mapper finishes early and undegraded; anything else is stopped and
    // its shadow incumbent salvaged.
    let budget = Budget {
        max_samples: Some(samples),
        max_time: deadline.map(|d| d.mul_f64(0.9)),
    };
    let policy = RunPolicy::with_retries(retries)
        .with_eval(shared.cfg.eval)
        .with_deadline(deadline.map(|d| Instant::now() + d));
    // Request-scoped, like `mapex search`: on `serve_mix`, caches shared
    // across requests bought no latency and held ~27 MiB (DESIGN.md §10).
    let cache = EvalCache::new(shared.cfg.eval.cache_capacity);
    let evaluator = EdpEvaluator::new(&model);
    let outcome = Mse::new(&model).run_resilient_shared(
        mapper.as_ref(),
        &evaluator,
        budget,
        seed,
        policy,
        Some(&model),
        &shared.pool,
        &cache,
    );
    let report = model.report();
    shared.guard_violations.fetch_add(report.violations, Ordering::Relaxed);
    shared.guard_rejections.fetch_add(report.rejections, Ordering::Relaxed);
    let cache_stats = cache.stats();
    shared.cache_hits.fetch_add(cache_stats.hits, Ordering::Relaxed);
    shared.cache_misses.fetch_add(cache_stats.misses, Ordering::Relaxed);
    shared.cache_inserts.fetch_add(cache_stats.inserts, Ordering::Relaxed);
    shared.cache_evictions.fetch_add(cache_stats.evictions, Ordering::Relaxed);
    let status = match outcome.status {
        RunStatus::Succeeded => "succeeded",
        RunStatus::Recovered => "recovered",
        RunStatus::WatchdogStopped => "watchdog-stopped",
        RunStatus::Failed => "failed",
    };
    match outcome.result.as_ref().and_then(|r| r.best.as_ref().map(|b| (r, b))) {
        Some((r, (best, cost))) => {
            // A salvaged incumbent (deadline or budget stop, or retries
            // exhausted with partial state) is an answer, just an honest
            // one: flagged degraded rather than dressed up as converged.
            let degraded =
                matches!(outcome.status, RunStatus::WatchdogStopped | RunStatus::Failed);
            if degraded {
                shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
            }
            Ok(SearchOk {
                degraded,
                status: status.to_string(),
                score: r.best_score,
                latency_cycles: cost.latency_cycles,
                energy_uj: cost.energy_uj,
                mapping: mapping::codec::to_spec(best),
                evaluated: r.evaluated,
                elapsed_ms: r.elapsed.as_millis() as u64,
                attempts: outcome.attempts.len(),
                cache_hits: cache_stats.hits,
            })
        }
        None => {
            let last_error = outcome.attempts.iter().rev().find_map(|a| a.error.as_ref());
            Err(run_error_response(shared, last_error))
        }
    }
}

/// Recall the most similar prior from the warm store and re-validate it
/// before it may seed a population. Store contents are never trusted: the
/// mapping must rescale to the new problem, pass structural legality, and
/// clear a *rejecting* [`costmodel::GuardedModel`] (compulsory-traffic,
/// latency-floor, and MAC-energy-floor invariants) regardless of the
/// daemon's configured guard policy. Anything that fails is counted
/// quarantined and the search runs cold — bit-identical to a run with no
/// store at all.
fn validated_prior(
    problem: &Problem,
    arch: &Arch,
    density: Option<Density>,
    arch_fp: u64,
    store: &WarmStore,
) -> Option<(Mapping, usize)> {
    let (src_problem, mapping_spec, dist) = match store.recall(problem, arch_fp) {
        Some(hit) => hit,
        None => {
            store.record_miss();
            return None;
        }
    };
    let Ok(raw) = mapping::codec::from_spec(&mapping_spec) else {
        store.record_poisoned();
        return None;
    };
    // An honest deposit is a search incumbent: legal for its *own* problem
    // on this arch. A record that fails that was corrupted or forged.
    if !raw.is_legal(&src_problem, arch) {
        store.record_poisoned();
        return None;
    }
    let Some(scaled) = raw.scale_to(&src_problem, problem, arch) else {
        store.record_miss();
        return None;
    };
    if !scaled.is_legal(problem, arch) {
        store.record_poisoned();
        return None;
    }
    let guarded = guarded_engine(problem, arch, density, GuardPolicy::Reject);
    match guarded.evaluate(&scaled) {
        Ok(c) if c.edp().is_finite() => {
            store.record_hit();
            Some((scaled, dist))
        }
        _ => {
            store.record_poisoned();
            None
        }
    }
}

/// Deposit a finished search incumbent into the warm store (no-op without
/// one). Deposit failures only lose future warm starts, never the response.
fn deposit_search(
    shared: &Arc<Shared>,
    problem: &Problem,
    arch_fp: u64,
    mapper: &str,
    ok: &SearchOk,
) {
    let Some(store) = &shared.store else { return };
    let Ok(m) = mapping::codec::from_spec(&ok.mapping) else { return };
    let _ = store.deposit(arch_fp, problem, &m, mapper, ok.score, ok.evaluated as u64);
}

fn render_search_ok(id: &str, ok: &SearchOk, islands: Option<usize>, extra: &str) -> String {
    let mut s = format!(
        "{{\"id\": {id}, \"ok\": true, \"degraded\": {}, \"status\": {}, \
         \"score\": {}, \"latency_cycles\": {}, \"energy_uj\": {}, \"mapping\": {}, \
         \"evaluated\": {}, \"elapsed_ms\": {}, \"attempts\": {}, \"cache_hits\": {}",
        ok.degraded,
        json::escape(&ok.status),
        json::num(ok.score),
        json::num(ok.latency_cycles),
        json::num(ok.energy_uj),
        json::escape(&ok.mapping),
        ok.evaluated,
        ok.elapsed_ms,
        ok.attempts,
        ok.cache_hits,
    );
    if let Some(k) = islands {
        s.push_str(&format!(", \"islands\": {k}"));
    }
    s.push_str(extra);
    s.push('}');
    s
}

#[allow(clippy::too_many_arguments)]
fn execute_search(
    shared: &Arc<Shared>,
    id: &str,
    problem: &Problem,
    arch: &Arch,
    arch_wire: &ArchWire,
    density: Option<Density>,
    mapper_name: &str,
    samples: usize,
    deadline: Option<Duration>,
    seed: u64,
    retries: usize,
    islands: usize,
) -> String {
    // Warm-start and bandit resolution happen once, up front, against the
    // coordinator's store — never inside shards — so the chosen arm and
    // seed are identical whatever the fleet topology, and a store-less
    // worker re-executing the shard sees the same inputs.
    let arch_fp = WarmStore::arch_fingerprint(arch, density.as_ref());
    let resolved_mapper: String = if mapper_name == "auto" {
        match &shared.store {
            Some(s) => s.select_mapper(problem, arch_fp).to_string(),
            None => crate::store::BANDIT_ARMS[0].to_string(),
        }
    } else {
        mapper_name.to_string()
    };
    let warm = shared
        .store
        .as_ref()
        .and_then(|s| validated_prior(problem, arch, density, arch_fp, s));
    let mut extra = String::new();
    if shared.store.is_some() {
        extra.push_str(&format!(", \"warm_start\": {}", warm.is_some()));
        if let Some((_, d)) = &warm {
            extra.push_str(&format!(", \"warm_distance\": {d}"));
        }
    }
    if mapper_name == "auto" {
        extra.push_str(&format!(", \"mapper\": {}", json::escape(&resolved_mapper)));
    }
    if islands < 2 {
        return match run_search_core(
            shared,
            problem,
            arch,
            density,
            &resolved_mapper,
            samples,
            deadline,
            seed,
            retries,
            warm.as_ref().map(|(m, _)| m),
        ) {
            Ok(ok) => {
                deposit_search(shared, problem, arch_fp, &resolved_mapper, &ok);
                render_search_ok(id, &ok, None, &extra)
            }
            Err(e) => e.render(id),
        };
    }
    // Island fan-out: deterministic sample split (remainder to the lowest
    // indices) and per-island seeds derived from (seed, island index) —
    // island results are topology-invariant, so fleet and local execution
    // merge to the same incumbent.
    let base = samples / islands;
    let rem = samples % islands;
    let spec_for = |i: usize| ShardSpec {
        id: String::new(),
        kind: ShardKind::Island { index: i },
        problem: problem::codec::to_spec(problem),
        arch: arch_wire.clone(),
        weight_density: density.map_or(1.0, |d| d.weight),
        input_density: density.map_or(1.0, |d| d.input),
        mapper: resolved_mapper.clone(),
        samples: base + usize::from(i < rem),
        seed: reseed(seed, i as u64),
        retries,
        deadline_ms: deadline.map(|d| d.as_millis() as u64),
        warm_seed: warm.as_ref().map(|(m, _)| mapping::codec::to_spec(m)),
    };
    let outcomes: Vec<Option<ShardOutcome>> = match &shared.fleet {
        Some(fleet) => {
            let job = fleet.new_job();
            let specs = (0..islands)
                .map(|i| ShardSpec { id: fleet.shard_id(job, i), ..spec_for(i) })
                .collect();
            fleet.submit(job, specs);
            let collected = drive_fleet_job(shared, fleet, job, islands);
            fleet.finish_job(job);
            collected
        }
        None => (0..islands).map(|i| Some(execute_shard(shared, &spec_for(i)))).collect(),
    };
    // Merge in island order: strictly-better wins, so ties keep the
    // lowest index and the incumbent is independent of arrival order.
    let mut best: Option<SearchOk> = None;
    let mut first_err: Option<ShardError> = None;
    let (mut evaluated, mut attempts, mut cache_hits, mut elapsed_ms) = (0usize, 0usize, 0u64, 0u64);
    for out in outcomes {
        match out {
            Some(Ok(ShardData::Island(ok))) => {
                evaluated += ok.evaluated;
                attempts += ok.attempts;
                cache_hits += ok.cache_hits;
                elapsed_ms = elapsed_ms.max(ok.elapsed_ms);
                if best.as_ref().is_none_or(|b| score_cmp(ok.score, b.score).is_lt()) {
                    best = Some(ok);
                }
            }
            Some(Ok(ShardData::Layer(_))) => {
                first_err.get_or_insert(ShardError {
                    kind: ErrorKind::Transient,
                    code: "internal".to_string(),
                    message: "island shard returned a layer result".to_string(),
                });
            }
            Some(Err(e)) => {
                first_err.get_or_insert(e);
            }
            None => {
                first_err.get_or_insert(ShardError {
                    kind: ErrorKind::Transient,
                    code: "draining".to_string(),
                    message: "daemon shut down before the island completed".to_string(),
                });
            }
        }
    }
    match best {
        Some(mut b) => {
            b.evaluated = evaluated;
            b.attempts = attempts;
            b.cache_hits = cache_hits;
            b.elapsed_ms = elapsed_ms;
            deposit_search(shared, problem, arch_fp, &resolved_mapper, &b);
            render_search_ok(id, &b, Some(islands), &extra)
        }
        None => {
            let e = first_err.expect("no islands ran");
            shard_error_response(shared, &e).render(id)
        }
    }
}

/// Collects every shard of `job` (in index order), executing locally when
/// no workers are live, until all are in or the daemon is killed.
fn drive_fleet_job(
    shared: &Arc<Shared>,
    fleet: &Arc<Fleet>,
    job: u64,
    count: usize,
) -> Vec<Option<ShardOutcome>> {
    let mut results: Vec<Option<ShardOutcome>> = (0..count).map(|_| None).collect();
    let mut remaining = count;
    while remaining > 0 {
        if shared.aborted.load(Ordering::SeqCst) {
            break;
        }
        // Liveness without a fleet: the coordinator executes pending
        // shards itself whenever zero workers hold a live lease.
        if let Some(spec) = fleet.claim_local(job) {
            let out = execute_shard(shared, &spec);
            fleet.complete_local(&spec.id, out);
            continue;
        }
        let mut progress = false;
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                if let Some(out) = fleet.take_outcome(&fleet.shard_id(job, i)) {
                    *slot = Some(out);
                    remaining -= 1;
                    progress = true;
                }
            }
        }
        if !progress {
            fleet.wait(Duration::from_millis(50));
        }
    }
    results
}

// ---------------------------------------------------------------------------
// Fleet shard execution (worker daemons and the coordinator's local
// fallback share this path bit for bit)
// ---------------------------------------------------------------------------

/// Executes one fleet shard, panic-isolated: a poisoned shard becomes a
/// transient wire error the coordinator can re-dispatch.
fn execute_shard(shared: &Arc<Shared>, spec: &ShardSpec) -> ShardOutcome {
    match catch_unwind(AssertUnwindSafe(|| execute_shard_inner(shared, spec))) {
        Ok(out) => out,
        Err(payload) => Err(ShardError {
            kind: ErrorKind::Transient,
            code: "shard-panicked".to_string(),
            message: format!(
                "shard handler panicked: {}",
                crate::fault::panic_message(&*payload)
            ),
        }),
    }
}

fn execute_shard_inner(shared: &Arc<Shared>, spec: &ShardSpec) -> ShardOutcome {
    let perm = |code: &str, message: String| ShardError {
        kind: ErrorKind::Permanent,
        code: code.to_string(),
        message,
    };
    let problem = problem::codec::from_spec(&spec.problem)
        .map_err(|e| perm("bad-spec", format!("problem: {e}")))?;
    let arch = arch_from_wire(&spec.arch)?;
    // Must mirror `parse_density_fields` exactly: whether density 1.0
    // means "dense model" or "sparse model at 1.0" changes scores, and
    // coordinator and worker have to agree bit for bit.
    let density = if spec.weight_density == 1.0 && spec.input_density == 1.0 {
        None
    } else {
        Some(Density { weight: spec.weight_density, input: spec.input_density })
    };
    match spec.kind {
        ShardKind::Layer { index } => {
            let Some(mut mapper) = mapper_by_name(&spec.mapper, shared.cfg.fault_injection)
            else {
                return Err(perm("bad-request", format!("unknown mapper `{}`", spec.mapper)));
            };
            let model = guarded_engine(&problem, &arch, density, shared.cfg.guard);
            // Random-init layers read nothing from the replay buffer, so
            // an empty one reproduces the single-process sweep exactly;
            // per-layer seeds derive from the *global* layer index.
            let buffer = ReplayBuffer::new();
            let budget = Budget::samples(spec.samples);
            let outcome = run_layer(
                index,
                &problem,
                &arch,
                &buffer,
                InitStrategy::Random,
                budget,
                spec.seed,
                &model,
                &mut mapper,
            );
            let mut lc = LayerCheckpoint::from_outcome(&outcome);
            // Wall clock is the only topology-dependent field; zero it at
            // the source so checkpoints are byte-comparable across 1..N
            // workers.
            lc.elapsed_secs = 0.0;
            Ok(ShardData::Layer(lc))
        }
        ShardKind::Island { .. } => {
            // The coordinator already validated the seed against its store;
            // workers still refuse anything unparseable or illegal (a
            // hostile coordinator can waste a seed slot, nothing more).
            let warm = spec
                .warm_seed
                .as_deref()
                .and_then(|s| mapping::codec::from_spec(s).ok())
                .filter(|m| m.is_legal(&problem, &arch));
            run_search_core(
                shared,
                &problem,
                &arch,
                density,
                &spec.mapper,
                spec.samples,
                spec.deadline_ms.map(Duration::from_millis),
                spec.seed,
                spec.retries,
                warm.as_ref(),
            )
            .map(ShardData::Island)
            .map_err(|e| ShardError { kind: e.kind, code: e.code.to_string(), message: e.message })
        }
    }
}

/// Worker daemons: executor threads popping shards off the link queue.
fn worker_shard_loop(shared: &Arc<Shared>) {
    let Some(link) = shared.worker_link.as_ref() else { return };
    loop {
        match link.next_shard(Duration::from_millis(250)) {
            Some(spec) => {
                // Straggler injection for the work-stealing chaos tests.
                let delay = shared.cfg.fleet.shard_delay_ms;
                if shared.cfg.fault_injection && delay > 0 {
                    std::thread::sleep(Duration::from_millis(delay));
                }
                let out = execute_shard(shared, &spec);
                link.send_result(&fleet::render_shard_result(&spec.id, &out));
                link.finish_shard();
            }
            None => {
                if shared.aborted.load(Ordering::SeqCst)
                    || (shared.should_drain() && !link.pending_work())
                {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep driver (coordinator / standalone)
// ---------------------------------------------------------------------------

fn execute_sweep(shared: &Arc<Shared>, id: &str, w: &SweepWork) -> String {
    let budget = Budget::samples(w.samples);
    let mut ckpt = SweepCheckpoint::new(w.seed, InitStrategy::Random, budget);
    if w.resume {
        let path = w.checkpoint.as_ref().expect("resume implies checkpoint");
        if path.exists() {
            match SweepCheckpoint::load(path) {
                Ok(loaded) => {
                    if let Err(e) =
                        loaded.check_matches(w.seed, InitStrategy::Random, budget, &w.layers)
                    {
                        return ServiceError::permanent("checkpoint-mismatch", e.to_string())
                            .render(id);
                    }
                    // Stored elapsed times are already zero (we write
                    // canonicalized), but never trust a file to stay
                    // canonical.
                    ckpt = loaded.canonical();
                }
                Err(e) => {
                    return ServiceError::permanent("checkpoint-corrupt", e.to_string())
                        .render(id)
                }
            }
        }
    }
    let start = ckpt.layers.len();
    let n = w.layers.len();
    let spec_for = |i: usize| ShardSpec {
        id: String::new(),
        kind: ShardKind::Layer { index: i },
        problem: problem::codec::to_spec(&w.layers[i]),
        arch: w.arch_wire.clone(),
        weight_density: w.density.map_or(1.0, |d| d.weight),
        input_density: w.density.map_or(1.0, |d| d.input),
        mapper: w.mapper.clone(),
        samples: w.samples,
        seed: w.seed,
        retries: 0,
        deadline_ms: None,
        // Sweep layers never read the store (a resumed sweep must re-derive
        // the exact shards the original run dispatched, and store contents
        // change between runs); they only deposit.
        warm_seed: None,
    };
    let sweep_fp = arch_from_wire(&w.arch_wire)
        .ok()
        .map(|a| WarmStore::arch_fingerprint(&a, w.density.as_ref()));
    // Deposit each flushed layer's incumbent so later `search` requests can
    // warm-start from sweep results. Resumed prefixes are not re-deposited.
    let deposit_layer = |i: usize, lc: &LayerCheckpoint| {
        if let (Some(store), Some(fp)) = (&shared.store, sweep_fp) {
            if let Some(spec) = &lc.mapping {
                if let Ok(m) = mapping::codec::from_spec(spec) {
                    if lc.best_score.is_finite() {
                        let _ = store.deposit(
                            fp,
                            &w.layers[i],
                            &m,
                            &w.mapper,
                            lc.best_score,
                            lc.evaluated as u64,
                        );
                    }
                }
            }
        }
    };
    let flush = |ckpt: &SweepCheckpoint| -> Result<(), ServiceError> {
        match &w.checkpoint {
            Some(path) => ckpt.save(path).map_err(|e| {
                ServiceError::transient("checkpoint-io", e.to_string(), Some(1_000))
            }),
            None => Ok(()),
        }
    };
    let aborted_err = || {
        ServiceError::transient(
            "draining",
            "daemon stopped before the sweep finished; resume from the checkpoint",
            Some(1_000),
        )
    };
    // Exactly-once accounting lives here: layers are flushed to the
    // checkpoint strictly in order, each exactly once, regardless of how
    // many duplicate shard results the fleet produced. A restart re-reads
    // the flushed prefix and the derived per-layer seeds reproduce the
    // rest bit-identically.
    let result: Result<(), ServiceError> = match &shared.fleet {
        Some(fleet) => {
            let job = fleet.new_job();
            let specs =
                (start..n).map(|i| ShardSpec { id: fleet.shard_id(job, i), ..spec_for(i) }).collect();
            fleet.submit(job, specs);
            let mut drive = || -> Result<(), ServiceError> {
                let mut next = start;
                while next < n {
                    if shared.aborted.load(Ordering::SeqCst) {
                        return Err(aborted_err());
                    }
                    if let Some(spec) = fleet.claim_local(job) {
                        let out = execute_shard(shared, &spec);
                        fleet.complete_local(&spec.id, out);
                        continue;
                    }
                    match fleet.take_outcome(&fleet.shard_id(job, next)) {
                        Some(Ok(ShardData::Layer(mut lc))) => {
                            lc.elapsed_secs = 0.0;
                            deposit_layer(next, &lc);
                            ckpt.layers.push(lc);
                            flush(&ckpt)?;
                            next += 1;
                        }
                        Some(Ok(ShardData::Island(_))) => {
                            return Err(ServiceError::transient(
                                "internal",
                                "layer shard returned an island result",
                                None,
                            ))
                        }
                        Some(Err(e)) => return Err(shard_error_response(shared, &e)),
                        None => fleet.wait(Duration::from_millis(50)),
                    }
                }
                Ok(())
            };
            let r = drive();
            fleet.finish_job(job);
            r
        }
        None => {
            let mut r = Ok(());
            for i in start..n {
                if shared.aborted.load(Ordering::SeqCst) {
                    r = Err(aborted_err());
                    break;
                }
                match execute_shard(shared, &spec_for(i)) {
                    Ok(ShardData::Layer(mut lc)) => {
                        lc.elapsed_secs = 0.0;
                        deposit_layer(i, &lc);
                        ckpt.layers.push(lc);
                        if let Err(e) = flush(&ckpt) {
                            r = Err(e);
                            break;
                        }
                    }
                    Ok(ShardData::Island(_)) => {
                        r = Err(ServiceError::transient(
                            "internal",
                            "layer shard returned an island result",
                            None,
                        ));
                        break;
                    }
                    Err(e) => {
                        r = Err(shard_error_response(shared, &e));
                        break;
                    }
                }
            }
            r
        }
    };
    if let Err(e) = result {
        return e.render(id);
    }
    let mut layers_json = String::new();
    for (i, l) in ckpt.layers.iter().enumerate() {
        if i > 0 {
            layers_json.push_str(", ");
        }
        layers_json.push_str(&format!(
            "{{\"name\": {}, \"best_score\": {}, \"mapping\": {}, \"evaluated\": {}, \
             \"converge_sample\": {}}}",
            json::escape(&l.name),
            json::num(l.best_score),
            l.mapping.as_ref().map_or_else(|| "null".to_string(), |m| json::escape(m)),
            l.evaluated,
            l.converge_sample,
        ));
    }
    let fleet_json = shared.fleet.as_ref().map_or_else(
        || "null".to_string(),
        |f| {
            format!(
                "{{\"workers\": {}, \"dispatched\": {}, \"redispatched\": {}, \"stolen\": {}, \
                 \"duplicates_discarded\": {}}}",
                f.live_workers(),
                f.counters.dispatched.load(Ordering::Relaxed),
                f.counters.redispatched.load(Ordering::Relaxed),
                f.counters.stolen.load(Ordering::Relaxed),
                f.counters.duplicates_discarded.load(Ordering::Relaxed),
            )
        },
    );
    format!(
        "{{\"id\": {id}, \"ok\": true, \"layers_total\": {n}, \"layers_from_checkpoint\": {start}, \
         \"checkpoint\": {}, \"layers\": [{layers_json}], \"fleet\": {fleet_json}}}",
        w.checkpoint_name.as_ref().map_or_else(|| "null".to_string(), |s| json::escape(s)),
    )
}

/// Maps a wire shard failure back onto a client-facing [`ServiceError`].
fn shard_error_response(shared: &Shared, e: &ShardError) -> ServiceError {
    let code = intern_code(&e.code);
    match e.kind {
        ErrorKind::Permanent => ServiceError::permanent(code, e.message.clone()),
        ErrorKind::Transient => {
            ServiceError::transient(code, e.message.clone(), Some(shared.retry_hint(0)))
        }
    }
}

/// `ServiceError.code` is `&'static str`; wire codes arrive as owned
/// strings. Known codes intern to their static form; anything a newer (or
/// malicious) worker invents degrades to `shard-failed`.
fn intern_code(code: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "overloaded",
        "draining",
        "mapper-panicked",
        "deadline-exceeded",
        "bad-json",
        "bad-spec",
        "bad-request",
        "unmappable",
        "no-legal-mapping",
        "invariant-violation",
        "request-too-large",
        "internal-panic",
        "internal",
        "non-finite-score",
        "illegal-mapping",
        "shard-panicked",
        "worker-draining",
        "checkpoint-mismatch",
        "checkpoint-corrupt",
        "checkpoint-io",
    ];
    KNOWN.iter().find(|k| **k == code).copied().unwrap_or("shard-failed")
}

/// Maps the runtime's [`RunError`] taxonomy onto the wire taxonomy.
fn run_error_response(shared: &Shared, error: Option<&RunError>) -> ServiceError {
    let hint = Some(shared.retry_hint(0));
    match error {
        Some(RunError::MapperPanicked { message }) => ServiceError::transient(
            "mapper-panicked",
            format!("mapper panicked on every attempt: {message}"),
            hint,
        ),
        Some(RunError::BudgetOverrun { evaluated }) => ServiceError::transient(
            "deadline-exceeded",
            format!(
                "deadline expired after {evaluated} evaluations with no legal mapping found; \
                 retry with a longer deadline"
            ),
            hint,
        ),
        Some(RunError::NonFiniteScore { score }) => ServiceError::transient(
            "non-finite-score",
            format!("search returned non-finite best score {score}"),
            hint,
        ),
        Some(RunError::NoLegalMapping) => ServiceError::permanent(
            "no-legal-mapping",
            "search evaluated no legal mapping in this space",
        ),
        Some(e @ RunError::InvariantViolation { .. }) => {
            ServiceError::permanent("invariant-violation", e.to_string())
        }
        None => ServiceError::transient("internal", "search produced no result", hint),
    }
}

/// `health`: a cheap liveness/topology probe that, like `ping`/`stats`,
/// bypasses admission — it must answer even when the queue is full or the
/// daemon is draining.
fn render_health(shared: &Arc<Shared>, id: &str) -> String {
    let queue_depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let mut s = format!(
        "{{\"id\": {id}, \"ok\": true, \"role\": {}, \"draining\": {}, \
         \"queue_depth\": {queue_depth}, \"queue_capacity\": {}, \"workers_connected\": {}",
        json::escape(shared.cfg.role.name()),
        shared.should_drain(),
        shared.cfg.queue_capacity,
        shared.fleet.as_ref().map_or(0, |f| f.live_workers()),
    );
    if let Some(link) = &shared.worker_link {
        s.push_str(&format!(
            ", \"coordinator_connected\": {}, \"reconnects\": {}",
            link.connected(),
            link.reconnects(),
        ));
    }
    if let Some(f) = &shared.fleet {
        s.push_str(&format!(
            ", \"lease_redispatches\": {}",
            f.counters.redispatched.load(Ordering::Relaxed)
        ));
    }
    s.push_str(&format!(
        ", \"checkpoint_bak_rescues\": {}",
        crate::runtime::checkpoint_bak_rescues()
    ));
    if let Some(store) = &shared.store {
        s.push_str(&render_store_block(store));
    }
    s.push_str(&format!(", \"uptime_ms\": {}}}", shared.started.elapsed().as_millis()));
    s
}

/// Warm-store metrics block shared by `stats` and `health`.
fn render_store_block(store: &WarmStore) -> String {
    let st = store.stats();
    let recalls = st.hits + st.misses;
    let hit_rate = if recalls == 0 { 0.0 } else { st.hits as f64 / recalls as f64 };
    let last_verify = match &st.last_verify {
        Some((source, v)) => format!(
            "{{\"source\": {}, \"valid\": {}, \"quarantined\": {}, \"skipped_future\": {}, \
             \"bytes\": {}}}",
            json::escape(source),
            v.valid,
            v.quarantined,
            v.skipped_future,
            v.bytes,
        ),
        None => "null".to_string(),
    };
    format!(
        ", \"store\": {{\"entries\": {}, \"deposits\": {}, \"hits\": {}, \"misses\": {}, \
         \"hit_rate\": {}, \"quarantined\": {}, \"skipped_future\": {}, \
         \"last_compaction_reclaimed_bytes\": {}, \"file_bytes\": {}, \"bak_rescues\": {}, \
         \"last_verify\": {last_verify}}}",
        st.entries,
        st.deposits,
        st.hits,
        st.misses,
        json::num(hit_rate),
        st.quarantined,
        st.skipped_future,
        st.last_compaction_reclaimed,
        st.file_bytes,
        st.bak_rescues,
    )
}

fn render_stats(shared: &Arc<Shared>, id: &str) -> String {
    let c = &shared.counters;
    let queue_depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let mut s = format!(
        "{{\"id\": {id}, \"ok\": true, \"role\": {}, \"uptime_ms\": {}, \"draining\": {}, \
         \"queue_depth\": {queue_depth}, \"queue_capacity\": {}, \"workers\": {}, \
         \"connections\": {}, \"accepted\": {}, \"completed\": {}, \
         \"rejected_overload\": {}, \"rejected_draining\": {}, \"degraded\": {}, \
         \"request_panics\": {}, \"invalid\": {}, \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"inserts\": {}, \"evictions\": {}}}, \
         \"guard\": {{\"violations\": {}, \"rejections\": {}}}",
        json::escape(shared.cfg.role.name()),
        shared.started.elapsed().as_millis(),
        shared.should_drain(),
        shared.cfg.queue_capacity,
        shared.cfg.resolved_workers(),
        c.connections.load(Ordering::Relaxed),
        c.accepted.load(Ordering::Relaxed),
        c.completed.load(Ordering::Relaxed),
        c.rejected_overload.load(Ordering::Relaxed),
        c.rejected_draining.load(Ordering::Relaxed),
        c.degraded.load(Ordering::Relaxed),
        c.request_panics.load(Ordering::Relaxed),
        c.invalid.load(Ordering::Relaxed),
        shared.cache_hits.load(Ordering::Relaxed),
        shared.cache_misses.load(Ordering::Relaxed),
        shared.cache_inserts.load(Ordering::Relaxed),
        shared.cache_evictions.load(Ordering::Relaxed),
        shared.guard_violations.load(Ordering::Relaxed),
        shared.guard_rejections.load(Ordering::Relaxed),
    );
    if let Some(f) = &shared.fleet {
        s.push_str(&format!(
            ", \"fleet\": {{\"workers_connected\": {}, \"workers_joined\": {}, \
             \"workers_lost\": {}, \"dispatched\": {}, \"redispatched\": {}, \"stolen\": {}, \
             \"duplicates_discarded\": {}, \"stale_results\": {}}}",
            f.live_workers(),
            f.counters.workers_joined.load(Ordering::Relaxed),
            f.counters.workers_lost.load(Ordering::Relaxed),
            f.counters.dispatched.load(Ordering::Relaxed),
            f.counters.redispatched.load(Ordering::Relaxed),
            f.counters.stolen.load(Ordering::Relaxed),
            f.counters.duplicates_discarded.load(Ordering::Relaxed),
            f.counters.stale_results.load(Ordering::Relaxed),
        ));
    }
    if let Some(link) = &shared.worker_link {
        s.push_str(&format!(
            ", \"coordinator_connected\": {}, \"reconnects\": {}",
            link.connected(),
            link.reconnects(),
        ));
    }
    s.push_str(&format!(
        ", \"checkpoint_bak_rescues\": {}",
        crate::runtime::checkpoint_bak_rescues()
    ));
    if let Some(store) = &shared.store {
        s.push_str(&render_store_block(store));
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rendering_carries_taxonomy() {
        let e = ServiceError::transient("overloaded", "queue full", Some(250));
        let line = e.render("7");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("transient"));
        assert_eq!(err.get("retry_after_ms").unwrap().as_u64(), Some(250));
        let p = ServiceError::permanent("bad-spec", "nope").render("null");
        let v = json::parse(&p).unwrap();
        assert_eq!(v.get("error").unwrap().get("kind").unwrap().as_str(), Some("permanent"));
    }

    #[test]
    fn mapper_factory_gates_fault_injection() {
        for name in mappers::NAMES {
            assert!(mapper_by_name(name, false).is_some(), "{name}");
        }
        assert!(mapper_by_name("panic-injector", false).is_none());
        assert!(mapper_by_name("panic-injector", true).is_some());
        assert!(mapper_by_name("nope", true).is_none());
    }
}
