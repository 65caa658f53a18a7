//! Deterministic chaos plane: seeded fault campaigns with invariant
//! oracles and fault-plan shrinking.
//!
//! A [`FaultPlan`] is a small, fully deterministic (splitmix-derived)
//! list of [`FaultEvent`]s, each firing at the *nth* operation of an
//! injection [`Site`]. Sites sit at the two boundaries everything
//! durable flows through:
//!
//! * **file I/O** — the store / checkpoint / replay-buffer writers call
//!   [`create`] / [`open_append`] / [`write_all`] / [`sync_all`] /
//!   [`rename`] / [`read_bytes`] here instead of `std::fs` directly, so
//!   a plan can inject short writes, torn syncs, EINTR-style partial
//!   reads, delayed fsync visibility, and transient open failures;
//! * **sockets** — `service::write_line` / `read_bounded_line` and the
//!   fleet link consult [`net_send_fault`] / [`net_recv_fault`] /
//!   [`heartbeat_stall`], so a plan can inject partial writes,
//!   connection resets mid-frame, stalled heartbeats, and delayed
//!   delivery;
//!
//! plus process-level events (worker kill/restart, coordinator kill at
//! a chosen delay) consumed by the scenario harness rather than hooks.
//!
//! When no plan is armed every hook is a single relaxed atomic load —
//! a zero-cost pass-through; production binaries never arm one.
//!
//! [`Harness::run_campaign`] executes N seeded plans against the
//! store / serve / fleet stacks and checks invariant oracles after each
//! run: exactly-once accounting (`accepted == completed`), results
//! bit-identical to the fault-free run, checkpoints/store always load
//! (valid prefix or `.bak` rescue), no panic escapes, and recovery
//! within the scenario's retry budget. A failing plan is shrunk with
//! [`Harness::shrink`] (classic ddmin over the event list) to a minimal
//! reproducer that serializes to JSON for `mapex chaos --replay`.

use crate::json;
use crate::runtime::SweepCheckpoint;
use crate::fleet::ServeRole;
use crate::service::{serve, ServeConfig, ServerHandle};
use crate::store::WarmStore;
use crate::warmstart::{InitStrategy, ReplayBuffer};
use crate::{EvalConfig, FleetConfig};
use costmodel::{guarded_engine, CostModel, GuardPolicy};
use mappers::{Budget, Mapper, RandomMapper};
use problem::Problem;
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Fault taxonomy
// ---------------------------------------------------------------------------

/// Where a fault is injected. File-system and network sites are hit by
/// the shims below; the two `Kill*` sites are process-level events the
/// scenario harness performs itself (in-process stand-ins for SIGKILL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// `open`/`create` of a durable file (transient open failure).
    FsOpen,
    /// Whole-file read (EINTR-style partial read: tail bytes lost).
    FsRead,
    /// A `write_all` on a durable file (short write: tail bytes lost).
    FsWrite,
    /// An `fsync` (torn sync: data written, durability not promised).
    FsSync,
    /// An atomic-replace `rename`.
    FsRename,
    /// A line written to a service/fleet socket.
    NetSend,
    /// A read from a service/fleet socket.
    NetRecv,
    /// A due worker heartbeat (stall: silence long enough to expire a lease).
    Heartbeat,
    /// Kill one worker daemon mid-sweep, then boot a replacement.
    KillWorker,
    /// Kill the coordinator mid-sweep; the harness reboots it on the same
    /// checkpoint directory and resumes.
    KillCoordinator,
}

const SITE_COUNT: usize = 10;

impl Site {
    fn index(self) -> usize {
        match self {
            Site::FsOpen => 0,
            Site::FsRead => 1,
            Site::FsWrite => 2,
            Site::FsSync => 3,
            Site::FsRename => 4,
            Site::NetSend => 5,
            Site::NetRecv => 6,
            Site::Heartbeat => 7,
            Site::KillWorker => 8,
            Site::KillCoordinator => 9,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Site::FsOpen => "fs-open",
            Site::FsRead => "fs-read",
            Site::FsWrite => "fs-write",
            Site::FsSync => "fs-sync",
            Site::FsRename => "fs-rename",
            Site::NetSend => "net-send",
            Site::NetRecv => "net-recv",
            Site::Heartbeat => "heartbeat",
            Site::KillWorker => "kill-worker",
            Site::KillCoordinator => "kill-coordinator",
        }
    }

    pub fn from_name(s: &str) -> Option<Site> {
        const ALL: [Site; SITE_COUNT] = [
            Site::FsOpen,
            Site::FsRead,
            Site::FsWrite,
            Site::FsSync,
            Site::FsRename,
            Site::NetSend,
            Site::NetRecv,
            Site::Heartbeat,
            Site::KillWorker,
            Site::KillCoordinator,
        ];
        ALL.into_iter().find(|site| site.name() == s)
    }

    /// Process-level events are performed by the harness, not the shims.
    fn is_process(self) -> bool {
        matches!(self, Site::KillWorker | Site::KillCoordinator)
    }
}

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The operation fails with an injected I/O error, nothing done.
    Fail,
    /// Short write/read: the last `n` bytes are lost, then the op errors
    /// (writes) or returns the truncated prefix (reads).
    Short(u32),
    /// The operation is delayed by `n` ms, then proceeds normally. On
    /// `Kill*` sites this is the kill delay after sweep submission.
    Delay(u32),
    /// Connection reset mid-frame (network sites).
    Reset,
    /// A heartbeat stall: the worker goes silent for `n` ms.
    Stall(u32),
}

impl Action {
    fn kind(self) -> &'static str {
        match self {
            Action::Fail => "fail",
            Action::Short(_) => "short",
            Action::Delay(_) => "delay",
            Action::Reset => "reset",
            Action::Stall(_) => "stall",
        }
    }

    fn arg(self) -> u32 {
        match self {
            Action::Fail | Action::Reset => 0,
            Action::Short(n) | Action::Delay(n) | Action::Stall(n) => n,
        }
    }

    fn from_parts(kind: &str, arg: u32) -> Option<Action> {
        match kind {
            "fail" => Some(Action::Fail),
            "short" => Some(Action::Short(arg)),
            "delay" => Some(Action::Delay(arg)),
            "reset" => Some(Action::Reset),
            "stall" => Some(Action::Stall(arg)),
            _ => None,
        }
    }
}

/// One injected fault: fire `action` at the `nth` operation of `site`
/// (counted from 0 while the plan is armed). Each event fires at most
/// once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub site: Site,
    pub nth: u32,
    pub action: Action,
}

/// Which stack a plan runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// WarmStore deposits/compaction, sweep checkpoints, replay buffer —
    /// pure file I/O, single process.
    Store,
    /// A standalone `serve` daemon driven by a retrying client.
    Serve,
    /// Coordinator + worker over real TCP, including process kills.
    Fleet,
}

impl Scenario {
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Store => "store",
            Scenario::Serve => "serve",
            Scenario::Fleet => "fleet",
        }
    }

    pub fn from_name(s: &str) -> Option<Scenario> {
        match s {
            "store" => Some(Scenario::Store),
            "serve" => Some(Scenario::Serve),
            "fleet" => Some(Scenario::Fleet),
            _ => None,
        }
    }
}

/// A deterministic, seeded fault plan: same seed → same events, byte for
/// byte, on every platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub scenario: Scenario,
    pub events: Vec<FaultEvent>,
}

/// The splitmix64 step — the only entropy source in the chaos plane.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Derives a plan from a seed. Event count, sites, offsets, and
    /// actions all come from one splitmix stream keyed on the seed and
    /// the scenario, so a plan is reproducible from its `(seed,
    /// scenario)` pair alone.
    pub fn generate(seed: u64, scenario: Scenario) -> FaultPlan {
        let mut s = seed ^ (0xc2b2_ae3d_27d4_eb4f_u64.wrapping_mul(scenario as u64 + 1));
        let n_events = 1 + (splitmix64(&mut s) % 4) as usize;
        let mut events: Vec<FaultEvent> = Vec::with_capacity(n_events);
        let mut have_kill = false;
        for _ in 0..n_events {
            let site = Self::pick_site(scenario, splitmix64(&mut s));
            if site.is_process() {
                if have_kill {
                    continue; // at most one process event per plan
                }
                have_kill = true;
            }
            let nth = Self::pick_nth(site, splitmix64(&mut s));
            let action = Self::pick_action(site, splitmix64(&mut s), splitmix64(&mut s));
            let ev = FaultEvent { site, nth, action };
            // Two events on the same (site, nth) op: only the first can
            // ever fire, so drop the duplicate at generation time.
            if !events.iter().any(|e| e.site == site && e.nth == nth) {
                events.push(ev);
            }
        }
        FaultPlan { seed, scenario, events }
    }

    fn pick_site(scenario: Scenario, r: u64) -> Site {
        match scenario {
            // Writes dominate: they are where durability bugs live.
            Scenario::Store => *[
                Site::FsWrite,
                Site::FsWrite,
                Site::FsSync,
                Site::FsSync,
                Site::FsOpen,
                Site::FsRead,
                Site::FsRename,
            ]
            .get(r as usize % 7)
            .unwrap_or(&Site::FsWrite),
            Scenario::Serve => {
                if r.is_multiple_of(2) {
                    Site::NetSend
                } else {
                    Site::NetRecv
                }
            }
            Scenario::Fleet => *[
                Site::NetSend,
                Site::NetSend,
                Site::NetSend,
                Site::NetRecv,
                Site::NetRecv,
                Site::NetRecv,
                Site::Heartbeat,
                Site::Heartbeat,
                Site::KillWorker,
                Site::KillCoordinator,
            ]
            .get(r as usize % 10)
            .unwrap_or(&Site::NetSend),
        }
    }

    fn pick_nth(site: Site, r: u64) -> u32 {
        match site {
            Site::FsOpen | Site::FsRead => (r % 8) as u32,
            Site::FsWrite | Site::FsSync => (r % 24) as u32,
            Site::FsRename => (r % 5) as u32,
            Site::NetSend => (r % 24) as u32,
            Site::NetRecv => (r % 16) as u32,
            Site::Heartbeat => (r % 8) as u32,
            // Kill events fire by delay, not op count.
            Site::KillWorker | Site::KillCoordinator => 0,
        }
    }

    fn pick_action(site: Site, r1: u64, r2: u64) -> Action {
        match site {
            Site::FsOpen | Site::FsSync | Site::FsRename => Action::Fail,
            Site::FsRead => Action::Short((1 + r2 % 96) as u32),
            Site::FsWrite => {
                if r1.is_multiple_of(3) {
                    Action::Fail
                } else {
                    Action::Short((1 + r2 % 48) as u32)
                }
            }
            Site::NetSend => match r1 % 3 {
                0 => Action::Reset,
                1 => Action::Short((1 + r2 % 24) as u32),
                _ => Action::Delay((1 + r2 % 40) as u32),
            },
            Site::NetRecv => {
                if r1.is_multiple_of(2) {
                    Action::Reset
                } else {
                    Action::Delay((1 + r2 % 40) as u32)
                }
            }
            Site::Heartbeat => Action::Stall((250 + r2 % 500) as u32),
            Site::KillWorker | Site::KillCoordinator => {
                Action::Delay((40 + r2 % 240) as u32)
            }
        }
    }

    /// The kill event of this plan (delay in ms), if any.
    fn kill_event(&self) -> Option<(Site, u64)> {
        self.events.iter().find(|e| e.site.is_process()).map(|e| {
            let ms = match e.action {
                Action::Delay(ms) => u64::from(ms),
                _ => 100,
            };
            (e.site, ms)
        })
    }

    /// Serializes to the reproducer JSON format (`mapex chaos --replay`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.events.len() * 64);
        s.push_str(&format!(
            "{{\"version\": 1, \"scenario\": {}, \"seed\": {}, \"events\": [",
            json::escape(self.scenario.name()),
            // u64 seeds as strings: JSON numbers are doubles and would
            // round seeds above 2^53 (the checkpoint format's rule).
            json::escape(&self.seed.to_string()),
        ));
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"site\": {}, \"nth\": {}, \"action\": {}, \"arg\": {}}}",
                json::escape(e.site.name()),
                e.nth,
                json::escape(e.action.kind()),
                e.action.arg(),
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses a reproducer produced by [`FaultPlan::to_json`].
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON or unknown
    /// sites/actions/scenarios.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let doc = json::parse(text).map_err(|e| format!("bad plan JSON: {e}"))?;
        let scenario = doc
            .get("scenario")
            .and_then(json::Value::as_str)
            .and_then(Scenario::from_name)
            .ok_or("plan needs a known `scenario`")?;
        let seed = doc.get("seed").and_then(json::Value::as_u64).ok_or("plan needs a `seed`")?;
        let events_v =
            doc.get("events").and_then(json::Value::as_array).ok_or("plan needs `events`")?;
        let mut events = Vec::with_capacity(events_v.len());
        for (i, ev) in events_v.iter().enumerate() {
            let site = ev
                .get("site")
                .and_then(json::Value::as_str)
                .and_then(Site::from_name)
                .ok_or(format!("events[{i}]: unknown `site`"))?;
            let nth = ev
                .get("nth")
                .and_then(json::Value::as_u64)
                .ok_or(format!("events[{i}]: needs `nth`"))? as u32;
            let arg = ev.get("arg").and_then(json::Value::as_u64).unwrap_or(0) as u32;
            let action = ev
                .get("action")
                .and_then(json::Value::as_str)
                .and_then(|k| Action::from_parts(k, arg))
                .ok_or(format!("events[{i}]: unknown `action`"))?;
            events.push(FaultEvent { site, nth, action });
        }
        Ok(FaultPlan { seed, scenario, events })
    }
}

// ---------------------------------------------------------------------------
// The armed plane (global, zero-cost when off)
// ---------------------------------------------------------------------------

/// The one flag every hook checks first. Relaxed is enough: arming
/// happens-before the scenario's operations via the arming thread's own
/// sequencing plus the mutexes on every hooked path.
static ARMED: AtomicBool = AtomicBool::new(false);

struct PlaneState {
    events: Vec<(FaultEvent, bool)>,
    counters: [u32; SITE_COUNT],
    fired: u64,
}

static PLANE: Mutex<Option<PlaneState>> = Mutex::new(None);

/// Serializes chaos users process-wide: `cargo test` runs tests on
/// parallel threads, and an armed plane is global state.
static CHAOS_MUTEX: Mutex<()> = Mutex::new(());

fn plane() -> MutexGuard<'static, Option<PlaneState>> {
    PLANE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to the chaos plane. Holding a session does not arm
/// anything; it only guarantees no other thread can arm while fault-free
/// baselines run.
pub struct ChaosSession {
    _guard: MutexGuard<'static, ()>,
}

/// Blocks until this thread holds the (process-wide) chaos plane.
pub fn lock() -> ChaosSession {
    ChaosSession { _guard: CHAOS_MUTEX.lock().unwrap_or_else(PoisonError::into_inner) }
}

/// RAII armed plan: faults inject until this is dropped.
pub struct ArmedPlan<'a> {
    _session: &'a ChaosSession,
}

impl ChaosSession {
    /// Arms `plan`: op counters reset to zero, every event becomes
    /// eligible to fire once.
    pub fn arm(&self, plan: &FaultPlan) -> ArmedPlan<'_> {
        let mut g = plane();
        *g = Some(PlaneState {
            events: plan.events.iter().map(|e| (*e, false)).collect(),
            counters: [0; SITE_COUNT],
            fired: 0,
        });
        drop(g);
        ARMED.store(true, Ordering::SeqCst);
        ArmedPlan { _session: self }
    }
}

impl ArmedPlan<'_> {
    /// Events fired so far under this arming.
    pub fn fired(&self) -> u64 {
        plane().as_ref().map_or(0, |p| p.fired)
    }
}

impl Drop for ArmedPlan<'_> {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *plane() = None;
    }
}

/// Whether any plan is currently armed (the hooks' fast path).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Counts one operation at `site` and returns the action to inject, if
/// an un-fired event matches. The disarmed path is one relaxed load.
#[inline]
fn hit(site: Site) -> Option<Action> {
    if !armed() {
        return None;
    }
    hit_slow(site)
}

fn hit_slow(site: Site) -> Option<Action> {
    let mut g = plane();
    let p = g.as_mut()?;
    let n = p.counters[site.index()];
    p.counters[site.index()] = n.saturating_add(1);
    for (ev, fired) in &mut p.events {
        if !*fired && ev.site == site && ev.nth == n {
            *fired = true;
            p.fired += 1;
            return Some(ev.action);
        }
    }
    None
}

fn injected(site: Site) -> io::Error {
    io::Error::other(format!("chaos: injected fault at {}", site.name()))
}

// ---------------------------------------------------------------------------
// File-I/O shim (store, checkpoints, replay buffer)
// ---------------------------------------------------------------------------

/// `File::open` for reading, with transient-open-failure injection.
///
/// # Errors
///
/// The underlying I/O error, or an injected one.
pub fn open_read(path: &Path) -> io::Result<File> {
    if let Some(Action::Fail) = hit(Site::FsOpen) {
        return Err(injected(Site::FsOpen));
    }
    File::open(path)
}

/// `OpenOptions::create(true).append(true)`, with open-failure injection.
///
/// # Errors
///
/// The underlying I/O error, or an injected one.
pub fn open_append(path: &Path) -> io::Result<File> {
    if let Some(Action::Fail) = hit(Site::FsOpen) {
        return Err(injected(Site::FsOpen));
    }
    std::fs::OpenOptions::new().create(true).append(true).open(path)
}

/// `File::create`, with open-failure injection.
///
/// # Errors
///
/// The underlying I/O error, or an injected one.
pub fn create(path: &Path) -> io::Result<File> {
    if let Some(Action::Fail) = hit(Site::FsOpen) {
        return Err(injected(Site::FsOpen));
    }
    File::create(path)
}

/// Whole-file read with EINTR-style partial-read injection (the injected
/// truncation drops the tail, exactly what an interrupted read that was
/// never retried would have returned).
///
/// # Errors
///
/// The underlying I/O error, or an injected one.
pub fn read_bytes(path: &Path) -> io::Result<Vec<u8>> {
    let mut f = open_read(path)?;
    let mut raw = Vec::new();
    f.read_to_end(&mut raw)?;
    match hit(Site::FsRead) {
        Some(Action::Fail) => return Err(injected(Site::FsRead)),
        Some(Action::Short(lost)) => {
            let keep = raw.len().saturating_sub(lost as usize);
            raw.truncate(keep);
        }
        Some(Action::Delay(ms)) => std::thread::sleep(Duration::from_millis(u64::from(ms))),
        _ => {}
    }
    Ok(raw)
}

/// [`read_bytes`] as lossy UTF-8 (checkpoint loads).
///
/// # Errors
///
/// The underlying I/O error, or an injected one.
pub fn read_to_string(path: &Path) -> io::Result<String> {
    Ok(String::from_utf8_lossy(&read_bytes(path)?).into_owned())
}

/// `write_all` with short-write injection: on a short write the prefix
/// really is written (it may become durable — that is the point) and the
/// call errors like an interrupted syscall the caller never retried.
///
/// # Errors
///
/// The underlying I/O error, or an injected one.
pub fn write_all(f: &mut File, buf: &[u8]) -> io::Result<()> {
    match hit(Site::FsWrite) {
        Some(Action::Fail) => Err(injected(Site::FsWrite)),
        Some(Action::Short(lost)) => {
            let keep = buf.len().saturating_sub(lost as usize);
            let _ = f.write_all(&buf[..keep]);
            Err(injected(Site::FsWrite))
        }
        Some(Action::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(u64::from(ms)));
            f.write_all(buf)
        }
        _ => f.write_all(buf),
    }
}

/// `sync_all` with torn-sync injection (the data was written; durability
/// was not promised) and delayed-visibility injection.
///
/// # Errors
///
/// The underlying I/O error, or an injected one.
pub fn sync_all(f: &File) -> io::Result<()> {
    match hit(Site::FsSync) {
        Some(Action::Fail) => Err(injected(Site::FsSync)),
        Some(Action::Delay(ms) | Action::Stall(ms)) => {
            std::thread::sleep(Duration::from_millis(u64::from(ms)));
            f.sync_all()
        }
        _ => f.sync_all(),
    }
}

/// `fs::rename` with failure injection.
///
/// # Errors
///
/// The underlying I/O error, or an injected one.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    if let Some(Action::Fail) = hit(Site::FsRename) {
        return Err(injected(Site::FsRename));
    }
    std::fs::rename(from, to)
}

// ---------------------------------------------------------------------------
// Socket shim (service + fleet)
// ---------------------------------------------------------------------------

/// A network fault the socket paths must act out themselves (they own
/// the stream).
#[derive(Debug, Clone, Copy)]
pub enum NetFault {
    /// Cut the connection (mid-frame if bytes were already written).
    Reset,
    /// Write only the first part of the frame, then cut.
    Short(usize),
    /// Delay the operation, then proceed.
    Delay(Duration),
}

fn net_fault(site: Site) -> Option<NetFault> {
    match hit(site)? {
        Action::Reset | Action::Fail => Some(NetFault::Reset),
        Action::Short(lost) => Some(NetFault::Short(lost as usize)),
        Action::Delay(ms) | Action::Stall(ms) => {
            Some(NetFault::Delay(Duration::from_millis(u64::from(ms))))
        }
    }
}

/// Consulted once per line written to a service/fleet socket.
pub fn net_send_fault() -> Option<NetFault> {
    net_fault(Site::NetSend)
}

/// Consulted once per socket read attempt.
pub fn net_recv_fault() -> Option<NetFault> {
    net_fault(Site::NetRecv)
}

/// Consulted when a worker heartbeat is due; `Some(d)` means stay silent
/// (and stalled) for `d` instead of beating.
pub fn heartbeat_stall() -> Option<Duration> {
    match hit(Site::Heartbeat)? {
        Action::Stall(ms) | Action::Delay(ms) => Some(Duration::from_millis(u64::from(ms))),
        _ => Some(Duration::from_millis(300)),
    }
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

/// An intentionally planted harness bug, for proving the oracles catch
/// and the shrinker minimizes real accounting mistakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Bug {
    #[default]
    None,
    /// The store scenario claims a failed deposit as durable — the
    /// classic "ack before fsync" accounting bug.
    ClaimFailedDeposit,
}

/// Campaign parameters: `count` plans derived from `seed`, against one
/// scenario or (default) a store-heavy deterministic mix.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub seed: u64,
    pub count: usize,
    pub scenario: Option<Scenario>,
    pub bug: Bug,
}

/// One plan's verdict.
#[derive(Debug, Clone)]
pub struct PlanReport {
    pub index: usize,
    pub plan: FaultPlan,
    /// Oracle violations; empty means the plan passed.
    pub failures: Vec<String>,
}

/// A whole campaign's verdict.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub seed: u64,
    pub count: usize,
    pub passed: usize,
    pub failures: Vec<PlanReport>,
    /// FNV-1a over every plan's JSON and every oracle verdict — two runs
    /// of the same campaign must produce the same digest bit for bit.
    pub digest: u64,
}

/// The per-plan seed stream: independent of plan order evaluation.
fn plan_seed(campaign_seed: u64, index: usize) -> u64 {
    let mut s = campaign_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut s)
}

/// The default scenario mix: store plans are cheap, so they dominate;
/// serve and fleet plans exercise the network and process sites.
fn mixed_scenario(campaign_seed: u64, index: usize) -> Scenario {
    let mut s = campaign_seed.rotate_left(17) ^ (index as u64);
    match splitmix64(&mut s) % 16 {
        13 | 14 => Scenario::Serve,
        15 => Scenario::Fleet,
        _ => Scenario::Store,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Runs fault plans against real store/serve/fleet stacks and checks the
/// invariant oracles. Owns the process-wide [`ChaosSession`] for its
/// lifetime, so baselines and faulted runs cannot interleave with other
/// chaos users.
pub struct Harness {
    session: ChaosSession,
    bug: Bug,
    arch: arch::Arch,
    donor_mapping: mapping::Mapping,
    serve_baseline: Option<Vec<(String, String)>>,
    fleet_baseline: Option<String>,
    scratch_root: PathBuf,
    scratch_seq: usize,
}

/// The serve scenario's request set (deterministic searches).
const SERVE_REQUESTS: [&str; 2] = [
    "{\"id\": 100, \"op\": \"search\", \"problem\": \"GEMM;chaos0;B=2,M=16,K=16,N=16\", \
     \"mapper\": \"random\", \"samples\": 80, \"seed\": 5}",
    "{\"id\": 101, \"op\": \"search\", \"problem\": \"GEMM;chaos1;B=2,M=16,K=24,N=16\", \
     \"mapper\": \"random\", \"samples\": 80, \"seed\": 6}",
];

const FLEET_LAYERS: usize = 4;
const FLEET_SAMPLES: usize = 60;
const FLEET_SEED: u64 = 9;

fn fleet_layer_specs() -> Vec<String> {
    (0..FLEET_LAYERS).map(|i| format!("GEMM;cl{i};B=2,M=16,K={},N=16", 16 + 8 * (i % 3))).collect()
}

impl Harness {
    /// Acquires the chaos plane and prepares scenario fixtures.
    pub fn new(bug: Bug) -> Harness {
        let session = lock();
        let arch = arch::Arch::accel_b();
        let donor =
            problem::codec::from_spec("GEMM;chaosd;B=2,M=8,K=8,N=8").expect("donor spec parses");
        let donor_mapping = mapping::Mapping::trivial(&donor, &arch);
        let scratch_root =
            std::env::temp_dir().join(format!("mse-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch_root);
        Harness {
            session,
            bug,
            arch,
            donor_mapping,
            serve_baseline: None,
            fleet_baseline: None,
            scratch_root,
            scratch_seq: 0,
        }
    }

    fn scratch(&mut self, tag: &str) -> PathBuf {
        self.scratch_seq += 1;
        let dir = self.scratch_root.join(format!("{tag}-{}", self.scratch_seq));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create chaos scratch dir");
        dir
    }

    /// Runs one plan and returns its oracle violations (empty = pass).
    /// Must be called with the plane disarmed (it arms internally).
    pub fn run_plan(&mut self, plan: &FaultPlan) -> Vec<String> {
        match plan.scenario {
            Scenario::Store => self.run_store_plan(plan),
            Scenario::Serve => self.run_serve_plan(plan),
            Scenario::Fleet => self.run_fleet_plan(plan),
        }
    }

    /// Runs the campaign; failing plans are collected, not fatal, so the
    /// digest covers every verdict.
    pub fn run_campaign(
        &mut self,
        campaign: &Campaign,
        log: &mut dyn FnMut(&str),
    ) -> CampaignReport {
        self.bug = campaign.bug;
        let mut digest = fnv_fold(FNV_OFFSET, campaign.seed.to_le_bytes().as_slice());
        let mut passed = 0usize;
        let mut failures = Vec::new();
        for i in 0..campaign.count {
            let scenario = campaign.scenario.unwrap_or_else(|| mixed_scenario(campaign.seed, i));
            let plan = FaultPlan::generate(plan_seed(campaign.seed, i), scenario);
            let fails = self.run_plan(&plan);
            digest = fnv_fold(digest, plan.to_json().as_bytes());
            for f in &fails {
                digest = fnv_fold(digest, f.as_bytes());
            }
            if fails.is_empty() {
                passed += 1;
            } else {
                log(&format!(
                    "plan {i} ({}, seed {}) FAILED: {}",
                    scenario.name(),
                    plan.seed,
                    fails.join("; ")
                ));
                failures.push(PlanReport { index: i, plan, failures: fails });
            }
            if (i + 1) % 50 == 0 {
                log(&format!("{}/{} plans, {passed} passed", i + 1, campaign.count));
            }
        }
        let _ = std::fs::remove_dir_all(&self.scratch_root);
        CampaignReport { seed: campaign.seed, count: campaign.count, passed, failures, digest }
    }

    /// Delta-debugging (ddmin) over the failing plan's events: returns
    /// the smallest sub-plan that still violates an oracle.
    pub fn shrink(&mut self, plan: &FaultPlan) -> FaultPlan {
        let mut events = plan.events.clone();
        let still_fails = |h: &mut Harness, evs: &[FaultEvent]| -> bool {
            let candidate =
                FaultPlan { seed: plan.seed, scenario: plan.scenario, events: evs.to_vec() };
            !h.run_plan(&candidate).is_empty()
        };
        let mut n = 2usize;
        while events.len() >= 2 {
            let chunk = events.len().div_ceil(n);
            let mut reduced = false;
            let mut start = 0usize;
            while start < events.len() {
                let end = (start + chunk).min(events.len());
                let mut candidate = Vec::with_capacity(events.len() - (end - start));
                candidate.extend_from_slice(&events[..start]);
                candidate.extend_from_slice(&events[end..]);
                if !candidate.is_empty() && still_fails(self, &candidate) {
                    events = candidate;
                    n = 2.max(n - 1);
                    reduced = true;
                    break;
                }
                start = end;
            }
            if !reduced {
                if n >= events.len() {
                    break;
                }
                n = (n * 2).min(events.len());
            }
        }
        FaultPlan { seed: plan.seed, scenario: plan.scenario, events }
    }

    // -- store scenario -----------------------------------------------------

    fn run_store_plan(&mut self, plan: &FaultPlan) -> Vec<String> {
        let mut failures = Vec::new();
        let dir = self.scratch("store");
        let store_path = dir.join("chaos.store");
        let ck_path = dir.join("sweep.ckpt");
        let replay_path = dir.join("replay.buf");

        let store = match WarmStore::open(&store_path) {
            Ok(s) => s,
            Err(e) => return vec![format!("store-boot: fault-free open failed: {e}")],
        };

        // The replay fixture (and its fault-free byte image) before arming.
        let replay = ReplayBuffer::new();
        for i in 0..3 {
            let p = problem::codec::from_spec(&format!("GEMM;chaosr{i};B=2,M=8,K=8,N=8"))
                .expect("replay spec parses");
            replay.insert(p, self.donor_mapping.clone());
        }
        let mut replay_image: Vec<u8> = Vec::new();
        replay.save(&mut replay_image).expect("in-memory replay save");

        let fp = WarmStore::arch_fingerprint(&self.arch, None);
        let bug = self.bug;
        let armed = self.session.arm(plan);
        let phase = catch_unwind(AssertUnwindSafe(|| {
            store_phase(&store, &store_path, &ck_path, &replay, &replay_path, fp,
                        &self.donor_mapping, bug)
        }));
        drop(armed);
        let obs = match phase {
            Ok(o) => o,
            Err(payload) => {
                failures.push(format!(
                    "panic-escape: store phase panicked: {}",
                    crate::fault::panic_message(&*payload)
                ));
                let _ = std::fs::remove_dir_all(&dir);
                return failures;
            }
        };

        // Oracle: the store always loads after any fault interleaving.
        match WarmStore::open(&store_path) {
            Err(e) => failures.push(format!("store-load: reopen failed: {e}")),
            Ok(reopened) => {
                let present: HashSet<u64> =
                    reopened.records().iter().map(|r| r.evaluated).collect();
                for id in &obs.claimed {
                    if !present.contains(id) {
                        failures.push(format!(
                            "store-durability: deposit {id} was acknowledged durable but is \
                             missing after reopen"
                        ));
                    }
                }
                for id in &present {
                    if *id >= STORE_DEPOSITS {
                        failures.push(format!(
                            "store-integrity: phantom record {id} present after reopen"
                        ));
                    }
                }
                // Oracle: verify/compact heals any torn tail for good.
                let quarantined = reopened.stats().quarantined;
                if quarantined > 0 {
                    match reopened.compact() {
                        Err(e) => failures
                            .push(format!("store-heal: compaction after damage failed: {e}")),
                        Ok(_) => match WarmStore::verify(&store_path) {
                            Ok(v) if v.quarantined == 0 => {}
                            Ok(v) => failures.push(format!(
                                "store-heal: {} records still quarantined after compaction",
                                v.quarantined
                            )),
                            Err(e) => {
                                failures.push(format!("store-heal: verify failed: {e}"))
                            }
                        },
                    }
                }
            }
        }

        // Oracle: a checkpoint that was ever saved loads (primary or .bak
        // rescue) and equals one of the states that were saved.
        match SweepCheckpoint::load(&ck_path) {
            Ok(loaded) => {
                let j = loaded.canonical().to_json();
                if obs.saved_b {
                    if j != obs.ckpt_b_json {
                        failures.push(
                            "checkpoint-content: loaded state is not the last saved state"
                                .to_string(),
                        );
                    }
                } else if j != obs.ckpt_a_json && j != obs.ckpt_b_json {
                    failures.push(
                        "checkpoint-content: loaded state matches no saved state".to_string(),
                    );
                }
            }
            Err(e) => {
                if obs.saved_a || obs.saved_b {
                    failures.push(format!(
                        "checkpoint-load: a successfully saved checkpoint failed to load: {e}"
                    ));
                }
            }
        }

        // Oracle: the replay file is always a valid prefix of what was
        // saved; a successful save must round-trip completely.
        let fresh = ReplayBuffer::new();
        match fresh.load_from_path(&replay_path) {
            Ok(_) => {
                let mut reloaded_image: Vec<u8> = Vec::new();
                fresh.save(&mut reloaded_image).expect("in-memory replay save");
                if !replay_image.starts_with(&reloaded_image) {
                    failures.push(
                        "replay-prefix: reloaded entries are not a prefix of the saved buffer"
                            .to_string(),
                    );
                } else if obs.replay_saved && reloaded_image != replay_image {
                    failures.push(
                        "replay-durability: a successful save did not round-trip completely"
                            .to_string(),
                    );
                }
            }
            Err(e) => {
                if obs.replay_saved {
                    failures
                        .push(format!("replay-load: a successfully saved buffer failed: {e}"));
                }
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
        failures
    }

    // -- serve scenario -----------------------------------------------------

    fn serve_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            eval: EvalConfig { threads: 1, cache_capacity: 1 << 12 },
            ..ServeConfig::default()
        }
    }

    fn ensure_serve_baseline(&mut self) -> Result<Vec<(String, String)>, String> {
        if let Some(b) = &self.serve_baseline {
            return Ok(b.clone());
        }
        let daemon = serve(Self::serve_config())
            .map_err(|e| format!("serve-boot: baseline daemon failed to bind: {e}"))?;
        let addr = daemon.local_addr();
        let mut baseline = Vec::new();
        for line in SERVE_REQUESTS {
            let v = wire_request(addr, line, 6, Duration::from_secs(30))
                .ok_or("serve-boot: baseline request never answered")?;
            if v.get("ok").and_then(json::Value::as_bool) != Some(true) {
                return Err(format!("serve-boot: baseline request failed: {}", v.to_text()));
            }
            baseline.push(response_identity(&v));
        }
        daemon.drain();
        daemon.join();
        self.serve_baseline = Some(baseline.clone());
        Ok(baseline)
    }

    fn run_serve_plan(&mut self, plan: &FaultPlan) -> Vec<String> {
        let baseline = match self.ensure_serve_baseline() {
            Ok(b) => b,
            Err(e) => return vec![e],
        };
        let mut failures = Vec::new();
        let daemon = match serve(Self::serve_config()) {
            Ok(d) => d,
            Err(e) => return vec![format!("serve-boot: daemon failed to bind: {e}")],
        };
        let addr = daemon.local_addr();
        let armed = self.session.arm(plan);
        let responses: Vec<Option<json::Value>> = SERVE_REQUESTS
            .iter()
            .map(|line| wire_request(addr, line, 12, Duration::from_secs(30)))
            .collect();
        drop(armed);
        daemon.drain();
        let stats = daemon.join();

        if stats.request_panics != 0 {
            failures.push(format!(
                "no-panic: {} request handler panic(s) under fault",
                stats.request_panics
            ));
        }
        if stats.accepted != stats.completed {
            failures.push(format!(
                "exactly-once: accepted {} != completed {}",
                stats.accepted, stats.completed
            ));
        }
        for (i, r) in responses.iter().enumerate() {
            match r {
                None => failures.push(format!(
                    "bounded-recovery: request {i} never got an ok answer within the retry \
                     budget"
                )),
                Some(v) => {
                    let got = response_identity(v);
                    if got != baseline[i] {
                        failures.push(format!(
                            "bit-identical: request {i} diverged from the fault-free run: got \
                             ({}, {}), want ({}, {})",
                            got.0, got.1, baseline[i].0, baseline[i].1
                        ));
                    }
                }
            }
        }
        failures
    }

    // -- fleet scenario -----------------------------------------------------

    fn chaos_fleet() -> FleetConfig {
        FleetConfig {
            heartbeat_ms: 60,
            lease_ms: 400,
            steal_after_ms: 10_000,
            shard_slots: 2,
            reconnect_max_ms: 200,
            shard_retries: 3,
            shard_delay_ms: 0,
        }
    }

    fn coordinator_config(dir: &Path) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            eval: EvalConfig { threads: 1, cache_capacity: 1 << 12 },
            role: ServeRole::Coordinator,
            fleet: Self::chaos_fleet(),
            checkpoint_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        }
    }

    fn worker_config(coordinator: SocketAddr) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            eval: EvalConfig { threads: 1, cache_capacity: 1 << 12 },
            role: ServeRole::Worker { coordinator: coordinator.to_string() },
            // Workers dawdle per shard so kills land mid-sweep, not after
            // the sweep already finished (requires `fault_injection`).
            fault_injection: true,
            fleet: FleetConfig { shard_delay_ms: 80, ..Self::chaos_fleet() },
            ..ServeConfig::default()
        }
    }

    /// The single-process ground truth, mirrored from the fleet tests:
    /// same guard, mapper, seeds, and thread count the daemon shards use.
    fn ensure_fleet_baseline(&mut self) -> Result<String, String> {
        if let Some(b) = &self.fleet_baseline {
            return Ok(b.clone());
        }
        let dir = self.scratch("fleet-ref");
        let problems: Vec<Problem> = fleet_layer_specs()
            .iter()
            .map(|l| problem::codec::from_spec(l).expect("layer spec parses"))
            .collect();
        let arch = self.arch.clone();
        let arch_for_model = arch.clone();
        let make_model = move |p: &Problem| -> Box<dyn CostModel> {
            Box::new(guarded_engine(p, &arch_for_model, None, GuardPolicy::Reject))
        };
        let make_mapper = || -> Box<dyn Mapper> { Box::new(RandomMapper::new()) };
        let path = dir.join("reference.ckpt");
        crate::runtime::run_network_checkpointed(
            &problems,
            &arch,
            &ReplayBuffer::new(),
            InitStrategy::Random,
            Budget::samples(FLEET_SAMPLES),
            FLEET_SEED,
            1,
            make_model,
            make_mapper,
            &path,
            false,
        )
        .map_err(|e| format!("fleet-boot: reference sweep failed: {e}"))?;
        let ckpt = SweepCheckpoint::load(&path)
            .map_err(|e| format!("fleet-boot: reference checkpoint unreadable: {e}"))?;
        let json = ckpt.canonical().to_json();
        let _ = std::fs::remove_dir_all(&dir);
        self.fleet_baseline = Some(json.clone());
        Ok(json)
    }

    fn run_fleet_plan(&mut self, plan: &FaultPlan) -> Vec<String> {
        let baseline = match self.ensure_fleet_baseline() {
            Ok(b) => b,
            Err(e) => return vec![e],
        };
        let mut failures = Vec::new();
        let dir = self.scratch("fleet");
        let layers = fleet_layer_specs();

        let mut coordinator = match serve(Self::coordinator_config(&dir)) {
            Ok(c) => Some(c),
            Err(e) => return vec![format!("fleet-boot: coordinator failed to bind: {e}")],
        };
        let mut addr = coordinator.as_ref().map(ServerHandle::local_addr).expect("addr");
        let mut workers: Vec<ServerHandle> = Vec::new();
        match serve(Self::worker_config(addr)) {
            Ok(w) => workers.push(w),
            Err(e) => {
                failures.push(format!("fleet-boot: worker failed to bind: {e}"));
                if let Some(c) = coordinator.take() {
                    c.kill();
                }
                return failures;
            }
        }
        if !wait_for_workers(addr, 1) {
            failures.push("fleet-boot: worker never registered (fault-free)".to_string());
        }

        let armed = self.session.arm(plan);
        let sweep_line = fleet_sweep_line(1, &layers, false);
        let client = {
            let line = sweep_line.clone();
            std::thread::spawn(move || wire_request(addr, &line, 1, Duration::from_secs(60)))
        };
        let mut coordinator_killed = false;
        match plan.kill_event() {
            Some((Site::KillWorker, delay)) => {
                std::thread::sleep(Duration::from_millis(delay));
                if let Some(w) = workers.pop() {
                    w.kill();
                }
                // Restart: a replacement registers and takes over shards
                // the lease re-dispatches.
                if let Ok(w) = serve(Self::worker_config(addr)) {
                    workers.push(w);
                }
            }
            Some((Site::KillCoordinator, delay)) => {
                std::thread::sleep(Duration::from_millis(delay));
                if let Some(c) = coordinator.take() {
                    c.kill();
                }
                coordinator_killed = true;
            }
            _ => {}
        }
        let first = client.join().unwrap_or(None);

        // Recovery: reboot a killed coordinator on the same checkpoint
        // directory (fresh port), re-point a worker at it, and resume.
        let mut response = first;
        if coordinator_killed {
            for w in workers.drain(..) {
                w.kill();
            }
            match serve(Self::coordinator_config(&dir)) {
                Ok(c) => {
                    addr = c.local_addr();
                    coordinator = Some(c);
                }
                Err(e) => failures.push(format!("bounded-recovery: coordinator reboot: {e}")),
            }
            if coordinator.is_some() {
                if let Ok(w) = serve(Self::worker_config(addr)) {
                    workers.push(w);
                }
                wait_for_workers(addr, 1);
                response = wire_request(
                    addr,
                    &fleet_sweep_line(2, &layers, true),
                    4,
                    Duration::from_secs(60),
                );
            }
        } else if response
            .as_ref()
            .is_none_or(|v| v.get("ok").and_then(json::Value::as_bool) != Some(true))
        {
            // A transient failure (e.g. checkpoint-io under an injected
            // fault) is retried once with resume, like a real client.
            response =
                wire_request(addr, &fleet_sweep_line(3, &layers, true), 4, Duration::from_secs(60));
        }
        drop(armed);

        match &response {
            Some(v) if v.get("ok").and_then(json::Value::as_bool) == Some(true) => {
                let total = v.get("layers_total").and_then(json::Value::as_u64);
                if total != Some(layers.len() as u64) {
                    failures.push(format!(
                        "exactly-once: sweep answered {total:?} layers, want {}",
                        layers.len()
                    ));
                }
            }
            Some(v) => failures.push(format!(
                "bounded-recovery: sweep never succeeded: {}",
                v.to_text()
            )),
            None => failures
                .push("bounded-recovery: sweep got no answer within the retry budget".to_string()),
        }

        // Oracle: the checkpoint on disk is bit-identical to the
        // fault-free single-process run — kills, lease expiries, and
        // re-dispatch never change the result.
        match SweepCheckpoint::load(&dir.join("chaos.ckpt")) {
            Ok(ckpt) => {
                let got = ckpt.canonical().to_json();
                let names: Vec<&str> =
                    ckpt.layers.iter().map(|l| l.name.as_str()).collect();
                let distinct: HashSet<&str> = names.iter().copied().collect();
                if distinct.len() != names.len() {
                    failures.push("exactly-once: duplicate layer in checkpoint".to_string());
                }
                if got != baseline {
                    failures.push(
                        "bit-identical: fleet checkpoint diverged from the fault-free run"
                            .to_string(),
                    );
                }
            }
            Err(e) => failures.push(format!("checkpoint-load: fleet checkpoint: {e}")),
        }

        // The surviving coordinator's accounting (skipped when it was
        // killed: its counters died with it).
        for w in workers.drain(..) {
            w.kill();
        }
        if let Some(c) = coordinator.take() {
            if coordinator_killed {
                c.kill();
            } else {
                c.drain();
                let stats = c.join();
                if stats.request_panics != 0 {
                    failures.push(format!(
                        "no-panic: {} coordinator panic(s) under fault",
                        stats.request_panics
                    ));
                }
                if stats.accepted != stats.completed {
                    failures.push(format!(
                        "exactly-once: coordinator accepted {} != completed {}",
                        stats.accepted, stats.completed
                    ));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        failures
    }
}

/// How many deposits the store scenario attempts (ids `0..STORE_DEPOSITS`).
const STORE_DEPOSITS: u64 = 10;

struct StoreObs {
    /// Ids the harness believes are durable (deposit acked, adjusted for
    /// compaction failures) — the exactly-once "claimed" set.
    claimed: Vec<u64>,
    saved_a: bool,
    saved_b: bool,
    ckpt_a_json: String,
    ckpt_b_json: String,
    replay_saved: bool,
}

/// The armed portion of the store scenario: deposits with a mid-stream
/// compaction, two checkpoint saves, a replay-buffer save, plus armed
/// re-loads of everything (whose *only* obligation is to not panic).
#[allow(clippy::too_many_arguments)]
fn store_phase(
    store: &WarmStore,
    store_path: &Path,
    ck_path: &Path,
    replay: &ReplayBuffer,
    replay_path: &Path,
    fp: u64,
    donor_mapping: &mapping::Mapping,
    bug: Bug,
) -> StoreObs {
    let mut claimed = Vec::new();
    for i in 0..STORE_DEPOSITS {
        let p = problem::codec::from_spec(&format!("GEMM;chaos{i};B=2,M=8,K=8,N=8"))
            .expect("deposit spec parses");
        match store.deposit(fp, &p, donor_mapping, "gamma", 10.0 + i as f64, i) {
            Ok(()) => claimed.push(i),
            Err(_) => {
                if bug == Bug::ClaimFailedDeposit {
                    // The planted accounting bug: acknowledge a deposit
                    // whose write/sync failed as if it were durable.
                    claimed.push(i);
                }
            }
        }
        if i == 5 {
            // All keys are distinct and far under the caps, so a clean
            // compaction drops nothing; a failed one may leave any state,
            // so the harness conservatively un-claims everything.
            if store.compact().is_err() {
                claimed.clear();
            }
            // Armed re-load: exercises open/read faults; must not panic.
            let _ = WarmStore::open(store_path);
        }
    }

    let layer = |n: usize| crate::runtime::LayerCheckpoint {
        name: format!("chaos-l{n}"),
        init_score: 2.0,
        best_score: 1.0 + n as f64,
        converge_sample: 10,
        evaluated: 50,
        elapsed_secs: 0.0,
        mapping: Some(mapping::codec::to_spec(donor_mapping)),
        latency_cycles: 100.0,
        energy_uj: 0.5,
    };
    let mut ckpt_a = SweepCheckpoint::new(7, InitStrategy::Random, Budget::samples(50));
    ckpt_a.layers.push(layer(0));
    let mut ckpt_b = ckpt_a.clone();
    ckpt_b.layers.push(layer(1));
    let saved_a = ckpt_a.save(ck_path).is_ok();
    let saved_b = ckpt_b.save(ck_path).is_ok();
    // Armed re-load: partial reads / torn tails must never panic.
    let _ = SweepCheckpoint::load(ck_path);

    let replay_saved = replay.save_to_path(replay_path).is_ok();
    let _ = ReplayBuffer::new().load_from_path(replay_path);

    StoreObs {
        claimed,
        saved_a,
        saved_b,
        ckpt_a_json: ckpt_a.canonical().to_json(),
        ckpt_b_json: ckpt_b.canonical().to_json(),
        replay_saved,
    }
}

/// `(mapping, score)` as raw response text — the bit-identity fingerprint
/// of a search response.
fn response_identity(v: &json::Value) -> (String, String) {
    (
        v.get("mapping").map_or_else(|| "null".to_string(), json::Value::to_text),
        v.get("score").map_or_else(|| "null".to_string(), json::Value::to_text),
    )
}

/// A retrying JSON-lines client. Chaos-free by construction (client
/// sockets are not shimmed): every fault it observes is daemon-side.
/// Returns the first `ok: true` response, or the last permanent error
/// response, or `None` if every attempt died on the wire.
fn wire_request(
    addr: SocketAddr,
    line: &str,
    attempts: usize,
    timeout: Duration,
) -> Option<json::Value> {
    let mut last: Option<json::Value> = None;
    for attempt in 0..attempts {
        if let Some(v) = wire_request_once(addr, line, timeout) {
            if v.get("ok").and_then(json::Value::as_bool) == Some(true) {
                return Some(v);
            }
            let transient = v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(json::Value::as_str)
                == Some("transient");
            last = Some(v);
            if !transient {
                return last;
            }
        }
        std::thread::sleep(Duration::from_millis(15 * (attempt as u64 + 1)));
    }
    last
}

fn wire_request_once(addr: SocketAddr, line: &str, timeout: Duration) -> Option<json::Value> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.write_all(line.as_bytes()).and_then(|()| stream.write_all(b"\n")).ok()?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).ok()?;
    if resp.trim().is_empty() {
        return None;
    }
    json::parse(&resp).ok()
}

/// Polls `health` until `n` workers are registered. Tolerant of wire
/// faults (each poll is independent). Returns whether it got there.
fn wait_for_workers(addr: SocketAddr, n: u64) -> bool {
    for _ in 0..200 {
        if let Some(v) = wire_request_once(addr, "{\"id\": 0, \"op\": \"health\"}", Duration::from_secs(5))
        {
            if v.get("workers_connected").and_then(json::Value::as_u64) == Some(n) {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

fn fleet_sweep_line(id: usize, layers: &[String], resume: bool) -> String {
    let quoted: Vec<String> = layers.iter().map(|l| json::escape(l)).collect();
    let mut line = format!(
        "{{\"id\": {id}, \"op\": \"sweep\", \"layers\": [{}], \"mapper\": \"random\", \
         \"samples\": {FLEET_SAMPLES}, \"seed\": {FLEET_SEED}, \"checkpoint\": \"chaos.ckpt\"",
        quoted.join(", ")
    );
    if resume {
        line.push_str(", \"resume\": true");
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Pinned so plans can never drift across platforms or releases.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn plans_are_deterministic_and_roundtrip_json() {
        for seed in [0u64, 1, 42, u64::MAX, 0x1234_5678_9abc_def0] {
            for scenario in [Scenario::Store, Scenario::Serve, Scenario::Fleet] {
                let a = FaultPlan::generate(seed, scenario);
                let b = FaultPlan::generate(seed, scenario);
                assert_eq!(a, b, "generation must be pure in (seed, scenario)");
                assert!(!a.events.is_empty() && a.events.len() <= 4);
                let back = FaultPlan::from_json(&a.to_json()).expect("roundtrip");
                assert_eq!(a, back, "JSON codec must be lossless");
                assert!(
                    a.events.iter().filter(|e| e.site.is_process()).count() <= 1,
                    "at most one process event per plan"
                );
            }
        }
    }

    #[test]
    fn hooks_are_passthrough_when_disarmed() {
        assert!(!armed());
        assert!(net_send_fault().is_none());
        assert!(net_recv_fault().is_none());
        assert!(heartbeat_stall().is_none());
    }

    #[test]
    fn events_fire_once_at_their_nth_op() {
        let session = lock();
        let plan = FaultPlan {
            seed: 1,
            scenario: Scenario::Store,
            events: vec![
                FaultEvent { site: Site::FsSync, nth: 2, action: Action::Fail },
                FaultEvent { site: Site::NetSend, nth: 0, action: Action::Reset },
            ],
        };
        let armed_plan = session.arm(&plan);
        assert!(hit(Site::FsSync).is_none(), "op 0 passes");
        assert!(hit(Site::FsSync).is_none(), "op 1 passes");
        assert_eq!(hit(Site::FsSync), Some(Action::Fail), "op 2 fires");
        assert!(hit(Site::FsSync).is_none(), "events are one-shot");
        assert!(matches!(net_send_fault(), Some(NetFault::Reset)));
        assert!(net_send_fault().is_none());
        assert_eq!(armed_plan.fired(), 2);
        drop(armed_plan);
        assert!(hit(Site::FsSync).is_none(), "disarmed after drop");
    }

    #[test]
    fn shrink_finds_the_single_guilty_event() {
        // A synthetic predicate: failure iff the plan still contains the
        // guilty (FsWrite, nth 3) event. ddmin must strip all decoys.
        let guilty = FaultEvent { site: Site::FsWrite, nth: 3, action: Action::Fail };
        let mut events = vec![guilty];
        for i in 0..7u32 {
            events.push(FaultEvent { site: Site::FsSync, nth: i, action: Action::Fail });
        }
        let plan = FaultPlan { seed: 9, scenario: Scenario::Store, events };
        // Reuse the ddmin loop via a local copy of the algorithm to keep
        // the test independent of scenario runtimes.
        let fails = |p: &FaultPlan| p.events.contains(&guilty);
        let mut cur = plan.events.clone();
        let mut n = 2usize;
        while cur.len() >= 2 {
            let chunk = cur.len().div_ceil(n);
            let mut reduced = false;
            let mut start = 0usize;
            while start < cur.len() {
                let end = (start + chunk).min(cur.len());
                let mut cand = Vec::new();
                cand.extend_from_slice(&cur[..start]);
                cand.extend_from_slice(&cur[end..]);
                if !cand.is_empty()
                    && fails(&FaultPlan { seed: 9, scenario: Scenario::Store, events: cand.clone() })
                {
                    cur = cand;
                    n = 2.max(n - 1);
                    reduced = true;
                    break;
                }
                start = end;
            }
            if !reduced {
                if n >= cur.len() {
                    break;
                }
                n = (n * 2).min(cur.len());
            }
        }
        assert_eq!(cur, vec![guilty], "ddmin reduced to exactly the guilty event");
    }
}
