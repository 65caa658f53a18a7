//! Chaos tests for the coordinator/worker fleet, over real TCP.
//!
//! The acceptance bar: a sweep sharded across 1, 2, or 4 workers writes a
//! checkpoint byte-identical to the single-process run; killing any single
//! worker mid-sweep (lost connection, expired lease, or straggling shard)
//! re-dispatches its shards and still yields the bit-identical result with
//! every layer accounted exactly once; and a coordinator killed mid-sweep
//! resumes from its fsync'd checkpoint on a fresh port bit-identically.

use costmodel::{guarded_engine, CostModel, GuardPolicy};
use mappers::{Budget, Mapper, RandomMapper};
use mse::json;
use mse::{
    run_network_checkpointed, serve, FleetConfig, InitStrategy, ReplayBuffer,
    ServeConfig, ServeRole, ServerHandle, SweepCheckpoint,
};
use problem::Problem;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Fast timings so lease expiry / stealing / reconnect all happen within a
/// test's patience, not production's.
fn fast_fleet() -> FleetConfig {
    FleetConfig {
        heartbeat_ms: 100,
        lease_ms: 500,
        steal_after_ms: 10_000, // stealing off unless a test turns it on
        shard_slots: 2,
        reconnect_max_ms: 300,
        shard_retries: 2,
        shard_delay_ms: 0,
    }
}

fn coordinator_config(checkpoint_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        fault_injection: true,
        eval: mse::EvalConfig { threads: 1, cache_capacity: 1 << 12 },
        role: ServeRole::Coordinator,
        fleet: fast_fleet(),
        checkpoint_dir: checkpoint_dir.map(Path::to_path_buf),
        ..ServeConfig::default()
    }
}

/// `shard_delay_ms` is the straggler-injection hook: the worker sleeps
/// that long before executing each shard (requires `fault_injection`).
fn worker_config(coordinator: SocketAddr, shard_delay_ms: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        fault_injection: true,
        eval: mse::EvalConfig { threads: 1, cache_capacity: 1 << 12 },
        role: ServeRole::Worker { coordinator: coordinator.to_string() },
        fleet: FleetConfig { shard_delay_ms, ..fast_fleet() },
        ..ServeConfig::default()
    }
}

fn request(addr: SocketAddr, line: &str) -> json::Value {
    try_request(addr, line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

/// Like `request`, but a cut connection (coordinator killed mid-request)
/// is an `Err`, not a panic.
fn try_request(addr: SocketAddr, line: &str) -> Result<json::Value, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).map_err(|e| format!("receive: {e}"))?;
    if resp.trim().is_empty() {
        return Err("connection closed without a response".to_string());
    }
    json::parse(&resp).map_err(|e| format!("bad response JSON ({e}): {resp}"))
}

fn assert_ok(v: &json::Value) {
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true), "{}", v.to_text());
}

fn u64_field(v: &json::Value, key: &str) -> u64 {
    v.get(key)
        .and_then(json::Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 `{key}`: {}", v.to_text()))
}

/// Boots a coordinator plus `n` workers and waits until all have
/// registered (heartbeat-visible), so a sweep submitted immediately after
/// really is sharded across all of them.
fn boot_fleet(
    checkpoint_dir: Option<&Path>,
    worker_delays_ms: &[u64],
) -> (ServerHandle, SocketAddr, Vec<ServerHandle>) {
    let coordinator = serve(coordinator_config(checkpoint_dir)).expect("bind coordinator");
    let addr = coordinator.local_addr();
    let workers: Vec<ServerHandle> = worker_delays_ms
        .iter()
        .map(|&delay| serve(worker_config(addr, delay)).expect("bind worker"))
        .collect();
    wait_for_workers(addr, workers.len() as u64);
    (coordinator, addr, workers)
}

fn wait_for_workers(addr: SocketAddr, n: u64) {
    for _ in 0..400 {
        let v = request(addr, "{\"id\": 0, \"op\": \"health\"}");
        assert_ok(&v);
        if u64_field(&v, "workers_connected") == n {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("{n} worker(s) never registered with the coordinator");
}

/// A scratch directory unique per test (no tempdir dependency).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mse-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The test network: small distinct GEMMs, enough of them that shards are
/// outstanding on every worker when chaos strikes.
fn layer_specs(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("GEMM;l{i};B=2,M=16,K={},N=16", 16 + 8 * (i % 3))).collect()
}

const SWEEP_SAMPLES: usize = 120;
const SWEEP_SEED: u64 = 9;

fn sweep_line(id: usize, layers: &[String], checkpoint: Option<&str>, resume: bool) -> String {
    let quoted: Vec<String> = layers.iter().map(|l| json::escape(l)).collect();
    let mut line = format!(
        "{{\"id\": {id}, \"op\": \"sweep\", \"layers\": [{}], \"mapper\": \"random\", \
         \"samples\": {SWEEP_SAMPLES}, \"seed\": {SWEEP_SEED}",
        quoted.join(", ")
    );
    if let Some(name) = checkpoint {
        line.push_str(&format!(", \"checkpoint\": {}", json::escape(name)));
    }
    if resume {
        line.push_str(", \"resume\": true");
    }
    line.push('}');
    line
}

/// The single-process ground truth, built exactly the way the daemon
/// builds its shard executors: dense model wrapped in a reject-guard
/// (`ServeConfig::default().guard`), random-init, gamma replaced by the
/// deterministic `random` mapper, one thread.
fn reference_checkpoint(layers: &[String], dir: &Path) -> SweepCheckpoint {
    let problems: Vec<Problem> =
        layers.iter().map(|l| problem::codec::from_spec(l).expect("layer spec")).collect();
    let arch = arch::Arch::accel_b();
    let arch_for_model = arch.clone();
    let make_model = move |p: &Problem| -> Box<dyn CostModel> {
        Box::new(guarded_engine(p, &arch_for_model, None, GuardPolicy::Reject))
    };
    let make_mapper = || -> Box<dyn Mapper> { Box::new(RandomMapper::new()) };
    let path = dir.join("reference.ckpt");
    run_network_checkpointed(
        &problems,
        &arch,
        &ReplayBuffer::new(),
        InitStrategy::Random,
        Budget::samples(SWEEP_SAMPLES),
        SWEEP_SEED,
        1,
        make_model,
        make_mapper,
        &path,
        false,
    )
    .expect("reference sweep");
    SweepCheckpoint::load(&path).expect("reference checkpoint")
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// `health` reports the topology from both sides of the fleet and, like
/// `ping`, keeps answering while draining.
#[test]
fn health_reports_fleet_topology() {
    let (coordinator, addr, workers) = boot_fleet(None, &[0]);
    let v = request(addr, "{\"id\": 1, \"op\": \"health\"}");
    assert_ok(&v);
    assert_eq!(v.get("role").and_then(json::Value::as_str), Some("coordinator"));
    assert_eq!(v.get("draining").and_then(json::Value::as_bool), Some(false));
    assert_eq!(u64_field(&v, "workers_connected"), 1);
    assert!(v.get("queue_depth").is_some() && v.get("queue_capacity").is_some());

    let w = request(workers[0].local_addr(), "{\"id\": 2, \"op\": \"health\"}");
    assert_ok(&w);
    assert_eq!(w.get("role").and_then(json::Value::as_str), Some("worker"));
    assert_eq!(
        w.get("coordinator_connected").and_then(json::Value::as_bool),
        Some(true),
        "{}",
        w.to_text()
    );

    // stats gained the same topology block.
    let s = request(addr, "{\"id\": 3, \"op\": \"stats\"}");
    assert_ok(&s);
    let fleet = s.get("fleet").expect("coordinator stats carry a fleet block");
    assert_eq!(fleet.get("workers_connected").and_then(json::Value::as_u64), Some(1));

    // health bypasses admission: a probe that lands mid-drain (the race
    // with connection teardown is the client's, like `ping`) is answered
    // with the draining flag up, never queued behind the backlog.
    coordinator.drain();
    if let Ok(d) = try_request(addr, "{\"id\": 4, \"op\": \"health\"}") {
        assert_ok(&d);
        assert_eq!(d.get("draining").and_then(json::Value::as_bool), Some(true));
    }

    for w in workers {
        w.kill();
    }
    coordinator.join();
}

/// The determinism tentpole: the same sweep sharded across 1, 2, and 4
/// workers writes byte-identical checkpoint files, and their canonical
/// form equals the single-process reference exactly.
#[test]
fn sweep_is_bit_identical_across_1_2_and_4_workers() {
    let layers = layer_specs(5);
    let reference_dir = scratch("ref");
    let reference = reference_checkpoint(&layers, &reference_dir).canonical();

    let mut checkpoint_bytes: Vec<Vec<u8>> = Vec::new();
    for &count in &[1usize, 2, 4] {
        let dir = scratch(&format!("fan{count}"));
        let (coordinator, addr, workers) = boot_fleet(Some(&dir), &vec![0; count]);
        let v = request(addr, &sweep_line(count, &layers, Some("sweep.ckpt"), false));
        assert_ok(&v);
        assert_eq!(u64_field(&v, "layers_total"), layers.len() as u64);
        assert_eq!(u64_field(&v, "layers_from_checkpoint"), 0);
        let fleet = v.get("fleet").expect("fleet block");
        assert!(
            fleet.get("dispatched").and_then(json::Value::as_u64).is_some_and(|d| d > 0),
            "shards went over the wire: {}",
            v.to_text()
        );

        let bytes = std::fs::read(dir.join("sweep.ckpt")).expect("fleet checkpoint");
        let parsed = SweepCheckpoint::load(&dir.join("sweep.ckpt")).expect("parses");
        assert_eq!(
            parsed.canonical(),
            reference,
            "{count}-worker sweep diverged from the single-process run"
        );
        checkpoint_bytes.push(bytes);

        for w in workers {
            w.kill();
        }
        coordinator.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(checkpoint_bytes[0], checkpoint_bytes[1], "1 vs 2 workers: bytes differ");
    assert_eq!(checkpoint_bytes[0], checkpoint_bytes[2], "1 vs 4 workers: bytes differ");
    let _ = std::fs::remove_dir_all(&reference_dir);
}

/// Kill a worker (severed TCP link) while its shards are in flight: the
/// coordinator re-dispatches them and the sweep result is bit-identical,
/// every layer accounted exactly once.
#[test]
fn worker_death_mid_sweep_redispatches_bit_identically() {
    let layers = layer_specs(6);
    let reference_dir = scratch("death-ref");
    let reference = reference_checkpoint(&layers, &reference_dir).canonical();

    let dir = scratch("death");
    // Both workers dawdle 150ms per shard so the kill lands mid-shard.
    let (coordinator, addr, workers) = boot_fleet(Some(&dir), &[150, 150]);
    let sweep = {
        let layers = layers.clone();
        std::thread::spawn(move || request(addr, &sweep_line(1, &layers, Some("sweep.ckpt"), false)))
    };
    std::thread::sleep(Duration::from_millis(100));
    workers[0].chaos_sever_fleet_link();

    let v = sweep.join().expect("sweep client");
    assert_ok(&v);
    assert_eq!(u64_field(&v, "layers_total"), layers.len() as u64);
    let fleet = v.get("fleet").expect("fleet block");
    assert!(
        fleet.get("redispatched").and_then(json::Value::as_u64).is_some_and(|n| n > 0),
        "severed worker's shards were re-dispatched: {}",
        v.to_text()
    );
    let parsed = SweepCheckpoint::load(&dir.join("sweep.ckpt")).expect("checkpoint");
    assert_eq!(parsed.canonical(), reference, "worker death changed the result");

    for w in workers {
        w.kill();
    }
    coordinator.kill();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

/// A straggling shard (injected 1s delay) is re-issued to the idle fast
/// worker; the first answer wins and the straggler's late result is
/// discarded by shard id — and the result is still bit-identical.
#[test]
fn straggler_shard_is_stolen_by_idle_worker() {
    let layers = layer_specs(4);
    let reference_dir = scratch("steal-ref");
    let reference = reference_checkpoint(&layers, &reference_dir).canonical();

    let dir = scratch("steal");
    let coordinator_cfg = ServeConfig {
        fleet: FleetConfig { steal_after_ms: 300, ..fast_fleet() },
        ..coordinator_config(Some(&dir))
    };
    let coordinator = serve(coordinator_cfg).expect("bind coordinator");
    let addr = coordinator.local_addr();
    // One straggler (1s per shard), one fast worker.
    let straggler = serve(worker_config(addr, 1_000)).expect("bind straggler");
    let fast = serve(worker_config(addr, 0)).expect("bind fast worker");
    wait_for_workers(addr, 2);

    let v = request(addr, &sweep_line(1, &layers, Some("sweep.ckpt"), false));
    assert_ok(&v);
    let fleet = v.get("fleet").expect("fleet block");
    assert!(
        fleet.get("stolen").and_then(json::Value::as_u64).is_some_and(|n| n > 0),
        "idle worker stole from the straggler: {}",
        v.to_text()
    );
    let parsed = SweepCheckpoint::load(&dir.join("sweep.ckpt")).expect("checkpoint");
    assert_eq!(parsed.canonical(), reference, "stealing changed the result");

    straggler.kill();
    fast.kill();
    coordinator.kill();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

/// Mute a worker's heartbeats while it keeps executing: its lease expires,
/// its shards are re-dispatched, and its late answers are discarded as
/// duplicates (or counted stale after the job closes) — never double
/// counted into the sweep.
#[test]
fn muted_worker_lease_expires_and_late_results_are_discarded() {
    let layers = layer_specs(4);
    let reference_dir = scratch("mute-ref");
    let reference = reference_checkpoint(&layers, &reference_dir).canonical();

    let dir = scratch("mute");
    // The muted worker takes 700ms per shard — longer than the 500ms
    // lease, so silence is what expires it, and its results arrive late.
    let (coordinator, addr, workers) = boot_fleet(Some(&dir), &[700, 0]);
    let sweep = {
        let layers = layers.clone();
        std::thread::spawn(move || request(addr, &sweep_line(1, &layers, Some("sweep.ckpt"), false)))
    };
    std::thread::sleep(Duration::from_millis(50));
    workers[0].chaos_mute_fleet_link();

    let v = sweep.join().expect("sweep client");
    assert_ok(&v);
    let parsed = SweepCheckpoint::load(&dir.join("sweep.ckpt")).expect("checkpoint");
    assert_eq!(parsed.canonical(), reference, "lease expiry changed the result");

    // Give the muted worker time to finish its orphaned shards and send
    // the late answers, then check they were discarded, not re-counted.
    std::thread::sleep(Duration::from_millis(900));
    let s = request(addr, "{\"id\": 2, \"op\": \"stats\"}");
    let fleet = s.get("fleet").expect("fleet block");
    let lost = fleet.get("workers_lost").and_then(json::Value::as_u64).unwrap_or(0);
    assert!(lost > 0, "muted worker's lease expired: {}", s.to_text());
    let discarded = fleet.get("duplicates_discarded").and_then(json::Value::as_u64).unwrap_or(0)
        + fleet.get("stale_results").and_then(json::Value::as_u64).unwrap_or(0);
    assert!(discarded > 0, "late results discarded, not double-counted: {}", s.to_text());

    for w in workers {
        w.kill();
    }
    coordinator.kill();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

/// Kill the coordinator mid-sweep, then restart it (fresh port — the old
/// one sits in TIME_WAIT — same checkpoint directory) with fresh workers
/// and `resume: true`: the sweep completes bit-identically to an
/// uninterrupted run, completed layers replayed from the checkpoint.
#[test]
fn coordinator_restart_resumes_bit_identically() {
    let layers = layer_specs(5);
    let reference_dir = scratch("restart-ref");
    let reference = reference_checkpoint(&layers, &reference_dir).canonical();

    let dir = scratch("restart");
    // 250ms per shard: the kill at ~600ms lands with layers both flushed
    // and outstanding.
    let (coordinator, addr, workers) = boot_fleet(Some(&dir), &[250]);
    let sweep = {
        let layers = layers.clone();
        std::thread::spawn(move || {
            try_request(addr, &sweep_line(1, &layers, Some("sweep.ckpt"), false))
        })
    };
    std::thread::sleep(Duration::from_millis(600));
    coordinator.kill();
    // The client either got cut mid-request or (rarely, on a fast
    // machine) a complete answer; both are fine — the checkpoint decides.
    let _ = sweep.join().expect("sweep client");
    for w in workers {
        w.kill();
    }
    let partial = SweepCheckpoint::load(&dir.join("sweep.ckpt")).expect("partial checkpoint");
    assert!(
        !partial.layers.is_empty(),
        "kill at 600ms with 250ms shards: at least one layer flushed"
    );

    // Restart: new port (serve binds port 0), same checkpoint directory.
    let (coordinator, addr, workers) = boot_fleet(Some(&dir), &[0]);
    let v = request(addr, &sweep_line(2, &layers, Some("sweep.ckpt"), true));
    assert_ok(&v);
    assert_eq!(u64_field(&v, "layers_total"), layers.len() as u64);
    assert_eq!(
        u64_field(&v, "layers_from_checkpoint"),
        partial.layers.len() as u64,
        "resume replayed exactly the flushed prefix: {}",
        v.to_text()
    );
    let parsed = SweepCheckpoint::load(&dir.join("sweep.ckpt")).expect("final checkpoint");
    assert_eq!(parsed.canonical(), reference, "coordinator restart changed the result");

    for w in workers {
        w.kill();
    }
    coordinator.kill();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

/// Island search: `islands: 4` fans the sample budget out across workers
/// and merges incumbents deterministically — the same score, mapping,
/// evaluation count and cache hits on every topology, including
/// standalone. Each island owns its evaluation cache, so its hits depend
/// only on the island; the gamma line makes that check non-trivial
/// (random never revisits a mapping).
#[test]
fn island_search_fans_out_and_merges_deterministically() {
    let lines = [
        "{\"id\": 1, \"op\": \"search\", \"problem\": \"GEMM;g;B=2,M=32,K=32,N=32\", \
         \"mapper\": \"random\", \"samples\": 400, \"seed\": 5, \"islands\": 4}",
        "{\"id\": 2, \"op\": \"search\", \"problem\": \"GEMM;g;B=2,M=32,K=32,N=32\", \
         \"mapper\": \"gamma\", \"samples\": 800, \"seed\": 5, \"islands\": 4}",
    ];
    let run_all = |addr: SocketAddr| -> Vec<json::Value> {
        lines.iter().map(|line| request(addr, line)).collect()
    };

    let run_fleet = |worker_count: usize| -> Vec<json::Value> {
        let (coordinator, addr, workers) = boot_fleet(None, &vec![0; worker_count]);
        let v = run_all(addr);
        for w in workers {
            w.kill();
        }
        coordinator.kill();
        v
    };
    let two_workers = run_fleet(2);
    let three_workers = run_fleet(3);

    let standalone_daemon = serve(ServeConfig {
        role: ServeRole::Standalone,
        ..coordinator_config(None)
    })
    .expect("bind standalone");
    let standalone = run_all(standalone_daemon.local_addr());
    standalone_daemon.kill();

    for v in two_workers.iter().chain(&three_workers).chain(&standalone) {
        assert_ok(v);
        assert_eq!(u64_field(v, "islands"), 4);
        assert!(v.get("mapping").and_then(json::Value::as_str).is_some());
    }
    assert!(u64_field(&two_workers[1], "cache_hits") > 0, "gamma islands never revisited");
    for (label, runs) in [("3 workers", &three_workers), ("standalone", &standalone)] {
        for (base, v) in two_workers.iter().zip(runs) {
            assert_eq!(
                base.get("score").and_then(json::Value::as_f64),
                v.get("score").and_then(json::Value::as_f64),
                "score diverged on {label}"
            );
            assert_eq!(
                base.get("mapping").and_then(json::Value::as_str),
                v.get("mapping").and_then(json::Value::as_str),
                "mapping diverged on {label}"
            );
            assert_eq!(
                u64_field(base, "evaluated"),
                u64_field(v, "evaluated"),
                "evaluation accounting diverged on {label}"
            );
            assert_eq!(
                u64_field(base, "cache_hits"),
                u64_field(v, "cache_hits"),
                "cache hits diverged on {label}"
            );
        }
    }
}
