//! Integration tests for the warm-start store wired through the daemon.
//!
//! The acceptance bar: a completed search deposits its incumbent and a
//! later similar search reports a warm hit; a corrupt (even adversarial)
//! store can lower the hit rate but never changes search results or
//! crashes the daemon; `"auto"` resolves to a concrete bandit arm
//! deterministically; island searches with warm seeds merge to the same
//! incumbent on every fleet topology; and sweeps deposit into the store
//! without perturbing their byte-identical checkpoints.

use arch::Arch;
use costmodel::{guarded_engine, GuardPolicy};
use mappers::{Budget, Gamma, Mapper};
use mse::json;
use mse::{samples_to_reach, Mse};
use mse::{serve, FleetConfig, ServeConfig, ServeRole, ServerHandle, SweepCheckpoint, WarmStore};
use problem::Problem;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

const PROBLEM: &str = "GEMM;g;B=2,M=32,K=32,N=32";
/// One dim bound away from [`PROBLEM`]: edit distance 1, well inside the
/// recall radius, so it warm-starts from `PROBLEM`'s incumbent.
const NEIGHBOR: &str = "GEMM;h;B=2,M=48,K=32,N=32";

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mse-store-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config(store: Option<&Path>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        fault_injection: true,
        eval: mse::EvalConfig { threads: 1, cache_capacity: 1 << 12 },
        store: store.map(Path::to_path_buf),
        ..ServeConfig::default()
    }
}

fn request(addr: SocketAddr, line: &str) -> json::Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
    stream.write_all(line.as_bytes()).and_then(|()| stream.write_all(b"\n")).expect("send");
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).expect("receive");
    assert!(!resp.trim().is_empty(), "connection closed without a response to: {line}");
    json::parse(&resp).unwrap_or_else(|e| panic!("bad response JSON ({e}): {resp}"))
}

fn assert_ok(v: &json::Value) {
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true), "{}", v.to_text());
}

fn search_line(id: usize, problem: &str, mapper: &str, samples: usize, seed: u64) -> String {
    format!(
        "{{\"id\": {id}, \"op\": \"search\", \"problem\": \"{problem}\", \
         \"mapper\": \"{mapper}\", \"samples\": {samples}, \"seed\": {seed}}}"
    )
}

fn store_stat(v: &json::Value, key: &str) -> u64 {
    v.get("store")
        .and_then(|s| s.get(key))
        .and_then(json::Value::as_u64)
        .unwrap_or_else(|| panic!("missing store.{key}: {}", v.to_text()))
}

/// Deposit → similar search warm-starts; `stats` and `health` surface the
/// store counters end to end.
#[test]
fn deposit_then_similar_search_reports_warm_hit() {
    let dir = scratch("warmhit");
    let store_path = dir.join("warm.store");
    let h = serve(config(Some(&store_path))).expect("bind daemon");
    let addr = h.local_addr();

    // Cold: the store is empty, so no warm start — and the response says so.
    let first = request(addr, &search_line(1, PROBLEM, "gamma", 300, 7));
    assert_ok(&first);
    assert_eq!(
        first.get("warm_start").and_then(json::Value::as_bool),
        Some(false),
        "{}",
        first.to_text()
    );

    // The finished search deposited; a neighbor layer now warm-starts.
    let second = request(addr, &search_line(2, NEIGHBOR, "gamma", 300, 7));
    assert_ok(&second);
    assert_eq!(
        second.get("warm_start").and_then(json::Value::as_bool),
        Some(true),
        "{}",
        second.to_text()
    );
    assert_eq!(
        second.get("warm_distance").and_then(json::Value::as_u64),
        Some(1),
        "one dim bound differs: {}",
        second.to_text()
    );

    // stats carries the full store block; health the same.
    let stats = request(addr, "{\"id\": 3, \"op\": \"stats\"}");
    assert_ok(&stats);
    assert_eq!(store_stat(&stats, "deposits"), 2, "{}", stats.to_text());
    assert_eq!(store_stat(&stats, "hits"), 1, "{}", stats.to_text());
    assert_eq!(store_stat(&stats, "misses"), 1, "{}", stats.to_text());
    assert_eq!(store_stat(&stats, "quarantined"), 0, "{}", stats.to_text());
    let rate = stats
        .get("store")
        .and_then(|s| s.get("hit_rate"))
        .and_then(json::Value::as_f64)
        .expect("hit_rate");
    assert!((rate - 0.5).abs() < 1e-9, "1 hit / 2 recalls: {}", stats.to_text());
    let health = request(addr, "{\"id\": 4, \"op\": \"health\"}");
    assert_ok(&health);
    assert!(store_stat(&health, "entries") >= 2, "{}", health.to_text());

    h.drain();
    h.join();
    // The store survives the daemon: a fresh process sees both deposits.
    assert_eq!(WarmStore::open(&store_path).expect("reopen").len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store full of garbage — or of adversarially crafted valid-looking
/// records — never changes what a search returns: results are bit-identical
/// to a daemon with no store at all, and damage is quarantined, not fatal.
#[test]
fn corrupt_store_never_changes_search_results() {
    // Ground truth: no store at all.
    let bare = serve(config(None)).expect("bind bare daemon");
    let baseline = request(bare.local_addr(), &search_line(1, PROBLEM, "gamma", 300, 11));
    assert_ok(&baseline);
    bare.kill();

    let dir = scratch("corrupt");
    // Case 1: pure garbage bytes.
    let garbage = dir.join("garbage.store");
    std::fs::write(&garbage, b"\x00\xffnot a store\nws1 deadbeef half a rec").unwrap();
    // Case 2: a CRC-clean, parseable record whose mapping cannot be made
    // legal for this arch — one memory level where the arch has several.
    // Tile inflation would be healed by `scale_to`'s capacity repair, but a
    // wrong level count survives rescaling and must be quarantined at the
    // re-validation gate.
    let poisoned = dir.join("poisoned.store");
    {
        let arch = Arch::accel_b();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        let store = WarmStore::open(&poisoned).unwrap();
        let donor = problem::codec::from_spec("GEMM;d;B=2,M=32,K=32,N=32").unwrap();
        let m = mapping::Mapping::unit(1, donor.num_dims());
        store.deposit(fp, &donor, &m, "gamma", 1.0, 1).unwrap();
    }

    for (label, path) in [("garbage", &garbage), ("poisoned", &poisoned)] {
        let h = serve(config(Some(path))).expect("bind daemon with damaged store");
        let addr = h.local_addr();
        let v = request(addr, &search_line(1, PROBLEM, "gamma", 300, 11));
        assert_ok(&v);
        assert_eq!(
            v.get("warm_start").and_then(json::Value::as_bool),
            Some(false),
            "{label}: nothing in this store may seed a search: {}",
            v.to_text()
        );
        assert_eq!(
            v.get("score").and_then(json::Value::as_f64),
            baseline.get("score").and_then(json::Value::as_f64),
            "{label} store changed the score"
        );
        assert_eq!(
            v.get("mapping").and_then(json::Value::as_str),
            baseline.get("mapping").and_then(json::Value::as_str),
            "{label} store changed the mapping"
        );
        let stats = request(addr, "{\"id\": 2, \"op\": \"stats\"}");
        assert!(
            store_stat(&stats, "quarantined") >= 1,
            "{label}: damage is counted, never silent: {}",
            stats.to_text()
        );
        h.drain();
        h.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `"auto"` is a virtual mapper: the daemon resolves it through the bandit
/// (deterministically — an empty store always yields the first arm) and
/// reports the resolved name. Sweeps refuse it: their checkpoints must be
/// replayable without consulting a store.
#[test]
fn auto_mapper_resolves_deterministically() {
    let dir = scratch("auto");
    let h = serve(config(Some(&dir.join("warm.store")))).expect("bind daemon");
    let addr = h.local_addr();
    let v = request(addr, &search_line(1, PROBLEM, "auto", 200, 3));
    assert_ok(&v);
    let resolved = v.get("mapper").and_then(json::Value::as_str).expect("resolved mapper");
    assert_eq!(resolved, mse::BANDIT_ARMS[0], "empty store explores the first arm");

    // With history, the choice is still a pure function of store contents:
    // the same request resolves to some arm, never an error.
    let again = request(addr, &search_line(2, PROBLEM, "auto", 200, 3));
    assert_ok(&again);
    let arm = again.get("mapper").and_then(json::Value::as_str).expect("resolved mapper");
    assert!(mse::BANDIT_ARMS.contains(&arm), "unknown arm {arm}");

    let sweep = request(
        addr,
        &format!(
            "{{\"id\": 3, \"op\": \"sweep\", \"layers\": [\"{PROBLEM}\"], \
             \"mapper\": \"auto\", \"samples\": 100}}"
        ),
    );
    assert_eq!(sweep.get("ok").and_then(json::Value::as_bool), Some(false), "{}", sweep.to_text());

    h.drain();
    h.join();
    let _ = std::fs::remove_dir_all(&dir);

    // Without a store, "auto" still works (fixed fallback arm) rather than
    // failing requests that worked yesterday.
    let bare = serve(config(None)).expect("bind bare daemon");
    let v = request(bare.local_addr(), &search_line(4, PROBLEM, "auto", 200, 3));
    assert_ok(&v);
    assert_eq!(v.get("mapper").and_then(json::Value::as_str), Some(mse::BANDIT_ARMS[0]));
    bare.kill();
}

// ---------------------------------------------------------------------------
// Fleet topology invariance with the store enabled
// ---------------------------------------------------------------------------

fn fast_fleet() -> FleetConfig {
    FleetConfig {
        heartbeat_ms: 100,
        lease_ms: 500,
        steal_after_ms: 10_000,
        shard_slots: 2,
        reconnect_max_ms: 300,
        shard_retries: 2,
        shard_delay_ms: 0,
    }
}

fn boot_fleet(store: &Path, workers: usize) -> (ServerHandle, SocketAddr, Vec<ServerHandle>) {
    let coordinator = serve(ServeConfig {
        role: ServeRole::Coordinator,
        fleet: fast_fleet(),
        ..config(Some(store))
    })
    .expect("bind coordinator");
    let addr = coordinator.local_addr();
    let workers: Vec<ServerHandle> = (0..workers)
        .map(|_| {
            serve(ServeConfig {
                role: ServeRole::Worker { coordinator: addr.to_string() },
                fleet: fast_fleet(),
                ..config(None) // workers never open a store
            })
            .expect("bind worker")
        })
        .collect();
    for _ in 0..400 {
        let v = request(addr, "{\"id\": 0, \"op\": \"health\"}");
        if v.get("workers_connected").and_then(json::Value::as_u64) == Some(workers.len() as u64)
        {
            return (coordinator, addr, workers);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("workers never registered");
}

/// Island search with a warm seed riding the shard payload: the same
/// pre-populated store yields the same incumbent, score, and evaluation
/// count on every topology — standalone, 1 worker, 2 workers. The warm
/// seed is resolved once, coordinator-side, so resharding cannot lose or
/// change it.
#[test]
fn island_search_with_warm_seed_is_topology_invariant() {
    let dir = scratch("islands");
    // One canonical store, copied per run so every topology queries (and
    // deposits into) identical bytes.
    let canonical = dir.join("canonical.store");
    {
        let arch = Arch::accel_b();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        let store = WarmStore::open(&canonical).unwrap();
        let donor = problem::codec::from_spec(PROBLEM).unwrap();
        let m = mapping::Mapping::trivial(&donor, &arch);
        store.deposit(fp, &donor, &m, "gamma", 500.0, 10).unwrap();
    }
    let line = format!(
        "{{\"id\": 1, \"op\": \"search\", \"problem\": \"{NEIGHBOR}\", \
         \"mapper\": \"gamma\", \"samples\": 240, \"seed\": 5, \"islands\": 4}}"
    );

    let run = |tag: &str, workers: usize| -> json::Value {
        let store = dir.join(format!("{tag}.store"));
        std::fs::copy(&canonical, &store).expect("copy store");
        if workers == 0 {
            let h = serve(config(Some(&store))).expect("bind standalone");
            let v = request(h.local_addr(), &line);
            h.kill();
            v
        } else {
            let (coordinator, addr, worker_handles) = boot_fleet(&store, workers);
            let v = request(addr, &line);
            for w in worker_handles {
                w.kill();
            }
            coordinator.kill();
            v
        }
    };

    let standalone = run("standalone", 0);
    let one = run("one", 1);
    let two = run("two", 2);
    for v in [&standalone, &one, &two] {
        assert_ok(v);
        assert_eq!(
            v.get("warm_start").and_then(json::Value::as_bool),
            Some(true),
            "{}",
            v.to_text()
        );
    }
    for (label, v) in [("1 worker", &one), ("2 workers", &two)] {
        assert_eq!(
            standalone.get("score").and_then(json::Value::as_f64),
            v.get("score").and_then(json::Value::as_f64),
            "score diverged on {label}"
        );
        assert_eq!(
            standalone.get("mapping").and_then(json::Value::as_str),
            v.get("mapping").and_then(json::Value::as_str),
            "mapping diverged on {label}"
        );
        assert_eq!(
            standalone.get("evaluated").and_then(json::Value::as_u64),
            v.get("evaluated").and_then(json::Value::as_u64),
            "evaluation accounting diverged on {label}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sweeps deposit their per-layer incumbents but never *read* the store
/// (resume must re-derive the exact original shards), so a sweep's
/// checkpoint is byte-identical with and without a store.
#[test]
fn sweep_deposits_without_perturbing_checkpoints() {
    let layers: Vec<String> =
        (0..3).map(|i| format!("GEMM;l{i};B=2,M=16,K={},N=16", 16 + 8 * i)).collect();
    let quoted: Vec<String> = layers.iter().map(|l| json::escape(l)).collect();
    let line = format!(
        "{{\"id\": 1, \"op\": \"sweep\", \"layers\": [{}], \"mapper\": \"random\", \
         \"samples\": 120, \"seed\": 9, \"checkpoint\": \"sweep.ckpt\"}}",
        quoted.join(", ")
    );

    let run = |store: Option<&Path>, tag: &str| -> (Vec<u8>, PathBuf) {
        let dir = scratch(tag);
        let h = serve(ServeConfig {
            checkpoint_dir: Some(dir.clone()),
            ..config(store)
        })
        .expect("bind daemon");
        let v = request(h.local_addr(), &line);
        assert_ok(&v);
        h.drain();
        h.join();
        (std::fs::read(dir.join("sweep.ckpt")).expect("checkpoint"), dir)
    };

    let (cold_bytes, cold_dir) = run(None, "sweep-cold");
    let store_dir = scratch("sweep-store");
    let store_path = store_dir.join("warm.store");
    let (warm_bytes, warm_dir) = run(Some(&store_path), "sweep-warm");
    assert_eq!(cold_bytes, warm_bytes, "store changed the sweep checkpoint");

    // ...and every layer's incumbent was deposited for future searches.
    let store = WarmStore::open(&store_path).expect("reopen store");
    assert_eq!(store.len(), layers.len(), "one deposit per layer");
    // Sanity: the checkpoint both runs wrote parses.
    SweepCheckpoint::load(&cold_dir.join("sweep.ckpt")).expect("checkpoint parses");
    for d in [cold_dir, warm_dir, store_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

// ---------------------------------------------------------------------------
// Measured warm-start win (the number EXPERIMENTS.md reports)
// ---------------------------------------------------------------------------

/// The paper's §5.1 claim, replayed through the store's exact recall path:
/// seeding a neighbor layer's search with a rescaled prior reaches the cold
/// run's incumbent cost in fewer evaluations. Printed ratio feeds
/// EXPERIMENTS.md (run with `--nocapture` to see it).
#[test]
fn warm_start_reaches_cold_incumbent_in_fewer_samples() {
    let arch = Arch::accel_b();
    let donor = problem::codec::from_spec(PROBLEM).unwrap();
    let target_problem = problem::codec::from_spec(NEIGHBOR).unwrap();
    let guarded = |p: &Problem| guarded_engine(p, &arch, None, GuardPolicy::Reject);

    // The prior: a finished search on the donor layer (what a deposit holds).
    let donor_model = guarded(&donor);
    let donor_result =
        Mse::new(&donor_model).run(&Gamma::new(), Budget::samples(400), 17);
    let (prior, _) = donor_result.best.clone().expect("donor incumbent");

    // Cold vs warm on the neighbor, same seed and budget.
    let model = guarded(&target_problem);
    let mse = Mse::new(&model);
    let cold = mse.run(&Gamma::new(), Budget::samples(400), 23);
    let scaled = prior
        .scale_to(&donor, &target_problem, &arch)
        .expect("prior rescales to the neighbor");
    assert!(scaled.is_legal(&target_problem, &arch), "rescaled prior is legal");
    let mut warm_mapper = Gamma::new();
    warm_mapper.set_seeds(vec![scaled]);
    let warm = mse.run(&warm_mapper, Budget::samples(400), 23);

    // Common target both runs reached: the worse of the two finals.
    let target = cold.best_score.max(warm.best_score);
    let cold_samples = samples_to_reach(&cold, target).expect("cold reaches its own final");
    let warm_samples = samples_to_reach(&warm, target).expect("warm reaches the target");
    assert!(
        warm_samples <= cold_samples,
        "warm start took more samples ({warm_samples}) than cold ({cold_samples})"
    );
    assert!(
        warm.best_score <= cold.best_score * (1.0 + 1e-9),
        "warm start degraded final quality: {} vs {}",
        warm.best_score,
        cold.best_score
    );
    println!(
        "warm-start speedup: cold {cold_samples} samples vs warm {warm_samples} \
         to reach EDP {target:.4e} — {:.1}x fewer evaluations",
        cold_samples as f64 / warm_samples as f64
    );
}
