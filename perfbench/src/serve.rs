//! `serve_mix`: the `mapex serve` daemon at its defaults plus `--store`,
//! driven by one client (one connection, one sender and one receiver
//! thread) with an open loop of seeded Poisson arrivals.
//!
//! [`EVALUATE_SHARE`] of the requests are `evaluate` requests on mappings
//! the search stack returned (the read path: parse → model build → one
//! guarded evaluation → render, no store write); the rest are small
//! `search` requests, some with `mapper: auto`, so the bandit, store recall
//! and the fsync'd deposit are on the path; every [`STATS_EVERY`]th
//! request is a `stats`. Each request is timed from the instant it was
//! due.

use crate::data::{Data, Digest};
use crate::search::{self, policy, recost, Outcome};
use crate::stats::{self, Metrics};
use crate::trace::{self, Aggregate};
use crate::workload::{rng_for, Config, Key, SearchRequest};
use mse::json;
use mse::{EvalCache, EvalPool, WarmStore};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests per second: about a quarter of the closed-loop
/// capacity measured with `--rate 0` on a 2-core x86-64 VM. At half the
/// capacity the VM's CPU steal moved the median latency by 2x from run
/// to run (see the README).
pub const RATE: f64 = 25.0;
/// `goodput_frac` counts requests answered `ok` within this limit.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Samples per `search` request.
pub const SEARCH_SAMPLES: usize = 400;
/// Share of non-`stats` requests that are `evaluate` requests. Reads
/// (under a millisecond) and searches (milliseconds to tens of
/// milliseconds) form two latency clusters; at an even split the median
/// falls in the gap between them and jumps from run to run, so reads are
/// slightly fewer than half and the median lands among the fast searches.
pub const EVALUATE_SHARE: f64 = 0.4;
/// Every this many requests, one is a `stats` request.
pub const STATS_EVERY: usize = 20;
/// Records in the seeded store log.
pub const STORE_RECORDS: usize = 48;
/// A generator later than this behind a request's due time invalidates
/// the run: it can no longer tell whether the daemon met the limit.
pub const MAX_LAG_MS: f64 = LATENCY_LIMIT_MS;
/// Search requests the traced run replays in-process.
const REPLAY_SEARCHES: usize = 200;
/// Daemon starts timed before the measured run and again after it (plus
/// the measured run's own start); `setup_s` is their median.
const SETUP_REPS_EACH_SIDE: usize = 3;
/// Mappers of `search` requests; `auto` resolves through the store's
/// bandit.
const SEARCH_MAPPERS: [&str; 4] = ["auto", "gamma", "annealing", "cem"];

pub struct Setup {
    pub mapex: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Requests per second; 0 runs a closed loop (one request in flight).
    pub rate: f64,
}

/// One generated request.
#[derive(Debug, Clone)]
enum Kind {
    /// An `evaluate` of a checked-in search result.
    Evaluate {
        config: Config,
        seed: u64,
    },
    Search {
        mapper: &'static str,
        key: Key,
        seed: u64,
    },
    Stats,
}

#[derive(Debug, Clone)]
struct Request {
    due: Duration,
    kind: Kind,
    line: String,
}

fn key_fields(key: &Key) -> String {
    let mut s = format!(
        "\"problem\": {}, \"arch\": {}",
        json::escape(&problem::codec::to_spec(&key.problem())),
        json::escape(crate::workload::ARCH_NAMES[key.arch])
    );
    if let Some(d) = key.density() {
        s.push_str(&format!(
            ", \"weight_density\": {}, \"input_density\": {}",
            json::num(d.weight),
            json::num(d.input)
        ));
    }
    s
}

/// The request stream: a fixed multiset of requests and of inter-arrival
/// gaps, put in an order drawn from the seed, so every seed offers the
/// same work and load and only the order (and so the bursts) varies.
/// `rate × seconds` requests (closed loop: 4 per second of `--seconds`);
/// every [`STATS_EVERY`]th is `stats`; of the rest, [`EVALUATE_SHARE`] are
/// `evaluate`s cycling over the checked-in `search_mix` results, and the
/// searches cycle evenly over mappers, keys and mapper seeds 0..4. The
/// gaps are the exponential distribution's quantiles at (i + ½)/n: a
/// stratified sample of Poisson inter-arrival times at `rate`.
fn requests(data: &Data, seed: u64, seconds: u64, rate: f64) -> Vec<Request> {
    let mut rng = rng_for("serve_mix", seed, 1);
    let configs = crate::workload::SearchWorkload::Mix.configs();
    let mut pool: Vec<(Config, u64)> = configs
        .iter()
        .flat_map(|c| (0..crate::workload::VARIANTS).map(move |s| (*c, s)))
        .collect();
    pool.shuffle(&mut rng);
    let n = if rate > 0.0 {
        (rate * seconds as f64).round() as usize
    } else {
        4 * seconds as usize
    };
    let m = n - n / STATS_EVERY;
    let n_eval = (m as f64 * EVALUATE_SHARE).round() as usize;
    let keys = Key::all();
    let mut kinds: Vec<Kind> = (0..n_eval)
        .map(|j| {
            let (config, seed) = pool[j % pool.len()];
            Kind::Evaluate { config, seed }
        })
        .chain((0..m - n_eval).map(|j| Kind::Search {
            mapper: SEARCH_MAPPERS[j % SEARCH_MAPPERS.len()],
            key: keys[(j / SEARCH_MAPPERS.len()) % keys.len()],
            seed: ((j / (SEARCH_MAPPERS.len() * keys.len())) % 4) as u64,
        }))
        .collect();
    kinds.shuffle(&mut rng);
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| {
            if rate > 0.0 {
                -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate
            } else {
                0.0
            }
        })
        .collect();
    gaps.shuffle(&mut rng);
    let mut kinds = kinds.into_iter();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for (i, gap) in gaps.into_iter().enumerate() {
        t += gap;
        let kind = if i % STATS_EVERY == STATS_EVERY - 1 {
            Kind::Stats
        } else {
            kinds.next().expect("one kind per non-stats request")
        };
        let line = match &kind {
            Kind::Stats => format!("{{\"id\": {i}, \"op\": \"stats\"}}"),
            Kind::Evaluate { config, seed } => format!(
                "{{\"id\": {i}, \"op\": \"evaluate\", {}, \"mapping\": {}}}",
                key_fields(&config.key),
                json::escape(&data.expected(config, *seed).expect("pool entry").mapping)
            ),
            Kind::Search { mapper, key, seed } => format!(
                "{{\"id\": {i}, \"op\": \"search\", {}, \"mapper\": \"{mapper}\", \"samples\": {SEARCH_SAMPLES}, \"seed\": {seed}}}",
                key_fields(key)
            ),
        };
        out.push(Request {
            due: Duration::from_secs_f64(t),
            kind,
            line,
        });
    }
    out
}

/// Writes the seeded store log: [`STORE_RECORDS`] checked-in search
/// results chosen by the seed.
fn seed_store(data: &Data, seed: u64, path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let store = WarmStore::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    seed_records(data, seed, &store)
}

fn seed_records(data: &Data, seed: u64, store: &WarmStore) -> Result<(), String> {
    let mut rng = rng_for("serve_mix", seed, 2);
    let configs = crate::workload::SearchWorkload::Mix.configs();
    for _ in 0..STORE_RECORDS {
        let config = *configs.choose(&mut rng).expect("configs");
        let s = rng.gen_range(0..crate::workload::VARIANTS);
        let e = data
            .expected(&config, s)
            .ok_or("missing checked-in result")?;
        let key = config.key;
        let m = mapping::codec::from_spec(&e.mapping).map_err(|e| e.to_string())?;
        let fp = WarmStore::arch_fingerprint(&key.arch(), key.density().as_ref());
        store
            .deposit(
                fp,
                &key.problem(),
                &m,
                config.mapper,
                e.score,
                config.samples as u64,
            )
            .map_err(|e| format!("seeding store: {e}"))?;
    }
    Ok(())
}

/// A running daemon and the address it listens on.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open so the daemon's closing `drained` line has a reader.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    /// Starts `mapex serve` on a copy of the seeded store and waits for
    /// its `listening on` line; returns the daemon and the time it took.
    fn start(mapex: &Path, seeded: &Path, store: &Path) -> Result<(Daemon, f64), String> {
        std::fs::copy(seeded, store).map_err(|e| format!("copying store: {e}"))?;
        let t = Instant::now();
        let mut child = Command::new(mapex)
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", mapex.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let elapsed = t.elapsed().as_secs_f64();
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok((daemon, elapsed))
            }
            _ => {
                daemon.stop();
                Err(format!(
                    "daemon did not report its address (got `{}`)",
                    line.trim()
                ))
            }
        }
    }

    /// SIGTERM (drain), then wait; SIGKILL after 30 s.
    fn stop(&mut self) {
        let pid = self.child.id().to_string();
        let _ = Command::new("kill").args(["-TERM", &pid]).status();
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    /// A daemon left running by an early return or a panic is killed.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One answered request.
struct Answer {
    latency_ms: f64,
    doc: Option<json::Value>,
}

/// Drives the request stream over one connection and collects answers
/// (indexed by request id) and the generator's maximum lag.
fn drive(
    addr: &str,
    reqs: &[Request],
    closed: bool,
) -> Result<(Vec<Option<Answer>>, f64, f64), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let n = reqs.len();
    let (ack_tx, ack_rx) = mpsc::channel::<()>();
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut answers: Vec<Option<Answer>> = (0..n).map(|_| None).collect();
            let mut lines = BufReader::new(reader).lines();
            let mut got = 0;
            let mut last = start;
            // A closed loop sends each request when the previous answer
            // arrives, so that is when it was due.
            let mut previous = start;
            while got < n {
                let Some(Ok(line)) = lines.next() else { break };
                let now = Instant::now();
                last = now;
                let doc = json::parse(&line).ok();
                let Some(id) = doc
                    .as_ref()
                    .and_then(|d| d.get("id"))
                    .and_then(json::Value::as_usize)
                else {
                    continue;
                };
                if id < n && answers[id].is_none() {
                    let due = if closed {
                        previous
                    } else {
                        start + reqs[id].due
                    };
                    previous = now;
                    let latency_ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                    answers[id] = Some(Answer { latency_ms, doc });
                    got += 1;
                    if closed {
                        let _ = ack_tx.send(());
                    }
                }
            }
            (answers, last)
        });
        let mut writer = stream;
        let mut lag_max = 0.0f64;
        for (i, r) in reqs.iter().enumerate() {
            if closed && i > 0 {
                if ack_rx.recv_timeout(Duration::from_secs(60)).is_err() {
                    break;
                }
            } else if let Some(wait) = (start + r.due).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            if !closed {
                lag_max =
                    lag_max.max(now.saturating_duration_since(start + r.due).as_secs_f64() * 1e3);
            }
            if writer
                .write_all(format!("{}\n", r.line).as_bytes())
                .is_err()
            {
                break;
            }
        }
        let (answers, last) = receiver.join().expect("receiver thread panicked");
        let wall = last.saturating_duration_since(start).as_secs_f64();
        Ok((answers, lag_max, wall))
    })
}

fn f64_field(doc: &json::Value, key: &str) -> Option<f64> {
    doc.get(key).and_then(json::Value::as_f64)
}

/// Runs one `serve_mix` stream against the daemon and returns every search
/// result (key, best mapping, score). Used by `perfbench regen`, so the
/// reference EDPs cover what the daemon's store-seeded searches reach,
/// including the warm starts that only its concurrent workers produce.
pub(crate) fn collect_searches(
    s: &Setup,
    data: &Data,
) -> Result<Vec<(Key, crate::data::Expected)>, String> {
    let dir = s.work.join(format!("regen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let seeded = dir.join("seed.store");
    let out = seed_store(data, s.seed, &seeded).and_then(|()| {
        let reqs = requests(data, s.seed, s.seconds, s.rate);
        let (mut daemon, _) = Daemon::start(&s.mapex, &seeded, &dir.join("run.store"))?;
        let driven = drive(&daemon.addr, &reqs, false);
        daemon.stop();
        let (answers, _, _) = driven?;
        let mut found = Vec::new();
        for (r, a) in reqs.iter().zip(&answers) {
            let (Kind::Search { key, .. }, Some(doc)) =
                (&r.kind, a.as_ref().and_then(|a| a.doc.as_ref()))
            else {
                continue;
            };
            if let (Some(score), Some(m)) = (
                f64_field(doc, "score"),
                doc.get("mapping").and_then(json::Value::as_str),
            ) {
                found.push((
                    *key,
                    crate::data::Expected {
                        score,
                        mapping: m.to_string(),
                    },
                ));
            }
        }
        Ok(found)
    });
    let _ = std::fs::remove_dir_all(&dir);
    out
}

pub fn run(s: &Setup, data: &Data) -> Result<(Metrics, usize, usize, bool), String> {
    let dir = s.work.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = run_in(s, data, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(s: &Setup, data: &Data, dir: &Path) -> Result<(Metrics, usize, usize, bool), String> {
    let seeded = dir.join("seed.store");
    seed_store(data, s.seed, &seeded)?;
    let reqs = requests(data, s.seed, s.seconds, s.rate);
    let store = dir.join("run.store");
    let mut setup_times = Vec::new();
    let timed_starts = |times: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPS_EACH_SIDE {
            let (mut d, t) = Daemon::start(&s.mapex, &seeded, &dir.join("setup.store"))?;
            times.push(t);
            d.stop();
        }
        Ok(())
    };
    let ticks = stats::cpu_ticks();
    timed_starts(&mut setup_times)?;
    let (mut daemon, t) = Daemon::start(&s.mapex, &seeded, &store)?;
    setup_times.push(t);
    let driven = drive(&daemon.addr, &reqs, s.rate <= 0.0);
    let final_stats = driven
        .as_ref()
        .ok()
        .and_then(|_| request_once(&daemon.addr, "{\"id\": \"final\", \"op\": \"stats\"}"));
    let rss = stats::peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(0.0);
    daemon.stop();
    let (answers, lag_max, wall) = driven?;
    timed_starts(&mut setup_times)?;
    println!(
        "cpu steal        : {:.1}% of CPU time during the run",
        100.0 * stats::steal_since(ticks)
    );

    let mut problems = Vec::new();
    let mut failed = 0usize;
    let mut lat = Vec::new();
    let mut read_lat = Vec::new();
    let mut search_lat = Vec::new();
    let mut gaps = Vec::new();
    let mut good = 0usize;
    let mut evals = 0u64;
    let mut queue_depths = Vec::new();
    let mut got = Digest::default();
    let mut want = Digest::default();
    let mut search_results: Vec<(SearchRequest, mapping::Mapping, f64)> = Vec::new();
    let mut log = String::from("id,op,mapper,key,latency_ms\n");
    for (i, (r, a)) in reqs.iter().zip(&answers).enumerate() {
        if let Some(a) = a {
            let (op, mapper, key) = match &r.kind {
                Kind::Stats => ("stats", "", String::new()),
                Kind::Evaluate { config, .. } => ("evaluate", "", config.key.label()),
                Kind::Search { mapper, key, .. } => {
                    let resolved = a
                        .doc
                        .as_ref()
                        .and_then(|d| d.get("mapper"))
                        .and_then(json::Value::as_str);
                    ("search", resolved.map_or(*mapper, static_arm), key.label())
                }
            };
            log.push_str(&format!("{i},{op},{mapper},{key},{:.3}\n", a.latency_ms));
        }
        let Some(a) = a else {
            failed += 1;
            continue;
        };
        let doc = a.doc.as_ref();
        let ok = doc.and_then(|d| d.get("ok")).and_then(json::Value::as_bool) == Some(true)
            && doc
                .and_then(|d| d.get("degraded"))
                .and_then(json::Value::as_bool)
                != Some(true);
        if !ok {
            failed += 1;
            if !matches!(r.kind, Kind::Stats) {
                lat.push(a.latency_ms);
            }
            continue;
        }
        let doc = doc.expect("ok implies a document");
        match &r.kind {
            Kind::Stats => {
                if let Some(q) = f64_field(doc, "queue_depth") {
                    queue_depths.push(q);
                }
                continue;
            }
            Kind::Evaluate { config, seed } => {
                read_lat.push(a.latency_ms);
                evals += 1;
                let e = data.expected(config, *seed).expect("pool entry");
                let score = f64_field(doc, "score").unwrap_or(f64::NAN);
                let label = format!("{}#{seed}", config.label());
                got.add(&label, &e.mapping, score);
                want.add(&label, &e.mapping, e.score);
                if score.to_bits() != e.score.to_bits() {
                    problems.push(format!(
                        "evaluate {label}: score {score:e} != checked-in {:e}",
                        e.score
                    ));
                }
            }
            Kind::Search { mapper, key, seed } => {
                search_lat.push(a.latency_ms);
                evals += doc
                    .get("evaluated")
                    .and_then(json::Value::as_u64)
                    .unwrap_or(0);
                let score = f64_field(doc, "score").unwrap_or(f64::NAN);
                let spec = doc
                    .get("mapping")
                    .and_then(json::Value::as_str)
                    .unwrap_or("");
                match mapping::codec::from_spec(spec) {
                    Ok(m) => {
                        if recost(key, &m).map(f64::to_bits) != Some(score.to_bits()) {
                            problems
                                .push(format!("search {}: score does not re-cost", key.label()));
                        }
                        let resolved = doc.get("mapper").and_then(json::Value::as_str);
                        let mapper = match (*mapper, resolved) {
                            ("auto", Some(arm)) => static_arm(arm),
                            (m, _) => m,
                        };
                        let config = Config {
                            mapper,
                            key: *key,
                            samples: SEARCH_SAMPLES,
                        };
                        search_results.push((
                            SearchRequest {
                                config,
                                seed: *seed,
                                round: 0,
                            },
                            m,
                            score,
                        ));
                    }
                    Err(e) => problems.push(format!("search {}: bad mapping: {e}", key.label())),
                }
                match data.reference(key) {
                    Some(rf) if score / rf >= 1.0 => gaps.push(score / rf),
                    rf => problems.push(format!(
                        "search {}: EDP {score:e} below reference {rf:?}",
                        key.label()
                    )),
                }
            }
        }
        lat.push(a.latency_ms);
        if a.latency_ms <= LATENCY_LIMIT_MS {
            good += 1;
        }
    }
    let log_path = s.work.join("requests-serve_mix.csv");
    if let Err(e) = std::fs::write(&log_path, log) {
        problems.push(format!("writing {}: {e}", log_path.display()));
    }
    if got != want {
        problems.push(format!("digest {} != expected {}", got.hex(), want.hex()));
    }
    if s.rate > 0.0 && lag_max > MAX_LAG_MS {
        problems.push(format!(
            "load generator fell {lag_max:.1} ms behind: run invalid"
        ));
    }
    let answered_reqs = reqs
        .iter()
        .filter(|r| !matches!(r.kind, Kind::Stats))
        .count();
    let (tail, pct, n) = stats::tail(&lat);
    println!(
        "workload         : serve_mix ({} requests at {} req/s, {} searches)",
        reqs.len(),
        s.rate,
        search_results.len()
    );
    println!(
        "digest           : {} (expected {}, evaluate responses)",
        got.hex(),
        want.hex()
    );
    println!("latency_ms_tail  : p{pct:.2} of {n} samples (10 beyond it)");
    println!("loadgen lag max  : {lag_max:.3} ms");
    println!(
        "latency by op    : evaluate p50 {:.3} p90 {:.3} ms; search p10 {:.3} p50 {:.3} p90 {:.3} ms",
        stats::quantile(&read_lat, 0.5),
        stats::quantile(&read_lat, 0.9),
        stats::quantile(&search_lat, 0.1),
        stats::quantile(&search_lat, 0.5),
        stats::quantile(&search_lat, 0.9)
    );
    if s.rate <= 0.0 {
        let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
        println!(
            "closed loop      : mean latency {mean:.3} ms, capacity {:.1} req/s",
            1e3 / mean
        );
    }
    for p in &problems {
        println!("CHECK FAILED     : {p}");
    }
    let mut m = Metrics::default();
    if !s.traced {
        m.put("setup_s", stats::median(&setup_times), "s");
        m.put("evals_per_s", evals as f64 / wall, "1/s");
        m.put("latency_ms_p50", stats::median(&lat), "ms");
        m.put("latency_ms_tail", tail, "ms");
        m.put("read_latency_ms_p50", stats::median(&read_lat), "ms");
        m.put("goodput_frac", good as f64 / answered_reqs as f64, "frac");
        m.put("edp_gap_geomean", stats::geomean(&gaps), "ratio");
        m.put("ok_frac", 1.0 - failed as f64 / reqs.len() as f64, "frac");
        m.put("peak_rss_mb", rss, "MiB");
    } else {
        let store_hit_rate = final_stats
            .as_ref()
            .and_then(|d| d.get("store"))
            .and_then(|st| f64_field(st, "hit_rate"))
            .unwrap_or(0.0);
        traced_layers(
            &mut m,
            s,
            data,
            dir,
            &reqs,
            &search_results,
            &seeded,
            &mut problems,
        )?;
        m.put(
            "service.queue_depth_p90",
            stats::quantile(&queue_depths, 0.9),
            "count",
        );
        m.put("loadgen.lag_ms_max", lag_max, "ms");
        m.put("store.hit_rate", store_hit_rate, "frac");
    }
    Ok((m, reqs.len(), failed, problems.is_empty()))
}

/// Bandit arms are `'static` names; map a response's arm back to one.
fn static_arm(arm: &str) -> &'static str {
    mse::BANDIT_ARMS
        .iter()
        .copied()
        .find(|a| *a == arm)
        .unwrap_or("gamma")
}

/// Sends one request on a fresh connection and returns the parsed answer.
fn request_once(addr: &str, line: &str) -> Option<json::Value> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    s.write_all(format!("{line}\n").as_bytes()).ok()?;
    let mut answer = String::new();
    BufReader::new(s).read_line(&mut answer).ok()?;
    json::parse(&answer).ok()
}

/// The traced serve run's in-process replay: the service's parse, model
/// build and render steps on every request; warm-store open, recall and
/// deposit on a copy of the seeded store; and the search requests through
/// the traced evaluation stack with one cache per model key, as the
/// daemon keeps them.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    m: &mut Metrics,
    s: &Setup,
    data: &Data,
    dir: &Path,
    reqs: &[Request],
    results: &[(SearchRequest, mapping::Mapping, f64)],
    seeded: &Path,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let mut parse_us = Vec::new();
    let mut build_us = Vec::new();
    let mut render_us = Vec::new();
    for r in reqs {
        let key = match &r.kind {
            Kind::Stats => continue,
            Kind::Evaluate { config, .. } => config.key,
            Kind::Search { key, .. } => *key,
        };
        let t = Instant::now();
        let parsed = json::parse(&r.line)
            .ok()
            .and_then(|doc| parse_like_service(&doc));
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        if parsed.is_none() {
            problems.push(format!("replayed request does not parse: {}", r.line));
            continue;
        }
        let t = Instant::now();
        let model = key.guarded();
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
        if let Kind::Evaluate { config, seed } = &r.kind {
            let e = data.expected(config, *seed).expect("pool entry");
            let mapping = mapping::codec::from_spec(&e.mapping).map_err(|e| e.to_string())?;
            let b = costmodel::CostModel::evaluate_detailed(&model, &mapping)
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            let line = format!(
                "{{\"id\": {}, \"ok\": true, \"score\": {}, \"latency_cycles\": {}, \"energy_uj\": {}, \"lanes\": {}}}",
                0,
                json::num(b.cost.edp()),
                json::num(b.cost.latency_cycles),
                json::num(b.cost.energy_uj),
                b.lanes
            );
            render_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(line);
        }
    }
    m.put("service.parse_us", stats::median(&parse_us), "us");
    m.put("service.model_build_us", stats::median(&build_us), "us");
    m.put("service.render_us", stats::median(&render_us), "us");

    // Warm store: open, recall per search, fsync'd deposit per result.
    let copy = dir.join("replay.store");
    let mut open_ms = Vec::new();
    let mut store = None;
    for _ in 0..5 {
        drop(store.take());
        std::fs::copy(seeded, &copy).map_err(|e| e.to_string())?;
        let t = Instant::now();
        store = Some(WarmStore::open(&copy).map_err(|e| e.to_string())?);
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let store = store.expect("opened");
    let mut recall_us = Vec::new();
    let mut deposit_ms = Vec::new();
    for (req, mapping, score) in results {
        let key = req.config.key;
        let fp = WarmStore::arch_fingerprint(&key.arch(), key.density().as_ref());
        let problem = key.problem();
        let t = Instant::now();
        std::hint::black_box(store.recall(&problem, fp));
        recall_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        store
            .deposit(
                fp,
                &problem,
                mapping,
                req.config.mapper,
                *score,
                SEARCH_SAMPLES as u64,
            )
            .map_err(|e| format!("deposit: {e}"))?;
        deposit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.put("store.open_ms", stats::median(&open_ms), "ms");
    m.put("store.deposit_ms_p50", stats::median(&deposit_ms), "ms");
    m.put("store.recall_us_p50", stats::median(&recall_us), "us");

    // The first search requests in-process (no warm start; `auto` replays
    // the arm the daemon chose): untraced with per-key caches, traced with
    // fresh per-key caches, and untraced with a cache per request.
    let replay: Vec<SearchRequest> = results
        .iter()
        .take(REPLAY_SEARCHES)
        .map(|(r, _, _)| *r)
        .collect();
    let pool = EvalPool::new(policy().eval);
    let per_key = || -> BTreeMap<Key, EvalCache> {
        Key::all()
            .into_iter()
            .map(|k| (k, EvalCache::new(policy().eval.cache_capacity)))
            .collect()
    };
    let shared = per_key();
    let t = Instant::now();
    let plain: Vec<Outcome> = replay
        .iter()
        .map(|r| {
            let model = r.config.key.guarded();
            search::run_one_with(&pool, &model, r, &shared[&r.config.key], Instant::now())
        })
        .collect();
    let plain_s = t.elapsed().as_secs_f64();
    let shared_hits: u64 = shared.values().map(|c| c.stats().hits).sum();
    let fresh_hits: u64 = replay
        .iter()
        .map(|r| {
            search::run_one(&pool, &r.config.key.guarded(), r)
                .cache
                .hits
        })
        .sum();
    let traced_caches = per_key();
    let models: Vec<trace::TracedStackModel> = replay
        .iter()
        .map(|r| trace::traced_model(&r.config.key))
        .collect();
    let spaces: Vec<mapping::MapSpace> = replay
        .iter()
        .map(|r| mapping::MapSpace::new(r.config.key.problem(), r.config.key.arch()))
        .collect();
    trace::drain();
    let t = Instant::now();
    let mut traced = Vec::new();
    for (i, r) in replay.iter().enumerate() {
        trace::set_request(i as u32 + 1);
        traced.push(trace::traced_search(
            r,
            &models[i],
            &spaces[i],
            &pool,
            &traced_caches[&r.config.key],
        ));
    }
    let traced_s = t.elapsed().as_secs_f64();
    let spans = trace::drain();
    let mut evaluated_pruned = (0u64, 0u64);
    for (o, t) in plain.iter().zip(&traced) {
        let same = t
            .as_ref()
            .is_some_and(|t| t.best_score.to_bits() == o.score.to_bits());
        if !same {
            problems.push(format!(
                "{}: traced replay differs from run_resilient_shared",
                o.req.config.label()
            ));
        }
        if let Some(t) = t {
            evaluated_pruned.0 += t.evaluated as u64;
            evaluated_pruned.1 += t.pruned as u64;
        }
    }
    let mut cache_total = mappers::CacheStats::default();
    for c in traced_caches.values() {
        let st = c.stats();
        cache_total.hits += st.hits;
        cache_total.misses += st.misses;
    }
    let rejections = models
        .iter()
        .map(|m| costmodel::GuardAudit::report(m.inner()).rejections)
        .sum();
    let agg = Aggregate::of(&spans);
    let path = s.work.join("spans-serve_mix.csv");
    if let Err(e) = trace::write_spans(&path, &spans) {
        problems.push(format!("writing {}: {e}", path.display()));
    }
    println!(
        "spans            : {} written to {}",
        spans.len(),
        path.display()
    );
    println!("replay wall      : untraced {plain_s:.3} s, traced {traced_s:.3} s");
    trace::stack_metrics(
        m,
        &agg,
        cache_total,
        evaluated_pruned,
        rejections,
        pool.lanes(),
    );
    m.put(
        "eval_cache.cross_request_hits",
        shared_hits.saturating_sub(fresh_hits) as f64,
        "count",
    );
    let attempts: usize = plain.iter().map(|o| o.attempts).sum();
    m.put(
        "runtime.attempts_per_search",
        attempts as f64 / plain.len().max(1) as f64,
        "count",
    );
    m.put("trace.overhead_frac", traced_s / plain_s - 1.0, "frac");
    Ok(())
}

/// What the service does to admit a request before executing it: problem
/// and arch codecs, densities, the mappability check, and the mapping
/// codec for `evaluate`. `None` if the request would be refused.
fn parse_like_service(doc: &json::Value) -> Option<()> {
    let op = doc.get("op")?.as_str()?;
    let problem = problem::codec::from_spec(doc.get("problem")?.as_str()?).ok()?;
    let arch = match doc.get("arch")?.as_str()? {
        "accel-a" => arch::Arch::accel_a(),
        "accel-b" => arch::Arch::accel_b(),
        _ => return None,
    };
    for field in ["weight_density", "input_density"] {
        if let Some(v) = doc.get(field) {
            v.as_f64().filter(|d| *d > 0.0 && *d <= 1.0)?;
        }
    }
    if !mapping::MapSpace::new(problem, arch).is_mappable() {
        return None;
    }
    if op == "evaluate" {
        mapping::codec::from_spec(doc.get("mapping")?.as_str()?.trim()).ok()?;
    }
    Some(())
}
