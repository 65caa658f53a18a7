//! `mapex` — command-line map-space exploration.
//!
//! ```sh
//! mapex search   --problem "CONV2D;c3;B=16,K=128,C=128,Y=28,X=28,R=3,S=3" --arch accel-b --mapper gamma --samples 2000
//! mapex evaluate --problem "GEMM;g;B=16,M=1024,K=1024,N=512" --arch accel-a --mapping @best.map
//! mapex sweep    --model vgg16 --arch accel-b --samples 1000 --warm-start --buffer vgg.replay
//! mapex sweep    --model vgg16 --arch accel-b --samples 1000 --resume vgg.ckpt
//! mapex size     --problem "CONV2D;c4;B=16,K=256,C=256,Y=14,X=14,R=3,S=3" --arch accel-b
//! mapex validate examples/specs/edge_npu.toml examples/specs/resnet_conv3.toml
//! mapex zoo
//! ```

mod args;

use args::Args;
use costmodel::{guarded_engine, CostModel, DenseModel, GuardAudit, GuardPolicy};
use mappers::{Budget, EdpEvaluator, Gamma, Mapper, RunStatus};
use mse::{
    run_network, run_network_checkpointed, CheckpointError, EvalConfig, InitStrategy, Mse,
    ReplayBuffer, RunPolicy,
};
use problem::{Density, Problem};
use std::process::ExitCode;

const USAGE: &str = "\
mapex <command> [options]

commands:
  search    find an optimized mapping for one workload
  evaluate  cost one mapping on one workload
  sweep     map every layer of a zoo model (optionally warm-started)
  size      report the map-space size
  validate  strictly check arch/problem spec files (.toml) without running;
            `-` reads a spec from stdin (pre-submit hook for serve)
  zoo       list built-in models and workloads
  serve     run the mapping service: a JSON-lines-over-TCP daemon with
            admission control, per-request deadlines, and graceful drain
  request   send one JSON request line to a running daemon and print the
            response line
  store     inspect or maintain a warm-start store file:
            stats | compact | verify (verify exits nonzero on damage)
  chaos     run seeded fault-injection campaigns against the store /
            serve / fleet stacks and check invariant oracles; failures
            are shrunk to a minimal JSON reproducer (exit 3)
  bench-throughput
            measure search throughput (serial vs parallel vs cached)
            and write BENCH_throughput.json
  bench-quality
            measure sample efficiency (evaluations needed to reach within
            10% of the best-known EDP) per mapper and write
            BENCH_quality.json

common options:
  --problem SPEC         workload spec, e.g. \"CONV2D;c3;B=16,K=128,C=128,Y=28,X=28,R=3,S=3\"
  --arch NAME            accel-a | accel-b          (default accel-b)
  --mapper NAME          gamma | random | random-pruned | standard-ga |
                         annealing | hill-climb | cem | dosa | reinforce |
                         exhaustive | exhaustive-tiles (default gamma)
  --samples N            sample budget               (default 2000)
  --seconds S            wall-clock budget (overrides --samples)
  --timeout S            hard wall-clock cap on top of the budget; a mapper
                         that ignores it is stopped by the watchdog
  --retries N            retry a failed search with perturbed seeds (default 2)
  --guard MODE           reject | warn | off: check physical invariants on
                         every cost-model evaluation and quarantine
                         violations; off skips them  (default reject)
  --seed N               RNG seed                    (default 0)
  --threads N            evaluation worker threads; 0 = one per core
                         (default 0; results are bit-identical at any count)
  --cache N              evaluation-cache capacity in entries; 0 disables
                         (default 65536)
  --weight-density D     sparse weights (enables the sparse model)
  --input-density D      sparse activations (enables the sparse model)
  --mapping SPEC|@file   mapping spec (evaluate)
  --explain-bound        evaluate: also print the admissible lower-bound
                         breakdown (per-floor terms) next to the true cost
  --out FILE             write the best mapping spec (search)
  --model NAME           zoo model (sweep): vgg16 | resnet50 | mobilenet_v2 | mnasnet | bert_large
  --buffer FILE          replay-buffer file to load/save (sweep)
  --warm-start           seed each layer from the replay buffer (sweep)
  --checkpoint FILE      write a JSON checkpoint after every layer (sweep)
  --resume FILE          resume an interrupted sweep from FILE, skipping
                         completed layers (implies --checkpoint FILE)
  --quick                bench-throughput: smaller budget and case matrix
  --min-ratio R          bench-throughput: exit nonzero if parallel/serial
                         throughput falls below R on any case (CI smoke)
  --check                bench-quality: exit nonzero unless dosa reaches
                         within 10% of gamma's best on the small GEMM with
                         at most half of gamma's evaluations

serve/request options:
  --addr HOST:PORT       serve: listen address (default 127.0.0.1:7070;
                         port 0 picks a free port, printed on stdout)
                         request: daemon address (required)
  --workers N            serve: request workers (default 2; 0 = half cores)
  --queue N              serve: admission-queue bound (default 64); above
                         it requests get a structured overload response
  --deadline-ms N        serve: default per-request deadline (default
                         30000; 0 = none). Requests may override with
                         their own \"deadline_ms\" field
  --max-models N         serve: distinct model caches kept warm (default 32)
  --fault-injection      serve: accept the `panic-injector` test mapper
                         (for exercising panic isolation; never production)
  --coordinator          serve: act as fleet coordinator — shard sweep and
                         island-search requests across registered workers
  --worker ADDR          serve: act as a fleet worker executing shards for
                         the coordinator at ADDR (reconnects with backoff)
  --heartbeat-ms N       serve: worker heartbeat interval (default 500)
  --lease-ms N           serve: coordinator lease — a worker silent longer
                         than this loses its shards to re-dispatch
                         (default 2500)
  --steal-after-ms N     serve: re-issue a straggling shard to an idle
                         worker after this long; first answer wins
                         (default 3000)
  --shard-slots N        serve: concurrent shards per worker (default 2)
  --shard-delay-ms N     serve: delay each worker shard by N ms (straggler
                         injection; requires --fault-injection)
  --checkpoint-dir DIR   serve: directory for named sweep checkpoints —
                         enables \"checkpoint\"/\"resume\" in sweep requests
  --store FILE           serve: durable warm-start store — completed
                         searches and sweep layers deposit incumbents;
                         similar requests are seeded from validated priors
                         and \"mapper\": \"auto\" picks the arm a UCB bandit
                         learned for similar problems. Also the store file
                         for the `store` command
  --max-retries N        request: retry transient failures — overloaded /
                         draining responses, connect errors, empty replies —
                         with decorrelated-jitter backoff honoring the
                         daemon's retry_after_ms hint as a floor (default 0)
  --retry-budget-ms N    request: cumulative cap on time spent sleeping
                         between retries; once spent, the next transient
                         failure is final (default 0 = no cap)

chaos options:
  --seed N               chaos: campaign seed; same seed → same fault
                         plans, same oracle verdicts, same digest (default 1)
  --campaign N           chaos: number of seeded fault plans to run
                         (default 200)
  --scenario NAME        chaos: store | serve | fleet; default is a
                         deterministic store-heavy mix of all three
  --out FILE             chaos: write the shrunk reproducer JSON here on
                         failure (default: print to stderr)
  --replay FILE          chaos: re-run one fault plan from a reproducer
                         JSON file instead of a seeded campaign

exit codes:
  0  success
  1  bad input or I/O error
  2  usage error
  3  search produced no legal mapping (after retries)
  4  checkpoint is corrupt or belongs to a different sweep
";

/// CLI failure, carrying the process exit code it maps to.
enum CliError {
    /// Malformed specs, bad option values, I/O failures (exit 1).
    Input(String),
    /// The search ran but found nothing usable (exit 3).
    NoResult(String),
    /// Checkpoint corrupt or from a different sweep (exit 4).
    Checkpoint(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Input(_) => 1,
            CliError::NoResult(_) => 3,
            CliError::Checkpoint(_) => 4,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Input(m) | CliError::NoResult(m) | CliError::Checkpoint(m) => m,
        }
    }
}

/// Shorthand: anything stringy becomes an input error (exit 1).
fn input<E: ToString>(e: E) -> CliError {
    CliError::Input(e.to_string())
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.command.as_deref() {
        Some("search") => cmd_search(&args),
        Some("evaluate") => cmd_evaluate(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("size") => cmd_size(&args),
        Some("validate") => cmd_validate(&args),
        Some("zoo") => cmd_zoo(),
        Some("serve") => cmd_serve(&args),
        Some("request") => cmd_request(&args),
        Some("store") => cmd_store(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("bench-throughput") => cmd_bench_throughput(&args),
        Some("bench-quality") => cmd_bench_quality(&args),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.code())
        }
    }
}

fn parse_arch(args: &Args) -> Result<arch::Arch, CliError> {
    match args.get_or("arch", "accel-b") {
        "accel-a" => Ok(arch::Arch::accel_a()),
        "accel-b" => Ok(arch::Arch::accel_b()),
        other => Err(input(format!("unknown --arch `{other}` (accel-a | accel-b)"))),
    }
}

fn parse_problem(args: &Args) -> Result<Problem, CliError> {
    let spec = args.get("problem").ok_or_else(|| input("--problem is required"))?;
    problem::codec::from_spec(spec).map_err(input)
}

fn parse_density(args: &Args) -> Result<Option<Density>, CliError> {
    let dw: f64 = args.get_num("weight-density", 1.0).map_err(input)?;
    let da: f64 = args.get_num("input-density", 1.0).map_err(input)?;
    if !(0.0..=1.0).contains(&dw) || !(0.0..=1.0).contains(&da) || dw == 0.0 || da == 0.0 {
        return Err(input("densities must be in (0, 1]"));
    }
    if dw == 1.0 && da == 1.0 {
        Ok(None)
    } else {
        Ok(Some(Density { weight: dw, input: da }))
    }
}

/// `--guard reject|warn|off` (default reject: evaluations are checked
/// against physical invariants, and violating mappings are quarantined;
/// `off` is [`GuardPolicy::Trust`], which skips the checks).
fn parse_guard(args: &Args) -> Result<GuardPolicy, CliError> {
    match args.get_or("guard", "reject") {
        "reject" => Ok(GuardPolicy::Reject),
        "warn" => Ok(GuardPolicy::Warn),
        "off" => Ok(GuardPolicy::Trust),
        other => Err(input(format!("unknown --guard `{other}` (reject | warn | off)"))),
    }
}

fn make_mapper(name: &str) -> Result<Box<dyn Mapper>, CliError> {
    mappers::by_name(name).ok_or_else(|| input(format!("unknown --mapper `{name}`")))
}

/// Budget from `--samples` / `--seconds`, optionally tightened by
/// `--timeout` — a hard wall-clock cap the watchdog enforces even against
/// mappers that never look at their budget.
fn parse_budget(args: &Args) -> Result<Budget, CliError> {
    let mut budget = if let Some(s) = args.get("seconds") {
        let secs: f64 = s.parse().map_err(|_| input("--seconds: bad value"))?;
        Budget::seconds(secs)
    } else {
        Budget::samples(args.get_num("samples", 2_000).map_err(input)?)
    };
    if let Some(t) = args.get("timeout") {
        let secs: f64 = t.parse().map_err(|_| input("--timeout: bad value"))?;
        if secs.is_nan() || secs <= 0.0 {
            return Err(input("--timeout: must be positive"));
        }
        let cap = std::time::Duration::from_secs_f64(secs);
        budget.max_time = Some(budget.max_time.map_or(cap, |t| t.min(cap)));
    }
    Ok(budget)
}

/// `--threads` / `--cache` → the evaluation-engine configuration. The CLI
/// defaults to the full engine (one worker per core, 64k-entry cache);
/// library callers default to serial/uncached (`EvalConfig::default`).
fn parse_eval(args: &Args) -> Result<EvalConfig, CliError> {
    let mut eval = EvalConfig::full();
    eval.threads = args.get_num("threads", eval.threads).map_err(input)?;
    eval.cache_capacity = args.get_num("cache", eval.cache_capacity).map_err(input)?;
    Ok(eval)
}

fn parse_policy(args: &Args) -> Result<RunPolicy, CliError> {
    Ok(RunPolicy::with_retries(args.get_num("retries", 2).map_err(input)?)
        .with_eval(parse_eval(args)?))
}

fn cmd_search(args: &Args) -> Result<(), CliError> {
    let p = parse_problem(args)?;
    let a = parse_arch(args)?;
    let density = parse_density(args)?;
    let mapper = make_mapper(args.get_or("mapper", "gamma"))?;
    let budget = parse_budget(args)?;
    let seed: u64 = args.get_num("seed", 0).map_err(input)?;
    let policy = parse_policy(args)?;
    let model = guarded_engine(&p, &a, density, parse_guard(args)?);

    let evaluator = EdpEvaluator::new(&model);
    let outcome = Mse::new(&model).run_guarded_with(
        mapper.as_ref(),
        &evaluator,
        budget,
        seed,
        policy,
        Some(&model),
    );
    let report = model.report();
    if report.violations > 0 {
        eprintln!(
            "guard: {} invariant violation(s) detected, {} evaluation(s) quarantined",
            report.violations, report.rejections
        );
    }
    for (i, attempt) in outcome.attempts.iter().enumerate() {
        if let Some(e) = &attempt.error {
            eprintln!("attempt {} (seed {}): {e}", i + 1, attempt.seed);
        }
    }
    match outcome.status {
        RunStatus::Recovered => eprintln!("recovered after retry with a perturbed seed"),
        RunStatus::WatchdogStopped => {
            eprintln!("warning: mapper overran its budget and was stopped; result is truncated")
        }
        _ => {}
    }
    let r = outcome
        .result
        .ok_or_else(|| CliError::NoResult("search found no legal mapping".to_string()))?;
    let (best, cost) = r
        .best
        .ok_or_else(|| CliError::NoResult("search found no legal mapping".to_string()))?;
    println!("workload : {p}");
    println!("arch     : {}", a.name());
    println!("mapper   : {} ({} samples, {:.3}s)", mapper.name(), r.evaluated, r.elapsed.as_secs_f64());
    if r.pruned > 0 {
        println!("pruned   : {} candidate(s) skipped by the admissible lower bound", r.pruned);
    }
    let lookups = r.cache.hits + r.cache.misses;
    if lookups > 0 {
        println!(
            "cache    : {} hit(s) / {} lookup(s) ({:.1}% hit rate), {} eviction(s)",
            r.cache.hits,
            lookups,
            100.0 * r.cache.hit_rate(),
            r.cache.evictions
        );
    }
    println!("cost     : {cost}");
    println!("mapping  : {}", mapping::codec::to_spec(&best));
    print!("{best}");
    if let Some(path) = args.get("out") {
        std::fs::write(path, mapping::codec::to_spec(&best)).map_err(input)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), CliError> {
    let p = parse_problem(args)?;
    let a = parse_arch(args)?;
    let density = parse_density(args)?;
    let model = guarded_engine(&p, &a, density, parse_guard(args)?);
    let spec = args.get("mapping").ok_or_else(|| input("--mapping is required"))?;
    let spec = match spec.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path).map_err(input)?,
        None => spec.to_string(),
    };
    let m = mapping::codec::from_spec(spec.trim()).map_err(input)?;
    let b = model
        .evaluate_detailed(&m)
        .map_err(|e| input(format!("illegal mapping: {e}")))?;
    println!("workload : {p}");
    println!("cost     : {}", b.cost);
    println!("lanes    : {}", b.lanes);
    for (i, t) in b.per_level.iter().enumerate() {
        println!(
            "L{i} {:<14} reads {:>12.3e}  writes {:>12.3e}",
            a.level(i).name,
            t.reads,
            t.writes
        );
    }
    if args.flag("explain-bound") {
        // The context of the engine `guarded_engine` built above: the printed
        // bound is the exact one the mappers consult when pruning.
        let ctx = costmodel::engine_context(&p, &a, density);
        match ctx.bound(&m) {
            Some(r) => {
                println!("bound    : {} (admissible floor; never above the true cost)", r.cost);
                println!("  compute-latency floor : {:>12.3e} cycles (MACs / peak lanes)", r.compute_latency);
                println!("  dram-bw floor         : {:>12.3e} cycles (compulsory traffic / L0 bandwidth)", r.dram_bw_latency);
                println!("  latency floor         : {:>12.3e} cycles (max of the above, >= 1)", r.latency);
                println!("  mac-energy floor      : {:>12.3e} pJ", r.mac_energy_pj);
                println!("  dram-energy floor     : {:>12.3e} pJ (compulsory footprints)", r.dram_energy_pj);
                let gap = b.cost.edp() / r.cost.edp().max(f64::MIN_POSITIVE);
                println!("  EDP floor             : {:>12.3e} (true {:.3e}, gap {gap:.2}x)", r.cost.edp(), b.cost.edp());
            }
            None => println!("bound    : unavailable (structurally illegal mapping)"),
        }
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), CliError> {
    let a = parse_arch(args)?;
    let name = args.get("model").ok_or_else(|| input("--model is required"))?;
    let layers =
        problem::zoo::model(name).ok_or_else(|| input(format!("unknown model `{name}`")))?;
    let budget = parse_budget(args)?;
    let seed: u64 = args.get_num("seed", 0).map_err(input)?;
    let strategy = if args.flag("warm-start") {
        InitStrategy::BySimilarity
    } else {
        InitStrategy::Random
    };
    let buffer = ReplayBuffer::new();
    if let Some(path) = args.get("buffer") {
        if let Ok(f) = std::fs::File::open(path) {
            let n = buffer.load(std::io::BufReader::new(f)).map_err(input)?;
            println!("loaded {n} replay entries from {path}");
        }
    }
    // `--resume FILE` reads *and* keeps writing FILE; `--checkpoint FILE`
    // only writes (a fresh sweep that can be resumed later).
    let resume = args.get("resume");
    if let Some(path) = resume {
        // Peek so the user can see work being skipped; corrupt or
        // mismatched files are diagnosed by the checkpointed run below.
        if let Ok(ckpt) = mse::SweepCheckpoint::load(std::path::Path::new(path)) {
            eprintln!(
                "resuming from {path}: {}/{} layer(s) already complete",
                ckpt.layers.len(),
                layers.len()
            );
        } else if !std::path::Path::new(path).exists() {
            eprintln!("no checkpoint at {path} yet; starting fresh");
        }
    }
    let checkpoint = resume.or_else(|| args.get("checkpoint"));
    let arch_for_model = a.clone();
    let guard = parse_guard(args)?;
    let make_model = move |p: &Problem| -> Box<dyn CostModel> {
        Box::new(guarded_engine(p, &arch_for_model, None, guard))
    };
    let make_mapper = || -> Box<dyn Mapper> { Box::new(Gamma::new()) };
    // Random-init layers are independent and fan out over `--threads`
    // workers; warm-started sweeps stay serial (each layer seeds from its
    // predecessors). Either way checkpoint writes and replay-buffer
    // inserts happen in layer order, so results match the serial sweep.
    let threads = parse_eval(args)?.threads;
    let out = match checkpoint {
        Some(path) => run_network_checkpointed(
            &layers,
            &a,
            &buffer,
            strategy,
            budget,
            seed,
            threads,
            make_model,
            make_mapper,
            std::path::Path::new(path),
            resume.is_some(),
        )
        .map_err(|e| match e {
            CheckpointError::Io(io) => input(io),
            other => CliError::Checkpoint(other.to_string()),
        })?,
        None => run_network(
            &layers,
            &a,
            &buffer,
            strategy,
            budget,
            seed,
            threads,
            make_model,
            make_mapper,
        ),
    };
    println!("{:<24} {:>12} {:>12} {:>10}", "layer", "EDP", "latency", "samples");
    for o in &out {
        let cost = o.result.best.as_ref().map(|(_, c)| *c);
        match cost {
            Some(c) => println!(
                "{:<24} {:>12.3e} {:>12.3e} {:>10}",
                o.name,
                c.edp(),
                c.latency_cycles,
                o.result.evaluated
            ),
            None => println!("{:<24} {:>12} {:>12} {:>10}", o.name, "-", "-", o.result.evaluated),
        }
    }
    if let Some(path) = args.get("buffer") {
        let mut f = std::fs::File::create(path).map_err(input)?;
        buffer.save(&mut f).map_err(input)?;
        println!("saved {} replay entries to {path}", buffer.len());
    }
    Ok(())
}

fn cmd_size(args: &Args) -> Result<(), CliError> {
    let p = parse_problem(args)?;
    let a = parse_arch(args)?;
    let s = mapping::MapSpace::new(p.clone(), a.clone());
    println!("{p} on {}: log10(|map space|) = {:.1}", a.name(), s.size_log10());
    Ok(())
}

/// `mapex validate <file>...`: strict spec ingestion. Each file is parsed
/// with the spec-error taxonomy (unknown fields, zero capacities, fanout
/// mismatches, bad dimension sets all fail fast with line numbers), and if
/// both an arch and a problem are given, every pair is cross-checked for
/// mappability so an impossible pairing is caught before a long search.
fn cmd_validate(args: &Args) -> Result<(), CliError> {
    if args.positionals.is_empty() {
        return Err(input("validate: pass at least one <arch.toml|problem.toml> path"));
    }
    let mut archs = Vec::new();
    let mut problems = Vec::new();
    for given in &args.positionals {
        // `-` reads one spec from stdin, so validate slots into pipelines
        // (e.g. as a pre-submit hook in front of `mapex request`).
        let (path, text) = if given == "-" {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| input(format!("<stdin>: {e}")))?;
            ("<stdin>", text)
        } else {
            let text =
                std::fs::read_to_string(given).map_err(|e| input(format!("{given}: {e}")))?;
            (given.as_str(), text)
        };
        match spec::parse_any(&text).map_err(|e| input(format!("{path}: {e}")))? {
            spec::Spec::Arch(a) => {
                println!(
                    "{path}: ok — arch `{}` ({} levels, {} lanes)",
                    a.name(),
                    a.num_levels(),
                    a.total_spatial_lanes()
                );
                archs.push(a);
            }
            spec::Spec::Problem(p) => {
                println!("{path}: ok — problem `{}` ({} MACs)", p.name(), p.total_macs());
                problems.push(p);
            }
        }
    }
    for a in &archs {
        for p in &problems {
            let space = mapping::MapSpace::new(p.clone(), a.clone());
            if !space.is_mappable() {
                return Err(input(format!(
                    "problem `{}` cannot be mapped onto `{}`: even the smallest legal tiling \
                     overflows a buffer",
                    p.name(),
                    a.name()
                )));
            }
            println!(
                "cross-check: `{}` is mappable on `{}` (log10 |map space| = {:.1})",
                p.name(),
                a.name(),
                space.size_log10()
            );
        }
    }
    Ok(())
}

/// `mapex bench-throughput`: measures single-run search throughput
/// (evaluations per second) for the serial path, the parallel pool, and
/// the pool + evaluation cache, per preset × operator × mapper, and
/// writes the results to `BENCH_throughput.json`. `--quick` shrinks the
/// budget and case matrix for CI smoke use; `--min-ratio R` asserts the
/// parallel path never falls below `R`× serial. The costing loop itself
/// has no timing leg here: its allocations are pinned by the
/// `engine_alloc` test, and perfbench times it in situ.
fn cmd_bench_throughput(args: &Args) -> Result<(), CliError> {
    let quick = args.flag("quick");
    let samples: usize = args.get_num("samples", if quick { 600 } else { 6_000 }).map_err(input)?;
    let threads: usize = args.get_num("threads", 0).map_err(input)?;
    let min_ratio: f64 = args.get_num("min-ratio", 0.0).map_err(input)?;
    let seed: u64 = args.get_num("seed", 0).map_err(input)?;
    let out_path = args.get_or("out", "BENCH_throughput.json");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let resolved_threads = if threads == 0 { cores } else { threads };
    let budget = Budget::samples(samples);

    let presets: Vec<(&str, arch::Arch)> = if quick {
        vec![("accel-b", arch::Arch::accel_b())]
    } else {
        vec![("accel-a", arch::Arch::accel_a()), ("accel-b", arch::Arch::accel_b())]
    };
    let operators = [problem::zoo::resnet_conv4(), problem::zoo::bert_kqv()];
    let mapper_names: &[&str] =
        if quick { &["gamma", "random"] } else { &["gamma", "standard-ga", "random"] };
    // The exhaustive enumerator runs on a problem small enough to exhaust
    // (its intended regime). On the big convs its systematic walk never
    // leaves one fanout-saturated region within any sane budget, so lane
    // counts — the bound's lever — never vary and nothing can be pruned.
    let tiny = Problem::gemm("Tiny GEMM", 2, 32, 32, 32);
    let mut case_list: Vec<(&str, &arch::Arch, &Problem, &str)> = Vec::new();
    for (aname, a) in &presets {
        for p in &operators {
            for &mname in mapper_names {
                case_list.push((aname, a, p, mname));
            }
        }
        case_list.push((aname, a, &tiny, "exhaustive-tiles"));
    }

    let mut rows = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    for &(aname, a, p, mname) in &case_list {
        let model = DenseModel::new(p.clone(), a.clone());
        let mse = Mse::new(&model);
        let run = |eval: EvalConfig| -> Result<(f64, mappers::CacheStats, usize), CliError> {
            let mapper = make_mapper(mname)?;
            let policy = RunPolicy::with_retries(0).with_eval(eval);
            let outcome = mse.run_guarded(mapper.as_ref(), budget, seed, policy);
            let r = outcome.result.ok_or_else(|| {
                CliError::NoResult(format!("bench case {aname}/{}/{mname} failed", p.name()))
            })?;
            let secs = r.elapsed.as_secs_f64().max(1e-9);
            Ok((r.evaluated as f64 / secs, r.cache, r.pruned))
        };
        // Case rows are single short searches and jitter badly on loaded
        // shared runners; take the best of 3 runs for the gated serial and
        // parallel legs so the 0.5x floor only trips on real regressions,
        // not scheduler noise.
        let run_best = |eval: EvalConfig| -> Result<(f64, mappers::CacheStats, usize), CliError> {
            let mut best = run(eval)?;
            for _ in 0..2 {
                let r = run(eval)?;
                if r.0 > best.0 {
                    best = r;
                }
            }
            Ok(best)
        };
        let (serial_eps, _, pruned) = run_best(EvalConfig::serial())?;
        let (parallel_eps, _, _) = run_best(EvalConfig { threads, cache_capacity: 0 })?;
        let (cached_eps, cache, _) = run_best(EvalConfig { threads, cache_capacity: 1 << 16 })?;
        let ratio = parallel_eps / serial_eps;
        worst_ratio = worst_ratio.min(ratio);
        println!(
            "{aname:<8} {:<12} {mname:<12} serial {serial_eps:>9.0} ev/s | \
             parallel {parallel_eps:>9.0} ev/s ({ratio:.2}x) | \
             cached {cached_eps:>9.0} ev/s ({} hit(s)) | {pruned} pruned",
            p.name(),
            cache.hits
        );
        rows.push(format!(
            "    {{\"arch\": \"{aname}\", \"problem\": \"{}\", \"mapper\": \"{mname}\", \
             \"serial_evals_per_sec\": {serial_eps:.1}, \
             \"parallel_evals_per_sec\": {parallel_eps:.1}, \
             \"cached_evals_per_sec\": {cached_eps:.1}, \
             \"parallel_speedup\": {ratio:.3}, \"cache_hits\": {}, \
             \"evals_skipped_by_bound\": {pruned}}}",
            p.name(),
            cache.hits
        ));
    }
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \"threads\": {resolved_threads},\n  \
         \"samples_per_run\": {samples},\n  \"quick\": {quick},\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(out_path, &json).map_err(input)?;
    println!("wrote {out_path} ({cores} core(s), {resolved_threads} thread(s))");
    if min_ratio > 0.0 && worst_ratio < min_ratio {
        return Err(CliError::NoResult(format!(
            "throughput smoke failed: worst parallel/serial ratio {worst_ratio:.2} < {min_ratio}"
        )));
    }
    Ok(())
}

/// `mapex bench-quality`: measures *sample efficiency* — how many
/// cost-model evaluations each mapper needs to bring its best-so-far EDP
/// within 10% of the best-known EDP for the problem (the minimum over all
/// mappers in the run) — and writes `BENCH_quality.json`. This is the
/// metric DOSA is built for: its gradient steps through the smooth
/// relaxation are budget-free, so it should reach the 10% band with far
/// fewer exact evaluations than the population mappers. `--check` gates
/// CI: on the small GEMM, dosa must reach within 10% of gamma's best
/// using at most half the evaluations gamma itself needed.
fn cmd_bench_quality(args: &Args) -> Result<(), CliError> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let quick = args.flag("quick");
    let samples: usize = args.get_num("samples", if quick { 600 } else { 2_000 }).map_err(input)?;
    let seed: u64 = args.get_num("seed", 0).map_err(input)?;
    let check = args.flag("check");
    let out_path = args.get_or("out", "BENCH_quality.json");
    let a = arch::Arch::accel_b();
    let tiny = Problem::gemm("Tiny GEMM", 2, 32, 32, 32);
    let problems: Vec<Problem> = if quick {
        vec![tiny.clone()]
    } else {
        vec![problem::zoo::resnet_conv4(), problem::zoo::bert_kqv(), tiny.clone()]
    };
    let mapper_names: &[&str] =
        if quick { &["dosa", "gamma"] } else { &["dosa", "gamma", "cem", "annealing", "random"] };

    let mut rows = Vec::new();
    let mut check_failures = Vec::new();
    for p in &problems {
        let model = DenseModel::new(p.clone(), a.clone());
        let space = mapping::MapSpace::new(p.clone(), a.clone());
        let eval = EdpEvaluator::new(&model);
        let mut runs: Vec<(&str, mappers::SearchResult)> = Vec::new();
        for &mname in mapper_names {
            let mapper = make_mapper(mname)?;
            let mut rng = SmallRng::seed_from_u64(seed);
            let r = mapper.search(&space, &eval, Budget::samples(samples), &mut rng);
            runs.push((mname, r));
        }
        let best_known =
            runs.iter().map(|(_, r)| r.best_score).fold(f64::INFINITY, f64::min);
        // First convergence point inside the band: the evaluations this
        // mapper needed to get within 10% of the best-known EDP.
        let evals_to = |r: &mappers::SearchResult, reference: f64| -> Option<usize> {
            r.history.iter().find(|cp| cp.best_score <= 1.1 * reference).map(|cp| cp.samples)
        };
        for (mname, r) in &runs {
            let to_band = evals_to(r, best_known);
            let within = r.best_score <= 1.1 * best_known;
            println!(
                "{:<12} {mname:<10} best {:>12.4e} | {} | {} eval(s) to 10% band",
                p.name(),
                r.best_score,
                if within { "in band " } else { "off band" },
                to_band.map_or("-".to_string(), |n| n.to_string()),
            );
            rows.push(format!(
                "    {{\"problem\": \"{}\", \"mapper\": \"{mname}\", \
                 \"best_edp\": {:.6e}, \"best_known_edp\": {best_known:.6e}, \
                 \"evals_to_within_10pct\": {}, \"evals_total\": {}}}",
                p.name(),
                r.best_score,
                to_band.map_or("null".to_string(), |n| n.to_string()),
                r.evaluated,
            ));
        }
        if check && p.name() == tiny.name() {
            let gamma = runs.iter().find(|(n, _)| *n == "gamma").expect("gamma in matrix");
            let dosa = runs.iter().find(|(n, _)| *n == "dosa").expect("dosa in matrix");
            let gamma_evals = evals_to(&gamma.1, gamma.1.best_score);
            let dosa_evals = evals_to(&dosa.1, gamma.1.best_score);
            match (dosa_evals, gamma_evals) {
                (Some(d), Some(g)) if 2 * d <= g => {}
                (d, g) => check_failures.push(format!(
                    "{}: dosa needed {:?} eval(s) vs gamma {:?} to reach within 10% of \
                     gamma's best",
                    p.name(),
                    d,
                    g
                )),
            }
        }
    }

    let json = format!(
        "{{\n  \"samples_per_run\": {samples},\n  \"quick\": {quick},\n  \
         \"band\": \"best-so-far EDP within 10% of best-known\",\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(out_path, &json).map_err(input)?;
    println!("wrote {out_path}");
    if !check_failures.is_empty() {
        return Err(CliError::NoResult(format!(
            "quality smoke failed: {}",
            check_failures.join("; ")
        )));
    }
    Ok(())
}

/// `mapex serve`: runs the JSON-lines-over-TCP mapping service until a
/// drain is requested (SIGTERM/SIGINT), then finishes the admitted backlog
/// and exits 0. The bound address is printed (and flushed) on stdout first
/// so scripts can bind port 0 and discover the port.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let deadline_ms: u64 = args.get_num("deadline-ms", 30_000).map_err(input)?;
    let role = match (args.flag("coordinator"), args.get("worker")) {
        (true, Some(_)) => {
            return Err(input("--coordinator and --worker are mutually exclusive"));
        }
        (true, None) => mse::ServeRole::Coordinator,
        (false, Some(addr)) => mse::ServeRole::Worker { coordinator: addr.to_string() },
        (false, None) => mse::ServeRole::Standalone,
    };
    let defaults = mse::FleetConfig::default();
    let fleet = mse::FleetConfig {
        heartbeat_ms: args.get_num("heartbeat-ms", defaults.heartbeat_ms).map_err(input)?,
        lease_ms: args.get_num("lease-ms", defaults.lease_ms).map_err(input)?,
        steal_after_ms: args.get_num("steal-after-ms", defaults.steal_after_ms).map_err(input)?,
        shard_slots: args.get_num("shard-slots", defaults.shard_slots).map_err(input)?,
        shard_delay_ms: args.get_num("shard-delay-ms", defaults.shard_delay_ms).map_err(input)?,
        ..defaults
    };
    if fleet.heartbeat_ms == 0 || fleet.lease_ms <= fleet.heartbeat_ms {
        return Err(input("--lease-ms must exceed --heartbeat-ms (and both must be nonzero)"));
    }
    let cfg = mse::ServeConfig {
        addr: args.get_or("addr", "127.0.0.1:7070").to_string(),
        workers: args.get_num("workers", 2).map_err(input)?,
        queue_capacity: args.get_num("queue", 64).map_err(input)?,
        default_deadline_ms: if deadline_ms == 0 { None } else { Some(deadline_ms) },
        eval: parse_eval(args)?,
        guard: parse_guard(args)?,
        max_models: args.get_num("max-models", 32).map_err(input)?,
        fault_injection: args.flag("fault-injection"),
        role,
        fleet,
        checkpoint_dir: args.get("checkpoint-dir").map(std::path::PathBuf::from),
        store: args.get("store").map(std::path::PathBuf::from),
        ..mse::ServeConfig::default()
    };
    mse::service::install_drain_signal_handlers();
    let handle = mse::serve(cfg).map_err(input)?;
    println!("listening on {}", handle.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().map_err(input)?;
    let stats = handle.join();
    println!(
        "drained after {:.1}s: {} connection(s), {} request(s) completed, \
         {} overload rejection(s), {} degraded, {} isolated panic(s)",
        stats.uptime_secs,
        stats.connections,
        stats.completed,
        stats.rejected_overload,
        stats.degraded,
        stats.request_panics
    );
    Ok(())
}

/// `mapex store <stats|compact|verify> --store PATH`: inspect or maintain a
/// warm-start store file offline. `verify` is read-only and exits nonzero
/// when it finds quarantined (damaged) records, so scripts can alarm on
/// corruption; `compact` bounds the file and heals damage out of it (the
/// previous file survives as `.bak`).
fn cmd_store(args: &Args) -> Result<(), CliError> {
    let action = args
        .positionals
        .first()
        .map(String::as_str)
        .ok_or_else(|| input("store: pass an action (stats | compact | verify)"))?;
    let path = args.get("store").ok_or_else(|| input("--store PATH is required"))?;
    let path = std::path::Path::new(path);
    match action {
        "stats" => {
            let store = mse::WarmStore::open(path).map_err(input)?;
            let s = store.stats();
            println!(
                "entries {}\nfile_bytes {}\nquarantined {}\nskipped_future {}",
                s.entries, s.file_bytes, s.quarantined, s.skipped_future
            );
            Ok(())
        }
        "compact" => {
            let store = mse::WarmStore::open(path).map_err(input)?;
            let r = store.compact().map_err(input)?;
            println!("kept {}\ndropped {}\nreclaimed_bytes {}", r.kept, r.dropped, r.reclaimed_bytes);
            Ok(())
        }
        "verify" => {
            let r = mse::WarmStore::verify(path).map_err(input)?;
            println!(
                "valid {}\nquarantined {}\nskipped_future {}\nbytes {}",
                r.valid, r.quarantined, r.skipped_future, r.bytes
            );
            if r.quarantined > 0 {
                return Err(input(format!(
                    "store has {} quarantined record(s); `mapex store compact` heals the file",
                    r.quarantined
                )));
            }
            Ok(())
        }
        other => Err(input(format!("unknown store action `{other}` (stats | compact | verify)"))),
    }
}

/// `mapex chaos`: seeded fault-injection campaigns with invariant oracles.
/// Deterministic per seed — same seed, same fault plans, same verdicts,
/// same digest. On a failing plan the fault events are ddmin-shrunk to a
/// minimal reproducer, serialized as JSON (to `--out` or stderr), and the
/// process exits 3; `--replay FILE` re-runs such a reproducer.
fn cmd_chaos(args: &Args) -> Result<(), CliError> {
    let bug = if args.flag("inject-accounting-bug") {
        mse::Bug::ClaimFailedDeposit
    } else {
        mse::Bug::None
    };
    if let Some(file) = args.get("replay") {
        let text = std::fs::read_to_string(file).map_err(|e| input(format!("{file}: {e}")))?;
        let plan = mse::FaultPlan::from_json(&text).map_err(|e| input(format!("{file}: {e}")))?;
        println!("replaying {} plan seed {} ({} events)", plan.scenario.name(), plan.seed,
            plan.events.len());
        let failures = mse::Harness::new(bug).run_plan(&plan);
        if failures.is_empty() {
            println!("PASS: all oracles held");
            return Ok(());
        }
        for f in &failures {
            eprintln!("oracle violation: {f}");
        }
        return Err(CliError::NoResult(format!("{} oracle violation(s)", failures.len())));
    }
    let seed: u64 = args.get_num("seed", 1).map_err(input)?;
    let count: usize = args.get_num("campaign", 200).map_err(input)?;
    let scenario = match args.get("scenario") {
        None => None,
        Some(s) => Some(
            mse::Scenario::from_name(s)
                .ok_or_else(|| input(format!("unknown scenario `{s}` (store | serve | fleet)")))?,
        ),
    };
    let campaign = mse::Campaign { seed, count, scenario, bug };
    let mut harness = mse::Harness::new(bug);
    let started = std::time::Instant::now();
    let report = harness.run_campaign(&campaign, &mut |line| eprintln!("{line}"));
    println!(
        "campaign seed {seed}: {}/{} plans passed in {:.1}s (digest {:016x})",
        report.passed,
        report.count,
        started.elapsed().as_secs_f64(),
        report.digest
    );
    let Some(first) = report.failures.first() else {
        return Ok(());
    };
    eprintln!(
        "shrinking plan {} ({} events) to a minimal reproducer…",
        first.index,
        first.plan.events.len()
    );
    let minimal = harness.shrink(&first.plan);
    let json = minimal.to_json();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{json}\n")).map_err(|e| input(format!("{path}: {e}")))?;
            eprintln!("reproducer ({} events) written to {path}", minimal.events.len());
        }
        None => eprintln!("reproducer ({} events): {json}", minimal.events.len()),
    }
    Err(CliError::NoResult(format!(
        "{} of {} plans violated an oracle; replay with `mapex chaos --replay <file>`",
        report.failures.len(),
        report.count
    )))
}

/// `mapex request`: sends one JSON request line to a running daemon and
/// prints the response line. The request body is the first positional
/// argument, or stdin when it is `-` or absent. Exits 0 whenever a
/// response line was received (including structured error responses — the
/// taxonomy is in the JSON, for scripts to inspect). With `--max-retries`,
/// transient failures — `overloaded`/`draining` responses, connect errors,
/// empty replies — are retried with capped jittered exponential backoff,
/// honoring the daemon's `retry_after_ms` hint; the final failure keeps
/// the exit code it would have had without retries.
fn cmd_request(args: &Args) -> Result<(), CliError> {
    let addr = args.get("addr").ok_or_else(|| input("--addr is required"))?;
    let max_retries: u32 = args.get_num("max-retries", 0).map_err(input)?;
    let timeout = match args.get("timeout") {
        Some(t) => {
            let secs: f64 = t.parse().map_err(|_| input("--timeout: bad value"))?;
            Some(std::time::Duration::from_secs_f64(secs))
        }
        None => None,
    };
    let body = match args.positionals.first().map(String::as_str) {
        Some("-") | None => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| input(format!("<stdin>: {e}")))?;
            text
        }
        Some(s) => s.to_string(),
    };
    let body = body.trim();
    if body.is_empty() || body.contains('\n') {
        return Err(input("request body must be exactly one nonempty JSON line"));
    }
    let retry_budget_ms: u64 = args.get_num("retry-budget-ms", 0).map_err(input)?;
    let mut attempt: u32 = 0;
    let mut prev_delay_ms: u64 = 0;
    let mut slept_ms: u64 = 0;
    // A retry is allowed while attempts remain AND the next sleep fits in
    // the retry budget (0 = unbounded); `plan_retry` returns the sleep.
    let plan_retry = |attempt: u32, prev: u64, slept: u64, hint: Option<u64>| -> Option<u64> {
        if attempt >= max_retries {
            return None;
        }
        let delay = backoff_delay_ms(prev, hint);
        if retry_budget_ms > 0 && slept.saturating_add(delay) > retry_budget_ms {
            eprintln!("retry budget ({retry_budget_ms}ms) exhausted after {slept}ms; giving up");
            return None;
        }
        Some(delay)
    };
    loop {
        match request_once(addr, body, timeout) {
            Ok(line) => {
                if let Some(hint) = transient_retry_hint(&line) {
                    if let Some(delay) = plan_retry(attempt, prev_delay_ms, slept_ms, hint) {
                        eprintln!(
                            "transient response (attempt {}/{}); retrying in {}ms",
                            attempt + 1,
                            max_retries + 1,
                            delay
                        );
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                        slept_ms += delay;
                        prev_delay_ms = delay;
                        attempt += 1;
                        continue;
                    }
                }
                println!("{line}");
                return Ok(());
            }
            Err(e) => {
                let Some(delay) = plan_retry(attempt, prev_delay_ms, slept_ms, None) else {
                    return Err(e);
                };
                eprintln!(
                    "request failed: {} (attempt {}/{}); retrying in {}ms",
                    e.message(),
                    attempt + 1,
                    max_retries + 1,
                    delay
                );
                std::thread::sleep(std::time::Duration::from_millis(delay));
                slept_ms += delay;
                prev_delay_ms = delay;
                attempt += 1;
            }
        }
    }
}

/// One connect → send → receive round trip against the daemon.
fn request_once(
    addr: &str,
    body: &str,
    timeout: Option<std::time::Duration>,
) -> Result<String, CliError> {
    use std::io::{BufRead, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| input(format!("connect {addr}: {e}")))?;
    if let Some(dur) = timeout {
        stream.set_read_timeout(Some(dur)).map_err(input)?;
    }
    stream
        .write_all(body.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| input(format!("send: {e}")))?;
    let mut line = String::new();
    std::io::BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| input(format!("receive: {e}")))?;
    if line.trim().is_empty() {
        return Err(CliError::NoResult(
            "daemon closed the connection without responding".to_string(),
        ));
    }
    Ok(line.trim_end().to_string())
}

/// Returns `Some(retry_after_ms)` when the response line is a structured
/// transient error worth retrying (`overloaded` / `draining`); other
/// responses — success, permanent errors, transient errors a retry cannot
/// help (e.g. a worker-side deadline) — are final.
fn transient_retry_hint(line: &str) -> Option<Option<u64>> {
    let v = mse::json::parse(line).ok()?;
    if v.get("ok")?.as_bool()? {
        return None;
    }
    let err = v.get("error")?;
    if err.get("kind")?.as_str()? != "transient" {
        return None;
    }
    match err.get("code")?.as_str()? {
        "overloaded" | "draining" => {
            Some(err.get("retry_after_ms").and_then(mse::json::Value::as_u64))
        }
        _ => None,
    }
}

/// Decorrelated-jitter backoff: `uniform(base, max(base+1, min(cap,
/// prev·3)))` ms with `cap` = 10s, where `base` is the larger of 100ms and
/// the daemon's `retry_after_ms` hint — the hint is a *floor*, never
/// shortened. Unlike lockstep exponential backoff (even jittered around
/// the same midpoint), successive delays are drawn relative to the
/// previous *drawn* delay, so a herd of clients rejected together
/// decorrelates within a round or two instead of re-stampeding.
fn backoff_delay_ms(prev_ms: u64, hint: Option<u64>) -> u64 {
    use std::hash::{Hash, Hasher};
    const CAP_MS: u64 = 10_000;
    let base = hint.unwrap_or(0).max(100);
    let upper = prev_ms.saturating_mul(3).clamp(base + 1, CAP_MS.max(base + 1));
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::process::id().hash(&mut h);
    prev_ms.hash(&mut h);
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos())
        .hash(&mut h);
    base + h.finish() % (upper - base)
}

fn cmd_zoo() -> Result<(), CliError> {
    println!("models:");
    for name in ["vgg16", "resnet50", "mobilenet_v2", "mnasnet", "bert_large"] {
        let layers = problem::zoo::model(name)
            .ok_or_else(|| input(format!("zoo model `{name}` is missing from the registry")))?;
        println!("  {name:<14} {} layers", layers.len());
    }
    println!();
    println!("Table 1 workloads (usable as --problem specs):");
    for p in [
        problem::zoo::resnet_conv3(),
        problem::zoo::resnet_conv4(),
        problem::zoo::inception_conv2(),
        problem::zoo::bert_kqv(),
        problem::zoo::bert_attn(),
        problem::zoo::bert_fc(),
    ] {
        println!("  {}", problem::codec::to_spec(&p));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every library mapper resolves under `--mapper` and the usage text
    /// lists exactly the library's names.
    #[test]
    fn every_library_mapper_resolves_and_is_listed() {
        for name in mappers::NAMES {
            assert!(make_mapper(name).is_ok(), "{name}");
        }
        let start = USAGE.find("--mapper NAME").expect("usage lists --mapper");
        let end = start + USAGE[start..].find("(default gamma)").expect("mapper default");
        let listed: Vec<&str> = USAGE[start + "--mapper NAME".len()..end]
            .split(|c: char| c == '|' || c.is_whitespace())
            .filter(|w| !w.is_empty())
            .collect();
        assert_eq!(listed, mappers::NAMES);
    }
}
