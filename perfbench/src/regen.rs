//! `perfbench regen`: the documented one-off run that produces the
//! checked-in data files. Benchmark runs only read them.
//!
//! * `expect.tsv`: every (configuration, mapper seed) the search
//!   workloads can draw, run once through the same stack the benchmark
//!   uses.
//! * `reference_edp.tsv`: per model key, the best EDP of a long run: the
//!   [`LONG_MAPPERS`] at [`LONG_SAMPLES`] samples with [`LONG_SEEDS`]
//!   seeds each; a warm-start chain of [`CHAIN_STEPS`] searches, each
//!   seeded with the best mapping so far; every search answered by
//!   [`SERVE_SEEDS`] `serve_mix` streams run against the daemon; and last
//!   a polish of each key's best mapping: passes of warm-started
//!   `serve_mix`-sized searches by every bandit arm with [`POLISH_SEEDS`]
//!   seeds, until a pass improves nothing. The expectation runs count too.

use crate::data::{render_expect, render_reference, Expected, EXPECT_FILE, REFERENCE_FILE};
use crate::search::{policy, prepare, run_one};
use crate::workload::{make_mapper, Config, Key, SearchRequest, SearchWorkload, VARIANTS};
use mappers::{Budget, EdpEvaluator};
use mse::{EvalCache, EvalPool, Mse};
use std::collections::BTreeMap;
use std::path::Path;

/// Samples per search of the reference run.
pub const LONG_SAMPLES: usize = 20_000;
/// Seeds per mapper of the reference run.
pub const LONG_SEEDS: u64 = 4;
/// Mappers of the reference run.
pub const LONG_MAPPERS: [&str; 5] = ["annealing", "gamma", "standard-ga", "cem", "dosa"];
/// Warm-started searches at 2000 samples per key after the long runs.
pub const CHAIN_STEPS: u64 = 24;
/// Mappers of the chain and the polish (the store bandit's arms).
pub const CHAIN_MAPPERS: [&str; 4] = ["annealing", "gamma", "cem", "dosa"];
/// `serve_mix` streams (workload seeds `1..=N`) whose search results
/// count. The daemon's searches start from the newest store record and
/// its two workers interleave deposits, so it reaches mappings serial
/// chains miss. Each stream runs three times faster than the workload
/// (same requests, gaps divided by three) for more interleaving.
pub const SERVE_SEEDS: u64 = 40;
/// Mapper seeds per arm in one polish pass.
pub const POLISH_SEEDS: u64 = 8;
/// Samples per polish search: the `serve_mix` search size.
const POLISH_SAMPLES: usize = crate::serve::SEARCH_SAMPLES;

fn run_all(reqs: &[SearchRequest]) -> Vec<(SearchRequest, Expected)> {
    let prepared = prepare(reqs);
    reqs.iter()
        .enumerate()
        .map(|(i, r)| {
            let o = run_one(&prepared.pool, &prepared.models[i], r);
            assert!(o.ok, "regen: {} seed {} failed", r.config.label(), r.seed);
            eprintln!("{} seed {}: {:e}", r.config.label(), r.seed, o.score);
            let spec = o.spec();
            (
                *r,
                Expected {
                    score: o.score,
                    mapping: spec,
                },
            )
        })
        .collect()
}

/// Best (score, mapping spec, where it was found) per key.
type Best = BTreeMap<Key, (f64, String, String)>;

fn offer(best: &mut Best, key: Key, e: &Expected, source: String) {
    let cur = best
        .entry(key)
        .or_insert((f64::INFINITY, String::new(), String::new()));
    if e.score < cur.0 {
        *cur = (e.score, e.mapping.clone(), source);
    }
}

/// One warm-started search; returns its best result.
fn warm_search(
    key: &Key,
    name: &str,
    warm: &str,
    samples: usize,
    seed: u64,
    pool: &EvalPool,
) -> Option<Expected> {
    let model = key.guarded();
    let mut mapper = make_mapper(name);
    mapper.set_seeds(vec![
        mapping::codec::from_spec(warm).expect("warm mapping spec")
    ]);
    let cache = EvalCache::new(policy().eval.cache_capacity);
    let out = Mse::new(&model).run_resilient_shared(
        mapper.as_ref(),
        &EdpEvaluator::new(&model),
        Budget::samples(samples),
        seed,
        policy(),
        Some(&model),
        pool,
        &cache,
    );
    let (m, _) = out.result.as_ref()?.best.as_ref()?;
    Some(Expected {
        score: out.best_score(),
        mapping: mapping::codec::to_spec(m),
    })
}

/// The warm-start chain of one key.
fn chain(key: Key, best: &mut Best, pool: &EvalPool) {
    for step in 0..CHAIN_STEPS {
        let name = CHAIN_MAPPERS[step as usize % CHAIN_MAPPERS.len()];
        let warm = best[&key].1.clone();
        if let Some(e) = warm_search(&key, name, &warm, 2000, 1000 + step, pool) {
            eprintln!("chain {} step {step} {name}: {:e}", key.label(), e.score);
            offer(best, key, &e, format!("chain step {step} {name}"));
        }
    }
}

/// Polishes one key's best mapping until a whole pass improves nothing.
fn polish(key: Key, best: &mut Best, pool: &EvalPool) {
    for pass in 0.. {
        let before = best[&key].0;
        for seed in 0..POLISH_SEEDS {
            for name in CHAIN_MAPPERS {
                let warm = best[&key].1.clone();
                if let Some(e) = warm_search(&key, name, &warm, POLISH_SAMPLES, seed, pool) {
                    offer(
                        best,
                        key,
                        &e,
                        format!("polish pass {pass} {name} seed {seed}"),
                    );
                }
            }
        }
        eprintln!("polish {} pass {pass}: {:e}", key.label(), best[&key].0);
        if best[&key].0 >= before {
            break;
        }
    }
}

pub fn regen(dir: &Path, mapex: &Path, work: &Path) -> Result<(), String> {
    let mut expect_reqs = Vec::new();
    for w in [SearchWorkload::Mix, SearchWorkload::Dosa] {
        for config in w.configs() {
            for seed in 0..VARIANTS {
                expect_reqs.push(SearchRequest {
                    config,
                    seed,
                    round: 0,
                });
            }
        }
    }
    let expect = run_all(&expect_reqs);
    let mut best = Best::new();
    for (r, e) in &expect {
        offer(
            &mut best,
            r.config.key,
            e,
            format!("expect {} seed {}", r.config.label(), r.seed),
        );
    }
    let mut long_reqs = Vec::new();
    for key in Key::all() {
        for mapper in LONG_MAPPERS {
            for seed in 0..LONG_SEEDS {
                let config = Config {
                    mapper,
                    key,
                    samples: LONG_SAMPLES,
                };
                long_reqs.push(SearchRequest {
                    config,
                    seed,
                    round: 0,
                });
            }
        }
    }
    for (r, e) in run_all(&long_reqs) {
        offer(
            &mut best,
            r.config.key,
            &e,
            format!("long {} seed {}", r.config.label(), r.seed),
        );
    }
    let pool = EvalPool::new(policy().eval);
    for key in Key::all() {
        chain(key, &mut best, &pool);
    }
    let data = crate::data::Data {
        expect: expect
            .iter()
            .map(|(r, e)| ((r.config.label(), r.seed), e.clone()))
            .collect(),
        reference: BTreeMap::new(),
    };
    for seed in 1..=SERVE_SEEDS {
        let setup = crate::serve::Setup {
            mapex: mapex.to_path_buf(),
            work: work.to_path_buf(),
            seed,
            seconds: 10,
            traced: false,
            rate: 3.0 * crate::serve::RATE,
        };
        let found = crate::serve::collect_searches(&setup, &data)?;
        eprintln!("serve_mix seed {seed}: {} search results", found.len());
        for (key, e) in found {
            offer(&mut best, key, &e, format!("serve_mix seed {seed}"));
        }
    }
    for key in Key::all() {
        polish(key, &mut best, &pool);
    }
    let rows: Vec<(Config, u64, Expected)> = expect
        .into_iter()
        .map(|(r, e)| (r.config, r.seed, e))
        .collect();
    let refs: Vec<(Key, f64, String)> = best
        .into_iter()
        .map(|(k, (s, _, src))| (k, s, src))
        .collect();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(EXPECT_FILE), render_expect(&rows)).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(REFERENCE_FILE), render_reference(&refs)).map_err(|e| e.to_string())?;
    Ok(())
}
