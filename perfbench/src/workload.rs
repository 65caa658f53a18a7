//! The fixed request pools the workloads draw from.
//!
//! Every workload cycles over a fixed list of configurations (mapper ×
//! problem × architecture × density). The workload seed only picks the
//! order inside each round and which of [`VARIANTS`] mapper seeds each
//! request carries, so every (configuration, mapper seed) pair has a
//! checked-in expected result and every run does the same amount of work.

use arch::Arch;
use costmodel::{CostModel, DenseModel, GuardConfig, GuardPolicy, GuardedModel, SparseModel};
use mappers::{CrossEntropy, Dosa, Gamma, Mapper, RandomMapper, SimulatedAnnealing, StandardGa};
use problem::{Density, Problem};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Mapper seeds per configuration with a checked-in expected result.
pub const VARIANTS: u64 = 4;

/// The density sparse requests carry (weights pruned to 30%, activations
/// 60% dense), so `SparseModel` is on the path.
pub const SPARSE: Density = Density {
    weight: 0.3,
    input: 0.6,
};

/// Mappers of `search_mix`: batch (gamma, standard-ga), neighbors/delta
/// (annealing), population sampling (cem) and bound pruning (random).
pub const MIX_MAPPERS: [&str; 5] = ["gamma", "standard-ga", "annealing", "cem", "random"];

/// Samples per `search_mix` request.
pub const MIX_SAMPLES: usize = 2000;
/// Samples per `search_dosa` request.
pub const DOSA_SAMPLES: usize = 2000;

/// One (problem, architecture, density) model key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub problem: usize,
    pub arch: usize,
    pub sparse: bool,
}

pub const PROBLEM_NAMES: [&str; 3] = ["conv4", "kqv", "tinygemm"];
pub const ARCH_NAMES: [&str; 2] = ["accel-a", "accel-b"];

impl Key {
    /// All twelve keys, in a fixed order.
    pub fn all() -> Vec<Key> {
        let mut out = Vec::new();
        for problem in 0..PROBLEM_NAMES.len() {
            for arch in 0..ARCH_NAMES.len() {
                for sparse in [false, true] {
                    out.push(Key {
                        problem,
                        arch,
                        sparse,
                    });
                }
            }
        }
        out
    }

    pub fn problem(&self) -> Problem {
        match self.problem {
            0 => problem::zoo::resnet_conv4(),
            1 => problem::zoo::bert_kqv(),
            _ => Problem::gemm("Tiny GEMM", 2, 32, 32, 32),
        }
    }

    pub fn arch(&self) -> Arch {
        match self.arch {
            0 => Arch::accel_a(),
            _ => Arch::accel_b(),
        }
    }

    pub fn density(&self) -> Option<Density> {
        self.sparse.then_some(SPARSE)
    }

    /// Stable text label, used in the checked-in data files.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            PROBLEM_NAMES[self.problem],
            ARCH_NAMES[self.arch],
            if self.sparse { "sparse" } else { "dense" }
        )
    }

    /// The unguarded engine a `mapex search` builds for this key.
    pub fn engine(&self) -> Box<dyn CostModel> {
        let (p, a) = (self.problem(), self.arch());
        match self.density() {
            Some(d) => Box::new(SparseModel::new(p, a, arch::SparseCaps::flexible(), d)),
            None => Box::new(DenseModel::new(p, a)),
        }
    }

    /// The guard configuration `mapex search` uses by default (reject).
    pub fn guard_config(&self) -> GuardConfig {
        match self.density() {
            Some(d) => GuardConfig::sparse(GuardPolicy::Reject, &arch::SparseCaps::flexible(), d),
            None => GuardConfig::new(GuardPolicy::Reject),
        }
    }

    /// The guarded model a default `mapex search` evaluates against.
    pub fn guarded(&self) -> GuardedModel<Box<dyn CostModel>> {
        GuardedModel::new(self.engine(), self.guard_config())
    }
}

/// One library search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Config {
    pub mapper: &'static str,
    pub key: Key,
    pub samples: usize,
}

impl Config {
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.mapper, self.key.label(), self.samples)
    }
}

/// A fresh mapper by its CLI name.
pub fn make_mapper(name: &str) -> Box<dyn Mapper> {
    match name {
        "gamma" => Box::new(Gamma::new()),
        "standard-ga" => Box::new(StandardGa::new()),
        "annealing" => Box::new(SimulatedAnnealing::new()),
        "cem" => Box::new(CrossEntropy::new()),
        "random" => Box::new(RandomMapper::new()),
        "dosa" => Box::new(Dosa::new()),
        other => panic!("perfbench: no mapper `{other}`"),
    }
}

/// The search workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchWorkload {
    Mix,
    Dosa,
}

impl SearchWorkload {
    pub fn name(self) -> &'static str {
        match self {
            SearchWorkload::Mix => "search_mix",
            SearchWorkload::Dosa => "search_dosa",
        }
    }

    /// The configurations one round visits, in a fixed order.
    pub fn configs(self) -> Vec<Config> {
        let (mappers, samples): (&[&'static str], usize) = match self {
            SearchWorkload::Mix => (&MIX_MAPPERS, MIX_SAMPLES),
            SearchWorkload::Dosa => (&["dosa"], DOSA_SAMPLES),
        };
        let mut out = Vec::new();
        for key in Key::all() {
            for &mapper in mappers {
                out.push(Config {
                    mapper,
                    key,
                    samples,
                });
            }
        }
        out
    }

    /// Rounds per second of `--seconds`: fixed so that a run lasts about
    /// `--seconds` on a 2-core x86-64 VM. The work is a function of
    /// `--seconds` alone, never of how fast the machine is.
    pub fn rounds_per_second(self) -> f64 {
        match self {
            SearchWorkload::Mix => 1.0,
            SearchWorkload::Dosa => 0.25,
        }
    }
}

/// One search request: a configuration plus its mapper seed.
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest {
    pub config: Config,
    pub seed: u64,
    pub round: usize,
}

/// Seeded generator for everything a workload draws.
pub fn rng_for(workload: &str, seed: u64, stream: u64) -> SmallRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in workload.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    SmallRng::seed_from_u64(h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// The fixed request list: `rounds` passes over the configurations, each
/// pass in a seeded order with seeded mapper seeds in `0..VARIANTS`.
pub fn search_requests(w: SearchWorkload, seed: u64, rounds: usize) -> Vec<SearchRequest> {
    let configs = w.configs();
    let mut rng = rng_for(w.name(), seed, 0);
    let mut out = Vec::with_capacity(rounds * configs.len());
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..configs.len()).collect();
        order.shuffle(&mut rng);
        for i in order {
            out.push(SearchRequest {
                config: configs[i],
                seed: rng.gen_range(0..VARIANTS),
                round,
            });
        }
    }
    out
}

/// Rounds a run of `seconds` makes.
pub fn rounds_for(w: SearchWorkload, seconds: u64) -> usize {
    ((seconds as f64 * w.rounds_per_second()).round() as usize).max(2)
}
