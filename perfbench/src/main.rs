use perfbench::data::Data;
use perfbench::stats::{result_line, Metrics};
use perfbench::workload::SearchWorkload;
use perfbench::{regen, search, serve, trace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <search_mix|search_dosa|serve_mix> --seed N \
--seconds S --trace 0|1 [--data DIR] [--mapex BIN] [--work DIR]\n       perfbench regen --mapex BIN [--data DIR] [--work DIR]\n";

struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value `{v}`")),
        }
    }
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut pairs = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        pairs.push((key.to_string(), value.clone()));
    }
    Ok(Args { pairs })
}

fn run(raw: &[String]) -> Result<bool, String> {
    if raw.first().map(String::as_str) == Some("regen") {
        let args = parse(&raw[1..])?;
        let dir = PathBuf::from(args.get("data").unwrap_or("perfbench/data"));
        let mapex = PathBuf::from(args.get("mapex").ok_or("regen needs --mapex")?);
        let work = PathBuf::from(args.get("work").unwrap_or(".bench_build/perfbench-work"));
        regen::regen(&dir, &mapex, &work)?;
        return Ok(true);
    }
    let args = parse(raw)?;
    let workload = args.get("workload").ok_or("--workload is required")?;
    let seed = args.num("seed", 1)?;
    let seconds = args.num("seconds", 10)?.max(1);
    let traced = match args.num("trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let data = Data::load(&PathBuf::from(args.get("data").unwrap_or("perfbench/data")))?;
    let work = PathBuf::from(args.get("work").unwrap_or(".bench_build/perfbench-work"));
    let (metrics, attempted, failed, correct): (Metrics, usize, usize, bool) =
        match (workload, traced) {
            ("search_mix", false) => search::run(SearchWorkload::Mix, seed, seconds, &data),
            ("search_dosa", false) => search::run(SearchWorkload::Dosa, seed, seconds, &data),
            ("search_mix", true) => trace::run_search(SearchWorkload::Mix, seed, &data, &work),
            ("search_dosa", true) => trace::run_search(SearchWorkload::Dosa, seed, &data, &work),
            ("serve_mix", _) => {
                let mapex = PathBuf::from(args.get("mapex").ok_or("serve_mix needs --mapex")?);
                serve::run(
                    &serve::Setup {
                        mapex,
                        work: work.clone(),
                        seed,
                        seconds,
                        traced,
                        rate: match args.get("rate") {
                            None => serve::RATE,
                            Some(r) => r.parse().map_err(|_| format!("--rate: bad value `{r}`"))?,
                        },
                    },
                    &data,
                )?
            }
            (other, _) => return Err(format!("unknown workload `{other}`")),
        };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
