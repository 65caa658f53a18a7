//! `mapex evaluate --explain-bound` prints the admissible bound of the
//! engine the mappers prune with: for dense and sparse profiles, the
//! printed `bound` line must equal `guarded_engine(..).cost_bound(m)`.

use costmodel::{guarded_engine, CostModel, GuardPolicy};
use mapping::MapSpace;
use problem::Density;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::Command;

const MAPEX: &str = env!("CARGO_BIN_EXE_mapex");
const PROBLEM: &str = "CONV2D;c;B=2,K=16,C=16,Y=7,X=7,R=3,S=3";

/// The `bound    : ...` line `mapex evaluate --explain-bound` prints.
fn printed_bound(mapping: &str, density: &[&str]) -> String {
    let out = Command::new(MAPEX)
        .args(["evaluate", "--problem", PROBLEM, "--arch", "accel-b", "--mapping", mapping])
        .args(density)
        .arg("--explain-bound")
        .output()
        .expect("run mapex evaluate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    stdout
        .lines()
        .find(|l| l.starts_with("bound    : "))
        .unwrap_or_else(|| panic!("no bound line in\n{stdout}"))
        .to_string()
}

#[test]
fn printed_bound_is_the_engines_bound() {
    let p = problem::codec::from_spec(PROBLEM).unwrap();
    let a = arch::Arch::accel_b();
    let space = MapSpace::new(p.clone(), a.clone());
    let mut rng = SmallRng::seed_from_u64(5);
    for (density, flags) in [
        (None, vec![]),
        (
            Some(Density { weight: 0.25, input: 0.5 }),
            vec!["--weight-density", "0.25", "--input-density", "0.5"],
        ),
    ] {
        let engine = guarded_engine(&p, &a, density, GuardPolicy::Reject);
        for _ in 0..3 {
            let m = space.random(&mut rng);
            let bound = engine.cost_bound(&m).expect("legal mapping has a bound");
            let want = format!("bound    : {bound} (admissible floor; never above the true cost)");
            assert_eq!(printed_bound(&mapping::codec::to_spec(&m), &flags), want);
        }
    }
}
