//! `--guard reject|warn|off` picks the policy of the one guarded engine:
//! on a healthy model every policy prints the same search result and the
//! same evaluated cost (`off` skips the checks, it changes no number), and
//! an unknown value is a usage error.

use std::process::{Command, Output};

const MAPEX: &str = env!("CARGO_BIN_EXE_mapex");
const PROBLEM: &str = "CONV2D;c;B=2,K=16,C=16,Y=7,X=7,R=3,S=3";

fn mapex(args: &[&str]) -> Output {
    Command::new(MAPEX).args(args).output().expect("run mapex")
}

/// The stdout lines of a successful run that start with `prefix`.
fn lines(out: &Output, prefix: &str) -> Vec<String> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let found: Vec<String> =
        stdout.lines().filter(|l| l.starts_with(prefix)).map(str::to_string).collect();
    assert!(!found.is_empty(), "no `{prefix}` line in\n{stdout}");
    found
}

fn search(guard: &str) -> Output {
    mapex(&[
        "search", "--problem", PROBLEM, "--arch", "accel-b", "--mapper", "gamma", "--samples",
        "300", "--seed", "4", "--guard", guard,
    ])
}

#[test]
fn search_prints_the_same_result_under_every_policy() {
    let reject = search("reject");
    let (cost, mapping) = (lines(&reject, "cost     : "), lines(&reject, "mapping  : "));
    for guard in ["warn", "off"] {
        let out = search(guard);
        assert_eq!(lines(&out, "cost     : "), cost, "--guard {guard}");
        assert_eq!(lines(&out, "mapping  : "), mapping, "--guard {guard}");
    }
}

#[test]
fn evaluate_prints_the_same_cost_off_and_reject() {
    let best = search("reject");
    let spec = lines(&best, "mapping  : ")[0].trim_start_matches("mapping  : ").to_string();
    let evaluate = |guard: &str| {
        let out = mapex(&[
            "evaluate", "--problem", PROBLEM, "--arch", "accel-b", "--mapping", &spec, "--guard",
            guard,
        ]);
        lines(&out, "cost     : ")
    };
    assert_eq!(evaluate("off"), evaluate("reject"));
}

#[test]
fn unknown_guard_is_rejected() {
    let out = search("bogus");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown --guard `bogus` (reject | warn | off)"), "{stderr}");
}
