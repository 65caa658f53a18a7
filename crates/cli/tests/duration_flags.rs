//! Duration inputs that no `Duration` can hold are input errors, not
//! panics: hostile `--seconds` / `--timeout` values exit 1, and a sweep
//! checkpoint whose `elapsed_secs` is out of range resumes to exit 4
//! (corrupt checkpoint).

use std::process::{Command, Output};

const MAPEX: &str = env!("CARGO_BIN_EXE_mapex");
const PROBLEM: &str = "GEMM;g;B=2,M=16,K=16,N=16";

fn mapex(args: &[&str]) -> Output {
    Command::new(MAPEX).args(args).output().expect("run mapex")
}

/// Asserts `out` exited with `code` and its stderr names `needle` without
/// any panic text.
fn assert_fails(out: &Output, code: i32, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(stderr.contains(needle), "{what}: stderr does not name `{needle}`: {stderr}");
}

#[test]
fn hostile_seconds_and_timeouts_exit_1() {
    for v in ["-1", "nan", "inf", "1e300", "0", "abc"] {
        let search = ["search", "--problem", PROBLEM, "--samples", "50"];
        let out = mapex(&[&search[..], &["--seconds", v]].concat());
        assert_fails(&out, 1, "--seconds", &format!("search --seconds {v}"));
        let out = mapex(&[&search[..], &["--timeout", v]].concat());
        assert_fails(&out, 1, "--timeout", &format!("search --timeout {v}"));
        let out = mapex(&["sweep", "--model", "mnasnet", "--seconds", v]);
        assert_fails(&out, 1, "--seconds", &format!("sweep --seconds {v}"));
        // The flag is checked before any connection is attempted.
        let ping = r#"{"id": 1, "op": "ping"}"#;
        let out = mapex(&["request", "--addr", "127.0.0.1:9", "--timeout", v, ping]);
        assert_fails(&out, 1, "--timeout", &format!("request --timeout {v}"));
    }
}

#[test]
fn out_of_range_elapsed_secs_resumes_to_exit_4() {
    let dir = std::env::temp_dir().join(format!("mapex-duration-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let ckpt = dir.join("sweep.ckpt");
    let ckpt_arg = ckpt.to_str().expect("utf-8 temp path");
    let sweep = ["sweep", "--model", "mnasnet", "--samples", "20", "--seed", "1"];
    let out = mapex(&[&sweep[..], &["--checkpoint", ckpt_arg]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let clean = std::fs::read_to_string(&ckpt).expect("checkpoint written");
    let at = clean.find("\"elapsed_secs\": ").expect("a layer records elapsed_secs")
        + "\"elapsed_secs\": ".len();
    let end = at + clean[at..].find(',').expect("field ends with a comma");
    for value in ["1e300", "\"inf\""] {
        let text = format!("{}{value}{}", &clean[..at], &clean[end..]);
        std::fs::write(&ckpt, text).expect("rewrite checkpoint");
        let out = mapex(&[&sweep[..], &["--resume", ckpt_arg]].concat());
        assert_fails(&out, 4, "elapsed_secs", &format!("resume with elapsed_secs {value}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
