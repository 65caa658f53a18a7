//! Checkpoint-corruption robustness: a torn or bit-rotted checkpoint file
//! must surface as [`CheckpointError::Corrupt`] (or parse as a valid
//! prefix of the sweep) — never a panic — and the rolling `.bak` written
//! by [`SweepCheckpoint::save`] must rescue a corrupted primary.

use mse::{CheckpointError, LayerCheckpoint, SweepCheckpoint};
use std::fs;
use std::path::{Path, PathBuf};

fn sample_checkpoint() -> SweepCheckpoint {
    SweepCheckpoint {
        seed: 42,
        strategy: "by-similarity".to_string(),
        budget_samples: Some(500),
        budget_seconds: None,
        layers: vec![
            LayerCheckpoint {
                name: "conv1".to_string(),
                init_score: 125.5,
                best_score: 17.25,
                converge_sample: 210,
                evaluated: 500,
                elapsed_secs: 0.75,
                mapping: Some("o:0,1,2,3;t:1,2,1,4;s:1,1,1,1".to_string()),
                latency_cycles: 64.0,
                energy_uj: 0.224,
            },
            LayerCheckpoint {
                name: "conv2".to_string(),
                init_score: 90.0,
                best_score: f64::INFINITY,
                converge_sample: 0,
                evaluated: 500,
                elapsed_secs: 1.5,
                mapping: None,
                latency_cycles: f64::INFINITY,
                energy_uj: f64::INFINITY,
            },
        ],
    }
}

/// A scratch directory unique per test (no tempdir dependency).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mse-ckpt-corruption-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_primary_only(dir: &Path, bytes: &[u8]) -> PathBuf {
    let path = dir.join("sweep.ckpt");
    fs::write(&path, bytes).expect("write checkpoint bytes");
    // These tests target the *parser*; drop the backup so `load` cannot
    // rescue the corruption.
    let _ = fs::remove_file(SweepCheckpoint::backup_path(&path));
    path
}

/// Truncation at *every* byte offset: a torn write can stop anywhere, and
/// wherever it stops the loader must answer Corrupt (or, for a lucky
/// prefix that still parses, a checkpoint whose layers are a prefix of
/// the original) — and must never panic.
#[test]
fn truncation_at_every_offset_is_corrupt_or_valid_prefix() {
    let dir = scratch("truncate");
    let ckpt = sample_checkpoint();
    let full = ckpt.to_json();
    let bytes = full.as_bytes();
    for cut in 0..bytes.len() {
        let path = write_primary_only(&dir, &bytes[..cut]);
        match SweepCheckpoint::load(&path) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(!msg.is_empty(), "cut at {cut}: Corrupt must carry a diagnostic");
            }
            Ok(parsed) => {
                // A truncated JSON document virtually never reparses, but
                // if it does, it must describe a prefix of the real sweep
                // under the same identity — resuming from it is safe.
                assert_eq!(parsed.seed, ckpt.seed, "cut at {cut}");
                assert_eq!(parsed.strategy, ckpt.strategy, "cut at {cut}");
                assert!(parsed.layers.len() <= ckpt.layers.len(), "cut at {cut}");
                for (got, want) in parsed.layers.iter().zip(&ckpt.layers) {
                    assert_eq!(got.name, want.name, "cut at {cut}");
                }
            }
            Err(e) => panic!("cut at {cut}: unexpected error class: {e}"),
        }
    }
    // The untruncated file round-trips exactly.
    let path = write_primary_only(&dir, bytes);
    let parsed = SweepCheckpoint::load(&path).expect("full file parses");
    assert_eq!(parsed.layers.len(), ckpt.layers.len());
    assert_eq!(parsed.layers[0].mapping, ckpt.layers[0].mapping);
    let _ = fs::remove_dir_all(&dir);
}

/// Bit rot: flipping a single bit anywhere in the file must never panic
/// the loader, nor the resume that rebuilds each loaded layer. (Many flips
/// land in numeric or string payloads and still parse; those must at
/// least preserve the layer-list shape invariant.)
#[test]
fn single_bit_flips_never_panic() {
    let dir = scratch("bitflip");
    let ckpt = sample_checkpoint();
    let clean = ckpt.to_json().into_bytes();
    for byte_idx in 0..clean.len() {
        for bit in 0..8 {
            let mut rotted = clean.clone();
            rotted[byte_idx] ^= 1 << bit;
            let path = write_primary_only(&dir, &rotted);
            match SweepCheckpoint::load(&path) {
                Ok(parsed) => {
                    assert!(
                        parsed.layers.len() <= ckpt.layers.len() + 1,
                        "byte {byte_idx} bit {bit}: shape exploded"
                    );
                    for layer in &parsed.layers {
                        if let Err(e) = layer.to_outcome() {
                            assert!(
                                matches!(e, CheckpointError::Corrupt(_)),
                                "byte {byte_idx} bit {bit}: unexpected error class: {e}"
                            );
                        }
                    }
                }
                Err(CheckpointError::Corrupt(_) | CheckpointError::Io(_)) => {}
                Err(e) => {
                    panic!("byte {byte_idx} bit {bit}: unexpected error class: {e}")
                }
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A layer whose `elapsed_secs` parses as a number but is no duration
/// (too large, or infinite) is corrupt on resume, not a panic.
#[test]
fn out_of_range_elapsed_secs_is_corrupt() {
    let dir = scratch("elapsed");
    let clean = sample_checkpoint().to_json();
    for value in ["1e300", "\"inf\""] {
        let text =
            clean.replacen("\"elapsed_secs\": 0.75", &format!("\"elapsed_secs\": {value}"), 1);
        assert_ne!(text, clean, "the sample layer's elapsed_secs was not found");
        let path = write_primary_only(&dir, text.as_bytes());
        let parsed = SweepCheckpoint::load(&path).expect("a large number still parses");
        match parsed.layers[0].to_outcome() {
            Err(CheckpointError::Corrupt(msg)) => assert!(msg.contains("elapsed_secs"), "{msg}"),
            other => panic!("elapsed_secs {value}: expected Corrupt, got {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Long-running sweeps save after every layer; the scratch directory must
/// not grow with the number of saves. Exactly one rolling `.bak` per
/// checkpoint path, no stranded `.tmp` staging files, and the backup is
/// always exactly one generation behind the primary.
#[test]
fn repeated_saves_keep_exactly_one_backup_and_no_strays() {
    let dir = scratch("rolling");
    let path = dir.join("sweep.ckpt");
    let mut ckpt = sample_checkpoint();
    ckpt.layers.clear();
    for generation in 0..12 {
        let mut layer = sample_checkpoint().layers[0].clone();
        layer.name = format!("layer{generation}");
        ckpt.layers.push(layer);
        ckpt.save(&path).expect("save");

        let mut names: Vec<String> = fs::read_dir(&dir)
            .expect("read scratch dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let expected: &[&str] =
            if generation == 0 { &["sweep.ckpt"] } else { &["sweep.ckpt", "sweep.ckpt.bak"] };
        assert_eq!(names, expected, "after save #{}", generation + 1);

        let primary = SweepCheckpoint::load(&path).expect("primary parses");
        assert_eq!(primary.layers.len(), generation + 1);
        if generation > 0 {
            let bak = SweepCheckpoint::load(&SweepCheckpoint::backup_path(&path))
                .expect("backup parses");
            assert_eq!(bak.layers.len(), generation, ".bak is exactly one save behind");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The durability contract of `save`: the previous checkpoint survives as
/// `.bak`, and `load` falls back to it when the primary is corrupted.
#[test]
fn backup_rescues_corrupted_primary() {
    let dir = scratch("backup");
    let path = dir.join("sweep.ckpt");
    let mut ckpt = sample_checkpoint();
    ckpt.layers.truncate(1);
    ckpt.save(&path).expect("first save");
    let newer = sample_checkpoint();
    newer.save(&path).expect("second save");
    let bak = SweepCheckpoint::backup_path(&path);
    assert!(bak.exists(), "second save must keep the previous file as .bak");
    let bak_parsed = SweepCheckpoint::load(&bak).expect("backup parses");
    assert_eq!(bak_parsed.layers.len(), 1, ".bak is the previous generation");

    // Corrupt the primary: load() must rescue via the backup, handing the
    // sweep its last good (one-layer-behind) state.
    fs::write(&path, b"{\"seed\": 42, \"str").expect("corrupt primary");
    let rescued = SweepCheckpoint::load(&path).expect("backup fallback");
    assert_eq!(rescued.layers.len(), 1);
    assert_eq!(rescued.layers[0].name, "conv1");

    // Delete the primary outright (crash between save's two renames):
    // the backup still resumes the sweep.
    fs::remove_file(&path).expect("drop primary");
    let rescued = SweepCheckpoint::load(&path).expect("missing-primary fallback");
    assert_eq!(rescued.layers.len(), 1);

    // Both corrupt: the diagnostic says the backup was tried too.
    fs::write(&path, b"not json").expect("re-corrupt primary");
    fs::write(&bak, b"also not json").expect("corrupt backup");
    match SweepCheckpoint::load(&path) {
        Err(CheckpointError::Corrupt(msg)) => {
            assert!(msg.contains("backup"), "diagnostic should mention the backup: {msg}")
        }
        Ok(_) => panic!("expected Corrupt, got a parsed checkpoint"),
        Err(e) => panic!("expected Corrupt, got {e}"),
    }
    // Backup missing entirely: still a structured Corrupt, never a panic.
    fs::remove_file(&bak).expect("drop backup");
    assert!(matches!(SweepCheckpoint::load(&path), Err(CheckpointError::Corrupt(_))));
    let _ = fs::remove_dir_all(&dir);
}
