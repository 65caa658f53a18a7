//! Checked-in expectations: per-request results and reference EDPs.
//!
//! `expect.tsv` holds, for every (search configuration, mapper seed) the
//! workloads can draw, the exact score and best mapping the search stack
//! returned when the file was generated. `reference_edp.tsv` holds one
//! reference EDP per (problem, architecture, density) from a documented
//! long run (`perfbench regen`, see the README); it is never recomputed
//! by a benchmark run.

use crate::workload::{Config, Key};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Expected result of one search request.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub score: f64,
    pub mapping: String,
}

/// All checked-in expectations.
pub struct Data {
    pub expect: BTreeMap<(String, u64), Expected>,
    pub reference: BTreeMap<String, f64>,
}

pub const EXPECT_FILE: &str = "expect.tsv";
pub const REFERENCE_FILE: &str = "reference_edp.tsv";

fn parse_bits(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bits `{s}`: {e}"))
}

impl Data {
    pub fn load(dir: &Path) -> Result<Data, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        let mut expect = BTreeMap::new();
        for line in read(EXPECT_FILE)?
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 4 {
                return Err(format!("{EXPECT_FILE}: malformed line `{line}`"));
            }
            let seed = f[1]
                .parse()
                .map_err(|e| format!("{EXPECT_FILE}: seed: {e}"))?;
            expect.insert(
                (f[0].to_string(), seed),
                Expected {
                    score: parse_bits(f[2])?,
                    mapping: f[3].to_string(),
                },
            );
        }
        let mut reference = BTreeMap::new();
        for line in read(REFERENCE_FILE)?
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() < 2 {
                return Err(format!("{REFERENCE_FILE}: malformed line `{line}`"));
            }
            reference.insert(f[0].to_string(), parse_bits(f[1])?);
        }
        Ok(Data { expect, reference })
    }

    pub fn expected(&self, config: &Config, seed: u64) -> Option<&Expected> {
        self.expect.get(&(config.label(), seed))
    }

    pub fn reference(&self, key: &Key) -> Option<f64> {
        self.reference.get(&key.label()).copied()
    }
}

/// Renders `expect.tsv`.
pub fn render_expect(rows: &[(Config, u64, Expected)]) -> String {
    let mut s = String::from(
        "# config\tmapper seed\tscore (f64 bits, hex)\tbest mapping (mapping::codec spec)\n",
    );
    for (c, seed, e) in rows {
        let _ = writeln!(
            s,
            "{}\t{seed}\t{:016x}\t{}",
            c.label(),
            e.score.to_bits(),
            e.mapping
        );
    }
    s
}

/// Renders `reference_edp.tsv`.
pub fn render_reference(rows: &[(Key, f64, String)]) -> String {
    let mut s = String::from("# key\treference EDP (f64 bits, hex)\tEDP\twhere it was found\n");
    for (k, edp, source) in rows {
        let _ = writeln!(
            s,
            "{}\t{:016x}\t{edp:e}\t{source}",
            k.label(),
            edp.to_bits()
        );
    }
    s
}

/// FNV-1a digest over (request, mapping, score) records, in request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, request: &str, mapping: &str, score: f64) {
        for chunk in [
            request.as_bytes(),
            b"|",
            mapping.as_bytes(),
            b"|",
            &score.to_bits().to_le_bytes(),
        ] {
            for &b in chunk {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
