//! Hardened ingestion of user-supplied architecture and workload specs.
//!
//! The build environment is fully offline (no serde/toml), so this crate
//! implements a small, *strict* TOML subset by hand: `key = value` pairs,
//! `[section]` tables, `[[level]]` arrays-of-tables, `#` comments, quoted
//! strings, integers (with `_` separators), floats, and booleans. Strict
//! means bad input fails fast with an actionable, line-numbered
//! [`SpecError`] instead of a deep-engine panic: unknown fields and
//! sections are rejected, duplicates are rejected, and every physical
//! sanity rule (zero capacity, zero fanout, unbounded inner levels, empty
//! or zero dimension bounds, operator/dimension-set mismatches) has its
//! own error variant.
//!
//! # Architecture spec
//!
//! ```toml
//! kind = "arch"            # optional; inferred from [[level]]
//! name = "edge-npu"
//! mac_energy = 1.0         # pJ per MAC
//! word_bytes = 2
//!
//! [[level]]                # outermost (DRAM) first
//! name = "DRAM"
//! fanout = 1
//! energy_per_access = 200.0
//! bandwidth = 16.0         # words/cycle; capacity_words omitted = unbounded
//! ```
//!
//! # Problem spec
//!
//! ```toml
//! kind = "problem"         # optional; inferred from [dims]
//! name = "Resnet Conv_3"
//! op = "CONV2D"            # CONV2D | PWCONV | DWCONV | GEMM
//!
//! [dims]
//! B = 16
//! K = 128
//! C = 128
//! Y = 28
//! X = 28
//! R = 3
//! S = 3
//! ```
//!
//! # Example
//!
//! ```
//! let text = "op = \"GEMM\"\n[dims]\nB = 1\nM = 4\nK = 4\nN = 4\n";
//! let p = spec::parse_problem(text).unwrap();
//! assert_eq!(p.total_macs(), 64);
//! ```

use arch::{Arch, ArchError, MemLevel};
use problem::{DimName, OperatorKind, Problem};
use std::fmt;

/// Spec-error taxonomy: every way user input can be malformed gets a
/// distinct, named variant so CLI messages (and tests) can be precise.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Syntactically malformed line.
    Parse { line: usize, message: String },
    /// A `[section]` this format does not define.
    UnknownSection { section: String, line: usize },
    /// A plain `[section]` opened twice.
    DuplicateSection { section: String, line: usize },
    /// A key this format does not define.
    UnknownField { section: String, field: String, line: usize },
    /// The same key assigned twice in one table.
    DuplicateField { section: String, field: String, line: usize },
    /// A required key is absent.
    MissingField { section: String, field: String },
    /// A key exists but its value has the wrong type or range.
    BadValue { field: String, expected: &'static str, got: String, line: usize },
    /// `kind` is neither `"arch"` nor `"problem"`, or neither could be
    /// inferred from the sections present.
    UnknownKind { found: String },
    /// An architecture with no memory levels.
    EmptyHierarchy,
    /// An architecture deeper than [`arch::MAX_LEVELS`] levels.
    TooManyLevels { levels: usize },
    /// A memory level declaring `capacity_words = 0`.
    ZeroCapacity { level: String },
    /// A non-DRAM level with no capacity bound.
    UnboundedInnerLevel { level: String },
    /// A fanout inconsistent with a physical hierarchy (zero).
    FanoutMismatch { level: String, fanout: u64 },
    /// A problem with no `[dims]` entries at all.
    EmptyDims,
    /// A dimension bound of zero.
    ZeroDimBound { dim: String, line: usize },
    /// A dimension letter outside B, K, C, Y, X, R, S, M, N.
    UnknownDim { dim: String, line: usize },
    /// An operator tag outside CONV2D, PWCONV, DWCONV, GEMM.
    UnknownOperator { op: String },
    /// The dimension set does not match what the operator requires.
    DimSetMismatch { op: String, message: String },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, message } => write!(f, "line {line}: {message}"),
            SpecError::UnknownSection { section, line } => {
                write!(f, "line {line}: unknown section `[{section}]`")
            }
            SpecError::DuplicateSection { section, line } => {
                write!(f, "line {line}: section `[{section}]` given twice")
            }
            SpecError::UnknownField { section, field, line } => {
                write!(f, "line {line}: unknown field `{field}` in {section}")
            }
            SpecError::DuplicateField { section, field, line } => {
                write!(f, "line {line}: field `{field}` given twice in {section}")
            }
            SpecError::MissingField { section, field } => {
                write!(f, "missing required field `{field}` in {section}")
            }
            SpecError::BadValue { field, expected, got, line } => {
                write!(f, "line {line}: `{field}` expects {expected}, got `{got}`")
            }
            SpecError::UnknownKind { found } => write!(
                f,
                "cannot tell whether this is an arch or a problem spec \
                 (kind = `{found}`); say `kind = \"arch\"` or `kind = \"problem\"`, \
                 or add a `[[level]]` / `[dims]` section"
            ),
            SpecError::EmptyHierarchy => {
                write!(f, "architecture has no `[[level]]` sections; at least one memory level is required")
            }
            SpecError::TooManyLevels { levels } => {
                write!(f, "architecture has {levels} `[[level]]` sections; at most {} are supported", arch::MAX_LEVELS)
            }
            SpecError::ZeroCapacity { level } => {
                write!(f, "level `{level}`: capacity_words = 0 can hold no data; use a positive capacity or omit it for an unbounded (DRAM) level")
            }
            SpecError::UnboundedInnerLevel { level } => {
                write!(f, "level `{level}`: only the outermost (DRAM) level may omit capacity_words")
            }
            SpecError::FanoutMismatch { level, fanout } => {
                write!(f, "level `{level}`: fanout = {fanout} is not a physical hierarchy (every level needs at least one instance)")
            }
            SpecError::EmptyDims => {
                write!(f, "problem has no dimension bounds; add a `[dims]` section with at least one entry")
            }
            SpecError::ZeroDimBound { dim, line } => {
                write!(f, "line {line}: dimension `{dim}` has bound 0; every bound must be at least 1")
            }
            SpecError::UnknownDim { dim, line } => {
                write!(f, "line {line}: unknown dimension `{dim}` (expected one of B, K, C, Y, X, R, S, M, N)")
            }
            SpecError::UnknownOperator { op } => {
                write!(f, "unknown operator `{op}` (expected CONV2D, PWCONV, DWCONV, or GEMM)")
            }
            SpecError::DimSetMismatch { op, message } => {
                write!(f, "dimension set does not match operator `{op}`: {message}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A successfully ingested spec.
#[derive(Debug, Clone)]
pub enum Spec {
    /// An architecture description.
    Arch(Arch),
    /// A workload description.
    Problem(Problem),
}

// ---------------------------------------------------------------------------
// Lexing/parsing of the TOML subset into a document model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum RawValue {
    Str(String),
    /// Numeric token, kept raw so integers stay exact (`_` separators kept).
    Num(String),
    Bool(bool),
}

#[derive(Debug, Clone)]
struct Entry {
    key: String,
    value: RawValue,
    line: usize,
}

#[derive(Debug, Clone)]
struct Section {
    name: String,
    array: bool,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone, Default)]
struct Doc {
    root: Vec<Entry>,
    sections: Vec<Section>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_value(raw: &str, line: usize) -> Result<RawValue, SpecError> {
    let perr = |m: String| SpecError::Parse { line, message: m };
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return Err(perr("unterminated string".to_string()));
        };
        let tail = rest[end + 1..].trim();
        if !(tail.is_empty() || tail.starts_with('#')) {
            return Err(perr(format!("unexpected trailing `{tail}` after string")));
        }
        return Ok(RawValue::Str(rest[..end].to_string()));
    }
    // Bare token: strip a trailing comment, then it must be one word.
    let bare = raw.split('#').next().unwrap_or("").trim();
    if bare.is_empty() {
        return Err(perr("missing value after `=`".to_string()));
    }
    if bare.split_whitespace().count() != 1 {
        return Err(perr(format!("unquoted value `{bare}` contains whitespace")));
    }
    match bare {
        "true" => Ok(RawValue::Bool(true)),
        "false" => Ok(RawValue::Bool(false)),
        _ => Ok(RawValue::Num(bare.to_string())),
    }
}

fn parse_doc(text: &str) -> Result<Doc, SpecError> {
    // Specs now also arrive over the network (`mapex serve`'s validate /
    // `*_toml` request fields) and from Windows editors: tolerate a
    // leading UTF-8 BOM rather than reporting a confusing `bad key` on
    // line 1. (`lines()` already absorbs CRLF endings.)
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut doc = Doc::default();
    let mut in_section = false;
    for (i, raw_line) in text.lines().enumerate() {
        let line = i + 1;
        let perr = |m: String| SpecError::Parse { line, message: m };
        let trimmed = raw_line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(inner) = trimmed.strip_prefix("[[") {
            let Some(name) = inner.strip_suffix("]]") else {
                return Err(perr("malformed `[[section]]` header".to_string()));
            };
            let name = name.trim();
            if !valid_name(name) {
                return Err(perr(format!("bad section name `{name}`")));
            }
            if doc.sections.iter().any(|s| s.name == name && !s.array) {
                return Err(perr(format!("`[{name}]` and `[[{name}]]` used for the same name")));
            }
            doc.sections.push(Section { name: name.to_string(), array: true, entries: vec![] });
            in_section = true;
        } else if let Some(inner) = trimmed.strip_prefix('[') {
            let Some(name) = inner.strip_suffix(']') else {
                return Err(perr("malformed `[section]` header".to_string()));
            };
            let name = name.trim();
            if !valid_name(name) {
                return Err(perr(format!("bad section name `{name}`")));
            }
            if let Some(prev) = doc.sections.iter().find(|s| s.name == name) {
                return Err(if prev.array {
                    perr(format!("`[{name}]` and `[[{name}]]` used for the same name"))
                } else {
                    SpecError::DuplicateSection { section: name.to_string(), line }
                });
            }
            doc.sections.push(Section { name: name.to_string(), array: false, entries: vec![] });
            in_section = true;
        } else if let Some((key, value)) = trimmed.split_once('=') {
            let key = key.trim();
            if !valid_name(key) {
                return Err(perr(format!("bad key `{key}`")));
            }
            let entry = Entry { key: key.to_string(), value: parse_value(value, line)?, line };
            let bucket = if in_section {
                &mut doc.sections.last_mut().expect("in_section implies a section").entries
            } else {
                &mut doc.root
            };
            bucket.push(entry);
        } else {
            return Err(perr(format!("expected `key = value` or a section header, got `{trimmed}`")));
        }
    }
    Ok(doc)
}

// ---------------------------------------------------------------------------
// Typed field access over a table.
// ---------------------------------------------------------------------------

/// A table (root or section) with strict, consume-tracking field access:
/// duplicate keys and leftover (unknown) keys are errors.
struct Fields<'a> {
    section: String,
    entries: &'a [Entry],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(section: &str, entries: &'a [Entry]) -> Fields<'a> {
        Fields { section: section.to_string(), entries, used: vec![false; entries.len()] }
    }

    fn take(&mut self, key: &str) -> Result<Option<&'a Entry>, SpecError> {
        let mut found: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.key == key {
                if found.is_some() {
                    return Err(SpecError::DuplicateField {
                        section: self.section.clone(),
                        field: key.to_string(),
                        line: e.line,
                    });
                }
                found = Some(i);
            }
        }
        Ok(found.map(|i| {
            self.used[i] = true;
            &self.entries[i]
        }))
    }

    fn require(&mut self, key: &str) -> Result<&'a Entry, SpecError> {
        self.take(key)?.ok_or_else(|| SpecError::MissingField {
            section: self.section.clone(),
            field: key.to_string(),
        })
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, SpecError> {
        self.take(key)?.map(as_str).transpose()
    }

    /// Errors on any field never consumed — the "unknown field" guarantee.
    fn finish(self) -> Result<(), SpecError> {
        for (i, e) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(SpecError::UnknownField {
                    section: self.section,
                    field: e.key.clone(),
                    line: e.line,
                });
            }
        }
        Ok(())
    }
}

fn bad(e: &Entry, expected: &'static str) -> SpecError {
    let got = match &e.value {
        RawValue::Str(s) => format!("\"{s}\""),
        RawValue::Num(s) => s.clone(),
        RawValue::Bool(b) => b.to_string(),
    };
    SpecError::BadValue { field: e.key.clone(), expected, got, line: e.line }
}

fn as_str(e: &Entry) -> Result<String, SpecError> {
    match &e.value {
        RawValue::Str(s) => Ok(s.clone()),
        _ => Err(bad(e, "a quoted string")),
    }
}

fn as_u64(e: &Entry) -> Result<u64, SpecError> {
    match &e.value {
        RawValue::Num(s) if !s.contains(['.', 'e', 'E', '+', '-']) => {
            s.replace('_', "").parse().map_err(|_| bad(e, "a non-negative integer"))
        }
        _ => Err(bad(e, "a non-negative integer")),
    }
}

fn as_f64(e: &Entry) -> Result<f64, SpecError> {
    let RawValue::Num(s) = &e.value else { return Err(bad(e, "a finite number")) };
    match s.replace('_', "").parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(bad(e, "a finite number")),
    }
}

fn as_positive_f64(e: &Entry) -> Result<f64, SpecError> {
    match as_f64(e)? {
        v if v > 0.0 => Ok(v),
        _ => Err(bad(e, "a positive number")),
    }
}

// ---------------------------------------------------------------------------
// Spec construction.
// ---------------------------------------------------------------------------

const TOP: &str = "the top-level table";

fn build_arch(doc: &Doc) -> Result<Arch, SpecError> {
    let mut root = Fields::new(TOP, &doc.root);
    root.opt_str("kind")?;
    let name = root.opt_str("name")?.unwrap_or_else(|| "custom-arch".to_string());
    let mac_energy = as_positive_f64(root.require("mac_energy")?)?;
    let word_entry = root.require("word_bytes")?;
    let word_bytes = as_u64(word_entry)?;
    if word_bytes == 0 {
        return Err(bad(word_entry, "a positive integer"));
    }
    root.finish()?;

    let mut levels = Vec::new();
    for s in &doc.sections {
        if s.name != "level" {
            let line = s.entries.first().map_or(1, |e| e.line.saturating_sub(1));
            return Err(SpecError::UnknownSection { section: s.name.clone(), line });
        }
        let idx = levels.len();
        let section = format!("`[[level]]` #{}", idx + 1);
        let mut f = Fields::new(&section, &s.entries);
        let lname = as_str(f.require("name")?)?;
        let capacity = f.take("capacity_words")?.map(as_u64).transpose()?;
        let fanout = as_u64(f.require("fanout")?)?;
        let energy_entry = f.require("energy_per_access")?;
        let energy = as_f64(energy_entry)?;
        if energy < 0.0 {
            return Err(bad(energy_entry, "a non-negative number"));
        }
        let bandwidth = as_positive_f64(f.require("bandwidth")?)?;
        f.finish()?;

        if capacity == Some(0) {
            return Err(SpecError::ZeroCapacity { level: lname });
        }
        if fanout == 0 {
            return Err(SpecError::FanoutMismatch { level: lname, fanout });
        }
        if idx > 0 && capacity.is_none() {
            return Err(SpecError::UnboundedInnerLevel { level: lname });
        }
        levels.push(MemLevel::new(lname, capacity, fanout, energy, bandwidth));
    }
    if levels.is_empty() {
        return Err(SpecError::EmptyHierarchy);
    }

    let level_name = |i: usize| levels.get(i).map_or_else(|| i.to_string(), |l: &MemLevel| l.name.clone());
    Arch::new(name, levels.clone(), mac_energy, word_bytes).map_err(|e| match e {
        ArchError::Empty => SpecError::EmptyHierarchy,
        ArchError::UnboundedInnerLevel(i) => SpecError::UnboundedInnerLevel { level: level_name(i) },
        ArchError::ZeroFanout(i) => SpecError::FanoutMismatch { level: level_name(i), fanout: 0 },
        ArchError::TooManyLevels(levels) => SpecError::TooManyLevels { levels },
    })
}

fn required_dims(op: OperatorKind) -> &'static [DimName] {
    use DimName::*;
    match op {
        OperatorKind::Conv2d => &[B, K, C, Y, X, R, S],
        OperatorKind::PointwiseConv2d => &[B, K, C, Y, X],
        OperatorKind::DepthwiseConv2d => &[B, C, Y, X, R, S],
        OperatorKind::Gemm => &[B, M, K, N],
    }
}

fn build_problem(doc: &Doc) -> Result<Problem, SpecError> {
    let mut root = Fields::new(TOP, &doc.root);
    root.opt_str("kind")?;
    let name = root.opt_str("name")?.unwrap_or_else(|| "custom-problem".to_string());
    let op_tag = as_str(root.require("op")?)?;
    root.finish()?;
    let op = OperatorKind::from_tag(&op_tag)
        .ok_or_else(|| SpecError::UnknownOperator { op: op_tag.clone() })?;

    let mut dims_section = None;
    for s in &doc.sections {
        if s.name == "dims" {
            dims_section = Some(s);
        } else {
            let line = s.entries.first().map_or(1, |e| e.line.saturating_sub(1));
            return Err(SpecError::UnknownSection { section: s.name.clone(), line });
        }
    }
    let entries: &[Entry] = dims_section.map_or(&[], |s| &s.entries);
    if entries.is_empty() {
        return Err(SpecError::EmptyDims);
    }

    let mut bounds: Vec<(DimName, u64)> = Vec::new();
    for e in entries {
        let dim = DimName::ALL
            .into_iter()
            .find(|d| d.letter().to_string() == e.key)
            .ok_or_else(|| SpecError::UnknownDim { dim: e.key.clone(), line: e.line })?;
        if bounds.iter().any(|(d, _)| *d == dim) {
            return Err(SpecError::DuplicateField {
                section: "`[dims]`".to_string(),
                field: e.key.clone(),
                line: e.line,
            });
        }
        let bound = as_u64(e)?;
        if bound == 0 {
            return Err(SpecError::ZeroDimBound { dim: e.key.clone(), line: e.line });
        }
        bounds.push((dim, bound));
    }

    // The operator fixes the dimension set exactly: missing letters would
    // panic deep in the constructors, and extras would be silently dropped
    // — both are rejected here instead.
    let required = required_dims(op);
    let missing: Vec<String> = required
        .iter()
        .filter(|d| !bounds.iter().any(|(have, _)| have == *d))
        .map(|d| d.letter().to_string())
        .collect();
    let extra: Vec<String> = bounds
        .iter()
        .filter(|(d, _)| !required.contains(d))
        .map(|(d, _)| d.letter().to_string())
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        let mut parts = Vec::new();
        if !missing.is_empty() {
            parts.push(format!("missing {}", missing.join(", ")));
        }
        if !extra.is_empty() {
            parts.push(format!("unexpected {}", extra.join(", ")));
        }
        let letters: Vec<String> = required.iter().map(|d| d.letter().to_string()).collect();
        return Err(SpecError::DimSetMismatch {
            op: op_tag,
            message: format!("{} (needs exactly {})", parts.join("; "), letters.join(", ")),
        });
    }

    let get = |d: DimName| bounds.iter().find(|(have, _)| *have == d).expect("checked").1;
    use DimName::*;
    Ok(match op {
        OperatorKind::Conv2d => {
            Problem::conv2d(name, get(B), get(K), get(C), get(Y), get(X), get(R), get(S))
        }
        OperatorKind::PointwiseConv2d => {
            Problem::pointwise_conv2d(name, get(B), get(K), get(C), get(Y), get(X))
        }
        OperatorKind::DepthwiseConv2d => {
            Problem::depthwise_conv2d(name, get(B), get(C), get(Y), get(X), get(R), get(S))
        }
        OperatorKind::Gemm => Problem::gemm(name, get(B), get(M), get(K), get(N)),
    })
}

/// Parses a spec of either kind, using the explicit `kind = "..."` key when
/// present and inferring from the sections (`[[level]]` → arch, `[dims]` →
/// problem) otherwise.
///
/// # Errors
///
/// Any [`SpecError`]; see the taxonomy on that type.
pub fn parse_any(text: &str) -> Result<Spec, SpecError> {
    let doc = parse_doc(text)?;
    let kind = doc.root.iter().find(|e| e.key == "kind");
    let kind = match kind {
        Some(e) => as_str(e)?,
        None => {
            let has_levels = doc.sections.iter().any(|s| s.name == "level");
            let has_dims = doc.sections.iter().any(|s| s.name == "dims");
            match (has_levels, has_dims) {
                (true, false) => "arch".to_string(),
                (false, true) => "problem".to_string(),
                _ => return Err(SpecError::UnknownKind { found: "(unspecified)".to_string() }),
            }
        }
    };
    match kind.as_str() {
        "arch" => build_arch(&doc).map(Spec::Arch),
        "problem" => build_problem(&doc).map(Spec::Problem),
        other => Err(SpecError::UnknownKind { found: other.to_string() }),
    }
}

/// Parses an architecture spec.
///
/// # Errors
///
/// Any [`SpecError`]; see the taxonomy on that type.
pub fn parse_arch(text: &str) -> Result<Arch, SpecError> {
    build_arch(&parse_doc(text)?)
}

/// Parses a problem spec.
///
/// # Errors
///
/// Any [`SpecError`]; see the taxonomy on that type.
pub fn parse_problem(text: &str) -> Result<Problem, SpecError> {
    build_problem(&parse_doc(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARCH: &str = r#"
kind = "arch"
name = "edge-npu"
mac_energy = 1.0
word_bytes = 2

[[level]]
name = "DRAM"
fanout = 1
energy_per_access = 200.0
bandwidth = 16.0

[[level]]
name = "GlobalBuffer"
capacity_words = 512_000   # 1 MiB at 2 B/word
fanout = 16
energy_per_access = 6.0
bandwidth = 32.0

[[level]]
name = "LocalBuffer"
capacity_words = 256
fanout = 64
energy_per_access = 0.5
bandwidth = 4.0
"#;

    const PROBLEM: &str = r#"
kind = "problem"
name = "Resnet Conv_3"
op = "CONV2D"

[dims]
B = 16
K = 128
C = 128
Y = 28
X = 28
R = 3
S = 3
"#;

    #[test]
    fn parses_a_full_arch() {
        let a = parse_arch(ARCH).expect("valid arch");
        assert_eq!(a.name(), "edge-npu");
        assert_eq!(a.num_levels(), 3);
        assert_eq!(a.level(1).capacity_words, Some(512_000));
        assert_eq!(a.level(2).fanout, 64);
    }

    #[test]
    fn parses_a_full_problem() {
        let p = parse_problem(PROBLEM).expect("valid problem");
        assert_eq!(p, problem::zoo::resnet_conv3());
    }

    #[test]
    fn parse_any_infers_kind_without_the_key() {
        let arch_text = ARCH.replace("kind = \"arch\"\n", "");
        assert!(matches!(parse_any(&arch_text), Ok(Spec::Arch(_))));
        let prob_text = PROBLEM.replace("kind = \"problem\"\n", "");
        assert!(matches!(parse_any(&prob_text), Ok(Spec::Problem(_))));
        assert!(matches!(
            parse_any("name = \"x\"\n"),
            Err(SpecError::UnknownKind { .. })
        ));
        assert!(matches!(
            parse_any("kind = \"workload\"\n"),
            Err(SpecError::UnknownKind { found }) if found == "workload"
        ));
    }

    #[test]
    fn rejects_unknown_fields_and_sections() {
        let text = ARCH.replace("word_bytes = 2", "word_bytes = 2\nvoltage = 3");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::UnknownField { field, .. }) if field == "voltage"
        ));
        let text = ARCH.replace("name = \"DRAM\"", "name = \"DRAM\"\nlatency = 1");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::UnknownField { field, .. }) if field == "latency"
        ));
        let text = format!("{PROBLEM}\n[extras]\nfoo = 1\n");
        assert!(matches!(
            parse_problem(&text),
            Err(SpecError::UnknownSection { section, .. }) if section == "extras"
        ));
    }

    #[test]
    fn rejects_duplicates() {
        let text = ARCH.replace("mac_energy = 1.0", "mac_energy = 1.0\nmac_energy = 2.0");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::DuplicateField { field, .. }) if field == "mac_energy"
        ));
        let text = PROBLEM.replace("B = 16", "B = 16\nB = 8");
        assert!(matches!(
            parse_problem(&text),
            Err(SpecError::DuplicateField { field, .. }) if field == "B"
        ));
        let text = format!("{PROBLEM}\n[dims]\nB = 1\n");
        assert!(matches!(parse_problem(&text), Err(SpecError::DuplicateSection { .. })));
    }

    #[test]
    fn reports_missing_required_fields() {
        let text = ARCH.replace("mac_energy = 1.0\n", "");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::MissingField { field, .. }) if field == "mac_energy"
        ));
        let text = ARCH.replace("fanout = 16\n", "");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::MissingField { field, .. }) if field == "fanout"
        ));
    }

    #[test]
    fn bad_values_name_the_field_and_line() {
        let text = ARCH.replace("word_bytes = 2", "word_bytes = \"two\"");
        match parse_arch(&text) {
            Err(SpecError::BadValue { field, line, .. }) => {
                assert_eq!(field, "word_bytes");
                assert!(line > 0);
            }
            other => panic!("expected BadValue, got {other:?}"),
        }
        let text = ARCH.replace("bandwidth = 16.0", "bandwidth = -1.0");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::BadValue { field, .. }) if field == "bandwidth"
        ));
        let text = ARCH.replace("capacity_words = 256", "capacity_words = 2.5");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::BadValue { field, .. }) if field == "capacity_words"
        ));
    }

    #[test]
    fn arch_taxonomy_zero_capacity_fanout_unbounded_empty() {
        let text = ARCH.replace("capacity_words = 256", "capacity_words = 0");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::ZeroCapacity { level }) if level == "LocalBuffer"
        ));
        let text = ARCH.replace("fanout = 64", "fanout = 0");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::FanoutMismatch { level, fanout: 0 }) if level == "LocalBuffer"
        ));
        let text = ARCH.replace("capacity_words = 512_000   # 1 MiB at 2 B/word\n", "");
        assert!(matches!(
            parse_arch(&text),
            Err(SpecError::UnboundedInnerLevel { level }) if level == "GlobalBuffer"
        ));
        assert!(matches!(
            parse_arch("kind = \"arch\"\nmac_energy = 1.0\nword_bytes = 2\n"),
            Err(SpecError::EmptyHierarchy)
        ));
    }

    #[test]
    fn arch_deeper_than_a_mapping_holds_is_an_error() {
        let mut text = ARCH.to_string();
        for i in 0..2 {
            text.push_str(&format!(
                "\n[[level]]\nname = \"Extra{i}\"\ncapacity_words = 64\nfanout = 1\nenergy_per_access = 0.1\nbandwidth = 1.0\n"
            ));
        }
        let err = parse_arch(&text).unwrap_err();
        assert_eq!(err, SpecError::TooManyLevels { levels: 5 });
        assert!(err.to_string().contains("at most 4"), "{err}");
    }

    #[test]
    fn problem_taxonomy_dims_and_operators() {
        let text = PROBLEM.replace("K = 128", "K = 0");
        assert!(matches!(
            parse_problem(&text),
            Err(SpecError::ZeroDimBound { dim, .. }) if dim == "K"
        ));
        let text = PROBLEM.replace("K = 128", "Q = 128");
        assert!(matches!(
            parse_problem(&text),
            Err(SpecError::UnknownDim { dim, .. }) if dim == "Q"
        ));
        let text = PROBLEM.replace("op = \"CONV2D\"", "op = \"CONV3D\"");
        assert!(matches!(
            parse_problem(&text),
            Err(SpecError::UnknownOperator { op }) if op == "CONV3D"
        ));
        assert!(matches!(
            parse_problem("op = \"GEMM\"\n[dims]\n"),
            Err(SpecError::EmptyDims)
        ));
        assert!(matches!(parse_problem("op = \"GEMM\"\n"), Err(SpecError::EmptyDims)));
    }

    #[test]
    fn dim_set_must_match_operator_exactly() {
        // Missing S for CONV2D.
        let text = PROBLEM.replace("S = 3\n", "");
        match parse_problem(&text) {
            Err(SpecError::DimSetMismatch { op, message }) => {
                assert_eq!(op, "CONV2D");
                assert!(message.contains("missing S"), "{message}");
            }
            other => panic!("expected DimSetMismatch, got {other:?}"),
        }
        // Extra M for CONV2D (would be silently dropped by a lax parser).
        let text = PROBLEM.replace("S = 3", "S = 3\nM = 4");
        match parse_problem(&text) {
            Err(SpecError::DimSetMismatch { message, .. }) => {
                assert!(message.contains("unexpected M"), "{message}");
            }
            other => panic!("expected DimSetMismatch, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        match parse_arch("kind = \"arch\"\nwhat is this\n") {
            Err(SpecError::Parse { line: 2, .. }) => {}
            other => panic!("expected Parse at line 2, got {other:?}"),
        }
        assert!(matches!(
            parse_arch("name = \"unterminated\nmac_energy = 1.0\n"),
            Err(SpecError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_arch("[[level\n"),
            Err(SpecError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn comments_whitespace_and_underscores_are_tolerated() {
        let text = "# a problem\nop = \"GEMM\"  # tag\n\n[dims]\nB = 1\nM = 1_024\nK = 64\nN = 8\n";
        let p = parse_problem(text).expect("valid");
        let m = p.dims().iter().find(|d| d.name == DimName::M).expect("has M");
        assert_eq!(m.bound, 1024);
    }

    #[test]
    fn errors_display_actionably() {
        let e = SpecError::ZeroCapacity { level: "L1".to_string() };
        assert!(e.to_string().contains("can hold no data"));
        let e = SpecError::UnknownDim { dim: "Q".to_string(), line: 7 };
        assert!(e.to_string().contains("line 7"));
        let e = SpecError::DimSetMismatch { op: "GEMM".to_string(), message: "missing N".into() };
        assert!(e.to_string().contains("GEMM"));
    }

    #[test]
    fn parsed_arch_matches_handwritten_construction() {
        // The parsed arch is exactly what the equivalent constructor calls
        // produce — ingestion adds validation, never reinterpretation.
        let a = parse_arch(ARCH).expect("arch");
        let by_hand = Arch::new(
            "edge-npu",
            vec![
                MemLevel::new("DRAM", None, 1, 200.0, 16.0),
                MemLevel::new("GlobalBuffer", Some(512_000), 16, 6.0, 32.0),
                MemLevel::new("LocalBuffer", Some(256), 64, 0.5, 4.0),
            ],
            1.0,
            2,
        )
        .expect("valid by construction");
        assert_eq!(a, by_hand);
    }

    #[test]
    fn leading_bom_and_crlf_are_tolerated() {
        // Network clients and Windows editors both produce these; neither
        // changes the spec's meaning.
        let plain = "kind = \"problem\"\nname = \"g\"\nop = \"GEMM\"\n\
                     [dims]\nB = 2\nM = 8\nK = 8\nN = 8\n";
        let bom = format!("\u{feff}{plain}");
        let crlf = plain.replace('\n', "\r\n");
        let want = parse_problem(plain).expect("plain parses");
        assert_eq!(parse_problem(&bom).expect("BOM parses").name(), want.name());
        assert_eq!(parse_problem(&crlf).expect("CRLF parses").name(), want.name());
        // A BOM anywhere *else* is still garbage, with a line number.
        let mid = plain.replace("op =", "\u{feff}op =");
        assert!(matches!(parse_problem(&mid), Err(SpecError::Parse { line: 3, .. })));
    }
}
