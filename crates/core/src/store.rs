//! Durable, crash-only warm-start store.
//!
//! Every completed `search`/`sweep` request deposits its incumbent mapping
//! here, keyed by an architecture fingerprint plus the problem's codec spec;
//! later requests recall the most similar prior (by [`Problem::edit_distance`])
//! to seed their initial population. The store is an append-only text log —
//! one CRC-framed, schema-versioned record per line — with `fsync` after every
//! deposit, so a crash can tear at most the record being written.
//!
//! Failure model: `open` never panics on damage. Each line is independently
//! framed (`ws1 <crc32> <payload>`), so load walks the whole file, keeps every
//! record whose magic, CRC, and payload all check out, and counts everything
//! else as *quarantined*. A torn tail, a truncated file, or a flipped bit can
//! therefore only lose the records it physically damaged — the valid prefix
//! (and any valid suffix after the damage) survives. Records from a *future*
//! schema version are skipped without being counted as damage, so an old
//! binary can share a store with a newer one. Rolling compaction bounds the
//! file using the same `.tmp` + `.bak` + fsync dance as the sweep checkpoint,
//! which also heals any quarantined bytes out of the file (the damaged
//! original survives one generation as `.bak`).
//!
//! The store itself never trusts its own contents: recalled mappings are
//! strings until the service re-validates them (structural legality plus a
//! rejecting [`costmodel::GuardedModel`] evaluation), so a corrupt or
//! adversarial store can lower the hit rate but can never change a search
//! result or crash the daemon.
//!
//! On top of the log sits a small UCB bandit ([`WarmStore::select_mapper`]):
//! for requests that ask for mapper `auto`, the coordinator picks among
//! gamma / CEM / annealing / dosa based on the observed reward of deposited results
//! for similar problems. Ties break on fixed arm order and recalls break on
//! newest-record-wins — no wall clock, no RNG — so fleet byte-identity is
//! preserved: the arm and the seed are resolved once, coordinator-side, and
//! shipped inside shard payloads.

use crate::chaos;
use mapping::Mapping;
use problem::{codec as problem_codec, Density, Problem};
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Per-line magic for the current schema version. A future format bump writes
/// `ws2 …` lines; this binary skips those gracefully (not counted as damage).
const MAGIC: &str = "ws1";
/// Prefix shared by every schema version of the record framing.
const MAGIC_FAMILY: &str = "ws";

/// Deposits trigger a compaction once the in-memory set reaches this size.
const AUTO_COMPACT_AT: usize = 1024;
/// Compaction keeps at most this many newest records per (arch, problem) key.
const KEEP_PER_KEY: usize = 8;
/// Compaction additionally caps the total record count (newest win), so a
/// store with many distinct keys still shrinks below [`AUTO_COMPACT_AT`].
const TOTAL_CAP: usize = 768;

/// Arms of the mapper bandit, in fixed tie-break order. Index 0 is the
/// fallback when the store is absent, empty, or has no similar entries.
pub const BANDIT_ARMS: [&str; 4] = ["gamma", "cem", "annealing", "dosa"];

/// Only priors within this edit distance feed the bandit's reward estimate;
/// recall itself has no radius (the caller sees the distance and the guard
/// re-validates), but reward mixing across unrelated problems would just
/// add noise.
const BANDIT_RADIUS: usize = 6;

/// One deposited incumbent.
#[derive(Debug, Clone)]
pub struct StoreRecord {
    /// Fingerprint of the architecture (and density) the score was measured on.
    pub arch_fp: u64,
    /// Problem codec spec (`OP;name;D=bound,...`).
    pub problem_spec: String,
    /// Mapping codec spec for the incumbent.
    pub mapping_spec: String,
    /// Mapper that produced it (a concrete name, never `auto`).
    pub mapper: String,
    /// Incumbent score (EDP); always finite.
    pub score: f64,
    /// Evaluations the producing search spent.
    pub evaluated: u64,
}

/// Counters surfaced through `stats`/`health` and `mapex store stats`.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Live records currently in memory (and, between compactions, on disk).
    pub entries: usize,
    /// Deposits accepted this process lifetime.
    pub deposits: u64,
    /// Recalls that produced a validated seed.
    pub hits: u64,
    /// Recalls that found nothing usable (no candidate, unscalable, or
    /// rejected by the guard).
    pub misses: u64,
    /// Damaged records skipped at load plus priors rejected by re-validation.
    pub quarantined: u64,
    /// Well-formed records from a future schema version skipped at load.
    pub skipped_future: u64,
    /// Bytes reclaimed by the most recent compaction.
    pub last_compaction_reclaimed: u64,
    /// Current size of the backing file (0 for in-memory stores).
    pub file_bytes: u64,
    /// Times a missing primary file was rescued from its `.bak` (crash
    /// between compaction renames) this process lifetime.
    pub bak_rescues: u64,
    /// The most recent integrity outcome and where it came from (`"open"`
    /// scan or `"compact"` rewrite); `None` for in-memory stores.
    pub last_verify: Option<(&'static str, VerifyReport)>,
}

/// Result of an explicit [`WarmStore::compact`].
#[derive(Debug, Clone, Copy)]
pub struct CompactReport {
    pub kept: usize,
    pub dropped: usize,
    pub reclaimed_bytes: u64,
}

/// Result of the read-only [`WarmStore::verify`] scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyReport {
    pub valid: usize,
    pub quarantined: usize,
    pub skipped_future: usize,
    pub bytes: u64,
}

struct Inner {
    records: Vec<StoreRecord>,
    file: Option<File>,
    /// The file ends without a trailing newline (torn tail); the next append
    /// writes a leading `\n` so the damage stays confined to one record.
    needs_newline: bool,
    deposits: u64,
    hits: u64,
    misses: u64,
    quarantined: u64,
    skipped_future: u64,
    last_compaction_reclaimed: u64,
    file_bytes: u64,
    bak_rescues: u64,
    last_verify: Option<(&'static str, VerifyReport)>,
}

/// Durable warm-start store. Cheap to share behind an `Arc`; all methods take
/// `&self` (a poisoned lock is recovered, matching the service's crash-only
/// stance).
pub struct WarmStore {
    path: Option<PathBuf>,
    inner: Mutex<Inner>,
}

impl WarmStore {
    /// Open (or create) a store at `path`. Damaged records are quarantined and
    /// skipped — this never fails on corrupt *content*, only on real I/O
    /// errors (unwritable directory, etc.).
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut records = Vec::new();
        let mut quarantined = 0u64;
        let mut skipped_future = 0u64;
        let mut needs_newline = false;
        let mut file_bytes = 0u64;
        let mut bak_rescues = 0u64;
        // Crash rescue: a crash between compaction's two renames leaves no
        // primary but a complete `.bak`. Promote it so the store always
        // loads — the `.bak` is at worst one compaction generation stale,
        // which the append log semantics tolerate.
        let bak = Self::backup_path(path);
        if !path.exists() && bak.exists() && chaos::rename(&bak, path).is_ok() {
            bak_rescues = 1;
        }
        if path.exists() {
            let raw = chaos::read_bytes(path)?;
            file_bytes = raw.len() as u64;
            needs_newline = raw.last().is_some_and(|&b| b != b'\n');
            let text = String::from_utf8_lossy(&raw);
            for line in text.lines() {
                match parse_record(line) {
                    Parsed::Record(r) => records.push(r),
                    Parsed::Quarantined => quarantined += 1,
                    Parsed::FutureVersion => skipped_future += 1,
                    Parsed::Blank => {}
                }
            }
        }
        let file = Some(chaos::open_append(path)?);
        let last_verify = Some((
            "open",
            VerifyReport {
                valid: records.len(),
                quarantined: quarantined as usize,
                skipped_future: skipped_future as usize,
                bytes: file_bytes,
            },
        ));
        Ok(WarmStore {
            path: Some(path.to_path_buf()),
            inner: Mutex::new(Inner {
                records,
                file,
                needs_newline,
                deposits: 0,
                hits: 0,
                misses: 0,
                quarantined,
                skipped_future,
                last_compaction_reclaimed: 0,
                file_bytes,
                bak_rescues,
                last_verify,
            }),
        })
    }

    /// A store with no backing file — deposits live only in memory. Used by
    /// tests and available to embedders that want session-local warm starts.
    pub fn in_memory() -> Self {
        WarmStore {
            path: None,
            inner: Mutex::new(Inner {
                records: Vec::new(),
                file: None,
                needs_newline: false,
                deposits: 0,
                hits: 0,
                misses: 0,
                quarantined: 0,
                skipped_future: 0,
                last_compaction_reclaimed: 0,
                file_bytes: 0,
                bak_rescues: 0,
                last_verify: None,
            }),
        }
    }

    /// Fingerprint an architecture + density pair. The `Debug` form pins every
    /// capacity, energy, and fanout field (the same idiom the service uses for
    /// model-cache keys), so any arch change changes the key.
    pub fn arch_fingerprint(arch: &arch::Arch, density: Option<&Density>) -> u64 {
        fnv1a64(format!("{arch:?}|{density:?}").as_bytes())
    }

    /// Append one incumbent and fsync it. Non-finite scores and specs that
    /// could break the line framing are rejected as `InvalidInput`.
    pub fn deposit(
        &self,
        arch_fp: u64,
        problem: &Problem,
        mapping: &Mapping,
        mapper: &str,
        score: f64,
        evaluated: u64,
    ) -> std::io::Result<()> {
        if !score.is_finite() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "warm store rejects non-finite scores",
            ));
        }
        if mapper.is_empty() || mapper.contains(['\t', '\n', '\r']) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "warm store rejects mapper names with framing bytes",
            ));
        }
        let rec = StoreRecord {
            arch_fp,
            problem_spec: problem_codec::to_spec(problem),
            mapping_spec: mapping::codec::to_spec(mapping),
            mapper: mapper.to_string(),
            score,
            evaluated,
        };
        let line = render_record(&rec);
        let mut inner = self.lock();
        // Self-heal: a failed compaction drops the append handle (the old
        // inode was renamed away — writing through it would be silently
        // non-durable). Reopen on the current path, rescuing a `.bak`
        // orphan first, or fail the deposit honestly.
        if inner.file.is_none() {
            if let Some(path) = &self.path {
                let bak = Self::backup_path(path);
                if !path.exists() && bak.exists() && chaos::rename(&bak, path).is_ok() {
                    inner.bak_rescues += 1;
                }
                inner.file = Some(chaos::open_append(path)?);
            }
        }
        let needs_newline = inner.needs_newline;
        if let Some(f) = inner.file.as_mut() {
            let mut buf = Vec::with_capacity(line.len() + 2);
            if needs_newline {
                buf.push(b'\n');
            }
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            let wrote = chaos::write_all(f, &buf);
            let synced = wrote.and_then(|()| chaos::sync_all(f));
            if let Err(e) = synced {
                // The append may have torn mid-line; make the next append
                // start a fresh line so the damage stays confined to this
                // one record (a spurious blank line is harmless).
                inner.needs_newline = true;
                return Err(e);
            }
            inner.needs_newline = false;
            inner.file_bytes += buf.len() as u64;
        }
        inner.records.push(rec);
        inner.deposits += 1;
        if inner.records.len() >= AUTO_COMPACT_AT {
            let _ = self.compact_locked(&mut inner);
        }
        Ok(())
    }

    /// Most similar prior for `problem` under `arch_fp`, by edit distance with
    /// newest-record-wins tie-break. Returns the *source* problem, the raw
    /// mapping spec, and the distance; the caller must rescale and re-validate
    /// before trusting the mapping. Does not touch hit/miss counters — the
    /// caller reports the validated outcome via [`record_hit`] /
    /// [`record_miss`] / [`record_poisoned`].
    ///
    /// [`record_hit`]: WarmStore::record_hit
    /// [`record_miss`]: WarmStore::record_miss
    /// [`record_poisoned`]: WarmStore::record_poisoned
    pub fn recall(&self, problem: &Problem, arch_fp: u64) -> Option<(Problem, String, usize)> {
        let inner = self.lock();
        let mut best: Option<(usize, usize, &StoreRecord)> = None;
        for (idx, rec) in inner.records.iter().enumerate() {
            if rec.arch_fp != arch_fp {
                continue;
            }
            let Ok(src) = problem_codec::from_spec(&rec.problem_spec) else {
                continue;
            };
            let d = problem.edit_distance(&src);
            let better = match best {
                None => true,
                // Strictly smaller distance, or same distance but newer.
                Some((bd, bi, _)) => d < bd || (d == bd && idx > bi),
            };
            if better {
                best = Some((d, idx, rec));
            }
        }
        best.and_then(|(d, _, rec)| {
            let src = problem_codec::from_spec(&rec.problem_spec).ok()?;
            Some((src, rec.mapping_spec.clone(), d))
        })
    }

    /// Pick a mapper arm for `problem` via UCB over deposited rewards of
    /// similar problems. Fully deterministic: untried arms are explored in
    /// [`BANDIT_ARMS`] order, ties break on the same order, and nothing reads
    /// a clock or RNG — so the choice is a pure function of store contents.
    pub fn select_mapper(&self, problem: &Problem, arch_fp: u64) -> &'static str {
        let inner = self.lock();
        // Reward needs a per-problem baseline: the best score seen for each
        // exact problem spec (within the similarity radius and arch key).
        let mut best_by_problem: HashMap<&str, f64> = HashMap::new();
        let mut similar: Vec<&StoreRecord> = Vec::new();
        for rec in &inner.records {
            if rec.arch_fp != arch_fp {
                continue;
            }
            let Ok(src) = problem_codec::from_spec(&rec.problem_spec) else {
                continue;
            };
            if problem.edit_distance(&src) > BANDIT_RADIUS {
                continue;
            }
            similar.push(rec);
            let e = best_by_problem.entry(rec.problem_spec.as_str()).or_insert(f64::INFINITY);
            if rec.score < *e {
                *e = rec.score;
            }
        }
        let mut pulls = [0u64; BANDIT_ARMS.len()];
        let mut reward_sum = [0.0f64; BANDIT_ARMS.len()];
        for rec in &similar {
            let Some(arm) = BANDIT_ARMS.iter().position(|a| *a == rec.mapper) else {
                continue;
            };
            let baseline = best_by_problem.get(rec.problem_spec.as_str()).copied().unwrap_or(0.0);
            let reward = if rec.score > 0.0 && baseline.is_finite() && baseline > 0.0 {
                (baseline / rec.score).clamp(0.0, 1.0)
            } else {
                0.0
            };
            pulls[arm] += 1;
            reward_sum[arm] += reward;
        }
        let total: u64 = pulls.iter().sum();
        if total == 0 {
            return BANDIT_ARMS[0];
        }
        // Explore untried arms first, in declaration order.
        if let Some(untried) = pulls.iter().position(|&n| n == 0) {
            return BANDIT_ARMS[untried];
        }
        let mut best_arm = 0usize;
        let mut best_ucb = f64::NEG_INFINITY;
        for arm in 0..BANDIT_ARMS.len() {
            let n = pulls[arm] as f64;
            let ucb = reward_sum[arm] / n + (2.0 * (total as f64).ln() / n).sqrt();
            // Strict `>` keeps the first (declaration-order) arm on ties.
            if ucb > best_ucb {
                best_ucb = ucb;
                best_arm = arm;
            }
        }
        BANDIT_ARMS[best_arm]
    }

    /// Count a recall whose prior survived re-validation.
    pub fn record_hit(&self) {
        self.lock().hits += 1;
    }

    /// Count a recall that produced nothing usable (no candidate or the prior
    /// could not be rescaled to the new problem).
    pub fn record_miss(&self) {
        self.lock().misses += 1;
    }

    /// Count a recalled prior that the guard rejected: quarantined *and* a
    /// miss (the search proceeds cold, identical to a no-store run).
    pub fn record_poisoned(&self) {
        let mut inner = self.lock();
        inner.quarantined += 1;
        inner.misses += 1;
    }

    /// Rewrite the log keeping the newest `KEEP_PER_KEY` records per
    /// (arch, problem) key, capped at `TOTAL_CAP` overall. Uses the
    /// `.tmp` + `.bak` + fsync pattern, so the previous file (including any
    /// quarantined bytes) survives one generation as `.bak` — compaction is
    /// also how a damaged store heals.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        let mut inner = self.lock();
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> std::io::Result<CompactReport> {
        let before_len = inner.records.len();
        let before_bytes = inner.file_bytes;
        // Walk newest-first, keeping the first KEEP_PER_KEY per key and the
        // first TOTAL_CAP overall, then restore chronological order.
        let mut per_key: HashMap<(u64, &str), usize> = HashMap::new();
        let mut keep_idx: Vec<usize> = Vec::new();
        for (idx, rec) in inner.records.iter().enumerate().rev() {
            if keep_idx.len() >= TOTAL_CAP {
                break;
            }
            let slot = per_key.entry((rec.arch_fp, rec.problem_spec.as_str())).or_insert(0);
            if *slot >= KEEP_PER_KEY {
                continue;
            }
            *slot += 1;
            keep_idx.push(idx);
        }
        keep_idx.reverse();
        let kept: Vec<StoreRecord> =
            keep_idx.iter().map(|&i| inner.records[i].clone()).collect();
        let dropped = before_len - kept.len();

        if let Some(path) = &self.path {
            let mut body = String::new();
            for rec in &kept {
                body.push_str(&render_record(rec));
                body.push('\n');
            }
            let tmp = sibling(path, ".tmp");
            {
                let mut f = chaos::create(&tmp)?;
                chaos::write_all(&mut f, body.as_bytes())?;
                chaos::sync_all(&f)?;
            }
            let bak = Self::backup_path(path);
            if path.exists() {
                // Nothing moved yet on failure: the primary and the append
                // handle are both still valid.
                chaos::rename(path, &bak)?;
            }
            if let Err(e) = chaos::rename(&tmp, path) {
                // The primary was renamed away and the replacement never
                // landed: the old append handle now points at `.bak`'s
                // inode. Drop it — the next deposit reopens (rescuing the
                // `.bak` back into place), instead of writing into a file
                // nobody will ever read.
                inner.file = None;
                return Err(e);
            }
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    if let Ok(dir) = File::open(parent) {
                        let _ = dir.sync_all();
                    }
                }
            }
            // Reopen the append handle on the fresh file; on failure the
            // stale handle must not survive (see above).
            match chaos::open_append(path) {
                Ok(f) => inner.file = Some(f),
                Err(e) => {
                    inner.file = None;
                    return Err(e);
                }
            }
            inner.needs_newline = false;
            inner.file_bytes = body.len() as u64;
            inner.last_compaction_reclaimed = before_bytes.saturating_sub(inner.file_bytes);
        } else {
            inner.last_compaction_reclaimed = 0;
        }
        inner.last_verify = Some((
            "compact",
            VerifyReport {
                valid: kept.len(),
                quarantined: 0,
                skipped_future: 0,
                bytes: inner.file_bytes,
            },
        ));
        inner.records = kept;
        Ok(CompactReport {
            kept: inner.records.len(),
            dropped,
            reclaimed_bytes: inner.last_compaction_reclaimed,
        })
    }

    /// Rolling backup path: `warm.store` → `warm.store.bak`.
    pub fn backup_path(path: &Path) -> PathBuf {
        sibling(path, ".bak")
    }

    /// Read-only integrity scan of a store file (no append handle, no heal).
    pub fn verify(path: &Path) -> std::io::Result<VerifyReport> {
        let raw = chaos::read_bytes(path)?;
        let mut report = VerifyReport { bytes: raw.len() as u64, ..VerifyReport::default() };
        let text = String::from_utf8_lossy(&raw);
        for line in text.lines() {
            match parse_record(line) {
                Parsed::Record(_) => report.valid += 1,
                Parsed::Quarantined => report.quarantined += 1,
                Parsed::FutureVersion => report.skipped_future += 1,
                Parsed::Blank => {}
            }
        }
        Ok(report)
    }

    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            entries: inner.records.len(),
            deposits: inner.deposits,
            hits: inner.hits,
            misses: inner.misses,
            quarantined: inner.quarantined,
            skipped_future: inner.skipped_future,
            last_compaction_reclaimed: inner.last_compaction_reclaimed,
            file_bytes: inner.file_bytes,
            bak_rescues: inner.bak_rescues,
            last_verify: inner.last_verify,
        }
    }

    /// Snapshot of the live records (chaos-oracle and debugging aid).
    pub fn records(&self) -> Vec<StoreRecord> {
        self.lock().records.clone()
    }

    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

enum Parsed {
    Record(StoreRecord),
    Quarantined,
    FutureVersion,
    Blank,
}

/// `ws1 <crc32-hex> <payload>` where payload is
/// `arch_fp_hex \t problem_spec \t mapping_spec \t mapper \t score \t evaluated`.
fn render_record(rec: &StoreRecord) -> String {
    let payload = format!(
        "{:016x}\t{}\t{}\t{}\t{:?}\t{}",
        rec.arch_fp, rec.problem_spec, rec.mapping_spec, rec.mapper, rec.score, rec.evaluated
    );
    format!("{MAGIC} {:08x} {payload}", crc32(payload.as_bytes()))
}

fn parse_record(line: &str) -> Parsed {
    if line.trim().is_empty() {
        return Parsed::Blank;
    }
    let Some((magic, rest)) = line.split_once(' ') else {
        return Parsed::Quarantined;
    };
    if magic != MAGIC {
        // A well-formed line from a newer schema (`ws2 …`) is skipped, not
        // quarantined; anything else is damage.
        let future = magic
            .strip_prefix(MAGIC_FAMILY)
            .and_then(|v| v.parse::<u32>().ok())
            .is_some_and(|v| v > 1);
        return if future { Parsed::FutureVersion } else { Parsed::Quarantined };
    }
    let Some((crc_hex, payload)) = rest.split_once(' ') else {
        return Parsed::Quarantined;
    };
    let Ok(want) = u32::from_str_radix(crc_hex, 16) else {
        return Parsed::Quarantined;
    };
    if crc_hex.len() != 8 || crc32(payload.as_bytes()) != want {
        return Parsed::Quarantined;
    }
    let fields: Vec<&str> = payload.split('\t').collect();
    let [fp_hex, problem_spec, mapping_spec, mapper, score_s, eval_s] = fields[..] else {
        return Parsed::Quarantined;
    };
    let Ok(arch_fp) = u64::from_str_radix(fp_hex, 16) else {
        return Parsed::Quarantined;
    };
    let Ok(score) = score_s.parse::<f64>() else {
        return Parsed::Quarantined;
    };
    let Ok(evaluated) = eval_s.parse::<u64>() else {
        return Parsed::Quarantined;
    };
    if !score.is_finite() || mapper.is_empty() {
        return Parsed::Quarantined;
    }
    // The specs must at least parse; semantic validity (legality, guard
    // floors) is re-checked by the service at recall time.
    if problem_codec::from_spec(problem_spec).is_err()
        || mapping::codec::from_spec(mapping_spec).is_err()
    {
        return Parsed::Quarantined;
    }
    Parsed::Record(StoreRecord {
        arch_fp,
        problem_spec: problem_spec.to_string(),
        mapping_spec: mapping_spec.to_string(),
        mapper: mapper.to_string(),
        score,
        evaluated,
    })
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise — no table,
/// no dependency. Plenty fast for line-sized payloads.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use arch::Arch;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mse-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn gemm(name: &str, m: usize, n: usize, k: usize) -> Problem {
        problem_codec::from_spec(&format!("GEMM;{name};B=1,M={m},K={k},N={n}")).expect("gemm spec")
    }

    fn sample(problem: &Problem, arch: &Arch, score: f64) -> (Mapping, f64) {
        (Mapping::trivial(problem, arch), score)
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" is the canonical IEEE CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn records_carrying_shapes_no_mapping_holds_are_quarantined() {
        let dir = scratch("hostile-shape");
        let path = dir.join("warm.store");
        let arch = Arch::accel_a();
        let p = gemm("fc1", 64, 64, 64);
        let fp = WarmStore::arch_fingerprint(&arch, None);
        let level = |d: usize| {
            let ones = vec!["1"; d].join(",");
            let order = (0..d).map(|i| i.to_string()).collect::<Vec<_>>().join(",");
            format!("o:{order};t:{ones};s:{ones}")
        };
        let (good, _) = sample(&p, &arch, 1.0);
        let mut body = String::new();
        for mapping_spec in [
            [level(9), level(9), level(9)].join("|"),
            vec![level(4); 5].join("|"),
            mapping::codec::to_spec(&good),
        ] {
            let rec = StoreRecord {
                arch_fp: fp,
                problem_spec: problem_codec::to_spec(&p),
                mapping_spec,
                mapper: "gamma".to_string(),
                score: 1.0,
                evaluated: 1,
            };
            body.push_str(&render_record(&rec));
            body.push('\n');
        }
        fs::write(&path, body).unwrap();
        let store = WarmStore::open(&path).expect("open a damaged store");
        assert_eq!(store.stats().quarantined, 2);
        assert_eq!(store.len(), 1);
        let (_, spec, _) = store.recall(&p, fp).expect("the legal record survives");
        assert_eq!(spec, mapping::codec::to_spec(&good));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deposit_recall_round_trips_across_reopen() {
        let dir = scratch("roundtrip");
        let path = dir.join("warm.store");
        let arch = Arch::accel_a();
        let p = gemm("fc1", 64, 64, 64);
        let fp = WarmStore::arch_fingerprint(&arch, None);
        {
            let store = WarmStore::open(&path).expect("open");
            let (m, score) = sample(&p, &arch, 123.5);
            store.deposit(fp, &p, &m, "gamma", score, 400).expect("deposit");
            assert_eq!(store.len(), 1);
        }
        let store = WarmStore::open(&path).expect("reopen");
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().quarantined, 0);
        let similar = gemm("fc2", 64, 64, 128);
        let (src, mapping_spec, dist) = store.recall(&similar, fp).expect("recall");
        assert_eq!(problem_codec::to_spec(&src), problem_codec::to_spec(&p));
        assert!(mapping::codec::from_spec(&mapping_spec).is_ok());
        assert_eq!(dist, similar.edit_distance(&p));
        // Different arch fingerprint: no candidates.
        assert!(store.recall(&similar, fp ^ 1).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recall_prefers_closest_then_newest() {
        let store = WarmStore::in_memory();
        let arch = Arch::accel_a();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        let far = gemm("far", 8, 8, 512);
        let near_a = gemm("a", 64, 64, 64);
        let near_b = gemm("b", 64, 64, 64);
        for (i, p) in [&far, &near_a, &near_b].into_iter().enumerate() {
            let (m, s) = sample(p, &arch, 10.0 + i as f64);
            store.deposit(fp, p, &m, "gamma", s, 100).unwrap();
        }
        let query = gemm("q", 64, 64, 64);
        let (src, _, _) = store.recall(&query, fp).expect("recall");
        // near_a and near_b tie on distance; the newer deposit wins.
        assert_eq!(problem_codec::to_spec(&src), problem_codec::to_spec(&near_b));
    }

    #[test]
    fn torn_tail_is_quarantined_and_append_stays_framed() {
        let dir = scratch("torn");
        let path = dir.join("warm.store");
        let arch = Arch::accel_a();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        let p1 = gemm("l1", 32, 32, 32);
        let p2 = gemm("l2", 48, 48, 48);
        {
            let store = WarmStore::open(&path).expect("open");
            let (m, s) = sample(&p1, &arch, 50.0);
            store.deposit(fp, &p1, &m, "gamma", s, 10).unwrap();
        }
        // Tear the last record: drop the trailing newline plus a few bytes.
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 5);
        fs::write(&path, &bytes).unwrap();

        let store = WarmStore::open(&path).expect("open torn");
        assert_eq!(store.len(), 0, "torn record must not load");
        assert_eq!(store.stats().quarantined, 1);
        // A deposit after the torn tail must start on a fresh line so only
        // the already-damaged record stays unreadable.
        let (m, s) = sample(&p2, &arch, 60.0);
        store.deposit(fp, &p2, &m, "cem", s, 20).unwrap();
        let reopened = WarmStore::open(&path).expect("reopen");
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.stats().quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_versions_are_skipped_not_quarantined() {
        let dir = scratch("future");
        let path = dir.join("warm.store");
        fs::write(&path, "ws2 00000000 payload-from-the-future\n").unwrap();
        let store = WarmStore::open(&path).expect("open");
        assert_eq!(store.len(), 0);
        let s = store.stats();
        assert_eq!(s.skipped_future, 1);
        assert_eq!(s.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_in_the_middle_keeps_valid_suffix() {
        let dir = scratch("middle");
        let path = dir.join("warm.store");
        let arch = Arch::accel_a();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        {
            let store = WarmStore::open(&path).expect("open");
            for (i, name) in ["a", "b", "c"].iter().enumerate() {
                let p = gemm(name, 32 + i, 32, 32);
                let (m, s) = sample(&p, &arch, 10.0 + i as f64);
                store.deposit(fp, &p, &m, "gamma", s, 5).unwrap();
            }
        }
        // Flip a bit inside the *second* line's CRC region.
        let mut bytes = fs::read(&path).unwrap();
        let second_line_start =
            bytes.iter().position(|&b| b == b'\n').expect("first newline") + 1;
        bytes[second_line_start + 5] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let store = WarmStore::open(&path).expect("open damaged");
        assert_eq!(store.len(), 2, "records before and after the damage survive");
        assert_eq!(store.stats().quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_bounds_the_file_and_heals_damage() {
        let dir = scratch("compact");
        let path = dir.join("warm.store");
        let arch = Arch::accel_a();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        let p = gemm("hot", 64, 64, 64);
        let store = WarmStore::open(&path).expect("open");
        for i in 0..(KEEP_PER_KEY + 7) {
            let (m, s) = sample(&p, &arch, 100.0 - i as f64);
            store.deposit(fp, &p, &m, "gamma", s, i as u64).unwrap();
        }
        let before = fs::metadata(&path).unwrap().len();
        let report = store.compact().expect("compact");
        assert_eq!(report.kept, KEEP_PER_KEY);
        assert_eq!(report.dropped, 7);
        assert_eq!(report.reclaimed_bytes, before - fs::metadata(&path).unwrap().len());
        assert!(WarmStore::backup_path(&path).exists(), "previous file kept as .bak");
        // The newest record (largest evaluated) must be among the survivors.
        let reopened = WarmStore::open(&path).expect("reopen");
        assert_eq!(reopened.len(), KEEP_PER_KEY);
        assert_eq!(reopened.stats().quarantined, 0);
        // Deposits after compaction append to the rewritten file.
        let (m, s) = sample(&p, &arch, 1.0);
        reopened.deposit(fp, &p, &m, "cem", s, 999).unwrap();
        assert_eq!(WarmStore::open(&path).unwrap().len(), KEEP_PER_KEY + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bandit_explores_in_fixed_order_then_exploits() {
        let store = WarmStore::in_memory();
        let arch = Arch::accel_a();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        let p = gemm("b", 64, 64, 64);
        // Empty store: deterministic fallback to the first arm.
        assert_eq!(store.select_mapper(&p, fp), "gamma");
        let (m, _) = sample(&p, &arch, 0.0);
        // One gamma pull: cem is the first untried arm.
        store.deposit(fp, &p, &m, "gamma", 10.0, 100).unwrap();
        assert_eq!(store.select_mapper(&p, fp), "cem");
        store.deposit(fp, &p, &m, "cem", 40.0, 100).unwrap();
        assert_eq!(store.select_mapper(&p, fp), "annealing");
        store.deposit(fp, &p, &m, "annealing", 40.0, 100).unwrap();
        assert_eq!(store.select_mapper(&p, fp), "dosa");
        store.deposit(fp, &p, &m, "dosa", 40.0, 100).unwrap();
        // All arms tried once; gamma holds the best score (reward 1.0) and
        // identical exploration bonuses, so UCB exploits gamma.
        assert_eq!(store.select_mapper(&p, fp), "gamma");
        // A dissimilar problem sees no relevant pulls: falls back to gamma.
        let far = gemm("far", 7, 1000, 3);
        assert_eq!(store.select_mapper(&far, fp), "gamma");
    }

    #[test]
    fn verify_reports_without_mutating() {
        let dir = scratch("verify");
        let path = dir.join("warm.store");
        let arch = Arch::accel_a();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        let p = gemm("v", 16, 16, 16);
        {
            let store = WarmStore::open(&path).expect("open");
            let (m, s) = sample(&p, &arch, 5.0);
            store.deposit(fp, &p, &m, "gamma", s, 1).unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"ws1 deadbeef not a real payload\n");
        bytes.extend_from_slice(b"ws9 00000000 future\n");
        fs::write(&path, &bytes).unwrap();
        let before = fs::read(&path).unwrap();
        let report = WarmStore::verify(&path).expect("verify");
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.skipped_future, 1);
        assert_eq!(fs::read(&path).unwrap(), before, "verify is read-only");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deposit_rejects_unframeable_input() {
        let store = WarmStore::in_memory();
        let arch = Arch::accel_a();
        let p = gemm("r", 8, 8, 8);
        let (m, _) = sample(&p, &arch, 0.0);
        assert!(store.deposit(1, &p, &m, "gamma", f64::INFINITY, 1).is_err());
        assert!(store.deposit(1, &p, &m, "bad\tname", 1.0, 1).is_err());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn auto_compaction_kicks_in_at_threshold() {
        let store = WarmStore::in_memory();
        let arch = Arch::accel_a();
        let fp = WarmStore::arch_fingerprint(&arch, None);
        // Distinct problems so per-key retention alone can't shrink below the
        // total cap.
        for i in 0..AUTO_COMPACT_AT {
            let p = gemm(&format!("l{i}"), 8 + (i % 97), 8, 8);
            let (m, _) = sample(&p, &arch, 0.0);
            store.deposit(fp, &p, &m, "gamma", 1.0 + i as f64, 1).unwrap();
        }
        assert!(store.len() <= TOTAL_CAP, "auto-compaction must bound the set");
    }
}
