//! Buffer-hierarchy configuration types.

use std::fmt;

/// Most storage levels an architecture may have. A mapping stores its
/// per-level decisions inline, sized for this many levels, so a deeper
/// hierarchy is rejected by [`Arch::validate`] rather than mapped.
pub const MAX_LEVELS: usize = 4;

/// Error returned by [`Arch::validate`] / [`Arch::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// The hierarchy has no levels.
    Empty,
    /// A non-outermost level has unbounded capacity.
    UnboundedInnerLevel(usize),
    /// A level declares a zero fanout.
    ZeroFanout(usize),
    /// The hierarchy has more than [`MAX_LEVELS`] levels.
    TooManyLevels(usize),
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::Empty => write!(f, "architecture has no storage levels"),
            ArchError::UnboundedInnerLevel(i) => {
                write!(f, "inner storage level {i} must have finite capacity")
            }
            ArchError::ZeroFanout(i) => write!(f, "storage level {i} has zero fanout"),
            ArchError::TooManyLevels(n) => {
                write!(f, "architecture has {n} storage levels, at most {MAX_LEVELS} are supported")
            }
        }
    }
}

impl std::error::Error for ArchError {}

/// One storage level of the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct MemLevel {
    /// Display name ("DRAM", "GlobalBuffer", "LocalBuffer").
    pub name: String,
    /// Capacity in *words* per instance; `None` means unbounded (DRAM only).
    pub capacity_words: Option<u64>,
    /// How many instances of the next-inner level (or ALUs, for the
    /// innermost level) one instance of this level feeds. This is the
    /// spatial fanout available to the mapping's parallelization axis at
    /// this level boundary.
    pub fanout: u64,
    /// Energy per word accessed (read or write), in pJ.
    pub energy_per_access: f64,
    /// Sustained bandwidth in words per cycle, per instance.
    pub bandwidth: f64,
}

impl MemLevel {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        capacity_words: Option<u64>,
        fanout: u64,
        energy_per_access: f64,
        bandwidth: f64,
    ) -> Self {
        MemLevel { name: name.into(), capacity_words, fanout, energy_per_access, bandwidth }
    }
}

/// A complete accelerator configuration: the storage hierarchy (outermost
/// first) plus compute-datapath parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Arch {
    name: String,
    levels: Vec<MemLevel>,
    /// Energy of one multiply-accumulate, in pJ.
    pub mac_energy: f64,
    /// Word width in bytes (capacities in bytes divide by this).
    pub word_bytes: u64,
}

impl Arch {
    /// Creates and validates an architecture.
    ///
    /// # Errors
    ///
    /// Returns an error if the hierarchy is empty or deeper than
    /// [`MAX_LEVELS`], an inner level is unbounded, or any fanout is zero.
    pub fn new(
        name: impl Into<String>,
        levels: Vec<MemLevel>,
        mac_energy: f64,
        word_bytes: u64,
    ) -> Result<Self, ArchError> {
        let arch = Arch { name: name.into(), levels, mac_energy, word_bytes };
        arch.validate()?;
        Ok(arch)
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// See [`Arch::new`].
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.levels.is_empty() {
            return Err(ArchError::Empty);
        }
        if self.levels.len() > MAX_LEVELS {
            return Err(ArchError::TooManyLevels(self.levels.len()));
        }
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 && l.capacity_words.is_none() {
                return Err(ArchError::UnboundedInnerLevel(i));
            }
            if l.fanout == 0 {
                return Err(ArchError::ZeroFanout(i));
            }
        }
        Ok(())
    }

    /// The paper's Accel-A (Table 1): 512 KB shared buffer, 64 KB private
    /// buffer per PE, 256 PEs, 1 ALU per PE. This is the configuration the
    /// Mind Mappings surrogate is trained on.
    pub fn accel_a() -> Self {
        let word = 2u64; // 16-bit datapath
        Arch::new(
            "Accel-A",
            vec![
                MemLevel::new("DRAM", None, 1, 200.0, 16.0),
                MemLevel::new("GlobalBuffer", Some(512 * 1024 / word), 256, 13.5, 64.0),
                MemLevel::new("LocalBuffer", Some(64 * 1024 / word), 1, 6.0, 4.0),
            ],
            1.0,
            word,
        )
        .expect("preset is valid")
    }

    /// The paper's Accel-B (Table 1): 64 KB shared buffer, 256 B private
    /// buffer per PE, 256 PEs, 4 ALUs per PE. Unseen by the surrogate.
    pub fn accel_b() -> Self {
        let word = 2u64;
        Arch::new(
            "Accel-B",
            vec![
                MemLevel::new("DRAM", None, 1, 200.0, 16.0),
                MemLevel::new("GlobalBuffer", Some(64 * 1024 / word), 256, 6.0, 64.0),
                MemLevel::new("LocalBuffer", Some(256 / word), 4, 0.6, 4.0),
            ],
            1.0,
            word,
        )
        .expect("preset is valid")
    }

    /// Configuration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The storage levels, outermost (DRAM) first.
    pub fn levels(&self) -> &[MemLevel] {
        &self.levels
    }

    /// Number of storage levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn level(&self, i: usize) -> &MemLevel {
        &self.levels[i]
    }

    /// Number of instances of level `i` in the whole chip: the product of
    /// the fanouts of all outer levels. Level 0 always has one instance.
    pub fn instances(&self, i: usize) -> u64 {
        self.levels[..i].iter().map(|l| l.fanout).product()
    }

    /// Total spatial multiply lanes: the product of all fanouts (PEs × ALUs
    /// for the presets).
    pub fn total_spatial_lanes(&self) -> u64 {
        self.levels.iter().map(|l| l.fanout).product()
    }

    /// Spatial fanout available at the boundary below level `i` (between
    /// level `i` and level `i+1`, or the ALUs for the innermost level).
    pub fn fanout_below(&self, i: usize) -> u64 {
        self.levels[i].fanout
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for (i, l) in self.levels.iter().enumerate() {
            let cap = match l.capacity_words {
                Some(w) => format!("{} B", w * self.word_bytes),
                None => "inf".to_string(),
            };
            writeln!(
                f,
                "  L{i} {:<14} cap={cap:<10} fanout={:<4} e={:.2} pJ/word bw={} w/cyc",
                l.name, l.fanout, l.energy_per_access, l.bandwidth
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let a = Arch::accel_a();
        assert_eq!(a.level(1).capacity_words, Some(512 * 1024 / 2));
        assert_eq!(a.level(2).capacity_words, Some(64 * 1024 / 2));
        assert_eq!(a.level(1).fanout, 256);
        assert_eq!(a.level(2).fanout, 1);
        let b = Arch::accel_b();
        assert_eq!(b.level(1).capacity_words, Some(64 * 1024 / 2));
        assert_eq!(b.level(2).capacity_words, Some(128));
        assert_eq!(b.total_spatial_lanes(), 1024);
    }

    #[test]
    fn instances_multiply_fanouts() {
        let b = Arch::accel_b();
        assert_eq!(b.instances(0), 1);
        assert_eq!(b.instances(1), 1);
        assert_eq!(b.instances(2), 256);
    }

    #[test]
    fn energy_monotonically_decreases_inward() {
        for arch in [Arch::accel_a(), Arch::accel_b()] {
            for w in arch.levels().windows(2) {
                assert!(w[0].energy_per_access > w[1].energy_per_access);
            }
        }
    }

    #[test]
    fn validation_rejects_bad_hierarchies() {
        assert_eq!(Arch::new("e", vec![], 1.0, 2).unwrap_err(), ArchError::Empty);
        let err = Arch::new(
            "u",
            vec![
                MemLevel::new("DRAM", None, 1, 200.0, 16.0),
                MemLevel::new("L2", None, 4, 6.0, 16.0),
            ],
            1.0,
            2,
        )
        .unwrap_err();
        assert_eq!(err, ArchError::UnboundedInnerLevel(1));
        let err = Arch::new("z", vec![MemLevel::new("DRAM", None, 0, 200.0, 16.0)], 1.0, 2)
            .unwrap_err();
        assert_eq!(err, ArchError::ZeroFanout(0));
        assert!(format!("{err}").contains("fanout"));
        let deep = (0..=MAX_LEVELS)
            .map(|i| MemLevel::new(format!("L{i}"), (i > 0).then_some(64), 1, 1.0, 1.0))
            .collect();
        let err = Arch::new("d", deep, 1.0, 2).unwrap_err();
        assert_eq!(err, ArchError::TooManyLevels(MAX_LEVELS + 1));
    }

    #[test]
    fn display_lists_levels() {
        let s = Arch::accel_a().to_string();
        assert!(s.contains("GlobalBuffer"));
        assert!(s.contains("Accel-A"));
    }
}
