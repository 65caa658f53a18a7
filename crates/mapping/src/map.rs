//! The [`Mapping`] type: a point in the map space.
//!
//! A mapping assigns, per storage level (outermost first, matching
//! [`arch::Arch::levels`]):
//!
//! * **temporal tile factors** — one factor per problem dimension; the
//!   product of a dimension's factors across all levels (temporal ×
//!   spatial) must equal its loop bound;
//! * **a loop order** — a permutation of the dimensions, outermost first;
//! * **spatial factors** — one factor per dimension, distributing work
//!   across the instances below that level (PEs, then ALUs); their product
//!   must not exceed the level's fanout.
//!
//! These are exactly the paper's three mapping axes (§2.3): tile sizes,
//! loop order, and loop parallelization.

use crate::factorization::{factorization_from_target_logs, prime_factors};
use arch::{Arch, MAX_LEVELS};
use problem::{Problem, MAX_DIMS};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Per-dimension slots of one mapping: [`MAX_DIMS`] × [`MAX_LEVELS`].
const SLOTS: usize = MAX_DIMS * MAX_LEVELS;

/// One loop of the flattened nest, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loop {
    /// Problem dimension index.
    pub dim: usize,
    /// Loop bound (tile factor). May be 1.
    pub bound: u64,
    /// Whether this is a spatial (parallel-for) loop.
    pub spatial: bool,
    /// Storage level the loop belongs to.
    pub level: usize,
}

/// Why a mapping is illegal for a given problem/architecture.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingError {
    /// Level count differs from the architecture's.
    WrongLevelCount { expected: usize, found: usize },
    /// A level's dimension count differs from the problem's (or, for
    /// [`Mapping::from_levels`], from level 0's).
    WrongDimCount { level: usize },
    /// A shape no mapping can hold: zero levels or dimensions, more than
    /// [`MAX_LEVELS`] levels, or more than [`MAX_DIMS`] dimensions.
    UnsupportedShape { levels: usize, dims: usize },
    /// A level's order is not a permutation of the dimensions.
    BadPermutation { level: usize },
    /// A dimension's factors do not multiply to its bound.
    FactorProduct { dim: usize, product: u64, bound: u64 },
    /// A level's spatial factors exceed its fanout.
    FanoutExceeded { level: usize, used: u64, fanout: u64 },
    /// A buffer level cannot hold its tiles.
    CapacityExceeded { level: usize, needed_words: f64, capacity_words: u64 },
    /// The cost model produced a physically impossible result for this
    /// mapping and the evaluation guard rejected it (`costmodel::guard`).
    /// The mapping itself may be structurally legal; it is quarantined so
    /// a corrupted score cannot become a search incumbent.
    GuardRejected {
        /// Name of the violated invariant (e.g. `finite-cost`).
        invariant: String,
        /// Storage level the violation was observed at, if level-specific.
        level: Option<usize>,
        /// The physically impossible value the model reported.
        observed: f64,
        /// The bound the invariant required.
        bound: f64,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::WrongLevelCount { expected, found } => {
                write!(f, "mapping has {found} levels, architecture has {expected}")
            }
            MappingError::WrongDimCount { level } => {
                write!(f, "level {level} has the wrong number of dimensions")
            }
            MappingError::UnsupportedShape { levels, dims } => write!(
                f,
                "mapping has {levels} levels x {dims} dims; supported are 1..={MAX_LEVELS} levels x 1..={MAX_DIMS} dims"
            ),
            MappingError::BadPermutation { level } => {
                write!(f, "level {level} order is not a permutation")
            }
            MappingError::FactorProduct { dim, product, bound } => {
                write!(f, "dim {dim} factors multiply to {product}, bound is {bound}")
            }
            MappingError::FanoutExceeded { level, used, fanout } => {
                write!(f, "level {level} uses {used} spatial lanes, fanout is {fanout}")
            }
            MappingError::CapacityExceeded { level, needed_words, capacity_words } => {
                write!(
                    f,
                    "level {level} needs {needed_words:.0} words, capacity is {capacity_words}"
                )
            }
            MappingError::GuardRejected { invariant, level, observed, bound } => {
                write!(f, "cost-model invariant `{invariant}` violated")?;
                if let Some(l) = level {
                    write!(f, " at level {l}")?;
                }
                write!(f, ": observed {observed:.6e}, bound {bound:.6e} (mapping quarantined)")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// A complete mapping: per storage level (outermost first) a loop order,
/// temporal factors and spatial factors, one entry per problem dimension.
///
/// The value is flat and fixed-size: at most [`MAX_LEVELS`] levels of at
/// most [`MAX_DIMS`] dimensions, stored inline (level `l`'s entries are
/// slots `l * num_dims .. (l + 1) * num_dims` of each array), so building,
/// cloning and mutating a mapping never touches the heap. Equality and
/// hashing look only at the slots in use.
#[derive(Clone)]
pub struct Mapping {
    nl: u8,
    nd: u8,
    order: [u8; SLOTS],
    temporal: [u64; SLOTS],
    spatial: [u64; SLOTS],
}

impl Mapping {
    /// The no-op mapping of a `num_levels` × `num_dims` shape: identity
    /// order and all factors 1 at every level.
    ///
    /// # Errors
    ///
    /// [`MappingError::UnsupportedShape`] unless `1 <= num_levels <=
    /// MAX_LEVELS` and `1 <= num_dims <= MAX_DIMS`.
    fn try_unit(num_levels: usize, num_dims: usize) -> Result<Self, MappingError> {
        if !(1..=MAX_LEVELS).contains(&num_levels) || !(1..=MAX_DIMS).contains(&num_dims) {
            return Err(MappingError::UnsupportedShape { levels: num_levels, dims: num_dims });
        }
        Ok(Mapping {
            nl: num_levels as u8,
            nd: num_dims as u8,
            // Slot `i` is dimension `i % num_dims`: the identity order.
            order: std::array::from_fn(|i| (i % num_dims) as u8),
            temporal: [1; SLOTS],
            spatial: [1; SLOTS],
        })
    }

    /// The no-op mapping of a shape known to fit: identity order and all
    /// factors 1 at every level. Any [`Problem`] on any [`Arch`] fits,
    /// since both reject larger shapes; untrusted rows go through
    /// [`Mapping::from_levels`].
    ///
    /// # Panics
    ///
    /// Panics if the shape is unsupported.
    pub fn unit(num_levels: usize, num_dims: usize) -> Self {
        Self::try_unit(num_levels, num_dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a mapping from per-level `(order, temporal, spatial)` rows,
    /// outermost first — the checked constructor for decisions read from
    /// untrusted input. Every row must have level 0's dimension count and
    /// every order entry must name one of those dimensions; whether the
    /// mapping is legal for a problem is still [`Mapping::validate`]'s job.
    ///
    /// # Errors
    ///
    /// [`MappingError::UnsupportedShape`], [`MappingError::WrongDimCount`]
    /// or [`MappingError::BadPermutation`] (an out-of-range order entry).
    pub fn from_levels(
        levels: &[(impl AsRef<[usize]>, impl AsRef<[u64]>, impl AsRef<[u64]>)],
    ) -> Result<Self, MappingError> {
        let nd = levels.first().map_or(0, |l| l.1.as_ref().len());
        let mut m = Self::try_unit(levels.len(), nd)?;
        for (l, (order, temporal, spatial)) in levels.iter().enumerate() {
            let (order, temporal, spatial) = (order.as_ref(), temporal.as_ref(), spatial.as_ref());
            if order.len() != nd || temporal.len() != nd || spatial.len() != nd {
                return Err(MappingError::WrongDimCount { level: l });
            }
            if order.iter().any(|&o| o >= nd) {
                return Err(MappingError::BadPermutation { level: l });
            }
            m.set_order(l, order);
            m.temporal_mut(l).copy_from_slice(temporal);
            m.spatial_mut(l).copy_from_slice(spatial);
        }
        Ok(m)
    }

    /// The trivially legal mapping: the whole problem iterated temporally at
    /// the outermost level, unit tiles everywhere inside. Always satisfies
    /// capacity (one word per tensor per inner level) but uses one lane.
    pub fn trivial(problem: &Problem, arch: &Arch) -> Self {
        let mut m = Mapping::unit(arch.num_levels(), problem.num_dims());
        for (t, d) in m.temporal_mut(0).iter_mut().zip(problem.dims()) {
            *t = d.bound;
        }
        m
    }

    /// Number of storage levels.
    pub fn num_levels(&self) -> usize {
        self.nl as usize
    }

    /// Number of problem dimensions this mapping is for.
    pub fn num_dims(&self) -> usize {
        self.nd as usize
    }

    /// Slots of `level`'s entries.
    #[inline]
    fn slots(&self, level: usize) -> Range<usize> {
        assert!(level < self.num_levels(), "level {level} of a {}-level mapping", self.nl);
        let d = self.num_dims();
        level * d..(level + 1) * d
    }

    /// Loop order at `level`: a permutation of dimension indices,
    /// outermost first.
    #[inline]
    pub fn order(&self, level: usize) -> &[u8] {
        &self.order[self.slots(level)]
    }

    /// Mutable loop order at `level`. Entries must stay below
    /// [`Mapping::num_dims`]; [`Mapping::validate`] re-checks that the
    /// order is a permutation.
    #[inline]
    pub fn order_mut(&mut self, level: usize) -> &mut [u8] {
        let r = self.slots(level);
        &mut self.order[r]
    }

    /// Overwrites the loop order at `level`.
    ///
    /// # Panics
    ///
    /// Panics unless `order` has one entry per dimension, each below
    /// [`Mapping::num_dims`].
    pub fn set_order(&mut self, level: usize, order: &[usize]) {
        let d = self.num_dims();
        assert!(order.len() == d && order.iter().all(|&o| o < d), "order {order:?} for {d} dims");
        for (dst, &o) in self.order_mut(level).iter_mut().zip(order) {
            *dst = o as u8;
        }
    }

    /// Temporal tile factor per dimension index at `level`.
    #[inline]
    pub fn temporal(&self, level: usize) -> &[u64] {
        &self.temporal[self.slots(level)]
    }

    /// Mutable temporal factors at `level`.
    #[inline]
    pub fn temporal_mut(&mut self, level: usize) -> &mut [u64] {
        let r = self.slots(level);
        &mut self.temporal[r]
    }

    /// Spatial (parallel) factor per dimension index at `level`, across
    /// the fanout below it.
    #[inline]
    pub fn spatial(&self, level: usize) -> &[u64] {
        &self.spatial[self.slots(level)]
    }

    /// Mutable spatial factors at `level`.
    #[inline]
    pub fn spatial_mut(&mut self, level: usize) -> &mut [u64] {
        let r = self.slots(level);
        &mut self.spatial[r]
    }

    /// Product of `level`'s spatial factors (lanes used below it).
    pub fn spatial_product(&self, level: usize) -> u64 {
        self.spatial(level).iter().product()
    }

    /// Per-dimension extent of the data tile resident at `level`: the
    /// product of all temporal *and* spatial factors at this level and
    /// every inner level. A level's own temporal loops iterate over its
    /// resident tile, so they contribute to its footprint; its spatial
    /// loops distribute the tile across its children, so they contribute
    /// here but not to the children's footprints. Level 0 (DRAM) covers
    /// the whole problem. Entries past [`Mapping::num_dims`] are 1.
    pub fn tile_extents(&self, level: usize) -> [u64; MAX_DIMS] {
        let mut ext = [1u64; MAX_DIMS];
        for l in level..self.num_levels() {
            for (e, (&t, &s)) in ext.iter_mut().zip(self.temporal(l).iter().zip(self.spatial(l))) {
                *e *= t * s;
            }
        }
        ext
    }

    /// Total spatial lanes used (product of all spatial factors).
    pub fn used_lanes(&self) -> u64 {
        (0..self.num_levels()).map(|l| self.spatial_product(l)).product()
    }

    /// The flattened loop nest, outermost first. Each level contributes its
    /// temporal loops (in its declared order) followed by its spatial loops.
    pub fn nest(&self) -> Vec<Loop> {
        let mut out = Vec::new();
        self.nest_into(&mut out);
        out
    }

    /// Appends the flattened loop nest to `out` (same order as
    /// [`Mapping::nest`]), so a caller-owned buffer can be reused across
    /// mappings.
    pub fn nest_into(&self, out: &mut Vec<Loop>) {
        for li in 0..self.num_levels() {
            let temporal = self.temporal(li);
            for &dim in self.order(li) {
                let dim = dim as usize;
                out.push(Loop { dim, bound: temporal[dim], spatial: false, level: li });
            }
            for (dim, &s) in self.spatial(li).iter().enumerate() {
                if s > 1 {
                    out.push(Loop { dim, bound: s, spatial: true, level: li });
                }
            }
        }
    }

    /// Total dense footprint (words) of the tiles resident at `level`: the
    /// per-tensor footprints of [`Mapping::tile_extents`], summed in tensor
    /// order.
    fn footprint_words(&self, problem: &Problem, level: usize) -> f64 {
        let ext = self.tile_extents(level);
        problem.tensors().iter().map(|t| t.projection.footprint_f64(&ext)).sum()
    }

    /// Checks all legality constraints (§3.1: "we ensure that all candidate
    /// mappings are legal").
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: structure, permutation,
    /// per-dimension factor products, fanouts, then buffer capacities
    /// (innermost level checked first).
    pub fn validate(&self, problem: &Problem, arch: &Arch) -> Result<(), MappingError> {
        self.validate_structure(problem, arch)?;
        // Innermost-first: the tightest buffers fail fastest.
        for li in (0..self.num_levels()).rev() {
            if let Some(cap) = arch.level(li).capacity_words {
                let needed = self.footprint_words(problem, li);
                if needed > cap as f64 {
                    return Err(MappingError::CapacityExceeded {
                        level: li,
                        needed_words: needed,
                        capacity_words: cap,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks every constraint *except* buffer capacities: level and
    /// dimension counts, order permutations, per-dimension factor products,
    /// and spatial fanouts. The sparse cost model uses this and applies its
    /// own compressed-footprint capacity rule.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural constraint.
    pub fn validate_structure(&self, problem: &Problem, arch: &Arch) -> Result<(), MappingError> {
        let d = problem.num_dims();
        if self.num_levels() != arch.num_levels() {
            return Err(MappingError::WrongLevelCount {
                expected: arch.num_levels(),
                found: self.num_levels(),
            });
        }
        if self.num_dims() != d {
            return Err(MappingError::WrongDimCount { level: 0 });
        }
        for li in 0..self.num_levels() {
            let mut seen = 0u64;
            for &o in self.order(li) {
                let o = o as usize;
                if o >= d || seen & (1 << o) != 0 {
                    return Err(MappingError::BadPermutation { level: li });
                }
                seen |= 1 << o;
            }
        }
        for dim in 0..d {
            let product: u64 = (0..self.num_levels())
                .map(|l| self.temporal(l)[dim] * self.spatial(l)[dim])
                .product();
            if product != problem.bound(dim) {
                return Err(MappingError::FactorProduct {
                    dim,
                    product,
                    bound: problem.bound(dim),
                });
            }
        }
        for li in 0..self.num_levels() {
            let used = self.spatial_product(li);
            let fanout = arch.fanout_below(li);
            if used > fanout {
                return Err(MappingError::FanoutExceeded { level: li, used, fanout });
            }
        }
        Ok(())
    }

    /// Whether the mapping is legal (shorthand for `validate(..).is_ok()`).
    pub fn is_legal(&self, problem: &Problem, arch: &Arch) -> bool {
        self.validate(problem, arch).is_ok()
    }

    /// Demotes spatial factors at every level whose spatial product
    /// exceeds its fanout, largest factor first (ties: highest dimension),
    /// one smallest prime at a time. Returns `false` if a level has no
    /// factor left to demote (only possible for malformed input).
    #[must_use]
    pub fn repair_fanout(&mut self, arch: &Arch) -> bool {
        for li in 0..self.num_levels() {
            let fanout = arch.fanout_below(li);
            while self.spatial_product(li) > fanout {
                let Some((dim, f)) = self
                    .spatial(li)
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, s)| s > 1)
                    .max_by_key(|&(_, s)| s)
                else {
                    return false;
                };
                let Some(&p) = prime_factors(f).first() else { return false };
                self.spatial_mut(li)[dim] /= p;
                self.temporal_mut(li)[dim] *= p;
            }
        }
        true
    }

    /// Repairs capacity violations in place by migrating prime factors from
    /// inner temporal/spatial factors to the outermost level's temporal
    /// loops (shrinking inner tiles) until every buffer fits.
    ///
    /// Returns `false` if the mapping cannot be repaired (the buffer cannot
    /// even hold unit tiles).
    #[must_use]
    pub fn repair_capacity(&mut self, problem: &Problem, arch: &Arch) -> bool {
        let d = problem.num_dims();
        let nl = self.num_levels();
        for li in (1..nl).rev() {
            let Some(cap) = arch.level(li).capacity_words else { continue };
            while self.footprint_words(problem, li) > cap as f64 {
                // Pick the (inner position, dim) with the largest factor to
                // shrink: any temporal or spatial factor at level li or
                // inside it contributes to the li tile.
                let mut best: Option<(usize, bool, usize, u64)> = None; // (level, is_spatial, dim, factor)
                for lj in li..nl {
                    for dim in 0..d {
                        let t = self.temporal(lj)[dim];
                        if t > 1 && best.is_none_or(|b| t > b.3) {
                            best = Some((lj, false, dim, t));
                        }
                        let s = self.spatial(lj)[dim];
                        if s > 1 && best.is_none_or(|b| s > b.3) {
                            best = Some((lj, true, dim, s));
                        }
                    }
                }
                let Some((lj, is_spatial, dim, f)) = best else { return false };
                let Some(&p) = prime_factors(f).first() else { return false };
                if is_spatial {
                    self.spatial_mut(lj)[dim] /= p;
                } else {
                    self.temporal_mut(lj)[dim] /= p;
                }
                self.temporal_mut(0)[dim] *= p;
            }
        }
        true
    }

    /// Warm-start tile scaling (§5.1.2 step 2): keep this mapping's loop
    /// orders and parallelization *pattern*, and re-derive tile factors for
    /// a new problem by scaling each dimension's per-level log-split to the
    /// new bound. Dimensions of `to` not present in `from` put their whole
    /// bound at the outermost level.
    ///
    /// The result is capacity-repaired for `arch` and checked legal;
    /// returns `None` when even unit tiles do not fit — or when `self` is
    /// not actually a mapping of `from` on `arch` (untrusted sources like a
    /// warm-start store can hand over arbitrary shapes; those must be
    /// refused, never indexed out of bounds or rescaled into an illegal
    /// result).
    pub fn scale_to(&self, from: &Problem, to: &Problem, arch: &Arch) -> Option<Mapping> {
        let nl = self.num_levels();
        let d_from = from.num_dims();
        if nl != arch.num_levels()
            || self.num_dims() != d_from
            || (0..nl).any(|l| self.order(l).iter().any(|&o| o as usize >= d_from))
        {
            return None;
        }
        let d_to = to.num_dims();
        let mut m = Mapping::unit(nl, d_to);

        // Orders: map dims by name where possible; unmatched dims keep their
        // canonical position appended at the end (innermost). A repeated
        // dim would leave the order longer than `d_to`, never legal.
        for li in 0..nl {
            let mut order = [0u8; MAX_DIMS];
            let mut len = 0;
            let mut seen = 0u64;
            for &od in self.order(li) {
                if let Some(nd) = to.dim_index(from.dims()[od as usize].name) {
                    if seen & (1 << nd) != 0 {
                        return None;
                    }
                    seen |= 1 << nd;
                    order[len] = nd as u8;
                    len += 1;
                }
            }
            for nd in 0..d_to {
                if seen & (1 << nd) == 0 {
                    order[len] = nd as u8;
                    len += 1;
                }
            }
            m.order_mut(li).copy_from_slice(&order[..d_to]);
        }

        for nd in 0..d_to {
            let bound = to.bound(nd);
            let name = to.dims()[nd].name;
            match from.dim_index(name) {
                Some(od) => {
                    let old_bound = from.bound(od) as f64;
                    let scale = if old_bound > 1.0 {
                        (bound as f64).ln() / old_bound.ln()
                    } else {
                        0.0
                    };
                    // 2*nl slots: temporal then spatial per level.
                    let mut targets = [0f64; 2 * MAX_LEVELS];
                    for l in 0..nl {
                        targets[2 * l] = (self.temporal(l)[od] as f64).ln() * scale;
                        targets[2 * l + 1] = (self.spatial(l)[od] as f64).ln() * scale;
                    }
                    if scale == 0.0 {
                        targets[0] = (bound as f64).ln();
                    }
                    let mut split = [1u64; 2 * MAX_LEVELS];
                    factorization_from_target_logs(bound, &targets[..2 * nl], &mut split[..2 * nl]);
                    for li in 0..nl {
                        m.temporal_mut(li)[nd] = split[2 * li];
                        m.spatial_mut(li)[nd] = split[2 * li + 1];
                    }
                }
                None => m.temporal_mut(0)[nd] = bound,
            }
        }

        // Spatial products may exceed fanout after rounding; demote extras.
        // `product > fanout >= 1` implies some factor > 1, but a malformed
        // input must degrade to `None`, not a panic.
        if !m.repair_fanout(arch) || !m.repair_capacity(to, arch) {
            return None;
        }
        // Hostile inputs (zero factors, absurd bounds) can survive the
        // repairs above; a rescale that is not legal is a `None`, not a
        // seed and never a panic.
        if !m.is_legal(to, arch) {
            return None;
        }
        Some(m)
    }

    /// Occupied slots of each array (all levels).
    fn used(&self) -> usize {
        self.num_levels() * self.num_dims()
    }
}

impl PartialEq for Mapping {
    fn eq(&self, other: &Self) -> bool {
        let n = self.used();
        self.nl == other.nl
            && self.nd == other.nd
            && self.temporal[..n] == other.temporal[..n]
            && self.spatial[..n] == other.spatial[..n]
            && self.order[..n] == other.order[..n]
    }
}

impl Eq for Mapping {}

impl Hash for Mapping {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let n = self.used();
        self.nl.hash(state);
        self.nd.hash(state);
        self.order[..n].hash(state);
        self.temporal[..n].hash(state);
        self.spatial[..n].hash(state);
    }
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Level<'a>(&'a Mapping, usize);
        impl fmt::Debug for Level<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("Level")
                    .field("order", &self.0.order(self.1))
                    .field("temporal", &self.0.temporal(self.1))
                    .field("spatial", &self.0.spatial(self.1))
                    .finish()
            }
        }
        f.debug_list().entries((0..self.num_levels()).map(|l| Level(self, l))).finish()
    }
}

impl fmt::Display for Mapping {
    /// Pretty-prints the loop nest like the paper's Fig. 1 (outermost
    /// first, `par-for` for spatial loops, unit loops elided).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut indent = 0usize;
        let nest = self.nest();
        for li in 0..self.num_levels() {
            writeln!(f, "{:indent$}--- L{li} ---", "")?;
            for l in nest.iter().filter(|l| l.level == li && l.bound > 1) {
                let kw = if l.spatial { "par-for" } else { "for" };
                writeln!(f, "{:indent$}{kw} d{} in 0..{}", "", l.dim, l.bound)?;
                indent += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Problem, Arch) {
        (Problem::conv2d("t", 4, 8, 8, 7, 7, 3, 3), Arch::accel_b())
    }

    #[test]
    fn trivial_is_legal() {
        let (p, a) = setup();
        let m = Mapping::trivial(&p, &a);
        m.validate(&p, &a).unwrap();
        assert_eq!(m.used_lanes(), 1);
        assert_eq!(m.tile_extents(1), [1; MAX_DIMS]);
    }

    #[test]
    fn tile_extents_accumulate_inner_levels() {
        let (p, a) = setup();
        let mut m = Mapping::trivial(&p, &a);
        // Move K=8 split: 2 at DRAM, 2 spatial at L1 boundary, 2 temporal at L2.
        m.temporal_mut(0)[1] = 2;
        m.spatial_mut(1)[1] = 2;
        m.temporal_mut(2)[1] = 2;
        m.validate(&p, &a).unwrap();
        // Tile at GlobalBuffer (level 1) covers its spatial split and inner.
        assert_eq!(m.tile_extents(1)[1], 4);
        // Tile at LocalBuffer (level 2) covers only the inner temporal.
        assert_eq!(m.tile_extents(2)[1], 2);
        assert_eq!(m.used_lanes(), 2);
    }

    #[test]
    fn factor_product_violation_detected() {
        let (p, a) = setup();
        let mut m = Mapping::trivial(&p, &a);
        m.temporal_mut(0)[1] = 4; // K now multiplies to 4, bound 8
        assert!(matches!(
            m.validate(&p, &a),
            Err(MappingError::FactorProduct { dim: 1, product: 4, bound: 8 })
        ));
    }

    #[test]
    fn fanout_violation_detected() {
        let (p, a) = setup();
        let mut m = Mapping::trivial(&p, &a);
        m.temporal_mut(0)[1] = 1;
        m.spatial_mut(2)[1] = 8; // 8 > 4 ALUs
        assert!(matches!(
            m.validate(&p, &a),
            Err(MappingError::FanoutExceeded { level: 2, used: 8, fanout: 4 })
        ));
    }

    #[test]
    fn capacity_violation_detected_and_repaired() {
        let (p, a) = setup();
        let mut m = Mapping::trivial(&p, &a);
        // Put everything inside the 128-word local buffer: way over.
        for dim in 0..7 {
            m.temporal_mut(2)[dim] = p.bound(dim);
            m.temporal_mut(0)[dim] = 1;
        }
        assert!(matches!(
            m.validate(&p, &a),
            Err(MappingError::CapacityExceeded { level: 2, .. })
        ));
        assert!(m.repair_capacity(&p, &a));
        m.validate(&p, &a).unwrap();
    }

    #[test]
    fn nest_orders_levels_outermost_first() {
        let (p, a) = setup();
        let m = Mapping::trivial(&p, &a);
        let nest = m.nest();
        assert!(nest.windows(2).all(|w| w[0].level <= w[1].level));
        assert_eq!(nest.iter().filter(|l| l.spatial).count(), 0);
    }

    #[test]
    fn scale_to_same_problem_round_trips_shape() {
        let (p, a) = setup();
        let mut m = Mapping::trivial(&p, &a);
        m.temporal_mut(0)[1] = 2;
        m.temporal_mut(1)[1] = 4;
        m.spatial_mut(1)[3] = 7;
        m.temporal_mut(0)[3] = 1;
        m.validate(&p, &a).unwrap();
        let s = m.scale_to(&p, &p, &a).unwrap();
        s.validate(&p, &a).unwrap();
        assert_eq!(s.spatial(1)[3], 7);
        assert_eq!(s.temporal(1)[1], 4);
    }

    #[test]
    fn scale_to_larger_problem_is_legal() {
        let a = Arch::accel_b();
        let from = Problem::conv2d("f", 4, 8, 8, 7, 7, 3, 3);
        let to = Problem::conv2d("t", 4, 16, 8, 14, 14, 3, 3);
        let mut m = Mapping::trivial(&from, &a);
        m.temporal_mut(0)[1] = 4;
        m.spatial_mut(1)[1] = 2;
        m.validate(&from, &a).unwrap();
        let s = m.scale_to(&from, &to, &a).unwrap();
        s.validate(&to, &a).unwrap();
    }

    #[test]
    fn scale_to_different_operator_is_legal() {
        let a = Arch::accel_b();
        let conv = Problem::conv2d("f", 4, 8, 8, 7, 7, 3, 3);
        let gemm = Problem::gemm("g", 4, 64, 8, 32);
        let m = Mapping::trivial(&conv, &a);
        let s = m.scale_to(&conv, &gemm, &a).unwrap();
        s.validate(&gemm, &a).unwrap();
    }

    #[test]
    fn display_prints_nonunit_loops() {
        let (p, a) = setup();
        let m = Mapping::trivial(&p, &a);
        let s = m.to_string();
        assert!(s.contains("for d0 in 0..4"));
        assert!(s.contains("--- L2 ---"));
    }

    #[test]
    fn error_display_messages() {
        let e = MappingError::FanoutExceeded { level: 1, used: 300, fanout: 256 };
        assert!(e.to_string().contains("fanout"));
        let e = MappingError::CapacityExceeded { level: 2, needed_words: 1e4, capacity_words: 128 };
        assert!(e.to_string().contains("capacity"));
        let e = MappingError::GuardRejected {
            invariant: "finite-cost".into(),
            level: Some(1),
            observed: f64::NAN,
            bound: 1.0,
        };
        let s = e.to_string();
        assert!(s.contains("finite-cost") && s.contains("level 1") && s.contains("quarantined"));
    }

    #[test]
    fn mapping_is_flat_and_compact() {
        // Two shape bytes, 32 order bytes, 2 x 32 factor words, padded to
        // 8-byte alignment: a clone is one 552-byte copy.
        assert_eq!(std::mem::size_of::<Mapping>(), 552);
    }

    #[test]
    fn checked_constructor_rejects_hostile_shapes() {
        let row = |d: usize| ((0..d).collect::<Vec<usize>>(), vec![1u64; d], vec![1u64; d]);
        let shape = |levels: usize, dims: usize| MappingError::UnsupportedShape { levels, dims };
        assert_eq!(Mapping::from_levels(&vec![row(9); 3]), Err(shape(3, 9)));
        assert_eq!(Mapping::from_levels(&vec![row(3); 5]), Err(shape(5, 3)));
        assert_eq!(Mapping::from_levels(&Vec::<(Vec<usize>, Vec<u64>, Vec<u64>)>::new()), Err(shape(0, 0)));
        assert_eq!(Mapping::try_unit(1, 0).unwrap_err(), shape(1, 0));
        assert_eq!(
            Mapping::from_levels(&[row(3), row(2)]),
            Err(MappingError::WrongDimCount { level: 1 })
        );
        let (mut order, t, sp) = row(3);
        order[2] = 3;
        assert_eq!(
            Mapping::from_levels(&[row(3), (order, t, sp)]),
            Err(MappingError::BadPermutation { level: 1 })
        );
        let m = Mapping::from_levels(&vec![row(MAX_DIMS); MAX_LEVELS]).unwrap();
        assert_eq!(m, Mapping::unit(MAX_LEVELS, MAX_DIMS));
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let (p, a) = setup();
        let m = Mapping::trivial(&p, &a);
        let mut wide = Mapping::unit(a.num_levels(), MAX_DIMS);
        wide.temporal_mut(0)[..7].copy_from_slice(&p.bounds());
        assert_ne!(m, wide);
        let back = Mapping::from_levels(
            &(0..m.num_levels())
                .map(|l| {
                    let order: Vec<usize> = m.order(l).iter().map(|&o| o as usize).collect();
                    (order, m.temporal(l).to_vec(), m.spatial(l).to_vec())
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(m, back);
    }
}
