//! The [`Problem`] type: one DNN layer/operator as a perfectly nested loop
//! program with tensor projections.

use crate::dims::{DimDef, DimName};
use crate::projection::{ProjTerm, Projection};
use std::fmt;

/// Most iteration dimensions a problem may have. A mapping stores its
/// per-dimension decisions inline, sized for this many dimensions.
pub const MAX_DIMS: usize = 8;

/// Most tensors a problem may have (every built-in operator has three:
/// input, weight, output). The cost model keeps its per-tensor working
/// state inline, sized for this many tensors.
pub const MAX_TENSORS: usize = 4;

/// High-level operator class; informational (the cost model is driven purely
/// by dims + projections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Standard 7-loop 2D convolution.
    Conv2d,
    /// Depth-wise convolution (no cross-channel reduction).
    DepthwiseConv2d,
    /// Point-wise (1x1) convolution.
    PointwiseConv2d,
    /// (Batched) matrix multiply, e.g. FC / attention projections.
    Gemm,
}

impl fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OperatorKind::Conv2d => "CONV2D",
            OperatorKind::DepthwiseConv2d => "DWCONV",
            OperatorKind::PointwiseConv2d => "PWCONV",
            OperatorKind::Gemm => "GEMM",
        };
        f.write_str(s)
    }
}

/// Role of a tensor in the dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorKind {
    /// Read-only activation input.
    Input,
    /// Read-only weights/parameters.
    Weight,
    /// Read-modify-write output (partial sums accumulate over the reduction
    /// dimensions — the dims the output projection does not depend on).
    Output,
}

/// One tensor of a [`Problem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorDef {
    /// Display name ("Inputs", "Weights", "Outputs").
    pub name: String,
    /// Role.
    pub kind: TensorKind,
    /// Iteration-space → data-space projection.
    pub projection: Projection,
}

/// Densities of the operand tensors, as fractions of nonzeros in `(0, 1]`.
///
/// `1.0` everywhere is a dense workload. The paper treats density as a
/// *workload feature* (§3), so it lives here rather than in the cost model;
/// the sparse cost model consumes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Density {
    /// Weight density (fixed once a model is pruned).
    pub weight: f64,
    /// Input-activation density (dynamic at runtime).
    pub input: f64,
}

impl Density {
    /// Fully dense workload.
    pub const DENSE: Density = Density { weight: 1.0, input: 1.0 };

    /// Weight-sparse workload with dense activations (Table 2 / Table 3).
    pub fn weight_sparse(weight: f64) -> Self {
        Density { weight, input: 1.0 }
    }

    /// Activation-sparse workload with dense weights (Table 4).
    pub fn input_sparse(input: f64) -> Self {
        Density { weight: 1.0, input }
    }

    /// Density of the given tensor kind (outputs are reported dense here; the
    /// sparse cost model derives output density from the operands and the
    /// reduction size).
    pub fn of(&self, kind: TensorKind) -> f64 {
        match kind {
            TensorKind::Input => self.input,
            TensorKind::Weight => self.weight,
            TensorKind::Output => 1.0,
        }
    }

    /// Whether this is the fully dense profile.
    pub fn is_dense(&self) -> bool {
        self.weight == 1.0 && self.input == 1.0
    }
}

impl Default for Density {
    fn default() -> Self {
        Density::DENSE
    }
}

impl Eq for Density {}

/// One DNN layer/operator workload: named dimensions with bounds plus tensor
/// projections. This is the unit of map-space exploration (the paper targets
/// per-layer mapping; inter-layer fusion is out of scope, §3 footnote 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    name: String,
    op: OperatorKind,
    dims: Vec<DimDef>,
    tensors: Vec<TensorDef>,
}

impl Problem {
    /// Generic constructor. Prefer the operator-specific constructors
    /// ([`Problem::conv2d`], [`Problem::gemm`], ...) unless you are defining
    /// a new operator type.
    ///
    /// # Panics
    ///
    /// Panics if any tensor projection references a dim index out of range,
    /// if there is not exactly one [`TensorKind::Output`] tensor, if there
    /// are more than [`MAX_TENSORS`] tensors, or if `dims` is empty or
    /// longer than [`MAX_DIMS`].
    pub fn new(
        name: impl Into<String>,
        op: OperatorKind,
        dims: Vec<DimDef>,
        tensors: Vec<TensorDef>,
    ) -> Self {
        assert!(!dims.is_empty(), "a problem needs at least one dimension");
        assert!(
            dims.len() <= MAX_DIMS,
            "a problem has at most {MAX_DIMS} dimensions, found {}",
            dims.len()
        );
        assert!(
            tensors.len() <= MAX_TENSORS,
            "a problem has at most {MAX_TENSORS} tensors, found {}",
            tensors.len()
        );
        for t in &tensors {
            for d in t.projection.relevant_dims() {
                assert!(d < dims.len(), "tensor {} references dim {d} out of range", t.name);
            }
        }
        let outputs = tensors.iter().filter(|t| t.kind == TensorKind::Output).count();
        assert_eq!(outputs, 1, "exactly one output tensor expected, found {outputs}");
        Problem { name: name.into(), op, dims, tensors }
    }

    /// Standard 7-loop CONV2D, stride 1.
    ///
    /// Dim order is `(B, K, C, Y, X, R, S)` matching the paper's Table 1:
    /// `Y, X` are *output* spatial sizes; the input halo (`Y+R-1`) is modeled
    /// by the sliding-window projection.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(name: impl Into<String>, b: u64, k: u64, c: u64, y: u64, x: u64, r: u64, s: u64) -> Self {
        let dims = vec![
            DimDef::new(DimName::B, b),
            DimDef::new(DimName::K, k),
            DimDef::new(DimName::C, c),
            DimDef::new(DimName::Y, y),
            DimDef::new(DimName::X, x),
            DimDef::new(DimName::R, r),
            DimDef::new(DimName::S, s),
        ];
        let (db, dk, dc, dy, dx, dr, ds) = (0, 1, 2, 3, 4, 5, 6);
        let tensors = vec![
            TensorDef {
                name: "Inputs".into(),
                kind: TensorKind::Input,
                projection: Projection::new(vec![
                    ProjTerm::Single(db),
                    ProjTerm::Single(dc),
                    ProjTerm::Window { base: dy, window: dr },
                    ProjTerm::Window { base: dx, window: ds },
                ]),
            },
            TensorDef {
                name: "Weights".into(),
                kind: TensorKind::Weight,
                projection: Projection::new(vec![
                    ProjTerm::Single(dk),
                    ProjTerm::Single(dc),
                    ProjTerm::Single(dr),
                    ProjTerm::Single(ds),
                ]),
            },
            TensorDef {
                name: "Outputs".into(),
                kind: TensorKind::Output,
                projection: Projection::new(vec![
                    ProjTerm::Single(db),
                    ProjTerm::Single(dk),
                    ProjTerm::Single(dy),
                    ProjTerm::Single(dx),
                ]),
            },
        ];
        Problem::new(name, OperatorKind::Conv2d, dims, tensors)
    }

    /// Point-wise (1x1) convolution: a CONV2D with `R = S = 1`.
    pub fn pointwise_conv2d(name: impl Into<String>, b: u64, k: u64, c: u64, y: u64, x: u64) -> Self {
        let mut p = Problem::conv2d(name, b, k, c, y, x, 1, 1);
        p.op = OperatorKind::PointwiseConv2d;
        p
    }

    /// Depth-wise convolution: per-channel filtering, no cross-channel
    /// reduction. Dims `(B, C, Y, X, R, S)`.
    pub fn depthwise_conv2d(name: impl Into<String>, b: u64, c: u64, y: u64, x: u64, r: u64, s: u64) -> Self {
        let dims = vec![
            DimDef::new(DimName::B, b),
            DimDef::new(DimName::C, c),
            DimDef::new(DimName::Y, y),
            DimDef::new(DimName::X, x),
            DimDef::new(DimName::R, r),
            DimDef::new(DimName::S, s),
        ];
        let (db, dc, dy, dx, dr, ds) = (0, 1, 2, 3, 4, 5);
        let tensors = vec![
            TensorDef {
                name: "Inputs".into(),
                kind: TensorKind::Input,
                projection: Projection::new(vec![
                    ProjTerm::Single(db),
                    ProjTerm::Single(dc),
                    ProjTerm::Window { base: dy, window: dr },
                    ProjTerm::Window { base: dx, window: ds },
                ]),
            },
            TensorDef {
                name: "Weights".into(),
                kind: TensorKind::Weight,
                projection: Projection::new(vec![
                    ProjTerm::Single(dc),
                    ProjTerm::Single(dr),
                    ProjTerm::Single(ds),
                ]),
            },
            TensorDef {
                name: "Outputs".into(),
                kind: TensorKind::Output,
                projection: Projection::new(vec![
                    ProjTerm::Single(db),
                    ProjTerm::Single(dc),
                    ProjTerm::Single(dy),
                    ProjTerm::Single(dx),
                ]),
            },
        ];
        Problem::new(name, OperatorKind::DepthwiseConv2d, dims, tensors)
    }

    /// Batched GEMM `C[b,m,n] += A[b,m,k] * W[k,n]` with dims `(B, M, K, N)`
    /// matching the paper's Table 1 BERT rows. `A` is the activation operand
    /// and `W` the weight operand (sparse-dense GEMM in §4.5.3 makes the
    /// weight matrix the sparse one).
    pub fn gemm(name: impl Into<String>, b: u64, m: u64, k: u64, n: u64) -> Self {
        let dims = vec![
            DimDef::new(DimName::B, b),
            DimDef::new(DimName::M, m),
            DimDef::new(DimName::K, k),
            DimDef::new(DimName::N, n),
        ];
        let (db, dm, dk, dn) = (0, 1, 2, 3);
        let tensors = vec![
            TensorDef {
                name: "A".into(),
                kind: TensorKind::Input,
                projection: Projection::new(vec![
                    ProjTerm::Single(db),
                    ProjTerm::Single(dm),
                    ProjTerm::Single(dk),
                ]),
            },
            TensorDef {
                name: "W".into(),
                kind: TensorKind::Weight,
                projection: Projection::new(vec![ProjTerm::Single(dk), ProjTerm::Single(dn)]),
            },
            TensorDef {
                name: "Out".into(),
                kind: TensorKind::Output,
                projection: Projection::new(vec![
                    ProjTerm::Single(db),
                    ProjTerm::Single(dm),
                    ProjTerm::Single(dn),
                ]),
            },
        ];
        Problem::new(name, OperatorKind::Gemm, dims, tensors)
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operator class.
    pub fn op(&self) -> OperatorKind {
        self.op
    }

    /// The iteration dimensions, in canonical order.
    pub fn dims(&self) -> &[DimDef] {
        &self.dims
    }

    /// Number of iteration dimensions (7 for CONV2D, 4 for GEMM, ...).
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Loop bound of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn bound(&self, d: usize) -> u64 {
        self.dims[d].bound
    }

    /// All loop bounds as a vector.
    pub fn bounds(&self) -> Vec<u64> {
        self.dims.iter().map(|d| d.bound).collect()
    }

    /// The tensors (inputs, weights, outputs).
    pub fn tensors(&self) -> &[TensorDef] {
        &self.tensors
    }

    /// The single output tensor.
    pub fn output(&self) -> &TensorDef {
        self.tensors
            .iter()
            .find(|t| t.kind == TensorKind::Output)
            .expect("validated at construction")
    }

    /// Index of the dimension with the given name, if present.
    pub fn dim_index(&self, name: DimName) -> Option<usize> {
        self.dims.iter().position(|d| d.name == name)
    }

    /// Total multiply-accumulate count: the product of all loop bounds.
    pub fn total_macs(&self) -> u128 {
        self.dims.iter().map(|d| d.bound as u128).product()
    }

    /// Dimensions the output tensor does *not* depend on: the reduction
    /// (accumulation) dimensions. `C, R, S` for CONV2D; `K` for GEMM.
    pub fn reduction_dims(&self) -> Vec<usize> {
        let out = self.output();
        (0..self.dims.len()).filter(|&d| !out.projection.depends_on(d)).collect()
    }

    /// Workload-similarity *editing distance* used by warm-start (§5.1): the
    /// number of same-named dimensions whose bounds differ, plus the number
    /// of dimensions present in one workload but not the other.
    pub fn edit_distance(&self, other: &Problem) -> usize {
        let mut dist = 0usize;
        for d in &self.dims {
            match other.dim_index(d.name) {
                Some(j) => {
                    if other.dims[j].bound != d.bound {
                        dist += 1;
                    }
                }
                None => dist += 1,
            }
        }
        for d in &other.dims {
            if self.dim_index(d.name).is_none() {
                dist += 1;
            }
        }
        dist
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] (", self.name, self.op)?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_macs_and_reduction() {
        let p = Problem::conv2d("c", 16, 256, 256, 14, 14, 3, 3);
        assert_eq!(p.total_macs(), 16 * 256 * 256 * 14 * 14 * 9);
        // C, R, S are reduction dims (indices 2, 5, 6).
        assert_eq!(p.reduction_dims(), vec![2, 5, 6]);
    }

    #[test]
    fn gemm_reduction_is_k() {
        let p = Problem::gemm("g", 16, 1024, 1024, 512);
        assert_eq!(p.reduction_dims(), vec![2]);
        assert_eq!(p.num_dims(), 4);
    }

    #[test]
    fn depthwise_has_no_k() {
        let p = Problem::depthwise_conv2d("dw", 1, 32, 56, 56, 3, 3);
        assert_eq!(p.dim_index(DimName::K), None);
        // Only R, S reduce.
        assert_eq!(p.reduction_dims(), vec![4, 5]);
    }

    #[test]
    fn pointwise_is_unit_filter_conv() {
        let p = Problem::pointwise_conv2d("pw", 1, 64, 32, 56, 56);
        assert_eq!(p.bound(p.dim_index(DimName::R).unwrap()), 1);
        assert_eq!(p.op(), OperatorKind::PointwiseConv2d);
    }

    #[test]
    fn edit_distance_counts_differing_bounds() {
        let a = Problem::conv2d("a", 16, 128, 128, 28, 28, 3, 3);
        let b = Problem::conv2d("b", 16, 256, 128, 28, 28, 3, 3);
        assert_eq!(a.edit_distance(&b), 1);
        let c = Problem::conv2d("c", 16, 256, 256, 14, 14, 3, 3);
        assert_eq!(a.edit_distance(&c), 4); // K, C, Y, X differ
        assert_eq!(a.edit_distance(&a), 0);
    }

    #[test]
    fn edit_distance_across_operator_types() {
        let conv = Problem::conv2d("a", 16, 128, 128, 28, 28, 3, 3);
        let gemm = Problem::gemm("g", 16, 1024, 1024, 512);
        // Shared names: B (equal: both 16), K (differ). Unshared: C,Y,X,R,S vs M,N.
        assert_eq!(conv.edit_distance(&gemm), 1 + 5 + 2);
        assert_eq!(conv.edit_distance(&gemm), gemm.edit_distance(&conv));
    }

    #[test]
    fn density_accessors() {
        let d = Density::weight_sparse(0.1);
        assert_eq!(d.of(TensorKind::Weight), 0.1);
        assert_eq!(d.of(TensorKind::Input), 1.0);
        assert!(!d.is_dense());
        assert!(Density::DENSE.is_dense());
        assert_eq!(Density::default(), Density::DENSE);
    }

    #[test]
    fn display_round_trips_key_fields() {
        let p = Problem::conv2d("resnet_conv3", 16, 128, 128, 28, 28, 3, 3);
        let s = p.to_string();
        assert!(s.contains("resnet_conv3"));
        assert!(s.contains("K=128"));
        assert!(s.contains("CONV2D"));
    }

    #[test]
    #[should_panic(expected = "exactly one output tensor")]
    fn requires_one_output() {
        Problem::new(
            "bad",
            OperatorKind::Gemm,
            vec![DimDef::new(DimName::M, 4)],
            vec![],
        );
    }

    #[test]
    #[should_panic(expected = "at most 8 dimensions")]
    fn rejects_more_dims_than_a_mapping_holds() {
        let dims = DimName::ALL.iter().map(|&d| DimDef::new(d, 2)).collect();
        let output = TensorDef {
            name: "Outputs".into(),
            kind: TensorKind::Output,
            projection: Projection::new(vec![ProjTerm::Single(0)]),
        };
        Problem::new("wide", OperatorKind::Gemm, dims, vec![output]);
    }

    #[test]
    #[should_panic(expected = "at most 4 tensors")]
    fn rejects_more_tensors_than_the_cost_model_holds() {
        let tensor = |kind| TensorDef {
            name: "T".into(),
            kind,
            projection: Projection::new(vec![ProjTerm::Single(0)]),
        };
        let mut tensors = vec![tensor(TensorKind::Output)];
        tensors.extend((0..MAX_TENSORS).map(|_| tensor(TensorKind::Input)));
        Problem::new("many", OperatorKind::Gemm, vec![DimDef::new(DimName::M, 4)], tensors);
    }
}
