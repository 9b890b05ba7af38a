//! Dynamic (opcode-level) view of the nine SIMD² operator pairs.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::typed::{select_max, select_min};

/// One of the nine SIMD² operator pairs `(⊕, ⊗)` (paper Table 1 / Table 2).
///
/// Each variant names the pair in `⊕-⊗` order, matching the paper
/// ("min-plus" = `min ⊕`, `+ ⊗`). `PlusMul` is the classic
/// multiply-accumulate performed by existing MXUs; the other eight are the
/// SIMD² extensions.
///
/// This enum is the *dynamic* interface used wherever the operation is data
/// (instruction decoding, the functional matrix unit, experiment sweeps).
/// Monomorphised kernels use the [`Semiring`](crate::Semiring) trait instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpKind {
    /// `⊕ = +`, `⊗ = ×`: GEMM / matrix-multiply-accumulate.
    PlusMul,
    /// `⊕ = min`, `⊗ = +`: all-pairs shortest path.
    MinPlus,
    /// `⊕ = max`, `⊗ = +`: critical (longest) path.
    MaxPlus,
    /// `⊕ = min`, `⊗ = ×`: minimum reliability path.
    MinMul,
    /// `⊕ = max`, `⊗ = ×`: maximum reliability path.
    MaxMul,
    /// `⊕ = min`, `⊗ = max`: minimum spanning tree / bottleneck.
    MinMax,
    /// `⊕ = max`, `⊗ = min`: maximum capacity path.
    MaxMin,
    /// `⊕ = ∨`, `⊗ = ∧`: transitive and reflexive closure.
    OrAnd,
    /// `⊕ = +`, `⊗ = (a−b)²`: pairwise squared L2 distance.
    PlusNorm,
}

impl OpKind {
    /// The `⊗` (combine) step on `f32` operands.
    ///
    /// For [`OpKind::OrAnd`] the operands are interpreted as booleans
    /// (non-zero ⇒ true) and the result is canonicalised to `0.0` / `1.0`,
    /// mirroring how a boolean lane maps onto the shared fp data path.
    #[inline]
    pub fn combine_f32(self, a: f32, b: f32) -> f32 {
        match self {
            OpKind::PlusMul | OpKind::MinMul | OpKind::MaxMul => a * b,
            OpKind::MinPlus | OpKind::MaxPlus => a + b,
            OpKind::MinMax => select_max(a, b),
            OpKind::MaxMin => select_min(a, b),
            OpKind::OrAnd => {
                if a != 0.0 && b != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            OpKind::PlusNorm => {
                let d = a - b;
                d * d
            }
        }
    }

    /// The `⊕` (reduce) step on `f32` operands.
    #[inline]
    pub fn reduce_f32(self, a: f32, b: f32) -> f32 {
        match self {
            OpKind::PlusMul | OpKind::PlusNorm => a + b,
            OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax => select_min(a, b),
            OpKind::MaxPlus | OpKind::MaxMul | OpKind::MaxMin => select_max(a, b),
            OpKind::OrAnd => {
                if a != 0.0 || b != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The identity element of `⊕` — the value an accumulator is seeded with.
    ///
    /// `reduce_f32(id, x) == x` for every finite `x` in the operation's
    /// domain.
    #[inline]
    pub fn reduce_identity_f32(self) -> f32 {
        match self {
            OpKind::PlusMul | OpKind::PlusNorm | OpKind::OrAnd => 0.0,
            OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax => f32::INFINITY,
            OpKind::MaxPlus | OpKind::MaxMul | OpKind::MaxMin => f32::NEG_INFINITY,
        }
    }

    /// The annihilator of `⊗` for *path-style* uses: the edge weight that
    /// encodes "no edge" so that combining through it never improves a path.
    ///
    /// `reduce_f32(x, combine_f32(no_edge, w)) == x` for in-domain `x`, `w`.
    /// Returns `None` for [`OpKind::PlusNorm`], which is not a path algebra.
    #[inline]
    pub fn no_edge_f32(self) -> Option<f32> {
        match self {
            OpKind::PlusMul => Some(0.0),
            OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax => Some(f32::INFINITY),
            OpKind::MaxPlus | OpKind::MaxMin => Some(f32::NEG_INFINITY),
            // max ⊕ with × ⊗ on non-negative reliabilities: a zero factor
            // yields a zero product, which max-reduce never prefers.
            OpKind::MaxMul => Some(0.0),
            OpKind::OrAnd => Some(0.0),
            OpKind::PlusNorm => None,
        }
    }

    /// The identity element of `⊗`, when one exists: `combine_f32(id, x) == x`.
    ///
    /// Used as the diagonal (self-loop) value when a graph is lifted to an
    /// adjacency matrix for closure computation. Plus-norm has no `⊗`
    /// identity ( `(a−b)²` is not multiplication-like), hence `None`.
    #[inline]
    pub fn combine_identity_f32(self) -> Option<f32> {
        match self {
            OpKind::PlusMul | OpKind::MinMul | OpKind::MaxMul | OpKind::OrAnd => Some(1.0),
            OpKind::MinPlus | OpKind::MaxPlus => Some(0.0),
            OpKind::MinMax => Some(f32::NEG_INFINITY),
            OpKind::MaxMin => Some(f32::INFINITY),
            OpKind::PlusNorm => None,
        }
    }

    /// The full dot-product-style inner step: `acc ⊕ (a ⊗ b)`.
    #[inline]
    pub fn fma_f32(self, acc: f32, a: f32, b: f32) -> f32 {
        self.reduce_f32(acc, self.combine_f32(a, b))
    }

    /// Whether `⊕` is idempotent (`x ⊕ x = x`), i.e. min/max/or.
    ///
    /// Idempotent reductions permit the fixed-point (convergence-check)
    /// iteration used by the closure solvers; plain addition does not.
    #[inline]
    pub fn reduce_is_idempotent(self) -> bool {
        !matches!(self, OpKind::PlusMul | OpKind::PlusNorm)
    }

    /// Whether the pair is a *closure algebra* usable by the transitive
    /// closure solvers (Bellman-Ford / Leyzorek): idempotent `⊕` and a
    /// meaningful [`Self::no_edge_f32`].
    #[inline]
    pub fn is_closure_algebra(self) -> bool {
        self.reduce_is_idempotent() && self.no_edge_f32().is_some()
    }

    /// Whether `⊗` and `⊕` both only *select* one of their operands
    /// (min-max, max-min), so every term and every result of a fold is an
    /// operand element or the seed: what lets these two fold on any
    /// lattice that holds their operands exactly.
    #[inline]
    pub fn selects(self) -> bool {
        matches!(self, OpKind::MinMax | OpKind::MaxMin)
    }

    /// Lower-case short name, e.g. `"min-plus"` (figure axis labels).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::PlusMul => "plus-mul",
            OpKind::MinPlus => "min-plus",
            OpKind::MaxPlus => "max-plus",
            OpKind::MinMul => "min-mul",
            OpKind::MaxMul => "max-mul",
            OpKind::MinMax => "min-max",
            OpKind::MaxMin => "max-min",
            OpKind::OrAnd => "or-and",
            OpKind::PlusNorm => "plus-norm",
        }
    }

    /// The PTX-style mnemonic of the arithmetic instruction (paper Table 2).
    pub fn ptx_mnemonic(self) -> &'static str {
        match self {
            OpKind::PlusMul => "simd2.mma",
            OpKind::MinPlus => "simd2.minplus",
            OpKind::MaxPlus => "simd2.maxplus",
            OpKind::MinMul => "simd2.minmul",
            OpKind::MaxMul => "simd2.maxmul",
            OpKind::MinMax => "simd2.minmax",
            OpKind::MaxMin => "simd2.maxmin",
            OpKind::OrAnd => "simd2.orand",
            OpKind::PlusNorm => "simd2.addnorm",
        }
    }

    /// The representative algorithm/problem from paper Table 1.
    pub fn representative_algorithm(self) -> &'static str {
        match self {
            OpKind::PlusMul => "matrix multiplication / matrix inverse",
            OpKind::MinPlus => "all-pairs shortest paths",
            OpKind::MaxPlus => "maximum cost (critical path)",
            OpKind::MinMul => "minimum reliability paths",
            OpKind::MaxMul => "maximum reliability paths",
            OpKind::MinMax => "minimum spanning tree",
            OpKind::MaxMin => "maximum capacity paths",
            OpKind::OrAnd => "transitive and reflexive closure",
            OpKind::PlusNorm => "L2 distance",
        }
    }

    /// Mathematical symbols `(⊕, ⊗)` for table rendering.
    pub fn symbols(self) -> (&'static str, &'static str) {
        match self {
            OpKind::PlusMul => ("+", "×"),
            OpKind::MinPlus => ("min", "+"),
            OpKind::MaxPlus => ("max", "+"),
            OpKind::MinMul => ("min", "×"),
            OpKind::MaxMul => ("max", "×"),
            OpKind::MinMax => ("min", "max"),
            OpKind::MaxMin => ("max", "min"),
            OpKind::OrAnd => ("or", "and"),
            OpKind::PlusNorm => ("+", "|a−b|²"),
        }
    }

    /// Stable opcode value used by the binary instruction encoding.
    #[inline]
    pub fn opcode(self) -> u8 {
        match self {
            OpKind::PlusMul => 0,
            OpKind::MinPlus => 1,
            OpKind::MaxPlus => 2,
            OpKind::MinMul => 3,
            OpKind::MaxMul => 4,
            OpKind::MinMax => 5,
            OpKind::MaxMin => 6,
            OpKind::OrAnd => 7,
            OpKind::PlusNorm => 8,
        }
    }

    /// Inverse of [`Self::opcode`].
    #[inline]
    pub fn from_opcode(code: u8) -> Option<Self> {
        Some(match code {
            0 => OpKind::PlusMul,
            1 => OpKind::MinPlus,
            2 => OpKind::MaxPlus,
            3 => OpKind::MinMul,
            4 => OpKind::MaxMul,
            5 => OpKind::MinMax,
            6 => OpKind::MaxMin,
            7 => OpKind::OrAnd,
            8 => OpKind::PlusNorm,
            _ => return None,
        })
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an [`OpKind`] from a string fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseOpKindError {
    input: String,
}

impl fmt::Display for ParseOpKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown SIMD2 operation `{}`", self.input)
    }
}

impl std::error::Error for ParseOpKindError {}

impl FromStr for OpKind {
    type Err = ParseOpKindError;

    /// Accepts both the short name (`min-plus`) and the PTX mnemonic
    /// (`simd2.minplus`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase();
        for op in crate::ALL_OPS {
            if norm == op.name()
                || norm == op.ptx_mnemonic()
                || norm == op.name().replace('-', "_")
                || norm == op.name().replace('-', "")
            {
                return Ok(op);
            }
        }
        Err(ParseOpKindError {
            input: s.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_OPS;

    #[test]
    fn opcode_roundtrip() {
        for op in ALL_OPS {
            assert_eq!(OpKind::from_opcode(op.opcode()), Some(op));
        }
        assert_eq!(OpKind::from_opcode(9), None);
        assert_eq!(OpKind::from_opcode(255), None);
    }

    #[test]
    fn parse_short_names() {
        for op in ALL_OPS {
            assert_eq!(op.name().parse::<OpKind>().unwrap(), op);
        }
    }

    #[test]
    fn parse_ptx_names() {
        for op in ALL_OPS {
            assert_eq!(op.ptx_mnemonic().parse::<OpKind>().unwrap(), op);
        }
    }

    #[test]
    fn parse_is_case_insensitive_and_separator_tolerant() {
        assert_eq!("Min-Plus".parse::<OpKind>().unwrap(), OpKind::MinPlus);
        assert_eq!("min_plus".parse::<OpKind>().unwrap(), OpKind::MinPlus);
        assert_eq!("minplus".parse::<OpKind>().unwrap(), OpKind::MinPlus);
        assert_eq!("SIMD2.MMA".parse::<OpKind>().unwrap(), OpKind::PlusMul);
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = "mul-div".parse::<OpKind>().unwrap_err();
        assert!(err.to_string().contains("mul-div"));
    }

    #[test]
    fn reduce_identity_really_is_identity() {
        for op in ALL_OPS {
            let id = op.reduce_identity_f32();
            for x in [-3.5f32, 0.0, 1.0, 42.0] {
                // or-and canonicalises to {0,1}.
                let expect = if op == OpKind::OrAnd {
                    if x != 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    x
                };
                assert_eq!(op.reduce_f32(id, x), expect, "{op} left identity");
                assert_eq!(op.reduce_f32(x, id), expect, "{op} right identity");
            }
        }
    }

    #[test]
    fn no_edge_is_absorbing_for_path_algebras() {
        for op in ALL_OPS {
            let Some(no_edge) = op.no_edge_f32() else {
                continue;
            };
            // In-domain sample values per algebra (reliabilities are in
            // (0,1]; boolean values in {0,1}; distances arbitrary positive).
            let samples: &[f32] = match op {
                OpKind::MinMul | OpKind::MaxMul => &[0.25, 0.5, 1.0],
                OpKind::OrAnd => &[0.0, 1.0],
                _ => &[0.5, 1.0, 7.0],
            };
            for &x in samples {
                for &w in samples {
                    let through = op.combine_f32(no_edge, w);
                    assert_eq!(
                        op.reduce_f32(x, through),
                        x,
                        "{op}: relaxing through a missing edge must not change {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn combine_identity_really_is_identity() {
        for op in ALL_OPS {
            let Some(id) = op.combine_identity_f32() else {
                assert_eq!(op, OpKind::PlusNorm);
                continue;
            };
            let samples: &[f32] = match op {
                OpKind::MinMul | OpKind::MaxMul => &[0.25, 0.5, 1.0],
                OpKind::OrAnd => &[0.0, 1.0],
                _ => &[0.5, 1.0, 7.0],
            };
            for &x in samples {
                assert_eq!(op.combine_f32(id, x), x, "{op} left ⊗-identity");
                assert_eq!(op.combine_f32(x, id), x, "{op} right ⊗-identity");
            }
        }
    }

    #[test]
    fn fma_matches_manual_composition() {
        for op in ALL_OPS {
            let (acc, a, b) = (1.5f32, 2.0, 0.5);
            assert_eq!(
                op.fma_f32(acc, a, b),
                op.reduce_f32(acc, op.combine_f32(a, b))
            );
        }
    }

    #[test]
    fn plus_norm_is_squared_distance() {
        assert_eq!(OpKind::PlusNorm.combine_f32(3.0, 1.0), 4.0);
        assert_eq!(OpKind::PlusNorm.combine_f32(1.0, 3.0), 4.0);
        assert_eq!(OpKind::PlusNorm.fma_f32(10.0, 3.0, 1.0), 14.0);
    }

    #[test]
    fn or_and_is_boolean() {
        let op = OpKind::OrAnd;
        assert_eq!(op.combine_f32(1.0, 1.0), 1.0);
        assert_eq!(op.combine_f32(1.0, 0.0), 0.0);
        assert_eq!(op.combine_f32(0.5, 2.0), 1.0, "non-zero is truthy");
        assert_eq!(op.reduce_f32(0.0, 0.0), 0.0);
        assert_eq!(op.reduce_f32(0.0, 3.0), 1.0);
    }

    #[test]
    fn idempotence_classification() {
        assert!(!OpKind::PlusMul.reduce_is_idempotent());
        assert!(!OpKind::PlusNorm.reduce_is_idempotent());
        for op in [
            OpKind::MinPlus,
            OpKind::MaxPlus,
            OpKind::MinMul,
            OpKind::MaxMul,
            OpKind::MinMax,
            OpKind::MaxMin,
            OpKind::OrAnd,
        ] {
            assert!(op.reduce_is_idempotent(), "{op}");
            assert!(op.is_closure_algebra(), "{op}");
        }
        assert!(!OpKind::PlusNorm.is_closure_algebra());
        assert!(!OpKind::PlusMul.is_closure_algebra());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(OpKind::MinMax.to_string(), "min-max");
    }

    #[test]
    fn metadata_is_total() {
        for op in ALL_OPS {
            assert!(!op.name().is_empty());
            assert!(op.ptx_mnemonic().starts_with("simd2."));
            assert!(!op.representative_algorithm().is_empty());
            let (r, c) = op.symbols();
            assert!(!r.is_empty() && !c.is_empty());
        }
    }
}
