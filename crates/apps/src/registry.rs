//! Application registry — paper Table 4 as data.

use simd2_matrix::gen::InputScale;
use simd2_semiring::OpKind;

/// The eight benchmark applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppKind {
    /// All-pairs shortest path.
    Apsp,
    /// All-pairs critical (longest) path.
    Aplp,
    /// Maximum capacity path.
    Mcp,
    /// Maximum reliability path.
    MaxRp,
    /// Minimum reliability path.
    MinRp,
    /// Minimum spanning tree / forest.
    Mst,
    /// Graph transitive closure.
    Gtc,
    /// K-nearest neighbours.
    Knn,
    /// Streaming all-pairs shortest path: min-plus closure maintenance
    /// under edge-insertion batches with sparse deltas (not part
    /// of the Table 4 figure set — see [`AppKind::streaming`]).
    StreamingApsp,
    /// Streaming reachability (BFS-style or-and closure maintenance)
    /// under edge-insertion batches with sparse deltas.
    StreamingBfs,
}

/// Static description of one application (a row of Table 4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppSpec {
    /// The application.
    pub kind: AppKind,
    /// Short figure label.
    pub label: &'static str,
    /// Full name.
    pub full_name: &'static str,
    /// The SIMD² operation its kernel uses.
    pub op: OpKind,
    /// The baseline implementation it is compared against.
    pub baseline_source: &'static str,
    /// Base ("Small") input dimension from Table 4; Medium/Large are 2×/4×.
    pub small_dimension: usize,
    /// §5.1 validation tolerance on the app's diff metric (max absolute
    /// output difference, or `1 − recall` for KNN): the multiplicative
    /// algebras accumulate relative rounding error across path products,
    /// everything else is exact on these integer/boolean workloads.
    pub tolerance: f32,
}

impl AppKind {
    /// The eight Table 4 applications in figure order. The streaming
    /// workloads are deliberately *not* here: the figure sweeps, the
    /// timing model, and the validation harness iterate this set, and
    /// the paper's Table 4 has exactly eight rows.
    pub fn all() -> [AppKind; 8] {
        [
            AppKind::Apsp,
            AppKind::Aplp,
            AppKind::Mcp,
            AppKind::MaxRp,
            AppKind::MinRp,
            AppKind::Mst,
            AppKind::Gtc,
            AppKind::Knn,
        ]
    }

    /// The streaming-update workloads (beyond Table 4): closure
    /// maintenance under edge-insertion batches, exercising the sparse
    /// operand seam end to end.
    pub fn streaming() -> [AppKind; 2] {
        [AppKind::StreamingApsp, AppKind::StreamingBfs]
    }

    /// The Table 4 row for this application.
    pub fn spec(self) -> AppSpec {
        match self {
            AppKind::Apsp => AppSpec {
                kind: self,
                label: "APSP",
                full_name: "All Pair Shortest Path",
                op: OpKind::MinPlus,
                baseline_source: "ECL-APSP",
                small_dimension: 4096,
                tolerance: 0.0,
            },
            AppKind::Aplp => AppSpec {
                kind: self,
                label: "APLP",
                full_name: "All Pair Critical Path",
                op: OpKind::MaxPlus,
                baseline_source: "ECL-APSP",
                small_dimension: 4096,
                tolerance: 0.0,
            },
            AppKind::Mcp => AppSpec {
                kind: self,
                label: "MCP",
                full_name: "Maximum Capacity Path",
                op: OpKind::MaxMin,
                baseline_source: "CUDA-FW",
                small_dimension: 4096,
                tolerance: 0.0,
            },
            AppKind::MaxRp => AppSpec {
                kind: self,
                label: "MAXRP",
                full_name: "Maximum Reliability Path",
                op: OpKind::MaxMul,
                baseline_source: "CUDA-FW",
                small_dimension: 4096,
                tolerance: 0.02,
            },
            AppKind::MinRp => AppSpec {
                kind: self,
                label: "MINRP",
                full_name: "Minimum Reliability Path",
                op: OpKind::MinMul,
                baseline_source: "CUDA-FW",
                small_dimension: 4096,
                tolerance: 0.02,
            },
            AppKind::Mst => AppSpec {
                kind: self,
                label: "MST",
                full_name: "Minimum Spanning Tree",
                op: OpKind::MinMax,
                baseline_source: "CUDA MST (Kruskal)",
                small_dimension: 1024,
                tolerance: 0.0,
            },
            AppKind::Gtc => AppSpec {
                kind: self,
                label: "GTC",
                full_name: "Graph Transitive Closure",
                op: OpKind::OrAnd,
                baseline_source: "cuBool",
                small_dimension: 2048,
                tolerance: 0.0,
            },
            AppKind::Knn => AppSpec {
                kind: self,
                label: "KNN",
                full_name: "K-Nearest Neighbor",
                op: OpKind::PlusNorm,
                baseline_source: "kNN-CUDA",
                small_dimension: 4096,
                tolerance: 0.05,
            },
            AppKind::StreamingApsp => AppSpec {
                kind: self,
                label: "S-APSP",
                full_name: "Streaming All Pair Shortest Path",
                op: OpKind::MinPlus,
                baseline_source: "full FW recompute",
                small_dimension: 1024,
                tolerance: 0.0,
            },
            AppKind::StreamingBfs => AppSpec {
                kind: self,
                label: "S-BFS",
                full_name: "Streaming Reachability",
                op: OpKind::OrAnd,
                baseline_source: "full or-and recompute",
                small_dimension: 1024,
                tolerance: 0.0,
            },
        }
    }

    /// Problem dimension at an input scale.
    pub fn dimension(self, scale: InputScale) -> usize {
        scale.dimension(self.spec().small_dimension)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_eight_distinct_ops() {
        let ops: std::collections::HashSet<OpKind> =
            AppKind::all().iter().map(|a| a.spec().op).collect();
        assert_eq!(ops.len(), 8);
        assert!(
            !ops.contains(&OpKind::PlusMul),
            "GEMM itself is not a benchmark app"
        );
    }

    #[test]
    fn table4_scales() {
        assert_eq!(AppKind::Apsp.dimension(InputScale::Small), 4096);
        assert_eq!(AppKind::Apsp.dimension(InputScale::Medium), 8192);
        assert_eq!(AppKind::Apsp.dimension(InputScale::Large), 16384);
        assert_eq!(AppKind::Mst.dimension(InputScale::Large), 4096);
    }

    #[test]
    fn tolerances_follow_the_algebra() {
        for app in AppKind::all() {
            let spec = app.spec();
            let multiplicative =
                matches!(spec.op, OpKind::MaxMul | OpKind::MinMul | OpKind::PlusNorm);
            assert_eq!(spec.tolerance > 0.0, multiplicative, "{app:?}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            AppKind::all().iter().map(|a| a.spec().label).collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn streaming_workloads_extend_but_never_enter_table4() {
        for app in AppKind::streaming() {
            assert!(!AppKind::all().contains(&app), "{app:?}");
            let spec = app.spec();
            assert_eq!(spec.tolerance, 0.0, "streaming validation is exact");
            assert!(
                spec.op.no_edge_f32().is_some(),
                "streaming algebras must have a sparse-skippable no-edge"
            );
        }
        assert_eq!(AppKind::StreamingApsp.spec().op, OpKind::MinPlus);
        assert_eq!(AppKind::StreamingBfs.spec().op, OpKind::OrAnd);
    }
}
