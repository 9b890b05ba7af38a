//! The metric registry — every name, unit and direction the benchmark
//! prints, in one place — and the report a workload run fills in.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step.

use std::collections::BTreeMap;

use simd2_semiring::{OpKind, ALL_OPS};

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// A time, a ratio over a faster base, a cost.
    Lower,
    /// A rate or an efficiency.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's static description.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// The workloads, by their fixed names.
pub const WORKLOADS: [&str; 4] = ["dense-mmo", "sparse-mmo", "apps-closure", "serve-mix"];

/// The end-to-end metrics. Every workload reports all of them (the
/// benchmark contract requires it); `benchmark/README.md` gives the
/// per-workload definition of each cell. The timing bounds are the
/// widest the contract allows: on this shared host one commit's runs
/// spread up to 12 % and drift up to 13 % between sets half an hour
/// apart (`benchmark/CALIBRATION.md`), and a bound inside that noise
/// would reject changes at random.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    [
        ("setup_s", "s", Lower, 0.25),
        ("mmo_gmacs", "GMAC/s", Higher, 0.25),
        ("mmo_gmacs_mt", "GMAC/s", Higher, 0.25),
        ("solve_s", "s", Lower, 0.25),
        ("replan_s", "s", Lower, 0.25),
        ("jobs_per_s", "1/s", Higher, 0.25),
        ("job_p50_ms", "ms", Lower, 0.25),
        ("job_p99_ms", "ms", Lower, 0.25),
        ("peak_rss_mb", "MB", Lower, 0.10),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        name: name.to_owned(),
        unit,
        better,
        bound: Some(bound),
    })
    .collect()
}

/// The three ops the kernel / unit / panel probes cover: one arithmetic,
/// one selection, one boolean algebra.
pub const PROBE_OPS: [OpKind; 3] = [OpKind::PlusMul, OpKind::MinPlus, OpKind::OrAnd];

/// `(op, m, n, k)` of the fifteen single-thread `dense-mmo` entries.
pub fn dense_shapes() -> Vec<(OpKind, usize, usize, usize)> {
    let mut v: Vec<_> = ALL_OPS.iter().map(|&op| (op, 256, 256, 256)).collect();
    for op in PROBE_OPS {
        v.push((op, 512, 512, 512));
    }
    v.push((OpKind::PlusMul, 1024, 1024, 1024)); // operands leave L2
    v.push((OpKind::PlusNorm, 1024, 1024, 64)); // KNN shape
    v.push((OpKind::MinPlus, 64, 64, 2048)); // K-heavy
    v
}

/// `(op, n)` of the four `T`-thread `dense-mmo` entries (all square).
pub const DENSE_MT: [(OpKind, usize); 4] = [
    (OpKind::PlusMul, 256),
    (OpKind::PlusMul, 512),
    (OpKind::MinPlus, 512),
    (OpKind::PlusMul, 1024),
];

/// `n256` for a cube, `MxNxK` otherwise.
pub fn shape_label(m: usize, n: usize, k: usize) -> String {
    if m == n && n == k {
        format!("n{m}")
    } else {
        format!("{m}x{n}x{k}")
    }
}

/// The two ops of the `sparse-mmo` workload.
pub const SPARSE_OPS: [OpKind; 2] = [OpKind::PlusMul, OpKind::MinPlus];

/// Operand sparsity points of `sparse-mmo`: three CSR densities and one
/// 2:4-structured `A`.
pub const SPARSE_POINTS: [&str; 4] = ["d01", "d10", "d50", "s24"];

/// Labels of the ten `apps-closure` applications, in run order.
pub const APP_LABELS: [&str; 10] = [
    "apsp", "aplp", "mcp", "maxrp", "minrp", "mst", "gtc", "knn", "s-apsp", "s-bfs",
];

/// Job classes of `serve-mix` (plan dimension 64 / 128 / 256).
pub const JOB_CLASSES: [&str; 3] = ["S", "M", "L"];

/// Spans the traced run reports.
pub const TRACE_SPANS: [&str; 7] = [
    "serve",
    "plan",
    "plan_wave",
    "mmo",
    "tile_panel",
    "recovery",
    "app_phase",
];

/// The per-layer metrics, layer = module name. A workload that does not
/// exercise a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![def("host.peak_gmacs", "GMAC/s", Higher)];
    for (layer, ratio) in [
        ("semiring.kernel_gmacs", None),
        ("mxu.execute_gmacs", Some("mxu.over_kernel")),
        ("matrix.panel_gmacs", Some("matrix.over_unit")),
    ] {
        for op in PROBE_OPS {
            v.push(def(format!("{layer}.{}", op.name()), "GMAC/s", Higher));
        }
        match ratio {
            None => v.push(def("semiring.frac_of_peak", "ratio", Higher)),
            Some(name) => v.push(def(name, "ratio", Lower)),
        }
    }
    for (op, m, n, k) in dense_shapes() {
        let shape = shape_label(m, n, k);
        v.push(def(
            format!("core.backend.gmacs.{}.{shape}.t1", op.name()),
            "GMAC/s",
            Higher,
        ));
    }
    for (op, n) in DENSE_MT {
        v.push(def(
            format!("core.backend.gmacs.{}.n{n}.tT", op.name()),
            "GMAC/s",
            Higher,
        ));
    }
    v.push(def("core.backend.over_panel", "ratio", Lower));
    v.push(def("core.backend.frac_of_peak", "ratio", Higher));
    v.push(def("core.backend.scale_eff.n256", "ratio", Higher));
    v.push(def("core.backend.scale_eff.n512", "ratio", Higher));
    v.push(def("core.backend.tile_mmos", "count", Lower));
    v.push(def("core.backend.ops_per_byte", "ops/B", Higher));

    for family in ["sparse.gmacs", "sparse.vs_tiled"] {
        let unit = if family == "sparse.gmacs" {
            "GMAC/s"
        } else {
            "ratio"
        };
        for op in SPARSE_OPS {
            for d in SPARSE_POINTS {
                v.push(def(format!("{family}.{}.{d}", op.name()), unit, Higher));
            }
        }
    }
    for d in &SPARSE_POINTS[..3] {
        v.push(def(format!("sparse.vs_scalar_dense.{d}"), "ratio", Higher));
    }
    for d in SPARSE_POINTS {
        v.push(def(
            format!("sparse.skipped_term_frac.{d}"),
            "ratio",
            Higher,
        ));
    }
    v.push(def("sparse.crossover_density", "ratio", Higher));
    v.push(def("sparse.scale_eff", "ratio", Higher));
    v.push(def("core.passes.lowering_mispredicts", "count", Lower));

    for app in APP_LABELS {
        v.push(def(format!("apps.solve_s.{app}"), "s", Lower));
    }
    v.push(def("apps.iterations_total", "count", Lower));
    v.push(def("core.plan.record_over_eager", "ratio", Lower));
    v.push(def("core.plan.steps_raw", "count", Lower));
    v.push(def("core.passes.steps_opt", "count", Lower));
    v.push(def("core.passes.optimise_s", "s", Lower));
    v.push(def("core.plan.replay_s", "s", Lower));
    v.push(def("core.plan.replay_opt_s", "s", Lower));
    v.push(def("core.plan.replay_over_eager", "ratio", Lower));
    v.push(def("core.plan.replay_batched_s", "s", Lower));
    v.push(def("gpu.price_s", "s", Lower));
    v.push(def("gpu.sim_cycles_total", "count", Lower));

    v.push(def("serve.submit_ms_p50", "ms", Lower));
    for c in JOB_CLASSES {
        v.push(def(format!("serve.miss_ms_p50.{c}"), "ms", Lower));
    }
    v.push(def("serve.hit_ms_p50", "ms", Lower));
    v.push(def("serve.cache_hit_frac", "ratio", Higher));
    for c in JOB_CLASSES {
        v.push(def(format!("serve.over_replay.{c}"), "ratio", Lower));
    }
    v.push(def("core.resilient.over_bare.S", "ratio", Lower));
    v.push(def("core.resilient.over_bare.L", "ratio", Lower));
    v.push(def("core.passes.admit_optimise_ms_p50", "ms", Lower));
    v.push(def("serve.recovered_jobs", "count", Lower));
    v.push(def("serve.rejected_jobs", "count", Lower));
    v.push(def("serve.expired_jobs", "count", Lower));

    for span in TRACE_SPANS {
        v.push(def(format!("trace.{span}.self_s"), "s", Lower));
        v.push(def(format!("trace.{span}.count"), "count", Lower));
    }
    v.push(def("trace.overhead_frac", "ratio", Lower));
    v
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (timed calls plus correctness checks).
    pub attempted: u64,
    /// Operations that returned `Err`, ended in a wrong status, or
    /// mismatched their oracle.
    pub failed: u64,
    values: BTreeMap<String, f64>,
    /// Free-form lines for the human-readable output (sample counts,
    /// labelled caveats such as `overhead_only`).
    pub notes: Vec<String>,
}

impl Report {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already set: each metric has one definition.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let prev = self.values.insert(name.clone(), value);
        assert!(prev.is_none(), "metric {name} set twice");
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one attempted operation and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds a line to the human-readable notes.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Names recorded that `defs` does not list — a typo in a workload.
    pub fn unknown(&self, defs: &[MetricDef]) -> Vec<String> {
        self.values
            .keys()
            .filter(|k| !defs.iter().any(|d| &d.name == *k))
            .cloned()
            .collect()
    }

    /// The result line of the benchmark contract: every metric of
    /// `defs`, in order. `strict` (end-to-end) makes a missing,
    /// non-finite or zero value an error; otherwise (per-layer) a
    /// metric this workload does not measure reads 0 and only a
    /// non-finite value is an error.
    pub fn result_line(&self, defs: &[MetricDef], strict: bool) -> Result<String, Vec<String>> {
        let mut problems = Vec::new();
        let mut body = String::new();
        for (i, d) in defs.iter().enumerate() {
            let value = match self.values.get(&d.name) {
                Some(&x) if !x.is_finite() => {
                    problems.push(format!("{} is not finite ({x})", d.name));
                    0.0
                }
                Some(&x) if strict && x == 0.0 => {
                    problems.push(format!("{} is zero", d.name));
                    x
                }
                Some(&x) => x,
                None if strict => {
                    problems.push(format!("{} is missing", d.name));
                    0.0
                }
                None => 0.0,
            };
            if i > 0 {
                body.push_str(", ");
            }
            // `{:?}` prints the shortest digits that round-trip: the
            // value as measured, nothing rounded away.
            body.push_str(&format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        if !problems.is_empty() {
            return Err(problems);
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut all: Vec<MetricDef> = end_to_end();
        all.extend(per_layer());
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(d.name.len() <= 64, "{} too long", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(end_to_end().len() <= 16);
        assert!(per_layer().len() <= 128, "{}", per_layer().len());
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed = |section: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(section)
                .expect("section present")
                .items()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::str).unwrap().to_owned(),
                        m.get("better").and_then(Json::str).unwrap().to_owned(),
                        m.get("bound").and_then(Json::num),
                    )
                })
                .collect()
        };
        let want = |defs: Vec<MetricDef>| -> Vec<(String, String, String, Option<f64>)> {
            defs.into_iter()
                .map(|d| {
                    (
                        d.name,
                        d.unit.to_owned(),
                        d.better.label().to_owned(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), want(end_to_end()));
        assert_eq!(listed("per_layer"), want(per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_is_strict_about_end_to_end_and_lenient_per_layer() {
        let defs = vec![
            MetricDef {
                name: "a".into(),
                unit: "s",
                better: Better::Lower,
                bound: Some(0.1),
            },
            MetricDef {
                name: "b".into(),
                unit: "ms",
                better: Better::Lower,
                bound: Some(0.1),
            },
        ];
        let mut r = Report::default();
        r.attempt(true);
        r.set("a", 1.5);
        // Missing `b`: an error when strict, a 0 otherwise.
        assert!(r.result_line(&defs, true).is_err());
        let line = r.result_line(&defs, false).unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let b = doc.get("metrics").unwrap().get("b").unwrap();
        assert_eq!(b.get("value").and_then(Json::num), Some(0.0));
        // NaN is an error in both modes.
        r.set("b", f64::NAN);
        assert!(r.result_line(&defs, false).is_err());
        assert!(r.unknown(&defs).is_empty());
        r.set("typo", 1.0);
        assert_eq!(r.unknown(&defs), vec!["typo".to_owned()]);
    }

    #[test]
    fn per_layer_count_matches_the_design() {
        assert_eq!(per_layer().len(), 115);
        assert_eq!(dense_shapes().len(), 15);
    }
}
