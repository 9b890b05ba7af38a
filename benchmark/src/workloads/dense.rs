//! `dense-mmo`: whole-matrix MMOs on `TiledBackend`.
//!
//! The kernel, the quantise/tile-copy path and the panel loop do all
//! the work here; plans and the service do none. Fifteen single-thread
//! entries (all nine ops at 256³, three at 512³, one that leaves L2,
//! the KNN shape and a K-heavy shape) and four `T`-thread entries.
//! With `--trace 1` every round also times the layers underneath the
//! backend on 256³ ([`crate::layers`]) and repeats the backend entries
//! with a clock-stamping tracer attached.

use std::hint::black_box;

use simd2::{Backend, OpCount, Parallelism, TiledBackend};
use simd2_matrix::{Matrix, ISA_TILE};
use simd2_mxu::Simd2Unit;
use simd2_semiring::{KernelIsa, OpKind};

use super::{mmo_end_to_end, MmoEntry, Tracing};
use crate::common::{bits_eq, operands, repeat_setup, run_rounds, time, Args, Env};
use crate::layers::{peak_pass, ProbeSet, PROBE_MACS, PROBE_N};
use crate::metrics::{dense_shapes, shape_label, Report, DENSE_MT, PROBE_OPS};
use crate::stats::geomean;

/// Iterations of one peak-loop sample (~20 ms at 16 lanes × 3 GHz).
const PEAK_ITERS: u64 = 10_000_000;

struct Entry {
    op: OpKind,
    /// Index into `Setup::operands` (a `T`-thread entry shares the
    /// operands, and so the oracle, of its single-thread twin).
    operands: usize,
    multi_thread: bool,
    label: String,
}

struct Setup {
    operands: Vec<(Matrix, Matrix, Matrix)>,
    entries: Vec<Entry>,
    probes: Vec<ProbeSet>,
}

impl Setup {
    fn build(seed: u64, trace: bool) -> Self {
        let shapes = dense_shapes();
        let operands: Vec<_> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(op, m, n, k))| operands(op, m, n, k, seed.wrapping_add(i as u64)))
            .collect();
        let mut entries: Vec<Entry> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(op, m, n, k))| Entry {
                op,
                operands: i,
                multi_thread: false,
                label: format!("{}.{}.t1", op.name(), shape_label(m, n, k)),
            })
            .collect();
        for (op, n) in DENSE_MT {
            let twin = shapes
                .iter()
                .position(|&s| s == (op, n, n, n))
                .expect("every T-thread entry has a single-thread twin");
            entries.push(Entry {
                op,
                operands: twin,
                multi_thread: true,
                label: format!("{}.n{n}.tT", op.name()),
            });
        }
        let probes = if trace {
            PROBE_OPS
                .iter()
                .map(|&op| ProbeSet::new(op, seed ^ 0xface))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            operands,
            entries,
            probes,
        }
    }

    /// Index of the square `n`³ entry of `op` at one or `T` threads.
    fn find(&self, op: OpKind, n: usize, multi_thread: bool) -> usize {
        self.entries
            .iter()
            .position(|e| {
                let (a, b, _) = &self.operands[e.operands];
                e.op == op
                    && e.multi_thread == multi_thread
                    && (a.rows(), a.cols(), b.cols()) == (n, n, n)
            })
            .expect("the entry list holds this shape")
    }

    fn macs(&self, e: &Entry) -> f64 {
        let (a, b, _) = &self.operands[e.operands];
        (a.rows() * b.cols() * a.cols()) as f64
    }
}

/// The two backends an entry can run on.
struct Backends {
    t1: TiledBackend,
    tt: TiledBackend,
}

impl Backends {
    fn new(threads: usize) -> Self {
        Self {
            t1: TiledBackend::new(),
            tt: TiledBackend::with_parallelism(Parallelism::Threads(threads)),
        }
    }

    /// Times one entry; `None` if the backend returned an error.
    fn run(&mut self, setup: &Setup, e: &Entry) -> (f64, Option<Matrix>) {
        let (a, b, c) = &setup.operands[e.operands];
        let be = if e.multi_thread {
            &mut self.tt
        } else {
            &mut self.t1
        };
        let (s, out) = time(|| be.mmo(e.op, a, b, c));
        (s, out.ok())
    }

    fn op_count(&self) -> OpCount {
        let mut total = self.t1.op_count();
        total += self.tt.op_count();
        total
    }
}

/// Runs the workload.
pub fn run(args: &Args, env: &Env) -> Report {
    let mut report = Report::default();
    let (setup_s, setup_reps, setup) = repeat_setup(|| Setup::build(args.seed, args.trace));
    report.set("setup_s", setup_s);

    // Oracle: a sequential backend pinned to the scalar kernel — the
    // tier every vector kernel and every schedule must match bit for
    // bit.
    let (oracle_s, oracle) = time(|| {
        let mut scalar =
            TiledBackend::with_unit(Simd2Unit::new().with_kernel_isa(KernelIsa::Scalar));
        dense_shapes()
            .iter()
            .zip(&setup.operands)
            .map(|(&(op, ..), (a, b, c))| scalar.mmo(op, a, b, c).expect("oracle mmo"))
            .collect::<Vec<Matrix>>()
    });
    report.note(format!(
        "set-up repeated {setup_reps}x (median reported); scalar oracle built once in {oracle_s:.3} s"
    ));

    let mut plain = Backends::new(env.threads);
    let tracing = args.trace.then(|| Tracing::new(1 << 16));
    let mut traced = tracing.as_ref().map(|t| {
        let mut b = Backends::new(env.threads);
        b.t1.set_tracer(t.tracer());
        b.tt.set_tracer(t.tracer());
        b
    });
    let unit = Simd2Unit::new();

    let (peak_macs, _) = peak_pass(env.isa, PEAK_ITERS);
    for set in &setup.probes {
        // The layer probes must compute what the backend computes, or
        // their rates describe some other problem.
        let (a, b, c) = &set.matrices;
        let want = plain.t1.mmo(set.op, a, b, c).expect("probe reference");
        report.attempt(bits_eq(&set.kernel_pass(env.isa), &want));
        report.attempt(bits_eq(&set.unit_pass(&unit), &want));
        assert!(
            bits_eq(&set.panel_pass(&unit), &want),
            "the panel loop diverged from TiledBackend::mmo on {}",
            set.op
        );
    }
    plain.t1.reset_count();

    // Rounds: the first is the untimed warm-up, and every untraced call
    // of every round is checked against its oracle, outside its timer.
    // Layout of one round's samples:
    //   [entries]  then, when tracing,
    //   [peak, (kernel, unit, panel) per probe op]  [entries, traced].
    let n = setup.entries.len();
    let n_probe = if args.trace {
        1 + 3 * setup.probes.len()
    } else {
        0
    };
    let width = if args.trace { 2 * n + n_probe } else { n };
    let mut round_work = OpCount::default();
    let rounds = run_rounds(width, args.seconds, |warm_up| {
        let mut times = Vec::with_capacity(width);
        for e in &setup.entries {
            let (s, out) = plain.run(&setup, e);
            report.attempt(out.is_some_and(|d| bits_eq(&d, &oracle[e.operands])));
            times.push(s);
        }
        if warm_up {
            round_work = plain.op_count();
        }
        if let Some(traced) = traced.as_mut().filter(|_| !warm_up) {
            times.push(time(|| peak_pass(env.isa, PEAK_ITERS)).0);
            for set in &setup.probes {
                times.push(time(|| black_box(set.kernel_pass(env.isa))).0);
                times.push(time(|| black_box(set.unit_pass(&unit))).0);
                times.push(time(|| black_box(set.panel_pass(&unit))).0);
            }
            for e in &setup.entries {
                times.push(traced.run(&setup, e).0);
            }
        }
        times
    });

    let entries: Vec<MmoEntry> = setup
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| MmoEntry {
            macs: setup.macs(e),
            multi_thread: e.multi_thread,
            quiet_s: rounds.quiet(i),
        })
        .collect();
    report.note(format!(
        "{} timed rounds x {n} entries after one warm-up round, every call checked, T = {}",
        rounds.rounds, env.threads
    ));
    if env.overhead_only() {
        report.note("nproc = 1: mmo_gmacs_mt and scale_eff are overhead_only");
    }

    if !args.trace {
        mmo_end_to_end(&mut report, &entries);
        return report;
    }

    // Per-layer view.
    for (e, m) in setup.entries.iter().zip(&entries) {
        report.set(format!("core.backend.gmacs.{}", e.label), m.gmacs());
    }
    let peak = peak_macs / rounds.quiet(n) / 1e9;
    report.set("host.peak_gmacs", peak);
    let (mut kernel, mut unit_over, mut panel_over, mut backend_over) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (p, set) in setup.probes.iter().enumerate() {
        let at = |layer: usize| rounds.quiet(n + 1 + 3 * p + layer);
        let (k_s, u_s, p_s) = (at(0), at(1), at(2));
        let name = set.op.name();
        report.set(
            format!("semiring.kernel_gmacs.{name}"),
            PROBE_MACS / k_s / 1e9,
        );
        report.set(format!("mxu.execute_gmacs.{name}"), PROBE_MACS / u_s / 1e9);
        report.set(format!("matrix.panel_gmacs.{name}"), PROBE_MACS / p_s / 1e9);
        kernel.push(PROBE_MACS / k_s / 1e9);
        unit_over.push(u_s / k_s);
        panel_over.push(p_s / u_s);
        backend_over.push(entries[setup.find(set.op, PROBE_N, false)].quiet_s / p_s);
    }
    report.set("semiring.frac_of_peak", geomean(&kernel) / peak);
    report.set("mxu.over_kernel", geomean(&unit_over));
    report.set("matrix.over_unit", geomean(&panel_over));
    report.set("core.backend.over_panel", geomean(&backend_over));
    let t1_rate = geomean(
        &entries
            .iter()
            .filter(|e| !e.multi_thread)
            .map(MmoEntry::gmacs)
            .collect::<Vec<_>>(),
    );
    report.set("core.backend.frac_of_peak", t1_rate / peak);
    for size in [256usize, 512] {
        let of = |mt: bool| entries[setup.find(OpKind::PlusMul, size, mt)].gmacs();
        report.set(
            format!("core.backend.scale_eff.n{size}"),
            of(true) / (env.threads as f64 * of(false)),
        );
    }
    report.set("core.backend.tile_mmos", round_work.tile_mmos as f64);
    // Computed, not measured: two operations per MAC over the bytes the
    // counted tile loads and stores move (cache misses not included).
    let tile_bytes = (ISA_TILE * ISA_TILE * std::mem::size_of::<f32>()) as f64;
    let tile_ops = 2.0 * (ISA_TILE * ISA_TILE * ISA_TILE) as f64;
    report.set(
        "core.backend.ops_per_byte",
        round_work.tile_mmos as f64 * tile_ops
            / ((round_work.tile_loads + round_work.tile_stores) as f64 * tile_bytes),
    );
    report.note("core.backend.ops_per_byte is computed from tile loads/stores, not measured");

    let overhead = rounds.ratio_per_round(n + n_probe..2 * n + n_probe, 0..n);
    tracing
        .expect("trace mode has a sink")
        .finish(&mut report, &args.workload, &overhead);
    report
}
