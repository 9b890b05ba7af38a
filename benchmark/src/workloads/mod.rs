//! The four workloads. Each exposes `run(&Args, &Env) -> Report`.

pub mod apps;
pub mod dense;
pub mod serve;
pub mod sparse;

use std::sync::Arc;

use simd2_trace::Tracer;

use crate::clock_sink::{span_totals, write_trace, ClockSink};
use crate::metrics::{Report, TRACE_SPANS};
use crate::stats::{geomean, median};

/// One timed entry of an MMO-list workload, after the rounds.
pub struct MmoEntry {
    /// Dense-equivalent multiply-accumulates per call.
    pub macs: f64,
    /// Whether the entry ran at `T` threads.
    pub multi_thread: bool,
    /// Seconds per call on a quiet host ([`crate::stats::quiet`] over rounds).
    pub quiet_s: f64,
}

impl MmoEntry {
    /// GMAC/s at the quiet-host time.
    pub fn gmacs(&self) -> f64 {
        self.macs / self.quiet_s / 1e9
    }
}

/// Fills the end-to-end metrics of an MMO-list workload (`dense-mmo`,
/// `sparse-mmo`): rates as geomeans over the single- and `T`-thread
/// entries; `solve_s` as one pass over the single-thread list; and the
/// per-call metrics over the single-thread entries (with one sample per
/// entry and round there is no p99 to take: `job_p99_ms` is the slowest
/// entry). Only `mmo_gmacs_mt` depends on the `T`-thread entries: on a
/// shared host the second core comes and goes for minutes at a time, and
/// one metric at its mercy is enough. Nothing is re-planned here, so
/// `replan_s` repeats `solve_s`.
pub fn mmo_end_to_end(report: &mut Report, entries: &[MmoEntry]) {
    let of = |mt: bool| entries.iter().filter(move |e| e.multi_thread == mt);
    let rate = |mt: bool| geomean(&of(mt).map(MmoEntry::gmacs).collect::<Vec<_>>());
    let single: Vec<f64> = of(false).map(|e| e.quiet_s).collect();
    let pass: f64 = single.iter().sum();
    report.set("mmo_gmacs", rate(false));
    report.set("mmo_gmacs_mt", rate(true));
    report.set("solve_s", pass);
    report.set("replan_s", pass);
    report.set("jobs_per_s", single.len() as f64 / pass);
    report.set("job_p50_ms", median(&single) * 1e3);
    report.set(
        "job_p99_ms",
        single.iter().copied().fold(0.0, f64::max) * 1e3,
    );
}

/// The traced side of a run: a [`ClockSink`] and the tracer feeding it.
pub struct Tracing {
    sink: Arc<ClockSink>,
}

impl Tracing {
    /// A sink with room for `capacity` events, allocated now.
    pub fn new(capacity: usize) -> Self {
        Self {
            sink: Arc::new(ClockSink::with_capacity(capacity)),
        }
    }

    /// A tracer that stamps into this run's sink.
    pub fn tracer(&self) -> Tracer {
        Tracer::to(self.sink.clone())
    }

    /// Records `trace.<span>.{self_s,count}` and `trace.overhead_frac`
    /// (median over rounds of traced / untraced wall − 1; both sides of
    /// a ratio come from the same round, so the host's phase cancels) and writes the
    /// stamped stream to `benchmark/out/trace-<workload>.json`.
    pub fn finish(self, report: &mut Report, workload: &str, traced_over_untraced: &[f64]) {
        let events = self.sink.events();
        let totals = span_totals(&events);
        for span in TRACE_SPANS {
            let t = totals.get(span).copied().unwrap_or_default();
            report.set(format!("trace.{span}.self_s"), t.self_s);
            report.set(format!("trace.{span}.count"), t.count as f64);
            if t.unclosed > 0 {
                report.note(format!(
                    "trace: {} `{span}` begin(s) never ended",
                    t.unclosed
                ));
            }
        }
        report.set("trace.overhead_frac", median(traced_over_untraced) - 1.0);
        let dropped = self.sink.dropped();
        if dropped > 0 {
            report.note(format!("trace: buffer full, {dropped} events dropped"));
        }
        let path = std::path::PathBuf::from(format!("benchmark/out/trace-{workload}.json"));
        match write_trace(&path, workload, dropped, &events) {
            Ok(()) => report.note(format!(
                "trace: {} events written to {}",
                events.len(),
                path.display()
            )),
            Err(e) => report.note(format!("trace: could not write {}: {e}", path.display())),
        }
    }
}
