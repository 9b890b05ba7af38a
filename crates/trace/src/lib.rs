//! `simd2-trace`: zero-dependency observability facade for the SIMD2
//! reproduction stack — spans, counters, histograms, pluggable sinks.
//!
//! # Design
//!
//! Every instrumented subsystem holds a [`Tracer`], a cheap clonable
//! handle wrapping `Option<Arc<dyn Sink>>`:
//!
//! - **Disabled** (`Tracer::off()`, the default everywhere): emitting
//!   an event is one `Option` check on an inline field — no allocation,
//!   no locking, no atomics. The *global* arming gate ([`armed`]) that
//!   [`Tracer::current`] consults is a single relaxed atomic load, the
//!   cost quoted in DESIGN.md §9.
//! - **Enabled** (`Tracer::to(sink)`): events are forwarded to the sink
//!   with their fields as a borrowed stack slice. [`NullSink`] drops
//!   them, [`RingSink`] buffers them for tests, [`JsonLinesSink`]
//!   streams them to `results/telemetry/*.jsonl`.
//!
//! Tracers are deliberately *per-instance* rather than thread-local or
//! process-global: `cargo test` runs tests on concurrent threads, and
//! the telemetry test-suite asserts **exact** equality between
//! span-derived totals and `OpCount`/`RecoveryStats` — which only holds
//! if each test's events land in its own sink. Process-global state is
//! limited to the monotonic [`Counter`]/[`Histogram`] registry (whose
//! totals are only ever asserted `>=` across tests) and the [`arm`]
//! flag used by binaries that want ambient tracing.
//!
//! # Span vocabulary
//!
//! The stack emits a small fixed vocabulary, listed in [`span`]:
//! `mmo` / `tile_panel` spans from the tiled backend, `recovery` and
//! `fault` instants from the resilience layer, `pipeline` instants from
//! the GPU timing model, `app_phase` instants from the application
//! suite. Field keys are documented on each emitter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod sink;

pub use event::{field, json_line_into, Event, EventKind, Field, Value};
pub use metrics::{
    snapshot, snapshot_json, Counter, CounterSnapshot, Histogram, HistogramSnapshot,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use sink::{FanoutSink, JsonLinesSink, NullSink, RingSink, Sink, DEFAULT_RING_CAPACITY};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Names of the spans and instant events the SIMD2 stack emits.
pub mod span {
    /// One matrix-level mmo through a backend (`begin`/`end` span).
    pub const MMO: &str = "mmo";
    /// One worker's row-panel slab within an mmo (`end`-only span
    /// summary; sequential runs emit exactly one covering the grid).
    pub const TILE_PANEL: &str = "tile_panel";
    /// A resilience-layer event (`instant`, keyed by a `stage` field:
    /// `verified`, `detection`, `retry`, `retry_success`, `fallback`,
    /// `worker_panic`, `panic_recovery`).
    pub const RECOVERY: &str = "recovery";
    /// A fault-injector event (`instant`, `stage` = `injected` or
    /// `dropped`).
    pub const FAULT: &str = "fault";
    /// One simulated SM pipeline drain (`instant`).
    pub const PIPELINE: &str = "pipeline";
    /// One application benchmark phase (`instant`).
    pub const APP_PHASE: &str = "app_phase";
    /// One recorded-plan execution through the plan executor
    /// (`begin`/`end` span; the end event carries step/slot totals).
    pub const PLAN: &str = "plan";
    /// One dependency wave of a plan replay: mutually independent
    /// steps, dispatched one by one (`end`-only span summary).
    pub const PLAN_WAVE: &str = "plan_wave";
    /// A serving-layer job lifecycle event (`instant`, keyed by a
    /// `stage` field: `admitted`, `rejected_backpressure`,
    /// `rejected_quota`, `rejected_malformed`, `completed`, `expired`,
    /// `failed`, `recovered`, `cache_hit`). Every event carries numeric
    /// `tenant` and `job` fields, so per-tenant counters can be derived
    /// exactly from the event stream.
    pub const SERVE: &str = "serve";
}

/// Process-global arming gate consulted by [`Tracer::current`].
static ARMED: AtomicBool = AtomicBool::new(false);
/// The ambient sink installed by [`arm`].
static AMBIENT: OnceLock<Mutex<Option<Arc<dyn Sink>>>> = OnceLock::new();

fn ambient() -> &'static Mutex<Option<Arc<dyn Sink>>> {
    AMBIENT.get_or_init(|| Mutex::new(None))
}

/// Installs `sink` as the ambient process-wide sink and arms tracing,
/// so [`Tracer::current`] starts emitting. Intended for binaries
/// (benches, apps); tests should pass explicit tracers instead.
pub fn arm(sink: Arc<dyn Sink>) {
    *ambient().lock().unwrap() = Some(sink);
    ARMED.store(true, Ordering::Release);
}

/// Disarms ambient tracing and drops the ambient sink.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *ambient().lock().unwrap() = None;
}

/// Whether ambient tracing is armed — one relaxed atomic load, the
/// entire disabled-path cost for code using [`Tracer::current`].
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// A cheap, clonable handle instrumented code emits events through.
///
/// `Tracer::off()` (the `Default`) drops everything at the cost of one
/// `Option` check; `Tracer::to(sink)` forwards to the sink. Clones
/// share the sink, so a parallel backend hands each worker a clone and
/// all events land in one place.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn Sink>>,
}

impl Tracer {
    /// A disabled tracer: every emit is a no-op.
    pub const fn off() -> Self {
        Self { sink: None }
    }

    /// A tracer forwarding to `sink`.
    pub fn to(sink: Arc<dyn Sink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// The ambient tracer: forwards to the sink installed by [`arm`],
    /// or disabled if not armed. Costs one relaxed atomic load when
    /// disarmed.
    pub fn current() -> Self {
        if !armed() {
            return Self::off();
        }
        Self {
            sink: ambient().lock().unwrap().clone(),
        }
    }

    /// Whether events emitted through this tracer go anywhere.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event; `fields` stays on the caller's stack.
    #[inline]
    pub fn emit(&self, span: &'static str, kind: EventKind, fields: &[Field]) {
        if let Some(sink) = &self.sink {
            sink.record(span, kind, fields);
        }
    }

    /// Emits a span-begin event.
    #[inline]
    pub fn begin(&self, span: &'static str, fields: &[Field]) {
        self.emit(span, EventKind::Begin, fields);
    }

    /// Emits a span-end event (carrying the span's summary fields).
    #[inline]
    pub fn end(&self, span: &'static str, fields: &[Field]) {
        self.emit(span, EventKind::End, fields);
    }

    /// Emits an instant event.
    #[inline]
    pub fn instant(&self, span: &'static str, fields: &[Field]) {
        self.emit(span, EventKind::Instant, fields);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_emits_nothing_and_is_disabled() {
        let t = Tracer::off();
        assert!(!t.enabled());
        // No sink to observe; just exercise the no-op path.
        t.begin(span::MMO, &[field("op", "min-plus")]);
        t.end(span::MMO, &[]);
        t.instant(span::FAULT, &[]);
    }

    #[test]
    fn ring_tracer_captures_in_order() {
        let ring = RingSink::shared();
        let t = Tracer::to(ring.clone());
        assert!(t.enabled());
        t.begin(span::MMO, &[field("op", "max-plus")]);
        t.end(span::MMO, &[field("tile_mmos", 27u64)]);
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Begin);
        assert_eq!(events[0].str_value("op"), Some("max-plus"));
        assert_eq!(events[1].kind, EventKind::End);
        assert_eq!(events[1].u64("tile_mmos"), Some(27));
    }

    #[test]
    fn clones_share_the_sink() {
        let ring = RingSink::shared();
        let t = Tracer::to(ring.clone());
        let t2 = t.clone();
        t.instant(span::RECOVERY, &[field("stage", "retry")]);
        t2.instant(span::RECOVERY, &[field("stage", "fallback")]);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn ambient_arm_disarm_round_trip() {
        // Serialize against other tests touching the ambient state.
        let ring = RingSink::shared();
        arm(ring.clone());
        assert!(armed());
        Tracer::current().instant(span::APP_PHASE, &[field("app", "bfs")]);
        assert_eq!(ring.len(), 1);
        disarm();
        assert!(!armed());
        assert!(!Tracer::current().enabled());
    }
}
