//! `ClockSink`: a `simd2_trace::Sink` that stamps a monotonic clock and
//! a thread id on every event — the wall-clock channel the engine's own
//! telemetry deliberately lacks — plus the span self-time arithmetic
//! over the stamped stream.
//!
//! Events go into a buffer allocated once up front; nothing is written
//! out until the run ends ([`write_trace`]).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use simd2_trace::{EventKind, Field, Sink};

/// One stamped event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// Nanoseconds since the sink was created.
    pub t_ns: u64,
    /// Small per-process thread number (first thread to emit is 0).
    pub tid: u64,
    /// Span name.
    pub span: &'static str,
    /// Begin / End / Instant.
    pub kind: EventKind,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);
thread_local! {
    // Relaxed: the counter only hands out distinct numbers.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// In-memory, pre-allocated, clock-stamping sink.
#[derive(Debug)]
pub struct ClockSink {
    origin: Instant,
    capacity: usize,
    events: Mutex<Vec<Stamped>>,
    dropped: AtomicU64,
}

impl ClockSink {
    /// A sink holding at most `capacity` events; later events are
    /// counted in [`dropped`](Self::dropped) instead of reallocating
    /// inside a timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            capacity,
            events: Mutex::new(Vec::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events that arrived after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the buffered events out, in arrival order.
    pub fn events(&self) -> Vec<Stamped> {
        self.events
            .lock()
            .expect("a tracing thread panicked mid-push")
            .clone()
    }
}

impl Sink for ClockSink {
    fn record(&self, span: &'static str, kind: EventKind, _fields: &[Field]) {
        let t_ns = self.origin.elapsed().as_nanos() as u64;
        let tid = TID.with(|t| *t);
        let mut events = self
            .events
            .lock()
            .expect("a tracing thread panicked mid-push");
        if events.len() < self.capacity {
            events.push(Stamped {
                t_ns,
                tid,
                span,
                kind,
            });
        } else {
            // Relaxed: a statistic, publishes nothing.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Per-span totals derived from a stamped stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Events of this span that mark one occurrence: paired `End`s,
    /// unpaired (`end`-only summary) `End`s, and `Instant`s.
    pub count: u64,
    /// Seconds inside paired Begin/End spans, minus the time their
    /// child spans *on the same thread* cover. Zero for spans the
    /// engine only emits as instants or end-only summaries.
    pub self_s: f64,
    /// `Begin`s that never saw an `End` on their thread (a failed
    /// operation emits no end event).
    pub unclosed: u64,
}

/// Folds a stamped stream into per-span counts and self times.
///
/// Pairing is per thread and stack-shaped: an `End` closes the nearest
/// open `Begin` of the same span on its thread; an `End` with no open
/// `Begin` is an end-only summary (how `tile_panel` and `plan_wave` are
/// emitted) and only counts. A child's whole duration is charged
/// against its parent, so summing `self_s` over all spans of a thread
/// gives that thread's outermost span time exactly. Spans on other
/// threads (worker `tile_panel`s) are never children of a span on the
/// dispatching thread.
pub fn span_totals(events: &[Stamped]) -> BTreeMap<&'static str, SpanTotals> {
    struct Open {
        span: &'static str,
        start: u64,
        child_ns: u64,
    }
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    for e in events {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            EventKind::Begin => stack.push(Open {
                span: e.span,
                start: e.t_ns,
                child_ns: 0,
            }),
            EventKind::Instant => totals.entry(e.span).or_default().count += 1,
            EventKind::End => {
                let entry = totals.entry(e.span).or_default();
                entry.count += 1;
                let Some(pos) = stack.iter().rposition(|o| o.span == e.span) else {
                    continue; // end-only summary
                };
                // Anything opened above the match never closed (its
                // operation failed); fold what it held into the match.
                let mut orphan_children = 0;
                for orphan in stack.drain(pos + 1..) {
                    totals.entry(orphan.span).or_default().unclosed += 1;
                    orphan_children += orphan.child_ns;
                }
                let open = stack.pop().expect("rposition found it");
                let dur = e.t_ns.saturating_sub(open.start);
                let children = (open.child_ns + orphan_children).min(dur);
                totals.entry(e.span).or_default().self_s += (dur - children) as f64 * 1e-9;
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur;
                }
            }
        }
    }
    for stack in stacks.into_values() {
        for open in stack {
            totals.entry(open.span).or_default().unclosed += 1;
        }
    }
    totals
}

/// Writes the stamped stream as one JSON document:
/// `{"workload": .., "dropped": n, "events": [[t_ns, tid, "span", "kind"], ..]}`.
pub fn write_trace(
    path: &Path,
    workload: &str,
    dropped: u64,
    events: &[Stamped],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"dropped\": {dropped}, \
         \"columns\": [\"t_ns\", \"tid\", \"span\", \"kind\"], \"events\": ["
    )?;
    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        writeln!(
            out,
            "[{}, {}, \"{}\", \"{}\"]{comma}",
            e.t_ns,
            e.tid,
            e.span,
            e.kind.label()
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_trace::{span, Tracer};
    use std::sync::Arc;

    fn ev(t_ns: u64, tid: u64, span: &'static str, kind: EventKind) -> Stamped {
        Stamped {
            t_ns,
            tid,
            span,
            kind,
        }
    }

    #[test]
    fn nested_spans_charge_children_against_the_parent() {
        use EventKind::{Begin, End};
        // plan [0, 100): two mmo children of 30 and 20 → plan self 50.
        let events = [
            ev(0, 0, "plan", Begin),
            ev(10, 0, "mmo", Begin),
            ev(40, 0, "mmo", End),
            ev(50, 0, "mmo", Begin),
            ev(70, 0, "mmo", End),
            ev(100, 0, "plan", End),
        ];
        let t = span_totals(&events);
        assert_eq!(t["plan"].count, 1);
        assert_eq!(t["mmo"].count, 2);
        assert!((t["plan"].self_s - 50e-9).abs() < 1e-15);
        assert!((t["mmo"].self_s - 50e-9).abs() < 1e-15);
        // Self times of one thread add up to its outermost span.
        let total: f64 = t.values().map(|s| s.self_s).sum();
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_on_other_threads_are_not_children() {
        use EventKind::{Begin, End};
        // A worker's panel span overlaps the dispatcher's mmo span in
        // time but lives on thread 1: the mmo keeps its whole duration.
        let events = [
            ev(0, 0, "mmo", Begin),
            ev(5, 1, "panel", Begin),
            ev(45, 1, "panel", End),
            ev(50, 0, "mmo", End),
        ];
        let t = span_totals(&events);
        assert!((t["mmo"].self_s - 50e-9).abs() < 1e-15);
        assert!((t["panel"].self_s - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn end_only_summaries_and_instants_count_without_time() {
        use EventKind::{Begin, End, Instant};
        let events = [
            ev(0, 0, "mmo", Begin),
            ev(8, 0, "tile_panel", End), // end-only: no open begin
            ev(9, 0, "recovery", Instant),
            ev(10, 0, "mmo", End),
        ];
        let t = span_totals(&events);
        assert_eq!(t["tile_panel"].count, 1);
        assert_eq!(t["tile_panel"].self_s, 0.0);
        assert_eq!(t["recovery"].count, 1);
        assert!((t["mmo"].self_s - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn a_begin_without_an_end_is_reported_unclosed() {
        use EventKind::{Begin, End};
        // The inner mmo failed (no end event); the plan still closes.
        let events = [
            ev(0, 0, "plan", Begin),
            ev(10, 0, "mmo", Begin),
            ev(100, 0, "plan", End),
            ev(110, 0, "mmo", Begin),
        ];
        let t = span_totals(&events);
        assert_eq!(t["mmo"].unclosed, 2);
        assert_eq!(t["mmo"].count, 0);
        assert_eq!(t["plan"].count, 1);
        assert!((t["plan"].self_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn clock_sink_pairs_begin_and_end_through_a_real_tracer() {
        let sink = Arc::new(ClockSink::with_capacity(64));
        let tracer = Tracer::to(sink.clone());
        tracer.begin(span::PLAN, &[]);
        tracer.begin(span::MMO, &[]);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.end(span::MMO, &[]);
        tracer.instant(span::SERVE, &[]);
        tracer.end(span::PLAN, &[]);
        let events = sink.events();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(events.iter().all(|e| e.tid == events[0].tid));
        let t = span_totals(&events);
        assert_eq!(
            (t["plan"].count, t["mmo"].count, t["serve"].count),
            (1, 1, 1)
        );
        assert!(t["mmo"].self_s >= 2e-3, "{}", t["mmo"].self_s);
        assert_eq!(t["plan"].unclosed + t["mmo"].unclosed, 0);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn worker_threads_get_their_own_ids() {
        let sink = Arc::new(ClockSink::with_capacity(16));
        let tracer = Tracer::to(sink.clone());
        tracer.begin(span::MMO, &[]);
        std::thread::scope(|s| {
            let t = tracer.clone();
            s.spawn(move || t.end(span::TILE_PANEL, &[]));
        });
        tracer.end(span::MMO, &[]);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_ne!(events[0].tid, events[1].tid);
        assert_eq!(events[0].tid, events[2].tid);
    }

    #[test]
    fn a_full_buffer_drops_and_counts_instead_of_growing() {
        let sink = ClockSink::with_capacity(2);
        for _ in 0..5 {
            sink.record("mmo", EventKind::Instant, &[]);
        }
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.dropped(), 3);
    }
}
