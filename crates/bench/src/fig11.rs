//! Figure 11: application kernel speedups over the state-of-the-art GPU
//! baselines, in both SIMD2 configurations, across the three Table-4
//! input scales.
//!
//! The figure is built from the timing model's `app_phase` telemetry
//! events (one instant per evaluation, captured in a [`RingSink`])
//! rather than from the returned values — the printed table is a view
//! of the event stream. Evaluation order is deterministic, so the
//! rendered text reproduces bit for bit; the committed golden copy
//! lives at `results/fig11_apps.txt`, and [`export_events`] writes the
//! event stream itself (`results/telemetry/fig11_apps.jsonl`).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use simd2_apps::{AppKind, AppTiming, Config};
use simd2_gpu::{geomean, Gpu};
use simd2_matrix::gen::InputScale;
use simd2_trace::{span, Event, FanoutSink, JsonLinesSink, RingSink, Sink, Tracer};

use crate::report::fmt_speedup;
use crate::Table;

/// The Figure-11 report on the default GPU model — the `fig11_apps`
/// entry of [`crate::experiments::EXPERIMENTS`].
pub fn report() -> String {
    let ring = RingSink::shared();
    let model = AppTiming::new(Gpu::default()).with_tracer(Tracer::to(ring.clone()));
    render(&model, &ring)
}

/// Evaluates the figure once more with every `app_phase` event also
/// streamed to the JSON-lines file at `path`.
///
/// # Errors
///
/// Returns the I/O error when the file cannot be created or flushed.
pub fn export_events(path: impl AsRef<Path>) -> std::io::Result<()> {
    let ring = RingSink::shared();
    let jsonl = Arc::new(JsonLinesSink::create(path)?);
    let sink = FanoutSink::new(vec![
        ring.clone() as Arc<dyn Sink>,
        jsonl.clone() as Arc<dyn Sink>,
    ]);
    let model = AppTiming::new(Gpu::default()).with_tracer(Tracer::to(Arc::new(sink)));
    render(&model, &ring);
    jsonl.flush()
}

/// Runs one `(app, scale)` sweep through the model and hands back the
/// `app_phase` events it emitted, in evaluation order.
///
/// # Panics
///
/// Panics if the model emits an event outside the `app_phase` span.
pub fn sweep(model: &AppTiming, ring: &RingSink, config: Config) -> Vec<Event> {
    ring.clear();
    for app in AppKind::all() {
        for scale in InputScale::all() {
            let _ = model.speedup(app, app.dimension(scale), config);
        }
    }
    let events = ring.events();
    assert!(
        events.iter().all(|e| e.span == span::APP_PHASE),
        "unexpected span in the timing model's event stream"
    );
    events
}

/// Renders the full Figure-11 report — both configuration tables with
/// their GMEAN rows, plus the peak-speedup line quoted in the abstract.
///
/// # Panics
///
/// Panics if the event stream does not carry one `speedup` instant per
/// `(app, scale, config)` evaluation.
pub fn render(model: &AppTiming, ring: &RingSink) -> String {
    let mut out = String::new();
    for config in [Config::Simd2Units, Config::Simd2CudaCores] {
        let events = sweep(model, ring, config);
        let mut t = Table::new(
            format!("Figure 11: speedup of `{}` over baseline", config.label()),
            &["app", "small", "medium", "large"],
        );
        let mut per_scale: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut it = events.iter();
        for app in AppKind::all() {
            let mut row = vec![app.spec().label.to_owned()];
            for col in &mut per_scale {
                let e = it.next().expect("one event per evaluation");
                assert_eq!(e.str_value("app"), Some(app.spec().label));
                assert_eq!(e.str_value("config"), Some(config.label()));
                let s = e.f64("speedup").expect("speedup field");
                col.push(s);
                row.push(fmt_speedup(s));
            }
            t.row(&row);
        }
        let mut gm = vec!["GMEAN".to_owned()];
        for col in &per_scale {
            gm.push(fmt_speedup(geomean(col)));
        }
        t.row(&gm);
        out.push_str(&t.render());
        out.push('\n');
    }
    // Peak speedup quoted in the abstract — again read off the events.
    let events = sweep(model, ring, Config::Simd2Units);
    let mut best = (0.0f64, String::new());
    let mut it = events.iter();
    for app in AppKind::all() {
        for scale in InputScale::all() {
            let e = it.next().expect("one event per evaluation");
            let s = e.f64("speedup").expect("speedup field");
            if s > best.0 {
                best = (s, format!("{} / {}", app.spec().label, scale.label()));
            }
        }
    }
    writeln!(
        out,
        "Peak SIMD2-unit speedup: {} ({})",
        fmt_speedup(best.0),
        best.1
    )
    .expect("writing to a String is infallible");
    out
}
