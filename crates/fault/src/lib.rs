//! Fault injection and algorithm-based fault tolerance (ABFT) for the
//! SIMD² reproduction.
//!
//! The paper's SIMD² unit is a *shared-hardware* extension of the MXU:
//! one faulty tile-pipe lane silently corrupts every semiring workload
//! routed through it. This crate makes that failure mode a first-class,
//! reproducible object of study:
//!
//! * [`plan`] — a seeded, deterministic [`FaultPlan`]: bit-flips in tile
//!   registers, stuck-at lanes in the 4×4 MXU grid, transient NaN/Inf
//!   injection in the `⊕`/`⊗` reducers, and shared-memory word
//!   corruption. Fault decisions are a pure hash of `(seed, site)`, so a
//!   campaign replays identically regardless of execution interleaving.
//! * [`inject`] — the [`PlannedInjector`] seam: anything that executes
//!   `mmo`s (the functional [`simd2_mxu::Simd2Unit`] via
//!   [`FaultySimd2Unit`], or the warp-level executor in `simd2-isa`) can
//!   host an injector and run any program or app under a campaign.
//! * [`abft`] — detection: row/column-sum checksum invariants for the
//!   additive-reduction algebras (plus-mul, plus-norm) and witness /
//!   dominance / range checks for the idempotent min/max/or family,
//!   plus a NaN tripwire. Violations carry enough context to be logged
//!   and acted on by recovery policies.
//!
//! Recovery (fail-fast / retry / backend fallback) lives in
//! `simd2::resilient`, which consumes these primitives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod abft;
pub mod inject;
pub mod plan;

pub use abft::{AbftConfig, AbftViolation};
pub use inject::{
    FaultLogEntry, FaultySimd2Unit, MmoCoord, PanicProbeUnit, PlannedInjector, PANIC_PROBE_PAYLOAD,
};
pub use plan::{FaultClass, FaultKind, FaultPlan, FaultPlanConfig, StallPlan};
