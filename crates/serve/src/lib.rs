//! `simd2-serve`: a multi-tenant plan service over the SIMD² stack.
//!
//! Clients submit recorded [`Plan`](simd2::Plan)s — or named registry
//! apps plus inputs — as jobs. An admission controller enforces
//! per-tenant quotas ([`TenantQuota`]) and a service-wide backpressure
//! gate, answering every submission explicitly ([`Rejected`]). A
//! weighted round-robin scheduler drains per-tenant FIFO queues onto
//! one shared backend wrapped in a
//! [`ResilientBackend`](simd2::ResilientBackend), under per-job
//! step-budget deadlines ([`Deadline`]) enforced at step boundaries,
//! with a result cache ([`PlanCache`]) keyed on the plan's structural
//! hash plus input fingerprints.
//!
//! Failure is a first-class state, not an afterthought. When armed by
//! [`ServeConfig`]: jobs halted by a step budget, a round quantum
//! ([`ResumeConfig`]), or a worker panic are *suspended* at a wave
//! boundary with a [`PlanCheckpoint`](simd2::PlanCheckpoint) and
//! resumed in a later round — completed waves are never re-executed;
//! repeat-offender tenants and plans trip deterministic circuit
//! breakers ([`BreakerConfig`]) and, eventually, plan quarantine; and
//! a degradation ladder ([`DegradeConfig`]) pins the kernel to scalar
//! after repeated ABFT detections and demotes dispatch to sequential
//! after repeated panics.
//!
//! The load-bearing invariants — proven under seeded chaos by the
//! `serve_soak` binary in `simd2-bench`:
//!
//! 1. **Bit-identity**: every completed job's output is bit-identical
//!    to a clean sequential replay of its plan — including jobs that
//!    were suspended and resumed across scheduling rounds.
//! 2. **Explicit terminals**: every admitted job reaches exactly one
//!    [`JobStatus`]; over-quota and over-deadline jobs get explicit
//!    responses, never a hang.
//! 3. **Isolation**: one tenant's panics, poisoned inputs, quota
//!    pressure, or quarantined plans never corrupt, delay past
//!    deadline bounds, starve, or abort another tenant's jobs.
//! 4. **Accountable telemetry**: each per-tenant [`TenantStats`]
//!    counter moves at one site, the one that emits its
//!    [`span::SERVE`](simd2_trace::span) event, so counters and events
//!    agree by construction; the [`TenantLedger`] is read off the
//!    queues, not kept beside them; and counters, ledgers, breakers and
//!    the degradation ladder all equal the `serve_soak` reference
//!    model's, state for state, from the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod job;
pub mod service;

pub use admission::{plan_input_bytes, validate_plan, TenantLedger, TenantQuota};
pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use cache::{CacheStats, PlanCache};
pub use job::{Deadline, JobId, JobOutcome, JobPayload, JobSpec, JobStatus, Rejected, TenantId};
pub use service::{
    DegradeConfig, DegradeState, PlanService, ResumeConfig, ServeConfig, TenantStats,
};
