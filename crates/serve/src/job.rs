//! Job vocabulary: tenants, payloads, deadlines, and the explicit
//! responses every submission receives.

use simd2::{Plan, PlanKey};
use simd2_apps::AppKind;
use simd2_matrix::Matrix;

/// Identifies one tenant of a [`PlanService`](crate::PlanService).
/// Tenants are registered explicitly ([`register_tenant`]) with their
/// own [`TenantQuota`](crate::TenantQuota); submissions from unknown
/// tenants are rejected as malformed.
///
/// [`register_tenant`]: crate::PlanService::register_tenant
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Service-assigned job handle, unique within one service instance and
/// monotonically increasing in admission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Per-job execution deadline.
///
/// Deadlines are measured in *plan steps* — the deterministic unit of
/// work the executor dispatches — and enforced at step boundaries via
/// the executor's [`ReplayControl`](simd2::ReplayControl) seam. A job
/// whose budget cannot cover the next dispatch terminates with
/// [`JobStatus::Expired`] before that dispatch runs: an over-deadline
/// job always gets an explicit terminal response, never a hang and
/// never a mid-step abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deadline {
    /// No bound: the job runs all its steps.
    None,
    /// The job may execute at most this many plan steps.
    Steps(u64),
}

impl Deadline {
    /// Whether one more step after `completed` steps fits the budget.
    pub(crate) fn allows(self, completed: u64) -> bool {
        match self {
            Deadline::None => true,
            Deadline::Steps(budget) => completed < budget,
        }
    }

    /// The step budget, if bounded.
    pub fn budget(self) -> Option<u64> {
        match self {
            Deadline::None => None,
            Deadline::Steps(b) => Some(b),
        }
    }
}

/// What a client submits for execution.
#[derive(Clone, Debug)]
pub enum JobPayload {
    /// A recorded plan to replay.
    Plan(Plan),
    /// A named registry application: expanded to its recorded plan at
    /// admission time (on the service's internal recorder), so quotas
    /// and deadlines apply to the real step count, not a nominal one.
    App {
        /// Which application to run.
        app: AppKind,
        /// Problem dimension.
        n: usize,
        /// Workload generator seed.
        seed: u64,
    },
}

/// One job submission: a payload plus its deadline.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// What to execute.
    pub payload: JobPayload,
    /// Step budget ([`Deadline::None`] by default).
    pub deadline: Deadline,
}

impl JobSpec {
    /// A plan job with no deadline.
    pub fn plan(plan: Plan) -> Self {
        Self {
            payload: JobPayload::Plan(plan),
            deadline: Deadline::None,
        }
    }

    /// A registry-app job with no deadline.
    pub fn app(app: AppKind, n: usize, seed: u64) -> Self {
        Self {
            payload: JobPayload::App { app, n, seed },
            deadline: Deadline::None,
        }
    }

    /// Sets the deadline (builder form).
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

/// Why admission refused a submission. Refusals are always explicit —
/// the alternative (unbounded queueing) turns one greedy tenant into
/// everyone's latency problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The service-wide queue is full; nothing tenant-specific — retry
    /// after the backlog drains.
    Backpressure {
        /// Jobs currently queued across all tenants.
        queued: usize,
        /// The service-wide queue capacity.
        capacity: usize,
    },
    /// The submitting tenant is over one of its own quotas.
    QuotaExceeded {
        /// Which quota (`"in_flight_jobs"`, `"queued_steps"`,
        /// `"queued_bytes"`).
        quota: &'static str,
        /// The tenant's current usage.
        used: u64,
        /// What this submission would add.
        requested: u64,
        /// The quota limit.
        limit: u64,
    },
    /// The submission can never execute (unknown tenant, empty plan,
    /// incompatible step shapes, missing captured inputs, out-of-range
    /// app dimension) — resubmitting the same job cannot help.
    Malformed {
        /// Human-readable diagnosis.
        reason: String,
    },
}

impl Rejected {
    /// The telemetry stage label for this rejection class.
    pub fn stage(&self) -> &'static str {
        match self {
            Rejected::Backpressure { .. } => "rejected_backpressure",
            Rejected::QuotaExceeded { .. } => "rejected_quota",
            Rejected::Malformed { .. } => "rejected_malformed",
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Backpressure { queued, capacity } => {
                write!(f, "backpressure: {queued}/{capacity} jobs queued")
            }
            Rejected::QuotaExceeded {
                quota,
                used,
                requested,
                limit,
            } => write!(
                f,
                "quota {quota} exceeded: {used} used + {requested} requested > {limit}"
            ),
            Rejected::Malformed { reason } => write!(f, "malformed: {reason}"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Terminal status of an admitted job. Every admitted job reaches
/// exactly one of these — the scheduler has no silent-drop path.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// The job ran (or was served from the plan cache) to completion.
    Completed {
        /// The final step's output.
        output: Matrix,
        /// Whether the result came from the plan cache (no backend
        /// work; trivially within any deadline).
        cache_hit: bool,
        /// Whether the recovery layer intervened (retry success, panic
        /// recovery, or fallback) on the way to this result.
        recovered: bool,
        /// Plan steps actually dispatched (0 on a cache hit).
        executed_steps: u64,
    },
    /// The step budget (or the scheduler's resume policy) ran out at a
    /// step boundary: `executed_steps` completed across every round,
    /// the next dispatch would have exceeded `budget`.
    ///
    /// When the service runs with checkpoint/resume armed
    /// ([`ResumeConfig`](crate::ResumeConfig)), expiry carries the
    /// checkpoint identity and resume accounting so callers can
    /// distinguish *expired, resumable* (the work halted by policy with
    /// budget math still open — resubmitting with a larger budget or
    /// resume cap can finish it) from *expired, terminal* (the step
    /// budget is genuinely exhausted).
    Expired {
        /// Steps completed before the budget ran out, summed over the
        /// initial round and every resumed round.
        executed_steps: u64,
        /// The deadline's step budget (`0` for [`Deadline::None`]).
        budget: u64,
        /// The plan's total step count.
        total_steps: u64,
        /// How many times the scheduler resumed this job from its
        /// checkpoint before giving up (`0` when resume is disabled).
        resumed_from: u64,
        /// Identity of the checkpoint the scheduler held at expiry
        /// (`None` when resume is disabled and no checkpoint was kept).
        checkpoint: Option<PlanKey>,
        /// Whether the remaining-budget math left room for more
        /// progress: `true` means the resume cap (not the step budget)
        /// ended the job.
        resumable: bool,
    },
    /// Execution failed terminally (recovery exhausted, poisoned input,
    /// structural error) at `step`.
    Failed {
        /// Index of the failing plan step.
        step: usize,
        /// Steps completed before the failure.
        executed_steps: u64,
        /// The rendered backend error.
        error: String,
    },
    /// The job's plan is quarantined: its circuit breaker tripped
    /// [`BreakerConfig::quarantine_after`](crate::BreakerConfig) times,
    /// so the scheduler refuses to dispatch it ever again. Terminal,
    /// without executing anything.
    Quarantined {
        /// Identity of the quarantined plan.
        key: PlanKey,
        /// Breaker trips the plan accumulated before quarantine.
        trips: u32,
    },
}

impl JobStatus {
    /// The telemetry stage label
    /// (`completed` / `expired` / `failed` / `quarantined`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed { .. } => "completed",
            JobStatus::Expired { .. } => "expired",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Quarantined { .. } => "quarantined",
        }
    }

    /// The completed output, if any.
    pub fn output(&self) -> Option<&Matrix> {
        match self {
            JobStatus::Completed { output, .. } => Some(output),
            _ => None,
        }
    }

    /// For [`JobStatus::Expired`]: the step budget left unspent when
    /// the job expired (`budget - executed_steps`). `Some(0)` means the
    /// budget was genuinely exhausted; a non-zero remainder means
    /// policy (the resume cap or a too-small round quantum) stopped the
    /// job, not the budget.
    pub fn remaining_budget(&self) -> Option<u64> {
        match self {
            JobStatus::Expired {
                executed_steps,
                budget,
                ..
            } => Some(budget.saturating_sub(*executed_steps)),
            _ => None,
        }
    }
}

/// One admitted job's terminal outcome, in execution order.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The admitted job.
    pub job: JobId,
    /// How it ended.
    pub status: JobStatus,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_arithmetic_is_exact_at_the_boundary() {
        assert!(Deadline::None.allows(u64::MAX));
        assert!(Deadline::Steps(3).allows(2));
        assert!(!Deadline::Steps(3).allows(3));
        assert!(!Deadline::Steps(0).allows(0));
        assert_eq!(Deadline::Steps(3).budget(), Some(3));
        assert_eq!(Deadline::None.budget(), None);
    }

    #[test]
    fn expiry_carries_resume_identity_and_remaining_budget_math() {
        let plan = {
            use simd2::Backend;
            use simd2_semiring::OpKind;
            let a = Matrix::filled(16, 16, 1.0);
            let c = Matrix::filled(16, 16, 0.0);
            let mut be = simd2::TiledBackend::new();
            let mut rec = simd2::PlanBuilder::over(&mut be);
            rec.mmo(OpKind::PlusMul, &a, &a, &c).unwrap();
            rec.finish()
        };
        let key = plan.cache_key();
        // Policy-stopped: budget math still open, checkpoint attached.
        let open = JobStatus::Expired {
            executed_steps: 3,
            budget: 10,
            total_steps: 8,
            resumed_from: 2,
            checkpoint: Some(key),
            resumable: true,
        };
        assert_eq!(open.label(), "expired");
        assert_eq!(open.remaining_budget(), Some(7));
        // Budget-exhausted: terminal expiry.
        let spent = JobStatus::Expired {
            executed_steps: 10,
            budget: 10,
            total_steps: 12,
            resumed_from: 0,
            checkpoint: None,
            resumable: false,
        };
        assert_eq!(spent.remaining_budget(), Some(0));
        let quarantined = JobStatus::Quarantined { key, trips: 3 };
        assert_eq!(quarantined.label(), "quarantined");
        assert!(quarantined.output().is_none());
        assert_eq!(quarantined.remaining_budget(), None);
    }

    #[test]
    fn rejection_stages_and_display() {
        let b = Rejected::Backpressure {
            queued: 4,
            capacity: 4,
        };
        let q = Rejected::QuotaExceeded {
            quota: "queued_steps",
            used: 10,
            requested: 5,
            limit: 12,
        };
        let m = Rejected::Malformed {
            reason: "empty plan".into(),
        };
        assert_eq!(b.stage(), "rejected_backpressure");
        assert_eq!(q.stage(), "rejected_quota");
        assert_eq!(m.stage(), "rejected_malformed");
        assert!(b.to_string().contains("4/4"));
        assert!(q.to_string().contains("queued_steps"));
        assert!(m.to_string().contains("empty plan"));
    }
}
