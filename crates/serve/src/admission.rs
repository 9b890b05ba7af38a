//! Admission control: per-tenant quotas and plan validation.
//!
//! Admission answers one question — *may this job enter the queue?* —
//! and answers it explicitly. A submission is checked in a fixed order:
//! structural validity first (a malformed plan must never occupy queue
//! space), then the service-wide backpressure gate, then — with app
//! payloads expanded and the serving passes run, so a refused
//! submission pays for neither — the tenant's own quotas. The
//! granted/refused decision is returned to the caller
//! as `Ok(JobId)` or a [`Rejected`] variant; nothing is ever silently
//! dropped or unboundedly buffered.

use simd2::{Plan, SlotOrigin};

use crate::job::Rejected;

/// Per-tenant admission quotas.
///
/// `max_in_flight` bounds jobs admitted but not yet terminal;
/// `max_queued_steps` / `max_queued_bytes` bound the *work* and *data*
/// waiting in the tenant's queue, so a tenant cannot sidestep the job
/// cap by submitting a few enormous plans. `weight` is the tenant's
/// weighted-round-robin share — jobs drained per scheduler cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum jobs admitted but not yet terminal (queued + running).
    pub max_in_flight: usize,
    /// Maximum plan steps waiting across the tenant's queue.
    pub max_queued_steps: u64,
    /// Maximum captured-input bytes waiting across the tenant's queue.
    pub max_queued_bytes: u64,
    /// Weighted-round-robin share (jobs per scheduler cycle; clamped to
    /// at least 1 when scheduling).
    pub weight: u32,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            max_in_flight: 64,
            max_queued_steps: 4096,
            max_queued_bytes: 64 << 20,
            weight: 1,
        }
    }
}

impl TenantQuota {
    /// Sets the in-flight job cap (builder form).
    pub fn with_max_in_flight(mut self, max: usize) -> Self {
        self.max_in_flight = max;
        self
    }

    /// Sets the queued-step cap (builder form).
    pub fn with_max_queued_steps(mut self, max: u64) -> Self {
        self.max_queued_steps = max;
        self
    }

    /// Sets the queued-byte cap (builder form).
    pub fn with_max_queued_bytes(mut self, max: u64) -> Self {
        self.max_queued_bytes = max;
        self
    }

    /// Sets the scheduler weight (builder form).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// A tenant's live admission usage — the sums over its queued jobs,
/// read off the queue — which the quota checks compare against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantLedger {
    /// Jobs admitted but not yet terminal.
    pub in_flight: usize,
    /// Plan steps waiting in the queue.
    pub queued_steps: u64,
    /// Captured-input bytes waiting in the queue.
    pub queued_bytes: u64,
}

impl TenantLedger {
    /// Checks whether a job of `steps` steps and `bytes` input bytes
    /// fits under `quota`, given current usage.
    pub(crate) fn admit(
        &self,
        quota: &TenantQuota,
        steps: u64,
        bytes: u64,
    ) -> Result<(), Rejected> {
        if self.in_flight + 1 > quota.max_in_flight {
            return Err(Rejected::QuotaExceeded {
                quota: "in_flight_jobs",
                used: self.in_flight as u64,
                requested: 1,
                limit: quota.max_in_flight as u64,
            });
        }
        if self.queued_steps.saturating_add(steps) > quota.max_queued_steps {
            return Err(Rejected::QuotaExceeded {
                quota: "queued_steps",
                used: self.queued_steps,
                requested: steps,
                limit: quota.max_queued_steps,
            });
        }
        if self.queued_bytes.saturating_add(bytes) > quota.max_queued_bytes {
            return Err(Rejected::QuotaExceeded {
                quota: "queued_bytes",
                used: self.queued_bytes,
                requested: bytes,
                limit: quota.max_queued_bytes,
            });
        }
        Ok(())
    }
}

/// The captured-input payload of a plan, in bytes (f32 elements).
pub fn plan_input_bytes(plan: &Plan) -> u64 {
    plan.input_slots()
        .into_iter()
        .filter_map(|s| plan.input_value(s))
        .map(|m| (m.rows() * m.cols() * std::mem::size_of::<f32>()) as u64)
        .sum()
}

/// Validates that `plan` can execute at all: non-empty, every step's
/// operand shapes compatible and non-degenerate, every input slot's
/// captured value present. Plans failing here are rejected at admission
/// — they would only fail later at dispatch, after consuming queue
/// space and scheduler time.
pub fn validate_plan(plan: &Plan) -> Result<(), Rejected> {
    let malformed = |reason: String| Err(Rejected::Malformed { reason });
    if plan.is_empty() {
        return malformed("empty plan".into());
    }
    for slot in plan.input_slots() {
        let (r, c) = plan.slot_shape(slot);
        if r == 0 || c == 0 {
            return malformed(format!(
                "input slot {} has zero dimension {r}x{c}",
                slot.index()
            ));
        }
        if plan.input_value(slot).is_none() {
            return malformed(format!("input slot {} has no captured value", slot.index()));
        }
    }
    for (i, step) in plan.steps().iter().enumerate() {
        let (m, k) = plan.slot_shape(step.a);
        let (k2, n) = plan.slot_shape(step.b);
        let (cm, cn) = plan.slot_shape(step.c);
        let (dm, dn) = plan.slot_shape(step.d);
        if m == 0 || n == 0 || k == 0 {
            return malformed(format!("step {i} has zero geometry {m}x{n}x{k}"));
        }
        if k != k2 || (cm, cn) != (m, n) || (dm, dn) != (m, n) {
            return malformed(format!(
                "step {i} shapes do not fit: A {m}x{k}, B {k2}x{n}, C {cm}x{cn}, D {dm}x{dn}"
            ));
        }
        for slot in [step.a, step.b, step.c] {
            if matches!(plan.slot_origin(slot), SlotOrigin::Input)
                && plan.input_value(slot).is_none()
            {
                return malformed(format!(
                    "step {i} reads input slot {} with no value",
                    slot.index()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::{Backend, PlanBuilder, TiledBackend};
    use simd2_matrix::Matrix;
    use simd2_semiring::OpKind;

    fn small_plan() -> Plan {
        let a = Matrix::filled(16, 16, 1.0);
        let c = Matrix::filled(16, 16, f32::INFINITY);
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        rec.mmo(OpKind::MinPlus, &a, &a, &c).unwrap();
        rec.finish()
    }

    #[test]
    fn quota_checks_fire_in_field_order() {
        let quota = TenantQuota::default()
            .with_max_in_flight(2)
            .with_max_queued_steps(10)
            .with_max_queued_bytes(1000);
        let ledger = TenantLedger {
            in_flight: 2,
            queued_steps: 0,
            queued_bytes: 0,
        };
        assert!(matches!(
            ledger.admit(&quota, 1, 1),
            Err(Rejected::QuotaExceeded {
                quota: "in_flight_jobs",
                ..
            })
        ));
        let ledger = TenantLedger {
            in_flight: 0,
            queued_steps: 8,
            queued_bytes: 0,
        };
        assert!(matches!(
            ledger.admit(&quota, 3, 1),
            Err(Rejected::QuotaExceeded {
                quota: "queued_steps",
                ..
            })
        ));
        let ledger = TenantLedger {
            in_flight: 0,
            queued_steps: 0,
            queued_bytes: 999,
        };
        assert!(matches!(
            ledger.admit(&quota, 1, 2),
            Err(Rejected::QuotaExceeded {
                quota: "queued_bytes",
                ..
            })
        ));
        assert!(ledger.admit(&quota, 1, 1).is_ok());
    }

    #[test]
    fn input_bytes_count_captured_operands_once() {
        let plan = small_plan();
        // Two distinct inputs (A doubles as B via interning, C): each
        // 16x16 f32.
        assert_eq!(plan_input_bytes(&plan), 2 * 16 * 16 * 4);
    }

    #[test]
    fn well_formed_plans_validate() {
        assert!(validate_plan(&small_plan()).is_ok());
    }

    #[test]
    fn empty_plans_are_malformed() {
        let mut be = TiledBackend::new();
        let plan = PlanBuilder::over(&mut be).finish();
        assert!(matches!(
            validate_plan(&plan),
            Err(Rejected::Malformed { .. })
        ));
    }
}
