//! The unified backend error type.
//!
//! Backends can fail four ways: the operands do not fit together
//! ([`ShapeError`]), the ISA-level engine faulted ([`ExecError`]), an
//! ABFT check caught a silently corrupted result ([`AbftViolation`]), or
//! a parallel worker panicked and was contained
//! ([`BackendError::WorkerPanic`]). [`BackendError`] folds all four into
//! one type so the solver and application layers propagate every
//! failure without panicking — a worker panic surfaces as an `Err`,
//! never as a process abort.

use std::fmt;

use simd2_fault::AbftViolation;
use simd2_isa::ExecError;
use simd2_matrix::ShapeError;
use simd2_semiring::OpKind;

/// Any failure a [`Backend`](crate::Backend) can report.
#[derive(Clone, Debug, PartialEq)]
pub enum BackendError {
    /// Operand shapes are incompatible.
    Shape(ShapeError),
    /// The ISA-level executor faulted (bad address, bad program, …).
    Exec(ExecError),
    /// An ABFT check detected a silently corrupted result.
    Corruption {
        /// The operation whose result failed verification.
        op: OpKind,
        /// The invariant that failed.
        violation: AbftViolation,
    },
    /// A panel worker panicked during parallel execution; the panic was
    /// contained (remaining workers drained cleanly) and surfaces here
    /// instead of aborting the process.
    WorkerPanic {
        /// Index of the panel whose worker panicked.
        panel: usize,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Shape(e) => write!(f, "shape error: {e}"),
            BackendError::Exec(e) => write!(f, "execution fault: {e}"),
            BackendError::Corruption { op, violation } => {
                write!(f, "silent corruption in {op}: {violation}")
            }
            BackendError::WorkerPanic { panel, payload } => {
                write!(f, "worker panic in panel {panel}: {payload}")
            }
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Shape(e) => Some(e),
            BackendError::Exec(e) => Some(e),
            BackendError::Corruption { violation, .. } => Some(violation),
            BackendError::WorkerPanic { .. } => None,
        }
    }
}

impl From<ShapeError> for BackendError {
    fn from(e: ShapeError) -> Self {
        BackendError::Shape(e)
    }
}

impl From<ExecError> for BackendError {
    fn from(e: ExecError) -> Self {
        match e {
            // The executor's own ABFT detections surface uniformly with
            // backend-level ones.
            ExecError::SilentCorruption { op, violation, .. } => {
                BackendError::Corruption { op, violation }
            }
            other => BackendError::Exec(other),
        }
    }
}

impl BackendError {
    /// Whether this error is a transient-fault detection (retryable) as
    /// opposed to a structural error that retrying cannot fix.
    pub fn is_corruption(&self) -> bool {
        matches!(self, BackendError::Corruption { .. })
    }

    /// Whether this error is a contained worker panic — recoverable by
    /// re-executing the operation on a sequential schedule.
    pub fn is_worker_panic(&self) -> bool {
        matches!(self, BackendError::WorkerPanic { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_fault::AbftViolation;

    #[test]
    fn conversions_and_display() {
        let s: BackendError = ShapeError::new("A", (2, 2), (3, 3)).into();
        assert!(matches!(s, BackendError::Shape(_)));
        assert!(s.to_string().contains("shape error"));
        assert!(!s.is_corruption());

        let x: BackendError = ExecError::OutOfBounds {
            addr: 9,
            last: 12,
            size: 4,
        }
        .into();
        assert!(matches!(x, BackendError::Exec(_)));

        let c: BackendError = ExecError::SilentCorruption {
            op: OpKind::MinPlus,
            mmo_index: 3,
            violation: AbftViolation::NonFinite {
                op: OpKind::MinPlus,
                row: 0,
                col: 0,
                value: f32::NAN,
            },
        }
        .into();
        assert!(c.is_corruption());
        assert!(c.to_string().contains("silent corruption"));

        let w = BackendError::WorkerPanic {
            panel: 2,
            payload: "boom".into(),
        };
        assert!(w.is_worker_panic());
        assert!(!w.is_corruption());
        assert!(w.to_string().contains("worker panic in panel 2"));
        use std::error::Error;
        assert!(w.source().is_none());
    }
}
