//! Machine-checkable invariant audits over the buffer structures.
//!
//! The DAMQ mechanism is pure pointer-register bookkeeping (§3.1: per-slot
//! `next` registers, per-queue head/tail registers, a shared free list).
//! A silent corruption there does not crash — it produces plausible but
//! wrong Table 2 / Figure 3 numbers. The audits in this module turn the
//! bookkeeping contract into a checked property:
//!
//! * every slot is on exactly one list (free or some queue) — the lists
//!   **partition** the storage,
//! * no list contains a cycle,
//! * every head/tail/`slot_count`/`packet_count` register agrees with the
//!   links it summarises,
//! * multi-slot packets occupy contiguous runs of their queue list.
//!
//! Violations are reported as [`AuditError`] values rather than panics so
//! the exhaustive model checker (`damq-verify`) can count and attribute
//! them. The [`SwitchBuffer::check_invariants`] bridge panics on `Err` for
//! assert-style use in tests.
//!
//! With the `strict-audit` cargo feature enabled, a full audit runs after
//! **every** enqueue and dequeue on every buffer — expensive (each audit
//! walks all lists) but it pins a corruption to the exact operation that
//! introduced it. Without the feature only cheap O(1) debug assertions
//! remain on the hot paths.
//!
//! [`SwitchBuffer::check_invariants`]: crate::SwitchBuffer::check_invariants

use std::error::Error;
use std::fmt;

/// A violated structural invariant, reported by an `audit()` pass.
///
/// Carries the short name of the invariant that failed (stable, suitable
/// for grouping in the model checker) and a human-readable detail naming
/// the offending slot/queue/register.
///
/// # Examples
///
/// ```
/// use damq_core::AuditError;
///
/// let e = AuditError::new("list-partition", "slot slot3 appears on two lists");
/// assert_eq!(e.invariant(), "list-partition");
/// assert!(e.to_string().contains("slot3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    invariant: &'static str,
    detail: String,
}

impl AuditError {
    /// Creates an audit error for `invariant` with a human-readable detail.
    pub fn new(invariant: &'static str, detail: impl Into<String>) -> Self {
        AuditError {
            invariant,
            detail: detail.into(),
        }
    }

    /// Short stable name of the violated invariant (e.g. `"list-partition"`).
    pub fn invariant(&self) -> &'static str {
        self.invariant
    }

    /// Human-readable description of the violation.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant '{}' violated: {}",
            self.invariant, self.detail
        )
    }
}

impl Error for AuditError {}

/// Returns an [`AuditError`] from the enclosing function unless `cond`
/// holds. Crate-internal: the audit implementations use it the way tests
/// use `assert!`.
macro_rules! audit_ensure {
    ($cond:expr, $invariant:expr, $($arg:tt)+) => {
        if !$cond {
            return Err($crate::audit::AuditError::new($invariant, format!($($arg)+)));
        }
    };
}

/// Runs a full `audit()` on `$subject` after a mutating operation when the
/// `strict-audit` feature is on; compiles to nothing otherwise.
///
/// Panicking (rather than propagating) is deliberate: the audit sits on
/// infallible-by-contract paths, and under `strict-audit` a violation must
/// stop the run at the operation that introduced it.
macro_rules! strict_audit {
    ($subject:expr) => {
        #[cfg(feature = "strict-audit")]
        if let Err(e) = $subject.audit() {
            $crate::audit::strict_audit_failed(e);
        }
    };
}

/// The panic [`strict_audit!`] raises, outside the macro so that the
/// no-panic lint sees it and its waiver.
#[cfg(feature = "strict-audit")]
#[track_caller]
#[expect(clippy::panic, reason = "strict-audit fails fast at the corruption")]
pub(crate) fn strict_audit_failed(e: AuditError) -> ! {
    panic!("strict-audit: {e}")
}

pub(crate) use audit_ensure;
pub(crate) use strict_audit;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_carries_invariant_and_detail() {
        let e = AuditError::new("register-sync", "queue 2: slot_count register disagrees");
        assert_eq!(e.invariant(), "register-sync");
        assert!(e.detail().contains("queue 2"));
        let shown = e.to_string();
        assert!(shown.contains("register-sync") && shown.contains("queue 2"));
    }

    #[test]
    fn audit_ensure_passes_and_fails() {
        fn check(x: usize) -> Result<(), AuditError> {
            audit_ensure!(x < 10, "bound", "x = {x} out of range");
            Ok(())
        }
        assert!(check(3).is_ok());
        let e = check(12).unwrap_err();
        assert_eq!(e.invariant(), "bound");
        assert!(e.detail().contains("12"));
    }
}
