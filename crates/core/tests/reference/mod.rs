//! Frozen reference implementations of the buffer storage — test code,
//! never part of the shipped library.
//!
//! The shipped designs keep their state in two storage engines laid out
//! for the simulator's hot path: the ring store (FIFO, SAMQ, SAFC) and
//! `SoaSlots` (DAMQ, DAFC). This module keeps the implementations those
//! engines replaced, one type per design — `VecDeque`s of per-packet
//! structs, and the linked-node [`SlotPool`] — as executable
//! specifications, so that every storage-layout change has something to be
//! diffed against:
//!
//! * `crates/core/tests/soa_equivalence.rs` drives each shipped design and
//!   its twin (and `SoaSlots` and `SlotPool`) through the same seeded
//!   operation streams;
//! * `crates/net/tests/dispatch_equivalence.rs` (which includes this
//!   directory by `#[path]`) runs whole simulations through
//!   `NetworkSim::<AosDamqBuffer>::typed(..)` and demands byte-identical
//!   fingerprints against the shipped design, faulted runs included;
//! * `crates/core/tests/reference_self.rs` holds the twins' own unit
//!   tests.
//!
//! Like the shipped designs, the twins audit themselves after every
//! mutating operation when the including crate is built with
//! `strict-audit`.
//!
//! The twins see only the public API: they implement `SwitchBuffer` and
//! `BuildBuffer` like any out-of-crate buffer would.

// Each including suite uses a different subset of the twins.
#![allow(dead_code, unused_imports)]

/// Returns an `AuditError` from the enclosing function unless `cond` holds
/// (the twin of `damq-core`'s crate-internal macro).
macro_rules! audit_ensure {
    ($cond:expr, $invariant:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(damq_core::AuditError::new($invariant, format!($($arg)+)));
        }
    };
}

/// Runs a full `audit()` on `$subject` after a mutating operation when the
/// including crate is built with `strict-audit` (the twin of `damq-core`'s
/// crate-internal macro; `damq-net`'s feature of that name forwards to it).
macro_rules! strict_audit {
    ($subject:expr) => {
        #[cfg(feature = "strict-audit")]
        {
            if let Err(e) = $subject.audit() {
                panic!("strict-audit: {e}");
            }
        }
    };
}

mod aos;
mod slots;

pub use aos::{AosDafcBuffer, AosDamqBuffer, AosFifoBuffer, AosSafcBuffer, AosSamqBuffer};
pub use slots::SlotPool;
