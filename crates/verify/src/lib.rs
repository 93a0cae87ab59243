//! Exhaustive verification of the buffer implementations (`damq-verify`).
//!
//! The simulators in this workspace exercise the buffer designs
//! statistically; this crate verifies them *exhaustively* on the smallest
//! interesting configuration — a 2×2 discarding switch with a tiny buffer,
//! the same setting as the paper's §4.1 Markov analysis:
//!
//! * [`Spec`] is a trivially-correct reference model of each design
//!   (a FIFO is a literal destination sequence, a multi-queue is a pair of
//!   counts), with crossbar arbitration mirroring `damq-markov`.
//! * [`check`] runs a breadth-first search over every reachable joint
//!   buffer state, cross-checking the real `damq-core` implementation
//!   against the spec at every operation: accept/reject agreement,
//!   observable state agreement, structural audits
//!   ([`SwitchBuffer::audit`](damq_core::SwitchBuffer::audit)) after every
//!   enqueue/dequeue, per-cycle packet conservation and deadlock freedom.
//!
//! The `model_check` binary runs the whole matrix (five kinds × two buffer
//! sizes) and exits nonzero on any violation; `scripts/check.sh` wires it
//! into CI. See `docs/VERIFICATION.md` for the invariant catalogue.
//!
//! # Examples
//!
//! ```
//! use damq_core::BufferKind;
//!
//! let report = damq_verify::check(BufferKind::Damq, 2)?;
//! assert!(report.states > 1);
//! # Ok::<(), Box<damq_verify::Violation>>(())
//! ```

#![deny(missing_docs)]

mod checker;
mod spec;

pub use checker::{check, check_with_factory, CheckReport, CheckResult, Violation};
pub use spec::{MoveSet, RefInput, Spec, SpecState};
