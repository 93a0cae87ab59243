//! Markov-chain analysis of 2×2 discarding switches (paper §4.1).
//!
//! This crate contains a small, self-contained discrete-time Markov chain
//! engine — state-space exploration ([`Chain`]), CSR sparse matrices
//! ([`CsrMatrix`]) and a restarted-GMRES steady-state solver
//! ([`steady_state`]; Gauss–Seidel is the second opinion) — plus models of
//! a 2×2 discarding switch for each of the four buffer designs of
//! [`damq_core`]. The 2×2 chain is lumped by the switch's symmetry:
//! [`Switch2x2`]'s states are orbits of joint occupancies under exchanging
//! the inputs and the outputs, about a quarter as many, with the same
//! stationary answers.
//!
//! The engine does not allocate per state or per iteration: states are
//! `Copy` words, a model hands its transitions to a visitor
//! ([`MarkovModel::for_each_transition`]), the explorer finishes each
//! matrix row as it expands the state, the default solver takes its
//! products over those rows into buffers it allocates once per solve, and
//! Gauss–Seidel gathers over one flat column view ([`Columns`]) — see
//! `docs/PERFORMANCE.md`, "The Markov layer", for the ledger.
//!
//! The headline API is [`discard_probability`], which computes one cell of
//! the paper's Table 2: the probability that a packet arriving at a 2×2
//! switch with the given buffer design, buffer size and traffic level is
//! discarded.
//!
//! # Examples
//!
//! DAMQ with 3 slots discards no more than FIFO with 6 (one of the paper's
//! headline claims):
//!
//! ```
//! use damq_core::BufferKind;
//! use damq_markov::{discard_probability, CycleOrder, SolveOptions};
//!
//! let damq3 = discard_probability(
//!     BufferKind::Damq, 3, 0.95, CycleOrder::default(), SolveOptions::default())?;
//! let fifo6 = discard_probability(
//!     BufferKind::Fifo, 6, 0.95, CycleOrder::default(), SolveOptions::default())?;
//! assert!(damq3.discard_probability <= fifo6.discard_probability);
//! # Ok::<(), damq_markov::AnalysisError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chain;
mod dafc_model;
mod damq_model;
mod discard;
mod fifo_model;
mod safc_model;
mod samq_model;
mod solve;
mod sparse;
mod switch2x2;
mod switch_kxk;

pub use chain::{Chain, FxHashMap, FxHasher, MarkovModel, Reward, Transition};
pub use dafc_model::DafcModel;
pub use damq_model::DamqModel;
pub use discard::{discard_probability, AnalysisError, DiscardPoint};
pub use fifo_model::{FifoModel, FifoState};
pub use safc_model::SafcModel;
pub use samq_model::SamqModel;
pub use solve::{steady_state, steady_state_gauss_seidel, SolveError, SolveOptions, SteadyState};
pub use sparse::{Columns, CsrMatrix};
pub use switch2x2::{BufferModel2x2, CycleOrder, Switch2x2};
pub use switch_kxk::{discard_probability_kxk, kxk_supported_kinds, SwitchKxK};
