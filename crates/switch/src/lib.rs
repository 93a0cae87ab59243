//! n×n switch model built on the buffer designs of [`damq_core`].
//!
//! A [`Switch`] couples one input buffer per port (any of the four designs:
//! FIFO, SAMQ, SAFC, DAMQ) with a crossbar — one bit per output, set when
//! the output is granted — and a central [`Arbiter`] implementing the
//! paper's *dumb* and *smart* round-robin policies. The
//! host (a network simulator, or a test) drives the switch one cycle at a
//! time: arriving packets go in through [`Switch::receive`], and
//! [`Switch::transmit_cycle_with`] performs arbitration and hands the
//! departing packets to the host's [`CycleSink`].
//!
//! Flow control ([`FlowControl`]) is a property of the *network* protocol,
//! not of the switch, and [`SwitchConfig`] holds no setting for it: a
//! blocking network only lets a switch transmit into downstream space,
//! which the host expresses through [`CycleSink::can_send`]; a discarding
//! network always lets packets fly and drops those that find a full
//! buffer.
//!
//! One cycle of a switch is a pure function of its own state and the
//! `can_send` answers (see the determinism note on
//! [`Switch::transmit_cycle_with`]), so a host may arbitrate a whole stage
//! against a frozen downstream stage and apply the departures afterwards
//! — `damq-net`'s cycle loop does exactly that.
//!
//! # Examples
//!
//! Two packets for different outputs leave a DAMQ switch in one cycle:
//!
//! ```
//! use damq_core::{BufferKind, FrontMeta, InputPort, NodeId, OutputPort, Packet};
//! use damq_switch::{CycleSink, Switch, SwitchConfig};
//!
//! /// Lets every head go and counts the departures.
//! struct Count(usize);
//!
//! impl CycleSink for Count {
//!     fn can_send(&mut self, _: OutputPort, _: FrontMeta) -> bool {
//!         true
//!     }
//!     fn depart(&mut self, _: InputPort, _: OutputPort, _: Packet) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let mut sw = Switch::new(SwitchConfig::new(4).buffer_kind(BufferKind::Damq))?;
//! let mk = |s| Packet::builder(NodeId::new(s), NodeId::new(0)).build();
//! sw.receive(InputPort::new(0), OutputPort::new(1), mk(0))?;
//! sw.receive(InputPort::new(2), OutputPort::new(3), mk(1))?;
//! let mut sent = Count(0);
//! sw.transmit_cycle_with(&mut sent);
//! assert_eq!(sent.0, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Library code returns errors instead of panicking, and leaves stdout and
// stderr to the binaries; a justified exception is an `#[expect]` at the site.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

mod arbiter;
mod bits;
mod config;
mod flow;
mod switch;

pub use arbiter::{Arbiter, ArbiterPolicy, Rank};
pub use config::SwitchConfig;
pub use flow::FlowControl;
pub use switch::{CycleSink, Switch};

/// Ports whose per-port state a switch holds inline (see
/// [`damq_core::InlineArray`]): radix 4, the largest the paper and every
/// committed experiment use. Wider switches spill each array to one heap
/// block and behave identically.
const INLINE_PORTS: usize = 4;
/// Inline bound of the flat ports x ports matrices.
const INLINE_MATRIX: usize = INLINE_PORTS * INLINE_PORTS;
