//! Cycle-accurate behavioural model of the ComCoBB communication
//! coprocessor (paper §3).
//!
//! The UCLA ComCoBB ("Communication Coprocessor Building-Block") chip is
//! the original home of the DAMQ buffer: four network ports plus a
//! processor interface joined by a 5×5 crossbar, with an 8-byte-slot
//! linked-list buffer, a virtual-circuit router and three cooperating FSMs
//! per port, clocked at 20 MHz in two phases.
//!
//! This crate models that micro-architecture at clock-cycle granularity:
//!
//! * [`LinkedSlotBuffer`] — the slotted storage with pointer registers,
//!   head/tail registers, free list, length and new-header registers;
//! * [`RoutingTable`] — the per-port virtual-circuit table;
//! * [`Chip`] — ports, receiver/transmitter FSMs, central arbiter and
//!   two-phase clock;
//! * [`Trace`] — cycle/phase event log used to reproduce the paper's
//!   **Table 1**, virtual cut-through with a four-cycle turn-around.
//!
//! # Examples
//!
//! ```
//! use damq_microarch::{Chip, ChipConfig, RouteEntry};
//!
//! let mut chip = Chip::new(ChipConfig::comcobb());
//! chip.program_route(0, 0x10, RouteEntry { output: 1, new_header: 0x11 })?;
//! chip.input_wire_mut(0).drive_packet(0, 0x10, &[0xDE, 0xAD]);
//! chip.run_to_quiescence(50);
//!
//! // The start bit left 4 cycles after it arrived: virtual cut-through.
//! assert_eq!(chip.output_log(1).start_bit_cycles(), vec![4]);
//! # Ok::<(), damq_microarch::MicroarchError>(())
//! ```

#![deny(missing_docs)]

mod arbiter;
mod chip;
mod error;
mod link;
mod ports;
mod router;
mod slotbuf;
mod trace;

pub use chip::{Chip, ChipConfig, COMCOBB_PORTS, PROCESSOR_PORT};
pub use error::MicroarchError;
pub use link::{InputWire, LinkSymbol, OutputLog};
pub use router::{RouteEntry, RoutingTable};
pub use slotbuf::{LinkedSlotBuffer, ReadOutcome, WriteOutcome, DEFAULT_SLOTS, SLOT_BYTES};
pub use trace::{ChipEvent, Phase, Trace, TraceEvent};

mod message;
mod system;

pub use message::{segment_message, MessageReassembler, MAX_MESSAGE_BYTES, MAX_PACKET_DATA};
pub use system::{NodeIndex, System};
