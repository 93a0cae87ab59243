//! # damq — multi-queue buffers for VLSI communication switches
//!
//! A full reproduction of *Tamir & Frazier, "High-Performance Multi-Queue
//! Buffers for VLSI Communication Switches", ISCA 1988* — the paper that
//! introduced the **dynamically-allocated multi-queue (DAMQ) buffer**, the
//! input-buffer organisation that later became standard in switch and
//! network-on-chip design.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`buffers`] | `damq-core` | the four buffer designs (FIFO, SAMQ, SAFC, DAMQ) behind one trait |
//! | [`switch`] | `damq-switch` | n×n switch: crossbar, dumb/smart arbitration, flow control |
//! | [`markov`] | `damq-markov` | Markov analysis of 2×2 discarding switches (paper Table 2) |
//! | [`net`] | `damq-net` | 64×64 Omega-network simulator (paper Tables 3–6, Figure 3) |
//! | [`microarch`] | `damq-microarch` | cycle-accurate ComCoBB chip model (paper §3, Table 1) |
//!
//! # Quick start
//!
//! Measure the paper's headline result — a network of 4×4 DAMQ switches
//! saturates at ~40% higher throughput than the same network with FIFO
//! buffers of equal storage:
//!
//! ```no_run
//! use damq::buffers::BufferKind;
//! use damq::net::{find_saturation, NetworkConfig, SaturationOptions};
//!
//! let cfg = NetworkConfig::new(64, 4).slots_per_buffer(4);
//! let fifo = find_saturation(cfg.buffer_kind(BufferKind::Fifo), SaturationOptions::default())?;
//! let damq = find_saturation(cfg.buffer_kind(BufferKind::Damq), SaturationOptions::default())?;
//! assert!(damq.throughput > 1.3 * fifo.throughput);
//! # Ok::<(), damq::net::NetworkError>(())
//! ```
//!
//! Or work with a buffer directly:
//!
//! ```
//! use damq::prelude::*;
//!
//! let mut buf = DamqBuffer::new(BufferConfig::new(4, 4))?;
//! let packet = Packet::builder(NodeId::new(0), NodeId::new(9)).build();
//! buf.try_enqueue(OutputPort::new(2), packet)?;
//! assert_eq!(buf.queue_len(OutputPort::new(2)), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `damq-bench` crate regenerates every table and figure of the paper;
//! see the repository README and EXPERIMENTS.md.

#![deny(missing_docs)]

/// Buffer structures: FIFO, SAMQ, SAFC and DAMQ (re-export of `damq-core`).
pub mod buffers {
    pub use damq_core::*;
}

/// n×n switch model: crossbar, arbiters, flow control (re-export of
/// `damq-switch`).
pub mod switch {
    pub use damq_switch::*;
}

/// Markov-chain analysis of 2×2 discarding switches (re-export of
/// `damq-markov`).
pub mod markov {
    pub use damq_markov::*;
}

/// Omega multistage network simulator (re-export of `damq-net`).
pub mod net {
    pub use damq_net::*;
}

/// Cycle-accurate ComCoBB chip model (re-export of `damq-microarch`).
pub mod microarch {
    pub use damq_microarch::*;
}

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use damq_core::{
        BufferConfig, BufferKind, DamqBuffer, FifoBuffer, InputPort, NodeId, OutputPort, Packet,
        SafcBuffer, SamqBuffer, SwitchBuffer,
    };
    pub use damq_net::{
        find_saturation, measure, NetworkConfig, NetworkSim, SaturationOptions, TrafficPattern,
    };
    pub use damq_switch::{ArbiterPolicy, FlowControl, Switch, SwitchConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_modules_resolve() {
        // Touch one item per module so a broken re-export fails to compile.
        let _ = crate::buffers::BufferKind::Damq;
        let _ = crate::switch::ArbiterPolicy::Smart;
        let _ = crate::markov::SolveOptions::default();
        let _ = crate::net::CLOCKS_PER_CYCLE;
        let _ = crate::microarch::COMCOBB_PORTS;
    }
}
