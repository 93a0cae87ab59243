//! Omega-network simulator for evaluating switch-buffer designs.
//!
//! This crate reproduces the evaluation vehicle of the paper's §4.2: a
//! 64×64 **Omega network** of 4×4 switches (three stages of sixteen),
//! simulated synchronously with packets advancing one stage per 12-clock
//! network cycle, under uniform or hot-spot traffic, with blocking or
//! discarding flow control, and any of the four buffer designs from
//! [`damq_core`].
//!
//! * [`OmegaTopology`] — perfect-shuffle wiring and destination-digit
//!   routing for any `k^n` configuration.
//! * [`TrafficPattern`] — uniform, hot-spot (Pfister & Norton) and
//!   permutation workloads.
//! * [`NetworkSim`] / [`NetworkConfig`] — the cycle-driven simulator
//!   (see `docs/ARCHITECTURE.md` for the cycle loop).
//! * [`measure`] — warm-up + measurement-window runs.
//! * [`find_saturation`] — bisection search for the saturation throughput
//!   (the paper's headline metric).
//!
//! # Examples
//!
//! The headline experiment — DAMQ's saturation advantage over FIFO:
//!
//! ```no_run
//! use damq_core::BufferKind;
//! use damq_net::{find_saturation, NetworkConfig, SaturationOptions};
//!
//! let cfg = NetworkConfig::new(64, 4).slots_per_buffer(4);
//! let fifo = find_saturation(cfg.buffer_kind(BufferKind::Fifo), SaturationOptions::default())?;
//! let damq = find_saturation(cfg.buffer_kind(BufferKind::Damq), SaturationOptions::default())?;
//! println!("FIFO saturates at {:.2}, DAMQ at {:.2}", fifo.throughput, damq.throughput);
//! assert!(damq.throughput >= 1.3 * fifo.throughput);
//! # Ok::<(), damq_net::NetworkError>(())
//! ```

#![deny(missing_docs)]

mod butterfly;
mod metrics;
mod network;
mod runner;
mod saturation;
pub mod theory;
mod topology;
mod traffic;

pub use butterfly::ButterflyTopology;
pub use metrics::{Accumulator, Counters, Histogram, NetMetrics, CLOCKS_PER_CYCLE};
pub use network::{
    ArrivalProcess, NetworkConfig, NetworkError, NetworkSim, PacketLengths, PhaseProfile,
    RecoveryConfig,
};
pub use runner::{measure, measure_with_faults, Measurement};
pub use saturation::{find_saturation, SaturationOptions, SaturationResult};
pub use topology::{HopRoute, OmegaTopology, RoutePlan, Topology, TopologyError, TopologyKind};
pub use traffic::TrafficPattern;
