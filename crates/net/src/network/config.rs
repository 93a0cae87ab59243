//! Experiment description: what network to build and how to load it.
//!
//! [`NetworkConfig`] (with its arrival process, packet-length
//! distribution and [`RecoveryConfig`]) is plain `Copy` data validated at
//! the builder methods; [`NetworkError`] is what construction returns when
//! the topology or buffer shape is rejected. Nothing here steps a cycle —
//! the cycle loop reads this once at construction and per cycle through
//! `pub(super)` fields.

use rand::Rng;

use damq_core::{BufferKind, ConfigError, Packet, DEFAULT_SLOT_BYTES};
use damq_switch::{ArbiterPolicy, FlowControl};

use crate::topology::{TopologyError, TopologyKind};
use crate::traffic::TrafficPattern;

/// How packet arrivals are timed at each source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Independent Bernoulli arrivals at the offered load each cycle (the
    /// paper's traffic model).
    Bernoulli,
    /// Two-state Markov-modulated (on/off) sources: bursts of back-to-back
    /// generation separated by silences. The long-run mean rate still
    /// equals the configured offered load; burstiness redistributes it.
    OnOff {
        /// Mean burst (ON-state) duration in cycles (≥ 1).
        mean_burst: f64,
        /// Long-run fraction of time spent ON, in (0, 1]. While ON the
        /// source generates with probability `load / duty` per cycle
        /// (clamped to 1), so smaller duty means denser bursts.
        duty: f64,
    },
}

/// How packet payload lengths are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketLengths {
    /// Every packet carries exactly this many bytes (the paper's simulation
    /// assumption; 8 bytes = one slot).
    Fixed(usize),
    /// Lengths drawn uniformly from `min..=max` bytes (the variable-length
    /// workload the DAMQ buffer was designed for; see paper §5).
    Uniform {
        /// Smallest payload in bytes.
        min: usize,
        /// Largest payload in bytes.
        max: usize,
    },
}

impl PacketLengths {
    pub(super) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match *self {
            PacketLengths::Fixed(bytes) => bytes,
            PacketLengths::Uniform { min, max } => rng.random_range(min..=max),
        }
    }

    /// Whether every length this distribution draws is a packet a
    /// buffer of `slots_per_buffer` slots can hold: the range is
    /// non-empty and inside `1..=`[`Packet::MAX_LENGTH_BYTES`], and the
    /// longest packet fits an empty buffer (else, under blocking flow
    /// control, it waits at its source forever).
    pub(super) fn drawable(&self, slots_per_buffer: usize) -> bool {
        let (min, max) = match *self {
            PacketLengths::Fixed(bytes) => (bytes, bytes),
            PacketLengths::Uniform { min, max } => (min, max),
        };
        (1..=max).contains(&min)
            && max <= Packet::MAX_LENGTH_BYTES
            && max.div_ceil(DEFAULT_SLOT_BYTES) <= slots_per_buffer
    }
}

/// Error constructing a [`NetworkSim`](super::NetworkSim).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetworkError {
    /// The topology dimensions are invalid.
    Topology(TopologyError),
    /// The per-switch buffer configuration is invalid.
    Buffer(ConfigError),
    /// The packet-length distribution is empty, draws a length outside
    /// `1..=`[`Packet::MAX_LENGTH_BYTES`], or draws a packet longer than
    /// one whole buffer.
    PacketLengths(PacketLengths),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Topology(e) => write!(f, "topology: {e}"),
            NetworkError::Buffer(e) => write!(f, "buffer: {e}"),
            NetworkError::PacketLengths(lengths) => write!(
                f,
                "packet lengths {lengths:?}: need 1 <= min <= max <= {} bytes, and the longest \
                 packet must fit one buffer",
                Packet::MAX_LENGTH_BYTES
            ),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Topology(e) => Some(e),
            NetworkError::Buffer(e) => Some(e),
            NetworkError::PacketLengths(_) => None,
        }
    }
}

impl From<TopologyError> for NetworkError {
    fn from(e: TopologyError) -> Self {
        NetworkError::Topology(e)
    }
}

impl From<ConfigError> for NetworkError {
    fn from(e: ConfigError) -> Self {
        NetworkError::Buffer(e)
    }
}

/// Closed-loop recovery configuration: link-level retransmission and
/// fault-adaptive (deflection) rerouting.
///
/// Disabled by default — a `NetworkSim` without recovery behaves exactly
/// as before this subsystem existed. All timers are **simulated network
/// cycles**, never wall clock, so recovery is seed-stable.
///
/// # Examples
///
/// ```
/// use damq_net::{NetworkConfig, RecoveryConfig};
///
/// let cfg = NetworkConfig::new(64, 4).recovery(RecoveryConfig::enabled());
/// assert!(cfg.recovery_config().retransmit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Park packets lost to flapped links or checksum-caught corruption
    /// in a bounded per-hop retransmit buffer and resend them after a
    /// deterministic cycle-count timeout.
    pub retransmit: bool,
    /// Retransmit-buffer depth per hop (parked packets per link). A
    /// loss on a hop whose buffer is full gives the packet up
    /// immediately.
    pub retransmit_slots: usize,
    /// Resend attempts before a parked packet is given up
    /// (`net.retry_exhausted`, `gave_up` telemetry).
    pub max_retries: u32,
    /// Cycles from a loss (or failed resend) to the next resend attempt,
    /// before backoff scaling.
    pub base_timeout: u64,
    /// Cap on the exponential backoff: attempt `n` waits
    /// `base_timeout << min(n, max_backoff_exp)` cycles.
    pub max_backoff_exp: u32,
    /// Deflect packets through the route plan's alternate output when
    /// the primary output's link is down or its downstream queue is
    /// saturated (misroute-on-block; the deflection is corrected by
    /// end-to-end retransmission at the wrong sink).
    pub adaptive: bool,
    /// Deflections allowed per packet — bounds deliberate misrouting so
    /// every packet keeps making progress toward *some* sink.
    pub misroute_budget: u8,
    /// Cycles between a link fault striking and recovery's link-health
    /// state believing it (routing reacts within this window).
    pub detection_window: u64,
}

impl RecoveryConfig {
    /// No recovery: losses are final, routing never deflects (the
    /// drop-only behaviour of the plain fault model).
    pub fn disabled() -> Self {
        RecoveryConfig {
            retransmit: false,
            retransmit_slots: 0,
            max_retries: 0,
            base_timeout: 0,
            max_backoff_exp: 0,
            adaptive: false,
            misroute_budget: 0,
            detection_window: 0,
        }
    }

    /// Retransmission and adaptive rerouting both on, with defaults
    /// sized for the paper's 64-terminal network: 8 retransmit slots
    /// per hop, 8 resend attempts starting 4 cycles after a loss with
    /// backoff capped at `4 << 5` cycles, a misroute budget of 2
    /// deflections per packet, and a 2-cycle fault-detection window.
    pub fn enabled() -> Self {
        RecoveryConfig {
            retransmit: true,
            retransmit_slots: 8,
            max_retries: 8,
            base_timeout: 4,
            max_backoff_exp: 5,
            adaptive: true,
            misroute_budget: 2,
            detection_window: 2,
        }
    }

    /// Whether any recovery mechanism is on.
    pub fn active(&self) -> bool {
        self.retransmit || self.adaptive
    }

    /// The resend delay after `attempts` failed attempts:
    /// `base_timeout << min(attempts, max_backoff_exp)`, floored at one
    /// cycle so a zero configuration cannot spin.
    pub(super) fn backoff(&self, attempts: u32) -> u64 {
        let exp = attempts.min(self.max_backoff_exp).min(32);
        self.base_timeout.max(1).saturating_mul(1u64 << exp)
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Full description of a network experiment.
///
/// Defaults reproduce the paper's Omega setup: 64 terminals, 4×4 switches,
/// DAMQ buffers of 4 slots, smart arbitration, blocking protocol, uniform
/// traffic, fixed one-slot packets.
///
/// # Examples
///
/// ```
/// use damq_core::BufferKind;
/// use damq_net::{NetworkConfig, NetworkSim};
///
/// let mut sim = NetworkSim::new(
///     NetworkConfig::new(64, 4)
///         .buffer_kind(BufferKind::Fifo)
///         .offered_load(0.4)
///         .seed(7),
/// )?;
/// sim.run(100);
/// assert!(sim.metrics().delivered() > 0);
/// # Ok::<(), damq_net::NetworkError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    pub(super) size: usize,
    pub(super) radix: usize,
    pub(super) topology_kind: TopologyKind,
    pub(super) buffer_kind: BufferKind,
    pub(super) slots_per_buffer: usize,
    pub(super) arbiter_policy: ArbiterPolicy,
    pub(super) flow_control: FlowControl,
    pub(super) pattern: TrafficPattern,
    pub(super) offered_load: f64,
    pub(super) packet_lengths: PacketLengths,
    pub(super) arrivals: ArrivalProcess,
    pub(super) recovery: RecoveryConfig,
    pub(super) seed: u64,
}

impl NetworkConfig {
    /// Starts a configuration for `size` terminals and `radix`×`radix`
    /// switches.
    pub fn new(size: usize, radix: usize) -> Self {
        NetworkConfig {
            size,
            radix,
            topology_kind: TopologyKind::Omega,
            buffer_kind: BufferKind::Damq,
            slots_per_buffer: 4,
            arbiter_policy: ArbiterPolicy::Smart,
            flow_control: FlowControl::Blocking,
            pattern: TrafficPattern::Uniform,
            offered_load: 0.5,
            packet_lengths: PacketLengths::Fixed(DEFAULT_SLOT_BYTES),
            arrivals: ArrivalProcess::Bernoulli,
            recovery: RecoveryConfig::disabled(),
            seed: 0xDA3B,
        }
    }

    /// Selects the recovery protocols (off by default; see
    /// [`RecoveryConfig`]).
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// The recovery configuration in use.
    pub fn recovery_config(&self) -> RecoveryConfig {
        self.recovery
    }

    /// Selects the MIN wiring (Omega by default; the paper's network).
    #[must_use]
    pub fn topology_kind(mut self, kind: TopologyKind) -> Self {
        self.topology_kind = kind;
        self
    }

    /// The MIN wiring in use.
    pub fn wiring(&self) -> TopologyKind {
        self.topology_kind
    }

    /// Selects the input-buffer design used by every switch.
    #[must_use]
    pub fn buffer_kind(mut self, kind: BufferKind) -> Self {
        self.buffer_kind = kind;
        self
    }

    /// Sets the storage per input buffer, in slots.
    #[must_use]
    pub fn slots_per_buffer(mut self, slots: usize) -> Self {
        self.slots_per_buffer = slots;
        self
    }

    /// Selects the crossbar arbitration policy.
    #[must_use]
    pub fn arbiter_policy(mut self, policy: ArbiterPolicy) -> Self {
        self.arbiter_policy = policy;
        self
    }

    /// Selects the flow-control protocol.
    #[must_use]
    pub fn flow_control(mut self, flow: FlowControl) -> Self {
        self.flow_control = flow;
        self
    }

    /// Selects the traffic pattern.
    #[must_use]
    pub fn traffic(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the offered load: probability each source generates a packet
    /// each cycle.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= load <= 1.0`.
    #[must_use]
    pub fn offered_load(mut self, load: f64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be a probability");
        self.offered_load = load;
        self
    }

    /// Selects the packet-length distribution.
    #[must_use]
    pub fn packet_lengths(mut self, lengths: PacketLengths) -> Self {
        self.packet_lengths = lengths;
        self
    }

    /// Selects the arrival process (Bernoulli by default).
    ///
    /// # Panics
    ///
    /// Panics if an on/off process has `mean_burst < 1` or `duty` outside
    /// `(0, 1]`.
    #[must_use]
    pub fn arrival_process(mut self, arrivals: ArrivalProcess) -> Self {
        if let ArrivalProcess::OnOff { mean_burst, duty } = arrivals {
            assert!(mean_burst >= 1.0, "bursts last at least one cycle");
            assert!(duty > 0.0 && duty <= 1.0, "duty is a fraction of time");
        }
        self.arrivals = arrivals;
        self
    }

    /// The arrival process in use.
    pub fn arrivals(&self) -> ArrivalProcess {
        self.arrivals
    }

    /// Seeds the traffic generator (same seed ⇒ identical run).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of terminals.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Buffer design in use.
    pub fn kind(&self) -> BufferKind {
        self.buffer_kind
    }

    /// Slots per input buffer.
    pub fn slots(&self) -> usize {
        self.slots_per_buffer
    }

    /// Arbitration policy in use.
    pub fn policy(&self) -> ArbiterPolicy {
        self.arbiter_policy
    }

    /// Flow-control protocol in use.
    pub fn flow(&self) -> FlowControl {
        self.flow_control
    }

    /// Traffic pattern in use.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// Offered load per source per cycle.
    pub fn load(&self) -> f64 {
        self.offered_load
    }

    /// Packet length distribution in use.
    pub fn lengths(&self) -> PacketLengths {
        self.packet_lengths
    }
}
