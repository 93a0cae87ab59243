//! Omega (perfect-shuffle) multistage network topology.
//!
//! An Omega network with `N = k^n` terminals is `n` identical stages, each a
//! perfect `k`-shuffle of the `N` lines followed by a column of `N/k`
//! `k`×`k` switches (Lawrie 1975). Routing is destination-digit: the switch
//! at stage `t` sends the packet out of the port named by the `t`-th
//! base-`k` digit of the destination address, most significant first.
//!
//! The paper's evaluation network is `OmegaTopology::new(64, 4)`: three
//! stages of sixteen 4×4 switches.

use std::cell::Cell;
use std::error::Error;
use std::fmt;

use damq_core::{InputPort, NodeId, OutputPort};

/// Error constructing an [`OmegaTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// The radix must be at least 2.
    RadixTooSmall,
    /// The radix exceeds what a [`RoutePlan`] can address: its tables hold
    /// ports as bytes.
    RadixTooLarge {
        /// Requested switch radix.
        radix: usize,
        /// Largest supported radix.
        max: usize,
    },
    /// The terminal count must be a power of the radix (and at least one
    /// stage's worth).
    SizeNotPowerOfRadix {
        /// Requested terminal count.
        size: usize,
        /// Requested switch radix.
        radix: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::RadixTooSmall => write!(f, "switch radix must be at least 2"),
            TopologyError::RadixTooLarge { radix, max } => write!(
                f,
                "switch radix {radix} exceeds {max}: route tables hold ports as bytes"
            ),
            TopologyError::SizeNotPowerOfRadix { size, radix } => {
                write!(
                    f,
                    "network size {size} is not a positive power of radix {radix}"
                )
            }
        }
    }
}

impl Error for TopologyError {}

/// Largest switch radix: a [`RoutePlan`] holds ports as bytes.
const MAX_RADIX: usize = 1 << u8::BITS;

/// Stages of a `size`-terminal multistage network of `radix`×`radix`
/// switches (`log_radix size`), or why there is no such network.
pub(crate) fn stage_count(size: usize, radix: usize) -> Result<usize, TopologyError> {
    if radix < 2 {
        return Err(TopologyError::RadixTooSmall);
    }
    if radix > MAX_RADIX {
        return Err(TopologyError::RadixTooLarge {
            radix,
            max: MAX_RADIX,
        });
    }
    let not_a_power = TopologyError::SizeNotPowerOfRadix { size, radix };
    let mut stages = 0;
    let mut n = 1usize;
    while n < size {
        // A size past the last power below `usize::MAX` is not a power.
        n = n.checked_mul(radix).ok_or(not_a_power)?;
        stages += 1;
    }
    if n != size || stages == 0 {
        return Err(not_a_power);
    }
    Ok(stages)
}

/// The wiring of an `N`-terminal Omega network built from `k`×`k` switches.
///
/// # Examples
///
/// ```
/// use damq_net::OmegaTopology;
///
/// let topo = OmegaTopology::new(64, 4)?;
/// assert_eq!(topo.stages(), 3);
/// assert_eq!(topo.switches_per_stage(), 16);
/// # Ok::<(), damq_net::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmegaTopology {
    size: usize,
    radix: usize,
    stages: usize,
}

impl OmegaTopology {
    /// Creates the topology for `size` terminals and `radix`×`radix`
    /// switches.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] unless `size` is a positive power of
    /// `radix` and `2 <= radix <= 256`.
    pub fn new(size: usize, radix: usize) -> Result<Self, TopologyError> {
        Ok(OmegaTopology {
            size,
            radix,
            stages: stage_count(size, radix)?,
        })
    }

    /// Number of source/sink terminals.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Switch radix `k`.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of switch stages (`log_k N`).
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Switches per stage (`N / k`).
    pub fn switches_per_stage(&self) -> usize {
        self.size / self.radix
    }

    /// The perfect `k`-shuffle applied to the `N` lines before every stage:
    /// rotate the base-`k` digits of the line number left by one.
    ///
    /// # Panics
    ///
    /// Panics if `line >= size`.
    pub fn shuffle(&self, line: usize) -> usize {
        assert!(line < self.size, "line {line} out of range");
        let top = self.size / self.radix;
        // line = d_{n-1} * (N/k) + rest; rotate: rest * k + d_{n-1}.
        (line % top) * self.radix + line / top
    }

    /// Where source terminal `source` enters stage 0: (switch index, input
    /// port).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn source_entry(&self, source: NodeId) -> (usize, InputPort) {
        let line = self.shuffle(source.index());
        (line / self.radix, InputPort::new(line % self.radix))
    }

    /// Where a packet leaving stage `stage` (not the last) through
    /// (`switch`, `output`) enters stage `stage + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is the last stage or any index is out of range.
    pub fn next_hop(&self, stage: usize, switch: usize, output: OutputPort) -> (usize, InputPort) {
        assert!(stage + 1 < self.stages, "no stage after the last");
        assert!(switch < self.switches_per_stage(), "switch out of range");
        assert!(output.index() < self.radix, "output out of range");
        let line = self.shuffle(switch * self.radix + output.index());
        (line / self.radix, InputPort::new(line % self.radix))
    }

    /// The output port a packet for `dest` takes at stage `stage`
    /// (destination-digit routing, most significant digit first).
    ///
    /// # Panics
    ///
    /// Panics if `stage` or `dest` is out of range.
    pub fn route_output(&self, stage: usize, dest: NodeId) -> OutputPort {
        assert!(stage < self.stages, "stage out of range");
        assert!(dest.index() < self.size, "destination out of range");
        OutputPort::new(dest.route_digit(stage, self.radix, self.stages))
    }

    /// The sink terminal reached from the last stage's (`switch`, `output`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn sink_of(&self, switch: usize, output: OutputPort) -> NodeId {
        assert!(switch < self.switches_per_stage(), "switch out of range");
        assert!(output.index() < self.radix, "output out of range");
        NodeId::new(switch * self.radix + output.index())
    }

    /// Walks a packet from `source` to `dest` through the wiring, returning
    /// the (stage, switch, output) path. Used by tests to verify that
    /// digit routing and shuffling agree.
    pub fn trace_route(&self, source: NodeId, dest: NodeId) -> Vec<(usize, usize, OutputPort)> {
        let mut path = Vec::with_capacity(self.stages);
        let (mut switch, _port) = self.source_entry(source);
        for stage in 0..self.stages {
            let out = self.route_output(stage, dest);
            path.push((stage, switch, out));
            if stage + 1 < self.stages {
                let (next_switch, _next_port) = self.next_hop(stage, switch, out);
                switch = next_switch;
            }
        }
        path
    }
}

/// Which MIN wiring a network uses (the switches and routing are
/// identical; only the inter-stage permutations differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// Perfect-shuffle Omega network (the paper's evaluation vehicle).
    #[default]
    Omega,
    /// k-ary n-fly butterfly (digit-exchange wiring).
    Butterfly,
}

impl TopologyKind {
    /// Both wirings.
    pub const ALL: [TopologyKind; 2] = [TopologyKind::Omega, TopologyKind::Butterfly];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Omega => "omega",
            TopologyKind::Butterfly => "butterfly",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete MIN wiring: either topology behind one interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Perfect-shuffle Omega wiring.
    Omega(OmegaTopology),
    /// Butterfly digit-exchange wiring.
    Butterfly(crate::butterfly::ButterflyTopology),
}

impl Topology {
    /// Builds the wiring of the requested kind.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] for invalid dimensions.
    pub fn build(kind: TopologyKind, size: usize, radix: usize) -> Result<Self, TopologyError> {
        Ok(match kind {
            TopologyKind::Omega => Topology::Omega(OmegaTopology::new(size, radix)?),
            TopologyKind::Butterfly => {
                Topology::Butterfly(crate::butterfly::ButterflyTopology::new(size, radix)?)
            }
        })
    }

    /// Which wiring this is.
    pub fn kind(&self) -> TopologyKind {
        match self {
            Topology::Omega(_) => TopologyKind::Omega,
            Topology::Butterfly(_) => TopologyKind::Butterfly,
        }
    }

    /// Number of terminals.
    pub fn size(&self) -> usize {
        match self {
            Topology::Omega(t) => t.size(),
            Topology::Butterfly(t) => t.size(),
        }
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        match self {
            Topology::Omega(t) => t.radix(),
            Topology::Butterfly(t) => t.radix(),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        match self {
            Topology::Omega(t) => t.stages(),
            Topology::Butterfly(t) => t.stages(),
        }
    }

    /// Switches per stage.
    pub fn switches_per_stage(&self) -> usize {
        match self {
            Topology::Omega(t) => t.switches_per_stage(),
            Topology::Butterfly(t) => t.switches_per_stage(),
        }
    }

    /// Where a source enters stage 0.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn source_entry(&self, source: NodeId) -> (usize, InputPort) {
        match self {
            Topology::Omega(t) => t.source_entry(source),
            Topology::Butterfly(t) => t.source_entry(source),
        }
    }

    /// Where a stage's (switch, output) feeds the next stage.
    ///
    /// # Panics
    ///
    /// Panics on the last stage or out-of-range indices.
    pub fn next_hop(&self, stage: usize, switch: usize, output: OutputPort) -> (usize, InputPort) {
        match self {
            Topology::Omega(t) => t.next_hop(stage, switch, output),
            Topology::Butterfly(t) => t.next_hop(stage, switch, output),
        }
    }

    /// The output port towards `dest` at `stage`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn route_output(&self, stage: usize, dest: NodeId) -> OutputPort {
        match self {
            Topology::Omega(t) => t.route_output(stage, dest),
            Topology::Butterfly(t) => t.route_output(stage, dest),
        }
    }

    /// The sink behind the last stage's (switch, output).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn sink_of(&self, switch: usize, output: OutputPort) -> NodeId {
        match self {
            Topology::Omega(t) => t.sink_of(switch, output),
            Topology::Butterfly(t) => t.sink_of(switch, output),
        }
    }
}

/// The full route of a packet departing a non-final stage: where it
/// enters the next stage and which output it will take there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRoute {
    /// Switch index within the next stage.
    pub next_switch: usize,
    /// Input port of that switch.
    pub next_port: InputPort,
    /// Output port the packet will request at the next stage.
    pub next_output: OutputPort,
}

/// Precomputed routing tables for one wiring.
///
/// [`Topology`] answers routing queries by recomputing shuffles and
/// destination digits per call; fine for construction and tests, but the
/// simulator asks on every backpressure probe and every departure. A
/// `RoutePlan` flattens every answer into lookup tables at construction
/// — `O(stages x size)` space — so the per-packet path is one indexed
/// load, and [`RoutePlan::departure_route`] combines the next-hop and
/// next-output queries the simulator always makes together.
///
/// The plan counts [`RoutePlan::departure_route`] calls
/// ([`RoutePlan::route_queries`]), which lets tests pin down exactly how
/// often the simulator routes each departing packet.
#[derive(Debug, Clone)]
pub struct RoutePlan {
    radix: usize,
    stages: usize,
    size: usize,
    /// Switches per stage (`size / radix`), precomputed: the departure
    /// probe runs once per flow-control candidate per cycle, and a
    /// runtime division is a hardware divide on that path.
    per_stage: usize,
    // The tables hold indices at index width — a switch number in a
    // `u32`, a port in a `u8` — so the per-probe lookups of a large
    // fabric touch a third of the lines (49 KB at 1024 terminals, not 168).
    /// `(switch, port)` entered by each source, indexed by source.
    entries: Vec<(u32, u8)>,
    /// `(next switch, next port)` per (stage, switch, output), row-major
    /// over the non-final stages.
    next_hops: Vec<(u32, u8)>,
    /// Output port per (stage, dest), row-major.
    outputs: Vec<u8>,
    /// Sink terminal per (switch, output) of the final stage.
    sinks: Vec<u32>,
    /// Departure-route queries served so far (a `Cell`: probes count
    /// through the shared borrow the arbitration pass holds).
    queries: Cell<u64>,
}

impl RoutePlan {
    /// Precomputes every routing answer for `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the terminal count exceeds `u32::MAX`: the tables hold
    /// switch numbers as `u32` words. (They hold ports as bytes too, which
    /// the topology constructors already guarantee.)
    pub fn new(topology: &Topology) -> Self {
        let size = topology.size();
        let radix = topology.radix();
        let stages = topology.stages();
        let per_stage = topology.switches_per_stage();
        assert!(radix <= MAX_RADIX, "route tables hold ports as bytes");
        assert!(
            size <= u32::MAX as usize,
            "route tables hold 32-bit indices"
        );
        let hop = |(switch, port): (usize, InputPort)| (switch as u32, port.index() as u8);
        let entries = (0..size)
            .map(|s| hop(topology.source_entry(NodeId::new(s))))
            .collect();
        let mut next_hops = Vec::with_capacity(stages.saturating_sub(1) * per_stage * radix);
        for stage in 0..stages.saturating_sub(1) {
            for sw in 0..per_stage {
                for o in OutputPort::all(radix) {
                    next_hops.push(hop(topology.next_hop(stage, sw, o)));
                }
            }
        }
        let mut outputs = Vec::with_capacity(stages * size);
        for stage in 0..stages {
            for d in 0..size {
                outputs.push(topology.route_output(stage, NodeId::new(d)).index() as u8);
            }
        }
        let mut sinks = Vec::with_capacity(per_stage * radix);
        for sw in 0..per_stage {
            for o in OutputPort::all(radix) {
                sinks.push(topology.sink_of(sw, o).index() as u32);
            }
        }
        RoutePlan {
            radix,
            stages,
            size,
            per_stage,
            entries,
            next_hops,
            outputs,
            sinks,
            queries: Cell::new(0),
        }
    }

    /// Where source terminal `source` enters stage 0.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn entry(&self, source: NodeId) -> (usize, InputPort) {
        let (switch, port) = self.entries[source.index()];
        (switch as usize, InputPort::new(usize::from(port)))
    }

    /// The output port a packet for `dest` takes at `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` or `dest` is out of range.
    pub fn route_output(&self, stage: usize, dest: NodeId) -> OutputPort {
        OutputPort::new(usize::from(self.outputs[stage * self.size + dest.index()]))
    }

    /// The complete route of a packet for `dest` leaving stage `stage`
    /// (not the last) through (`switch`, `output`): where it enters the
    /// next stage and the output it takes there. Counted by
    /// [`RoutePlan::route_queries`].
    ///
    /// # Panics
    ///
    /// Panics if `stage` is the last stage or any index is out of range.
    pub fn departure_route(
        &self,
        stage: usize,
        switch: usize,
        output: OutputPort,
        dest: NodeId,
    ) -> HopRoute {
        self.count_queries(1);
        self.departure_route_uncounted(stage, switch, output, dest)
    }

    /// [`RoutePlan::departure_route`] without the query-counter bump:
    /// the per-candidate backpressure probe calls this and the stage adds
    /// its probes in one [`RoutePlan::count_queries`], as does the
    /// discarding protocol's interior merge. The total stays exact — the
    /// counter is only read between cycles.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is the last stage or any index is out of range.
    pub(crate) fn departure_route_uncounted(
        &self,
        stage: usize,
        switch: usize,
        output: OutputPort,
        dest: NodeId,
    ) -> HopRoute {
        let (next_switch, next_port) =
            self.next_hops[(stage * self.per_stage + switch) * self.radix + output.index()];
        HopRoute {
            next_switch: next_switch as usize,
            next_port: InputPort::new(usize::from(next_port)),
            next_output: self.route_output(stage + 1, dest),
        }
    }

    /// Adds `n` batched [`RoutePlan::departure_route_uncounted`] queries
    /// to the counter behind [`RoutePlan::route_queries`].
    pub(crate) fn count_queries(&self, n: u64) {
        self.queries.set(self.queries.get() + n);
    }

    /// The alternate (deflection) output adaptive recovery tries at
    /// (`stage`, `switch`) when `output`'s link is down or its
    /// downstream queue is saturated. Deflecting through it is a
    /// deliberate misroute in a unique-path banyan — the packet reaches
    /// the wrong sink and relies on end-to-end retransmission — so the
    /// caller must charge the packet's misroute budget. The rule's only
    /// job is to name a *consistent* escape port per switch — the
    /// neighbouring output — which keeps deflected traffic deterministic
    /// and spread across the crossbar.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn alternate_output(&self, stage: usize, switch: usize, output: OutputPort) -> OutputPort {
        assert!(stage < self.stages && switch < self.per_stage && output.index() < self.radix);
        let next = output.index() + 1;
        OutputPort::new(if next == self.radix { 0 } else { next })
    }

    /// The sink terminal reached from the last stage's (`switch`,
    /// `output`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn sink_of(&self, switch: usize, output: OutputPort) -> NodeId {
        NodeId::new(self.sinks[switch * self.radix + output.index()] as usize)
    }

    /// How many times [`RoutePlan::departure_route`] has been called.
    pub fn route_queries(&self) -> u64 {
        self.queries.get()
    }

    /// Number of stages the plan covers.
    pub fn stages(&self) -> usize {
        self.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_dimensions() {
        let t = OmegaTopology::new(64, 4).unwrap();
        assert_eq!(t.stages(), 3);
        assert_eq!(t.switches_per_stage(), 16);
    }

    #[test]
    fn radix_beyond_the_route_tables_port_width_is_a_typed_error() {
        let too_large = TopologyError::RadixTooLarge {
            radix: 257,
            max: 256,
        };
        for kind in TopologyKind::ALL {
            assert_eq!(Topology::build(kind, 257, 257), Err(too_large), "{kind}");
            assert_eq!(
                Topology::build(kind, 256, 256).unwrap().radix(),
                256,
                "{kind}"
            );
        }
        assert!(too_large.to_string().contains("257"));
    }

    #[test]
    fn radix_2_eight_nodes() {
        let t = OmegaTopology::new(8, 2).unwrap();
        assert_eq!(t.stages(), 3);
        assert_eq!(t.switches_per_stage(), 4);
    }

    #[test]
    fn invalid_sizes_rejected() {
        assert!(OmegaTopology::new(12, 4).is_err());
        assert!(OmegaTopology::new(1, 4).is_err());
        assert!(OmegaTopology::new(8, 1).is_err());
        assert!(OmegaTopology::new(usize::MAX, 4).is_err());
        assert_eq!(
            OmegaTopology::new(10, 2).unwrap_err(),
            TopologyError::SizeNotPowerOfRadix { size: 10, radix: 2 }
        );
    }

    #[test]
    fn shuffle_is_left_digit_rotation() {
        let t = OmegaTopology::new(8, 2).unwrap();
        // 8 lines, binary b2 b1 b0 -> b1 b0 b2.
        assert_eq!(t.shuffle(0b100), 0b001);
        assert_eq!(t.shuffle(0b011), 0b110);
        assert_eq!(t.shuffle(0b111), 0b111);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        for (size, radix) in [(8, 2), (16, 4), (64, 4), (27, 3)] {
            let t = OmegaTopology::new(size, radix).unwrap();
            let mut seen = vec![false; size];
            for line in 0..size {
                let s = t.shuffle(line);
                assert!(!seen[s], "shuffle not injective at {line}");
                seen[s] = true;
            }
        }
    }

    #[test]
    fn every_source_reaches_every_dest() {
        // The defining property of a full-access MIN: digit routing through
        // the shuffle wiring lands at the addressed sink.
        for (size, radix) in [(8, 2), (16, 4), (64, 4)] {
            let t = OmegaTopology::new(size, radix).unwrap();
            for s in 0..size {
                for d in 0..size {
                    let path = t.trace_route(NodeId::new(s), NodeId::new(d));
                    assert_eq!(path.len(), t.stages());
                    let (_, last_switch, last_out) = *path.last().unwrap();
                    assert_eq!(
                        t.sink_of(last_switch, last_out),
                        NodeId::new(d),
                        "{s} -> {d} misrouted in {size}/{radix}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_hop_ports_are_consistent_with_lines() {
        let t = OmegaTopology::new(64, 4).unwrap();
        // Each (switch, output) pair of a non-final stage maps to a distinct
        // downstream (switch, port).
        let mut seen = [false; 64];
        for sw in 0..16 {
            for o in 0..4 {
                let (nsw, np) = t.next_hop(0, sw, OutputPort::new(o));
                let line = nsw * 4 + np.index();
                assert!(!seen[line], "two links share a downstream port");
                seen[line] = true;
            }
        }
    }

    #[test]
    fn route_plan_agrees_with_both_wirings() {
        for kind in TopologyKind::ALL {
            let topo = Topology::build(kind, 64, 4).unwrap();
            let plan = RoutePlan::new(&topo);
            for s in 0..64 {
                assert_eq!(
                    plan.entry(NodeId::new(s)),
                    topo.source_entry(NodeId::new(s))
                );
            }
            for stage in 0..topo.stages() {
                for d in 0..64 {
                    assert_eq!(
                        plan.route_output(stage, NodeId::new(d)),
                        topo.route_output(stage, NodeId::new(d)),
                        "{kind} stage {stage} dest {d}"
                    );
                }
            }
            for stage in 0..topo.stages() - 1 {
                for sw in 0..topo.switches_per_stage() {
                    for o in OutputPort::all(4) {
                        for d in 0..64 {
                            let r = plan.departure_route(stage, sw, o, NodeId::new(d));
                            let (nsw, np) = topo.next_hop(stage, sw, o);
                            assert_eq!((r.next_switch, r.next_port), (nsw, np), "{kind}");
                            assert_eq!(r.next_output, topo.route_output(stage + 1, NodeId::new(d)));
                        }
                    }
                }
            }
            for sw in 0..topo.switches_per_stage() {
                for o in OutputPort::all(4) {
                    assert_eq!(plan.sink_of(sw, o), topo.sink_of(sw, o), "{kind}");
                }
            }
        }
    }

    #[test]
    fn route_plan_counts_departure_queries_only() {
        let topo = Topology::build(TopologyKind::Omega, 16, 4).unwrap();
        let plan = RoutePlan::new(&topo);
        assert_eq!(plan.route_queries(), 0);
        let _ = plan.entry(NodeId::new(3));
        let _ = plan.route_output(0, NodeId::new(9));
        let _ = plan.sink_of(2, OutputPort::new(1));
        assert_eq!(
            plan.route_queries(),
            0,
            "lookups other than departures are free"
        );
        let _ = plan.departure_route(0, 0, OutputPort::new(0), NodeId::new(5));
        let _ = plan.departure_route(0, 3, OutputPort::new(2), NodeId::new(8));
        assert_eq!(plan.route_queries(), 2);
    }

    #[test]
    fn alternate_outputs_differ_from_primaries_and_permute_the_crossbar() {
        for kind in TopologyKind::ALL {
            let topo = Topology::build(kind, 64, 4).unwrap();
            let plan = RoutePlan::new(&topo);
            for stage in 0..topo.stages() {
                for sw in 0..topo.switches_per_stage() {
                    let mut seen = [false; 4];
                    for o in OutputPort::all(4) {
                        let alt = plan.alternate_output(stage, sw, o);
                        assert_ne!(alt, o, "deflection must leave the blocked port");
                        seen[alt.index()] = true;
                    }
                    assert_eq!(seen, [true; 4], "alternates spread over all outputs");
                }
            }
        }
    }

    #[test]
    fn uniform_traffic_spreads_over_middle_stage() {
        // Sanity: packets from one source to all dests use all 4 outputs of
        // its first-stage switch equally (16 dests per output).
        let t = OmegaTopology::new(64, 4).unwrap();
        let mut counts = [0usize; 4];
        for d in 0..64 {
            let out = t.route_output(0, NodeId::new(d));
            counts[out.index()] += 1;
        }
        assert_eq!(counts, [16, 16, 16, 16]);
    }
}
