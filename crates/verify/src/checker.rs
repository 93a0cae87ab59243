//! Exhaustive BFS model checker for the 2×2 switch buffers.
//!
//! [`check`] enumerates *every* state a buffer design can reach in a 2×2
//! discarding switch with a small buffer, and in every state cross-checks
//! the concrete [`SwitchBuffer`] implementation against the reference
//! [`Spec`]:
//!
//! * **Materialisation** — the abstract state is replayed into a fresh
//!   concrete buffer; every replay enqueue must be accepted.
//! * **Structural audit** — [`SwitchBuffer::audit`] must pass after every
//!   single operation (the §3.1 register/linked-list invariants).
//! * **Observable agreement** — `packet_count`, `used_slots`, per-output
//!   `queue_len`, `front` destinations, and `can_accept` must match the
//!   spec in every state, and `try_enqueue` must accept/reject exactly
//!   when the spec does.
//! * **Packet conservation** — across each cycle (arrivals then crossbar
//!   moves), resident packets change by exactly `accepted − sent`.
//! * **Deadlock freedom** — whenever packets are resident, every
//!   arbitration branch transmits at least one of them.
//!
//! The cycle structure (arrivals applied before departures, 3 arrival
//! options per input, longest-queue arbitration) mirrors `damq-markov`'s
//! `Switch2x2` with `CycleOrder::ArrivalsFirst`. The two walks do not
//! visit the same states: the checker walks joint occupancies, the chain
//! their orbits under exchanging inputs and outputs. So the visited state
//! count is cross-validated against the joint occupancies those orbits
//! stand for (`DiscardPoint::states`, the sum of `Switch2x2::orbit_size`),
//! not against `Chain::state_count`.

use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;

use damq_core::{BufferConfig, BufferKind, ConfigError, NodeId, OutputPort, Packet, SwitchBuffer};

use crate::spec::{MoveSet, RefInput, Spec, SpecState};

/// Summary of one exhaustive run: the explored space and work done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// The design that was checked.
    pub kind: BufferKind,
    /// Packet slots per input buffer.
    pub capacity: usize,
    /// Distinct reachable joint states visited.
    pub states: usize,
    /// State transitions examined (arrival combo × arbitration branch).
    pub transitions: u64,
    /// Concrete buffer operations performed (enqueues + dequeues), each
    /// followed by a full structural audit.
    pub ops: u64,
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} capacity {}: {} states, {} transitions, {} audited ops",
            self.kind, self.capacity, self.states, self.transitions, self.ops
        )
    }
}

/// A divergence between a concrete buffer and the reference spec (or a
/// structural invariant it tripped on the way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The design under check.
    pub kind: BufferKind,
    /// Packet slots per input buffer.
    pub capacity: usize,
    /// Which invariant class failed (audit invariant name, or one of
    /// `"spec-agreement"`, `"packet-conservation"`, `"deadlock-freedom"`,
    /// `"materialise"`).
    pub invariant: String,
    /// The abstract state in which the violation was observed.
    pub state: String,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} capacity {}: invariant '{}' violated in state {}: {}",
            self.kind, self.capacity, self.invariant, self.state, self.detail
        )
    }
}

impl Error for Violation {}

/// Outcome of a model-checking run.
pub type CheckResult = Result<CheckReport, Box<Violation>>;

/// Exhaustively checks the stock implementation of `kind` at `capacity`
/// slots per input buffer.
///
/// # Errors
///
/// Returns the first [`Violation`] found, or a `"materialise"` violation if
/// the configuration itself is invalid (e.g. odd capacity for SAMQ/SAFC).
pub fn check(kind: BufferKind, capacity: usize) -> CheckResult {
    check_with_factory(kind, capacity, &|| {
        let buffer = BufferConfig::new(2, capacity).build_any(kind)?;
        Ok(Box::new(buffer))
    })
}

/// Exhaustively checks buffers produced by `factory` against the reference
/// spec for `kind` at `capacity`.
///
/// The factory indirection exists so tests can feed deliberately broken
/// implementations to the checker and assert they are caught (mutation
/// testing the checker itself).
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn check_with_factory(
    kind: BufferKind,
    capacity: usize,
    factory: &dyn Fn() -> Result<Box<dyn SwitchBuffer>, ConfigError>,
) -> CheckResult {
    let spec = Spec::new(kind, capacity).map_err(|e| {
        Box::new(Violation {
            kind,
            capacity,
            invariant: "materialise".into(),
            state: "<none>".into(),
            detail: format!("invalid configuration: {e}"),
        })
    })?;
    let mut checker = Checker {
        spec,
        factory,
        transitions: 0,
        ops: 0,
    };

    let start = spec.empty();
    let mut visited: HashSet<SpecState> = HashSet::new();
    let mut frontier: VecDeque<SpecState> = VecDeque::new();
    visited.insert(start.clone());
    frontier.push_back(start);

    while let Some(state) = frontier.pop_front() {
        for next in checker.check_state(&state)? {
            if visited.insert(next.clone()) {
                frontier.push_back(next);
            }
        }
    }

    Ok(CheckReport {
        kind,
        capacity,
        states: visited.len(),
        transitions: checker.transitions,
        ops: checker.ops,
    })
}

/// The three arrival options per input, as in the Markov model: no packet,
/// or one packet routed to either output.
const ARRIVALS: [Option<usize>; 3] = [None, Some(0), Some(1)];

struct Checker<'a> {
    spec: Spec,
    factory: &'a dyn Fn() -> Result<Box<dyn SwitchBuffer>, ConfigError>,
    transitions: u64,
    ops: u64,
}

impl Checker<'_> {
    fn violation(
        &self,
        invariant: impl Into<String>,
        state: &SpecState,
        detail: impl Into<String>,
    ) -> Box<Violation> {
        Box::new(Violation {
            kind: self.spec.kind(),
            capacity: self.spec.capacity(),
            invariant: invariant.into(),
            state: format!("{state:?}"),
            detail: detail.into(),
        })
    }

    /// Audits one concrete buffer and reports the failure as a violation.
    fn audit(
        &self,
        buf: &dyn SwitchBuffer,
        state: &SpecState,
        context: &str,
    ) -> Result<(), Box<Violation>> {
        buf.audit()
            .map_err(|e| self.violation(e.invariant(), state, format!("{context}: {}", e.detail())))
    }

    /// Builds a concrete buffer holding exactly `abstract_input`'s packets.
    fn materialise(
        &mut self,
        abstract_input: &RefInput,
        state: &SpecState,
    ) -> Result<Box<dyn SwitchBuffer>, Box<Violation>> {
        let mut buf = (self.factory)()
            .map_err(|e| self.violation("materialise", state, format!("factory failed: {e}")))?;
        for dest in abstract_input.dests() {
            let output = OutputPort::new(usize::from(dest));
            let packet = mk_packet(usize::from(dest));
            self.ops += 1;
            if let Err(rejected) = buf.try_enqueue(output, packet) {
                return Err(self.violation(
                    "materialise",
                    state,
                    format!(
                        "replaying a reachable state, {} rejected a packet for {output}: {}",
                        self.spec.kind(),
                        rejected.reason
                    ),
                ));
            }
            self.audit(buf.as_ref(), state, "after materialise enqueue")?;
        }
        Ok(buf)
    }

    /// Concrete queue length the spec predicts for `(input, output)`.
    ///
    /// For multi-queue designs this is the per-output count. For the FIFO
    /// it is the *whole* queue length when the head is routed to `output`
    /// (everything behind the head is counted but blocked) and 0 otherwise,
    /// matching `FifoBuffer`'s documented semantics.
    fn expected_queue_len(&self, state: &SpecState, input: usize, output: usize) -> usize {
        match &state[input] {
            RefInput::Fifo(seq) => match seq.first() {
                Some(&h) if usize::from(h) == output => seq.len(),
                _ => 0,
            },
            RefInput::Counts(c) => usize::from(c[output]),
        }
    }

    /// Checks the static observables of both concrete buffers against the
    /// abstract state they were materialised from.
    fn check_observables(
        &self,
        bufs: &[Box<dyn SwitchBuffer>; 2],
        state: &SpecState,
    ) -> Result<(), Box<Violation>> {
        for (input, buf) in bufs.iter().enumerate() {
            let expected_packets = state[input].packets();
            if buf.packet_count() != expected_packets {
                return Err(self.violation(
                    "spec-agreement",
                    state,
                    format!(
                        "input {input}: packet_count {} but spec holds {expected_packets}",
                        buf.packet_count()
                    ),
                ));
            }
            if buf.used_slots() != expected_packets {
                return Err(self.violation(
                    "spec-agreement",
                    state,
                    format!(
                        "input {input}: used_slots {} but {expected_packets} single-slot \
                         packets are resident",
                        buf.used_slots()
                    ),
                ));
            }
            for output in 0..2 {
                let expected = self.expected_queue_len(state, input, output);
                let got = buf.queue_len(OutputPort::new(output));
                if got != expected {
                    return Err(self.violation(
                        "spec-agreement",
                        state,
                        format!(
                            "input {input}: queue_len(out{output}) = {got}, spec says {expected}"
                        ),
                    ));
                }
                let transmittable = self.spec.queue_len(state, input, output) > 0;
                let front = buf.front(OutputPort::new(output));
                if front.is_some() != transmittable {
                    return Err(self.violation(
                        "spec-agreement",
                        state,
                        format!(
                            "input {input}: front(out{output}).is_some() = {} but spec \
                             transmittability is {transmittable}",
                            front.is_some()
                        ),
                    ));
                }
                if let Some(packet) = front {
                    if packet.dest() != NodeId::new(output) {
                        return Err(self.violation(
                            "spec-agreement",
                            state,
                            format!(
                                "input {input}: front(out{output}) is routed to {}",
                                packet.dest()
                            ),
                        ));
                    }
                }
                let spec_accepts = self.spec.would_accept(state, input, output);
                if buf.can_accept(OutputPort::new(output), 1) != spec_accepts {
                    return Err(self.violation(
                        "spec-agreement",
                        state,
                        format!(
                            "input {input}: can_accept(out{output}) = {}, spec says \
                             {spec_accepts}",
                            !spec_accepts
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Fully checks one reachable state and returns its successor states.
    fn check_state(&mut self, state: &SpecState) -> Result<Vec<SpecState>, Box<Violation>> {
        // Materialise and compare every observable in the pre-cycle state.
        let bufs = [
            self.materialise(&state[0], state)?,
            self.materialise(&state[1], state)?,
        ];
        self.check_observables(&bufs, state)?;
        drop(bufs);

        let mut successors = Vec::new();
        for a0 in ARRIVALS {
            for a1 in ARRIVALS {
                let arrivals: Vec<(usize, usize)> = [(0, a0), (1, a1)]
                    .into_iter()
                    .filter_map(|(input, arrival)| arrival.map(|output| (input, output)))
                    .collect();

                // Spec side of the arrivals phase.
                let mut post = state.clone();
                let decisions: Vec<bool> = arrivals
                    .iter()
                    .map(|&(input, output)| self.spec.accept(&mut post, input, output))
                    .collect();
                let accepted = decisions.iter().filter(|&&d| d).count();

                // Concrete side: replay the same offers once and compare
                // accept/reject decisions (audited after every operation).
                let mut concrete = [
                    self.materialise(&state[0], state)?,
                    self.materialise(&state[1], state)?,
                ];
                self.apply_arrivals(&mut concrete, &arrivals, &decisions, state)?;
                self.check_observables(&concrete, &post)?;
                drop(concrete);

                // Deadlock freedom: with packets resident, every
                // arbitration branch must transmit at least one.
                let branches = self.spec.moves(&post);
                let total_p: f64 = branches.iter().map(|(_, p)| p).sum();
                if (total_p - 1.0).abs() > 1e-9 {
                    return Err(self.violation(
                        "deadlock-freedom",
                        &post,
                        format!("arbitration branch probabilities sum to {total_p}"),
                    ));
                }
                if self.spec.occupancy(&post) > 0 {
                    if let Some((idle, _)) = branches.iter().find(|(m, _)| m.is_empty()) {
                        return Err(self.violation(
                            "deadlock-freedom",
                            &post,
                            format!(
                                "{} packets resident but branch {idle:?} transmits none",
                                self.spec.occupancy(&post)
                            ),
                        ));
                    }
                }

                // Crossbar phase: check each arbitration branch on its own
                // concrete replica, then record the successor state.
                for (moves, _probability) in &branches {
                    self.transitions += 1;
                    let mut replica = [
                        self.materialise(&state[0], state)?,
                        self.materialise(&state[1], state)?,
                    ];
                    self.apply_arrivals(&mut replica, &arrivals, &decisions, state)?;
                    let next = self.apply_moves_checked(&mut replica, &post, moves)?;
                    self.check_observables(&replica, &next)?;

                    // Packet conservation across the whole cycle.
                    let resident: usize = replica.iter().map(|b| b.packet_count()).sum();
                    let before = self.spec.occupancy(state);
                    if resident != before + accepted - moves.len() {
                        return Err(self.violation(
                            "packet-conservation",
                            state,
                            format!(
                                "cycle started with {before} packets, accepted {accepted}, \
                                 sent {}, but {resident} are resident",
                                moves.len()
                            ),
                        ));
                    }
                    successors.push(next);
                }
            }
        }
        Ok(successors)
    }

    /// Offers the arrival packets to the concrete buffers and checks each
    /// accept/reject decision against the spec's.
    fn apply_arrivals(
        &mut self,
        bufs: &mut [Box<dyn SwitchBuffer>; 2],
        arrivals: &[(usize, usize)],
        decisions: &[bool],
        state: &SpecState,
    ) -> Result<(), Box<Violation>> {
        for (&(input, output), &spec_accepted) in arrivals.iter().zip(decisions) {
            let port = OutputPort::new(output);
            self.ops += 1;
            let result = bufs[input].try_enqueue(port, mk_packet(output));
            if result.is_ok() != spec_accepted {
                return Err(self.violation(
                    "spec-agreement",
                    state,
                    format!(
                        "input {input}: arrival for {port} was {} but spec says {}",
                        if result.is_ok() {
                            "accepted"
                        } else {
                            "rejected"
                        },
                        if spec_accepted { "accept" } else { "reject" },
                    ),
                ));
            }
            self.audit(bufs[input].as_ref(), state, "after arrival enqueue")?;
        }
        Ok(())
    }

    /// Dequeues one arbitration branch's moves from the concrete buffers,
    /// checking each returned packet, and returns the spec's next state.
    fn apply_moves_checked(
        &mut self,
        bufs: &mut [Box<dyn SwitchBuffer>; 2],
        post: &SpecState,
        moves: &MoveSet,
    ) -> Result<SpecState, Box<Violation>> {
        for &(input, output) in moves {
            let port = OutputPort::new(output);
            self.ops += 1;
            match bufs[input].dequeue(port) {
                Some(packet) if packet.dest() == NodeId::new(output) => {}
                Some(packet) => {
                    return Err(self.violation(
                        "spec-agreement",
                        post,
                        format!(
                            "input {input}: dequeue({port}) returned a packet routed to {}",
                            packet.dest()
                        ),
                    ));
                }
                None => {
                    return Err(self.violation(
                        "spec-agreement",
                        post,
                        format!(
                            "input {input}: dequeue({port}) returned nothing though the \
                             arbiter granted the move"
                        ),
                    ));
                }
            }
            self.audit(bufs[input].as_ref(), post, "after crossbar dequeue")?;
        }
        Ok(self.spec.apply_moves(post, moves))
    }
}

/// A single-slot packet routed to `output` (destination encodes the route).
fn mk_packet(output: usize) -> Packet {
    Packet::builder(NodeId::new(0), NodeId::new(output)).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damq_capacity_two_is_clean_and_bounded() {
        let report = check(BufferKind::Damq, 2).expect("no violations");
        // Per input: counts with sum <= 2 -> 6 states, so at most 36 joint.
        // (The exact reachable count is pinned by the markov cross-test.)
        assert!(
            report.states > 1 && report.states <= 36,
            "{}",
            report.states
        );
        assert!(report.transitions > 0);
        assert!(report.ops > 0);
    }

    #[test]
    fn fifo_capacity_two_stays_within_sequence_bound() {
        let report = check(BufferKind::Fifo, 2).expect("no violations");
        // Per input: sequences of length <= 2 over {0,1} -> 7; at most 49.
        assert!(
            report.states > 1 && report.states <= 49,
            "{}",
            report.states
        );
    }

    #[test]
    fn all_kinds_pass_at_smallest_capacity() {
        for kind in BufferKind::EXTENDED {
            let report = check(kind, 2).unwrap_or_else(|v| panic!("{v}"));
            assert!(report.states > 1, "{kind} explored nothing");
        }
    }

    #[test]
    fn odd_capacity_static_kind_is_a_config_violation() {
        let err = check(BufferKind::Samq, 3).expect_err("odd static capacity");
        assert_eq!(err.invariant, "materialise");
    }

    #[test]
    fn report_displays_key_numbers() {
        let report = check(BufferKind::Dafc, 2).expect("no violations");
        let text = report.to_string();
        assert!(text.contains("DAFC"), "{text}");
        assert!(text.contains("states"), "{text}");
    }
}
