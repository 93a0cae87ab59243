//! Long-clock semantics of a 2×2 discarding switch (paper §4.1).
//!
//! The Markov analysis models a *single* 2×2 switch with fixed-length
//! packets and a "long clock": per cycle, each input port receives a packet
//! with probability *p* (the traffic level), destined to each output with
//! probability ½, and the arbiter transmits "two packets if at all
//! possible, or a packet from the longest queue if not". Packets that find
//! no space are discarded.
//!
//! The four buffer designs plug into this cycle structure through
//! [`BufferModel2x2`]; [`Switch2x2`] lifts any such model to a
//! [`MarkovModel`] whose states are the model's states up to the
//! switch's symmetry. For the count-based designs a model state is a
//! joint buffer occupancy; for FIFO it is each queue's length and head,
//! which stands for [`BufferModel2x2::arrangements`] occupancies (see
//! [`FifoModel`](crate::FifoModel)).
//!
//! Arrivals are uniform over inputs and outputs and the arbiter splits
//! every tie evenly, so exchanging the two inputs, the two outputs, or
//! both maps the chain onto itself: the probability of going from `s` to
//! `t` equals that of going from `g·s` to `g·t` for each of the four
//! group elements `g`. The chain is then exactly (strongly) lumpable onto
//! the orbits of that group (Kemeny & Snell, *Finite Markov Chains*,
//! §6.3): an orbit's row is any member's row summed by orbit, the lumped
//! chain's stationary distribution is the full one summed by orbit, and
//! every reward the analysis reads — arrivals, discards, departures,
//! occupancy — is the same on all members. [`Switch2x2`] therefore names
//! each successor by the least of its four images, and exploration walks
//! about a quarter of the states.
//!
//! Arrivals are enumerated by distinct outcome. Each input has three: no
//! packet, or a packet for either output. Where both destinations leave
//! the same state with the same verdict they are one event, and
//! [`Switch2x2`] emits one branch of probability *p* instead of two of
//! *p*/2: a FIFO packet that joins a queue behind its head, whose
//! destination stays hidden until it leads (the deferred decision of
//! [`FifoModel`](crate::FifoModel), applied at arrival), or a packet any
//! full buffer discards. The test is [`BufferModel2x2::accept`] itself,
//! run on the state the arrival meets, so it asks nothing more of a
//! model. FIFO-6 emits 460 branches over its 38 states, where the nine
//! arrival pairs emitted 1 004.
//!
//! Within a cycle, arrivals come first: packets join their queues (or are
//! discarded), then the arbiter transmits, and the chain's state is the
//! buffers after departures. The paper does not say which step comes
//! first, and the other order carries no information of its own: it
//! observes the same alternating sequence of arrivals and departures half
//! a cycle later, so its discard probability and throughput are these, its
//! mean occupancy is this one plus the throughput, and its mean wait this
//! one plus a cycle (see [`DiscardPoint`](crate::DiscardPoint)).

use std::cmp::Ordering;
use std::fmt::{self, Debug};
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

use crate::chain::{MarkovModel, Reward, Transition};

/// The order of arrivals and departures within one long-clock cycle:
/// arrivals first, the only order the model has (see the module docs).
///
/// Pinned by `benchmark/` (frozen), which names the variant when it
/// builds a [`Switch2x2`]; [`Switch2x2::new`] ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CycleOrder {
    /// Arrivals join queues (or are discarded), then the arbiter transmits.
    #[default]
    ArrivalsFirst,
}

/// Buffer-design-specific behaviour inside the 2×2 long-clock switch.
///
/// Besides the cycle's three steps a model states the switch's symmetry
/// group on its states: [`swap_inputs`](Self::swap_inputs) and
/// [`swap_outputs`](Self::swap_outputs) generate it, and `accept` and
/// `departures` must commute with both (the equivariance check in
/// `crates/markov/tests/explore_reference.rs` holds every design to it).
pub trait BufferModel2x2 {
    /// Joint occupancy of the two input buffers — or as much of it as the
    /// switch can observe: FIFO keeps only each queue's length and head
    /// (see [`arrangements`](Self::arrangements)) — as a `Copy` word (see
    /// [`MarkovModel::State`]). The order names each orbit by its least
    /// member; any total order does, but it fixes the state numbering.
    type State: Copy + Ord + Hash + Debug;

    /// Both buffers empty.
    fn empty(&self) -> Self::State;

    /// Total packets resident in `state` (for mean-occupancy and, via
    /// Little's law, waiting-time analysis).
    fn occupancy(&self, state: &Self::State) -> u32;

    /// Offers a packet for `output` to the buffer at `input` (0 or 1).
    /// Returns `false` — leaving the state untouched — if it must be
    /// discarded.
    fn accept(&self, state: &mut Self::State, input: usize, output: usize) -> bool;

    /// Hands `emit` the arbiter's possible outcomes from `state` (at most
    /// four): each branch is (post-departure state, probability, packets
    /// transmitted). Branch probabilities must sum to 1; the emission
    /// order is part of the contract (see
    /// [`MarkovModel::for_each_transition`]).
    fn departures(&self, state: &Self::State, emit: impl FnMut(Self::State, f64, u32));

    /// `state` with the two input buffers exchanged.
    fn swap_inputs(&self, state: &Self::State) -> Self::State;

    /// `state` with every resident packet bound for the other output.
    fn swap_outputs(&self, state: &Self::State) -> Self::State;

    /// How many joint occupancies `state` stands for. 1 (the default)
    /// when the state is the occupancy itself; a model whose state hides
    /// what nothing reads yet (FIFO: the destinations behind each head)
    /// counts the occupancies it aggregates.
    fn arrangements(&self, _state: &Self::State) -> usize {
        1
    }
}

/// A [`MarkovModel`] of one 2×2 discarding switch with buffer behaviour `M`.
///
/// Its states are orbits of model states under exchanging inputs and
/// outputs, each named by its least member (see the module docs): every
/// successor is emitted in that form, so [`Chain::explore`](crate::Chain::explore)
/// numbers orbits, [`orbit_size`](Self::orbit_size) says how many model
/// states each one holds, and [`BufferModel2x2::arrangements`] how many
/// joint occupancies each of those stands for.
#[derive(Debug, Clone)]
pub struct Switch2x2<M> {
    model: M,
    traffic: f64,
}

impl<M: BufferModel2x2> Switch2x2<M> {
    /// Wraps `model` with per-input arrival probability `traffic`. The
    /// cycle order is the one [`CycleOrder`] names.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= traffic <= 1.0`.
    pub fn new(model: M, traffic: f64, _order: CycleOrder) -> Self {
        assert!(
            (0.0..=1.0).contains(&traffic),
            "traffic must be a probability, got {traffic}"
        );
        Switch2x2 { model, traffic }
    }

    /// The wrapped buffer model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The per-input arrival probability.
    pub fn traffic(&self) -> f64 {
        self.traffic
    }

    /// How many model states the orbit of `state` holds: 1, 2 or 4. Times
    /// [`arrangements`](BufferModel2x2::arrangements) (the same on every
    /// member) and summed over a chain's states, the reachable joint
    /// occupancies.
    pub fn orbit_size(&self, state: &M::State) -> usize {
        let images = self.images(state);
        (0..4)
            .filter(|&i| !images[..i].contains(&images[i]))
            .count()
    }

    /// `state` under each element of the symmetry group: itself, inputs
    /// exchanged, outputs exchanged, both.
    fn images(&self, state: &M::State) -> [M::State; 4] {
        let inputs = self.model.swap_inputs(state);
        [
            *state,
            inputs,
            self.model.swap_outputs(state),
            self.model.swap_outputs(&inputs),
        ]
    }

    /// The name of `state`'s orbit: the least of its four images.
    fn canonical(&self, state: &M::State) -> M::State {
        let [a, b, c, d] = self.images(state);
        a.min(b).min(c.min(d))
    }

    /// The outcomes of `input`'s arrival on `state`, each with its
    /// probability and whether a packet was offered and discarded: no
    /// packet (`1 − p`), then a packet for output 0 and one for output 1
    /// (`p/2` each) — or, when both destinations leave the same state with
    /// the same verdict, the first alone at `p`: the destination changes
    /// nothing, so the two are one event. Outcomes of probability 0 are
    /// left out.
    fn arrivals_at(&self, state: &M::State, input: usize) -> [Option<Arrival<M::State>>; 3] {
        let p = self.traffic;
        let offer = |output| {
            let mut next = *state;
            let accepted = self.model.accept(&mut next, input, output);
            (next, accepted)
        };
        let (to0, to1) = (offer(0), offer(1));
        let twins = to0 == to1;
        let arrival = |(state, accepted): (M::State, bool), probability| Arrival {
            state,
            probability,
            offered: 1.0,
            discards: if accepted { 0.0 } else { 1.0 },
        };
        let none = Arrival {
            state: *state,
            probability: 1.0 - p,
            offered: 0.0,
            discards: 0.0,
        };
        [
            Some(none),
            Some(arrival(to0, if twins { p } else { p / 2.0 })),
            (!twins).then(|| arrival(to1, p / 2.0)),
        ]
        .map(|outcome| outcome.filter(|a| a.probability != 0.0))
    }

    /// Hands `each` the distinct outcomes of both inputs' arrivals on
    /// `state`: input 0's first, then input 1's on the state it left, in
    /// the order of the nine-way enumeration (no packet, a packet to
    /// output 0, one to output 1, per input). A packet for output 1 that
    /// would repeat the outcome of one for output 0 is skipped, with every
    /// outcome it leads to: its probability is already in theirs.
    fn for_each_arrival(&self, state: &M::State, mut each: impl FnMut(Arrival<M::State>)) {
        for first in self.arrivals_at(state, 0).into_iter().flatten() {
            for second in self.arrivals_at(&first.state, 1).into_iter().flatten() {
                let probability = first.probability * second.probability;
                if probability == 0.0 {
                    continue;
                }
                let both = Arrival {
                    state: second.state,
                    probability,
                    offered: first.offered + second.offered,
                    discards: first.discards + second.discards,
                };
                each(both);
            }
        }
    }
}

/// What one cycle's arrivals do: the state they leave, their probability
/// and the packets offered and discarded.
#[derive(Debug, Clone, Copy)]
struct Arrival<S> {
    state: S,
    probability: f64,
    offered: f64,
    discards: f64,
}

impl<M: BufferModel2x2> MarkovModel for Switch2x2<M> {
    type State = M::State;

    /// The empty switch, an orbit of one.
    fn initial(&self) -> Self::State {
        self.model.empty()
    }

    /// One branch per distinct outcome (see the module docs): an
    /// arrival's two destinations are one branch of probability `p`
    /// wherever they leave the same state with the same verdict, two of
    /// `p/2` otherwise. The arrivals are the outer loop and each meets the
    /// departures from the state it leaves, so a merged branch sits where
    /// the first of its two halves sat and the second would only have
    /// repeated its successors: states are discovered, hence numbered, as
    /// they were branch by branch.
    fn for_each_transition(
        &self,
        state: &Self::State,
        mut emit: impl FnMut(Transition<Self::State>),
    ) {
        self.for_each_arrival(state, |arrival| {
            self.model.departures(&arrival.state, |next, dp, sent| {
                emit(Transition {
                    next: self.canonical(&next),
                    probability: arrival.probability * dp,
                    reward: Reward {
                        arrivals: arrival.offered,
                        discards: arrival.discards,
                        departures: f64::from(sent),
                    },
                })
            })
        })
    }
}

/// The state of the count-based models (DAMQ, SAMQ, SAFC, DAFC): how
/// many packets each input buffer holds for each output, read and written
/// as `counts[input][output]`.
///
/// Ordered as the arrays are, lexicographically — which is the word
/// `[c₀₀, c₀₁, c₁₀, c₁₁]` read big-endian, so [`Switch2x2`] finds each
/// orbit's least member by integer compares.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts(pub [[u8; 2]; 2]);

impl Counts {
    /// The counts as one word, first count most significant.
    fn word(&self) -> u32 {
        let [[c00, c01], [c10, c11]] = self.0;
        u32::from_be_bytes([c00, c01, c10, c11])
    }
}

impl Ord for Counts {
    fn cmp(&self, other: &Self) -> Ordering {
        self.word().cmp(&other.word())
    }
}

impl PartialOrd for Counts {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Counts {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.word());
    }
}

impl Deref for Counts {
    type Target = [[u8; 2]; 2];

    fn deref(&self) -> &[[u8; 2]; 2] {
        &self.0
    }
}

impl DerefMut for Counts {
    fn deref_mut(&mut self) -> &mut [[u8; 2]; 2] {
        &mut self.0
    }
}

impl fmt::Debug for Counts {
    /// As the array: `[[1, 0], [0, 2]]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// `counts` with the two inputs' rows exchanged.
pub(crate) fn swap_count_inputs(counts: &Counts) -> Counts {
    Counts([counts[1], counts[0]])
}

/// `counts` with the two outputs' columns exchanged.
pub(crate) fn swap_count_outputs(counts: &Counts) -> Counts {
    Counts(counts.0.map(|[to0, to1]| [to1, to0]))
}

/// `counts` after sending one packet along each `(input, output)` move.
fn after(counts: &Counts, moves: &[(usize, usize)]) -> Counts {
    let mut next = *counts;
    for &(input, output) in moves {
        debug_assert!(next[input][output] > 0, "move from empty queue");
        next[input][output] -= 1;
    }
    next
}

/// Departure outcomes for buffers with a **single read port** per input
/// (DAMQ and SAMQ): the arbiter sends two packets when inputs can cover
/// distinct outputs, otherwise one from the longest queue.
pub(crate) fn single_read_port_departures(counts: &Counts, mut emit: impl FnMut(Counts, f64, u32)) {
    // Exactly two ways to send two packets through a 2x2 crossbar.
    const STRAIGHT: [(usize, usize); 2] = [(0, 0), (1, 1)];
    const CROSSED: [(usize, usize); 2] = [(0, 1), (1, 0)];
    let straight = counts[0][0] > 0 && counts[1][1] > 0;
    let crossed = counts[0][1] > 0 && counts[1][0] > 0;
    match (straight, crossed) {
        (true, true) => {
            emit(after(counts, &STRAIGHT), 0.5, 2);
            emit(after(counts, &CROSSED), 0.5, 2);
        }
        (true, false) => emit(after(counts, &STRAIGHT), 1.0, 2),
        (false, true) => emit(after(counts, &CROSSED), 1.0, 2),
        (false, false) => {
            // At most one packet can go: pick from the longest queue,
            // breaking ties uniformly, in (input, output) order.
            const QUEUES: [(usize, usize); 4] = [(0, 0), (0, 1), (1, 0), (1, 1)];
            let longest = counts[0][0]
                .max(counts[0][1])
                .max(counts[1][0].max(counts[1][1]));
            if longest == 0 {
                return emit(*counts, 1.0, 0);
            }
            let is_longest = |&&(input, output): &&(usize, usize)| counts[input][output] == longest;
            let p = 1.0 / QUEUES.iter().filter(is_longest).count() as f64;
            for &queue in QUEUES.iter().filter(is_longest) {
                emit(after(counts, &[queue]), p, 1);
            }
        }
    }
}

/// Departure outcomes for the **fully-connected** SAFC buffer: every output
/// independently picks the input with the longer queue for it (ties
/// uniform), and one input may feed both outputs at once.
pub(crate) fn fully_connected_departures(counts: &Counts, mut emit: impl FnMut(Counts, f64, u32)) {
    // Per output: the (chosen input, probability) options and how many
    // of the two slots are in use.
    let choose = |output: usize| -> ([(Option<usize>, f64); 2], usize) {
        let (c0, c1) = (counts[0][output], counts[1][output]);
        match c0.cmp(&c1) {
            std::cmp::Ordering::Equal if c0 == 0 => ([(None, 1.0); 2], 1),
            std::cmp::Ordering::Equal => ([(Some(0), 0.5), (Some(1), 0.5)], 2),
            std::cmp::Ordering::Greater => ([(Some(0), 1.0); 2], 1),
            std::cmp::Ordering::Less => ([(Some(1), 1.0); 2], 1),
        }
    };
    let ((for0, n0), (for1, n1)) = (choose(0), choose(1));
    for &(i0, p0) in &for0[..n0] {
        for &(i1, p1) in &for1[..n1] {
            let mut next = *counts;
            let mut sent = 0;
            for (input, output) in [(i0, 0), (i1, 1)] {
                if let Some(input) = input {
                    next[input][output] -= 1;
                    sent += 1;
                }
            }
            emit(next, p0 * p1, sent);
        }
    }
}

/// The branches `model.departures` emits, collected (test helper).
#[cfg(test)]
pub(crate) fn branches<M: BufferModel2x2>(
    model: &M,
    state: &M::State,
) -> Vec<(M::State, f64, u32)> {
    let mut out = Vec::new();
    model.departures(state, |next, p, sent| out.push((next, p, sent)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    type Array = [[u8; 2]; 2];

    fn single(counts: &Array) -> Vec<(Array, f64, u32)> {
        let mut out = Vec::new();
        single_read_port_departures(&Counts(*counts), |next, p, sent| {
            out.push((next.0, p, sent))
        });
        out
    }

    fn full(counts: &Array) -> Vec<(Array, f64, u32)> {
        let mut out = Vec::new();
        fully_connected_departures(&Counts(*counts), |next, p, sent| {
            out.push((next.0, p, sent))
        });
        out
    }

    #[test]
    fn single_port_sends_two_when_outputs_differ() {
        assert_eq!(single(&[[1, 0], [0, 1]]), vec![([[0, 0], [0, 0]], 1.0, 2)]);
    }

    #[test]
    fn single_port_conflict_serves_longest_queue() {
        // Both inputs only have out0 packets; input 1 has more.
        assert_eq!(single(&[[1, 0], [3, 0]]), vec![([[1, 0], [2, 0]], 1.0, 1)]);
    }

    #[test]
    fn single_port_conflict_tie_is_uniform_in_queue_order() {
        assert_eq!(
            single(&[[2, 0], [2, 0]]),
            vec![([[1, 0], [2, 0]], 0.5, 1), ([[2, 0], [1, 0]], 0.5, 1)]
        );
    }

    #[test]
    fn single_port_prefers_sending_two() {
        // Input 0 could serve either output; input 1 only out0. The arbiter
        // must pick the crossed assignment to move two packets.
        assert_eq!(single(&[[5, 1], [1, 0]]), vec![([[5, 0], [0, 0]], 1.0, 2)]);
    }

    #[test]
    fn single_port_two_valid_assignments_split_evenly() {
        assert_eq!(
            single(&[[1, 1], [1, 1]]),
            vec![([[0, 1], [1, 0]], 0.5, 2), ([[1, 0], [0, 1]], 0.5, 2)],
            "straight first, then crossed"
        );
    }

    #[test]
    fn empty_state_has_single_idle_branch() {
        let counts = [[0, 0], [0, 0]];
        assert_eq!(single(&counts), vec![(counts, 1.0, 0)]);
        assert_eq!(full(&counts), vec![(counts, 1.0, 0)]);
    }

    #[test]
    fn fully_connected_can_send_two_from_one_input() {
        assert_eq!(full(&[[2, 3], [0, 0]]), vec![([[1, 2], [0, 0]], 1.0, 2)]);
    }

    #[test]
    fn fully_connected_resolves_per_output_conflicts_by_length() {
        // out0: input0 wins (2 > 1); out1: only input1.
        assert_eq!(full(&[[2, 0], [1, 2]]), vec![([[1, 0], [1, 1]], 1.0, 2)]);
    }

    #[test]
    fn fully_connected_tie_branches() {
        assert_eq!(
            full(&[[1, 0], [1, 0]]),
            vec![([[0, 0], [1, 0]], 0.5, 1), ([[1, 0], [0, 0]], 0.5, 1)]
        );
    }
}
