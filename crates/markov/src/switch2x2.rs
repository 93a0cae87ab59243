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
//! [`MarkovModel`] whose states are joint buffer occupancies up to the
//! switch's symmetry.
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

use std::fmt::Debug;
use std::hash::Hash;

use crate::chain::{MarkovModel, Reward, Transition};

/// Whether arrivals are applied before or after departures within one long
/// clock cycle.
///
/// `ArrivalsFirst` lets a packet that arrives at an empty queue leave in the
/// same cycle (the cut-through-style behaviour of the paper's switches);
/// `DeparturesFirst` is classic store-and-forward, where a packet stays at
/// least one cycle. Both are offered because the paper does not spell the
/// ordering out; `ArrivalsFirst` reproduces Table 2 far more closely and is
/// the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CycleOrder {
    /// Arrivals join queues (or are discarded), then the arbiter transmits.
    #[default]
    ArrivalsFirst,
    /// The arbiter transmits from the old state, then arrivals join.
    DeparturesFirst,
}

/// Buffer-design-specific behaviour inside the 2×2 long-clock switch.
///
/// Besides the cycle's three steps a model states the switch's symmetry
/// group on its states: [`swap_inputs`](Self::swap_inputs) and
/// [`swap_outputs`](Self::swap_outputs) generate it, and `accept` and
/// `departures` must commute with both (the equivariance check in
/// `crates/markov/tests/explore_reference.rs` holds every design to it).
pub trait BufferModel2x2 {
    /// Joint occupancy of the two input buffers, as a `Copy` word (see
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
}

/// A [`MarkovModel`] of one 2×2 discarding switch with buffer behaviour `M`.
///
/// Its states are orbits of joint occupancies under exchanging inputs and
/// outputs, each named by its least member (see the module docs): every
/// successor is emitted in that form, so [`Chain::explore`](crate::Chain::explore)
/// numbers orbits, and [`orbit_size`](Self::orbit_size) says how many
/// joint occupancies each one stands for.
#[derive(Debug, Clone)]
pub struct Switch2x2<M> {
    model: M,
    traffic: f64,
    order: CycleOrder,
}

impl<M: BufferModel2x2> Switch2x2<M> {
    /// Wraps `model` with per-input arrival probability `traffic`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= traffic <= 1.0`.
    pub fn new(model: M, traffic: f64, order: CycleOrder) -> Self {
        assert!(
            (0.0..=1.0).contains(&traffic),
            "traffic must be a probability, got {traffic}"
        );
        Switch2x2 {
            model,
            traffic,
            order,
        }
    }

    /// The wrapped buffer model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The per-input arrival probability.
    pub fn traffic(&self) -> f64 {
        self.traffic
    }

    /// The configured intra-cycle ordering.
    pub fn order(&self) -> CycleOrder {
        self.order
    }

    /// How many joint occupancies the orbit of `state` holds: 1, 2 or 4.
    /// Summed over a chain's states, the reachable joint occupancies.
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

    fn arrival_options(&self) -> [(Option<usize>, f64); 3] {
        let p = self.traffic;
        [(None, 1.0 - p), (Some(0), p / 2.0), (Some(1), p / 2.0)]
    }

    /// Offers each input its arrival (if any); returns the discards.
    fn offer(&self, state: &mut M::State, arrivals: [Option<usize>; 2]) -> f64 {
        let mut discards = 0.0;
        for (input, arrival) in arrivals.into_iter().enumerate() {
            if let Some(output) = arrival {
                if !self.model.accept(state, input, output) {
                    discards += 1.0;
                }
            }
        }
        discards
    }
}

impl<M: BufferModel2x2> MarkovModel for Switch2x2<M> {
    type State = M::State;

    /// The empty switch, an orbit of one.
    fn initial(&self) -> Self::State {
        self.model.empty()
    }

    fn for_each_transition(
        &self,
        state: &Self::State,
        mut emit: impl FnMut(Transition<Self::State>),
    ) {
        for (a0, p0) in self.arrival_options() {
            if p0 == 0.0 {
                continue;
            }
            for (a1, p1) in self.arrival_options() {
                let prob = p0 * p1;
                if prob == 0.0 {
                    continue;
                }
                let arrivals = a0.map_or(0.0, |_| 1.0) + a1.map_or(0.0, |_| 1.0);
                let mut branch = |next, dp: f64, discards, sent: u32| {
                    emit(Transition {
                        next: self.canonical(&next),
                        probability: prob * dp,
                        reward: Reward {
                            arrivals,
                            discards,
                            departures: f64::from(sent),
                        },
                    })
                };
                match self.order {
                    CycleOrder::ArrivalsFirst => {
                        let mut st = *state;
                        let discards = self.offer(&mut st, [a0, a1]);
                        self.model
                            .departures(&st, |next, dp, sent| branch(next, dp, discards, sent));
                    }
                    CycleOrder::DeparturesFirst => {
                        self.model.departures(state, |mut next, dp, sent| {
                            let discards = self.offer(&mut next, [a0, a1]);
                            branch(next, dp, discards, sent)
                        });
                    }
                }
            }
        }
    }
}

/// Per-(input, output) packet counts for the count-based models
/// (DAMQ/SAMQ/SAFC/DAFC).
pub(crate) type Counts = [[u8; 2]; 2];

/// `counts` with the two inputs' rows exchanged.
pub(crate) fn swap_count_inputs(counts: &Counts) -> Counts {
    [counts[1], counts[0]]
}

/// `counts` with the two outputs' columns exchanged.
pub(crate) fn swap_count_outputs(counts: &Counts) -> Counts {
    counts.map(|[to0, to1]| [to1, to0])
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

    fn single(counts: &Counts) -> Vec<(Counts, f64, u32)> {
        let mut out = Vec::new();
        single_read_port_departures(counts, |next, p, sent| out.push((next, p, sent)));
        out
    }

    fn full(counts: &Counts) -> Vec<(Counts, f64, u32)> {
        let mut out = Vec::new();
        fully_connected_departures(counts, |next, p, sent| out.push((next, p, sent)));
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

    #[test]
    fn departures_first_offers_arrivals_to_each_branch() {
        // One packet for out0 at each input: the tie splits, and the
        // arrival at input 0 (for out1) joins whichever state results.
        let switch = Switch2x2::new(crate::DamqModel::new(1), 1.0, CycleOrder::DeparturesFirst);
        let all = switch.transitions(&[[1, 0], [1, 0]]);
        assert_eq!(all.len(), 8, "2 x 2 arrival pairs, 2 tie branches each");
        let total: f64 = all.iter().map(|t| t.probability).sum();
        assert!((total - 1.0).abs() < 1e-15);
        // Whichever input kept its packet is full and discards its arrival.
        assert!(all.iter().all(|t| t.reward.discards == 1.0));
    }
}
