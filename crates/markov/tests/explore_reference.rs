//! Reference differential: the allocation-free Markov layer against the
//! enumeration, exploration and solvers it replaced.
//!
//! Everything under [`reference`] is the previous implementation kept as
//! a model: FIFO states as the full destination sequences `[Vec<u8>; 2]`,
//! models that return a fresh `Vec` of transitions (with the nested move
//! lists of the count-based designs and the `Vec`-backed k×k
//! arbitration), an explorer that numbers states breadth-first as the
//! shipped one does but collects `(row, col, p)` triplets and sorts them
//! globally, the damped scatter power iteration (the default solver until
//! restarted GMRES replaced it) with a fresh vector per step, and
//! Gauss–Seidel over a `Vec<Vec<_>>` column copy. It is a reference the
//! tests compare against, not a second data path — nothing outside this
//! file runs it. It is also the only place the 2×2 chain over joint
//! occupancies survives: the shipped `Switch2x2` walks orbits under
//! exchanging inputs and outputs, and the reference switch does either
//! (`lumped`). Beside the full-sequence FIFO, `reference::FifoHeads`
//! restates the shipped head-only FIFO (each queue's length and head).
//! The reference switch also enumerates arrivals either way
//! (`reference::Arrivals`): nine-way, three options per input whatever
//! they lead to, as the shipped switch did before, or by distinct
//! outcomes, as it does now — an arrival's two destinations folded into
//! one branch where both leave the same state with the same verdict.
//!
//! The 2×2 differential has four halves, each over traffic {0.25, 0.75,
//! 0.9, 0.99}:
//!
//! - (i) over every Table 2 shape (and DAFC 2–4), the shipped explorer
//!   against the reference applying the same orbit map and the same
//!   distinct-outcome arrivals (for FIFO, the head-only reference), and
//!   the k×k model at radix 2–4 against its reference: the two sides must
//!   agree on the state sequence, every CSR row, every reward and
//!   Gauss–Seidel's `pi`, `iterations` and `residual`, all by
//!   `f64::to_bits` — the committed results carry full-precision values,
//!   so "close" is a diff;
//! - (ii) over the same shapes, the reference on orbits against the
//!   reference on joint occupancies ([`lumping`]): orbit sizes sum to the
//!   joint count, each orbit's row is its representative's row summed by
//!   orbit, and the stationary answers agree. Before that,
//!   [`equivariance`] checks the premise on every joint state: both
//!   generators commute with the branches;
//! - (iii) over FIFO 1–6, the head-only reference on orbits against the
//!   full-sequence reference on joint occupancies ([`deferred_decisions`]):
//!   every hidden arrangement of every head-only state is reachable and
//!   nothing else is, so orbit sizes times arrangements sum to the joint
//!   count; each head-only row is the uniform average of its class's rows
//!   summed by projection; and the stationary answers agree after
//!   projection. The head-only model passes [`equivariance`] too;
//! - (iv) over every Table 2 shape and DAFC 1–6, the distinct-outcome
//!   reference against the nine-way one, both on orbits
//!   ([`distinct_outcomes`]): the same states in the same order, the same
//!   columns in every row, rows and rewards by bits at 0.25 and 0.75 and
//!   within 4 ulp at 0.9 and 0.99 (the most seen is 3), `π` within 1e-14.
//!
//! Halves (ii) and (iii) run the nine-way reference, so the chain of
//! comparisons reaches from the shipped switch to the joint occupancies
//! and the full destination sequences.
//!
//! The default solver eliminates every chain of at most 512 states whose
//! states all reach state 0 (GTH state reduction, then one product to
//! measure the residual) and runs restarted GMRES from the uniform vector
//! on the rest: here, the 4×4 chains at four slots and more, and
//! reducible hand-built ones. Either way it is a different algorithm from
//! the power iteration, so those two are compared as distributions
//! ([`stationary_agreement`]: `‖Δπ‖∞ ≤ 1e-10`, discard probability,
//! throughput and mean occupancy within 1e-12, a recomputed residual
//! within the tolerance and equal to the reported one, `π ≥ 0`, `Σπ = 1`
//! within 1e-12; one product when eliminated, with `π > 0` on every state,
//! else at most [`PRODUCT_BUDGET`]) — and bit for bit with a plain-`Vec`
//! model of the path taken, `reference::gth` or `reference::gmres`, which
//! exist to carry the seeded solver slips.
//!
//! The mutation tests show the differential bites: each seeds one
//! plausible slip into the reference — the two tie branches emitted in the
//! other order; duplicate transitions summed last-first; a new Hessenberg
//! column left unrotated; one basis vector skipped by Gram–Schmidt; the
//! rotated residual estimate trusted without a measurement; the fill of an
//! elimination dropped; a row's multipliers taken in ascending order — and
//! the comparison must fail. Three more seed a tie-break that favours one
//! input or queue, which the equivariance check must refuse, and three
//! more a slip in the head-only FIFO — a new head always bound for output
//! 0, an arrival that overwrites a head, a reveal on a queue that
//! emptied — which half (iii) must refuse, and two a slip in folding an
//! arrival's destinations — folded when either is discarded, folded when
//! only the verdicts match — which half (iv) must refuse.

use std::fmt::Debug;
use std::hash::Hash;

use damq_core::BufferKind;
use damq_markov::{
    Chain, CycleOrder, DafcModel, DamqModel, FifoModel, FifoState, MarkovModel, Reward, SafcModel,
    SamqModel, SolveOptions, SteadyState, Switch2x2, SwitchKxK,
};

/// A seeded slip in the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// A two-way tie (FIFO head conflict between equal queues; two valid
    /// single-read-port assignments) emits its branches in the other order.
    SwapTieBranches,
    /// Transitions that reach the same state are summed last-first.
    SumDuplicatesReversed,
    /// GMRES: a new Hessenberg column is not turned by the Givens rotations
    /// of the columns before it.
    SkipEarlierRotations,
    /// GMRES: Gram–Schmidt leaves the new vector's component along the
    /// newest basis vector in place.
    SkipOneOrthogonalisation,
    /// GMRES: a restart whose rotated estimate meets the tolerance returns
    /// at once, without measuring `‖πP − π‖₁`.
    TrustRotatedEstimate,
    /// Elimination: a reduced row is applied only to the entries the row
    /// already holds, so no fill is created.
    DropFill,
    /// Elimination: a row takes the reduced rows it reaches in ascending
    /// instead of descending order.
    MultipliersAscending,
    /// FIFO: a head-of-line conflict between equal queues always goes to
    /// input 0.
    FifoTieToInput0,
    /// Single read port: a tie for the longest queue goes to the first
    /// such queue in (input, output) order only.
    LongestTieToFirstQueue,
    /// Fully connected: an output whose two queues tie serves input 0.
    FullyConnectedTieToInput0,
    /// Head-only FIFO: a revealed head is always bound for output 0.
    NewHeadAlwaysZero,
    /// Head-only FIFO: an arrival to a non-empty queue becomes its head.
    ArrivalOverwritesHead,
    /// Head-only FIFO: a queue that emptied reveals a head as well.
    RevealOnEmptiedQueue,
    /// Distinct arrivals: the two destinations are folded into one when
    /// either is discarded, not only when both leave the same state with
    /// the same verdict.
    MergeOnAnyDiscard,
    /// Distinct arrivals: the two destinations are folded into one when
    /// their verdicts match, whatever states they leave.
    MergeOnVerdictOnly,
}

mod reference {
    use super::*;
    use damq_markov::FxHashMap;

    pub struct Transition<S> {
        pub next: S,
        pub probability: f64,
        pub reward: Reward,
    }

    pub trait Model {
        type State: Clone + Ord + Hash + Debug;
        fn initial(&self) -> Self::State;
        fn transitions(&self, state: &Self::State) -> Vec<Transition<Self::State>>;
        /// Packets resident in `state`.
        fn occupancy(&self, state: &Self::State) -> u32;
    }

    pub trait Buffer2x2 {
        type State: Clone + Ord + Hash + Debug;
        fn empty(&self) -> Self::State;
        fn occupancy(&self, state: &Self::State) -> u32;
        fn accept(&self, state: &mut Self::State, input: usize, output: usize) -> bool;
        fn departures(&self, state: &Self::State) -> Vec<(Self::State, f64, u32)>;
        fn swap_inputs(&self, state: &Self::State) -> Self::State;
        fn swap_outputs(&self, state: &Self::State) -> Self::State;
        /// The order the shipped state type names orbits by, restated on
        /// this representation: the least image under it is the orbit's
        /// name on both sides.
        fn order_key(&self, state: &Self::State) -> [u32; 4];
    }

    /// The FIFO arbiter on two queues with these heads and lengths: the
    /// inputs whose heads leave, with each outcome's probability — both
    /// heads when they differ, else the longest queue's, ties split evenly.
    fn fifo_arbitration(
        heads: [Option<u8>; 2],
        lens: [usize; 2],
        mutation: Option<Mutation>,
    ) -> Vec<(Vec<usize>, f64)> {
        match heads {
            [None, None] => vec![(vec![], 1.0)],
            [Some(_), None] => vec![(vec![0], 1.0)],
            [None, Some(_)] => vec![(vec![1], 1.0)],
            [Some(h0), Some(h1)] if h0 != h1 => vec![(vec![0, 1], 1.0)],
            [Some(_), Some(_)] => match lens[0].cmp(&lens[1]) {
                std::cmp::Ordering::Greater => vec![(vec![0], 1.0)],
                std::cmp::Ordering::Less => vec![(vec![1], 1.0)],
                std::cmp::Ordering::Equal => match mutation {
                    Some(Mutation::SwapTieBranches) => vec![(vec![1], 0.5), (vec![0], 0.5)],
                    Some(Mutation::FifoTieToInput0) => vec![(vec![0], 1.0)],
                    _ => vec![(vec![0], 0.5), (vec![1], 0.5)],
                },
            },
        }
    }

    pub type FifoState = [Vec<u8>; 2];

    /// FIFO over full destination sequences: the chain the head-only
    /// model aggregates.
    pub struct Fifo {
        pub capacity: usize,
        pub mutation: Option<Mutation>,
    }

    impl Buffer2x2 for Fifo {
        type State = FifoState;

        fn empty(&self) -> FifoState {
            [Vec::new(), Vec::new()]
        }

        fn occupancy(&self, state: &FifoState) -> u32 {
            (state[0].len() + state[1].len()) as u32
        }

        fn accept(&self, state: &mut FifoState, input: usize, output: usize) -> bool {
            if state[input].len() < self.capacity {
                state[input].push(output as u8);
                true
            } else {
                false
            }
        }

        fn departures(&self, state: &FifoState) -> Vec<(FifoState, f64, u32)> {
            let heads = [0, 1].map(|i| state[i].first().copied());
            let lens = [0, 1].map(|i| state[i].len());
            fifo_arbitration(heads, lens, self.mutation)
                .into_iter()
                .map(|(inputs, p)| {
                    let mut next = state.clone();
                    for &i in &inputs {
                        next[i].remove(0);
                    }
                    (next, p, inputs.len() as u32)
                })
                .collect()
        }

        fn swap_inputs(&self, state: &FifoState) -> FifoState {
            [state[1].clone(), state[0].clone()]
        }

        fn swap_outputs(&self, state: &FifoState) -> FifoState {
            state
                .clone()
                .map(|queue| queue.into_iter().map(|output| 1 - output).collect())
        }

        /// Lengths first, then each queue read as a binary number with
        /// the head as its least significant digit.
        fn order_key(&self, state: &FifoState) -> [u32; 4] {
            let word = |queue: &Vec<u8>| {
                (queue.iter().enumerate()).fold(0, |w, (k, &o)| w | u32::from(o) << k)
            };
            [
                state[0].len() as u32,
                state[1].len() as u32,
                word(&state[0]),
                word(&state[1]),
            ]
        }
    }

    /// Per queue, (length, head's destination), the head 0 on an empty
    /// queue.
    pub type HeadState = [(u8, u8); 2];

    /// `state`'s projection: each queue's length and head.
    pub fn project(state: &FifoState) -> HeadState {
        [0, 1].map(|i| (state[i].len() as u8, state[i].first().copied().unwrap_or(0)))
    }

    /// FIFO over queue lengths and heads: a destination behind the head
    /// is drawn when it reaches the head.
    pub struct FifoHeads {
        pub capacity: usize,
        pub mutation: Option<Mutation>,
    }

    impl FifoHeads {
        /// The full states `state` stands for: every destination sequence
        /// behind the two heads.
        pub fn arrangements(&self, state: &HeadState) -> usize {
            state
                .iter()
                .map(|&(len, _)| 1 << len.saturating_sub(1))
                .product()
        }
    }

    impl Buffer2x2 for FifoHeads {
        type State = HeadState;

        fn empty(&self) -> HeadState {
            [(0, 0); 2]
        }

        fn occupancy(&self, state: &HeadState) -> u32 {
            state.iter().map(|&(len, _)| u32::from(len)).sum()
        }

        fn accept(&self, state: &mut HeadState, input: usize, output: usize) -> bool {
            let (len, head) = &mut state[input];
            if usize::from(*len) == self.capacity {
                return false;
            }
            if *len == 0 || self.mutation == Some(Mutation::ArrivalOverwritesHead) {
                *head = output as u8;
            }
            *len += 1;
            true
        }

        /// Each branch of the arbiter, then — for every sent queue that
        /// still holds packets — one branch per new head, in counting
        /// order, the first such queue's head the low bit.
        fn departures(&self, state: &HeadState) -> Vec<(HeadState, f64, u32)> {
            let heads = state.map(|(len, head)| (len > 0).then_some(head));
            let lens = state.map(|(len, _)| usize::from(len));
            let mut out = Vec::new();
            for (inputs, p) in fifo_arbitration(heads, lens, self.mutation) {
                let mut next = *state;
                let mut revealed = Vec::new();
                for &i in &inputs {
                    next[i] = (next[i].0 - 1, 0);
                    if next[i].0 > 0 || self.mutation == Some(Mutation::RevealOnEmptiedQueue) {
                        revealed.push(i);
                    }
                }
                if self.mutation == Some(Mutation::NewHeadAlwaysZero) {
                    revealed.clear();
                }
                let ways = 1u8 << revealed.len();
                for word in 0..ways {
                    let mut branch = next;
                    for (bit, &i) in revealed.iter().enumerate() {
                        branch[i].1 = (word >> bit) & 1;
                    }
                    out.push((branch, p / f64::from(ways), inputs.len() as u32));
                }
            }
            out
        }

        fn swap_inputs(&self, state: &HeadState) -> HeadState {
            [state[1], state[0]]
        }

        fn swap_outputs(&self, state: &HeadState) -> HeadState {
            state.map(|(len, head)| (len, if len > 0 { 1 - head } else { head }))
        }

        /// Lengths first, then heads.
        fn order_key(&self, state: &HeadState) -> [u32; 4] {
            let [(l0, h0), (l1, h1)] = *state;
            [l0, l1, h0, h1].map(u32::from)
        }
    }

    pub type Counts = [[u8; 2]; 2];

    fn single_read_port_moves(
        counts: &Counts,
        mutation: Option<Mutation>,
    ) -> Vec<(Vec<(usize, usize)>, f64)> {
        let straight = counts[0][0] > 0 && counts[1][1] > 0;
        let crossed = counts[0][1] > 0 && counts[1][0] > 0;
        match (straight, crossed) {
            (true, true) if mutation == Some(Mutation::SwapTieBranches) => {
                vec![(vec![(0, 1), (1, 0)], 0.5), (vec![(0, 0), (1, 1)], 0.5)]
            }
            (true, true) => vec![(vec![(0, 0), (1, 1)], 0.5), (vec![(0, 1), (1, 0)], 0.5)],
            (true, false) => vec![(vec![(0, 0), (1, 1)], 1.0)],
            (false, true) => vec![(vec![(0, 1), (1, 0)], 1.0)],
            (false, false) => {
                let mut best = 0;
                let mut candidates: Vec<(usize, usize)> = Vec::new();
                for (input, row) in counts.iter().enumerate() {
                    for (output, &c) in row.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        match c.cmp(&best) {
                            std::cmp::Ordering::Greater => {
                                best = c;
                                candidates = vec![(input, output)];
                            }
                            std::cmp::Ordering::Equal => candidates.push((input, output)),
                            std::cmp::Ordering::Less => {}
                        }
                    }
                }
                if candidates.is_empty() {
                    vec![(Vec::new(), 1.0)]
                } else if mutation == Some(Mutation::LongestTieToFirstQueue) {
                    vec![(vec![candidates[0]], 1.0)]
                } else {
                    let p = 1.0 / candidates.len() as f64;
                    candidates.into_iter().map(|m| (vec![m], p)).collect()
                }
            }
        }
    }

    fn fully_connected_moves(
        counts: &Counts,
        mutation: Option<Mutation>,
    ) -> Vec<(Vec<(usize, usize)>, f64)> {
        let choose = |output: usize| -> Vec<(Option<usize>, f64)> {
            let c0 = counts[0][output];
            let c1 = counts[1][output];
            match (c0 > 0, c1 > 0) {
                (false, false) => vec![(None, 1.0)],
                (true, false) => vec![(Some(0), 1.0)],
                (false, true) => vec![(Some(1), 1.0)],
                (true, true) => match c0.cmp(&c1) {
                    std::cmp::Ordering::Greater => vec![(Some(0), 1.0)],
                    std::cmp::Ordering::Less => vec![(Some(1), 1.0)],
                    std::cmp::Ordering::Equal
                        if mutation == Some(Mutation::FullyConnectedTieToInput0) =>
                    {
                        vec![(Some(0), 1.0)]
                    }
                    std::cmp::Ordering::Equal => vec![(Some(0), 0.5), (Some(1), 0.5)],
                },
            }
        };
        let mut out = Vec::new();
        for (i0, p0) in choose(0) {
            for (i1, p1) in choose(1) {
                let mut moves = Vec::new();
                if let Some(i) = i0 {
                    moves.push((i, 0));
                }
                if let Some(i) = i1 {
                    moves.push((i, 1));
                }
                out.push((moves, p0 * p1));
            }
        }
        out
    }

    fn apply_moves(counts: &Counts, moves: &[(usize, usize)]) -> (Counts, u32) {
        let mut next = *counts;
        for &(input, output) in moves {
            next[input][output] -= 1;
        }
        (next, moves.len() as u32)
    }

    /// The four count-based designs: shared or statically split storage,
    /// one read port or one per output.
    pub struct CountBuffer {
        pub kind: BufferKind,
        pub capacity: u8,
        pub mutation: Option<Mutation>,
    }

    impl Buffer2x2 for CountBuffer {
        type State = Counts;

        fn empty(&self) -> Counts {
            [[0, 0], [0, 0]]
        }

        fn occupancy(&self, state: &Counts) -> u32 {
            state.iter().flatten().map(|&c| u32::from(c)).sum()
        }

        fn accept(&self, state: &mut Counts, input: usize, output: usize) -> bool {
            let fits = match self.kind {
                BufferKind::Damq | BufferKind::Dafc => {
                    state[input][0] + state[input][1] < self.capacity
                }
                _ => state[input][output] < self.capacity / 2,
            };
            if fits {
                state[input][output] += 1;
            }
            fits
        }

        fn departures(&self, state: &Counts) -> Vec<(Counts, f64, u32)> {
            let moves = match self.kind {
                BufferKind::Damq | BufferKind::Samq => single_read_port_moves(state, self.mutation),
                _ => fully_connected_moves(state, self.mutation),
            };
            moves
                .into_iter()
                .map(|(moves, p)| {
                    let (next, sent) = apply_moves(state, &moves);
                    (next, p, sent)
                })
                .collect()
        }

        fn swap_inputs(&self, state: &Counts) -> Counts {
            [state[1], state[0]]
        }

        fn swap_outputs(&self, state: &Counts) -> Counts {
            [[state[0][1], state[0][0]], [state[1][1], state[1][0]]]
        }

        fn order_key(&self, state: &Counts) -> [u32; 4] {
            [state[0][0], state[0][1], state[1][0], state[1][1]].map(u32::from)
        }
    }

    /// How the reference switch enumerates one input's arrival.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Arrivals {
        /// Three options, whatever they lead to: no packet, a packet for
        /// output 0, one for output 1.
        NineWay,
        /// The two destinations folded into the first, at twice its
        /// probability, where both leave the same state with the same
        /// verdict — or where the seeded slip says.
        Distinct(Option<Mutation>),
    }

    /// The switch over joint occupancies, or — `lumped` — over their
    /// orbits under exchanging inputs and outputs, each successor named by
    /// its least image.
    pub struct Switch2x2<M> {
        pub model: M,
        pub traffic: f64,
        pub lumped: bool,
        pub arrivals: Arrivals,
    }

    impl<M: Buffer2x2> Switch2x2<M> {
        fn images(&self, state: &M::State) -> Vec<M::State> {
            let inputs = self.model.swap_inputs(state);
            let outputs = self.model.swap_outputs(state);
            let both = self.model.swap_outputs(&inputs);
            vec![state.clone(), inputs, outputs, both]
        }

        pub fn canonical(&self, state: &M::State) -> M::State {
            let images = self.images(state);
            images
                .into_iter()
                .min_by_key(|s| self.model.order_key(s))
                .unwrap()
        }

        pub fn orbit_size(&self, state: &M::State) -> usize {
            let mut images = self.images(state);
            images.sort();
            images.dedup();
            images.len()
        }

        /// `input`'s arrival options on `state`, as (destination,
        /// probability).
        fn arrival_options(&self, state: &M::State, input: usize) -> Vec<(Option<usize>, f64)> {
            let p = self.traffic;
            let Arrivals::Distinct(mutation) = self.arrivals else {
                return vec![(None, 1.0 - p), (Some(0), p / 2.0), (Some(1), p / 2.0)];
            };
            let offer = |output| {
                let mut next = state.clone();
                let accepted = self.model.accept(&mut next, input, output);
                (next, accepted)
            };
            let ((to0, kept0), (to1, kept1)) = (offer(0), offer(1));
            let fold = match mutation {
                Some(Mutation::MergeOnAnyDiscard) => {
                    (to0 == to1 && kept0 == kept1) || !kept0 || !kept1
                }
                Some(Mutation::MergeOnVerdictOnly) => kept0 == kept1,
                _ => to0 == to1 && kept0 == kept1,
            };
            match fold {
                true => vec![(None, 1.0 - p), (Some(0), p)],
                false => vec![(None, 1.0 - p), (Some(0), p / 2.0), (Some(1), p / 2.0)],
            }
        }

        /// Offers `state` the arrival of option `a0` at input 0, then of
        /// option `a1` at input 1 on the state that left, in the options
        /// each then has: the state, the probability and the packets
        /// offered and discarded, or `None` if either option does not
        /// exist there (the second of two folded destinations) or the
        /// probability is 0.
        fn arrive(
            &self,
            state: &M::State,
            a0: usize,
            a1: usize,
        ) -> Option<(M::State, f64, f64, f64)> {
            let mut st = state.clone();
            let (mut prob, mut arrivals, mut discards) = (1.0, 0.0, 0.0);
            for (input, a) in [(0, a0), (1, a1)] {
                let (arrival, p) = *self.arrival_options(&st, input).get(a)?;
                if p == 0.0 {
                    return None;
                }
                prob *= p;
                if let Some(output) = arrival {
                    arrivals += 1.0;
                    if !self.model.accept(&mut st, input, output) {
                        discards += 1.0;
                    }
                }
            }
            (prob != 0.0).then_some((st, prob, arrivals, discards))
        }
    }

    impl<M: Buffer2x2> Model for Switch2x2<M> {
        type State = M::State;

        fn initial(&self) -> Self::State {
            self.model.empty()
        }

        fn occupancy(&self, state: &Self::State) -> u32 {
            self.model.occupancy(state)
        }

        fn transitions(&self, state: &Self::State) -> Vec<Transition<Self::State>> {
            let mut out = Vec::new();
            for a0 in 0..3 {
                for a1 in 0..3 {
                    let Some((st, prob, arrivals, discards)) = self.arrive(state, a0, a1) else {
                        continue;
                    };
                    for (next, dp, sent) in self.model.departures(&st) {
                        out.push(Transition {
                            next,
                            probability: prob * dp,
                            reward: Reward {
                                arrivals,
                                discards,
                                departures: f64::from(sent),
                            },
                        });
                    }
                }
            }
            if self.lumped {
                for t in &mut out {
                    t.next = self.canonical(&t.next);
                }
            }
            out
        }
    }

    pub type KState = [u8; 16];

    pub struct SwitchKxK {
        pub kind: BufferKind,
        pub radix: usize,
        pub capacity: u8,
        pub traffic: f64,
    }

    impl SwitchKxK {
        fn count(&self, state: &KState, input: usize, output: usize) -> u8 {
            state[input * self.radix + output]
        }

        fn accepts(&self, state: &KState, input: usize, output: usize) -> bool {
            match self.kind {
                BufferKind::Damq | BufferKind::Dafc => {
                    let used: u16 = (0..self.radix)
                        .map(|o| u16::from(self.count(state, input, o)))
                        .sum();
                    used < u16::from(self.capacity)
                }
                _ => self.count(state, input, output) < self.capacity / self.radix as u8,
            }
        }

        fn read_ports(&self) -> usize {
            match self.kind {
                BufferKind::Safc | BufferKind::Dafc => self.radix,
                _ => 1,
            }
        }

        fn departures(&self, state: &KState) -> Vec<(usize, usize)> {
            let k = self.radix;
            let per_input_budget = self.read_ports();
            let mut sent_from = vec![0usize; k];
            let mut output_taken = vec![false; k];
            let mut remaining: KState = *state;
            let mut grants = Vec::new();
            loop {
                let mut best: Option<(u8, usize, usize)> = None;
                for input in 0..k {
                    if sent_from[input] >= per_input_budget {
                        continue;
                    }
                    for output in 0..k {
                        if output_taken[output] {
                            continue;
                        }
                        let c = remaining[input * k + output];
                        if c == 0 {
                            continue;
                        }
                        let better = match best {
                            None => true,
                            Some((bc, bi, bo)) => c > bc || (c == bc && (input, output) < (bi, bo)),
                        };
                        if better {
                            best = Some((c, input, output));
                        }
                    }
                }
                let Some((_, input, output)) = best else {
                    break;
                };
                grants.push((input, output));
                sent_from[input] += 1;
                output_taken[output] = true;
                remaining[input * k + output] -= 1;
            }
            grants
        }
    }

    impl Model for SwitchKxK {
        type State = KState;

        fn initial(&self) -> KState {
            [0; 16]
        }

        fn occupancy(&self, state: &KState) -> u32 {
            state.iter().map(|&c| u32::from(c)).sum()
        }

        fn transitions(&self, state: &KState) -> Vec<Transition<KState>> {
            let k = self.radix;
            let p = self.traffic;
            let mut options: Vec<(Option<usize>, f64)> = vec![(None, 1.0 - p)];
            for o in 0..k {
                options.push((Some(o), p / k as f64));
            }
            let mut out = Vec::new();
            let mut combo = vec![0usize; k];
            loop {
                let mut prob = 1.0;
                for &choice in combo.iter() {
                    prob *= options[choice].1;
                }
                if prob > 0.0 {
                    let mut st = *state;
                    let mut arrivals = 0.0;
                    let mut discards = 0.0;
                    for (input, &choice) in combo.iter().enumerate() {
                        if let (Some(output), _) = options[choice] {
                            arrivals += 1.0;
                            if self.accepts(&st, input, output) {
                                st[input * k + output] += 1;
                            } else {
                                discards += 1.0;
                            }
                        }
                    }
                    let grants = self.departures(&st);
                    for &(input, output) in &grants {
                        st[input * k + output] -= 1;
                    }
                    let sent = grants.len();
                    out.push(Transition {
                        next: st,
                        probability: prob,
                        reward: Reward {
                            arrivals,
                            discards,
                            departures: sent as f64,
                        },
                    });
                }
                let mut pos = 0;
                loop {
                    if pos == k {
                        return merge_duplicates(out);
                    }
                    combo[pos] += 1;
                    if combo[pos] < options.len() {
                        break;
                    }
                    combo[pos] = 0;
                    pos += 1;
                }
            }
        }
    }

    /// Emits in the iteration order of a freshly grown map — the order the
    /// committed 4×4 results were produced in.
    fn merge_duplicates(transitions: Vec<Transition<KState>>) -> Vec<Transition<KState>> {
        let mut merged: FxHashMap<KState, (f64, Reward)> = FxHashMap::default();
        for t in transitions {
            let entry = merged.entry(t.next).or_insert((0.0, Reward::default()));
            entry.0 += t.probability;
            entry.1 = entry.1 + t.reward * t.probability;
        }
        merged
            .into_iter()
            .map(|(next, (probability, weighted))| Transition {
                next,
                probability,
                reward: weighted * (1.0 / probability),
            })
            .collect()
    }

    /// CSR in the old layout, built the old way: a global stable sort of
    /// the triplets, duplicates summed in the order they were pushed.
    pub struct Csr {
        pub n: usize,
        pub row_ptr: Vec<usize>,
        pub col_idx: Vec<u32>,
        pub values: Vec<f64>,
    }

    impl Csr {
        pub fn from_triplet_vec(
            n: usize,
            mut sorted: Vec<(usize, usize, f64)>,
            mutation: Option<Mutation>,
        ) -> Self {
            if mutation == Some(Mutation::SumDuplicatesReversed) {
                sorted.reverse();
            }
            sorted.sort_by_key(|&(r, c, _)| (r, c));
            let mut row_ptr = Vec::with_capacity(n + 1);
            let mut col_idx = Vec::with_capacity(sorted.len());
            let mut values = Vec::with_capacity(sorted.len());
            row_ptr.push(0);
            let mut current_row = 0;
            for (r, c, v) in sorted {
                while current_row < r {
                    row_ptr.push(col_idx.len());
                    current_row += 1;
                }
                if col_idx.len() > row_ptr[current_row] && *col_idx.last().unwrap() == c as u32 {
                    *values.last_mut().unwrap() += v;
                } else {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            while current_row < n {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            Csr {
                n,
                row_ptr,
                col_idx,
                values,
            }
        }

        pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            self.col_idx[lo..hi]
                .iter()
                .zip(&self.values[lo..hi])
                .map(|(&c, &v)| (c as usize, v))
        }

        fn to_columns(&self) -> Vec<Vec<(u32, f64)>> {
            let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); self.n];
            for i in 0..self.n {
                for (j, v) in self.row(i) {
                    cols[j].push((i as u32, v));
                }
            }
            cols
        }

        pub fn left_multiply(&self, x: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; self.n];
            for (i, &xi) in x.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let lo = self.row_ptr[i];
                let hi = self.row_ptr[i + 1];
                for k in lo..hi {
                    out[self.col_idx[k] as usize] += xi * self.values[k];
                }
            }
            out
        }
    }

    pub struct Explored<S> {
        pub states: Vec<S>,
        pub matrix: Csr,
        pub rewards: Vec<Reward>,
        /// Packets resident in each state.
        pub occupancy: Vec<f64>,
    }

    /// Breadth-first: states are numbered as they are discovered and
    /// expanded in that order.
    pub fn explore<M: Model>(model: &M, mutation: Option<Mutation>) -> Explored<M::State> {
        let mut index: FxHashMap<M::State, usize> = FxHashMap::default();
        let root = model.initial();
        index.insert(root.clone(), 0);
        let mut states: Vec<M::State> = vec![root];
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut rewards: Vec<Reward> = Vec::new();

        let mut from = 0;
        while from < states.len() {
            let branches = model.transitions(&states[from]);
            let mut reward = Reward::default();
            for t in branches {
                reward = reward + t.reward * t.probability;
                let to = *index.entry(t.next.clone()).or_insert_with(|| {
                    states.push(t.next.clone());
                    states.len() - 1
                });
                triplets.push((from, to, t.probability));
            }
            rewards.push(reward);
            from += 1;
        }

        let n = states.len();
        Explored {
            occupancy: states
                .iter()
                .map(|s| f64::from(model.occupancy(s)))
                .collect(),
            states,
            matrix: Csr::from_triplet_vec(n, triplets, mutation),
            rewards,
        }
    }

    /// The damped power iteration `π ← d·πP + (1 − d)·π`; the damping
    /// breaks the oscillation of periodic chains.
    pub fn steady_state(matrix: &Csr, options: SolveOptions) -> SteadyState {
        let n = matrix.n;
        let mut pi = vec![1.0 / n as f64; n];
        let d = 0.75;
        for iteration in 1..=options.max_iterations {
            let next = matrix.left_multiply(&pi);
            let mut diff = 0.0;
            let mut norm = 0.0;
            for i in 0..n {
                let blended = d * next[i] + (1.0 - d) * pi[i];
                diff += (blended - pi[i]).abs();
                pi[i] = blended;
                norm += blended;
            }
            for v in &mut pi {
                *v /= norm;
            }
            if diff / d <= options.tolerance {
                let check = matrix.left_multiply(&pi);
                let residual: f64 = check.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
                return SteadyState {
                    pi,
                    iterations: iteration,
                    residual,
                };
            }
        }
        panic!("reference power iteration did not converge");
    }

    /// `Σ a_j·b_j` in the solver's order: four interleaved partial sums.
    fn inner(a: &[f64], b: &[f64]) -> f64 {
        let whole = a.len() / 4 * 4;
        let mut acc = [0.0; 4];
        for j in 0..whole {
            acc[j % 4] += a[j] * b[j];
        }
        let tail: f64 = (whole..a.len()).map(|j| a[j] * b[j]).sum();
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    /// The default solver — GMRES restarted every 12 steps on
    /// `(I − Pᵀ)x = 0`, each restart ending on one plain step — as a
    /// model: fresh vectors everywhere, the basis a `Vec` of `Vec`s, the
    /// same arithmetic in the same order.
    pub fn gmres(
        matrix: &Csr,
        options: SolveOptions,
        mutation: Option<Mutation>,
    ) -> Result<SteadyState, String> {
        const RESTART: usize = 12;
        let n = matrix.n;
        let mut pi = vec![1.0 / n as f64; n];
        let mut products = 0;
        loop {
            let moved = matrix.left_multiply(&pi);
            products += 1;
            let (mut residual, mut squares) = (0.0, 0.0);
            for j in 0..n {
                let r = moved[j] - pi[j];
                residual += r.abs();
                squares += r * r;
            }
            let beta = f64::sqrt(squares);
            if residual <= options.tolerance {
                return Ok(SteadyState {
                    pi,
                    iterations: products,
                    residual,
                });
            }
            if products == options.max_iterations {
                return Err(format!("residual {residual:e} after {products} products"));
            }
            let spare = options.max_iterations - products - 1;
            if beta == 0.0 || spare == 0 {
                continue;
            }
            let target = 0.5 * options.tolerance * beta / residual;
            let mut basis: Vec<Vec<f64>> =
                vec![(0..n).map(|j| (moved[j] - pi[j]) / beta).collect()];
            let mut upper: Vec<Vec<f64>> = Vec::new();
            let (mut cos, mut sin) = (Vec::new(), Vec::new());
            let mut rhs = vec![beta];
            for k in 0..RESTART.min(spare - 1) {
                let mut w = matrix.left_multiply(&basis[k]);
                products += 1;
                let mut column = vec![0.0; k + 2];
                for (i, v) in basis.iter().enumerate() {
                    if mutation == Some(Mutation::SkipOneOrthogonalisation) && i == k {
                        continue;
                    }
                    let along = inner(&w, v);
                    for j in 0..n {
                        w[j] += -along * v[j];
                    }
                    column[i] = -along;
                }
                column[k] += 1.0;
                let norm = inner(&w, &w).sqrt();
                column[k + 1] = -norm;
                if mutation != Some(Mutation::SkipEarlierRotations) {
                    for i in 0..k {
                        let (a, b) = (column[i], column[i + 1]);
                        column[i] = cos[i] * a + sin[i] * b;
                        column[i + 1] = cos[i] * b - sin[i] * a;
                    }
                }
                let radius = column[k].hypot(column[k + 1]);
                cos.push(column[k] / radius);
                sin.push(column[k + 1] / radius);
                column[k] = radius;
                rhs.push(-sin[k] * rhs[k]);
                rhs[k] *= cos[k];
                upper.push(column);
                if norm == 0.0 || rhs[k + 1].abs() <= target {
                    break;
                }
                basis.push(w.iter().map(|m| m / norm).collect());
            }
            let columns = upper.len();
            let mut weights = vec![0.0; columns];
            for i in (0..columns).rev() {
                let known: f64 = (i + 1..columns).map(|j| upper[j][i] * weights[j]).sum();
                weights[i] = (rhs[i] - known) / upper[i][i];
            }
            for (v, weight) in basis.iter().zip(&weights) {
                for j in 0..n {
                    pi[j] += weight * v[j];
                }
            }
            for p in &mut pi {
                *p = p.max(0.0);
            }
            let stepped = matrix.left_multiply(&pi);
            products += 1;
            let mass: f64 = stepped.iter().sum();
            pi = stepped.iter().map(|m| m / mass).collect();
            let estimate = rhs[columns].abs() * residual / beta;
            if mutation == Some(Mutation::TrustRotatedEstimate) && estimate <= options.tolerance {
                return Ok(SteadyState {
                    pi,
                    iterations: products,
                    residual: estimate,
                });
            }
        }
    }

    /// GTH state reduction — the default solver's start on the chains it
    /// eliminates — as a model: dense rows, every state's row reduced by
    /// every higher reduced row it reaches, in descending order, the
    /// multipliers of back-substitution read by reducing each row again;
    /// then the one product that measures `‖πP − π‖₁`. The same
    /// arithmetic in the same order as the solver: the entries the solver
    /// leaves out by structure are exact zeros here, and adding them moves
    /// no bit.
    pub fn gth(matrix: &Csr, mutation: Option<Mutation>) -> Result<SteadyState, String> {
        let n = matrix.n;
        // Row `k` reduced by the rows in `reduced` above it, each
        // multiplier handed to `multiplier` as it is taken.
        let reduce = |k: usize, reduced: &[Vec<f64>], multiplier: &mut dyn FnMut(usize, f64)| {
            let mut w = vec![0.0; n];
            for (c, v) in matrix.row(k) {
                w[c] = v;
            }
            let higher: Vec<usize> = match mutation {
                Some(Mutation::MultipliersAscending) => (k + 1..n).collect(),
                _ => (k + 1..n).rev().collect(),
            };
            for m in higher {
                let a = w[m];
                if a == 0.0 {
                    continue;
                }
                multiplier(m, a);
                for j in 0..m {
                    if mutation == Some(Mutation::DropFill) && w[j] == 0.0 {
                        continue;
                    }
                    w[j] += a * reduced[m][j];
                }
            }
            w
        };
        let mut reduced = vec![Vec::new(); n];
        let mut pivots = vec![0.0; n];
        for k in (1..n).rev() {
            let w = reduce(k, &reduced, &mut |_, _| {});
            let pivot: f64 = w[..k].iter().sum();
            if pivot.is_nan() || pivot <= 0.0 {
                return Err(format!("pivot {k} is {pivot:e}"));
            }
            reduced[k] = w[..k].iter().map(|x| x / pivot).collect();
            pivots[k] = pivot;
        }
        let mut pi = vec![0.0; n];
        pi[0] = 1.0;
        for i in 0..n {
            if i > 0 {
                pi[i] /= pivots[i];
            }
            let weight = pi[i];
            reduce(i, &reduced, &mut |m, a| pi[m] += weight * a);
        }
        let mass: f64 = pi.iter().sum();
        let pi: Vec<f64> = pi.iter().map(|p| p / mass).collect();
        let moved = matrix.left_multiply(&pi);
        let residual = moved.iter().zip(&pi).map(|(m, p)| (m - p).abs()).sum();
        Ok(SteadyState {
            pi,
            iterations: 1,
            residual,
        })
    }

    /// The multiply-adds the solver's elimination takes on `matrix`: the
    /// reduced rows applied while eliminating (every column below the
    /// reduced row's own) and again in back-substitution (only the
    /// columns above the row being reduced, plus one per multiplier) —
    /// counted on the fill pattern, which a symbolic elimination finds.
    pub fn elimination_work(matrix: &Csr) -> usize {
        use std::collections::BTreeSet;
        let n = matrix.n;
        let mut pattern: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for k in (0..n).rev() {
            let mut row: BTreeSet<usize> = matrix.row(k).map(|(c, _)| c).collect();
            let mut limit = n;
            while let Some(&m) = row.range(k + 1..limit).next_back() {
                row.extend(pattern[m].range(..m));
                limit = m;
            }
            pattern[k] = row;
        }
        let mut work = 0;
        for (k, row) in pattern.iter().enumerate() {
            for &m in row.range(k + 1..) {
                // Row 0 is only reduced for its multipliers.
                if k > 0 {
                    work += pattern[m].range(..m).count();
                }
                work += 1 + pattern[m].range(k + 1..m).count();
            }
        }
        work
    }

    /// Whether every state of `matrix` reaches state 0 — the domain of
    /// the solver's elimination, found by a search backwards from 0.
    pub fn every_state_reaches_0(matrix: &Csr) -> bool {
        let mut into: Vec<Vec<usize>> = vec![Vec::new(); matrix.n];
        for i in 0..matrix.n {
            for (j, _) in matrix.row(i) {
                into[j].push(i);
            }
        }
        let mut seen = vec![false; matrix.n];
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(j) = stack.pop() {
            for &i in &into[j] {
                if !std::mem::replace(&mut seen[i], true) {
                    stack.push(i);
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    pub fn steady_state_gauss_seidel(matrix: &Csr, options: SolveOptions) -> SteadyState {
        let n = matrix.n;
        let columns = matrix.to_columns();
        let self_loop: Vec<f64> = (0..n)
            .map(|j| {
                columns[j]
                    .iter()
                    .find(|&&(i, _)| i as usize == j)
                    .map_or(0.0, |&(_, v)| v)
            })
            .collect();

        let mut pi = vec![1.0 / n as f64; n];
        for iteration in 1..=options.max_iterations {
            let mut diff = 0.0;
            for j in 0..n {
                let incoming: f64 = columns[j]
                    .iter()
                    .filter(|&&(i, _)| i as usize != j)
                    .map(|&(i, v)| pi[i as usize] * v)
                    .sum();
                let denom = 1.0 - self_loop[j];
                let updated = if denom > 1e-15 {
                    incoming / denom
                } else {
                    pi[j]
                };
                diff += (updated - pi[j]).abs();
                pi[j] = updated;
            }
            let norm: f64 = pi.iter().sum();
            if norm > 0.0 {
                for v in &mut pi {
                    *v /= norm;
                }
            }
            if diff <= options.tolerance * norm.max(1.0) {
                let check = matrix.left_multiply(&pi);
                let residual: f64 = check.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
                return SteadyState {
                    pi,
                    iterations: iteration,
                    residual,
                };
            }
        }
        panic!("reference Gauss-Seidel did not converge");
    }
}

fn bits(r: Reward) -> [u64; 3] {
    [r.arrivals, r.discards, r.departures].map(f64::to_bits)
}

fn same_solution(what: &str, new: &SteadyState, old: &SteadyState) -> Result<(), String> {
    if new.iterations != old.iterations {
        return Err(format!(
            "{what}: {} iterations vs {}",
            new.iterations, old.iterations
        ));
    }
    if new.residual.to_bits() != old.residual.to_bits() {
        return Err(format!(
            "{what}: residual {:e} vs {:e}",
            new.residual, old.residual
        ));
    }
    match (new.pi.iter().zip(&old.pi)).position(|(a, b)| a.to_bits() != b.to_bits()) {
        Some(i) => Err(format!(
            "{what}: pi[{i}] {:e} vs {:e}",
            new.pi[i], old.pi[i]
        )),
        None => Ok(()),
    }
}

/// Most products the default solver may spend on one chain it does not
/// eliminate (the most any takes here is 53, on the 4×4 DAMQ chain at
/// two slots).
const PRODUCT_BUDGET: usize = 150;

/// The solver's state bound for elimination, restated.
const ELIMINATION_MAX_STATES: usize = 512;

/// Discard probability, throughput and mean occupancy under `pi`, from a
/// chain's per-state rewards and occupancies.
fn measures(rewards: &[Reward], occupancy: &[f64], pi: &[f64]) -> [f64; 3] {
    let mut reward = Reward::default();
    let mut packets = 0.0;
    for ((r, &o), &p) in rewards.iter().zip(occupancy).zip(pi) {
        reward = reward + *r * p;
        packets += p * o;
    }
    let discard = if reward.arrivals > 0.0 {
        reward.discards / reward.arrivals
    } else {
        0.0
    };
    [discard, reward.departures, packets]
}

/// `candidate` — a solve of `matrix` — against the power iteration's
/// answer `power`, as distributions: `rewards` and `occupancy` are the
/// chain's per-state rewards and occupancies, `budget` the most products
/// the solve may have taken.
fn stationary_agreement(
    matrix: &reference::Csr,
    (rewards, occupancy): (&[Reward], &[f64]),
    candidate: &SteadyState,
    power: &SteadyState,
    budget: usize,
) -> Result<(), String> {
    let tolerance = SolveOptions::default().tolerance;
    let pi = &candidate.pi;
    if let Some(i) = pi.iter().position(|p| p.is_nan() || *p < 0.0) {
        return Err(format!("pi[{i}] = {:e} is not a probability", pi[i]));
    }
    let mass: f64 = pi.iter().sum();
    if (mass - 1.0).abs() > 1e-12 {
        return Err(format!("pi sums to {mass}"));
    }
    let moved = matrix.left_multiply(pi);
    let residual: f64 = moved.iter().zip(pi).map(|(m, p)| (m - p).abs()).sum();
    if residual.to_bits() != candidate.residual.to_bits()
        || residual.is_nan()
        || residual > tolerance
    {
        return Err(format!(
            "residual {residual:e} recomputed, {:e} reported, tolerance {tolerance:e}",
            candidate.residual
        ));
    }
    let apart = (pi.iter().zip(&power.pi)).fold(0.0, |worst: f64, (a, b)| worst.max((a - b).abs()));
    if apart > 1e-10 {
        return Err(format!("pi is {apart:e} from the power iteration's"));
    }
    let ours = measures(rewards, occupancy, pi);
    let theirs = measures(rewards, occupancy, &power.pi);
    // Mean occupancy runs to 12 packets: 1e-12 of it is the same 13 digits.
    if (0..3).any(|k| (ours[k] - theirs[k]).abs() > 1e-12 * theirs[k].max(1.0)) {
        return Err(format!(
            "[discard, throughput, occupancy] {ours:?} vs {theirs:?}"
        ));
    }
    if candidate.iterations > budget {
        return Err(format!(
            "{} products, budget {budget}",
            candidate.iterations
        ));
    }
    Ok(())
}

/// `solved`, the default solver's verdict on a chain, against the
/// references run on `matrix`, the same chain's matrix (with its per-state
/// rewards and occupancies in `values`): as a distribution against the
/// power iteration, and bit for bit against a model of the path the solver
/// must have taken — which carries `mutation` and must pass the
/// distribution check first, so a seeded solver slip is caught by the
/// check that would catch it in the solver itself.
///
/// The path is decided here, not by asking either model: a chain of at
/// most [`ELIMINATION_MAX_STATES`] states whose every state reaches state
/// 0 is eliminated, and then the solver has taken one product, its `π` is
/// positive on every state (each chain swept here is one closed class) and
/// it equals the elimination model; any other chain runs the GMRES loop
/// from the uniform vector, within `budget` products, equal to the GMRES
/// model.
fn default_solver_differential(
    solved: Result<SteadyState, damq_markov::SolveError>,
    matrix: &reference::Csr,
    values: (&[Reward], &[f64]),
    budget: usize,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    let options = SolveOptions::default();
    let power = reference::steady_state(
        matrix,
        SolveOptions {
            tolerance: 1e-15,
            ..options
        },
    );
    let direct = matrix.n <= ELIMINATION_MAX_STATES && reference::every_state_reaches_0(matrix);
    let budget = if direct { 1 } else { budget };
    let agrees = |ss: &SteadyState| stationary_agreement(matrix, values, ss, &power, budget);
    let (name, model) = match direct {
        true => ("elimination model", reference::gth(matrix, mutation)),
        false => ("GMRES model", reference::gmres(matrix, options, mutation)),
    };
    let model = model
        .and_then(|model| agrees(&model).map(|()| model))
        .map_err(|e| format!("{name} vs power iteration: {e}"))?;
    let solved = solved.map_err(|e| e.to_string())?;
    agrees(&solved).map_err(|e| format!("default solver vs power iteration: {e}"))?;
    if let Some(i) = (direct.then_some(&solved.pi)).and_then(|pi| pi.iter().position(|&p| p <= 0.0))
    {
        return Err(format!(
            "eliminated pi[{i}] = {:e} is not positive",
            solved.pi[i]
        ));
    }
    same_solution(&format!("default solver vs {name}"), &solved, &model)
}

/// Explores and solves `new` and `old` and compares every bit (the
/// default solver: see [`default_solver_differential`]); `unpack` maps a
/// new-side state to the reference's representation.
fn differential<N, O>(
    new: &N,
    old: &O,
    unpack: impl Fn(&N::State) -> O::State,
    mutation: Option<Mutation>,
) -> Result<(), String>
where
    N: MarkovModel,
    O: reference::Model,
{
    let chain = Chain::explore(new);
    let model = reference::explore(old, mutation);
    if chain.state_count() != model.states.len() {
        return Err(format!(
            "{} states vs {}",
            chain.state_count(),
            model.states.len()
        ));
    }
    for (i, expected) in model.states.iter().enumerate() {
        if unpack(chain.state(i)) != *expected {
            return Err(format!("state {i}: {:?} vs {expected:?}", chain.state(i)));
        }
        let row: Vec<(usize, u64)> =
            (chain.matrix().row(i).map(|(c, v)| (c, v.to_bits()))).collect();
        let expected: Vec<(usize, u64)> =
            (model.matrix.row(i).map(|(c, v)| (c, v.to_bits()))).collect();
        if row != expected {
            return Err(format!("row {i}: {row:x?} vs {expected:x?}"));
        }
        if bits(chain.reward(i)) != bits(model.rewards[i]) {
            return Err(format!(
                "reward {i}: {:?} vs {:?}",
                chain.reward(i),
                model.rewards[i]
            ));
        }
    }
    let options = SolveOptions::default();
    default_solver_differential(
        chain.steady_state(options),
        &model.matrix,
        (&model.rewards, &model.occupancy),
        PRODUCT_BUDGET,
        mutation,
    )?;
    same_solution(
        "Gauss-Seidel",
        &(chain.steady_state_gauss_seidel(options)).map_err(|e| e.to_string())?,
        &reference::steady_state_gauss_seidel(&model.matrix, options),
    )
}

/// 0.9 is the level that tells summation orders apart: at the dyadic 0.25
/// and 0.75 every product and sum is exact, and at 0.99 the duplicate
/// branches happen to add to the same bits in either order.
const TRAFFICS: [f64; 4] = [0.25, 0.75, 0.9, 0.99];

/// The shipped FIFO state in the head-only reference's representation.
fn heads_of(state: &FifoState) -> reference::HeadState {
    [0, 1].map(|i| (state.len(i) as u8, state.head(i).unwrap_or(0)))
}

/// One 2×2 shape at one traffic level, shipped against
/// the reference applying the same orbit map (half (i)).
fn two_by_two(
    kind: BufferKind,
    capacity: usize,
    traffic: f64,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    // A count-based design against the reference with the same rules.
    fn counts<M>(model: M, old: reference::CountBuffer, traffic: f64) -> Result<(), String>
    where
        M: damq_markov::BufferModel2x2<State = damq_markov::Counts>,
    {
        let mutation = old.mutation;
        differential(
            &Switch2x2::new(model, traffic, CycleOrder::ArrivalsFirst),
            &reference::Switch2x2 {
                model: old,
                traffic,
                lumped: true,
                arrivals: reference::Arrivals::Distinct(None),
            },
            |s| s.0,
            mutation,
        )
    }
    let old = reference::CountBuffer {
        kind,
        capacity: capacity as u8,
        mutation,
    };
    match kind {
        BufferKind::Fifo => differential(
            &Switch2x2::new(FifoModel::new(capacity), traffic, CycleOrder::ArrivalsFirst),
            &reference::Switch2x2 {
                model: reference::FifoHeads { capacity, mutation },
                traffic,
                lumped: true,
                arrivals: reference::Arrivals::Distinct(None),
            },
            heads_of,
            mutation,
        ),
        BufferKind::Damq => counts(DamqModel::new(capacity), old, traffic),
        BufferKind::Samq => counts(SamqModel::new(capacity), old, traffic),
        BufferKind::Safc => counts(SafcModel::new(capacity), old, traffic),
        BufferKind::Dafc => counts(DafcModel::new(capacity), old, traffic),
    }
    .map_err(|e| format!("{kind} capacity {capacity} traffic {traffic}: {e}"))
}

/// The reference switch over joint occupancies is equivariant: on every
/// reachable state `s` and for both generators `g`, the branches out of
/// `g·s` are the branches out of `s` moved by `g`, as a multiset of
/// (successor, probability, reward), all by bits.
fn equivariance<M: reference::Buffer2x2>(
    full: &reference::Switch2x2<M>,
    states: &[M::State],
) -> Result<(), String> {
    use reference::Model;
    type Generator<M, S> = fn(&M, &S) -> S;
    let generators: [(&str, Generator<M, M::State>); 2] =
        [("inputs", M::swap_inputs), ("outputs", M::swap_outputs)];
    // The branches out of `of`, each successor moved by `g`, sorted.
    let multiset = |of: &M::State, g: &dyn Fn(&M::State) -> M::State| {
        let mut branches: Vec<_> = (full.transitions(of).iter())
            .map(|t| (g(&t.next), t.probability.to_bits(), bits(t.reward)))
            .collect();
        branches.sort();
        branches
    };
    for state in states {
        for (name, g) in generators {
            let image = multiset(&g(&full.model, state), &|s| s.clone());
            let moved = multiset(state, &|s| g(&full.model, s));
            if image != moved {
                return Err(format!(
                    "equivariance: swapping the {name} of {state:?} gives {image:x?}, \
                     its branches moved give {moved:x?}"
                ));
            }
        }
    }
    Ok(())
}

/// The reference chain on orbits against the reference chain on joint
/// occupancies (half (ii)): the orbit sizes add up to the joint count,
/// each orbit's rewards are its representative's and its row is the
/// representative's row summed by orbit (within 1e-15 per entry), and
/// the two stationary answers agree — `π` summed by orbit within 1e-10,
/// discard probability, throughput and mean occupancy within 1e-12 (of
/// the value, where it exceeds 1).
fn lumping<M: reference::Buffer2x2>(
    full: &reference::Switch2x2<M>,
    unlumped: &reference::Explored<M::State>,
    lumped: &reference::Explored<M::State>,
) -> Result<(), String> {
    use damq_markov::FxHashMap;
    let sizes: usize = lumped.states.iter().map(|s| full.orbit_size(s)).sum();
    if sizes != unlumped.states.len() {
        return Err(format!(
            "orbit sizes sum to {sizes}, {} joint states",
            unlumped.states.len()
        ));
    }
    let joint: FxHashMap<&M::State, usize> = (unlumped.states.iter().enumerate())
        .map(|(j, s)| (s, j))
        .collect();
    let orbit: FxHashMap<&M::State, usize> = (lumped.states.iter().enumerate())
        .map(|(i, s)| (s, i))
        .collect();
    let orbit_of = |s: &M::State| orbit[&full.canonical(s)];
    for (i, representative) in lumped.states.iter().enumerate() {
        let Some(&j) = joint.get(representative) else {
            return Err(format!("orbit {representative:?} is not reachable"));
        };
        if bits(lumped.rewards[i]) != bits(unlumped.rewards[j]) {
            return Err(format!(
                "orbit {representative:?}: reward {:?} vs {:?}",
                lumped.rewards[i], unlumped.rewards[j]
            ));
        }
        let mut summed = std::collections::BTreeMap::new();
        for (col, p) in unlumped.matrix.row(j) {
            *summed.entry(orbit_of(&unlumped.states[col])).or_insert(0.0) += p;
        }
        let row: Vec<(usize, f64)> = lumped.matrix.row(i).collect();
        let agrees = row.len() == summed.len()
            && (row.iter().zip(&summed))
                .all(|(&(c, a), (&d, &b))| c == d && (a - b).abs() <= 1e-15);
        if !agrees {
            return Err(format!(
                "orbit {representative:?}: row {row:?}, summed by orbit {summed:?}"
            ));
        }
    }
    // Past the default tolerance, so what is compared is the lumping and
    // not two solves' rounding (on the slowest-mixing FIFO-6 chains the
    // default leaves the occupancies ~1e-12 apart).
    let options = SolveOptions {
        tolerance: 1e-15,
        max_iterations: 1_000,
    };
    let solve =
        |chain: &reference::Explored<M::State>| reference::gmres(&chain.matrix, options, None);
    let (by_state, by_orbit) = (solve(unlumped)?, solve(lumped)?);
    let mut summed = vec![0.0; lumped.states.len()];
    for (state, p) in unlumped.states.iter().zip(&by_state.pi) {
        summed[orbit_of(state)] += p;
    }
    let apart =
        (summed.iter().zip(&by_orbit.pi)).fold(0.0, |worst: f64, (a, b)| worst.max((a - b).abs()));
    if apart > 1e-10 {
        return Err(format!(
            "pi summed by orbit is {apart:e} from the lumped pi"
        ));
    }
    let on_states = measures(&unlumped.rewards, &unlumped.occupancy, &by_state.pi);
    let on_orbits = measures(&lumped.rewards, &lumped.occupancy, &by_orbit.pi);
    // Mean occupancy runs to 12 packets: 1e-12 of it is the same 13 digits.
    if (0..3).any(|k| (on_states[k] - on_orbits[k]).abs() > 1e-12 * on_states[k].max(1.0)) {
        return Err(format!(
            "[discard, throughput, occupancy] {on_orbits:?} on orbits, {on_states:?} on joint states"
        ));
    }
    Ok(())
}

/// One 2×2 shape's symmetry: equivariance of the reference model (which
/// carries `mutation`), then lumping.
fn symmetry(
    kind: BufferKind,
    capacity: usize,
    traffic: f64,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    fn check<M: reference::Buffer2x2>(model: impl Fn() -> M, traffic: f64) -> Result<(), String> {
        let switch = |lumped| reference::Switch2x2 {
            model: model(),
            traffic,
            lumped,
            arrivals: reference::Arrivals::NineWay,
        };
        let full = switch(false);
        let unlumped = reference::explore(&full, None);
        equivariance(&full, &unlumped.states)?;
        lumping(&full, &unlumped, &reference::explore(&switch(true), None))
    }
    match kind {
        BufferKind::Fifo => check(|| reference::Fifo { capacity, mutation }, traffic),
        _ => check(
            || reference::CountBuffer {
                kind,
                capacity: capacity as u8,
                mutation,
            },
            traffic,
        ),
    }
    .map_err(|e| format!("{kind} capacity {capacity} traffic {traffic}: {e}"))
}

/// The head-only FIFO on orbits against the full-sequence FIFO on joint
/// occupancies (half (iii)), after [`equivariance`] on the head-only
/// model over its own joint states. `mutation` goes to the head-only side
/// only; the full-sequence chain is the oracle.
///
/// - Every reachable full state projects (onto its lengths and heads)
///   into a reachable orbit, and each orbit's representative has exactly
///   [`arrangements`](reference::FifoHeads::arrangements) reachable full
///   states projecting onto it — so orbit sizes times arrangements sum to
///   the joint count, the count `DiscardPoint::states` reports.
/// - Each orbit's row is the uniform average, over the representative's
///   class of full states, of their rows summed by projection onto
///   orbits, and so are its rewards. The averaging is exact (the hidden
///   destinations only split a branch into dyadic shares of it and a
///   class holds a power of two members), so they must agree by bits at
///   the dyadic traffic levels; at 0.9 and 0.99 they may differ by the
///   rounding of summing the class in another order, `(members + 36)·ε`
///   per unit (at most 2.4e-13; the worst seen is 1.9e-14 per entry and
///   3.1e-14 per reward, on FIFO-6).
/// - Solved to 1e-15 as [`lumping`] does, `π` summed by projection agrees
///   within 1e-10, and discard probability, throughput and mean occupancy
///   within 1e-12 (of the value, where it exceeds 1).
fn deferred_decisions(
    capacity: usize,
    traffic: f64,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    use damq_markov::FxHashMap;
    let heads = |lumped| reference::Switch2x2 {
        model: reference::FifoHeads { capacity, mutation },
        traffic,
        lumped,
        arrivals: reference::Arrivals::NineWay,
    };
    let (observed, named) = (heads(false), heads(true));
    equivariance(&observed, &reference::explore(&observed, None).states)?;
    let orbits = reference::explore(&named, None);
    let full = reference::Switch2x2 {
        model: reference::Fifo {
            capacity,
            mutation: None,
        },
        traffic,
        lumped: false,
        arrivals: reference::Arrivals::NineWay,
    };
    let joint = reference::explore(&full, None);

    let orbit: FxHashMap<reference::HeadState, usize> = (orbits.states.iter().enumerate())
        .map(|(i, s)| (*s, i))
        .collect();
    let mut orbit_of = Vec::new();
    let mut class = vec![Vec::new(); orbits.states.len()];
    for (j, state) in joint.states.iter().enumerate() {
        let projected = reference::project(state);
        let Some(&i) = orbit.get(&named.canonical(&projected)) else {
            return Err(format!(
                "{state:?} projects onto {projected:?}, in no head-only orbit"
            ));
        };
        orbit_of.push(i);
        if projected == orbits.states[i] {
            class[i].push(j);
        }
    }
    let arrangements = |s: &reference::HeadState| named.model.arrangements(s);
    let sizes: usize = (orbits.states.iter())
        .map(|s| named.orbit_size(s) * arrangements(s))
        .sum();
    if sizes != joint.states.len() {
        return Err(format!(
            "orbit sizes times arrangements sum to {sizes}, {} joint states",
            joint.states.len()
        ));
    }
    let dyadic = (4.0 * traffic).fract() == 0.0;
    for (i, representative) in orbits.states.iter().enumerate() {
        let members = &class[i];
        if members.len() != arrangements(representative) {
            return Err(format!(
                "{representative:?} stands for {} arrangements, {} are reachable",
                arrangements(representative),
                members.len()
            ));
        }
        // Exact at 0.25 and 0.75; otherwise the bound on summing the
        // members, each a sum of at most 36 branches, in another order.
        let slack = match dyadic {
            true => 0.0,
            false => (members.len() + 36) as f64 * f64::EPSILON,
        };
        let share = 1.0 / members.len() as f64;
        let mut averaged = std::collections::BTreeMap::new();
        let mut reward = Reward::default();
        for &j in members {
            for (col, p) in joint.matrix.row(j) {
                *averaged.entry(orbit_of[col]).or_insert(0.0) += p * share;
            }
            reward = reward + joint.rewards[j] * share;
        }
        let row: Vec<(usize, f64)> = orbits.matrix.row(i).collect();
        let agrees = row.len() == averaged.len()
            && (row.iter().zip(&averaged))
                .all(|(&(c, a), (&d, &b))| c == d && (a - b).abs() <= slack);
        if !agrees {
            return Err(format!(
                "orbit {representative:?}: row {row:?}, its class averaged {averaged:?}"
            ));
        }
        // Rewards count up to two packets.
        let [ours, theirs] =
            [orbits.rewards[i], reward].map(|r| [r.arrivals, r.discards, r.departures]);
        if (0..3).any(|k| (ours[k] - theirs[k]).abs() > 2.0 * slack) {
            return Err(format!(
                "orbit {representative:?}: reward {:?}, its class averaged {reward:?}",
                orbits.rewards[i]
            ));
        }
    }
    let options = SolveOptions {
        tolerance: 1e-15,
        max_iterations: 1_000,
    };
    let by_state = reference::gmres(&joint.matrix, options, None)?;
    let by_orbit = reference::gmres(&orbits.matrix, options, None)?;
    let mut summed = vec![0.0; orbits.states.len()];
    for (&i, p) in orbit_of.iter().zip(&by_state.pi) {
        summed[i] += p;
    }
    let apart =
        (summed.iter().zip(&by_orbit.pi)).fold(0.0, |worst: f64, (a, b)| worst.max((a - b).abs()));
    if apart > 1e-10 {
        return Err(format!(
            "pi summed by projection is {apart:e} from the head-only pi"
        ));
    }
    let on_states = measures(&joint.rewards, &joint.occupancy, &by_state.pi);
    let on_orbits = measures(&orbits.rewards, &orbits.occupancy, &by_orbit.pi);
    if (0..3).any(|k| (on_states[k] - on_orbits[k]).abs() > 1e-12 * on_states[k].max(1.0)) {
        return Err(format!(
            "[discard, throughput, occupancy] {on_orbits:?} head-only, {on_states:?} on full sequences"
        ));
    }
    Ok(())
}

/// The reference switch with distinct-outcome arrivals against the
/// nine-way one, both on orbits (half (iv)). Folding an arrival's two
/// destinations into one branch where they leave the same state with the
/// same verdict drops only branches that repeat the one before them: the
/// folded branch sits where the first of the two sat, at twice its
/// probability, so the same states are discovered in the same order and
/// every row has the same columns. What moves is the rounding of the sums
/// the fold shortens (`x + a + b + a` becomes `x + 2a + b`): at the dyadic
/// 0.25 and 0.75 every product and sum is exact, so rows and rewards must
/// agree by bits; at 0.9 and 0.99 every entry and reward within 4 ulp,
/// and `π` (by elimination) within 1e-14. `mutation` goes to the
/// distinct-outcome side only.
fn distinct_outcomes(
    kind: BufferKind,
    capacity: usize,
    traffic: f64,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    fn check<M: reference::Buffer2x2>(
        model: impl Fn() -> M,
        traffic: f64,
        mutation: Option<Mutation>,
    ) -> Result<(), String> {
        let explore = |arrivals| {
            let switch = reference::Switch2x2 {
                model: model(),
                traffic,
                lumped: true,
                arrivals,
            };
            reference::explore(&switch, None)
        };
        let nine = explore(reference::Arrivals::NineWay);
        let distinct = explore(reference::Arrivals::Distinct(mutation));
        if let Some(i) =
            (0..nine.states.len()).find(|&i| distinct.states.get(i) != Some(&nine.states[i]))
        {
            return Err(format!(
                "state {i}: {:?} vs {:?} nine-way",
                distinct.states.get(i),
                nine.states[i]
            ));
        }
        if distinct.states.len() != nine.states.len() {
            return Err(format!(
                "{} states vs {} nine-way",
                distinct.states.len(),
                nine.states.len()
            ));
        }
        let ulps = if (4.0 * traffic).fract() == 0.0 { 0 } else { 4 };
        let near = |a: f64, b: f64| a.to_bits().abs_diff(b.to_bits()) <= ulps;
        for i in 0..nine.states.len() {
            let ours: Vec<(usize, f64)> = distinct.matrix.row(i).collect();
            let theirs: Vec<(usize, f64)> = nine.matrix.row(i).collect();
            let agrees = ours.len() == theirs.len()
                && (ours.iter().zip(&theirs)).all(|(&(c, a), &(d, b))| c == d && near(a, b));
            if !agrees {
                return Err(format!("row {i}: {ours:?} vs {theirs:?} nine-way"));
            }
            let [ours, theirs] = [distinct.rewards[i], nine.rewards[i]]
                .map(|r| [r.arrivals, r.discards, r.departures]);
            if (0..3).any(|k| !near(ours[k], theirs[k])) {
                return Err(format!("reward {i}: {ours:?} vs {theirs:?} nine-way"));
            }
        }
        let (ours, theirs) = (
            reference::gth(&distinct.matrix, None)?,
            reference::gth(&nine.matrix, None)?,
        );
        let apart = (ours.pi.iter().zip(&theirs.pi))
            .fold(0.0, |worst: f64, (a, b)| worst.max((a - b).abs()));
        if apart > 1e-14 {
            return Err(format!("pi is {apart:e} from the nine-way pi"));
        }
        Ok(())
    }
    match kind {
        BufferKind::Fifo => check(
            || reference::FifoHeads {
                capacity,
                mutation: None,
            },
            traffic,
            mutation,
        ),
        _ => check(
            || reference::CountBuffer {
                kind,
                capacity: capacity as u8,
                mutation: None,
            },
            traffic,
            mutation,
        ),
    }
    .map_err(|e| format!("{kind} capacity {capacity} traffic {traffic}: {e}"))
}

/// Every shape of Table 2 (and the DAFC ablation) at every traffic level
/// of the sweep, through `each`.
fn table2_shapes(
    kind: BufferKind,
    capacities: &[usize],
    each: impl Fn(BufferKind, usize, f64, Option<Mutation>) -> Result<(), String>,
) -> Result<(), String> {
    for &capacity in capacities {
        for traffic in TRAFFICS {
            each(kind, capacity, traffic, None)?;
        }
    }
    Ok(())
}

/// The shapes of Table 2 and the DAFC ablation.
const SHAPES: [(BufferKind, &[usize]); 5] = [
    (BufferKind::Fifo, &[2, 3, 4, 5, 6]),
    (BufferKind::Damq, &[2, 3, 4, 5, 6]),
    (BufferKind::Samq, &[2, 4, 6]),
    (BufferKind::Safc, &[2, 4, 6]),
    (BufferKind::Dafc, &[2, 3, 4]),
];

#[test]
fn fifo_chains_match_the_reference_bit_for_bit() {
    let (kind, capacities) = SHAPES[0];
    table2_shapes(kind, capacities, two_by_two).unwrap();
}

#[test]
fn count_based_chains_match_the_reference_bit_for_bit() {
    for (kind, capacities) in &SHAPES[1..] {
        table2_shapes(*kind, capacities, two_by_two).unwrap();
    }
}

#[test]
fn fifo_lumping_is_exact() {
    let (kind, capacities) = SHAPES[0];
    table2_shapes(kind, capacities, symmetry).unwrap();
}

#[test]
fn count_based_lumping_is_exact() {
    for (kind, capacities) in &SHAPES[1..] {
        table2_shapes(*kind, capacities, symmetry).unwrap();
    }
}

#[test]
fn fifo_deferred_decisions_are_exact() {
    let each = |_, capacity, traffic: f64, mutation| {
        deferred_decisions(capacity, traffic, mutation)
            .map_err(|e| format!("FIFO capacity {capacity} traffic {traffic}: {e}"))
    };
    table2_shapes(BufferKind::Fifo, &[1, 2, 3, 4, 5, 6], each).unwrap();
}

/// Each slip in the head-only FIFO fails half (iii), each at a different
/// check.
#[test]
fn head_only_slips_fail_the_deferred_decision_check() {
    for (mutation, symptom) in [
        (Mutation::NewHeadAlwaysZero, "equivariance"),
        (Mutation::ArrivalOverwritesHead, "class averaged"),
        (Mutation::RevealOnEmptiedQueue, "arrangements"),
        // The tie that favours input 0, as on full sequences.
        (Mutation::FifoTieToInput0, "equivariance"),
    ] {
        let verdict = deferred_decisions(3, 0.75, Some(mutation));
        let why = verdict.expect_err("the head-only slip went unnoticed");
        assert!(
            why.contains(symptom),
            "{mutation:?}: caught elsewhere: {why}"
        );
    }
}

#[test]
fn distinct_outcomes_fold_exactly() {
    for (kind, capacities) in &SHAPES[..4] {
        table2_shapes(*kind, capacities, distinct_outcomes).unwrap();
    }
    table2_shapes(BufferKind::Dafc, &[1, 2, 3, 4, 5, 6], distinct_outcomes).unwrap();
}

/// Each slip in folding an arrival's destinations fails half (iv):
/// folding when only one of the two is discarded bites
/// where one queue can be full while the other has room (the static
/// designs); folding on matching verdicts alone bites every design.
#[test]
fn distinct_outcome_slips_fail_the_check() {
    for (mutation, kinds) in [
        (
            Mutation::MergeOnAnyDiscard,
            [BufferKind::Samq, BufferKind::Safc],
        ),
        (
            Mutation::MergeOnVerdictOnly,
            [BufferKind::Fifo, BufferKind::Damq],
        ),
    ] {
        for kind in kinds {
            let verdict = distinct_outcomes(kind, 4, 0.75, Some(mutation));
            let why = verdict.expect_err("the folding slip went unnoticed");
            assert!(
                why.contains("nine-way"),
                "{mutation:?} on {kind}: caught elsewhere: {why}"
            );
        }
    }
}

/// Each seeded tie-break that favours one input or queue breaks the
/// symmetry the lumping rests on, and the equivariance check says so.
#[test]
fn asymmetric_tie_breaks_fail_the_equivariance_check() {
    for (mutation, kind) in [
        (Mutation::FifoTieToInput0, BufferKind::Fifo),
        (Mutation::LongestTieToFirstQueue, BufferKind::Damq),
        (Mutation::FullyConnectedTieToInput0, BufferKind::Safc),
    ] {
        let verdict = symmetry(kind, 2, 0.75, Some(mutation));
        let why = verdict.expect_err("the asymmetric tie went unnoticed");
        assert!(
            why.contains("equivariance"),
            "{mutation:?} on {kind}: caught elsewhere: {why}"
        );
    }
}

fn k_by_k(
    kind: BufferKind,
    radix: usize,
    capacity: usize,
    traffic: f64,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    differential(
        &SwitchKxK::new(kind, radix, capacity, traffic).unwrap(),
        &reference::SwitchKxK {
            kind,
            radix,
            capacity: capacity as u8,
            traffic,
        },
        |s| *s,
        mutation,
    )
    .map_err(|e| format!("{radix}x{radix} {kind} capacity {capacity} traffic {traffic}: {e}"))
}

/// The k×k model emits in hash-map iteration order, so this also pins
/// that the map each state's transitions merge in grows exactly as the
/// old one did.
#[test]
fn k_by_k_chains_match_the_reference_bit_for_bit() {
    let dynamic = [BufferKind::Damq, BufferKind::Dafc];
    let fixed = [BufferKind::Samq, BufferKind::Safc];
    for radix in [2, 3] {
        for traffic in TRAFFICS {
            for kind in dynamic {
                k_by_k(kind, radix, 2, traffic, None).unwrap();
            }
            for kind in fixed {
                k_by_k(kind, radix, radix, traffic, None).unwrap();
            }
        }
    }
    // Radix 4 at the shapes `markov_4x4` commits (625 arrival combinations
    // per state).
    for traffic in [0.75, 0.99] {
        for kind in dynamic {
            for capacity in [1, 2] {
                k_by_k(kind, 4, capacity, traffic, None).unwrap();
            }
        }
        for kind in fixed {
            k_by_k(kind, 4, 4, traffic, None).unwrap();
        }
    }
}

#[test]
fn mutation_swapped_tie_branches_has_teeth() {
    // Swapping two equiprobable branches renumbers the states they
    // discover — wherever the two lead to different orbits. With two
    // slots, a single read port's straight-or-crossed tie arises only at
    // one packet per queue, and the two outcomes are each other's
    // input-swapped image: one orbit, hence three slots for DAMQ and
    // four for SAMQ.
    let mutation = Some(Mutation::SwapTieBranches);
    for (kind, capacity) in [(BufferKind::Damq, 3), (BufferKind::Samq, 4)] {
        let verdict = two_by_two(kind, capacity, 0.75, mutation);
        assert!(verdict.is_err(), "{kind}: the swapped tie went unnoticed");
    }
    // A FIFO head-of-line tie needs equal lengths and equal heads, so
    // whichever head leaves, the two outcomes — reveals and all — are
    // each other's input-swapped images once only lengths and heads are
    // kept: the orbits emitted are the same in either order, and so is
    // every bit of the chain. (On full sequences the queues behind the
    // heads told the outcomes apart.)
    for capacity in 2..=6 {
        two_by_two(BufferKind::Fifo, capacity, 0.9, mutation)
            .expect("a FIFO tie's outcomes share their orbits");
    }
}

#[test]
fn mutation_reversed_duplicate_sum_has_teeth() {
    // Three or more unequal terms must be added in emission order, or
    // the last bits of a matrix entry move (see `TRAFFICS` for why 0.9).
    let mutation = Some(Mutation::SumDuplicatesReversed);
    for kind in [BufferKind::Fifo, BufferKind::Damq, BufferKind::Safc] {
        let verdict = two_by_two(kind, 2, 0.9, mutation);
        let why = verdict.expect_err("the reversed sum went unnoticed");
        assert!(why.contains("row"), "{kind}: caught elsewhere: {why}");
    }
}

/// The three GMRES slips of [`Mutation`], on 4×4 chains: the loop runs
/// from the uniform vector only on chains elimination does not take, and
/// the 4×4 static designs at four slots (758 and 672 states) are the
/// smallest chains above its state bound. The solver measures before it
/// returns, so a slip in the Krylov step costs products rather than
/// digits: a Hessenberg column left unrotated trips the product budget on
/// SAMQ and is caught on SAFC when the solver, compared with the model,
/// took fewer (22 against 106); so is a skipped orthogonalisation on both;
/// trusting the rotated estimate fails the residual check.
#[test]
fn mutations_of_the_gmres_model_have_teeth() {
    // (the check that fails, what it says)
    let over_budget = ("GMRES model vs power iteration", "177 products, budget");
    let residual = ("GMRES model vs power iteration", "recomputed");
    let outlasted = |what| ("default solver vs GMRES model", what);
    for (mutation, samq, safc) in [
        (
            Mutation::SkipEarlierRotations,
            over_budget,
            outlasted("22 iterations vs 106"),
        ),
        (
            Mutation::SkipOneOrthogonalisation,
            outlasted("27 iterations vs 36"),
            outlasted("22 iterations vs 26"),
        ),
        (Mutation::TrustRotatedEstimate, residual, residual),
    ] {
        for (kind, traffic, (check, symptom)) in [
            (BufferKind::Samq, 0.75, samq),
            (BufferKind::Safc, 0.99, safc),
        ] {
            let verdict = k_by_k(kind, 4, 4, traffic, Some(mutation));
            let why = verdict.expect_err("the solver slip went unnoticed");
            assert!(
                why.contains(check) && why.contains(symptom),
                "{mutation:?} on {kind}: caught elsewhere: {why}"
            );
        }
    }
}

/// The two elimination slips of [`Mutation`], on the FIFO and DAMQ cells
/// of Table 2 that took the most products before elimination. Neither
/// makes a pivot vanish; both leave a vector whose measured residual
/// is 0.03–0.2, far above the tolerance.
#[test]
fn mutations_of_the_elimination_model_have_teeth() {
    for mutation in [Mutation::DropFill, Mutation::MultipliersAscending] {
        for (kind, traffic) in [(BufferKind::Fifo, 0.75), (BufferKind::Damq, 0.99)] {
            let verdict = two_by_two(kind, 6, traffic, Some(mutation));
            let why = verdict.expect_err("the elimination slip went unnoticed");
            assert!(
                why.contains("elimination model vs power iteration") && why.contains("recomputed"),
                "{mutation:?} on {kind}: caught elsewhere: {why}"
            );
        }
    }
}

/// A hand-built chain: the default solver against the references (within
/// `budget` products if it is not eliminated), with uniform rewards and
/// occupancies standing in for a model's.
fn hand_built(n: usize, triplets: Vec<(usize, usize, f64)>, budget: usize) -> SteadyState {
    let matrix = reference::Csr::from_triplet_vec(n, triplets.clone(), None);
    let rewards = vec![
        Reward {
            arrivals: 1.0,
            discards: 0.5,
            departures: 0.25,
        };
        n
    ];
    let occupancy = vec![1.0; n];
    let p = damq_markov::CsrMatrix::from_triplet_vec(n, n, triplets);
    let solved = damq_markov::steady_state(&p, SolveOptions::default());
    default_solver_differential(
        solved.clone(),
        &matrix,
        (&rewards, &occupancy),
        budget,
        None,
    )
    .unwrap();
    solved.unwrap()
}

#[test]
fn periodic_chain_with_a_non_uniform_answer() {
    // 0 → 1, 1 → {0, 2}, 2 → 1: period 2, π = (¼, ½, ¼). One closed
    // class, so it is eliminated.
    let ss = hand_built(
        3,
        vec![(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 1.0)],
        10,
    );
    assert_eq!(ss.iterations, 1);
    for (got, want) in ss.pi.iter().zip([0.25, 0.5, 0.25]) {
        assert!((got - want).abs() < 1e-12, "{:?}", ss.pi);
    }
}

#[test]
fn reducible_chain_lands_on_the_uniform_starts_projection() {
    // Closed classes {1, 2} and {3, 4}, entered from the transient state
    // 0 with ¼ and ¾. Of the many stationary vectors the answer is the
    // limit from the uniform start (checked against the power iteration
    // by `hand_built`): each class keeps its ⅖ and splits state 0's ⅕.
    // Elimination declines (state 1 never reaches state 0), so this is
    // the GMRES loop's answer, bit for bit the model's.
    let ss = hand_built(
        5,
        vec![
            (0, 0, 0.5),
            (0, 1, 0.125),
            (0, 3, 0.375),
            (1, 1, 0.9),
            (1, 2, 0.1),
            (2, 1, 0.3),
            (2, 2, 0.7),
            (3, 4, 1.0),
            (4, 3, 0.5),
            (4, 4, 0.5),
        ],
        20,
    );
    assert!(ss.iterations > 1);
    assert!(ss.pi[0] < 1e-13, "transient state keeps {:e}", ss.pi[0]);
    let classes = [ss.pi[1] + ss.pi[2], ss.pi[3] + ss.pi[4]];
    assert!((classes[0] - 0.45).abs() < 1e-12 && (classes[1] - 0.55).abs() < 1e-12);
    assert!((ss.pi[1] / ss.pi[2] - 3.0).abs() < 1e-10 && (ss.pi[4] / ss.pi[3] - 2.0).abs() < 1e-10);
}

/// A birth–death chain on `n` states, up `up` / down `down`, reflecting
/// ends: geometric with ratio `up / down`, checked entry by entry.
fn birth_death(n: usize, up: f64, down: f64, budget: usize) -> SteadyState {
    let mut triplets = Vec::new();
    for s in 0..n {
        triplets.push((s, if s + 1 < n { s + 1 } else { s }, up));
        triplets.push((s, if s > 0 { s - 1 } else { s }, down));
    }
    let ss = hand_built(n, triplets, budget);
    let ratio: f64 = up / down;
    let scale = (1.0 - ratio) / (1.0 - ratio.powi(n as i32));
    for (k, p) in ss.pi.iter().enumerate() {
        assert!(
            (p - scale * ratio.powi(k as i32)).abs() < 1e-10,
            "state {k}"
        );
    }
    ss
}

#[test]
fn slowly_mixing_birth_death_chain() {
    // 0.45 up / 0.55 down: thousands of power steps to get there. At 200
    // states it is eliminated; above the bound the restarts meet the
    // drift that stalls GMRES(12) without its closing plain step.
    assert_eq!(birth_death(200, 0.45, 0.55, 1).iterations, 1);
    assert!(birth_death(ELIMINATION_MAX_STATES + 1, 0.45, 0.55, 1_500).iterations > 1);
}

/// The levels of Table 2 (`damq_bench::TABLE2_TRAFFIC`).
const TABLE2_TRAFFIC: [f64; 8] = [0.25, 0.50, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99];

/// Products and elimination multiply-adds of one Table 2 cell's chain.
fn cell_work<M: damq_markov::BufferModel2x2>(model: M, traffic: f64) -> (usize, usize) {
    let chain = Chain::explore(&Switch2x2::new(model, traffic, CycleOrder::ArrivalsFirst));
    let solved = chain.steady_state(SolveOptions::default()).unwrap();
    let n = chain.state_count();
    let triplets = (0..n)
        .flat_map(|i| chain.matrix().row(i).map(move |(j, p)| (i, j, p)))
        .collect();
    let matrix = reference::Csr::from_triplet_vec(n, triplets, None);
    (solved.iterations, reference::elimination_work(&matrix))
}

/// The work of a Table 2 pass, in the elimination's multiply-adds
/// (`reference::elimination_work`, on each chain's fill pattern) and one
/// product per cell: the residual check. The counts are deterministic,
/// so this gate needs no quiet host, and the fill is what breadth-first
/// numbering keeps small. History, in state updates (products × states):
/// on joint occupancies a pass took 3 327 products and 3.74 M updates; on
/// orbits, 3 821 products, 1.41 M; with FIFO states reduced to lengths
/// and heads, 3 325 products, 172 361. The damped power iteration took
/// 36 532 sweeps over the same 128 cells.
#[test]
fn table2_work_budget() {
    let capacities: [(BufferKind, &[usize]); 4] = [
        (BufferKind::Fifo, &[2, 3, 4, 5, 6]),
        (BufferKind::Damq, &[2, 3, 4, 5, 6]),
        (BufferKind::Samq, &[2, 4, 6]),
        (BufferKind::Safc, &[2, 4, 6]),
    ];
    let (mut cells, mut total, mut most) = (0, 0, 0);
    for (kind, sizes) in capacities {
        for &slots in sizes {
            for traffic in TABLE2_TRAFFIC {
                let (products, work) = match kind {
                    BufferKind::Fifo => cell_work(FifoModel::new(slots), traffic),
                    BufferKind::Damq => cell_work(DamqModel::new(slots), traffic),
                    BufferKind::Samq => cell_work(SamqModel::new(slots), traffic),
                    _ => cell_work(SafcModel::new(slots), traffic),
                };
                assert_eq!(products, 1, "{kind}-{slots} at {traffic}");
                cells += 1;
                total += work;
                most = most.max(work);
            }
        }
    }
    assert_eq!(cells, 128);
    // 149 032 and 13 180 (DAMQ-6, at every traffic level: the structure
    // does not depend on it); numbered depth-first, as the explorer did
    // before, the same chains fill in to 331 648 and 33 098.
    assert!(total <= 160_000, "{total} multiply-adds over Table 2");
    assert!(most <= 14_000, "{most} multiply-adds on one cell");
}

thread_local! {
    /// Hashes of [`Tallied`] states taken on this thread.
    static HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A state whose every hash is counted: the explorer hashes a state once
/// per index lookup, and once more each time the index grows and moves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tallied<S>(S);

impl<S: Hash> Hash for Tallied<S> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        HASHES.with(|hashes| hashes.set(hashes.get() + 1));
        self.0.hash(state);
    }
}

/// `M` with its states [`Tallied`] and its branches counted.
struct Tally<M> {
    model: M,
    branches: std::cell::Cell<usize>,
}

impl<M: MarkovModel> MarkovModel for Tally<M> {
    type State = Tallied<M::State>;

    fn initial(&self) -> Self::State {
        Tallied(self.model.initial())
    }

    fn for_each_transition(
        &self,
        state: &Self::State,
        mut emit: impl FnMut(damq_markov::Transition<Self::State>),
    ) {
        self.model.for_each_transition(&state.0, |t| {
            self.branches.set(self.branches.get() + 1);
            emit(damq_markov::Transition {
                next: Tallied(t.next),
                probability: t.probability,
                reward: t.reward,
            })
        });
    }
}

/// Branches the switch emits, index lookups the explorer makes (the
/// root's insertion aside) and the matrix's non-zeros, over one Table 2
/// cell's chain. The lookups are the hashes taken while exploring less
/// those the index spends growing: as many as a map of the same type
/// spends taking the same states in the same order, less one each.
fn exploration_work<M: damq_markov::BufferModel2x2>(model: M, traffic: f64) -> [usize; 3] {
    let tally = Tally {
        model: Switch2x2::new(model, traffic, CycleOrder::ArrivalsFirst),
        branches: std::cell::Cell::new(0),
    };
    let hashes = || HASHES.with(|hashes| hashes.get());
    let start = hashes();
    let chain = Chain::explore(&tally);
    let explored = hashes() - start;
    let n = chain.state_count();
    let mut grown: damq_markov::FxHashMap<Tallied<_>, usize> = Default::default();
    let start = hashes();
    for i in 0..n {
        grown.entry(*chain.state(i)).or_insert(i);
    }
    let growth = hashes() - start - n;
    let nnz = (0..n).map(|i| chain.matrix().row(i).count()).sum();
    [tally.branches.get(), explored - growth - 1, nnz]
}

/// The exploration of a Table 2 pass, in branches emitted and index
/// lookups made: deterministic counts, so this gate needs no quiet host.
/// An arrival whose two destinations leave the same state with the same
/// verdict is one branch (50 856 branches before, 39 512 now; FIFO-6
/// 1 004 → 460), and each row is merged before it is indexed, so a pass
/// looks up each distinct successor of each state once: as many lookups
/// as non-zeros, 23 312 (50 856 before, one per branch).
#[test]
fn table2_exploration_budget() {
    let capacities: [(BufferKind, &[usize]); 4] = [
        (BufferKind::Fifo, &[2, 3, 4, 5, 6]),
        (BufferKind::Damq, &[2, 3, 4, 5, 6]),
        (BufferKind::Samq, &[2, 4, 6]),
        (BufferKind::Safc, &[2, 4, 6]),
    ];
    let (mut cells, mut total, mut most) = (0, [0, 0], [0, 0]);
    for (kind, sizes) in capacities {
        for &slots in sizes {
            for traffic in TABLE2_TRAFFIC {
                let [branches, lookups, nnz] = match kind {
                    BufferKind::Fifo => exploration_work(FifoModel::new(slots), traffic),
                    BufferKind::Damq => exploration_work(DamqModel::new(slots), traffic),
                    BufferKind::Samq => exploration_work(SamqModel::new(slots), traffic),
                    _ => exploration_work(SafcModel::new(slots), traffic),
                };
                assert_eq!(
                    lookups, nnz,
                    "{kind}-{slots} at {traffic}: one lookup per successor"
                );
                cells += 1;
                for (k, count) in [branches, lookups].into_iter().enumerate() {
                    total[k] += count;
                    most[k] = most[k].max(count);
                }
            }
        }
    }
    assert_eq!(cells, 128);
    let [branches, lookups] = total;
    assert!(branches <= 41_000, "{branches} branches over Table 2");
    assert!(lookups <= 24_000, "{lookups} index lookups over Table 2");
    // Both maxima are DAMQ-6's, at every traffic level below 1.
    let [branches, lookups] = most;
    assert!(branches <= 1_596, "{branches} branches on one cell");
    assert!(lookups <= 1_177, "{lookups} index lookups on one cell");
}

/// Every destination sequence of length 0..=6.
fn all_queues() -> Vec<Vec<u8>> {
    let mut queues = Vec::new();
    for len in 0..=6 {
        for word in 0..1u32 << len {
            queues.push((0..len).map(|k| ((word >> k) & 1) as u8).collect());
        }
    }
    queues
}

/// `FifoState::pack` is the projection of two destination sequences onto
/// their lengths and heads, and the shipped model is the full-sequence
/// reference seen through it, for every pair of queues of length ≤ 6:
/// accept and both swaps commute with the projection, and the departure
/// branches out of a state are the reference's out of its class,
/// projected and averaged — exactly, since every branch probability and
/// every class share is dyadic.
#[test]
fn fifo_state_is_the_projection_of_the_sequences_exhaustively() {
    use damq_markov::BufferModel2x2;
    use reference::Buffer2x2;
    use std::collections::BTreeMap;

    let pack = |queues: &reference::FifoState| FifoState::pack([&queues[0], &queues[1]]);
    // A queue as `Debug` shows it: the head, then `_` per hidden packet.
    let shown = |queue: &Vec<u8>| {
        let cells: Vec<String> = (queue.iter().enumerate())
            .map(|(k, o)| if k == 0 { o.to_string() } else { "_".into() })
            .collect();
        format!("[{}]", cells.join(", "))
    };
    let queues = all_queues();
    assert_eq!(queues.len(), 127);
    let mut classes: BTreeMap<FifoState, Vec<reference::FifoState>> = BTreeMap::new();
    for a in &queues {
        for b in &queues {
            let full = [a.clone(), b.clone()];
            let packed = pack(&full);
            assert_eq!(heads_of(&packed), reference::project(&full));
            assert_eq!(
                format!("{packed:?}"),
                format!("[{}, {}]", shown(a), shown(b))
            );
            classes.entry(packed).or_default().push(full);
        }
    }
    // Per queue: empty, or one of six lengths with either head.
    assert_eq!(classes.len(), 13 * 13);
    let any = FifoModel::new(6);
    let old = reference::Fifo {
        capacity: 6,
        mutation: None,
    };
    for (state, members) in &classes {
        assert_eq!(any.arrangements(state), members.len(), "{state:?}");
        let mut shipped = BTreeMap::new();
        any.departures(state, |next, p, sent| {
            *shipped.entry((next, sent)).or_insert(0.0) += p;
        });
        let (mut averaged, share) = (BTreeMap::new(), 1.0 / members.len() as f64);
        for member in members {
            for (next, p, sent) in old.departures(member) {
                *averaged.entry((pack(&next), sent)).or_insert(0.0) += p * share;
            }
        }
        assert_eq!(shipped, averaged, "departures from {state:?}");
    }

    // Accept — including at capacity — and both symmetry maps, member by
    // member, at every capacity the pair fits.
    for capacity in 1..=6 {
        let (new, old) = (
            FifoModel::new(capacity),
            reference::Fifo {
                capacity,
                mutation: None,
            },
        );
        let fits = |state: &&FifoState| state.len(0) <= capacity && state.len(1) <= capacity;
        for (state, members) in classes.iter().filter(|(s, _)| fits(s)) {
            for member in members {
                assert_eq!(new.occupancy(state), old.occupancy(member));
                for input in 0..2 {
                    for output in 0..2 {
                        let (mut s, mut m) = (*state, member.clone());
                        let accepted = new.accept(&mut s, input, output);
                        assert_eq!(accepted, old.accept(&mut m, input, output));
                        assert_eq!(s, pack(&m), "accept {output} at input {input}");
                    }
                }
                assert_eq!(new.swap_inputs(state), pack(&old.swap_inputs(member)));
                assert_eq!(new.swap_outputs(state), pack(&old.swap_outputs(member)));
            }
        }
    }
}
