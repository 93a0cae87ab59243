//! Reference differential: the allocation-free Markov layer against the
//! enumeration, exploration and solvers it replaced.
//!
//! Everything under [`reference`] is the previous implementation kept as
//! a model: FIFO states as `[Vec<u8>; 2]`, models that return a fresh
//! `Vec` of transitions (with the nested move lists of the count-based
//! designs and the `Vec`-backed k×k arbitration), an explorer that
//! collects `(row, col, p)` triplets and sorts them globally, the damped
//! scatter power iteration (the default solver until restarted GMRES
//! replaced it) with a fresh vector per step, and Gauss–Seidel over a
//! `Vec<Vec<_>>` column copy. It is a reference the tests compare against,
//! not a second data path — nothing outside this file runs it. It is also
//! the only place the 2×2 chain over joint occupancies survives: the
//! shipped `Switch2x2` walks orbits under exchanging inputs and outputs,
//! and the reference switch does either (`lumped`).
//!
//! The 2×2 differential has two halves, each over every Table 2 shape
//! (and DAFC 2–4) × traffic {0.25, 0.75, 0.9, 0.99} × both cycle orders:
//!
//! - (i) the shipped explorer against the reference applying the same
//!   orbit map, and the k×k model at radix 2–4 against its reference: the
//!   two sides must agree on the state sequence, every CSR row, every
//!   reward and Gauss–Seidel's `pi`, `iterations` and `residual`, all by
//!   `f64::to_bits` — the committed results carry full-precision values,
//!   so "close" is a diff;
//! - (ii) the reference on orbits against the reference on joint
//!   occupancies ([`lumping`]): orbit sizes sum to the joint count, each
//!   orbit's row is its representative's row summed by orbit, and the
//!   stationary answers agree. Before that, [`equivariance`] checks the
//!   premise on every joint state: both generators commute with the
//!   branches.
//!
//! The default solver is a different algorithm from the power iteration,
//! so those two are compared as distributions ([`stationary_agreement`]:
//! `‖Δπ‖∞ ≤ 1e-10`, stationary reward within 1e-12, a recomputed residual
//! within the tolerance and equal to the reported one, `π ≥ 0`, `Σπ = 1`
//! within 1e-12, at most [`PRODUCT_BUDGET`] products) — and bit for bit
//! with `reference::gmres`, a plain-`Vec` model of the same arithmetic
//! that exists to carry the seeded solver slips.
//!
//! The mutation tests show the differential bites: each seeds one
//! plausible slip into the reference — the two tie branches emitted in the
//! other order; duplicate transitions summed last-first; a new Hessenberg
//! column left unrotated; one basis vector skipped by Gram–Schmidt; the
//! rotated residual estimate trusted without a measurement — and the
//! comparison must fail. Three more seed a tie-break that favours one
//! input or queue, which the equivariance check must refuse.

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
    /// FIFO: a head-of-line conflict between equal queues always goes to
    /// input 0.
    FifoTieToInput0,
    /// Single read port: a tie for the longest queue goes to the first
    /// such queue in (input, output) order only.
    LongestTieToFirstQueue,
    /// Fully connected: an output whose two queues tie serves input 0.
    FullyConnectedTieToInput0,
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

    pub type FifoState = [Vec<u8>; 2];

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
            let head0 = state[0].first().copied();
            let head1 = state[1].first().copied();
            let pop = |state: &FifoState, which: &[usize]| {
                let mut next = state.clone();
                for &i in which {
                    next[i].remove(0);
                }
                (next, which.len() as u32)
            };
            match (head0, head1) {
                (None, None) => vec![(state.clone(), 1.0, 0)],
                (Some(_), None) => {
                    let (next, sent) = pop(state, &[0]);
                    vec![(next, 1.0, sent)]
                }
                (None, Some(_)) => {
                    let (next, sent) = pop(state, &[1]);
                    vec![(next, 1.0, sent)]
                }
                (Some(h0), Some(h1)) if h0 != h1 => {
                    let (next, sent) = pop(state, &[0, 1]);
                    vec![(next, 1.0, sent)]
                }
                (Some(_), Some(_)) => match state[0].len().cmp(&state[1].len()) {
                    std::cmp::Ordering::Greater => {
                        let (next, sent) = pop(state, &[0]);
                        vec![(next, 1.0, sent)]
                    }
                    std::cmp::Ordering::Less => {
                        let (next, sent) = pop(state, &[1]);
                        vec![(next, 1.0, sent)]
                    }
                    std::cmp::Ordering::Equal => {
                        let (a, sa) = pop(state, &[0]);
                        let (b, sb) = pop(state, &[1]);
                        match self.mutation {
                            Some(Mutation::SwapTieBranches) => vec![(b, 0.5, sb), (a, 0.5, sa)],
                            Some(Mutation::FifoTieToInput0) => vec![(a, 1.0, sa)],
                            _ => vec![(a, 0.5, sa), (b, 0.5, sb)],
                        }
                    }
                },
            }
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

    /// The switch over joint occupancies, or — `lumped` — over their
    /// orbits under exchanging inputs and outputs, each successor named by
    /// its least image.
    pub struct Switch2x2<M> {
        pub model: M,
        pub traffic: f64,
        pub order: CycleOrder,
        pub lumped: bool,
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

        fn arrival_options(&self) -> [(Option<usize>, f64); 3] {
            let p = self.traffic;
            [(None, 1.0 - p), (Some(0), p / 2.0), (Some(1), p / 2.0)]
        }
    }

    impl<M: Buffer2x2> Model for Switch2x2<M> {
        type State = M::State;

        fn initial(&self) -> Self::State {
            self.model.empty()
        }

        fn transitions(&self, state: &Self::State) -> Vec<Transition<Self::State>> {
            let mut out = Vec::new();
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
                    match self.order {
                        CycleOrder::ArrivalsFirst => {
                            let mut st = state.clone();
                            let mut discards = 0.0;
                            for (input, arrival) in [(0, a0), (1, a1)] {
                                if let Some(output) = arrival {
                                    if !self.model.accept(&mut st, input, output) {
                                        discards += 1.0;
                                    }
                                }
                            }
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
                        CycleOrder::DeparturesFirst => {
                            for (mut next, dp, sent) in self.model.departures(state) {
                                let mut discards = 0.0;
                                for (input, arrival) in [(0, a0), (1, a1)] {
                                    if let Some(output) = arrival {
                                        if !self.model.accept(&mut next, input, output) {
                                            discards += 1.0;
                                        }
                                    }
                                }
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
        pub order: CycleOrder,
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
                    let mut sent = 0usize;
                    if self.order == CycleOrder::DeparturesFirst {
                        let grants = self.departures(&st);
                        for &(input, output) in &grants {
                            st[input * k + output] -= 1;
                        }
                        sent = grants.len();
                    }
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
                    if self.order == CycleOrder::ArrivalsFirst {
                        let grants = self.departures(&st);
                        for &(input, output) in &grants {
                            st[input * k + output] -= 1;
                        }
                        sent = grants.len();
                    }
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
    }

    pub fn explore<M: Model>(model: &M, mutation: Option<Mutation>) -> Explored<M::State> {
        let mut index: FxHashMap<M::State, usize> = FxHashMap::default();
        let mut states: Vec<M::State> = Vec::new();
        let mut frontier: Vec<usize> = Vec::new();

        let root = model.initial();
        index.insert(root.clone(), 0);
        states.push(root);
        frontier.push(0);

        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut rewards: Vec<Reward> = Vec::new();

        while let Some(from) = frontier.pop() {
            let branches = model.transitions(&states[from]);
            let mut reward = Reward::default();
            for t in branches {
                reward = reward + t.reward * t.probability;
                let to = *index.entry(t.next.clone()).or_insert_with(|| {
                    states.push(t.next.clone());
                    frontier.push(states.len() - 1);
                    states.len() - 1
                });
                triplets.push((from, to, t.probability));
            }
            if rewards.len() <= from {
                rewards.resize(states.len(), Reward::default());
            }
            rewards[from] = reward;
        }
        rewards.resize(states.len(), Reward::default());

        let n = states.len();
        Explored {
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

/// Most products the default solver may spend on one chain of the sweep
/// (the most any takes is 124).
const PRODUCT_BUDGET: usize = 150;

/// `candidate` — a GMRES solve of `matrix` — against the power iteration's
/// answer `power`, as distributions: `rewards` are the chain's per-state
/// rewards, `budget` the most products it may have taken.
fn stationary_agreement(
    matrix: &reference::Csr,
    rewards: &[Reward],
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
    let reward = |ss: &SteadyState| {
        let mut total = Reward::default();
        for (r, p) in rewards.iter().zip(&ss.pi) {
            total = total + *r * *p;
        }
        [total.arrivals, total.discards, total.departures]
    };
    let (ours, theirs) = (reward(candidate), reward(power));
    if (0..3).any(|k| (ours[k] - theirs[k]).abs() > 1e-12) {
        return Err(format!("stationary reward {ours:?} vs {theirs:?}"));
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
/// references run on `matrix`, the same chain's matrix: as a distribution
/// against the power iteration, and bit for bit against the GMRES model —
/// which carries `mutation` and must pass the distribution check first,
/// so a seeded solver slip is caught by the check that would catch it in
/// the solver itself.
fn default_solver_differential(
    solved: Result<SteadyState, damq_markov::SolveError>,
    matrix: &reference::Csr,
    rewards: &[Reward],
    budget: usize,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    let options = SolveOptions::default();
    let power = reference::steady_state(matrix, options);
    let agrees = |ss: &SteadyState| stationary_agreement(matrix, rewards, ss, &power, budget);
    let model = reference::gmres(matrix, options, mutation)
        .and_then(|model| agrees(&model).map(|()| model))
        .map_err(|e| format!("GMRES model vs power iteration: {e}"))?;
    let solved = solved.map_err(|e| e.to_string())?;
    agrees(&solved).map_err(|e| format!("default solver vs power iteration: {e}"))?;
    same_solution("default solver vs GMRES model", &solved, &model)
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
        &model.rewards,
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
const ORDERS: [CycleOrder; 2] = [CycleOrder::ArrivalsFirst, CycleOrder::DeparturesFirst];

/// One 2×2 shape at one traffic level and cycle order, shipped against
/// the reference applying the same orbit map (half (i)).
fn two_by_two(
    kind: BufferKind,
    capacity: usize,
    traffic: f64,
    order: CycleOrder,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    // A count-based design against the reference with the same rules.
    fn counts<M>(
        model: M,
        old: reference::CountBuffer,
        traffic: f64,
        order: CycleOrder,
    ) -> Result<(), String>
    where
        M: damq_markov::BufferModel2x2<State = reference::Counts>,
    {
        let mutation = old.mutation;
        differential(
            &Switch2x2::new(model, traffic, order),
            &reference::Switch2x2 {
                model: old,
                traffic,
                order,
                lumped: true,
            },
            |s| *s,
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
            &Switch2x2::new(FifoModel::new(capacity), traffic, order),
            &reference::Switch2x2 {
                model: reference::Fifo { capacity, mutation },
                traffic,
                order,
                lumped: true,
            },
            FifoState::unpack,
            mutation,
        ),
        BufferKind::Damq => counts(DamqModel::new(capacity), old, traffic, order),
        BufferKind::Samq => counts(SamqModel::new(capacity), old, traffic, order),
        BufferKind::Safc => counts(SafcModel::new(capacity), old, traffic, order),
        BufferKind::Dafc => counts(DafcModel::new(capacity), old, traffic, order),
    }
    .map_err(|e| format!("{kind} capacity {capacity} traffic {traffic} {order:?}: {e}"))
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

/// Discard probability, throughput and mean occupancy of an explored
/// reference chain under `pi`.
fn measures<M: reference::Buffer2x2>(
    model: &M,
    chain: &reference::Explored<M::State>,
    pi: &[f64],
) -> [f64; 3] {
    let mut reward = Reward::default();
    let mut occupancy = 0.0;
    for ((state, r), &p) in chain.states.iter().zip(&chain.rewards).zip(pi) {
        reward = reward + *r * p;
        occupancy += p * f64::from(model.occupancy(state));
    }
    let discard = if reward.arrivals > 0.0 {
        reward.discards / reward.arrivals
    } else {
        0.0
    };
    [discard, reward.departures, occupancy]
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
    let on_states = measures(&full.model, unlumped, &by_state.pi);
    let on_orbits = measures(&full.model, lumped, &by_orbit.pi);
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
    order: CycleOrder,
    mutation: Option<Mutation>,
) -> Result<(), String> {
    fn check<M: reference::Buffer2x2>(
        model: impl Fn() -> M,
        traffic: f64,
        order: CycleOrder,
    ) -> Result<(), String> {
        let switch = |lumped| reference::Switch2x2 {
            model: model(),
            traffic,
            order,
            lumped,
        };
        let full = switch(false);
        let unlumped = reference::explore(&full, None);
        equivariance(&full, &unlumped.states)?;
        lumping(&full, &unlumped, &reference::explore(&switch(true), None))
    }
    match kind {
        BufferKind::Fifo => check(|| reference::Fifo { capacity, mutation }, traffic, order),
        _ => check(
            || reference::CountBuffer {
                kind,
                capacity: capacity as u8,
                mutation,
            },
            traffic,
            order,
        ),
    }
    .map_err(|e| format!("{kind} capacity {capacity} traffic {traffic} {order:?}: {e}"))
}

/// Every shape of Table 2 (and the DAFC ablation) at every traffic level
/// and cycle order of the sweep, through `each`.
fn table2_shapes(
    kind: BufferKind,
    capacities: &[usize],
    each: impl Fn(BufferKind, usize, f64, CycleOrder, Option<Mutation>) -> Result<(), String>,
) -> Result<(), String> {
    for &capacity in capacities {
        for traffic in TRAFFICS {
            for order in ORDERS {
                each(kind, capacity, traffic, order, None)?;
            }
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

/// Each seeded tie-break that favours one input or queue breaks the
/// symmetry the lumping rests on, and the equivariance check says so.
#[test]
fn asymmetric_tie_breaks_fail_the_equivariance_check() {
    for (mutation, kind) in [
        (Mutation::FifoTieToInput0, BufferKind::Fifo),
        (Mutation::LongestTieToFirstQueue, BufferKind::Damq),
        (Mutation::FullyConnectedTieToInput0, BufferKind::Safc),
    ] {
        let verdict = symmetry(kind, 2, 0.75, ORDERS[0], Some(mutation));
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
    order: CycleOrder,
) -> Result<(), String> {
    differential(
        &SwitchKxK::new(kind, radix, capacity, traffic, order).unwrap(),
        &reference::SwitchKxK {
            kind,
            radix,
            capacity: capacity as u8,
            traffic,
            order,
        },
        |s| *s,
        None,
    )
    .map_err(|e| {
        format!("{radix}x{radix} {kind} capacity {capacity} traffic {traffic} {order:?}: {e}")
    })
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
            for order in ORDERS {
                for kind in dynamic {
                    k_by_k(kind, radix, 2, traffic, order).unwrap();
                }
                for kind in fixed {
                    k_by_k(kind, radix, radix, traffic, order).unwrap();
                }
            }
        }
    }
    // Radix 4 at the shapes `markov_4x4` commits (arrivals first; 625
    // arrival combinations per state). Departures-first chains hold every
    // post-arrival state and are tens of times larger, so that order runs
    // at one slot only.
    for traffic in [0.75, 0.99] {
        for kind in dynamic {
            for capacity in [1, 2] {
                k_by_k(kind, 4, capacity, traffic, ORDERS[0]).unwrap();
            }
            k_by_k(kind, 4, 1, traffic, ORDERS[1]).unwrap();
        }
        for kind in fixed {
            k_by_k(kind, 4, 4, traffic, ORDERS[0]).unwrap();
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
    for (kind, capacity) in [
        (BufferKind::Fifo, 2),
        (BufferKind::Damq, 3),
        (BufferKind::Samq, 4),
    ] {
        let verdict = two_by_two(kind, capacity, 0.75, CycleOrder::ArrivalsFirst, mutation);
        assert!(verdict.is_err(), "{kind}: the swapped tie went unnoticed");
    }
}

#[test]
fn mutation_reversed_duplicate_sum_has_teeth() {
    // Three or more unequal terms must be added in emission order, or
    // the last bits of a matrix entry move (see `TRAFFICS` for why 0.9).
    let mutation = Some(Mutation::SumDuplicatesReversed);
    for kind in [BufferKind::Fifo, BufferKind::Damq, BufferKind::Safc] {
        let verdict = two_by_two(kind, 2, 0.9, CycleOrder::ArrivalsFirst, mutation);
        let why = verdict.expect_err("the reversed sum went unnoticed");
        assert!(why.contains("row"), "{kind}: caught elsewhere: {why}");
    }
}

/// The three solver slips of [`Mutation`], on the FIFO and DAMQ cells of
/// Table 2 that take the most products among the traffic levels swept. The solver measures before it returns,
/// so a slip in the Krylov step costs products rather than digits: the
/// first two trip the product budget, the third the residual check.
#[test]
fn mutations_of_the_gmres_model_have_teeth() {
    for (mutation, symptom) in [
        (Mutation::SkipEarlierRotations, "products"),
        (Mutation::SkipOneOrthogonalisation, "products"),
        (Mutation::TrustRotatedEstimate, "residual"),
    ] {
        for (kind, traffic) in [(BufferKind::Fifo, 0.75), (BufferKind::Damq, 0.99)] {
            let verdict = two_by_two(kind, 6, traffic, ORDERS[0], Some(mutation));
            let why = verdict.expect_err("the solver slip went unnoticed");
            assert!(
                why.contains("GMRES model vs power iteration") && why.contains(symptom),
                "{mutation:?} on {kind}: caught elsewhere: {why}"
            );
        }
    }
}

/// A hand-built chain: the default solver against the references within
/// `budget` products, with uniform rewards standing in for a model's.
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
    let p = damq_markov::CsrMatrix::from_triplet_vec(n, n, triplets);
    let solved = damq_markov::steady_state(&p, SolveOptions::default());
    default_solver_differential(solved.clone(), &matrix, &rewards, budget, None).unwrap();
    solved.unwrap()
}

#[test]
fn periodic_chain_with_a_non_uniform_answer() {
    // 0 → 1, 1 → {0, 2}, 2 → 1: period 2, π = (¼, ½, ¼).
    let ss = hand_built(
        3,
        vec![(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (2, 1, 1.0)],
        10,
    );
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
    assert!(ss.pi[0] < 1e-13, "transient state keeps {:e}", ss.pi[0]);
    let classes = [ss.pi[1] + ss.pi[2], ss.pi[3] + ss.pi[4]];
    assert!((classes[0] - 0.45).abs() < 1e-12 && (classes[1] - 0.55).abs() < 1e-12);
    assert!((ss.pi[1] / ss.pi[2] - 3.0).abs() < 1e-10 && (ss.pi[4] / ss.pi[3] - 2.0).abs() < 1e-10);
}

#[test]
fn slowly_mixing_birth_death_chain() {
    // 200 states, up 0.45 / down 0.55, reflecting ends: geometric with
    // ratio 9/11, and thousands of power steps to get there.
    let (n, up, down) = (200, 0.45, 0.55);
    let mut triplets = Vec::new();
    for s in 0..n {
        triplets.push((s, if s + 1 < n { s + 1 } else { s }, up));
        triplets.push((s, if s > 0 { s - 1 } else { s }, down));
    }
    let ss = hand_built(n, triplets, 1_500);
    let ratio: f64 = up / down;
    let scale = (1.0 - ratio) / (1.0 - ratio.powi(n as i32));
    for (k, p) in ss.pi.iter().enumerate() {
        assert!(
            (p - scale * ratio.powi(k as i32)).abs() < 1e-10,
            "state {k}"
        );
    }
}

/// The levels of Table 2 (`damq_bench::TABLE2_TRAFFIC`).
const TABLE2_TRAFFIC: [f64; 8] = [0.25, 0.50, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99];

/// Products and orbits of one Table 2 cell's chain.
fn cell_work<M: damq_markov::BufferModel2x2>(model: M, traffic: f64) -> (usize, usize) {
    let chain = Chain::explore(&Switch2x2::new(model, traffic, CycleOrder::ArrivalsFirst));
    let solved = chain.steady_state(SolveOptions::default()).unwrap();
    (solved.iterations, chain.state_count())
}

/// The work of a Table 2 pass, in state updates: each matrix–vector
/// product touches every state of its chain once, so a cell costs its
/// products times `Chain::state_count()`. The counts are deterministic,
/// so this gate needs no quiet host. On joint occupancies a pass took
/// 3 327 products and 3.74 M updates; on orbits it takes more products
/// (3 821) over chains a quarter the size, 1.41 M updates. The damped
/// power iteration took 36 532 sweeps over the same 128 cells.
#[test]
fn table2_work_budget() {
    let capacities: [(BufferKind, &[usize]); 4] = [
        (BufferKind::Fifo, &[2, 3, 4, 5, 6]),
        (BufferKind::Damq, &[2, 3, 4, 5, 6]),
        (BufferKind::Samq, &[2, 4, 6]),
        (BufferKind::Safc, &[2, 4, 6]),
    ];
    let (mut cells, mut updates, mut most) = (0, 0, 0);
    for (kind, sizes) in capacities {
        for &slots in sizes {
            for traffic in TABLE2_TRAFFIC {
                let (products, states) = match kind {
                    BufferKind::Fifo => cell_work(FifoModel::new(slots), traffic),
                    BufferKind::Damq => cell_work(DamqModel::new(slots), traffic),
                    BufferKind::Samq => cell_work(SamqModel::new(slots), traffic),
                    _ => cell_work(SafcModel::new(slots), traffic),
                };
                cells += 1;
                updates += products * states;
                most = most.max(products);
                if (kind, slots, traffic) == (BufferKind::Fifo, 6, 0.75) {
                    // 57 products over 8 065 joint states before lumping.
                    let updates = products * states;
                    assert!(updates <= 240_000, "FIFO-6 at 0.75: {updates}");
                }
            }
        }
    }
    assert_eq!(cells, 128);
    assert!(updates <= 1_600_000, "{updates} state updates over Table 2");
    assert!(most <= 150, "{most} products on one cell");
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

#[test]
fn fifo_state_packing_round_trips_exhaustively() {
    use damq_markov::BufferModel2x2;
    use reference::Buffer2x2;

    let queues = all_queues();
    assert_eq!(queues.len(), 127);
    for a in &queues {
        for b in &queues {
            let packed = FifoState::pack([a, b]);
            assert_eq!(packed.unpack(), [a.clone(), b.clone()]);
            assert_eq!(format!("{packed:?}"), format!("{:?}", [a, b]));
        }
    }
    // Distinct sequences are distinct words (so hashing and equality on
    // the packed form are hashing and equality on the queues).
    let words: std::collections::HashSet<FifoState> =
        queues.iter().map(|q| FifoState::pack([q, &[]])).collect();
    assert_eq!(words.len(), queues.len());

    // Accept — including at capacity — every departure branch and both
    // symmetry maps agree with the `Vec` model, for every pair of queues
    // that fits.
    for capacity in 1..=6 {
        let (new, old) = (
            FifoModel::new(capacity),
            reference::Fifo {
                capacity,
                mutation: None,
            },
        );
        let fits = |q: &&Vec<u8>| q.len() <= capacity;
        for a in queues.iter().filter(fits) {
            for b in queues.iter().filter(fits) {
                let state = FifoState::pack([a, b]);
                let model: reference::FifoState = [a.clone(), b.clone()];
                assert_eq!(new.occupancy(&state) as usize, a.len() + b.len());
                for input in 0..2 {
                    for output in 0..2 {
                        let (mut s, mut m) = (state, model.clone());
                        let accepted = new.accept(&mut s, input, output);
                        assert_eq!(accepted, old.accept(&mut m, input, output));
                        assert_eq!(s.unpack(), m, "accept {output} at input {input}");
                    }
                }
                let mut branches = Vec::new();
                new.departures(&state, |next, p, sent| {
                    branches.push((next.unpack(), p, sent));
                });
                assert_eq!(branches, old.departures(&model), "{state:?}");
                assert_eq!(new.swap_inputs(&state).unpack(), old.swap_inputs(&model));
                assert_eq!(new.swap_outputs(&state).unpack(), old.swap_outputs(&model));
            }
        }
    }
}
