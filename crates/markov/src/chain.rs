//! Generic discrete-time Markov chain construction by state-space
//! exploration.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{Add, Mul};

/// A fast non-cryptographic hasher (the Fx/rustc multiply-rotate scheme).
///
/// State-space exploration performs tens of millions of small-key hash
/// lookups; SipHash's DoS resistance is wasted there, so chains use this
/// instead. Exposed for the k×k model's transition merging.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_word(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_word(value as u64);
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add_word(u64::from(value));
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

use crate::solve::{steady_state, SolveError, SolveOptions, SteadyState};
use crate::sparse::CsrMatrix;

/// Per-transition expected quantities, accumulated into per-state rewards.
///
/// The discard analysis needs, for every state, the expected number of
/// packet arrivals, discards and departures during one cycle spent in that
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Reward {
    /// Packets offered to the switch on this branch.
    pub arrivals: f64,
    /// Packets discarded for lack of space.
    pub discards: f64,
    /// Packets transmitted out of the switch.
    pub departures: f64,
}

impl Add for Reward {
    type Output = Reward;

    fn add(self, rhs: Reward) -> Reward {
        Reward {
            arrivals: self.arrivals + rhs.arrivals,
            discards: self.discards + rhs.discards,
            departures: self.departures + rhs.departures,
        }
    }
}

impl Mul<f64> for Reward {
    type Output = Reward;

    fn mul(self, p: f64) -> Reward {
        Reward {
            arrivals: self.arrivals * p,
            discards: self.discards * p,
            departures: self.departures * p,
        }
    }
}

/// One probabilistic branch out of a state.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition<S> {
    /// The state reached.
    pub next: S,
    /// Probability of this branch (branches from one state sum to 1).
    pub probability: f64,
    /// Quantities accrued on this branch.
    pub reward: Reward,
}

/// A model that can enumerate its transitions; the chain is built by
/// exploring from [`MarkovModel::initial`].
pub trait MarkovModel {
    /// State type: a `Copy` word (exploration copies and hashes states
    /// millions of times, so they must not own heap storage), hashable
    /// for deduplication.
    type State: Copy + Eq + Hash + Debug;

    /// The exploration root (for the switch models: the empty switch).
    fn initial(&self) -> Self::State;

    /// Hands every branch out of `state` to `emit`. Probabilities must
    /// sum to 1. The emission order is part of a model's contract: it
    /// fixes the state numbering and the order duplicate branches are
    /// summed in, hence the low-order bits of every result.
    fn for_each_transition(&self, state: &Self::State, emit: impl FnMut(Transition<Self::State>));

    /// All branches out of `state`, collected in emission order (a
    /// convenience for tests and examples; exploration never calls it).
    fn transitions(&self, state: &Self::State) -> Vec<Transition<Self::State>> {
        let mut out = Vec::new();
        self.for_each_transition(state, |t| out.push(t));
        out
    }
}

/// A fully-enumerated chain: indexed states, transition matrix and expected
/// per-state rewards.
#[derive(Debug, Clone)]
pub struct Chain<S> {
    states: Vec<S>,
    matrix: CsrMatrix,
    rewards: Vec<Reward>,
}

impl<S: Copy + Eq + Hash + Debug> Chain<S> {
    /// Builds the chain reachable from `model.initial()`.
    ///
    /// States are numbered in discovery order from a last-in-first-out
    /// frontier; each state's matrix row is finished (sorted by column,
    /// duplicate branches summed in emission order) as the state is
    /// expanded, so no per-transition record outlives its row.
    ///
    /// # Panics
    ///
    /// Panics if some state's branch probabilities do not sum to 1 (within
    /// 1e-9) — that is a bug in the model — or if the chain has more than
    /// `u32::MAX` states.
    pub fn explore<M: MarkovModel<State = S>>(model: &M) -> Self {
        let root = model.initial();
        // lint: allow — set-up: one index for the whole exploration.
        let mut index: FxHashMap<S, u32> = FxHashMap::default();
        index.insert(root, 0);
        let mut states = Vec::from([root]);
        let mut frontier = Vec::from([0u32]);
        // Rows finish in expansion order, not index order: `spans[i]` is
        // where state i's row sits in `cols` / `vals`.
        let mut spans = Vec::from([(0, 0)]);
        let mut rewards = Vec::from([Reward::default()]);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        let mut row: Vec<(u32, f64)> = Vec::new();

        while let Some(from) = frontier.pop() {
            let state = states[from as usize];
            let (mut total, mut reward) = (0.0, Reward::default());
            row.clear();
            model.for_each_transition(&state, |t| {
                total += t.probability;
                reward = reward + t.reward * t.probability;
                let to = *index.entry(t.next).or_insert_with(|| {
                    let id = u32::try_from(states.len()).expect("state count fits in u32");
                    states.push(t.next);
                    spans.push((0, 0));
                    rewards.push(Reward::default());
                    frontier.push(id);
                    id
                });
                row.push((to, t.probability));
            });
            assert!(
                (total - 1.0).abs() < 1e-9,
                "branch probabilities from {state:?} sum to {total}"
            );
            // Stable, so equal columns stay in emission order for the sum.
            row.sort_by_key(|&(col, _)| col);
            let start = cols.len();
            for &(col, p) in &row {
                match vals.last_mut() {
                    Some(last) if cols.len() > start && cols.last() == Some(&col) => *last += p,
                    _ => {
                        cols.push(col);
                        vals.push(p);
                    }
                }
            }
            spans[from as usize] = (start, cols.len());
            rewards[from as usize] = reward;
        }

        Chain {
            matrix: CsrMatrix::from_row_spans(&spans, &cols, &vals),
            states,
            rewards,
        }
    }

    /// Number of reachable states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The state with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// The transition matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Expected per-cycle reward in state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn reward(&self, i: usize) -> Reward {
        self.rewards[i]
    }

    /// Solves for the stationary distribution by restarted GMRES (see
    /// [`steady_state`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the solver.
    pub fn steady_state(&self, options: SolveOptions) -> Result<SteadyState, SolveError> {
        steady_state(&self.matrix, options)
    }

    /// Solves for the stationary distribution by Gauss–Seidel sweeps
    /// (fewer iterations on slowly-mixing chains; see
    /// [`steady_state_gauss_seidel`](crate::steady_state_gauss_seidel)).
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the solver.
    pub fn steady_state_gauss_seidel(
        &self,
        options: SolveOptions,
    ) -> Result<SteadyState, SolveError> {
        crate::solve::steady_state_gauss_seidel(&self.matrix, options)
    }

    /// Long-run expected rewards per cycle under the stationary
    /// distribution `ss`.
    pub fn stationary_reward(&self, ss: &SteadyState) -> Reward {
        let mut total = Reward::default();
        for (i, &p) in ss.pi.iter().enumerate() {
            total = total + self.rewards[i] * p;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue of capacity 2: arrival w.p. `a` (discarded when full),
    /// departure w.p. 1 if nonempty after arrival.
    struct TinyQueue {
        arrival: f64,
    }

    impl MarkovModel for TinyQueue {
        type State = u8;

        fn initial(&self) -> u8 {
            0
        }

        fn for_each_transition(&self, &s: &u8, mut emit: impl FnMut(Transition<u8>)) {
            for (arrived, p) in [(true, self.arrival), (false, 1.0 - self.arrival)] {
                if p == 0.0 {
                    continue;
                }
                let mut level = s;
                let mut discards = 0.0;
                let arrivals = if arrived { 1.0 } else { 0.0 };
                if arrived {
                    if level < 2 {
                        level += 1;
                    } else {
                        discards = 1.0;
                    }
                }
                let departures = if level > 0 {
                    level -= 1;
                    1.0
                } else {
                    0.0
                };
                emit(Transition {
                    next: level,
                    probability: p,
                    reward: Reward {
                        arrivals,
                        discards,
                        departures,
                    },
                });
            }
        }
    }

    #[test]
    fn explores_reachable_states_only() {
        // With service every cycle, occupancy never exceeds 1 after service:
        // states {0} reachable... arrival -> 1 -> serve -> 0. So only {0}.
        let chain = Chain::explore(&TinyQueue { arrival: 0.5 });
        assert_eq!(chain.state_count(), 1);
        assert_eq!(chain.state(0), &0);
    }

    #[test]
    fn rewards_average_over_branches() {
        let chain = Chain::explore(&TinyQueue { arrival: 0.5 });
        let r = chain.reward(0);
        assert!((r.arrivals - 0.5).abs() < 1e-12);
        assert!((r.departures - 0.5).abs() < 1e-12);
        assert_eq!(r.discards, 0.0);
    }

    #[test]
    fn stationary_reward_of_single_state_chain() {
        let chain = Chain::explore(&TinyQueue { arrival: 0.3 });
        let ss = chain.steady_state(SolveOptions::default()).unwrap();
        let r = chain.stationary_reward(&ss);
        assert!((r.arrivals - 0.3).abs() < 1e-12);
    }

    /// Arrival-after-service variant so the queue actually builds up.
    struct LazyQueue {
        arrival: f64,
        capacity: u8,
        service: f64,
    }

    impl MarkovModel for LazyQueue {
        type State = u8;

        fn initial(&self) -> u8 {
            0
        }

        fn for_each_transition(&self, &s: &u8, mut emit: impl FnMut(Transition<u8>)) {
            for (arrived, pa) in [(true, self.arrival), (false, 1.0 - self.arrival)] {
                for (served, ps) in [(true, self.service), (false, 1.0 - self.service)] {
                    let p = pa * ps;
                    if p == 0.0 {
                        continue;
                    }
                    let mut level = s;
                    let mut discards = 0.0;
                    if served && level > 0 {
                        level -= 1;
                    }
                    if arrived {
                        if level < self.capacity {
                            level += 1;
                        } else {
                            discards = 1.0;
                        }
                    }
                    emit(Transition {
                        next: level,
                        probability: p,
                        reward: Reward {
                            arrivals: if arrived { 1.0 } else { 0.0 },
                            discards,
                            departures: 0.0,
                        },
                    });
                }
            }
        }
    }

    #[test]
    fn explores_full_capacity_range() {
        let chain = Chain::explore(&LazyQueue {
            arrival: 0.5,
            capacity: 3,
            service: 0.5,
        });
        assert_eq!(chain.state_count(), 4); // 0..=3
    }

    #[test]
    fn loss_probability_matches_analytic_geom_queue() {
        // Symmetric random walk on 0..=c with arrival=service=0.5:
        // stationary distribution is uniform-ish; just sanity check discard
        // rate is strictly between 0 and arrival rate.
        let chain = Chain::explore(&LazyQueue {
            arrival: 0.5,
            capacity: 2,
            service: 0.5,
        });
        let ss = chain.steady_state(SolveOptions::default()).unwrap();
        let r = chain.stationary_reward(&ss);
        assert!(r.discards > 0.0 && r.discards < 0.5);
        // Flow conservation: arrivals = discards + throughput in steady
        // state; throughput here equals served fraction which we did not
        // track, so just check arrival accounting.
        assert!((r.arrivals - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_branches_are_summed_into_sorted_rows() {
        /// Two states; every branch list revisits a target and is
        /// emitted out of column order.
        struct Revisits;
        impl MarkovModel for Revisits {
            type State = u8;
            fn initial(&self) -> u8 {
                0
            }
            fn for_each_transition(&self, &s: &u8, mut emit: impl FnMut(Transition<u8>)) {
                for (next, probability) in [(1 - s, 0.25), (s, 0.5), (1 - s, 0.25)] {
                    emit(Transition {
                        next,
                        probability,
                        reward: Reward::default(),
                    });
                }
            }
        }
        let chain = Chain::explore(&Revisits);
        assert_eq!(chain.state_count(), 2);
        assert_eq!((chain.state(0), chain.state(1)), (&0, &1));
        for i in 0..2 {
            let row: Vec<_> = chain.matrix().row(i).collect();
            assert_eq!(row, vec![(0, 0.5), (1, 0.5)]);
        }
        // The collecting form keeps the emission order, duplicates and all.
        let listed: Vec<u8> = Revisits.transitions(&0).iter().map(|t| t.next).collect();
        assert_eq!(listed, vec![1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn bad_probabilities_are_caught() {
        struct Broken;
        impl MarkovModel for Broken {
            type State = u8;
            fn initial(&self) -> u8 {
                0
            }
            fn for_each_transition(&self, _: &u8, mut emit: impl FnMut(Transition<u8>)) {
                emit(Transition {
                    next: 0,
                    probability: 0.5,
                    reward: Reward::default(),
                });
            }
        }
        let _ = Chain::explore(&Broken);
    }
}
