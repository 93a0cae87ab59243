//! Markov analysis of k×k discarding switches (beyond the paper).
//!
//! The paper analyses 2×2 switches and resorts to simulation for 4×4
//! because "the state space was too large for Markov modeling" (§4).
//! Four decades later it is tractable for the buffer sizes of interest:
//! the count-based designs (SAMQ/SAFC/DAMQ/DAFC) need only per-(input,
//! output) packet counts, giving e.g. 3 628 reachable states for a 4×4
//! DAMQ switch with 2 slots per input (DAFC: 3 283).
//!
//! Two deliberate simplifications versus the exact 2×2 models, both
//! documented and bounded by the cross-validation tests:
//!
//! * **FIFO is excluded** — its state needs the queue *order*, which grows
//!   as `k^depth` per input and defeats the count representation.
//! * **Arbitration is greedy and deterministic** — inputs are matched to
//!   outputs by repeatedly granting the longest remaining queue, breaking
//!   ties by lowest input then output index (instead of branching
//!   uniformly, which multiplies transitions combinatorially). This is the
//!   same family of policy as the simulator's arbiter, and the
//!   `markov_vs_simulation` suite bounds the residual difference.

use damq_core::BufferKind;

use crate::chain::{Chain, FxHashMap, MarkovModel, Reward, Transition};
use crate::discard::{check_shared, AnalysisError, DiscardPoint};
use crate::solve::SolveOptions;

/// Per-(input, output) packet counts of a k×k switch, row-major
/// (`input * k + output`). Fixed 16 cells (radix ≤ 4) keep the state
/// `Copy` and allocation-free — exploration visits millions of
/// transitions, so this matters; unused cells stay zero.
type KState = [u8; 16];

/// Largest radix the fixed-size state supports.
pub const MAX_KXK_RADIX: usize = 4;

/// A k×k discarding switch with a count-based buffer design. Within a
/// cycle, arrivals join their queues (or are discarded), then the greedy
/// arbiter transmits, as in [`Switch2x2`](crate::Switch2x2).
#[derive(Debug, Clone)]
pub struct SwitchKxK {
    kind: BufferKind,
    radix: usize,
    capacity: u8,
    traffic: f64,
}

impl SwitchKxK {
    /// Creates the model.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::OddStaticCapacity`] if a statically-
    /// allocated design's capacity does not divide by the radix (the
    /// static split), reusing the same error the 2×2 API reports.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is FIFO (not representable by counts), the radix
    /// is < 2 or above 4, the capacity is 0 or above 255, or `traffic` is
    /// not a probability ([`discard_probability_kxk`] reports each as an
    /// error instead).
    pub fn new(
        kind: BufferKind,
        radix: usize,
        capacity: usize,
        traffic: f64,
    ) -> Result<Self, AnalysisError> {
        assert!(
            kind != BufferKind::Fifo,
            "FIFO state is order-dependent; the k-by-k model covers the multi-queue designs"
        );
        assert!(radix >= 2, "radix must be at least 2");
        assert!(
            radix <= MAX_KXK_RADIX,
            "the k-by-k model supports radix up to {MAX_KXK_RADIX}"
        );
        assert!(capacity > 0 && capacity <= 255, "capacity out of range");
        assert!((0.0..=1.0).contains(&traffic), "traffic is a probability");
        if kind.is_statically_allocated() && !capacity.is_multiple_of(radix) {
            return Err(AnalysisError::OddStaticCapacity { kind, capacity });
        }
        Ok(SwitchKxK {
            kind,
            radix,
            capacity: capacity as u8,
            traffic,
        })
    }

    /// The switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    fn count(&self, state: &KState, input: usize, output: usize) -> u8 {
        state[input * self.radix + output]
    }

    /// Whether a packet for (input, output) fits, per the design's
    /// allocation rule.
    fn accepts(&self, state: &KState, input: usize, output: usize) -> bool {
        match self.kind {
            BufferKind::Damq | BufferKind::Dafc => {
                let used: u16 = (0..self.radix)
                    .map(|o| u16::from(self.count(state, input, o)))
                    .sum();
                used < u16::from(self.capacity)
            }
            BufferKind::Samq | BufferKind::Safc => {
                self.count(state, input, output) < self.capacity / self.radix as u8
            }
            BufferKind::Fifo => unreachable!("rejected in the constructor"),
        }
    }

    fn read_ports(&self) -> usize {
        match self.kind {
            BufferKind::Safc | BufferKind::Dafc => self.radix,
            _ => 1,
        }
    }

    /// Greedy longest-queue-first matching, applied to `state` in place;
    /// returns the number of packets sent. Deterministic (ties to lowest
    /// indexes).
    fn depart_greedy(&self, state: &mut KState) -> usize {
        let k = self.radix;
        let per_input_budget = self.read_ports();
        // Bit `input * k + output` is set while that queue may still send:
        // nonempty, its input within budget, its output free. A grant only
        // clears bits — its own among them, with its output's column — so
        // the lengths the live queues compete on never change.
        let mut live = 0u16;
        for (cell, &c) in state[..k * k].iter().enumerate() {
            live |= u16::from(c > 0) << cell;
        }
        let mut sent_from = [0usize; MAX_KXK_RADIX];
        let mut sent = 0;
        while live != 0 {
            // Longest queue wins; ties to lowest (input, output), i.e. to
            // the lowest bit.
            let mut best = live.trailing_zeros() as usize;
            let mut rest = live & (live - 1);
            while rest != 0 {
                let cell = rest.trailing_zeros() as usize;
                if state[cell] > state[best] {
                    best = cell;
                }
                rest &= rest - 1;
            }
            let (input, output) = (best / k, best % k);
            state[best] -= 1;
            sent += 1;
            sent_from[input] += 1;
            for i in 0..k {
                live &= !(1 << (i * k + output));
            }
            if sent_from[input] >= per_input_budget {
                live &= !(((1 << k) - 1) << (input * k));
            }
        }
        sent
    }
}

impl MarkovModel for SwitchKxK {
    type State = KState;

    fn initial(&self) -> KState {
        [0; 16]
    }

    /// Transitions that reach the same state are merged before they are
    /// emitted (keeps chains compact — different arrival combos frequently
    /// collapse after departures).
    fn for_each_transition(&self, state: &KState, mut emit: impl FnMut(Transition<KState>)) {
        let k = self.radix;
        let p = self.traffic;
        // Arrival options per input: none, or one of k outputs.
        let mut options = [(None, 1.0 - p); MAX_KXK_RADIX + 1];
        for o in 0..k {
            options[o + 1] = (Some(o), p / k as f64);
        }
        // Emission follows this map's iteration order, which depends on the
        // capacity it grew through: a reused or pre-sized map would permute
        // the transitions, renumber the states and move the last bits of
        // every result.
        // lint: allow — a fresh map per state is the emission-order contract.
        let mut merged: FxHashMap<KState, (f64, Reward)> = FxHashMap::default();
        // Enumerate the (k+1)^k joint arrival combinations.
        let mut combo = [0usize; MAX_KXK_RADIX];
        'combos: loop {
            let mut prob = 1.0;
            for &choice in &combo[..k] {
                prob *= options[choice].1;
            }
            if prob > 0.0 {
                let mut st = *state;
                let mut arrivals = 0.0;
                let mut discards = 0.0;
                for (input, &choice) in combo[..k].iter().enumerate() {
                    if let (Some(output), _) = options[choice] {
                        arrivals += 1.0;
                        if self.accepts(&st, input, output) {
                            st[input * k + output] += 1;
                        } else {
                            discards += 1.0;
                        }
                    }
                }
                let sent = self.depart_greedy(&mut st);
                let reward = Reward {
                    arrivals,
                    discards,
                    departures: sent as f64,
                };
                let entry = merged.entry(st).or_insert((0.0, Reward::default()));
                entry.0 += prob;
                entry.1 = entry.1 + reward * prob;
            }
            // Advance the mixed-radix counter over arrival combos.
            let mut pos = 0;
            loop {
                if pos == k {
                    break 'combos;
                }
                combo[pos] += 1;
                if combo[pos] <= k {
                    break;
                }
                combo[pos] = 0;
                pos += 1;
            }
        }
        for (next, (probability, weighted)) in merged {
            emit(Transition {
                next,
                probability,
                // Un-weight: the chain builder re-weights by branch probability.
                reward: weighted * (1.0 / probability),
            });
        }
    }
}

/// Computes the discard probability of a k×k discarding switch with a
/// count-based buffer design (everything except FIFO).
///
/// # Errors
///
/// Returns [`AnalysisError::UnsupportedKind`] for FIFO,
/// [`AnalysisError::RadixOutOfRange`] outside radix 2–4,
/// [`AnalysisError::ZeroCapacity`], [`AnalysisError::CapacityTooLarge`]
/// past 255 slots, [`AnalysisError::TrafficNotAProbability`],
/// [`AnalysisError::OddStaticCapacity`] when a static design's capacity
/// does not divide by the radix, or a wrapped solver failure.
///
/// # Examples
///
/// The 4×4 switch of the paper's Omega network, analysed exactly (which
/// the paper could not do):
///
/// ```no_run
/// use damq_core::BufferKind;
/// use damq_markov::discard_probability_kxk;
///
/// let damq = discard_probability_kxk(BufferKind::Damq, 4, 4, 0.9)?;
/// let samq = discard_probability_kxk(BufferKind::Samq, 4, 4, 0.9)?;
/// assert!(damq.discard_probability < samq.discard_probability);
/// # Ok::<(), damq_markov::AnalysisError>(())
/// ```
pub fn discard_probability_kxk(
    kind: BufferKind,
    radix: usize,
    capacity: usize,
    traffic: f64,
) -> Result<DiscardPoint, AnalysisError> {
    if kind == BufferKind::Fifo {
        return Err(AnalysisError::UnsupportedKind { kind });
    }
    if !(2..=MAX_KXK_RADIX).contains(&radix) {
        return Err(AnalysisError::RadixOutOfRange {
            radix,
            max: MAX_KXK_RADIX,
        });
    }
    check_shared(kind, capacity, traffic)?;
    let max = usize::from(u8::MAX);
    if capacity > max {
        return Err(AnalysisError::CapacityTooLarge {
            kind,
            capacity,
            max,
        });
    }
    let model = SwitchKxK::new(kind, radix, capacity, traffic)?;
    let chain = Chain::explore(&model);
    let ss = chain.steady_state(SolveOptions::default())?;
    let reward = chain.stationary_reward(&ss);
    let discard_probability = if reward.arrivals > 0.0 {
        reward.discards / reward.arrivals
    } else {
        0.0
    };
    let mean_occupancy: f64 = ss
        .pi
        .iter()
        .enumerate()
        .map(|(i, p)| p * chain.state(i).iter().map(|&c| f64::from(c)).sum::<f64>())
        .sum();
    let mean_wait_cycles = if reward.departures > 0.0 {
        mean_occupancy / reward.departures
    } else {
        0.0
    };
    Ok(DiscardPoint {
        discard_probability,
        throughput: reward.departures,
        mean_occupancy,
        mean_wait_cycles,
        states: chain.state_count(),
        iterations: ss.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discard::discard_probability;

    #[test]
    fn radix_2_roughly_matches_the_exact_2x2_models() {
        // Different tie-breaking (deterministic vs uniform), same physics:
        // the discard probabilities should agree closely.
        for kind in [BufferKind::Damq, BufferKind::Samq, BufferKind::Safc] {
            for traffic in [0.5, 0.9] {
                let exact = discard_probability(kind, 4, traffic).unwrap();
                let greedy = discard_probability_kxk(kind, 2, 4, traffic).unwrap();
                assert!(
                    (exact.discard_probability - greedy.discard_probability).abs() < 0.01,
                    "{kind}@{traffic}: exact {} vs greedy {}",
                    exact.discard_probability,
                    greedy.discard_probability
                );
            }
        }
    }

    #[test]
    fn flow_conservation_at_radix_3() {
        for kind in [BufferKind::Damq, BufferKind::Samq] {
            let traffic = 0.8;
            let p = discard_probability_kxk(kind, 3, 3, traffic).unwrap();
            let arrivals = 3.0 * traffic;
            let lost = arrivals * p.discard_probability;
            assert!(
                (p.throughput + lost - arrivals).abs() < 1e-6,
                "{kind}: thr {} lost {lost} arr {arrivals}",
                p.throughput
            );
        }
    }

    #[test]
    fn damq_dominates_at_radix_3() {
        let traffic = 0.9;
        let damq = discard_probability_kxk(BufferKind::Damq, 3, 3, traffic).unwrap();
        let samq = discard_probability_kxk(BufferKind::Samq, 3, 3, traffic).unwrap();
        assert!(damq.discard_probability < samq.discard_probability);
    }

    #[test]
    fn fifo_is_rejected_up_front() {
        let result = std::panic::catch_unwind(|| SwitchKxK::new(BufferKind::Fifo, 4, 4, 0.5));
        assert!(result.is_err());
    }

    #[test]
    fn degenerate_points_are_typed_errors_not_panics() {
        // Each used to panic in `SwitchKxK::new`.
        use AnalysisError::*;
        let analyse = |kind, radix, capacity, traffic| {
            discard_probability_kxk(kind, radix, capacity, traffic).unwrap_err()
        };
        let (fifo, damq, samq) = (BufferKind::Fifo, BufferKind::Damq, BufferKind::Samq);
        assert_eq!(analyse(fifo, 2, 2, 0.5), UnsupportedKind { kind: fifo });
        for radix in [0, 1, 5] {
            assert_eq!(
                analyse(damq, radix, 2, 0.5),
                RadixOutOfRange { radix, max: 4 }
            );
        }
        assert_eq!(analyse(samq, 2, 0, 0.5), ZeroCapacity { kind: samq });
        let (capacity, max) = (256, 255);
        let too_large = CapacityTooLarge {
            kind: damq,
            capacity,
            max,
        };
        assert_eq!(analyse(damq, 3, capacity, 0.5), too_large);
        for traffic in [1.01, -1.0] {
            assert_eq!(
                analyse(damq, 2, 2, traffic),
                TrafficNotAProbability { traffic }
            );
        }
        assert!(matches!(
            analyse(BufferKind::Dafc, 2, 2, f64::NAN),
            TrafficNotAProbability { traffic } if traffic.is_nan()
        ));
    }

    #[test]
    fn static_capacity_must_divide_radix() {
        let err = SwitchKxK::new(BufferKind::Samq, 4, 6, 0.5).unwrap_err();
        assert!(matches!(err, AnalysisError::OddStaticCapacity { .. }));
    }

    #[test]
    fn greedy_matching_is_maximal_on_small_cases() {
        // No (input, output) pair with packets remains grantable after the
        // greedy pass: the matching is maximal (not necessarily maximum).
        let model = SwitchKxK::new(BufferKind::Damq, 3, 3, 0.5).unwrap();
        let mut state: KState = [0; 16];
        state[..9].copy_from_slice(&[1, 0, 0, 1, 1, 0, 0, 0, 1]);
        let mut rem = state;
        model.depart_greedy(&mut rem);
        let mut outputs = [false; 3];
        let mut inputs = [false; 3];
        for i in 0..3 {
            for o in 0..3 {
                if rem[i * 3 + o] < state[i * 3 + o] {
                    outputs[o] = true;
                    inputs[i] = true;
                }
            }
        }
        for i in 0..3 {
            for o in 0..3 {
                assert!(
                    rem[i * 3 + o] == 0 || inputs[i] || outputs[o],
                    "greedy left a grantable pair ({i},{o})"
                );
            }
        }
    }

    #[test]
    fn fully_connected_designs_send_more() {
        // One input holding packets for all outputs: DAFC drains radix per
        // cycle, DAMQ one.
        let dafc = SwitchKxK::new(BufferKind::Dafc, 3, 3, 0.5).unwrap();
        let damq = SwitchKxK::new(BufferKind::Damq, 3, 3, 0.5).unwrap();
        let mut state: KState = [0; 16];
        state[..9].copy_from_slice(&[1, 1, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(dafc.depart_greedy(&mut state.clone()), 3);
        assert_eq!(damq.depart_greedy(&mut state.clone()), 1);
    }
}
