//! Cross-validation of the model checker against the Markov chain.
//!
//! The checker's BFS and `damq_markov::Chain::explore` walk the same 2×2
//! cycle structure (arrivals first, identical arbitration) through two
//! independent code bases — the checker drives the concrete `damq-core`
//! buffers over joint occupancies, the chain drives the analytical models
//! over orbits of joint occupancies under exchanging the inputs and the
//! outputs. With a traffic level strictly between 0 and 1 every arrival
//! combination has positive probability, so the joint occupancies the
//! chain's orbits stand for (`DiscardPoint::states`, the sum of orbit
//! sizes) must be exactly the states the checker reached; the orbit count
//! must lie between a quarter of that and all of it; and the steady-state
//! distribution must put positive mass on every orbit.

use damq_core::BufferKind;
use damq_markov::{
    discard_probability, BufferModel2x2, Chain, CycleOrder, DafcModel, DamqModel, FifoModel,
    SafcModel, SamqModel, SolveOptions, Switch2x2,
};

const ORDER: CycleOrder = CycleOrder::ArrivalsFirst;

/// The joint occupancies the chain for `kind`/`capacity` stands for.
fn joint_states(kind: BufferKind, capacity: usize, traffic: f64) -> usize {
    discard_probability(kind, capacity, traffic, ORDER, SolveOptions::default())
        .expect("analysis succeeds")
        .states
}

/// Orbits of the chain, and whether its stationary distribution is
/// positive on every one.
fn orbits<M: BufferModel2x2>(model: M, traffic: f64) -> (usize, bool) {
    let chain = Chain::explore(&Switch2x2::new(model, traffic, ORDER));
    let ss = chain
        .steady_state(SolveOptions::default())
        .expect("solver converges");
    (chain.state_count(), ss.pi.iter().all(|&p| p > 0.0))
}

fn orbits_of(kind: BufferKind, capacity: usize, traffic: f64) -> (usize, bool) {
    match kind {
        BufferKind::Fifo => orbits(FifoModel::new(capacity), traffic),
        BufferKind::Samq => orbits(SamqModel::new(capacity), traffic),
        BufferKind::Safc => orbits(SafcModel::new(capacity), traffic),
        BufferKind::Damq => orbits(DamqModel::new(capacity), traffic),
        BufferKind::Dafc => orbits(DafcModel::new(capacity), traffic),
    }
}

fn capacities(kind: BufferKind) -> [usize; 2] {
    if kind.is_statically_allocated() {
        [2, 4]
    } else {
        [2, 3]
    }
}

#[test]
fn checker_state_space_matches_markov_chain_exactly() {
    for kind in BufferKind::EXTENDED {
        for capacity in capacities(kind) {
            let report = damq_verify::check(kind, capacity).unwrap_or_else(|v| panic!("{v}"));
            let joint = joint_states(kind, capacity, 0.9);
            assert_eq!(
                report.states, joint,
                "{kind} capacity {capacity}: checker visited {} states, \
                 the Markov chain's orbits hold {joint}",
                report.states
            );
            let (orbits, _) = orbits_of(kind, capacity, 0.9);
            assert!(
                (joint.div_ceil(4)..=joint).contains(&orbits),
                "{kind} capacity {capacity}: {orbits} orbits of {joint} states"
            );
        }
    }
}

#[test]
fn steady_state_supports_every_visited_state() {
    // The chain is irreducible over the reachable orbits (the empty state
    // is always reachable back via no-arrival cycles), so π must be
    // strictly positive on every orbit of states the checker walked.
    for kind in BufferKind::EXTENDED {
        for capacity in capacities(kind) {
            let (orbits, positive) = orbits_of(kind, capacity, 0.9);
            assert!(
                positive,
                "{kind} capacity {capacity}: an orbit of {orbits} has no mass"
            );
        }
    }
}

#[test]
fn reachable_spaces_are_traffic_independent() {
    // Reachability only needs every arrival combo to be possible; the
    // state space must not depend on the traffic level itself.
    let checked = damq_verify::check(BufferKind::Damq, 2)
        .expect("clean")
        .states;
    let orbits = orbits_of(BufferKind::Damq, 2, 0.5).0;
    for traffic in [0.1, 0.5, 0.95] {
        assert_eq!(joint_states(BufferKind::Damq, 2, traffic), checked);
        assert_eq!(orbits_of(BufferKind::Damq, 2, traffic).0, orbits);
    }
}
