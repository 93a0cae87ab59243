//! Cross-validation of the model checker against the Markov chain.
//!
//! The checker's BFS and `damq_markov::Chain::explore` walk the same 2×2
//! cycle structure (arrivals first, identical arbitration) through two
//! independent code bases — the checker drives the concrete `damq-core`
//! buffers over joint occupancies, the chain drives the analytical models
//! over orbits of model states under exchanging the inputs and the
//! outputs, where a FIFO model state keeps only each queue's length and
//! head. With a traffic level strictly between 0 and 1 every arrival
//! combination has positive probability, so the joint occupancies the
//! chain's orbits stand for (`DiscardPoint::states`: orbit sizes times
//! `BufferModel2x2::arrangements`, summed) must be exactly the states the
//! checker reached; the same sum taken here must agree, with no more
//! orbits than joint states; and the steady-state distribution must put
//! positive mass on every orbit.

use damq_core::BufferKind;
use damq_markov::{
    discard_probability, BufferModel2x2, Chain, CycleOrder, DafcModel, DamqModel, FifoModel,
    SafcModel, SamqModel, SolveOptions, Switch2x2,
};

/// The joint occupancies the chain for `kind`/`capacity` stands for.
fn joint_states(kind: BufferKind, capacity: usize, traffic: f64) -> usize {
    discard_probability(kind, capacity, traffic)
        .expect("analysis succeeds")
        .states
}

/// A chain's orbits, the joint occupancies they stand for, and whether
/// its stationary distribution is positive on every orbit.
struct Orbits {
    count: usize,
    joint: usize,
    positive: bool,
}

fn orbits<M: BufferModel2x2>(model: M, traffic: f64) -> Orbits {
    let switch = Switch2x2::new(model, traffic, CycleOrder::ArrivalsFirst);
    let chain = Chain::explore(&switch);
    let ss = chain
        .steady_state(SolveOptions::default())
        .expect("solver converges");
    let joint = (0..chain.state_count())
        .map(|i| {
            let state = chain.state(i);
            switch.orbit_size(state) * switch.model().arrangements(state)
        })
        .sum();
    Orbits {
        count: chain.state_count(),
        joint,
        positive: ss.pi.iter().all(|&p| p > 0.0),
    }
}

fn orbits_of(kind: BufferKind, capacity: usize, traffic: f64) -> Orbits {
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
            let orbits = orbits_of(kind, capacity, 0.9);
            assert_eq!(
                orbits.joint, joint,
                "{kind} capacity {capacity}: orbit sizes times arrangements"
            );
            assert!(
                orbits.count <= joint,
                "{kind} capacity {capacity}: {} orbits of {joint} states",
                orbits.count
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
            let orbits = orbits_of(kind, capacity, 0.9);
            assert!(
                orbits.positive,
                "{kind} capacity {capacity}: an orbit of {} has no mass",
                orbits.count
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
    let orbits = orbits_of(BufferKind::Damq, 2, 0.5).count;
    for traffic in [0.1, 0.5, 0.95] {
        assert_eq!(joint_states(BufferKind::Damq, 2, traffic), checked);
        assert_eq!(orbits_of(BufferKind::Damq, 2, traffic).count, orbits);
    }
}
