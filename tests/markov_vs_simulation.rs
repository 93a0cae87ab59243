//! Validates the Markov models against the event-driven simulator.
//!
//! A 2-terminal radix-2 "network" is a single 2×2 switch, so the discard
//! rates predicted by the `damq-markov` chains and measured by the
//! `damq-net` simulator must agree. The two engines were written
//! independently (different state representations, different arbitration
//! tie-breaking), which makes this a strong end-to-end check on both.
//!
//! The simulator transmits from the old state, then injects; the Markov
//! chain lets arrivals join before the arbiter transmits. The discard
//! probability does not depend on which comes first (both orders observe
//! one alternating sequence of arrivals and departures). Only where the
//! occupancy is sampled differs: the simulator samples after injection,
//! the chain after departures (see `DiscardPoint::mean_occupancy`).
//! Arbitration differs in tie-breaking details (rotating priority vs
//! longest-queue-uniform), so we allow a small absolute tolerance.

use damq::buffers::BufferKind;
use damq::markov::discard_probability;
use damq::net::{measure, NetworkConfig};
use damq::switch::FlowControl;

fn simulated_discard(kind: BufferKind, slots: usize, load: f64) -> f64 {
    let m = measure(
        NetworkConfig::new(2, 2)
            .buffer_kind(kind)
            .slots_per_buffer(slots)
            .flow_control(FlowControl::Discarding)
            .offered_load(load)
            .seed(0xBEEF),
        2_000,
        30_000,
    )
    .expect("simulation runs");
    m.discard_fraction
}

fn predicted_discard(kind: BufferKind, slots: usize, load: f64) -> f64 {
    discard_probability(kind, slots, load)
        .expect("analysis runs")
        .discard_probability
}

#[test]
fn markov_and_simulator_agree_on_fifo() {
    for load in [0.5, 0.8, 0.95] {
        let sim = simulated_discard(BufferKind::Fifo, 4, load);
        let model = predicted_discard(BufferKind::Fifo, 4, load);
        assert!(
            (sim - model).abs() < 0.04,
            "load {load}: sim {sim:.4} vs model {model:.4}"
        );
    }
}

#[test]
fn markov_and_simulator_agree_on_damq() {
    for load in [0.5, 0.8, 0.95] {
        let sim = simulated_discard(BufferKind::Damq, 4, load);
        let model = predicted_discard(BufferKind::Damq, 4, load);
        assert!(
            (sim - model).abs() < 0.04,
            "load {load}: sim {sim:.4} vs model {model:.4}"
        );
    }
}

#[test]
fn markov_and_simulator_agree_on_static_designs() {
    for kind in [BufferKind::Samq, BufferKind::Safc] {
        for load in [0.5, 0.9] {
            let sim = simulated_discard(kind, 4, load);
            let model = predicted_discard(kind, 4, load);
            assert!(
                (sim - model).abs() < 0.05,
                "{kind} load {load}: sim {sim:.4} vs model {model:.4}"
            );
        }
    }
}

#[test]
fn both_engines_rank_the_designs_identically() {
    let load = 0.9;
    let mut sim_ranked: Vec<(BufferKind, f64)> = BufferKind::ALL
        .iter()
        .map(|&k| (k, simulated_discard(k, 4, load)))
        .collect();
    let mut model_ranked: Vec<(BufferKind, f64)> = BufferKind::ALL
        .iter()
        .map(|&k| (k, predicted_discard(k, 4, load)))
        .collect();
    sim_ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    model_ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    let sim_order: Vec<BufferKind> = sim_ranked.iter().map(|&(k, _)| k).collect();
    let model_order: Vec<BufferKind> = model_ranked.iter().map(|&(k, _)| k).collect();
    assert_eq!(
        sim_order, model_order,
        "sim {sim_ranked:?} vs model {model_ranked:?}"
    );
    // And DAMQ is the best in both.
    assert_eq!(sim_order[0], BufferKind::Damq);
}

#[test]
fn kxk_markov_agrees_with_a_single_4x4_switch_simulation() {
    // A 4-terminal radix-4 "network" is one 4x4 switch: the generalised
    // k-by-k Markov model (greedy deterministic arbitration) must agree
    // with the event-driven simulator (rotating-priority arbitration) up
    // to their tie-breaking differences.
    use damq::markov::discard_probability_kxk;
    let sim = |kind: BufferKind, slots: usize, load: f64| {
        measure(
            NetworkConfig::new(4, 4)
                .buffer_kind(kind)
                .slots_per_buffer(slots)
                .flow_control(FlowControl::Discarding)
                .offered_load(load)
                .seed(0xF00D),
            1_000,
            15_000,
        )
        .expect("simulation runs")
        .discard_fraction
    };
    let model = |kind: BufferKind, slots: usize, load: f64| {
        discard_probability_kxk(kind, 4, slots, load)
            .expect("analysis runs")
            .discard_probability
    };
    for (kind, slots, load) in [
        (BufferKind::Damq, 1, 0.9), // 625 states: cheap
        (BufferKind::Samq, 4, 0.6),
        (BufferKind::Samq, 4, 0.9),
    ] {
        let s = sim(kind, slots, load);
        let m = model(kind, slots, load);
        assert!(
            (s - m).abs() < 0.05,
            "{kind}/{slots}@{load}: sim {s:.4} vs model {m:.4}"
        );
    }
}
