//! Randomized property tests on the Markov engine and the 2×2 switch
//! models, driven by the workspace's deterministic generator (formerly
//! `proptest`; every case reproduces from the printed seed).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::BufferKind;
use damq_markov::{
    discard_probability, AnalysisError, Chain, CycleOrder, DamqModel, FifoModel, SafcModel,
    SamqModel, Switch2x2,
};

fn kind(rng: &mut StdRng) -> BufferKind {
    BufferKind::ALL[rng.random_range(0..BufferKind::ALL.len())]
}

/// Row-stochasticity of every explored chain (checked by the builder)
/// plus: the steady state really is a fixed point of the transition
/// matrix, for random parameter points.
#[test]
fn steady_state_is_a_fixed_point() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = kind(&mut rng);
        let cap = rng.random_range(1..=4usize);
        let traffic = rng.random_range(0.05..0.99f64);
        let cap = if kind.is_statically_allocated() {
            cap * 2
        } else {
            cap
        };
        let point = discard_probability(kind, cap, traffic);
        let point = point.unwrap();
        assert!(point.discard_probability >= 0.0, "seed {seed}");
        assert!(point.discard_probability <= 1.0, "seed {seed}");
        // Throughput cannot exceed the crossbar's 2 packets/cycle.
        assert!(point.throughput <= 2.0 + 1e-9, "seed {seed}");
    }
}

/// Flow conservation at every random parameter point: offered traffic
/// splits exactly into throughput and discards.
#[test]
fn flow_conservation() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let kind = kind(&mut rng);
        let cap = rng.random_range(1..=3usize);
        let traffic = rng.random_range(0.05..0.99f64);
        let cap = if kind.is_statically_allocated() {
            cap * 2
        } else {
            cap
        };
        let p = discard_probability(kind, cap, traffic).unwrap();
        let arrivals = 2.0 * traffic;
        let lost = arrivals * p.discard_probability;
        assert!(
            (p.throughput + lost - arrivals).abs() < 1e-6,
            "thr {} + lost {} vs arrivals {}, seed {seed}",
            p.throughput,
            lost,
            arrivals
        );
    }
}

/// Discard probability is monotone in traffic (more offered load never
/// reduces the discard fraction) for every design.
#[test]
fn discards_monotone_in_traffic() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let kind = kind(&mut rng);
        let cap = rng.random_range(1..=3usize);
        let t_low = rng.random_range(0.1..0.5f64);
        let bump = rng.random_range(0.05..0.45f64);
        let cap = if kind.is_statically_allocated() {
            cap * 2
        } else {
            cap
        };
        let lo = discard_probability(kind, cap, t_low).unwrap();
        let hi = discard_probability(kind, cap, t_low + bump).unwrap();
        assert!(
            hi.discard_probability >= lo.discard_probability - 1e-7,
            "{kind}: {} -> {}, seed {seed}",
            lo.discard_probability,
            hi.discard_probability
        );
    }
}

/// The explored state space never exceeds the combinatorial bound of the
/// design's occupancy constraint (exploration visits only states reachable
/// *after* a departure round, which is a strict subset for small buffers),
/// and it grows with the buffer size.
#[test]
fn state_space_sizes_respect_combinatorial_bounds() {
    for seed in 0..12 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let cap = rng.random_range(1..=5usize);
        let traffic = rng.random_range(0.3..0.9f64);

        // DAMQ: a + b <= cap per input.
        let per_input = (cap + 1) * (cap + 2) / 2;
        let damq = Chain::explore(&Switch2x2::new(
            DamqModel::new(cap),
            traffic,
            CycleOrder::ArrivalsFirst,
        ));
        assert!(damq.state_count() <= per_input * per_input);

        // SAMQ/SAFC: a <= cap, b <= cap per input (per-queue cap).
        let per_input = (cap + 1) * (cap + 1);
        let samq = Chain::explore(&Switch2x2::new(
            SamqModel::new(2 * cap),
            traffic,
            CycleOrder::ArrivalsFirst,
        ));
        assert!(samq.state_count() <= per_input * per_input);
        let safc = Chain::explore(&Switch2x2::new(
            SafcModel::new(2 * cap),
            traffic,
            CycleOrder::ArrivalsFirst,
        ));
        assert!(safc.state_count() <= per_input * per_input);
        // SAFC's fuller service makes its reachable set no larger than
        // SAMQ's.
        assert!(safc.state_count() <= samq.state_count());

        // FIFO: empty, or a length in 1..=cap with either head.
        let per_input = 1 + 2 * cap;
        let fifo = Chain::explore(&Switch2x2::new(
            FifoModel::new(cap),
            traffic,
            CycleOrder::ArrivalsFirst,
        ));
        assert!(fifo.state_count() <= per_input * per_input);

        // Bigger buffers reach more states.
        if cap >= 2 {
            let smaller = Chain::explore(&Switch2x2::new(
                DamqModel::new(cap - 1),
                traffic,
                CycleOrder::ArrivalsFirst,
            ));
            assert!(smaller.state_count() <= damq.state_count());
        }
    }
}

/// SAMQ is never better than DAMQ with the same storage: the static split
/// only removes options.
#[test]
fn samq_never_beats_damq() {
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let cap = rng.random_range(1..=3usize);
        let traffic = rng.random_range(0.1..0.99f64);
        let damq = discard_probability(BufferKind::Damq, 2 * cap, traffic).unwrap();
        let samq = discard_probability(BufferKind::Samq, 2 * cap, traffic).unwrap();
        assert!(
            damq.discard_probability <= samq.discard_probability + 1e-7,
            "seed {seed}"
        );
    }
}

#[test]
fn odd_static_capacity_is_a_clean_error() {
    let err = discard_probability(BufferKind::Samq, 5, 0.5).unwrap_err();
    assert!(matches!(err, AnalysisError::OddStaticCapacity { .. }));
    assert!(err.to_string().contains('5'));
}
