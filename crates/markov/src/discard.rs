//! Discard-probability analysis: the computation behind the paper's
//! Table 2.

use std::error::Error;
use std::fmt;

use damq_core::BufferKind;

use crate::chain::{Chain, MarkovModel};
use crate::dafc_model::DafcModel;
use crate::damq_model::DamqModel;
use crate::fifo_model::FifoModel;
use crate::safc_model::SafcModel;
use crate::samq_model::SamqModel;
use crate::solve::{SolveError, SolveOptions};
use crate::switch2x2::{BufferModel2x2, CycleOrder, Switch2x2};

/// Result of analysing one (buffer kind, capacity, traffic) point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscardPoint {
    /// Probability that an arriving packet is discarded.
    pub discard_probability: f64,
    /// Mean packets transmitted per cycle (out of a maximum of 2).
    pub throughput: f64,
    /// Mean packets resident in the switch's two buffers.
    pub mean_occupancy: f64,
    /// Mean buffering delay of an accepted packet, in long-clock cycles
    /// (Little's law: occupancy / throughput).
    pub mean_wait_cycles: f64,
    /// Reachable joint buffer occupancies. For the 2×2 models this is
    /// the sum of [`Switch2x2::orbit_size`] over the chain's states — the
    /// chain itself holds one state per orbit, about a quarter as many
    /// ([`Chain::state_count`]); for the k×k model the two coincide.
    pub states: usize,
    /// Matrix–vector products the steady-state solve took
    /// ([`SteadyState::iterations`](crate::SteadyState::iterations)).
    pub iterations: usize,
}

/// Failure of a discard analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// SAMQ/SAFC need an even capacity for the 2×2 static split.
    OddStaticCapacity {
        /// The buffer design requested.
        kind: BufferKind,
        /// The capacity requested.
        capacity: usize,
    },
    /// The capacity is beyond what the design's model can represent (for
    /// FIFO, whose ordered states grow as 4^capacity, also beyond what is
    /// worth enumerating).
    CapacityTooLarge {
        /// The buffer design requested.
        kind: BufferKind,
        /// The capacity requested.
        capacity: usize,
        /// The largest capacity the model accepts.
        max: usize,
    },
    /// A buffer of zero slots holds no packet: there is no chain.
    ZeroCapacity {
        /// The buffer design requested.
        kind: BufferKind,
    },
    /// The per-input arrival probability is NaN or outside [0, 1].
    TrafficNotAProbability {
        /// The traffic level requested.
        traffic: f64,
    },
    /// The k×k model covers radix 2 up to a fixed bound.
    RadixOutOfRange {
        /// The radix requested.
        radix: usize,
        /// The largest radix the model accepts.
        max: usize,
    },
    /// The design has no k×k model: a FIFO's state is the order of its
    /// queue, which per-output counts do not capture.
    UnsupportedKind {
        /// The buffer design requested.
        kind: BufferKind,
    },
    /// The steady-state solver failed.
    Solve(SolveError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::OddStaticCapacity { kind, capacity } => write!(
                f,
                "{kind} buffers statically split storage and need an even capacity, got {capacity}"
            ),
            AnalysisError::CapacityTooLarge {
                kind,
                capacity,
                max,
            } => write!(
                f,
                "the {kind} model holds at most {max} slots per buffer, got {capacity}"
            ),
            AnalysisError::ZeroCapacity { kind } => {
                write!(f, "a {kind} buffer needs at least one slot")
            }
            AnalysisError::TrafficNotAProbability { traffic } => {
                write!(f, "traffic must be a probability in [0, 1], got {traffic}")
            }
            AnalysisError::RadixOutOfRange { radix, max } => {
                write!(f, "the k-by-k model covers radix 2 to {max}, got {radix}")
            }
            AnalysisError::UnsupportedKind { kind } => write!(
                f,
                "the k-by-k model covers the multi-queue designs; {kind} state is the queue order"
            ),
            AnalysisError::Solve(e) => write!(f, "steady-state solve failed: {e}"),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for AnalysisError {
    fn from(e: SolveError) -> Self {
        AnalysisError::Solve(e)
    }
}

/// The checks both entry points share: a buffer holds at least one
/// packet, and traffic is a probability.
pub(crate) fn check_shared(
    kind: BufferKind,
    capacity: usize,
    traffic: f64,
) -> Result<(), AnalysisError> {
    if capacity == 0 {
        return Err(AnalysisError::ZeroCapacity { kind });
    }
    if !(0.0..=1.0).contains(&traffic) {
        return Err(AnalysisError::TrafficNotAProbability { traffic });
    }
    Ok(())
}

fn analyze_model<M>(
    model: M,
    traffic: f64,
    order: CycleOrder,
    options: SolveOptions,
) -> Result<DiscardPoint, AnalysisError>
where
    M: BufferModel2x2,
    Switch2x2<M>: MarkovModel<State = M::State>,
{
    let switch = Switch2x2::new(model, traffic, order);
    let chain = Chain::explore(&switch);
    let ss = chain.steady_state(options)?;
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
        .map(|(i, p)| p * f64::from(switch.model().occupancy(chain.state(i))))
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
        states: (0..chain.state_count())
            .map(|i| switch.orbit_size(chain.state(i)))
            .sum(),
        iterations: ss.iterations,
    })
}

/// Computes the steady-state discard probability of a 2×2 discarding switch
/// with the given buffer design, per-input `capacity` (in packets) and
/// per-input arrival probability `traffic`.
///
/// This is one cell of the paper's Table 2.
///
/// # Errors
///
/// Returns [`AnalysisError::ZeroCapacity`] for a capacity of 0,
/// [`AnalysisError::TrafficNotAProbability`] for traffic that is NaN or
/// outside [0, 1], [`AnalysisError::OddStaticCapacity`] for SAMQ/SAFC with
/// odd capacity, [`AnalysisError::CapacityTooLarge`] past the model's bound
/// ([`FifoModel::MAX_CAPACITY`] for FIFO; what a `u8` queue length holds
/// for the count-based designs), or a wrapped [`SolveError`] if the chain
/// does not converge.
///
/// # Examples
///
/// ```
/// use damq_core::BufferKind;
/// use damq_markov::{discard_probability, CycleOrder, SolveOptions};
///
/// let damq = discard_probability(
///     BufferKind::Damq, 3, 0.9, CycleOrder::default(), SolveOptions::default())?;
/// let fifo = discard_probability(
///     BufferKind::Fifo, 3, 0.9, CycleOrder::default(), SolveOptions::default())?;
/// assert!(damq.discard_probability < fifo.discard_probability);
/// # Ok::<(), damq_markov::AnalysisError>(())
/// ```
pub fn discard_probability(
    kind: BufferKind,
    capacity: usize,
    traffic: f64,
    order: CycleOrder,
    options: SolveOptions,
) -> Result<DiscardPoint, AnalysisError> {
    check_shared(kind, capacity, traffic)?;
    if kind.is_statically_allocated() && !capacity.is_multiple_of(2) {
        return Err(AnalysisError::OddStaticCapacity { kind, capacity });
    }
    let max = match kind {
        BufferKind::Fifo => FifoModel::MAX_CAPACITY,
        BufferKind::Damq | BufferKind::Dafc => usize::from(u8::MAX),
        BufferKind::Samq | BufferKind::Safc => 2 * usize::from(u8::MAX),
    };
    if capacity > max {
        return Err(AnalysisError::CapacityTooLarge {
            kind,
            capacity,
            max,
        });
    }
    match kind {
        BufferKind::Fifo => analyze_model(FifoModel::new(capacity), traffic, order, options),
        BufferKind::Damq => analyze_model(DamqModel::new(capacity), traffic, order, options),
        BufferKind::Samq => analyze_model(SamqModel::new(capacity), traffic, order, options),
        BufferKind::Safc => analyze_model(SafcModel::new(capacity), traffic, order, options),
        BufferKind::Dafc => analyze_model(DafcModel::new(capacity), traffic, order, options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(kind: BufferKind, cap: usize, traffic: f64) -> DiscardPoint {
        discard_probability(
            kind,
            cap,
            traffic,
            CycleOrder::ArrivalsFirst,
            SolveOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn zero_traffic_never_discards() {
        for kind in BufferKind::ALL {
            let p = point(kind, 2, 0.0);
            assert_eq!(p.discard_probability, 0.0, "{kind}");
            assert_eq!(p.throughput, 0.0, "{kind}");
        }
    }

    #[test]
    fn flow_conservation_arrivals_equal_throughput_plus_discards() {
        for kind in BufferKind::ALL {
            let traffic = 0.8;
            let p = point(kind, 2, traffic);
            let arrivals = 2.0 * traffic;
            let lost = arrivals * p.discard_probability;
            assert!(
                (p.throughput + lost - arrivals).abs() < 1e-7,
                "{kind}: thr {} + lost {} != arr {}",
                p.throughput,
                lost,
                arrivals
            );
        }
    }

    #[test]
    fn damq_beats_fifo_at_high_traffic() {
        let damq = point(BufferKind::Damq, 4, 0.9);
        let fifo = point(BufferKind::Fifo, 4, 0.9);
        assert!(damq.discard_probability < fifo.discard_probability);
    }

    #[test]
    fn safc_at_least_as_good_as_samq() {
        for traffic in [0.5, 0.75, 0.95] {
            let safc = point(BufferKind::Safc, 4, traffic);
            let samq = point(BufferKind::Samq, 4, traffic);
            assert!(
                safc.discard_probability <= samq.discard_probability + 1e-9,
                "traffic {traffic}"
            );
        }
    }

    #[test]
    fn more_buffer_space_never_hurts() {
        for kind in [BufferKind::Fifo, BufferKind::Damq] {
            let small = point(kind, 2, 0.85);
            let large = point(kind, 5, 0.85);
            assert!(
                large.discard_probability <= small.discard_probability + 1e-9,
                "{kind}"
            );
        }
    }

    #[test]
    fn occupancy_and_wait_are_consistent() {
        // Little's law is applied by construction; check the pieces are
        // sane: occupancy within capacity, wait at least the service floor.
        for kind in BufferKind::ALL {
            let p = point(kind, 4, 0.8);
            assert!(p.mean_occupancy > 0.0, "{kind}");
            assert!(p.mean_occupancy <= 8.0, "{kind}: two 4-slot buffers");
            assert!(p.mean_wait_cycles > 0.0, "{kind}");
            assert!(
                (p.mean_wait_cycles - p.mean_occupancy / p.throughput).abs() < 1e-12,
                "{kind}"
            );
        }
    }

    #[test]
    fn fifo_waits_longer_than_damq_under_load() {
        // Head-of-line blocking shows up as queueing delay, not just loss.
        let fifo = point(BufferKind::Fifo, 4, 0.9);
        let damq = point(BufferKind::Damq, 4, 0.9);
        assert!(
            fifo.mean_wait_cycles > damq.mean_wait_cycles,
            "FIFO {} vs DAMQ {}",
            fifo.mean_wait_cycles,
            damq.mean_wait_cycles
        );
    }

    #[test]
    fn occupancy_grows_with_traffic() {
        for kind in BufferKind::ALL {
            let lo = point(kind, 4, 0.3);
            let hi = point(kind, 4, 0.9);
            assert!(hi.mean_occupancy > lo.mean_occupancy, "{kind}");
        }
    }

    #[test]
    fn odd_capacity_static_designs_rejected() {
        for kind in [BufferKind::Samq, BufferKind::Safc] {
            let err = discard_probability(
                kind,
                3,
                0.5,
                CycleOrder::ArrivalsFirst,
                SolveOptions::default(),
            )
            .unwrap_err();
            assert!(matches!(err, AnalysisError::OddStaticCapacity { .. }));
        }
    }

    #[test]
    fn capacities_past_a_models_bound_are_errors_not_wedges_or_panics() {
        // (kind, first rejected capacity, reported bound). FIFO 40 used to
        // start enumerating 4^40 states; DAMQ 256 panicked on a `u8`.
        let table = [
            (BufferKind::Fifo, 9, 8),
            (BufferKind::Fifo, 40, 8),
            (BufferKind::Damq, 256, 255),
            (BufferKind::Dafc, 300, 255),
            (BufferKind::Samq, 512, 510),
            (BufferKind::Safc, 1000, 510),
        ];
        for (kind, capacity, bound) in table {
            let err = discard_probability(
                kind,
                capacity,
                0.5,
                CycleOrder::ArrivalsFirst,
                SolveOptions::default(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                AnalysisError::CapacityTooLarge {
                    kind,
                    capacity,
                    max: bound
                }
            );
            assert!(err.to_string().contains(&bound.to_string()), "{err}");
        }
        // The bound itself is legal (checked on the cheapest case).
        assert_eq!(FifoModel::new(FifoModel::MAX_CAPACITY).capacity(), 8);
        assert!(point(BufferKind::Fifo, 7, 0.3).states > 8_065);
    }

    #[test]
    fn degenerate_points_are_typed_errors_not_panics() {
        // Each used to panic inside a model constructor or `Switch2x2::new`.
        let analyse = |kind, capacity, traffic| {
            discard_probability(
                kind,
                capacity,
                traffic,
                CycleOrder::ArrivalsFirst,
                SolveOptions::default(),
            )
        };
        for kind in BufferKind::EXTENDED {
            let zero = Err(AnalysisError::ZeroCapacity { kind });
            assert_eq!(analyse(kind, 0, 0.5), zero, "{kind}");
        }
        for traffic in [1.5, -0.25, f64::INFINITY] {
            let bad = Err(AnalysisError::TrafficNotAProbability { traffic });
            assert_eq!(analyse(BufferKind::Damq, 2, traffic), bad);
        }
        // NaN is not equal to itself, so match on the variant.
        assert!(matches!(
            analyse(BufferKind::Fifo, 2, f64::NAN),
            Err(AnalysisError::TrafficNotAProbability { traffic }) if traffic.is_nan()
        ));
        // The bounds themselves are legal.
        assert!(point(BufferKind::Damq, 1, 1.0).discard_probability > 0.0);
    }

    #[test]
    fn states_count_joint_occupancies_not_orbits() {
        // Departures first, DAMQ-1 rests after arrivals in any of the
        // 3 × 3 joint states with at most one packet per input: 4 orbits
        // — empty; one packet at one input (4 members); one packet at
        // each, bound for one output (2) or for both (2).
        let switch = Switch2x2::new(DamqModel::new(1), 0.5, CycleOrder::DeparturesFirst);
        let chain = Chain::explore(&switch);
        let mut sizes: Vec<usize> = (0..chain.state_count())
            .map(|i| switch.orbit_size(chain.state(i)))
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 2, 2, 4]);
        let p = discard_probability(
            BufferKind::Damq,
            1,
            0.5,
            CycleOrder::DeparturesFirst,
            SolveOptions::default(),
        )
        .unwrap();
        assert_eq!(p.states, 9);
    }

    #[test]
    fn fifo_beats_static_designs_at_low_traffic_small_buffers() {
        // The paper's observation: at 2 slots and light traffic the FIFO's
        // pooled storage beats the static split.
        let fifo = point(BufferKind::Fifo, 2, 0.25);
        let samq = point(BufferKind::Samq, 2, 0.25);
        let safc = point(BufferKind::Safc, 2, 0.25);
        assert!(fifo.discard_probability < samq.discard_probability);
        assert!(fifo.discard_probability < safc.discard_probability);
    }

    #[test]
    fn departures_first_orders_are_also_solvable() {
        let p = discard_probability(
            BufferKind::Damq,
            2,
            0.7,
            CycleOrder::DeparturesFirst,
            SolveOptions::default(),
        )
        .unwrap();
        assert!(p.discard_probability > 0.0 && p.discard_probability < 1.0);
    }
}
