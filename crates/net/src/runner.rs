//! One-shot experiment runs: warm up, measure, summarise.

use damq_core::{FaultLedger, FaultPlan};

use crate::network::{NetworkConfig, NetworkError, NetworkSim};

/// Summary of one measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Offered load actually generated (packets/terminal/cycle).
    pub offered: f64,
    /// Delivered throughput (packets/terminal/cycle).
    pub delivered: f64,
    /// Mean birth-to-delivery latency in clock cycles (includes
    /// source-queue wait).
    pub latency_clocks: f64,
    /// Mean injection-to-delivery latency in clock cycles (in-network
    /// only).
    pub network_latency_clocks: f64,
    /// 95th-percentile birth-to-delivery latency in clock cycles. The
    /// distribution is exact up to 4 096 network cycles (49 152 clocks);
    /// beyond that the percentile reads as the cap — a lower bound — and
    /// `latency_p95_clipped` is set.
    pub latency_p95_clocks: f64,
    /// 99th-percentile birth-to-delivery latency in clock cycles, capped
    /// like the 95th.
    pub latency_p99_clocks: f64,
    /// Whether `latency_p95_clocks` is the histogram cap standing in for
    /// a larger value (see
    /// [`NetMetrics::latency_percentile_clipped`](crate::NetMetrics::latency_percentile_clipped)).
    /// A presentation flag: not one of [`fields`](Measurement::fields).
    pub latency_p95_clipped: bool,
    /// Whether `latency_p99_clocks` is clipped likewise.
    pub latency_p99_clipped: bool,
    /// Fraction of generated packets discarded (discarding protocol only).
    pub discard_fraction: f64,
    /// Packets still queued at the sources when the window closed — a
    /// growing backlog is the signature of saturation under blocking.
    pub source_backlog: usize,
    /// Cycles in the measurement window.
    pub cycles: u64,
}

impl Measurement {
    /// Names of every metric, in declaration order — the serialization
    /// schema used by the bench harnesses' JSON reports.
    pub const FIELD_NAMES: [&'static str; 9] = [
        "offered",
        "delivered",
        "latency_clocks",
        "network_latency_clocks",
        "latency_p95_clocks",
        "latency_p99_clocks",
        "discard_fraction",
        "source_backlog",
        "cycles",
    ];

    /// Every metric as a `(name, value)` pair, in [`Measurement::FIELD_NAMES`]
    /// order; the integer-valued fields (`source_backlog`, `cycles`) are
    /// widened to `f64`.
    ///
    /// This is the hook serializers and aggregators iterate instead of
    /// hard-coding the struct layout — adding a metric here extends every
    /// JSON report and every multi-seed aggregate at once.
    ///
    /// # Examples
    ///
    /// ```
    /// use damq_net::Measurement;
    ///
    /// let m = Measurement {
    ///     offered: 0.5,
    ///     delivered: 0.5,
    ///     latency_clocks: 30.0,
    ///     network_latency_clocks: 25.0,
    ///     latency_p95_clocks: 60.0,
    ///     latency_p99_clocks: 90.0,
    ///     latency_p95_clipped: false,
    ///     latency_p99_clipped: false,
    ///     discard_fraction: 0.0,
    ///     source_backlog: 3,
    ///     cycles: 1_000,
    /// };
    /// let fields = m.fields();
    /// assert_eq!(fields.len(), Measurement::FIELD_NAMES.len());
    /// assert_eq!(fields[0], ("offered", 0.5));
    /// assert_eq!(fields[8], ("cycles", 1_000.0));
    /// ```
    pub fn fields(&self) -> [(&'static str, f64); 9] {
        [
            ("offered", self.offered),
            ("delivered", self.delivered),
            ("latency_clocks", self.latency_clocks),
            ("network_latency_clocks", self.network_latency_clocks),
            ("latency_p95_clocks", self.latency_p95_clocks),
            ("latency_p99_clocks", self.latency_p99_clocks),
            ("discard_fraction", self.discard_fraction),
            ("source_backlog", self.source_backlog as f64),
            ("cycles", self.cycles as f64),
        ]
    }
}

/// Runs `config` for `warm_up` cycles, then measures for `window` cycles.
///
/// # Errors
///
/// Propagates [`NetworkError`] from network construction.
///
/// # Examples
///
/// ```
/// use damq_core::BufferKind;
/// use damq_net::{measure, NetworkConfig};
///
/// let m = measure(
///     NetworkConfig::new(16, 4).buffer_kind(BufferKind::Damq).offered_load(0.3),
///     200,
///     500,
/// )?;
/// assert!(m.delivered > 0.25);
/// # Ok::<(), damq_net::NetworkError>(())
/// ```
pub fn measure(
    config: NetworkConfig,
    warm_up: u64,
    window: u64,
) -> Result<Measurement, NetworkError> {
    let mut sim = NetworkSim::new(config)?;
    sim.warm_up(warm_up);
    sim.run(window);
    Ok(summarise(&sim))
}

/// Like [`measure`], but with a [`FaultPlan`] installed for the whole run
/// (warm-up included — faults do not wait for the measurement window).
///
/// Returns the measurement together with the run's [`FaultLedger`] so
/// callers can report how much damage the plan actually inflicted.
///
/// # Errors
///
/// Propagates [`NetworkError`] from network construction.
///
/// # Panics
///
/// Panics if the post-run consistency audit fails — under fault injection
/// a silently-wrong result is worse than a loud one, and the panic fails
/// the harness that ran the cell.
pub fn measure_with_faults(
    config: NetworkConfig,
    plan: FaultPlan,
    warm_up: u64,
    window: u64,
) -> Result<(Measurement, FaultLedger), NetworkError> {
    let mut sim = NetworkSim::with_faults(config, plan)?;
    sim.warm_up(warm_up); // the metrics restart; the faults stay armed
    sim.run(window);
    // Documented above: an audit failure under faults must be loud; the
    // panic fails the harness.
    #[expect(clippy::expect_used, reason = "an audit failure must fail the harness")]
    let () = sim.audit().expect("fault-injected run failed its audit");
    Ok((summarise(&sim), sim.fault_ledger()))
}

fn summarise(sim: &NetworkSim) -> Measurement {
    let m = sim.metrics();
    Measurement {
        offered: m.offered_throughput(),
        delivered: m.delivered_throughput(),
        latency_clocks: m.mean_latency_clocks(),
        network_latency_clocks: m.mean_network_latency_clocks(),
        latency_p95_clocks: m.latency_percentile_clocks(0.95),
        latency_p99_clocks: m.latency_percentile_clocks(0.99),
        latency_p95_clipped: m.latency_percentile_clipped(0.95),
        latency_p99_clipped: m.latency_percentile_clipped(0.99),
        discard_fraction: m.discard_fraction(),
        source_backlog: sim.source_backlog(),
        cycles: m.cycles(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damq_core::BufferKind;
    use damq_switch::FlowControl;

    #[test]
    fn below_saturation_delivery_tracks_offer() {
        let m = measure(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Damq)
                .offered_load(0.3)
                .seed(1),
            300,
            1000,
        )
        .unwrap();
        assert!((m.delivered - m.offered).abs() < 0.02);
        assert_eq!(m.discard_fraction, 0.0);
    }

    #[test]
    fn overload_leaves_a_backlog_under_blocking() {
        let m = measure(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Fifo)
                .offered_load(1.0)
                .flow_control(FlowControl::Blocking)
                .seed(2),
            200,
            800,
        )
        .unwrap();
        assert!(m.delivered < 0.95 * m.offered);
        assert!(m.source_backlog > 0);
    }

    #[test]
    fn percentiles_bound_the_mean() {
        let m = measure(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Fifo)
                .offered_load(0.45)
                .seed(9),
            300,
            1_000,
        )
        .unwrap();
        assert!(m.latency_p95_clocks >= m.latency_clocks * 0.9);
        assert!(m.latency_p99_clocks >= m.latency_p95_clocks);
    }

    #[test]
    fn field_names_match_field_values() {
        let m = measure(NetworkConfig::new(16, 4).offered_load(0.2), 50, 200).unwrap();
        let fields = m.fields();
        assert_eq!(fields.len(), Measurement::FIELD_NAMES.len());
        for ((name, _), &expected) in fields.iter().zip(Measurement::FIELD_NAMES.iter()) {
            assert_eq!(*name, expected);
        }
        assert_eq!(fields[1].1, m.delivered);
        assert_eq!(fields[8].1, m.cycles as f64);
    }

    #[test]
    fn faulted_measure_reports_the_ledger() {
        let spec = damq_core::FaultSpec {
            dead_slot_fraction: 0.2,
            ..damq_core::FaultSpec::fault_free(2, 4, 4, 16, 4, 100)
        };
        let plan = FaultPlan::generate(7, &spec);
        let (m, ledger) = measure_with_faults(
            NetworkConfig::new(16, 4).offered_load(0.3).seed(11),
            plan,
            100,
            400,
        )
        .unwrap();
        assert_eq!(m.cycles, 400, "warm-up stays out of the window");
        assert!(ledger.slots_killed > 0);
        assert!(m.delivered > 0.0);
    }

    #[test]
    fn window_length_is_reported() {
        let m = measure(NetworkConfig::new(16, 4).offered_load(0.1), 10, 42).unwrap();
        assert_eq!(m.cycles, 42);
    }
}
