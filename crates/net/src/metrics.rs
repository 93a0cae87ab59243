//! Measurement: latency, throughput and discard accounting.

use std::fmt;

pub use damq_telemetry::Histogram;

/// Clock cycles per network cycle: the paper's simulations move packets
/// "instantaneously once every twelve clock cycles" (8 to transmit, 4 to
/// route), and report latency in clock cycles.
pub const CLOCKS_PER_CYCLE: u64 = 12;

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// The running mean and the centred second moment `m2` are updated per
/// observation, which is numerically stable where a naive sum-of-squares
/// would catastrophically cancel. Two accumulators — e.g. from parallel
/// sweep workers — combine exactly with [`Accumulator::merge`] (Chan et
/// al.'s parallel update).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean.
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Combines another accumulator's observations into this one, as if
    /// every value had been [`record`](Accumulator::record)ed here.
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (`n − 1` denominator); 0 with fewer than two
    /// observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation; 0 with fewer than two observations.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// The counters every packet fate is bumped in — once, in the current
/// window's copy ([`NetMetrics::window`]). The lifetime view
/// ([`NetMetrics::lifetime`]) and the registry's `net.*` counters are
/// derived from it; nothing else on the cycle path keeps a second tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Network cycles stepped.
    pub cycles: u64,
    /// Packets generated at the sources.
    pub generated: u64,
    /// Packets injected into stage 0.
    pub injected: u64,
    /// Packets delivered to their destination terminal.
    pub delivered: u64,
    /// Packets discarded at the network entry.
    pub discarded_entry: u64,
    /// Packets discarded inside the network.
    pub discarded_network: u64,
    /// Resend attempts made by link-level retransmission.
    pub retransmits: u64,
    /// Parked packets given up after exhausting their retries.
    pub retry_exhausted: u64,
    /// Packets deflected through an alternate output (adaptive
    /// rerouting).
    pub rerouted: u64,
    /// Wrong-sink arrivals recirculated end-to-end instead of dropped.
    pub recirculated: u64,
    /// Switch-cycles advanced by the quiescent fast path.
    pub idle_skipped: u64,
}

impl Counters {
    /// Adds every counter of `other` to this one.
    fn fold(&mut self, other: &Counters) {
        self.cycles += other.cycles;
        self.generated += other.generated;
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.discarded_entry += other.discarded_entry;
        self.discarded_network += other.discarded_network;
        self.retransmits += other.retransmits;
        self.retry_exhausted += other.retry_exhausted;
        self.rerouted += other.rerouted;
        self.recirculated += other.recirculated;
        self.idle_skipped += other.idle_skipped;
    }
}

/// Counters and latency statistics for one simulation window.
///
/// All latency accumulators are in **network cycles**; the `*_clocks`
/// accessors convert to clock cycles (×12) for comparison with the paper's
/// tables.
#[derive(Debug, Clone, Default)]
pub struct NetMetrics {
    terminals: usize,
    /// The current window's counters — the one store a fate is bumped in.
    pub(crate) window: Counters,
    /// Everything counted before the current window began.
    carried: Counters,
    /// Birth-to-delivery latency (includes source-queue wait).
    total_latency: Accumulator,
    /// Injection-to-delivery latency (in-network only).
    network_latency: Accumulator,
    /// Exact distribution of total latency, in network cycles.
    latency_histogram: Histogram,
    per_sink_delivered: Vec<u64>,
    /// Per-source latency accumulators (fairness analysis).
    per_source_latency: Vec<Accumulator>,
}

impl NetMetrics {
    /// Creates zeroed metrics for a network of `terminals` sources/sinks.
    pub fn new(terminals: usize) -> Self {
        NetMetrics {
            terminals,
            per_sink_delivered: vec![0; terminals],
            per_source_latency: vec![Accumulator::new(); terminals],
            ..Default::default()
        }
    }

    /// A packet from `source` reached sink `sink` with the given
    /// latencies, in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `sink` or `source` is out of range.
    pub(crate) fn record_delivery_from(
        &mut self,
        source: usize,
        sink: usize,
        total_cycles: u64,
        network_cycles: u64,
    ) {
        self.window.delivered += 1;
        self.per_sink_delivered[sink] += 1;
        self.per_source_latency[source].record(total_cycles as f64);
        self.total_latency.record(total_cycles as f64);
        self.network_latency.record(network_cycles as f64);
        self.latency_histogram.record(total_cycles);
    }

    /// Per-source mean latency accumulators (fairness analysis).
    pub fn per_source_latency(&self) -> &[Accumulator] {
        &self.per_source_latency
    }

    /// Spread of per-source mean latencies, in clock cycles: the max minus
    /// min over sources that delivered at least one packet. A fairness
    /// measure — smaller is fairer.
    pub fn source_latency_spread_clocks(&self) -> f64 {
        let means: Vec<f64> = self
            .per_source_latency
            .iter()
            .filter(|a| a.count() > 0)
            .map(Accumulator::mean)
            .collect();
        if means.is_empty() {
            return 0.0;
        }
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        (max - min) * CLOCKS_PER_CYCLE as f64
    }

    /// Cycles in the measurement window.
    pub fn cycles(&self) -> u64 {
        self.window.cycles
    }

    /// Packets generated by sources.
    pub fn generated(&self) -> u64 {
        self.window.generated
    }

    /// Packets that entered the network.
    pub fn injected(&self) -> u64 {
        self.window.injected
    }

    /// Packets delivered to sinks.
    pub fn delivered(&self) -> u64 {
        self.window.delivered
    }

    /// Packets dropped at network entry.
    pub fn discarded_entry(&self) -> u64 {
        self.window.discarded_entry
    }

    /// Packets dropped between stages.
    pub fn discarded_network(&self) -> u64 {
        self.window.discarded_network
    }

    /// All packets dropped anywhere.
    pub fn discarded(&self) -> u64 {
        self.window.discarded_entry + self.window.discarded_network
    }

    /// Deliveries per sink (hot-spot analysis).
    pub fn per_sink_delivered(&self) -> &[u64] {
        &self.per_sink_delivered
    }

    /// Offered load: generated packets per terminal per cycle.
    pub fn offered_throughput(&self) -> f64 {
        self.per_terminal_rate(self.window.generated)
    }

    /// Delivered throughput: packets per terminal per cycle.
    pub fn delivered_throughput(&self) -> f64 {
        self.per_terminal_rate(self.window.delivered)
    }

    /// Fraction of generated packets that were discarded.
    pub fn discard_fraction(&self) -> f64 {
        if self.window.generated == 0 {
            0.0
        } else {
            self.discarded() as f64 / self.window.generated as f64
        }
    }

    /// Mean birth-to-delivery latency in clock cycles (the paper's unit).
    pub fn mean_latency_clocks(&self) -> f64 {
        self.total_latency.mean() * CLOCKS_PER_CYCLE as f64
    }

    /// Mean injection-to-delivery latency in clock cycles.
    pub fn mean_network_latency_clocks(&self) -> f64 {
        self.network_latency.mean() * CLOCKS_PER_CYCLE as f64
    }

    /// The raw total-latency accumulator (network cycles).
    pub fn total_latency(&self) -> &Accumulator {
        &self.total_latency
    }

    /// The raw in-network latency accumulator (network cycles).
    pub fn network_latency(&self) -> &Accumulator {
        &self.network_latency
    }

    /// The `q`-quantile of total latency, in clock cycles.
    ///
    /// The distribution is exact up to 4 096 network cycles (49 152
    /// clocks); a quantile that lies beyond reads as that cap — a lower
    /// bound, not a value — and
    /// [`latency_percentile_clipped`](NetMetrics::latency_percentile_clipped)
    /// says so. A blocking network past saturation queues packets at the
    /// sources for far longer than the cap, so its tail percentiles are
    /// clipped while its mean is not.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]`.
    pub fn latency_percentile_clocks(&self, q: f64) -> f64 {
        self.latency_histogram.percentile(q) as f64 * CLOCKS_PER_CYCLE as f64
    }

    /// Whether the `q`-quantile of total latency lies beyond the
    /// histogram's cap, so that
    /// [`latency_percentile_clocks`](NetMetrics::latency_percentile_clocks)
    /// reports the cap as a lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]`.
    pub fn latency_percentile_clipped(&self, q: f64) -> bool {
        self.latency_histogram.clipped(q)
    }

    /// The exact total-latency distribution (network cycles).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_histogram
    }

    /// Starts a new measurement window (after warm-up): the window's
    /// counters fold into the carried totals, so
    /// [`lifetime`](NetMetrics::lifetime) is unchanged, and every windowed
    /// statistic is zeroed in place.
    pub(crate) fn reset(&mut self) {
        self.carried.fold(&self.window);
        self.window = Counters::default();
        self.total_latency = Accumulator::new();
        self.network_latency = Accumulator::new();
        self.latency_histogram.reset();
        self.per_sink_delivered.fill(0);
        self.per_source_latency.fill(Accumulator::new());
    }

    /// The current window's counters.
    pub fn window(&self) -> &Counters {
        &self.window
    }

    /// Counters since construction: everything carried over the window
    /// resets plus the current window.
    pub fn lifetime(&self) -> Counters {
        let mut total = self.carried;
        total.fold(&self.window);
        total
    }

    fn per_terminal_rate(&self, count: u64) -> f64 {
        if self.window.cycles == 0 || self.terminals == 0 {
            0.0
        } else {
            count as f64 / (self.window.cycles as f64 * self.terminals as f64)
        }
    }
}

impl fmt::Display for NetMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles: gen {} inj {} dlv {} drop {} | thr {:.3} | lat {:.1} clk",
            self.window.cycles,
            self.window.generated,
            self.window.injected,
            self.window.delivered,
            self.discarded(),
            self.delivered_throughput(),
            self.mean_latency_clocks(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_tracks_mean_min_max() {
        let mut a = Accumulator::new();
        a.record(2.0);
        a.record(6.0);
        a.record(4.0);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 4.0).abs() < 1e-12);
        assert_eq!(a.min(), 2.0);
        assert_eq!(a.max(), 6.0);
    }

    #[test]
    fn empty_accumulator_is_zeroed() {
        let a = Accumulator::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.stddev(), 0.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut a = Accumulator::new();
        a.record(5.0);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 5.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.stddev(), 0.0);
        assert_eq!(a.min(), 5.0);
        assert_eq!(a.max(), 5.0);
    }

    #[test]
    fn welford_matches_two_pass_variance() {
        let values = [3.0, 7.0, 7.0, 19.0, 24.0, 1.5, -4.0];
        let mut a = Accumulator::new();
        for v in values {
            a.record(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((a.mean() - mean).abs() < 1e-12);
        assert!((a.variance() - var).abs() < 1e-12);
        assert!((a.stddev() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let left = [1.0, 2.0, 3.0, 10.0];
        let right = [4.0, -8.0, 0.5];
        let mut a = Accumulator::new();
        for v in left {
            a.record(v);
        }
        let mut b = Accumulator::new();
        for v in right {
            b.record(v);
        }
        let mut whole = Accumulator::new();
        for v in left.iter().chain(&right) {
            whole.record(*v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_edge_cases_with_empty_sides() {
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        b.record(2.0);
        b.record(4.0);
        // empty ← populated adopts the other side entirely.
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 3.0).abs() < 1e-12);
        assert!((a.variance() - 2.0).abs() < 1e-12);
        // populated ← empty is a no-op.
        let before = a;
        a.merge(&Accumulator::new());
        assert_eq!(a, before);
        // merging two singletons yields a two-sample variance.
        let mut x = Accumulator::new();
        x.record(1.0);
        let mut y = Accumulator::new();
        y.record(3.0);
        x.merge(&y);
        assert!((x.variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_variance_is_zero_and_survives_merging() {
        // A lone observation has no spread: variance and stddev report
        // 0 (n − 1 denominator would divide by zero otherwise).
        let mut one = Accumulator::new();
        one.record(7.5);
        assert_eq!(one.count(), 1);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.stddev(), 0.0);
        assert_eq!(one.mean(), 7.5);
        assert_eq!(one.min(), 7.5);
        assert_eq!(one.max(), 7.5);
        // Merging an empty side keeps the singleton's zero variance.
        one.merge(&Accumulator::new());
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.count(), 1);
        // An empty accumulator merged *with* a singleton adopts it whole.
        let mut empty = Accumulator::new();
        empty.merge(&one);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.variance(), 0.0);
        assert_eq!(empty.mean(), 7.5);
        // Merging two empties stays a well-defined zero state.
        let mut a = Accumulator::new();
        a.merge(&Accumulator::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 0.0);
    }

    #[test]
    fn throughput_is_per_terminal_per_cycle() {
        let mut m = NetMetrics::new(4);
        m.window.cycles = 10;
        m.window.generated = 20;
        for _ in 0..12 {
            m.record_delivery_from(1, 0, 3, 3);
        }
        assert!((m.offered_throughput() - 0.5).abs() < 1e-12);
        assert!((m.delivered_throughput() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn latency_reported_in_clocks() {
        let mut m = NetMetrics::new(1);
        m.record_delivery_from(0, 0, 4, 3);
        assert_eq!(m.mean_latency_clocks(), 48.0);
        assert_eq!(m.mean_network_latency_clocks(), 36.0);
    }

    #[test]
    fn discard_fraction_counts_both_kinds() {
        let mut m = NetMetrics::new(1);
        m.window.generated = 10;
        m.window.discarded_entry = 1;
        m.window.discarded_network = 1;
        assert!((m.discard_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn metrics_expose_latency_percentiles_in_clocks() {
        let mut m = NetMetrics::new(1);
        m.record_delivery_from(0, 0, 3, 3);
        m.record_delivery_from(0, 0, 5, 5);
        assert_eq!(m.latency_percentile_clocks(0.5), 36.0);
        assert_eq!(m.latency_percentile_clocks(1.0), 60.0);
        assert!(!m.latency_percentile_clipped(1.0));
        m.record_delivery_from(0, 0, 5_000, 5);
        assert_eq!(m.latency_percentile_clocks(1.0), 4096.0 * 12.0);
        assert!(m.latency_percentile_clipped(1.0));
        assert!(!m.latency_percentile_clipped(0.5));
    }

    #[test]
    fn reset_folds_the_window_into_the_lifetime_view_in_place() {
        let mut m = NetMetrics::new(8);
        m.window.cycles = 3;
        m.window.idle_skipped = 40;
        m.record_delivery_from(2, 7, 1, 1);
        let buckets = m.latency_histogram().counts().as_ptr();
        m.reset();
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.delivered(), 0);
        assert_eq!(m.latency_histogram().count(), 0);
        assert_eq!(m.total_latency().count(), 0);
        assert_eq!(m.per_sink_delivered(), &[0; 8]);
        assert_eq!(m.per_source_latency()[2].count(), 0);
        assert_eq!(
            m.latency_histogram().counts().as_ptr(),
            buckets,
            "no reallocation"
        );
        m.window.cycles = 2;
        m.record_delivery_from(0, 0, 1, 1);
        let life = m.lifetime();
        assert_eq!((life.cycles, life.delivered, life.idle_skipped), (5, 2, 40));
        assert_eq!(
            *m.window(),
            Counters {
                cycles: 2,
                delivered: 1,
                ..Counters::default()
            }
        );
    }
}
