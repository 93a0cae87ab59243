//! Always-on metrics registry: named cycle-domain counters and bounded
//! log-scale histograms with a deterministic JSON snapshot.
//!
//! The paper's evaluation is aggregate (saturation throughput, mean
//! latency), but the ROADMAP's capacity-tool north star needs what a
//! datacenter operator watches: latency *percentiles* and occupancy
//! *distributions*, continuously, with near-zero cost when nobody is
//! looking. [`MetricsRegistry`] provides that layer:
//!
//! * metrics are registered once by `&'static str` name. A histogram is
//!   fed sample by sample through a copy-size integer handle
//!   ([`HistogramId`]), one branch and one array index per event; a
//!   counter has an owner elsewhere that counts it anyway, and the
//!   registry's value is overwritten from that owner's total
//!   ([`MetricsRegistry::publish`]) — no fact is bumped twice;
//! * a **disabled** registry (the default for `NetworkSim`) turns every
//!   update into a single predictable branch — the
//!   `no_op_registry_overhead` bench asserts the disabled path is
//!   indistinguishable from the uninstrumented simulator;
//! * [`LogHistogram`] buckets values on a bounded log scale (exact below
//!   8, then 8 sub-buckets per octave, ≤ 12.5% relative error, 496
//!   buckets total regardless of range), so p50/p99/p999 readout is O(1)
//!   memory over million-cycle runs;
//! * [`MetricsRegistry::snapshot_json`] serialises everything — counter
//!   values, histogram counts and percentiles — as integers in
//!   registration order, so a snapshot is byte-deterministic and
//!   tests can compare snapshots literally.
//!
//! All values live in the simulation domain (cycles, packets, slots);
//! wall-clock never enters this module. Every registered name must
//! appear in the metrics reference table of `docs/OBSERVABILITY.md` —
//! `cargo xtask lint` (lint 10) enforces that.

use crate::json::Json;

/// Handle to a registered histogram; cheap to copy, valid only for the
/// registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Sub-bucket resolution: 2³ = 8 sub-buckets per octave, bounding the
/// relative quantisation error at 1/8 = 12.5%.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Total bucket count: values 0..8 exact, then 8 sub-buckets for each
/// of the 61 remaining octaves of a `u64`.
const BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// A bounded log-scale histogram over `u64` samples (latencies in
/// cycles, occupancies in slots).
///
/// The second of the workspace's two histogram schemes, kept because it
/// covers the whole `u64` range in 496 buckets where the exact
/// [`Histogram`](crate::Histogram) needs a cap chosen up front: the
/// registry cannot know a metric's range, and its p50/p99/p999 are
/// committed bytes (`results/json/obs_report.json`).
///
/// Values below 8 get exact buckets; larger values share 8 sub-buckets
/// per power of two, so any `u64` lands in one of 496 buckets and a
/// percentile query walks at most that many. Percentiles report the
/// *upper bound* of the holding bucket — a deterministic, integral
/// over-estimate within 12.5% of the true value.
///
/// ```
/// use damq_telemetry::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=100u64 {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 100);
/// assert_eq!(h.max(), 100);
/// assert_eq!(h.percentile(0.5), 51);   // true p50 = 50, bucket bound 51
/// assert!(h.p99() >= 99 && h.p99() <= 103);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index holding `value`.
    fn bucket_index(value: u64) -> usize {
        if value < SUB_COUNT as u64 {
            value as usize
        } else {
            let octave = 63 - value.leading_zeros();
            let sub = ((value >> (octave - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
            SUB_COUNT + ((octave - SUB_BITS) as usize) * SUB_COUNT + sub
        }
    }

    /// The largest value that maps to bucket `index` — what percentile
    /// queries report.
    fn bucket_high(index: usize) -> u64 {
        if index < SUB_COUNT {
            index as u64
        } else {
            let group = ((index - SUB_COUNT) / SUB_COUNT) as u32;
            let sub = ((index - SUB_COUNT) % SUB_COUNT) as u64;
            ((SUB_COUNT as u64 + sub) << group) + ((1u64 << group) - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the smallest
    /// bucket whose cumulative count reaches `ceil(q · count)`.
    /// Returns 0 for an empty histogram; `q` outside `[0, 1]` clamps.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                // Never report beyond the observed maximum.
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`percentile`](LogHistogram::percentile)).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }
}

/// A set of named counters and log-scale histograms with a
/// byte-deterministic JSON snapshot.
///
/// Register every metric up front (typically in a constructor), keep
/// the histogram handles for the hot path, and publish the counters
/// from wherever they are counted. When the registry is disabled — the
/// default for `NetworkSim` — updates cost one branch.
///
/// ```
/// use damq_telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.counter("net.delivered");
/// let latency = reg.histogram("net.latency_cycles");
/// reg.publish(&[("net.delivered", 2)]);
/// reg.observe(latency, 17);
/// assert_eq!(reg.counter_value("net.delivered"), Some(2));
/// assert!(reg.snapshot_json().render().contains("\"net.delivered\":2"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, LogHistogram)>,
}

impl MetricsRegistry {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Creates a disabled registry: metrics can be registered (handles
    /// stay valid) but updates are no-ops until
    /// [`set_enabled`](MetricsRegistry::set_enabled).
    pub fn disabled() -> Self {
        MetricsRegistry {
            enabled: false,
            ..MetricsRegistry::new()
        }
    }

    /// Whether updates are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; registered metrics and their values
    /// are retained either way.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Registers a counter under `name` (a JSON-safe static string;
    /// snapshot order is registration order). Its value is set by
    /// [`publish`](MetricsRegistry::publish).
    pub fn counter(&mut self, name: &'static str) {
        debug_assert!(
            self.counters.iter().all(|(n, _)| *n != name),
            "duplicate counter {name}"
        );
        self.counters.push((name, 0));
    }

    /// Registers a histogram under `name`.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        debug_assert!(
            self.histograms.iter().all(|(n, _)| *n != name),
            "duplicate histogram {name}"
        );
        self.histograms.push((name, LogHistogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Overwrites the leading counters with `rows` — `(name, value)` in
    /// registration order — the totals of whoever counts them (no-op
    /// while disabled).
    pub fn publish(&mut self, rows: &[(&'static str, u64)]) {
        if self.enabled {
            debug_assert!(
                self.counters.iter().zip(rows).all(|(c, r)| c.0 == r.0),
                "published rows must follow registration order"
            );
            self.counters[..rows.len()].copy_from_slice(rows);
        }
    }

    /// Records one histogram sample (no-op while disabled).
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        if self.enabled {
            self.histograms[id.0].1.observe(value);
        }
    }

    /// Registered counter names in registration order.
    pub fn counter_names(&self) -> Vec<&'static str> {
        self.counters.iter().map(|(n, _)| *n).collect()
    }

    /// Registered histogram names in registration order.
    pub fn histogram_names(&self) -> Vec<&'static str> {
        self.histograms.iter().map(|(n, _)| *n).collect()
    }

    /// Current value of the counter named `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram_named(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// One deterministic JSON object: counters then histograms, keys in
    /// registration order, every value an integer. Two runs that
    /// recorded the same simulation-domain values render identical
    /// bytes.
    pub fn snapshot_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|&(name, value)| (name, Json::from(value)));
        let histograms = self.histograms.iter().map(|(name, hist)| {
            let fields = [
                ("count", hist.count()),
                ("sum", hist.sum()),
                ("max", hist.max()),
                ("p50", hist.p50()),
                ("p99", hist.p99()),
                ("p999", hist.p999()),
            ];
            (*name, Json::obj(fields.map(|(k, v)| (k, Json::from(v)))))
        });
        Json::obj([
            ("counters", Json::obj(counters)),
            ("histograms", Json::obj(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bound_roundtrip() {
        // Every sample value must land in a bucket whose bounds contain
        // it, and bucket upper bounds must be monotone.
        let probes: Vec<u64> = (0..=300)
            .chain([1_000, 4_095, 4_096, 65_535, 1 << 40, u64::MAX / 3, u64::MAX])
            .collect();
        for &v in &probes {
            let idx = LogHistogram::bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let high = LogHistogram::bucket_high(idx);
            assert!(high >= v, "bucket high {high} below value {v}");
            if idx > 0 {
                assert!(
                    LogHistogram::bucket_high(idx - 1) < v,
                    "value {v} fits the previous bucket too"
                );
            }
        }
        for idx in 1..BUCKETS {
            assert!(LogHistogram::bucket_high(idx) > LogHistogram::bucket_high(idx - 1));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..8u64 {
            h.observe(v);
        }
        for q in [0.125, 0.25, 0.5, 0.75, 1.0] {
            let p = h.percentile(q);
            assert_eq!(p, (q * 8.0).ceil() as u64 - 1, "exact below 8 at q={q}");
        }
    }

    #[test]
    fn percentiles_bound_relative_error() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 10_000);
        for (q, truth) in [(0.5, 5_000u64), (0.99, 9_900), (0.999, 9_990)] {
            let est = h.percentile(q);
            assert!(est >= truth, "estimate below truth at q={q}");
            assert!(
                est as f64 <= truth as f64 * 1.125 + 1.0,
                "q={q}: {est} exceeds 12.5% above {truth}"
            );
        }
        assert_eq!(h.percentile(1.0), 10_000);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.sum(), 10_000 * 10_001 / 2);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn percentile_never_exceeds_observed_max() {
        let mut h = LogHistogram::new();
        h.observe(1_000); // bucket high is above 1_000
        assert_eq!(h.percentile(1.0), 1_000);
        assert_eq!(h.p50(), 1_000);
    }

    #[test]
    fn disabled_registry_drops_updates_enabled_records() {
        let mut reg = MetricsRegistry::disabled();
        reg.counter("test.counter");
        let h = reg.histogram("test.histogram");
        reg.publish(&[("test.counter", 5)]);
        reg.observe(h, 9);
        assert!(!reg.enabled());
        assert_eq!(reg.counter_value("test.counter"), Some(0));
        assert_eq!(reg.histogram_named("test.histogram").unwrap().count(), 0);

        reg.set_enabled(true);
        reg.publish(&[("test.counter", 5)]);
        reg.observe(h, 9);
        assert_eq!(reg.counter_value("test.counter"), Some(5));
        assert_eq!(reg.histogram_named("test.histogram").unwrap().count(), 1);
        assert_eq!(reg.histogram_named("test.histogram").unwrap().p50(), 9);
    }

    #[test]
    fn publish_overwrites_the_leading_counters() {
        let mut reg = MetricsRegistry::new();
        for name in ["test.a", "test.b", "test.c"] {
            reg.counter(name);
        }
        reg.publish(&[("test.a", 7), ("test.b", 9), ("test.c", 1)]);
        reg.publish(&[("test.a", 8), ("test.b", 9)]);
        assert_eq!(reg.counter_value("test.a"), Some(8), "set, not added");
        assert_eq!(reg.counter_value("test.b"), Some(9));
        assert_eq!(reg.counter_value("test.c"), Some(1), "beyond the rows");
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.counter("test.b");
            reg.counter("test.a");
            let h = reg.histogram("test.h");
            reg.publish(&[("test.b", 2), ("test.a", 1)]);
            for v in [3u64, 1, 4, 1, 5] {
                reg.observe(h, v);
            }
            reg
        };
        let snap = build().snapshot_json().render();
        assert_eq!(
            snap,
            build().snapshot_json().render(),
            "same inputs, same bytes"
        );
        // Registration order, not alphabetical.
        let b_at = snap.find("test.b").unwrap();
        let a_at = snap.find("test.a").unwrap();
        assert!(b_at < a_at);
        assert!(snap.contains("\"test.h\":{\"count\":5,\"sum\":14,\"max\":5"));
    }

    #[test]
    fn unknown_names_are_none() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter_value("nope"), None);
        assert!(reg.histogram_named("nope").is_none());
    }
}
