//! Bounded-memory per-cycle time-series collectors.
//!
//! A simulation may run for millions of cycles; storing one sample per
//! cycle is out of the question for routine sweeps. [`Downsampler`]
//! keeps a fixed number of bins: when the bin budget is exhausted it
//! merges adjacent bin pairs and doubles its stride, halving time
//! resolution while preserving per-bin sum/min/max/count exactly. Memory
//! is O(`max_bins`) regardless of run length.

/// Aggregate of the samples that fell into one time bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Sum of samples in the bin.
    pub sum: f64,
    /// Smallest sample in the bin.
    pub min: f64,
    /// Largest sample in the bin.
    pub max: f64,
    /// Number of samples in the bin.
    pub count: u64,
}

impl Bin {
    fn single(value: f64) -> Self {
        Bin {
            sum: value,
            min: value,
            max: value,
            count: 1,
        }
    }

    fn absorb(&mut self, other: &Bin) {
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// Mean of the samples in the bin.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A fixed-memory time series: one sample in, at most `max_bins` bins out.
///
/// Feed it one value per cycle with [`record`](Downsampler::record).
/// Resolution starts at one cycle per bin and halves (stride doubles)
/// each time the series fills up.
///
/// ```
/// use damq_telemetry::Downsampler;
///
/// let mut d = Downsampler::new(4);
/// for cycle in 0..16 {
///     d.record(cycle as f64);
/// }
/// assert_eq!(d.stride(), 4);            // 16 samples / 4 bins
/// assert_eq!(d.bins().len(), 4);
/// assert_eq!(d.bins()[0].min, 0.0);
/// assert_eq!(d.bins()[0].max, 3.0);
/// assert_eq!(d.samples(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Downsampler {
    max_bins: usize,
    stride: u64,
    bins: Vec<Bin>,
    /// Partially-filled trailing bin, completed after `stride` samples.
    pending: Option<Bin>,
    pending_count: u64,
    samples: u64,
}

impl Downsampler {
    /// Creates a series holding at most `max_bins` bins (minimum 2,
    /// rounded down to an even number so pair-merging is exact).
    pub fn new(max_bins: usize) -> Self {
        let max_bins = (max_bins.max(2)) & !1;
        Downsampler {
            max_bins,
            stride: 1,
            bins: Vec::new(),
            pending: None,
            pending_count: 0,
            samples: 0,
        }
    }

    /// Appends the next cycle's sample.
    pub fn record(&mut self, value: f64) {
        self.samples += 1;
        match &mut self.pending {
            Some(bin) => bin.absorb(&Bin::single(value)),
            None => self.pending = Some(Bin::single(value)),
        }
        self.pending_count += 1;
        if self.pending_count < self.stride {
            return;
        }
        if self.bins.len() == self.max_bins {
            // No room for the completed bin: halve resolution instead and
            // let the pending bin keep filling to the doubled stride.
            self.halve_resolution();
            return;
        }
        let bin = self.pending.take().expect("pending bin exists");
        self.pending_count = 0;
        self.bins.push(bin);
    }

    /// Merges adjacent bin pairs and doubles the stride.
    fn halve_resolution(&mut self) {
        let mut merged = Vec::with_capacity(self.bins.len() / 2 + 1);
        for pair in self.bins.chunks(2) {
            let mut bin = pair[0];
            if let Some(second) = pair.get(1) {
                bin.absorb(second);
            }
            merged.push(bin);
        }
        self.bins = merged;
        self.stride *= 2;
    }

    /// Completed bins, oldest first. The in-progress trailing bin is not
    /// included; see [`bins_with_pending`](Downsampler::bins_with_pending).
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Completed bins plus the partial trailing bin, if any.
    pub fn bins_with_pending(&self) -> Vec<Bin> {
        let mut out = self.bins.clone();
        if let Some(bin) = self.pending {
            out.push(bin);
        }
        out
    }

    /// Cycles per completed bin.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Per-bin means (including the partial trailing bin), for plotting.
    pub fn means(&self) -> Vec<f64> {
        self.bins_with_pending().iter().map(Bin::mean).collect()
    }

    /// Per-bin maxima (including the partial trailing bin).
    pub fn maxes(&self) -> Vec<f64> {
        self.bins_with_pending().iter().map(|b| b.max).collect()
    }

    /// Largest sample ever recorded, or 0.0 when empty.
    pub fn peak(&self) -> f64 {
        self.bins_with_pending()
            .iter()
            .map(|b| b.max)
            .fold(0.0, f64::max)
    }
}

/// Exact histogram over `u64` levels with one bucket per value, bounded
/// by a cap fixed at construction: latencies in cycles, occupied slots
/// per buffer. Values above the cap land in one overflow bucket, so the
/// footprint never changes after [`Histogram::new`].
///
/// This is the exact scheme; [`LogHistogram`](crate::LogHistogram) is the
/// log-bucket one, for quantities with no useful cap.
///
/// # Examples
///
/// ```
/// use damq_telemetry::Histogram;
///
/// let mut h = Histogram::new(100);
/// for v in [3, 3, 4, 10] {
///     h.record(v);
/// }
/// assert_eq!(h.percentile(0.50), 3);
/// assert_eq!(h.percentile(1.00), 10);
/// assert!(!h.clipped(1.00));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with buckets `0..=cap`; values above `cap` land
    /// in an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: u64) -> Self {
        assert!(cap > 0, "histogram needs at least one bucket");
        Histogram {
            buckets: vec![0; cap as usize + 1],
            count: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_many(value, 1);
    }

    /// Records `n` simultaneous observations of `value` (e.g. "40 buffers
    /// currently hold 0 slots").
    #[inline]
    pub fn record_many(&mut self, value: u64, n: u64) {
        self.count += n;
        match self.buckets.get_mut(value as usize) {
            Some(b) => *b += n,
            None => self.overflow += n,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations above the cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Observation counts indexed by value, `0..=cap` (the overflow
    /// bucket is not included).
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// The rank `ceil(q · count)` a `q`-quantile query looks for.
    fn rank(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        (q * self.count as f64).ceil() as u64
    }

    /// The smallest value `v` such that at least `q` of the observations
    /// are ≤ `v` (`0.0 < q <= 1.0`). Returns 0 when empty (rank 0 is met
    /// at the first bucket); returns the cap if the answer lies in the
    /// overflow bucket — a lower bound, which
    /// [`clipped`](Histogram::clipped) tells apart from an exact answer.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        let target = self.rank(q);
        let mut seen = 0;
        for (value, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return value as u64;
            }
        }
        self.buckets.len() as u64 - 1
    }

    /// Whether the `q`-quantile lies among the overflowed observations,
    /// i.e. [`percentile`](Histogram::percentile) reports the cap where
    /// the true value is larger.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1]`.
    pub fn clipped(&self, q: f64) -> bool {
        self.rank(q) > self.count - self.overflow
    }

    /// Mean observed value, counting each overflowed observation at the
    /// cap (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let cap = self.buckets.len() - 1;
        let weighted: f64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(value, &n)| value as f64 * n as f64)
            .sum();
        (weighted + cap as f64 * self.overflow as f64) / self.count as f64
    }

    /// Fraction of observations at or above `value` (0.0 when empty).
    /// Overflowed observations count as above every value.
    pub fn fraction_at_or_above(&self, value: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let above: u64 = self.buckets.iter().skip(value as usize).sum();
        (above + self.overflow) as f64 / self.count as f64
    }

    /// Zeroes the histogram in place, keeping its shape.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.overflow = 0;
    }
}

impl Default for Histogram {
    /// Buckets `0..=4096`: the latency range `damq_net::NetMetrics`
    /// resolves, in network cycles.
    fn default() -> Self {
        Histogram::new(4096)
    }
}

/// Block characters from one-eighth to full, for terminal sparklines.
const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a unicode sparkline, scaled to the series' own
/// maximum. Zero and empty series render as flat baselines.
///
/// ```
/// use damq_telemetry::sparkline;
/// assert_eq!(sparkline(&[0.0, 1.0, 2.0, 4.0]), "▁▂▄█");
/// assert_eq!(sparkline(&[]), "");
/// ```
pub fn sparkline(values: &[f64]) -> String {
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                SPARK_LEVELS[0]
            } else {
                let idx = ((v / max) * 8.0).ceil() as usize;
                SPARK_LEVELS[idx.clamp(1, 8) - 1]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsampler_preserves_sum_and_extremes() {
        let mut d = Downsampler::new(8);
        let n = 10_000_u64;
        for i in 0..n {
            d.record(i as f64);
        }
        assert!(d.bins_with_pending().len() <= 9);
        assert_eq!(d.samples(), n);
        let total: f64 = d.bins_with_pending().iter().map(|b| b.sum).sum();
        assert_eq!(total, (n * (n - 1) / 2) as f64);
        let count: u64 = d.bins_with_pending().iter().map(|b| b.count).sum();
        assert_eq!(count, n);
        assert_eq!(d.peak(), (n - 1) as f64);
        assert_eq!(d.bins()[0].min, 0.0);
    }

    #[test]
    fn downsampler_stride_doubles() {
        let mut d = Downsampler::new(4);
        for _ in 0..4 {
            d.record(1.0);
        }
        assert_eq!(d.stride(), 1);
        assert_eq!(d.bins().len(), 4);
        for _ in 0..12 {
            d.record(1.0);
        }
        assert_eq!(d.stride(), 4);
        assert_eq!(d.bins().len(), 4);
    }

    #[test]
    fn downsampler_series_shorter_than_bucket_width() {
        // No samples at all: every readout is a well-defined empty.
        let empty = Downsampler::new(8);
        assert_eq!(empty.samples(), 0);
        assert!(empty.bins().is_empty());
        assert!(empty.bins_with_pending().is_empty());
        assert!(empty.means().is_empty());
        assert_eq!(empty.peak(), 0.0);

        // Force the stride to 2, then stop with one trailing sample —
        // a tail shorter than the bucket width. It must survive in the
        // pending bin, not vanish and not complete a bin early.
        let mut d = Downsampler::new(2);
        d.record(1.0);
        d.record(2.0);
        d.record(5.0); // triggers halve_resolution: stride 1 → 2
        assert_eq!(d.stride(), 2);
        assert_eq!(d.bins().len(), 1, "the tail bin is incomplete");
        let with_pending = d.bins_with_pending();
        assert_eq!(with_pending.len(), 2);
        assert_eq!(with_pending[1].count, 1);
        assert_eq!(with_pending[1].sum, 5.0);
        let total: f64 = with_pending.iter().map(|b| b.sum).sum();
        assert_eq!(total, 8.0, "no sample lost to the short tail");
        assert_eq!(d.samples(), 3);
        assert_eq!(d.peak(), 5.0);
    }

    #[test]
    fn downsampler_minimum_bins_is_even() {
        let d = Downsampler::new(0);
        assert_eq!(d.max_bins, 2);
        let d = Downsampler::new(7);
        assert_eq!(d.max_bins, 6);
    }

    #[test]
    fn histogram_counts_and_fractions() {
        let mut h = Histogram::new(4);
        h.record_many(0, 3);
        h.record(2);
        h.record(2);
        h.record_many(4, 0);
        assert_eq!(h.counts(), &[3, 0, 2, 0, 0]);
        assert_eq!(h.count(), 5);
        assert!((h.fraction_at_or_above(1) - 0.4).abs() < 1e-12);
        assert!((h.mean() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_reads_zero_everywhere() {
        let h = Histogram::new(4);
        assert_eq!(h.fraction_at_or_above(0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
        assert!(!h.clipped(0.99));
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(10);
        for v in 1..=100u64 {
            h.record(v % 8);
        }
        assert_eq!(h.count(), 100);
        assert!(h.percentile(0.5) <= h.percentile(0.9));
        assert_eq!(h.percentile(1.0), 7);
    }

    #[test]
    fn histogram_overflow_saturates_at_cap() {
        let mut h = Histogram::new(4);
        h.record(1_000_000);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.percentile(1.0), 4);
        assert!(h.clipped(1.0));
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.fraction_at_or_above(4), 1.0);
        assert_eq!(h.counts(), &[0; 5], "the footprint is fixed");
    }

    #[test]
    fn clipped_is_exact_at_the_overflow_boundary() {
        // 98 exact observations (two of them at the cap itself) and two
        // above it: p98 is an exact answer, p99 is a lower bound.
        let mut h = Histogram::new(4);
        h.record_many(1, 96);
        h.record_many(4, 2);
        h.record_many(5, 2);
        assert_eq!((h.percentile(0.98), h.clipped(0.98)), (4, false));
        assert_eq!((h.percentile(0.99), h.clipped(0.99)), (4, true));
        h.reset();
        assert_eq!((h.count(), h.overflow(), h.counts().len()), (0, 0, 5));
    }

    #[test]
    fn sparkline_scales_to_own_max() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[8.0]), "█");
        assert_eq!(sparkline(&[1.0, 8.0]), "▁█");
    }
}
