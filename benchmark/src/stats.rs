//! Estimators and the fingerprint hash.

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The time of a piece of work: the 5th-percentile-fastest sample, which
/// below 20 samples is (nearly) the minimum.
///
/// On this kind of shared host interference only ever adds time, and it
/// comes in phases: measured here, 10 to 16 s at a stretch in which the
/// simulator runs 35 to 60 % slower while a register-only loop is unmoved
/// (a neighbour on the shared core or cache). The fast tail is what the
/// code costs and repeats between invocations where the median does not;
/// a low quantile needs only a few quiet samples in a run to find it
/// (README, "Why a fast quantile").
pub fn fast(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.05)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the acceptance rule
/// is written in.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        let lo = s[j - 1];
        let hi = s[j.min(n - 1)];
        lo + (hi - lo) * frac
    };
    (at(1), at(3))
}

/// FNV-1a over 64-bit words: the digest of a unit's ordered deterministic
/// facts.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Exact bits: for simulated statistics, which must repeat bit for bit.
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Nine decimals: for iterative-solver results, which are exact only up
    /// to the solver tolerance (1e-13), so a faster solver may move the last
    /// bits without being wrong.
    pub fn f64_rounded(&mut self, v: f64) {
        self.u64((v * 1e9).round() as i64 as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_is_the_fifth_percentile() {
        let few = [3.0, 1.0, 2.0];
        assert!((fast(&few) - 1.1).abs() < 1e-12);
        let many: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert!((fast(&many) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let digest = |words: &[u64]| {
            let mut h = Fnv::new();
            words.iter().for_each(|&w| h.u64(w));
            h.finish()
        };
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
    }
}
