//! Quantiles over exact samples and over a bounded log-linear histogram.

/// Linearly interpolated quantile of ascending `sorted` data (the
/// "type 7" definition: rank `q·(n−1)`). `q` is clamped to `[0, 1]`.
///
/// # Panics
///
/// Panics on empty input.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `v` in place and returns its median.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// p50 and p90 of one block of samples, which is emptied.
pub fn block_tail(samples: &mut Vec<f64>) -> [f64; 2] {
    samples.sort_by(f64::total_cmp);
    let tail = [0.5, 0.9].map(|q| quantile(samples, q));
    samples.clear();
    tail
}

/// Sub-buckets per power of two: relative bucket width below 1/128.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are counted exactly, one bucket each.
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// Log-linear histogram of `u64` samples (nanoseconds, in practice):
/// exact below 256, then 128 buckets per power of two. Memory is fixed
/// however many samples arrive, so a run's length never shows up in its
/// peak RSS.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let shift = e - SUB_BITS;
        let sub = (v >> shift) - SUB;
        (EXACT + u64::from(e - SUB_BITS - 1) * SUB + sub) as usize
    }

    /// `[low, low + width)` covered by bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < EXACT {
            return (i as f64, 1.0);
        }
        let e = (i - EXACT) / SUB + u64::from(SUB_BITS) + 1;
        let sub = (i - EXACT) % SUB;
        let shift = e - u64::from(SUB_BITS);
        (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// The `q` quantile, interpolated linearly inside the bucket that
    /// holds rank `q·n`, so the error is below one bucket width
    /// (< 0.8 % above 256). 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        let mut last = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            last = i;
            if (below + c) as f64 >= target {
                let (lo, width) = Self::bounds(i);
                return lo + width * ((target - below as f64) / c as f64);
            }
            below += c;
        }
        let (lo, width) = Self::bounds(last);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        let mut odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&mut odd), 3.0);
    }

    #[test]
    fn histogram_buckets_round_trip() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            1000,
            123_456,
            1 << 40,
            (1 << 62) + 12_345,
        ] {
            let i = Hist::index(v);
            assert!(i < BUCKETS, "{v} -> {i}");
            let (lo, width) = Hist::bounds(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width + 1.0,
                "{v} outside [{lo}, {lo}+{width})"
            );
        }
        // Indices are monotone in the value.
        let mut prev = 0;
        for v in (0..100_000u64).step_by(7) {
            let i = Hist::index(v);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Hist::new();
        let mut exact = Vec::new();
        let mut x = 0x9e37_79b9u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = 300 + (x >> 40) % 50_000;
            h.record(v);
            exact.push(v as f64);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let (a, b) = (h.quantile(q), quantile(&exact, q));
            assert!((a - b).abs() / b < 0.01, "q{q}: hist {a} vs exact {b}");
        }
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }
}
