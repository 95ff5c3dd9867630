//! Latency recording: a fixed-size log-bucketed histogram, so memory does
//! not grow with throughput (peak RSS is an end-to-end metric), and
//! percentiles that are reported only when the sample supports them.

/// Sub-buckets per power of two (about 3 % relative resolution; values are
/// interpolated linearly inside a bucket).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// The least number of samples a reported percentile must have beyond it.
pub const MIN_BEYOND: u64 = 10;

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((u64::from(e - SUB_BITS) + 1) * SUB + m) as usize
}

/// `[lo, lo + width)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let m = i % SUB;
    (((SUB + m) << shift) as f64, (1u64 << shift) as f64)
}

/// Nanosecond latencies.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum_ns: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum_ns: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum_ns += u128::from(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_us(&self) -> f64 {
        self.sum_ns as f64 / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_us() / self.n as f64
        }
    }

    /// The `q`-quantile in µs, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond its rank.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let rank = (q * self.n as f64).ceil().max(1.0) as u64;
        if self.n == 0 || self.n - rank.min(self.n) < MIN_BEYOND {
            return None;
        }
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if before + c >= rank {
                let (lo, width) = bucket_range(i);
                let within = (rank - before) as f64 - 0.5;
                return Some((lo + width * within / c as f64) / 1e3);
            }
            before += c;
        }
        unreachable!("rank {rank} within n {}", self.n)
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut last = 0;
        for v in (0..100_000u64).chain([1 << 40, (1 << 50) + 12_345]) {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "{v} -> {b}");
            let (lo, width) = bucket_range(b);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width + 1.0,
                "{v} in {lo}+{width}"
            );
            last = b;
        }
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let mut h = Hist::default();
        for v in 1..=999u64 {
            h.record(v * 1000);
        }
        // 999 samples: rank of p99 is 990, 9 beyond it
        assert!(h.quantile_us(0.99).is_none());
        h.record(1_000_000);
        let p99 = h.quantile_us(0.99).expect("1000 samples support p99");
        assert!((p99 - 990.0).abs() < 990.0 * 0.04, "{p99}");
        let p50 = h.quantile_us(0.5).expect("p50");
        assert!((p50 - 500.0).abs() < 500.0 * 0.04, "{p50}");
        assert!(h.quantile_us(0.999).is_none());
        let mut small = Hist::default();
        for v in 0..19 {
            small.record(v);
        }
        assert!(small.quantile_us(0.5).is_none(), "19 samples: 9 beyond p50");
        small.record(19);
        assert!(small.quantile_us(0.5).is_some());
    }

    #[test]
    fn merge_adds_samples() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_us() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
