//! Order statistics over timing samples, plus the FNV-1a hash the pinned
//! fingerprints use.

/// Median of the samples (mean of the two middle ones for an even count).
/// An empty slice yields 0 so an absent measurement reads as "none".
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest sample (0 when there is none).
pub fn min(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The three quartile cut points, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// driver judges run-to-run spread with that function, so `--compare`
/// must agree with it. Fewer than two samples have no spread: all three
/// cut points collapse onto the single value.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..=3usize) {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Tail latency: p90 once 100 samples exist, else the highest percentile
/// that still has ten samples beyond it, else (≤ 10 samples) the median.
/// Returns `(percentile in 0..1, value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n >= 100 {
        let idx = (n * 9).div_ceil(10).min(n) - 1;
        (0.9, v[idx])
    } else if n > 10 {
        ((n - 10) as f64 / n as f64, v[n - 11])
    } else {
        (0.5, median(&v))
    }
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(x, 11.0);
        assert!((p - 11.0 / 21.0).abs() < 1e-12);
        let big: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&big), (0.9, 180.0));
        assert_eq!(tail(&[5.0, 1.0, 3.0]), (0.5, 3.0));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
