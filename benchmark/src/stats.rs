//! Order statistics, the percentile rule and the wire digest.

/// The percentile ladder the benchmark reports from, in per mille.
const LADDER: [u64; 6] = [500, 900, 950, 980, 990, 999];

/// Median of a sample (mean of the middle pair for even sizes). `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile (`p` in percent) of an ascending sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n` — the tail a run of this length
/// can support. `None` below twenty samples (not even a median has ten
/// beyond it).
pub fn supported_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    // Nearest rank of the percentile, in whole numbers: what lies above
    // that rank is "beyond".
    LADDER
        .iter()
        .rev()
        .find(|pm| n - (n * **pm).div_ceil(1000) >= 10)
        .map(|pm| *pm as f64 / 10.0)
}

/// A timing sample summarised by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The percentile actually reported as the tail (≤ the one asked for).
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
}

/// Summarises a sample: the median, and `want` percent or — when the
/// sample cannot support it — the highest percentile it can.
pub fn tail(values: &[f64], want: f64) -> Option<Tail> {
    let supported = supported_percentile(values.len())?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_p = want.min(supported);
    Some(Tail {
        n: v.len(),
        p50: percentile_sorted(&v, 50.0),
        tail_p,
        tail: percentile_sorted(&v, tail_p),
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them. Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the regression bounds are judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// 64-bit FNV-1a, fed incrementally: the digest of every wire byte a
/// replay produced, and of a schedule's ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one little-endian word into the digest.
    pub fn update_u64(&mut self, word: u64) {
        self.update(&word.to_le_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(98.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_falls_back_to_the_supported_percentile() {
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!((t.n, t.p50, t.tail_p, t.tail), (500, 250.0, 98.0, 490.0));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 99.0).unwrap();
        assert_eq!((t.tail_p, t.tail), (99.0, 1980.0));
        assert_eq!(tail(&[1.0; 5], 99.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv64::default();
        assert_eq!(h.value(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::default();
        h.update(b"foobar");
        assert_eq!(h.value(), 0x8594_4171_f739_67e8);
    }
}
