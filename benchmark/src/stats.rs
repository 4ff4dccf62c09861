//! Order statistics and digests shared by the workloads and `compare`.

/// Nearest rank (1-based) of percentile `pct` among `n` samples: the
/// smallest rank with at least `pct`% of the samples at or below it.
fn nearest_rank(pct: f64, n: usize) -> usize {
    // The epsilon keeps a product that should be a whole number, such as
    // 99.99% of 100 000, from rounding up past it.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(pct, sorted.len()) - 1]
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least ten
/// of `n` samples above its nearest rank, or `None` when not even the
/// median does. A tail reported beyond this is set by fewer than ten
/// samples, so a single stall moves it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && n - nearest_rank(p, n) >= 10)
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here match the ones computed over the same values in Python. A single
/// value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// What the layer times `parts` leave of an end-to-end time `e2e`, as
/// `(rest, rest / e2e)`. The rest is negative when isolated passes through
/// the layers cost more than the whole, for example when a layer runs
/// slower alone than inside the fused loop.
pub fn closure(e2e: f64, parts: &[f64]) -> (f64, f64) {
    let rest = e2e - parts.iter().sum::<f64>();
    (rest, if e2e == 0.0 { 0.0 } else { rest / e2e })
}

/// FNV-1a 64-bit digest of `bytes`, printed as `fnv1a64:<16 hex digits>`
/// (the form the repository's artifacts use).
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Rank ceil(0.5 * 5) = 3: the middle of five.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the median leaves exactly ten above it.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        // 999 samples: p99's rank 990 leaves only nine above it.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn stage_closure_leaves_the_unattributed_rest() {
        // Enumeration 4, legality 1, fill 11, walk 24, top-K 90 of 131 ns.
        let (rest, share) = closure(131.0, &[4.0, 1.0, 11.0, 24.0, 90.0]);
        assert_eq!(rest, 1.0);
        assert_eq!(share, 1.0 / 131.0);
        let (rest, share) = closure(100.0, &[60.0, 50.0]);
        assert_eq!((rest, share), (-10.0, -0.1));
        assert_eq!(closure(0.0, &[]), (0.0, 0.0));
    }

    #[test]
    fn digest_is_stable() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(digest(b""), "fnv1a64:cbf29ce484222325");
        assert_eq!(digest(b"a"), "fnv1a64:af63dc4c8601ec8c");
        assert_eq!(digest(b"foobar"), "fnv1a64:85944171f73967e8");
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }
}
