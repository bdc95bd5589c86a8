//! Sample statistics: the median every timing is reported as, and the
//! highest percentile the sample count supports.

/// Percentiles tried, highest first, in permille so the sample-count test
/// below is exact integer arithmetic.
const CANDIDATES: [usize; 5] = [999, 990, 950, 900, 750];

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The highest candidate percentile that still has at least ten samples
/// beyond it, with its value; `None` below 40 samples, where only the median
/// is honest.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    CANDIDATES
        .iter()
        .find(|&&pm| xs.len() * (1000 - pm) >= 10 * 1000)
        .map(|&pm| (pm as f64 / 10.0, percentile(xs, pm as f64 / 10.0)))
}

/// Interquartile range as a share of the median — the spread the driver
/// compares with a metric's bound. Quartiles follow Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method).
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let d = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * d
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (q(3) - q(1)) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&xs(39)), None);
        assert_eq!(tail(&xs(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&xs(99)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&xs(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&xs(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&xs(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&xs(10_000)).map(|t| t.0), Some(99.9));
        let (p, v) = tail(&xs(101)).expect("enough samples");
        assert_eq!((p, v), (90.0, 90.0));
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = iqr_share(&xs);
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
    }
}
