//! Order statistics for latency samples and for run-to-run spread.

/// Fewest samples for which a percentile is reported: at least ten samples
/// must lie beyond it (choosing-metrics §1), so p95 needs 200.
pub fn min_samples(p: f64) -> usize {
    (10.0 / (1.0 - p)).ceil() as usize
}

/// Nearest-rank percentile of an ascending sample, or `None` when fewer
/// than ten samples lie beyond it. The median (`p == 0.5`) only needs a
/// non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let enough = if p <= 0.5 {
        !sorted.is_empty()
    } else {
        sorted.len() >= min_samples(p)
    };
    if !enough {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the two middle values averaged on an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` under two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on the 1-based sample, clamped to its ends.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_refused_under_200_samples() {
        let sample: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(percentile(&sample, 0.95), None);
        assert_eq!(percentile(&sample, 0.5), Some(100.0));
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        // Nearest rank: 190 of 200, leaving exactly ten samples beyond it.
        assert_eq!(percentile(&sample, 0.95), Some(190.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
