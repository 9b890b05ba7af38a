//! The benchmark's own arithmetic: medians, percentiles that refuse to
//! extrapolate, geometric means, and the quartile spread the noise
//! calibration reports.

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both mean a timing loop
/// did not run, which no metric may silently paper over.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Mean of the fastest tenth of `xs` — of the single fastest sample when
/// there are fewer than twenty.
///
/// This is the benchmark's estimate of what a timed entry costs *when the
/// shared host leaves it alone*. Interference on a shared machine only
/// ever adds time, and here it comes in phases longer than a run, so a
/// median over a run's rounds moves with the phase the run fell into:
/// across runs of one commit the median-based metrics spread 3–38 %
/// (quartile distance over median), the fastest-tenth ones 1–10 %
/// (`benchmark/CALIBRATION.md`). With hundreds of samples a bare minimum
/// is an outlier statistic, hence the tenth.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quiet(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "quiet time of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    let keep = (v.len() / 10).max(1);
    v[..keep].iter().sum::<f64>() / keep as f64
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`, nearest-rank) of `xs`, or
/// `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie strictly
/// beyond it: a tail read off a handful of samples is noise, and a p99
/// over 300 jobs is really a max.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize; // 1-based
    let rank = rank.clamp(1, v.len());
    if v.len() - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean needs positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// First and third quartile by the "exclusive" method — the numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the benchmark contract's spread check uses.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    let at = |q: usize| {
        // Position q·(n+1)/4, 1-based, clamped into the data like
        // CPython does, linearly interpolated.
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_is_the_fastest_sample_of_few_and_the_fastest_tenth_of_many() {
        assert_eq!(quiet(&[3.0, 1.0, 2.0]), 1.0);
        let nineteen: Vec<f64> = (1..=19).rev().map(f64::from).collect();
        assert_eq!(quiet(&nineteen), 1.0);
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(quiet(&forty), 2.5); // mean of 1, 2, 3, 4
                                        // Slow outliers — a noisy phase of the host — do not move it.
        let mut noisy = forty.clone();
        noisy.extend([500.0; 20]);
        assert_eq!(quiet(&noisy), 3.5); // fastest 6 of 60
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 90.0), Some(900.0));
    }

    #[test]
    fn percentile_refuses_a_tail_with_under_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 beyond: allowed.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&xs, 99.0).is_some());
        // One sample fewer leaves 9 beyond: refused.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        // p50 of 19 leaves 9 beyond; of 21 leaves 10.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&small[..19], 50.0), None);
        assert_eq!(percentile(&small, 50.0), Some(11.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn geomean_matches_hand_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12, "{q1}");
        assert!((q3 - 12.0).abs() < 1e-12, "{q3}");
        assert!((iqr_over_median(&xs) - 1.0).abs() < 1e-12);
    }
}
