//! Order statistics with the sample-size rule the benchmark reports by.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `q` in `(0, 1]`,
/// refused unless at least [`MIN_BEYOND`] samples lie beyond it — a
/// tail figure resting on fewer samples is noise, not a percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 {
        return Err("no samples".to_string());
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    // (The epsilon keeps 0.99·1000 from rounding up to rank 991.)
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q < 1.0 && beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it, fewer than {MIN_BEYOND}",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — the smallest sample
        // that supports a p99.
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        // 999 samples: rank 990, nine beyond — refused.
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert!(percentile(&ramp(100), 0.99).is_err());
    }

    #[test]
    fn median_rank_and_small_samples() {
        assert_eq!(percentile(&ramp(21), 0.5), Ok(11.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(percentile(&ramp(3), 1.0), Ok(3.0));
    }

    #[test]
    fn every_reported_percentile_leaves_ten_beyond() {
        for n in [20, 57, 999, 1000, 1234, 5000] {
            let s = ramp(n);
            for q in [0.5, 0.9, 0.99, 0.999] {
                if let Ok(v) = percentile(&s, q) {
                    let beyond = s.iter().filter(|&&x| x > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q}: {beyond} beyond");
                }
            }
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
