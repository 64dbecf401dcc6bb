//! Order statistics with the benchmark's sampling rule: a percentile is
//! only reported when at least ten samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The percentile asked for, in `(0, 1)`.
    pub q_millis: u32,
    /// Samples available.
    pub have: usize,
    /// Samples needed for `MIN_BEYOND` of them to lie beyond it.
    pub need: usize,
}

/// Smallest sample count that leaves `MIN_BEYOND` samples above the
/// `q` quantile.
pub fn samples_needed(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize
}

/// The nearest-rank `q` quantile of `samples`, refusing when fewer than
/// [`MIN_BEYOND`] samples would lie beyond it.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let need = samples_needed(q);
    if samples.len() < need {
        return Err(TooFewSamples {
            q_millis: (q * 1000.0).round() as u32,
            have: samples.len(),
            need,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Ok(sorted[rank - 1])
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The `q` quantile of each of `windows` consecutive, equal slices of
/// `samples` (kept in arrival order), then the median of those: one
/// disturbed window moves the result far less than it moves the
/// quantile of the pooled samples. The window count shrinks until each
/// window is large enough for `q`.
pub fn windowed_quantile(samples: &[f64], q: f64, windows: usize) -> Result<f64, TooFewSamples> {
    let fit = (samples.len() / samples_needed(q)).clamp(1, windows.max(1));
    let per = samples.len() / fit;
    let per_window: Result<Vec<f64>, TooFewSamples> = (0..fit)
        .map(|w| quantile(&samples[w * per..(w + 1) * per], q))
        .collect();
    Ok(median(&per_window?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        let err = quantile(&samples, 0.99).unwrap_err();
        assert_eq!((err.have, err.need), (999, 1000));
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.99), Ok(989.0));
        // Exactly ten samples (990..=999) lie beyond the reported p99.
        assert_eq!(samples.iter().filter(|&&s| s > 989.0).count(), MIN_BEYOND);
        assert!(quantile(&samples[..19], 0.5).is_err());
        assert_eq!(quantile(&samples[..20], 0.5), Ok(9.0));
    }

    #[test]
    fn windowed_quantile_uses_as_many_full_windows_as_fit() {
        let samples: Vec<f64> = (0..2500).map(|i| f64::from(i % 1000)).collect();
        // Two windows of 1250 fit for p99; each sees the same shape.
        assert_eq!(
            windowed_quantile(&samples, 0.99, 8),
            quantile(&samples[..1250], 0.99)
        );
        assert!(windowed_quantile(&samples[..500], 0.99, 8).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
