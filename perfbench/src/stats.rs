//! Order statistics used by every metric the benchmark prints.

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; below that, one outlier moves it by a whole sample.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even counts). `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`), the same rule as
/// numpy's default. `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// How many of `n` samples lie strictly beyond the `q` quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// A timing percentile, refused unless at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, String> {
    let beyond = samples_beyond(xs.len(), q);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0,
            xs.len()
        ));
    }
    quantile(xs, q).ok_or_else(|| "no samples".to_string())
}

#[cfg(test)]
/// Is `name` a legal metric name: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters?
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(
            percentile(&xs, 0.9).is_err(),
            "99 samples leave 9 beyond p90"
        );
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&xs, 0.9).is_ok());
        assert!(percentile(&xs, 0.99).is_err());
        assert!(percentile(&xs[..19], 0.5).is_err());
        assert!(percentile(&xs[..20], 0.5).is_ok());
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("mpcl.queue.cold_ms_p50"));
        assert!(valid_metric_name("setup_s"));
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
