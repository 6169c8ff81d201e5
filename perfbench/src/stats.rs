//! Order statistics over per-pass samples.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)` (its
//! default "exclusive" method), because run-to-run spreads of this
//! benchmark are judged with exactly that function.

/// Median (mean of the two middle samples for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them; `None` below two samples (Python raises there).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the spread measure
/// the benchmark's bounds are compared against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Nearest-rank percentile (`⌈p·n⌉ - 1`, clamped); `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    Some(s[rank])
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// above it, as `(p, value)`; falls back to the median below ten samples
/// beyond p50 (a tail claim needs that many samples behind it).
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    // Per mille, so "ten samples beyond" is exact integer arithmetic.
    let per_mille = [999, 990, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10 * 1000)
        .unwrap_or(500);
    let p = per_mille as f64 / 1000.0;
    Some((p, percentile(values, p)?))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_by_sample_count() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Reference values from statistics.quantiles(data, n=4).
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[1.0]), None);
        // Two samples extrapolate past the data, as Python does.
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25));
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]).unwrap();
        assert!(close(q1, 1.0) && close(q3, 3.0));
        let (q1, q3) = quartiles(&[4.0, 2.0, 3.0, 1.0]).unwrap();
        assert!(close(q1, 1.25) && close(q3, 3.75));
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(close(q1, 1.5) && close(q3, 4.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25));
    }

    #[test]
    fn relative_iqr_is_scale_free() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let scaled: Vec<f64> = ten.iter().map(|v| v * 1e6).collect();
        let a = relative_iqr(&ten).unwrap();
        let b = relative_iqr(&scaled).unwrap();
        assert!(close(a, (8.25 - 2.75) / 5.5) && close(a, b));
        assert_eq!(relative_iqr(&[7.0]), None);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_nearest_rank_by_sample_count() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[9.0], 0.1), Some(9.0));
        assert_eq!(percentile(&[9.0], 0.9), Some(9.0));
        // n = 2: the median is the lower sample, p90 the upper.
        assert_eq!(percentile(&[2.0, 1.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[2.0, 1.0], 0.9), Some(2.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(&[]), None);
        let five: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(supported_tail(&five), Some((0.5, 3.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_tail(&twenty), Some((0.5, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_tail(&hundred), Some((0.9, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&thousand), Some((0.99, 990.0)));
    }
}
