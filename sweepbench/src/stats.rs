//! Order statistics over a run's samples.

/// The median of `xs` (0 when empty). Sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The upper quartile of `xs` (0 when empty), interpolated the way
/// Python's `statistics.quantiles(xs, n=4)[2]` does. Sorts in place.
pub fn upper_quartile(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    // Position (n + 1) * 3/4 among the samples counted from 1, clamped to
    // the first and last sample.
    let pos = ((n + 1) as f64 * 0.75).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    xs[lo - 1] + frac * (xs[hi - 1] - xs[lo - 1])
}

/// The geometric mean of positive values (0 when empty).
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_quartile_matches_python() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)[2] == 8.25
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(upper_quartile(&mut xs), 8.25);
        // statistics.quantiles([3, 1, 2], n=4)[2] == 3.0
        assert_eq!(upper_quartile(&mut [3.0, 1.0, 2.0]), 3.0);
        assert_eq!(upper_quartile(&mut [7.0]), 7.0);
        assert_eq!(upper_quartile(&mut []), 0.0);
    }
}
