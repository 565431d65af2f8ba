//! Order statistics shared by every workload.

/// Samples that must lie above a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` that still has at least [`TAIL_BEYOND`]
/// samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// See [`Tail`]. With fewer than `TAIL_BEYOND + 1` samples no percentile
/// qualifies; the maximum is returned with percentile 100 so the caller
/// can flag it.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: s.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        };
    }
    let k = n - TAIL_BEYOND - 1;
    Tail {
        value: s[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `(min, p50, p90, max)` of integer sizes, for the input report.
pub fn size_summary(v: &[usize]) -> (usize, usize, usize, usize) {
    let mut s = v.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return (0, 0, 0, 0);
    }
    let at = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize];
    (s[0], at(0.5), at(0.9), s[s.len() - 1])
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|x| **x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
