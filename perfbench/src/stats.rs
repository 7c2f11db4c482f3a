//! Order statistics of timing samples.

/// One reported metric: the median of its samples, their quartiles and
/// the sample count. A count or a deterministic model output is one exact
/// sample; a metric the workload does not exercise has no samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Value {
    /// Median and quartiles of `samples` (linear interpolation between
    /// order statistics).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Value {
        let sorted = sorted(samples);
        Value {
            value: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        }
    }

    /// The rate sustained in 95% of repetitions: the lower tail of `rates`
    /// (see [`lower_tail`]), with the quartiles and count as for
    /// [`Value::of`]. Also returns the fraction of samples below the value.
    ///
    /// # Panics
    ///
    /// Panics with fewer than 11 samples or with a NaN.
    pub fn sustained(rates: &[f64]) -> (Value, f64) {
        let sorted = sorted(rates);
        let (value, fraction) = lower_tail(&sorted);
        let v = Value {
            value,
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            n: sorted.len(),
        };
        (v, fraction)
    }

    /// A single exact value (a count or a simulated output).
    pub fn exact(x: f64) -> Value {
        Value {
            value: x,
            q1: x,
            q3: x,
            n: 1,
        }
    }

    /// The value of a metric whose layer this workload does not exercise.
    pub fn not_exercised() -> Value {
        Value {
            value: 0.0,
            q1: 0.0,
            q3: 0.0,
            n: 0,
        }
    }
}

/// `samples` sorted ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of the 99.9th percentile and the percentiles that leave at
/// least ten samples above them, as `(value, fraction)`: with fewer than
/// 10,000 samples the true 99.9th percentile would rest on fewer than ten.
///
/// # Panics
///
/// Panics with fewer than 11 samples.
pub fn upper_tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 10, "an upper percentile needs more than ten samples");
    let p999 = ((0.999 * n as f64).ceil() as usize).saturating_sub(1);
    let k = p999.min(n - 11);
    (sorted[k], (k + 1) as f64 / n as f64)
}

/// The lowest of the 5th percentile and the percentiles that leave at
/// least ten samples below them, as `(value, fraction below)`: the mirror
/// of [`upper_tail`] for rates, whose slow tail is the low one.
///
/// # Panics
///
/// Panics with fewer than 11 samples.
pub fn lower_tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 10, "a lower percentile needs more than ten samples");
    let k = (n / 20).max(10);
    (sorted[k], k as f64 / n as f64)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let v = Value::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((v.value, v.q1, v.q3, v.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(Value::of(&[1.0, 2.0]).value, 1.5);
    }

    #[test]
    fn upper_tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (v, q) = upper_tail(&xs);
        assert_eq!(v, 89.0, "ten samples (90..99) lie beyond");
        assert!((q - 0.9).abs() < 1e-12);
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        let (v, q) = upper_tail(&many);
        assert_eq!(v, 19_979.0);
        assert!((q - 0.999).abs() < 1e-12);
    }

    #[test]
    fn lower_tail_keeps_ten_samples_below() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(lower_tail(&xs), (10.0, 0.1), "ten samples (0..9) lie below");
        let many: Vec<f64> = (0..2_000).map(f64::from).collect();
        assert_eq!(lower_tail(&many), (100.0, 0.05));
        let (v, below) = Value::sustained(&many.iter().rev().copied().collect::<Vec<_>>());
        assert_eq!((v.value, below, v.n), (100.0, 0.05, 2_000));
        assert_eq!((v.q1, v.q3), (499.75, 1499.25));
    }
}
