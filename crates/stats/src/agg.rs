//! Aggregation helpers: the paper reports run-time weighted averages
//! across benchmarks ("All the results presented ... are run-time weighted
//! averages", weighted by the run time of the T4 design in cycles).

/// Computes a weighted average of `values` with the given `weights`.
///
/// Returns 0 when the weight mass is zero.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn weighted_average(values: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        values.len(),
        weights.len(),
        "values and weights must pair up"
    );
    let mass: f64 = weights.iter().sum();
    if mass == 0.0 {
        return 0.0;
    }
    values.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / mass
}

/// An accumulator for min/max/mean/stddev summaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
    // Welford's online algorithm for the second moment: numerically
    // stable even when observations are large and nearly equal
    // (per-window cycle counts, say), unlike a Σv² accumulator.
    w_mean: f64,
    m2: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            w_mean: 0.0,
            m2: 0.0,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let delta = v - self.w_mean;
        self.w_mean += delta / self.n as f64;
        self.m2 += delta * (v - self.w_mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sample standard deviation (Bessel-corrected, the estimator a
    /// confidence interval wants); `None` with fewer than two
    /// observations.
    pub fn stddev(&self) -> Option<f64> {
        (self.n > 1).then(|| (self.m2 / (self.n - 1) as f64).max(0.0).sqrt())
    }

    /// [`stddev`](Self::stddev) with degenerate samples collapsed to
    /// 0.0 — for rendering paths that want a number, never NaN.
    pub fn stddev_or_zero(&self) -> f64 {
        self.stddev().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_average_basics() {
        assert_eq!(weighted_average(&[1.0, 3.0], &[1.0, 1.0]), 2.0);
        assert_eq!(weighted_average(&[1.0, 3.0], &[3.0, 1.0]), 1.5);
        assert_eq!(weighted_average(&[], &[]), 0.0);
        assert_eq!(weighted_average(&[5.0], &[0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_lengths_panic() {
        weighted_average(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn summary_tracks_extremes() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for v in [2.0, -1.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn stddev_is_sample_corrected_and_gated_on_two_observations() {
        let mut s = Summary::new();
        assert_eq!(s.stddev(), None);
        s.push(5.0);
        assert_eq!(s.stddev(), None, "one observation has no spread");
        s.push(5.0);
        assert_eq!(s.stddev(), Some(0.0));

        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(v);
        }
        // Known dataset: population σ = 2, sample s = sqrt(32/7).
        let expect = (32.0f64 / 7.0).sqrt();
        assert!((s.stddev().unwrap() - expect).abs() < 1e-12);
    }

    // Satellite hardening: the n==0 and n==1 window cases that sampled
    // sweeps produce (a resumed cell with no sidecar, a trace shorter
    // than one window) must stay well-defined end to end.
    #[test]
    fn empty_and_single_observation_summaries_are_well_defined() {
        let empty = Summary::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.stddev(), None);
        assert_eq!(empty.stddev_or_zero(), 0.0);
        assert!(!empty.mean().is_nan());

        let mut one = Summary::new();
        one.push(2.5);
        assert_eq!(one.count(), 1);
        assert_eq!(one.mean(), 2.5);
        assert_eq!(one.stddev(), None);
        assert_eq!(one.stddev_or_zero(), 0.0);
        assert_eq!(one.min(), Some(2.5));
        assert_eq!(one.max(), Some(2.5));
    }

    #[test]
    fn stddev_is_stable_for_large_nearly_equal_observations() {
        // A Σv² accumulator loses all significant digits here; Welford
        // must not.
        let mut s = Summary::new();
        for v in [1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0] {
            s.push(v);
        }
        assert!((s.stddev().unwrap() - 1.0).abs() < 1e-6);
    }
}
