//! Confidence intervals for sampled simulation (SMARTS-style).
//!
//! A sampled run measures a metric in `n` systematically-selected
//! windows and reports the mean with a Student-t confidence interval:
//!
//! ```text
//!     mean ± t_{n-1, level} · s / √n
//! ```
//!
//! where `s` is the Bessel-corrected sample standard deviation over the
//! per-window values. The t critical values come from a hand-rolled
//! two-sided table (dependency-free, pinned by golden tests); the
//! degrees-of-freedom lookup is conservative — a df between tabulated
//! rows rounds *down* to the nearest row, which can only widen the
//! interval.
//!
//! Degenerate inputs stay well-defined: zero or one window yields an
//! interval of infinite half-width (the honest "no spread information"
//! answer), never NaN. Callers that serialise intervals should map a
//! non-finite half-width to `null`, since JSON has no infinity.

use crate::agg::Summary;

/// Two-sided confidence level for a Student-t interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfLevel {
    /// 90% two-sided coverage.
    P90,
    /// 95% two-sided coverage.
    P95,
    /// 99% two-sided coverage.
    P99,
}

impl ConfLevel {
    /// The coverage probability as a fraction (0.90, 0.95, 0.99).
    pub fn value(self) -> f64 {
        match self {
            ConfLevel::P90 => 0.90,
            ConfLevel::P95 => 0.95,
            ConfLevel::P99 => 0.99,
        }
    }

    /// Column index into [`T_TABLE`] rows.
    fn column(self) -> usize {
        match self {
            ConfLevel::P90 => 0,
            ConfLevel::P95 => 1,
            ConfLevel::P99 => 2,
        }
    }
}

/// Two-sided Student-t critical values, `(df, [t_90, t_95, t_99])`,
/// df ascending. The usual printed table: every df from 1 to 30, then
/// 40, 60, 120. Beyond 120 the normal limit (the z row) applies.
const T_TABLE: [(u64, [f64; 3]); 33] = [
    (1, [6.314, 12.706, 63.657]),
    (2, [2.920, 4.303, 9.925]),
    (3, [2.353, 3.182, 5.841]),
    (4, [2.132, 2.776, 4.604]),
    (5, [2.015, 2.571, 4.032]),
    (6, [1.943, 2.447, 3.707]),
    (7, [1.895, 2.365, 3.499]),
    (8, [1.860, 2.306, 3.355]),
    (9, [1.833, 2.262, 3.250]),
    (10, [1.812, 2.228, 3.169]),
    (11, [1.796, 2.201, 3.106]),
    (12, [1.782, 2.179, 3.055]),
    (13, [1.771, 2.160, 3.012]),
    (14, [1.761, 2.145, 2.977]),
    (15, [1.753, 2.131, 2.947]),
    (16, [1.746, 2.120, 2.921]),
    (17, [1.740, 2.110, 2.898]),
    (18, [1.734, 2.101, 2.878]),
    (19, [1.729, 2.093, 2.861]),
    (20, [1.725, 2.086, 2.845]),
    (21, [1.721, 2.080, 2.831]),
    (22, [1.717, 2.074, 2.819]),
    (23, [1.714, 2.069, 2.807]),
    (24, [1.711, 2.064, 2.797]),
    (25, [1.708, 2.060, 2.787]),
    (26, [1.706, 2.056, 2.779]),
    (27, [1.703, 2.052, 2.771]),
    (28, [1.701, 2.048, 2.763]),
    (29, [1.699, 2.045, 2.756]),
    (30, [1.697, 2.042, 2.750]),
    (40, [1.684, 2.021, 2.704]),
    (60, [1.671, 2.000, 2.660]),
    (120, [1.658, 1.980, 2.617]),
];

/// The normal limit (z critical values) used for df > 120.
const Z_ROW: [f64; 3] = [1.645, 1.960, 2.576];

/// Two-sided Student-t critical value for `df` degrees of freedom.
///
/// `df == 0` (a single observation) has no finite critical value and
/// returns `+∞` — the caller's interval degenerates to full width
/// instead of NaN. A df between tabulated rows rounds down to the
/// nearest row (conservative: the returned t is never too small);
/// df > 120 uses the normal limit, as printed tables do.
pub fn t_critical(df: u64, level: ConfLevel) -> f64 {
    if df == 0 {
        return f64::INFINITY;
    }
    let col = level.column();
    if df > 120 {
        // hbat-lint: allow(panic) column() < 3 by construction; the rows are [f64; 3]
        return Z_ROW[col];
    }
    // Largest tabulated row with row_df <= df.
    // hbat-lint: allow(panic) T_TABLE is a non-empty const; column() < 3 by construction
    let mut t = T_TABLE[0].1[col];
    for &(row_df, row) in T_TABLE.iter() {
        if row_df <= df {
            // hbat-lint: allow(panic) column() < 3 by construction; the rows are [f64; 3]
            t = row[col];
        } else {
            break;
        }
    }
    t
}

/// A point estimate with a symmetric Student-t confidence interval,
/// rendered as `mean ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate (sample mean over windows).
    pub mean: f64,
    /// Half the interval width; `+∞` for degenerate (n < 2) samples.
    pub half_width: f64,
    /// Two-sided coverage level as a fraction (e.g. 0.95).
    pub level: f64,
    /// Number of windows the estimate came from.
    pub n: u64,
}

impl ConfidenceInterval {
    /// Builds the interval from an accumulated [`Summary`] of
    /// per-window values. Degenerate samples (n < 2) yield an infinite
    /// half-width, never NaN.
    pub fn from_summary(s: &Summary, level: ConfLevel) -> ConfidenceInterval {
        let n = s.count();
        let half_width = match s.stddev() {
            Some(sd) if n >= 2 => t_critical(n - 1, level) * sd / (n as f64).sqrt(),
            _ => f64::INFINITY,
        };
        ConfidenceInterval {
            mean: s.mean(),
            half_width,
            level: level.value(),
            n,
        }
    }

    /// Convenience: interval over a slice of per-window values.
    pub fn from_values(values: &[f64], level: ConfLevel) -> ConfidenceInterval {
        let mut s = Summary::new();
        for &v in values {
            s.push(v);
        }
        ConfidenceInterval::from_summary(&s, level)
    }

    /// Lower bound (`-∞` when degenerate).
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound (`+∞` when degenerate).
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `x` lies inside the interval (inclusive). A degenerate
    /// interval covers everything — it claims no precision.
    pub fn covers(&self, x: f64) -> bool {
        self.lo() <= x && x <= self.hi()
    }

    /// Half-width relative to the point estimate (`+∞` when the mean is
    /// zero or the interval degenerate) — the "±x%" error figure.
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }

    /// Renders as `x ± y` with the given number of digits; a degenerate
    /// interval renders its half-width as `inf`.
    pub fn render(&self, digits: usize) -> String {
        if self.half_width.is_finite() {
            format!("{:.d$} ± {:.d$}", self.mean, self.half_width, d = digits)
        } else {
            format!("{:.d$} ± inf", self.mean, d = digits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden values straight from the printed two-sided t table.
    #[test]
    fn t_table_golden_values() {
        assert_eq!(t_critical(1, ConfLevel::P95), 12.706);
        assert_eq!(t_critical(1, ConfLevel::P99), 63.657);
        assert_eq!(t_critical(4, ConfLevel::P95), 2.776);
        assert_eq!(t_critical(9, ConfLevel::P90), 1.833);
        assert_eq!(t_critical(9, ConfLevel::P95), 2.262);
        assert_eq!(t_critical(9, ConfLevel::P99), 3.250);
        assert_eq!(t_critical(29, ConfLevel::P95), 2.045);
        assert_eq!(t_critical(30, ConfLevel::P95), 2.042);
        assert_eq!(t_critical(120, ConfLevel::P95), 1.980);
    }

    #[test]
    fn t_lookup_rounds_df_down_conservatively() {
        // 31..39 fall back to the df=30 row, 41..59 to df=40, etc.
        assert_eq!(
            t_critical(35, ConfLevel::P95),
            t_critical(30, ConfLevel::P95)
        );
        assert_eq!(
            t_critical(59, ConfLevel::P95),
            t_critical(40, ConfLevel::P95)
        );
        assert_eq!(
            t_critical(119, ConfLevel::P95),
            t_critical(60, ConfLevel::P95)
        );
        // Beyond the table: the normal limit.
        assert_eq!(t_critical(121, ConfLevel::P95), 1.960);
        assert_eq!(t_critical(1_000_000, ConfLevel::P99), 2.576);
    }

    #[test]
    fn t_is_monotone_decreasing_in_df_and_increasing_in_level() {
        for level in [ConfLevel::P90, ConfLevel::P95, ConfLevel::P99] {
            let mut prev = f64::INFINITY;
            for df in 1..=200 {
                let t = t_critical(df, level);
                assert!(t <= prev, "t must not grow with df (df={df})");
                prev = t;
            }
        }
        for df in [1, 5, 30, 120, 500] {
            assert!(t_critical(df, ConfLevel::P90) < t_critical(df, ConfLevel::P95));
            assert!(t_critical(df, ConfLevel::P95) < t_critical(df, ConfLevel::P99));
        }
    }

    #[test]
    fn degenerate_intervals_are_full_width_not_nan() {
        // n == 0: no data at all.
        let ci = ConfidenceInterval::from_values(&[], ConfLevel::P95);
        assert_eq!(ci.n, 0);
        assert_eq!(ci.mean, 0.0);
        assert!(ci.half_width.is_infinite());
        assert!(!ci.half_width.is_nan());
        assert!(ci.covers(42.0), "a degenerate interval claims no precision");

        // n == 1: a mean but no spread estimate.
        let ci = ConfidenceInterval::from_values(&[3.5], ConfLevel::P95);
        assert_eq!(ci.n, 1);
        assert_eq!(ci.mean, 3.5);
        assert!(ci.half_width.is_infinite());
        assert!(!ci.lo().is_nan() && !ci.hi().is_nan());
        assert!(ci.covers(-1e18) && ci.covers(1e18));
        assert_eq!(ci.render(3), "3.500 ± inf");
    }

    #[test]
    fn two_point_interval_matches_hand_computation() {
        // values 1, 3: mean 2, s = sqrt(2), hw = 12.706 * sqrt(2)/sqrt(2).
        let ci = ConfidenceInterval::from_values(&[1.0, 3.0], ConfLevel::P95);
        assert_eq!(ci.n, 2);
        assert!((ci.mean - 2.0).abs() < 1e-12);
        assert!((ci.half_width - 12.706).abs() < 1e-9);
        assert!(ci.covers(2.0) && !ci.covers(20.0));
        assert_eq!(ci.render(2), "2.00 ± 12.71");
    }

    #[test]
    fn relative_half_width_is_the_error_figure() {
        let ci = ConfidenceInterval::from_values(&[9.0, 10.0, 11.0], ConfLevel::P95);
        assert!((ci.relative_half_width() - ci.half_width / 10.0).abs() < 1e-12);
        let zero = ConfidenceInterval {
            mean: 0.0,
            half_width: 1.0,
            level: 0.95,
            n: 3,
        };
        assert!(zero.relative_half_width().is_infinite());
    }

    // A tiny deterministic generator: Irwin-Hall approximation of a
    // normal from an xorshift stream. Good enough for a coverage test.
    struct Rng(u64);
    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn uniform(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn normal(&mut self) -> f64 {
            (0..12).map(|_| self.uniform()).sum::<f64>() - 6.0
        }
    }

    // The satellite's property test: over 1000 seeded trials of n = 10
    // i.i.d. windows from N(mu, sigma), the 95% interval must cover mu
    // in at least ~90% of trials (the t interval is exact at 95% for
    // true normals; the slack absorbs the Irwin-Hall approximation).
    #[test]
    fn ci_coverage_over_synthetic_iid_windows() {
        let (mu, sigma) = (10.0, 2.0);
        let mut rng = Rng(0x5eed_1996_cafe_f00d);
        let mut covered = 0u32;
        let trials = 1000;
        for _ in 0..trials {
            let values: Vec<f64> = (0..10).map(|_| mu + sigma * rng.normal()).collect();
            let ci = ConfidenceInterval::from_values(&values, ConfLevel::P95);
            assert!(ci.half_width.is_finite(), "10 distinct windows: finite CI");
            if ci.covers(mu) {
                covered += 1;
            }
        }
        assert!(
            covered >= 900,
            "95% CI covered the true mean in only {covered}/{trials} trials"
        );
        assert!(
            covered < trials,
            "coverage must not be vacuous (degenerate intervals cover always)"
        );
    }
}
