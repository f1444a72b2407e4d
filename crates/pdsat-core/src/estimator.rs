//! Monte Carlo statistics: sample moments, confidence intervals (eq. (3) of
//! the paper) and the predictive-function value (eq. (5)).

/// Sample moments of a set of observations `ζ_1 … ζ_N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of observations `N`.
    pub n: usize,
    /// Sample mean `(1/N) Σ ζ_j`.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
}

impl SampleStats {
    /// Computes sample statistics. Returns `n = 0`, zero mean/variance for an
    /// empty slice.
    ///
    /// Uses Welford's single-pass update: the running mean and the centred
    /// sum of squares `M₂` are maintained incrementally, so the variance is
    /// numerically stable even for the large-`N`, large-magnitude samples of
    /// the Table-2 experiments (a naive `Σζ² − N·mean²` formulation cancels
    /// catastrophically there; the two-pass formula is stable but reads the
    /// data twice).
    #[must_use]
    pub fn from_observations(values: &[f64]) -> SampleStats {
        let n = values.len();
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for (i, &v) in values.iter().enumerate() {
            let delta = v - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (v - mean);
        }
        let variance = if n > 1 { m2 / (n - 1) as f64 } else { 0.0 };
        SampleStats { n, mean, variance }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean, `σ/√N`.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the two-sided confidence interval at confidence level
    /// `gamma` — the `δ_γ·σ/√N` of eq. (3): the mean lies within it of the
    /// expectation with probability `gamma`. Eq. (3) takes `δ_γ` from the
    /// normal distribution, which is its limit for the paper's `N` of
    /// 10⁴–10⁵; with `σ` estimated from the same `N` observations the
    /// quantile that covers at `gamma` is Student's t at `N − 1` degrees of
    /// freedom, and at the `N` of 10–100 the workloads here run the two
    /// differ (2.262 against 1.960 at `N = 10`). Zero below two
    /// observations, which carry no spread to build an interval from.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly between 0 and 1.
    #[must_use]
    pub fn confidence_half_width(&self, gamma: f64) -> f64 {
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "confidence level must lie in (0,1)"
        );
        if self.n < 2 {
            return 0.0;
        }
        // Eq. (3) bounds the deviation on both sides, Pr{|mean − E| < δ_γ·σ/√N}
        // = γ, so each tail keeps (1 − γ)/2 and δ_γ is the (1 + γ)/2 quantile
        // (1.96 at γ = 0.95 as N grows).
        let delta = student_t_quantile((1.0 + gamma) / 2.0, self.n - 1);
        delta * self.std_error()
    }
}

/// The value of the predictive function for one decomposition set, together
/// with the Monte Carlo estimate it is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictiveEstimate {
    /// Size `d` of the decomposition set.
    pub set_size: usize,
    /// Number of sampled sub-problems `N`.
    pub sample_size: usize,
    /// Sample mean of the per-sub-problem cost (seconds, or solver counters).
    pub mean_cost: f64,
    /// Sample standard deviation of the per-sub-problem cost.
    pub std_dev: f64,
    /// The predictive function value `F = 2^d · mean` (eq. (5)).
    pub value: f64,
}

impl PredictiveEstimate {
    /// Builds the estimate from raw observations.
    #[must_use]
    pub fn from_observations(set_size: usize, observations: &[f64]) -> PredictiveEstimate {
        let stats = SampleStats::from_observations(observations);
        let scale = 2f64.powi(set_size as i32);
        PredictiveEstimate {
            set_size,
            sample_size: stats.n,
            mean_cost: stats.mean,
            std_dev: stats.std_dev(),
            value: scale * stats.mean,
        }
    }

    /// Half-width of the confidence interval around [`value`](Self::value) at
    /// level `gamma` (the per-observation CLT interval scaled by `2^d`).
    #[must_use]
    pub fn confidence_half_width(&self, gamma: f64) -> f64 {
        let stats = SampleStats {
            n: self.sample_size,
            mean: self.mean_cost,
            variance: self.std_dev * self.std_dev,
        };
        2f64.powi(self.set_size as i32) * stats.confidence_half_width(gamma)
    }
}

/// Quantile function (inverse CDF) of the standard normal distribution.
///
/// Uses the Acklam rational approximation, accurate to about 1.15e-9 over the
/// whole open interval — far more than needed for confidence reporting.
///
/// # Panics
///
/// Panics if `p` is not strictly between 0 and 1.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must lie strictly in (0,1)");
    // Coefficients of the Acklam approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Quantile function of Student's t distribution with `nu` degrees of
/// freedom, converging to [`normal_quantile`] as `nu` grows.
///
/// From `nu = 3` up this is the Cornish–Fisher expansion of the t quantile
/// around the normal one, through the `nu⁻⁴` term (Abramowitz & Stegun
/// 26.7.5): at `p = 0.975` it is 1.2e-3 low (relative) at `nu = 3`, 3e-4 at
/// 4, 6e-6 at 9 and below 2e-8 from 29 on; further into the tail it is
/// coarser (2e-3 low at `p = 0.995`, `nu = 4`). At `nu = 1` and `nu = 2`,
/// where the expansion would be 11 % and 0.7 % low, the closed forms are
/// used instead.
///
/// # Panics
///
/// Panics if `p` is not strictly between 0 and 1 or `nu` is zero.
#[must_use]
pub fn student_t_quantile(p: f64, nu: usize) -> f64 {
    assert!(
        nu > 0,
        "a t distribution has at least one degree of freedom"
    );
    assert!(p > 0.0 && p < 1.0, "probability must lie strictly in (0,1)");
    match nu {
        1 => (std::f64::consts::PI * (p - 0.5)).tan(),
        2 => (2.0 * p - 1.0) / (2.0 * p * (1.0 - p)).sqrt(),
        _ => {
            let z = normal_quantile(p);
            let z2 = z * z;
            let g1 = z * (z2 + 1.0) / 4.0;
            let g2 = z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0;
            let g3 = z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0;
            let g4 =
                z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0;
            let inv = 1.0 / nu as f64;
            z + inv * (g1 + inv * (g2 + inv * (g3 + inv * g4)))
        }
    }
}

/// Standard normal cumulative distribution function `Φ`.
///
/// Implemented via the complementary error function (Abramowitz–Stegun 7.1.26
/// style polynomial), accurate to ~1e-7 which is ample for reporting.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    // Φ(x) = 0.5 · erfc(-x/√2)
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    // Numerical Recipes' rational Chebyshev approximation of erfc.
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stats_basic_moments() {
        let stats = SampleStats::from_observations(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(stats.n, 4);
        assert!((stats.mean - 2.5).abs() < 1e-12);
        assert!((stats.variance - 5.0 / 3.0).abs() < 1e-12);
        assert!((stats.std_error() - stats.std_dev() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples() {
        let empty = SampleStats::from_observations(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
        let single = SampleStats::from_observations(&[7.0]);
        assert_eq!(single.mean, 7.0);
        assert_eq!(single.variance, 0.0);
        let constant = SampleStats::from_observations(&[3.0; 10]);
        assert_eq!(constant.variance, 0.0);
        assert_eq!(constant.confidence_half_width(0.95), 0.0);
        // No degrees of freedom, no interval — and no 0/0 either.
        assert_eq!(empty.confidence_half_width(0.95), 0.0);
        assert_eq!(single.confidence_half_width(0.95), 0.0);
    }

    /// The naive two-pass reference: exact mean, then centred squares.
    fn two_pass(values: &[f64]) -> (f64, f64) {
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let variance = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        (mean, variance)
    }

    #[test]
    fn welford_matches_the_two_pass_reference() {
        // A deterministic pseudo-random sample (LCG) with a huge common
        // offset: the regime where one-pass Σζ² formulations lose all digits.
        // Welford must agree with the stable two-pass computation to high
        // relative precision.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut samples = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = (x >> 11) as f64 / (1u64 << 53) as f64; // in [0,1)
            samples.push(1.0e9 + noise);
        }
        let stats = SampleStats::from_observations(&samples);
        let (mean, variance) = two_pass(&samples);
        assert_eq!(stats.n, samples.len());
        assert!((stats.mean - mean).abs() / mean < 1e-12);
        assert!(variance > 0.0);
        // Both computations carry the ~1e-7 representation error of storing
        // 1e9 + noise in an f64; they must agree to well within that.
        assert!(
            (stats.variance - variance).abs() / variance < 1e-5,
            "welford {} vs two-pass {}",
            stats.variance,
            variance
        );
        // Sanity: the variance of uniform noise on [0,1) is ~1/12 regardless
        // of the 1e9 offset.
        assert!((stats.variance - 1.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn normal_quantile_matches_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.95) - 1.644_853_627).abs() < 1e-6);
        assert!((normal_quantile(0.025) + 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.999) - 3.090_232_306).abs() < 1e-5);
    }

    #[test]
    fn student_t_quantile_matches_tabulated_values() {
        // t_{0.975} from the standard tables, with the accuracy the doc
        // comment promises at each ν.
        for (nu, tabulated, tolerance) in [
            (1, 12.706_204_7, 1e-6),
            (2, 4.302_652_73, 1e-6),
            (3, 3.182_446_31, 5e-3),
            (4, 2.776_445_11, 1e-3),
            (9, 2.262_157_16, 2e-5),
            (29, 2.045_229_64, 1e-6),
            (99, 1.984_216_95, 1e-6),
        ] {
            let t = student_t_quantile(0.975, nu);
            assert!((t - tabulated).abs() < tolerance, "nu = {nu}: {t}");
            // Symmetric, and never narrower than the normal interval.
            assert!((student_t_quantile(0.025, nu) + t).abs() < 1e-9);
            assert!(t > normal_quantile(0.975));
        }
        assert!(student_t_quantile(0.5, 7).abs() < 1e-9);
        let far = student_t_quantile(0.975, 1_000_000);
        assert!((far - normal_quantile(0.975)).abs() < 1e-5);
    }

    #[test]
    fn normal_cdf_is_inverse_of_quantile() {
        for &p in &[0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn predictive_estimate_scales_by_two_to_the_d() {
        let est = PredictiveEstimate::from_observations(10, &[2.0, 4.0]);
        assert_eq!(est.set_size, 10);
        assert_eq!(est.sample_size, 2);
        assert!((est.mean_cost - 3.0).abs() < 1e-12);
        assert!((est.value - 1024.0 * 3.0).abs() < 1e-9);
        assert!(est.confidence_half_width(0.95) > 0.0);
    }

    #[test]
    fn estimate_from_exhaustive_sample_is_exact() {
        // If the sample is the entire family, F equals the true total time.
        let per_cube = [1.0, 3.0, 2.0, 6.0];
        let est = PredictiveEstimate::from_observations(2, &per_cube);
        assert!((est.value - per_cube.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability must lie strictly in (0,1)")]
    fn quantile_rejects_bad_input() {
        let _ = normal_quantile(1.0);
    }
}
