//! Order statistics of a handful of samples: what every reported number is.

/// Five-number summary plus the lower decile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub low: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median: the
    /// run-to-run spread the benchmark contract bounds.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Lower decile of `values` by nearest rank: the sample a tenth of the way
/// up the sorted list (the minimum below eleven samples).
///
/// This is what a run reports for a timing. The machines the benchmark runs
/// on are shared: a neighbour's load only ever adds time to a repetition, in
/// bursts of seconds on top of a slow wander, so the fast end of a run's
/// repetitions is the program and the rest is the box. Measured on the
/// reference box over 10 minutes of 80 ms repetitions cut into 30 s windows,
/// the windows' lower deciles spread 5 % between their quartiles, their
/// medians 8 %. The decile rather than the minimum, so that no single freak
/// sample is ever the result.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are harness bugs.
pub fn lower_decile(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    sorted[(sorted.len() - 1) / 10]
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the benchmark contract uses for the spread. A single sample is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sorted(values);
    let m = sorted.len();
    if m == 1 {
        return [sorted[0]; 3];
    }
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // May leave [0, 4] at the clamped ends: Python extrapolates there too.
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted(values);
    let [q1, _, q3] = quartiles(values);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        low: lower_decile(values),
        q1,
        median: median(values),
        q3,
        max: sorted[sorted.len() - 1],
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples to summarize");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn lower_decile_is_a_tenth_of_the_way_up() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&hundred), 10.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(lower_decile(&eleven), 2.0);
        assert_eq!(lower_decile(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(lower_decile(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
    }

    #[test]
    fn summary_reports_extremes_count_and_spread() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert_eq!(s.low, 1.0);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_a_bug() {
        let _ = median(&[]);
    }
}
