//! Order statistics over timing samples.
//!
//! Every function takes the samples by value or sorts a private copy,
//! so callers keep their insertion order (the trace writes samples out
//! in the order they were taken).

/// A percentile together with the number of samples it was taken from
/// and how many of them lie beyond it — a p99 over 40 samples is the
/// maximum, and the report should say so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two central samples for an even count). NaN for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The `p`-th percentile (0..=100) by the nearest-rank rule, with its
/// sample count and the number of samples strictly beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Percentile {
    let v = sorted(xs);
    if v.is_empty() {
        return Percentile {
            value: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    Percentile {
        value: v[idx],
        samples: v.len(),
        beyond: v.len() - 1 - idx,
    }
}

/// Quartile cut points `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive*
/// method) computes them — the rule the acceptance driver applies to
/// the ten runs of a workload. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the spread figure
/// the driver compares with a metric's bound.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        return 0.0;
    }
    ((q3 - q1) / q2).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_reports_sample_count_and_tail() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let p50 = percentile(&xs, 50.0);
        assert_eq!((p50.value, p50.samples, p50.beyond), (100.0, 200, 100));
        let p99 = percentile(&xs, 99.0);
        assert_eq!((p99.value, p99.samples, p99.beyond), (198.0, 200, 2));
        // A p99 over few samples is the maximum and says so.
        let few = percentile(&[5.0, 1.0, 3.0], 99.0);
        assert_eq!((few.value, few.samples, few.beyond), (5.0, 3, 0));
        assert_eq!(percentile(&[], 50.0).samples, 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0; 10]), 0.0);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }
}
