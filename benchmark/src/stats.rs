//! Order statistics the reports are built from.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 * N)`. Never interpolates, so a reported latency is always
/// one that a client observed.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether at least ten samples lie beyond the `p`-th percentile of `n`
/// samples — the rule for the highest percentile a report may state.
pub fn ten_beyond(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= 10
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Mean over classes of each class's mean, weighted by the class's share of
/// the workload. A class without samples drops out with its weight.
pub fn class_weighted_mean(classes: &[(usize, Vec<f64>)]) -> f64 {
    let (mut total, mut weights) = (0.0, 0.0);
    for (weight, samples) in classes.iter().filter(|(_, samples)| !samples.is_empty()) {
        total += *weight as f64 * mean(samples);
        weights += *weight as f64;
    }
    if weights == 0.0 {
        0.0
    } else {
        total / weights
    }
}

/// Quartiles by the method of Python's `statistics.quantiles(v, n=4)`
/// (exclusive), which is what the acceptance check computes spreads with.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        data[j - 1] + (data[j] - data[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_observed_values() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 5.0);
        assert_eq!(percentile(&sample, 90.0), 9.0);
        assert_eq!(percentile(&sample, 91.0), 10.0);
        assert_eq!(percentile(&sample, 100.0), 10.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn ten_beyond_rule() {
        assert!(ten_beyond(100, 90.0));
        assert!(!ten_beyond(99, 90.0));
        assert!(!ten_beyond(100, 91.0));
        assert!(ten_beyond(1000, 99.0));
        assert!(ten_beyond(20, 50.0));
        assert!(!ten_beyond(19, 50.0));
    }

    #[test]
    fn class_weights_follow_shares() {
        let classes = vec![(4, vec![10.0, 30.0]), (1, vec![120.0]), (3, vec![])];
        // (4 * 20 + 1 * 120) / 5
        assert_eq!(class_weighted_mean(&classes), 40.0);
        assert_eq!(class_weighted_mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&sample), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }
}
