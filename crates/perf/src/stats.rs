//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a handful of per-round values (mean of the middle two when the
/// count is even). Panics on an empty slice: every caller has ≥ 1 round.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One latency per op out of its executions, one per round: the second
/// fastest (the lower quartile of five). The fastest alone rewards one lucky
/// execution; the median needs three of five rounds to be undisturbed at
/// that op.
pub fn per_op_latency(rounds: &[Vec<f64>]) -> Vec<f64> {
    let mut executions = Vec::with_capacity(rounds.len());
    (0..rounds[0].len())
        .map(|op| {
            executions.clear();
            executions.extend(rounds.iter().map(|round| round[op]));
            executions.sort_unstable_by(f64::total_cmp);
            executions[1.min(executions.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(percentile::<u64>(&[], 50.0), None);
        assert_eq!(percentile(&[7u64], 0.0), Some(7));
        assert_eq!(percentile(&[7u64], 50.0), Some(7));
        assert_eq!(percentile(&[7u64], 100.0), Some(7));
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 10.0), Some(1));
        assert_eq!(percentile(&v, 10.1), Some(2));
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 95.0), Some(10));
        assert_eq!(percentile(&v, 100.0), Some(10));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 95.0), Some(95));
        assert_eq!(percentile(&v, 99.0), Some(99));
    }

    #[test]
    fn per_op_latency_is_the_second_fastest_execution() {
        let inf = f64::INFINITY;
        let rounds = vec![
            vec![5.0, 1.0, inf, inf],
            vec![3.0, 9.0, 7.0, inf],
            vec![4.0, 2.0, inf, inf],
        ];
        // Op 2 succeeded once, op 3 never: neither has a second execution.
        assert_eq!(per_op_latency(&rounds), vec![4.0, 2.0, inf, inf]);
        assert_eq!(per_op_latency(&[vec![6.0, 8.0]]), vec![6.0, 8.0]);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
