//! The one percentile of raw samples.
//!
//! Every percentile taken over a slice of per-request values (the
//! cluster simulator's latencies, the autoscaler's window of queue
//! waits, the bench binaries' interruption counts) goes through
//! [`percentile`]. It is nearest-rank, the definition `benchmark/`
//! uses, so a raw-sample p95 is always one of the samples. Pooled
//! counts use [`Histogram::percentile`](crate::Histogram::percentile)
//! instead: once samples are bucketed the value at a rank is gone, and
//! only an in-bucket estimate is left.

/// Nearest-rank `q`-quantile of `samples`, `q` in `(0, 1]`: the value
/// at rank `ceil(q·n)` of the samples sorted by [`f64::total_cmp`].
/// `None` for an empty slice. A `q` outside `(0, 1]` clamps to the
/// smallest or largest sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nearest_rank_matches_the_benchmark_vectors() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.50), Some(50.0));
        assert_eq!(percentile(&hundred, 0.95), Some(95.0));
        assert_eq!(percentile(&hundred, 1.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        // Out-of-range q clamps to the extremes.
        assert_eq!(percentile(&[1.0, 2.0], 1.5), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], -5.0), Some(1.0));
    }

    proptest! {
        #[test]
        fn prop_percentile_is_a_member_and_monotone(
            data in proptest::collection::vec(-1e6f64..1e6, 1..64),
            a in 0.001f64..1.0,
            b in 0.001f64..1.0,
        ) {
            let (lo, hi) = (a.min(b), a.max(b));
            let p_lo = percentile(&data, lo).unwrap();
            let p_hi = percentile(&data, hi).unwrap();
            prop_assert!(data.contains(&p_lo) && data.contains(&p_hi));
            prop_assert!(p_lo <= p_hi, "q {lo} -> {p_lo}, q {hi} -> {p_hi}");
        }
    }
}
