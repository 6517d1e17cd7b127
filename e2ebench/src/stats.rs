//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it. `p` is a
/// fraction in `(0, 1]`; an empty sample has no percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p` percentile: how many
/// observations the percentile rests on from above. A percentile is
/// reported as trustworthy when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A latency distribution summarized as its median and 90th
/// percentile, with the sample count both rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
}

impl Latency {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Latency {
            n: v.len(),
            p50: percentile(&v, 0.5)?,
            p90: percentile(&v, 0.9)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p90_rests_on_ten_samples_from_one_hundred() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1000, 0.5), 500);
        assert_eq!(samples_beyond(1, 0.9), 0);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn latency_summary_carries_its_sample_count() {
        let samples: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let l = Latency::of(&samples).unwrap();
        assert_eq!(l.n, 200);
        assert_eq!(l.p50, 99.0);
        assert_eq!(l.p90, 179.0);
        assert!(Latency::of(&[]).is_none());
    }
}
