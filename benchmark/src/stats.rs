//! Estimators: nearest-rank percentiles and medians.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Which end of a sample is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The quartile on the good side of the per-segment values: the first
/// quartile of times, the third of rates (nearest rank).
///
/// Segment timings on a shared machine are disturbed from one side only —
/// whatever else runs there adds time — and often for more than half of a
/// run, so the median moves with the machine.  The good quartile needs only
/// a quarter of the segments to be quiet, and unlike the single best segment
/// it does not reward one lucky draw.  With fewer than five values the
/// quartile *is* the best one, so those (a `--smoke` run's single segment)
/// get the median.
pub fn good_quartile(values: &[f64], better: Better) -> f64 {
    if values.len() < 5 {
        return median(values);
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    if better == Better::Higher {
        v.reverse();
    }
    v[(v.len() as f64 * 0.25).ceil() as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_golden_values() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 95.0), 95);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&sample, 100.0), 100);
        assert_eq!(percentile(&[7], 95.0), 7);
        // 10 samples: p95 needs 9.5 -> the 10th.
        let ten: Vec<u64> = (1..=10).map(|v| v * 10).collect();
        assert_eq!(percentile(&ten, 95.0), 100);
        assert_eq!(percentile(&ten, 50.0), 50);
    }

    #[test]
    fn median_ignores_one_spoiled_segment() {
        // One noisy-neighbour segment out of five must not move the metric.
        assert_eq!(median(&[10.0, 11.0, 500.0, 9.0, 10.5]), 10.5);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn good_quartile_needs_only_a_quarter_of_the_segments_quiet() {
        // Five of eight segments disturbed: the quiet level still shows.
        let times = [10.1, 13.0, 12.5, 10.0, 14.0, 10.2, 12.8, 13.3];
        assert_eq!(good_quartile(&times, Better::Lower), 10.1);
        let rates = [100.0, 80.0, 99.0, 70.0, 98.0];
        assert_eq!(good_quartile(&rates, Better::Higher), 99.0);
        // Too few values for a quartile that is not the luckiest one.
        assert_eq!(good_quartile(&[7.0], Better::Lower), 7.0);
        assert_eq!(good_quartile(&[9.0, 7.0, 8.0, 30.0], Better::Lower), 8.5);
    }
}
