//! Order statistics for latency samples: the median and the tail rule
//! every timing in this benchmark is reported with.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile a sample supports: the value with exactly
/// [`TAIL_BEYOND`] samples ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Its percentile, `100 * (n - TAIL_BEYOND) / n`.
    pub percentile: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// Median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it; `None` when there are too few samples to leave that many.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 0.0, "only the minimum has ten samples above it");
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100 shuffled: the tail is p90 = 90, with 91..=100 beyond.
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        values.reverse();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 989.0);
        assert!((t.percentile - 99.0).abs() < 1e-9);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        // Twenty equal samples: the tail is the 10th-ranked one.
        let values = vec![5.0; 20];
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 5.0);
        assert_eq!(t.percentile, 50.0);
    }
}
