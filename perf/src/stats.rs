//! Order statistics used by every report: medians, the quartiles the
//! acceptance rule is stated in, and the tail-percentile rule.

/// Median, first and third quartile and sample count of a set of
/// measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted)?;
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// The interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of sorted data by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive"
/// method), so the spread printed here is the one the benchmark's
/// acceptance rule computes. One value is its own quartiles.
fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let n = sorted.len();
    match n {
        0 => None,
        1 => Some([sorted[0]; 3]),
        _ => {
            let m = n + 1;
            Some([1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            }))
        }
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Percentiles a tail latency may be reported at, highest first, in
/// tenths of a percent.
const TAIL_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// The highest reportable percentile for `n` samples: the highest one
/// that leaves at least ten samples beyond it (100 samples give p90,
/// 1000 give p99). `None` below 20 samples, where only the median is
/// meaningful.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    TAIL_PERMILLE
        .iter()
        .find(|&&p| n * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between the closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[4.0]).unwrap().median, 4.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }
}
