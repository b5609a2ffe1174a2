//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), the same rule the benchmark's spread
//! check uses, so numbers printed here and numbers recomputed from the
//! printed samples agree.

/// A sample set summarised by its median and quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        let median = median_sorted(&sorted)?;
        let [q1, _, q3] = quartiles_sorted(&sorted);
        Some(Summary { samples: sorted.len(), median, q1, q3 })
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(v: &[f64]) -> Option<f64> {
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    median_sorted(&sorted(values))
}

/// The three cut points of Python's `statistics.quantiles(v, n=4)`
/// with the exclusive method: position `i * (len + 1) / 4`, clamped to
/// the data and interpolated linearly. A single sample is its own
/// quartiles; an empty slice yields NaN.
fn quartiles_sorted(v: &[f64]) -> [f64; 3] {
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let n = 4i64;
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        // Python clamps the index but not `delta`, so with two samples
        // the outer cut points extrapolate past the data.
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Python-compatible quartiles of `values` (see [`quartiles_sorted`]).
#[cfg(test)]
fn quartiles(values: &[f64]) -> [f64; 3] {
    quartiles_sorted(&sorted(values))
}

/// Nearest-rank percentile `p` in `(0, 100]`: the smallest sample with
/// at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3:
        //   statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        //   statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        //   statistics.quantiles([5, 1], n=4)       == [0.0, 3.0, 6.0]
        //   statistics.quantiles([1, 2, 3], n=4)    == [1.0, 2.0, 3.0]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
        let q = quartiles(&[4.0, 2.0, 3.0, 1.0]);
        assert!(close(q[0], 1.25) && close(q[1], 2.5) && close(q[2], 3.75), "{q:?}");
        let q = quartiles(&[5.0, 1.0]);
        assert!(close(q[0], 0.0) && close(q[1], 3.0) && close(q[2], 6.0), "{q:?}");
        let q = quartiles(&[1.0, 2.0, 3.0]);
        assert!(close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 3.0), "{q:?}");
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[]).iter().all(|x| x.is_nan()));
    }

    #[test]
    fn summary_carries_its_sample_count() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 10.0]).expect("non-empty");
        assert_eq!(s.samples, 4);
        assert!(close(s.median, 2.5));
        // Python: statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
        assert!(close(s.q1, 1.25) && close(s.q3, 8.25), "{s:?}");
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[2.0, 1.0], 99.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
