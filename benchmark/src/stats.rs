//! Median and quartiles the way the acceptance pipeline computes them.

/// Median and quartiles of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles by the exclusive method of Python's
    /// `statistics.quantiles(values, n=4)`, so a spread computed here
    /// equals the one the pipeline computes from the same values. A
    /// single value is its own quartiles. `None` for no values or a
    /// non-finite one.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let m = sorted.len();
        if m == 1 {
            let v = sorted[0];
            return Some(Summary {
                n: 1,
                q1: v,
                median: v,
                q3: v,
            });
        }
        let quartile = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Some(Summary {
            n: m,
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
        })
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10,20,30], n=4) == [10.0, 20.0, 30.0]
        let s = Summary::of(&[30.0, 10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 30.0));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        let s = Summary::of(&[9.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 6.0, 10.5));
        // ten values, as in the acceptance runs:
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (7.0, 7.0, 7.0, 0.0)
        );
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }
}
