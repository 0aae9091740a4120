//! Flow-size distributions.
//!
//! Figure 2(f)'s simulation uses "real-world traffic [2]" — the pFabric
//! workloads. Those are defined by empirical flow-size CDFs: the
//! *web-search* distribution (from DCTCP's production measurements) and
//! the *data-mining* distribution (from VL2). We encode the standard
//! published CDF points and sample by inverse transform with linear
//! interpolation inside each segment (the common practice in DCN
//! simulators; see DESIGN.md substitutions).
use sorn_base::rng::Rng;
use std::fmt;

/// Errors building a distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// CDF points must be non-empty, sorted, and end at probability 1.
    InvalidCdf(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::InvalidCdf(m) => write!(f, "invalid CDF: {m}"),
        }
    }
}

impl std::error::Error for DistError {}

/// A flow-size distribution defined by an empirical CDF.
///
/// ```
/// use sorn_traffic::FlowSizeDist;
///
/// let ws = FlowSizeDist::web_search();
/// // Median web-search flow is tens of kilobytes; the mean is dominated
/// // by the multi-megabyte tail.
/// assert!(ws.quantile(0.5) > 20_000);
/// assert!(ws.mean_bytes() > 1.0e6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSizeDist {
    name: String,
    /// `(size_bytes, cumulative_probability)` points, sorted in both
    /// coordinates, last probability = 1.
    points: Vec<(f64, f64)>,
}

impl FlowSizeDist {
    /// Builds a distribution from CDF points `(size_bytes, cum_prob)`.
    ///
    /// The first point's probability may be positive (an atom at the
    /// minimum size); probabilities must be non-decreasing and end at 1.
    pub fn from_cdf(name: &str, points: &[(f64, f64)]) -> Result<Self, DistError> {
        if points.is_empty() {
            return Err(DistError::InvalidCdf("no points".into()));
        }
        let mut prev = (0.0f64, -1.0f64);
        for &(s, p) in points {
            if !s.is_finite() || s <= 0.0 {
                return Err(DistError::InvalidCdf(format!("size {s} must be positive")));
            }
            if !(0.0..=1.0).contains(&p) {
                return Err(DistError::InvalidCdf(format!(
                    "probability {p} outside [0,1]"
                )));
            }
            if s < prev.0 || p < prev.1 {
                return Err(DistError::InvalidCdf(
                    "points must be sorted in size and probability".into(),
                ));
            }
            prev = (s, p);
        }
        if (prev.1 - 1.0).abs() > 1e-9 {
            return Err(DistError::InvalidCdf(format!(
                "last probability {} must be 1",
                prev.1
            )));
        }
        Ok(FlowSizeDist {
            name: name.to_string(),
            points: points.to_vec(),
        })
    }

    /// Every flow has the same size.
    pub fn fixed(bytes: u64) -> Self {
        FlowSizeDist {
            name: format!("fixed-{bytes}B"),
            points: vec![(bytes as f64, 1.0)],
        }
    }

    /// Uniform between `lo` and `hi` bytes.
    ///
    /// # Panics
    /// Panics if `lo` is zero or `lo > hi`.
    pub fn uniform(lo: u64, hi: u64) -> Self {
        assert!(lo > 0 && lo <= hi, "need 0 < lo <= hi");
        FlowSizeDist {
            name: format!("uniform-{lo}-{hi}B"),
            points: vec![(lo as f64, 0.0), (hi as f64, 1.0)],
        }
    }

    /// The pFabric *web-search* workload (DCTCP production CDF):
    /// a mix of small latency-sensitive requests and multi-megabyte
    /// responses; mean ≈ 1.6 MB.
    pub fn web_search() -> Self {
        const KB: f64 = 1e3;
        Self::from_cdf(
            "pfabric-web-search",
            &[
                (6.0 * KB, 0.15),
                (13.0 * KB, 0.20),
                (19.0 * KB, 0.30),
                (33.0 * KB, 0.40),
                (53.0 * KB, 0.53),
                (133.0 * KB, 0.60),
                (667.0 * KB, 0.70),
                (1_333.0 * KB, 0.80),
                (3_333.0 * KB, 0.90),
                (6_667.0 * KB, 0.95),
                (20_000.0 * KB, 0.98),
                (30_000.0 * KB, 1.00),
            ],
        )
        .expect("static CDF is valid")
    }

    /// The pFabric *data-mining* workload (VL2 CDF): extremely heavy
    /// tailed — half the flows are under ~1 KB while a tiny fraction
    /// reach a gigabyte.
    pub fn data_mining() -> Self {
        Self::from_cdf(
            "pfabric-data-mining",
            &[
                (100.0, 0.00),
                (180.0, 0.10),
                (250.0, 0.20),
                (560.0, 0.30),
                (900.0, 0.40),
                (1_100.0, 0.50),
                (1_870.0, 0.60),
                (3_160.0, 0.70),
                (10_000.0, 0.80),
                (400_000.0, 0.90),
                (3.16e6, 0.95),
                (1.0e8, 0.98),
                (1.0e9, 1.00),
            ],
        )
        .expect("static CDF is valid")
    }

    /// Distribution name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Samples one flow size in bytes.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// The `u`-quantile (inverse CDF), `u` in `[0, 1]`.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let first = self.points[0];
        if u <= first.1 {
            return first.0.round() as u64;
        }
        for w in self.points.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                if p1 == p0 {
                    return s1.round() as u64;
                }
                let frac = (u - p0) / (p1 - p0);
                return (s0 + frac * (s1 - s0)).round().max(1.0) as u64;
            }
        }
        self.points.last().expect("nonempty").0.round() as u64
    }

    /// Analytical mean of the (piecewise-linear) distribution, in bytes.
    pub fn mean_bytes(&self) -> f64 {
        let first = self.points[0];
        let mut mean = first.1 * first.0; // atom at the minimum size
        for w in self.points.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            mean += (p1 - p0) * (s0 + s1) / 2.0;
        }
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_uniform_basics() {
        let f = FlowSizeDist::fixed(5000);
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(f.sample(&mut rng), 5000);
        assert!((f.mean_bytes() - 5000.0).abs() < 1e-9);

        let u = FlowSizeDist::uniform(100, 300);
        assert!((u.mean_bytes() - 200.0).abs() < 1e-9);
        for _ in 0..100 {
            let s = u.sample(&mut rng);
            assert!((100..=300).contains(&s));
        }
    }

    #[test]
    fn quantiles_hit_cdf_points() {
        let ws = FlowSizeDist::web_search();
        assert_eq!(ws.quantile(0.15), 6_000);
        assert_eq!(ws.quantile(0.80), 1_333_000);
        assert_eq!(ws.quantile(1.0), 30_000_000);
        // Below the first probability: the minimum size atom.
        assert_eq!(ws.quantile(0.01), 6_000);
    }

    #[test]
    fn web_search_mean_is_about_1_6_mb() {
        let m = FlowSizeDist::web_search().mean_bytes();
        assert!(m > 1.2e6 && m < 2.2e6, "mean {m}");
    }

    #[test]
    fn data_mining_is_heavier_tailed_than_web_search() {
        let dm = FlowSizeDist::data_mining();
        let ws = FlowSizeDist::web_search();
        // Median: data mining ~1.1 KB, web search ~43 KB.
        assert!(dm.quantile(0.5) < 2_000);
        assert!(ws.quantile(0.5) > 20_000);
        // Yet the data-mining tail is larger.
        assert!(dm.quantile(1.0) > ws.quantile(1.0));
    }

    #[test]
    fn sample_statistics_match_mean() {
        let ws = FlowSizeDist::web_search();
        let mut rng = Rng::seed_from_u64(42);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| ws.sample(&mut rng) as f64).sum();
        let emp = total / n as f64;
        let ana = ws.mean_bytes();
        assert!(
            (emp / ana - 1.0).abs() < 0.05,
            "empirical {emp} vs analytical {ana}"
        );
    }

    #[test]
    fn invalid_cdfs_rejected() {
        assert!(FlowSizeDist::from_cdf("e", &[]).is_err());
        assert!(FlowSizeDist::from_cdf("e", &[(100.0, 0.5)]).is_err()); // doesn't end at 1
        assert!(FlowSizeDist::from_cdf("e", &[(100.0, 0.7), (50.0, 1.0)]).is_err()); // unsorted
        assert!(FlowSizeDist::from_cdf("e", &[(0.0, 1.0)]).is_err()); // zero size
        assert!(FlowSizeDist::from_cdf("e", &[(10.0, 1.2)]).is_err()); // bad prob
    }

    #[test]
    fn deterministic_sampling() {
        let ws = FlowSizeDist::web_search();
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(ws.sample(&mut a), ws.sample(&mut b));
        }
    }
}
