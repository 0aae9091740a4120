//! A tiny positive rational type for exact schedule ratios.
//!
//! Schedule construction needs the oversubscription ratio `q` (§4) as an
//! exact fraction so that intra- and inter-clique slot counts come out as
//! integers. The paper's ideal `q* = 2/(1-x)` is rational whenever the
//! locality ratio `x` is, so exact construction is the common case;
//! [`Ratio::approximate`] handles arbitrary floats via continued fractions.

use std::fmt;

/// A positive rational number `num/den` in lowest terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: u64,
    den: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// Builds `num/den`, reduced to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0` or `num == 0` (schedule ratios are positive).
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "denominator must be nonzero");
        assert!(num != 0, "schedule ratios must be positive");
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// An integer ratio `k/1`.
    pub fn integer(k: u64) -> Self {
        Ratio::new(k, 1)
    }

    /// Numerator (lowest terms).
    #[inline]
    pub fn num(self) -> u64 {
        self.num
    }

    /// Denominator (lowest terms).
    #[inline]
    pub fn den(self) -> u64 {
        self.den
    }

    /// Value as `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Best rational approximation of `x` with denominator at most
    /// `max_den`, via the continued-fraction convergents of `x`.
    ///
    /// # Panics
    /// Panics if `x <= 0`, is not finite, or `max_den == 0`.
    pub fn approximate(x: f64, max_den: u64) -> Self {
        assert!(
            x.is_finite() && x > 0.0,
            "ratio must be positive and finite"
        );
        assert!(max_den > 0, "max_den must be positive");
        // Continued fraction expansion tracking convergents h/k.
        let (mut h0, mut k0, mut h1, mut k1) = (1u64, 0u64, x.floor() as u64, 1u64);
        let mut frac = x - x.floor();
        // Track the best convergent seen so far whose denominator fits.
        let (mut best_h, mut best_k) = (h1.max(1), k1);
        for _ in 0..64 {
            if frac.abs() < 1e-15 {
                break;
            }
            let r = 1.0 / frac;
            let a = r.floor() as u64;
            frac = r - r.floor();
            let h2 = a.saturating_mul(h1).saturating_add(h0);
            let k2 = a.saturating_mul(k1).saturating_add(k0);
            if k2 > max_den {
                break;
            }
            h0 = h1;
            k0 = k1;
            h1 = h2;
            k1 = k2;
            best_h = h1.max(1);
            best_k = k1;
        }
        Ratio::new(best_h, best_k.max(1))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let r = Ratio::new(50, 11);
        assert_eq!((r.num(), r.den()), (50, 11));
        let r = Ratio::new(6, 4);
        assert_eq!((r.num(), r.den()), (3, 2));
    }

    #[test]
    fn ideal_q_for_paper_locality() {
        // x = 0.56 => q = 2/0.44 = 200/44 = 50/11.
        let q = Ratio::new(200, 44);
        assert_eq!((q.num(), q.den()), (50, 11));
        assert!((q.to_f64() - 4.5454545).abs() < 1e-6);
    }

    #[test]
    fn approximate_recovers_simple_fractions() {
        let r = Ratio::approximate(0.75, 100);
        assert_eq!((r.num(), r.den()), (3, 4));
        let r = Ratio::approximate(50.0 / 11.0, 100);
        assert_eq!((r.num(), r.den()), (50, 11));
        let r = Ratio::approximate(3.0, 10);
        assert_eq!((r.num(), r.den()), (3, 1));
    }

    #[test]
    fn approximate_respects_max_denominator() {
        let r = Ratio::approximate(std::f64::consts::PI, 100);
        assert!(r.den() <= 100);
        // Best convergent with den <= 100 is 22/7 (error ~1.3e-3).
        assert_eq!((r.num(), r.den()), (22, 7));
        assert!((r.to_f64() - std::f64::consts::PI).abs() < 1.5e-3);
    }

    #[test]
    fn display() {
        let r = Ratio::new(3, 2);
        assert_eq!(r.to_string(), "3/2");
        assert_eq!(Ratio::integer(4).to_string(), "4");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_rejected() {
        let _ = Ratio::new(0, 5);
    }
}
