//! Complex number arithmetic.
//!
//! A minimal, dependency-free complex type sufficient for FFT computation
//! and the pipeline's `spectrum` stage. Only `f64` precision
//! is provided; the acoustic pipeline converts samples to `f64` before
//! spectral processing.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use river_dsp::Complex64;
///
/// let a = Complex64::new(3.0, 4.0);
/// assert_eq!(a.abs(), 5.0);
/// assert_eq!(a * Complex64::I, Complex64::new(-4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{i theta}`: a unit-magnitude complex number at angle `theta`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// The magnitude (complex absolute value), as the pipeline's
    /// `spectrum` stage takes it per bin (the paper's `cabs`).
    ///
    /// `sqrt(re² + im²)` whenever that sum sits comfortably inside the
    /// normal range, where neither square can overflow or lose bits to
    /// underflow and the result is within 2 ULP of the true magnitude;
    /// everything else — huge, tiny, zero, infinite or NaN components —
    /// takes libm's `hypot`, so the edge-case behaviour is `hypot`'s.
    #[inline]
    pub fn abs(self) -> f64 {
        let sum = self.norm_sqr();
        if sum > 1e-280 && sum < 1e280 {
            sum.sqrt()
        } else {
            self.re.hypot(self.im)
        }
    }

    /// The squared magnitude; cheaper than [`abs`](Self::abs) when only
    /// relative ordering matters.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64 {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl From<(f64, f64)> for Complex64 {
    fn from((re, im): (f64, f64)) -> Self {
        Complex64::new(re, im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Complex64::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64::new(-self.re, -self.im)
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn construction_and_accessors() {
        let z = Complex64::new(1.5, -2.5);
        assert_eq!(z.re, 1.5);
        assert_eq!(z.im, -2.5);
        assert_eq!(Complex64::from_real(3.0), Complex64::new(3.0, 0.0));
        assert_eq!(Complex64::from(2.0), Complex64::new(2.0, 0.0));
        assert_eq!(Complex64::from((1.0, 2.0)), Complex64::new(1.0, 2.0));
    }

    #[test]
    fn add_sub() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        assert_eq!(a + b, Complex64::new(4.0, -2.0));
        assert_eq!(a - b, Complex64::new(-2.0, 6.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn mul_matches_definition() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        // (1+2i)(3-4i) = 3 - 4i + 6i - 8i^2 = 11 + 2i
        assert_eq!(a * b, Complex64::new(11.0, 2.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -4.0);
        let q = (a * b) / b;
        assert!((q - a).abs() < EPS);
    }

    #[test]
    fn abs_and_norm() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn conjugate_negates_imaginary() {
        let z = Complex64::new(1.0, 2.0);
        assert_eq!(z.conj(), Complex64::new(1.0, -2.0));
        assert!((z * z.conj()).im.abs() < EPS);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * 0.5;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn sum_of_roots_of_unity_is_zero() {
        let n = 16;
        let total: Complex64 = (0..n)
            .map(|k| Complex64::cis(2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .sum();
        assert!(total.abs() < 1e-10);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn nan_detection() {
        assert!(Complex64::new(f64::NAN, 0.0).is_nan());
        assert!(Complex64::new(0.0, f64::NAN).is_nan());
        assert!(!Complex64::new(0.0, 0.0).is_nan());
    }
}
