//! Window functions for spectral analysis.
//!
//! The paper's `welchwindow` operator applies a **Welch window** to each
//! resliced record "helping minimize edge effects between records"
//! (§3). Welch is the parabolic window `w(i) = 1 - ((i - N/2) / (N/2))²`.
//! Other common windows are provided for comparison and for the synthetic
//! workload generator.

use std::f64::consts::PI;

/// The supported window shapes.
///
/// # Example
///
/// ```
/// use river_dsp::window::WindowKind;
///
/// let w = WindowKind::Welch.coefficients(5);
/// assert!((w[2] - 1.0).abs() < 1e-12); // parabola peaks mid-window
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WindowKind {
    /// All-ones window (no tapering).
    Rectangular,
    /// Welch's parabolic window — the pipeline default.
    #[default]
    Welch,
    /// Hann raised-cosine window.
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window.
    Blackman,
    /// Symmetric triangular (Bartlett) window.
    Bartlett,
}

impl WindowKind {
    /// The window coefficient at sample `i` of an `n`-point window.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n == 0`.
    pub fn coefficient(self, i: usize, n: usize) -> f64 {
        assert!(n > 0, "window length must be non-zero");
        assert!(i < n, "window index {i} out of range for length {n}");
        if n == 1 {
            return 1.0;
        }
        let nm1 = (n - 1) as f64;
        let x = i as f64;
        match self {
            WindowKind::Rectangular => 1.0,
            WindowKind::Welch => {
                let half = nm1 / 2.0;
                let t = (x - half) / half;
                1.0 - t * t
            }
            WindowKind::Hann => 0.5 * (1.0 - (2.0 * PI * x / nm1).cos()),
            WindowKind::Hamming => 0.54 - 0.46 * (2.0 * PI * x / nm1).cos(),
            WindowKind::Blackman => {
                0.42 - 0.5 * (2.0 * PI * x / nm1).cos() + 0.08 * (4.0 * PI * x / nm1).cos()
            }
            WindowKind::Bartlett => {
                let half = nm1 / 2.0;
                1.0 - ((x - half) / half).abs()
            }
        }
    }

    /// Materializes the full `n`-point window.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.coefficient(i, n)).collect()
    }

    /// Multiplies `samples` by the window in place.
    ///
    /// This is the paper's `welchwindow` step (with
    /// [`WindowKind::Welch`]).
    pub fn apply(self, samples: &mut [f64]) {
        let n = samples.len();
        if n == 0 {
            return;
        }
        for (i, s) in samples.iter_mut().enumerate() {
            *s *= self.coefficient(i, n);
        }
    }

    /// All window kinds, for sweeps and tests.
    pub const ALL: [WindowKind; 6] = [
        WindowKind::Rectangular,
        WindowKind::Welch,
        WindowKind::Hann,
        WindowKind::Hamming,
        WindowKind::Blackman,
        WindowKind::Bartlett,
    ];
}

impl std::fmt::Display for WindowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            WindowKind::Rectangular => "rectangular",
            WindowKind::Welch => "welch",
            WindowKind::Hann => "hann",
            WindowKind::Hamming => "hamming",
            WindowKind::Blackman => "blackman",
            WindowKind::Bartlett => "bartlett",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welch_is_parabolic_and_symmetric() {
        let n = 101;
        let w = WindowKind::Welch.coefficients(n);
        assert!((w[50] - 1.0).abs() < 1e-12);
        assert!(w[0].abs() < 1e-12);
        assert!(w[n - 1].abs() < 1e-12);
        for i in 0..n {
            assert!((w[i] - w[n - 1 - i]).abs() < 1e-12, "asymmetry at {i}");
        }
    }

    #[test]
    fn all_windows_bounded_zero_to_one() {
        for kind in WindowKind::ALL {
            for &n in &[2usize, 3, 64, 700] {
                for (i, c) in kind.coefficients(n).into_iter().enumerate() {
                    assert!(
                        (-1e-12..=1.0 + 1e-12).contains(&c),
                        "{kind} n={n} i={i}: {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_windows_symmetric() {
        for kind in WindowKind::ALL {
            let n = 700;
            let w = kind.coefficients(n);
            for i in 0..n / 2 {
                assert!((w[i] - w[n - 1 - i]).abs() < 1e-12, "{kind} at {i}");
            }
        }
    }

    #[test]
    fn rectangular_is_identity() {
        let mut v = vec![1.5; 16];
        WindowKind::Rectangular.apply(&mut v);
        assert!(v.iter().all(|&x| x == 1.5));
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let w = WindowKind::Hann.coefficients(64);
        assert!(w[0].abs() < 1e-12);
        assert!(w[63].abs() < 1e-12);
    }

    #[test]
    fn single_point_window_is_one() {
        for kind in WindowKind::ALL {
            assert_eq!(kind.coefficient(0, 1), 1.0);
        }
    }

    #[test]
    fn empty_apply_is_noop() {
        let mut v: Vec<f64> = vec![];
        WindowKind::Welch.apply(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coefficient_index_checked() {
        WindowKind::Welch.coefficient(5, 5);
    }
}
