//! The window function for spectral analysis.
//!
//! The paper's `welchwindow` operator applies a **Welch window** to each
//! resliced record "helping minimize edge effects between records"
//! (§3). Welch is the parabolic window `w(i) = 1 - ((i - N/2) / (N/2))²`,
//! and it is the one shape the pipeline uses: `spectrum` folds its
//! coefficients into the real FFT's input gather.

/// The window shape: the paper's Welch window.
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
    /// Welch's parabolic window.
    #[default]
    Welch,
}

impl WindowKind {
    /// Materializes the full `n`-point window; a one-point window is
    /// `[1.0]`.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        let WindowKind::Welch = self;
        if n <= 1 {
            return vec![1.0; n];
        }
        let half = (n - 1) as f64 / 2.0;
        (0..n)
            .map(|i| {
                let t = (i as f64 - half) / half;
                1.0 - t * t
            })
            .collect()
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
        for &n in &[0usize, 1, 2, 3, 64, 700] {
            for (i, c) in WindowKind::Welch.coefficients(n).into_iter().enumerate() {
                assert!((-1e-12..=1.0 + 1e-12).contains(&c), "n={n} i={i}: {c}");
            }
        }
    }

    #[test]
    fn all_windows_symmetric() {
        let n = 700;
        let w = WindowKind::Welch.coefficients(n);
        for i in 0..n / 2 {
            assert!((w[i] - w[n - 1 - i]).abs() < 1e-12, "at {i}");
        }
    }

    #[test]
    fn single_point_window_is_one() {
        assert_eq!(WindowKind::Welch.coefficients(1), [1.0]);
    }
}
