//! Gaussian quantiles and SAX breakpoints.
//!
//! SAX assumes Z-normalized subsequences are Gaussian and chooses
//! breakpoints so every symbol is equiprobable (paper §2). The
//! breakpoints are the `1/a, 2/a, …, (a-1)/a` quantiles of the standard
//! normal distribution, computed here with the Acklam rational
//! approximation of the inverse normal CDF (|relative error| < 1.15e-9 —
//! far below what symbol quantization can observe).

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// # Panics
///
/// Panics unless `p` is strictly inside `(0, 1)`.
///
/// # Example
///
/// ```
/// use river_sax::gaussian::inv_norm_cdf;
///
/// assert!(inv_norm_cdf(0.5).abs() < 1e-9);
/// assert!((inv_norm_cdf(0.975) - 1.959964).abs() < 1e-5);
/// ```
pub fn inv_norm_cdf(p: f64) -> f64 {
    // Coefficients for the Acklam approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1), got {p}");

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The `alphabet - 1` SAX breakpoints for an alphabet of the given size:
/// the standard-normal quantiles at `i / alphabet`, `i = 1..alphabet`.
///
/// # Panics
///
/// Panics if `alphabet < 2`.
///
/// # Example
///
/// ```
/// use river_sax::gaussian::sax_breakpoints;
///
/// // The canonical alphabet-4 breakpoints from Lin et al.
/// let b = sax_breakpoints(4);
/// assert!((b[0] + 0.6745).abs() < 1e-3);
/// assert!(b[1].abs() < 1e-9);
/// assert!((b[2] - 0.6745).abs() < 1e-3);
/// ```
pub fn sax_breakpoints(alphabet: usize) -> Vec<f64> {
    assert!(alphabet >= 2, "alphabet must be at least 2, got {alphabet}");
    (1..alphabet)
        .map(|i| inv_norm_cdf(i as f64 / alphabet as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inv_cdf_known_quantiles() {
        // Classic table values.
        let cases = [
            (0.5, 0.0),
            (0.8413447, 1.0),
            (0.9772499, 2.0),
            (0.0013499, -3.0),
            (0.9986501, 3.0),
        ];
        for (p, z) in cases {
            assert!((inv_norm_cdf(p) - z).abs() < 1e-4, "p={p}");
        }
    }

    #[test]
    fn inv_cdf_is_odd_about_half() {
        for &p in &[0.01, 0.1, 0.25, 0.4] {
            assert!(
                (inv_norm_cdf(p) + inv_norm_cdf(1.0 - p)).abs() < 1e-9,
                "p={p}"
            );
        }
    }

    #[test]
    fn breakpoints_are_sorted_and_symmetric() {
        for a in 2..=20 {
            let b = sax_breakpoints(a);
            assert_eq!(b.len(), a - 1);
            for w in b.windows(2) {
                assert!(w[0] < w[1]);
            }
            for i in 0..b.len() {
                assert!((b[i] + b[b.len() - 1 - i]).abs() < 1e-9, "a={a} i={i}");
            }
        }
    }

    #[test]
    fn paper_alphabet_is_supported() {
        // The paper's experiments use alphabet size 8.
        let b = sax_breakpoints(8);
        assert_eq!(b.len(), 7);
        assert!(b[3].abs() < 1e-9); // median breakpoint at 0
    }

    #[test]
    #[should_panic(expected = "alphabet must be at least 2")]
    fn rejects_tiny_alphabet() {
        sax_breakpoints(1);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn rejects_p_out_of_range() {
        inv_norm_cdf(1.0);
    }
}
