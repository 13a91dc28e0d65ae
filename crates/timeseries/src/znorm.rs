//! Z-normalization.
//!
//! The first step of PAA/SAX conversion (paper §2): each element of a
//! sequence `Q` is replaced by `(q_i - μ) / σ`. This equalizes "similar
//! acoustic patterns that differ in signal strength".

/// Z-normalizes a sequence: subtracts the mean and divides by the
/// population standard deviation.
///
/// A sequence with zero variance (constant, or empty) normalizes to all
/// zeros rather than dividing by zero; this matches the convention used
/// by the SAX reference implementations, where flat subsequences map to
/// the middle symbol.
///
/// # Example
///
/// ```
/// use river_sax::znormalize;
///
/// let z = znormalize(&[2.0, 4.0, 6.0]);
/// assert!(z[1].abs() < 1e-12);              // mean removed
/// assert!((z[2] + z[0]).abs() < 1e-12);     // symmetric
/// ```
pub fn znormalize(q: &[f64]) -> Vec<f64> {
    let mut out = q.to_vec();
    znormalize_in_place(&mut out);
    out
}

/// In-place variant of [`znormalize`].
pub fn znormalize_in_place(q: &mut [f64]) {
    if q.is_empty() {
        return;
    }
    let n = q.len() as f64;
    let mean = q.iter().sum::<f64>() / n;
    let var = q.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    if std == 0.0 || !std.is_finite() {
        q.fill(0.0);
        return;
    }
    for x in q.iter_mut() {
        *x = (*x - mean) / std;
    }
}

/// Normalizes one value against an externally maintained mean and
/// standard deviation (the streaming form used by the `saxanomaly`
/// operator with a sliding window). A non-positive or non-finite `std`
/// maps to `0.0`.
///
/// Written as a division followed by a select on two ordered float
/// comparisons so that a loop over samples packs. (`std < INFINITY`
/// would read the same, but the compiler folds that pair of tests into
/// a bit-level class test that baseline x86-64 cannot pack.)
#[inline]
pub fn znorm_value(x: f64, mean: f64, std: f64) -> f64 {
    let z = (x - mean) / std;
    if std > 0.0 && std <= f64::MAX {
        z
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_has_zero_mean_unit_variance() {
        let q: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 7.0 + 3.0)
            .collect();
        let z = znormalize(&q);
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        let var: f64 = z.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scale_and_offset_invariance() {
        let q: Vec<f64> = (0..64).map(|i| (i as f64 * 0.9).cos()).collect();
        let shifted: Vec<f64> = q.iter().map(|x| x * 5.0 + 100.0).collect();
        let za = znormalize(&q);
        let zb = znormalize(&shifted);
        for (a, b) in za.iter().zip(&zb) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_sequence_maps_to_zeros() {
        assert_eq!(znormalize(&[4.2; 8]), vec![0.0; 8]);
    }

    #[test]
    fn empty_sequence() {
        assert!(znormalize(&[]).is_empty());
    }

    #[test]
    fn in_place_matches_copying() {
        let q = vec![1.0, -2.0, 7.5, 0.0];
        let copied = znormalize(&q);
        let mut in_place = q.clone();
        znormalize_in_place(&mut in_place);
        assert_eq!(copied, in_place);
    }

    #[test]
    fn znorm_value_streaming_form() {
        assert_eq!(znorm_value(5.0, 3.0, 2.0), 1.0);
        assert_eq!(znorm_value(5.0, 3.0, 0.0), 0.0);
        assert_eq!(znorm_value(5.0, 3.0, f64::NAN), 0.0);
        assert_eq!(znorm_value(5.0, 3.0, f64::INFINITY), 0.0);
        assert_eq!(znorm_value(5.0, 3.0, -2.0), 0.0);
    }
}
