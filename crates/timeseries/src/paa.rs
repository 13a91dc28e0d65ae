//! Piecewise Aggregate Approximation (PAA).
//!
//! PAA converts a length-`n` sequence into `w ≤ n` segment means (paper
//! §2, after Keogh et al. and Yi & Faloutsos). The pipeline's optional
//! `paa` operator reduces each 350-bin spectral record by a factor of 10
//! to 35 values (so a 1050-feature pattern becomes 105 features).

/// Reduces `q` to `segments` segment means.
///
/// When `q.len()` is not a multiple of `segments`, fractional boundaries
/// are handled by weighting edge samples proportionally (the standard
/// generalized-PAA formulation), so every input sample contributes
/// exactly once in total.
///
/// # Panics
///
/// Panics if `segments == 0` or `segments > q.len()` for non-empty input.
///
/// # Example
///
/// ```
/// use river_sax::paa;
///
/// let reduced = paa(&[1.0, 3.0, 5.0, 7.0], 2);
/// assert_eq!(reduced, vec![2.0, 6.0]);
/// ```
pub fn paa(q: &[f64], segments: usize) -> Vec<f64> {
    assert!(segments > 0, "segments must be non-zero");
    if q.is_empty() {
        return Vec::new();
    }
    assert!(
        segments <= q.len(),
        "cannot expand: {segments} segments for {} samples",
        q.len()
    );
    let n = q.len();
    if segments == n {
        return q.to_vec();
    }
    // Exact-division fast path.
    if n.is_multiple_of(segments) {
        let len = n / segments;
        return q
            .chunks_exact(len)
            .map(|c| c.iter().sum::<f64>() / len as f64)
            .collect();
    }
    // General case: distribute samples fractionally across segments.
    let seg_len = n as f64 / segments as f64;
    let mut out = Vec::with_capacity(segments);
    for s in 0..segments {
        let start = s as f64 * seg_len;
        let end = start + seg_len;
        let mut acc = 0.0;
        let mut i = start.floor() as usize;
        while (i as f64) < end && i < n {
            let lo = (i as f64).max(start);
            let hi = ((i + 1) as f64).min(end);
            acc += q[i] * (hi - lo);
            i += 1;
        }
        out.push(acc / seg_len);
    }
    out
}

/// Reduces `q` by an integer factor: output length is
/// `ceil(q.len() / factor)`; the final segment may cover fewer samples.
///
/// This is the record-oriented form used by the pipeline's `paa`
/// operator ("reduced by a factor of 10", paper §3/§4).
///
/// # Panics
///
/// Panics if `factor == 0`.
///
/// # Example
///
/// ```
/// use river_sax::paa::paa_by_factor;
///
/// assert_eq!(paa_by_factor(&[2.0, 4.0, 6.0, 8.0, 10.0], 2), vec![3.0, 7.0, 10.0]);
/// ```
pub fn paa_by_factor(q: &[f64], factor: usize) -> Vec<f64> {
    paa_by_factor_iter(q, factor).collect()
}

/// The segment means of [`paa_by_factor`], computed as they are taken,
/// so a caller can collect them straight into its own buffer type.
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn paa_by_factor_iter(q: &[f64], factor: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
    assert!(factor > 0, "factor must be non-zero");
    q.chunks(factor)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        assert_eq!(paa(&[1.0, 1.0, 5.0, 5.0], 2), vec![1.0, 5.0]);
    }

    #[test]
    fn identity_when_segments_equal_len() {
        let q = vec![3.0, 1.0, 4.0];
        assert_eq!(paa(&q, 3), q);
    }

    #[test]
    fn single_segment_is_mean() {
        let q = vec![2.0, 4.0, 9.0];
        assert_eq!(paa(&q, 1), vec![5.0]);
    }

    #[test]
    fn fractional_boundaries_preserve_total_mass() {
        // 5 samples into 2 segments: each segment covers 2.5 samples.
        let q = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let r = paa(&q, 2);
        // Sum of (mean * seg_len) must equal the sum of the input.
        let mass: f64 = r.iter().map(|m| m * 2.5).sum();
        assert!((mass - 15.0).abs() < 1e-12);
        // First segment: 1 + 2 + half of 3 = 4.5 over 2.5 -> 1.8
        assert!((r[0] - 1.8).abs() < 1e-12);
        assert!((r[1] - 4.2).abs() < 1e-12);
    }

    #[test]
    fn preserves_mean_of_signal() {
        let q: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        for &w in &[4usize, 7, 10, 33] {
            let r = paa(&q, w);
            let mean_q: f64 = q.iter().sum::<f64>() / q.len() as f64;
            let mean_r: f64 = r.iter().sum::<f64>() / r.len() as f64;
            assert!((mean_q - mean_r).abs() < 1e-9, "w={w}");
        }
    }

    #[test]
    fn smoothing_reduces_variance() {
        let q: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761usize) % 1000) as f64)
            .collect();
        let r = paa(&q, 10);
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&r) < var(&q));
    }

    #[test]
    fn by_factor_shapes() {
        assert_eq!(paa_by_factor(&[1.0; 350], 10).len(), 35);
        assert_eq!(paa_by_factor(&[1.0; 351], 10).len(), 36);
        assert_eq!(paa_by_factor(&[4.0, 8.0], 5), vec![6.0]);
    }

    #[test]
    fn empty_input() {
        assert!(paa(&[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot expand")]
    fn rejects_expansion() {
        paa(&[1.0, 2.0], 5);
    }

    #[test]
    #[should_panic(expected = "segments must be non-zero")]
    fn rejects_zero_segments() {
        paa(&[1.0], 0);
    }
}
