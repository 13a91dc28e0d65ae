//! Whole-signal utilities: RMS, peak, peak normalization and mixing.

/// Root-mean-square amplitude of a signal; `0.0` when empty.
///
/// ```
/// use river_dsp::signal::rms;
/// assert!((rms(&[3.0, -3.0, 3.0, -3.0]) - 3.0).abs() < 1e-12);
/// ```
pub fn rms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|&x| x * x).sum::<f64>() / samples.len() as f64).sqrt()
}

/// Peak absolute amplitude; `0.0` when empty.
pub fn peak(samples: &[f64]) -> f64 {
    samples.iter().map(|&x| x.abs()).fold(0.0, f64::max)
}

/// Scales a signal in place so its peak equals `target_peak`.
/// Constant-zero signals are left untouched.
pub fn normalize_peak(samples: &mut [f64], target_peak: f64) {
    let p = peak(samples);
    if p == 0.0 {
        return;
    }
    let k = target_peak / p;
    for s in samples.iter_mut() {
        *s *= k;
    }
}

/// Mixes `src` into `dst` starting at sample `offset`, scaled by `gain`.
/// Samples extending past `dst` are dropped.
///
/// Used by the synthetic clip composer to place song bouts in ambient
/// noise beds.
pub fn mix_into(dst: &mut [f64], src: &[f64], offset: usize, gain: f64) {
    if offset >= dst.len() {
        return;
    }
    let n = src.len().min(dst.len() - offset);
    for i in 0..n {
        dst[offset + i] += src[i] * gain;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_peak_basics() {
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(peak(&[-4.0, 3.0]), 4.0);
    }

    #[test]
    fn normalize_peak_scales() {
        let mut v = vec![0.5, -0.25];
        normalize_peak(&mut v, 1.0);
        assert_eq!(v, vec![1.0, -0.5]);
        let mut z = vec![0.0; 4];
        normalize_peak(&mut z, 1.0);
        assert_eq!(z, vec![0.0; 4]);
    }

    #[test]
    fn mix_into_clips_to_destination() {
        let mut dst = vec![0.0; 5];
        mix_into(&mut dst, &[1.0, 1.0, 1.0], 3, 0.5);
        assert_eq!(dst, vec![0.0, 0.0, 0.0, 0.5, 0.5]);
        // Offset beyond end is a no-op.
        mix_into(&mut dst, &[9.0], 10, 1.0);
        assert_eq!(dst.len(), 5);
    }

    #[test]
    fn mix_into_accumulates() {
        let mut dst = vec![1.0; 3];
        mix_into(&mut dst, &[1.0; 3], 0, 1.0);
        assert_eq!(dst, vec![2.0; 3]);
    }
}
