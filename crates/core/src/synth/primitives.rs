//! Waveform primitives for the song synthesizer: tones, chirps, trills,
//! harmonic stacks, buzzes and pulse trains, all amplitude-shaped to
//! avoid clicks.

use rand::rngs::StdRng;
use rand::RngExt;
use std::f64::consts::PI;

/// A raised-cosine attack/release envelope over `n` samples.
///
/// `attack` and `release` are fractions of the total duration in
/// `[0, 0.5]`.
pub fn envelope(n: usize, attack: f64, release: f64) -> Vec<f64> {
    let attack_n = ((n as f64) * attack.clamp(0.0, 0.5)) as usize;
    let release_n = ((n as f64) * release.clamp(0.0, 0.5)) as usize;
    (0..n)
        .map(|i| {
            if i < attack_n {
                0.5 - 0.5 * (PI * i as f64 / attack_n as f64).cos()
            } else if i + release_n >= n {
                let j = n - i;
                0.5 - 0.5 * (PI * j as f64 / release_n.max(1) as f64).cos()
            } else {
                1.0
            }
        })
        .collect()
}

fn shaped(mut samples: Vec<f64>) -> Vec<f64> {
    let env = envelope(samples.len(), 0.1, 0.15);
    for (s, e) in samples.iter_mut().zip(env) {
        *s *= e;
    }
    samples
}

/// A pure tone at `freq` Hz for `dur` seconds.
pub fn tone(freq: f64, dur: f64, fs: f64) -> Vec<f64> {
    let n = (dur * fs) as usize;
    shaped(
        (0..n)
            .map(|i| (2.0 * PI * freq * i as f64 / fs).sin())
            .collect(),
    )
}

/// A linear chirp from `f0` to `f1` Hz over `dur` seconds (phase
/// integral keeps it continuous).
pub fn sweep(f0: f64, f1: f64, dur: f64, fs: f64) -> Vec<f64> {
    let n = (dur * fs) as usize;
    let mut phase = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 / n.max(1) as f64;
        let f = f0 + (f1 - f0) * t;
        phase += 2.0 * PI * f / fs;
        out.push(phase.sin());
    }
    shaped(out)
}

/// A tone with harmonics: `partials` is `(multiple, amplitude)` pairs
/// applied on top of the fundamental at amplitude 1.
pub fn harmonic_tone(f0: f64, partials: &[(f64, f64)], dur: f64, fs: f64) -> Vec<f64> {
    let n = (dur * fs) as usize;
    let mut out = vec![0.0f64; n];
    let mut total_amp = 1.0;
    for (i, o) in out.iter_mut().enumerate() {
        *o = (2.0 * PI * f0 * i as f64 / fs).sin();
    }
    for &(mult, amp) in partials {
        total_amp += amp;
        for (i, o) in out.iter_mut().enumerate() {
            *o += amp * (2.0 * PI * f0 * mult * i as f64 / fs).sin();
        }
    }
    for o in &mut out {
        *o /= total_amp;
    }
    shaped(out)
}

/// A frequency-modulated trill: carrier `fc` deviating ±`dev` Hz at
/// `rate` Hz.
pub fn trill(fc: f64, dev: f64, rate: f64, dur: f64, fs: f64) -> Vec<f64> {
    let n = (dur * fs) as usize;
    let mut phase = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let f = fc + dev * (2.0 * PI * rate * i as f64 / fs).sin();
        phase += 2.0 * PI * f / fs;
        out.push(phase.sin());
    }
    shaped(out)
}

/// An amplitude-modulated "buzz": carrier with harmonics, AM at
/// `am_rate` Hz, plus a little noise — red-winged-blackbird-style.
pub fn buzz(fc: f64, am_rate: f64, dur: f64, fs: f64, rng: &mut StdRng) -> Vec<f64> {
    let n = (dur * fs) as usize;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 / fs;
        let carrier = (2.0 * PI * fc * t).sin() + 0.5 * (2.0 * PI * fc * 1.5 * t).sin();
        let am = 0.55 + 0.45 * (2.0 * PI * am_rate * t).sin();
        let noise: f64 = rng.random_range(-0.2..0.2);
        out.push((carrier * am + noise) / 1.7);
    }
    shaped(out)
}

/// A band-limited noise burst centered at `fc` Hz with bandwidth set by
/// `q` (larger `q` = narrower).
pub fn noise_burst(fc: f64, q: f64, dur: f64, fs: f64, rng: &mut StdRng) -> Vec<f64> {
    let n = (dur * fs) as usize;
    let mut bp = river_dsp::filter::Biquad::band_pass(fc, fs, q);
    let mut out: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    bp.process_buffer(&mut out);
    // Renormalize the filtered burst.
    river_dsp::signal::normalize_peak(&mut out, 1.0);
    shaped(out)
}

/// A drum-like pulse train: `rate` clicks per second for `dur` seconds;
/// each click is a short band-limited noise pop.
pub fn pulse_train(rate: f64, click_fc: f64, dur: f64, fs: f64, rng: &mut StdRng) -> Vec<f64> {
    let n = (dur * fs) as usize;
    let mut out = vec![0.0f64; n];
    let period = (fs / rate) as usize;
    let click_len = (0.008 * fs) as usize; // 8 ms pops
    let mut start = 0usize;
    while start + click_len < n {
        let click = noise_burst(click_fc, 1.2, 0.008, fs, rng);
        for (i, &c) in click.iter().enumerate() {
            out[start + i] += c;
        }
        // Slight rate jitter, like a real drum roll.
        let jitter = (period as f64 * rng.random_range(-0.08..0.08)) as i64;
        start = (start as i64 + period as i64 + jitter).max(1) as usize;
    }
    out
}

/// Silence of `dur` seconds.
pub fn silence(dur: f64, fs: f64) -> Vec<f64> {
    vec![0.0; (dur * fs) as usize]
}

/// Concatenates syllables into one song buffer.
pub fn concat(parts: &[Vec<f64>]) -> Vec<f64> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::tone::goertzel_magnitude;
    use rand::SeedableRng;
    use river_dsp::signal::{peak, rms};

    const FS: f64 = 20_160.0;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn envelope_shape() {
        let e = envelope(100, 0.1, 0.1);
        assert!(e[0] < 0.01);
        assert!(e[99] < 0.6); // release tail
        assert!((e[50] - 1.0).abs() < 1e-12);
        assert!(e.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
    }

    #[test]
    fn tone_energy_at_frequency() {
        let t = tone(3_000.0, 0.2, FS);
        let at = goertzel_magnitude(&t, 3_000.0, FS);
        let off = goertzel_magnitude(&t, 5_000.0, FS);
        assert!(at > 20.0 * off, "{at} vs {off}");
        assert!(peak(&t) <= 1.0 + 1e-9);
    }

    #[test]
    fn sweep_covers_band() {
        let s = sweep(2_000.0, 6_000.0, 0.3, FS);
        // Energy at several points inside the sweep, none far outside.
        let inside: f64 = [2_500.0, 4_000.0, 5_500.0]
            .iter()
            .map(|&f| goertzel_magnitude(&s, f, FS))
            .sum();
        let outside = goertzel_magnitude(&s, 8_000.0, FS);
        assert!(inside > 10.0 * outside, "{inside} vs {outside}");
    }

    #[test]
    fn harmonic_tone_has_partials() {
        let h = harmonic_tone(600.0, &[(2.0, 0.8), (3.0, 0.6)], 0.3, FS);
        let f0 = goertzel_magnitude(&h, 600.0, FS);
        let h2 = goertzel_magnitude(&h, 1_200.0, FS);
        let h3 = goertzel_magnitude(&h, 1_800.0, FS);
        assert!(h2 > 0.4 * f0);
        assert!(h3 > 0.3 * f0);
        assert!(peak(&h) <= 1.0 + 1e-9);
    }

    #[test]
    fn trill_spreads_energy_around_carrier() {
        let t = trill(3_500.0, 300.0, 25.0, 0.3, FS);
        let near: f64 = [3_300.0, 3_500.0, 3_700.0]
            .iter()
            .map(|&f| goertzel_magnitude(&t, f, FS))
            .sum();
        let far = goertzel_magnitude(&t, 6_000.0, FS);
        assert!(near > 10.0 * far);
    }

    #[test]
    fn buzz_is_modulated() {
        let b = buzz(3_000.0, 60.0, 0.3, FS, &mut rng());
        // RMS in consecutive 5 ms slices should vary strongly (AM).
        let slice = (0.005 * FS) as usize;
        let rms_values: Vec<f64> = b.chunks(slice).map(rms).collect();
        let max = rms_values.iter().copied().fold(0.0, f64::max);
        let min = rms_values[2..rms_values.len() - 2]
            .iter()
            .copied()
            .fold(f64::MAX, f64::min);
        assert!(max > 1.8 * min, "max {max} min {min}");
    }

    #[test]
    fn noise_burst_band_limited() {
        let nb = noise_burst(4_000.0, 3.0, 0.2, FS, &mut rng());
        let in_band = goertzel_magnitude(&nb, 4_000.0, FS);
        let out_band = goertzel_magnitude(&nb, 500.0, FS);
        assert!(in_band > 5.0 * out_band, "{in_band} vs {out_band}");
    }

    #[test]
    fn pulse_train_has_expected_click_count() {
        let p = pulse_train(16.0, 4_000.0, 1.0, FS, &mut rng());
        // Count energy bursts: slices with RMS above 4x the median.
        let slice = (0.004 * FS) as usize;
        let rms_values: Vec<f64> = p.chunks(slice).map(rms).collect();
        let mut sorted = rms_values.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let bursts = rms_values
            .windows(2)
            .filter(|w| w[0] <= 4.0 * median && w[1] > 4.0 * median)
            .count();
        assert!((10..=22).contains(&bursts), "bursts {bursts}");
    }

    #[test]
    fn silence_and_concat() {
        let s = concat(&[silence(0.01, FS), tone(1_000.0, 0.01, FS)]);
        assert_eq!(s.len(), 2 * (0.01 * FS) as usize);
        assert!(s[..100].iter().all(|&x| x == 0.0));
    }
}
