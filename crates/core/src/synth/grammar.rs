//! Species-specific song grammars.
//!
//! Each species of the paper's Table 1 gets a stochastic grammar that
//! composes syllable primitives into a song bout. The grammars are
//! caricatures of the real vocalizations, designed so that (a) songs of
//! a species resemble one another while varying (the paper stresses that
//! "bird vocalizations vary considerably even within a particular bird
//! species"), and (b) the ten species are separable by spectro-temporal
//! structure inside the pipeline's 1.2–9.6 kHz analysis band.

use super::primitives::*;
use crate::species::SpeciesCode;
use rand::rngs::StdRng;
use rand::RngExt;

/// Synthesizes one song bout of `species` at sample rate `fs`,
/// returning the samples (peak amplitude 1.0 before mixing).
pub fn song(species: SpeciesCode, fs: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut out = match species {
        // "per-chick-o-ree": 4–6 rapid up/down sweeps around 3–5.5 kHz.
        SpeciesCode::Amgo => {
            let mut parts = Vec::new();
            let syllables = rng.random_range(4..=6);
            for _ in 0..syllables {
                let f_lo = rng.random_range(2_800.0..3_400.0);
                let f_hi = rng.random_range(4_600.0..5_600.0);
                let dur = rng.random_range(0.06..0.1);
                if rng.random_bool(0.5) {
                    parts.push(sweep(f_lo, f_hi, dur, fs));
                } else {
                    parts.push(sweep(f_hi, f_lo, dur, fs));
                }
                parts.push(silence(rng.random_range(0.02..0.05), fs));
            }
            concat(&parts)
        }
        // "fee-bee": two long pure whistles, the second a step lower;
        // sometimes the "chick-a-dee" call instead.
        SpeciesCode::Bcch => {
            if rng.random_bool(0.7) {
                let fee = rng.random_range(3_800.0..4_200.0);
                let bee = fee * rng.random_range(0.78..0.84);
                concat(&[
                    tone(fee, rng.random_range(0.3..0.45), fs),
                    silence(rng.random_range(0.05..0.12), fs),
                    tone(bee, rng.random_range(0.35..0.5), fs),
                ])
            } else {
                let mut parts = vec![noise_burst(5_000.0, 2.0, 0.08, fs, rng)];
                for _ in 0..rng.random_range(2..=4) {
                    parts.push(silence(0.03, fs));
                    parts.push(harmonic_tone(
                        rng.random_range(3_200.0..3_600.0),
                        &[(2.0, 0.4)],
                        0.12,
                        fs,
                    ));
                }
                concat(&parts)
            }
        }
        // Harsh "jeer": harmonic stack around 2 kHz with vibrato and
        // noise, repeated 2–3 times.
        SpeciesCode::Blja => {
            let mut parts = Vec::new();
            for _ in 0..rng.random_range(2..=3) {
                let f0 = rng.random_range(1_800.0..2_400.0);
                let jeer = {
                    let tonal = trill(f0 * 1.5, 120.0, 35.0, 0.25, fs);
                    let noisy = noise_burst(f0 * 1.6, 1.5, 0.25, fs, rng);
                    tonal
                        .iter()
                        .zip(&noisy)
                        .map(|(t, n)| 0.7 * t + 0.4 * n)
                        .collect::<Vec<f64>>()
                };
                parts.push(jeer);
                parts.push(silence(rng.random_range(0.08..0.16), fs));
            }
            concat(&parts)
        }
        // Drum roll ~16 Hz plus an occasional sharp "pik".
        SpeciesCode::Dowo => {
            let mut parts = vec![pulse_train(
                rng.random_range(14.0..18.0),
                rng.random_range(3_000.0..5_000.0),
                rng.random_range(0.6..1.0),
                fs,
                rng,
            )];
            if rng.random_bool(0.5) {
                parts.push(silence(0.1, fs));
                parts.push(sweep(4_200.0, 3_400.0, 0.04, fs));
            }
            concat(&parts)
        }
        // Long jumbled warble: 8–14 short random sweeps 2.5–6 kHz with a
        // slurred terminal down-sweep.
        SpeciesCode::Hofi => {
            let mut parts = Vec::new();
            for _ in 0..rng.random_range(8..=14) {
                let a = rng.random_range(2_500.0..6_000.0);
                let b = rng.random_range(2_500.0..6_000.0);
                parts.push(sweep(a, b, rng.random_range(0.05..0.11), fs));
                if rng.random_bool(0.4) {
                    parts.push(silence(rng.random_range(0.01..0.03), fs));
                }
            }
            parts.push(sweep(5_000.0, 2_200.0, rng.random_range(0.12..0.2), fs));
            concat(&parts)
        }
        // Low coo: ~600 Hz fundamental whose 2nd–4th harmonics carry the
        // in-band (1.2–2.4 kHz) energy; slow attack, long notes.
        SpeciesCode::Modo => {
            let f0 = rng.random_range(560.0..640.0);
            let partials = [(2.0, 1.2), (3.0, 0.9), (4.0, 0.5)];
            let mut parts = vec![harmonic_tone(f0, &partials, rng.random_range(0.4..0.6), fs)];
            for _ in 0..rng.random_range(2..=3) {
                parts.push(silence(rng.random_range(0.15..0.3), fs));
                parts.push(harmonic_tone(
                    f0 * rng.random_range(0.95..1.05),
                    &partials,
                    rng.random_range(0.35..0.55),
                    fs,
                ));
            }
            concat(&parts)
        }
        // Loud slurred whistles: "cheer cheer cheer", long down-sweeps
        // 4.5 → 2 kHz.
        SpeciesCode::Noca => {
            let mut parts = Vec::new();
            let down = rng.random_bool(0.7);
            for _ in 0..rng.random_range(2..=4) {
                let hi = rng.random_range(4_000.0..5_000.0);
                let lo = rng.random_range(1_900.0..2_400.0);
                let dur = rng.random_range(0.25..0.45);
                parts.push(if down {
                    sweep(hi, lo, dur, fs)
                } else {
                    sweep(lo, hi, dur, fs)
                });
                parts.push(silence(rng.random_range(0.06..0.14), fs));
            }
            concat(&parts)
        }
        // "conk-la-ree": two short tonal notes then a buzzy AM trill.
        SpeciesCode::Rwbl => concat(&[
            harmonic_tone(
                rng.random_range(900.0..1_100.0),
                &[(2.0, 0.9), (3.0, 0.5)],
                0.12,
                fs,
            ),
            silence(0.04, fs),
            harmonic_tone(rng.random_range(1_100.0..1_300.0), &[(2.0, 0.8)], 0.1, fs),
            silence(0.03, fs),
            buzz(
                rng.random_range(2_600.0..3_400.0),
                rng.random_range(50.0..70.0),
                rng.random_range(0.5..0.8),
                fs,
                rng,
            ),
        ]),
        // "peter-peter": a falling two-note whistle repeated 2–4 times.
        SpeciesCode::Tuti => {
            let mut parts = Vec::new();
            let hi = rng.random_range(3_400.0..3_800.0);
            let lo = hi * rng.random_range(0.76..0.82);
            for _ in 0..rng.random_range(2..=4) {
                parts.push(sweep(hi, lo, rng.random_range(0.1..0.16), fs));
                parts.push(tone(lo, rng.random_range(0.08..0.14), fs));
                parts.push(silence(rng.random_range(0.05..0.1), fs));
            }
            concat(&parts)
        }
        // Nasal "yank yank": vibrato-laden harmonic notes near 2 kHz.
        SpeciesCode::Wbnu => {
            let mut parts = Vec::new();
            let f0 = rng.random_range(1_800.0..2_100.0);
            for _ in 0..rng.random_range(2..=4) {
                let yank = {
                    let a = trill(f0, 80.0, 22.0, 0.18, fs);
                    let b = trill(f0 * 2.0, 120.0, 22.0, 0.18, fs);
                    let c = trill(f0 * 3.0, 150.0, 22.0, 0.18, fs);
                    a.iter()
                        .zip(&b)
                        .zip(&c)
                        .map(|((x, y), z)| (x + 0.7 * y + 0.4 * z) / 2.1)
                        .collect::<Vec<f64>>()
                };
                parts.push(yank);
                parts.push(silence(rng.random_range(0.1..0.18), fs));
            }
            concat(&parts)
        }
    };
    // Natural amplitude tremolo: real vocalizations breathe at ~5–15 Hz,
    // which keeps the SAX symbol distribution drifting for the whole
    // bout (this is what sustains the anomaly score through long
    // syllables in field recordings).
    let rate = rng.random_range(5.0..15.0);
    let depth = rng.random_range(0.25..0.45);
    let phase = rng.random_range(0.0..std::f64::consts::TAU);
    for (i, s) in out.iter_mut().enumerate() {
        let t = i as f64 / fs;
        *s *= 1.0 - depth * (0.5 + 0.5 * (std::f64::consts::TAU * rate * t + phase).sin());
    }
    river_dsp::signal::normalize_peak(&mut out, 1.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::tone::goertzel_magnitude;
    use rand::SeedableRng;

    const FS: f64 = 20_160.0;

    #[test]
    fn every_species_produces_audio() {
        let mut rng = StdRng::seed_from_u64(1);
        for species in SpeciesCode::ALL {
            let s = song(species, FS, &mut rng);
            assert!(
                s.len() > (0.2 * FS) as usize,
                "{species}: too short ({} samples)",
                s.len()
            );
            assert!(river_dsp::signal::rms(&s) > 0.01, "{species}: too quiet");
            assert!(river_dsp::signal::peak(&s) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn songs_vary_between_renditions() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = song(SpeciesCode::Hofi, FS, &mut rng);
        let b = song(SpeciesCode::Hofi, FS, &mut rng);
        assert_ne!(a.len(), b.len()); // stochastic structure
    }

    #[test]
    fn songs_deterministic_given_seed() {
        let a = song(SpeciesCode::Noca, FS, &mut StdRng::seed_from_u64(3));
        let b = song(SpeciesCode::Noca, FS, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn species_have_energy_in_analysis_band() {
        // Every species must put meaningful energy into 1.2–9.6 kHz —
        // otherwise the cutout stage would erase it. Measured as the
        // in-band fraction of the figures' spectrogram energy
        // (840-sample frames at 50 % overlap, 24 Hz bins, band = bins
        // 50..400 — the production cutout).
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = crate::ExtractorConfig::paper();
        assert_eq!(cfg.sample_rate, FS);
        for species in SpeciesCode::ALL {
            let s = song(species, FS, &mut rng);
            let columns = crate::pipeline::spectrogram_columns(&s, &cfg);
            let mut in_band = 0.0f64;
            let mut total = 0.0f64;
            for col in &columns {
                for (bin, &mag) in col.iter().enumerate() {
                    let e = mag * mag;
                    total += e;
                    if (50..400).contains(&bin) {
                        in_band += e;
                    }
                }
            }
            assert!(total > 0.0, "{species}: silent song");
            let frac = in_band / total;
            assert!(frac > 0.3, "{species}: in-band fraction {frac:.3}");
        }
    }

    #[test]
    fn chickadee_fee_bee_is_two_tones() {
        // Find a seed that takes the fee-bee branch.
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let s = song(SpeciesCode::Bcch, FS, &mut rng);
            let fee = goertzel_magnitude(&s, 4_000.0, FS);
            let bee = goertzel_magnitude(&s, 3_250.0, FS);
            if fee > 0.0 && bee > 0.0 {
                return; // both notes present in at least one rendition
            }
        }
        panic!("no fee-bee song found in 20 renditions");
    }

    #[test]
    fn dove_energy_is_low_band() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = song(SpeciesCode::Modo, FS, &mut rng);
        let low: f64 = [600.0, 1_200.0, 1_800.0]
            .iter()
            .map(|&f| goertzel_magnitude(&s, f, FS))
            .sum();
        let high = goertzel_magnitude(&s, 6_000.0, FS);
        assert!(low > 10.0 * high);
    }
}
