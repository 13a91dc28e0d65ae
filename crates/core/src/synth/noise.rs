//! Ambient noise beds: wind, broadband floor, and "human activity"
//! interference.
//!
//! "The clips typically contain other sounds such as those produced by
//! wind and human activity … data below [1.2 kHz] typically comprises
//! low frequency noise, including the sound of wind and sounds produced
//! by human activity" (paper §3–4). The synthesizer therefore keeps
//! these components mostly below the `cutout` band.

use rand::rngs::StdRng;
use rand::RngExt;
use river_dsp::filter::Biquad;
use std::f64::consts::PI;

/// Wind: brown-ish noise (white noise through cascaded low-passes) with
/// slow amplitude gusting.
pub fn wind(n: usize, fs: f64, level: f64, rng: &mut StdRng) -> Vec<f64> {
    // Real wind rumble concentrates well below ~100 Hz; its correlation
    // time (tens of ms) is long relative to the 100-sample anomaly
    // windows, which is what keeps the quiet-time anomaly baseline low.
    let mut lp1 = Biquad::low_pass(60.0, fs, 0.8);
    let mut lp2 = Biquad::low_pass(120.0, fs, 0.7);
    let mut out: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    lp1.process_buffer(&mut out);
    lp2.process_buffer(&mut out);
    river_dsp::signal::normalize_peak(&mut out, 1.0);
    // Slow gusts: 0.1–0.3 Hz amplitude modulation.
    let gust_rate = rng.random_range(0.1..0.3);
    let gust_phase = rng.random_range(0.0..2.0 * PI);
    for (i, s) in out.iter_mut().enumerate() {
        let t = i as f64 / fs;
        let gust = 0.6 + 0.4 * (2.0 * PI * gust_rate * t + gust_phase).sin();
        *s *= level * gust;
    }
    out
}

/// Flat broadband noise floor at `level` peak amplitude.
pub fn floor(n: usize, level: f64, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.random_range(-level..level)).collect()
}

/// Intermittent low-frequency "human activity": a 120 Hz hum with
/// harmonics (machinery/traffic) gated on and off.
pub fn human_activity(n: usize, fs: f64, level: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut out = vec![0.0f64; n];
    let mut pos = 0usize;
    while pos < n {
        // Quiet stretch then a burst of hum.
        let quiet = (rng.random_range(1.0..4.0) * fs) as usize;
        pos += quiet;
        if pos >= n {
            break;
        }
        let burst = ((rng.random_range(0.5..2.0) * fs) as usize).min(n - pos);
        let f0 = rng.random_range(90.0..140.0);
        for i in 0..burst {
            let t = i as f64 / fs;
            let v = (2.0 * PI * f0 * t).sin()
                + 0.5 * (2.0 * PI * 2.0 * f0 * t).sin()
                + 0.25 * (2.0 * PI * 3.0 * f0 * t).sin();
            out[pos + i] += level * v / 1.75;
        }
        pos += burst;
    }
    out
}

/// Composes the full ambient bed.
pub fn ambient_bed(
    n: usize,
    fs: f64,
    wind_level: f64,
    floor_level: f64,
    activity_level: f64,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut bed = wind(n, fs, wind_level, rng);
    for (b, f) in bed.iter_mut().zip(floor(n, floor_level, rng)) {
        *b += f;
    }
    for (b, h) in bed
        .iter_mut()
        .zip(human_activity(n, fs, activity_level, rng))
    {
        *b += h;
    }
    bed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::tone::goertzel_magnitude;
    use rand::SeedableRng;

    const FS: f64 = 20_160.0;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn wind_is_low_frequency() {
        let w = wind((FS * 2.0) as usize, FS, 0.1, &mut rng());
        let low = goertzel_magnitude(&w, 150.0, FS);
        let high = goertzel_magnitude(&w, 4_000.0, FS);
        assert!(low > 10.0 * high, "{low} vs {high}");
    }

    #[test]
    fn wind_level_scales_amplitude() {
        let quiet = wind(20_160, FS, 0.01, &mut rng());
        let loud = wind(20_160, FS, 0.2, &mut rng());
        assert!(river_dsp::signal::rms(&loud) > 5.0 * river_dsp::signal::rms(&quiet));
    }

    #[test]
    fn floor_is_bounded() {
        let f = floor(10_000, 0.005, &mut rng());
        assert!(f.iter().all(|&x| x.abs() <= 0.005));
    }

    #[test]
    fn human_activity_is_low_frequency_and_intermittent() {
        let h = human_activity((FS * 10.0) as usize, FS, 0.1, &mut rng());
        // Harmonics sit below 500 Hz.
        let low: f64 = [100.0, 120.0, 240.0, 360.0]
            .iter()
            .map(|&f| goertzel_magnitude(&h, f, FS))
            .sum();
        let high = goertzel_magnitude(&h, 3_000.0, FS);
        assert!(low > 10.0 * high);
        // Intermittent: some whole seconds are (almost) silent.
        let sec = FS as usize;
        let silent_seconds = h
            .chunks(sec)
            .filter(|c| river_dsp::signal::rms(c) < 1e-4)
            .count();
        assert!(silent_seconds >= 1);
    }

    #[test]
    fn ambient_bed_composes() {
        let bed = ambient_bed((FS * 2.0) as usize, FS, 0.05, 0.003, 0.02, &mut rng());
        assert_eq!(bed.len(), (FS * 2.0) as usize);
        assert!(river_dsp::signal::rms(&bed) > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = wind(1_000, FS, 0.1, &mut StdRng::seed_from_u64(5));
        let b = wind(1_000, FS, 0.1, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
