//! Property tests for the real-input FFT fast path: `RealFft` must
//! agree with the naive O(N²) reference DFT (on zero-imaginary packed
//! input) to ≤ 1e-9 relative error over random lengths spanning every
//! plan shape — packed halves and the odd-length direct fallback, each
//! over a mixed-radix (7-smooth) or a Bluestein inner transform — plus
//! the misuse panics of the scratch API. The exhaustive sweep over every
//! 7-smooth length rides `properties.rs`, off the reference it computes
//! for `Fft`.

mod reference;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use reference::dft_naive;
use river_dsp::fft::RealFft;
use river_dsp::Complex64;

/// `n` samples drawn from `rng`, uniform in [-1, 1).
fn random_samples(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

/// Asserts `got` ≡ `expected` within `tol` relative to the spectrum's
/// largest magnitude (floored at 1 so all-zero inputs compare absolutely).
fn assert_close(got: &[Complex64], expected: &[Complex64], tol: f64) {
    assert_eq!(got.len(), expected.len());
    let scale = expected.iter().map(|z| z.abs()).fold(1.0_f64, f64::max);
    for (k, (a, b)) in got.iter().zip(expected).enumerate() {
        let err = (*a - *b).abs();
        assert!(
            err <= tol * scale,
            "bin {k}: {a} vs {b} (err {err:.3e}, scale {scale:.3e})"
        );
    }
}

/// Random lengths: even ones pack into a half transform, odd ones
/// take the direct fallback; about half of either kind is 7-smooth
/// (mixed radix) below 260, the rest Bluestein.
#[test]
fn realfft_matches_naive_dft() {
    seeds::check(0..48, |rng| {
        let n = rng.random_range(1..260);
        let x = random_samples(rng, n);
        let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        let expected = dft_naive(&packed);
        let got = RealFft::new(n).forward(&x);
        let scale = expected.iter().map(|z| z.abs()).fold(1.0_f64, f64::max);
        for (k, (a, b)) in got.iter().zip(&expected).enumerate() {
            let err = (*a - *b).abs();
            assert!(err <= 1e-9 * scale, "n={n} bin {k}: err {err:.3e}");
        }
    });
}

/// The fused magnitude path agrees with |naive DFT of windowed
/// input| — the equivalence the `spectrum` operator rides on.
#[test]
fn magnitudes_match_naive_windowed() {
    seeds::check(0..48, |rng| {
        let n = rng.random_range(1..160);
        let x = random_samples(rng, n);
        let window = random_samples(rng, n);
        let windowed: Vec<Complex64> = x
            .iter()
            .zip(&window)
            .map(|(&v, &w)| Complex64::from_real(v * w))
            .collect();
        let expected = dft_naive(&windowed);
        let plan = RealFft::new(n);
        let mut mags = vec![0.0; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.magnitudes_into(&x, Some(&window), &mut mags, &mut scratch);
        let scale = expected.iter().map(|z| z.abs()).fold(1.0_f64, f64::max);
        for (k, (&m, z)) in mags.iter().zip(&expected).enumerate() {
            let err = (m - z.abs()).abs();
            assert!(err <= 1e-9 * scale, "n={n} bin {k}: err {err:.3e}");
        }
    });
}

#[test]
fn production_record_length_matches_naive() {
    // 840 = the 20.16 kHz record geometry: packs into a 420-point
    // mixed-radix half — the case the pipeline hot path rides.
    let x = random_samples(&mut StdRng::seed_from_u64(7), 840);
    let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
    assert_close(&RealFft::new(840).forward(&x), &dft_naive(&packed), 1e-9);
}

/// Odd lengths take the direct fallback — mixed radix for 1, 3, 5, 7,
/// Bluestein for the larger primes — and 418 = 2·11·19 and 842 = 2·421
/// pack into a Bluestein half.
#[test]
fn odd_and_prime_lengths_match_naive() {
    for &n in &[1usize, 3, 5, 7, 31, 101, 127, 211, 11, 13, 421, 418, 842] {
        let x = random_samples(&mut StdRng::seed_from_u64(n as u64), n);
        let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        assert_close(&RealFft::new(n).forward(&x), &dft_naive(&packed), 1e-9);
    }
}

#[test]
#[should_panic(expected = "length must match")]
fn wrong_input_length_is_rejected() {
    RealFft::new(64).forward(&[0.0; 63]);
}

#[test]
#[should_panic(expected = "output length must match")]
fn wrong_output_length_is_rejected() {
    let plan = RealFft::new(8);
    let mut out = vec![Complex64::ZERO; 7];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    plan.forward_into(&[0.0; 8], &mut out, &mut scratch);
}

#[test]
#[should_panic(expected = "scratch length")]
fn short_scratch_is_rejected() {
    let plan = RealFft::new(840);
    let mut out = vec![0.0; 840];
    plan.magnitudes_into(&[0.0; 840], None, &mut out, &mut []);
}

#[test]
#[should_panic(expected = "window length must match")]
fn wrong_window_length_is_rejected() {
    let plan = RealFft::new(16);
    let mut out = vec![0.0; 16];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    plan.magnitudes_into(&[0.0; 16], Some(&[1.0; 15]), &mut out, &mut scratch);
}
