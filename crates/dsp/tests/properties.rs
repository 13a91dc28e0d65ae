//! Property-based tests for the DSP substrate.

mod reference;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use reference::dft_naive;
use river_dsp::fft::{Fft, RealFft};
use river_dsp::stats::{SlidingStats, Welford};
use river_dsp::wav::{SampleFormat, WavReader, WavSpec, WavWriter};
use river_dsp::window::WindowKind;
use river_dsp::Complex64;

/// `n` complex samples drawn from `rng`, uniform in the unit square.
fn random_complex(rng: &mut StdRng, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| Complex64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
        .collect()
}

/// Distance in units in the last place between two finite,
/// non-negative doubles.
fn ulps_apart(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

/// Every 7-smooth length up to 1024 — each mixed-radix plan shape,
/// `n = 1` included — plus a spread of lengths with a larger prime
/// factor, which take Bluestein: primes, 2·11·19, and twice a prime.
fn differential_lengths() -> Vec<usize> {
    let smooth = |mut n: usize| {
        for p in [2, 3, 5, 7] {
            while n.is_multiple_of(p) {
                n /= p;
            }
        }
        n == 1
    };
    let mut lengths: Vec<usize> = (1..=1024).filter(|&n| smooth(n)).collect();
    lengths.extend([11, 13, 421, 2 * 11 * 19, 2 * 421]);
    lengths
}

/// One naive reference per length judges every transform: `Fft` ≡
/// `dft_naive` to 1e-9 of the spectrum's largest magnitude, with
/// forward∘inverse the identity and Parseval's energy balance; and
/// `RealFft` (bins and fused magnitudes) on the input's real part
/// against the reference's Hermitian half, `(X_k + conj(X_{n-k})) / 2`
/// — so every packed-half (even `n`) and direct (odd `n`) plan, over a
/// mixed-radix or a Bluestein inner transform.
#[test]
fn every_transform_matches_naive_on_every_plan_shape() {
    for n in differential_lengths() {
        let x = random_complex(&mut StdRng::seed_from_u64(n as u64), n);
        let expected = dft_naive(&x);
        let scale = expected.iter().map(|z| z.abs()).fold(1.0_f64, f64::max);

        let fft = Fft::new(n);
        let spectrum = fft.forward(&x);
        for (k, (a, b)) in spectrum.iter().zip(&expected).enumerate() {
            let err = (*a - *b).abs();
            assert!(err <= 1e-9 * scale, "n={n} bin {k}: err {err:.3e}");
        }
        for (k, (a, b)) in x.iter().zip(&fft.inverse(&spectrum)).enumerate() {
            let err = (*a - *b).abs();
            assert!(err <= 1e-9, "n={n} sample {k}: round-trip err {err:.3e}");
        }
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spectrum.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() <= 1e-9 * time_energy,
            "n={n}: {time_energy} vs {freq_energy}"
        );

        let real: Vec<f64> = x.iter().map(|z| z.re).collect();
        let plan = RealFft::new(n);
        let bins = plan.forward(&real);
        let mut mags = vec![0.0; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.magnitudes_into(&real, None, &mut mags, &mut scratch);
        for k in 0..n {
            let want = (expected[k] + expected[(n - k) % n].conj()).scale(0.5);
            let err = (bins[k] - want).abs();
            assert!(err <= 1e-9 * scale, "n={n} real bin {k}: err {err:.3e}");
            let err = (mags[k] - want.abs()).abs();
            assert!(err <= 1e-9 * scale, "n={n} magnitude {k}: err {err:.3e}");
        }
    }
}
fn probe(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.2).cos()))
        .collect()
}

fn assert_spectra_close(a: &[Complex64], b: &[Complex64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (*x - *y).abs() < tol,
            "bin {i}: {x} vs {y} (|diff|={})",
            (*x - *y).abs()
        );
    }
}

/// One length per butterfly and per mix of them, powers of two with
/// and without the odd radix-2 pass included.
#[test]
fn mixed_radix_matches_naive() {
    for &n in &[2usize, 3, 4, 5, 7, 8, 12, 64, 100, 105, 128, 175, 420, 700] {
        let x = probe(n);
        assert_spectra_close(&Fft::new(n).forward(&x), &dft_naive(&x), 1e-9);
    }
}

#[test]
fn bluestein_matches_naive_for_awkward_lengths() {
    for &n in &[11usize, 13, 31, 101, 143, 418, 421, 842] {
        let x = probe(n);
        assert_spectra_close(&Fft::new(n).forward(&x), &dft_naive(&x), 1e-9);
    }
}

/// `Complex64::abs` is `sqrt(re² + im²)` only where that cannot
/// overflow or underflow: there it stays within 4 ULP of libm's
/// `hypot` (2 of the exact value), and everywhere else it *is* `hypot`.
#[test]
fn guarded_abs_tracks_hypot() {
    // Ordinary values: mantissas and signs from the generator, decimal
    // exponents swept independently so the components' ratio varies
    // from balanced to one-sided.
    let mantissas = random_complex(&mut StdRng::seed_from_u64(2007), 4096);
    for (i, m) in mantissas.iter().enumerate() {
        let z = Complex64::new(
            m.re * 10f64.powi(i as i32 % 201 - 100),
            m.im * 10f64.powi((i / 7) as i32 % 201 - 100),
        );
        let (got, want) = (z.abs(), z.re.hypot(z.im));
        assert!(ulps_apart(got, want) <= 4, "{z}: {got:e} vs hypot {want:e}");
    }
    // Extremes: squares that underflow or overflow, subnormals, zeros,
    // infinities and NaN — paired with each other and with an ordinary
    // partner — must give hypot's answer bit for bit.
    let extremes = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE / 4.0,
        1.3e-170,
        -7.7e-171,
        -4.1e169,
        1.3e170,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let partners = extremes.iter().chain(&[1.0, -3.7]);
    for (&a, &b) in extremes
        .iter()
        .flat_map(|a| partners.clone().map(move |b| (a, b)))
    {
        for (re, im) in [(a, b), (b, a)] {
            let (got, want) = (Complex64::new(re, im).abs(), re.hypot(im));
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "({re:e}, {im:e}): {got:e} vs hypot {want:e}"
            );
        }
    }
}

/// 1 to `max_len - 1` complex samples with both parts in ±100.
fn complex_vec(rng: &mut StdRng, max_len: usize) -> Vec<Complex64> {
    seeds::vec(rng, 1..max_len, |r| {
        Complex64::new(r.random_range(-100.0..100.0), r.random_range(-100.0..100.0))
    })
}

/// FFT (any length, including Bluestein paths) agrees with the naive DFT.
#[test]
fn fft_matches_naive() {
    seeds::check(0..64, |rng| {
        let x = complex_vec(rng, 64);
        let fast = Fft::new(x.len()).forward(&x);
        let slow = dft_naive(&x);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    });
}

/// forward then inverse is the identity.
#[test]
fn fft_round_trip() {
    seeds::check(0..64, |rng| {
        let x = complex_vec(rng, 128);
        let fft = Fft::new(x.len());
        let back = fft.inverse(&fft.forward(&x));
        for (a, b) in x.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-7 * (1.0 + a.abs()));
        }
    });
}

/// Welford matches the two-pass batch computation.
#[test]
fn welford_matches_batch() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 1..200, |r| r.random_range(-1e6..1e6));
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((w.population_variance() - var).abs() < 1e-4 * (1.0 + var));
    });
}

/// Sliding stats equal batch statistics of the trailing window.
#[test]
fn sliding_stats_match_batch() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 1..200, |r| r.random_range(-1e3..1e3));
        let cap = rng.random_range(1..32);
        let mut s = SlidingStats::new(cap);
        for (i, &x) in xs.iter().enumerate() {
            s.push(x);
            let lo = (i + 1).saturating_sub(cap);
            let window = &xs[lo..=i];
            let mean = window.iter().sum::<f64>() / window.len() as f64;
            assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        }
    });
}

/// Window coefficients are symmetric and within [0, 1] for all kinds.
#[test]
fn windows_symmetric_bounded() {
    seeds::check(0..64, |rng| {
        let n = rng.random_range(2..512);
        let kind = WindowKind::ALL[rng.random_range(0..WindowKind::ALL.len())];
        let w = kind.coefficients(n);
        for i in 0..n {
            assert!((-1e-12..=1.0 + 1e-12).contains(&w[i]));
            assert!((w[i] - w[n - 1 - i]).abs() < 1e-12);
        }
    });
}

/// WAV PCM16 round trip preserves samples to quantization accuracy.
#[test]
fn wav_pcm16_round_trip() {
    seeds::check(0..64, |rng| {
        let xs = seeds::vec(rng, 1..500, |r| r.random_range(-1.0..1.0));
        let spec = WavSpec::mono_pcm16(rng.random_range(4_000..48_000));
        let mut buf = Vec::new();
        WavWriter::write(&mut buf, spec, &xs).unwrap();
        let decoded = WavReader::read(buf.as_slice()).unwrap();
        assert_eq!(decoded.spec, spec);
        assert_eq!(decoded.samples.len(), xs.len());
        for (a, b) in xs.iter().zip(&decoded.samples) {
            assert!((a - b).abs() < 2.0 / 32768.0);
        }
    });
}

/// WAV float32 round trip is near-exact for all supported channel
/// counts.
#[test]
fn wav_float_round_trip() {
    seeds::check(0..64, |rng| {
        let frames = seeds::vec(rng, 1..200, |r| r.random_range(-1.0..1.0));
        let channels = rng.random_range(1..4);
        let spec = WavSpec {
            channels,
            sample_rate: 20_160,
            sample_format: SampleFormat::Float32,
        };
        // Truncate to whole frames.
        let usable = frames.len() - frames.len() % channels as usize;
        if usable == 0 {
            return;
        }
        let samples = &frames[..usable];
        let mut buf = Vec::new();
        WavWriter::write(&mut buf, spec, samples).unwrap();
        let decoded = WavReader::read(buf.as_slice()).unwrap();
        for (a, b) in samples.iter().zip(&decoded.samples) {
            assert!((a - b).abs() < 1e-6);
        }
    });
}

/// Reading arbitrary junk either fails cleanly or succeeds; it never
/// panics.
#[test]
fn wav_reader_never_panics() {
    seeds::check(0..64, |rng| {
        let junk = seeds::vec(rng, 0..300, |r| r.next_u64() as u8);
        let _ = WavReader::read(junk.as_slice());
    });
}
