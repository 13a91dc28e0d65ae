//! `spectrum`: the fused spectral hot path.
//!
//! The paper's Figure 5 draws four boxes here, `welchwindow` →
//! `float2cplx` → `dft` → `cabs`; this is all four in a single pass:
//! Welch-window the audio samples, run a real-input FFT (N real samples
//! packed into an N/2 complex transform), and take bin magnitudes
//! straight out of the Hermitian unpack — all into buffers owned by the
//! plan, so the steady state allocates only the output payload. The
//! test suites hold it to a plain Welch × complex FFT → `hypot` oracle,
//! record-for-record to ≤ 1e-9 relative error over whole clips
//! (`tests/properties.rs`).

use crate::ops::plan_cache::PlanCache;
use crate::subtype;
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, SampleBuf, Sink};
use river_dsp::window::WindowKind;
use river_dsp::{Complex64, RealFft};

/// Per-record-length plan: the Welch window table and the real-FFT plan
/// (twiddles, chirp, and kernel live inside the `RealFft`).
#[derive(Debug, Clone)]
struct SpectrumPlan {
    window: Vec<f64>,
    rfft: RealFft,
}

/// The fused `spectrum` operator: audio records in, magnitude spectra
/// (subtype [`subtype::POWER`]) out: the paper's
/// `welchwindow → float2cplx → dft → cabs` in one pass.
///
/// Plans are cached per record length in a bounded [`PlanCache`];
/// scratch buffers are reused across records, so after the first record
/// of each length the only per-record allocation is the output payload.
#[derive(Debug, Default, Clone)]
pub struct Spectrum {
    plans: PlanCache<SpectrumPlan>,
    scratch: Vec<Complex64>,
}

impl Spectrum {
    /// Creates the operator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached per-length plans (test hook).
    #[cfg(test)]
    fn plan_count(&self) -> usize {
        self.plans.len()
    }
}

impl Operator for Spectrum {
    fn name(&self) -> &'static str {
        "spectrum"
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind == RecordKind::Data && record.subtype == subtype::AUDIO {
            if let Payload::F64(v) = &record.payload {
                // An empty record has nothing to transform (and no
                // FFT plan): it passes through unchanged.
                if !v.is_empty() {
                    let n = v.len();
                    let plan = self.plans.get_or_insert_with(n, |n| SpectrumPlan {
                        window: WindowKind::Welch.coefficients(n),
                        rfft: RealFft::new(n),
                    });
                    let need = plan.rfft.scratch_len();
                    if self.scratch.len() < need {
                        self.scratch.resize(need, Complex64::ZERO);
                    }
                    // A fresh buffer nothing else holds: `make_mut`
                    // hands it out in place, so the payload is
                    // allocated once and written by the kernel.
                    let mut mags: SampleBuf = std::iter::repeat_n(0.0, n).collect();
                    plan.rfft.magnitudes_into(
                        v,
                        Some(&plan.window),
                        mags.make_mut(),
                        &mut self.scratch[..need],
                    );
                    record.payload = Payload::f64(mags);
                    record.subtype = subtype::POWER;
                }
            }
        }
        out.push(record)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// AUDIO/f64 -> POWER/f64, the composition of the paper's four
    /// boxes.
    fn signature(&self) -> Option<dynamic_river::Signature> {
        use dynamic_river::{PayloadKind, RecordClass, Signature};
        Some(Signature::map(
            RecordClass::of(subtype::AUDIO, PayloadKind::F64),
            RecordClass::of(subtype::POWER, PayloadKind::F64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_river::Pipeline;
    use river_dsp::Fft;
    use std::f64::consts::PI;

    fn tone(n: usize, k0: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect()
    }

    fn run_fused(records: Vec<Record>) -> Vec<Record> {
        let mut p = Pipeline::new();
        p.add(Spectrum::new());
        p.run(records).unwrap()
    }

    /// The paper's four boxes spelled out: Welch window, the full
    /// complex FFT of the zero-imaginary input, `hypot` per bin.
    fn oracle_magnitudes(samples: &[f64]) -> Vec<f64> {
        let window = WindowKind::Welch.coefficients(samples.len());
        let x: Vec<Complex64> = samples
            .iter()
            .zip(&window)
            .map(|(&s, &w)| Complex64::from_real(s * w))
            .collect();
        let spectrum = Fft::new(samples.len()).forward(&x);
        spectrum.iter().map(|z| z.re.hypot(z.im)).collect()
    }

    /// Record lengths come off the wire, so the fused path is held to
    /// the oracle at every kind of `RealFft` plan, not only at 840:
    /// packed halves that are mixed radix (2, 420, 840, 1024) and
    /// the odd-length direct fallback on mixed radix (1, 7) and on
    /// Bluestein (839 is prime, 841 = 29²).
    #[test]
    fn matches_oracle_chain_on_production_length() {
        for n in [1usize, 2, 7, 420, 839, 840, 841, 1024] {
            let samples: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37).sin() + 0.5 * (i as f64 * 1.3).cos())
                .collect();
            let fused = run_fused(vec![Record::data(
                subtype::AUDIO,
                Payload::f64(samples.clone()),
            )]);
            assert_eq!(fused.len(), 1);
            assert_eq!(fused[0].subtype, subtype::POWER);
            let got = fused[0].payload.as_f64().unwrap();
            let want = oracle_magnitudes(&samples);
            assert_eq!(got.len(), n);
            let scale = want.iter().copied().fold(1.0_f64, f64::max);
            for (k, (x, y)) in got.iter().zip(&want).enumerate() {
                assert!((x - y).abs() <= 1e-9 * scale, "n={n} bin {k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn emits_power_subtype() {
        let out = run_fused(vec![Record::data(
            subtype::AUDIO,
            Payload::f64(tone(64, 4)),
        )]);
        assert_eq!(out[0].subtype, subtype::POWER);
        assert_eq!(out[0].payload.as_f64().unwrap().len(), 64);
    }

    #[test]
    fn empty_audio_record_passes_through() {
        // A zero-length FFT has no plan, so the fused path leaves
        // empty records untouched rather than emitting an empty
        // spectrum.
        let input = vec![Record::data(subtype::AUDIO, Payload::f64(vec![]))];
        assert_eq!(run_fused(input.clone()), input);
    }

    #[test]
    fn non_audio_records_untouched() {
        let input = vec![Record::data(subtype::SCORE, Payload::f64(vec![1.0; 8]))];
        assert_eq!(run_fused(input.clone()), input);
    }

    #[test]
    fn plan_cache_is_bounded() {
        let mut op = Spectrum::new();
        let mut sink: Vec<Record> = Vec::new();
        for n in 1..100usize {
            op.on_record(
                Record::data(subtype::AUDIO, Payload::f64(vec![0.5; n])),
                &mut sink,
            )
            .unwrap();
        }
        assert!(op.plan_count() <= op.plans.capacity());
    }
}
