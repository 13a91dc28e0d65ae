//! `spectrum`: the fused spectral hot path.
//!
//! Replaces the four-operator chain `welchwindow` → `float2cplx` →
//! `dft` → `cabs` with a single pass: Welch-window the audio samples,
//! run a real-input FFT (N real samples packed into an N/2 complex
//! transform), and take bin magnitudes straight out of the Hermitian
//! unpack — all into buffers owned by the plan, so the steady state
//! allocates only the output payload. The original four operators are
//! retained as a differential oracle; `spectrum` must match them
//! record-for-record to ≤ 1e-9 relative error (enforced by property
//! tests in `tests/properties.rs`).

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
/// (subtype [`subtype::POWER`]) out, equivalent to
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
                // The oracle chain passes empty records through
                // unchanged (an empty DFT has nothing to transform), so
                // the fused path must too.
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

    /// Identical to the oracle chain's end-to-end signature:
    /// `welchwindow -> float2cplx -> dft -> cabs` composes to the
    /// same AUDIO/f64 -> POWER/f64 transfer function.
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
    use crate::ops::{Cabs, Dft, Float2Cplx, WelchWindow};
    use dynamic_river::Pipeline;
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

    fn run_oracle(records: Vec<Record>) -> Vec<Record> {
        let mut p = Pipeline::new();
        p.add(WelchWindow::new());
        p.add(Float2Cplx::new());
        p.add(Dft::new());
        p.add(Cabs::new());
        p.run(records).unwrap()
    }

    #[test]
    fn matches_oracle_chain_on_production_length() {
        let input = vec![Record::data(subtype::AUDIO, Payload::f64(tone(840, 17)))];
        let fused = run_fused(input.clone());
        let oracle = run_oracle(input);
        assert_eq!(fused.len(), oracle.len());
        assert_eq!(fused[0].subtype, oracle[0].subtype);
        let a = fused[0].payload.as_f64().unwrap();
        let b = oracle[0].payload.as_f64().unwrap();
        let scale = b.iter().copied().fold(1.0_f64, f64::max);
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= 1e-9 * scale, "bin {k}: {x} vs {y}");
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
        // The oracle chain cannot process empty records (a zero-length
        // FFT has no plan), so the fused path leaves them untouched
        // rather than emitting an empty spectrum.
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
