//! The differential references the suites hold the shipped chains
//! against: the paper's four Figure 5 spectral boxes (`welchwindow` →
//! `float2cplx` → `dft` → `cabs`) as one plain operator where the
//! library builds the fused `spectrum` stage, and ensemble extraction
//! stepped one sample at a time where the library runs `saxanomaly` →
//! `trigger` → `cutter` over records.

// Each test binary uses the oracle it needs.
#![allow(dead_code)]

use dynamic_river::{
    Operator, Payload, PayloadKind, Pipeline, PipelineError, Record, RecordClass, RecordKind,
    Signature, Sink,
};
use ensemble_core::extract::{AdaptiveTrigger, Ensemble, ExtractionTrace};
use ensemble_core::ops::{Cutout, LogScale, PaaOp, Rec2Vect, Reslice};
use ensemble_core::pipeline::extraction_segment;
use ensemble_core::{subtype, ExtractorConfig};
use river_dsp::stats::MovingAverage;
use river_dsp::{Complex64, Fft, WindowKind};
use river_sax::anomaly::BitmapAnomaly;

/// The paper's four spectral boxes in their plainest form: each
/// non-empty audio record is Welch-windowed, transformed by the full
/// complex [`Fft`] with a zero imaginary part, and replaced by its bin
/// magnitudes (`hypot`) as a POWER record. It shares none of the fused
/// stage's real-input packing, Hermitian unpack or guarded magnitude.
#[derive(Clone)]
struct OracleSpectrum;

impl Operator for OracleSpectrum {
    fn name(&self) -> &'static str {
        "oracle-spectrum"
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind == RecordKind::Data && record.subtype == subtype::AUDIO {
            if let Payload::F64(v) = &record.payload {
                if !v.is_empty() {
                    let window = WindowKind::Welch.coefficients(v.len());
                    let x: Vec<Complex64> = v
                        .iter()
                        .zip(&window)
                        .map(|(&s, &w)| Complex64::from_real(s * w))
                        .collect();
                    let spectrum = Fft::new(v.len()).forward(&x);
                    let mags: Vec<f64> = spectrum.iter().map(|z| z.re.hypot(z.im)).collect();
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

    fn signature(&self) -> Option<Signature> {
        Some(Signature::map(
            RecordClass::of(subtype::AUDIO, PayloadKind::F64),
            RecordClass::of(subtype::POWER, PayloadKind::F64),
        ))
    }
}

/// `featurization_segment` with [`OracleSpectrum`] in place of
/// `spectrum`.
pub fn oracle_featurization_segment(config: ExtractorConfig, with_paa: bool) -> Pipeline {
    let mut p = Pipeline::new();
    if config.reslice {
        p.add(Reslice::new());
    }
    p.add(OracleSpectrum);
    p.add(Cutout::new(
        config.cutout_low_hz,
        config.cutout_high_hz,
        config.sample_rate,
    ));
    if with_paa {
        p.add(PaaOp::new(config.paa_factor));
    }
    p.add(LogScale::new());
    p.add(Rec2Vect::new(config.pattern_records));
    p
}

/// `full_pipeline` with the four-operator chain in place of `spectrum`.
pub fn oracle_full_pipeline(config: ExtractorConfig, with_paa: bool) -> Pipeline {
    let mut p = extraction_segment(config);
    p.extend(oracle_featurization_segment(config, with_paa));
    p
}

/// The paper's §3 extraction, one sample at a time: anomaly score →
/// moving average → adaptive trigger → "each ensemble comprises values
/// from the original acoustic signal that correspond to when the
/// trigger value is 1" — every maximal trigger-high run of at least
/// `min_ensemble_samples` samples, the one open at the end of the input
/// included. `cutter` rounds each run to whole records; this does not.
pub fn oracle_extraction(samples: &[f64], cfg: &ExtractorConfig) -> ExtractionTrace {
    let mut detector = BitmapAnomaly::new(cfg.anomaly_config());
    let mut smoother = MovingAverage::new(cfg.ma_window);
    let warmup = (2 * cfg.anomaly_window + cfg.ma_window) as u64;
    let mut trigger = AdaptiveTrigger::new(cfg.trigger_sigmas, warmup, cfg.trigger_hold as u64);
    let (mut scores, mut highs, mut ensembles) = (Vec::new(), Vec::new(), Vec::new());
    let mut open: Option<(usize, Vec<f64>)> = None;
    let mut close = |open: &mut Option<(usize, Vec<f64>)>| {
        let Some((start, run)) = open.take() else {
            return;
        };
        if run.len() >= cfg.min_ensemble_samples {
            let (end, samples) = (start + run.len(), run.into());
            ensembles.push(Ensemble {
                start,
                end,
                samples,
            });
        }
    };
    for (pos, &x) in samples.iter().enumerate() {
        let score = smoother.push(detector.push(x));
        let high = trigger.push(score);
        scores.push(score);
        highs.push(u8::from(high));
        if high {
            open.get_or_insert((pos, Vec::new())).1.push(x);
        } else {
            close(&mut open);
        }
    }
    close(&mut open);
    ExtractionTrace {
        scores,
        trigger: highs,
        ensembles,
    }
}
