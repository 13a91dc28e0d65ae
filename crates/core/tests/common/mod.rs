//! The differential references the suites hold the shipped chains
//! against: the paper's four Figure 5 spectral boxes (`welchwindow` →
//! `float2cplx` → `dft` → `cabs`) composed by hand where the library
//! builds the fused `spectrum` stage, and ensemble extraction stepped
//! one sample at a time where the library runs `saxanomaly` →
//! `trigger` → `cutter` over records.

// Each test binary uses the oracle it needs.
#![allow(dead_code)]

use dynamic_river::Pipeline;
use ensemble_core::extract::{AdaptiveTrigger, Ensemble, ExtractionTrace};
use ensemble_core::ops::{
    Cabs, Cutout, Dft, Float2Cplx, LogScale, PaaOp, Rec2Vect, Reslice, WelchWindow,
};
use ensemble_core::pipeline::extraction_segment;
use ensemble_core::ExtractorConfig;
use river_dsp::stats::MovingAverage;
use river_sax::anomaly::BitmapAnomaly;

/// `featurization_segment` with the four-operator chain in place of
/// `spectrum`.
pub fn oracle_featurization_segment(config: ExtractorConfig, with_paa: bool) -> Pipeline {
    let mut p = Pipeline::new();
    if config.reslice {
        p.add(Reslice::new());
    }
    p.add(WelchWindow::new());
    p.add(Float2Cplx::new());
    p.add(Dft::new());
    p.add(Cabs::new());
    p.add(Cutout::new(
        config.cutout_low_hz,
        config.cutout_high_hz,
        config.sample_rate,
    ));
    if with_paa {
        p.add(PaaOp::new(config.paa_factor));
    }
    if config.log_scale {
        p.add(LogScale::new());
    }
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
    let mut trigger =
        AdaptiveTrigger::with_hold(cfg.trigger_sigmas, warmup, cfg.trigger_hold as u64);
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
