//! The paper's four Figure 5 spectral boxes (`welchwindow` →
//! `float2cplx` → `dft` → `cabs`) composed by hand where the library
//! builds the fused `spectrum` stage: the differential reference the
//! suites hold the shipped chains against.

use dynamic_river::Pipeline;
use ensemble_core::ops::{
    Cabs, Cutout, Dft, Float2Cplx, LogScale, PaaOp, Rec2Vect, Reslice, WelchWindow,
};
use ensemble_core::pipeline::extraction_segment;
use ensemble_core::ExtractorConfig;

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
