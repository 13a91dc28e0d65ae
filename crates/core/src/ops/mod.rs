//! The pipeline operators of the paper's Figure 5.
//!
//! Acquisition: [`wav2rec::Wav2Rec`]; the paper's `readout` (archival)
//! is a [`dynamic_river::net::StreamOut`] over a file. Ensemble
//! extraction: [`saxanomaly::SaxAnomaly`] → [`trigger_op::TriggerOp`] →
//! [`cutter::Cutter`]. Spectral featurization: [`spectrum::Spectrum`] →
//! [`cutout::Cutout`] → optional [`paa_op::PaaOp`] →
//! [`logscale::LogScale`] → [`rec2vect::Rec2Vect`]. The spectrograms
//! of Figures 2 and 3 are [`reslice::Reslice`] → [`spectrum::Spectrum`].
//! `spectrum` is the paper's four boxes `welchwindow` → `float2cplx` →
//! `dft` → `cabs` in one pass (window × real FFT → magnitude); the test
//! suites hold it against a plain complex-FFT oracle.
//!
//! All operators preserve scope discipline: clip scopes pass through
//! `saxanomaly`/`trigger`, `cutter` nests ensemble scopes inside clip
//! scopes, and the spectral stages transform data records without
//! touching scope records.

pub mod cutout;
pub mod cutter;
pub mod logscale;
pub mod paa_op;
pub mod plan_cache;
#[cfg(test)]
mod readout;
pub mod rec2vect;
pub mod reslice;
pub mod saxanomaly;
pub mod spectrum;
pub mod trigger_op;
pub mod wav2rec;

pub use cutout::Cutout;
pub use cutter::Cutter;
pub use logscale::LogScale;
pub use paa_op::PaaOp;
pub use plan_cache::PlanCache;
pub use rec2vect::Rec2Vect;
pub use reslice::Reslice;
pub use saxanomaly::SaxAnomaly;
pub use spectrum::Spectrum;
pub use trigger_op::TriggerOp;
pub use wav2rec::{
    clip_buf_to_records, clip_record_source, clip_to_records, clips_record_source, Wav2Rec,
};
