//! The pipeline operators of the paper's Figure 5.
//!
//! Acquisition: [`wav2rec::Wav2Rec`] (and [`readout::Readout`] for
//! archival). Ensemble extraction: [`saxanomaly::SaxAnomaly`] →
//! [`trigger_op::TriggerOp`] → [`cutter::Cutter`]. Spectral
//! featurization: [`reslice::Reslice`] → [`spectrum::Spectrum`] →
//! [`cutout::Cutout`] → optional [`paa_op::PaaOp`] →
//! [`rec2vect::Rec2Vect`]. `spectrum` is the paper's four boxes
//! `welchwindow` → `float2cplx` → `dft` → `cabs` in one pass (window ×
//! real FFT → magnitude); the test suites hold it against a plain
//! complex-FFT oracle.
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
pub mod readout;
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
pub use readout::Readout;
pub use rec2vect::Rec2Vect;
pub use reslice::Reslice;
pub use saxanomaly::SaxAnomaly;
pub use spectrum::Spectrum;
pub use trigger_op::TriggerOp;
pub use wav2rec::{
    clip_buf_to_records, clip_record_source, clip_to_records, clips_record_source, Wav2Rec,
};
