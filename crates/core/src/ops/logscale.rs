//! `logscale`: logarithmic magnitude compression of spectral records.
//!
//! Applies `x ↦ ln(1 + 100·x)` to power records. This equalizes
//! "similar acoustic patterns that differ in signal strength" — the
//! role the paper assigns to Z-normalization (§2) — at the feature
//! level, so a loud and a quiet rendition of the same vocalization
//! yield nearby patterns under Euclidean distance. See `DESIGN.md` for
//! the deviation note.

use crate::subtype;
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, Sink};

/// Gain applied before the logarithm; chosen so the noise floor maps
/// near zero while vocalization magnitudes spread over several units.
pub const LOG_GAIN: f64 = 100.0;

/// Applies the compression to one magnitude value.
#[inline]
pub fn log_scale_value(x: f64) -> f64 {
    (1.0 + LOG_GAIN * x).ln()
}

/// The `logscale` operator.
#[derive(Debug, Default, Clone)]
pub struct LogScale;

impl LogScale {
    /// Creates the operator.
    pub fn new() -> Self {
        Self
    }
}

impl Operator for LogScale {
    fn name(&self) -> &'static str {
        "logscale"
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind == RecordKind::Data && record.subtype == subtype::POWER {
            if let Payload::F64(ref mut v) = record.payload {
                // Copy-on-write: in place for uniquely owned spectra
                // (the common case: `cutout`'s view of `spectrum`'s
                // fresh buffer, or `paa`'s means).
                for x in v.make_mut().iter_mut() {
                    *x = log_scale_value(*x);
                }
            }
        }
        out.push(record)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    fn signature(&self) -> Option<dynamic_river::Signature> {
        use dynamic_river::{PayloadKind, RecordClass, Signature};
        Some(Signature::map(
            RecordClass::of(subtype::POWER, PayloadKind::F64),
            RecordClass::of(subtype::POWER, PayloadKind::F64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_river::Pipeline;

    #[test]
    fn compresses_power_records() {
        let mut p = Pipeline::new();
        p.add(LogScale::new());
        let out = p
            .run(vec![Record::data(
                subtype::POWER,
                Payload::f64(vec![0.0, 0.01, 1.0]),
            )])
            .unwrap();
        let v = out[0].payload.as_f64().unwrap();
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 2.0f64.ln()).abs() < 1e-12);
        assert!((v[2] - 101.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn compression_is_monotone() {
        let mut prev = f64::MIN;
        for i in 0..100 {
            let y = log_scale_value(i as f64 * 0.1);
            assert!(y > prev);
            prev = y;
        }
    }

    #[test]
    fn loud_and_quiet_copies_become_close() {
        // A 10x amplitude difference shrinks dramatically under the log.
        let quiet = 0.05f64;
        let loud = 0.5f64;
        let before = loud / quiet;
        let after = log_scale_value(loud) / log_scale_value(quiet);
        assert!(after < before / 2.0, "before {before} after {after}");
    }

    #[test]
    fn audio_records_untouched() {
        let mut p = Pipeline::new();
        p.add(LogScale::new());
        let input = vec![Record::data(subtype::AUDIO, Payload::f64(vec![0.5]))];
        assert_eq!(p.run(input.clone()).unwrap(), input);
    }
}
