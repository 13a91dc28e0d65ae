//! `float2cplx`: converts real samples to the complex format required
//! by the `dft` operator (paper §3).

use crate::subtype;
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, SampleBuf, Sink};

/// The `float2cplx` operator: `F64` audio payloads become interleaved
/// `Complex` payloads (`re`, `im = 0`) with subtype
/// [`crate::subtype::SPECTRUM`].
#[derive(Debug, Default, Clone)]
pub struct Float2Cplx;

impl Float2Cplx {
    /// Creates the operator.
    pub fn new() -> Self {
        Self
    }
}

impl Operator for Float2Cplx {
    fn name(&self) -> &'static str {
        "float2cplx"
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind == RecordKind::Data && record.subtype == subtype::AUDIO {
            if let Payload::F64(v) = &record.payload {
                let complex: SampleBuf = v.iter().flat_map(|&x| [x, 0.0]).collect();
                record.payload = Payload::complex(complex);
                record.subtype = subtype::SPECTRUM;
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
            RecordClass::of(subtype::AUDIO, PayloadKind::F64),
            RecordClass::of(subtype::SPECTRUM, PayloadKind::Complex),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_river::Pipeline;

    #[test]
    fn interleaves_zero_imaginary() {
        let mut p = Pipeline::new();
        p.add(Float2Cplx::new());
        let out = p
            .run(vec![Record::data(
                subtype::AUDIO,
                Payload::f64(vec![1.0, -2.0]),
            )])
            .unwrap();
        assert_eq!(out[0].subtype, subtype::SPECTRUM);
        assert_eq!(out[0].payload.as_complex().unwrap(), &[1.0, 0.0, -2.0, 0.0]);
    }

    #[test]
    fn scope_records_untouched() {
        let mut p = Pipeline::new();
        p.add(Float2Cplx::new());
        let input = vec![Record::open_scope(1, vec![]), Record::close_scope(1)];
        assert_eq!(p.run(input.clone()).unwrap(), input);
    }
}
