//! `cabs`: complex absolute value — converts the DFT output to a real
//! power-spectrum record (paper §3).

use crate::subtype;
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, SampleBuf, Sink};

/// The `cabs` operator: interleaved complex payloads become `F64`
/// magnitude payloads with subtype [`crate::subtype::POWER`].
#[derive(Debug, Default, Clone)]
pub struct Cabs;

impl Cabs {
    /// Creates the operator.
    pub fn new() -> Self {
        Self
    }
}

impl Operator for Cabs {
    fn name(&self) -> &'static str {
        "cabs"
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind == RecordKind::Data && record.subtype == subtype::SPECTRUM {
            if let Payload::Complex(v) = &record.payload {
                let mags: SampleBuf = v.chunks_exact(2).map(|c| c[0].hypot(c[1])).collect();
                record.payload = Payload::f64(mags);
                record.subtype = subtype::POWER;
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
            RecordClass::of(subtype::SPECTRUM, PayloadKind::Complex),
            RecordClass::of(subtype::POWER, PayloadKind::F64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_river::Pipeline;

    #[test]
    fn magnitudes_computed() {
        let mut p = Pipeline::new();
        p.add(Cabs::new());
        let out = p
            .run(vec![Record::data(
                subtype::SPECTRUM,
                Payload::complex(vec![3.0, 4.0, 0.0, -2.0]),
            )])
            .unwrap();
        assert_eq!(out[0].subtype, subtype::POWER);
        assert_eq!(out[0].payload.as_f64().unwrap(), &[5.0, 2.0]);
    }

    #[test]
    fn other_records_pass() {
        let mut p = Pipeline::new();
        p.add(Cabs::new());
        let input = vec![Record::data(subtype::AUDIO, Payload::f64(vec![1.0]))];
        assert_eq!(p.run(input.clone()).unwrap(), input);
    }
}
