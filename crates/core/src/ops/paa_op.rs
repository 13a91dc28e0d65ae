//! `paa`: optional PAA reduction of each spectral record (paper §3:
//! "reduced by a factor of 10 using PAA").

use crate::subtype;
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, SampleBuf, Sink};
use river_sax::paa::paa_by_factor_iter;

/// The optional `paa` operator: reduces `F64` power records by an
/// integer factor.
#[derive(Debug, Clone)]
pub struct PaaOp {
    factor: usize,
}

impl PaaOp {
    /// Creates the operator with the given reduction factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn new(factor: usize) -> Self {
        assert!(factor > 0, "factor must be non-zero");
        PaaOp { factor }
    }
}

impl Operator for PaaOp {
    fn name(&self) -> &'static str {
        "paa"
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind == RecordKind::Data && record.subtype == subtype::POWER {
            if let Payload::F64(v) = &record.payload {
                let means: SampleBuf = paa_by_factor_iter(v, self.factor).collect();
                record.payload = Payload::f64(means);
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
    fn reduces_350_bins_to_35() {
        let mut p = Pipeline::new();
        p.add(PaaOp::new(10));
        let out = p
            .run(vec![Record::data(
                subtype::POWER,
                Payload::f64(vec![2.0; 350]),
            )])
            .unwrap();
        let v = out[0].payload.as_f64().unwrap();
        assert_eq!(v.len(), 35);
        assert!(v.iter().all(|&x| (x - 2.0).abs() < 1e-12));
    }

    #[test]
    fn audio_records_pass() {
        let mut p = Pipeline::new();
        p.add(PaaOp::new(10));
        let input = vec![Record::data(subtype::AUDIO, Payload::f64(vec![1.0; 20]))];
        assert_eq!(p.run(input.clone()).unwrap(), input);
    }
}
