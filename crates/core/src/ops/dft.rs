//! `dft`: the discrete Fourier transform stage (paper §3).

use crate::ops::plan_cache::PlanCache;
use crate::subtype;
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, SampleBuf, Sink};
use river_dsp::{Complex64, Fft};

/// The `dft` operator: transforms interleaved-complex records in place.
/// FFT plans are cached per record length in a bounded cache (the
/// production length 840 = 2³·3·5·7 takes the mixed-radix plan), and
/// the deinterleave and FFT scratch buffers are reused across records
/// so the steady state allocates nothing beyond COW output buffers.
#[derive(Debug, Default, Clone)]
pub struct Dft {
    plans: PlanCache<Fft>,
    buf: Vec<Complex64>,
    scratch: Vec<Complex64>,
}

impl Dft {
    /// Creates the operator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Operator for Dft {
    fn name(&self) -> &'static str {
        "dft"
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind == RecordKind::Data && record.subtype == subtype::SPECTRUM {
            if let Payload::Complex(v) = &mut record.payload {
                if v.len() % 2 != 0 {
                    return Err(PipelineError::operator(
                        "dft",
                        "complex payload with odd length",
                    ));
                }
                let n = v.len() / 2;
                let plan = self.plans.get_or_insert_with(n, Fft::new);
                self.buf.clear();
                self.buf
                    .extend(v.chunks_exact(2).map(|c| Complex64::new(c[0], c[1])));
                let need = plan.scratch_len();
                if self.scratch.len() < need {
                    self.scratch.resize(need, Complex64::ZERO);
                }
                plan.forward_scratch(&mut self.buf, &mut self.scratch[..need]);
                let buf = &self.buf;
                // Every sample gets overwritten, so a shared buffer
                // should not pay make_mut's copy of doomed data — build
                // the output directly instead. Uniquely owned buffers
                // (the float2cplx output always is) are rewritten in
                // place with no allocation at all.
                if v.is_shared() {
                    let interleaved: SampleBuf = buf.iter().flat_map(|z| [z.re, z.im]).collect();
                    record.payload = Payload::complex(interleaved);
                } else {
                    let samples = v.make_mut();
                    for (i, z) in buf.iter().enumerate() {
                        samples[2 * i] = z.re;
                        samples[2 * i + 1] = z.im;
                    }
                }
            }
        }
        out.push(record)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// Class-level identity; the odd-length runtime error is a
    /// length property the class model cannot see.
    fn signature(&self) -> Option<dynamic_river::Signature> {
        use dynamic_river::{PayloadKind, RecordClass, Signature};
        Some(Signature::map(
            RecordClass::of(subtype::SPECTRUM, PayloadKind::Complex),
            RecordClass::of(subtype::SPECTRUM, PayloadKind::Complex),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_river::Pipeline;
    use std::f64::consts::PI;

    #[test]
    fn transforms_tone_to_bin() {
        let n = 64;
        let k0 = 4;
        let mut interleaved = Vec::with_capacity(n * 2);
        for i in 0..n {
            interleaved.push((2.0 * PI * k0 as f64 * i as f64 / n as f64).cos());
            interleaved.push(0.0);
        }
        let mut p = Pipeline::new();
        p.add(Dft::new());
        let out = p
            .run(vec![Record::data(
                subtype::SPECTRUM,
                Payload::complex(interleaved),
            )])
            .unwrap();
        let spec = out[0].payload.as_complex().unwrap();
        let mag = |k: usize| (spec[2 * k].powi(2) + spec[2 * k + 1].powi(2)).sqrt();
        assert!((mag(k0) - n as f64 / 2.0).abs() < 1e-6);
        assert!(mag(k0 + 1) < 1e-6);
    }

    #[test]
    fn shared_input_buffer_is_never_mutated() {
        use dynamic_river::SampleBuf;
        let shared = SampleBuf::from(vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        let keep = shared.clone();
        let mut p = Pipeline::new();
        p.add(Dft::new());
        let out = p
            .run(vec![Record::data(
                subtype::SPECTRUM,
                Payload::Complex(shared),
            )])
            .unwrap();
        // The sibling view still holds the pre-transform samples …
        assert_eq!(&keep[..], &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        // … and the output is a fresh buffer, not a COW copy of stale
        // data that was then overwritten.
        let spec = out[0].payload.as_complex_buf().unwrap();
        assert!(!SampleBuf::shares_backing(spec, &keep));
        assert_eq!(spec[0], 10.0); // DC bin = 1+2+3+4
    }

    #[test]
    fn plan_cache_handles_multiple_lengths() {
        let mut op = Dft::new();
        let mut sink: Vec<Record> = Vec::new();
        for n in [8usize, 840, 8] {
            op.on_record(
                Record::data(subtype::SPECTRUM, Payload::complex(vec![0.0; n * 2])),
                &mut sink,
            )
            .unwrap();
        }
        assert_eq!(op.plans.len(), 2);
    }

    #[test]
    fn plan_cache_is_bounded() {
        let mut op = Dft::new();
        let mut sink: Vec<Record> = Vec::new();
        for n in 1..100usize {
            op.on_record(
                Record::data(subtype::SPECTRUM, Payload::complex(vec![0.0; n * 2])),
                &mut sink,
            )
            .unwrap();
        }
        assert!(op.plans.len() <= op.plans.capacity());
    }

    #[test]
    fn odd_complex_payload_is_error() {
        let mut p = Pipeline::new();
        p.add(Dft::new());
        let err = p
            .run(vec![Record::data(
                subtype::SPECTRUM,
                Payload::complex(vec![0.0; 3]),
            )])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Operator { .. }));
    }

    #[test]
    fn non_spectrum_records_pass() {
        let mut p = Pipeline::new();
        p.add(Dft::new());
        let input = vec![Record::data(subtype::AUDIO, Payload::f64(vec![0.0; 4]))];
        assert_eq!(p.run(input.clone()).unwrap(), input);
    }
}
