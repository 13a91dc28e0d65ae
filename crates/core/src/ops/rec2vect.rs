//! `rec2vect`: merges spectral records into feature patterns.
//!
//! "The `rec2vect` operator converts pipeline records to vectors of
//! floating point values (patterns), suitable for use in our
//! classification and detection experiments with MESO. … Each pattern
//! was constructed by merging 3 frequency domain records" (paper §3–4).

use crate::{scope_type, subtype};
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, Sink};

/// The `rec2vect` operator: inside each ensemble scope, every
/// `per_pattern` consecutive power records merge into one pattern
/// record (subtype [`crate::subtype::PATTERN`]); a trailing group with
/// fewer records is discarded at ensemble close. The pattern sequence
/// counter is clip-local (it resets at every clip `OpenScope`, like
/// `cutter`'s record counter), which keeps the operator scope-local —
/// the property the sharded runtime relies on for byte-identical
/// output.
#[derive(Debug, Clone)]
pub struct Rec2Vect {
    per_pattern: usize,
    buffer: Vec<f64>,
    buffered_records: usize,
    in_ensemble: bool,
    pattern_seq: u64,
}

impl Rec2Vect {
    /// Creates the operator (the paper merges 3 records per pattern).
    ///
    /// # Panics
    ///
    /// Panics if `per_pattern == 0`.
    pub fn new(per_pattern: usize) -> Self {
        assert!(per_pattern > 0, "per_pattern must be non-zero");
        Rec2Vect {
            per_pattern,
            buffer: Vec::new(),
            buffered_records: 0,
            in_ensemble: false,
            pattern_seq: 0,
        }
    }

    fn reset_group(&mut self) {
        self.buffer.clear();
        self.buffered_records = 0;
    }
}

impl Operator for Rec2Vect {
    fn name(&self) -> &'static str {
        "rec2vect"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        match record.kind {
            RecordKind::OpenScope if record.scope_type == scope_type::CLIP => {
                self.in_ensemble = false;
                self.pattern_seq = 0;
                self.reset_group();
                out.push(record)
            }
            RecordKind::OpenScope if record.scope_type == scope_type::ENSEMBLE => {
                self.in_ensemble = true;
                self.reset_group();
                out.push(record)
            }
            k if k.closes_scope() && record.scope_type == scope_type::ENSEMBLE => {
                // Trailing partial group is discarded (paper patterns are
                // always exactly per_pattern records).
                self.in_ensemble = false;
                self.reset_group();
                out.push(record)
            }
            RecordKind::Data if self.in_ensemble && record.subtype == subtype::POWER => {
                let Some(v) = record.payload.as_f64() else {
                    return Err(PipelineError::operator(
                        "rec2vect",
                        "power record without F64 payload",
                    ));
                };
                self.buffer.extend_from_slice(v);
                self.buffered_records += 1;
                if self.buffered_records == self.per_pattern {
                    // One copy into the payload; the buffer keeps its
                    // capacity for the next pattern.
                    let features = Payload::f64(&self.buffer[..]);
                    let seq = self.pattern_seq;
                    self.pattern_seq += 1;
                    self.reset_group();
                    out.push(
                        Record::data(subtype::PATTERN, features)
                            .with_seq(seq)
                            .with_depth(record.scope_depth),
                    )?;
                }
                Ok(())
            }
            _ => out.push(record),
        }
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// In-ensemble power spectra are absorbed into the pattern
    /// vector emitted at the ensemble close; other records pass.
    fn signature(&self) -> Option<dynamic_river::Signature> {
        use dynamic_river::{PayloadKind, RecordClass, Signature};
        Some(Signature::map(
            RecordClass::of(subtype::POWER, PayloadKind::F64),
            RecordClass::of(subtype::PATTERN, PayloadKind::F64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_river::scope::validate_scopes;
    use dynamic_river::Pipeline;

    fn power_ensemble(records: usize, bins: usize) -> Vec<Record> {
        let mut v = vec![Record::open_scope(scope_type::ENSEMBLE, vec![])];
        for i in 0..records {
            v.push(
                Record::data(subtype::POWER, Payload::f64(vec![i as f64; bins])).with_seq(i as u64),
            );
        }
        v.push(Record::close_scope(scope_type::ENSEMBLE));
        v
    }

    #[test]
    fn merges_three_records_per_pattern() {
        let mut p = Pipeline::new();
        p.add(Rec2Vect::new(3));
        let out = p.run(power_ensemble(6, 350)).unwrap();
        validate_scopes(&out).unwrap();
        let patterns: Vec<&Record> = out
            .iter()
            .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN)
            .collect();
        assert_eq!(patterns.len(), 2);
        assert_eq!(patterns[0].payload.as_f64().unwrap().len(), 1_050);
        // First pattern = records 0,1,2 concatenated.
        let f = patterns[0].payload.as_f64().unwrap();
        assert_eq!(f[0], 0.0);
        assert_eq!(f[350], 1.0);
        assert_eq!(f[700], 2.0);
        assert_eq!(patterns[0].seq, 0);
        assert_eq!(patterns[1].seq, 1);
    }

    #[test]
    fn trailing_partial_group_dropped() {
        let mut p = Pipeline::new();
        p.add(Rec2Vect::new(3));
        let out = p.run(power_ensemble(5, 10)).unwrap();
        let patterns = out
            .iter()
            .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::PATTERN)
            .count();
        assert_eq!(patterns, 1);
    }

    #[test]
    fn ensemble_with_too_few_records_yields_no_patterns() {
        let mut p = Pipeline::new();
        p.add(Rec2Vect::new(3));
        let out = p.run(power_ensemble(2, 10)).unwrap();
        assert!(out.iter().all(|r| r.subtype != subtype::PATTERN));
        validate_scopes(&out).unwrap();
    }

    #[test]
    fn groups_do_not_cross_ensembles() {
        let mut input = power_ensemble(2, 4);
        input.extend(power_ensemble(2, 4));
        let mut p = Pipeline::new();
        p.add(Rec2Vect::new(3));
        let out = p.run(input).unwrap();
        // 2 + 2 records never form a 3-record pattern across the boundary.
        assert!(out.iter().all(|r| r.subtype != subtype::PATTERN));
    }

    #[test]
    fn pattern_seq_increases_across_ensembles() {
        let mut input = power_ensemble(3, 4);
        input.extend(power_ensemble(3, 4));
        let mut p = Pipeline::new();
        p.add(Rec2Vect::new(3));
        let out = p.run(input).unwrap();
        let seqs: Vec<u64> = out
            .iter()
            .filter(|r| r.subtype == subtype::PATTERN)
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn pattern_seq_resets_per_clip() {
        // Two identical clips must emit identical pattern sequences —
        // the scope-local contract the sharded runtime depends on.
        let clip = |count| {
            let mut v = vec![Record::open_scope(scope_type::CLIP, vec![])];
            v.extend(power_ensemble(count, 4));
            v.push(Record::close_scope(scope_type::CLIP));
            v
        };
        let mut input = clip(3);
        input.extend(clip(3));
        let mut p = Pipeline::new();
        p.add(Rec2Vect::new(3));
        let out = p.run(input).unwrap();
        let seqs: Vec<u64> = out
            .iter()
            .filter(|r| r.subtype == subtype::PATTERN)
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs, vec![0, 0]);
    }
}
