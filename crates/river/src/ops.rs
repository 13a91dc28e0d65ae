//! [`ScopeRepair`], the domain-independent operator that puts a stream
//! after an untrusted source back into scope discipline.
//!
//! The acoustic operators of the paper (`saxanomaly`, `trigger`,
//! `cutter`, `spectrum`, …) live in the `ensemble-core` crate.

use crate::analyze::{ScopeEffect, Signature};
use crate::error::PipelineError;
use crate::operator::{Operator, Sink};
use crate::record::Record;
use crate::scope::ScopeTracker;

/// Repairs scope discipline: any scopes still open at end-of-stream are
/// closed with `BadCloseScope` records, and stray closes are dropped
/// (with their count available for inspection). Place after an
/// untrusted source.
#[derive(Debug, Clone, Default)]
pub struct ScopeRepair {
    tracker: ScopeTracker,
    dropped_closes: u64,
}

impl ScopeRepair {
    /// Creates a repair operator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of unmatched close records dropped so far.
    pub fn dropped_closes(&self) -> u64 {
        self.dropped_closes
    }
}

impl Operator for ScopeRepair {
    fn name(&self) -> &'static str {
        "scope-repair"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        match self.tracker.observe(&record) {
            Ok(_) => out.push(record),
            Err(PipelineError::ScopeViolation(_)) => {
                // Unmatched or mismatched close: drop rather than corrupt
                // downstream state.
                self.dropped_closes += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn on_eos(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
        for repair in self.tracker.close_all_bad() {
            out.push(repair)?;
        }
        Ok(())
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    fn signature(&self) -> Option<Signature> {
        Some(
            Signature::passthrough()
                .with_scope(ScopeEffect::Repairs)
                .with_eos_flush(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::record::{Payload, RecordKind};

    #[test]
    fn scope_repair_closes_dangling_scopes() {
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        // Stream dies with two scopes open.
        let input = vec![
            Record::open_scope(1, vec![]),
            Record::open_scope(2, vec![]),
            Record::data(0, Payload::Empty),
        ];
        let out = p.run(input).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[3].kind, RecordKind::BadCloseScope);
        assert_eq!(out[3].scope_type, 2); // innermost first
        assert_eq!(out[4].scope_type, 1);
        crate::scope::validate_scopes(&out).unwrap();
    }

    #[test]
    fn scope_repair_drops_stray_closes() {
        let mut p = Pipeline::new();
        p.add(ScopeRepair::new());
        let input = vec![
            Record::close_scope(5), // stray
            Record::open_scope(1, vec![]),
            Record::close_scope(1),
        ];
        let out = p.run(input).unwrap();
        assert_eq!(out.len(), 2);
        crate::scope::validate_scopes(&out).unwrap();
    }
}
