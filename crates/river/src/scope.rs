//! Scope tracking and repair.
//!
//! "We define a data stream scope as a sequence of records that share
//! some contextual meaning … Scopes can be nested. The `scope` field
//! indicates the current scope nesting depth … For instance, if an
//! upstream segment terminates unexpectedly and leaves one or more
//! scopes open, the `streamin` operator will generate `BadCloseScope`
//! records to close all open scopes." (paper §2)

use crate::error::PipelineError;
use crate::record::{Record, RecordKind};

/// One open scope on the tracker's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenScopeInfo {
    /// Application scope type of the open scope.
    pub scope_type: u16,
    /// Depth at which it was opened (0 = outermost).
    pub depth: u32,
}

/// Event classification produced by [`ScopeTracker::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeEvent {
    /// A scope opened; the payload is its depth.
    Opened(u32),
    /// A scope closed cleanly; the payload is its depth.
    Closed(u32),
    /// A scope closed via `BadCloseScope`; the payload is its depth.
    BadClosed(u32),
    /// A data record passed at the current depth.
    Data(u32),
}

/// Streaming scope-state tracker.
///
/// Feeding every record through a tracker yields the current nesting
/// depth, validates the scope discipline, and — after an unexpected
/// end-of-stream — synthesizes the `BadCloseScope` records needed to
/// resynchronize downstream state.
///
/// # Example
///
/// ```
/// use dynamic_river::prelude::*;
///
/// let mut t = ScopeTracker::new();
/// t.observe(&Record::open_scope(1, vec![])).unwrap();
/// assert_eq!(t.depth(), 1);
/// // Upstream dies here: repair closes the open scope.
/// let repairs = t.close_all_bad();
/// assert_eq!(repairs.len(), 1);
/// assert_eq!(repairs[0].kind, RecordKind::BadCloseScope);
/// assert_eq!(t.depth(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScopeTracker {
    stack: Vec<OpenScopeInfo>,
}

impl ScopeTracker {
    /// Creates a tracker with no open scopes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current nesting depth (number of open scopes).
    pub fn depth(&self) -> u32 {
        self.stack.len() as u32
    }

    /// The innermost open scope, if any.
    pub fn innermost(&self) -> Option<OpenScopeInfo> {
        self.stack.last().copied()
    }

    /// `true` when no scopes are open (a safe cut point for a shard
    /// split).
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Observes one record, updating scope state.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::ScopeViolation`] for a close without a
    /// matching open, or a close whose scope type does not match the
    /// innermost open scope.
    pub fn observe(&mut self, record: &Record) -> Result<ScopeEvent, PipelineError> {
        match record.kind {
            RecordKind::OpenScope => {
                let depth = self.depth();
                self.stack.push(OpenScopeInfo {
                    scope_type: record.scope_type,
                    depth,
                });
                Ok(ScopeEvent::Opened(depth))
            }
            RecordKind::CloseScope | RecordKind::BadCloseScope => {
                let open = self.stack.pop().ok_or_else(|| {
                    PipelineError::ScopeViolation(format!(
                        "close of scope type {} with no open scope",
                        record.scope_type
                    ))
                })?;
                if open.scope_type != record.scope_type {
                    // Restore state before reporting: the stream is
                    // inconsistent but the tracker should stay usable.
                    self.stack.push(open);
                    return Err(PipelineError::ScopeViolation(format!(
                        "close of scope type {} but innermost open scope is type {}",
                        record.scope_type, open.scope_type
                    )));
                }
                if record.kind == RecordKind::BadCloseScope {
                    Ok(ScopeEvent::BadClosed(open.depth))
                } else {
                    Ok(ScopeEvent::Closed(open.depth))
                }
            }
            RecordKind::Data => Ok(ScopeEvent::Data(self.depth())),
        }
    }

    /// Stamps a record's `scope_depth` field from the tracker state and
    /// observes it: `OpenScope` records receive the depth of the scope
    /// they create; close records the depth of the scope they close;
    /// data records the current depth.
    ///
    /// # Errors
    ///
    /// Propagates [`ScopeTracker::observe`] violations.
    pub fn stamp(&mut self, mut record: Record) -> Result<Record, PipelineError> {
        let depth_before = self.depth();
        let event = self.observe(&record)?;
        record.scope_depth = match event {
            ScopeEvent::Opened(d) | ScopeEvent::Closed(d) | ScopeEvent::BadClosed(d) => d,
            ScopeEvent::Data(_) => depth_before,
        };
        Ok(record)
    }

    /// Synthesizes `BadCloseScope` records for every open scope,
    /// innermost first — what `streamin` emits when the upstream
    /// terminates unexpectedly. The tracker ends balanced.
    pub fn close_all_bad(&mut self) -> Vec<Record> {
        let mut repairs = Vec::with_capacity(self.stack.len());
        while let Some(open) = self.stack.pop() {
            repairs.push(Record::bad_close_scope(open.scope_type).with_depth(open.depth));
        }
        repairs
    }
}

/// Validates that a whole record sequence is scope-balanced and
/// well-nested; returns the number of scopes seen.
///
/// # Errors
///
/// Returns the first violation, or a violation for scopes left open at
/// the end of the sequence.
pub fn validate_scopes<'a, I>(records: I) -> Result<usize, PipelineError>
where
    I: IntoIterator<Item = &'a Record>,
{
    let mut tracker = ScopeTracker::new();
    let mut scopes = 0usize;
    for r in records {
        if let ScopeEvent::Opened(_) = tracker.observe(r)? {
            scopes += 1;
        }
    }
    if tracker.is_balanced() {
        Ok(scopes)
    } else {
        Err(PipelineError::ScopeViolation(format!(
            "{} scope(s) left open at end of stream",
            tracker.depth()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Payload;

    #[test]
    fn nested_open_close() {
        let mut t = ScopeTracker::new();
        assert_eq!(
            t.observe(&Record::open_scope(1, vec![])).unwrap(),
            ScopeEvent::Opened(0)
        );
        assert_eq!(
            t.observe(&Record::open_scope(2, vec![])).unwrap(),
            ScopeEvent::Opened(1)
        );
        assert_eq!(t.depth(), 2);
        assert_eq!(t.innermost().unwrap().scope_type, 2);
        assert_eq!(
            t.observe(&Record::close_scope(2)).unwrap(),
            ScopeEvent::Closed(1)
        );
        assert_eq!(
            t.observe(&Record::close_scope(1)).unwrap(),
            ScopeEvent::Closed(0)
        );
        assert!(t.is_balanced());
    }

    #[test]
    fn data_reports_current_depth() {
        let mut t = ScopeTracker::new();
        t.observe(&Record::open_scope(1, vec![])).unwrap();
        let e = t
            .observe(&Record::data(0, Payload::f64(vec![0.0])))
            .unwrap();
        assert_eq!(e, ScopeEvent::Data(1));
    }

    #[test]
    fn close_without_open_is_violation() {
        let mut t = ScopeTracker::new();
        let err = t.observe(&Record::close_scope(1)).unwrap_err();
        assert!(matches!(err, PipelineError::ScopeViolation(_)));
    }

    #[test]
    fn mismatched_close_type_is_violation_and_preserves_state() {
        let mut t = ScopeTracker::new();
        t.observe(&Record::open_scope(1, vec![])).unwrap();
        let err = t.observe(&Record::close_scope(9)).unwrap_err();
        assert!(matches!(err, PipelineError::ScopeViolation(_)));
        // Scope still open; a correct close succeeds.
        assert_eq!(t.depth(), 1);
        t.observe(&Record::close_scope(1)).unwrap();
    }

    #[test]
    fn bad_close_accepted_like_close() {
        let mut t = ScopeTracker::new();
        t.observe(&Record::open_scope(3, vec![])).unwrap();
        let e = t.observe(&Record::bad_close_scope(3)).unwrap();
        assert_eq!(e, ScopeEvent::BadClosed(0));
        assert!(t.is_balanced());
    }

    #[test]
    fn close_all_bad_innermost_first() {
        let mut t = ScopeTracker::new();
        t.observe(&Record::open_scope(1, vec![])).unwrap();
        t.observe(&Record::open_scope(2, vec![])).unwrap();
        t.observe(&Record::open_scope(3, vec![])).unwrap();
        let repairs = t.close_all_bad();
        let types: Vec<u16> = repairs.iter().map(|r| r.scope_type).collect();
        assert_eq!(types, vec![3, 2, 1]);
        let depths: Vec<u32> = repairs.iter().map(|r| r.scope_depth).collect();
        assert_eq!(depths, vec![2, 1, 0]);
        assert!(t.is_balanced());
    }

    #[test]
    fn stamp_assigns_depths() {
        let mut t = ScopeTracker::new();
        let open = t.stamp(Record::open_scope(1, vec![])).unwrap();
        assert_eq!(open.scope_depth, 0);
        let inner_open = t.stamp(Record::open_scope(2, vec![])).unwrap();
        assert_eq!(inner_open.scope_depth, 1);
        let data = t.stamp(Record::data(0, Payload::Empty)).unwrap();
        assert_eq!(data.scope_depth, 2);
        let close = t.stamp(Record::close_scope(2)).unwrap();
        assert_eq!(close.scope_depth, 1);
    }

    #[test]
    fn validate_accepts_balanced_counts_scopes() {
        let records = vec![
            Record::open_scope(1, vec![]),
            Record::data(0, Payload::Empty),
            Record::open_scope(2, vec![]),
            Record::close_scope(2),
            Record::close_scope(1),
        ];
        assert_eq!(validate_scopes(&records).unwrap(), 2);
    }

    #[test]
    fn validate_rejects_unbalanced() {
        let records = vec![Record::open_scope(1, vec![])];
        assert!(validate_scopes(&records).is_err());
        let records = vec![Record::close_scope(1)];
        assert!(validate_scopes(&records).is_err());
    }
}
