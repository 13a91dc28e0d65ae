//! Static chain verification (DESIGN.md §15).
//!
//! A pipeline chain is data: a sequence of operators, each of which
//! declares — through [`Operator::signature`] — which data-record
//! classes it reacts to, what it emits, and what it does to scope
//! discipline. [`analyze`](crate::pipeline::Pipeline::check) walks a
//! chain propagating an **abstract record-set** (a set of
//! [`RecordClass`]es over-approximating the data records that can be in
//! flight at that point) through each stage's declared transfer
//! function and reports typed [`Diagnostic`]s:
//!
//! - [`DiagnosticKind::TypeMismatch`] — a record class produced
//!   upstream is *guaranteed* to make a stage fail at runtime (wrong
//!   payload kind for a strict stage, or any data record reaching a
//!   stage that rejects unmatched records).
//! - [`DiagnosticKind::DeadStage`] — none of the classes a stage
//!   consumes is ever produced upstream: the stage's distinctive work
//!   can never execute (the classic mis-ordered chain, e.g. `trigger`
//!   placed before `saxanomaly`).
//! - [`DiagnosticKind::ScopeImbalance`] — a stage opens scopes no later
//!   stage (or the stage itself, at end-of-stream) closes, or closes
//!   scopes that are never opened.
//! - [`DiagnosticKind::ShardUnsafe`] — an operator whose
//!   [`Operator::clone_op`] returns `None`; the chain cannot be
//!   sharded. A warning under plain [`Pipeline::check`], an error when
//!   checking on behalf of [`Pipeline::run_sharded`].
//! - [`DiagnosticKind::UnknownSignature`] — an operator with no
//!   declared signature. A **warning**, never an error: signatures are
//!   opt-in, an undeclared operator may do anything (so the analyzer
//!   resets to the unknown state and stays sound), and failing the run
//!   would punish exactly the user-defined closures the pipeline API
//!   encourages.
//!
//! The analysis is deliberately over-approximate in the sound
//! direction: it only reports a problem when the declared signatures
//! *prove* one, so a clean chain is never rejected. The price is missed
//! detections around undeclared operators — which is what the
//! `UnknownSignature` warning surfaces.
//!
//! ```
//! use dynamic_river::ops::ScopeRepair;
//! use dynamic_river::prelude::*;
//!
//! /// A stage that declares no signature.
//! #[derive(Clone)]
//! struct Mystery;
//! # impl Operator for Mystery {
//! #     fn name(&self) -> &str {
//! #         "mystery"
//! #     }
//! #     fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
//! #         out.push(record)
//! #     }
//! #     fn clone_op(&self) -> Option<Box<dyn Operator>> {
//! #         Some(Box::new(self.clone()))
//! #     }
//! # }
//!
//! let mut pipeline = Pipeline::new();
//! pipeline.add(ScopeRepair::new());
//! // An operator with no declared signature: legal, but the analyzer
//! // loses precision from this stage on and says so.
//! pipeline.add(Mystery);
//!
//! let diags = pipeline.check();
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].kind, DiagnosticKind::UnknownSignature);
//! assert_eq!(diags[0].kind.code(), "RL0005");
//! assert!(diags[0].render().starts_with("warning[RL0005]"));
//! ```
//!
//! [`Pipeline::check`]: crate::pipeline::Pipeline::check
//! [`Pipeline::run_sharded`]: crate::pipeline::Pipeline::run_sharded
//! [`Operator::signature`]: crate::operator::Operator::signature
//! [`Operator::clone_op`]: crate::operator::Operator::clone_op

use std::collections::BTreeSet;
use std::fmt;

use crate::operator::Operator;
use crate::record::Payload;

/// The payload kind of a data record — [`Payload`] without the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PayloadKind {
    /// No payload.
    Empty,
    /// Real samples.
    F64,
    /// Interleaved (re, im) complex samples.
    Complex,
    /// Raw bytes.
    Bytes,
    /// UTF-8 text.
    Text,
    /// Key/value string pairs.
    Pairs,
}

impl PayloadKind {
    /// The kind of a concrete payload.
    pub fn of(payload: &Payload) -> PayloadKind {
        match payload {
            Payload::Empty => PayloadKind::Empty,
            Payload::F64(_) => PayloadKind::F64,
            Payload::Complex(_) => PayloadKind::Complex,
            Payload::Bytes(_) => PayloadKind::Bytes,
            Payload::Text(_) => PayloadKind::Text,
            Payload::Pairs(_) => PayloadKind::Pairs,
        }
    }

    fn label(self) -> &'static str {
        match self {
            PayloadKind::Empty => "empty",
            PayloadKind::F64 => "f64",
            PayloadKind::Complex => "complex",
            PayloadKind::Bytes => "bytes",
            PayloadKind::Text => "text",
            PayloadKind::Pairs => "pairs",
        }
    }
}

/// An abstract class of data records: a `subtype` constraint and a
/// payload-kind constraint, each optional (`None` = any).
///
/// Classes are the elements of the abstract record-set the analyzer
/// pushes through a chain. [`RecordClass::ANY`] (both fields `None`)
/// describes a completely unknown stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordClass {
    /// Record subtype, or `None` for any subtype.
    pub subtype: Option<u16>,
    /// Payload kind, or `None` for any payload.
    pub payload: Option<PayloadKind>,
}

impl RecordClass {
    /// The class of all data records.
    pub const ANY: RecordClass = RecordClass {
        subtype: None,
        payload: None,
    };

    /// A fully concrete class: one subtype, one payload kind.
    pub const fn of(subtype: u16, payload: PayloadKind) -> RecordClass {
        RecordClass {
            subtype: Some(subtype),
            payload: Some(payload),
        }
    }

    /// All records of one subtype, any payload.
    pub const fn subtype(subtype: u16) -> RecordClass {
        RecordClass {
            subtype: Some(subtype),
            payload: None,
        }
    }

    /// `true` when some record could belong to both classes.
    pub fn overlaps(&self, other: &RecordClass) -> bool {
        fits(self.subtype, other.subtype) && fits(self.payload, other.payload)
    }

    /// `true` when every record of `self` also belongs to `other`.
    pub fn within(&self, other: &RecordClass) -> bool {
        subsumes(other.subtype, self.subtype) && subsumes(other.payload, self.payload)
    }
}

/// Two optional constraints are compatible (either side wildcards or
/// both agree).
fn fits<T: PartialEq>(a: Option<T>, b: Option<T>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y,
        _ => true,
    }
}

/// Constraint `outer` subsumes constraint `inner`.
fn subsumes<T: PartialEq>(outer: Option<T>, inner: Option<T>) -> bool {
    match (outer, inner) {
        (None, _) => true,
        (Some(x), Some(y)) => x == y,
        (Some(_), None) => false,
    }
}

impl fmt::Display for RecordClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.subtype {
            Some(s) => write!(f, "#{s}")?,
            None => write!(f, "*")?,
        }
        match self.payload {
            Some(p) => write!(f, "/{}", p.label()),
            None => write!(f, "/*"),
        }
    }
}

/// What a stage does with data records matching none of its
/// [`Signature::consumes`] classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnmatchedPolicy {
    /// Unmatched data records pass through unchanged (the common case).
    Keep,
    /// Unmatched data records are silently dropped (e.g. `cutter`
    /// discarding scores inside a clip).
    Drop,
    /// Unmatched data records are a runtime error.
    Error,
}

/// A stage's effect on scope discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeEffect {
    /// Passes scope records through without adding or removing any.
    Preserves,
    /// Opens scopes of the given type **and closes every one of them
    /// itself** (by the matching point or at end-of-stream), so the
    /// chain stays balanced — e.g. `cutter` wrapping ensembles.
    OpensBalanced {
        /// The `scope_type` of the scopes opened.
        scope_type: u16,
    },
    /// Net-opens scopes of the given type: some remain open unless a
    /// later stage closes them.
    Opens {
        /// The `scope_type` of the scopes opened.
        scope_type: u16,
    },
    /// Net-closes scopes of the given type opened elsewhere.
    Closes {
        /// The `scope_type` of the scopes closed.
        scope_type: u16,
    },
    /// Normalizes scope discipline (drops stray closes, force-closes
    /// leftovers at end-of-stream) — e.g.
    /// [`ScopeRepair`](crate::ops::ScopeRepair). Downstream of a
    /// repairing stage the analyzer restarts scope tracking.
    Repairs,
}

/// A declared operator signature: the operator's abstract transfer
/// function, scope effect and flush behavior — everything the
/// [chain analyzer](crate::pipeline::Pipeline::check) needs to reason
/// about the operator without running it.
///
/// Scope **markers** (open/close records) always flow through every
/// operator and are not part of `consumes`/`produces`; only data
/// records are classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Data-record classes the operator reacts to. Empty means the
    /// operator's emissions are not data-driven (e.g. triggered by
    /// scope boundaries): [`produces`](Self::produces) then counts as
    /// always reachable.
    pub consumes: Vec<RecordClass>,
    /// `true` when consumed records also continue downstream (the
    /// operator taps rather than transforms — e.g. `saxanomaly`
    /// forwarding audio alongside the scores it emits).
    pub passes_matched: bool,
    /// Data-record classes the operator emits when it fires.
    pub produces: Vec<RecordClass>,
    /// Treatment of data records matching no `consumes` class.
    pub unmatched: UnmatchedPolicy,
    /// `true` when a record whose subtype matches a `consumes` class
    /// but whose payload kind differs is a **runtime error** (e.g.
    /// `trigger` on a score record without an F64 payload) rather than
    /// falling through to [`unmatched`](Self::unmatched).
    pub strict_payload: bool,
    /// Effect on scope discipline.
    pub scope: ScopeEffect,
    /// `true` when the operator emits buffered records at
    /// end-of-stream ([`Operator::on_eos`]).
    ///
    /// [`Operator::on_eos`]: crate::operator::Operator::on_eos
    pub flushes_at_eos: bool,
}

impl Signature {
    /// The identity signature: passes every record through unchanged.
    pub fn passthrough() -> Signature {
        Signature {
            consumes: vec![RecordClass::ANY],
            passes_matched: true,
            produces: Vec::new(),
            unmatched: UnmatchedPolicy::Keep,
            strict_payload: false,
            scope: ScopeEffect::Preserves,
            flushes_at_eos: false,
        }
    }

    /// A 1:1 transformer: records of `from` become records of `to`,
    /// everything else passes through.
    pub fn map(from: RecordClass, to: RecordClass) -> Signature {
        Signature {
            consumes: vec![from],
            passes_matched: false,
            produces: vec![to],
            unmatched: UnmatchedPolicy::Keep,
            strict_payload: false,
            scope: ScopeEffect::Preserves,
            flushes_at_eos: false,
        }
    }

    /// Builder: replace the scope effect.
    #[must_use]
    pub fn with_scope(mut self, scope: ScopeEffect) -> Signature {
        self.scope = scope;
        self
    }

    /// Builder: replace the unmatched-record policy.
    #[must_use]
    pub fn with_unmatched(mut self, policy: UnmatchedPolicy) -> Signature {
        self.unmatched = policy;
        self
    }

    /// Builder: mark mismatched payload kinds on matching subtypes as
    /// runtime errors.
    #[must_use]
    pub fn with_strict_payload(mut self) -> Signature {
        self.strict_payload = true;
        self
    }

    /// Builder: mark the operator as flushing at end-of-stream.
    #[must_use]
    pub fn with_eos_flush(mut self) -> Signature {
        self.flushes_at_eos = true;
        self
    }

    /// Builder: consumed records also continue downstream.
    #[must_use]
    pub fn with_passthrough_of_matched(mut self) -> Signature {
        self.passes_matched = true;
        self
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth surfacing, does not gate execution.
    Warning,
    /// The chain is provably broken; pre-flight checks refuse to run it.
    Error,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The category of a [`Diagnostic`] (see the module docs for the
/// catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// A record class produced upstream is guaranteed to fail at this
    /// stage.
    TypeMismatch,
    /// No class this stage consumes is ever produced upstream.
    DeadStage,
    /// Scopes opened but never closed, or closed but never opened.
    ScopeImbalance,
    /// The operator cannot be duplicated ([`Operator::clone_op`]
    /// returns `None`), so the chain cannot be sharded.
    ///
    /// [`Operator::clone_op`]: crate::operator::Operator::clone_op
    ShardUnsafe,
    /// The operator declares no [`Signature`]; the analyzer treats its
    /// output as unknown from this stage on.
    UnknownSignature,
}

impl DiagnosticKind {
    /// Stable diagnostic code (used by `river-lint` reports).
    pub fn code(self) -> &'static str {
        match self {
            DiagnosticKind::TypeMismatch => "RL0001",
            DiagnosticKind::DeadStage => "RL0002",
            DiagnosticKind::ScopeImbalance => "RL0003",
            DiagnosticKind::ShardUnsafe => "RL0004",
            DiagnosticKind::UnknownSignature => "RL0005",
        }
    }
}

/// One finding of the chain analyzer, anchored to a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Diagnostic category.
    pub kind: DiagnosticKind,
    /// Zero-based stage index in the chain.
    pub stage: usize,
    /// Name of the operator at that stage.
    pub operator: String,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// rustc-style multi-line rendering (used by `river-lint`).
    pub fn render(&self) -> String {
        format!(
            "{}[{}]: {}\n  --> stage {}: operator `{}`",
            self.severity.label(),
            self.kind.code(),
            self.message,
            self.stage,
            self.operator,
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] stage {} `{}`: {}",
            self.severity.label(),
            self.kind.code(),
            self.stage,
            self.operator,
            self.message
        )
    }
}

/// Options for [`Pipeline::check_with`](crate::pipeline::Pipeline::check_with).
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Abstract classes of the data records the source feeds into the
    /// chain. Defaults to `[RecordClass::ANY]` (completely unknown
    /// input), which makes the analysis maximally permissive — seed
    /// concrete classes (e.g. audio records) for full precision.
    pub input: Vec<RecordClass>,
    /// The `scope_type`s of scopes that may already be present in the
    /// input stream, or `None` when unknown. With a declared set, a
    /// stage closing scopes of an undeclared type (that no earlier
    /// stage opens) is an error.
    pub input_scope_types: Option<Vec<u16>>,
    /// `true` when checking on behalf of a sharded run:
    /// [`DiagnosticKind::ShardUnsafe`] findings become errors instead
    /// of warnings.
    pub sharded: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            input: vec![RecordClass::ANY],
            input_scope_types: None,
            sharded: false,
        }
    }
}

/// Walks the chain, propagating the abstract record-set through each
/// stage's declared signature. `probe_clone` controls whether each
/// operator's `clone_op` is exercised to detect shard-unsafe stages
/// (skipped on the streaming pre-flight path, where shardability is
/// irrelevant and probing would clone operator state on every run).
pub(crate) fn analyze_ops(
    ops: &[Box<dyn Operator>],
    opts: &CheckOptions,
    probe_clone: bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut classes: BTreeSet<RecordClass> = opts.input.iter().copied().collect();
    // Scope bookkeeping: the stack of net-opened scopes (scope_type,
    // opener stage, opener name), the set of scope types known to be
    // present in the stream at this point, and whether that set is
    // exhaustive (it stops being exhaustive after an unknown-signature
    // or repairing stage).
    let mut open_stack: Vec<(u16, usize, String)> = Vec::new();
    let mut known_types: BTreeSet<u16> = opts.input_scope_types.iter().flatten().copied().collect();
    let mut scope_known = opts.input_scope_types.is_some();

    for (stage, op) in ops.iter().enumerate() {
        if probe_clone && op.clone_op().is_none() {
            diags.push(Diagnostic {
                severity: if opts.sharded {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                kind: DiagnosticKind::ShardUnsafe,
                stage,
                operator: op.name().to_string(),
                message: format!(
                    "operator `{}` does not support duplication (clone_op returned None); \
                     chains containing it cannot be sharded",
                    op.name()
                ),
            });
        }

        let Some(sig) = op.signature() else {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                kind: DiagnosticKind::UnknownSignature,
                stage,
                operator: op.name().to_string(),
                message: format!(
                    "operator `{}` declares no signature; the analyzer cannot see \
                     through it (its output is treated as unknown)",
                    op.name()
                ),
            });
            // An undeclared operator may emit anything and do anything
            // to scopes: reset to the unknown state (sound: no false
            // positives downstream, at the price of missed detections).
            classes = [RecordClass::ANY].into_iter().collect();
            open_stack.clear();
            scope_known = false;
            continue;
        };

        // --- data-record transfer function ---------------------------
        let mut out: BTreeSet<RecordClass> = BTreeSet::new();
        let mut any_matched = false;
        for &class in &classes {
            let mut full_match = false;
            let mut payload_clash = false;
            for consume in &sig.consumes {
                if class.overlaps(consume) {
                    full_match = true;
                } else if fits(class.subtype, consume.subtype)
                    && !fits(class.payload, consume.payload)
                {
                    payload_clash = true;
                }
            }
            if full_match {
                any_matched = true;
                if sig.passes_matched {
                    out.insert(class);
                }
            }
            let fully_consumed = sig.consumes.iter().any(|c| class.within(c));
            if fully_consumed {
                continue;
            }
            if payload_clash && sig.strict_payload && !full_match {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    kind: DiagnosticKind::TypeMismatch,
                    stage,
                    operator: op.name().to_string(),
                    message: format!(
                        "operator `{}` requires a different payload kind for records \
                         of class {class} produced upstream (a guaranteed runtime error)",
                        op.name()
                    ),
                });
                continue;
            }
            match sig.unmatched {
                UnmatchedPolicy::Keep => {
                    out.insert(class);
                }
                UnmatchedPolicy::Drop => {}
                UnmatchedPolicy::Error => {
                    if !full_match && !payload_clash {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            kind: DiagnosticKind::TypeMismatch,
                            stage,
                            operator: op.name().to_string(),
                            message: format!(
                                "operator `{}` rejects data records of class {class} \
                                 produced upstream (a guaranteed runtime error)",
                                op.name()
                            ),
                        });
                    }
                }
            }
        }
        let fires = sig.consumes.is_empty() || any_matched;
        if fires {
            out.extend(sig.produces.iter().copied());
        }
        if !any_matched && !sig.consumes.is_empty() && !sig.consumes.contains(&RecordClass::ANY) {
            let wanted = sig
                .consumes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            diags.push(Diagnostic {
                severity: Severity::Error,
                kind: DiagnosticKind::DeadStage,
                stage,
                operator: op.name().to_string(),
                message: format!(
                    "operator `{}` consumes {wanted}, but no upstream stage produces \
                     any of these classes — the stage can never fire",
                    op.name()
                ),
            });
        }
        classes = out;

        // --- scope effect --------------------------------------------
        match sig.scope {
            ScopeEffect::Preserves => {}
            ScopeEffect::OpensBalanced { scope_type } => {
                known_types.insert(scope_type);
            }
            ScopeEffect::Opens { scope_type } => {
                open_stack.push((scope_type, stage, op.name().to_string()));
                known_types.insert(scope_type);
            }
            ScopeEffect::Closes { scope_type } => {
                if let Some(pos) = open_stack.iter().rposition(|(t, _, _)| *t == scope_type) {
                    open_stack.remove(pos);
                } else if scope_known && !known_types.contains(&scope_type) {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        kind: DiagnosticKind::ScopeImbalance,
                        stage,
                        operator: op.name().to_string(),
                        message: format!(
                            "operator `{}` closes scopes of type {scope_type}, but no \
                             earlier stage opens them and the declared input contains \
                             no such scopes",
                            op.name()
                        ),
                    });
                }
            }
            ScopeEffect::Repairs => {
                // Everything upstream is normalized; restart tracking.
                open_stack.clear();
                scope_known = false;
            }
        }
    }

    for (scope_type, stage, operator) in open_stack {
        diags.push(Diagnostic {
            severity: Severity::Error,
            kind: DiagnosticKind::ScopeImbalance,
            stage,
            operator: operator.clone(),
            message: format!(
                "operator `{operator}` opens scopes of type {scope_type} that no later \
                 stage closes — the output stream is left unbalanced"
            ),
        });
    }

    diags.sort_by_key(|d| (d.stage, std::cmp::Reverse(d.severity)));
    diags
}

/// `true` when any diagnostic in the slice is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PipelineError;
    use crate::operator::Sink;
    use crate::ops::ScopeRepair;
    use crate::pipeline::Pipeline;
    use crate::record::Record;
    use crate::testkit::{Passthrough, ScopeSum};

    /// Test operator with a fully scripted signature.
    struct Scripted {
        name: &'static str,
        sig: Option<Signature>,
        cloneable: bool,
    }

    impl Operator for Scripted {
        fn name(&self) -> &str {
            self.name
        }
        fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
            out.push(record)
        }
        fn signature(&self) -> Option<Signature> {
            self.sig.clone()
        }
        fn clone_op(&self) -> Option<Box<dyn Operator>> {
            self.cloneable.then(|| {
                Box::new(Scripted {
                    name: self.name,
                    sig: self.sig.clone(),
                    cloneable: true,
                }) as Box<dyn Operator>
            })
        }
    }

    fn scripted(name: &'static str, sig: Signature) -> Scripted {
        Scripted {
            name,
            sig: Some(sig),
            cloneable: true,
        }
    }

    const A: RecordClass = RecordClass::of(1, PayloadKind::F64);
    const B: RecordClass = RecordClass::of(2, PayloadKind::F64);
    const C: RecordClass = RecordClass::of(3, PayloadKind::F64);

    #[test]
    fn clean_map_chain_has_no_diagnostics() {
        let mut p = Pipeline::new();
        p.add(scripted("a2b", Signature::map(A, B)));
        p.add(scripted("b2c", Signature::map(B, C)));
        let diags = p.check_with(&CheckOptions {
            input: vec![A],
            ..CheckOptions::default()
        });
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mis_ordered_chain_is_a_named_dead_stage() {
        // b2c placed before a2b: nothing upstream produces B.
        let mut p = Pipeline::new();
        p.add(scripted("b2c", Signature::map(B, C)));
        p.add(scripted("a2b", Signature::map(A, B)));
        let diags = p.check_with(&CheckOptions {
            input: vec![A],
            ..CheckOptions::default()
        });
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::DeadStage)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].operator, "b2c");
        assert_eq!(dead[0].stage, 0);
        assert_eq!(dead[0].severity, Severity::Error);
    }

    #[test]
    fn strict_payload_clash_is_a_type_mismatch() {
        let mut p = Pipeline::new();
        p.add(scripted(
            "cplx",
            Signature::map(A, RecordClass::of(1, PayloadKind::Complex)),
        ));
        p.add(scripted(
            "strict",
            Signature::map(A, B).with_strict_payload(),
        ));
        let diags = p.check_with(&CheckOptions {
            input: vec![A],
            ..CheckOptions::default()
        });
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::TypeMismatch && d.operator == "strict"));
    }

    #[test]
    fn rejecting_stage_flags_unconsumed_classes() {
        let mut p = Pipeline::new();
        p.add(scripted(
            "strict-a",
            Signature::map(A, A).with_unmatched(UnmatchedPolicy::Error),
        ));
        let diags = p.check_with(&CheckOptions {
            input: vec![A, B],
            ..CheckOptions::default()
        });
        let mismatches: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::TypeMismatch)
            .collect();
        assert_eq!(mismatches.len(), 1, "{diags:?}");
        assert_eq!(mismatches[0].operator, "strict-a");
    }

    #[test]
    fn unclosed_scope_is_an_imbalance_naming_the_opener() {
        let mut p = Pipeline::new();
        p.add(scripted(
            "opener",
            Signature::passthrough().with_scope(ScopeEffect::Opens { scope_type: 9 }),
        ));
        let diags = p.check();
        let scope: Vec<_> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::ScopeImbalance)
            .collect();
        assert_eq!(scope.len(), 1);
        assert_eq!(scope[0].operator, "opener");
        assert_eq!(scope[0].severity, Severity::Error);
    }

    #[test]
    fn matched_open_close_pair_is_balanced() {
        let mut p = Pipeline::new();
        p.add(scripted(
            "opener",
            Signature::passthrough().with_scope(ScopeEffect::Opens { scope_type: 9 }),
        ));
        p.add(scripted(
            "closer",
            Signature::passthrough().with_scope(ScopeEffect::Closes { scope_type: 9 }),
        ));
        assert!(p.check().is_empty());
    }

    #[test]
    fn close_of_undeclared_scope_type_is_flagged_only_with_known_input() {
        let mut p = Pipeline::new();
        p.add(scripted(
            "closer",
            Signature::passthrough().with_scope(ScopeEffect::Closes { scope_type: 9 }),
        ));
        // Unknown input scopes: the close may be legitimate.
        assert!(p.check().is_empty());
        // Declared scope-free input: provably stray.
        let diags = p.check_with(&CheckOptions {
            input_scope_types: Some(vec![]),
            ..CheckOptions::default()
        });
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::ScopeImbalance && d.operator == "closer"));
    }

    #[test]
    fn repair_stage_resets_scope_tracking() {
        let mut p = Pipeline::new();
        p.add(scripted(
            "opener",
            Signature::passthrough().with_scope(ScopeEffect::Opens { scope_type: 9 }),
        ));
        p.add(ScopeRepair::new());
        assert!(
            p.check().is_empty(),
            "a repairing stage closes leftover scopes at EOS"
        );
    }

    #[test]
    fn non_cloneable_operator_warns_then_errors_when_sharded() {
        let mut p = Pipeline::new();
        p.add(Scripted {
            name: "opaque",
            sig: Some(Signature::passthrough()),
            cloneable: false,
        });
        let plain = p.check();
        assert!(plain
            .iter()
            .any(|d| d.kind == DiagnosticKind::ShardUnsafe && d.severity == Severity::Warning));
        let sharded = p.check_with(&CheckOptions {
            sharded: true,
            ..CheckOptions::default()
        });
        assert!(sharded.iter().any(|d| d.kind == DiagnosticKind::ShardUnsafe
            && d.severity == Severity::Error
            && d.operator == "opaque"));
    }

    #[test]
    fn unknown_signature_warns_and_resets_the_analysis() {
        let mut p = Pipeline::new();
        p.add(Scripted {
            name: "mystery",
            sig: None,
            cloneable: true,
        });
        // Downstream of the unknown stage anything may appear, so a
        // would-be dead stage is not flagged.
        p.add(scripted("b2c", Signature::map(B, C)));
        let diags = p.check_with(&CheckOptions {
            input: vec![A],
            ..CheckOptions::default()
        });
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagnosticKind::UnknownSignature
                    && d.severity == Severity::Warning)
        );
        assert!(!diags.iter().any(|d| d.kind == DiagnosticKind::DeadStage));
    }

    #[test]
    fn drop_policy_narrows_the_abstract_set() {
        // A dropping stage turns ANY input into its concrete produces,
        // enabling provable dead stages downstream.
        let mut p = Pipeline::new();
        p.add(scripted(
            "gate",
            Signature::map(A, A).with_unmatched(UnmatchedPolicy::Drop),
        ));
        p.add(scripted("b2c", Signature::map(B, C)));
        let diags = p.check(); // ANY input
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::DeadStage && d.operator == "b2c"));
    }

    #[test]
    fn builtin_ops_are_clean_under_any_input() {
        let mut p = Pipeline::new();
        p.add(Passthrough);
        p.add(ScopeSum::new(42));
        p.add(ScopeRepair::new());
        assert!(p.check().is_empty(), "{:?}", p.check());
    }

    #[test]
    fn diagnostic_rendering_is_rustc_style() {
        let d = Diagnostic {
            severity: Severity::Error,
            kind: DiagnosticKind::DeadStage,
            stage: 2,
            operator: "trigger".into(),
            message: "nothing produces scores".into(),
        };
        let r = d.render();
        assert!(r.starts_with("error[RL0002]: nothing produces scores"));
        assert!(r.contains("--> stage 2: operator `trigger`"));
        assert!(!d.to_string().is_empty());
    }
}
