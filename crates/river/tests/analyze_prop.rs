//! Property test for the static chain analyzer (DESIGN.md §15).
//!
//! A pool of small operators whose **runtime behavior exactly matches
//! their declared signatures** — subtype mappers, strict consumers,
//! drop filters, balanced scope wrappers, and a scope leaker — is
//! composed into random chains. For every chain the analyzer's verdict
//! is compared against what actually happens when the chain runs (via
//! the stage-at-a-time reference, which performs no pre-flight check):
//!
//! - a chain [`Pipeline::check_with`] accepts (no error-severity
//!   diagnostics) never produces a runtime operator error and always
//!   yields scope-balanced output;
//! - equivalently, every chain that fails at runtime — a rejected
//!   record or unbalanced output scopes — was flagged with an error
//!   diagnostic up front.
//!
//! The pool is deliberately restricted to operators the analyzer can
//! track exactly (concrete record classes, statically known scope
//! effects), so the implication holds in both directions; operators
//! with undeclared signatures trade detection for soundness and are
//! covered by the unit tests instead.

mod testkit;

use dynamic_river::analyze::{CheckOptions, PayloadKind, RecordClass, Severity};
use dynamic_river::prelude::*;
use dynamic_river::scope::validate_scopes;
use dynamic_river::{ScopeEffect, Signature, UnmatchedPolicy};
use rand::rngs::StdRng;
use rand::RngExt;
use testkit::{pipeline, stage_at_a_time};

/// Subtypes the pool operates over.
const SUBTYPES: std::ops::RangeInclusive<u16> = 1..=4;
/// The scope type the synthesized input stream arrives in.
const INPUT_SCOPE: u16 = 7;
/// Scope types the pool's scope-touching operators use.
const OP_SCOPES: std::ops::RangeInclusive<u16> = 8..=9;

/// One pool operator, as data (so failing cases print readably).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spec {
    /// Rewrites subtype `from` to `to`; passes everything else.
    Map { from: u16, to: u16 },
    /// Passes subtype `only`; any other data record is a runtime error.
    Strict { only: u16 },
    /// Passes subtype `keep`; silently drops all other data records.
    Filter { keep: u16 },
    /// Wraps each record of subtype `keep` in its own balanced scope.
    Wrap { keep: u16, scope: u16 },
    /// Emits one scope open at stream start and never closes it.
    Leak { scope: u16 },
}

/// Runtime realization of a [`Spec`] — behavior and signature agree by
/// construction.
struct PoolOp {
    spec: Spec,
    leaked: bool,
}

impl PoolOp {
    fn new(spec: Spec) -> Self {
        PoolOp {
            spec,
            leaked: false,
        }
    }
}

impl Operator for PoolOp {
    fn name(&self) -> &'static str {
        match self.spec {
            Spec::Map { .. } => "pool-map",
            Spec::Strict { .. } => "pool-strict",
            Spec::Filter { .. } => "pool-filter",
            Spec::Wrap { .. } => "pool-wrap",
            Spec::Leak { .. } => "pool-leak",
        }
    }

    fn on_record(&mut self, mut record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if let Spec::Leak { scope } = self.spec {
            if !self.leaked {
                self.leaked = true;
                out.push(Record::open_scope(scope, vec![]))?;
            }
            return out.push(record);
        }
        if record.kind != RecordKind::Data {
            return out.push(record);
        }
        match self.spec {
            Spec::Map { from, to } => {
                if record.subtype == from {
                    record.subtype = to;
                }
                out.push(record)
            }
            Spec::Strict { only } => {
                if record.subtype == only {
                    out.push(record)
                } else {
                    Err(PipelineError::Operator {
                        operator: self.name().to_string(),
                        message: format!("unexpected record subtype {}", record.subtype),
                    })
                }
            }
            Spec::Filter { keep } => {
                if record.subtype == keep {
                    out.push(record)
                } else {
                    Ok(())
                }
            }
            Spec::Wrap { keep, scope } => {
                if record.subtype == keep {
                    out.push(Record::open_scope(scope, vec![]))?;
                    out.push(record)?;
                    out.push(Record::close_scope(scope))
                } else {
                    out.push(record)
                }
            }
            Spec::Leak { .. } => unreachable!("handled above"),
        }
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(PoolOp::new(self.spec)))
    }

    fn signature(&self) -> Option<Signature> {
        let f64_of = |s: u16| RecordClass::of(s, PayloadKind::F64);
        Some(match self.spec {
            Spec::Map { from, to } => Signature {
                consumes: vec![f64_of(from)],
                passes_matched: false,
                produces: vec![f64_of(to)],
                unmatched: UnmatchedPolicy::Keep,
                strict_payload: false,
                scope: ScopeEffect::Preserves,
                flushes_at_eos: false,
            },
            Spec::Strict { only } => Signature {
                consumes: vec![f64_of(only)],
                passes_matched: true,
                produces: Vec::new(),
                unmatched: UnmatchedPolicy::Error,
                strict_payload: false,
                scope: ScopeEffect::Preserves,
                flushes_at_eos: false,
            },
            Spec::Filter { keep } => Signature {
                consumes: vec![f64_of(keep)],
                passes_matched: true,
                produces: Vec::new(),
                unmatched: UnmatchedPolicy::Drop,
                strict_payload: false,
                scope: ScopeEffect::Preserves,
                flushes_at_eos: false,
            },
            Spec::Wrap { keep, scope } => Signature {
                consumes: vec![f64_of(keep)],
                passes_matched: true,
                produces: Vec::new(),
                unmatched: UnmatchedPolicy::Keep,
                strict_payload: false,
                scope: ScopeEffect::OpensBalanced { scope_type: scope },
                flushes_at_eos: false,
            },
            Spec::Leak { scope } => {
                Signature::passthrough().with_scope(ScopeEffect::Opens { scope_type: scope })
            }
        })
    }
}

/// A pool operator, drawn 4 : 2 : 2 : 2 : 1 over map, strict, filter,
/// wrap and leak.
fn arb_spec(rng: &mut StdRng) -> Spec {
    match rng.random_range(0..11) {
        0..4 => Spec::Map {
            from: rng.random_range(SUBTYPES),
            to: rng.random_range(SUBTYPES),
        },
        4..6 => Spec::Strict {
            only: rng.random_range(SUBTYPES),
        },
        6..8 => Spec::Filter {
            keep: rng.random_range(SUBTYPES),
        },
        8..10 => Spec::Wrap {
            keep: rng.random_range(SUBTYPES),
            scope: rng.random_range(OP_SCOPES),
        },
        _ => Spec::Leak {
            scope: rng.random_range(OP_SCOPES),
        },
    }
}

/// The analysis profile of the synthesized input: subtype-1 `F64` data
/// records inside one scope of type [`INPUT_SCOPE`].
fn input_options() -> CheckOptions {
    CheckOptions {
        input: vec![RecordClass::of(1, PayloadKind::F64)],
        input_scope_types: Some(vec![INPUT_SCOPE]),
        ..CheckOptions::default()
    }
}

/// The chain of `specs`, one pool operator each.
fn stages(specs: &[Spec]) -> Vec<Box<dyn Operator>> {
    specs
        .iter()
        .map(|&spec| Box::new(PoolOp::new(spec)) as Box<dyn Operator>)
        .collect()
}

/// Whether the analyzer refuses the chain of `specs` (an error-severity
/// diagnostic) over [`input_options`].
fn rejected(specs: &[Spec]) -> bool {
    pipeline(stages(specs))
        .check_with(&input_options())
        .iter()
        .any(|d| d.severity == Severity::Error)
}

/// A concrete stream inhabiting every class the analysis is seeded
/// with: one input scope holding `n` subtype-1 data records.
fn input_stream(n: usize) -> Vec<Record> {
    let mut records = vec![Record::open_scope(INPUT_SCOPE, vec![])];
    for i in 0..n {
        records.push(Record::data(1, Payload::f64(vec![i as f64])));
    }
    records.push(Record::close_scope(INPUT_SCOPE));
    records
}

/// Anchors the property against a vacuous pass: the pool really does
/// contain chains the analyzer accepts and chains it rejects, and both
/// verdicts are correct.
#[test]
fn pool_exercises_both_verdicts() {
    // Accepted and clean: map 1→2, strictly consume 2, wrap it.
    let ok = [
        Spec::Map { from: 1, to: 2 },
        Spec::Strict { only: 2 },
        Spec::Wrap { keep: 2, scope: 8 },
    ];
    assert!(!rejected(&ok), "clean chain rejected");
    let out = stage_at_a_time(stages(&ok), input_stream(3)).expect("clean chain ran");
    validate_scopes(&out).expect("clean chain balanced");

    // Rejected and failing: map 1→2, then strictly consume 1.
    let bad = [Spec::Map { from: 1, to: 2 }, Spec::Strict { only: 1 }];
    assert!(rejected(&bad), "failing chain not flagged");
    stage_at_a_time(stages(&bad), input_stream(3)).expect_err("mismatched chain fails at runtime");

    // Rejected and failing: a leaked scope.
    let leaky = [Spec::Leak { scope: 9 }];
    assert!(rejected(&leaky), "leaky chain not flagged");
    let out = stage_at_a_time(stages(&leaky), input_stream(3)).expect("leak is not an error");
    validate_scopes(&out).expect_err("leaked scope left output unbalanced");
}

/// Agreement between the analyzer and reality, both directions:
/// accepted chains run clean, failing chains were flagged.
#[test]
fn verdict_matches_runtime() {
    seeds::check(0..512, |rng| {
        let specs = seeds::vec(rng, 0..8, arb_spec);
        let n = rng.random_range(1usize..4);
        let accepted = !rejected(&specs);

        // The stage-at-a-time reference performs no pre-flight
        // analysis, so this observes the chain's true runtime behavior.
        let outcome = stage_at_a_time(stages(&specs), input_stream(n));
        let ran_clean = match &outcome {
            Ok(out) => validate_scopes(out).is_ok(),
            Err(_) => false,
        };

        if accepted {
            assert!(
                ran_clean,
                "analyzer accepted {specs:?} but the run failed: {outcome:?}"
            );
        } else {
            // Rejection is allowed to be conservative (e.g. a dead
            // stage runs fine); nothing to assert here. The reverse
            // implication — failing chains were flagged — is exactly
            // the `accepted => ran_clean` assertion above.
        }
    });
}
