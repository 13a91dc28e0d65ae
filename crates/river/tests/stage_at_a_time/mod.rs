//! The reference the fused driver is differentially tested against:
//! stage-barrier semantics, one materialized vector per hop. One copy,
//! read by `properties.rs` and `analyze_prop.rs` here and by
//! `ensemble-core`'s `tests/streaming.rs` through a `#[path]` module.
//!
//! A test builds its chain once as a `Vec<Box<dyn Operator>>`; the same
//! constructor feeds [`stage_at_a_time`] and, through [`pipeline`], the
//! `Pipeline` under test (`Box<dyn Operator>` is itself an `Operator`).

use dynamic_river::{Operator, Pipeline, PipelineError, Record};

/// Runs `stages` one after another with a barrier between them:
/// operator N processes the *entire* stream, its `on_eos` flush
/// included, before operator N+1 sees a record. Each stage's
/// `on_record` and `on_eos` are called directly, so there is no
/// pre-flight check: a broken chain shows what it really does.
///
/// Memory scales with stream length × stage count, so this is for
/// clip-sized inputs only.
///
/// # Errors
///
/// Returns the first operator error.
pub fn stage_at_a_time(
    stages: Vec<Box<dyn Operator>>,
    input: impl IntoIterator<Item = Record>,
) -> Result<Vec<Record>, PipelineError> {
    let mut records: Vec<Record> = input.into_iter().collect();
    for mut op in stages {
        let mut next = Vec::with_capacity(records.len());
        for r in records {
            op.on_record(r, &mut next)?;
        }
        op.on_eos(&mut next)?;
        records = next;
    }
    Ok(records)
}

/// The `Pipeline` of `stages`, in order.
pub fn pipeline(stages: Vec<Box<dyn Operator>>) -> Pipeline {
    let mut p = Pipeline::new();
    for op in stages {
        p.add(op);
    }
    p
}
