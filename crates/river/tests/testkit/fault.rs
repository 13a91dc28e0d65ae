//! Fault injectors. The paper asks that "pipelines composed for data
//! acquisition and analysis of continuous sensor data streams must be
//! able to resynchronize and enable the continuation of meaningful data
//! stream processing in the face of pipeline recomposition and faults"
//! (§5); these operators and the [`WireMangler`] inject the faults
//! those mechanisms must absorb.

use dynamic_river::codec::frame_len;
use dynamic_river::{Operator, PipelineError, Record, Sink};

/// Fails the pipeline after passing `n` records — simulates an operator
/// crash mid-stream.
#[derive(Debug, Clone, Copy)]
pub struct FailAfter {
    remaining: u64,
}

impl FailAfter {
    /// Creates an operator that forwards `n` records then errors.
    pub fn new(n: u64) -> Self {
        FailAfter { remaining: n }
    }
}

impl Operator for FailAfter {
    fn name(&self) -> &'static str {
        "fail-after"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if self.remaining == 0 {
            return Err(PipelineError::operator(
                "fail-after",
                "injected fault: operator crashed",
            ));
        }
        self.remaining -= 1;
        out.push(record)
    }

    /// Clones carry the current countdown/counter — note that in a
    /// sharded run each worker's clone counts its own shard's records.
    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(*self))
    }
}

/// Drops every `k`-th scope-closing record — simulates a buggy or
/// crashing producer that leaves scopes dangling. Downstream
/// `ScopeRepair` / `streamin` must synthesize `BadCloseScope` records.
#[derive(Debug, Clone, Copy)]
pub struct DropCloses {
    k: u64,
    seen_closes: u64,
}

impl DropCloses {
    /// Drops every `k`-th close (1-based: `k = 1` drops every close).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn every(k: u64) -> Self {
        assert!(k > 0, "k must be non-zero");
        DropCloses { k, seen_closes: 0 }
    }
}

impl Operator for DropCloses {
    fn name(&self) -> &'static str {
        "drop-closes"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if record.kind.closes_scope() {
            self.seen_closes += 1;
            if self.seen_closes.is_multiple_of(self.k) {
                return Ok(()); // dropped
            }
        }
        out.push(record)
    }

    /// Clones carry the current countdown/counter — note that in a
    /// sharded run each worker's clone counts its own shard's records.
    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(*self))
    }
}

/// Truncates the stream after `n` records (swallows the rest without
/// erroring) — simulates an upstream that silently stops, leaving open
/// scopes for the repair machinery.
#[derive(Debug, Clone, Copy)]
pub struct TruncateAfter {
    remaining: u64,
}

impl TruncateAfter {
    /// Creates an operator that forwards only the first `n` records.
    pub fn new(n: u64) -> Self {
        TruncateAfter { remaining: n }
    }
}

impl Operator for TruncateAfter {
    fn name(&self) -> &'static str {
        "truncate-after"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        if self.remaining == 0 {
            return Ok(());
        }
        self.remaining -= 1;
        out.push(record)
    }

    /// Clones carry the current countdown/counter — note that in a
    /// sharded run each worker's clone counts its own shard's records.
    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(*self))
    }
}

/// One wire-level mutation a [`WireMangler`] can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mangle {
    /// Flip one bit somewhere in one frame.
    FlipBit,
    /// Drop the tail of the stream from inside a frame.
    Truncate,
    /// Insert garbage bytes between two frames.
    InsertGarbage,
    /// Duplicate a whole frame in place.
    DuplicateFrame,
    /// Remove a whole frame.
    DeleteFrame,
}

/// Byte-level corruption injector that understands *frame boundaries*
/// (via [`frame_len`]), so tests
/// and the fuzz harness can aim mutations precisely: inside a frame
/// (checksum territory), between frames (magic/sync territory), or at
/// whole-frame granularity (duplicate/delete). Deterministic: the same
/// seed always produces the same mangled bytes.
#[derive(Debug, Clone)]
pub struct WireMangler {
    state: u64,
}

impl WireMangler {
    /// Creates a mangler with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        WireMangler {
            // xorshift64 has one fixed point at 0; nudge it off.
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    /// Next pseudo-random u64 (xorshift64 — no external RNG needed).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform-ish index in `0..n` (`n` must be non-zero).
    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Splits a wire byte stream at frame boundaries. Trailing bytes
    /// that do not form a complete frame (or are unparseable) are
    /// returned as a final undersized chunk.
    pub fn frames(wire: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut rest = wire;
        while !rest.is_empty() {
            if let Ok(Some(n)) = frame_len(rest) {
                frames.push(rest[..n].to_vec());
                rest = &rest[n..];
            } else {
                frames.push(rest.to_vec());
                break;
            }
        }
        frames
    }

    /// Applies one mutation to a copy of `wire`, returning the mangled
    /// bytes. Empty input is returned unchanged.
    pub fn mangle(&mut self, wire: &[u8], how: Mangle) -> Vec<u8> {
        if wire.is_empty() {
            return Vec::new();
        }
        match how {
            Mangle::FlipBit => {
                let mut out = wire.to_vec();
                let at = self.index(out.len());
                out[at] ^= 1 << self.index(8);
                out
            }
            Mangle::Truncate => wire[..self.index(wire.len())].to_vec(),
            Mangle::InsertGarbage => {
                let frames = Self::frames(wire);
                let at = self.index(frames.len() + 1);
                let mut out = Vec::with_capacity(wire.len() + 8);
                for (i, f) in frames.iter().enumerate() {
                    if i == at {
                        let garbage = self.next_u64().to_le_bytes();
                        out.extend_from_slice(&garbage);
                    }
                    out.extend_from_slice(f);
                }
                if at == frames.len() {
                    out.extend_from_slice(&self.next_u64().to_le_bytes());
                }
                out
            }
            Mangle::DuplicateFrame => {
                let frames = Self::frames(wire);
                let at = self.index(frames.len());
                let mut out = Vec::with_capacity(wire.len() + frames[at].len());
                for (i, f) in frames.iter().enumerate() {
                    out.extend_from_slice(f);
                    if i == at {
                        out.extend_from_slice(f);
                    }
                }
                out
            }
            Mangle::DeleteFrame => {
                let frames = Self::frames(wire);
                let at = self.index(frames.len());
                let mut out = Vec::with_capacity(wire.len());
                for (i, f) in frames.iter().enumerate() {
                    if i != at {
                        out.extend_from_slice(f);
                    }
                }
                out
            }
        }
    }

    /// Picks one of the mutation kinds pseudo-randomly.
    pub fn pick(&mut self) -> Mangle {
        match self.next_u64() % 5 {
            0 => Mangle::FlipBit,
            1 => Mangle::Truncate,
            2 => Mangle::InsertGarbage,
            3 => Mangle::DuplicateFrame,
            _ => Mangle::DeleteFrame,
        }
    }
}
