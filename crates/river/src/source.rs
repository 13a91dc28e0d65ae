//! Record sources for the streaming executor.
//!
//! A [`Source`] is the pull side of [`Pipeline::run_streaming`]: the
//! driver pulls one record at a time and pushes it depth-first through
//! the fused operator chain, so a source backed by a generator or a
//! file handle lets arbitrarily long streams flow with constant memory
//! — nothing upstream of the operators' own internal state is ever
//! materialized.
//!
//! Three families are provided:
//!
//! - any `Iterator<Item = Record>` is a source (blanket impl), so
//!   `vec.into_iter()` and lazily mapped iterators work directly;
//! - [`FnSource`] adapts a fallible closure, for sources that can fail
//!   mid-stream (network readers, decoders);
//! - [`ChunkedF64Source`] chunks an `f64` sample iterator into
//!   fixed-length data records, optionally wrapped in a scope — the
//!   streaming equivalent of materializing a clip's record vector.
//!
//! [`Pipeline::run_streaming`]: crate::pipeline::Pipeline::run_streaming

use crate::error::PipelineError;
use crate::record::{Payload, Record};

/// A pull-based producer of records, consumed by
/// [`Pipeline::run_streaming`](crate::pipeline::Pipeline::run_streaming).
pub trait Source {
    /// Produces the next record, `None` at end-of-stream.
    ///
    /// # Errors
    ///
    /// Implementations report upstream failure (e.g. a broken
    /// connection or a malformed frame).
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError>;
}

/// Every record iterator is an infallible source.
impl<I> Source for I
where
    I: Iterator<Item = Record>,
{
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        Ok(self.next())
    }
}

/// A source driven by a fallible closure — `Ok(None)` ends the stream.
///
/// # Example
///
/// ```
/// use dynamic_river::prelude::*;
/// use dynamic_river::source::FnSource;
///
/// let mut n = 0u64;
/// let src = FnSource(move || {
///     n += 1;
///     Ok((n <= 3).then(|| Record::data(0, Payload::Empty)))
/// });
/// let count = Pipeline::new().run_streaming(src, &mut NullSink)?.sink_records;
/// assert_eq!(count, 3);
/// # Ok::<(), PipelineError>(())
/// ```
pub struct FnSource<F>(pub F);

impl<F> Source for FnSource<F>
where
    F: FnMut() -> Result<Option<Record>, PipelineError>,
{
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        (self.0)()
    }
}

/// Chunks a sample iterator into fixed-length `F64` data records,
/// optionally wrapped in one scope. Trailing samples that do not fill a
/// record are dropped, matching the batch record builders (the sensor
/// platform sends whole records).
///
/// Memory use is one chunk, whatever the stream length — this is the
/// intended feed for unbounded acoustic monitoring.
///
/// # Example
///
/// ```
/// use dynamic_river::prelude::*;
/// use dynamic_river::source::{ChunkedF64Source, Source};
///
/// // An unbounded-looking sample generator, chunked into 4-sample
/// // records inside a scope of type 7.
/// let samples = (0..10).map(|i| i as f64);
/// let mut src = ChunkedF64Source::new(samples, 4).with_scope(7, vec![]);
/// let mut records = Vec::new();
/// while let Some(r) = src.next_record()? {
///     records.push(r);
/// }
/// // open + 2 full records (8 samples; the trailing 2 are dropped) + close
/// assert_eq!(records.len(), 4);
/// assert_eq!(records[1].payload.as_f64().unwrap(), &[0.0, 1.0, 2.0, 3.0]);
/// # Ok::<(), PipelineError>(())
/// ```
pub struct ChunkedF64Source<I> {
    samples: I,
    chunk_len: usize,
    subtype: u16,
    scope: Option<(u16, Vec<(String, String)>)>,
    state: ChunkState,
    seq: u64,
    /// Where a chunk is gathered before it is copied, once, into its
    /// payload; reused for every chunk.
    chunk: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    Start,
    Body,
    Done,
}

impl<I> ChunkedF64Source<I>
where
    I: Iterator<Item = f64>,
{
    /// Creates a source emitting bare data records of `chunk_len`
    /// samples (subtype 0; see [`with_subtype`](Self::with_subtype)).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`.
    pub fn new(samples: impl IntoIterator<Item = f64, IntoIter = I>, chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        ChunkedF64Source {
            samples: samples.into_iter(),
            chunk_len,
            subtype: 0,
            scope: None,
            state: ChunkState::Start,
            seq: 0,
            chunk: Vec::with_capacity(chunk_len),
        }
    }

    /// Sets the subtype stamped on every data record.
    pub fn with_subtype(mut self, subtype: u16) -> Self {
        self.subtype = subtype;
        self
    }

    /// Wraps the whole stream in one scope: an `OpenScope` of
    /// `scope_type` carrying `context` first, a matching `CloseScope`
    /// last (emitted even when the iterator yields no full chunk).
    pub fn with_scope(mut self, scope_type: u16, context: Vec<(String, String)>) -> Self {
        self.scope = Some((scope_type, context));
        self
    }

    fn next_chunk(&mut self) -> Option<Record> {
        self.chunk.clear();
        self.chunk
            .extend(self.samples.by_ref().take(self.chunk_len));
        if self.chunk.len() < self.chunk_len {
            return None; // trailing partial (or empty) chunk: dropped
        }
        let seq = self.seq;
        self.seq += 1;
        let depth = u32::from(self.scope.is_some());
        Some(
            Record::data(self.subtype, Payload::f64(&self.chunk[..]))
                .with_seq(seq)
                .with_depth(depth),
        )
    }
}

/// Concatenates sources end to end: each is drained fully before the
/// next starts — an archive of clips as one stream. Fully lazy: the
/// source iterator itself is advanced on demand, so neither the
/// sources nor their records are materialized ahead of consumption
/// (an unbounded archive generator streams in constant memory).
///
/// # Example
///
/// ```
/// use dynamic_river::prelude::*;
/// use dynamic_river::source::{ChainedSource, ChunkedF64Source, Source};
///
/// let clips = (0..3).map(|c| {
///     ChunkedF64Source::new((0..8).map(move |i| (c * 8 + i) as f64), 4)
///         .with_scope(7, vec![])
/// });
/// let mut src = ChainedSource::new(clips);
/// let mut records = Vec::new();
/// while let Some(r) = src.next_record()? {
///     records.push(r);
/// }
/// // 3 × (open + 2 data + close)
/// assert_eq!(records.len(), 12);
/// # Ok::<(), PipelineError>(())
/// ```
pub struct ChainedSource<I: Iterator> {
    sources: I,
    current: Option<I::Item>,
}

impl<S, I> ChainedSource<I>
where
    S: Source,
    I: Iterator<Item = S>,
{
    /// Chains the given sources in order.
    pub fn new(sources: impl IntoIterator<Item = S, IntoIter = I>) -> Self {
        ChainedSource {
            sources: sources.into_iter(),
            current: None,
        }
    }
}

impl<S, I> Source for ChainedSource<I>
where
    S: Source,
    I: Iterator<Item = S>,
{
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        loop {
            if let Some(current) = &mut self.current {
                if let Some(record) = current.next_record()? {
                    return Ok(Some(record));
                }
                self.current = None;
            }
            match self.sources.next() {
                Some(next) => self.current = Some(next),
                None => return Ok(None),
            }
        }
    }
}

impl<I> Source for ChunkedF64Source<I>
where
    I: Iterator<Item = f64>,
{
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        match self.state {
            ChunkState::Start => {
                self.state = ChunkState::Body;
                if let Some((scope_type, context)) = &self.scope {
                    return Ok(Some(
                        Record::open_scope(*scope_type, context.clone()).with_depth(0),
                    ));
                }
                self.next_record()
            }
            ChunkState::Body => {
                if let Some(r) = self.next_chunk() {
                    Ok(Some(r))
                } else {
                    self.state = ChunkState::Done;
                    Ok(self
                        .scope
                        .as_ref()
                        .map(|(scope_type, _)| Record::close_scope(*scope_type).with_depth(0)))
                }
            }
            ChunkState::Done => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;
    use crate::scope::validate_scopes;

    fn drain(mut src: impl Source) -> Vec<Record> {
        let mut out = Vec::new();
        while let Some(r) = src.next_record().unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn iterator_is_a_source() {
        let records = vec![
            Record::data(0, Payload::Empty),
            Record::data(1, Payload::Empty),
        ];
        assert_eq!(drain(records.clone().into_iter()), records);
    }

    #[test]
    fn fn_source_ends_on_none() {
        let mut left = 2;
        let src = FnSource(move || {
            if left == 0 {
                return Ok(None);
            }
            left -= 1;
            Ok(Some(Record::data(9, Payload::Empty)))
        });
        assert_eq!(drain(src).len(), 2);
    }

    #[test]
    fn fn_source_propagates_errors() {
        let mut src = FnSource(|| Err(PipelineError::Disconnected("feed died".into())));
        assert!(src.next_record().is_err());
    }

    #[test]
    fn chunked_source_drops_trailing_partial() {
        let out = drain(ChunkedF64Source::new((0..10).map(f64::from), 4).with_subtype(3));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].subtype, 3);
        assert_eq!(out[0].seq, 0);
        assert_eq!(out[1].seq, 1);
        assert_eq!(out[1].payload.as_f64().unwrap(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(out[0].scope_depth, 0);
    }

    #[test]
    fn chunked_source_wraps_in_scope() {
        let out = drain(
            ChunkedF64Source::new((0..8).map(f64::from), 4)
                .with_scope(7, vec![("rate".into(), "20160".into())]),
        );
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].kind, RecordKind::OpenScope);
        assert_eq!(out[0].payload.context("rate"), Some("20160"));
        assert_eq!(out[1].scope_depth, 1);
        assert_eq!(out[3].kind, RecordKind::CloseScope);
        validate_scopes(&out).unwrap();
    }

    #[test]
    fn empty_scoped_stream_still_balances() {
        let out = drain(ChunkedF64Source::new(std::iter::empty(), 4).with_scope(1, vec![]));
        assert_eq!(out.len(), 2);
        validate_scopes(&out).unwrap();
    }

    #[test]
    #[should_panic(expected = "chunk_len must be non-zero")]
    fn zero_chunk_len_panics() {
        let _ = ChunkedF64Source::new(std::iter::empty(), 0);
    }

    #[test]
    fn chained_source_concatenates_in_order() {
        let clips = (0..3u64).map(|c| {
            ChunkedF64Source::new((0..4).map(move |i| (c * 4 + i) as f64), 2).with_scope(1, vec![])
        });
        let out = drain(ChainedSource::new(clips));
        assert_eq!(out.len(), 12);
        validate_scopes(&out).unwrap();
        assert_eq!(out[1].payload.as_f64().unwrap(), &[0.0, 1.0]);
        assert_eq!(out[10].payload.as_f64().unwrap(), &[10.0, 11.0]);
    }

    #[test]
    fn chained_source_of_nothing_is_empty() {
        let none: Vec<ChunkedF64Source<std::iter::Empty<f64>>> = Vec::new();
        assert!(drain(ChainedSource::new(none)).is_empty());
    }
}
