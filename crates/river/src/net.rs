//! Network stream operators: `streamout` and `streamin`.
//!
//! "Segments can receive and emit records using the `streamin` and
//! `streamout` operators, respectively, enabling instantiation of
//! segments and the construction of a pipeline across networked hosts"
//! (paper §2). Records travel as CRC-protected frames ([`crate::codec`]);
//! a clean shutdown ends with an end-of-stream sentinel, and "if an
//! upstream segment terminates unexpectedly and leaves one or more
//! scopes open, the `streamin` operator will generate `BadCloseScope`
//! records to close all open scopes."

// This module reads bytes off the network: library code surfaces
// failures as errors, never panics; unwraps are confined to the test
// module below.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::analyze::Signature;
use crate::codec::{encode_into, write_eos, DecodeEvent, Decoder, WireFormat};
use crate::error::PipelineError;
use crate::operator::{Operator, Sink};
use crate::record::{Record, RecordKind};
use crate::scope::ScopeTracker;
use crate::source::Source;
use std::collections::VecDeque;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// `streamout`: an operator that forwards every record over a byte sink
/// (typically a TCP connection) and emits the clean end-of-stream
/// sentinel when the pipeline finishes.
///
/// The sender picks the [`WireFormat`] (lossless by default, or a
/// compact sample encoding); receivers read the encoding off each
/// frame, so there is no handshake round trip.
///
/// Every record is encoded in place into one frame buffer the operator
/// keeps ([`encode_into`]) and handed to a buffered writer, so a warm
/// sender allocates nothing per record. Dropping the operator flushes
/// what is buffered (write errors are then lost; `on_eos` flushes and
/// reports them).
///
/// [`redirect`](Self::redirect) moves the stream to another writer at
/// the next balanced point: this is how a segment moves between hosts.
pub struct StreamOut<W: Write + Send> {
    writer: BufWriter<W>,
    /// The frame being sent, reused for every record: once it has grown
    /// to the stream's largest frame, sending allocates nothing.
    frame: Vec<u8>,
    sent: u64,
    format: WireFormat,
    /// Scopes open in what has been sent (saturating at zero, so a
    /// stray close cannot hide a later balanced point).
    depth: u32,
    /// A redirect waiting for `depth` to reach zero.
    pending: Option<W>,
}

impl<W: Write + Send> StreamOut<W> {
    /// Wraps a byte sink (emitting lossless frames, the default
    /// [`WireFormat`]).
    pub fn new(writer: W) -> Self {
        StreamOut {
            writer: BufWriter::new(writer),
            frame: Vec::new(),
            sent: 0,
            format: WireFormat::default(),
            depth: 0,
            pending: None,
        }
    }

    /// Selects the wire format for every subsequent record.
    pub fn with_format(mut self, format: WireFormat) -> Self {
        self.format = format;
        self
    }

    /// The wire format this sender emits.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Records sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Emits (and flushes) one keepalive sentinel — what a sensor with
    /// no clip in progress sends periodically so a server enforcing
    /// [`crate::serve::PipelineServer::set_idle_timeout`] keeps the
    /// dormant connection open.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] on write failure.
    pub fn keepalive(&mut self) -> Result<(), PipelineError> {
        crate::codec::write_keepalive(&mut self.writer)
    }

    /// Moves the stream to `to` at the first balanced point (no scope
    /// open in what has been sent) at or after this call: at once if
    /// the stream is balanced now, otherwise right after the record
    /// that closes the last open scope. The current writer then gets
    /// the end-of-stream sentinel and is flushed and dropped, so its
    /// receiver sees a clean session of whole scopes. A newer request
    /// replaces a pending one, and the replaced writer gets only the
    /// sentinel (an empty clean session), as does a writer still
    /// pending at [`on_eos`](Operator::on_eos).
    ///
    /// Each receiver runs a fresh chain over its share, so the joined
    /// outputs equal one chain over the whole stream only if the chain
    /// is scope-local (`DESIGN.md` §3).
    ///
    /// ```
    /// use dynamic_river::net::{StreamEnd, StreamIn, StreamOut};
    /// use dynamic_river::prelude::*;
    ///
    /// let (mut first, mut second) = (Vec::new(), Vec::new());
    /// let mut out = StreamOut::new(&mut first);
    /// out.on_record(Record::open_scope(1, vec![]), &mut NullSink)?;
    /// out.redirect(&mut second)?; // mid-scope: waits for the close
    /// out.on_record(Record::close_scope(1), &mut NullSink)?;
    /// out.on_record(Record::open_scope(2, vec![]), &mut NullSink)?;
    /// out.on_record(Record::close_scope(2), &mut NullSink)?;
    /// out.on_eos(&mut NullSink)?;
    /// drop(out);
    ///
    /// for (wire, scope_type) in [(&first, 1), (&second, 2)] {
    ///     let mut records: Vec<Record> = Vec::new();
    ///     assert_eq!(StreamIn::new(wire.as_slice()).pump(&mut records)?, StreamEnd::Clean);
    ///     assert_eq!(records.len(), 2);
    ///     assert_eq!(records[0].scope_type, scope_type);
    /// }
    /// # Ok::<(), PipelineError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] if writing the sentinel to the
    /// writer being left fails.
    pub fn redirect(&mut self, to: W) -> Result<(), PipelineError> {
        if let Some(replaced) = self.pending.replace(to) {
            write_eos(replaced)?;
        }
        if self.depth == 0 {
            self.switch()?;
        }
        Ok(())
    }

    /// Ends the current writer's session cleanly and continues on the
    /// pending one. The buffer is empty once the sentinel is flushed, so
    /// only the writer under it changes.
    fn switch(&mut self) -> Result<(), PipelineError> {
        if let Some(to) = self.pending.take() {
            write_eos(&mut self.writer)?;
            *self.writer.get_mut() = to;
        }
        Ok(())
    }
}

impl StreamOut<TcpStream> {
    /// Connects to a downstream `streamin` operator.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] if the connection fails.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, PipelineError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::new(stream))
    }
}

impl<W: Write + Send> Operator for StreamOut<W> {
    fn name(&self) -> &'static str {
        "streamout"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        self.frame.clear();
        encode_into(&record, self.format, &mut self.frame);
        self.writer.write_all(&self.frame)?;
        self.sent += 1;
        match record.kind {
            RecordKind::OpenScope => self.depth += 1,
            RecordKind::CloseScope | RecordKind::BadCloseScope => {
                self.depth = self.depth.saturating_sub(1);
            }
            RecordKind::Data => {}
        }
        if self.depth == 0 && self.pending.is_some() {
            self.switch()?;
        }
        // streamout is usually terminal, but passing records through lets
        // callers tee the stream locally as well.
        out.push(record)
    }

    fn on_eos(&mut self, _out: &mut dyn Sink) -> Result<(), PipelineError> {
        write_eos(&mut self.writer)?;
        if let Some(pending) = self.pending.take() {
            write_eos(pending)?;
        }
        Ok(())
    }

    /// Forwards every record unchanged, so the analyzer keeps checking
    /// the chain through it: a scope left open upstream is still caught.
    fn signature(&self) -> Option<Signature> {
        Some(Signature::passthrough())
    }
}

/// How a [`StreamIn`] session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEnd {
    /// The upstream emitted the end-of-stream sentinel with all scopes
    /// closed.
    Clean,
    /// The upstream vanished (connection drop / truncation) or said
    /// goodbye mid-scope; open scopes were closed with `BadCloseScope`
    /// records.
    Unclean {
        /// Number of `BadCloseScope` records synthesized.
        repaired_scopes: u32,
    },
}

/// The byte→record half of `streamin` with the I/O factored out: a
/// push-based assembler that turns arbitrarily fragmented wire bytes
/// into a scope-consistent record sequence.
///
/// [`feed`](Self::feed) accepts whatever a (possibly non-blocking)
/// socket read produced, and [`read_from`](Self::read_from) does the
/// read itself, straight into the decode buffer;
/// [`next_ready`](Self::next_ready) hands back the records that have
/// fully materialized so far. On top of the
/// incremental [`Decoder`] it layers exactly the session semantics
/// `streamin` promises:
///
/// - scope accounting ([`ScopeTracker`]), with stray closes dropped at
///   the network boundary rather than treated as fatal;
/// - `BadCloseScope` repair synthesis when the upstream dies mid-scope
///   (on EOF via [`finish`](Self::finish), administratively via
///   [`abort_repair`](Self::abort_repair));
/// - error *ordering*: a corrupt frame surfaces only after every
///   record decoded before it has been delivered, matching what a
///   frame-at-a-time blocking reader would have observed;
/// - keepalive sentinels consumed and counted, never delivered.
///
/// [`StreamIn`] wraps this with a blocking reader; the event-driven
/// service layer ([`crate::serve`]) drives it directly from readiness
/// callbacks, which is what makes thousands of mostly-idle sessions
/// per host affordable.
#[derive(Debug, Default)]
pub struct RecordAssembler {
    /// Incremental frame decoder: chunks go in, records come out. It
    /// buffers internally, so no `BufReader` wrapper is needed.
    decoder: Decoder,
    /// Decoded events not yet delivered to the caller.
    events: VecDeque<DecodeEvent>,
    /// A decode (or injected I/O) error held back until every record
    /// decoded *before* it has been delivered.
    pending_error: Option<PipelineError>,
    tracker: ScopeTracker,
    received: u64,
    wire_bytes: u64,
    keepalives: u64,
    /// Synthesized `BadCloseScope` repairs not yet handed out.
    repairs: VecDeque<Record>,
    /// EOF declared by the reader; repairs are synthesized once every
    /// decoded event before the EOF has been delivered.
    eof: bool,
    /// Set once the stream has ended (no more bytes are expected).
    done: Option<StreamEnd>,
}

impl RecordAssembler {
    /// A fresh assembler with no buffered bytes.
    pub fn new() -> Self {
        RecordAssembler::default()
    }

    /// Records received so far (synthesized repairs are not counted).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Wire bytes consumed so far (frames, sentinels and any partial
    /// trailing frame) — the session-traffic counter behind
    /// [`crate::serve::SessionReport::wire_bytes`].
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Keepalive sentinels consumed so far. The service layer samples
    /// this to tell a dormant-but-alive sensor from a dead one.
    pub fn keepalives(&self) -> u64 {
        self.keepalives
    }

    /// High-water mark of the decode buffer
    /// ([`Decoder::buffer_high_water`]).
    #[cfg(test)]
    pub(crate) fn buffer_high_water(&self) -> usize {
        self.decoder.buffer_high_water()
    }

    /// How the stream ended, once [`next_ready`](Self::next_ready) has
    /// drained to `Ok(None)` after [`finish`](Self::finish)/
    /// [`abort_repair`](Self::abort_repair). `None` means the stream is
    /// still live (an `Ok(None)` from `next_ready` then just means
    /// "feed me more bytes").
    pub fn end(&self) -> Option<StreamEnd> {
        self.done
    }

    /// Appends a chunk of wire bytes (any fragmentation). Decode errors
    /// are *not* raised here: they queue behind the records decoded
    /// before them and surface from [`next_ready`](Self::next_ready) in
    /// delivery order.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.wire_bytes += bytes.len() as u64;
        match self.decoder.push_bytes(bytes) {
            Ok(()) => self.decode_ready(),
            Err(e) => self.fail(e),
        }
    }

    /// Like [`feed`](Self::feed), but the bytes come from one `read` of
    /// at most `max` bytes on `reader`, landing directly in the decode
    /// buffer. Returns the bytes read; `Ok(0)` is EOF (the caller
    /// decides whether to [`finish`](Self::finish)).
    ///
    /// # Errors
    ///
    /// Whatever `reader.read` returns (`WouldBlock` and `Interrupted`
    /// included); decode errors queue exactly as in `feed`.
    pub fn read_from<R: Read>(&mut self, reader: &mut R, max: usize) -> io::Result<usize> {
        let n = self.decoder.read_from(reader, max)?;
        self.wire_bytes += n as u64;
        self.decode_ready();
        Ok(n)
    }

    /// Decodes every event the buffered bytes complete, straight into
    /// the delivery queue.
    fn decode_ready(&mut self) {
        loop {
            match self.decoder.poll() {
                Ok(Some(event)) => self.events.push_back(event),
                Ok(None) => return,
                Err(e) => return self.fail(e),
            }
        }
    }

    /// Injects a read-side failure (socket error) into the delivery
    /// queue, behind the records already decoded — the non-blocking
    /// counterpart of a blocking read returning `Err`.
    pub fn fail(&mut self, error: PipelineError) {
        // Keep the first error; a poisoned decoder repeats itself.
        self.pending_error.get_or_insert(error);
    }

    /// Declares EOF: no more bytes will ever be fed. Repair synthesis
    /// waits until every already-decoded record has been delivered, so
    /// `BadCloseScope` records always close exactly the scopes the
    /// caller saw open.
    pub fn finish(&mut self) {
        self.eof = true;
    }

    /// Pulls the next ready record: decoded records first (in wire
    /// order), then any held-back error, then — once the stream has
    /// ended — synthesized `BadCloseScope` repairs, then `Ok(None)`.
    /// When `Ok(None)` is returned and [`end`](Self::end) is still
    /// `None`, the assembler simply needs more bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Codec`] on frame corruption and
    /// [`PipelineError::Io`] on injected read failures, after every
    /// record decoded before the fault has been delivered. After an
    /// error the wire is untrustworthy — callers that want to keep
    /// their downstream scope-consistent should invoke
    /// [`abort_repair`](Self::abort_repair).
    pub fn next_ready(&mut self) -> Result<Option<Record>, PipelineError> {
        loop {
            match self.events.pop_front() {
                Some(DecodeEvent::Record(record)) => {
                    // Scope accounting; violations at the network boundary
                    // are repaired (stray closes dropped), not fatal.
                    match self.tracker.observe(&record) {
                        Ok(_) => {
                            self.received += 1;
                            return Ok(Some(record));
                        }
                        Err(PipelineError::ScopeViolation(_)) => continue,
                        Err(e) => return Err(e),
                    }
                }
                Some(DecodeEvent::CleanEnd) => {
                    // A clean end with open scopes still repairs them: the
                    // upstream said goodbye mid-scope.
                    self.queue_repairs(true);
                    continue;
                }
                Some(DecodeEvent::KeepAlive) => {
                    self.keepalives += 1;
                    continue;
                }
                None => {}
            }
            if let Some(e) = self.pending_error.take() {
                return Err(e);
            }
            if let Some(repair) = self.repairs.pop_front() {
                return Ok(Some(repair));
            }
            if self.done.is_some() {
                return Ok(None);
            }
            if self.eof {
                // EOF with everything decoded delivered: classify the
                // residue (a partial trailing frame is a mid-frame
                // disconnect, not an error) and synthesize repairs.
                match self.decoder.end_of_input() {
                    Ok(()) | Err(PipelineError::Disconnected(_)) => self.queue_repairs(false),
                    Err(e) => return Err(e),
                }
                continue;
            }
            return Ok(None); // live stream: feed me more bytes
        }
    }

    /// Ends the session administratively after an error: hands back any
    /// queued-but-undelivered repairs plus `BadCloseScope` records for
    /// every still-open scope (innermost first, exactly what an unclean
    /// disconnect would have queued) and marks the stream
    /// [`StreamEnd::Unclean`]. An end already recorded (e.g. a
    /// disconnect whose repairs were mid-delivery) is preserved, so
    /// `repaired_scopes` keeps counting every repair synthesized for
    /// the session. The service layer calls this when a session's wire
    /// turns poisonous (CRC mismatch, bad magic) or its idle timeout
    /// expires, so that session's downstream state resynchronizes while
    /// its neighbors keep flowing.
    pub fn abort_repair(&mut self) -> Vec<Record> {
        // The wire is untrustworthy: decoded-but-undelivered events are
        // discarded (their scopes were never observed, so the delivered
        // prefix stays balanced without them).
        self.events.clear();
        self.pending_error = None;
        let mut repairs: Vec<Record> = self.repairs.drain(..).collect();
        repairs.extend(self.tracker.close_all_bad());
        if self.done.is_none() {
            self.done = Some(StreamEnd::Unclean {
                repaired_scopes: repairs.len() as u32,
            });
        }
        repairs
    }

    fn queue_repairs(&mut self, clean: bool) {
        let repairs = self.tracker.close_all_bad();
        let n = repairs.len() as u32;
        self.repairs.extend(repairs);
        self.done = Some(if clean && n == 0 {
            StreamEnd::Clean
        } else {
            StreamEnd::Unclean { repaired_scopes: n }
        });
    }
}

/// `streamin`: decodes records from a byte source, tracking scope state
/// and repairing it when the upstream dies.
///
/// This is a blocking [`Read`] loop around [`RecordAssembler`], which
/// holds all the decode/scope/repair semantics. Two consumption styles
/// are offered: the push-based [`pump`](Self::pump) (drain everything
/// into a [`Sink`]) and the pull-based
/// [`next_record`](Self::next_record), which is also exposed as a
/// [`Source`] so a connection can feed
/// [`Pipeline::run_streaming`](crate::pipeline::Pipeline::run_streaming)
/// directly. The event-driven service layer ([`crate::serve`]) skips
/// this wrapper and drives the assembler from socket readiness, one
/// shared poll loop for the whole session fleet.
pub struct StreamIn<R: Read> {
    reader: R,
    assembler: RecordAssembler,
}

impl<R: Read> StreamIn<R> {
    /// Wraps a byte source.
    pub fn new(reader: R) -> Self {
        StreamIn {
            reader,
            assembler: RecordAssembler::new(),
        }
    }

    /// Records received so far (synthesized repairs are not counted).
    pub fn received(&self) -> u64 {
        self.assembler.received()
    }

    /// Wire bytes consumed so far (frames, sentinels and any partial
    /// trailing frame) — the session-traffic counter behind
    /// [`crate::serve::SessionReport::wire_bytes`].
    pub fn wire_bytes(&self) -> u64 {
        self.assembler.wire_bytes()
    }

    /// Keepalive sentinels consumed so far (never delivered as records).
    pub fn keepalives(&self) -> u64 {
        self.assembler.keepalives()
    }

    /// How the stream ended, once [`next_record`](Self::next_record) has returned
    /// `Ok(None)` (or the session was [aborted](Self::abort_repair)).
    pub fn end(&self) -> Option<StreamEnd> {
        self.assembler.end()
    }

    /// Pulls the next record: real records first, then — after the
    /// upstream ends — any synthesized `BadCloseScope` repairs, then
    /// `Ok(None)`. Once `None` is returned, [`end`](Self::end) reports
    /// how the stream terminated. This is also the [`Source`]
    /// implementation, so a connection can feed the streaming driver
    /// directly.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Codec`] on frame corruption and
    /// [`PipelineError::Io`] on I/O failure; disconnects mid-frame are
    /// treated as unclean ends rather than errors. After an error the
    /// wire is untrustworthy — callers that want to keep their
    /// downstream scope-consistent should invoke
    /// [`abort_repair`](Self::abort_repair).
    pub fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        loop {
            match self.assembler.next_ready()? {
                Some(record) => return Ok(Some(record)),
                None => {
                    if self.assembler.end().is_some() {
                        return Ok(None);
                    }
                }
            }
            match self.assembler.read_from(&mut self.reader, 8192) {
                Ok(0) => self.assembler.finish(),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(PipelineError::Io(e)),
            }
        }
    }

    /// Ends the session administratively after an error — see
    /// [`RecordAssembler::abort_repair`]. No further reads happen.
    pub fn abort_repair(&mut self) -> Vec<Record> {
        self.assembler.abort_repair()
    }

    /// Pumps every record into `sink` until the stream ends, returning
    /// how it ended. On an unclean end, synthesized `BadCloseScope`
    /// records are pushed into the sink before returning, so downstream
    /// scope state resynchronizes.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Codec`] on frame corruption and
    /// [`PipelineError::Io`] on I/O failure; disconnects mid-frame are
    /// treated as unclean ends rather than errors.
    pub fn pump(&mut self, sink: &mut dyn Sink) -> Result<StreamEnd, PipelineError> {
        loop {
            if let Some(record) = self.next_record()? {
                sink.push(record)?;
            } else if let Some(end) = self.assembler.end() {
                // `None` comes only once the end is recorded.
                return Ok(end);
            }
        }
    }
}

/// A `streamin` connection is a pull-based record [`Source`]: repairs
/// are delivered in-stream after an unclean end, so the driver's sink
/// always sees a scope-consistent sequence.
impl<R: Read> Source for StreamIn<R> {
    fn next_record(&mut self) -> Result<Option<Record>, PipelineError> {
        StreamIn::next_record(self)
    }
}

/// Sends a record batch (plus the sentinel) to `addr` over one framed
/// [`StreamOut`] connection in `format`, returning the number of
/// records sent.
///
/// # Errors
///
/// Returns [`PipelineError::Io`] on connection or write failure.
pub fn send_all<A: ToSocketAddrs>(
    addr: A,
    records: &[Record],
    format: WireFormat,
) -> Result<u64, PipelineError> {
    let mut out = StreamOut::connect(addr)?.with_format(format);
    let mut sink = crate::operator::NullSink;
    for r in records {
        out.on_record(r.clone(), &mut sink)?;
    }
    out.on_eos(&mut sink)?;
    Ok(out.sent())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::codec::SampleEncoding;
    use crate::operator::NullSink;
    use crate::record::Payload;
    use crate::testkit::{serve_once, ScopeSum, WireMangler};
    use std::net::TcpListener;
    use std::thread;

    /// Appends `record` to `wire` as a frame in the default format.
    fn put(wire: &mut Vec<u8>, record: &Record) {
        encode_into(record, WireFormat::default(), wire);
    }

    fn scoped_records(n: usize) -> Vec<Record> {
        let mut v = vec![Record::open_scope(1, vec![("rate".into(), "20160".into())])];
        for i in 0..n {
            v.push(Record::data(1, Payload::f64(vec![i as f64])).with_seq(i as u64));
        }
        v.push(Record::close_scope(1));
        v
    }

    #[test]
    fn tcp_round_trip_clean() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let records = scoped_records(50);
        let send = records.clone();
        let sender = thread::spawn(move || send_all(addr, &send, WireFormat::default()).unwrap());
        let mut sink: Vec<Record> = Vec::new();
        let (end, received) = serve_once(&listener, &mut sink).unwrap();
        let sent = sender.join().unwrap();
        assert_eq!(end, StreamEnd::Clean);
        assert_eq!(sink, records);
        assert_eq!(sent as usize, records.len());
        assert_eq!(received as usize, records.len());
    }

    #[test]
    fn unclean_disconnect_synthesizes_bad_closes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = thread::spawn(move || {
            let mut wire = Vec::new();
            put(&mut wire, &Record::open_scope(3, vec![]));
            put(&mut wire, &Record::open_scope(4, vec![]));
            put(&mut wire, &Record::data(1, Payload::f64(vec![1.0])));
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&wire).unwrap();
            // Drop without sentinel: simulated crash.
        });
        let mut sink: Vec<Record> = Vec::new();
        let (end, received) = serve_once(&listener, &mut sink).unwrap();
        sender.join().unwrap();
        assert_eq!(end, StreamEnd::Unclean { repaired_scopes: 2 });
        assert_eq!(received, 3); // synthesized repairs are not "received"
        assert_eq!(sink.len(), 5);
        assert_eq!(sink[3].kind, RecordKind::BadCloseScope);
        assert_eq!(sink[3].scope_type, 4); // innermost first
        assert_eq!(sink[4].scope_type, 3);
        crate::scope::validate_scopes(&sink).unwrap();
    }

    #[test]
    fn clean_end_with_open_scope_still_repairs() {
        let mut buf = Vec::new();
        put(&mut buf, &Record::open_scope(9, vec![]));
        write_eos(&mut buf).unwrap();
        let mut sink: Vec<Record> = Vec::new();
        let mut si = StreamIn::new(buf.as_slice());
        let end = si.pump(&mut sink).unwrap();
        assert_eq!(end, StreamEnd::Unclean { repaired_scopes: 1 });
        crate::scope::validate_scopes(&sink).unwrap();
    }

    #[test]
    fn stray_close_dropped_at_boundary() {
        let mut buf = Vec::new();
        put(&mut buf, &Record::close_scope(2));
        put(&mut buf, &Record::data(0, Payload::Empty));
        write_eos(&mut buf).unwrap();
        let mut sink: Vec<Record> = Vec::new();
        let mut si = StreamIn::new(buf.as_slice());
        let end = si.pump(&mut sink).unwrap();
        assert_eq!(end, StreamEnd::Clean);
        assert_eq!(sink.len(), 1);
        assert_eq!(si.received(), 1);
    }

    #[test]
    fn streamout_operator_counts_and_tees() {
        let mut buf = Vec::new();
        {
            let mut op = StreamOut::new(&mut buf);
            let mut tee: Vec<Record> = Vec::new();
            for r in scoped_records(3) {
                op.on_record(r, &mut tee).unwrap();
            }
            op.on_eos(&mut tee).unwrap();
            assert_eq!(op.sent(), 5);
            assert_eq!(tee, scoped_records(3));
        }
        // The bytes decode back to the same stream.
        let mut sink: Vec<Record> = Vec::new();
        let end = StreamIn::new(buf.as_slice()).pump(&mut sink).unwrap();
        assert_eq!(end, StreamEnd::Clean);
        assert_eq!(sink, scoped_records(3));
    }

    /// A `Vec<u8>` the test keeps a handle on after the chain owns the
    /// writer.
    #[derive(Clone, Default)]
    struct SharedBytes(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBytes {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Declares that it opens a scope it never closes.
    struct LeakyOpener;

    impl Operator for LeakyOpener {
        fn name(&self) -> &'static str {
            "leaky-opener"
        }
        fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
            out.push(record)
        }
        fn signature(&self) -> Option<Signature> {
            let opens = crate::analyze::ScopeEffect::Opens { scope_type: 9 };
            Some(Signature::passthrough().with_scope(opens))
        }
    }

    #[test]
    fn streamout_does_not_hide_an_upstream_scope_leak() {
        let wire = SharedBytes::default();
        let mut chain = crate::pipeline::Pipeline::new();
        chain.add(LeakyOpener);
        chain.add(StreamOut::new(wire.clone()));
        let err = chain
            .run_streaming(scoped_records(2).into_iter(), &mut NullSink)
            .unwrap_err();
        let PipelineError::Analysis(diags) = &err else {
            panic!("expected an analysis error, got {err}");
        };
        assert!(diags
            .iter()
            .any(|d| d.kind.code() == "RL0003" && d.operator == "leaky-opener"));
        drop(chain); // flushes whatever the sender buffered
        assert!(wire.0.lock().unwrap().is_empty());
    }

    /// A stream of 3–8 top-level scopes, some holding a nested scope,
    /// and 1–4 redirect requests as record indices (`len` means after
    /// the last record), sorted, some back to back.
    fn redirect_script(seed: u64) -> (Vec<Record>, Vec<usize>) {
        let mut rng = WireMangler::new(0x5ED1 ^ seed);
        let mut below = |n: u64| (rng.next_u64() % n) as usize;
        let mut stream = Vec::new();
        let datum = |stream: &mut Vec<Record>| {
            let x = stream.len() as f64;
            stream.push(Record::data(1, Payload::f64(vec![x])).with_seq(x as u64));
        };
        for _ in 0..3 + below(6) {
            stream.push(Record::open_scope(1, vec![]));
            for _ in 0..=below(4) {
                if below(3) == 0 {
                    stream.push(Record::open_scope(2, vec![]));
                    (0..below(3)).for_each(|_| datum(&mut stream));
                    stream.push(Record::close_scope(2));
                } else {
                    datum(&mut stream);
                }
            }
            stream.push(Record::close_scope(1));
        }
        let mut requests: Vec<usize> = (0..=below(4))
            .map(|_| below(stream.len() as u64 + 1))
            .collect();
        requests.sort_unstable();
        for k in 1..requests.len() {
            if below(3) == 0 {
                requests[k] = requests[k - 1];
            }
        }
        (stream, requests)
    }

    /// Where each writer's share of the stream should begin, or `None`
    /// for a writer whose request a newer one replaced: request `k`
    /// switches at the first balanced point at or after it, unless
    /// request `k + 1` comes before that point.
    fn expected_starts(stream: &[Record], requests: &[usize]) -> Vec<Option<usize>> {
        let mut depth = 0u32;
        let mut balanced = vec![true];
        for r in stream {
            match r.kind {
                RecordKind::OpenScope => depth += 1,
                RecordKind::CloseScope => depth -= 1,
                _ => {}
            }
            balanced.push(depth == 0);
        }
        let mut starts = vec![Some(0)];
        for (k, &at) in requests.iter().enumerate() {
            let switch = (at..balanced.len()).find(|&i| balanced[i]).unwrap();
            let replaced = requests.get(k + 1).is_some_and(|&next| next < switch);
            starts.push((!replaced).then_some(switch));
        }
        starts
    }

    /// Plays one seed and checks it; returns which paths it reached: a
    /// request made mid-scope, two back to back, one replaced.
    fn redirect_seed(seed: u64) -> [bool; 3] {
        let (stream, requests) = redirect_script(seed);
        let chain = || {
            let mut p = crate::pipeline::Pipeline::new();
            p.add(ScopeSum::new(99));
            p
        };
        let mut expected: Vec<Record> = Vec::new();
        chain()
            .run_streaming(stream.clone().into_iter(), &mut expected)
            .unwrap();

        let mut wires = vec![Vec::new(); requests.len() + 1];
        {
            let mut writers = wires.iter_mut();
            let mut out = StreamOut::new(writers.next().unwrap());
            let mut due = requests.iter().peekable();
            for (i, record) in stream.iter().enumerate() {
                while due.next_if(|&&at| at == i).is_some() {
                    out.redirect(writers.next().unwrap()).unwrap();
                }
                out.on_record(record.clone(), &mut NullSink).unwrap();
            }
            for _ in due {
                out.redirect(writers.next().unwrap()).unwrap();
            }
            out.on_eos(&mut NullSink).unwrap();
        }

        let starts = expected_starts(&stream, &requests);
        let mut joined: Vec<Record> = Vec::new();
        for (w, wire) in wires.iter().enumerate() {
            let mut got: Vec<Record> = Vec::new();
            let end = StreamIn::new(wire.as_slice()).pump(&mut got).unwrap();
            assert_eq!(end, StreamEnd::Clean, "seed {seed}: writer {w}");
            let share = starts[w].map_or(0..0, |from| {
                let to = starts[w + 1..].iter().flatten().next();
                from..to.copied().unwrap_or(stream.len())
            });
            assert_eq!(
                got,
                stream[share.clone()],
                "seed {seed}: writer {w} should carry records {share:?} (requests {requests:?})"
            );
            chain()
                .run_streaming(StreamIn::new(wire.as_slice()), &mut joined)
                .unwrap();
        }
        assert_eq!(joined, expected, "seed {seed}: joined sessions vs one lane");
        [
            requests
                .iter()
                .zip(&starts[1..])
                .any(|(&at, s)| *s != Some(at)),
            requests.windows(2).any(|w| w[0] == w[1]),
            starts.contains(&None),
        ]
    }

    #[test]
    fn redirect_lands_at_balanced_points_and_joins_to_one_lane() {
        let mut reached = [0usize; 3];
        for seed in 0..256 {
            for (n, hit) in reached.iter_mut().zip(redirect_seed(seed)) {
                *n += usize::from(hit);
            }
        }
        // Mid-scope, back-to-back and replaced requests all occur.
        assert!(
            reached.iter().all(|&n| n > 0),
            "seeds per path: {reached:?}"
        );
    }

    #[test]
    fn redirect_pending_at_end_of_stream_gets_an_empty_clean_session() {
        let (mut first, mut second) = (Vec::new(), Vec::new());
        {
            let mut out = StreamOut::new(&mut first);
            out.on_record(Record::open_scope(1, vec![]), &mut NullSink)
                .unwrap();
            out.redirect(&mut second).unwrap();
            out.on_eos(&mut NullSink).unwrap();
        }
        let mut got: Vec<Record> = Vec::new();
        let end = StreamIn::new(first.as_slice()).pump(&mut got).unwrap();
        assert_eq!(end, StreamEnd::Unclean { repaired_scopes: 1 });
        got.clear();
        let end = StreamIn::new(second.as_slice()).pump(&mut got).unwrap();
        assert_eq!((end, got.len()), (StreamEnd::Clean, 0));
    }

    #[test]
    fn pull_api_delivers_repairs_in_stream() {
        // open, open, data, then death: next() yields the three real
        // records, then the two repairs, then None with an Unclean end.
        let mut buf = Vec::new();
        put(&mut buf, &Record::open_scope(3, vec![]));
        put(&mut buf, &Record::open_scope(4, vec![]));
        put(&mut buf, &Record::data(1, Payload::f64(vec![1.0])));
        let expected_bytes = buf.len() as u64;
        let mut si = StreamIn::new(buf.as_slice());
        assert_eq!(si.end(), None);
        let mut pulled = Vec::new();
        while let Some(r) = si.next_record().unwrap() {
            pulled.push(r);
        }
        assert_eq!(pulled.len(), 5);
        assert_eq!(pulled[3].kind, RecordKind::BadCloseScope);
        assert_eq!(pulled[4].kind, RecordKind::BadCloseScope);
        assert_eq!(si.end(), Some(StreamEnd::Unclean { repaired_scopes: 2 }));
        assert_eq!(si.received(), 3);
        assert_eq!(si.wire_bytes(), expected_bytes);
        crate::scope::validate_scopes(&pulled).unwrap();
        // Pulling past the end stays None.
        assert!(si.next_record().unwrap().is_none());
    }

    #[test]
    fn streamin_is_a_source_for_the_streaming_driver() {
        let mut buf = Vec::new();
        for r in scoped_records(4) {
            put(&mut buf, &r);
        }
        write_eos(&mut buf).unwrap();
        let mut p = crate::pipeline::Pipeline::new();
        let mut out: Vec<Record> = Vec::new();
        let stats = p
            .run_streaming(StreamIn::new(buf.as_slice()), &mut out)
            .unwrap();
        assert_eq!(out, scoped_records(4));
        assert_eq!(stats.source_records as usize, out.len());
    }

    #[test]
    fn abort_repair_closes_scopes_administratively() {
        let mut buf = Vec::new();
        put(&mut buf, &Record::open_scope(5, vec![]));
        put(&mut buf, &Record::open_scope(6, vec![]));
        let mut si = StreamIn::new(buf.as_slice());
        si.next_record().unwrap();
        si.next_record().unwrap();
        let repairs = si.abort_repair();
        assert_eq!(repairs.len(), 2);
        assert_eq!(repairs[0].scope_type, 6); // innermost first
        assert_eq!(si.end(), Some(StreamEnd::Unclean { repaired_scopes: 2 }));
        // The stream is finished; no further reads.
        assert!(si.next_record().unwrap().is_none());
    }

    #[test]
    fn abort_repair_preserves_queued_repairs_and_recorded_end() {
        // A disconnect with two open scopes queues two repairs; aborting
        // after only one was delivered must hand back the other and keep
        // the recorded end, not reset the repair count to zero.
        let mut buf = Vec::new();
        put(&mut buf, &Record::open_scope(3, vec![]));
        put(&mut buf, &Record::open_scope(4, vec![]));
        let mut si = StreamIn::new(buf.as_slice());
        si.next_record().unwrap();
        si.next_record().unwrap();
        let first = si.next_record().unwrap().unwrap(); // disconnect: repair for scope 4
        assert_eq!(first.kind, RecordKind::BadCloseScope);
        assert_eq!(first.scope_type, 4);
        assert_eq!(si.end(), Some(StreamEnd::Unclean { repaired_scopes: 2 }));
        let rest = si.abort_repair();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].scope_type, 3);
        assert_eq!(si.end(), Some(StreamEnd::Unclean { repaired_scopes: 2 }));
        assert!(si.next_record().unwrap().is_none());
    }

    #[test]
    fn v2_stream_round_trips_in_every_encoding() {
        // Every sample of `scoped_records` is exact in f32 and i16.
        for enc in [
            SampleEncoding::F64,
            SampleEncoding::F32,
            SampleEncoding::I16,
        ] {
            let mut buf = Vec::new();
            {
                let mut op = StreamOut::new(&mut buf).with_format(WireFormat::V2(enc));
                let mut tee: Vec<Record> = Vec::new();
                for r in scoped_records(20) {
                    op.on_record(r, &mut tee).unwrap();
                }
                op.on_eos(&mut tee).unwrap();
            }
            let expected_bytes = buf.len() as u64;
            let mut sink: Vec<Record> = Vec::new();
            let mut si = StreamIn::new(buf.as_slice());
            assert_eq!(si.pump(&mut sink).unwrap(), StreamEnd::Clean);
            assert_eq!(sink, scoped_records(20), "{enc:?}");
            assert_eq!(si.wire_bytes(), expected_bytes);
        }
    }

    #[test]
    fn mixed_encodings_on_one_stream() {
        // Two senders with different sample encodings sharing one byte
        // stream (e.g. a proxy splice) decode seamlessly: the encoding
        // is per frame.
        let records = scoped_records(6);
        let mut buf = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let enc = if i % 2 == 0 {
                SampleEncoding::F64
            } else {
                SampleEncoding::I16
            };
            encode_into(r, WireFormat::V2(enc), &mut buf);
        }
        write_eos(&mut buf).unwrap();
        let mut sink: Vec<Record> = Vec::new();
        let mut si = StreamIn::new(buf.as_slice());
        assert_eq!(si.pump(&mut sink).unwrap(), StreamEnd::Clean);
        assert_eq!(sink, records);
    }

    #[test]
    fn v2_unclean_disconnect_synthesizes_bad_closes() {
        let fmt = WireFormat::V2(SampleEncoding::F32);
        let mut buf = Vec::new();
        encode_into(&Record::open_scope(3, vec![]), fmt, &mut buf);
        encode_into(&Record::open_scope(4, vec![]), fmt, &mut buf);
        encode_into(&Record::data(1, Payload::f64(vec![1.0])), fmt, &mut buf);
        // Truncate mid-frame: the sensor died while writing.
        let full = buf.len();
        let mut partial = Vec::new();
        encode_into(&Record::data(1, Payload::f64(vec![2.0])), fmt, &mut partial);
        buf.extend_from_slice(&partial[..9]);
        let mut sink: Vec<Record> = Vec::new();
        let mut si = StreamIn::new(buf.as_slice());
        let end = si.pump(&mut sink).unwrap();
        assert_eq!(end, StreamEnd::Unclean { repaired_scopes: 2 });
        assert_eq!(sink.len(), 5);
        assert_eq!(sink[3].kind, RecordKind::BadCloseScope);
        // The partial trailing frame still counts as wire traffic.
        assert_eq!(si.wire_bytes(), (full + 9) as u64);
        crate::scope::validate_scopes(&sink).unwrap();
    }

    #[test]
    fn records_before_a_corrupt_frame_are_delivered_first() {
        // Two good frames then a CRC-corrupted one, all fed from one
        // buffer: the good records come out before the error fires.
        let records = scoped_records(1);
        let mut buf = Vec::new();
        put(&mut buf, &records[0]);
        put(&mut buf, &records[1]);
        let mut bad = Vec::new();
        put(&mut bad, &records[2]);
        // Flip a CRC byte: the frame length stays intact, so this is a
        // deterministic checksum failure rather than apparent truncation.
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        buf.extend_from_slice(&bad);
        let mut si = StreamIn::new(buf.as_slice());
        assert_eq!(si.next_record().unwrap().unwrap(), records[0]);
        assert_eq!(si.next_record().unwrap().unwrap(), records[1]);
        let err = si.next_record().unwrap_err();
        assert!(matches!(err, PipelineError::Codec(_)));
        // The session layer's standard recovery still applies.
        let repairs = si.abort_repair();
        assert_eq!(repairs.len(), 1);
        assert_eq!(si.end(), Some(StreamEnd::Unclean { repaired_scopes: 1 }));
    }

    #[test]
    fn pump_large_stream() {
        let mut buf = Vec::new();
        let records = scoped_records(2_000);
        for r in &records {
            put(&mut buf, r);
        }
        write_eos(&mut buf).unwrap();
        let mut sink: Vec<Record> = Vec::new();
        let mut si = StreamIn::new(buf.as_slice());
        assert_eq!(si.pump(&mut sink).unwrap(), StreamEnd::Clean);
        assert_eq!(sink.len(), records.len());
        assert_eq!(si.received() as usize, records.len());
    }
}
