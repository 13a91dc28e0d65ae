//! Pipeline segments, hosts, and dynamic relocation.
//!
//! "Pipeline segments are created by composing sequences of operators
//! that produce a partial result important to the overall pipeline
//! application. … Moreover, pipelines can be recomposed dynamically by
//! moving segments among hosts" (paper §2). Relocation happens at
//! *scope boundaries* — the stream is cut only when no scopes are open,
//! so downstream state never sees a torn scope.
//!
//! Hosts are modeled as names. A [`RelocatablePipeline`] is one
//! coordinator thread driving one lane (the same fused step as
//! [`Pipeline::run_streaming`]) over a record channel; a relocation
//! command makes it flush that lane at the next balanced point and
//! build a fresh one "on" the target host. For cross-machine
//! composition over TCP, see [`run_network_segment`].

use crate::error::PipelineError;
use crate::net::{StreamEnd, StreamIn, StreamOut};
use crate::operator::{NullSink, Sink};
use crate::pipeline::{Lane, Pipeline};
use crate::record::Record;
use crate::scope::ScopeTracker;
use crate::source::FnSource;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::net::{TcpListener, ToSocketAddrs};
use std::thread::{self, JoinHandle};

/// A relocation of a running segment between hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Host the segment left.
    pub from: String,
    /// Host the segment moved to.
    pub to: String,
    /// Count of records the segment had taken in when it moved.
    pub at_record: u64,
}

/// Final report of a relocatable segment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReport {
    /// All migrations, in order.
    pub migrations: Vec<Migration>,
    /// Total records forwarded through the segment.
    pub records_in: u64,
    /// Host that processed the final record.
    pub final_host: String,
}

/// Command accepted by a running [`RelocatablePipeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentCommand {
    /// Move the segment to the named host at the next scope boundary.
    Relocate {
        /// Target host name.
        to_host: String,
    },
}

/// A running, relocatable segment.
///
/// # Example
///
/// ```
/// use crossbeam::channel::unbounded;
/// use dynamic_river::prelude::*;
/// use dynamic_river::segment::RelocatablePipeline;
///
/// let (in_tx, in_rx) = unbounded();
/// let (out_tx, out_rx) = unbounded();
/// let seg = RelocatablePipeline::spawn(
///     || {
///         let mut p = Pipeline::new();
///         p.add(Passthrough);
///         p
///     },
///     in_rx,
///     out_tx,
///     "host-a",
/// );
///
/// in_tx.send(Record::open_scope(1, vec![])).unwrap();
/// in_tx.send(Record::close_scope(1)).unwrap();
/// seg.relocate("host-b");
/// in_tx.send(Record::open_scope(1, vec![])).unwrap();
/// in_tx.send(Record::close_scope(1)).unwrap();
/// drop(in_tx);
///
/// let report = seg.join().unwrap();
/// assert_eq!(report.records_in, 4);
/// assert_eq!(report.final_host, "host-b");
/// assert_eq!(out_rx.iter().count(), 4);
/// ```
pub struct RelocatablePipeline {
    control_tx: Sender<SegmentCommand>,
    handle: JoinHandle<Result<SegmentReport, PipelineError>>,
}

impl RelocatablePipeline {
    /// Spawns the coordinator with the segment running on
    /// `initial_host`. `factory` builds a fresh chain for each host the
    /// segment runs on; every chain it builds is pre-flighted
    /// ([`Pipeline::check`]) before it sees a record, and a refused one
    /// ends the run with [`PipelineError::Analysis`] from
    /// [`join`](Self::join).
    pub fn spawn<F>(
        factory: F,
        input: Receiver<Record>,
        output: Sender<Record>,
        initial_host: impl Into<String>,
    ) -> Self
    where
        F: Fn() -> Pipeline + Send + 'static,
    {
        let (control_tx, control_rx) = unbounded::<SegmentCommand>();
        let mut host = initial_host.into();
        let handle = thread::spawn(move || -> Result<SegmentReport, PipelineError> {
            let open_lane = || {
                let mut chain = factory();
                let telemetry = chain.telemetry();
                Lane::new(&mut chain, &telemetry, 0)
            };
            let mut sink = ChannelSink(output);
            let mut lane = open_lane()?;
            let mut tracker = ScopeTracker::new();
            let mut migrations = Vec::new();
            let mut records_in = 0u64;
            let mut pending: Option<String> = None;

            for record in input {
                // Absorb any relocation commands.
                while let Ok(SegmentCommand::Relocate { to_host }) = control_rx.try_recv() {
                    pending = Some(to_host);
                }
                // Cut only at scope boundaries (nothing open); until
                // then the command stays pending.
                if tracker.is_balanced() {
                    if let Some(to_host) = pending.take() {
                        // The move: the old lane flushes what it holds
                        // downstream, the target host starts a fresh one.
                        lane.flush(&mut sink)?;
                        lane = open_lane()?;
                        migrations.push(Migration {
                            from: std::mem::replace(&mut host, to_host.clone()),
                            to: to_host,
                            at_record: records_in,
                        });
                    }
                }
                // Tolerate scope noise in transit; the tracker only guides
                // cut points.
                let _ = tracker.observe(&record);
                records_in += 1;
                lane.feed_source(record, &mut sink)?;
            }
            lane.flush(&mut sink)?;
            Ok(SegmentReport {
                migrations,
                records_in,
                final_host: host,
            })
        });
        RelocatablePipeline { control_tx, handle }
    }

    /// Requests relocation to `host` at the next scope boundary.
    /// Returns `false` if the segment has already finished.
    pub fn relocate(&self, host: impl Into<String>) -> bool {
        self.control_tx
            .send(SegmentCommand::Relocate {
                to_host: host.into(),
            })
            .is_ok()
    }

    /// Waits for the segment to finish and returns its report.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by the segment's chain, or
    /// [`PipelineError::Disconnected`] once the output channel closed.
    pub fn join(self) -> Result<SegmentReport, PipelineError> {
        self.handle.join().expect("segment coordinator panicked")
    }
}

/// Runs a network-bounded segment: accepts one upstream connection on
/// `listener` (`streamin`), connects to `downstream` (`streamout`), and
/// streams every record through `pipeline` to it as it arrives —
/// memory stays bounded by the chain's own state and the next host
/// starts work with the first record, not at upstream end-of-stream.
/// Returns how the upstream session ended.
///
/// This is the building block for composing one logical pipeline across
/// several processes/hosts.
///
/// # Errors
///
/// Propagates connection, codec and operator failures. No end-of-stream
/// sentinel is sent after one, so the downstream host sees an unclean
/// end and repairs its open scopes.
pub fn run_network_segment<A: ToSocketAddrs>(
    listener: &TcpListener,
    downstream: A,
    mut pipeline: Pipeline,
) -> Result<StreamEnd, PipelineError> {
    let (stream, _peer) = listener.accept()?;
    stream.set_nodelay(true)?;
    let mut streamin = StreamIn::new(stream);
    pipeline.add(StreamOut::connect(downstream)?);
    pipeline.run_streaming(FnSource(|| streamin.next_record()), &mut NullSink)?;
    Ok(streamin
        .end()
        .expect("the source returned None, so the stream ended"))
}

/// A sink adapter over a record channel: what a relocatable segment
/// writes its output through, and how `StreamIn::pump` can feed a
/// `Sender` directly.
#[derive(Debug, Clone)]
pub struct ChannelSink(pub Sender<Record>);

impl Sink for ChannelSink {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        self.0
            .send(record)
            .map_err(|_| PipelineError::Disconnected("channel sink closed".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{ScopeEffect, Signature};
    use crate::ops::{MapPayload, Passthrough};
    use crate::record::{Payload, RecordKind};
    use crate::scope::validate_scopes;
    use crossbeam::channel::bounded;

    fn scope_burst(scope_type: u16, n: usize, base_seq: u64) -> Vec<Record> {
        let mut v = vec![Record::open_scope(scope_type, vec![])];
        for i in 0..n {
            v.push(Record::data(1, Payload::f64(vec![i as f64])).with_seq(base_seq + i as u64));
        }
        v.push(Record::close_scope(scope_type));
        v
    }

    #[test]
    fn relocation_preserves_all_records_and_scopes() {
        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(MapPayload::new("x2", |v: &mut [f64]| {
                    v.iter_mut().for_each(|x| *x *= 2.0);
                }));
                p
            },
            in_rx,
            out_tx,
            "host-a",
        );

        // First scope on host A.
        for r in scope_burst(1, 10, 0) {
            in_tx.send(r).unwrap();
        }
        seg.relocate("host-b");
        // Two more scopes; the move lands between them.
        for r in scope_burst(1, 10, 100) {
            in_tx.send(r).unwrap();
        }
        for r in scope_burst(1, 10, 200) {
            in_tx.send(r).unwrap();
        }
        drop(in_tx);

        let report = seg.join().unwrap();
        let out: Vec<Record> = out_rx.iter().collect();
        assert_eq!(out.len(), 36);
        validate_scopes(&out).unwrap();
        assert_eq!(report.records_in, 36);
        assert_eq!(report.migrations.len(), 1);
        assert_eq!(report.migrations[0].from, "host-a");
        assert_eq!(report.migrations[0].to, "host-b");
        assert_eq!(report.final_host, "host-b");
        // Payloads transformed by whichever host ran the record.
        let data: Vec<&Record> = out.iter().filter(|r| r.kind == RecordKind::Data).collect();
        assert_eq!(data[0].payload.as_f64().unwrap(), &[0.0]);
        assert_eq!(data[1].payload.as_f64().unwrap(), &[2.0]);
    }

    #[test]
    fn relocation_waits_for_scope_boundary() {
        // Rendezvous input channel: each send completes only when the
        // coordinator takes the record, making command interleaving
        // deterministic.
        let (in_tx, in_rx) = bounded(0);
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(Passthrough);
                p
            },
            in_rx,
            out_tx,
            "host-a",
        );

        // Open a scope, then request relocation mid-scope.
        in_tx.send(Record::open_scope(1, vec![])).unwrap();
        in_tx.send(Record::data(0, Payload::Empty)).unwrap();
        seg.relocate("host-b");
        // These records are still inside the scope; the move must not
        // happen before the close.
        in_tx.send(Record::data(0, Payload::Empty)).unwrap();
        in_tx.send(Record::close_scope(1)).unwrap();
        // Next scope should run on host-b.
        for r in scope_burst(1, 2, 10) {
            in_tx.send(r).unwrap();
        }
        drop(in_tx);

        let report = seg.join().unwrap();
        assert_eq!(report.migrations.len(), 1);
        // The migration happened at a record index *after* the first
        // scope completed (4 records: open, 2 data, close).
        assert!(report.migrations[0].at_record >= 4);
        let out: Vec<Record> = out_rx.iter().collect();
        validate_scopes(&out).unwrap();
    }

    #[test]
    fn multiple_relocations() {
        // Rendezvous input channel (see above): relocation commands land
        // between bursts instead of coalescing.
        let (in_tx, in_rx) = bounded(0);
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(Passthrough);
                p
            },
            in_rx,
            out_tx,
            "h0",
        );
        for hop in 1..=3 {
            for r in scope_burst(1, 5, hop * 10) {
                in_tx.send(r).unwrap();
            }
            seg.relocate(format!("h{hop}"));
        }
        for r in scope_burst(1, 5, 99) {
            in_tx.send(r).unwrap();
        }
        drop(in_tx);
        let report = seg.join().unwrap();
        assert_eq!(report.migrations.len(), 3);
        assert_eq!(report.final_host, "h3");
        assert_eq!(out_rx.iter().count(), 4 * 7);
    }

    #[test]
    fn no_relocation_runs_single_host() {
        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(Passthrough);
                p
            },
            in_rx,
            out_tx,
            "solo",
        );
        for r in scope_burst(2, 3, 0) {
            in_tx.send(r).unwrap();
        }
        drop(in_tx);
        let report = seg.join().unwrap();
        assert!(report.migrations.is_empty());
        assert_eq!(report.final_host, "solo");
        assert_eq!(out_rx.iter().count(), 5);
    }

    /// A passthrough whose signature net-opens a scope it never closes:
    /// the analyzer proves the chain unbalanced (RL0003).
    struct LeakyOpener;
    impl crate::operator::Operator for LeakyOpener {
        fn name(&self) -> &'static str {
            "leaky-opener"
        }
        fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
            out.push(record)
        }
        fn signature(&self) -> Option<Signature> {
            Some(Signature::passthrough().with_scope(ScopeEffect::Opens { scope_type: 9 }))
        }
    }

    #[test]
    fn broken_chain_is_refused_before_any_record_is_forwarded() {
        let (in_tx, in_rx) = unbounded();
        let (out_tx, out_rx) = unbounded();
        let seg = RelocatablePipeline::spawn(
            || {
                let mut p = Pipeline::new();
                p.add(LeakyOpener);
                p
            },
            in_rx,
            out_tx,
            "host-a",
        );
        for r in scope_burst(1, 3, 0) {
            // The coordinator may already have refused and hung up.
            let _ = in_tx.send(r);
        }
        drop(in_tx);
        let err = seg.join().unwrap_err();
        assert!(matches!(err, PipelineError::Analysis(_)), "{err}");
        assert!(err.to_string().contains("leaky-opener"), "{err}");
        assert_eq!(out_rx.iter().count(), 0);
    }

    /// Three hosts on loopback: `upstream` writes to the segment host,
    /// which doubles payloads and forwards to a `serve_once` sink host.
    /// Returns the segment's result and what the sink host saw.
    fn relay_through_doubling_segment(
        upstream: impl FnOnce(std::net::SocketAddr),
    ) -> (Result<StreamEnd, PipelineError>, StreamEnd, Vec<Record>) {
        let seg_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let seg_addr = seg_listener.local_addr().unwrap();
        let sink_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink_listener.local_addr().unwrap();

        let sink_thread = thread::spawn(move || {
            let mut records: Vec<Record> = Vec::new();
            let (end, _received) = crate::net::serve_once(&sink_listener, &mut records).unwrap();
            (end, records)
        });
        let segment_thread = thread::spawn(move || {
            let mut p = Pipeline::new();
            p.add(MapPayload::new("x2", |v: &mut [f64]| {
                v.iter_mut().for_each(|x| *x *= 2.0);
            }));
            run_network_segment(&seg_listener, sink_addr, p)
        });
        upstream(seg_addr);

        let segment_result = segment_thread.join().unwrap();
        let (end, records) = sink_thread.join().unwrap();
        (segment_result, end, records)
    }

    #[test]
    fn network_segment_processes_and_forwards() {
        let (upstream_end, end, records) = relay_through_doubling_segment(|seg_addr| {
            let sent = crate::net::send_all(seg_addr, &scope_burst(1, 4, 0)).unwrap();
            assert_eq!(sent, 6);
        });
        assert_eq!(upstream_end.unwrap(), StreamEnd::Clean);
        assert_eq!(end, StreamEnd::Clean);
        assert_eq!(records.len(), 6);
        validate_scopes(&records).unwrap();
        assert_eq!(records[2].payload.as_f64().unwrap(), &[2.0]);
    }

    #[test]
    fn network_segment_corrupt_upstream_leaves_downstream_repaired() {
        use crate::codec::{encode_into, write_eos, WireFormat};
        use std::io::Write;

        let (upstream_end, end, records) = relay_through_doubling_segment(|seg_addr| {
            let put = |w: &mut Vec<u8>, r: Record| encode_into(&r, WireFormat::default(), w);
            let mut w = Vec::new();
            put(&mut w, Record::open_scope(1, vec![]));
            put(&mut w, Record::data(1, Payload::f64(vec![1.0])));
            put(&mut w, Record::data(1, Payload::f64(vec![2.0])));
            let mid = w.len() - 4 - 6;
            w[mid] ^= 0xFF; // payload corruption: CRC now fails
            put(&mut w, Record::close_scope(1));
            write_eos(&mut w).unwrap();
            let mut stream = std::net::TcpStream::connect(seg_addr).unwrap();
            stream.write_all(&w).unwrap();
        });
        // The segment host reports the poisoned wire …
        let err = upstream_end.unwrap_err();
        assert!(matches!(err, PipelineError::Codec(_)), "{err}");
        // … and the records it had already streamed downstream end in a
        // repair there: no sentinel followed them.
        assert_eq!(end, StreamEnd::Unclean { repaired_scopes: 1 });
        validate_scopes(&records).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].payload.as_f64().unwrap(), &[2.0]);
        assert_eq!(records[2].kind, RecordKind::BadCloseScope);
    }
}
