//! Pipeline segments across hosts.
//!
//! "Pipeline segments are created by composing sequences of operators
//! that produce a partial result important to the overall pipeline
//! application. … Moreover, pipelines can be recomposed dynamically by
//! moving segments among hosts" (paper §2).
//!
//! A segment on another host is a chain behind a `streamin`:
//! [`run_network_segment`] runs one between two TCP connections, and a
//! [`crate::serve::PipelineServer`] runs one per session. Moving a
//! segment is the upstream sender's
//! [`StreamOut::redirect`](crate::net::StreamOut::redirect): at a
//! balanced point it ends one connection cleanly and continues on
//! another, whose receiver starts a fresh chain. For a scope-local chain
//! that move is invisible in the output (`DESIGN.md` §3).

use crate::error::PipelineError;
use crate::net::{StreamEnd, StreamIn, StreamOut};
use crate::operator::NullSink;
use crate::pipeline::Pipeline;
use crate::source::FnSource;
use std::net::{TcpListener, ToSocketAddrs};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{PayloadKind, RecordClass, Signature};
    use crate::codec::WireFormat;
    use crate::record::{Payload, Record, RecordKind};
    use crate::scope::validate_scopes;
    use crate::testkit::{serve_once, MapPayload};
    use std::thread;

    fn scope_burst(scope_type: u16, n: usize, base_seq: u64) -> Vec<Record> {
        let mut v = vec![Record::open_scope(scope_type, vec![])];
        for i in 0..n {
            v.push(Record::data(1, Payload::f64(vec![i as f64])).with_seq(base_seq + i as u64));
        }
        v.push(Record::close_scope(scope_type));
        v
    }

    fn doubling() -> Pipeline {
        let mut p = Pipeline::new();
        p.add(MapPayload::new("x2", |v: &mut [f64]| {
            v.iter_mut().for_each(|x| *x *= 2.0);
        }));
        p
    }

    /// Three hosts on loopback: `upstream` writes to the segment host,
    /// which runs `chain` and forwards to a `serve_once` sink host.
    /// Returns the segment's result and what the sink host saw.
    fn relay_through_segment(
        chain: Pipeline,
        upstream: impl FnOnce(std::net::SocketAddr),
    ) -> (Result<StreamEnd, PipelineError>, StreamEnd, Vec<Record>) {
        let seg_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let seg_addr = seg_listener.local_addr().unwrap();
        let sink_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let sink_addr = sink_listener.local_addr().unwrap();

        let sink_thread = thread::spawn(move || {
            let mut records: Vec<Record> = Vec::new();
            let (end, _received) = serve_once(&sink_listener, &mut records).unwrap();
            (end, records)
        });
        let segment_thread =
            thread::spawn(move || run_network_segment(&seg_listener, sink_addr, chain));
        upstream(seg_addr);

        let segment_result = segment_thread.join().unwrap();
        let (end, records) = sink_thread.join().unwrap();
        (segment_result, end, records)
    }

    #[test]
    fn network_segment_processes_and_forwards() {
        let (upstream_end, end, records) = relay_through_segment(doubling(), |seg_addr| {
            let sent = crate::net::send_all(seg_addr, &scope_burst(1, 4, 0), WireFormat::default())
                .unwrap();
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

        let (upstream_end, end, records) = relay_through_segment(doubling(), |seg_addr| {
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

    /// A passthrough declaring the given signature.
    struct Declared(&'static str, Signature);
    impl crate::operator::Operator for Declared {
        fn name(&self) -> &'static str {
            self.0
        }
        fn on_record(
            &mut self,
            record: Record,
            out: &mut dyn crate::operator::Sink,
        ) -> Result<(), PipelineError> {
            out.push(record)
        }
        fn signature(&self) -> Option<Signature> {
            Some(self.1.clone())
        }
    }

    #[test]
    fn broken_chain_is_refused_before_any_record_is_forwarded() {
        // `drain` consumes every data record and emits none, so the
        // analyzer proves `starved` can never fire (RL0002).
        let drain = Signature {
            passes_matched: false,
            ..Signature::passthrough()
        };
        let f64_data = RecordClass::of(1, PayloadKind::F64);
        let mut chain = Pipeline::new();
        chain.add(Declared("drain", drain));
        chain.add(Declared("starved", Signature::map(f64_data, f64_data)));
        let (upstream_end, end, records) = relay_through_segment(chain, |seg_addr| {
            // The segment host may already have refused and hung up.
            let _ = crate::net::send_all(seg_addr, &scope_burst(1, 3, 0), WireFormat::default());
        });
        let err = upstream_end.unwrap_err();
        assert!(matches!(err, PipelineError::Analysis(_)), "{err}");
        assert!(err.to_string().contains("starved"), "{err}");
        // The downstream host got a connection and nothing on it.
        assert!(records.is_empty());
        assert_eq!(end, StreamEnd::Unclean { repaired_scopes: 0 });
    }
}
