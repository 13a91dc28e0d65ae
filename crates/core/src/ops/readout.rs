//! `readout`: archives the record stream to storage.
//!
//! "Audio clips are acquired by a sensor platform and transmitted to a
//! `readout` operator that writes the clips to record for storage …
//! it is often desirable to retain a copy of the raw data for later
//! study" (paper §3). Records are archived in the (lossless, default)
//! wire-frame format, so an archive can later be replayed through
//! `streamin`.

use dynamic_river::codec::{encode_into, write_eos, WireFormat};
use dynamic_river::{Operator, PipelineError, Record, Sink};
use std::io::Write;

/// Archival pass-through operator: every record is framed to the writer
/// and also forwarded downstream.
pub struct Readout<W: Write + Send> {
    writer: W,
    /// The frame being archived, reused for every record.
    frame: Vec<u8>,
    archived: u64,
}

impl<W: Write + Send> Readout<W> {
    /// Creates a readout archiving to `writer`. A `&mut W` may be
    /// passed.
    pub fn new(writer: W) -> Self {
        Readout {
            writer,
            frame: Vec::new(),
            archived: 0,
        }
    }

    /// Number of records archived so far.
    pub fn archived(&self) -> u64 {
        self.archived
    }
}

impl<W: Write + Send> Operator for Readout<W> {
    fn name(&self) -> &'static str {
        "readout"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        self.frame.clear();
        encode_into(&record, WireFormat::default(), &mut self.frame);
        self.writer.write_all(&self.frame)?;
        self.archived += 1;
        out.push(record)
    }

    fn on_eos(&mut self, _out: &mut dyn Sink) -> Result<(), PipelineError> {
        write_eos(&mut self.writer)?;
        Ok(())
    }

    /// Archival tap: pure passthrough for the stream. Note the missing
    /// `clone_op` — the writer is an exclusive resource, so chains
    /// containing a readout are shard-unsafe (which the analyzer
    /// reports).
    fn signature(&self) -> Option<dynamic_river::Signature> {
        Some(dynamic_river::Signature::passthrough())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_river::net::{StreamEnd, StreamIn};
    use dynamic_river::Payload;

    #[test]
    fn archive_replays_identically() {
        let input = vec![
            Record::open_scope(1, vec![("sample_rate".into(), "20160".into())]),
            Record::data(1, Payload::f64(vec![1.0, 2.0])),
            Record::close_scope(1),
        ];
        let mut archive = Vec::new();
        {
            // Drive the operator directly so the archive buffer remains
            // accessible afterwards.
            let mut op = Readout::new(&mut archive);
            let mut passed: Vec<Record> = Vec::new();
            for r in input.clone() {
                op.on_record(r, &mut passed).unwrap();
            }
            op.on_eos(&mut passed).unwrap();
            assert_eq!(passed, input); // pass-through
        }
        // Replay the archive through streamin.
        let mut sink: Vec<Record> = Vec::new();
        let end = StreamIn::new(archive.as_slice()).pump(&mut sink).unwrap();
        assert_eq!(end, StreamEnd::Clean);
        assert_eq!(sink, input);
    }

    #[test]
    fn counts_archived_records() {
        let mut buf = Vec::new();
        let mut op = Readout::new(&mut buf);
        let mut sink: Vec<Record> = Vec::new();
        for _ in 0..5 {
            op.on_record(Record::data(0, Payload::Empty), &mut sink)
                .unwrap();
        }
        assert_eq!(op.archived(), 5);
    }
}
