//! The paper's `readout`, which archives the record stream to storage.
//!
//! "Audio clips are acquired by a sensor platform and transmitted to a
//! `readout` operator that writes the clips to record for storage …
//! it is often desirable to retain a copy of the raw data for later
//! study" (paper §3). The chains build it as a
//! [`dynamic_river::net::StreamOut`] over a file: records are archived
//! in the lossless default wire-frame format, so an archive can later
//! be replayed through `streamin`. These tests hold `StreamOut` to that
//! role.

mod tests {
    use dynamic_river::net::{StreamEnd, StreamIn, StreamOut};
    use dynamic_river::{Operator, Payload, Record};

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
            let mut op = StreamOut::new(&mut archive);
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
        let mut op = StreamOut::new(&mut buf);
        let mut sink: Vec<Record> = Vec::new();
        for _ in 0..5 {
            op.on_record(Record::data(0, Payload::Empty), &mut sink)
                .unwrap();
        }
        assert_eq!(op.sent(), 5);
    }
}
