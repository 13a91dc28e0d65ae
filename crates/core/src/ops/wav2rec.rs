//! `wav2rec`: encapsulates acoustic data in pipeline records.
//!
//! "During analysis, a data feed is invoked to read clips from storage
//! and write them to `wav2rec` to encapsulate acoustic data (WAV format
//! in this case) in pipeline records" (paper §3). Incoming records carry
//! whole WAV files as bytes; each becomes a clip scope containing
//! fixed-length audio records.

use crate::{context_key, scope_type, subtype};
use dynamic_river::source::ChunkedF64Source;
use dynamic_river::{Operator, Payload, PipelineError, Record, SampleBuf, Sink};
use river_dsp::wav::WavReader;

/// Splits raw clip samples into a scoped record stream: an `OpenScope`
/// (type `CLIP`, carrying the sample rate), `record_len`-sample audio
/// records, and a `CloseScope`. Trailing samples that do not fill a
/// record are dropped (the sensor platform sends whole records).
///
/// The samples are copied **once** into a shared clip buffer; every
/// audio record is then an O(1) view into that single allocation
/// ([`clip_buf_to_records`]), so downstream fan-out, re-windowing and
/// cloning never copy sample data again.
///
/// # Panics
///
/// Panics if `record_len == 0`.
///
/// # Example
///
/// ```
/// use ensemble_core::ops::clip_to_records;
///
/// let records = clip_to_records(&[0.0; 2_000], 20_160.0, 840, &[]);
/// // open + 2 full audio records (1680 samples) + close
/// assert_eq!(records.len(), 4);
/// ```
pub fn clip_to_records(
    samples: &[f64],
    sample_rate: f64,
    record_len: usize,
    extra_context: &[(String, String)],
) -> Vec<Record> {
    clip_buf_to_records(
        &SampleBuf::from(samples),
        sample_rate,
        record_len,
        extra_context,
    )
}

/// [`clip_to_records`] over an already-shared clip buffer: emits the
/// same scoped stream with **zero** sample copies — each audio record is
/// a `record_len` view sliced out of `samples`' backing allocation.
///
/// # Panics
///
/// Panics if `record_len == 0`.
pub fn clip_buf_to_records(
    samples: &SampleBuf,
    sample_rate: f64,
    record_len: usize,
    extra_context: &[(String, String)],
) -> Vec<Record> {
    assert!(record_len > 0, "record_len must be non-zero");
    let mut context = vec![(
        context_key::SAMPLE_RATE.to_string(),
        format!("{sample_rate}"),
    )];
    context.extend_from_slice(extra_context);
    let full = samples.len() / record_len;
    let mut out = Vec::with_capacity(full + 2);
    out.push(Record::open_scope(scope_type::CLIP, context).with_depth(0));
    for i in 0..full {
        out.push(
            Record::data(
                subtype::AUDIO,
                Payload::F64(samples.slice(i * record_len..(i + 1) * record_len)),
            )
            .with_seq(i as u64)
            .with_depth(1),
        );
    }
    out.push(Record::close_scope(scope_type::CLIP).with_depth(0));
    out
}

/// Streaming equivalent of [`clip_to_records`]: wraps a sample
/// iterator as a [`ChunkedF64Source`] emitting the same clip scope and
/// audio-record geometry, without ever materializing the record vector
/// — the feed for [`Pipeline::run_streaming`] over arbitrarily long
/// streams.
///
/// # Panics
///
/// Panics if `record_len == 0`.
///
/// # Example
///
/// ```
/// use ensemble_core::ops::clip_record_source;
/// use dynamic_river::prelude::*;
///
/// // A lazily generated 100-record stream, never held in memory.
/// let samples = (0..84_000).map(|i| (i as f64 * 0.01).sin());
/// let src = clip_record_source(samples, 20_160.0, 840, &[]);
/// let mut sink = CountingSink::default();
/// let stats = Pipeline::new().run_streaming(src, &mut sink).unwrap();
/// assert_eq!(stats.sink_records, 102); // open + 100 audio + close
/// ```
///
/// [`Pipeline::run_streaming`]: dynamic_river::Pipeline::run_streaming
pub fn clip_record_source<I>(
    samples: I,
    sample_rate: f64,
    record_len: usize,
    extra_context: &[(String, String)],
) -> ChunkedF64Source<I::IntoIter>
where
    I: IntoIterator<Item = f64>,
{
    let mut context = vec![(
        context_key::SAMPLE_RATE.to_string(),
        format!("{sample_rate}"),
    )];
    context.extend_from_slice(extra_context);
    ChunkedF64Source::new(samples, record_len)
        .with_subtype(subtype::AUDIO)
        .with_scope(scope_type::CLIP, context)
}

/// An archive of clips as one lazy record stream: each clip becomes its
/// own `CLIP` scope ([`clip_record_source`]), chained end to end —
/// clips are taken from the iterator one at a time, so an archive far
/// larger than memory streams through. This is the natural feed for
/// the sharded runtime — every clip scope is a partition unit, so
/// `Pipeline::run_sharded` fans whole clips out to worker chains and
/// merges their output back in archive order.
///
/// # Panics
///
/// Panics if `record_len == 0`.
///
/// # Example
///
/// ```
/// use ensemble_core::ops::clips_record_source;
/// use dynamic_river::prelude::*;
///
/// let clips = vec![vec![0.0; 1_680], vec![0.5; 2_520]];
/// let src = clips_record_source(clips, 20_160.0, 840);
/// let mut sink = CountingSink::default();
/// let stats = Pipeline::new().run_streaming(src, &mut sink).unwrap();
/// assert_eq!(stats.sink_records, (2 + 2) + (3 + 2)); // per clip: open + audio + close
/// ```
pub fn clips_record_source<C>(
    clips: C,
    sample_rate: f64,
    record_len: usize,
) -> impl dynamic_river::Source + Send
where
    C: IntoIterator<Item = Vec<f64>>,
    C::IntoIter: Send,
{
    dynamic_river::source::ChainedSource::new(
        clips
            .into_iter()
            .map(move |clip| clip_record_source(clip, sample_rate, record_len, &[])),
    )
}

/// The `wav2rec` operator: each incoming `Bytes` data record is parsed
/// as a WAV file and expanded into a clip scope of audio records
/// (multichannel input is mixed down to mono). Non-bytes records pass
/// through untouched.
#[derive(Debug, Clone)]
pub struct Wav2Rec {
    record_len: usize,
}

impl Wav2Rec {
    /// Creates the operator with the pipeline record length.
    ///
    /// # Panics
    ///
    /// Panics if `record_len == 0`.
    pub fn new(record_len: usize) -> Self {
        assert!(record_len > 0, "record_len must be non-zero");
        Wav2Rec { record_len }
    }
}

impl Operator for Wav2Rec {
    fn name(&self) -> &'static str {
        "wav2rec"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        let Some(bytes) = record.payload.as_bytes() else {
            return out.push(record);
        };
        let wav = WavReader::read(bytes)
            .map_err(|e| PipelineError::operator("wav2rec", format!("bad wav payload: {e}")))?;
        // One conversion into the shared clip buffer; the emitted
        // records are views into it, not per-record copies.
        let mono = SampleBuf::from(wav.to_mono());
        for r in clip_buf_to_records(&mono, wav.spec.sample_rate as f64, self.record_len, &[]) {
            out.push(r)?;
        }
        Ok(())
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// Any bytes payload is decoded as a WAV clip and replaced by
    /// audio records wrapped in a clip scope (opened and closed by
    /// this operator, so the chain stays balanced).
    fn signature(&self) -> Option<dynamic_river::Signature> {
        use dynamic_river::{PayloadKind, RecordClass, ScopeEffect, Signature};
        Some(
            Signature::map(
                RecordClass {
                    subtype: None,
                    payload: Some(PayloadKind::Bytes),
                },
                RecordClass::of(subtype::AUDIO, PayloadKind::F64),
            )
            .with_scope(ScopeEffect::OpensBalanced {
                scope_type: scope_type::CLIP,
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamic_river::scope::validate_scopes;
    use dynamic_river::{Pipeline, RecordKind};
    use river_dsp::wav::{WavSpec, WavWriter};

    #[test]
    fn clip_to_records_shapes() {
        let records = clip_to_records(&vec![0.5; 2_100], 20_160.0, 840, &[]);
        assert_eq!(records.len(), 4); // open + 2 records (1680) + close
        assert_eq!(records[0].kind, RecordKind::OpenScope);
        assert_eq!(
            records[0].payload.context(context_key::SAMPLE_RATE),
            Some("20160")
        );
        assert_eq!(records[1].subtype, subtype::AUDIO);
        assert_eq!(records[1].payload.as_f64().unwrap().len(), 840);
        assert_eq!(records[1].seq, 0);
        assert_eq!(records[2].seq, 1);
        validate_scopes(&records).unwrap();
    }

    #[test]
    fn audio_records_are_views_into_one_clip_buffer() {
        // Zero-copy chunking: every audio record shares the single clip
        // allocation; nothing was copied per record.
        let clip = SampleBuf::from(vec![0.25; 840 * 3]);
        let records = clip_buf_to_records(&clip, 20_160.0, 840, &[]);
        let bufs: Vec<&SampleBuf> = records
            .iter()
            .filter_map(|r| r.payload.as_f64_buf())
            .collect();
        assert_eq!(bufs.len(), 3);
        for (i, b) in bufs.iter().enumerate() {
            assert!(SampleBuf::shares_backing(b, &clip), "record {i} copied");
            assert_eq!(b.offset(), i * 840);
        }
    }

    #[test]
    fn extra_context_is_carried() {
        let records = clip_to_records(
            &[0.0; 840],
            20_160.0,
            840,
            &[("species".to_string(), "NOCA".to_string())],
        );
        assert_eq!(records[0].payload.context("species"), Some("NOCA"));
    }

    #[test]
    fn wav_bytes_expand_to_clip_scope() {
        let spec = WavSpec::mono_pcm16(20_160);
        let samples: Vec<f64> = (0..1_680).map(|i| (i as f64 * 0.01).sin() * 0.5).collect();
        let mut wav = Vec::new();
        WavWriter::write(&mut wav, spec, &samples).unwrap();

        let mut p = Pipeline::new();
        p.add(Wav2Rec::new(840));
        let out = p
            .run(vec![Record::data(0, Payload::Bytes(wav.into()))])
            .unwrap();
        assert_eq!(out.len(), 4);
        validate_scopes(&out).unwrap();
        // Samples survive the PCM16 round trip to within quantization.
        let decoded = out[1].payload.as_f64().unwrap();
        for (a, b) in samples[..840].iter().zip(decoded) {
            assert!((a - b).abs() < 2.0 / 32768.0);
        }
    }

    #[test]
    fn non_bytes_records_pass_through() {
        let mut p = Pipeline::new();
        p.add(Wav2Rec::new(840));
        let input = vec![Record::data(subtype::AUDIO, Payload::f64(vec![0.0; 4]))];
        let out = p.run(input.clone()).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn malformed_wav_is_an_operator_error() {
        let mut p = Pipeline::new();
        p.add(Wav2Rec::new(840));
        let err = p
            .run(vec![Record::data(
                0,
                Payload::Bytes(b"not a wav"[..].into()),
            )])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Operator { .. }));
    }
}
