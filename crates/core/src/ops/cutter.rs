//! `cutter`: turns triggered stretches of audio into ensemble scopes.
//!
//! "When the trigger signal transitions from 0 to 1, `cutter` emits an
//! `OpenScope` record, designating the start of an ensemble, and begins
//! composing an ensemble. Each ensemble comprises values from the
//! original acoustic signal that correspond to when the trigger value
//! is 1. When the trigger value transitions from 1 to 0, `cutter` emits
//! a `CloseScope` record … The record stream, as emitted from `cutter`,
//! comprises clips that contain one or more ensembles" (paper §3).
//!
//! Ensemble audio is re-chunked into full `record_len`-sample records so
//! every downstream DFT sees the production record geometry; a final
//! partial chunk is zero-padded when at least half full, otherwise
//! dropped. Ensembles shorter than `min_ensemble_samples` are
//! suppressed entirely (the `OpenScope` is emitted lazily, so a
//! suppressed ensemble leaves no trace).
//!
//! Slicing is zero-copy: triggered stretches are taken as
//! [`SampleBuf`] views into the incoming audio records, adjacent views
//! into the same clip allocation are merged, and full ensemble records
//! are sliced straight out of the merged run. Samples are copied only
//! when a record genuinely spans two unrelated allocations or needs
//! zero-padding at ensemble close.

use crate::config::ExtractorConfig;
use crate::{context_key, scope_type, subtype};
use dynamic_river::telemetry::{EventKind, EventSink};
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, SampleBuf, Sink};
use std::collections::VecDeque;

/// The `cutter` operator.
#[derive(Clone)]
pub struct Cutter {
    config: ExtractorConfig,
    /// Audio records awaiting their trigger record, by arrival order.
    pending_audio: VecDeque<Record>,
    /// Currently open ensemble, if any.
    open: Option<OpenEnsemble>,
    /// Index of the next sample within the current clip.
    clip_sample: usize,
    /// Sequence counter for emitted ensemble records (clip-wide).
    out_seq: u64,
    /// Telemetry event sink (disabled unless a runner attaches one);
    /// reports each ensemble run that proves long enough to emit as a
    /// `CutterRun` — suppressed ensembles stay silent, mirroring their
    /// lazy `OpenScope`.
    events: EventSink,
}

#[derive(Clone)]
struct OpenEnsemble {
    start_sample: usize,
    total_samples: usize,
    /// Triggered sample runs not yet assembled into full records.
    /// Adjacent views into the same backing allocation are pre-merged on
    /// push, so within one clip this usually holds a single contiguous
    /// view. Total length stays below `record_len` between pushes.
    pending: VecDeque<SampleBuf>,
    pending_len: usize,
    /// Records buffered until the ensemble proves long enough to emit.
    buffered: Vec<Record>,
    emitted_open: bool,
}

/// Takes exactly `n` samples off the front of `pending`: a pure view
/// slice when the front run is long enough (the zero-copy fast path),
/// one copy when the record spans runs from different allocations.
fn take_chunk(pending: &mut VecDeque<SampleBuf>, n: usize) -> SampleBuf {
    let front = pending.front_mut().expect("pending samples available");
    if front.len() > n {
        let chunk = front.slice(..n);
        *front = front.slice(n..);
        return chunk;
    }
    if front.len() == n {
        return pending.pop_front().expect("non-empty");
    }
    let mut buf = Vec::with_capacity(n);
    while buf.len() < n {
        let need = n - buf.len();
        let front = pending.front_mut().expect("enough pending samples");
        if front.len() <= need {
            buf.extend_from_slice(front);
            pending.pop_front();
        } else {
            buf.extend_from_slice(&front.slice(..need));
            *front = front.slice(need..);
        }
    }
    buf.into()
}

impl Cutter {
    /// Creates the operator from the pipeline configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ExtractorConfig) -> Self {
        config.validate();
        Cutter {
            config,
            pending_audio: VecDeque::new(),
            open: None,
            clip_sample: 0,
            out_seq: 0,
            events: EventSink::disabled(),
        }
    }

    fn open_ensemble(&mut self, start_sample: usize) {
        self.open = Some(OpenEnsemble {
            start_sample,
            total_samples: 0,
            pending: VecDeque::new(),
            pending_len: 0,
            buffered: Vec::new(),
            emitted_open: false,
        });
    }

    /// Pushes one run of consecutively triggered samples (a view into
    /// the audio record) into the open ensemble, assembling full records
    /// and streaming the buffer out once the ensemble proves long
    /// enough.
    fn push_run(&mut self, run: SampleBuf, out: &mut dyn Sink) -> Result<(), PipelineError> {
        let record_len = self.config.record_len;
        let min_len = self.config.min_ensemble_samples;
        let ensemble = self.open.as_mut().expect("ensemble open");
        ensemble.total_samples += run.len();
        ensemble.pending_len += run.len();
        match ensemble.pending.back_mut() {
            Some(last) => match last.merged_with(&run) {
                Some(joined) => *last = joined,
                None => ensemble.pending.push_back(run),
            },
            None => ensemble.pending.push_back(run),
        }
        while ensemble.pending_len >= record_len {
            let chunk = take_chunk(&mut ensemble.pending, record_len);
            ensemble.pending_len -= record_len;
            let seq = self.out_seq;
            self.out_seq += 1;
            ensemble.buffered.push(
                Record::data(subtype::AUDIO, Payload::F64(chunk))
                    .with_seq(seq)
                    .with_depth(2),
            );
        }
        // Once the ensemble is long enough, stream its buffer out.
        if ensemble.total_samples >= min_len && !ensemble.buffered.is_empty() {
            if !ensemble.emitted_open {
                ensemble.emitted_open = true;
                self.events
                    .emit(EventKind::CutterRun, ensemble.start_sample as u64);
                let open = Record::open_scope(
                    scope_type::ENSEMBLE,
                    vec![(
                        context_key::START_SAMPLE.to_string(),
                        ensemble.start_sample.to_string(),
                    )],
                )
                .with_depth(1);
                out.push(open)?;
            }
            for rec in ensemble.buffered.drain(..) {
                out.push(rec)?;
            }
        }
        Ok(())
    }

    /// Closes the open ensemble (if emitted) with a `CloseScope`.
    fn close_ensemble(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
        let record_len = self.config.record_len;
        let Some(ensemble) = self.open.take() else {
            return Ok(());
        };
        // Final partial chunk: zero-pad when at least half full (padding
        // forces the one honest copy on this path).
        if ensemble.emitted_open && ensemble.pending_len >= record_len / 2 {
            let mut chunk = Vec::with_capacity(record_len);
            for run in &ensemble.pending {
                chunk.extend_from_slice(run);
            }
            chunk.resize(record_len, 0.0);
            let seq = self.out_seq;
            self.out_seq += 1;
            out.push(
                Record::data(subtype::AUDIO, Payload::f64(chunk))
                    .with_seq(seq)
                    .with_depth(2),
            )?;
        }
        if ensemble.emitted_open {
            out.push(Record::close_scope(scope_type::ENSEMBLE).with_depth(1))?;
        }
        Ok(())
    }

    /// Processes one matched (audio, trigger) record pair: scans the
    /// trigger for maximal high/low runs and turns each high run into a
    /// view of the audio record — samples are inspected, never copied.
    fn process_pair(
        &mut self,
        audio: &Record,
        trigger: &[f64],
        out: &mut dyn Sink,
    ) -> Result<(), PipelineError> {
        let samples = audio
            .payload
            .as_f64_buf()
            .ok_or_else(|| PipelineError::operator("cutter", "audio record without F64 payload"))?;
        if samples.len() != trigger.len() {
            return Err(PipelineError::operator(
                "cutter",
                format!(
                    "audio/trigger length mismatch: {} vs {} (seq {})",
                    samples.len(),
                    trigger.len(),
                    audio.seq
                ),
            ));
        }
        let base = self.clip_sample;
        let mut i = 0;
        while i < trigger.len() {
            let high = trigger[i] >= 0.5;
            let mut j = i + 1;
            while j < trigger.len() && (trigger[j] >= 0.5) == high {
                j += 1;
            }
            if high {
                if self.open.is_none() {
                    self.open_ensemble(base + i);
                }
                self.push_run(samples.slice(i..j), out)?;
            } else {
                self.close_ensemble(out)?;
            }
            i = j;
        }
        self.clip_sample = base + trigger.len();
        Ok(())
    }
}

impl Operator for Cutter {
    fn name(&self) -> &'static str {
        "cutter"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        match record.kind {
            RecordKind::OpenScope if record.scope_type == scope_type::CLIP => {
                self.pending_audio.clear();
                self.open = None;
                self.clip_sample = 0;
                self.out_seq = 0;
                out.push(record)
            }
            RecordKind::CloseScope | RecordKind::BadCloseScope
                if record.scope_type == scope_type::CLIP =>
            {
                // Close any dangling ensemble before the clip ends.
                self.close_ensemble(out)?;
                self.pending_audio.clear();
                out.push(record)
            }
            RecordKind::Data if record.subtype == subtype::AUDIO => {
                self.pending_audio.push_back(record);
                Ok(())
            }
            RecordKind::Data if record.subtype == subtype::TRIGGER => {
                let audio = self.pending_audio.pop_front().ok_or_else(|| {
                    PipelineError::operator("cutter", "trigger record without pending audio")
                })?;
                if audio.seq != record.seq {
                    return Err(PipelineError::operator(
                        "cutter",
                        format!(
                            "trigger seq {} does not match audio seq {}",
                            record.seq, audio.seq
                        ),
                    ));
                }
                let trigger = record
                    .payload
                    .as_f64_buf()
                    .ok_or_else(|| {
                        PipelineError::operator("cutter", "trigger record without F64 payload")
                    })?
                    .clone(); // O(1): a view, not a copy of the trigger
                self.process_pair(&audio, &trigger, out)
            }
            // Scores or anything else inside the clip are dropped; outer
            // scope records pass through.
            RecordKind::Data => Ok(()),
            _ => out.push(record),
        }
    }

    fn on_eos(&mut self, out: &mut dyn Sink) -> Result<(), PipelineError> {
        self.close_ensemble(out)
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    fn attach_events(&mut self, events: &EventSink) {
        self.events = events.clone();
    }

    /// Consumes audio + trigger pairs, drops any other data record
    /// inside the clip, and re-emits triggered audio inside ensemble
    /// scopes it opens and closes itself (balanced by the EOS flush).
    fn signature(&self) -> Option<dynamic_river::Signature> {
        use dynamic_river::{PayloadKind, RecordClass, ScopeEffect, Signature, UnmatchedPolicy};
        Some(Signature {
            consumes: vec![
                RecordClass::of(subtype::AUDIO, PayloadKind::F64),
                RecordClass::of(subtype::TRIGGER, PayloadKind::F64),
            ],
            passes_matched: false,
            produces: vec![RecordClass::of(subtype::AUDIO, PayloadKind::F64)],
            unmatched: UnmatchedPolicy::Drop,
            strict_payload: true,
            scope: ScopeEffect::OpensBalanced {
                scope_type: scope_type::ENSEMBLE,
            },
            flushes_at_eos: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::wav2rec::clip_to_records;
    use crate::ops::{SaxAnomaly, TriggerOp};
    use crate::prelude::*;
    use dynamic_river::scope::validate_scopes;
    use dynamic_river::Pipeline;

    fn extraction_pipeline(cfg: ExtractorConfig) -> Pipeline {
        let mut p = Pipeline::new();
        p.add(SaxAnomaly::new(cfg));
        p.add(TriggerOp::new(cfg));
        p.add(Cutter::new(cfg));
        p
    }

    fn run_extraction(samples: &[f64]) -> Vec<Record> {
        let cfg = ExtractorConfig::default();
        extraction_pipeline(cfg)
            .run(clip_to_records(
                samples,
                cfg.sample_rate,
                cfg.record_len,
                &[],
            ))
            .unwrap()
    }

    #[test]
    fn quiet_clip_produces_no_ensembles() {
        // Deterministic pseudo-noise, no events.
        let samples: Vec<f64> = (0..840 * 24)
            .map(|i| (((i * 2654435761usize) % 997) as f64 / 997.0 - 0.5) * 0.02)
            .collect();
        let out = run_extraction(&samples);
        validate_scopes(&out).unwrap();
        let ensembles = out
            .iter()
            .filter(|r| r.kind == RecordKind::OpenScope && r.scope_type == scope_type::ENSEMBLE)
            .count();
        assert_eq!(ensembles, 0);
        // Only clip open/close remain.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn clip_with_song_produces_nested_ensembles() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.clip(SpeciesCode::Rwbl, 42);
        let cfg = ExtractorConfig::default();
        let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
        let out = run_extraction(&clip.samples[..usable]);
        validate_scopes(&out).unwrap();
        let opens = out
            .iter()
            .filter(|r| r.kind == RecordKind::OpenScope && r.scope_type == scope_type::ENSEMBLE)
            .count();
        assert!(opens > 0, "no ensembles cut from a clip with songs");
        // All ensemble records are full length.
        for r in out.iter().filter(|r| r.kind == RecordKind::Data) {
            assert_eq!(r.subtype, subtype::AUDIO);
            assert_eq!(r.payload.as_f64().unwrap().len(), cfg.record_len);
            assert_eq!(r.scope_depth, 2);
        }
        // Ensemble scopes carry their start sample.
        for r in out
            .iter()
            .filter(|r| r.kind == RecordKind::OpenScope && r.scope_type == scope_type::ENSEMBLE)
        {
            let start: usize = r
                .payload
                .context(context_key::START_SAMPLE)
                .expect("start_sample context")
                .parse()
                .expect("numeric");
            assert!(start < usable);
        }
    }

    #[test]
    fn ensemble_records_match_source_samples() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let cfg = ExtractorConfig::default();
        let clip = synth.clip(SpeciesCode::Noca, 3);
        let usable = clip.samples.len() - clip.samples.len() % cfg.record_len;
        let out = run_extraction(&clip.samples[..usable]);
        // For each ensemble, the first record's samples must appear
        // verbatim at start_sample in the source.
        let mut i = 0;
        while i < out.len() {
            if out[i].kind == RecordKind::OpenScope && out[i].scope_type == scope_type::ENSEMBLE {
                let start: usize = out[i]
                    .payload
                    .context(context_key::START_SAMPLE)
                    .unwrap()
                    .parse()
                    .unwrap();
                let first = out[i + 1].payload.as_f64().unwrap();
                assert_eq!(
                    first,
                    &clip.samples[start..start + first.len()],
                    "ensemble at {start}"
                );
            }
            i += 1;
        }
    }

    #[test]
    fn ensemble_records_are_views_into_the_clip() {
        // Zero-copy cutting: when the trigger stays high across whole
        // audio records that are views into one clip allocation, the
        // emitted ensemble records are views into that same allocation.
        use dynamic_river::SampleBuf;
        let cfg = ExtractorConfig::default();
        let n = cfg.record_len;
        let clip = SampleBuf::from(
            (0..n * 3)
                .map(|i| (i as f64 * 0.01).sin())
                .collect::<Vec<f64>>(),
        );
        let mut input = vec![Record::open_scope(scope_type::CLIP, vec![])];
        for i in 0..3u64 {
            let k = i as usize;
            input.push(
                Record::data(subtype::AUDIO, Payload::F64(clip.slice(k * n..(k + 1) * n)))
                    .with_seq(i),
            );
            input.push(Record::data(subtype::TRIGGER, Payload::f64(vec![1.0; n])).with_seq(i));
        }
        input.push(Record::close_scope(scope_type::CLIP));
        let mut p = Pipeline::new();
        p.add(Cutter::new(cfg));
        let out = p.run(input).unwrap();
        validate_scopes(&out).unwrap();
        let data: Vec<&Record> = out.iter().filter(|r| r.kind == RecordKind::Data).collect();
        assert_eq!(data.len(), 3);
        for (i, r) in data.iter().enumerate() {
            let buf = r.payload.as_f64_buf().unwrap();
            assert!(SampleBuf::shares_backing(buf, &clip), "record {i} copied");
            assert_eq!(&buf[..], &clip[i * n..(i + 1) * n]);
        }
    }

    #[test]
    fn unmatched_trigger_is_error() {
        let cfg = ExtractorConfig::default();
        let mut p = Pipeline::new();
        p.add(Cutter::new(cfg));
        let err = p
            .run(vec![
                Record::open_scope(scope_type::CLIP, vec![]),
                Record::data(subtype::TRIGGER, Payload::f64(vec![0.0; 840])),
            ])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Operator { .. }));
    }

    #[test]
    fn seq_mismatch_is_error() {
        let cfg = ExtractorConfig::default();
        let mut p = Pipeline::new();
        p.add(Cutter::new(cfg));
        let err = p
            .run(vec![
                Record::open_scope(scope_type::CLIP, vec![]),
                Record::data(subtype::AUDIO, Payload::f64(vec![0.0; 840])).with_seq(0),
                Record::data(subtype::TRIGGER, Payload::f64(vec![0.0; 840])).with_seq(5),
            ])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Operator { .. }));
    }
}
