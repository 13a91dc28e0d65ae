//! `saxanomaly`: per-sample smoothed SAX-bitmap anomaly scores.
//!
//! "The moving average of the SAX anomaly score … is output by
//! `saxanomaly` in addition to the original acoustic data" (paper §3).
//! For every audio record (subtype [`crate::subtype::AUDIO`]) inside a
//! clip scope, the operator emits the record followed by a score record
//! (subtype [`crate::subtype::SCORE`]) of equal length and equal `seq`,
//! so downstream operators can realign samples and scores. Detector and
//! smoother state reset at every clip boundary.

use crate::config::ExtractorConfig;
use crate::{scope_type, subtype};
use dynamic_river::buf::SampleBuf;
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, Sink};
use river_dsp::stats::MovingAverage;
use river_sax::anomaly::BitmapAnomaly;

/// The `saxanomaly` operator.
#[derive(Clone)]
pub struct SaxAnomaly {
    detector: BitmapAnomaly,
    smoother: MovingAverage,
}

impl SaxAnomaly {
    /// Creates the operator from the pipeline configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ExtractorConfig) -> Self {
        config.validate();
        SaxAnomaly {
            detector: BitmapAnomaly::new(config.anomaly_config()),
            smoother: MovingAverage::new(config.ma_window),
        }
    }

    fn reset(&mut self) {
        self.detector.reset();
        self.smoother.clear();
    }
}

impl Operator for SaxAnomaly {
    fn name(&self) -> &'static str {
        "saxanomaly"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        match record.kind {
            RecordKind::OpenScope if record.scope_type == scope_type::CLIP => {
                self.reset();
                out.push(record)
            }
            RecordKind::Data if record.subtype == subtype::AUDIO => {
                let Some(samples) = record.payload.as_f64() else {
                    return Err(PipelineError::operator(
                        "saxanomaly",
                        "audio record without F64 payload",
                    ));
                };
                // The one allocation a record costs: the score payload,
                // allocated zeroed (not as a copy of the audio) and then
                // written in place by the kernel and the smoother.
                let mut scores: SampleBuf = std::iter::repeat_n(0.0, samples.len()).collect();
                let in_place = scores.make_mut();
                self.detector.score_block(samples, in_place);
                self.smoother.smooth_in_place(in_place);
                let score_record = Record::data(subtype::SCORE, Payload::F64(scores))
                    .with_seq(record.seq)
                    .with_depth(record.scope_depth);
                out.push(record)?;
                out.push(score_record)
            }
            _ => out.push(record),
        }
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    /// Taps the audio stream: audio records continue downstream and a
    /// score record is emitted per audio record. Audio with a
    /// non-F64 payload is a runtime error (strict).
    fn signature(&self) -> Option<dynamic_river::Signature> {
        use dynamic_river::{PayloadKind, RecordClass, Signature};
        Some(
            Signature::map(
                RecordClass::of(subtype::AUDIO, PayloadKind::F64),
                RecordClass::of(subtype::SCORE, PayloadKind::F64),
            )
            .with_passthrough_of_matched()
            .with_strict_payload(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::wav2rec::clip_to_records;
    use dynamic_river::scope::validate_scopes;
    use dynamic_river::Pipeline;

    fn run_on(samples: &[f64]) -> Vec<Record> {
        let cfg = ExtractorConfig::default();
        let mut p = Pipeline::new();
        p.add(SaxAnomaly::new(cfg));
        p.run(clip_to_records(
            samples,
            cfg.sample_rate,
            cfg.record_len,
            &[],
        ))
        .unwrap()
    }

    #[test]
    fn emits_score_record_per_audio_record() {
        let out = run_on(&vec![0.01; 840 * 3]);
        let audio = out
            .iter()
            .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::AUDIO)
            .count();
        let scores = out
            .iter()
            .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::SCORE)
            .count();
        assert_eq!(audio, 3);
        assert_eq!(scores, 3);
        validate_scopes(&out).unwrap();
    }

    #[test]
    fn score_records_align_with_audio() {
        let out = run_on(&vec![0.01; 840 * 2]);
        let data: Vec<&Record> = out.iter().filter(|r| r.kind == RecordKind::Data).collect();
        // audio(0), score(0), audio(1), score(1)
        assert_eq!(data[0].subtype, subtype::AUDIO);
        assert_eq!(data[1].subtype, subtype::SCORE);
        assert_eq!(data[0].seq, data[1].seq);
        assert_eq!(
            data[0].payload.as_f64().unwrap().len(),
            data[1].payload.as_f64().unwrap().len()
        );
    }

    #[test]
    fn state_resets_between_clips() {
        let cfg = ExtractorConfig::default();
        let samples = vec![0.01; 840 * 2];
        let mut one_clip = Pipeline::new();
        one_clip.add(SaxAnomaly::new(cfg));
        let single = one_clip
            .run(clip_to_records(
                &samples,
                cfg.sample_rate,
                cfg.record_len,
                &[],
            ))
            .unwrap();

        let mut two_clips = Pipeline::new();
        two_clips.add(SaxAnomaly::new(cfg));
        let mut input = clip_to_records(&samples, cfg.sample_rate, cfg.record_len, &[]);
        input.extend(clip_to_records(
            &samples,
            cfg.sample_rate,
            cfg.record_len,
            &[],
        ));
        let double = two_clips.run(input).unwrap();

        // Second clip's scores equal the first clip's (state was reset).
        let single_scores: Vec<&Record> = single
            .iter()
            .filter(|r| r.subtype == subtype::SCORE)
            .collect();
        let double_scores: Vec<&Record> = double
            .iter()
            .filter(|r| r.subtype == subtype::SCORE)
            .collect();
        assert_eq!(double_scores.len(), 2 * single_scores.len());
        for (a, b) in single_scores
            .iter()
            .zip(&double_scores[single_scores.len()..])
        {
            assert_eq!(a.payload, b.payload);
        }
    }

    #[test]
    fn rejects_audio_without_f64() {
        let mut p = Pipeline::new();
        p.add(SaxAnomaly::new(ExtractorConfig::default()));
        let err = p
            .run(vec![Record::data(
                subtype::AUDIO,
                Payload::Bytes(b"RIFF"[..].into()),
            )])
            .unwrap_err();
        assert!(matches!(err, PipelineError::Operator { .. }));
    }
}
