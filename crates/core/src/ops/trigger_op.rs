//! `trigger`: converts smoothed anomaly scores into a 0/1 trigger
//! signal (paper §3, Figure 6 top).
//!
//! Score records (subtype [`crate::subtype::SCORE`]) become trigger
//! records (subtype [`crate::subtype::TRIGGER`], values 0.0/1.0); audio
//! and scope records pass through. Trigger state resets per clip.

use crate::config::ExtractorConfig;
use crate::extract::AdaptiveTrigger;
use crate::{scope_type, subtype};
use dynamic_river::telemetry::{EventKind, EventSink};
use dynamic_river::{Operator, Payload, PipelineError, Record, RecordKind, Sink};

/// The `trigger` operator.
#[derive(Clone)]
pub struct TriggerOp {
    config: ExtractorConfig,
    trigger: AdaptiveTrigger,
    /// Telemetry event sink (disabled unless a runner attaches one);
    /// reports each low→high trigger transition as a `TriggerFire`.
    events: EventSink,
    /// Whether the trigger was high after the previous sample, so only
    /// transitions — not every high sample — become events.
    was_high: bool,
}

impl TriggerOp {
    /// Creates the operator from the pipeline configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ExtractorConfig) -> Self {
        config.validate();
        TriggerOp {
            trigger: Self::fresh_trigger(&config),
            config,
            events: EventSink::disabled(),
            was_high: false,
        }
    }

    fn fresh_trigger(config: &ExtractorConfig) -> AdaptiveTrigger {
        let warmup = (2 * config.anomaly_window + config.ma_window) as u64;
        AdaptiveTrigger::with_hold(config.trigger_sigmas, warmup, config.trigger_hold as u64)
    }
}

impl Operator for TriggerOp {
    fn name(&self) -> &'static str {
        "trigger"
    }

    fn on_record(&mut self, record: Record, out: &mut dyn Sink) -> Result<(), PipelineError> {
        match record.kind {
            RecordKind::OpenScope if record.scope_type == scope_type::CLIP => {
                self.trigger = Self::fresh_trigger(&self.config);
                self.was_high = false;
                out.push(record)
            }
            RecordKind::Data if record.subtype == subtype::SCORE => {
                let Some(scores) = record.payload.as_f64() else {
                    return Err(PipelineError::operator(
                        "trigger",
                        "score record without F64 payload",
                    ));
                };
                let values: Vec<f64> = scores
                    .iter()
                    .map(|&s| {
                        let high = self.trigger.push(s);
                        if high && !self.was_high {
                            self.events.emit(EventKind::TriggerFire, record.seq);
                        }
                        self.was_high = high;
                        if high {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                out.push(
                    Record::data(subtype::TRIGGER, Payload::f64(values))
                        .with_seq(record.seq)
                        .with_depth(record.scope_depth),
                )
            }
            _ => out.push(record),
        }
    }

    fn clone_op(&self) -> Option<Box<dyn Operator>> {
        Some(Box::new(self.clone()))
    }

    fn signature(&self) -> Option<dynamic_river::Signature> {
        use dynamic_river::{PayloadKind, RecordClass, Signature};
        Some(
            Signature::map(
                RecordClass::of(subtype::SCORE, PayloadKind::F64),
                RecordClass::of(subtype::TRIGGER, PayloadKind::F64),
            )
            .with_strict_payload(),
        )
    }

    fn attach_events(&mut self, events: &EventSink) {
        self.events = events.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::saxanomaly::SaxAnomaly;
    use crate::ops::wav2rec::clip_to_records;
    use dynamic_river::Pipeline;

    fn run_chain(samples: &[f64]) -> Vec<Record> {
        let cfg = ExtractorConfig::default();
        let mut p = Pipeline::new();
        p.add(SaxAnomaly::new(cfg));
        p.add(TriggerOp::new(cfg));
        p.run(clip_to_records(
            samples,
            cfg.sample_rate,
            cfg.record_len,
            &[],
        ))
        .unwrap()
    }

    #[test]
    fn scores_replaced_by_triggers() {
        let out = run_chain(&vec![0.01; 840 * 3]);
        assert!(out.iter().all(|r| r.subtype != subtype::SCORE));
        let triggers = out
            .iter()
            .filter(|r| r.kind == RecordKind::Data && r.subtype == subtype::TRIGGER)
            .count();
        assert_eq!(triggers, 3);
    }

    #[test]
    fn trigger_values_are_binary() {
        let out = run_chain(&vec![0.01; 840 * 3]);
        for r in out.iter().filter(|r| r.subtype == subtype::TRIGGER) {
            for &v in r.payload.as_f64().unwrap() {
                assert!(v == 0.0 || v == 1.0);
            }
        }
    }

    #[test]
    fn audio_passes_through_unmodified() {
        let samples: Vec<f64> = (0..840 * 2)
            .map(|i| (i as f64 * 0.3).sin() * 0.01)
            .collect();
        let out = run_chain(&samples);
        let audio: Vec<f64> = out
            .iter()
            .filter(|r| r.subtype == subtype::AUDIO && r.kind == RecordKind::Data)
            .flat_map(|r| r.payload.as_f64().unwrap().to_vec())
            .collect();
        assert_eq!(audio, samples[..840 * 2].to_vec());
    }
}
