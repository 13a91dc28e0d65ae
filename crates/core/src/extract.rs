//! High-level ensemble extraction: [`extraction_segment`] (`saxanomaly`
//! → `trigger` → `cutter`) as one call over raw samples or any record
//! [`Source`], `cutter`'s ensemble scopes read back as [`Ensemble`]s.
//!
//! "The moving average of the SAX anomaly score … is output by
//! `saxanomaly` … The `trigger` operator transforms the anomaly score
//! into a trigger signal that has the discrete values of either 0 or 1.
//! The `trigger` operator is adaptive in that it incrementally computes
//! an estimate of the mean anomaly score, μ₀, for values when the
//! trigger value is 0. `Trigger` emits a value of 1 when the anomaly
//! score is more than 5 standard deviations from μ₀ … When the trigger
//! signal transitions from 0 to 1, `cutter` emits an `OpenScope` record
//! … Each ensemble comprises values from the original acoustic signal
//! that correspond to when the trigger value is 1" (paper §3).

use crate::config::ExtractorConfig;
use crate::ops::{clip_to_records, Cutter, SaxAnomaly, TriggerOp};
use crate::pipeline::extraction_segment;
use crate::{context_key, scope_type, subtype};
use dynamic_river::error::PipelineError;
use dynamic_river::{Operator, Pipeline, Record, RecordKind, SampleBuf, Sink, Source, StreamStats};
use river_dsp::stats::Welford;

/// One extracted ensemble — what `cutter` emits for one trigger-high
/// run: whole `record_len`-sample records, the last one zero-padded
/// when at least half full, else dropped (DESIGN.md §3).
#[derive(Debug, Clone, PartialEq)]
pub struct Ensemble {
    /// Index of the first sample (within the source clip).
    pub start: usize,
    /// `start + len()`: within half a record of where the trigger fell.
    pub end: usize,
    /// The ensemble's samples, as a shared buffer: cloning an
    /// `Ensemble` (dataset construction, cross-validation resampling)
    /// is O(1) and never copies audio. Dereferences to `&[f64]`.
    pub samples: SampleBuf,
}

impl Ensemble {
    /// Ensemble length in samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the ensemble holds no samples (never produced by the
    /// extractor).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration in seconds at `sample_rate`.
    pub fn duration(&self, sample_rate: f64) -> f64 {
        self.samples.len() as f64 / sample_rate
    }
}

/// Per-sample traces from an extraction run over a clip's whole
/// records — the data behind the paper's Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionTrace {
    /// Smoothed anomaly score per sample.
    pub scores: Vec<f64>,
    /// Trigger value (0 or 1) per sample.
    pub trigger: Vec<u8>,
    /// The extracted ensembles.
    pub ensembles: Vec<Ensemble>,
}

/// The adaptive trigger: estimates μ₀/σ₀ of the smoothed anomaly score
/// *while the trigger is 0* and fires when the score is "more than 5
/// standard deviations **from** μ₀" (paper §3) — a two-sided test.
///
/// Two-sidedness matters: at the SAX-bitmap level, broadband noise has a
/// stable, *positive* baseline (multinomial sampling noise between the
/// lag/lead matrices), song onsets push the score above it, and
/// sustained tonal vocalizations *concentrate* the symbol distribution
/// and pull the score below it.
///
/// The warm-up runs Welford's update. At its end the estimate is
/// rebased onto sums shifted by the warm-up mean K — n, S = Σ(x − K) and
/// Q = Σ(x − K)² — so a quiet sample after it costs three adds, and the
/// test is made in squares at scale n: with d = x − K, the score fires
/// when (n·d − S)² > sigmas² · max(n·Q − S², (0.02·(n·K + S))²). Nothing
/// per sample divides or takes a square root (DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct AdaptiveTrigger {
    sigmas: f64,
    /// μ₀/σ₀ over the warm-up samples.
    warm: Welford,
    /// From the end of warm-up on, every quiet sample so far (the
    /// warm-up's included) as sums shifted by K = `shift`, the warm-up
    /// mean: their count n, S = Σ(x − K) and Q = Σ(x − K)².
    shift: f64,
    n: f64,
    sum: f64,
    sum_sq: f64,
    state: bool,
    warmup: u64,
    seen: u64,
    hold: u64,
    calm: u64,
}

impl AdaptiveTrigger {
    /// Creates a trigger with threshold `sigmas` standard deviations;
    /// `warmup` initial samples never fire (lets the anomaly detector
    /// and smoother settle). Once fired, the trigger stays high until
    /// the score remains inside the band for `hold` consecutive samples
    /// — bridging the quiet gaps between a song bout's syllables so one
    /// bout yields one ensemble rather than fragments (0: it falls at
    /// the first score inside the band).
    ///
    /// # Panics
    ///
    /// Panics if `sigmas` is negative or NaN.
    pub fn new(sigmas: f64, warmup: u64, hold: u64) -> Self {
        assert!(sigmas >= 0.0, "trigger sigmas must be non-negative");
        AdaptiveTrigger {
            sigmas,
            warm: Welford::new(),
            shift: 0.0,
            n: 0.0,
            sum: 0.0,
            sum_sq: 0.0,
            state: false,
            warmup,
            seen: 0,
            hold,
            calm: 0,
        }
    }

    /// Current trigger value.
    pub fn state(&self) -> bool {
        self.state
    }

    /// `(μ₀, σ₀)` of the quiet samples so far.
    fn quiet_moments(&self) -> (f64, f64) {
        if self.seen < self.warmup {
            (self.warm.mean(), self.warm.population_std_dev())
        } else if self.n == 0.0 {
            (self.shift, 0.0)
        } else {
            let offset = self.sum / self.n;
            let variance = (self.sum_sq / self.n - offset * offset).max(0.0);
            (self.shift + offset, variance.sqrt())
        }
    }

    /// The quiet-score mean μ₀ estimated so far.
    pub fn mu0(&self) -> f64 {
        self.quiet_moments().0
    }

    /// The half-width of the firing band around μ₀.
    pub fn band(&self) -> f64 {
        let (mu0, sigma) = self.quiet_moments();
        // σ floor: on extremely flat noise the 5σ band collapses to
        // nothing and quantization dust would fire the trigger.
        self.sigmas * sigma.max(0.02 * mu0)
    }

    /// Adds a quiet score to μ₀/σ₀.
    #[inline]
    fn learn(&mut self, score: f64) {
        let d = score - self.shift;
        self.n += 1.0;
        self.sum += d;
        self.sum_sq += d * d;
    }

    /// Whether `score` lies inside the band: |x − μ₀| ≤ sigmas·max(σ₀,
    /// 0.02·μ₀), multiplied through by n and squared.
    #[inline]
    fn inside_band(&self, score: f64) -> bool {
        let n = self.n;
        let deviation = n * (score - self.shift) - self.sum;
        let floor = (0.02 * (n * self.shift + self.sum)).max(0.0);
        let spread = (n * self.sum_sq - self.sum * self.sum).max(floor * floor);
        deviation * deviation <= self.sigmas * self.sigmas * spread
    }

    /// Consumes one smoothed score, returning the new trigger value.
    pub fn push(&mut self, score: f64) -> bool {
        self.seen += 1;
        if self.seen <= self.warmup {
            self.warm.push(score);
            if self.seen == self.warmup {
                // Rebase: Σ(x − K) over the warm-up is 0 by definition
                // of K, and Σ(x − K)² is Welford's m2 (its population
                // variance times n).
                let n = self.warm.count() as f64;
                self.shift = self.warm.mean();
                self.n = n;
                self.sum_sq = self.warm.population_variance() * n;
            }
            self.state = false;
            return false;
        }
        if self.state {
            // Falls back to 0 when the score stays inside the band for
            // `hold` consecutive samples.
            if self.inside_band(score) {
                self.calm += 1;
                if self.calm > self.hold {
                    self.state = false;
                    self.calm = 0;
                    self.learn(score);
                }
            } else {
                self.calm = 0;
            }
        } else if self.n > 0.0 && !self.inside_band(score) {
            self.state = true;
            self.calm = 0;
        } else {
            // Only quiet samples update μ₀/σ₀ (paper §3).
            self.learn(score);
        }
        self.state
    }
}

/// Runs the extraction chain over raw audio.
///
/// # Example
///
/// ```
/// use ensemble_core::prelude::*;
///
/// let clip = ClipSynthesizer::new(SynthConfig::short_test()).clip(SpeciesCode::Rwbl, 3);
/// let ensembles = EnsembleExtractor::new(ExtractorConfig::default()).extract(&clip.samples);
/// for e in &ensembles {
///     assert!(e.len() >= 840); // min_ensemble_samples default
/// }
/// ```
#[derive(Debug, Clone)]
pub struct EnsembleExtractor {
    config: ExtractorConfig,
}

impl EnsembleExtractor {
    /// Creates an extractor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`ExtractorConfig::validate`]).
    pub fn new(config: ExtractorConfig) -> Self {
        config.validate();
        EnsembleExtractor { config }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Extracts ensembles from one clip: [`extract_from`](Self::extract_from)
    /// over its whole records (a trailing partial record is not
    /// analysed — the sensor platform sends whole records).
    pub fn extract(&self, samples: &[f64]) -> Vec<Ensemble> {
        let records = self.clip_records(samples).into_iter();
        let mut ensembles = Vec::new();
        self.extract_from(records, |e| ensembles.push(e))
            .expect("clip records are well-formed");
        ensembles
    }

    /// Runs [`extraction_segment`] over a record stream — clip scopes of
    /// `record_len`-sample audio records, e.g.
    /// [`clip_record_source`](crate::ops::clip_record_source) over a live
    /// sample iterator — handing each ensemble to `on_ensemble` the
    /// moment `cutter` closes its scope. Memory is the detector windows
    /// plus the open ensemble, never the stream's length; every clip
    /// scope restarts the detector and the sample clock.
    ///
    /// # Errors
    ///
    /// Returns the source's or the chain's first error.
    ///
    /// # Example
    ///
    /// ```
    /// use ensemble_core::ops::clip_record_source;
    /// use ensemble_core::prelude::*;
    ///
    /// let clip = ClipSynthesizer::new(SynthConfig::short_test()).clip(SpeciesCode::Rwbl, 3);
    /// let cfg = ExtractorConfig::default();
    /// // A lazily chunked feed: no record vector is ever materialized.
    /// let samples = clip.samples.iter().copied();
    /// let feed = clip_record_source(samples, cfg.sample_rate, cfg.record_len, &[]);
    /// let mut streamed = Vec::new();
    /// let extractor = EnsembleExtractor::new(cfg);
    /// extractor.extract_from(feed, |e| streamed.push(e)).unwrap();
    /// assert_eq!(streamed, extractor.extract(&clip.samples));
    /// ```
    pub fn extract_from(
        &self,
        source: impl Source,
        on_ensemble: impl FnMut(Ensemble),
    ) -> Result<StreamStats, PipelineError> {
        extraction_segment(self.config).run_streaming(source, &mut EnsembleSink::new(on_ensemble))
    }

    /// Extracts ensembles and returns the full per-sample traces
    /// (Figure 6): the same three operators, one stage at a time, so
    /// the score and trigger records can be read between them.
    pub fn extract_with_trace(&self, samples: &[f64]) -> ExtractionTrace {
        let cfg = self.config;
        let scored = run_stage(SaxAnomaly::new(cfg), self.clip_records(samples));
        let scores = samples_of(&scored, subtype::SCORE);
        let triggered = run_stage(TriggerOp::new(cfg), scored);
        let trigger = samples_of(&triggered, subtype::TRIGGER);
        let trigger = trigger.iter().map(|&t| t as u8).collect();
        let mut ensembles = Vec::new();
        let mut readout = EnsembleSink::new(|e| ensembles.push(e));
        for record in run_stage(Cutter::new(cfg), triggered) {
            readout.push(record).expect("cutter output is well-formed");
        }
        ExtractionTrace {
            scores,
            trigger,
            ensembles,
        }
    }

    fn clip_records(&self, samples: &[f64]) -> Vec<Record> {
        let cfg = &self.config;
        clip_to_records(samples, cfg.sample_rate, cfg.record_len, &[])
    }
}

/// One shipped operator as its own stage over a clip's records.
fn run_stage(op: impl Operator + 'static, input: Vec<Record>) -> Vec<Record> {
    let mut stage = Pipeline::new();
    stage.add(op);
    stage.run(input).expect("clip records are well-formed")
}

/// The samples of every data record of `subtype`, in stream order.
fn samples_of(records: &[Record], subtype: u16) -> Vec<f64> {
    let payloads = records.iter().filter(|r| r.subtype == subtype);
    let samples = payloads.filter_map(|r| r.payload.as_f64()).flatten();
    samples.copied().collect()
}

/// The sink that reads `cutter`'s output back into [`Ensemble`]s: each
/// ensemble scope's `start_sample` and audio records become one value
/// (its own allocation, so keeping it does not keep its clip resident),
/// handed to the callback at the scope's close. Everything outside an
/// ensemble scope is ignored.
pub struct EnsembleSink<F> {
    on_ensemble: F,
    /// Start sample and audio so far of the ensemble scope being read.
    open: Option<(usize, Vec<f64>)>,
}

impl<F: FnMut(Ensemble)> EnsembleSink<F> {
    /// Creates the sink around the per-ensemble callback.
    pub fn new(on_ensemble: F) -> Self {
        let open = None;
        EnsembleSink { on_ensemble, open }
    }
}

impl<F: FnMut(Ensemble)> Sink for EnsembleSink<F> {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        let ensemble_scope = record.scope_type == scope_type::ENSEMBLE;
        match record.kind {
            RecordKind::OpenScope if ensemble_scope => {
                let start = record.payload.context(context_key::START_SAMPLE);
                let start = start.and_then(|s| s.parse().ok()).ok_or_else(|| {
                    PipelineError::operator("ensemble readout", "scope without start_sample")
                })?;
                self.open = Some((start, Vec::new()));
            }
            RecordKind::Data if record.subtype == subtype::AUDIO => {
                if let (Some((_, samples)), Some(audio)) = (&mut self.open, record.payload.as_f64())
                {
                    samples.extend_from_slice(audio);
                }
            }
            kind if kind.closes_scope() && ensemble_scope => {
                if let Some((start, samples)) = self.open.take() {
                    let (end, samples) = (start + samples.len(), SampleBuf::from(samples));
                    (self.on_ensemble)(Ensemble {
                        start,
                        end,
                        samples,
                    });
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{clip_record_source, clips_record_source};
    use crate::species::SpeciesCode;
    use crate::synth::{ClipSynthesizer, SynthConfig};
    use dynamic_river::source::FnSource;

    fn extractor() -> EnsembleExtractor {
        EnsembleExtractor::new(ExtractorConfig::default())
    }

    #[test]
    fn adaptive_trigger_fires_on_outliers_only() {
        let mut t = AdaptiveTrigger::new(5.0, 10, 0);
        // Quiet phase: scores near 0.1 with small jitter.
        for i in 0..500 {
            let s = 0.1 + 0.001 * ((i % 7) as f64 - 3.0);
            assert!(!t.push(s), "fired during quiet at {i}");
        }
        // Outlier fires.
        assert!(t.push(0.5));
        // Recedes.
        assert!(!t.push(0.1));
    }

    #[test]
    fn trigger_does_not_adapt_while_high() {
        let mut t = AdaptiveTrigger::new(5.0, 5, 0);
        for _ in 0..100 {
            t.push(0.1);
        }
        let mu_before = t.mu0();
        t.push(0.9); // fire
        for _ in 0..50 {
            t.push(0.9); // stays high, must not pollute mu0
        }
        assert!((t.mu0() - mu_before).abs() < 1e-9);
        assert!(t.state());
    }

    #[test]
    fn trigger_warmup_suppresses_firing() {
        let mut t = AdaptiveTrigger::new(5.0, 100, 0);
        for i in 0..100 {
            assert!(!t.push(10.0 + i as f64), "fired during warmup");
        }
    }

    #[test]
    fn clip_with_songs_yields_ensembles_overlapping_events() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.clip(SpeciesCode::Noca, 42);
        let trace = extractor().extract_with_trace(&clip.samples);
        assert!(
            !trace.ensembles.is_empty(),
            "no ensembles extracted from a clip with {} song bouts",
            clip.events.len()
        );
        // Most extracted ensembles should overlap a ground-truth bout.
        let overlapping = trace
            .ensembles
            .iter()
            .filter(|e| clip.label_for_range(e.start, e.end).is_some())
            .count();
        assert!(
            overlapping * 2 >= trace.ensembles.len(),
            "{overlapping}/{} ensembles overlap ground truth",
            trace.ensembles.len()
        );
    }

    #[test]
    fn ambience_only_clip_yields_few_or_no_ensembles() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.silence_clip(9);
        let ensembles = extractor().extract(&clip.samples);
        let extracted: usize = ensembles.iter().map(Ensemble::len).sum();
        // The ambience may trip the trigger occasionally (human-activity
        // bursts), but the bulk of the clip must not be extracted.
        assert!(
            extracted < clip.samples.len() / 4,
            "{extracted} of {} samples extracted from silence",
            clip.samples.len()
        );
    }

    #[test]
    fn ensembles_are_ordered_and_disjoint() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.clip(SpeciesCode::Hofi, 7);
        let ensembles = extractor().extract(&clip.samples);
        for w in ensembles.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        for e in &ensembles {
            assert_eq!(e.samples.len(), e.end - e.start);
            assert!(e.len() >= ExtractorConfig::default().min_ensemble_samples);
        }
    }

    #[test]
    fn trace_lengths_match_input() {
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clip = synth.clip(SpeciesCode::Bcch, 1);
        let n = ExtractorConfig::default().record_len;
        // short_test clips are whole records; cut one mid-record.
        assert_eq!(clip.samples.len() % n, 0);
        let ragged = &clip.samples[..clip.samples.len() - n / 3];
        let trace = extractor().extract_with_trace(ragged);
        assert_eq!(trace.scores.len(), clip.samples.len() - n);
        assert_eq!(trace.trigger.len(), trace.scores.len());
        // The partial tail is not analysed at all: same trace as the
        // clip cut at the record boundary.
        assert_eq!(
            trace,
            extractor().extract_with_trace(&clip.samples[..clip.samples.len() - n])
        );
    }

    #[test]
    fn trigger_trace_is_binary_and_matches_ensembles() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.clip(SpeciesCode::Wbnu, 3);
        let trace = extractor().extract_with_trace(&clip.samples);
        let half = ExtractorConfig::default().record_len / 2;
        assert!(trace.trigger.iter().all(|&t| t <= 1));
        assert!(!trace.ensembles.is_empty());
        // An ensemble is its high run rounded to whole records: the
        // trigger rises at `start` and is 1 at least until half a
        // record before `end` (the rest may be the zero-padded tail).
        for e in &trace.ensembles {
            assert!(e.start == 0 || trace.trigger[e.start - 1] == 0);
            let high_until = (e.end - half).min(trace.trigger.len());
            assert!(trace.trigger[e.start..high_until].iter().all(|&t| t == 1));
        }
        // The trace is the chain's: same ensembles as `extract`.
        assert_eq!(trace.ensembles, extractor().extract(&clip.samples));
    }

    #[test]
    fn empty_input() {
        let trace = extractor().extract_with_trace(&[]);
        assert!(trace.ensembles.is_empty());
        assert!(trace.scores.is_empty());
    }

    #[test]
    fn deterministic() {
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clip = synth.clip(SpeciesCode::Dowo, 5);
        let a = extractor().extract(&clip.samples);
        let b = extractor().extract(&clip.samples);
        assert_eq!(a, b);
    }

    fn lazy_feed(samples: &[f64]) -> impl Source + '_ {
        let cfg = ExtractorConfig::default();
        let samples = samples.iter().copied();
        clip_record_source(samples, cfg.sample_rate, cfg.record_len, &[])
    }

    #[test]
    fn extract_from_a_lazy_source_matches_extract() {
        // `extract` cuts views out of one clip allocation; a lazily
        // chunked feed gives every record its own, so `cutter` takes its
        // copying path. Same ensembles.
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clip = synth.clip(SpeciesCode::Noca, 11);
        let mut streamed = Vec::new();
        let stats = extractor().extract_from(lazy_feed(&clip.samples), |e| streamed.push(e));
        assert_eq!(stats.unwrap().stages.len(), 3);
        assert!(!streamed.is_empty());
        assert_eq!(streamed, extractor().extract(&clip.samples));
    }

    #[test]
    fn extract_from_yields_ensembles_before_end_of_stream() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.clip(SpeciesCode::Noca, 42);
        let n = ExtractorConfig::default().record_len;
        // Count the records pulled so far: an ensemble lands with the
        // record in which its trigger fell (within half a record of
        // `end`), not when the feed ends.
        let pulled = std::cell::Cell::new(0usize);
        let mut feed = lazy_feed(&clip.samples);
        let counting = FnSource(|| {
            pulled.set(pulled.get() + 1);
            feed.next_record()
        });
        let mut landed = 0;
        let on_ensemble = |e: Ensemble| {
            assert!(pulled.get() <= e.end / n + 3, "ensemble at {}", e.start);
            landed += 1;
        };
        extractor().extract_from(counting, on_ensemble).unwrap();
        assert!(landed >= 2 && pulled.get() == clip.samples.len() / n + 3);
    }

    #[test]
    fn every_clip_scope_restarts_detector_and_sample_clock() {
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let [a, b] = [1, 2].map(|seed| synth.clip(SpeciesCode::Hofi, seed).samples);
        let cfg = ExtractorConfig::default();
        let mut apart = extractor().extract(&a);
        apart.extend(extractor().extract(&b));
        let archive = clips_record_source([a, b], cfg.sample_rate, cfg.record_len);
        let mut streamed = Vec::new();
        extractor()
            .extract_from(archive, |e| streamed.push(e))
            .unwrap();
        assert_eq!(streamed, apart);
    }

    #[test]
    fn readout_sink_ignores_everything_outside_an_ensemble_scope() {
        let audio = |v: f64| Record::data(subtype::AUDIO, dynamic_river::Payload::f64(vec![v; 2]));
        let open = |start: &str| {
            let context = vec![(context_key::START_SAMPLE.into(), start.into())];
            Record::open_scope(scope_type::ENSEMBLE, context)
        };
        let close = Record::close_scope(scope_type::ENSEMBLE);
        let mut got = Vec::new();
        let mut sink = EnsembleSink::new(|e| got.push(e));
        for r in [
            audio(9.0),
            open("40"),
            audio(1.0),
            audio(2.0),
            close,
            audio(9.0),
        ] {
            sink.push(r).unwrap();
        }
        assert!(sink.push(open("forty")).is_err());
        let samples = SampleBuf::from(vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(
            got,
            [Ensemble {
                start: 40,
                end: 44,
                samples
            }]
        );
    }
}
