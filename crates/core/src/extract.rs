//! High-level ensemble extraction: the `saxanomaly` → `trigger` →
//! `cutter` chain as one convenient call over raw samples.
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
use dynamic_river::error::PipelineError;
use dynamic_river::serve::{PipelineServer, ServerHandle, SessionInfo, SessionSink};
use dynamic_river::telemetry::TelemetryConfig;
use dynamic_river::SampleBuf;
use river_dsp::stats::{MovingAverage, Welford};
use river_sax::anomaly::BitmapAnomaly;
use std::net::TcpListener;

/// One extracted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct Ensemble {
    /// Index of the first sample (within the source clip).
    pub start: usize,
    /// One past the last sample.
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

/// Per-sample traces from an extraction run — the data behind the
/// paper's Figure 6.
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
#[derive(Debug, Clone)]
pub struct AdaptiveTrigger {
    sigmas: f64,
    quiet: Welford,
    state: bool,
    warmup: u64,
    seen: u64,
    hold: u64,
    calm: u64,
}

impl AdaptiveTrigger {
    /// Creates a trigger with threshold `sigmas` standard deviations;
    /// `warmup` initial samples never fire (lets the anomaly detector
    /// and smoother settle).
    pub fn new(sigmas: f64, warmup: u64) -> Self {
        Self::with_hold(sigmas, warmup, 0)
    }

    /// Like [`new`](Self::new), but once fired the trigger stays high
    /// until the score remains inside the band for `hold` consecutive
    /// samples — bridging the quiet gaps between a song bout's
    /// syllables so one bout yields one ensemble rather than fragments.
    pub fn with_hold(sigmas: f64, warmup: u64, hold: u64) -> Self {
        AdaptiveTrigger {
            sigmas,
            quiet: Welford::new(),
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

    /// The quiet-score mean μ₀ estimated so far.
    pub fn mu0(&self) -> f64 {
        self.quiet.mean()
    }

    /// The half-width of the firing band around μ₀.
    pub fn band(&self) -> f64 {
        let sigma = self
            .quiet
            .population_std_dev()
            // σ floor: on extremely flat noise the 5σ band collapses to
            // nothing and quantization dust would fire the trigger.
            .max(0.02 * self.quiet.mean());
        self.sigmas * sigma
    }

    /// Consumes one smoothed score, returning the new trigger value.
    pub fn push(&mut self, score: f64) -> bool {
        self.seen += 1;
        if self.seen <= self.warmup {
            self.quiet.push(score);
            self.state = false;
            return false;
        }
        let deviation = (score - self.quiet.mean()).abs();
        if self.state {
            // Falls back to 0 when the score stays inside the band for
            // `hold` consecutive samples.
            if deviation <= self.band() {
                self.calm += 1;
                if self.calm > self.hold {
                    self.state = false;
                    self.calm = 0;
                    self.quiet.push(score);
                }
            } else {
                self.calm = 0;
            }
        } else if deviation > self.band() && self.quiet.count() > 0 {
            self.state = true;
            self.calm = 0;
        } else {
            // Only quiet samples update μ₀/σ₀ (paper §3).
            self.quiet.push(score);
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

    /// Extracts ensembles from `samples`.
    pub fn extract(&self, samples: &[f64]) -> Vec<Ensemble> {
        self.extract_with_trace(samples).ensembles
    }

    /// Extracts ensembles and returns the full per-sample traces
    /// (Figure 6).
    pub fn extract_with_trace(&self, samples: &[f64]) -> ExtractionTrace {
        let mut stream = self.extract_stream();
        let mut scores = Vec::with_capacity(samples.len());
        let mut trig = Vec::with_capacity(samples.len());
        let mut ensembles = Vec::new();
        stream.for_each_step(samples, |step| {
            scores.push(step.score);
            trig.push(u8::from(step.triggered));
            ensembles.extend(step.completed);
        });
        // Trigger still high at end of clip: close the dangling ensemble
        // (the record pipeline emits CloseScope at clip close).
        ensembles.extend(stream.finish());
        ExtractionTrace {
            scores,
            trigger: trig,
            ensembles,
        }
    }

    /// Starts an incremental extraction over a stream of sample chunks.
    ///
    /// The returned [`StreamingExtractor`] ingests samples as they
    /// arrive and yields each ensemble the moment its trigger releases,
    /// so a sensor feed of unbounded length is processed with memory
    /// bounded by the detector windows plus the currently open ensemble
    /// — never by stream length. [`extract`](Self::extract) and
    /// [`extract_with_trace`](Self::extract_with_trace) are wrappers
    /// over this same state machine, so the two paths agree
    /// sample-for-sample whatever the chunking.
    ///
    /// # Example
    ///
    /// ```
    /// use ensemble_core::prelude::*;
    ///
    /// let clip = ClipSynthesizer::new(SynthConfig::short_test()).clip(SpeciesCode::Rwbl, 3);
    /// let extractor = EnsembleExtractor::new(ExtractorConfig::default());
    ///
    /// let mut stream = extractor.extract_stream();
    /// let mut streamed = Vec::new();
    /// for chunk in clip.samples.chunks(512) {
    ///     stream.push_chunk(chunk, &mut streamed);
    /// }
    /// streamed.extend(stream.finish());
    /// assert_eq!(streamed, extractor.extract(&clip.samples));
    /// ```
    pub fn extract_stream(&self) -> StreamingExtractor {
        let c = self.config;
        // Let the detector windows fill and the smoother settle before
        // the trigger may fire.
        let warmup = (2 * c.anomaly_window + c.ma_window) as u64;
        StreamingExtractor {
            config: c,
            detector: BitmapAnomaly::new(c.anomaly_config()),
            smoother: MovingAverage::new(c.ma_window),
            trigger: AdaptiveTrigger::with_hold(c.trigger_sigmas, warmup, c.trigger_hold as u64),
            pos: 0,
            open: None,
        }
    }

    /// Serves the full Figure 5 analysis chain to a fleet of networked
    /// clients: a [`PipelineServer`] multiplexing up to `max_sessions`
    /// concurrent `streamin` connections over its event loop and
    /// worker pool (DESIGN.md §17), each session running its own fresh
    /// `full_pipeline` instance over this extractor's configuration.
    /// For separate control of the pool width or an idle-session
    /// timeout, build the [`PipelineServer`] directly
    /// (`set_workers` / `set_idle_timeout`).
    /// Clients push framed clip records (e.g. via
    /// [`clip_to_records`](crate::ops::clip_to_records) +
    /// `send_all`); each session's pattern output lands in the sink
    /// produced by `make_sink`. Returns immediately with the
    /// [`ServerHandle`]; call
    /// [`shutdown`](ServerHandle::shutdown) for the per-session and
    /// aggregate statistics.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] if the listener's address cannot
    /// be resolved or the service threads cannot be spawned.
    ///
    /// # Panics
    ///
    /// Panics if `max_sessions == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use dynamic_river::net::send_all;
    /// use dynamic_river::operator::SharedSink;
    /// use ensemble_core::ops::clip_to_records;
    /// use ensemble_core::prelude::*;
    /// use std::net::TcpListener;
    ///
    /// let cfg = ExtractorConfig::default();
    /// let ex = EnsembleExtractor::new(cfg);
    /// let out = SharedSink::new();
    /// let per_session = out.clone();
    /// let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    /// let handle = ex
    ///     .serve(listener, 2, move |_info| Box::new(per_session.clone()))
    ///     .unwrap();
    ///
    /// // One "sensor host" pushes a (quiet) clip.
    /// let clip = vec![0.01; cfg.record_len * 4];
    /// let records = clip_to_records(&clip, cfg.sample_rate, cfg.record_len, &[]);
    /// send_all(handle.local_addr(), &records).unwrap();
    ///
    /// handle.wait_for_completed(1);
    /// let report = handle.shutdown().unwrap();
    /// assert_eq!(report.clean_sessions(), 1);
    /// assert_eq!(out.take().len(), 2); // quiet clip: scope markers only
    /// ```
    pub fn serve<F>(
        &self,
        listener: TcpListener,
        max_sessions: usize,
        make_sink: F,
    ) -> Result<ServerHandle, PipelineError>
    where
        F: FnMut(&SessionInfo) -> SessionSink + Send + 'static,
    {
        self.serve_with_telemetry(listener, max_sessions, TelemetryConfig::Off, make_sink)
    }

    /// [`serve`](Self::serve) with telemetry enabled: every session
    /// records per-stage latency histograms (its lane is its session
    /// id) into the server's shared registry, and with
    /// [`TelemetryConfig::Full`] traces session and scope events. Read
    /// the merged view live from
    /// [`ServerHandle::telemetry_snapshot`], or per session from each
    /// [`SessionReport`](dynamic_river::serve::SessionReport) after
    /// shutdown (DESIGN.md §16).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] if the listener's address cannot
    /// be resolved or the service threads cannot be spawned.
    ///
    /// # Panics
    ///
    /// Panics if `max_sessions == 0`.
    pub fn serve_with_telemetry<F>(
        &self,
        listener: TcpListener,
        max_sessions: usize,
        telemetry: TelemetryConfig,
        make_sink: F,
    ) -> Result<ServerHandle, PipelineError>
    where
        F: FnMut(&SessionInfo) -> SessionSink + Send + 'static,
    {
        let cfg = self.config;
        let mut server =
            PipelineServer::from_factory(move |_session| crate::pipeline::full_pipeline(cfg, true));
        server.set_max_sessions(max_sessions);
        server.set_telemetry(telemetry);
        server.start(listener, make_sink)
    }
}

/// Samples a [`StreamingExtractor`] scores per kernel call: its score
/// scratch lives on the stack, so a chunk of any length costs no
/// allocation.
const SCORE_TILE: usize = 512;

/// The outcome of feeding one sample to a [`StreamingExtractor`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStep {
    /// Smoothed anomaly score for the sample.
    pub score: f64,
    /// Trigger value after the sample.
    pub triggered: bool,
    /// An ensemble completed by this sample (its trigger released and
    /// it met the minimum length), if any.
    pub completed: Option<Ensemble>,
}

/// Incremental ensemble extraction over a stream of samples — the
/// `saxanomaly` → `trigger` → `cutter` chain as a resumable state
/// machine ([`EnsembleExtractor::extract_stream`]).
///
/// State is the SAX/normalization windows, the moving average, the
/// trigger estimate, and the currently open ensemble's samples;
/// completed ensembles are handed to the caller immediately, so nothing
/// grows with stream length.
#[derive(Debug, Clone)]
pub struct StreamingExtractor {
    config: ExtractorConfig,
    detector: BitmapAnomaly,
    smoother: MovingAverage,
    trigger: AdaptiveTrigger,
    /// Absolute index of the next sample (monotonic across chunks and
    /// clips — ensemble positions are stream positions).
    pos: usize,
    open: Option<OpenEnsemble>,
}

#[derive(Debug, Clone)]
struct OpenEnsemble {
    start: usize,
    samples: Vec<f64>,
}

impl StreamingExtractor {
    /// Feeds one sample, returning its score, trigger state, and any
    /// ensemble it completed.
    pub fn push_sample(&mut self, x: f64) -> StreamStep {
        let score = self.smoother.push(self.detector.push(x));
        self.step(x, score)
    }

    /// `trigger` and `cutter` for one sample and its smoothed score.
    fn step(&mut self, x: f64, score: f64) -> StreamStep {
        let triggered = self.trigger.push(score);
        let completed = if triggered {
            match &mut self.open {
                Some(open) => open.samples.push(x),
                None => {
                    self.open = Some(OpenEnsemble {
                        start: self.pos,
                        samples: vec![x],
                    });
                }
            }
            None
        } else {
            self.take_open()
        };
        self.pos += 1;
        StreamStep {
            score,
            triggered,
            completed,
        }
    }

    /// Feeds a chunk of samples, appending completed ensembles to
    /// `out`.
    pub fn push_chunk(&mut self, chunk: &[f64], out: &mut Vec<Ensemble>) {
        self.for_each_step(chunk, |step| out.extend(step.completed));
    }

    /// Feeds a chunk, handing every sample's [`StreamStep`] to `f`: the
    /// chunk is scored and smoothed a tile at a time by the block
    /// kernel, then stepped through `trigger` and `cutter` — the same
    /// steps [`push_sample`](Self::push_sample) yields one by one.
    fn for_each_step(&mut self, chunk: &[f64], mut f: impl FnMut(StreamStep)) {
        let mut scores = [0.0; SCORE_TILE];
        for tile in chunk.chunks(SCORE_TILE) {
            let scores = &mut scores[..tile.len()];
            self.detector.score_block(tile, scores);
            self.smoother.smooth_in_place(scores);
            for (&x, &score) in tile.iter().zip(scores.iter()) {
                f(self.step(x, score));
            }
        }
    }

    /// Ends the stream: closes a still-open ensemble (the batch path's
    /// dangling-ensemble rule). The extractor remains usable, but the
    /// trigger keeps its learned state — create a fresh one per
    /// independent stream.
    pub fn finish(&mut self) -> Option<Ensemble> {
        self.take_open()
    }

    /// Samples consumed so far — the absolute stream clock.
    pub fn samples_seen(&self) -> usize {
        self.pos
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    fn take_open(&mut self) -> Option<Ensemble> {
        let open = self.open.take()?;
        if open.samples.len() < self.config.min_ensemble_samples {
            return None; // too short to be a vocalization
        }
        Some(Ensemble {
            start: open.start,
            end: open.start + open.samples.len(),
            // One conversion into the shared buffer; every later clone
            // or hand-off of this ensemble is O(1).
            samples: open.samples.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::SpeciesCode;
    use crate::synth::{ClipSynthesizer, SynthConfig};

    fn extractor() -> EnsembleExtractor {
        EnsembleExtractor::new(ExtractorConfig::default())
    }

    #[test]
    fn adaptive_trigger_fires_on_outliers_only() {
        let mut t = AdaptiveTrigger::new(5.0, 10);
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
        let mut t = AdaptiveTrigger::new(5.0, 5);
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
        let mut t = AdaptiveTrigger::new(5.0, 100);
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
        let trace = extractor().extract_with_trace(&clip.samples);
        assert_eq!(trace.scores.len(), clip.samples.len());
        assert_eq!(trace.trigger.len(), clip.samples.len());
    }

    #[test]
    fn trigger_trace_is_binary_and_matches_ensembles() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.clip(SpeciesCode::Wbnu, 3);
        let trace = extractor().extract_with_trace(&clip.samples);
        assert!(trace.trigger.iter().all(|&t| t <= 1));
        // Inside every reported ensemble, the trigger is 1 throughout.
        for e in &trace.ensembles {
            assert!(trace.trigger[e.start..e.end].iter().all(|&t| t == 1));
        }
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

    #[test]
    fn streaming_matches_batch_for_any_chunking() {
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clip = synth.clip(SpeciesCode::Noca, 11);
        let ex = extractor();
        let batch = ex.extract(&clip.samples);
        for chunk_len in [1usize, 17, 840, 4_096, clip.samples.len()] {
            let mut stream = ex.extract_stream();
            let mut streamed = Vec::new();
            for chunk in clip.samples.chunks(chunk_len) {
                stream.push_chunk(chunk, &mut streamed);
            }
            streamed.extend(stream.finish());
            assert_eq!(streamed, batch, "chunk_len={chunk_len}");
            assert_eq!(stream.samples_seen(), clip.samples.len());
        }
    }

    #[test]
    fn streaming_yields_ensembles_before_finish() {
        let synth = ClipSynthesizer::new(SynthConfig::paper());
        let clip = synth.clip(SpeciesCode::Noca, 42);
        let ex = extractor();
        let batch = ex.extract(&clip.samples);
        assert!(!batch.is_empty());
        // Every ensemble whose trigger released inside the clip arrives
        // incrementally, not at finish().
        let mut stream = ex.extract_stream();
        let mut incremental = Vec::new();
        stream.push_chunk(&clip.samples, &mut incremental);
        let at_finish = stream.finish();
        assert_eq!(
            incremental.len() + usize::from(at_finish.is_some()),
            batch.len()
        );
        for (a, b) in incremental.iter().zip(&batch) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn streaming_positions_are_absolute_across_chunks() {
        // Two clips fed back-to-back: ensemble positions land on the
        // concatenated stream's clock.
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let a = synth.clip(SpeciesCode::Hofi, 1);
        let b = synth.clip(SpeciesCode::Hofi, 2);
        let mut joined = a.samples.clone();
        joined.extend_from_slice(&b.samples);
        let batch = extractor().extract(&joined);

        let mut stream = extractor().extract_stream();
        let mut streamed = Vec::new();
        stream.push_chunk(&a.samples, &mut streamed);
        stream.push_chunk(&b.samples, &mut streamed);
        streamed.extend(stream.finish());
        assert_eq!(streamed, batch);
        assert_eq!(stream.samples_seen(), joined.len());
    }

    #[test]
    fn streaming_trace_matches_extract_with_trace() {
        let synth = ClipSynthesizer::new(SynthConfig::short_test());
        let clip = synth.clip(SpeciesCode::Wbnu, 8);
        let ex = extractor();
        let trace = ex.extract_with_trace(&clip.samples);
        let mut stream = ex.extract_stream();
        for (i, &x) in clip.samples.iter().enumerate() {
            let step = stream.push_sample(x);
            assert_eq!(step.score, trace.scores[i], "score at {i}");
            assert_eq!(u8::from(step.triggered), trace.trigger[i], "trigger at {i}");
        }
    }
}
