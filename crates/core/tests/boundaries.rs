//! The boundary harness: the shipped extraction front end against the
//! front end as it stood before the divider left the chain, judged by
//! where the ensembles fall.
//!
//! The reference front end is the per-sample `saxanomaly` reference of
//! `crates/timeseries/tests/reference/mod.rs` (one copy, shared through a
//! `#[path]` module) feeding [`RefTrigger`], the Welford trigger moved
//! here verbatim. Its trigger trace goes through the shipped `cutter`,
//! so the two runs differ in the scores and the trigger only. Over
//! seeded pools of paper-scale 30 s clips (every species plus silence),
//! every ensemble must start and end on the same sample.
//!
//! The second half is the trigger differential: [`AdaptiveTrigger`]
//! (shifted sums, the test in squares) against [`RefTrigger`] over
//! seeded score streams — long quiet runs, all-zero and constant
//! streams, and the warm-up and hold edges. Decisions must be identical,
//! except after a sample whose deviation from μ₀ lies within a relative
//! [`NEAR`] of the band; there the two may part, and the comparison of
//! that stream ends.

#[path = "../../timeseries/tests/reference/mod.rs"]
mod reference;

use dynamic_river::{Payload, Pipeline, Record, RecordKind, Sink};
use ensemble_core::extract::{AdaptiveTrigger, EnsembleSink};
use ensemble_core::ops::{clip_to_records, Cutter};
use ensemble_core::prelude::*;
use ensemble_core::subtype;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use reference::{RefAnomaly, RefMovingAverage, RefSlidingStats};
use river_dsp::stats::Welford;

/// The adaptive trigger as it stood before it kept shifted sums,
/// verbatim but for its constructor's name (`new`, as the shipped
/// trigger's one constructor): Welford's update for μ₀/σ₀ over every
/// quiet sample, and the band test on |x − μ₀| with a square root and
/// a division a sample.
#[derive(Debug, Clone)]
pub struct RefTrigger {
    sigmas: f64,
    quiet: Welford,
    state: bool,
    warmup: u64,
    seen: u64,
    hold: u64,
    calm: u64,
}

impl RefTrigger {
    pub fn new(sigmas: f64, warmup: u64, hold: u64) -> Self {
        RefTrigger {
            sigmas,
            quiet: Welford::new(),
            state: false,
            warmup,
            seen: 0,
            hold,
            calm: 0,
        }
    }

    pub fn mu0(&self) -> f64 {
        self.quiet.mean()
    }

    pub fn band(&self) -> f64 {
        let sigma = self
            .quiet
            .population_std_dev()
            // σ floor: on extremely flat noise the 5σ band collapses to
            // nothing and quantization dust would fire the trigger.
            .max(0.02 * self.quiet.mean());
        self.sigmas * sigma
    }

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

// --- the boundary harness ----------------------------------------------

/// The trigger trace of the reference front end over a clip's whole
/// records.
fn reference_triggers(samples: &[f64], cfg: &ExtractorConfig) -> Vec<f64> {
    let mut detector = RefAnomaly::new(cfg.anomaly_config());
    let mut smoother = RefMovingAverage {
        stats: RefSlidingStats::new(cfg.ma_window),
    };
    let warmup = (2 * cfg.anomaly_window + cfg.ma_window) as u64;
    let mut trigger = RefTrigger::new(cfg.trigger_sigmas, warmup, cfg.trigger_hold as u64);
    let whole = samples.len() / cfg.record_len * cfg.record_len;
    let mut high = |x: f64| trigger.push(smoother.push(detector.push(x)));
    let trace = samples[..whole].iter().map(|&x| high(x));
    trace.map(|h| if h { 1.0 } else { 0.0 }).collect()
}

/// `(start, end)` of every ensemble the shipped `cutter` cuts from the
/// reference front end's trigger trace: each audio record is followed by
/// its trigger record, as `trigger` emits them.
fn reference_boundaries(samples: &[f64], cfg: &ExtractorConfig) -> Vec<(usize, usize)> {
    let triggers = reference_triggers(samples, cfg);
    let mut stream = Vec::new();
    let mut at = 0;
    for record in clip_to_records(samples, cfg.sample_rate, cfg.record_len, &[]) {
        let audio = record.kind == RecordKind::Data && record.subtype == subtype::AUDIO;
        let len = record.payload.as_f64().map_or(0, <[f64]>::len);
        let (seq, depth) = (record.seq, record.scope_depth);
        stream.push(record);
        if audio {
            let values = triggers[at..at + len].to_vec();
            let trigger = Record::data(subtype::TRIGGER, Payload::f64(values));
            stream.push(trigger.with_seq(seq).with_depth(depth));
            at += len;
        }
    }
    let mut cutter = Pipeline::new();
    cutter.add(Cutter::new(*cfg));
    let mut found = Vec::new();
    let mut readout = EnsembleSink::new(|e: Ensemble| found.push((e.start, e.end)));
    for record in cutter.run(stream).expect("well-formed") {
        readout.push(record).expect("cutter output is well-formed");
    }
    found
}

fn shipped_boundaries(samples: &[f64], cfg: &ExtractorConfig) -> Vec<(usize, usize)> {
    let ensembles = EnsembleExtractor::new(*cfg).extract(samples);
    ensembles.iter().map(|e| (e.start, e.end)).collect()
}

/// 8 seeds of 11 clips in release; 1 in a debug build, where the
/// per-sample reference costs ~50× as much.
fn pool_seeds() -> std::ops::Range<u64> {
    if cfg!(debug_assertions) {
        0..1
    } else {
        0..8
    }
}

#[test]
fn no_ensemble_boundary_moves_over_the_seeded_pools() {
    let cfg = ExtractorConfig::paper();
    let synth = ClipSynthesizer::new(SynthConfig::paper());
    let (mut clips, mut ensembles) = (0, 0);
    for seed in pool_seeds() {
        let species = SpeciesCode::ALL
            .iter()
            .map(|&s| (format!("{s:?}"), synth.clip(s, seed)));
        let silence = std::iter::once(("silence".to_string(), synth.silence_clip(seed)));
        for (name, clip) in species.chain(silence) {
            let want = reference_boundaries(&clip.samples, &cfg);
            let got = shipped_boundaries(&clip.samples, &cfg);
            assert_eq!(
                got, want,
                "{name} seed {seed}: shipped vs reference boundaries"
            );
            clips += 1;
            ensembles += got.len();
        }
    }
    println!("{clips} clips, {ensembles} ensembles, 0 moved boundaries");
    assert!(ensembles > clips, "the pools must exercise the trigger");
}

// --- the trigger differential ------------------------------------------

/// Relative distance from the band within which the two triggers may
/// decide differently: 2⁻²⁶ ≈ 1.5·10⁻⁸. μ₀ and σ₀ are running estimates
/// in both; each quiet sample rounds each of them a few times, so over
/// the 10⁶ samples of a stream here they part by about 10⁶·u ≈ 10⁻¹⁰
/// relatively at worst (measured: at most 1.4·10⁻¹¹ over every stream
/// below, whose closest sample to the band was 7·10⁻⁷ away).
const NEAR: f64 = 1.0 / (1u64 << 26) as f64;

/// Runs both triggers over `scores`. Their decisions must agree, and
/// μ₀ and the band to within [`NEAR`], until they part; they may part
/// only after a sample whose deviation lay within [`NEAR`] of the band
/// since both were last low. (While high, such a sample can reset one
/// trigger's hold count and not the other's, and the outputs then part
/// up to `hold` samples later.) Returns how many samples agreed.
fn compare(what: &str, scores: &[f64], sigmas: f64, warmup: u64, hold: u64) -> usize {
    let mut want = RefTrigger::new(sigmas, warmup, hold);
    let mut got = AdaptiveTrigger::new(sigmas, warmup, hold);
    let close = |a: f64, b: f64| (a - b).abs() <= NEAR * a.abs().max(b.abs());
    let mut near = false;
    for (i, &score) in scores.iter().enumerate() {
        let (deviation, band) = ((score - want.mu0()).abs(), want.band());
        near |= close(deviation, band);
        let (w, g) = (want.push(score), got.push(score));
        if w != g {
            assert!(
                near,
                "{what}: sample {i}: Welford {w}, shifted sums {g}, and no sample \
                 since both were last low lay within NEAR of the band"
            );
            return i;
        }
        assert!(
            close(got.mu0(), want.mu0()) && close(got.band(), want.band()),
            "{what}: sample {i}: μ₀ {:e} / band {:e} against Welford's {:e} / {:e}",
            got.mu0(),
            got.band(),
            want.mu0(),
            want.band()
        );
        if !w {
            // Both low: no hold count in flight, nothing hidden differs.
            near = false;
        }
    }
    scores.len()
}

/// A smoothed-score-like stream: a quiet level with slow hiss, and
/// `events` bouts (above the level or below it) of random length.
fn quiet_run(rng: &mut StdRng, len: usize, events: usize) -> Vec<f64> {
    let level = rng.random_range(0.05..0.6);
    let hiss = level * rng.random_range(0.001..0.05);
    let mut wander = 0.0;
    let mut scores: Vec<f64> = (0..len)
        .map(|_| {
            wander = 0.999 * wander + hiss * (rng.next_f64() - 0.5) * 0.2;
            level + wander
        })
        .collect();
    for _ in 0..events {
        let (start, run) = (rng.random_range(0..len), rng.random_range(100..20_000));
        let lift = level * rng.random_range(-0.5..2.0);
        for s in scores.iter_mut().skip(start).take(run) {
            *s += lift;
        }
    }
    scores
}

/// The paper's trigger: 3σ, warm-up 2·100 + 2,250, hold 4,200.
const PAPER: (f64, u64, u64) = (3.0, 2_450, 4_200);

#[test]
fn trigger_matches_welford_over_long_quiet_runs() {
    let (sigmas, warmup, hold) = PAPER;
    let streams = if cfg!(debug_assertions) { 2 } else { 8 };
    seeds::check(0..streams, |rng| {
        let quiet = quiet_run(rng, 600_000, 0);
        assert_eq!(compare("quiet", &quiet, sigmas, warmup, hold), quiet.len());
        let eventful = quiet_run(rng, 1_000_000, 40);
        let agreed = compare("eventful", &eventful, sigmas, warmup, hold);
        println!("eventful: {agreed} of {} samples agree", eventful.len());
    });
}

#[test]
fn trigger_matches_welford_on_zero_and_constant_streams() {
    for level in [0.0, 0.25, 1e-3, 0.1] {
        for (warmup, hold) in [(0, 0), (1, 0), (2_450, 4_200)] {
            let what = format!("constant {level}, warm-up {warmup}, hold {hold}");
            let mut scores = vec![level; 700_000];
            assert_eq!(compare(&what, &scores, 3.0, warmup, hold), scores.len());
            // A step off the constant fires both, and a return releases
            // both after the hold.
            for s in &mut scores[300_000..300_010] {
                *s = level + 0.5;
            }
            assert_eq!(compare(&what, &scores, 3.0, warmup, hold), scores.len());
        }
    }
}

#[test]
fn trigger_matches_welford_at_the_warmup_and_hold_edges() {
    let mut rng = StdRng::seed_from_u64(7);
    for warmup in [0, 1, 2, 3, 10, 100] {
        for hold in [0, 1, 2, 7, 50] {
            for trial in 0..20 {
                // Short alternations of quiet and loud, some of them just
                // `hold` samples long, so the trigger falls and re-fires
                // on the edge.
                let level = rng.random_range(0.05..0.5);
                let mut scores = Vec::new();
                while scores.len() < 2_000 {
                    let loud = rng.random_bool(0.3);
                    let run = match rng.random_range(0..3) {
                        0 => hold as usize,
                        1 => hold as usize + 1,
                        _ => rng.random_range(1..200),
                    };
                    let base = if loud { level * 3.0 } else { level };
                    for _ in 0..run.max(1) {
                        scores.push(base + level * 0.01 * (rng.next_f64() - 0.5));
                    }
                }
                let what = format!("warm-up {warmup}, hold {hold}, trial {trial}");
                compare(&what, &scores, 3.0, warmup, hold);
            }
        }
    }
}
