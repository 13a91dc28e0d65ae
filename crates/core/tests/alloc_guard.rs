//! Steady-state allocation guard for the spectral hot path.
//!
//! The fused `spectrum` operator and the SAX anomaly detector carry the
//! per-record cost of the Figure 5 pipeline, and both were built to run
//! allocation-free once warm: `RealFft::magnitudes_into` writes into
//! caller-provided output and scratch buffers, and `BitmapAnomaly`
//! sizes its tiles, histories and count matrix in `new` (DESIGN.md
//! §14). This test pins that property with a counting
//! `#[global_allocator]`: after a warm-up pass, a sustained run of both
//! kernels — the detector through one-sample `push` calls and through
//! `score_block` — must perform **zero** heap allocations; `saxanomaly`
//! exactly one per record, the score payload, which `trigger` then
//! overwrites with its decisions without allocating; and `spectrum`
//! exactly one per record, the payload it emits (built in its shared
//! allocation, not in a `Vec` that is then copied).
//!
//! The telemetry layer rides in the same measured window (ISSUE 9
//! satellite 4): [`HistogramSnapshot::record`] is plain adds into a
//! fixed array, and [`EventLog`] pushes are alloc-free once the
//! preallocated ring has reached capacity — so a pipeline running with
//! telemetry enabled keeps the steady-state zero-allocation property.
//!
//! The counter wraps the system allocator, so the whole test binary
//! shares it; the assertion brackets only the measured section, and the
//! file holds a single `#[test]` so no concurrent test can allocate in
//! the measured window.

use dynamic_river::operator::NullSink;
use dynamic_river::telemetry::{EventKind, EventLog, HistogramSnapshot};
use dynamic_river::{Operator, Payload, PipelineError, Record, Sink};
use ensemble_core::ops::{SaxAnomaly, Spectrum, TriggerOp};
use ensemble_core::{subtype, ExtractorConfig};
use river_dsp::complex::Complex64;
use river_dsp::fft::RealFft;
use river_dsp::window::WindowKind;
use river_sax::{AnomalyConfig, BitmapAnomaly};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter increment has no other effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Feeds `saxanomaly`'s score records to `trigger`, as the chain does.
struct IntoTrigger(TriggerOp);

impl Sink for IntoTrigger {
    fn push(&mut self, record: Record) -> Result<(), PipelineError> {
        if record.subtype == subtype::SCORE {
            self.0.on_record(record, &mut NullSink)
        } else {
            Ok(())
        }
    }
}

#[test]
fn warm_spectral_kernels_do_not_allocate() {
    // Figure 5 geometry: 840-sample records at 20 160 Hz.
    let n = 840;
    let plan = RealFft::new(n);
    let window = WindowKind::Welch.coefficients(n);
    let samples: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut mags = vec![0.0; n];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    let mut detector = BitmapAnomaly::new(AnomalyConfig::default());
    let mut latency = HistogramSnapshot::default();
    let events = EventLog::new(64);

    // Warm-up: let the detector fill its windows and both kernels
    // touch every buffer they will ever need; the event ring is pushed
    // past capacity so steady-state pushes only evict, never grow.
    let mut acc = 0.0;
    for round in 0..4 {
        plan.magnitudes_into(&samples, Some(&window), &mut mags, &mut scratch);
        for &m in &mags {
            acc += detector.push(m + f64::from(round));
        }
    }
    for i in 0..96 {
        events.push(EventKind::ScopeOpen, 0, i);
    }

    // Steady state: many records' worth of work — with telemetry
    // recording alongside — and zero allocations.
    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 0..32u32 {
        plan.magnitudes_into(&samples, Some(&window), &mut mags, &mut scratch);
        for &m in &mags {
            acc += detector.push(m * (1.0 + f64::from(round) * 1e-3));
        }
        latency.record(u64::from(round) * 100 + 1);
        events.push(EventKind::TriggerFire, 0, u64::from(round));
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    // The block kernel, over 840-sample records and over blocks that
    // are no multiple of its tile: tiles and history were sized in
    // `new`, so the block length costs nothing.
    let long: Vec<f64> = samples.iter().chain(&samples).copied().collect();
    let mut scores = vec![0.0; long.len()];
    let before_block = ALLOCS.load(Ordering::Relaxed);
    for round in 0..32 {
        detector.score_block(&mags, &mut scores[..n]);
        acc += scores[round];
    }
    detector.score_block(&long[..1_025], &mut scores[..1_025]);
    detector.score_block(&long, &mut scores);
    acc += scores[1_679];
    let after_block = ALLOCS.load(Ordering::Relaxed);

    // The operators around it: one allocation per audio record — the
    // score payload, allocated zeroed, scored and smoothed in place, then
    // handed to `trigger` unshared, which writes its decisions into the
    // same buffer and re-tags the record.
    let mut op = SaxAnomaly::new(ExtractorConfig::paper());
    let mut into_trigger = IntoTrigger(TriggerOp::new(ExtractorConfig::paper()));
    let audio = Record::data(subtype::AUDIO, Payload::f64(samples.clone())).with_seq(7);
    for _ in 0..4 {
        op.on_record(audio.clone(), &mut into_trigger).unwrap();
    }
    let before_op = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..32 {
        op.on_record(audio.clone(), &mut into_trigger).unwrap();
    }
    let after_op = ALLOCS.load(Ordering::Relaxed);

    // `spectrum` builds its payload in place: one allocation per record,
    // not a `Vec` copied into a second one.
    let mut sink = NullSink;
    let mut spectrum = Spectrum::new();
    (0..4).for_each(|_| spectrum.on_record(audio.clone(), &mut sink).unwrap());
    let before_payloads = ALLOCS.load(Ordering::Relaxed);
    (0..32).for_each(|_| spectrum.on_record(audio.clone(), &mut sink).unwrap());
    let after_payloads = ALLOCS.load(Ordering::Relaxed);

    assert!(acc.is_finite(), "kernels produced non-finite output");
    assert_eq!(
        after_block - before_block,
        0,
        "score_block allocated (840-, 1,025- and 1,680-sample blocks)"
    );
    assert_eq!(
        after_op - before_op,
        32,
        "saxanomaly then trigger: exactly the score payload per audio record"
    );
    assert_eq!(
        after_payloads - before_payloads,
        32,
        "spectrum: exactly one payload allocation per record"
    );
    assert_eq!(latency.count, 32);
    assert_eq!(events.len(), 64, "ring should sit exactly at capacity");
    assert_eq!(
        after - before,
        0,
        "spectral hot path allocated in steady state"
    );
}
