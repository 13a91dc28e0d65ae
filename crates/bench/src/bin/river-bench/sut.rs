//! The system under test, as the benchmark is allowed to see it.
//!
//! Every call into the repository's crates goes through this module, and
//! it uses only the public functions the ROADMAP's planned collapses
//! keep (see the README's "API surface"). A later PR that renames or
//! removes one of them has exactly one file of the benchmark to touch.

use crate::trace::Traced;
use dynamic_river::codec::{self, Decoder, SampleEncoding, WireFormat};
use dynamic_river::net::{RecordAssembler, StreamOut};
use dynamic_river::serve::{SessionInfo, SessionSink};
use ensemble_core::ops::{
    clips_record_source, Cutout, Cutter, LogScale, PaaOp, Rec2Vect, SaxAnomaly, Spectrum, TriggerOp,
};
use ensemble_core::pipeline::{extraction_segment, featurization_segment, full_pipeline};
use ensemble_core::synth::{ClipSynthesizer, SynthConfig};
use ensemble_core::{ExtractorConfig, SpeciesCode};
use river_dsp::{Complex64, RealFft, WindowKind};
use river_sax::BitmapAnomaly;
use std::io::Write;
use std::net::TcpListener;

pub use dynamic_river::serve::ServerHandle;
pub use dynamic_river::telemetry::EventSink;
#[cfg(test)]
pub use dynamic_river::Payload;
pub use dynamic_river::{
    CountingSink, Operator, Pipeline, PipelineError, PipelineServer, Record, RecordKind, Signature,
    Sink, Source, TelemetryConfig,
};

/// Scope type of an acoustic clip — the unit every workload counts,
/// paces and verifies.
pub const CLIP_SCOPE: u16 = ensemble_core::scope_type::CLIP;

/// The eight Figure 5 stages, in chain order, as their operators name
/// themselves.
pub const STAGES: [&str; 8] = [
    "saxanomaly",
    "trigger",
    "cutter",
    "spectrum",
    "cutout",
    "paa",
    "logscale",
    "rec2vect",
];

/// The paper's extraction parameters; every workload uses them.
pub fn config() -> ExtractorConfig {
    ExtractorConfig::paper()
}

/// Synthesizes the clip pool: one clip per species (as many as
/// `species` asks for, in Table 1 order) plus one ambience-only clip,
/// each `clip_seconds` long. The same seed gives the same samples.
pub fn synth_pool(seed: u64, species: usize, clip_seconds: f64) -> Vec<Vec<f64>> {
    let synth = ClipSynthesizer::new(SynthConfig {
        clip_seconds,
        ..SynthConfig::paper()
    });
    let mut pool: Vec<Vec<f64>> = SpeciesCode::ALL
        .iter()
        .take(species)
        .map(|&s| synth.clip(s, seed).samples)
        .collect();
    pool.push(synth.silence_clip(seed).samples);
    pool
}

/// `wav2rec`'s archive feed: each clip becomes one `CLIP` scope of
/// 840-sample audio records.
pub fn clip_source<C>(clips: C) -> impl Source + Send
where
    C: IntoIterator<Item = Vec<f64>>,
    C::IntoIter: Send,
{
    let cfg = config();
    clips_record_source(clips, cfg.sample_rate, cfg.record_len)
}

/// One clip as the records `wav2rec` makes of it: `OpenScope(CLIP)`, the
/// audio records, `CloseScope(CLIP)`.
pub fn clip_records(clip: &[f64]) -> Result<Vec<Record>, PipelineError> {
    let mut source = clip_source([clip.to_vec()]);
    let mut records = Vec::new();
    while let Some(record) = source.next_record()? {
        records.push(record);
    }
    Ok(records)
}

/// Which operator chain a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// `full_pipeline(cfg, true)`: all eight stages.
    Full,
    /// `extraction_segment(cfg)`: `saxanomaly` → `trigger` → `cutter`.
    Extraction,
    /// `featurization_segment(cfg, true)`: `spectrum` … `rec2vect`.
    Featurization,
}

impl Chain {
    fn stage_range(self) -> std::ops::Range<usize> {
        match self {
            Chain::Full => 0..8,
            Chain::Extraction => 0..3,
            Chain::Featurization => 3..8,
        }
    }

    /// The chain exactly as the library assembles it.
    pub fn build(self) -> Pipeline {
        let cfg = config();
        match self {
            Chain::Full => full_pipeline(cfg, true),
            Chain::Extraction => extraction_segment(cfg),
            Chain::Featurization => featurization_segment(cfg, true),
        }
    }

    /// The same chain assembled here from the public operator
    /// constructors, each stage wrapped in [`Traced`].
    ///
    /// # Panics
    ///
    /// Panics if the stage names differ from [`build`](Self::build)'s —
    /// the library's recipe changed and this copy must follow. (Equal
    /// output is checked on every traced pass by the clip digests.)
    pub fn build_traced(self, lane: u64) -> Pipeline {
        let cfg = config();
        let mut p = Pipeline::new();
        for stage in self.stage_range() {
            let name = STAGES[stage];
            match stage {
                0 => p.add(Traced::new(SaxAnomaly::new(cfg), name, lane)),
                1 => p.add(Traced::new(TriggerOp::new(cfg), name, lane)),
                2 => p.add(Traced::new(Cutter::new(cfg), name, lane)),
                3 => p.add(Traced::new(Spectrum::new(), name, lane)),
                4 => p.add(Traced::new(
                    Cutout::new(cfg.cutout_low_hz, cfg.cutout_high_hz, cfg.sample_rate),
                    name,
                    lane,
                )),
                5 => p.add(Traced::new(PaaOp::new(cfg.paa_factor), name, lane)),
                6 => p.add(Traced::new(LogScale::new(), name, lane)),
                _ => p.add(Traced::new(Rec2Vect::new(cfg.pattern_records), name, lane)),
            };
        }
        assert_eq!(
            p.names(),
            self.build().names(),
            "traced chain drifted from the library's"
        );
        p
    }
}

/// Span name of the relay chain's only operator.
pub const STREAMOUT: &str = "streamout";

/// The relay host's chain: one `StreamOut` re-encoding every record to
/// v2/F32 into `writer`.
pub fn relay_chain<W: Write + Send + 'static>(writer: W, traced_lane: Option<u64>) -> Pipeline {
    let out = StreamOut::new(writer).with_format(Wire::F32.format());
    let mut p = Pipeline::new();
    match traced_lane {
        Some(lane) => p.add(Traced::new(out, STREAMOUT, lane)),
        None => p.add(out),
    };
    p
}

/// The v2 sample encodings a sender can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    F64,
    F32,
    I16,
}

impl Wire {
    pub const ALL: [Wire; 3] = [Wire::F64, Wire::F32, Wire::I16];

    pub fn label(self) -> &'static str {
        match self {
            Wire::F64 => "f64",
            Wire::F32 => "f32",
            Wire::I16 => "i16",
        }
    }

    fn format(self) -> WireFormat {
        WireFormat::V2(match self {
            Wire::F64 => SampleEncoding::F64,
            Wire::F32 => SampleEncoding::F32,
            Wire::I16 => SampleEncoding::I16,
        })
    }
}

/// Encodes `records` as v2 frames the way a sensor does: through a
/// `StreamOut` over an in-memory writer. No end-of-stream sentinel is
/// written, so encoded clips can be sent back to back.
pub fn encode(records: &[Record], wire: Wire) -> Vec<u8> {
    let mut bytes = Vec::new();
    {
        let mut out = StreamOut::new(&mut bytes).with_format(wire.format());
        let mut passthrough = CountingSink::default();
        for record in records {
            out.on_record(record.clone(), &mut passthrough)
                .expect("writing to a Vec cannot fail");
        }
        // Dropping the operator flushes its buffered writer into `bytes`.
    }
    bytes
}

/// The clean end-of-stream sentinel a `StreamOut` sends last.
pub fn eos_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    StreamOut::new(&mut bytes)
        .on_eos(&mut CountingSink::default())
        .expect("writing to a Vec cannot fail");
    bytes
}

/// Socket-read-sized chunks, as the server feeds its decoder.
const FEED_CHUNK: usize = 8 * 1024;

/// `Decoder::feed` over `bytes` in 8 KiB chunks; returns the events
/// decoded.
pub fn decode(bytes: &[u8]) -> usize {
    let mut decoder = Decoder::new();
    let mut events = Vec::new();
    let mut decoded = 0;
    for chunk in bytes.chunks(FEED_CHUNK) {
        decoder
            .feed(chunk, &mut events)
            .expect("frames this benchmark encoded");
        decoded += events.len();
        events.clear();
    }
    decoded
}

/// `RecordAssembler::feed` + `next_ready` over `bytes` in 8 KiB chunks:
/// the records a server session would hand its chain.
pub fn assemble(bytes: &[u8]) -> Vec<Record> {
    let mut assembler = RecordAssembler::new();
    let mut records = Vec::new();
    for chunk in bytes.chunks(FEED_CHUNK) {
        assembler.feed(chunk);
        while let Some(record) = assembler
            .next_ready()
            .expect("frames this benchmark encoded")
        {
            records.push(record);
        }
    }
    assembler.finish();
    records
}

pub fn crc32(bytes: &[u8]) -> u32 {
    codec::crc32(bytes)
}

/// The kernel under `saxanomaly`: one detector pushed every sample of a
/// clip. Returns the score sum so the loop cannot be optimised away.
pub fn anomaly_push_all(samples: &[f64]) -> f64 {
    let mut detector = BitmapAnomaly::new(config().anomaly_config());
    samples.iter().map(|&x| detector.push(x)).sum()
}

/// The kernel under `spectrum`: a planned 840-point real FFT with its
/// Welch window and scratch, called once per record.
pub struct SpectrumKernel {
    fft: RealFft,
    window: Vec<f64>,
    magnitudes: Vec<f64>,
    scratch: Vec<Complex64>,
}

impl SpectrumKernel {
    pub fn new() -> Self {
        let n = config().record_len;
        let fft = RealFft::new(n);
        let scratch = vec![Complex64::ZERO; fft.scratch_len()];
        SpectrumKernel {
            fft,
            window: WindowKind::Welch.coefficients(n),
            magnitudes: vec![0.0; n],
            scratch,
        }
    }

    /// `RealFft::magnitudes_into` over one record; returns one output
    /// bin so the call cannot be optimised away.
    pub fn magnitudes(&mut self, record: &[f64]) -> f64 {
        self.fft.magnitudes_into(
            record,
            Some(&self.window),
            &mut self.magnitudes,
            &mut self.scratch,
        );
        self.magnitudes[1]
    }
}

/// Starts a `PipelineServer` on a fresh loopback port: `build(session)`
/// makes each session's chain and `make_sink(session)` its output sink.
pub fn start_server(
    build: impl FnMut(u64) -> Pipeline + Send + 'static,
    sessions: usize,
    workers: usize,
    mut make_sink: impl FnMut(u64) -> SessionSink + Send + 'static,
) -> Result<ServerHandle, PipelineError> {
    let mut server = PipelineServer::from_factory(build);
    server.set_max_sessions(sessions).set_workers(workers);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    server.start(listener, move |info: &SessionInfo| make_sink(info.id))
}
