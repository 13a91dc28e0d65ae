//! RIFF/WAVE audio codec, implemented from scratch.
//!
//! The field stations of the paper stream 30-second WAV clips; the
//! `wav2rec` operator "encapsulates acoustic data (WAV format in this
//! case) in pipeline records" (§3). This module provides the WAV parsing
//! and serialization that operator is built on.
//!
//! Supported formats: PCM unsigned 8-bit, PCM signed 16-bit and 32-bit,
//! and IEEE float 32-bit; any channel count and sample rate. Samples are
//! surfaced as `f64` in `[-1, 1]`.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Sample encoding of a WAV stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleFormat {
    /// Unsigned 8-bit PCM (format tag 1, 8 bits).
    Pcm8,
    /// Signed little-endian 16-bit PCM (format tag 1, 16 bits).
    Pcm16,
    /// Signed little-endian 32-bit PCM (format tag 1, 32 bits).
    Pcm32,
    /// IEEE 754 little-endian 32-bit float (format tag 3).
    Float32,
}

impl SampleFormat {
    /// Bytes per sample for this encoding.
    pub fn bytes_per_sample(self) -> usize {
        match self {
            SampleFormat::Pcm8 => 1,
            SampleFormat::Pcm16 => 2,
            SampleFormat::Pcm32 | SampleFormat::Float32 => 4,
        }
    }

    fn bits_per_sample(self) -> u16 {
        (self.bytes_per_sample() * 8) as u16
    }

    fn format_tag(self) -> u16 {
        match self {
            SampleFormat::Float32 => 3,
            _ => 1,
        }
    }
}

/// Stream parameters for a WAV file.
///
/// # Example
///
/// ```
/// use river_dsp::wav::{SampleFormat, WavSpec};
///
/// // The pipeline's production geometry: 20.16 kHz mono PCM16.
/// let spec = WavSpec::mono_pcm16(20_160);
/// assert_eq!(spec.channels, 1);
/// assert_eq!(spec.sample_format, SampleFormat::Pcm16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WavSpec {
    /// Number of interleaved channels.
    pub channels: u16,
    /// Sample rate in Hz.
    pub sample_rate: u32,
    /// Sample encoding.
    pub sample_format: SampleFormat,
}

impl WavSpec {
    /// Convenience constructor for mono 16-bit PCM.
    pub fn mono_pcm16(sample_rate: u32) -> Self {
        WavSpec {
            channels: 1,
            sample_rate,
            sample_format: SampleFormat::Pcm16,
        }
    }

    /// Bytes per frame (one sample for every channel).
    pub fn bytes_per_frame(&self) -> usize {
        self.sample_format.bytes_per_sample() * self.channels as usize
    }
}

/// Errors produced by WAV parsing or serialization.
#[derive(Debug)]
pub enum WavError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a RIFF/WAVE container or is structurally invalid.
    Malformed(String),
    /// The container is valid but uses an encoding this codec does not
    /// support.
    Unsupported(String),
}

impl fmt::Display for WavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WavError::Io(e) => write!(f, "i/o error: {e}"),
            WavError::Malformed(m) => write!(f, "malformed wav: {m}"),
            WavError::Unsupported(m) => write!(f, "unsupported wav: {m}"),
        }
    }
}

impl Error for WavError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WavError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WavError {
    fn from(e: io::Error) -> Self {
        WavError::Io(e)
    }
}

/// Decodes WAV data from any [`Read`] source.
///
/// A `&mut R` may be passed wherever `R: Read` is required.
///
/// # Example
///
/// ```
/// # use river_dsp::wav::{WavReader, WavSpec, WavWriter};
/// # fn main() -> Result<(), river_dsp::WavError> {
/// let spec = WavSpec::mono_pcm16(20_160);
/// let samples = vec![0.0, 0.25, -0.25, 1.0, -1.0];
/// let mut buf = Vec::new();
/// WavWriter::write(&mut buf, spec, &samples)?;
///
/// let decoded = WavReader::read(buf.as_slice())?;
/// assert_eq!(decoded.spec, spec);
/// assert_eq!(decoded.samples.len(), samples.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WavReader;

/// A fully decoded WAV stream: parameters plus interleaved samples in
/// `[-1, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WavData {
    /// Stream parameters.
    pub spec: WavSpec,
    /// Interleaved samples normalized to `[-1, 1]`.
    pub samples: Vec<f64>,
}

impl WavData {
    /// Mixes interleaved channels down to mono by averaging.
    pub fn to_mono(&self) -> Vec<f64> {
        let ch = self.spec.channels as usize;
        if ch <= 1 {
            return self.samples.clone();
        }
        self.samples
            .chunks(ch)
            .map(|frame| frame.iter().sum::<f64>() / frame.len() as f64)
            .collect()
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        let frames = self.samples.len() / self.spec.channels.max(1) as usize;
        frames as f64 / self.spec.sample_rate as f64
    }
}

fn read_exact_or_malformed<R: Read>(mut r: R, buf: &mut [u8], what: &str) -> Result<(), WavError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => truncated(what),
        _ => WavError::Io(e),
    })
}

fn truncated(what: &str) -> WavError {
    WavError::Malformed(format!("truncated while reading {what}"))
}

/// Consumes `n` bytes without keeping them.
fn skip<R: Read>(r: R, n: usize, what: &str) -> Result<(), WavError> {
    if io::copy(&mut r.take(n as u64), &mut io::sink())? < n as u64 {
        return Err(truncated(what));
    }
    Ok(())
}

fn u16_le(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn u32_le(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

impl WavReader {
    /// Reads and decodes an entire WAV stream. What it allocates grows
    /// with the bytes read, never with the sizes a header claims.
    ///
    /// A `&mut R` may be passed for `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`WavError::Malformed`] for structural problems,
    /// [`WavError::Unsupported`] for valid-but-unsupported encodings, and
    /// [`WavError::Io`] for I/O failures.
    pub fn read<R: Read>(mut reader: R) -> Result<WavData, WavError> {
        let mut header = [0u8; 12];
        read_exact_or_malformed(&mut reader, &mut header, "RIFF header")?;
        if &header[0..4] != b"RIFF" {
            return Err(WavError::Malformed("missing RIFF magic".into()));
        }
        if &header[8..12] != b"WAVE" {
            return Err(WavError::Malformed("missing WAVE form type".into()));
        }

        let mut spec: Option<WavSpec> = None;
        let mut data: Option<Vec<u8>> = None;

        // Walk chunks until we have both fmt and data.
        loop {
            let mut chunk_header = [0u8; 8];
            match reader.read_exact(&mut chunk_header) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(WavError::Io(e)),
            }
            let id = &chunk_header[0..4];
            let size = u32_le(&chunk_header[4..8]) as usize;
            match id {
                b"fmt " => {
                    if size < 16 {
                        return Err(WavError::Malformed("fmt chunk too small".into()));
                    }
                    // The fields every format shares; skip any extension.
                    let mut fmt = [0u8; 16];
                    read_exact_or_malformed(&mut reader, &mut fmt, "fmt chunk")?;
                    skip(&mut reader, size - 16 + size % 2, "fmt chunk")?;
                    let format_tag = u16_le(&fmt[0..2]);
                    let channels = u16_le(&fmt[2..4]);
                    let sample_rate = u32_le(&fmt[4..8]);
                    let bits = u16_le(&fmt[14..16]);
                    let sample_format = match (format_tag, bits) {
                        (1, 8) => SampleFormat::Pcm8,
                        (1, 16) => SampleFormat::Pcm16,
                        (1, 32) => SampleFormat::Pcm32,
                        (3, 32) => SampleFormat::Float32,
                        (tag, bits) => {
                            return Err(WavError::Unsupported(format!(
                                "format tag {tag} with {bits} bits"
                            )))
                        }
                    };
                    if channels == 0 {
                        return Err(WavError::Malformed("zero channels".into()));
                    }
                    if sample_rate == 0 {
                        return Err(WavError::Malformed("zero sample rate".into()));
                    }
                    spec = Some(WavSpec {
                        channels,
                        sample_rate,
                        sample_format,
                    });
                }
                b"data" => {
                    // Grows with the bytes that arrive, not the size claimed.
                    let mut bytes = Vec::new();
                    if (&mut reader).take(size as u64).read_to_end(&mut bytes)? < size {
                        return Err(truncated("data chunk"));
                    }
                    data = Some(bytes);
                    // Chunks are word-aligned; consume pad byte if present.
                    if size % 2 == 1 {
                        let mut pad = [0u8; 1];
                        let _ = reader.read_exact(&mut pad);
                    }
                }
                // Skip unknown chunk (LIST, fact, cue, ...), honoring padding.
                _ => skip(&mut reader, size + size % 2, "chunk body")?,
            }
            if spec.is_some() && data.is_some() {
                break;
            }
        }

        let spec = spec.ok_or_else(|| WavError::Malformed("missing fmt chunk".into()))?;
        let bytes = data.ok_or_else(|| WavError::Malformed("missing data chunk".into()))?;
        let frame = spec.bytes_per_frame();
        if bytes.len() % frame != 0 {
            return Err(WavError::Malformed(format!(
                "data size {} not a whole number of {frame}-byte frames",
                bytes.len()
            )));
        }
        let samples = match spec.sample_format {
            SampleFormat::Pcm8 => bytes.iter().map(|&b| (b as f64 - 128.0) / 128.0).collect(),
            SampleFormat::Pcm16 => bytes
                .chunks_exact(2)
                .map(|c| i16::from_le_bytes([c[0], c[1]]) as f64 / 32768.0)
                .collect(),
            SampleFormat::Pcm32 => bytes
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]) as f64 / 2147483648.0)
                .collect(),
            SampleFormat::Float32 => bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]) as f64)
                .collect(),
        };
        Ok(WavData { spec, samples })
    }
}

/// Encodes samples as a WAV stream to any [`Write`] sink.
#[derive(Debug)]
pub struct WavWriter;

impl WavWriter {
    /// Serializes `samples` (interleaved, `[-1, 1]`; values outside the
    /// range are clamped) as a complete WAV stream.
    ///
    /// A `&mut W` may be passed for `writer`.
    ///
    /// # Errors
    ///
    /// Returns [`WavError::Io`] if the sink fails, or
    /// [`WavError::Malformed`] if `samples` is not a whole number of
    /// frames.
    pub fn write<W: Write>(mut writer: W, spec: WavSpec, samples: &[f64]) -> Result<(), WavError> {
        if spec.channels == 0 {
            return Err(WavError::Malformed("zero channels".into()));
        }
        if !samples.len().is_multiple_of(spec.channels as usize) {
            return Err(WavError::Malformed(format!(
                "{} samples is not a whole number of {}-channel frames",
                samples.len(),
                spec.channels
            )));
        }
        let bps = spec.sample_format.bytes_per_sample();
        let data_len = samples.len() * bps;
        let byte_rate = spec.sample_rate * spec.bytes_per_frame() as u32;
        let block_align = spec.bytes_per_frame() as u16;

        writer.write_all(b"RIFF")?;
        writer.write_all(&((36 + data_len) as u32).to_le_bytes())?;
        writer.write_all(b"WAVE")?;
        writer.write_all(b"fmt ")?;
        writer.write_all(&16u32.to_le_bytes())?;
        writer.write_all(&spec.sample_format.format_tag().to_le_bytes())?;
        writer.write_all(&spec.channels.to_le_bytes())?;
        writer.write_all(&spec.sample_rate.to_le_bytes())?;
        writer.write_all(&byte_rate.to_le_bytes())?;
        writer.write_all(&block_align.to_le_bytes())?;
        writer.write_all(&spec.sample_format.bits_per_sample().to_le_bytes())?;
        writer.write_all(b"data")?;
        writer.write_all(&(data_len as u32).to_le_bytes())?;

        let mut buf = Vec::with_capacity(data_len);
        for &s in samples {
            let s = s.clamp(-1.0, 1.0);
            match spec.sample_format {
                SampleFormat::Pcm8 => {
                    buf.push(((s * 127.0).round() + 128.0) as u8);
                }
                SampleFormat::Pcm16 => {
                    let v = (s * 32767.0).round() as i16;
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                SampleFormat::Pcm32 => {
                    let v = (s * 2147483647.0).round() as i32;
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                SampleFormat::Float32 => {
                    buf.extend_from_slice(&(s as f32).to_le_bytes());
                }
            }
        }
        writer.write_all(&buf)?;
        if data_len % 2 == 1 {
            writer.write_all(&[0u8])?;
        }
        writer.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(spec: WavSpec, samples: &[f64]) -> WavData {
        let mut buf = Vec::new();
        WavWriter::write(&mut buf, spec, samples).expect("write");
        WavReader::read(buf.as_slice()).expect("read")
    }

    #[test]
    fn pcm16_round_trip_preserves_samples() {
        let spec = WavSpec::mono_pcm16(20_160);
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.05).sin() * 0.9).collect();
        let decoded = round_trip(spec, &samples);
        assert_eq!(decoded.spec, spec);
        assert_eq!(decoded.samples.len(), samples.len());
        for (a, b) in samples.iter().zip(&decoded.samples) {
            assert!((a - b).abs() < 2.0 / 32768.0, "{a} vs {b}");
        }
    }

    #[test]
    fn float32_round_trip_is_near_exact() {
        let spec = WavSpec {
            channels: 1,
            sample_rate: 44_100,
            sample_format: SampleFormat::Float32,
        };
        let samples: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).cos()).collect();
        let decoded = round_trip(spec, &samples);
        for (a, b) in samples.iter().zip(&decoded.samples) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn pcm8_round_trip_within_quantization() {
        let spec = WavSpec {
            channels: 1,
            sample_rate: 8_000,
            sample_format: SampleFormat::Pcm8,
        };
        let samples: Vec<f64> = (0..256).map(|i| (i as f64 / 128.0) - 1.0).collect();
        let decoded = round_trip(spec, &samples);
        for (a, b) in samples.iter().zip(&decoded.samples) {
            assert!((a - b).abs() < 1.0 / 60.0, "{a} vs {b}");
        }
    }

    #[test]
    fn pcm32_round_trip() {
        let spec = WavSpec {
            channels: 1,
            sample_rate: 22_050,
            sample_format: SampleFormat::Pcm32,
        };
        let samples = vec![0.0, 0.5, -0.5, 0.999, -0.999];
        let decoded = round_trip(spec, &samples);
        for (a, b) in samples.iter().zip(&decoded.samples) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn stereo_interleave_and_mono_mixdown() {
        let spec = WavSpec {
            channels: 2,
            sample_rate: 20_160,
            sample_format: SampleFormat::Pcm16,
        };
        // L = 0.5, R = -0.5 -> mono = 0.
        let samples = vec![0.5, -0.5, 0.5, -0.5];
        let decoded = round_trip(spec, &samples);
        let mono = decoded.to_mono();
        assert_eq!(mono.len(), 2);
        for m in mono {
            assert!(m.abs() < 1e-3);
        }
    }

    #[test]
    fn clamps_out_of_range_samples() {
        let spec = WavSpec::mono_pcm16(8_000);
        let decoded = round_trip(spec, &[2.0, -2.0]);
        assert!((decoded.samples[0] - 1.0).abs() < 1e-3);
        assert!((decoded.samples[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn duration_is_frames_over_rate() {
        let spec = WavSpec::mono_pcm16(20_160);
        let samples = vec![0.0; 20_160 * 2];
        let decoded = round_trip(spec, &samples);
        assert!((decoded.duration() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn skips_unknown_chunks() {
        // Hand-build a WAV with a LIST chunk between fmt and data.
        let spec = WavSpec::mono_pcm16(8_000);
        let mut reference = Vec::new();
        WavWriter::write(&mut reference, spec, &[0.25, -0.25]).unwrap();
        // Splice in "LIST" of 4 bytes after fmt chunk (ends at offset 36).
        let mut spliced = Vec::new();
        spliced.extend_from_slice(&reference[..36]);
        spliced.extend_from_slice(b"LIST");
        spliced.extend_from_slice(&4u32.to_le_bytes());
        spliced.extend_from_slice(b"INFO");
        spliced.extend_from_slice(&reference[36..]);
        // Fix RIFF size.
        let riff_size = (spliced.len() - 8) as u32;
        spliced[4..8].copy_from_slice(&riff_size.to_le_bytes());
        let decoded = WavReader::read(spliced.as_slice()).expect("read with LIST chunk");
        assert_eq!(decoded.samples.len(), 2);
    }

    #[test]
    fn rejects_non_riff() {
        let err = WavReader::read(&b"NOTRIFFDATAHERE!"[..]).unwrap_err();
        assert!(matches!(err, WavError::Malformed(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_data() {
        let spec = WavSpec::mono_pcm16(8_000);
        let mut buf = Vec::new();
        WavWriter::write(&mut buf, spec, &[0.1; 100]).unwrap();
        buf.truncate(buf.len() - 10);
        let err = WavReader::read(buf.as_slice()).unwrap_err();
        assert!(matches!(err, WavError::Malformed(_)), "{err}");
    }

    #[test]
    fn rejects_unsupported_bit_depth() {
        let spec = WavSpec::mono_pcm16(8_000);
        let mut buf = Vec::new();
        WavWriter::write(&mut buf, spec, &[0.0; 4]).unwrap();
        // Corrupt bits-per-sample (offset 34) to 24.
        buf[34] = 24;
        let err = WavReader::read(buf.as_slice()).unwrap_err();
        assert!(matches!(err, WavError::Unsupported(_)), "{err}");
    }

    #[test]
    fn rejects_partial_frame_write() {
        let spec = WavSpec {
            channels: 2,
            sample_rate: 8_000,
            sample_format: SampleFormat::Pcm16,
        };
        let err = WavWriter::write(Vec::new(), spec, &[0.0; 3]).unwrap_err();
        assert!(matches!(err, WavError::Malformed(_)), "{err}");
    }

    #[test]
    fn error_display_is_nonempty() {
        let e = WavError::Malformed("x".into());
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn paper_clip_size_matches_abstract() {
        // Paper: ~30 s clips of ~1.26 MB. At 20.16 kHz mono PCM16:
        // 30 * 20160 * 2 = 1_209_600 bytes ≈ 1.21 MB, matching the
        // paper's "approximately 1.26MB" Stargate clips.
        let bytes = 30 * 20_160 * 2;
        assert!(bytes > 900_000 && bytes < 1_400_000);
    }
}
