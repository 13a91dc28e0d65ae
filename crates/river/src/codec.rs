//! Binary wire codec for records.
//!
//! Records travel as self-delimiting, CRC-32 protected frames so
//! `streamin` can detect truncation and corruption (and respond by
//! resynchronizing scope state rather than propagating garbage). There
//! is one frame format — a varint header, a TLV (type-length-value)
//! body and a checksum:
//!
//! ```text
//! offset  size     field
//! 0       1        magic 0xB2
//! 1       1        record kind tag
//! 2       varint   subtype
//! ·       varint   scope depth
//! ·       varint   scope type
//! ·       varint   sequence number
//! ·       varint   body length (bytes)
//! ·       n        TLV body blocks
//! ·+n     4        CRC-32 (IEEE, LE) over bytes [0, ·+n)
//! ```
//!
//! Each body block is `varint type · varint length · value`. Unknown
//! block types are **skipped, not fatal** — a reader stays compatible
//! with future extensions. At most one *payload* block (types 1–9) may
//! appear; a body with none decodes as [`Payload::Empty`]. The sender's
//! [`WireFormat`] picks how sample payloads are encoded
//! ([`SampleEncoding`]: lossless `f64`, or compact `f32` / `i16`); the
//! receiver reads the block type, so there is nothing to negotiate.
//!
//! Two 4-byte sentinels travel between frames: `"RVEO"` marks *clean*
//! stream termination (its absence at EOF tells the reader the upstream
//! died unexpectedly) and `"RVKA"` is a keepalive.
//!
//! This format is wire version 2. Version 1 (fixed 28-byte header,
//! magic `"RVDR"`) was retired before anything was archived in it: a
//! stream that opens a frame with `"RVDR"` is refused with a
//! [`PipelineError::Codec`] naming the version, and the session layer
//! repairs it like any other poisoned wire.
//!
//! # Data path
//!
//! [`encode_into`] is the one encoder: it appends a complete frame to a
//! caller-owned buffer ([`crate::net::StreamOut`] reuses one buffer for
//! every record). [`Decoder`] is the one reader, and
//! [`Decoder::read_from`] lets a socket read land directly in its
//! buffer. [`crc32`] — checked on every frame — has two paths with one
//! value: carry-less-multiply folding, 64 bytes per step, where the CPU
//! has it (x86-64 with `pclmulqdq`) and the input is at least 64 bytes,
//! and slice-by-16 tables built at compile time for everything else.
//! The CPU picks; there is nothing to configure. `DESIGN.md` §13 has the
//! reasoning and the measurements.
//!
//! The decoder is push-based and incremental — feed it byte chunks of
//! any size and frame boundaries are its problem, not the reader's:
//!
//! ```
//! use dynamic_river::codec::{encode_into, write_eos, Decoder, WireFormat};
//! use dynamic_river::prelude::*;
//!
//! let rec = Record::data(7, Payload::f64(vec![0.5, -0.5])).with_seq(1);
//! let mut wire = Vec::new();
//! encode_into(&rec, WireFormat::default(), &mut wire);
//! write_eos(&mut wire).unwrap();
//!
//! // Worst-case fragmentation: one byte per feed.
//! let mut decoder = Decoder::new();
//! let mut events = Vec::new();
//! for byte in &wire {
//!     decoder.feed(std::slice::from_ref(byte), &mut events).unwrap();
//! }
//! assert_eq!(events, vec![DecodeEvent::Record(rec), DecodeEvent::CleanEnd]);
//! assert!(decoder.is_done());
//! ```

// Library code in this module must surface failures as errors, never
// panics; unwraps are confined to the test module below.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::buf::SampleBuf;
use crate::error::PipelineError;
use crate::record::{Payload, Record, RecordKind};
use std::io::{self, Read, Write};

/// Clean end-of-stream sentinel.
pub const EOS_MAGIC: [u8; 4] = *b"RVEO";
/// Keepalive sentinel: a 4-byte no-op frame a quiet sensor emits so an
/// idle-timeout-enforcing server ([`crate::serve::PipelineServer`])
/// knows the connection is dormant, not dead. Decoders consume it
/// without producing a record; it is legal anywhere between frames.
pub const KEEPALIVE_MAGIC: [u8; 4] = *b"RVKA";
/// Frame magic (first byte of every frame). Distinct from `b'R'`, which
/// opens the sentinels.
pub const V2_MAGIC: u8 = 0xB2;
/// Magic of the retired v1 frame, recognized only to be refused by name.
const V1_MAGIC: [u8; 4] = *b"RVDR";
/// Maximum accepted payload length (64 MiB) — guards against corrupted
/// length fields allocating unbounded memory.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// How frames encode `F64`/`Complex` sample payloads on the wire.
///
/// Chosen per stream by the sender; the receiver reads the block type,
/// so mixed encodings on one stream also decode fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleEncoding {
    /// Lossless 8-byte samples (bit-identical round trip).
    #[default]
    F64,
    /// 4-byte samples: ~half the payload at `f32` precision.
    F32,
    /// 2-byte quantized samples with a per-record `f64` scale factor;
    /// absolute error is bounded by `scale / 2 = max|x| / 65534`.
    /// Records whose samples cannot be represented (non-finite values,
    /// or a scale that underflows to zero) fall back to lossless f64
    /// blocks automatically.
    I16,
}

/// The frame format a sender emits. The default is lossless:
/// `V2(SampleEncoding::F64)` round-trips every record bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Varint/TLV v2 frames with the given sample encoding.
    V2(SampleEncoding),
}

impl Default for WireFormat {
    fn default() -> Self {
        WireFormat::V2(SampleEncoding::default())
    }
}

/// Input bytes folded into the CRC register per table step. Slice-by-8
/// is the textbook width; 16 measured 24-28 % faster on the benchmark's
/// own probe (DESIGN.md §13), at 16 KiB of tables. Also the granule of
/// the carry-less-multiply path: [`clmul::fold`] consumes whole 16-byte
/// blocks and leaves a shorter tail to the tables.
const CRC_STEP: usize = 16;

/// Slice-by-N lookup tables for the reflected IEEE polynomial, built at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// which is what lets [`CRC_STEP`] input bytes fold into the register
/// with that many independent lookups. The tables are the portable path
/// of [`crc32`] — all of it where [`clmul::fold`] declines, the tail
/// where it does not — and the oracle the folding kernel is tested
/// against.
static CRC_TABLES: [[u32; 256]; CRC_STEP] = {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [[0u32; 256]; CRC_STEP];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_STEP {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Computes the IEEE CRC-32 of `data`. On an x86-64 CPU with carry-less
/// multiply, inputs of 64 bytes and more are folded 64 bytes per step
/// and the tables finish the tail of under 16 bytes; everywhere else the
/// tables do every byte. The CPU picks; the value is the same on both
/// paths for every input.
pub fn crc32(data: &[u8]) -> u32 {
    let (crc, tail) = clmul::fold(0xFFFF_FFFF, data).unwrap_or((0xFFFF_FFFF, data));
    !crc32_tables(crc, tail)
}

/// Advances the raw (uninverted) CRC register `crc` over `data`: 16
/// bytes per table step (read as bytes, so no alignment is assumed),
/// byte-at-a-time over the tail.
fn crc32_tables(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut steps = data.chunks_exact(CRC_STEP);
    for step in &mut steps {
        let mut block = [0u8; CRC_STEP];
        block.copy_from_slice(step);
        // The register only meets the first four bytes; byte `i` of the
        // block is then followed by `CRC_STEP - 1 - i` bytes of the step.
        for (b, c) in block.iter_mut().zip(crc.to_le_bytes()) {
            *b ^= c;
        }
        crc = block
            .iter()
            .zip(t.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
    }
    for &b in steps.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 by carry-less-multiply folding (Gopal et al., *Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ*, bit-reflected
/// form). The message is a polynomial over GF(2); a 128-bit lane `x`
/// that sits `d` bits ahead of the data it is folded into contributes
/// `x · x^d mod P`, and multiplying its two halves by the precomputed
/// `x^(d+32) mod P` and `x^(d-32) mod P` does that without reducing.
/// Four lanes fold 64 bytes per iteration, fold into one, fold the
/// remaining 16-byte blocks one at a time, and a Barrett step reduces
/// the last 128 bits to the 32-bit register.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::CRC_STEP;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Each `K*` is `bitreflect32(x^n mod P) << 1` for the reflected IEEE
    // polynomial P = 0x1_04C1_1DB7; `codec::tests` derives all seven
    // constants from P.
    /// n = 544: the low half of a lane, 64 bytes ahead.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    /// n = 480: the high half of a lane, 64 bytes ahead.
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// n = 160: the low half of a lane, 16 bytes ahead.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    /// n = 96: the high half, 16 bytes ahead; also 128 → 96 bits.
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// n = 64: 96 → 64 bits.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// P itself, 33 bits reflected.
    pub(super) const P_REFLECTED: i64 = 0x1_db71_0641;
    /// µ = ⌊x⁶⁴ / P⌋, 33 bits reflected (the Barrett quotient).
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Input consumed per iteration of the four-lane loop, and the
    /// shortest input worth folding.
    const QUAD: usize = 4 * CRC_STEP;

    /// Advances the raw CRC register `crc` over every whole 16-byte
    /// block of `data` and returns it with the tail (under 16 bytes) it
    /// did not consume, or `None` — nothing consumed — when `data` is
    /// under 64 bytes or the CPU lacks `pclmulqdq` or `sse4.1`.
    #[allow(unsafe_code)]
    pub(super) fn fold(crc: u32, data: &[u8]) -> Option<(u32, &[u8])> {
        let (first, rest) = data.split_first_chunk::<QUAD>()?;
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `kernel` is a safe function whose only requirement is
        // that the CPU executes `pclmulqdq`, `sse4.1` and `sse2`
        // instructions. The first two were detected on this CPU on the
        // lines above; `sse2` is part of the x86-64 baseline this module
        // is compiled for.
        Some(unsafe { kernel(crc, first, rest) })
    }

    #[target_feature(enable = "pclmulqdq,sse4.1,sse2")]
    fn kernel<'a>(crc: u32, first: &[u8; QUAD], rest: &'a [u8]) -> (u32, &'a [u8]) {
        let [mut x0, mut x1, mut x2, mut x3] = load_quad(first);
        // The register meets the first four bytes of the message.
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(crc as i32));

        let (quads, rest) = rest.as_chunks::<QUAD>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            let [y0, y1, y2, y3] = load_quad(quad);
            x0 = fold_into(x0, y0, k1k2);
            x1 = fold_into(x1, y1, k1k2);
            x2 = fold_into(x2, y2, k1k2);
            x3 = fold_into(x3, y3, k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, x1, k3k4);
        x = fold_into(x, x2, k3k4);
        x = fold_into(x, x3, k3k4);
        let (blocks, tail) = rest.as_chunks::<CRC_STEP>();
        for block in blocks {
            x = fold_into(x, load(block), k3k4);
        }

        // 128 → 96 → 64 bits: the low half times x^96, then the low 32
        // bits of what is left times x^64.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett, 64 → 32 bits: T1 = (x mod x^32) · µ, T2 = (T1 mod
        // x^32) · P, and the register is the high word of x + T2.
        let p_mu = _mm_set_epi64x(MU, P_REFLECTED);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        (crc, tail)
    }

    /// `x` moved ahead by the distance `keys` encodes, added to `next`:
    /// the low half of `x` times the low key, the high half times the
    /// high key.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold_into(x: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(x, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// An unaligned 16-byte load, first byte in the lowest lane byte.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; CRC_STEP]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load_quad(quad: &[u8; QUAD]) -> [__m128i; 4] {
        let (lanes, _) = quad.as_chunks::<CRC_STEP>();
        [
            load(&lanes[0]),
            load(&lanes[1]),
            load(&lanes[2]),
            load(&lanes[3]),
        ]
    }
}

/// No carry-less-multiply kernel for this architecture: the tables do
/// every byte.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn fold(_crc: u32, _data: &[u8]) -> Option<(u32, &[u8])> {
        None
    }
}

/// Appends a LEB128 unsigned varint (7 bits per byte, low bits first,
/// high bit = continuation).
fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_uvarint`] spends on `v`.
fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Byte-slice reader for varint/TLV parsing. All `take_*` methods return
/// `None` (not an error) when the slice runs out, so the same parser
/// serves both "is this frame complete yet?" scanning and full decoding.
struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    fn new(buf: &'a [u8]) -> ByteCursor<'a> {
        ByteCursor { buf, pos: 0 }
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take_u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn take_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Reads one LEB128 varint. `Ok(None)` means the slice ended
    /// mid-varint (more bytes needed); malformed varints (more than 10
    /// bytes, or overflowing u64) are codec errors.
    fn take_uvarint(&mut self) -> Result<Option<u64>, PipelineError> {
        let mut val = 0u64;
        let mut shift = 0u32;
        let mut used = 0usize;
        loop {
            let Some(&b) = self.buf.get(self.pos + used) else {
                return Ok(None);
            };
            let low = u64::from(b & 0x7F);
            if shift == 63 && low > 1 {
                return Err(PipelineError::Codec("varint overflows u64".into()));
            }
            val |= low << shift;
            used += 1;
            if b & 0x80 == 0 {
                self.pos += used;
                return Ok(Some(val));
            }
            shift += 7;
            if shift > 63 {
                return Err(PipelineError::Codec("varint longer than 10 bytes".into()));
            }
        }
    }
}

/// Appends `samples` as fixed-width little-endian values: one resize,
/// then a bulk conversion over `chunks_exact_mut` the compiler can
/// vectorize (no per-sample capacity check).
fn put_samples<const N: usize>(dst: &mut Vec<u8>, samples: &[f64], to_le: impl Fn(f64) -> [u8; N]) {
    let at = dst.len();
    dst.resize(at + samples.len() * N, 0);
    for (slot, &x) in dst[at..].chunks_exact_mut(N).zip(samples) {
        slot.copy_from_slice(&to_le(x));
    }
}

/// `x / scale` rounded half away from zero and clamped to ±32767 (0 for
/// a zero scale or a NaN quotient) — `(x / scale).round()` then the
/// clamp, bit for bit, without `round`, which below SSE4.1 is a libm
/// call per sample that also keeps the loop from vectorizing. Clamping
/// first is the same (rounding is monotonic and the bounds are
/// integers); then the `as` cast's truncation rounds once the largest
/// double below one half has been added away from zero. Not `0.5`: that
/// would carry `0.5 - ulp` up to 1, where this sum stays below it, and
/// an exact `n + 0.5` still reaches `n + 1` because the sum's nearest
/// double is.
#[inline]
fn quantize_i16(x: f64, scale: f64) -> i16 {
    if scale == 0.0 {
        return 0;
    }
    let q = (x / scale).clamp(-32767.0, 32767.0);
    (q + (0.5 - f64::EPSILON / 4.0).copysign(q)) as i16
}

/// Up-front reservation cap for a decoded pairs list: a
/// `(String, String)` slot is 48 bytes against as little as 2 wire bytes
/// per pair, so a long list grows as it fills instead.
const PAIRS_RESERVE_CAP: usize = 1024;

/// Decodes a pairs payload: a count, then per pair a length-prefixed key
/// and value, each of those integers a varint. The count comes off the
/// wire and sizes an allocation, so it is held to the pairs the
/// remaining bytes can hold.
fn decode_pairs(bytes: &[u8]) -> Result<Payload, PipelineError> {
    let truncated = || PipelineError::Codec("truncated pairs payload".into());
    let mut cur = ByteCursor::new(bytes);
    let take_len = |cur: &mut ByteCursor<'_>| -> Result<usize, PipelineError> {
        usize::try_from(cur.take_uvarint()?.ok_or_else(truncated)?).map_err(|_| truncated())
    };
    let take_str = |cur: &mut ByteCursor<'_>| -> Result<String, PipelineError> {
        let len = take_len(cur)?;
        let s = cur.take_bytes(len).ok_or_else(truncated)?;
        String::from_utf8(s.to_vec())
            .map_err(|e| PipelineError::Codec(format!("invalid utf-8 in pairs: {e}")))
    };
    let count = take_len(&mut cur)?;
    // A pair is at least its two one-byte length varints.
    if count > (bytes.len() - cur.pos()) / 2 {
        return Err(PipelineError::Codec("pairs count exceeds payload".into()));
    }
    let mut pairs = Vec::with_capacity(count.min(PAIRS_RESERVE_CAP));
    for _ in 0..count {
        let k = take_str(&mut cur)?;
        let v = take_str(&mut cur)?;
        pairs.push((k, v));
    }
    if !cur.is_empty() {
        return Err(PipelineError::Codec(
            "trailing bytes after pairs payload".into(),
        ));
    }
    Ok(Payload::Pairs(pairs))
}

// TLV payload block types. 1–9 are payload blocks (at most one per
// frame); all other types are reserved for future extensions and are
// skipped by decoders (`decode_block` is the one place that knows which
// is which).
const TLV_F64_AS_F64: u64 = 1;
const TLV_F64_AS_F32: u64 = 2;
const TLV_F64_AS_I16: u64 = 3;
const TLV_COMPLEX_AS_F64: u64 = 4;
const TLV_COMPLEX_AS_F32: u64 = 5;
const TLV_COMPLEX_AS_I16: u64 = 6;
const TLV_BYTES: u64 = 7;
const TLV_TEXT: u64 = 8;
const TLV_PAIRS: u64 = 9;

/// The value of a payload block, settled before the frame header is
/// written because the header declares the body length.
enum BlockValue<'a> {
    /// Bytes that already exist contiguously.
    Raw(&'a [u8]),
    /// Samples in the encoding they will actually get (an i16 request
    /// may have fallen back to f64), with the i16 scale factor.
    Samples(&'a [f64], SampleEncoding, f64),
}

impl<'a> BlockValue<'a> {
    /// A sample block and its type from the payload kind's
    /// `[f64, f32, i16]` block types. The i16 request falls back to f64
    /// when quantization cannot bound the error: non-finite samples, or
    /// a maximum magnitude so small that `max / 32767` underflows to 0.
    fn samples(v: &'a [f64], enc: SampleEncoding, types: [u64; 3]) -> (u64, BlockValue<'a>) {
        let mut scale = 0.0;
        if enc == SampleEncoding::I16 {
            let max = v.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            scale = max / f64::from(i16::MAX);
            if !(v.iter().all(|x| x.is_finite()) && (max == 0.0 || scale > 0.0)) {
                return (types[0], BlockValue::Samples(v, SampleEncoding::F64, 0.0));
            }
        }
        let ty = match enc {
            SampleEncoding::F64 => types[0],
            SampleEncoding::F32 => types[1],
            SampleEncoding::I16 => types[2],
        };
        (ty, BlockValue::Samples(v, enc, scale))
    }

    fn len(&self) -> usize {
        match *self {
            BlockValue::Raw(bytes) => bytes.len(),
            BlockValue::Samples(v, SampleEncoding::F64, _) => v.len() * 8,
            BlockValue::Samples(v, SampleEncoding::F32, _) => v.len() * 4,
            BlockValue::Samples(v, SampleEncoding::I16, _) => 8 + v.len() * 2,
        }
    }

    fn put(&self, dst: &mut Vec<u8>) {
        match *self {
            BlockValue::Raw(bytes) => dst.extend_from_slice(bytes),
            BlockValue::Samples(v, SampleEncoding::F64, _) => {
                put_samples(dst, v, f64::to_le_bytes);
            }
            BlockValue::Samples(v, SampleEncoding::F32, _) => {
                put_samples(dst, v, |x| (x as f32).to_le_bytes());
            }
            BlockValue::Samples(v, SampleEncoding::I16, scale) => {
                dst.extend_from_slice(&scale.to_le_bytes());
                put_samples(dst, v, |x| quantize_i16(x, scale).to_le_bytes());
            }
        }
    }
}

/// Appends `record` to `dst` as one complete frame in the given
/// [`WireFormat`] — the only encoder.
///
/// The frame is built in place: header, payload converted in bulk
/// straight into `dst`, then the CRC over what was just written. Bytes
/// already in `dst` are left alone, so a sender can reuse one buffer
/// for every record ([`crate::net::StreamOut`] does) or batch frames
/// back to back.
///
/// # Example
///
/// ```
/// use dynamic_river::codec::{encode_into, DecodeEvent, Decoder, SampleEncoding, WireFormat};
/// use dynamic_river::record::{Payload, Record};
///
/// let rec = Record::data(1, Payload::f64(vec![1.0, -1.0])).with_seq(5);
/// let mut wire = Vec::new();
/// encode_into(&rec, WireFormat::default(), &mut wire);
/// let lossless = wire.len();
/// encode_into(&rec, WireFormat::V2(SampleEncoding::F32), &mut wire);
/// assert!(wire.len() - lossless < lossless);
/// let mut events = Vec::new();
/// Decoder::new().feed(&wire, &mut events).unwrap();
/// assert_eq!(events, [DecodeEvent::Record(rec.clone()), DecodeEvent::Record(rec)]);
/// ```
pub fn encode_into(record: &Record, format: WireFormat, dst: &mut Vec<u8>) {
    let WireFormat::V2(enc) = format;
    let start = dst.len();
    // The one payload kind whose value is not contiguous bytes already
    // (a few short strings, once per scope) is laid out on the side.
    let mut pairs_value = Vec::new();
    let block = match &record.payload {
        // Empty is the *absence* of a payload block, not a block of its
        // own — an all-unknown (or empty) body decodes as Empty.
        Payload::Empty => None,
        Payload::F64(v) => Some(BlockValue::samples(
            v,
            enc,
            [TLV_F64_AS_F64, TLV_F64_AS_F32, TLV_F64_AS_I16],
        )),
        Payload::Complex(v) => Some(BlockValue::samples(
            v,
            enc,
            [TLV_COMPLEX_AS_F64, TLV_COMPLEX_AS_F32, TLV_COMPLEX_AS_I16],
        )),
        Payload::Bytes(b) => Some((TLV_BYTES, BlockValue::Raw(b))),
        Payload::Text(s) => Some((TLV_TEXT, BlockValue::Raw(s.as_bytes()))),
        Payload::Pairs(pairs) => {
            put_uvarint(&mut pairs_value, pairs.len() as u64);
            for s in pairs.iter().flat_map(|(k, v)| [k, v]) {
                put_uvarint(&mut pairs_value, s.len() as u64);
                pairs_value.extend_from_slice(s.as_bytes());
            }
            Some((TLV_PAIRS, BlockValue::Raw(&pairs_value)))
        }
    };
    let body_len = block.as_ref().map_or(0, |(ty, value)| {
        uvarint_len(*ty) + uvarint_len(value.len() as u64) + value.len()
    });
    // Magic, kind and five varints are at most 33 bytes; the CRC is 4.
    dst.reserve(37 + body_len);
    dst.push(V2_MAGIC);
    dst.push(record.kind.tag());
    put_uvarint(dst, u64::from(record.subtype));
    put_uvarint(dst, u64::from(record.scope_depth));
    put_uvarint(dst, u64::from(record.scope_type));
    put_uvarint(dst, record.seq);
    put_uvarint(dst, body_len as u64);
    if let Some((ty, value)) = block {
        put_uvarint(dst, ty);
        put_uvarint(dst, value.len() as u64);
        value.put(dst);
    }
    let crc = crc32(&dst[start..]);
    dst.extend_from_slice(&crc.to_le_bytes());
}

/// What the front of a byte buffer holds — the single place frame
/// boundaries are computed. [`Decoder`] and [`frame_len`] consult this
/// rather than indexing headers by hand.
enum Scan {
    /// More bytes are required before another scan can make progress.
    Need,
    /// The clean end-of-stream sentinel (4 bytes).
    Eos,
    /// The keepalive sentinel (4 bytes): consumed, no record produced.
    KeepAlive,
    /// A frame header: the complete frame spans `total` bytes.
    Frame { total: usize },
}

fn scan(buf: &[u8]) -> Result<Scan, PipelineError> {
    let Some(&first) = buf.first() else {
        return Ok(Scan::Need);
    };
    match first {
        b'R' => {
            if buf.len() < 4 {
                return Ok(Scan::Need);
            }
            if buf[..4] == EOS_MAGIC {
                return Ok(Scan::Eos);
            }
            if buf[..4] == KEEPALIVE_MAGIC {
                return Ok(Scan::KeepAlive);
            }
            // The version gate: a v1 sender is told what is wrong with
            // its stream, not that its bytes are noise.
            if buf[..4] == V1_MAGIC {
                return Err(PipelineError::Codec(
                    "unsupported wire version 1: `RVDR` frames are retired, send v2".into(),
                ));
            }
            Err(PipelineError::Codec(format!(
                "bad frame magic {:02x?}",
                &buf[..4]
            )))
        }
        V2_MAGIC => {
            let mut cur = ByteCursor::new(&buf[1..]);
            if cur.take_u8().is_none() {
                return Ok(Scan::Need);
            }
            // subtype, scope depth, scope type, seq.
            for _ in 0..4 {
                if cur.take_uvarint()?.is_none() {
                    return Ok(Scan::Need);
                }
            }
            let Some(body_len) = cur.take_uvarint()? else {
                return Ok(Scan::Need);
            };
            if body_len > MAX_PAYLOAD as u64 {
                return Err(PipelineError::Codec(format!(
                    "payload length {body_len} exceeds maximum {MAX_PAYLOAD}"
                )));
            }
            let header_end = 1 + cur.pos();
            Ok(Scan::Frame {
                total: header_end + body_len as usize + 4,
            })
        }
        b => Err(PipelineError::Codec(format!("bad frame magic [{b:02x}]"))),
    }
}

/// Returns the total length of the complete frame (or sentinel) at the
/// front of `buf`, or `Ok(None)` if more bytes are needed — the frame
/// boundary finder used by frame-aware fault injectors.
///
/// # Errors
///
/// Returns [`PipelineError::Codec`] for unrecognizable frame headers.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, PipelineError> {
    match scan(buf)? {
        Scan::Need => Ok(None),
        Scan::Eos | Scan::KeepAlive => Ok(Some(4)),
        Scan::Frame { total } => Ok((buf.len() >= total).then_some(total)),
    }
}

/// Little-endian `u32` from the first 4 bytes of `b` (caller has
/// already checked the length).
fn le_u32_at(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

/// Little-endian `f64` from the first 8 bytes of `b`.
fn le_f64_at(b: &[u8]) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    f64::from_le_bytes(a)
}

fn check_crc(frame: &[u8]) -> Result<(), PipelineError> {
    let body_end = frame.len() - 4;
    let expected = le_u32_at(&frame[body_end..]);
    let actual = crc32(&frame[..body_end]);
    if expected != actual {
        return Err(PipelineError::Codec(format!(
            "crc mismatch: frame says {expected:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(())
}

/// Parses one complete frame (`frame.len()` == the scanned total).
fn parse_frame(frame: &[u8]) -> Result<Record, PipelineError> {
    check_crc(frame)?;
    let mut cur = ByteCursor::new(&frame[1..frame.len() - 4]);
    let kind_tag = cur
        .take_u8()
        .ok_or_else(|| PipelineError::Codec("truncated frame header".into()))?;
    let kind = RecordKind::from_tag(kind_tag)
        .ok_or_else(|| PipelineError::Codec(format!("unknown record kind {kind_tag}")))?;
    let field = |v: Option<u64>| -> Result<u64, PipelineError> {
        v.ok_or_else(|| PipelineError::Codec("truncated frame header".into()))
    };
    let subtype = u16::try_from(field(cur.take_uvarint()?)?)
        .map_err(|_| PipelineError::Codec("subtype out of range".into()))?;
    let scope_depth = u32::try_from(field(cur.take_uvarint()?)?)
        .map_err(|_| PipelineError::Codec("scope depth out of range".into()))?;
    let scope_type = u16::try_from(field(cur.take_uvarint()?)?)
        .map_err(|_| PipelineError::Codec("scope type out of range".into()))?;
    let seq = field(cur.take_uvarint()?)?;
    let body_len = field(cur.take_uvarint()?)?;
    let body = &frame[1 + cur.pos()..frame.len() - 4];
    if body_len != body.len() as u64 {
        return Err(PipelineError::Codec(format!(
            "declared body length {body_len} disagrees with the {} bytes framed",
            body.len()
        )));
    }
    let payload = decode_body(body)?;
    Ok(Record {
        kind,
        subtype,
        scope_depth,
        scope_type,
        seq,
        payload,
    })
}

fn decode_body(body: &[u8]) -> Result<Payload, PipelineError> {
    let truncated = || PipelineError::Codec("truncated TLV block header".into());
    let mut cur = ByteCursor::new(body);
    let mut payload: Option<Payload> = None;
    while !cur.is_empty() {
        let ty = cur.take_uvarint()?.ok_or_else(truncated)?;
        let len = usize::try_from(cur.take_uvarint()?.ok_or_else(truncated)?)
            .map_err(|_| PipelineError::Codec("TLV block length overflows".into()))?;
        let value = cur
            .take_bytes(len)
            .ok_or_else(|| PipelineError::Codec("TLV block length exceeds body".into()))?;
        // Unknown block types are skipped, not fatal: forward
        // compatibility with future extensions.
        if let Some(block) = decode_block(ty, value)? {
            if payload.replace(block).is_some() {
                return Err(PipelineError::Codec(
                    "duplicate payload block in frame body".into(),
                ));
            }
        }
    }
    Ok(payload.unwrap_or(Payload::Empty))
}

/// Decodes one TLV block: `Ok(None)` for a type that is not a payload
/// block (the caller skips it).
fn decode_block(ty: u64, value: &[u8]) -> Result<Option<Payload>, PipelineError> {
    let codec_err = |m: String| PipelineError::Codec(m);
    let complex = matches!(
        ty,
        TLV_COMPLEX_AS_F64 | TLV_COMPLEX_AS_F32 | TLV_COMPLEX_AS_I16
    );
    // Complex payloads are interleaved [re, im, …] pairs; an odd sample
    // count cannot be produced by any in-process constructor and must
    // not enter through the wire.
    let check_pairs = |samples: usize| -> Result<(), PipelineError> {
        if complex && !samples.is_multiple_of(2) {
            return Err(codec_err(format!(
                "complex payload of {samples} samples is not a whole number of (re, im) pairs"
            )));
        }
        Ok(())
    };
    // Decoding always yields a canonical owned buffer: offset 0, view
    // length == backing length, collected straight into the shared
    // allocation.
    let wrap = |buf: SampleBuf| {
        if complex {
            Payload::Complex(buf)
        } else {
            Payload::F64(buf)
        }
    };
    let payload = match ty {
        TLV_F64_AS_F64 | TLV_COMPLEX_AS_F64 => {
            if !value.len().is_multiple_of(8) {
                return Err(codec_err(format!(
                    "f64 payload length {} not a multiple of 8",
                    value.len()
                )));
            }
            check_pairs(value.len() / 8)?;
            wrap(SampleBuf::from_f64_le_bytes(value))
        }
        TLV_F64_AS_F32 | TLV_COMPLEX_AS_F32 => {
            if !value.len().is_multiple_of(4) {
                return Err(codec_err(format!(
                    "f32 payload length {} not a multiple of 4",
                    value.len()
                )));
            }
            check_pairs(value.len() / 4)?;
            wrap(SampleBuf::from_f32_le_bytes(value))
        }
        TLV_F64_AS_I16 | TLV_COMPLEX_AS_I16 => {
            if value.len() < 8 {
                return Err(codec_err(
                    "i16 sample block shorter than its scale header".into(),
                ));
            }
            let (scale_bytes, rest) = value.split_at(8);
            let scale = le_f64_at(scale_bytes);
            if !scale.is_finite() || scale < 0.0 {
                return Err(codec_err(format!("invalid i16 scale factor {scale}")));
            }
            if !rest.len().is_multiple_of(2) {
                return Err(codec_err(format!(
                    "i16 payload length {} not a multiple of 2",
                    rest.len()
                )));
            }
            check_pairs(rest.len() / 2)?;
            wrap(SampleBuf::from_i16_scaled_le_bytes(scale, rest))
        }
        TLV_BYTES => Payload::Bytes(value.into()),
        TLV_TEXT => String::from_utf8(value.to_vec())
            .map(Payload::Text)
            .map_err(|e| codec_err(format!("invalid utf-8 text payload: {e}")))?,
        TLV_PAIRS => decode_pairs(value)?,
        _ => return Ok(None),
    };
    Ok(Some(payload))
}

/// Writes the clean end-of-stream sentinel.
///
/// # Errors
///
/// Returns [`PipelineError::Io`] on sink failure.
pub fn write_eos<W: Write>(mut writer: W) -> Result<(), PipelineError> {
    writer.write_all(&EOS_MAGIC)?;
    writer.flush()?;
    Ok(())
}

/// Writes (and flushes) one keepalive sentinel — what a sensor with
/// nothing to say sends so a [`crate::serve::PipelineServer`] with an
/// idle timeout knows the connection is dormant, not dead.
///
/// # Errors
///
/// Returns [`PipelineError::Io`] on sink failure.
pub fn write_keepalive<W: Write>(mut writer: W) -> Result<(), PipelineError> {
    writer.write_all(&KEEPALIVE_MAGIC)?;
    writer.flush()?;
    Ok(())
}

/// A decode event emitted by the incremental [`Decoder`].
#[derive(Debug, PartialEq)]
pub enum DecodeEvent {
    /// A complete frame decoded to a record.
    Record(Record),
    /// The clean end-of-stream sentinel was consumed.
    CleanEnd,
    /// A keepalive sentinel was consumed: the peer is alive but has
    /// nothing to say. Carries no record; session layers use it to
    /// reset idle timers ([`crate::serve::PipelineServer::set_idle_timeout`]).
    KeepAlive,
}

/// Push-based incremental frame decoder: feed it byte chunks of *any*
/// size (network reads, fuzzer fragments, whole streams) and it emits
/// complete records as they materialize.
///
/// The decoder is a state machine over an internal buffer. After any
/// error it is *poisoned* — further calls keep failing — because a
/// byte stream is meaningless past an unrecognizable frame boundary;
/// recovery happens at the session layer, not by resynchronizing bytes.
///
/// # Example
///
/// ```
/// use dynamic_river::codec::{encode_into, DecodeEvent, Decoder, WireFormat};
/// use dynamic_river::record::{Payload, Record};
///
/// let mut frame = Vec::new();
/// let rec = Record::data(1, Payload::f64(vec![1.0]));
/// encode_into(&rec, WireFormat::default(), &mut frame);
/// let mut dec = Decoder::new();
/// // Feed the frame one byte at a time: the record pops out whole.
/// let mut events = Vec::new();
/// for b in &frame {
///     dec.feed(std::slice::from_ref(b), &mut events).unwrap();
/// }
/// assert!(matches!(events.as_slice(), [DecodeEvent::Record(_)]));
/// ```
#[derive(Debug, Default)]
pub struct Decoder {
    /// Decode buffer. Every byte of it is initialized, including the
    /// tail past `end`, so a reader can fill that tail in place
    /// ([`read_from`](Decoder::read_from)) without unsafe code and
    /// without re-zeroing it per read.
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames; compacted on
    /// the next push so polling never memmoves per frame.
    start: usize,
    /// End of the bytes received so far: `buf[start..end]` is pending.
    end: usize,
    /// Clean end seen: any further bytes are a protocol error.
    done: bool,
    poisoned: bool,
}

impl Decoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// The `n` writable bytes after `end`, compacting the consumed
    /// prefix away and growing the buffer as needed.
    fn spare(&mut self, n: usize) -> &mut [u8] {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + n {
            self.buf.resize(self.end + n, 0);
        }
        &mut self.buf[self.end..self.end + n]
    }

    /// Bytes buffered but not yet consumed by a decoded frame — at EOF
    /// this is the partial-frame residue (it still counts as wire
    /// traffic for session accounting).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The largest the decode buffer has ever been (it never shrinks),
    /// for tests that bound a reader's memory.
    #[cfg(test)]
    pub(crate) fn buffer_high_water(&self) -> usize {
        self.buf.len()
    }

    /// Whether the clean end-of-stream sentinel has been consumed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Appends bytes to the decode buffer without polling.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Codec`] when the decoder is poisoned or
    /// bytes arrive after the clean end-of-stream sentinel.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Result<(), PipelineError> {
        if self.poisoned {
            return Err(poisoned_err());
        }
        if self.done && !bytes.is_empty() {
            self.poisoned = true;
            return Err(PipelineError::Codec(
                "bytes after end-of-stream sentinel".into(),
            ));
        }
        self.spare(bytes.len()).copy_from_slice(bytes);
        self.end += bytes.len();
        Ok(())
    }

    /// One `read` of at most `max` bytes from `reader`, landing directly
    /// in the decode buffer (no intermediate chunk to copy from), without
    /// polling. Returns the bytes read; `Ok(0)` is end of input (or
    /// `max == 0`). Bytes after the end-of-stream sentinel, or into a
    /// poisoned decoder, are accepted here and refused by the next
    /// [`poll`](Decoder::poll).
    ///
    /// # Errors
    ///
    /// Whatever `reader.read` returns, `WouldBlock` and `Interrupted`
    /// included; the decoder is unchanged by a failed read.
    pub fn read_from<R: Read>(&mut self, reader: &mut R, max: usize) -> io::Result<usize> {
        if self.poisoned {
            // Nothing more will decode: do not let the buffer grow.
            self.start = self.end;
        }
        let n = reader.read(self.spare(max))?;
        self.end += n;
        Ok(n)
    }

    /// Feeds a chunk and drains every event it completes into `out`
    /// (events decoded before an error are kept).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Codec`] for malformed bytes; the decoder
    /// is poisoned afterwards.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<DecodeEvent>) -> Result<(), PipelineError> {
        self.push_bytes(bytes)?;
        while let Some(ev) = self.poll()? {
            out.push(ev);
        }
        Ok(())
    }

    /// Attempts to decode one event from the buffered bytes; `Ok(None)`
    /// means more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Codec`] for malformed bytes; the decoder
    /// is poisoned afterwards.
    pub fn poll(&mut self) -> Result<Option<DecodeEvent>, PipelineError> {
        if self.poisoned {
            return Err(poisoned_err());
        }
        if self.done {
            // The CleanEnd event was already emitted; any residue is a
            // protocol error surfaced on this later poll so the clean
            // end itself is never swallowed.
            if self.buffered() > 0 {
                self.poisoned = true;
                return Err(PipelineError::Codec(
                    "bytes after end-of-stream sentinel".into(),
                ));
            }
            return Ok(None);
        }
        let buf = self.pending();
        let scanned = match scan(buf) {
            Ok(s) => s,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        match scanned {
            Scan::Need => Ok(None),
            Scan::Eos => {
                self.start += 4;
                self.done = true;
                Ok(Some(DecodeEvent::CleanEnd))
            }
            Scan::KeepAlive => {
                self.start += 4;
                Ok(Some(DecodeEvent::KeepAlive))
            }
            Scan::Frame { total } => {
                if buf.len() < total {
                    return Ok(None);
                }
                match parse_frame(&buf[..total]) {
                    Ok(record) => {
                        self.start += total;
                        Ok(Some(DecodeEvent::Record(record)))
                    }
                    Err(e) => {
                        self.poisoned = true;
                        Err(e)
                    }
                }
            }
        }
    }

    /// Declares the byte stream over. Nothing buffered (or too few bytes
    /// to even tell a frame from the sentinel) is an *unclean* end the
    /// caller reports as such; a partial frame is a mid-frame
    /// disconnect.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Disconnected`] when the stream ends
    /// inside a frame.
    pub fn end_of_input(&self) -> Result<(), PipelineError> {
        if self.done || self.poisoned || self.buffered() == 0 {
            return Ok(());
        }
        // Fewer than 4 non-frame bytes cannot be told apart from a
        // partial sentinel, so they report as a plain unclean end; the
        // frame magic byte unambiguously starts a frame.
        if self.pending()[0] != V2_MAGIC && self.buffered() < 4 {
            return Ok(());
        }
        Err(PipelineError::Disconnected(
            "stream truncated mid-frame".into(),
        ))
    }
}

fn poisoned_err() -> PipelineError {
    PipelineError::Codec("decoder poisoned by earlier error".into())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    const ENCODINGS: [SampleEncoding; 3] = [
        SampleEncoding::F64,
        SampleEncoding::F32,
        SampleEncoding::I16,
    ];

    fn samples() -> Vec<Record> {
        vec![
            Record::data(1, Payload::Empty),
            Record::data(2, Payload::f64(vec![1.5, -2.5, 0.0])).with_seq(99),
            Record::data(3, Payload::complex(vec![1.0, 2.0])),
            Record::data(4, Payload::Bytes(b"hello"[..].into())),
            Record::data(5, Payload::Text("héllo wörld".into())),
            Record::open_scope(
                7,
                vec![
                    ("sample_rate".into(), "20160".into()),
                    ("site".into(), "kbs".into()),
                ],
            )
            .with_depth(1),
            Record::close_scope(7),
            Record::bad_close_scope(9).with_depth(3),
        ]
    }

    /// `rec` as one frame in the given sample encoding.
    fn frame(rec: &Record, enc: SampleEncoding) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(rec, WireFormat::V2(enc), &mut out);
        out
    }

    /// `rec` as one lossless frame (the default format).
    fn lossless(rec: &Record) -> Vec<u8> {
        frame(rec, SampleEncoding::F64)
    }

    /// Everything a fresh decoder makes of `wire`, fed in one piece.
    fn decode(wire: &[u8]) -> Result<Vec<DecodeEvent>, PipelineError> {
        let mut events = Vec::new();
        Decoder::new().feed(wire, &mut events)?;
        Ok(events)
    }

    /// The record in `wire`, which must be exactly one complete frame.
    fn decode_one(wire: &[u8]) -> Record {
        match decode(wire).unwrap().pop() {
            Some(DecodeEvent::Record(rec)) => rec,
            other => panic!("expected one record, got {other:?}"),
        }
    }

    /// Rewrites the trailing CRC of a hand-mutated frame so the check
    /// under test (not the CRC) is what fires.
    fn fix_crc(frame: &mut [u8]) {
        let body_end = frame.len() - 4;
        let crc = crc32(&frame[..body_end]);
        frame[body_end..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn frame_round_trip_all_payloads() {
        for rec in samples() {
            let frame = lossless(&rec);
            let mut dec = Decoder::new();
            let mut events = Vec::new();
            dec.feed(&frame, &mut events).unwrap();
            assert_eq!(events, [DecodeEvent::Record(rec)]);
            assert_eq!(dec.buffered(), 0, "the frame is consumed whole");
        }
    }

    #[test]
    fn offset_view_encodes_like_owned_buffer() {
        // A non-zero-offset view frames byte-for-byte identically to an
        // owned buffer with the same content (only the viewed samples
        // are framed, never the rest of the backing allocation), and
        // decodes back to a canonical (offset 0) buffer equal to the
        // view.
        use crate::buf::SampleBuf;
        let backing = SampleBuf::from((0..16).map(|i| i as f64).collect::<Vec<f64>>());
        let view = backing.slice(5..11);
        for make in [Payload::F64, Payload::Complex] {
            let viewed = Record::data(2, make(view.clone())).with_seq(3);
            let owned = Record::data(2, make(SampleBuf::from(view.to_vec()))).with_seq(3);
            let frame_view = lossless(&viewed);
            assert_eq!(frame_view, lossless(&owned));
            let decoded = decode_one(&frame_view);
            assert_eq!(decoded, viewed);
            let buf = decoded
                .payload
                .as_f64_buf()
                .or_else(|| decoded.payload.as_complex_buf())
                .unwrap();
            assert_eq!(buf.offset(), 0, "decode yields a canonical buffer");
            assert_eq!(buf.backing().len(), buf.len());
        }
    }

    #[test]
    fn odd_complex_payload_rejected() {
        // Re-type an F64 block with 3 samples as Complex and fix the
        // CRC: 24 bytes is a valid f64 count but not a whole (re, im)
        // pair count, so decode must refuse it.
        let rec = Record::data(1, Payload::f64(vec![1.0, 2.0, 3.0]));
        let mut body = body_of(&rec);
        assert_eq!(u64::from(body[0]), TLV_F64_AS_F64);
        body[0] = TLV_COMPLEX_AS_F64 as u8;
        let err = decode(&frame_around(&rec, &body)).unwrap_err();
        assert!(matches!(err, PipelineError::Codec(m) if m.contains("pairs")));
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The definition of the checksum, one bit at a time: the reference
    /// both paths of [`crc32`] are held to.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// `len` bytes of seeded noise.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = crate::testkit::WireMangler::new(seed);
        let mut buf = Vec::with_capacity(len + 8);
        while buf.len() < len {
            buf.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        buf.truncate(len);
        buf
    }

    /// Whether this CPU runs the folding kernel; says so when it does
    /// not, so a run that skipped the kernel legs shows it under
    /// `--nocapture` and in the `ci.sh` log.
    fn clmul_detected() -> bool {
        let detected = clmul::fold(0, &[0; 64]).is_some();
        if !detected {
            eprintln!("crc32: no pclmulqdq + sse4.1 on this CPU: fold kernel legs SKIPPED");
        }
        detected
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        // Every length 0..=1100 at every start offset 0..16 — each
        // remainder of the wide steps, wherever the slice starts — and
        // the lengths around the 64-byte switch, one single fold, the
        // four-lane loop's first iteration, the benchmark's F32 and F64
        // frames and a read burst. Each path is forced, not left to
        // whichever one this host dispatches to.
        const LONG: [usize; 13] = [
            63, 64, 65, 79, 80, 127, 128, 129, 3_366, 6_717, 65_535, 65_536, 65_537,
        ];
        let folds = clmul_detected();
        let buf = noise(0xC2C32, 65_537 + 16);
        for offset in 0..16 {
            for len in (0..=1100).chain(LONG) {
                let data = &buf[offset..offset + len];
                let want = crc32_bitwise(data);
                let at = format!("offset {offset}, length {len}");
                assert_eq!(!crc32_tables(0xFFFF_FFFF, data), want, "tables, {at}");
                assert_eq!(crc32(data), want, "dispatch, {at}");
                match clmul::fold(0xFFFF_FFFF, data) {
                    Some((crc, tail)) => {
                        assert!(tail.len() < 16 && data.ends_with(tail), "{at}");
                        assert_eq!(!crc32_tables(crc, tail), want, "fold, {at}");
                    }
                    None => assert!(len < 64 || !folds, "fold declined, {at}"),
                }
            }
        }
    }

    #[test]
    fn crc32_fold_hands_the_register_to_the_tables_at_any_block_seam() {
        // The kernel's output is the raw register, so the tables can
        // pick up after it at any multiple of 16, not only at the tail:
        // tables(fold(a), b) == tables(a ‖ b).
        if !clmul_detected() {
            return;
        }
        let buf = noise(0x5EA4, 8 * 1024);
        let mut rng = crate::testkit::WireMangler::new(0x5EA5);
        for _ in 0..512 {
            let len = 64 + rng.next_u64() as usize % (buf.len() - 63);
            let start = rng.next_u64() as usize % (buf.len() - len + 1);
            let data = &buf[start..start + len];
            let split = 64 + 16 * (rng.next_u64() as usize % ((len - 64) / 16 + 1));
            let (a, b) = data.split_at(split);
            let (crc, tail) = clmul::fold(0xFFFF_FFFF, a).unwrap();
            assert!(tail.is_empty(), "a split at {split} is whole blocks");
            assert_eq!(
                crc32_tables(crc, b),
                crc32_tables(0xFFFF_FFFF, data),
                "start {start}, length {len}, split {split}"
            );
        }
    }

    /// The constants of the folding kernel, derived from the polynomial
    /// by shift-and-xor rather than copied from a whitepaper.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32_fold_constants_derive_from_the_polynomial() {
        const P: u64 = 0x1_04C1_1DB7;
        /// x^n mod P, for n >= 32.
        fn x_pow_mod_p(n: u32) -> u32 {
            let mut r = P ^ (1 << 32); // x^32 mod P
            for _ in 32..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= P;
                }
            }
            r as u32
        }
        /// ⌊x^64 / P⌋ by long division: 33 quotient bits.
        fn x64_div_p() -> u64 {
            let (mut rem, mut quotient) = (1u128 << 64, 0u64);
            for shift in (0..=32).rev() {
                if rem >> (shift + 32) & 1 != 0 {
                    rem ^= u128::from(P) << shift;
                    quotient |= 1 << shift;
                }
            }
            quotient
        }
        let key = |n| i64::from(x_pow_mod_p(n).reverse_bits()) << 1;
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(clmul::K1, key(544), "k1");
        assert_eq!(clmul::K2, key(480), "k2");
        assert_eq!(clmul::K3, key(160), "k3");
        assert_eq!(clmul::K4, key(96), "k4");
        assert_eq!(clmul::K5, key(64), "k5");
        assert_eq!(clmul::P_REFLECTED, reflect33(P), "P'");
        assert_eq!(clmul::MU, reflect33(x64_div_p()), "mu");
    }

    #[test]
    fn partial_frames_request_more_bytes() {
        let frame = lossless(&samples()[1]);
        // Nothing, magic only, mid-header, mid-body, all but one byte.
        for cut in [0usize, 1, 4, 10, frame.len() - 1] {
            assert!(decode(&frame[..cut]).unwrap().is_empty(), "cut {cut}");
        }
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let mut frame = lossless(&samples()[1]);
        let mid = frame.len() - 4 - 10; // inside the sample block
        frame[mid] ^= 0xFF;
        let err = decode(&frame).unwrap_err();
        assert!(matches!(err, PipelineError::Codec(m) if m.contains("crc")));
    }

    #[test]
    fn corrupted_header_detected() {
        let mut frame = lossless(&samples()[0]);
        frame[1] = 250; // invalid kind; also breaks CRC
        assert!(decode(&frame).is_err());
        fix_crc(&mut frame);
        let err = decode(&frame).unwrap_err();
        assert!(matches!(err, PipelineError::Codec(m) if m.contains("kind")));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = lossless(&samples()[0]);
        frame[0] = b'X';
        let err = decode(&frame).unwrap_err();
        assert!(matches!(err, PipelineError::Codec(m) if m.contains("magic")));
        // Four bytes that open like a sentinel but are none.
        let err = decode(b"RVXX").unwrap_err();
        assert!(matches!(err, PipelineError::Codec(m) if m.contains("magic")));
    }

    #[test]
    fn wrong_version_rejected() {
        // The version gate: the opening of a (retired) v1 frame is
        // refused by name as soon as its magic has arrived, whatever
        // follows, and the decoder stays poisoned.
        let mut v1 = b"RVDR\x01\x00".to_vec();
        v1.resize(32, 0);
        for wire in [&v1[..4], &v1[..]] {
            let mut dec = Decoder::new();
            let mut events = Vec::new();
            let err = dec.feed(wire, &mut events).unwrap_err();
            assert!(
                matches!(&err, PipelineError::Codec(m) if m.contains("version 1")),
                "{err}"
            );
            assert!(events.is_empty());
            assert!(dec.feed(&[], &mut events).is_err());
        }
        // A partial magic is not yet a verdict.
        assert!(decode(b"RVD").unwrap().is_empty());
    }

    #[test]
    fn oversized_payload_len_rejected_without_allocation() {
        // A header declaring a body just past the cap is refused from
        // the header alone: none of the body has to arrive first.
        let rec = &samples()[0];
        let mut header = vec![V2_MAGIC, rec.kind.tag(), 0, 0, 0, 0];
        put_uvarint(&mut header, MAX_PAYLOAD as u64 + 1);
        let err = decode(&header).unwrap_err();
        assert!(matches!(err, PipelineError::Codec(m) if m.contains("maximum")));
    }

    /// `samples()` framed back to back in `enc`, plus the sentinel.
    fn sample_stream(enc: SampleEncoding) -> Vec<u8> {
        let mut wire = Vec::new();
        for rec in samples() {
            encode_into(&rec, WireFormat::V2(enc), &mut wire);
        }
        write_eos(&mut wire).unwrap();
        wire
    }

    /// Reads `wire` the way a socket is read — `read_from` in reads of
    /// at most `max` bytes, polling between them — through to its clean
    /// end. Returns the records and the bytes the reads reported.
    fn read_through(wire: &[u8], max: usize) -> (Vec<Record>, usize) {
        let mut reader = wire;
        let mut dec = Decoder::new();
        let (mut records, mut counted) = (Vec::new(), 0);
        loop {
            match dec.read_from(&mut reader, max).unwrap() {
                0 => break,
                n => counted += n,
            }
            while let Some(event) = dec.poll().unwrap() {
                if let DecodeEvent::Record(rec) = event {
                    records.push(rec);
                }
            }
        }
        assert!(dec.is_done(), "no clean end");
        assert_eq!(dec.buffered(), 0);
        (records, counted)
    }

    #[test]
    fn stream_read_write_round_trip() {
        let wire = sample_stream(SampleEncoding::F64);
        assert_eq!(read_through(&wire, 7).0, samples());
    }

    #[test]
    fn counted_reads_account_for_every_wire_byte() {
        // What `read_from` reports adds up to every frame byte plus the
        // 4-byte sentinel (the count behind session wire-byte
        // accounting), a byte at a time and in odd small reads.
        let wire = sample_stream(SampleEncoding::F64);
        for max in [1, 5] {
            assert_eq!(read_through(&wire, max).1, wire.len(), "max {max}");
        }
    }

    #[test]
    fn counted_reads_handle_v2_frames() {
        // The compact encodings, at the service layer's read size.
        for enc in [SampleEncoding::F32, SampleEncoding::I16] {
            let wire = sample_stream(enc);
            let (records, counted) = read_through(&wire, 8192);
            assert_eq!(records.len(), samples().len(), "{enc:?}");
            assert_eq!(counted, wire.len(), "{enc:?}");
        }
    }

    #[test]
    fn missing_sentinel_reports_unclean_end() {
        // One whole frame and then nothing: the record is delivered,
        // and the end of input is unclean (no sentinel) but not an
        // error.
        let mut dec = Decoder::new();
        let mut events = Vec::new();
        dec.feed(&lossless(&samples()[0]), &mut events).unwrap();
        assert!(matches!(events.as_slice(), [DecodeEvent::Record(_)]));
        assert!(dec.end_of_input().is_ok());
        assert!(!dec.is_done());
    }

    #[test]
    fn truncated_mid_frame_is_disconnect() {
        let frame = lossless(&samples()[1]);
        let mut dec = Decoder::new();
        let mut events = Vec::new();
        dec.feed(&frame[..frame.len() - 6], &mut events).unwrap();
        assert!(events.is_empty());
        let err = dec.end_of_input().unwrap_err();
        assert!(matches!(err, PipelineError::Disconnected(_)));
    }

    #[test]
    fn pairs_payload_edge_cases() {
        // Empty pairs list round trips.
        let rec = Record {
            kind: RecordKind::Data,
            subtype: 0,
            scope_depth: 0,
            scope_type: 0,
            seq: 0,
            payload: Payload::Pairs(vec![]),
        };
        assert_eq!(decode_one(&lossless(&rec)).payload, Payload::Pairs(vec![]));
    }

    #[test]
    fn v2_lossless_round_trip_all_payloads() {
        for rec in samples() {
            for enc in ENCODINGS {
                let decoded = decode_one(&frame(&rec, enc));
                if enc == SampleEncoding::F64
                    || !matches!(rec.payload, Payload::F64(_) | Payload::Complex(_))
                {
                    // Non-sample payloads are lossless under every encoding.
                    assert_eq!(decoded, rec, "{enc:?}");
                } else {
                    assert_eq!(decoded.kind, rec.kind);
                    assert_eq!(decoded.seq, rec.seq);
                }
            }
        }
    }

    #[test]
    fn compact_encodings_halve_and_quarter_the_f64_frame() {
        // The compactness claim, on an 840-sample data record (the
        // paper's record length): against the lossless frame, f32
        // halves and i16 quarters the sample bytes; the 16 bytes of
        // header, block header and CRC (and the i16 block's 8-byte
        // scale) stay what they are.
        let samples: Vec<f64> = (0..840).map(|i| (i as f64 * 0.01).sin()).collect();
        let rec = Record::data(2, Payload::f64(samples)).with_seq(1234);
        let f64_len = frame(&rec, SampleEncoding::F64).len();
        let f32_len = frame(&rec, SampleEncoding::F32).len();
        let i16_len = frame(&rec, SampleEncoding::I16).len();
        assert_eq!(f64_len, 840 * 8 + 16);
        assert!(f32_len <= f64_len / 2 + 16, "f32 {f32_len} vs {f64_len}");
        assert!(i16_len <= f64_len / 4 + 24, "i16 {i16_len} vs {f64_len}");
    }

    /// The quantiser as it was written before: libm `round`, then clamp.
    fn quantize_i16_by_round(x: f64, scale: f64) -> i16 {
        let q = if scale == 0.0 {
            0.0
        } else {
            (x / scale).round()
        };
        q.clamp(-32767.0, 32767.0) as i16
    }

    #[test]
    fn i16_quantiser_matches_round_for_every_input() {
        let scales = [
            1.0,
            -1.0,
            0.5,
            3.0,
            1.0 / 32767.0,
            1e-300,
            f64::MIN_POSITIVE / 4.0, // subnormal
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
        ];
        let check = |x: f64| {
            for scale in scales {
                assert_eq!(
                    quantize_i16(x, scale),
                    quantize_i16_by_round(x, scale),
                    "x = {x:e} ({:#018x}), scale = {scale:e}",
                    x.to_bits()
                );
            }
        };
        // Every half-integer in ±40,000 and its neighbours two ulps
        // either side: where rounding decides, and past both clamps.
        for k in -80_000i64..=80_000 {
            let half = k as f64 / 2.0;
            for ulps in -2i64..=2 {
                check(f64::from_bits((half.to_bits() as i64 + ulps) as u64));
            }
        }
        for x in [
            0.5 - f64::EPSILON / 4.0, // pred(0.5): trunc(x + 0.5) gets it wrong
            -(0.5 - f64::EPSILON / 4.0),
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
        ] {
            check(x);
        }
        // Random bit patterns: every exponent, NaN payloads, subnormals.
        let mut rng = crate::testkit::WireMangler::new(0x1016);
        for _ in 0..200_000 {
            check(f64::from_bits(rng.next_u64()));
        }
    }

    #[test]
    fn v2_i16_quantization_error_is_bounded() {
        let samples: Vec<f64> = (0..512).map(|i| (i as f64 * 0.37).sin() * 3.25).collect();
        let max = samples.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let bound = max / f64::from(i16::MAX) / 2.0 * (1.0 + 1e-9);
        let rec = Record::data(2, Payload::f64(samples.clone()));
        let decoded = decode_one(&frame(&rec, SampleEncoding::I16));
        let buf = decoded.payload.as_f64_buf().unwrap();
        assert_eq!(buf.len(), samples.len());
        for (a, b) in samples.iter().zip(buf.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn v2_i16_nonrepresentable_samples_fall_back_to_lossless() {
        // Non-finite samples and subnormal magnitudes (scale underflows
        // to zero) cannot be quantized with a bounded error: the encoder
        // silently emits the lossless f64 block instead.
        for samples in [vec![1.0, f64::NAN, 3.0], vec![0.0, 4e-320]] {
            let rec = Record::data(2, Payload::f64(samples.clone()));
            let decoded = decode_one(&frame(&rec, SampleEncoding::I16));
            let buf = decoded.payload.as_f64_buf().unwrap();
            for (a, b) in samples.iter().zip(buf.iter()) {
                assert!(a.to_bits() == b.to_bits(), "{a} vs {b}");
            }
        }
        // All-zero records stay on the i16 path (scale 0 ⇒ exact zeros).
        let rec = Record::data(2, Payload::f64(vec![0.0; 16]));
        assert_eq!(decode_one(&frame(&rec, SampleEncoding::I16)), rec);
    }

    /// The body (TLV blocks) of `rec`'s lossless frame.
    fn body_of(rec: &Record) -> Vec<u8> {
        let frame = lossless(rec);
        // Past magic and kind: four header varints, then the body length.
        let mut cur = ByteCursor::new(&frame[2..frame.len() - 4]);
        for _ in 0..5 {
            cur.take_uvarint().unwrap().unwrap();
        }
        cur.buf[cur.pos()..].to_vec()
    }

    /// A CRC-valid frame with `rec`'s header around an arbitrary body.
    fn frame_around(rec: &Record, body: &[u8]) -> Vec<u8> {
        let mut out = vec![V2_MAGIC, rec.kind.tag()];
        put_uvarint(&mut out, u64::from(rec.subtype));
        put_uvarint(&mut out, u64::from(rec.scope_depth));
        put_uvarint(&mut out, u64::from(rec.scope_type));
        put_uvarint(&mut out, rec.seq);
        put_uvarint(&mut out, body.len() as u64);
        out.extend_from_slice(body);
        out.extend_from_slice(&[0; 4]);
        fix_crc(&mut out);
        out
    }

    #[test]
    fn v2_unknown_tlv_blocks_are_skipped() {
        // Splice a block of a type that is not a payload block ahead of
        // the payload block: a forward-compatible reader must decode
        // the record unchanged. Type 0, the first type past the payload
        // range, and one- and two-byte varint types further out.
        let rec = Record::data(5, Payload::Text("hi".into())).with_seq(7);
        let frame = lossless(&rec);
        assert_eq!(frame_around(&rec, &body_of(&rec)), frame);
        for ty in [0u64, 10, 127, 128, 200, 16_383] {
            let mut body = Vec::new();
            put_uvarint(&mut body, ty);
            put_uvarint(&mut body, 3);
            body.extend_from_slice(b"xyz");
            body.extend_from_slice(&body_of(&rec));
            let spliced = frame_around(&rec, &body);
            assert_ne!(spliced, frame);
            assert_eq!(decode_one(&spliced), rec, "type {ty}");
            // Alone in the body, it leaves an empty payload.
            body.truncate(body.len() - body_of(&rec).len());
            let alone = decode_one(&frame_around(&rec, &body));
            assert_eq!(alone.payload, Payload::Empty, "type {ty}");
        }
    }

    #[test]
    fn v2_duplicate_payload_block_rejected() {
        let rec = Record::data(5, Payload::Text("hi".into()));
        let body = [body_of(&rec), body_of(&rec)].concat();
        let err = decode(&frame_around(&rec, &body)).unwrap_err();
        assert!(matches!(err, PipelineError::Codec(m) if m.contains("duplicate")));
    }

    #[test]
    fn v2_declared_body_length_must_match_the_framed_span() {
        // `scan` sizes a frame from its body-length varint, so through
        // the decoder the two cannot disagree: one more declared byte
        // just means one more byte is awaited.
        let rec = Record::data(5, Payload::Text("hi".into())).with_seq(7);
        let frame = lossless(&rec);
        let len_at = frame.len() - 4 - body_of(&rec).len() - 1;
        assert_eq!(usize::from(frame[len_at]), body_of(&rec).len());
        let mut longer = frame.clone();
        longer[len_at] += 1;
        fix_crc(&mut longer);
        assert!(decode(&longer).unwrap().is_empty());
        // The parser itself holds its caller to that contract: handed a
        // CRC-valid span the header does not describe, it refuses.
        for delta in [1u8, 255] {
            let mut mutated = frame.clone();
            mutated[len_at] = mutated[len_at].wrapping_add(delta);
            fix_crc(&mut mutated);
            let err = parse_frame(&mutated).unwrap_err();
            assert!(
                matches!(&err, PipelineError::Codec(m) if m.contains("body length")),
                "{err}"
            );
        }
    }

    #[test]
    fn pairs_count_is_bounded_by_the_bytes_a_pair_occupies() {
        // Count varint, then per pair two length varints: 6 declared
        // pairs in a value with room for 2 is refused before any
        // reservation is sized from the count (a bound of count <=
        // value length would let it through).
        let pairs = Record::open_scope(7, vec![("k".into(), "v".into())]);
        let mut body = Vec::new();
        put_uvarint(&mut body, TLV_PAIRS);
        put_uvarint(&mut body, 5);
        body.extend_from_slice(&[6, 0, 0, 0, 0]);
        let err = decode(&frame_around(&pairs, &body)).unwrap_err();
        assert!(
            matches!(&err, PipelineError::Codec(m) if m.contains("count")),
            "{err}"
        );

        // A count the bytes can hold still decodes, however many pairs
        // (the reservation is capped, the list is not).
        let n = PAIRS_RESERVE_CAP * 2 + 1;
        let many = Record::open_scope(7, vec![(String::new(), String::new()); n]);
        assert_eq!(decode_one(&lossless(&many)), many);
    }

    #[test]
    fn v2_i16_scale_is_validated_on_decode() {
        // Corrupt the 8-byte scale inside an i16 block, then repair the
        // CRC so the *scale check* (not the checksum) is what fires.
        let rec = Record::data(1, Payload::f64(vec![1.0, -0.5, 0.25]));
        let frame = frame(&rec, SampleEncoding::I16);
        let scale = 1.0 / f64::from(i16::MAX);
        let pos = frame
            .windows(8)
            .position(|w| w == scale.to_le_bytes())
            .expect("scale bytes present in i16 frame");
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut mutated = frame.clone();
            mutated[pos..pos + 8].copy_from_slice(&bad.to_le_bytes());
            fix_crc(&mut mutated);
            let err = decode(&mutated).unwrap_err();
            assert!(
                matches!(&err, PipelineError::Codec(m) if m.contains("scale")),
                "scale {bad}: {err}"
            );
        }
    }

    #[test]
    fn v2_crc_corruption_detected() {
        // A flipped checksum byte, in each encoding: the frame length
        // is intact, so this is a checksum failure, not a truncation.
        for enc in ENCODINGS {
            let mut frame = frame(&samples()[1], enc);
            let last = frame.len() - 1;
            frame[last] ^= 0xFF;
            let err = decode(&frame).unwrap_err();
            assert!(matches!(err, PipelineError::Codec(m) if m.contains("crc")));
        }
    }

    #[test]
    fn v2_partial_frames_request_more_bytes() {
        let frame = frame(&samples()[1], SampleEncoding::F32);
        for cut in [0usize, 1, 2, 5, frame.len() - 1] {
            assert!(decode(&frame[..cut]).unwrap().is_empty(), "cut {cut}");
        }
    }

    #[test]
    fn varint_round_trips_and_rejects_malformed() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_uvarint(&mut out, v);
            assert_eq!(out.len(), uvarint_len(v));
            let mut cur = ByteCursor::new(&out);
            assert_eq!(cur.take_uvarint().unwrap(), Some(v));
            assert!(cur.is_empty());
        }
        // Incomplete: continuation bit set, no next byte.
        assert_eq!(ByteCursor::new(&[0x80]).take_uvarint().unwrap(), None);
        // Too long: 10 continuation bytes.
        assert!(ByteCursor::new(&[0x80; 11]).take_uvarint().is_err());
        // Overflow: 10th byte contributes more than u64's last bit.
        let mut overflow = [0xFFu8; 10];
        overflow[9] = 0x02;
        assert!(ByteCursor::new(&overflow).take_uvarint().is_err());
    }

    #[test]
    fn decoder_chunked_feed_yields_same_records() {
        let mut wire = Vec::new();
        for (i, rec) in samples().iter().enumerate() {
            // Mixed encodings on one stream: the receiver reads the
            // encoding off each frame. (Every sample here is exact in
            // f32.)
            let enc = ENCODINGS[i % 2];
            encode_into(rec, WireFormat::V2(enc), &mut wire);
        }
        write_eos(&mut wire).unwrap();

        for chunk in [1usize, 3, 7, wire.len()] {
            let mut dec = Decoder::new();
            let mut events = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece, &mut events).unwrap();
            }
            let records: Vec<&Record> = events
                .iter()
                .filter_map(|e| match e {
                    DecodeEvent::Record(r) => Some(r),
                    DecodeEvent::CleanEnd | DecodeEvent::KeepAlive => None,
                })
                .collect();
            assert_eq!(records.len(), samples().len(), "chunk {chunk}");
            assert!(events.last() == Some(&DecodeEvent::CleanEnd));
            assert!(dec.is_done());
            for (got, want) in records.iter().zip(samples().iter()) {
                assert_eq!(*got, want);
            }
        }
    }

    #[test]
    fn decoder_end_of_input_mid_frame_is_disconnect() {
        let frame = lossless(&samples()[1]);
        let mut dec = Decoder::new();
        let mut events = Vec::new();
        dec.feed(&frame[..frame.len() / 2], &mut events).unwrap();
        assert!(events.is_empty());
        assert!(matches!(
            dec.end_of_input().unwrap_err(),
            PipelineError::Disconnected(_)
        ));
        // An empty decoder, or a partial sentinel, ends uncleanly but
        // without a disconnect error.
        assert!(Decoder::new().end_of_input().is_ok());
        let mut dec = Decoder::new();
        dec.feed(b"RV", &mut events).unwrap();
        assert!(dec.end_of_input().is_ok());
    }

    #[test]
    fn decoder_rejects_bytes_after_sentinel_and_stays_poisoned() {
        let mut dec = Decoder::new();
        let mut events = Vec::new();
        let mut wire = Vec::new();
        write_eos(&mut wire).unwrap();
        wire.push(0x00);
        let err = dec.feed(&wire, &mut events).unwrap_err();
        assert!(matches!(err, PipelineError::Codec(m) if m.contains("sentinel")));
        // The clean end decoded before the stray byte is preserved.
        assert_eq!(events, vec![DecodeEvent::CleanEnd]);
        assert!(matches!(
            dec.feed(&[], &mut events).unwrap_err(),
            PipelineError::Codec(m) if m.contains("poisoned")
        ));
    }

    #[test]
    fn frame_len_reports_boundaries_for_every_encoding() {
        let rec = &samples()[1];
        for enc in ENCODINGS {
            let frame = frame(rec, enc);
            assert_eq!(frame_len(&frame).unwrap(), Some(frame.len()));
            assert_eq!(frame_len(&frame[..frame.len() - 1]).unwrap(), None);
            let mut extended = frame.clone();
            extended.extend_from_slice(b"tail");
            assert_eq!(frame_len(&extended).unwrap(), Some(frame.len()));
        }
        assert_eq!(frame_len(&EOS_MAGIC).unwrap(), Some(4));
        assert_eq!(frame_len(&KEEPALIVE_MAGIC).unwrap(), Some(4));
        assert!(frame_len(&[0x00]).is_err());
        assert!(frame_len(b"RVDR").is_err());
    }
}
