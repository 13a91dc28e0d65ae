//! Hostile-input battery for the WAV reader.
//!
//! Valid files from [`WavWriter`] are mutated with fixed seeds. The
//! reader must never panic, and whatever a header claims, its largest
//! single allocation stays within 8 × input bytes + 4 KiB: a decoded
//! sample is an 8-byte `f64`, the narrowest stored one a byte. A counting
//! `#[global_allocator]` records the largest request, so the file holds
//! a single `#[test]`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use river_dsp::wav::SampleFormat::{Float32, Pcm16, Pcm32, Pcm8};
use river_dsp::wav::{WavData, WavError, WavReader, WavSpec, WavWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, recording the largest request.
struct PeakRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; recording the size has no other effect.
unsafe impl GlobalAlloc for PeakRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakRequest = PeakRequest;

/// Byte offsets in a file `WavWriter` wrote.
const FMT_SIZE: usize = 16;
const FMT_END: usize = 36;
const DATA_SIZE: usize = 40;
const HEADER: usize = 44;

/// Reads `bytes`, failing `case` on a panic or on a request over the bound.
fn read(case: &str, bytes: &[u8]) -> Result<WavData, WavError> {
    LARGEST.store(0, Ordering::Relaxed);
    let result = panic::catch_unwind(AssertUnwindSafe(|| WavReader::read(bytes)));
    let largest = LARGEST.load(Ordering::Relaxed);
    let result = result.unwrap_or_else(|_| panic!("{case}: the reader panicked"));
    let bound = 8 * bytes.len() + 4096;
    assert!(largest <= bound, "{case}: asked {largest} B, bound {bound}");
    result
}

fn assert_malformed(case: &str, bytes: &[u8], text: &str) {
    match read(case, bytes) {
        Err(WavError::Malformed(m)) if m.contains(text) => {}
        other => panic!("{case}: want Malformed(\"…{text}…\"), got {other:?}"),
    }
}

fn wav(spec: WavSpec, samples: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::new();
    WavWriter::write(&mut bytes, spec, samples).unwrap();
    bytes
}

/// `file` with the little-endian `v` written at `at`.
fn with_u32(file: &[u8], at: usize, v: u32) -> Vec<u8> {
    let mut bytes = file.to_vec();
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    bytes
}

/// `file` with `insert` spliced in at `at`.
fn spliced(file: &[u8], at: usize, insert: &[u8]) -> Vec<u8> {
    [&file[..at], insert, &file[at..]].concat()
}

#[test]
fn hostile_wav_files_never_panic_or_over_allocate() {
    // 52 bytes of PCM16 whose `data` claims 0xFFFF_FFF0 bytes.
    let lying = wav(WavSpec::mono_pcm16(20_160), &[0.1, -0.1, 0.2, -0.2]);
    assert_eq!(lying.len(), 52);
    let lying = with_u32(&lying, DATA_SIZE, 0xFFFF_FFF0);
    assert_malformed("data claims 0xFFFF_FFF0", &lying, "truncated");

    // A legal 17-byte `fmt ` chunk and its pad byte.
    let plain = wav(WavSpec::mono_pcm16(8_000), &[0.25, -0.25]);
    let odd_fmt = with_u32(&spliced(&plain, FMT_END, &[0, 0]), FMT_SIZE, 17);
    let want = WavReader::read(plain.as_slice()).unwrap();
    assert_eq!(read("17-byte fmt", &odd_fmt).unwrap(), want);

    // Stereo PCM16 holding three samples: half a frame too few.
    let mut partial = wav(WavSpec::mono_pcm16(8_000), &[0.5, -0.5, 0.5]);
    partial[22] = 2;
    assert_malformed("stereo, 3 samples", &partial, "frames");

    for seed in 0..256 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let spec = WavSpec {
            channels: rng.random_range(1..4),
            sample_rate: [8_000, 20_160, 44_100][rng.random_range(0..3usize)],
            sample_format: [Pcm8, Pcm16, Pcm32, Float32][rng.random_range(0..4usize)],
        };
        let n = rng.random_range(0..48usize) * spec.channels as usize;
        let samples: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let file = wav(spec, &samples);
        let want = read(&format!("seed {seed}: valid"), &file).unwrap();
        let data = n * spec.sample_format.bytes_per_sample();
        let case = |what: &str| format!("seed {seed}: {what}");
        let lie = |rng: &mut StdRng| {
            [64, 1 << 16, u32::MAX][rng.random_range(0..3usize)] - rng.random_range(0..64u32)
        };

        let cut = rng.random_range(0..HEADER + data);
        assert_malformed(&case("cut short"), &file[..cut], "");

        let m = with_u32(&file, 4, lie(rng));
        assert_eq!(read(&case("lying RIFF size"), &m).unwrap(), want);

        let m = with_u32(&file, FMT_SIZE, lie(rng));
        let _ = read(&case("lying fmt size"), &m);

        let claim = rng.random_range((file.len() - HEADER) as u32 + 1..=u32::MAX);
        let m = with_u32(&file, DATA_SIZE, claim);
        assert_malformed(&case("data claims too much"), &m, "truncated");

        let ext = rng.random_range(1..40usize);
        let body = vec![0xA5; ext + ext % 2];
        let m = with_u32(&spliced(&file, FMT_END, &body), FMT_SIZE, 16 + ext as u32);
        assert_eq!(read(&case("fmt extension"), &m).unwrap(), want);

        let len = 2 * rng.random_range(0..50usize) + 1;
        let mut chunk = [*b"LIST", (len as u32).to_le_bytes()].concat();
        chunk.resize(8 + len + 1, 0x5A);
        let m = spliced(&file, [12, FMT_END][rng.random_range(0..2usize)], &chunk);
        assert_eq!(read(&case("odd unknown chunk"), &m).unwrap(), want);

        let mut m = file.clone();
        m[22..24].fill(0);
        assert_malformed(&case("zero channels"), &m, "zero channels");
        assert_malformed(&case("0 Hz"), &with_u32(&file, 24, 0), "zero sample rate");

        if spec.channels > 1 && n > 0 {
            let short = data - spec.sample_format.bytes_per_sample();
            let m = with_u32(&file[..HEADER + short], DATA_SIZE, short as u32);
            assert_malformed(&case("partial frame"), &m, "frames");
        }

        let mut m = file.clone();
        for _ in 0..rng.random_range(1..5u32) {
            m[rng.random_range(0..HEADER)] ^= 1u8 << rng.random_range(0..8u32);
        }
        let _ = read(&case("header bit flips"), &m);
    }
}
