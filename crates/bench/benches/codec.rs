//! Wire-codec throughput for the Dynamic River network path, on the
//! path senders and receivers actually run: v2 frames in each sample
//! encoding, encoded through a warm [`StreamOut`] (one reused frame
//! buffer) and decoded through [`Decoder::feed`], plus the CRC-32 that
//! guards every frame. Records are the paper's 840-sample audio records.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dynamic_river::codec::{crc32, encode_into, Decoder, SampleEncoding, WireFormat};
use dynamic_river::net::StreamOut;
use dynamic_river::operator::{NullSink, Operator};
use dynamic_river::{Payload, Record};
use std::hint::black_box;

const SAMPLES: usize = 840;

const ENCODINGS: [(&str, SampleEncoding); 3] = [
    ("v2-f64", SampleEncoding::F64),
    ("v2-f32", SampleEncoding::F32),
    ("v2-i16", SampleEncoding::I16),
];

fn audio_record() -> Record {
    Record::data(
        1,
        Payload::f64(
            (0..SAMPLES)
                .map(|i| (i as f64 * 0.1).sin())
                .collect::<Vec<f64>>(),
        ),
    )
    .with_seq(42)
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/encode");
    let rec = audio_record();
    group.throughput(Throughput::Bytes((SAMPLES * 8) as u64));
    for (label, enc) in ENCODINGS {
        let mut out = StreamOut::new(std::io::sink()).with_format(WireFormat::V2(enc));
        group.bench_with_input(BenchmarkId::from_parameter(label), &rec, |b, rec| {
            // Cloning a record shares its samples; the clone is what a
            // chain hands `streamout`.
            b.iter(|| out.on_record(rec.clone(), &mut NullSink).unwrap());
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/decode");
    for (label, enc) in ENCODINGS {
        let mut frame = Vec::new();
        encode_into(&audio_record(), WireFormat::V2(enc), &mut frame);
        let mut decoder = Decoder::new();
        let mut events = Vec::new();
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(label), &frame, |b, frame| {
            b.iter(|| {
                decoder.feed(frame, &mut events).unwrap();
                black_box(events.drain(..).count())
            });
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/crc32");
    // A scope marker's frame (under the 64 bytes `crc32` starts folding
    // at, so the table path), a v2/F32 frame, one record's f64 samples,
    // and one server read burst.
    for &len in &[48, 3_366, SAMPLES * 8, 64 * 1024] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &bytes, |b, bytes| {
            b.iter(|| black_box(crc32(black_box(bytes))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_crc32);
criterion_main!(benches);
