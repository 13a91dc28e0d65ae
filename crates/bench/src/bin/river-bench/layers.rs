//! Direct probes of the layers that sit under the workloads' paths:
//! the anomaly and FFT kernels, the codec both ways in all three sample
//! encodings, CRC-32, and record assembly. Each is a loop over one pool
//! clip, best of five, so the numbers do not depend on the workload
//! whose traced run happens to take them.

use crate::metrics::Values;
use crate::sut::{self, Wire};
use std::hint::black_box;
use std::time::Instant;

const REPEATS: usize = 5;

/// Fastest of [`REPEATS`] runs of `f`, in nanoseconds.
fn best_ns(mut f: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures every direct-probe metric over `clip` (one pool clip's
/// samples) and sets them in `values`.
pub fn probe(clip: &[f64], values: &mut Values) -> Result<(), String> {
    let cfg = sut::config();

    let push_ns = best_ns(|| {
        black_box(sut::anomaly_push_all(black_box(clip)));
    });
    values.set(
        "timeseries.anomaly_push_ns_per_sample",
        push_ns / clip.len() as f64,
    );

    let mut kernel = sut::SpectrumKernel::new();
    let calls = clip.len() / cfg.record_len;
    let fft_ns = best_ns(|| {
        for record in clip.chunks_exact(cfg.record_len) {
            black_box(kernel.magnitudes(black_box(record)));
        }
    });
    values.set("dsp.realfft840_ns_per_call", fft_ns / calls as f64);

    let records = sut::clip_records(clip).map_err(|e| e.to_string())?;
    let n = records.len() as f64;

    let mut decode_f32_ns = 0.0;
    let mut f32_bytes = Vec::new();
    for wire in Wire::ALL {
        let label = wire.label();
        let mut bytes = Vec::new();
        let encode_ns = best_ns(|| bytes = sut::encode(black_box(&records), wire));
        let decode_ns = best_ns(|| {
            black_box(sut::decode(black_box(&bytes)));
        });
        values.set(
            &format!("codec.encode_ns_per_record.{label}"),
            encode_ns / n,
        );
        values.set(
            &format!("codec.decode_ns_per_record.{label}"),
            decode_ns / n,
        );
        values.set(
            &format!("codec.wire_bytes_per_record.{label}"),
            bytes.len() as f64 / n,
        );
        match wire {
            Wire::F64 => {
                let crc_ns = best_ns(|| {
                    black_box(sut::crc32(black_box(&bytes)));
                });
                values.set(
                    "codec.crc32_ns_per_kib",
                    crc_ns * 1024.0 / bytes.len() as f64,
                );
            }
            Wire::F32 => {
                decode_f32_ns = decode_ns;
                f32_bytes = bytes;
            }
            Wire::I16 => {}
        }
    }

    // Assembly = the assembler's whole feed-and-deliver loop minus the
    // decoder it contains, over the same v2/F32 bytes.
    let assemble_ns = best_ns(|| {
        black_box(sut::assemble(black_box(&f32_bytes)));
    });
    values.set(
        "net.assemble_ns_per_record",
        (assemble_ns - decode_f32_ns) / n,
    );
    Ok(())
}
