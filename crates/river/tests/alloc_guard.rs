//! Steady-state allocation guard for the sending half of the wire path.
//!
//! [`StreamOut`] encodes every record into one reused frame buffer
//! ([`dynamic_river::codec::encode_into`]) and hands it to its buffered
//! writer, so once that buffer has grown to the stream's frame size a
//! sender allocates nothing per record (DESIGN.md §13). This test pins
//! that with a counting `#[global_allocator]`: after a warm-up, a run of
//! paper-sized records (840 samples, v2/F32) through a `StreamOut` over
//! an in-memory writer performs **zero** heap allocations.
//!
//! The counter wraps the system allocator and counts only on a thread
//! that asked for it, because the test harness's own thread may still
//! be allocating (its bookkeeping for the test it just spawned) when a
//! measured window this short opens.

use dynamic_river::codec::{SampleEncoding, WireFormat};
use dynamic_river::net::StreamOut;
use dynamic_river::operator::{NullSink, Operator};
use dynamic_river::record::{Payload, Record};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting the allocation calls of
/// threads that set [`COUNTING`].
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_asked() {
    // `try_with`: the allocator also runs while a thread tears down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter (a const-initialized thread-local
// flag and an atomic, neither of which allocates) has no other effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_asked();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_asked();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An in-memory writer that keeps no bytes (so the measured window sees
/// the sender's allocations, not a growing `Vec`'s), only their count.
struct Discard(u64);

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn warm_streamout_does_not_allocate_per_record() {
    const WARM: u64 = 4;
    const MEASURED: u64 = 64;
    // Built up front: cloning a record shares its samples, so handing
    // the operator an owned record costs no allocation here.
    let samples: Vec<f64> = (0..840).map(|i| (f64::from(i) * 0.37).sin()).collect();
    let record = Record::data(2, Payload::f64(samples));
    let mut wire = Discard(0);
    let mut out = StreamOut::new(&mut wire).with_format(WireFormat::V2(SampleEncoding::F32));
    let mut send = |seq: u64| {
        out.on_record(record.clone().with_seq(seq), &mut NullSink)
            .unwrap();
    };

    (0..WARM).for_each(&mut send);
    COUNTING.set(true);
    (WARM..WARM + MEASURED).for_each(&mut send);
    COUNTING.set(false);

    assert_eq!(
        ALLOCS.load(Ordering::Relaxed),
        0,
        "a warm StreamOut allocated while sending {MEASURED} records"
    );
    out.on_eos(&mut NullSink).unwrap();
    drop(out);
    // 840 f32 samples, a 2-byte block header, a 6- or 7-byte frame
    // header and the CRC per record, plus the 4-byte sentinel.
    assert!(wire.0 > (WARM + MEASURED) * (840 * 4 + 12));
}
