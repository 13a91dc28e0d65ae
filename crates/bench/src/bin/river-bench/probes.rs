//! Process-level probes the benchmark takes from outside the system
//! under test: a counting allocator, CPU time and peak resident set.
//!
//! The CPU and RSS probes read `/proc` and return `None` where it does
//! not exist; callers then leave the metric out and say so.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The system allocator with an allocation counter that is switched on
/// only around the passes that report `alloc.*`. While the gate is off
/// an allocation costs one relaxed load more than the plain allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    // Statistics only: the counters publish no other data, so relaxed
    // ordering is enough.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from a previous call into this
        // allocator, which handed out `System` memory with that layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes counted while the gate was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    pub allocs: u64,
    pub bytes: u64,
}

/// Runs `f` with the allocation counter on (all threads of the process
/// are counted) and returns what was counted. Callers are serialized,
/// so one caller's reset cannot zero another's count.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    // The guarded value is `()`: a panicked holder leaves nothing invalid.
    let _serial = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let counts = AllocCounts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    (out, counts)
}

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100
/// on every Linux port; without libc there is no `sysconf` to ask.
const TICKS_PER_SEC: u64 = 100;

/// User plus system CPU time of the whole process (all threads, living
/// and joined) in microseconds.
pub fn cpu_time_us() -> Option<u64> {
    parse_stat_cpu_us(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    // The command name (field 2) may contain spaces and parentheses;
    // the numbered fields start after its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / TICKS_PER_SEC))
}

/// Peak resident set (`VmHWM`) of the process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_status_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores the process may run on; thread and connection counts are
/// clamped to it and every report states it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (river) bench) R 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 3 0 99 1 2";
        assert_eq!(parse_stat_cpu_us(stat), Some(1_750_000));
        assert_eq!(parse_stat_cpu_us("garbage"), None);
    }

    #[test]
    fn hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(20.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn allocations_inside_the_gate_are_counted() {
        // Other tests allocate (and may open the gate) concurrently, so
        // only lower bounds hold.
        let (v, counts) = count_allocs(|| vec![0u8; 4096]);
        assert!(counts.allocs >= 1 && counts.bytes >= 4096);
        drop(v);
    }
}
