//! Process-level probes: a counting global allocator, `getrusage`, and
//! a memory-latency probe of the host.
//!
//! All are std-only. The allocator always tracks live heap bytes and
//! their high-water mark; it counts allocations only while a
//! [`count_allocs`] window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, tracking live heap bytes and counting
/// allocations (`alloc`, `alloc_zeroed` and `realloc` calls) while
/// [`count_allocs`] is running.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note(grown: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(grown as u64, Ordering::Relaxed) + grown as u64;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn release(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block can both be live while the data moves.
        note(new_size);
        release(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its value with the allocations made while it
/// ran. Counts are process-wide, so `f` must be the only thread
/// allocating (the benchmark runs every cell on one worker).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let value = f();
    COUNTING.store(false, Ordering::Relaxed);
    (value, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Runs `f` and returns its value with the most heap it held live
/// beyond what was live when it started. Like [`count_allocs`], `f`
/// must be the only thread allocating.
pub fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let value = f();
    (value, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and RUSAGE_SELF is a valid `who`.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU time of the whole process so far.
pub fn cpu_time() -> Duration {
    let usage = rusage();
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// A dependent-load chase through a 64 MiB random cycle: it measures
/// how long one load that misses the private caches takes right now.
///
/// Neighbours on a shared host slow this machine's memory system in
/// spells of seconds to minutes, and the simulator, whose cells hold
/// 45–115 MiB of heap, slows with it. The chase's code and data belong
/// to the benchmark alone and nothing allocates while it runs, so a
/// change to the program cannot move its reading.
pub struct LatencyProbe {
    next: Vec<u32>,
}

impl LatencyProbe {
    const ENTRIES: u32 = 16 << 20;
    const LOADS: u32 = 200_000;

    /// Links every entry into one random cycle (Sattolo's shuffle), so
    /// the chase never settles into a short loop that caches well.
    pub fn new() -> LatencyProbe {
        let mut next: Vec<u32> = (0..Self::ENTRIES).collect();
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        for i in (1..next.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            next.swap(i, (state % i as u64) as usize);
        }
        LatencyProbe { next }
    }

    /// Nanoseconds per load over one chase.
    pub fn sample(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::LOADS {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        started.elapsed().as_nanos() as f64 / f64::from(Self::LOADS)
    }
}
