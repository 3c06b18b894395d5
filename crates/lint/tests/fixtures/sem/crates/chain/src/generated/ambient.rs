//! Fixture under a `[paths] skip` prefix: it would trip P-001 and
//! N-001 if scanned, so any finding here means the skip list leaked.

pub static mut GENERATED: u64 = 0;

pub fn close_enough(x: f64) -> bool {
    x == 0.5
}
