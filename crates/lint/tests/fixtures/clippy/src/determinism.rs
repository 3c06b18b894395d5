//! Former D-001 and D-003 cases: wall clocks and unordered containers,
//! a `use … as` alias included, plus std's ambient-entropy hasher.

use std::collections::HashMap as Registry;
use std::collections::{BTreeMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn wall_clock() -> Instant {
    Instant::now()
}

pub fn wall_clock_sys() -> SystemTime {
    SystemTime::now()
}

pub fn aliased(peers: &Registry<u32, u64>) -> usize {
    peers.len()
}

pub fn unordered() -> HashSet<u32> {
    HashSet::new()
}

pub fn ambient_entropy() -> std::hash::RandomState {
    std::hash::RandomState::new()
}

// Comments and strings stay silent: Instant::now(), HashMap::new().
pub fn innocent() -> (&'static str, BTreeMap<u32, u64>) {
    ("Instant::now() and HashMap in a string", BTreeMap::new())
}
