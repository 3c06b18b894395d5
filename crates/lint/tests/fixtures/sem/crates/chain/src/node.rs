//! Fixture node with seeded semantic violations:
//!
//! * `Arc` reachable from a `Protocol` handler (P-003 with a call path)
//! * a float `==` comparison (N-001)
//! * a truncating cast of a seed (N-002)
//! * raw `+` on `.as_micros()` output (N-003)
//! * `ChainMsg::Orphan` is *constructed* in an arm body but never
//!   matched — construction must not count as coverage (E-001).

use crate::msg::ChainMsg;
use std::collections::BTreeMap;
use std::sync::Arc;

pub struct ChainNode {
    peers: BTreeMap<u32, u64>,
    shared: Option<Arc<u64>>,
}

impl Protocol for ChainNode {
    type Msg = ChainMsg;

    fn on_message(&mut self, msg: ChainMsg, now: u64, seed: u64) {
        let reading = 0.5f64;
        if reading == 0.5 {
            let _ = seed as u32;
        }
        let _deadline = now.as_micros() + 5;
        match msg {
            ChainMsg::Ping { from } => {
                self.remember(from);
                self.reply(ChainMsg::Orphan(42));
            }
            ChainMsg::Pong => {}
            _ => {}
        }
    }
}

impl ChainNode {
    fn remember(&mut self, from: u32) {
        self.peers.insert(from, 1);
        self.share(from);
    }

    fn share(&mut self, from: u32) {
        self.shared = Some(Arc::new(u64::from(from)));
    }

    fn reply(&mut self, _msg: ChainMsg) {}
}
