//! Auto-blocking policy and the border-router filter.
//!
//! Fig. 4's response path: mass scanners are blocked automatically by
//! rate-based policy ("real-time response to mass scanners"), while
//! targeted attacks are blocked by detector-driven remediation through the
//! API. [`BhrFilter`] plugs into the simulation border router as a
//! [`simnet::router::RouteFilter`].

use std::net::Ipv4Addr;

use simnet::flow::Flow;
use simnet::rng::FxHashMap;
use simnet::router::{DropReason, RouteDecision, RouteFilter};
use simnet::time::{SimDuration, SimTime};

use crate::api::BhrHandle;

/// Rate-based auto-block policy: a source exceeding `max_probes` failed
/// probes within `window` is null-routed for `block_ttl`.
#[derive(Debug, Clone)]
pub struct AutoBlockPolicy {
    pub max_probes: u32,
    pub window: SimDuration,
    pub block_ttl: Option<SimDuration>,
}

impl Default for AutoBlockPolicy {
    fn default() -> Self {
        AutoBlockPolicy {
            max_probes: 100,
            window: SimDuration::from_mins(1),
            block_ttl: Some(SimDuration::from_hours(24)),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ProbeWindow {
    start: SimTime,
    count: u32,
}

/// The border filter: consults the shared BHR table, counts recorded
/// (dropped) scans, and applies the auto-block policy to probe-like flows.
#[derive(Debug)]
pub struct BhrFilter {
    handle: BhrHandle,
    policy: Option<AutoBlockPolicy>,
    probes: FxHashMap<Ipv4Addr, ProbeWindow>,
    scans_recorded: u64,
    auto_blocks: u64,
}

impl BhrFilter {
    pub fn new(handle: BhrHandle, policy: Option<AutoBlockPolicy>) -> Self {
        BhrFilter {
            handle,
            policy,
            probes: FxHashMap::default(),
            scans_recorded: 0,
            auto_blocks: 0,
        }
    }

    /// Scans that hit an installed null route (the paper's "black hole
    /// router recorded 26.85 million scans").
    pub fn scans_recorded(&self) -> u64 {
        self.scans_recorded
    }

    /// Number of sources auto-blocked by the rate policy.
    pub fn auto_blocks(&self) -> u64 {
        self.auto_blocks
    }

    pub fn handle(&self) -> &BhrHandle {
        &self.handle
    }

    fn note_probe(&mut self, t: SimTime, src: Ipv4Addr) {
        let Some(policy) = &self.policy else { return };
        let w = self
            .probes
            .entry(src)
            .or_insert(ProbeWindow { start: t, count: 0 });
        if t.saturating_since(w.start) > policy.window {
            w.start = t;
            w.count = 0;
        }
        w.count += 1;
        if w.count >= policy.max_probes {
            self.auto_blocks += 1;
            self.handle
                .block(t, src, "auto: scan rate exceeded", policy.block_ttl);
            self.probes.remove(&src);
        }
    }
}

impl RouteFilter for BhrFilter {
    fn check(&mut self, t: SimTime, flow: &Flow) -> RouteDecision {
        if let Some(block) = self.handle.active_block(t, flow.src) {
            self.scans_recorded += 1;
            return RouteDecision::Drop(DropReason::NullRouted {
                reason: block.reason.to_string(),
            });
        }
        if flow.state.probe_like() {
            self.note_probe(t, flow.src);
        }
        RouteDecision::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::flow::FlowId;

    fn probe(t: u64, src: &str, dst_last: u8) -> Flow {
        Flow::probe(
            FlowId(t),
            SimTime::from_secs(t),
            src.parse().unwrap(),
            format!("141.142.2.{dst_last}").parse().unwrap(),
            22,
        )
    }

    #[test]
    fn rate_policy_blocks_fast_scanner() {
        let handle = BhrHandle::new();
        let mut filter = BhrFilter::new(
            handle.clone(),
            Some(AutoBlockPolicy {
                max_probes: 10,
                window: SimDuration::from_mins(1),
                block_ttl: None,
            }),
        );
        let mut dropped = 0;
        for i in 0..50u64 {
            let f = probe(i, "103.102.1.1", (i % 250) as u8);
            match filter.check(SimTime::from_secs(i), &f) {
                RouteDecision::Forward => {}
                RouteDecision::Drop(_) => dropped += 1,
            }
        }
        // First 10 probes forward (the 10th triggers the block); the
        // remaining 40 are recorded drops.
        assert_eq!(dropped, 40);
        assert_eq!(filter.scans_recorded(), 40);
        assert_eq!(filter.auto_blocks(), 1);
        assert_eq!(handle.active_blocks(), 1);
    }

    #[test]
    fn dropped_flows_leave_the_audit_log_alone() {
        let policy = AutoBlockPolicy {
            max_probes: 10,
            window: SimDuration::from_mins(1),
            block_ttl: None,
        };
        let audit_len_after = |dropped: u64| {
            let handle = BhrHandle::new();
            let mut filter = BhrFilter::new(handle.clone(), Some(policy.clone()));
            for i in 0..10 + dropped {
                let f = probe(i, "103.102.1.1", (i % 250) as u8);
                let decision = filter.check(SimTime::from_secs(i), &f);
                if i >= 10 {
                    let RouteDecision::Drop(DropReason::NullRouted { reason }) = decision else {
                        panic!("probe {i} after the auto-block forwarded");
                    };
                    assert_eq!(reason, "auto: scan rate exceeded");
                }
            }
            assert_eq!(filter.scans_recorded(), dropped);
            handle.audit_log().len()
        };
        // One auto-block, then N dropped probes: only the block is logged.
        assert_eq!(audit_len_after(1), 1);
        assert_eq!(audit_len_after(500), 1);
    }

    #[test]
    fn slow_scanner_evades_rate_policy() {
        let handle = BhrHandle::new();
        let mut filter = BhrFilter::new(
            handle,
            Some(AutoBlockPolicy {
                max_probes: 10,
                window: SimDuration::from_mins(1),
                block_ttl: None,
            }),
        );
        // One probe every 2 minutes: window keeps resetting.
        for i in 0..30u64 {
            let f = probe(i * 120, "77.72.1.1", (i % 250) as u8);
            assert_eq!(
                filter.check(SimTime::from_secs(i * 120), &f),
                RouteDecision::Forward
            );
        }
        assert_eq!(filter.auto_blocks(), 0);
    }

    #[test]
    fn manual_block_via_api_respected() {
        let handle = BhrHandle::new();
        let mut filter = BhrFilter::new(handle.clone(), None);
        let f = probe(0, "111.200.1.1", 5);
        assert_eq!(
            filter.check(SimTime::from_secs(0), &f),
            RouteDecision::Forward
        );
        // Operator blocks via the API (detector-driven remediation).
        handle.block(
            SimTime::from_secs(1),
            "111.200.1.1".parse().unwrap(),
            "ransomware C2",
            None,
        );
        let f2 = probe(2, "111.200.1.1", 6);
        assert!(matches!(
            filter.check(SimTime::from_secs(2), &f2),
            RouteDecision::Drop(DropReason::NullRouted { .. })
        ));
    }

    #[test]
    fn established_flows_do_not_count_as_probes() {
        let handle = BhrHandle::new();
        let mut filter = BhrFilter::new(
            handle,
            Some(AutoBlockPolicy {
                max_probes: 2,
                window: SimDuration::from_hours(1),
                block_ttl: None,
            }),
        );
        for i in 0..10u64 {
            let f = Flow::established(
                FlowId(i),
                SimTime::from_secs(i),
                SimDuration::from_secs(1),
                "9.9.9.9".parse().unwrap(),
                40_000,
                "141.142.2.1".parse().unwrap(),
                443,
                1_000,
                1_000,
            );
            assert_eq!(
                filter.check(SimTime::from_secs(i), &f),
                RouteDecision::Forward
            );
        }
        assert_eq!(filter.auto_blocks(), 0);
    }
}
