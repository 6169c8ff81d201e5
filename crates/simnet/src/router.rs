//! Border routing.
//!
//! The [`BorderRouter`] sits where NCSA's border router sits in Fig. 4: all
//! flows cross it, it classifies their direction relative to the protected
//! address space, consults a pluggable [`RouteFilter`] (the Black Hole
//! Router from crate `bhr` implements this), and keeps counters. Dropped
//! flows are still *observed* — the paper's BHR "recorded 26.85 million
//! scans" in one hour — so the router reports an outcome rather than
//! silently swallowing traffic.

use std::fmt;
use std::net::Ipv4Addr;

use crate::flow::{Direction, Flow};
use crate::time::SimTime;
use crate::topology::{Topology, Zone};

/// Why a flow was dropped at the border.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// Source address is null-routed (black-holed).
    NullRouted { reason: String },
    /// Honeynet egress containment: new outbound connection from an
    /// isolated container (§IV-C iptables egress drop).
    EgressContainment,
    /// Administrative policy.
    Policy { rule: String },
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::NullRouted { reason } => write!(f, "null-routed ({reason})"),
            DropReason::EgressContainment => write!(f, "egress containment"),
            DropReason::Policy { rule } => write!(f, "policy ({rule})"),
        }
    }
}

/// Routing decision for a single flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteDecision {
    Forward,
    Drop(DropReason),
}

/// Pluggable per-flow filter consulted by the border router.
pub trait RouteFilter {
    /// Decide whether to forward or drop `flow` at time `t`.
    fn check(&mut self, t: SimTime, flow: &Flow) -> RouteDecision;
}

/// A filter that forwards everything (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct ForwardAll;

impl RouteFilter for ForwardAll {
    fn check(&mut self, _t: SimTime, _flow: &Flow) -> RouteDecision {
        RouteDecision::Forward
    }
}

/// Outcome of routing one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    pub direction: Direction,
    /// `Some` if the flow was dropped at the border.
    pub dropped: Option<DropReason>,
}

impl RouteOutcome {
    pub fn delivered(&self) -> bool {
        self.dropped.is_none()
    }
}

/// Counters maintained by the border router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    pub inbound: u64,
    pub outbound: u64,
    pub internal: u64,
    pub transit: u64,
    pub dropped: u64,
    pub forwarded: u64,
}

impl RouterStats {
    pub fn total(&self) -> u64 {
        self.inbound + self.outbound + self.internal + self.transit
    }
}

/// The border router.
#[derive(Debug, Default)]
pub struct BorderRouter {
    stats: RouterStats,
}

impl BorderRouter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Classify a flow's direction against the topology's zones.
    pub fn classify(topo: &Topology, src: Ipv4Addr, dst: Ipv4Addr) -> Direction {
        let src_internal = !matches!(topo.zone_of_addr(src), Zone::External);
        let dst_internal = !matches!(topo.zone_of_addr(dst), Zone::External);
        match (src_internal, dst_internal) {
            (false, true) => Direction::Inbound,
            (true, false) => Direction::Outbound,
            (true, true) => Direction::Internal,
            (false, false) => Direction::Transit,
        }
    }

    /// Route one flow: classify, consult the filter, update counters.
    pub fn route(
        &mut self,
        topo: &Topology,
        filter: &mut dyn RouteFilter,
        t: SimTime,
        flow: &Flow,
    ) -> RouteOutcome {
        let direction = Self::classify(topo, flow.src, flow.dst);
        match direction {
            Direction::Inbound => self.stats.inbound += 1,
            Direction::Outbound => self.stats.outbound += 1,
            Direction::Internal => self.stats.internal += 1,
            Direction::Transit => self.stats.transit += 1,
        }
        let dropped = match filter.check(t, flow) {
            RouteDecision::Forward => {
                self.stats.forwarded += 1;
                None
            }
            RouteDecision::Drop(reason) => {
                self.stats.dropped += 1;
                Some(reason)
            }
        };
        RouteOutcome { direction, dropped }
    }

    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = RouterStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;
    use crate::topology::NcsaTopologyBuilder;

    struct DropExternal;
    impl RouteFilter for DropExternal {
        fn check(&mut self, _t: SimTime, flow: &Flow) -> RouteDecision {
            if flow.src.octets()[0] == 103 {
                RouteDecision::Drop(DropReason::NullRouted {
                    reason: "mass-scanner".into(),
                })
            } else {
                RouteDecision::Forward
            }
        }
    }

    fn probe(src: &str, dst: &str) -> Flow {
        Flow::probe(
            FlowId(0),
            SimTime::EPOCH,
            src.parse().unwrap(),
            dst.parse().unwrap(),
            22,
        )
    }

    #[test]
    fn direction_classification() {
        let topo = NcsaTopologyBuilder::default().build();
        let classify = |s: &str, d: &str| {
            BorderRouter::classify(&topo, s.parse().unwrap(), d.parse().unwrap())
        };
        assert_eq!(classify("103.102.1.1", "141.142.2.1"), Direction::Inbound);
        assert_eq!(classify("141.142.2.1", "8.8.8.8"), Direction::Outbound);
        assert_eq!(classify("141.142.2.1", "141.142.2.2"), Direction::Internal);
        assert_eq!(classify("1.1.1.1", "8.8.8.8"), Direction::Transit);
    }

    #[test]
    fn filter_drops_and_counts() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut router = BorderRouter::new();
        let mut filter = DropExternal;
        let out = router.route(
            &topo,
            &mut filter,
            SimTime::EPOCH,
            &probe("103.102.1.1", "141.142.2.1"),
        );
        assert!(!out.delivered());
        let out = router.route(
            &topo,
            &mut filter,
            SimTime::EPOCH,
            &probe("9.9.9.9", "141.142.2.1"),
        );
        assert!(out.delivered());
        let s = router.stats();
        assert_eq!(s.inbound, 2);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.forwarded, 1);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn forward_all_forwards() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut router = BorderRouter::new();
        let mut f = ForwardAll;
        let out = router.route(
            &topo,
            &mut f,
            SimTime::EPOCH,
            &probe("1.2.3.4", "141.142.2.1"),
        );
        assert!(out.delivered());
        assert_eq!(out.direction, Direction::Inbound);
    }
}
