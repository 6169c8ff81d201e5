//! Honeynet isolation: egress containment and the overlay network.
//!
//! §IV-C: containers run "in a network sandbox that implemented a Layer-3
//! private overlay network on a separated CIDR block", with iptables rules
//! that "monitor all new outgoing connections and drop them before their
//! packets were routed to the Internet."

use std::net::Ipv4Addr;

use simnet::addr::Cidr;
use simnet::flow::Flow;
use simnet::router::{DropReason, RouteDecision, RouteFilter};
use simnet::time::SimTime;

/// The egress firewall: drops new outbound connections from the honeynet
/// unless whitelisted, and logs every drop for alerting.
#[derive(Debug, Clone)]
pub struct EgressFirewall {
    /// Source range under containment (the honeynet segment + overlay).
    contained: Vec<Cidr>,
    /// Destinations that are always allowed (e.g. the log collector).
    allow: Vec<(Cidr, Option<u16>)>,
    drops: u64,
}

/// A logged egress drop.
#[derive(Debug, Clone, PartialEq)]
pub struct EgressDrop {
    pub ts: SimTime,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub port: u16,
}

impl EgressFirewall {
    pub fn new(contained: Vec<Cidr>) -> EgressFirewall {
        EgressFirewall {
            contained,
            allow: Vec::new(),
            drops: 0,
        }
    }

    /// Allow traffic to a destination block (optionally one port).
    pub fn allow(&mut self, dst: Cidr, port: Option<u16>) -> &mut Self {
        self.allow.push((dst, port));
        self
    }

    fn is_contained(&self, addr: Ipv4Addr) -> bool {
        self.contained.iter().any(|c| c.contains(addr))
    }

    fn is_allowed(&self, dst: Ipv4Addr, port: u16) -> bool {
        self.allow
            .iter()
            .any(|(c, p)| c.contains(dst) && p.is_none_or(|pp| pp == port))
    }

    /// Whether a flow from the honeynet should be dropped. Replies *into*
    /// the honeynet are never dropped — only new outbound connections.
    pub fn should_drop(&self, flow: &Flow) -> bool {
        self.is_contained(flow.src)
            && !self.is_contained(flow.dst)
            && !self.is_allowed(flow.dst, flow.dst_port)
    }

    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl RouteFilter for EgressFirewall {
    fn check(&mut self, _t: SimTime, flow: &Flow) -> RouteDecision {
        if self.should_drop(flow) {
            self.drops += 1;
            RouteDecision::Drop(DropReason::EgressContainment)
        } else {
            RouteDecision::Forward
        }
    }
}

/// The Layer-3 private overlay network allocating container addresses from
/// a dedicated CIDR block.
#[derive(Debug, Clone)]
pub struct OverlayNetwork {
    cidr: Cidr,
    next: u64,
}

impl OverlayNetwork {
    /// Create over a block; host addresses start at `.2` (`.1` is the
    /// gateway).
    pub fn new(cidr: Cidr) -> OverlayNetwork {
        OverlayNetwork { cidr, next: 2 }
    }

    pub fn cidr(&self) -> Cidr {
        self.cidr
    }

    /// Allocate the next container address.
    ///
    /// # Panics
    /// Panics when the block is exhausted.
    pub fn allocate(&mut self) -> Ipv4Addr {
        assert!(self.next < self.cidr.size() - 1, "overlay block exhausted");
        let a = self.cidr.nth(self.next);
        self.next += 1;
        a
    }

    /// Number of addresses handed out.
    pub fn allocated(&self) -> u64 {
        self.next - 2
    }
}

/// Telemetry monitor that raises a site notice whenever the egress
/// firewall drops a containment-violating flow. Symbolizes downstream to
/// `alert_egress_drop` — the signal that something inside the honeypot is
/// trying to call out (e.g. ransomware contacting its C2).
#[derive(Debug, Default)]
pub struct IsolationMonitor {
    drops_seen: u64,
}

impl IsolationMonitor {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn drops_seen(&self) -> u64 {
        self.drops_seen
    }
}

impl telemetry::monitor::Monitor for IsolationMonitor {
    fn name(&self) -> &'static str {
        "isolation"
    }

    fn observe(
        &mut self,
        ctx: &simnet::engine::EventCtx<'_>,
        action: &simnet::action::Action,
        out: &mut Vec<telemetry::record::LogRecord>,
    ) {
        if !matches!(ctx.dropped, Some(DropReason::EgressContainment)) {
            return;
        }
        let Some(flow) = action.flow() else { return };
        self.drops_seen += 1;
        out.push(telemetry::record::LogRecord::Notice(
            telemetry::record::NoticeRecord {
                ts: ctx.time,
                note: telemetry::record::NoticeKind::Custom("alert_egress_drop".into()),
                msg: format!(
                    "egress containment dropped {} -> {}:{}",
                    flow.src, flow.dst, flow.dst_port
                )
                .into(),
                src: flow.src,
                dst: Some(flow.dst),
                sub: "honeynet isolation".into(),
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::flow::FlowId;

    fn flow(src: &str, dst: &str, port: u16) -> Flow {
        Flow::established(
            FlowId(1),
            SimTime::from_secs(0),
            simnet::time::SimDuration::from_secs(1),
            src.parse().unwrap(),
            40_000,
            dst.parse().unwrap(),
            port,
            100,
            100,
        )
    }

    fn honeynet_cidr() -> Cidr {
        "141.142.77.0/24".parse().unwrap()
    }

    #[test]
    fn outbound_from_honeynet_dropped() {
        let mut fw = EgressFirewall::new(vec![honeynet_cidr()]);
        let f = flow("141.142.77.10", "194.145.1.1", 80);
        assert!(matches!(
            fw.check(SimTime::from_secs(0), &f),
            RouteDecision::Drop(DropReason::EgressContainment)
        ));
        assert_eq!(fw.drops(), 1);
    }

    #[test]
    fn inbound_and_intra_honeynet_allowed() {
        let mut fw = EgressFirewall::new(vec![honeynet_cidr()]);
        let inbound = flow("111.200.1.1", "141.142.77.10", 5432);
        assert_eq!(
            fw.check(SimTime::from_secs(0), &inbound),
            RouteDecision::Forward
        );
        let intra = flow("141.142.77.10", "141.142.77.11", 22);
        assert_eq!(
            fw.check(SimTime::from_secs(0), &intra),
            RouteDecision::Forward
        );
    }

    #[test]
    fn allowlist_respected() {
        let mut fw = EgressFirewall::new(vec![honeynet_cidr()]);
        fw.allow("192.168.100.0/24".parse().unwrap(), Some(514));
        let to_collector = flow("141.142.77.10", "192.168.100.3", 514);
        assert_eq!(
            fw.check(SimTime::from_secs(0), &to_collector),
            RouteDecision::Forward
        );
        let wrong_port = flow("141.142.77.10", "192.168.100.3", 80);
        assert!(matches!(
            fw.check(SimTime::from_secs(0), &wrong_port),
            RouteDecision::Drop(_)
        ));
    }

    #[test]
    fn overlay_allocates_unique_addresses() {
        let mut net = OverlayNetwork::new("10.77.0.0/24".parse().unwrap());
        let a = net.allocate();
        let b = net.allocate();
        assert_ne!(a, b);
        assert!(net.cidr().contains(a));
        assert_eq!(net.allocated(), 2);
        assert_eq!(a, "10.77.0.2".parse::<Ipv4Addr>().unwrap());
    }
}

#[cfg(test)]
mod monitor_tests {
    use super::*;
    use simnet::action::Action;
    use simnet::engine::EventCtx;
    use simnet::flow::{Direction, Flow, FlowId};
    use simnet::topology::NcsaTopologyBuilder;
    use telemetry::monitor::Monitor as _;

    #[test]
    fn isolation_monitor_raises_notice_on_egress_drop() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut mon = IsolationMonitor::new();
        let reason = DropReason::EgressContainment;
        let flow = Flow::probe(
            FlowId(1),
            SimTime::from_secs(5),
            "141.142.77.10".parse().unwrap(),
            "194.145.1.1".parse().unwrap(),
            443,
        );
        let ctx = EventCtx {
            time: SimTime::from_secs(5),
            direction: Direction::Outbound,
            dropped: Some(&reason),
            topo: &topo,
        };
        let mut out = Vec::new();
        mon.observe(&ctx, &Action::Flow(flow.clone()), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(mon.drops_seen(), 1);
        // Null-routed drops are not isolation events.
        let nr = DropReason::NullRouted { reason: "x".into() };
        let ctx2 = EventCtx {
            time: SimTime::from_secs(6),
            direction: Direction::Inbound,
            dropped: Some(&nr),
            topo: &topo,
        };
        mon.observe(&ctx2, &Action::Flow(flow), &mut out);
        assert_eq!(out.len(), 1);
    }
}
