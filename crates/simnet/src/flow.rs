//! Network flows (connection records).
//!
//! A [`Flow`] is what the border router routes and what the Zeek-like
//! monitor summarizes into `conn.log` entries. Connection states follow
//! Zeek's `conn_state` vocabulary so downstream symbolization rules read
//! like real Zeek policy.

use std::fmt;
use std::net::Ipv4Addr;

use crate::time::{SimDuration, SimTime};

/// Transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    Tcp,
    Udp,
    Icmp,
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Tcp => write!(f, "tcp"),
            Proto::Udp => write!(f, "udp"),
            Proto::Icmp => write!(f, "icmp"),
        }
    }
}

/// Zeek-style connection state summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnState {
    /// Connection attempt seen, no reply (classic scan signature).
    S0,
    /// Established and normally terminated.
    SF,
    /// Connection attempt rejected.
    Rej,
    /// Established, originator aborted.
    Rsto,
    /// Established, responder aborted.
    Rstr,
    /// Originator sent SYN followed by RST: port-scan fingerprint.
    Rstos0,
    /// Half-open: only originator traffic seen.
    Sh,
    /// No SYN seen, midstream traffic.
    Oth,
}

impl ConnState {
    /// Whether the connection actually exchanged application data.
    pub fn established(self) -> bool {
        matches!(self, ConnState::SF | ConnState::Rsto | ConnState::Rstr)
    }

    /// Whether this state is the signature of a failed probe.
    pub fn probe_like(self) -> bool {
        matches!(
            self,
            ConnState::S0 | ConnState::Rej | ConnState::Rstos0 | ConnState::Sh
        )
    }

    /// The Zeek `conn_state` string.
    pub fn as_str(self) -> &'static str {
        match self {
            ConnState::S0 => "S0",
            ConnState::SF => "SF",
            ConnState::Rej => "REJ",
            ConnState::Rsto => "RSTO",
            ConnState::Rstr => "RSTR",
            ConnState::Rstos0 => "RSTOS0",
            ConnState::Sh => "SH",
            ConnState::Oth => "OTH",
        }
    }
}

impl fmt::Display for ConnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Application service carried by a flow, as a Zeek service tag would
/// label it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Service {
    Ssh,
    Http,
    Https,
    Postgres,
    Mysql,
    Dns,
    Ftp,
    Smtp,
    Irc,
    Unknown,
}

impl Service {
    /// Canonical port for the service (used by generators).
    pub fn default_port(self) -> u16 {
        match self {
            Service::Ssh => 22,
            Service::Http => 80,
            Service::Https => 443,
            Service::Postgres => 5432,
            Service::Mysql => 3306,
            Service::Dns => 53,
            Service::Ftp => 21,
            Service::Smtp => 25,
            Service::Irc => 6667,
            Service::Unknown => 0,
        }
    }

    /// Classify a destination port into a service tag.
    pub fn from_port(port: u16) -> Service {
        match port {
            22 => Service::Ssh,
            80 | 8080 => Service::Http,
            443 => Service::Https,
            5432 => Service::Postgres,
            3306 => Service::Mysql,
            53 => Service::Dns,
            21 => Service::Ftp,
            25 => Service::Smtp,
            6667 => Service::Irc,
            _ => Service::Unknown,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Service::Ssh => "ssh",
            Service::Http => "http",
            Service::Https => "https",
            Service::Postgres => "postgresql",
            Service::Mysql => "mysql",
            Service::Dns => "dns",
            Service::Ftp => "ftp",
            Service::Smtp => "smtp",
            Service::Irc => "irc",
            Service::Unknown => "-",
        }
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unique flow identifier (monotonic within an engine run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Zeek-like connection uid: C + base36-ish rendering.
        write!(f, "C{:x}", self.0)
    }
}

/// A network flow as observed at the border.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    pub id: FlowId,
    pub start: SimTime,
    pub duration: SimDuration,
    pub src: Ipv4Addr,
    pub src_port: u16,
    pub dst: Ipv4Addr,
    pub dst_port: u16,
    pub proto: Proto,
    pub state: ConnState,
    pub service: Service,
    pub orig_bytes: u64,
    pub resp_bytes: u64,
}

impl Flow {
    /// A successful TCP connection with the given byte counts.
    #[allow(clippy::too_many_arguments)]
    pub fn established(
        id: FlowId,
        start: SimTime,
        duration: SimDuration,
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        orig_bytes: u64,
        resp_bytes: u64,
    ) -> Flow {
        Flow {
            id,
            start,
            duration,
            src,
            src_port,
            dst,
            dst_port,
            proto: Proto::Tcp,
            state: ConnState::SF,
            service: Service::from_port(dst_port),
            orig_bytes,
            resp_bytes,
        }
    }

    /// A failed probe (scan) against `dst:dst_port`.
    pub fn probe(id: FlowId, start: SimTime, src: Ipv4Addr, dst: Ipv4Addr, dst_port: u16) -> Flow {
        Flow {
            id,
            start,
            duration: SimDuration::ZERO,
            src,
            src_port: 40_000,
            dst,
            dst_port,
            proto: Proto::Tcp,
            state: ConnState::S0,
            service: Service::from_port(dst_port),
            orig_bytes: 0,
            resp_bytes: 0,
        }
    }

    /// Total bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.orig_bytes + self.resp_bytes
    }

    /// The instant the flow ended.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// Direction of a flow relative to the protected network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// External source to internal destination.
    Inbound,
    /// Internal source to external destination.
    Outbound,
    /// Both endpoints internal (lateral).
    Internal,
    /// Both endpoints external (transit; not normally seen).
    Transit,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::Inbound => "inbound",
            Direction::Outbound => "outbound",
            Direction::Internal => "internal",
            Direction::Transit => "transit",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_port_mapping_roundtrip() {
        for s in [Service::Ssh, Service::Http, Service::Postgres, Service::Irc] {
            assert_eq!(Service::from_port(s.default_port()), s);
        }
        assert_eq!(Service::from_port(31_337), Service::Unknown);
    }

    #[test]
    fn probe_flows_look_like_scans() {
        let f = Flow::probe(
            FlowId(1),
            SimTime::from_secs(0),
            "103.102.8.9".parse().unwrap(),
            "141.142.5.10".parse().unwrap(),
            5432,
        );
        assert!(f.state.probe_like());
        assert!(!f.state.established());
        assert_eq!(f.service, Service::Postgres);
        assert_eq!(f.total_bytes(), 0);
    }

    #[test]
    fn established_flow_end_time() {
        let f = Flow::established(
            FlowId(2),
            SimTime::from_secs(100),
            SimDuration::from_secs(30),
            "141.142.2.1".parse().unwrap(),
            50_000,
            "141.142.11.1".parse().unwrap(),
            5432,
            1_000,
            20_000,
        );
        assert_eq!(f.end(), SimTime::from_secs(130));
        assert!(f.state.established());
        assert_eq!(f.total_bytes(), 21_000);
    }

    #[test]
    fn conn_state_strings_match_zeek() {
        assert_eq!(ConnState::S0.to_string(), "S0");
        assert_eq!(ConnState::Rej.to_string(), "REJ");
        assert_eq!(ConnState::Rstos0.to_string(), "RSTOS0");
    }

    #[test]
    fn flow_uid_renders_zeek_like() {
        assert_eq!(FlowId(255).to_string(), "Cff");
    }
}
