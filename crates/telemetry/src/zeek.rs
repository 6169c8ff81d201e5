//! Zeek-like network security monitor.
//!
//! Produces `conn`, `http` and `ssh` records for every flow it taps, plus
//! `notice` records from stateful policies modeled after stock Zeek
//! policies: address scans, port scans, SSH password guessing, and
//! executable downloads from raw-IP hosts. NCSA runs "a cluster of Zeek
//! network security monitors" (§II-A); this monitor is the single-node
//! equivalent tapping the simulated border.
//!
//! The monitor mints every record string into the [`SymScope`] it is
//! built with ([`ZeekMonitor::new`]): the global scope for a single-site
//! testbed, a tenant's scope for tenant-scoped emission.

use std::net::Ipv4Addr;

use simnet::action::Action;
use simnet::engine::EventCtx;
use simnet::flow::Flow;
use simnet::intern::{Sym, SymScope};
use simnet::rng::{FxHashMap, FxHashSet};
use simnet::time::{SimDuration, SimTime};

use crate::monitor::Monitor;
use crate::record::{ConnRecord, HttpRecord, LogRecord, NoticeKind, NoticeRecord, SshRecord};

/// Tunables for the Zeek policies.
#[derive(Debug, Clone)]
pub struct ZeekConfig {
    /// Distinct destinations within the window before an address-scan
    /// notice fires (Zeek's default is 25).
    pub scan_threshold: usize,
    /// Distinct ports on one destination before a port-scan notice fires.
    pub port_scan_threshold: usize,
    /// Sliding window for scan detection.
    pub scan_window: SimDuration,
    /// Failed SSH auths within the window before a guessing notice.
    pub guess_threshold: usize,
    pub guess_window: SimDuration,
    /// Whether the tap also sees border-dropped flows. The production tap
    /// does not (null-routed traffic never reaches it); the BHR keeps its
    /// own counters.
    pub see_dropped: bool,
}

impl Default for ZeekConfig {
    fn default() -> Self {
        ZeekConfig {
            scan_threshold: 25,
            port_scan_threshold: 15,
            scan_window: SimDuration::from_mins(5),
            guess_threshold: 5,
            guess_window: SimDuration::from_mins(15),
            see_dropped: false,
        }
    }
}

/// Per-source scan tracking state.
#[derive(Debug, Default)]
struct ScanTrack {
    window_start: SimTime,
    dsts: FxHashSet<Ipv4Addr>,
    ports: FxHashSet<u16>,
    addr_noticed: bool,
    port_noticed: bool,
}

/// Per-source SSH failure tracking state.
#[derive(Debug, Default)]
struct GuessTrack {
    window_start: SimTime,
    failures: u32,
    noticed: bool,
}

/// The Zeek-like monitor.
///
/// Records are minted into the [`SymScope`] the monitor is built with.
pub struct ZeekMonitor {
    cfg: ZeekConfig,
    scope: SymScope,
    scans: FxHashMap<Ipv4Addr, ScanTrack>,
    guesses: FxHashMap<Ipv4Addr, GuessTrack>,
    conn_count: u64,
    notice_count: u64,
}

impl ZeekMonitor {
    /// A monitor minting record symbols into `scope`.
    pub fn new(cfg: ZeekConfig, scope: SymScope) -> Self {
        ZeekMonitor {
            cfg,
            scope,
            scans: FxHashMap::default(),
            guesses: FxHashMap::default(),
            conn_count: 0,
            notice_count: 0,
        }
    }

    /// Total `conn` records emitted.
    pub fn conn_count(&self) -> u64 {
        self.conn_count
    }

    /// Total `notice` records emitted.
    pub fn notice_count(&self) -> u64 {
        self.notice_count
    }

    fn conn_record(&mut self, ctx: &EventCtx<'_>, flow: &Flow) -> ConnRecord {
        self.conn_count += 1;
        ConnRecord {
            ts: flow.start,
            uid: flow.id,
            orig_h: flow.src,
            orig_p: flow.src_port,
            resp_h: flow.dst,
            resp_p: flow.dst_port,
            proto: flow.proto,
            service: flow.service,
            duration: flow.duration,
            orig_bytes: flow.orig_bytes,
            resp_bytes: flow.resp_bytes,
            conn_state: flow.state,
            direction: ctx.direction,
        }
    }

    fn track_scan(&mut self, t: SimTime, flow: &Flow, out: &mut Vec<LogRecord>) {
        if !flow.state.probe_like() {
            return;
        }
        let track = self.scans.entry(flow.src).or_default();
        if t.saturating_since(track.window_start) > self.cfg.scan_window {
            track.window_start = t;
            track.dsts.clear();
            track.ports.clear();
            track.addr_noticed = false;
            track.port_noticed = false;
        }
        track.dsts.insert(flow.dst);
        track.ports.insert(flow.dst_port);
        if !track.addr_noticed && track.dsts.len() >= self.cfg.scan_threshold {
            track.addr_noticed = true;
            self.notice_count += 1;
            out.push(LogRecord::Notice(NoticeRecord {
                ts: t,
                note: NoticeKind::AddressScan,
                msg: self.scope.sym(&format!(
                    "{} scanned at least {} unique hosts on port {}",
                    flow.src, self.cfg.scan_threshold, flow.dst_port
                )),
                src: flow.src,
                dst: None,
                sub: Sym::EMPTY,
            }));
        }
        if !track.port_noticed
            && track.ports.len() >= self.cfg.port_scan_threshold
            && track.dsts.len() <= 2
        {
            track.port_noticed = true;
            self.notice_count += 1;
            out.push(LogRecord::Notice(NoticeRecord {
                ts: t,
                note: NoticeKind::PortScan,
                msg: self.scope.sym(&format!(
                    "{} scanned at least {} unique ports of host {}",
                    flow.src, self.cfg.port_scan_threshold, flow.dst
                )),
                src: flow.src,
                dst: Some(flow.dst),
                sub: Sym::EMPTY,
            }));
        }
    }

    fn track_guess(&mut self, t: SimTime, src: Ipv4Addr, success: bool, out: &mut Vec<LogRecord>) {
        let track = self.guesses.entry(src).or_default();
        if t.saturating_since(track.window_start) > self.cfg.guess_window {
            track.window_start = t;
            track.failures = 0;
            track.noticed = false;
        }
        if success {
            return;
        }
        track.failures += 1;
        if !track.noticed && track.failures as usize >= self.cfg.guess_threshold {
            track.noticed = true;
            self.notice_count += 1;
            out.push(LogRecord::Notice(NoticeRecord {
                ts: t,
                note: NoticeKind::PasswordGuessing,
                msg: self
                    .scope
                    .sym(&format!("{} appears to be guessing SSH passwords", src)),
                src,
                dst: None,
                sub: self.scope.sym(&format!("{} failures", track.failures)),
            }));
        }
    }

    /// Whether an HTTP host header is a bare IPv4 address.
    fn is_raw_ip_host(host: &str) -> bool {
        host.split(':')
            .next()
            .is_some_and(|h| h.parse::<Ipv4Addr>().is_ok())
    }

    /// Whether the response looks like fetched code or a binary.
    fn fetches_executable(uri: &str, mime: &str) -> bool {
        matches!(
            mime,
            "application/x-executable" | "application/x-elf" | "text/x-c" | "text/x-shellscript"
        ) || [".sh", ".c", ".x86_64", ".elf", ".bin"]
            .iter()
            .any(|ext| uri.ends_with(ext))
    }
}

impl Monitor for ZeekMonitor {
    fn name(&self) -> &'static str {
        "zeek"
    }

    fn observe(&mut self, ctx: &EventCtx<'_>, action: &Action, out: &mut Vec<LogRecord>) {
        // The tap only sees flows the border actually carried.
        if !ctx.delivered() && !self.cfg.see_dropped {
            return;
        }
        match action {
            Action::Flow(flow) => {
                let rec = self.conn_record(ctx, flow);
                out.push(LogRecord::Conn(rec));
                self.track_scan(ctx.time, flow, out);
            }
            Action::Http(h) => {
                let rec = self.conn_record(ctx, &h.flow);
                out.push(LogRecord::Conn(rec));
                out.push(LogRecord::Http(HttpRecord {
                    ts: ctx.time,
                    uid: h.flow.id,
                    orig_h: h.flow.src,
                    resp_h: h.flow.dst,
                    method: self.scope.sym(h.method.as_str()),
                    host: self.scope.sym(h.host.as_str()),
                    uri: self.scope.sym(h.uri.as_str()),
                    status: h.status,
                    mime: self.scope.sym(h.mime.as_str()),
                    user_agent: self.scope.sym(h.user_agent.as_str()),
                }));
                if Self::is_raw_ip_host(&h.host) && Self::fetches_executable(&h.uri, &h.mime) {
                    self.notice_count += 1;
                    out.push(LogRecord::Notice(NoticeRecord {
                        ts: ctx.time,
                        note: NoticeKind::ExecutableFromRawIp,
                        msg: self.scope.sym(&format!(
                            "executable fetched from raw IP host {}{}",
                            h.host, h.uri
                        )),
                        src: h.flow.src,
                        dst: Some(h.flow.dst),
                        sub: self.scope.sym(h.mime.as_str()),
                    }));
                }
            }
            Action::SshAuth(s) => {
                let rec = self.conn_record(ctx, &s.flow);
                out.push(LogRecord::Conn(rec));
                out.push(LogRecord::Ssh(SshRecord {
                    ts: ctx.time,
                    uid: s.flow.id,
                    orig_h: s.flow.src,
                    resp_h: s.flow.dst,
                    user: self.scope.sym(s.user.as_str()),
                    method: s.method,
                    success: s.success,
                    client_banner: self.scope.sym(s.client_banner.as_str()),
                    direction: ctx.direction,
                }));
                self.track_guess(ctx.time, s.flow.src, s.success, out);
            }
            Action::Db(d) => {
                // Zeek sees the flow but does not parse the wire protocol;
                // statement-level audit comes from the host monitor.
                let rec = self.conn_record(ctx, &d.flow);
                out.push(LogRecord::Conn(rec));
            }
            Action::Exec(_) | Action::FileOp(_) | Action::Audit(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::engine::EventCtx;
    use simnet::flow::{Direction, FlowId};
    use simnet::topology::{NcsaTopologyBuilder, Topology};

    fn zeek_monitor() -> ZeekMonitor {
        ZeekMonitor::new(ZeekConfig::default(), SymScope::global())
    }

    fn ctx<'a>(topo: &'a Topology, t: SimTime) -> EventCtx<'a> {
        EventCtx {
            time: t,
            direction: Direction::Inbound,
            dropped: None,
            topo,
        }
    }

    fn probe_at(t: u64, src: &str, dst: &str, port: u16) -> Action {
        Action::Flow(Flow::probe(
            FlowId(t),
            SimTime::from_secs(t),
            src.parse().unwrap(),
            dst.parse().unwrap(),
            port,
        ))
    }

    #[test]
    fn address_scan_notice_fires_once_per_window() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut zeek = zeek_monitor();
        let mut out = Vec::new();
        for i in 0..60u64 {
            let dst = format!("141.142.2.{}", i + 1);
            let a = probe_at(i, "103.102.1.1", &dst, 22);
            zeek.observe(&ctx(&topo, SimTime::from_secs(i)), &a, &mut out);
        }
        let notices: Vec<_> = out
            .iter()
            .filter(|r| matches!(r, LogRecord::Notice(n) if n.note == NoticeKind::AddressScan))
            .collect();
        assert_eq!(notices.len(), 1, "exactly one notice per window");
        assert_eq!(zeek.conn_count(), 60);
    }

    #[test]
    fn scan_window_resets() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut zeek = zeek_monitor();
        let mut out = Vec::new();
        // 30 probes now, 30 probes an hour later: two notices.
        for wave in 0..2u64 {
            let base = wave * 3_600;
            for i in 0..30u64 {
                let dst = format!("141.142.2.{}", i + 1);
                let a = probe_at(base + i, "103.102.1.1", &dst, 22);
                zeek.observe(&ctx(&topo, SimTime::from_secs(base + i)), &a, &mut out);
            }
        }
        assert_eq!(zeek.notice_count(), 2);
    }

    #[test]
    fn port_scan_detected_on_single_host() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut zeek = zeek_monitor();
        let mut out = Vec::new();
        for p in 0..20u16 {
            let a = probe_at(p as u64, "77.72.1.1", "141.142.11.1", 1_000 + p);
            zeek.observe(&ctx(&topo, SimTime::from_secs(p as u64)), &a, &mut out);
        }
        assert!(out
            .iter()
            .any(|r| matches!(r, LogRecord::Notice(n) if n.note == NoticeKind::PortScan)));
    }

    #[test]
    fn password_guessing_notice() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut zeek = zeek_monitor();
        let mut out = Vec::new();
        for i in 0..6u64 {
            let a = Action::SshAuth(simnet::action::SshAuthAction {
                flow: Flow::established(
                    FlowId(i),
                    SimTime::from_secs(i),
                    SimDuration::from_secs(1),
                    "91.247.1.1".parse().unwrap(),
                    40_000,
                    "141.142.1.1".parse().unwrap(),
                    22,
                    500,
                    300,
                ),
                target: None,
                user: "root".into(),
                method: simnet::action::AuthMethod::Password,
                success: false,
                client_banner: "SSH-2.0-libssh".into(),
            });
            zeek.observe(&ctx(&topo, SimTime::from_secs(i)), &a, &mut out);
        }
        let guesses = out
            .iter()
            .filter(|r| matches!(r, LogRecord::Notice(n) if n.note == NoticeKind::PasswordGuessing))
            .count();
        assert_eq!(guesses, 1);
    }

    #[test]
    fn raw_ip_executable_download_notice() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut zeek = zeek_monitor();
        let mut out = Vec::new();
        let a = Action::Http(simnet::action::HttpAction {
            flow: Flow::established(
                FlowId(1),
                SimTime::from_secs(1),
                SimDuration::from_secs(1),
                "141.142.2.5".parse().unwrap(),
                50_000,
                "64.215.4.5".parse().unwrap(),
                80,
                200,
                7_036,
            ),
            method: "GET".into(),
            host: "64.215.4.5".into(),
            uri: "/abs.c".into(),
            status: 200,
            mime: "text/x-c".into(),
            user_agent: "Wget/1.21".into(),
        });
        zeek.observe(&ctx(&topo, SimTime::from_secs(1)), &a, &mut out);
        assert!(out.iter().any(
            |r| matches!(r, LogRecord::Notice(n) if n.note == NoticeKind::ExecutableFromRawIp)
        ));
        // conn + http + notice
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn dropped_flows_invisible_by_default() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut zeek = zeek_monitor();
        let mut out = Vec::new();
        let reason = simnet::router::DropReason::NullRouted {
            reason: "test".into(),
        };
        let c = EventCtx {
            time: SimTime::from_secs(1),
            direction: Direction::Inbound,
            dropped: Some(&reason),
            topo: &topo,
        };
        zeek.observe(&c, &probe_at(1, "103.102.1.1", "141.142.2.1", 22), &mut out);
        assert!(out.is_empty());
    }
}
