//! Host-based monitor (osquery / rsyslog / auditd equivalent).
//!
//! Observes host-side actions on *monitored* hosts and emits process, file,
//! auth, audit and database-statement records. The paper's defender runs
//! osquery "at the kernel level" on production hosts; honeypot containers
//! are instrumented the same way (§IV-A: "commands issued by attackers must
//! be closely monitored by the host and network monitors").
//!
//! The monitor mints every record string into the [`SymScope`] it is
//! built with ([`HostMonitor::new`]): the global scope for a single-site
//! testbed, a tenant's scope for tenant-scoped emission.

use simnet::action::{Action, DbCommandKind};
use simnet::engine::EventCtx;
use simnet::intern::{Sym, SymScope};
use simnet::topology::HostId;

use crate::monitor::Monitor;
use crate::record::{
    AuditRecord, AuthRecord, DbCommand, DbRecord, FileRecord, LogRecord, ProcessRecord,
};

/// The host monitor. One instance covers the whole fleet: per-host agent
/// state is immaterial to the record streams, so modelling a single
/// collector keeps the pipeline simple without changing what downstream
/// stages see.
///
/// Records are minted into the [`SymScope`] the monitor is built with.
#[derive(Debug)]
pub struct HostMonitor {
    scope: SymScope,
    records_emitted: u64,
    /// Hosts whose agent has been tampered with / disabled (an attacker
    /// with local root may kill one agent; §III-B).
    disabled: Vec<HostId>,
}

impl HostMonitor {
    /// A monitor minting record symbols into `scope`.
    pub fn new(scope: SymScope) -> Self {
        HostMonitor {
            scope,
            records_emitted: 0,
            disabled: Vec::new(),
        }
    }

    /// Simulate an attacker disabling the agent on one host. Records from
    /// that host stop flowing — but network monitors still see its traffic.
    pub fn disable_on(&mut self, host: HostId) {
        if !self.disabled.contains(&host) {
            self.disabled.push(host);
        }
    }

    pub fn records_emitted(&self) -> u64 {
        self.records_emitted
    }

    fn covered(&self, ctx: &EventCtx<'_>, host: HostId) -> bool {
        !self.disabled.contains(&host) && ctx.topo.host(host).monitored
    }

    fn hostname(&self, ctx: &EventCtx<'_>, host: HostId) -> Sym {
        self.scope.sym(ctx.topo.host(host).name.as_str())
    }

    /// The record-level command, its payload minted into the monitor's
    /// scope.
    fn db_command(&self, command: &DbCommandKind) -> DbCommand {
        match command {
            DbCommandKind::Auth { success } => DbCommand::Auth { success: *success },
            DbCommandKind::ShowVersion => DbCommand::ShowVersion,
            DbCommandKind::Query => DbCommand::Query,
            DbCommandKind::LargeObjectWrite { hex_prefix, bytes } => DbCommand::LargeObjectWrite {
                hex_prefix: self.scope.sym(hex_prefix),
                bytes: *bytes,
            },
            DbCommandKind::LoExport { path } => DbCommand::LoExport {
                path: self.scope.sym(path),
            },
            DbCommandKind::CopyFromProgram { program } => DbCommand::CopyFromProgram {
                program: self.scope.sym(program),
            },
        }
    }
}

impl Monitor for HostMonitor {
    fn name(&self) -> &'static str {
        "hostmon"
    }

    fn observe(&mut self, ctx: &EventCtx<'_>, action: &Action, out: &mut Vec<LogRecord>) {
        match action {
            Action::Exec(e) => {
                if self.covered(ctx, e.host) {
                    self.records_emitted += 1;
                    out.push(LogRecord::Process(ProcessRecord {
                        ts: ctx.time,
                        host: e.host,
                        hostname: self.hostname(ctx, e.host),
                        user: self.scope.sym(e.user.as_str()),
                        pid: e.pid,
                        ppid: e.ppid,
                        exe: self.scope.sym(e.exe.as_str()),
                        cmdline: self.scope.sym(e.cmdline.as_str()),
                    }));
                }
            }
            Action::FileOp(f) => {
                if self.covered(ctx, f.host) {
                    self.records_emitted += 1;
                    out.push(LogRecord::File(FileRecord {
                        ts: ctx.time,
                        host: f.host,
                        hostname: self.hostname(ctx, f.host),
                        user: self.scope.sym(f.user.as_str()),
                        path: self.scope.sym(f.path.as_str()),
                        op: f.op,
                        process: self.scope.sym(f.process.as_str()),
                    }));
                }
            }
            Action::Audit(a) => {
                if self.covered(ctx, a.host) {
                    self.records_emitted += 1;
                    out.push(LogRecord::Audit(AuditRecord {
                        ts: ctx.time,
                        host: a.host,
                        hostname: self.hostname(ctx, a.host),
                        user: self.scope.sym(a.user.as_str()),
                        syscall: self.scope.sym(a.syscall.as_str()),
                        args: self.scope.sym(a.args.as_str()),
                        exit_code: a.exit_code,
                    }));
                }
            }
            Action::SshAuth(s) => {
                // The sshd auth log on the target host.
                if !ctx.delivered() {
                    return;
                }
                if let Some(target) = s.target {
                    if self.covered(ctx, target) {
                        self.records_emitted += 1;
                        out.push(LogRecord::Auth(AuthRecord {
                            ts: ctx.time,
                            host: target,
                            hostname: self.hostname(ctx, target),
                            user: self.scope.sym(s.user.as_str()),
                            method: s.method,
                            success: s.success,
                            src_addr: Some(s.flow.src),
                        }));
                    }
                }
            }
            Action::Db(d) => {
                // Statement-level audit from the database host itself.
                if !ctx.delivered() {
                    return;
                }
                if let Some(target) = d.target {
                    if self.covered(ctx, target) {
                        self.records_emitted += 1;
                        out.push(LogRecord::Db(DbRecord {
                            ts: ctx.time,
                            uid: d.flow.id,
                            orig_h: d.flow.src,
                            resp_h: d.flow.dst,
                            host: Some(target),
                            user: self.scope.sym(d.user.as_str()),
                            command: self.db_command(&d.command),
                            statement: self.scope.sym(d.statement.as_str()),
                        }));
                    }
                }
            }
            Action::Flow(_) | Action::Http(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::action::{DbAction, ExecAction, FileOp, FileOpAction};
    use simnet::flow::{Direction, Flow, FlowId};
    use simnet::time::{SimDuration, SimTime};
    use simnet::topology::{NcsaTopologyBuilder, Topology};

    fn ctx<'a>(topo: &'a Topology) -> EventCtx<'a> {
        EventCtx {
            time: SimTime::from_secs(1),
            direction: Direction::Internal,
            dropped: None,
            topo,
        }
    }

    fn exec_on(host: HostId) -> Action {
        Action::Exec(ExecAction {
            host,
            user: "alice".into(),
            pid: 42,
            ppid: 1,
            exe: "/usr/bin/make".into(),
            cmdline: "make -C /lib/modules/build".into(),
        })
    }

    #[test]
    fn exec_produces_process_record() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut mon = HostMonitor::new(SymScope::global());
        let mut out = Vec::new();
        mon.observe(&ctx(&topo), &exec_on(HostId(0)), &mut out);
        assert_eq!(out.len(), 1);
        match &out[0] {
            LogRecord::Process(p) => {
                assert_eq!(p.user, "alice");
                assert_eq!(p.hostname, topo.host(HostId(0)).name);
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn disabled_agent_stops_records() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut mon = HostMonitor::new(SymScope::global());
        mon.disable_on(HostId(0));
        let mut out = Vec::new();
        mon.observe(&ctx(&topo), &exec_on(HostId(0)), &mut out);
        assert!(out.is_empty());
        // Other hosts unaffected.
        mon.observe(&ctx(&topo), &exec_on(HostId(1)), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unmonitored_external_hosts_produce_nothing() {
        let mut topo = NcsaTopologyBuilder::default().build();
        let ext = topo.add_external("attacker-box", "103.102.1.1".parse().unwrap());
        let mut mon = HostMonitor::new(SymScope::global());
        let mut out = Vec::new();
        mon.observe(&ctx(&topo), &exec_on(ext), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn file_ops_recorded() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut mon = HostMonitor::new(SymScope::global());
        let mut out = Vec::new();
        let a = Action::FileOp(FileOpAction {
            host: HostId(2),
            user: "postgres".into(),
            path: "/tmp/kp".into(),
            op: FileOp::Create,
            process: "postgres".into(),
        });
        mon.observe(&ctx(&topo), &a, &mut out);
        assert!(matches!(&out[0], LogRecord::File(f) if f.path == "/tmp/kp"));
        assert_eq!(mon.records_emitted(), 1);
    }

    #[test]
    fn db_payloads_are_minted_in_the_monitor_scope() {
        let topo = NcsaTopologyBuilder::default().build();
        let target = HostId(2);
        let scope = SymScope::fresh();
        let mut mon = HostMonitor::new(scope.clone());
        let db = |command: DbCommandKind| {
            Action::Db(DbAction {
                flow: Flow::established(
                    FlowId(7),
                    SimTime::from_secs(1),
                    SimDuration::ZERO,
                    "111.200.1.1".parse().unwrap(),
                    40_000,
                    topo.host(target).addr,
                    5432,
                    0,
                    0,
                ),
                target: Some(target),
                user: "postgres".into(),
                command,
                statement: "select 1".into(),
            })
        };
        let actions = [
            db(DbCommandKind::LargeObjectWrite {
                hex_prefix: "7F454C4602".into(),
                bytes: 50_000,
            }),
            db(DbCommandKind::LoExport {
                path: "/tmp/kp".into(),
            }),
            db(DbCommandKind::CopyFromProgram {
                program: "/tmp/kp --daemon".into(),
            }),
            db(DbCommandKind::Query),
        ];
        let mut out = Vec::new();
        for a in &actions {
            mon.observe(&ctx(&topo), a, &mut out);
        }
        let payloads: Vec<Option<&str>> = out
            .iter()
            .map(|r| match r {
                LogRecord::Db(d) => {
                    assert_eq!(scope.resolve(d.user), "postgres");
                    assert_eq!(scope.resolve(d.statement), "select 1");
                    match d.command {
                        DbCommand::LargeObjectWrite { hex_prefix, bytes } => {
                            assert_eq!(bytes, 50_000);
                            Some(scope.resolve(hex_prefix))
                        }
                        DbCommand::LoExport { path } => Some(scope.resolve(path)),
                        DbCommand::CopyFromProgram { program } => Some(scope.resolve(program)),
                        DbCommand::Auth { .. } | DbCommand::ShowVersion | DbCommand::Query => None,
                    }
                }
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(
            payloads,
            [
                Some("7F454C4602"),
                Some("/tmp/kp"),
                Some("/tmp/kp --daemon"),
                None
            ]
        );
    }
}
