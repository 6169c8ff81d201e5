//! The vulnerable-service abstraction.
//!
//! §IV-A: "we created vulnerable services such as databases that are
//! vulnerable to default passwords or contain remote code execution bugs."
//! A [`VulnerableService`] is a deterministic emulator: attacker commands
//! in, protocol replies plus *observable side effects* out. Side effects
//! become simulation actions (file drops, egress attempts), which the
//! monitors then see — the honeypot is instrumented, not instrumented-by.

use simnet::action::DbCommandKind;

/// A service credential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credential {
    pub user: String,
    pub secret: String,
}

impl Credential {
    pub fn new(user: impl Into<String>, secret: impl Into<String>) -> Credential {
        Credential {
            user: user.into(),
            secret: secret.into(),
        }
    }
}

/// Observable side effect of a service command.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// A database wire command was executed (observed by the DB audit log).
    Db {
        command: DbCommandKind,
        statement: String,
    },
    /// A file appeared on the container's disk.
    FileDropped { path: String, process: String },
    /// The service attempted a new outbound connection (to be stopped by
    /// the egress firewall).
    EgressAttempt { dst: std::net::Ipv4Addr, port: u16 },
    /// A shell command ran inside the container.
    CommandExecuted { cmdline: String },
}

/// Reply + side effects of one command.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandOutcome {
    pub reply: String,
    pub events: Vec<ServiceEvent>,
    /// Whether the command succeeded at the protocol level.
    pub ok: bool,
}

impl CommandOutcome {
    pub fn ok(reply: impl Into<String>) -> CommandOutcome {
        CommandOutcome {
            reply: reply.into(),
            events: Vec::new(),
            ok: true,
        }
    }

    pub fn err(reply: impl Into<String>) -> CommandOutcome {
        CommandOutcome {
            reply: reply.into(),
            events: Vec::new(),
            ok: false,
        }
    }

    pub fn with_event(mut self, ev: ServiceEvent) -> CommandOutcome {
        self.events.push(ev);
        self
    }
}

/// Per-connection session state.
#[derive(Debug, Clone, Default)]
pub struct SessionCtx {
    /// The authenticated user, if any.
    pub user: Option<String>,
    /// Commands executed in this session.
    pub commands: u64,
}

/// A deterministic vulnerable-service emulator.
pub trait VulnerableService: Send {
    fn name(&self) -> &'static str;
    fn port(&self) -> u16;
    /// Greeting/banner sent on connect.
    fn banner(&self) -> String;
    /// Attempt authentication. On success the caller sets
    /// `session.user`.
    fn try_auth(&mut self, user: &str, secret: &str) -> bool;
    /// Execute one command in a session.
    fn execute(&mut self, session: &mut SessionCtx, command: &str) -> CommandOutcome;
}
