//! Emulated vulnerable PostgreSQL service.
//!
//! Models exactly the surface the §V ransomware exercised:
//!
//! 1. `SHOW server_version_num` reconnaissance (step 1),
//! 2. encoding an ELF payload into a `largeobject` as a hex string
//!    beginning `7F454C46` (step 2),
//! 3. `lo_export` dropping `/tmp/kp` onto the disk (step 3),
//!
//! plus `COPY ... FROM PROGRAM` command execution when the VRT snapshot
//! pins a vulnerable version (CVE-2019-9193), and default-credential
//! authentication (§IV-B's advertised `postgres`/`postgres`).

use simnet::action::DbCommandKind;

use crate::service::{CommandOutcome, Credential, ServiceEvent, SessionCtx, VulnerableService};

/// A stored large object.
#[derive(Debug, Clone, PartialEq)]
pub struct LargeObject {
    pub oid: u32,
    pub hex_prefix: String,
    pub bytes: u64,
}

/// The PostgreSQL emulator.
#[derive(Debug, Clone)]
pub struct PostgresEmulator {
    /// `server_version_num`, e.g. `90421` for 9.4.21.
    version_num: String,
    /// Whether `COPY FROM PROGRAM` executes (vulnerable versions).
    copy_program_enabled: bool,
    credentials: Vec<Credential>,
    largeobjects: Vec<LargeObject>,
    next_oid: u32,
    /// Files written via `lo_export`.
    exported_files: Vec<String>,
    auth_failures: u64,
}

impl PostgresEmulator {
    /// Build from a version string like `9.4.21`.
    pub fn new(version: &str, credentials: Vec<Credential>) -> PostgresEmulator {
        let version_num = Self::version_num_of(version);
        // CVE-2019-9193 surface: 9.3+ has COPY FROM PROGRAM; "fixed"
        // deployments disable it for unprivileged roles. Our vulnerable
        // honeypot build leaves it enabled for < 9.4.22.
        let copy_program_enabled = version_num.as_str() < "90422";
        PostgresEmulator {
            version_num,
            copy_program_enabled,
            credentials,
            largeobjects: Vec::new(),
            next_oid: 16_384,
            exported_files: Vec::new(),
            auth_failures: 0,
        }
    }

    /// Default honeypot configuration: the advertised default account.
    pub fn with_default_credentials(version: &str) -> PostgresEmulator {
        Self::new(version, vec![Credential::new("postgres", "postgres")])
    }

    /// `9.4.21` → `90421`.
    fn version_num_of(version: &str) -> String {
        let parts: Vec<u32> = version.split('.').map(|p| p.parse().unwrap_or(0)).collect();
        match parts.as_slice() {
            [maj, min, patch, ..] => format!("{}{:02}{:02}", maj, min, patch),
            [maj, min] => format!("{}{:02}00", maj, min),
            [maj] => format!("{}0000", maj),
            _ => "0".into(),
        }
    }

    pub fn version_num(&self) -> &str {
        &self.version_num
    }

    pub fn largeobjects(&self) -> &[LargeObject] {
        &self.largeobjects
    }

    pub fn exported_files(&self) -> &[String] {
        &self.exported_files
    }

    pub fn auth_failures(&self) -> u64 {
        self.auth_failures
    }

    /// Extract `decode('<hex>', 'hex')` payload from a statement.
    fn parse_hex_payload(stmt: &str) -> Option<&str> {
        let start = stmt.find("decode('")? + "decode('".len();
        let rest = &stmt[start..];
        let end = rest.find('\'')?;
        Some(&rest[..end])
    }

    /// Extract the path argument of `lo_export(<oid>, '<path>')`.
    fn parse_export_path(stmt: &str) -> Option<&str> {
        let call = stmt.find("lo_export(")? + "lo_export(".len();
        let rest = &stmt[call..];
        let q1 = rest.find('\'')? + 1;
        let rest2 = &rest[q1..];
        let q2 = rest2.find('\'')?;
        Some(&rest2[..q2])
    }

    /// Extract the program of `COPY ... FROM PROGRAM '<prog>'`.
    fn parse_copy_program(stmt: &str) -> Option<&str> {
        let upper = stmt.to_ascii_uppercase();
        let at = upper.find("FROM PROGRAM")?;
        let rest = &stmt[at..];
        let q1 = rest.find('\'')? + 1;
        let rest2 = &rest[q1..];
        let q2 = rest2.find('\'')?;
        Some(&rest2[..q2])
    }
}

impl VulnerableService for PostgresEmulator {
    fn name(&self) -> &'static str {
        "postgresql"
    }

    fn port(&self) -> u16 {
        5432
    }

    fn banner(&self) -> String {
        format!("PostgreSQL (server_version_num {})", self.version_num)
    }

    fn try_auth(&mut self, user: &str, secret: &str) -> bool {
        let ok = self
            .credentials
            .iter()
            .any(|c| c.user == user && c.secret == secret);
        if !ok {
            self.auth_failures += 1;
        }
        ok
    }

    fn execute(&mut self, session: &mut SessionCtx, command: &str) -> CommandOutcome {
        if session.user.is_none() {
            return CommandOutcome::err("FATAL: not authenticated");
        }
        session.commands += 1;
        let trimmed = command.trim();
        let upper = trimmed.to_ascii_uppercase();

        if upper.starts_with("SHOW SERVER_VERSION_NUM") {
            return CommandOutcome::ok(self.version_num.clone()).with_event(ServiceEvent::Db {
                command: DbCommandKind::ShowVersion,
                statement: trimmed.to_string(),
            });
        }

        if let Some(hex) = Self::parse_hex_payload(trimmed) {
            let bytes = (hex.len() / 2) as u64;
            let prefix: String = hex.chars().take(8).collect::<String>().to_ascii_uppercase();
            let oid = self.next_oid;
            self.next_oid += 1;
            self.largeobjects.push(LargeObject {
                oid,
                hex_prefix: prefix.clone(),
                bytes,
            });
            return CommandOutcome::ok(format!("lo_from_bytea\n-----\n{oid}")).with_event(
                ServiceEvent::Db {
                    command: DbCommandKind::LargeObjectWrite {
                        hex_prefix: prefix,
                        bytes,
                    },
                    statement: truncate_stmt(trimmed),
                },
            );
        }

        if let Some(path) = Self::parse_export_path(trimmed) {
            let path = path.to_string();
            self.exported_files.push(path.clone());
            return CommandOutcome::ok("lo_export\n-----\n1")
                .with_event(ServiceEvent::Db {
                    command: DbCommandKind::LoExport { path: path.clone() },
                    statement: truncate_stmt(trimmed),
                })
                .with_event(ServiceEvent::FileDropped {
                    path,
                    process: "postgres".into(),
                });
        }

        if let Some(prog) = Self::parse_copy_program(trimmed) {
            if self.copy_program_enabled {
                let prog = prog.to_string();
                return CommandOutcome::ok("COPY 0")
                    .with_event(ServiceEvent::Db {
                        command: DbCommandKind::CopyFromProgram {
                            program: prog.clone(),
                        },
                        statement: truncate_stmt(trimmed),
                    })
                    .with_event(ServiceEvent::CommandExecuted { cmdline: prog });
            }
            return CommandOutcome::err("ERROR: must be superuser to COPY to or from a program");
        }

        CommandOutcome::ok("OK").with_event(ServiceEvent::Db {
            command: DbCommandKind::Query,
            statement: truncate_stmt(trimmed),
        })
    }
}

/// Keep audit statements bounded (payload hex can be megabytes).
fn truncate_stmt(stmt: &str) -> String {
    const MAX: usize = 160;
    if stmt.len() <= MAX {
        stmt.to_string()
    } else {
        format!("{}…[{} bytes]", &stmt[..MAX], stmt.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn authed() -> (PostgresEmulator, SessionCtx) {
        let mut pg = PostgresEmulator::with_default_credentials("9.4.21");
        assert!(pg.try_auth("postgres", "postgres"));
        let session = SessionCtx {
            user: Some("postgres".into()),
            commands: 0,
        };
        (pg, session)
    }

    #[test]
    fn version_num_formatting() {
        assert_eq!(PostgresEmulator::version_num_of("9.4.21"), "90421");
        assert_eq!(PostgresEmulator::version_num_of("9.1"), "90100");
    }

    #[test]
    fn auth_with_default_and_wrong_credentials() {
        let mut pg = PostgresEmulator::with_default_credentials("9.4.21");
        assert!(pg.try_auth("postgres", "postgres"));
        assert!(!pg.try_auth("postgres", "hunter2"));
        assert!(!pg.try_auth("admin", "postgres"));
        assert_eq!(pg.auth_failures(), 2);
    }

    #[test]
    fn unauthenticated_commands_rejected() {
        let mut pg = PostgresEmulator::with_default_credentials("9.4.21");
        let mut s = SessionCtx::default();
        let out = pg.execute(&mut s, "SELECT 1");
        assert!(!out.ok);
    }

    #[test]
    fn version_recon_step() {
        let (mut pg, mut s) = authed();
        let out = pg.execute(&mut s, "SHOW server_version_num");
        assert!(out.ok);
        assert_eq!(out.reply, "90421");
        assert!(matches!(
            out.events[0],
            ServiceEvent::Db {
                command: DbCommandKind::ShowVersion,
                ..
            }
        ));
    }

    #[test]
    fn elf_payload_staging_step() {
        let (mut pg, mut s) = authed();
        let stmt = format!(
            "SELECT lo_from_bytea(0, decode('7f454c46020101{}','hex'))",
            "ab".repeat(100)
        );
        let out = pg.execute(&mut s, &stmt);
        assert!(out.ok);
        match &out.events[0] {
            ServiceEvent::Db {
                command: DbCommandKind::LargeObjectWrite { hex_prefix, bytes },
                ..
            } => {
                assert_eq!(hex_prefix, "7F454C46");
                assert_eq!(*bytes, 107);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(pg.largeobjects().len(), 1);
        assert_eq!(pg.largeobjects()[0].oid, 16_384);
    }

    #[test]
    fn lo_export_drops_file() {
        let (mut pg, mut s) = authed();
        let out = pg.execute(&mut s, "SELECT lo_export(16384, '/tmp/kp')");
        assert!(out.ok);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, ServiceEvent::FileDropped { path, .. } if path == "/tmp/kp")));
        assert_eq!(pg.exported_files(), &["/tmp/kp".to_string()]);
    }

    #[test]
    fn copy_from_program_gated_on_version() {
        let (mut vulnerable, mut s) = authed();
        let out = vulnerable.execute(&mut s, "COPY t FROM PROGRAM 'id'");
        assert!(out.ok);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, ServiceEvent::CommandExecuted { cmdline } if cmdline == "id")));

        let mut patched = PostgresEmulator::with_default_credentials("9.4.26");
        assert!(patched.try_auth("postgres", "postgres"));
        let mut s2 = SessionCtx {
            user: Some("postgres".into()),
            commands: 0,
        };
        let out = patched.execute(&mut s2, "COPY t FROM PROGRAM 'id'");
        assert!(!out.ok);
    }

    #[test]
    fn generic_query_audited() {
        let (mut pg, mut s) = authed();
        let out = pg.execute(&mut s, "SELECT * FROM users");
        assert!(out.ok);
        assert!(matches!(
            out.events[0],
            ServiceEvent::Db {
                command: DbCommandKind::Query,
                ..
            }
        ));
        assert_eq!(s.commands, 1);
    }

    #[test]
    fn long_statements_truncated_in_audit() {
        let (mut pg, mut s) = authed();
        let stmt = format!(
            "SELECT lo_from_bytea(0, decode('{}','hex'))",
            "7f".repeat(10_000)
        );
        let out = pg.execute(&mut s, &stmt);
        match &out.events[0] {
            ServiceEvent::Db { statement, .. } => {
                assert!(statement.len() < 220, "audit statement bounded");
            }
            _ => unreachable!(),
        }
    }
}
