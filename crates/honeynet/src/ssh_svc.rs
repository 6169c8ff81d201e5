//! Emulated SSH service with credential capture.
//!
//! Successor to the paper's earlier SSH honeypot (CAUDIT \[7\]): accepts the
//! advertised ghost-account credentials (§IV-B), records every attempt for
//! attacker attribution, and passes executed commands through as
//! observable events.

use crate::service::{CommandOutcome, Credential, ServiceEvent, SessionCtx, VulnerableService};

/// One captured authentication attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedAttempt {
    pub user: String,
    pub secret: String,
    pub success: bool,
}

/// The SSH emulator.
#[derive(Debug, Clone, Default)]
pub struct SshEmulator {
    accepted: Vec<Credential>,
    captured: Vec<CapturedAttempt>,
}

impl SshEmulator {
    pub fn new(accepted: Vec<Credential>) -> SshEmulator {
        SshEmulator {
            accepted,
            captured: Vec::new(),
        }
    }

    /// Every attempt seen so far (the honeypot's credential-capture log).
    pub fn captured(&self) -> &[CapturedAttempt] {
        &self.captured
    }

    /// Distinct secrets attempted — used for attributing attackers to the
    /// leak channel their credential came from.
    pub fn captured_secrets(&self) -> Vec<&str> {
        let mut secrets: Vec<&str> = self.captured.iter().map(|c| c.secret.as_str()).collect();
        secrets.sort_unstable();
        secrets.dedup();
        secrets
    }
}

impl VulnerableService for SshEmulator {
    fn name(&self) -> &'static str {
        "ssh"
    }

    fn port(&self) -> u16 {
        22
    }

    fn banner(&self) -> String {
        "SSH-2.0-OpenSSH_7.4".to_string()
    }

    fn try_auth(&mut self, user: &str, secret: &str) -> bool {
        let success = self
            .accepted
            .iter()
            .any(|c| c.user == user && c.secret == secret);
        self.captured.push(CapturedAttempt {
            user: user.to_string(),
            secret: secret.to_string(),
            success,
        });
        success
    }

    fn execute(&mut self, session: &mut SessionCtx, command: &str) -> CommandOutcome {
        if session.user.is_none() {
            return CommandOutcome::err("Permission denied (publickey,password).");
        }
        session.commands += 1;
        CommandOutcome::ok("").with_event(ServiceEvent::CommandExecuted {
            cmdline: command.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_account_accepted_and_captured() {
        let mut ssh = SshEmulator::new(vec![Credential::new("svcbackup", "hunter2-leaked")]);
        assert!(!ssh.try_auth("root", "toor"));
        assert!(ssh.try_auth("svcbackup", "hunter2-leaked"));
        assert_eq!(ssh.captured().len(), 2);
        assert!(!ssh.captured()[0].success);
        assert!(ssh.captured()[1].success);
        assert_eq!(ssh.captured_secrets(), vec!["hunter2-leaked", "toor"]);
    }

    #[test]
    fn commands_pass_through_as_events() {
        let mut ssh = SshEmulator::new(vec![]);
        let mut session = SessionCtx {
            user: Some("svcbackup".into()),
            commands: 0,
        };
        let out = ssh.execute(&mut session, "cat ~/.ssh/known_hosts");
        assert!(out.ok);
        assert!(matches!(
            &out.events[0],
            ServiceEvent::CommandExecuted { cmdline } if cmdline.contains("known_hosts")
        ));
    }

    #[test]
    fn unauthenticated_commands_denied() {
        let mut ssh = SshEmulator::new(vec![]);
        let mut session = SessionCtx::default();
        assert!(!ssh.execute(&mut session, "id").ok);
    }
}
