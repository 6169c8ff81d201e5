//! CAUDIT-style SSH honeypot deployment.
//!
//! The testbed is "a successor to our previously deployed Secure Shell
//! (SSH) honeypot at NCSA" (CAUDIT, ref \[7\]). This module deploys SSH
//! emulators on the honeynet entry points, plants channel-unique leaked
//! credentials (§IV-B), captures every authentication attempt, attributes
//! successful uses of planted secrets to the leak channel the attacker
//! read, and emits the observable actions for the monitoring pipeline.

use std::net::Ipv4Addr;

use simnet::action::{Action, AuthMethod, ExecAction, SshAuthAction};
use simnet::flow::{ConnState, Flow, FlowId, Service};
use simnet::rng::{FxHashMap, SimRng};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

use crate::hints::{HintPublisher, LeakChannel};
use crate::ssh_svc::SshEmulator;

/// Deployment statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauditStats {
    pub attempts: u64,
    pub successes: u64,
    /// Successful logins traced to a planted hint.
    pub attributed: u64,
}

/// The SSH honeypot fleet.
pub struct CauditHoneypot {
    emulators: FxHashMap<Ipv4Addr, SshEmulator>,
    targets: FxHashMap<Ipv4Addr, HostId>,
    publisher: HintPublisher,
    per_channel: FxHashMap<LeakChannel, u64>,
    next_flow: u64,
    stats: CauditStats,
}

impl CauditHoneypot {
    /// Deploy on the given entry points (address → backing container
    /// host), planting one hint per leak channel for `ghost_user`.
    pub fn deploy(
        rng: &mut SimRng,
        entries: &[(Ipv4Addr, HostId)],
        ghost_user: &str,
    ) -> CauditHoneypot {
        let mut publisher = HintPublisher::new();
        let first_url = entries
            .first()
            .map(|(a, _)| format!("ssh://{ghost_user}@{a}"))
            .unwrap_or_else(|| format!("ssh://{ghost_user}@honeypot"));
        publisher.plant_all(rng, ghost_user, &first_url);
        let accepted = publisher.credentials();
        let mut emulators = FxHashMap::default();
        let mut targets = FxHashMap::default();
        for (addr, host) in entries {
            emulators.insert(*addr, SshEmulator::new(accepted.clone()));
            targets.insert(*addr, *host);
        }
        CauditHoneypot {
            emulators,
            targets,
            publisher,
            per_channel: FxHashMap::default(),
            next_flow: 0xCA_0000,
            stats: CauditStats::default(),
        }
    }

    /// The planted hints (for scenario scripts that "leak" them).
    pub fn publisher(&self) -> &HintPublisher {
        &self.publisher
    }

    pub fn stats(&self) -> CauditStats {
        self.stats
    }

    fn fresh_flow(&mut self, t: SimTime, src: Ipv4Addr, dst: Ipv4Addr, ok: bool) -> Flow {
        self.next_flow += 1;
        Flow {
            id: FlowId(self.next_flow),
            start: t,
            duration: SimDuration::from_secs(if ok { 20 } else { 1 }),
            src,
            src_port: 42_000 + (self.next_flow % 10_000) as u16,
            dst,
            dst_port: 22,
            proto: simnet::flow::Proto::Tcp,
            state: if ok { ConnState::SF } else { ConnState::Rstr },
            service: Service::Ssh,
            orig_bytes: 2_100,
            resp_bytes: 1_400,
        }
    }

    /// An authentication attempt against an entry point. Returns success,
    /// the attributed leak channel (when a planted secret was used), and
    /// the observable action.
    pub fn attempt(
        &mut self,
        t: SimTime,
        src: Ipv4Addr,
        entry: Ipv4Addr,
        user: &str,
        secret: &str,
    ) -> (bool, Option<LeakChannel>, Vec<(SimTime, Action)>) {
        let Some(target) = self.targets.get(&entry).copied() else {
            return (false, None, Vec::new());
        };
        self.stats.attempts += 1;
        let em = self
            .emulators
            .get_mut(&entry)
            .expect("target implies emulator");
        use crate::service::VulnerableService;
        let success = em.try_auth(user, secret);
        let channel = if success {
            let ch = self.publisher.attribute(secret);
            if let Some(ch) = ch {
                self.stats.attributed += 1;
                *self.per_channel.entry(ch).or_insert(0) += 1;
            }
            ch
        } else {
            None
        };
        if success {
            self.stats.successes += 1;
        }
        let flow = self.fresh_flow(t, src, entry, success);
        let action = Action::SshAuth(SshAuthAction {
            flow,
            target: Some(target),
            user: user.to_string(),
            method: AuthMethod::Password,
            success,
            client_banner: "SSH-2.0-libssh2_1.9".into(),
        });
        (success, channel, vec![(t, action)])
    }

    /// A command in an authenticated session: observable as a process
    /// execution on the backing container host.
    pub fn command(
        &mut self,
        t: SimTime,
        entry: Ipv4Addr,
        user: &str,
        cmdline: &str,
    ) -> Vec<(SimTime, Action)> {
        let Some(target) = self.targets.get(&entry).copied() else {
            return Vec::new();
        };
        self.next_flow += 1;
        vec![(
            t,
            Action::Exec(ExecAction {
                host: target,
                user: user.to_string(),
                pid: (self.next_flow & 0xFFFF) as u32,
                ppid: 1,
                exe: "/bin/bash".into(),
                cmdline: cmdline.to_string(),
            }),
        )]
    }

    /// Attribution report: successful planted-credential uses per channel
    /// — the §IV-B "trace an individual attacker's tactics" capability.
    pub fn attribution_report(&self) -> Vec<(LeakChannel, u64)> {
        let mut v: Vec<(LeakChannel, u64)> =
            self.per_channel.iter().map(|(c, n)| (*c, *n)).collect();
        v.sort_by_key(|(c, _)| c.as_str());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployed() -> (CauditHoneypot, Vec<Ipv4Addr>) {
        let mut rng = SimRng::seed(31);
        let entries: Vec<(Ipv4Addr, HostId)> = (0..4)
            .map(|i| {
                (
                    format!("141.142.77.{}", 10 + i).parse().unwrap(),
                    HostId(100 + i as u32),
                )
            })
            .collect();
        let pot = CauditHoneypot::deploy(&mut rng, &entries, "svcbackup");
        let addrs = entries.iter().map(|(a, _)| *a).collect();
        (pot, addrs)
    }

    #[test]
    fn planted_credentials_attributed_to_their_channel() {
        let (mut pot, addrs) = deployed();
        let hints: Vec<_> = pot.publisher().hints().to_vec();
        assert_eq!(hints.len(), 4, "one hint per channel");
        let src: Ipv4Addr = "91.247.1.1".parse().unwrap();
        for hint in &hints {
            let (ok, channel, actions) = pot.attempt(
                SimTime::from_secs(1),
                src,
                addrs[0],
                &hint.credential.user,
                &hint.credential.secret,
            );
            assert!(ok);
            assert_eq!(channel, Some(hint.channel));
            assert_eq!(actions.len(), 1);
        }
        let report = pot.attribution_report();
        assert_eq!(report.len(), 4);
        assert!(report.iter().all(|(_, n)| *n == 1));
        assert_eq!(pot.stats().attributed, 4);
    }

    #[test]
    fn brute_force_fails_and_is_counted() {
        let (mut pot, addrs) = deployed();
        let src: Ipv4Addr = "91.247.1.1".parse().unwrap();
        for i in 0..10u64 {
            let (ok, ch, actions) = pot.attempt(
                SimTime::from_secs(i),
                src,
                addrs[1],
                "root",
                &format!("password{i}"),
            );
            assert!(!ok);
            assert!(ch.is_none());
            // Failed auth is still observable.
            match &actions[0].1 {
                Action::SshAuth(a) => assert!(!a.success),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(pot.stats().attempts, 10);
        assert_eq!(pot.stats().successes, 0);
    }

    #[test]
    fn commands_observable_on_container_host() {
        let (mut pot, addrs) = deployed();
        let actions = pot.command(
            SimTime::from_secs(5),
            addrs[2],
            "svcbackup",
            "cat ~/.ssh/known_hosts",
        );
        match &actions[0].1 {
            Action::Exec(e) => {
                assert_eq!(e.host, HostId(102));
                assert!(e.cmdline.contains("known_hosts"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_entry_rejected() {
        let (mut pot, _) = deployed();
        let (ok, ch, actions) = pot.attempt(
            SimTime::from_secs(0),
            "1.1.1.1".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
            "x",
            "y",
        );
        assert!(!ok && ch.is_none() && actions.is_empty());
        assert!(pot
            .command(
                SimTime::from_secs(0),
                "10.0.0.1".parse().unwrap(),
                "x",
                "id"
            )
            .is_empty());
    }

    #[test]
    fn end_to_end_attempt_symbolizes_to_ghost_account_alert() {
        // A planted-hint login must surface as alert_ghost_account_login
        // once the symbolizer is configured with the ghost user.
        let (mut pot, addrs) = deployed();
        let hint = pot.publisher().hints()[0].clone();
        let src: Ipv4Addr = "91.247.1.1".parse().unwrap();
        let (_, _, actions) = pot.attempt(
            SimTime::from_secs(1),
            src,
            addrs[0],
            &hint.credential.user,
            &hint.credential.secret,
        );
        let Action::SshAuth(auth) = &actions[0].1 else {
            panic!("expected ssh auth")
        };
        let record = telemetry::record::LogRecord::Ssh(telemetry::record::SshRecord {
            ts: actions[0].0,
            uid: auth.flow.id,
            orig_h: auth.flow.src,
            resp_h: auth.flow.dst,
            user: auth.user.as_str().into(),
            method: auth.method,
            success: auth.success,
            client_banner: auth.client_banner.as_str().into(),
            direction: simnet::flow::Direction::Inbound,
        });
        let mut sym = alertlib::Symbolizer::with_defaults(); // ghost list has svcbackup
        let alerts = sym.symbolize(&record);
        assert!(alerts
            .iter()
            .any(|a| a.kind == alertlib::AlertKind::GhostAccountLogin));
    }
}
