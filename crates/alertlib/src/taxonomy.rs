//! The alert taxonomy.
//!
//! Every raw log message is assigned "a symbolic name indicating the
//! attacker's intention" (§II-A), e.g. `alert_download_sensitive`. This
//! module is the catalogue of those symbols: each [`AlertKind`] carries a
//! symbol string, a [`Severity`] and an attack [`Phase`].
//!
//! The severity ladder mirrors §III-A's alert concepts: benign activity
//! (`Info`), mass scan noise (`Noise`), attack attempts (`Attempt`),
//! significant alerts worth attention (`Significant`), and critical alerts
//! whose appearance means damage has already happened (`Critical`). The
//! taxonomy deliberately contains **exactly 19 critical kinds**, matching
//! Insight 4's "19 such unique critical alerts".

use std::fmt;

/// Alert severity, per the paper's alert concepts (§III-A, Remark 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legitimate operational activity (e.g. a login).
    Info,
    /// Repetitive, inconclusive mass activity (port/vulnerability scans).
    Noise,
    /// An attack attempt that will most likely fail (brute force).
    Attempt,
    /// Worth attention: indicative of an attack in progress.
    Significant,
    /// System integrity already compromised / data already exfiltrated —
    /// "too late to preempt" (Insight 4).
    Critical,
}

/// Kill-chain-like attack phase an alert is typically associated with.
/// Used to seed the factor-graph detector's emission priors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Benign,
    Recon,
    InitialAccess,
    Execution,
    Persistence,
    PrivilegeEscalation,
    DefenseEvasion,
    CredentialAccess,
    Discovery,
    LateralMovement,
    Collection,
    CommandAndControl,
    Exfiltration,
    Impact,
}

macro_rules! alert_kinds {
    ($( $variant:ident => ($symbol:literal, $sev:ident, $phase:ident) ),+ $(,)?) => {
        /// A symbolic alert name. See module docs.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u16)]
        pub enum AlertKind {
            $( $variant ),+
        }

        impl AlertKind {
            /// Every kind, in declaration (index) order.
            pub const ALL: &'static [AlertKind] = &[ $( AlertKind::$variant ),+ ];

            /// The `alert_*` symbol string of §II-A.
            pub fn symbol(self) -> &'static str {
                match self { $( AlertKind::$variant => $symbol ),+ }
            }

            /// Severity classification.
            pub fn severity(self) -> Severity {
                match self { $( AlertKind::$variant => Severity::$sev ),+ }
            }

            /// Typical attack phase.
            pub fn phase(self) -> Phase {
                match self { $( AlertKind::$variant => Phase::$phase ),+ }
            }

            /// Parse a symbol string back into a kind.
            pub fn from_symbol(s: &str) -> Option<AlertKind> {
                match s {
                    $( $symbol => Some(AlertKind::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

alert_kinds! {
    // ---- Benign operational activity -------------------------------
    LoginSuccess => ("alert_login", Info, Benign),
    LoginFailed => ("alert_login_failed", Noise, Benign),
    JobSubmit => ("alert_job_submit", Info, Benign),
    FileTransfer => ("alert_file_transfer", Info, Benign),
    SoftwareInstall => ("alert_software_install", Info, Benign),

    // ---- Mass scanning noise ----------------------------------------
    PortScan => ("alert_port_scan", Noise, Recon),
    AddressSweep => ("alert_address_sweep", Noise, Recon),
    VulnScan => ("alert_vuln_scan", Noise, Recon),
    BruteForcePassword => ("alert_brute_force", Attempt, CredentialAccess),
    RepeatedProbeDb => ("alert_repeated_probe_db", Noise, Recon),

    // ---- Foothold / initial access ----------------------------------
    DefaultCredentialUse => ("alert_default_credential", Significant, InitialAccess),
    GhostAccountLogin => ("alert_ghost_account_login", Significant, InitialAccess),
    StolenCredentialLogin => ("alert_stolen_credential_login", Significant, InitialAccess),
    LoginUnusualHour => ("alert_login_unusual_hour", Attempt, InitialAccess),
    LoginNewGeolocation => ("alert_login_new_geo", Attempt, InitialAccess),
    SqlInjectionProbe => ("alert_sqli_probe", Attempt, InitialAccess),
    RemoteCodeExecAttempt => ("alert_rce_attempt", Attempt, InitialAccess),
    AuthBypassAttempt => ("alert_auth_bypass_attempt", Attempt, InitialAccess),
    HoneytokenAccess => ("alert_honeytoken_access", Significant, InitialAccess),

    // ---- Execution / payload staging --------------------------------
    DownloadSensitive => ("alert_download_sensitive", Significant, Execution),
    DownloadBinaryUnknown => ("alert_download_binary", Significant, Execution),
    KnownMalwareDownload => ("alert_known_malware_download", Significant, Execution),
    CompileSource => ("alert_compile_source", Attempt, Execution),
    CompileKernelModule => ("alert_compile_kernel_module", Significant, Execution),
    Base64DecodeExec => ("alert_base64_decode_exec", Significant, Execution),
    SuspiciousProcessName => ("alert_suspicious_process", Attempt, Execution),
    ElfMagicInDbBlob => ("alert_elf_in_db_blob", Significant, Execution),
    FileDropTmp => ("alert_file_drop_tmp", Significant, Execution),
    LoExportExecution => ("alert_lo_export", Significant, Execution),
    DbVersionRecon => ("alert_db_version_recon", Attempt, Discovery),
    ReverseShellPattern => ("alert_reverse_shell", Significant, Execution),

    // ---- Persistence / defense evasion ------------------------------
    CronEntryAdded => ("alert_cron_added", Significant, Persistence),
    NewServiceInstall => ("alert_new_service", Attempt, Persistence),
    KernelModuleLoaded => ("alert_kernel_module_loaded", Significant, Persistence),
    SshAuthorizedKeyAdded => ("alert_authorized_key_added", Significant, Persistence),
    LogWipe => ("alert_log_wipe", Significant, DefenseEvasion),
    HistoryCleared => ("alert_history_cleared", Significant, DefenseEvasion),
    TimestampTampering => ("alert_timestomp", Significant, DefenseEvasion),

    // ---- Credential access / discovery / lateral movement -----------
    SshKeyEnumeration => ("alert_ssh_key_enum", Significant, CredentialAccess),
    KnownHostsEnumeration => ("alert_known_hosts_enum", Significant, Discovery),
    BashHistoryAccess => ("alert_bash_history_access", Significant, Discovery),
    PasswordFileAccess => ("alert_passwd_access", Attempt, CredentialAccess),
    LateralMovementAttempt => ("alert_lateral_movement", Significant, LateralMovement),
    OutboundScanning => ("alert_outbound_scan", Significant, LateralMovement),
    InternalPivotLogin => ("alert_internal_pivot", Significant, LateralMovement),

    // ---- Command & control / collection ------------------------------
    C2Communication => ("alert_c2_communication", Significant, CommandAndControl),
    IrcConnection => ("alert_irc_connection", Attempt, CommandAndControl),
    TorConnection => ("alert_tor_connection", Attempt, CommandAndControl),
    IcmpTunnelSuspected => ("alert_icmp_tunnel", Significant, CommandAndControl),
    DnsTunnelSuspected => ("alert_dns_tunnel", Significant, CommandAndControl),
    AnomalousDataVolume => ("alert_anomalous_volume", Significant, Collection),
    ArchiveStaging => ("alert_archive_staging", Attempt, Collection),
    FirewallEgressDrop => ("alert_egress_drop", Significant, CommandAndControl),

    // ---- Critical: damage already done (exactly 19; Insight 4) ------
    PrivilegeEscalation => ("alert_priv_escalation", Critical, PrivilegeEscalation),
    PiiInOutboundHttp => ("alert_pii_outbound_http", Critical, Exfiltration),
    DataExfiltration => ("alert_data_exfiltration", Critical, Exfiltration),
    CredentialDatabaseDump => ("alert_credential_db_dump", Critical, Exfiltration),
    SshKeyTheftConfirmed => ("alert_ssh_key_theft", Critical, Exfiltration),
    RansomNoteDropped => ("alert_ransom_note", Critical, Impact),
    MassFileEncryption => ("alert_mass_encryption", Critical, Impact),
    RootkitInstalled => ("alert_rootkit_installed", Critical, Impact),
    BackdoorAccountCreated => ("alert_backdoor_account", Critical, Impact),
    AuthBypassSuccess => ("alert_auth_bypass_success", Critical, Impact),
    BootPersistenceImplant => ("alert_boot_implant", Critical, Impact),
    OutboundSpamCampaign => ("alert_spam_campaign", Critical, Impact),
    CryptominerDeployed => ("alert_cryptominer", Critical, Impact),
    DdosParticipation => ("alert_ddos_participation", Critical, Impact),
    MonitorTampering => ("alert_monitor_tampering", Critical, DefenseEvasion),
    SupplyChainTampering => ("alert_supply_chain_tamper", Critical, Impact),
    ScientificDataCorruption => ("alert_data_corruption", Critical, Impact),
    RansomDemandIssued => ("alert_ransom_demand", Critical, Impact),
    WormPropagationConfirmed => ("alert_worm_propagation", Critical, Impact),
}

impl AlertKind {
    /// Dense index in `[0, AlertKind::COUNT)`; stable across a build.
    /// Used as the observation-variable value in the factor graph.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Total number of kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Kind for a dense index.
    ///
    /// # Panics
    /// Panics if `i >= COUNT`.
    pub fn from_index(i: usize) -> AlertKind {
        Self::ALL[i]
    }

    /// Whether this alert means damage has already occurred.
    pub fn is_critical(self) -> bool {
        self.severity() == Severity::Critical
    }

    /// Whether this alert is mass-scan noise subject to the repeated-alert
    /// filter of §II-A.
    pub fn is_noise(self) -> bool {
        matches!(self.severity(), Severity::Noise)
    }

    /// All critical kinds.
    pub fn critical_kinds() -> impl Iterator<Item = AlertKind> {
        Self::ALL.iter().copied().filter(|k| k.is_critical())
    }
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exactly_19_critical_kinds() {
        // Insight 4: "The entire dataset has 19 such unique critical alerts".
        assert_eq!(AlertKind::critical_kinds().count(), 19);
    }

    #[test]
    fn symbols_are_unique() {
        let symbols: HashSet<_> = AlertKind::ALL.iter().map(|k| k.symbol()).collect();
        assert_eq!(symbols.len(), AlertKind::COUNT);
    }

    #[test]
    fn symbol_roundtrip() {
        for &k in AlertKind::ALL {
            assert_eq!(AlertKind::from_symbol(k.symbol()), Some(k));
        }
        assert_eq!(AlertKind::from_symbol("alert_nonexistent"), None);
    }

    #[test]
    fn index_roundtrip_and_density() {
        for (i, &k) in AlertKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(AlertKind::from_index(i), k);
        }
    }

    #[test]
    fn s1_pattern_kinds_exist_with_expected_severities() {
        // S1 (§I): download source over HTTP, compile kernel module, wipe
        // forensic trace. None of these may be Critical — the pattern must
        // remain preemptable.
        for k in [
            AlertKind::DownloadSensitive,
            AlertKind::CompileKernelModule,
            AlertKind::LogWipe,
        ] {
            assert_ne!(k.severity(), Severity::Critical, "{k} must be preemptable");
        }
        assert_eq!(
            AlertKind::DownloadSensitive.symbol(),
            "alert_download_sensitive"
        );
    }

    #[test]
    fn criticals_are_late_phase() {
        for k in AlertKind::critical_kinds() {
            assert!(
                matches!(
                    k.phase(),
                    Phase::Impact
                        | Phase::Exfiltration
                        | Phase::PrivilegeEscalation
                        | Phase::DefenseEvasion
                ),
                "{k} has unexpectedly early phase {:?}",
                k.phase()
            );
        }
    }

    #[test]
    fn severity_ordering_supports_thresholding() {
        assert!(Severity::Critical > Severity::Significant);
        assert!(Severity::Significant > Severity::Attempt);
        assert!(Severity::Attempt > Severity::Noise);
        assert!(Severity::Noise > Severity::Info);
    }

    #[test]
    fn noise_kinds_are_scan_like() {
        let noise: Vec<_> = AlertKind::ALL
            .iter()
            .filter(|k| k.is_noise())
            .map(|k| k.symbol())
            .collect();
        assert!(noise.contains(&"alert_port_scan"));
        assert!(noise.contains(&"alert_address_sweep"));
    }
}
