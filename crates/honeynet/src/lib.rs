//! # honeynet — the honeypot substrate
//!
//! Everything §IV deploys to attract and contain attackers:
//!
//! - [`vrt`] — the Vulnerability Reproduction Tool: date-pinned snapshots
//!   of old distributions (the Heartbleed example resolves exactly as in
//!   the paper).
//! - [`container`] — immutable images, short-lived instances, auto-scaling
//!   pools.
//! - [`service`] / [`postgres`] / [`ssh_svc`] — vulnerable service
//!   emulators with observable side effects (the §V ransomware surface).
//! - [`isolation`] — egress firewall (iptables drop model), overlay
//!   network, and the isolation monitor that alerts on containment drops.
//! - [`hints`] — channel-unique leaked credentials for attacker
//!   attribution.
//! - [`deploy`] — the /24 with sixteen entry points forwarding into
//!   containers, turning attacker sessions into action streams.
//! - [`caudit`] — the CAUDIT-style SSH honeypot fleet with leak-channel
//!   attribution (the testbed's predecessor, ref \[7\]).

pub mod caudit;
pub mod container;
pub mod deploy;
pub mod hints;
pub mod isolation;
pub mod postgres;
pub mod service;
pub mod ssh_svc;
pub mod vrt;

pub use caudit::{CauditHoneypot, CauditStats};
pub use container::{Container, ContainerImage, ContainerPool, InstanceState, PoolStats};
pub use deploy::{DeployConfig, DeployStats, HoneynetDeployment};
pub use hints::{Hint, HintPublisher, LeakChannel};
pub use isolation::{EgressFirewall, IsolationMonitor, OverlayNetwork};
pub use postgres::PostgresEmulator;
pub use service::{CommandOutcome, Credential, ServiceEvent, SessionCtx, VulnerableService};
pub use ssh_svc::{CapturedAttempt, SshEmulator};
pub use vrt::{Release, Snapshot, SnapshotRepo, VrtError, Vulnerability};
