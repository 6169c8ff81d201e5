//! # testbed — the ATTACKTAGGER pipeline (the paper's core contribution)
//!
//! The end-to-end security testbed of Fig. 4: attacks and benign traffic
//! enter through the border (Black Hole Router filter + honeynet egress
//! firewall), monitors produce records, records are symbolized into
//! alerts, repeated scans are filtered, online detectors infer hidden
//! attack stages per entity, and detections drive response (BHR blocks +
//! operator notifications — the mechanism that preempted the §V ransomware
//! twelve days before it hit production).
//!
//! - [`config`] — one struct configuring every stage, including the
//!   pipeline batching / capacity / sharding knobs.
//! - [`stage`] — **the Fig. 4 stages**: the [`Stage`] trait, the four
//!   concrete stages (symbolize, scan filter, detector, response),
//!   [`PipelineBuilder`], and the inline / threaded / sharded executors.
//!   Both deployments below are thin wrappers over it.
//! - [`pipeline`] — the in-line, closed-loop detection sink.
//! - [`testbed`] — the orchestrator wiring topology, honeynet, filters.
//! - [`eval`] — the preemption evaluation harness: scores any executor's
//!   run of an adversarial [`scenario::mutate`] campaign against ground
//!   truth (preemption rate, lead-time distributions, per-family TP/FN,
//!   FP rate per million background records).
//! - [`report`] — run reports and operator notifications.
//! - [`service`] — the always-on multi-tenant daemon:
//!   [`ServiceHandle`] with per-tenant scoped
//!   interning, backpressure-aware ingestion, and JSON snapshot/restore
//!   that survives restarts without losing detections.
//!
//! ## Example
//! ```
//! use testbed::prelude::*;
//! use simnet::prelude::*;
//!
//! let mut tb = Testbed::new(TestbedConfig::default());
//! let t = tb.config().start + SimDuration::from_secs(1);
//! let probe = Flow::probe(
//!     FlowId(1), t,
//!     "103.102.8.9".parse().unwrap(),
//!     "141.142.2.1".parse().unwrap(),
//!     22,
//! );
//! tb.schedule(vec![(t, Action::Flow(probe))]);
//! let report = tb.run();
//! assert_eq!(report.actions, 1);
//! ```
//!
//! ## Stream example (builder API)
//! ```
//! use testbed::prelude::*;
//!
//! let report = PipelineBuilder::new()
//!     .executor(ExecutorKind::Sharded)
//!     .batch_size(128)
//!     .build()
//!     .run(Vec::<telemetry::LogRecord>::new());
//! assert_eq!(report.stats.records, 0);
//! ```

pub mod adapt;
pub mod config;
pub mod eval;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod stage;
pub mod testbed;

pub use adapt::{
    learning_curve, run_reactive_campaign, worst_case_frontier, FrontierConfig, FrontierPoint,
    LearningPoint, ReactiveRun,
};
pub use config::{ExecutorKind, PipelineTuning, TestbedConfig};
pub use eval::{evaluate_campaign, run_campaign, CampaignRun, EvalReport, FamilyEval};
pub use pipeline::PipelineSink;
pub use report::{OperatorNotification, RunReport};
pub use service::{ServiceConfig, ServiceError, ServiceHandle, ServiceSnapshot};
pub use stage::{BuiltPipeline, PipelineBuilder, Stage, StreamReport, StreamStats};
pub use testbed::{FilterChain, Testbed};

/// Common imports for testbed users.
pub mod prelude {
    pub use crate::config::{ExecutorKind, PipelineTuning, TestbedConfig};
    pub use crate::eval::{evaluate_campaign, run_campaign, CampaignRun, EvalReport};
    pub use crate::report::{OperatorNotification, RunReport};
    pub use crate::service::{ServiceConfig, ServiceError, ServiceHandle, ServiceSnapshot};
    pub use crate::stage::{BuiltPipeline, PipelineBuilder, StreamReport, StreamStats};
    pub use crate::testbed::Testbed;
}
