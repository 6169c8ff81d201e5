//! # detect — preemption models
//!
//! The detection models deployed on the testbed (§IV, §V):
//!
//! - [`attack_tagger`] — the factor-graph detector (\[5\], \[6\]): per-entity
//!   hidden attack-stage chains with learned observation and transition
//!   factors; causal forward filtering raises detections *before* damage.
//! - [`correlate`] — cross-entity campaign correlation: stitches
//!   lateral-split hops into campaigns through shared victim / source /
//!   host / exec-palette join keys and promotes linked sub-threshold
//!   posteriors into fused campaign-level detections.
//! - [`rules`] — the rule-based baseline matching recurring alert
//!   sequences within time windows.
//! - [`critical`] — the critical-alert-only baseline, which detects but by
//!   construction cannot preempt (Insight 4).
//! - [`fg_session`] — the full (loopy) skip-chain session factor graph of
//!   ref \[6\], for offline forensic inference.
//! - [`online`] — online per-entity adapter for the offline baselines.
//! - [`stage`] — the hidden attack-stage vocabulary.
//! - [`sessionize`](mod@sessionize) — entity sessionization per the §III-B threat model.
//! - [`train`](mod@train) — supervised MLE training from annotated incidents.
//! - [`metrics`] — detection / preemption / lead-time evaluation.

pub mod attack_tagger;
pub mod correlate;
pub mod critical;
pub mod fg_session;
pub mod metrics;
pub mod online;
pub mod rules;
pub mod sessionize;
pub mod stage;
pub mod train;

pub use attack_tagger::{AttackTagger, Detection, Observation, TaggerConfig};
pub use correlate::{
    CampaignCorrelator, CampaignSummary, CorrelatedTagger, CorrelationPolicy, LinkKind, LinkSummary,
};
pub use critical::CriticalOnlyDetector;
pub use fg_session::{build_session_graph, infer_session, SessionGraphConfig, SessionPosteriors};
pub use metrics::{evaluate, prefix_sweep, EvalSummary, IncidentOutcome, SequenceDetector};
pub use online::OnlineSessionDetector;
pub use rules::{Rule, RuleBasedDetector};
pub use sessionize::{sessionize, Session, Sessionizer};
pub use stage::{monotone_stage_labels, Stage};
pub use train::{toy_training_model, train, TrainConfig};
