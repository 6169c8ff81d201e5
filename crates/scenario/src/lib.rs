//! # scenario — workloads, incidents and attack scripts
//!
//! Everything stochastic the testbed consumes, all seeded and
//! reproducible:
//!
//! - [`template`] — attack step templates with Insight-3 delay models.
//! - [`library`] — eight attack families + the S1..S43 pattern catalogue
//!   with Fig. 3b's support distribution.
//! - [`incident`] — incident realization (noise prologue, motif weaving,
//!   terminal criticals) and benign sessions.
//! - [`longitudinal`] — the 24-year, 228-incident corpus calibrated to
//!   Table I / Insight 4 (19 critical kinds × 98 occurrences, 60.08% S1).
//! - [`background`] — mass-scanner + legit background streams (Fig. 2's
//!   94 K/day) and the Fig. 1 flow sample.
//! - [`ransomware`] — the §V case-study playbook, including Fig. 5's
//!   lateral-movement script and the 12-day production wave.
//! - [`stream`] — raw [`LogRecord`](telemetry::record::LogRecord) streams
//!   (scan floods + benign flows + per-user command sessions) for the
//!   streaming executors and their benchmarks.
//! - [`faults`] — seeded telemetry fault injection (record loss, sensor
//!   blackout windows, duplication, bounded reordering, per-host clock
//!   skew) for degraded-mode evaluation of the pipeline.
//! - [`mutate`] — the adversarial mutation engine: kill-chain-constrained
//!   template mutation (drops, reorders, cover interleave, low-and-slow
//!   dilation, decoys, lateral campaigns) and the [`Campaign`]
//!   driver multiplexing hundreds of mutated sessions with background load
//!   into one ground-truthed record stream.
//! - [`adapt`] — closed-loop adaptive attackers: a seeded hill-climbing
//!   search over [`MutationConfig`] (worst-case
//!   robustness frontier) and a reactive mid-stream generator that
//!   observes block decisions through a [`FeedbackTap`]
//!   and rotates sources / stretches tempo / re-splits laterally.

pub mod adapt;
pub mod background;
pub mod faults;
pub mod incident;
pub mod library;
pub mod longitudinal;
pub mod mutate;
pub mod ransomware;
pub mod stream;
pub mod template;

pub use adapt::{
    AdaptiveSearch, BlockEvent, FeedbackTap, ReactiveGenerator, ReactivePolicy, ReactiveStats,
    SearchSpace,
};
pub use background::{
    fig1_flows, sample_daily_volume, stream_day, stream_days, Fig1Config, Fig1GroundTruth,
    VolumeModel,
};
pub use faults::{
    apply_fault_plan, BlackoutScope, BlackoutWindow, ClockSkewConfig, FaultInjector, FaultPlan,
    FaultStats,
};
pub use incident::{benign_sessions, generate_incident, IncidentSpec};
pub use library::{s1_motif, s_pattern_signatures, s_pattern_supports, standard_library};
pub use longitudinal::{generate_corpus, pin_motif_span, LongitudinalConfig};
pub use mutate::{
    generate_campaign, Campaign, CampaignConfig, CampaignGroundTruth, KillChain, MutatedSession,
    MutationConfig, SessionTruth,
};
pub use ransomware::{
    build_scenario, expected_honeypot_kinds, RansomwareConfig, RansomwareScenario, FIG5_SCRIPT,
};
pub use stream::{record_stream, RecordStreamConfig};
pub use template::{AttackTemplate, Delay, Step};
