//! # alertlib — alerts, symbolization, filtering, annotation
//!
//! The data-preparation layer of §II-A: raw log records (from `telemetry`)
//! become symbolized, sanitized [`alert::Alert`]s; repeated scan noise is
//! filtered (25 M → 191 K in the paper); alerts are annotated against
//! incident ground truth (99.7% automatically); and incidents are stored as
//! the longitudinal corpus the measurement study mines.
//!
//! - [`taxonomy`] — the `alert_*` symbol catalogue with severities and
//!   phases (exactly 19 critical kinds, per Insight 4).
//! - [`alert`] — the alert type and attack [`alert::Entity`].
//! - [`pattern`] — wildcard matching used by the rules.
//! - [`symbolize`] — the record→alert rule engine.
//! - [`sanitize`](mod@sanitize) — PII scrubbing (paper's `xxx.yyy` address masking).
//! - [`filter`] — streaming repeated-scan filter.
//! - [`annotate`] — auto + expert annotation against ground truth.
//! - [`store`] — incidents and the longitudinal corpus.

pub mod alert;
pub mod annotate;
pub mod filter;
pub mod message;
pub mod pattern;
pub mod sanitize;
pub mod store;
pub mod symbolize;
pub mod taxonomy;

/// The shared string-interning layer the record and alert types build on
/// (implemented in [`simnet::intern`]; re-exported here as the pipeline's
/// canonical import path).
pub use simnet::intern;

pub use alert::{Alert, Entity, EntityId, EntityKey, SnapKey};
pub use annotate::{Annotation, AnnotationReport, Annotator, GroundTruth, Label, Method};
pub use filter::{FilterConfig, FilterStats, ScanFilter};
pub use intern::Sym;
pub use message::MessageSpec;
pub use sanitize::{contains_pii, sanitize, SanitizeConfig};
pub use store::{Incident, IncidentId, IncidentStore};
pub use symbolize::{Symbolizer, SymbolizerConfig};
pub use taxonomy::{AlertKind, Phase, Severity};
