//! # bhr — the Black Hole Router
//!
//! The response component of Fig. 4: a null-route table with a
//! programmable API (modeled after `ncsa/bhr-client` \[37\]) plus a
//! rate-based auto-block policy, packaged as a border-router filter for the
//! simulation engine.
//!
//! - [`table`] — null routes with TTL expiry and hit counters.
//! - [`api`] — audited block / unblock / query / list verbs over a shared
//!   thread-safe handle.
//! - [`policy`] — auto-blocking of mass scanners + the
//!   [`policy::BhrFilter`] route filter.

pub mod api;
pub mod policy;
pub mod retry;
pub mod table;

pub use api::{AuditEntry, BhrHandle};
pub use policy::{AutoBlockPolicy, BhrFilter};
pub use retry::{BlockBackend, BlockError, FlakyBackend, ReliableBackend, RetryPolicy};
pub use table::{Block, BlockOutcome, NullRouteTable, TableStats};
