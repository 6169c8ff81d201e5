//! # bhr — the Black Hole Router
//!
//! The response component of Fig. 4: a null-route table with a
//! programmable API (modeled after `ncsa/bhr-client` \[37\]) plus a
//! rate-based auto-block policy, packaged as a border-router filter for the
//! simulation engine.
//!
//! - [`table`] — null routes with TTL expiry and hit counters, each
//!   carrying a [`table::BlockReason`].
//! - [`api`] — audited block / unblock / query / list verbs over a shared
//!   thread-safe handle; the ledger is a list of [`api::AuditEntry`]s.
//! - [`retry`] — fallible delivery ([`retry::BlockBackend`],
//!   [`retry::BlockError`]) and the [`retry::RetryPolicy`].
//! - [`policy`] — auto-blocking of mass scanners + the
//!   [`policy::BhrFilter`] route filter.
//!
//! Block reasons, delivery errors and audit entries are `Copy` values of
//! static text and numbers, rendered only when displayed
//! ([`table::BlockReason`], [`retry::BlockError`],
//! [`api::AuditDetail`]): deciding, retrying, failing and auditing a
//! block allocates nothing beyond the growth of the table and the log.

pub mod api;
pub mod policy;
pub mod retry;
pub mod table;

pub use api::{AuditDetail, AuditEntry, BhrHandle};
pub use policy::{AutoBlockPolicy, BhrFilter};
pub use retry::{BlockBackend, BlockError, FlakyBackend, ReliableBackend, RetryPolicy};
pub use table::{Block, BlockOutcome, BlockReason, NullRouteTable, TableStats};
