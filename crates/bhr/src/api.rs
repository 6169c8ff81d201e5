//! Programmable BHR API.
//!
//! §IV: the testbed interfaces "with a Black Hole router through
//! automated/programmable Application Programming Interface (API) of the
//! Black Hole Router for real-time response". The API mirrors the verbs of
//! `ncsa/bhr-client` (block / unblock / query / list) over a shared,
//! thread-safe table, and keeps an audit log of every call.

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use simnet::time::{SimDuration, SimTime};

use crate::retry::{BlockBackend, BlockError, ReliableBackend};
use crate::table::{Block, BlockOutcome, BlockReason, NullRouteTable, TableStats};

/// One audited API call or response-path event. `Copy`: appending one
/// costs at most the log's own growth, and its text is rendered only when
/// the entry is displayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditEntry {
    pub ts: SimTime,
    pub command: &'static str,
    pub addr: Option<Ipv4Addr>,
    pub detail: AuditDetail,
}

/// What an [`AuditEntry`] records about its command, displayed as the
/// ledger's detail text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditDetail {
    /// An installed block's reason.
    Reason(BlockReason),
    /// A failed delivery.
    Error(BlockError),
    /// `after {n} failed attempts`: a block given up on.
    FailedAttempts(u32),
    /// `{n} consecutive delivery failures`: a tripped circuit breaker.
    ConsecutiveFailures(u32),
    /// `{n} entries`: a listing.
    Entries(usize),
    /// `{n} expired`: a sweep.
    Expired(usize),
    /// Fixed text.
    Text(&'static str),
}

impl From<BlockReason> for AuditDetail {
    fn from(reason: BlockReason) -> Self {
        AuditDetail::Reason(reason)
    }
}

impl From<BlockError> for AuditDetail {
    fn from(error: BlockError) -> Self {
        AuditDetail::Error(error)
    }
}

impl From<&'static str> for AuditDetail {
    fn from(text: &'static str) -> Self {
        AuditDetail::Text(text)
    }
}

impl fmt::Display for AuditDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditDetail::Reason(reason) => reason.fmt(f),
            AuditDetail::Error(error) => error.fmt(f),
            AuditDetail::FailedAttempts(n) => write!(f, "after {n} failed attempts"),
            AuditDetail::ConsecutiveFailures(n) => write!(f, "{n} consecutive delivery failures"),
            AuditDetail::Entries(n) => write!(f, "{n} entries"),
            AuditDetail::Expired(n) => write!(f, "{n} expired"),
            AuditDetail::Text(text) => f.write_str(text),
        }
    }
}

/// Lock a shared part of the handle. Every update made under these locks
/// is one table call, one audit push or one backend call, so the data is
/// valid at every step: a lock poisoned by a panicking holder is taken
/// over rather than propagated to the next caller.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared handle to the BHR. Cloneable; all clones address the same table
/// (and the same delivery backend).
#[derive(Clone)]
pub struct BhrHandle {
    inner: Arc<Mutex<NullRouteTable>>,
    audit: Arc<Mutex<Vec<AuditEntry>>>,
    backend: Arc<Mutex<Box<dyn BlockBackend>>>,
}

impl std::fmt::Debug for BhrHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BhrHandle")
            .field("active_blocks", &lock(&self.inner).len())
            .finish_non_exhaustive()
    }
}

impl Default for BhrHandle {
    fn default() -> Self {
        BhrHandle {
            inner: Arc::default(),
            audit: Arc::default(),
            backend: Arc::new(Mutex::new(Box::new(ReliableBackend))),
        }
    }
}

impl BhrHandle {
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle whose block RPCs go through `backend` — the fault
    /// injection point for the response path. The default handle uses the
    /// always-successful [`ReliableBackend`].
    pub fn with_backend(backend: impl BlockBackend + 'static) -> Self {
        BhrHandle {
            backend: Arc::new(Mutex::new(Box::new(backend))),
            ..Self::default()
        }
    }

    fn log(
        &self,
        ts: SimTime,
        command: &'static str,
        addr: Option<Ipv4Addr>,
        detail: impl Into<AuditDetail>,
    ) {
        lock(&self.audit).push(AuditEntry {
            ts,
            command,
            addr,
            detail: detail.into(),
        });
    }

    /// `bhr-client block`: install a null route. Infallible — bypasses
    /// the delivery backend (an operator at the console, or legacy
    /// callers that predate the fallible path). Idempotent: a re-delivery
    /// of an already-active block with the same reason neither
    /// double-counts in [`TableStats`] nor spams the audit log.
    pub fn block(
        &self,
        ts: SimTime,
        addr: Ipv4Addr,
        reason: impl Into<BlockReason>,
        ttl: Option<SimDuration>,
    ) -> BlockOutcome {
        let reason = reason.into();
        let outcome = lock(&self.inner).block(addr, reason, ts, ttl);
        if outcome != BlockOutcome::Duplicate {
            self.log(ts, "block", Some(addr), reason);
        }
        outcome
    }

    /// Fallible `block`: deliver through the configured [`BlockBackend`]
    /// first; the table is only updated (and the call audited as
    /// `block`) when the RPC succeeds. A failed delivery is audited as
    /// `block-failed` and leaves the table untouched — the caller's
    /// retry policy decides what happens next. Reasons and errors are
    /// `Copy` values, so an attempt allocates nothing beyond the growth
    /// of the table and the audit log.
    pub fn try_block(
        &self,
        ts: SimTime,
        addr: Ipv4Addr,
        reason: BlockReason,
        ttl: Option<SimDuration>,
    ) -> Result<BlockOutcome, BlockError> {
        match lock(&self.backend).try_block(ts, addr, reason, ttl) {
            Ok(()) => {
                let outcome = lock(&self.inner).block(addr, reason, ts, ttl);
                if outcome != BlockOutcome::Duplicate {
                    self.log(ts, "block", Some(addr), reason);
                }
                Ok(outcome)
            }
            Err(e) => {
                self.log(ts, "block-failed", Some(addr), e);
                Err(e)
            }
        }
    }

    /// Batched `block`: install many null routes taking each lock once,
    /// for response stages that emit blocks per pipeline batch instead of
    /// per detection. Idempotent like [`BhrHandle::block`].
    pub fn block_batch<I>(&self, blocks: I)
    where
        I: IntoIterator<Item = (SimTime, Ipv4Addr, BlockReason, Option<SimDuration>)>,
    {
        let mut table = lock(&self.inner);
        let mut audit = lock(&self.audit);
        for (ts, addr, reason, ttl) in blocks {
            if table.block(addr, reason, ts, ttl) == BlockOutcome::Duplicate {
                continue;
            }
            audit.push(AuditEntry {
                ts,
                command: "block",
                addr: Some(addr),
                detail: AuditDetail::Reason(reason),
            });
        }
    }

    /// Append a caller-defined audit entry (retry schedules, abandoned
    /// blocks, circuit-breaker transitions — response-path events that
    /// belong in the same ledger as the API verbs).
    pub fn audit_event(
        &self,
        ts: SimTime,
        command: &'static str,
        addr: Option<Ipv4Addr>,
        detail: impl Into<AuditDetail>,
    ) {
        self.log(ts, command, addr, detail);
    }

    /// `bhr-client unblock`: remove a null route.
    pub fn unblock(&self, ts: SimTime, addr: Ipv4Addr) -> bool {
        let removed = lock(&self.inner).unblock(addr).is_some();
        self.log(
            ts,
            "unblock",
            Some(addr),
            if removed { "removed" } else { "not-found" },
        );
        removed
    }

    /// `bhr-client query`: look up an address (audited, non-routing).
    pub fn query(&self, ts: SimTime, addr: Ipv4Addr) -> Option<Block> {
        let found = lock(&self.inner).query(addr).copied();
        self.log(
            ts,
            "query",
            Some(addr),
            if found.is_some() { "blocked" } else { "clear" },
        );
        found
    }

    /// `bhr-client list`: snapshot of active blocks.
    pub fn list(&self, ts: SimTime) -> Vec<(Ipv4Addr, Block)> {
        let snapshot: Vec<_> = lock(&self.inner).list().map(|(a, b)| (*a, *b)).collect();
        self.log(ts, "list", None, AuditDetail::Entries(snapshot.len()));
        snapshot
    }

    /// Routing-path check (not audited; the router calls this per flow).
    pub fn is_blocked(&self, ts: SimTime, addr: Ipv4Addr) -> bool {
        lock(&self.inner).is_blocked(addr, ts)
    }

    /// Routing-path lookup: the block null-routing `addr` at `ts`, if
    /// any. Counted like [`BhrHandle::is_blocked`] and, like it, not
    /// audited, so a router reading every dropped flow's reason leaves the
    /// ledger alone.
    pub fn active_block(&self, ts: SimTime, addr: Ipv4Addr) -> Option<Block> {
        let mut table = lock(&self.inner);
        if table.is_blocked(addr, ts) {
            table.query(addr).copied()
        } else {
            None
        }
    }

    /// Sweep expired routes.
    pub fn sweep(&self, ts: SimTime) -> usize {
        let n = lock(&self.inner).sweep(ts);
        self.log(ts, "sweep", None, AuditDetail::Expired(n));
        n
    }

    pub fn stats(&self) -> TableStats {
        lock(&self.inner).stats()
    }

    pub fn audit_log(&self) -> Vec<AuditEntry> {
        lock(&self.audit).clone()
    }

    pub fn active_blocks(&self) -> usize {
        lock(&self.inner).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn api_verbs_and_audit() {
        let bhr = BhrHandle::new();
        let t0 = SimTime::from_secs(0);
        bhr.block(t0, addr("103.102.1.1"), "mass-scanner", None);
        assert!(bhr.query(t0, addr("103.102.1.1")).is_some());
        assert_eq!(bhr.list(t0).len(), 1);
        assert!(bhr.unblock(t0, addr("103.102.1.1")));
        assert!(!bhr.unblock(t0, addr("103.102.1.1")));
        let log = bhr.audit_log();
        let commands: Vec<_> = log.iter().map(|e| e.command).collect();
        assert_eq!(
            commands,
            vec!["block", "query", "list", "unblock", "unblock"]
        );
    }

    #[test]
    fn block_batch_matches_singles() {
        let bhr = BhrHandle::new();
        let t0 = SimTime::from_secs(0);
        bhr.block_batch((0..5u8).map(|i| (t0, Ipv4Addr::new(10, 0, 0, i), "batch".into(), None)));
        assert_eq!(bhr.active_blocks(), 5);
        let log = bhr.audit_log();
        assert_eq!(log.len(), 5);
        assert!(log.iter().all(|e| e.command == "block"));
    }

    #[test]
    fn redelivered_block_does_not_spam_the_audit_log() {
        let bhr = BhrHandle::new();
        let a = addr("203.0.113.9");
        // block → retry re-delivery → unblock → re-block.
        assert_eq!(
            bhr.block(SimTime::from_secs(0), a, "r", None),
            BlockOutcome::Added
        );
        assert_eq!(
            bhr.block(SimTime::from_secs(5), a, "r", None),
            BlockOutcome::Duplicate
        );
        assert_eq!(
            bhr.try_block(SimTime::from_secs(6), a, "r".into(), None),
            Ok(BlockOutcome::Duplicate)
        );
        assert!(bhr.unblock(SimTime::from_secs(10), a));
        assert_eq!(
            bhr.block(SimTime::from_secs(20), a, "r", None),
            BlockOutcome::Added
        );
        let commands: Vec<&str> = bhr.audit_log().iter().map(|e| e.command).collect();
        assert_eq!(
            commands,
            vec!["block", "unblock", "block"],
            "duplicates audit nothing"
        );
        let s = bhr.stats();
        assert_eq!(s.blocks_added, 2);
        assert_eq!(s.blocks_duplicate, 2);
        // Batched re-delivery is absorbed the same way.
        bhr.block_batch(vec![(SimTime::from_secs(30), a, "r".into(), None)]);
        assert_eq!(bhr.audit_log().len(), 3);
    }

    #[test]
    fn failing_backend_leaves_the_table_untouched() {
        use crate::retry::FlakyBackend;
        let bhr = BhrHandle::with_backend(FlakyBackend::failing_first(2));
        let a = addr("198.51.100.1");
        assert!(bhr
            .try_block(SimTime::from_secs(0), a, "r".into(), None)
            .is_err());
        assert!(
            !bhr.is_blocked(SimTime::from_secs(1), a),
            "no phantom block"
        );
        assert_eq!(bhr.stats().blocks_added, 0);
        assert!(bhr
            .try_block(SimTime::from_secs(2), a, "r".into(), None)
            .is_err());
        // Third attempt lands.
        assert_eq!(
            bhr.try_block(SimTime::from_secs(4), a, "r".into(), None),
            Ok(BlockOutcome::Added)
        );
        assert!(bhr.is_blocked(SimTime::from_secs(5), a));
        let commands: Vec<&str> = bhr.audit_log().iter().map(|e| e.command).collect();
        assert_eq!(commands, vec!["block-failed", "block-failed", "block"]);
    }

    #[test]
    fn clones_share_state() {
        let bhr = BhrHandle::new();
        let clone = bhr.clone();
        bhr.block(SimTime::from_secs(0), addr("1.1.1.1"), "x", None);
        assert!(clone.is_blocked(SimTime::from_secs(1), addr("1.1.1.1")));
        assert_eq!(clone.active_blocks(), 1);
    }

    #[test]
    fn concurrent_access() {
        let bhr = BhrHandle::new();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let b = bhr.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        let a: Ipv4Addr =
                            format!("10.{i}.{}.{}", j / 250, j % 250).parse().unwrap();
                        b.block(SimTime::from_secs(j as u64), a, "load", None);
                        assert!(b.is_blocked(SimTime::from_secs(j as u64), a));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bhr.active_blocks(), 800);
    }
}
