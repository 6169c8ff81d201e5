//! Programmable BHR API.
//!
//! §IV: the testbed interfaces "with a Black Hole router through
//! automated/programmable Application Programming Interface (API) of the
//! Black Hole Router for real-time response". The API mirrors the verbs of
//! `ncsa/bhr-client` (block / unblock / query / list) over a shared,
//! thread-safe table, and keeps an audit log of every call.

use std::net::Ipv4Addr;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use simnet::time::{SimDuration, SimTime};

use crate::retry::{BlockBackend, BlockError, ReliableBackend};
use crate::table::{Block, BlockOutcome, NullRouteTable, TableStats};

/// One audited API call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    pub ts: SimTime,
    pub command: String,
    pub addr: Option<Ipv4Addr>,
    pub detail: String,
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
            .field("active_blocks", &self.inner.lock().len())
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

    fn log(&self, ts: SimTime, command: &str, addr: Option<Ipv4Addr>, detail: impl Into<String>) {
        self.audit.lock().push(AuditEntry {
            ts,
            command: command.to_string(),
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
        reason: impl Into<String>,
        ttl: Option<SimDuration>,
    ) -> BlockOutcome {
        let reason = reason.into();
        let outcome = self.inner.lock().block(addr, reason.clone(), ts, ttl);
        if outcome != BlockOutcome::Duplicate {
            self.log(ts, "block", Some(addr), reason);
        }
        outcome
    }

    /// Fallible `block`: deliver through the configured [`BlockBackend`]
    /// first; the table is only updated (and the call audited as
    /// `block`) when the RPC succeeds. A failed delivery is audited as
    /// `block-failed` and leaves the table untouched — the caller's
    /// retry policy decides what happens next. `reason` is copied only
    /// when the block is installed, so a failed attempt allocates nothing
    /// beyond its audit entry.
    pub fn try_block(
        &self,
        ts: SimTime,
        addr: Ipv4Addr,
        reason: &str,
        ttl: Option<SimDuration>,
    ) -> Result<BlockOutcome, BlockError> {
        match self.backend.lock().try_block(ts, addr, reason, ttl) {
            Ok(()) => {
                let reason = reason.to_string();
                let outcome = self.inner.lock().block(addr, reason.clone(), ts, ttl);
                if outcome != BlockOutcome::Duplicate {
                    self.log(ts, "block", Some(addr), reason);
                }
                Ok(outcome)
            }
            Err(e) => {
                self.log(ts, "block-failed", Some(addr), e.to_string());
                Err(e)
            }
        }
    }

    /// Batched `block`: install many null routes taking each lock once,
    /// for response stages that emit blocks per pipeline batch instead of
    /// per detection. Idempotent like [`BhrHandle::block`].
    pub fn block_batch<I>(&self, blocks: I)
    where
        I: IntoIterator<Item = (SimTime, Ipv4Addr, String, Option<SimDuration>)>,
    {
        let mut table = self.inner.lock();
        let mut audit = self.audit.lock();
        for (ts, addr, reason, ttl) in blocks {
            if table.block(addr, reason.clone(), ts, ttl) == BlockOutcome::Duplicate {
                continue;
            }
            audit.push(AuditEntry {
                ts,
                command: "block".to_string(),
                addr: Some(addr),
                detail: reason,
            });
        }
    }

    /// Append a caller-defined audit entry (retry schedules, abandoned
    /// blocks, circuit-breaker transitions — response-path events that
    /// belong in the same ledger as the API verbs).
    pub fn audit_event(
        &self,
        ts: SimTime,
        command: &str,
        addr: Option<Ipv4Addr>,
        detail: impl Into<String>,
    ) {
        self.log(ts, command, addr, detail);
    }

    /// `bhr-client unblock`: remove a null route.
    pub fn unblock(&self, ts: SimTime, addr: Ipv4Addr) -> bool {
        let removed = self.inner.lock().unblock(addr).is_some();
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
        let found = self.inner.lock().query(addr).cloned();
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
        let snapshot: Vec<_> = self
            .inner
            .lock()
            .list()
            .map(|(a, b)| (*a, b.clone()))
            .collect();
        self.log(ts, "list", None, format!("{} entries", snapshot.len()));
        snapshot
    }

    /// Routing-path check (not audited; the router calls this per flow).
    pub fn is_blocked(&self, ts: SimTime, addr: Ipv4Addr) -> bool {
        self.inner.lock().is_blocked(addr, ts)
    }

    /// Sweep expired routes.
    pub fn sweep(&self, ts: SimTime) -> usize {
        let n = self.inner.lock().sweep(ts);
        self.log(ts, "sweep", None, format!("{n} expired"));
        n
    }

    pub fn stats(&self) -> TableStats {
        self.inner.lock().stats()
    }

    pub fn audit_log(&self) -> Vec<AuditEntry> {
        self.audit.lock().clone()
    }

    pub fn active_blocks(&self) -> usize {
        self.inner.lock().len()
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
        let commands: Vec<_> = log.iter().map(|e| e.command.as_str()).collect();
        assert_eq!(
            commands,
            vec!["block", "query", "list", "unblock", "unblock"]
        );
    }

    #[test]
    fn block_batch_matches_singles() {
        let bhr = BhrHandle::new();
        let t0 = SimTime::from_secs(0);
        bhr.block_batch(
            (0..5u8).map(|i| (t0, Ipv4Addr::new(10, 0, 0, i), format!("batch {i}"), None)),
        );
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
            bhr.try_block(SimTime::from_secs(6), a, "r", None),
            Ok(BlockOutcome::Duplicate)
        );
        assert!(bhr.unblock(SimTime::from_secs(10), a));
        assert_eq!(
            bhr.block(SimTime::from_secs(20), a, "r", None),
            BlockOutcome::Added
        );
        let commands: Vec<String> = bhr.audit_log().iter().map(|e| e.command.clone()).collect();
        assert_eq!(
            commands,
            vec!["block", "unblock", "block"],
            "duplicates audit nothing"
        );
        let s = bhr.stats();
        assert_eq!(s.blocks_added, 2);
        assert_eq!(s.blocks_duplicate, 2);
        // Batched re-delivery is absorbed the same way.
        bhr.block_batch(vec![(SimTime::from_secs(30), a, "r".to_string(), None)]);
        assert_eq!(bhr.audit_log().len(), 3);
    }

    #[test]
    fn failing_backend_leaves_the_table_untouched() {
        use crate::retry::FlakyBackend;
        let bhr = BhrHandle::with_backend(FlakyBackend::failing_first(2));
        let a = addr("198.51.100.1");
        assert!(bhr.try_block(SimTime::from_secs(0), a, "r", None).is_err());
        assert!(
            !bhr.is_blocked(SimTime::from_secs(1), a),
            "no phantom block"
        );
        assert_eq!(bhr.stats().blocks_added, 0);
        assert!(bhr.try_block(SimTime::from_secs(2), a, "r", None).is_err());
        // Third attempt lands.
        assert_eq!(
            bhr.try_block(SimTime::from_secs(4), a, "r", None),
            Ok(BlockOutcome::Added)
        );
        assert!(bhr.is_blocked(SimTime::from_secs(5), a));
        let commands: Vec<String> = bhr.audit_log().iter().map(|e| e.command.clone()).collect();
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
