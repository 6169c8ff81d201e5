//! The null-route table.
//!
//! NCSA's Black Hole Router holds null routes for blocked sources; routes
//! can expire. The table records every lookup so the testbed can report
//! figures like "26.85 million scans recorded in one hour" (Fig. 1's data
//! source).

use std::fmt;
use std::net::Ipv4Addr;

use simnet::rng::FxHashMap;
use simnet::time::{SimDuration, SimTime};

/// Why a source is null-routed. A `Copy` value that holds only static
/// text and is rendered when displayed, so installing, retrying and
/// auditing a block allocates no string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// A detector decided to block: displays as
    /// `detector: {trigger} at {stage}`.
    Detector {
        /// The triggering alert kind's symbol.
        trigger: &'static str,
        /// The attack stage inferred at the trigger.
        stage: &'static str,
    },
    /// Fixed text: operator, manual and policy blocks.
    Text(&'static str),
}

impl From<&'static str> for BlockReason {
    fn from(text: &'static str) -> Self {
        BlockReason::Text(text)
    }
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::Detector { trigger, stage } => {
                write!(f, "detector: {trigger} at {stage}")
            }
            BlockReason::Text(text) => f.write_str(text),
        }
    }
}

/// One null-route entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub reason: BlockReason,
    pub inserted: SimTime,
    /// `None` = permanent.
    pub expires: Option<SimTime>,
}

impl Block {
    pub fn active_at(&self, t: SimTime) -> bool {
        self.expires.is_none_or(|e| t < e)
    }
}

/// Table counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    pub blocks_added: u64,
    pub blocks_removed: u64,
    pub blocks_expired: u64,
    /// Re-blocks of an active entry with a new reason (overwrites).
    pub blocks_updated: u64,
    /// Re-deliveries of an already-installed block (same reason, still
    /// active) — absorbed without touching the entry. Retrying response
    /// paths make these routine, so they must not inflate
    /// `blocks_added`.
    pub blocks_duplicate: u64,
    pub lookups: u64,
    /// Lookups that hit an active block — i.e., packets recorded by the
    /// black hole.
    pub hits: u64,
}

/// What a `block` call did to the table — lets callers (and the audit
/// log) distinguish fresh installs from reason changes from idempotent
/// re-deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOutcome {
    /// No active entry existed; a null route was installed.
    Added,
    /// An active entry existed with a different reason; it was
    /// overwritten.
    Updated,
    /// An active entry with the same reason already existed; nothing
    /// changed.
    Duplicate,
}

/// The null-route table.
#[derive(Debug, Default)]
pub struct NullRouteTable {
    entries: FxHashMap<Ipv4Addr, Block>,
    stats: TableStats,
}

impl NullRouteTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a null route, idempotently. Re-blocking an active entry
    /// with the same reason is a no-op duplicate (retry deliveries must
    /// not double-count); re-blocking with a different reason overwrites;
    /// anything else installs fresh.
    pub fn block(
        &mut self,
        addr: Ipv4Addr,
        reason: impl Into<BlockReason>,
        now: SimTime,
        ttl: Option<SimDuration>,
    ) -> BlockOutcome {
        let reason = reason.into();
        let outcome = match self.entries.get(&addr) {
            Some(existing) if existing.active_at(now) => {
                if existing.reason == reason {
                    self.stats.blocks_duplicate += 1;
                    return BlockOutcome::Duplicate;
                }
                self.stats.blocks_updated += 1;
                BlockOutcome::Updated
            }
            _ => {
                self.stats.blocks_added += 1;
                BlockOutcome::Added
            }
        };
        self.entries.insert(
            addr,
            Block {
                reason,
                inserted: now,
                expires: ttl.map(|d| now + d),
            },
        );
        outcome
    }

    /// Remove a null route. Returns the removed entry, if any.
    pub fn unblock(&mut self, addr: Ipv4Addr) -> Option<Block> {
        let removed = self.entries.remove(&addr);
        if removed.is_some() {
            self.stats.blocks_removed += 1;
        }
        removed
    }

    /// Whether traffic from `addr` is null-routed at time `t`. Expired
    /// entries are lazily removed.
    pub fn is_blocked(&mut self, addr: Ipv4Addr, t: SimTime) -> bool {
        self.stats.lookups += 1;
        match self.entries.get(&addr) {
            Some(b) if b.active_at(t) => {
                self.stats.hits += 1;
                true
            }
            Some(_) => {
                self.entries.remove(&addr);
                self.stats.blocks_expired += 1;
                false
            }
            None => false,
        }
    }

    /// Read-only query that does not count as a routing lookup.
    pub fn query(&self, addr: Ipv4Addr) -> Option<&Block> {
        self.entries.get(&addr)
    }

    /// Sweep all expired entries.
    pub fn sweep(&mut self, t: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, b| b.active_at(t));
        let removed = before - self.entries.len();
        self.stats.blocks_expired += removed as u64;
        removed
    }

    /// Active block list (unordered).
    pub fn list(&self) -> impl Iterator<Item = (&Ipv4Addr, &Block)> {
        self.entries.iter()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> TableStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn block_and_lookup() {
        let mut t = NullRouteTable::new();
        t.block(
            addr("103.102.1.1"),
            "mass-scanner",
            SimTime::from_secs(0),
            None,
        );
        assert!(t.is_blocked(addr("103.102.1.1"), SimTime::from_secs(100)));
        assert!(!t.is_blocked(addr("8.8.8.8"), SimTime::from_secs(100)));
        let s = t.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn ttl_expiry() {
        let mut t = NullRouteTable::new();
        t.block(
            addr("1.1.1.1"),
            "temp",
            SimTime::from_secs(0),
            Some(SimDuration::from_secs(60)),
        );
        assert!(t.is_blocked(addr("1.1.1.1"), SimTime::from_secs(59)));
        assert!(!t.is_blocked(addr("1.1.1.1"), SimTime::from_secs(61)));
        assert_eq!(t.len(), 0, "expired entry lazily removed");
        assert_eq!(t.stats().blocks_expired, 1);
    }

    #[test]
    fn unblock_removes() {
        let mut t = NullRouteTable::new();
        t.block(addr("1.1.1.1"), "x", SimTime::from_secs(0), None);
        let removed = t.unblock(addr("1.1.1.1")).unwrap();
        assert_eq!(removed.reason, BlockReason::Text("x"));
        assert!(t.unblock(addr("1.1.1.1")).is_none());
        assert!(!t.is_blocked(addr("1.1.1.1"), SimTime::from_secs(1)));
    }

    #[test]
    fn sweep_removes_expired_in_bulk() {
        let mut t = NullRouteTable::new();
        for i in 0..10 {
            t.block(
                addr(&format!("10.0.0.{i}")),
                "ttl",
                SimTime::from_secs(0),
                Some(SimDuration::from_secs(10)),
            );
        }
        t.block(addr("10.0.1.1"), "permanent", SimTime::from_secs(0), None);
        assert_eq!(t.sweep(SimTime::from_secs(100)), 10);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reblock_overwrites() {
        let mut t = NullRouteTable::new();
        t.block(
            addr("1.1.1.1"),
            "first",
            SimTime::from_secs(0),
            Some(SimDuration::from_secs(5)),
        );
        t.block(addr("1.1.1.1"), "second", SimTime::from_secs(1), None);
        assert_eq!(t.query(addr("1.1.1.1")).unwrap().reason, "second".into());
        assert!(t.is_blocked(addr("1.1.1.1"), SimTime::from_secs(1_000)));
    }

    #[test]
    fn redelivered_block_is_an_idempotent_duplicate() {
        let mut t = NullRouteTable::new();
        let a = addr("203.0.113.7");
        assert_eq!(
            t.block(a, "retry-me", SimTime::from_secs(0), None),
            BlockOutcome::Added
        );
        // A retrying response path re-delivers the same block: absorbed,
        // not double-counted, entry untouched.
        assert_eq!(
            t.block(a, "retry-me", SimTime::from_secs(30), None),
            BlockOutcome::Duplicate
        );
        let entry = *t.query(a).unwrap();
        assert_eq!(entry.inserted, SimTime::from_secs(0), "original kept");
        let s = t.stats();
        assert_eq!(
            (s.blocks_added, s.blocks_duplicate, s.blocks_updated),
            (1, 1, 0)
        );

        // A different reason is a deliberate overwrite.
        assert_eq!(
            t.block(a, "escalated", SimTime::from_secs(60), None),
            BlockOutcome::Updated
        );
        assert_eq!(t.query(a).unwrap().reason, "escalated".into());
        assert_eq!(t.stats().blocks_updated, 1);
    }

    #[test]
    fn detector_reasons_render_on_display_and_compare_by_value() {
        let reason = |stage| BlockReason::Detector {
            trigger: "alert_download_sensitive",
            stage,
        };
        assert_eq!(
            reason("foothold").to_string(),
            "detector: alert_download_sensitive at foothold"
        );
        assert_eq!(BlockReason::from("manual").to_string(), "manual");
        let mut t = NullRouteTable::new();
        let a = addr("203.0.113.8");
        assert_eq!(
            t.block(a, reason("foothold"), SimTime::from_secs(0), None),
            BlockOutcome::Added
        );
        assert_eq!(
            t.block(a, reason("foothold"), SimTime::from_secs(1), None),
            BlockOutcome::Duplicate
        );
        assert_eq!(
            t.block(a, reason("lateral"), SimTime::from_secs(2), None),
            BlockOutcome::Updated
        );
    }

    #[test]
    fn block_retry_unblock_reblock_sequence() {
        // The satellite regression: block → retry → unblock → re-block.
        let mut t = NullRouteTable::new();
        let a = addr("198.51.100.9");
        assert_eq!(
            t.block(a, "r", SimTime::from_secs(0), None),
            BlockOutcome::Added
        );
        assert_eq!(
            t.block(a, "r", SimTime::from_secs(1), None),
            BlockOutcome::Duplicate
        );
        assert!(t.unblock(a).is_some());
        assert_eq!(
            t.block(a, "r", SimTime::from_secs(2), None),
            BlockOutcome::Added
        );
        let s = t.stats();
        assert_eq!(
            s.blocks_added, 2,
            "re-block after unblock is a fresh install"
        );
        assert_eq!(s.blocks_duplicate, 1);
        assert_eq!(s.blocks_removed, 1);
    }

    #[test]
    fn reblock_after_expiry_counts_as_added() {
        let mut t = NullRouteTable::new();
        let a = addr("192.0.2.4");
        t.block(
            a,
            "r",
            SimTime::from_secs(0),
            Some(SimDuration::from_secs(10)),
        );
        // Entry expired (still resident, but inactive): same reason is a
        // fresh install, not a duplicate.
        assert_eq!(
            t.block(a, "r", SimTime::from_secs(20), None),
            BlockOutcome::Added
        );
        assert_eq!(t.stats().blocks_added, 2);
        assert_eq!(t.stats().blocks_duplicate, 0);
    }
}
