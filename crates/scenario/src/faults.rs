//! Seeded, deterministic telemetry fault injection.
//!
//! Real deployments of the Fig. 4 pipeline do not see the clean record
//! streams the generators in this crate produce: sensors black out,
//! forwarders drop and duplicate records, multi-hop log shipping reorders
//! them, and host clocks drift. ICSSIM-style testbeds make such fault
//! injection a first-class capability; this module provides it for the
//! record level of the pipeline, with every fault model driven by one
//! [`SimRng`] stream so a `(plan, input)` pair reproduces the identical
//! faulted stream byte for byte.
//!
//! Fault models, composable in one [`FaultPlan`]:
//!
//! - **i.i.d. record loss** — each record is independently dropped with
//!   `loss_prob`.
//! - **Blackout windows** — explicit `[start, end)` intervals during which
//!   a scope of telemetry (everything, one monitor stream, or one host)
//!   produces nothing. Windows are declared up front, so they can also be
//!   handed to the detector as *known* gaps (degraded-mode temporal
//!   handling) and to the evaluator for per-fault-profile scoring.
//! - **Record duplication** — each surviving record is re-emitted with
//!   `dup_prob` (at-least-once log shipping).
//! - **Bounded reordering** — each record may be delayed by up to
//!   `k = reorder_window` stream positions and leaves in `(release, seq)`
//!   order, so the displacement bound is hard in both directions. The
//!   reorderer is a `k+1`-slot release ring: O(1) per record and
//!   allocation-free after construction.
//! - **Per-host clock skew + jitter** — every host clock gets a constant
//!   offset in `[-max_skew, +max_skew]` (hashed from the plan seed, so it
//!   is stable per host) and every record an independent jitter in
//!   `[-jitter, +jitter]`. Negative adjustments saturate at
//!   [`SimTime::EPOCH`] rather than wrapping.
//!
//! The injector is allocation-free after construction: the release ring
//! is sized to the window up front, the offsets of the first 1,024
//! clocks are computed once, and records move through by value.

use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;
use telemetry::record::{LogRecord, RecordKind};

/// Which telemetry a blackout window silences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlackoutScope {
    /// Every record (site-wide collector outage).
    All,
    /// One monitor stream (e.g. the notice pipeline) goes dark.
    Monitor(RecordKind),
    /// One host's agents go dark (host-based records only).
    Host(HostId),
}

/// One sensor blackout: records in `[start, end)` matching `scope` are
/// lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlackoutWindow {
    pub start: SimTime,
    pub end: SimTime,
    pub scope: BlackoutScope,
}

impl BlackoutWindow {
    /// Whether `record` falls inside this window (by its original,
    /// pre-skew timestamp) and matches the scope.
    pub fn silences(&self, record: &LogRecord) -> bool {
        let ts = record.ts();
        if ts < self.start || ts >= self.end {
            return false;
        }
        match self.scope {
            BlackoutScope::All => true,
            BlackoutScope::Monitor(kind) => record.kind() == kind,
            BlackoutScope::Host(host) => record.host() == Some(host),
        }
    }
}

/// Per-host clock skew and per-record jitter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClockSkewConfig {
    /// Magnitude bound of the constant per-host clock offset; each host
    /// clock is assigned a stable offset in `[-max_skew, +max_skew]`.
    pub max_skew: SimDuration,
    /// Magnitude bound of the independent per-record jitter.
    pub jitter: SimDuration,
}

impl ClockSkewConfig {
    pub fn is_none(&self) -> bool {
        self.max_skew == SimDuration::ZERO && self.jitter == SimDuration::ZERO
    }
}

/// A composable, seeded fault configuration. [`FaultPlan::clean`] is the
/// identity plan; the `with_*` builders switch individual models on.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Label carried through [`FaultStats`] into reports and artifacts.
    pub profile: String,
    /// Seed of the injector's own RNG stream — independent of the
    /// campaign seed, so the same workload can be replayed under many
    /// fault draws (or the same draws over many workloads).
    pub seed: u64,
    /// Independent per-record loss probability.
    pub loss_prob: f64,
    /// Per-record duplication probability (applied after loss).
    pub dup_prob: f64,
    /// Maximum stream-position displacement of the bounded reorderer;
    /// `0` disables reordering.
    pub reorder_window: usize,
    /// Declared sensor blackout windows.
    pub blackouts: Vec<BlackoutWindow>,
    /// Per-host clock skew / per-record jitter.
    pub clock: ClockSkewConfig,
}

impl FaultPlan {
    /// The identity plan: no faults.
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            profile: "clean".to_string(),
            seed,
            loss_prob: 0.0,
            dup_prob: 0.0,
            reorder_window: 0,
            blackouts: Vec::new(),
            clock: ClockSkewConfig::default(),
        }
    }

    pub fn named(mut self, profile: impl Into<String>) -> FaultPlan {
        self.profile = profile.into();
        self
    }

    pub fn with_loss(mut self, loss_prob: f64) -> FaultPlan {
        self.loss_prob = loss_prob.clamp(0.0, 1.0);
        self
    }

    pub fn with_duplication(mut self, dup_prob: f64) -> FaultPlan {
        self.dup_prob = dup_prob.clamp(0.0, 1.0);
        self
    }

    pub fn with_reorder(mut self, window: usize) -> FaultPlan {
        self.reorder_window = window;
        self
    }

    pub fn with_blackout(mut self, window: BlackoutWindow) -> FaultPlan {
        self.blackouts.push(window);
        self
    }

    pub fn with_clock(mut self, clock: ClockSkewConfig) -> FaultPlan {
        self.clock = clock;
        self
    }

    /// The time spans of every declared blackout, scope-erased — what an
    /// operator would hand the detector as "known telemetry gaps".
    pub fn blackout_spans(&self) -> Vec<(SimTime, SimTime)> {
        self.blackouts.iter().map(|w| (w.start, w.end)).collect()
    }

    /// Whether this plan is the identity.
    pub fn is_clean(&self) -> bool {
        self.loss_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_window == 0
            && self.blackouts.is_empty()
            && self.clock.is_none()
    }
}

/// Counters of everything one injector did, labeled with the plan's
/// profile — the per-fault-profile annotation the evaluator reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    pub profile: String,
    /// Records offered to the injector.
    pub records_in: u64,
    /// Records emitted (surviving, including duplicates).
    pub records_out: u64,
    /// Records dropped by i.i.d. loss.
    pub lost_iid: u64,
    /// Records silenced by a blackout window.
    pub lost_blackout: u64,
    /// Extra copies emitted by duplication.
    pub duplicated: u64,
    /// Records assigned a delayed release slot by the reorderer.
    pub reordered: u64,
    /// Records whose timestamp was changed by skew/jitter.
    pub skewed: u64,
}

/// End of a release list.
const NIL: usize = usize::MAX;

/// The bounded reorderer: a ring of `k + 1` record slots, where
/// `k = reorder_window`, plus one FIFO of slot indices per release
/// position.
///
/// Every in-flight record has `release ∈ [seq, seq + k]`, so at most
/// `k + 1` are in flight and the record entering at `seq` can live in
/// slot `seq % (k + 1)`: its previous occupant entered at `seq - (k + 1)`
/// and was released by `seq - 1`. For the same reason each list holds a
/// single release position at a time. Records enter in `seq` order, so
/// each list is in `seq` order and the ring emits by `(release, seq)`.
#[derive(Debug)]
struct ReleaseRing {
    slots: Vec<Option<LogRecord>>,
    /// Next slot in the same release list, or [`NIL`].
    next: Vec<usize>,
    /// First and last slot of each release position's list (`head` is
    /// [`NIL`] when the list is empty).
    head: Vec<usize>,
    tail: Vec<usize>,
    /// `seq % (k + 1)` of the next record to enter.
    pos: usize,
}

impl ReleaseRing {
    fn new(window: usize) -> ReleaseRing {
        let n = window + 1;
        ReleaseRing {
            slots: (0..n).map(|_| None).collect(),
            next: vec![NIL; n],
            head: vec![NIL; n],
            tail: vec![NIL; n],
            pos: 0,
        }
    }

    /// Enter `record` at the next stream position with release
    /// `seq + delay` (`delay <= k`), then emit every record released at
    /// this position.
    fn enter(&mut self, record: LogRecord, delay: usize, out: &mut Vec<LogRecord>) {
        let n = self.slots.len();
        let slot = self.pos;
        self.pos = if slot + 1 == n { 0 } else { slot + 1 };
        debug_assert!(self.slots[slot].is_none(), "slot released before reuse");
        self.slots[slot] = Some(record);
        self.next[slot] = NIL;
        let release = if slot + delay >= n {
            slot + delay - n
        } else {
            slot + delay
        };
        if self.head[release] == NIL {
            self.head[release] = slot;
        } else {
            self.next[self.tail[release]] = slot;
        }
        self.tail[release] = slot;
        self.emit(slot, out);
    }

    /// Emit the list at release position `release`, in `seq` order.
    fn emit(&mut self, release: usize, out: &mut Vec<LogRecord>) {
        let mut i = std::mem::replace(&mut self.head[release], NIL);
        while i != NIL {
            out.push(self.slots[i].take().expect("listed slot holds a record"));
            i = self.next[i];
        }
    }

    /// Emit everything in flight, in release order.
    fn drain(&mut self, out: &mut Vec<LogRecord>) {
        let n = self.slots.len();
        for step in 0..n {
            self.emit((self.pos + step) % n, out);
        }
    }
}

/// SplitMix64 — the stable per-host clock-offset hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The stable offset of clock `clock_id` (`0` for the network sensors'
/// shared clock, `host + 1` for a host) under `seed`, bounded by `max`:
/// `(offset, is_negative)`.
fn clock_skew(seed: u64, max: SimDuration, clock_id: u64) -> (SimDuration, bool) {
    if max == SimDuration::ZERO {
        return (SimDuration::ZERO, false);
    }
    let h = splitmix64(seed ^ clock_id.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    // 53 uniform bits → [0, 1), stretched to [-1, 1).
    let signed = ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    (max.mul_f64(signed.abs()), signed < 0.0)
}

/// `orig` moved by the clock offset `(skew, is_negative)`, then by
/// `jitter` scaled by `unit` in `[-1, 1]`: signed nanosecond steps, each
/// clamped to `[0, u64::MAX]`, so a record saturates at either end of
/// representable time instead of wrapping.
fn skewed_time(
    orig: SimTime,
    skew: (SimDuration, bool),
    jitter: SimDuration,
    unit: f64,
) -> SimTime {
    let signed = |d: SimDuration, negative: bool| {
        let n = d.as_nanos() as i128;
        if negative {
            -n
        } else {
            n
        }
    };
    let clamp = |n: i128| n.clamp(0, u64::MAX as i128);
    let skewed = clamp(orig.as_nanos() as i128 + signed(skew.0, skew.1));
    // The magnitude truncates toward zero and saturates at `u64::MAX`,
    // as `mul_f64` does.
    let jitter = signed(jitter.mul_f64(unit.abs()), unit < 0.0);
    SimTime::from_nanos(clamp(skewed + jitter) as u64)
}

/// Clock ids whose offset the injector computes once, up front; later
/// ids are hashed per record.
const SKEW_TABLE: usize = 1024;

/// The streaming fault injector: push records in arrival order, collect
/// the faulted stream, [`FaultInjector::finish`] at end of stream to drain
/// the reorder window. Deterministic in `(plan, input)`; batch boundaries
/// are unobservable, so every pipeline executor sees the identical faulted
/// stream.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    ring: ReleaseRing,
    stats: FaultStats,
    /// [`clock_skew`] of clock ids below [`SKEW_TABLE`]; empty when the
    /// plan has no skew.
    skews: Vec<(SimDuration, bool)>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let rng = SimRng::seed(plan.seed);
        let stats = FaultStats {
            profile: plan.profile.clone(),
            ..FaultStats::default()
        };
        let max = plan.clock.max_skew;
        let skews = if max == SimDuration::ZERO {
            Vec::new()
        } else {
            (0..SKEW_TABLE as u64)
                .map(|id| clock_skew(plan.seed, max, id))
                .collect()
        };
        FaultInjector {
            ring: ReleaseRing::new(plan.reorder_window),
            rng,
            stats,
            plan,
            skews,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters so far (final after [`FaultInjector::finish`]).
    pub fn stats(&self) -> FaultStats {
        self.stats.clone()
    }

    /// The stable clock offset of `host` (network-sensor records without
    /// a host share one Zeek-cluster clock): `(offset, is_negative)`.
    fn host_skew(&self, host: Option<HostId>) -> (SimDuration, bool) {
        let clock_id = host.map_or(0, |h| h.0 as u64 + 1);
        match self.skews.get(clock_id as usize) {
            Some(&skew) => skew,
            None => clock_skew(self.plan.seed, self.plan.clock.max_skew, clock_id),
        }
    }

    /// Apply the record's host-clock offset, then its jitter, each
    /// saturating at the epoch.
    fn skew_clock(&mut self, record: &mut LogRecord) {
        let (ts, host) = record.clock_mut();
        let skew = self.host_skew(host);
        let unit = if self.plan.clock.jitter == SimDuration::ZERO {
            0.0
        } else {
            self.rng.uniform(-1.0, 1.0)
        };
        let orig = *ts;
        *ts = skewed_time(orig, skew, self.plan.clock.jitter, unit);
        self.stats.skewed += (*ts != orig) as u64;
    }

    /// Offer one record; surviving (possibly skewed, duplicated,
    /// reordered) records are appended to `out`.
    pub fn push(&mut self, mut record: LogRecord, out: &mut Vec<LogRecord>) {
        self.stats.records_in += 1;
        // Blackouts judge the record by its true emission time, before
        // any clock fault rewrites it.
        if self.plan.blackouts.iter().any(|w| w.silences(&record)) {
            self.stats.lost_blackout += 1;
            return;
        }
        // One RNG draw per surviving model keeps the stream a pure
        // function of the record sequence, independent of batching.
        if self.rng.chance(self.plan.loss_prob) {
            self.stats.lost_iid += 1;
            return;
        }
        if !self.plan.clock.is_none() {
            self.skew_clock(&mut record);
        }
        let duplicate = self.plan.dup_prob > 0.0 && self.rng.chance(self.plan.dup_prob);
        if duplicate {
            self.stats.duplicated += 1;
            self.enqueue(record, out);
        }
        self.enqueue(record, out);
    }

    /// Enter the bounded reorderer at the next stream position and emit
    /// everything whose release slot has arrived.
    fn enqueue(&mut self, record: LogRecord, out: &mut Vec<LogRecord>) {
        let k = self.plan.reorder_window;
        if k == 0 {
            // No window: every record is released where it enters.
            out.push(record);
            self.stats.records_out += 1;
            return;
        }
        let delay = self.rng.index(k + 1);
        if delay > 0 {
            self.stats.reordered += 1;
        }
        let before = out.len();
        self.ring.enter(record, delay, out);
        self.stats.records_out += (out.len() - before) as u64;
    }

    /// End of stream: drain the reorder window in release order.
    pub fn finish(&mut self, out: &mut Vec<LogRecord>) {
        let before = out.len();
        self.ring.drain(out);
        self.stats.records_out += (out.len() - before) as u64;
    }
}

/// One-shot convenience: run a whole record slice through a fresh
/// injector.
pub fn apply_fault_plan(plan: &FaultPlan, records: &[LogRecord]) -> (Vec<LogRecord>, FaultStats) {
    let mut inj = FaultInjector::new(plan.clone());
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        inj.push(*r, &mut out);
    }
    inj.finish(&mut out);
    (out, inj.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{record_stream, RecordStreamConfig};
    use simnet::intern::SymScope;

    fn workload(n: usize) -> Vec<LogRecord> {
        record_stream(
            &SymScope::global(),
            &RecordStreamConfig {
                scan_records: n / 2,
                benign_flows: n / 4,
                exec_records: n / 4,
                users: 10,
                ..RecordStreamConfig::default()
            },
            &mut SimRng::seed(42),
        )
    }

    #[test]
    fn clean_plan_is_identity() {
        let records = workload(400);
        let (out, stats) = apply_fault_plan(&FaultPlan::clean(1), &records);
        assert_eq!(out, records);
        assert_eq!(stats.records_in, records.len() as u64);
        assert_eq!(stats.records_out, records.len() as u64);
        assert_eq!(stats.lost_iid + stats.lost_blackout + stats.duplicated, 0);
        assert!(FaultPlan::clean(1).is_clean());
    }

    #[test]
    fn same_plan_same_faulted_stream() {
        let records = workload(600);
        let plan = FaultPlan::clean(7)
            .named("mixed")
            .with_loss(0.2)
            .with_duplication(0.1)
            .with_reorder(16)
            .with_clock(ClockSkewConfig {
                max_skew: SimDuration::from_secs(30),
                jitter: SimDuration::from_secs(5),
            });
        let (a, sa) = apply_fault_plan(&plan, &records);
        let (b, sb) = apply_fault_plan(&plan, &records);
        assert_eq!(a, b, "byte-identical replay");
        assert_eq!(sa, sb);
        let other = FaultPlan { seed: 8, ..plan };
        let (c, _) = apply_fault_plan(&other, &records);
        assert_ne!(a, c, "different seed, different draws");
    }

    #[test]
    fn loss_probability_extremes() {
        let records = workload(300);
        let (all, s) = apply_fault_plan(&FaultPlan::clean(3).with_loss(1.0), &records);
        assert!(all.is_empty());
        assert_eq!(s.lost_iid, records.len() as u64);
        let (none, s) = apply_fault_plan(&FaultPlan::clean(3).with_loss(0.0), &records);
        assert_eq!(none.len(), records.len());
        assert_eq!(s.lost_iid, 0);
    }

    #[test]
    fn blackout_scopes_silence_matching_records() {
        let records = workload(500);
        let t0 = records.first().unwrap().ts();
        let t_end = records.last().unwrap().ts();
        let all = FaultPlan::clean(5).with_blackout(BlackoutWindow {
            start: t0,
            end: t_end.saturating_add(SimDuration::from_secs(1)),
            scope: BlackoutScope::All,
        });
        let (out, s) = apply_fault_plan(&all, &records);
        assert!(out.is_empty(), "site-wide blackout loses everything");
        assert_eq!(s.lost_blackout, records.len() as u64);

        // Monitor scope: only that stream goes dark.
        let kind = RecordKind::Conn;
        let conn_count = records.iter().filter(|r| r.kind() == kind).count();
        assert!(conn_count > 0, "workload has conn records");
        let monitor = FaultPlan::clean(5).with_blackout(BlackoutWindow {
            start: t0,
            end: t_end.saturating_add(SimDuration::from_secs(1)),
            scope: BlackoutScope::Monitor(kind),
        });
        let (out, s) = apply_fault_plan(&monitor, &records);
        assert_eq!(s.lost_blackout, conn_count as u64);
        assert!(out.iter().all(|r| r.kind() != kind));
        assert_eq!(out.len(), records.len() - conn_count);

        // Host scope: only that host's host-based records go dark.
        let host = records.iter().find_map(|r| r.host());
        if let Some(h) = host {
            let host_count = records.iter().filter(|r| r.host() == Some(h)).count();
            let hostp = FaultPlan::clean(5).with_blackout(BlackoutWindow {
                start: t0,
                end: t_end.saturating_add(SimDuration::from_secs(1)),
                scope: BlackoutScope::Host(h),
            });
            let (out, s) = apply_fault_plan(&hostp, &records);
            assert_eq!(s.lost_blackout, host_count as u64);
            assert!(out.iter().all(|r| r.host() != Some(h)));
        }
    }

    #[test]
    fn duplication_doubles_at_probability_one() {
        let records = workload(200);
        let (out, s) = apply_fault_plan(&FaultPlan::clean(9).with_duplication(1.0), &records);
        assert_eq!(out.len(), 2 * records.len());
        assert_eq!(s.duplicated, records.len() as u64);
        assert_eq!(s.records_out, 2 * records.len() as u64);
        // Each duplicate is adjacent to its original when no reordering is
        // configured.
        for pair in out.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn reordering_is_bounded_and_preserves_the_multiset() {
        let records = workload(800);
        let k = 12usize;
        let (out, _) = apply_fault_plan(&FaultPlan::clean(11).with_reorder(k), &records);
        assert_eq!(out.len(), records.len());
        // Multiset equality via sorted debug strings (records are not Ord).
        let key = |r: &LogRecord| format!("{r:?}");
        let mut a: Vec<String> = records.iter().map(key).collect();
        let mut b: Vec<String> = out.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "reordering loses nothing and invents nothing");
        // Displacement bound: record at input position i appears in the
        // output within [i - k, i + k].
        let mut pos = std::collections::HashMap::new();
        for (i, r) in out.iter().enumerate() {
            pos.entry(key(r)).or_insert_with(Vec::new).push(i);
        }
        for (i, r) in records.iter().enumerate() {
            let positions = &pos[&key(r)];
            assert!(
                positions.iter().any(|&j| j + k >= i && j <= i + k),
                "record {i} displaced beyond the window: {positions:?}"
            );
        }
    }

    /// The reorderer's contract, replayed independently: the same RNG
    /// draws as [`FaultInjector::push`] assign each entering copy a delay,
    /// and the faulted stream is the entries stably sorted by
    /// `(seq + delay, seq)`. Returns `(release, seq, record)` in emission
    /// order.
    fn reorder_oracle(plan: &FaultPlan, records: &[LogRecord]) -> Vec<(u64, u64, LogRecord)> {
        assert!(plan.blackouts.is_empty() && plan.clock.is_none() && plan.loss_prob == 0.0);
        let k = plan.reorder_window;
        let mut rng = SimRng::seed(plan.seed);
        let mut entries = Vec::new();
        for r in records {
            assert!(!rng.chance(plan.loss_prob));
            let dup = plan.dup_prob > 0.0 && rng.chance(plan.dup_prob);
            for _ in 0..1 + usize::from(dup) {
                let seq = entries.len() as u64;
                let delay = if k == 0 { 0 } else { rng.index(k + 1) as u64 };
                entries.push((seq + delay, seq, *r));
            }
        }
        entries.sort_by_key(|&(release, seq, _)| (release, seq));
        entries
    }

    #[test]
    fn reorder_emits_exactly_in_release_then_arrival_order() {
        let records = workload(900);
        for k in [0usize, 1, 2, 7, 64, 200] {
            for (dup, seed) in [(0.0, 21u64), (0.3, 22), (1.0, 23)] {
                let plan = FaultPlan::clean(seed ^ k as u64)
                    .with_duplication(dup)
                    .with_reorder(k);
                let expected = reorder_oracle(&plan, &records);
                let order: Vec<LogRecord> = expected.iter().map(|e| e.2).collect();
                let (whole, stats) = apply_fault_plan(&plan, &records);
                assert_eq!(whole, order, "k={k} dup={dup}: one-shot order");
                assert_eq!(stats.records_out, order.len() as u64);
                let delayed = expected.iter().filter(|e| e.0 != e.1).count();
                assert_eq!(stats.reordered, delayed as u64);

                // Pushes split at arbitrary points: after every chunk the
                // injector has emitted exactly the entries whose release
                // slot has passed, and `finish` drains the rest in order.
                let mut inj = FaultInjector::new(plan.clone());
                let mut cuts = SimRng::seed(seed.wrapping_mul(31) + k as u64);
                let mut out = Vec::new();
                let mut i = 0;
                while i < records.len() {
                    let end = (i + 1 + cuts.index(3 * k + 5)).min(records.len());
                    for r in &records[i..end] {
                        inj.push(*r, &mut out);
                    }
                    i = end;
                    // These plans lose nothing: every push enters, plus
                    // its duplicate.
                    let entered = inj.stats.records_in + inj.stats.duplicated;
                    let released = expected.iter().take_while(|e| e.0 < entered).count();
                    assert_eq!(
                        out[..],
                        order[..released],
                        "k={k} dup={dup}: after {i} pushes"
                    );
                }
                inj.finish(&mut out);
                assert_eq!(out, order, "k={k} dup={dup}: after the finish drain");
                assert_eq!(inj.stats(), stats);
            }
        }
    }

    #[test]
    fn negative_skew_saturates_at_the_epoch() {
        // Records right at the epoch with a skew far larger than their
        // timestamps: negative host offsets and jitter must pin at zero,
        // never wrap.
        let records: Vec<LogRecord> = workload(300)
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                *r.clock_mut().0 = SimTime::from_secs(i as u64 % 5);
                r
            })
            .collect();
        let plan = FaultPlan::clean(13).with_clock(ClockSkewConfig {
            max_skew: SimDuration::from_hours(2),
            jitter: SimDuration::from_mins(10),
        });
        let (out, stats) = apply_fault_plan(&plan, &records);
        assert_eq!(out.len(), records.len());
        assert!(stats.skewed > 0, "a two-hour skew bound moves clocks");
        let bound = SimTime::EPOCH
            .saturating_add(SimDuration::from_secs(5))
            .saturating_add(SimDuration::from_hours(2))
            .saturating_add(SimDuration::from_mins(10));
        for r in &out {
            assert!(r.ts() >= SimTime::EPOCH, "no wraparound below the epoch");
            assert!(r.ts() <= bound, "skew bounded by the configured maxima");
        }
        // Determinism holds at the epoch boundary too.
        let (again, _) = apply_fault_plan(&plan, &records);
        assert_eq!(out, again);
    }

    #[test]
    fn host_skew_is_stable_per_host() {
        // All records of one host move by the same constant when jitter is
        // off.
        let records = workload(600);
        let plan = FaultPlan::clean(17).with_clock(ClockSkewConfig {
            max_skew: SimDuration::from_mins(30),
            jitter: SimDuration::ZERO,
        });
        let (out, _) = apply_fault_plan(&plan, &records);
        let mut per_host: std::collections::HashMap<Option<simnet::topology::HostId>, i128> =
            std::collections::HashMap::new();
        for (orig, faulted) in records.iter().zip(&out) {
            let delta = faulted.ts().as_nanos() as i128 - orig.ts().as_nanos() as i128;
            match per_host.entry(orig.host()) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(delta);
                }
                std::collections::hash_map::Entry::Occupied(o) => {
                    assert_eq!(*o.get(), delta, "one constant offset per host clock");
                }
            }
        }
    }

    #[test]
    fn skew_saturates_at_both_ends_like_two_saturating_steps() {
        // The reference: the offset, then the jitter, each applied as a
        // saturating `SimTime` add or subtract.
        let reference = |orig: SimTime, (skew, neg): (SimDuration, bool), jitter, unit: f64| {
            let t = if neg {
                orig.saturating_sub(skew)
            } else {
                orig.saturating_add(skew)
            };
            let j = SimDuration::mul_f64(jitter, unit.abs());
            if unit < 0.0 {
                t.saturating_sub(j)
            } else {
                t.saturating_add(j)
            }
        };
        let max = u64::MAX;
        let times = [0, 1, 5_000, max / 2, max - 5_000, max - 1, max];
        let spans = [0, 1, 4_999, 5_000, 5_001, max / 2, max - 1, max];
        let units = [-1.0, -0.75, -0.5, -1e-9, 0.0, 1e-9, 0.5, 0.999_999_999, 1.0];
        let mut clamped = [false; 2];
        for orig in times.map(SimTime::from_nanos) {
            for skew in spans.map(SimDuration::from_nanos) {
                for neg in [false, true] {
                    for jitter in spans.map(SimDuration::from_nanos) {
                        for unit in units {
                            let want = reference(orig, (skew, neg), jitter, unit);
                            let got = skewed_time(orig, (skew, neg), jitter, unit);
                            assert_eq!(
                                got, want,
                                "orig {orig:?} skew {skew:?} neg {neg} jitter {jitter:?} unit {unit}"
                            );
                            clamped[0] |= want == SimTime::EPOCH && orig != SimTime::EPOCH;
                            clamped[1] |= want.as_nanos() == max && orig.as_nanos() != max;
                        }
                    }
                }
            }
        }
        assert_eq!(clamped, [true, true], "the grid reaches both ends");
    }

    #[test]
    fn precomputed_and_hashed_clock_offsets_agree() {
        // Hosts inside and past the precomputed table, and the shared
        // network-sensor clock: each record moves by exactly its clock's
        // hashed offset.
        let plan = FaultPlan::clean(19).with_clock(ClockSkewConfig {
            max_skew: SimDuration::from_mins(30),
            jitter: SimDuration::ZERO,
        });
        let base = workload(400);
        let network = *base.iter().find(|r| r.host().is_none()).unwrap();
        let hosted = *base.iter().find(|r| r.host().is_some()).unwrap();
        let last = SKEW_TABLE as u32;
        let mut records = vec![network];
        for id in [0, 7, last - 2, last - 1, last, last + 7, u32::MAX - 1] {
            let mut r = hosted;
            match &mut r {
                LogRecord::Process(p) => p.host = HostId(id),
                LogRecord::File(p) => p.host = HostId(id),
                LogRecord::Auth(p) => p.host = HostId(id),
                LogRecord::Audit(p) => p.host = HostId(id),
                LogRecord::Db(p) => p.host = Some(HostId(id)),
                _ => unreachable!("a hosted record"),
            }
            *r.clock_mut().0 = SimTime::from_secs(86_400);
            records.push(r);
        }
        *records[0].clock_mut().0 = SimTime::from_secs(86_400);
        let (out, _) = apply_fault_plan(&plan, &records);
        for (orig, faulted) in records.iter().zip(&out) {
            let clock_id = orig.host().map_or(0, |h| h.0 as u64 + 1);
            let (skew, neg) = clock_skew(plan.seed, plan.clock.max_skew, clock_id);
            let expected = if neg {
                orig.ts().saturating_sub(skew)
            } else {
                orig.ts().saturating_add(skew)
            };
            assert_eq!(faulted.ts(), expected, "clock {clock_id}");
        }
    }

    #[test]
    fn fault_stage_is_batch_boundary_invariant() {
        let records = record_stream(
            &SymScope::global(),
            &RecordStreamConfig {
                scan_records: 200,
                benign_flows: 100,
                exec_records: 100,
                users: 10,
                ..RecordStreamConfig::default()
            },
            &mut SimRng::seed(8),
        );
        let plan = FaultPlan::clean(3)
            .with_loss(0.1)
            .with_duplication(0.05)
            .with_reorder(8)
            .with_clock(ClockSkewConfig {
                max_skew: SimDuration::from_secs(10),
                jitter: SimDuration::from_secs(1),
            });
        // The executors push records one at a time but hand the output
        // downstream in batches of any size: chunking the input must not
        // change the faulted stream.
        let run = |batch: usize| {
            let mut injector = FaultInjector::new(plan.clone());
            let mut out = Vec::new();
            for chunk in records.chunks(batch) {
                for r in chunk {
                    injector.push(*r, &mut out);
                }
            }
            injector.finish(&mut out);
            (out, injector.stats())
        };
        let (a, sa) = run(1);
        let (b, sb) = run(97);
        assert_eq!(a, b, "batching must be unobservable");
        assert_eq!(sa, sb);
    }
}
