//! The repeated-alert filter.
//!
//! §II-A: *"we filter repeated alerts of periodic scans from the public
//! Internet to reduce the size of our dataset"* — from 25 M alerts down to
//! 191 K directly related to successful attacks. This module implements
//! that stage as a streaming, windowed deduplicator: for noise-severity
//! alerts, only the first occurrence per `(source, kind)` per window is
//! admitted; everything of higher severity passes through untouched.

use std::net::Ipv4Addr;

use simnet::intern::SymMap;
use simnet::rng::FxHashMap;
use simnet::time::{SimDuration, SimTime};

use crate::alert::{Alert, Entity, EntityId, SnapKey};

/// Filter settings.
#[derive(Debug, Clone)]
pub struct FilterConfig {
    /// Dedup window for noise alerts.
    pub window: SimDuration,
    /// How many alerts per `(source, kind)` to admit per window.
    pub admit_per_window: u32,
    /// Also deduplicate `Attempt`-severity alerts (brute-force floods).
    pub dedup_attempts: bool,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            window: SimDuration::from_hours(24),
            admit_per_window: 1,
            dedup_attempts: true,
        }
    }
}

/// Streaming filter statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    pub seen: u64,
    pub admitted: u64,
    pub suppressed: u64,
}

impl FilterStats {
    /// Fraction of alerts that survived the filter.
    pub fn reduction(&self) -> f64 {
        if self.seen == 0 {
            return 1.0;
        }
        self.admitted as f64 / self.seen as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    source: u64,
    kind: u16,
}

#[derive(Debug, Clone, Copy)]
struct Window {
    start: SimTime,
    admitted: u32,
}

/// The streaming scan filter. O(1) amortized per alert; state is bounded by
/// the number of active `(source, kind)` pairs per window (stale entries
/// are swept opportunistically).
#[derive(Debug)]
pub struct ScanFilter {
    cfg: FilterConfig,
    state: FxHashMap<Key, Window>,
    stats: FilterStats,
    last_sweep: SimTime,
}

impl Default for ScanFilter {
    fn default() -> Self {
        Self::new(FilterConfig::default())
    }
}

impl ScanFilter {
    pub fn new(cfg: FilterConfig) -> Self {
        ScanFilter {
            cfg,
            state: FxHashMap::default(),
            stats: FilterStats::default(),
            last_sweep: SimTime::EPOCH,
        }
    }

    /// The dedup source: the entity's integer id, except that unknown
    /// entities fall back to their source address so distinct anonymous
    /// sources keep distinct windows. No hashing, no allocation — the
    /// window map hashes the `u64` directly.
    fn source_key(entity: &Entity, src: Option<Ipv4Addr>) -> u64 {
        match (entity, src) {
            (Entity::Unknown, Some(a)) => ANON_SRC_TAG | u64::from(u32::from(a)),
            (e, _) => e.id().raw(),
        }
    }

    /// Whether this alert should pass the filter. Updates internal state.
    pub fn admit(&mut self, alert: &Alert) -> bool {
        self.stats.seen += 1;
        let dedup = alert.kind.is_noise()
            || (self.cfg.dedup_attempts && alert.severity() == crate::taxonomy::Severity::Attempt);
        if !dedup {
            self.stats.admitted += 1;
            return true;
        }
        self.maybe_sweep(alert.ts);
        let key = Key {
            source: Self::source_key(&alert.entity, alert.src),
            kind: alert.kind.index() as u16,
        };
        let w = self.state.entry(key).or_insert(Window {
            start: alert.ts,
            admitted: 0,
        });
        if alert.ts.saturating_since(w.start) > self.cfg.window {
            w.start = alert.ts;
            w.admitted = 0;
        }
        if w.admitted < self.cfg.admit_per_window {
            w.admitted += 1;
            self.stats.admitted += 1;
            true
        } else {
            self.stats.suppressed += 1;
            false
        }
    }

    /// Filter a batch, returning the admitted alerts.
    pub fn filter_batch(&mut self, alerts: impl IntoIterator<Item = Alert>) -> Vec<Alert> {
        alerts.into_iter().filter(|a| self.admit(a)).collect()
    }

    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Drop window entries more than two windows old. Called opportunistically
    /// so long streaming runs do not accumulate dead sources.
    fn maybe_sweep(&mut self, now: SimTime) {
        if now.saturating_since(self.last_sweep) < self.cfg.window {
            return;
        }
        self.last_sweep = now;
        let horizon = self.cfg.window + self.cfg.window;
        self.state
            .retain(|_, w| now.saturating_since(w.start) <= horizon);
    }

    /// Number of live `(source, kind)` windows (for tests/metrics).
    pub fn live_windows(&self) -> usize {
        self.state.len()
    }

    /// Export the filter's dedup state in a process-independent form.
    ///
    /// Window keys become [`SnapKey`]s: a user window names its user by
    /// position in the minting scope's universe, and a window keyed by an
    /// anonymous source address is a [`SnapKey::SOURCE`]. Output is
    /// sorted, so identical filter states export identical snapshots
    /// regardless of hash-map iteration order.
    pub fn export_state(&self) -> FilterSnapshot {
        let mut windows: Vec<FilterWindowSnapshot> = self
            .state
            .iter()
            .map(|(k, w)| FilterWindowSnapshot {
                source: Self::encode_source(k.source),
                kind: k.kind,
                start: w.start,
                admitted: w.admitted,
            })
            .collect();
        windows.sort_unstable_by_key(|w| (w.source, w.kind));
        FilterSnapshot {
            windows,
            stats: self.stats,
            last_sweep: self.last_sweep,
        }
    }

    /// Restore state previously captured by
    /// [`export_state`](ScanFilter::export_state), translating user
    /// positions through `syms`. The config is NOT part of the snapshot:
    /// the restoring process supplies its own (normally identical)
    /// `FilterConfig`. A malformed source key is an error naming the
    /// window, and leaves the filter unchanged.
    pub fn import_state(&mut self, snap: &FilterSnapshot, syms: &SymMap) -> Result<(), String> {
        let mut state = FxHashMap::default();
        for (i, w) in snap.windows.iter().enumerate() {
            let source = Self::decode_source(w.source, syms)
                .map_err(|why| format!("filter.windows[{i}].source: {why}"))?;
            let window = Window {
                start: w.start,
                admitted: w.admitted,
            };
            state.insert(
                Key {
                    source,
                    kind: w.kind,
                },
                window,
            );
        }
        self.state = state;
        self.stats = snap.stats;
        self.last_sweep = snap.last_sweep;
        Ok(())
    }

    /// A window-map source key in snapshot form.
    fn encode_source(source: u64) -> SnapKey {
        if source & !0xFFFF_FFFF == ANON_SRC_TAG {
            SnapKey {
                kind: SnapKey::SOURCE,
                id: source as u32,
            }
        } else {
            EntityId::from_raw(source).snap_key()
        }
    }

    /// Inverse of [`encode_source`](Self::encode_source).
    fn decode_source(source: SnapKey, syms: &SymMap) -> Result<u64, String> {
        if source.kind == SnapKey::SOURCE {
            Ok(ANON_SRC_TAG | u64::from(source.id))
        } else {
            EntityId::from_snap_key(source, syms).map(EntityId::raw)
        }
    }
}

/// Tag bits marking window keys derived from an anonymous source address
/// (see [`ScanFilter::admit`]'s `source_key`): distinct from every
/// [`EntityId`](crate::alert::EntityId) tag.
const ANON_SRC_TAG: u64 = 4 << 32;

/// One `(source, kind)` dedup window in process-independent form.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterWindowSnapshot {
    /// The window's entity, or a [`SnapKey::SOURCE`] for windows keyed
    /// by an anonymous source address.
    pub source: SnapKey,
    /// `AlertKind` index.
    pub kind: u16,
    pub start: SimTime,
    pub admitted: u32,
}

/// Full dedup state of a [`ScanFilter`], for service snapshot/restore.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterSnapshot {
    /// Sorted by `(source, kind)`.
    pub windows: Vec<FilterWindowSnapshot>,
    pub stats: FilterStats,
    pub last_sweep: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::AlertKind;
    use simnet::intern::SymScope;

    fn scan_alert(t: u64, src: &str) -> Alert {
        Alert::new(
            SimTime::from_secs(t),
            AlertKind::PortScan,
            Entity::Address(src.parse().unwrap()),
        )
        .with_src(src.parse().unwrap())
    }

    #[test]
    fn first_scan_admitted_rest_suppressed() {
        let mut f = ScanFilter::default();
        assert!(f.admit(&scan_alert(0, "103.102.1.1")));
        for t in 1..100 {
            assert!(!f.admit(&scan_alert(t, "103.102.1.1")));
        }
        let s = f.stats();
        assert_eq!(s.seen, 100);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.suppressed, 99);
        assert!(s.reduction() < 0.02);
    }

    #[test]
    fn distinct_sources_each_admitted() {
        let mut f = ScanFilter::default();
        for i in 0..50 {
            assert!(f.admit(&scan_alert(0, &format!("103.102.1.{i}"))));
        }
    }

    #[test]
    fn window_expiry_readmits() {
        let mut f = ScanFilter::new(FilterConfig {
            window: SimDuration::from_hours(1),
            ..Default::default()
        });
        assert!(f.admit(&scan_alert(0, "9.9.9.9")));
        assert!(!f.admit(&scan_alert(100, "9.9.9.9")));
        // Past the window: admitted again.
        assert!(f.admit(&scan_alert(3_601, "9.9.9.9")));
    }

    #[test]
    fn significant_alerts_never_suppressed() {
        let mut f = ScanFilter::default();
        for t in 0..10 {
            let a = Alert::new(
                SimTime::from_secs(t),
                AlertKind::DownloadSensitive,
                Entity::User("eve".into()),
            );
            assert!(f.admit(&a));
        }
        assert_eq!(f.stats().suppressed, 0);
    }

    #[test]
    fn attempts_deduped_when_configured() {
        let mut f = ScanFilter::default();
        let brute = |t: u64| {
            Alert::new(
                SimTime::from_secs(t),
                AlertKind::BruteForcePassword,
                Entity::Address("91.247.1.1".parse().unwrap()),
            )
        };
        assert!(f.admit(&brute(0)));
        assert!(!f.admit(&brute(1)));
        let mut f2 = ScanFilter::new(FilterConfig {
            dedup_attempts: false,
            ..Default::default()
        });
        assert!(f2.admit(&brute(0)));
        assert!(f2.admit(&brute(1)));
    }

    #[test]
    fn sweep_bounds_state() {
        let mut f = ScanFilter::new(FilterConfig {
            window: SimDuration::from_secs(10),
            ..Default::default()
        });
        for i in 0..1_000u64 {
            // Each source appears once, far apart in time.
            f.admit(&scan_alert(
                i * 40,
                &format!("10.{}.{}.1", i / 250, i % 250),
            ));
        }
        assert!(
            f.live_windows() < 16,
            "stale windows were not swept: {}",
            f.live_windows()
        );
    }

    /// Snapshot → import into a fresh filter → replay must suppress and
    /// admit exactly as the uninterrupted filter would, including windows
    /// keyed by user entities (whose raw ids embed interner symbol ids)
    /// and anonymous-source windows.
    #[test]
    fn snapshot_roundtrip_preserves_dedup_decisions() {
        let global = SymScope::global();
        let syms = SymMap::replay(&global, &global.snapshot());
        let mut f = ScanFilter::default();
        // Address-keyed, user-keyed, and anonymous-source windows.
        assert!(f.admit(&scan_alert(10, "103.102.1.1")));
        let user_alert = |t: u64| {
            Alert::new(
                SimTime::from_secs(t),
                AlertKind::BruteForcePassword,
                Entity::User("eve".into()),
            )
        };
        let anon_alert = |t: u64| {
            Alert::new(SimTime::from_secs(t), AlertKind::PortScan, Entity::Unknown)
                .with_src("9.9.9.9".parse().unwrap())
        };
        assert!(f.admit(&user_alert(20)));
        assert!(f.admit(&anon_alert(30)));

        let snap = f.export_state();
        assert_eq!(snap.windows.len(), 3);
        let eve = SnapKey {
            kind: SnapKey::USER,
            id: global.sym("eve").id(),
        };
        let anon = SnapKey {
            kind: SnapKey::SOURCE,
            id: u32::from(Ipv4Addr::new(9, 9, 9, 9)),
        };
        assert!(snap.windows.iter().any(|w| w.source == eve));
        assert!(snap.windows.iter().any(|w| w.source == anon));

        let mut restored = ScanFilter::default();
        restored
            .import_state(&snap, &syms)
            .expect("exported snapshot restores");
        assert_eq!(restored.export_state(), snap, "import→export identity");
        // Same-window repeats stay suppressed after restore…
        assert!(!restored.admit(&scan_alert(40, "103.102.1.1")));
        assert!(!restored.admit(&user_alert(50)));
        assert!(!restored.admit(&anon_alert(60)));
        // …and mirror the uninterrupted filter exactly.
        assert!(!f.admit(&scan_alert(40, "103.102.1.1")));
        assert!(!f.admit(&user_alert(50)));
        assert!(!f.admit(&anon_alert(60)));
        assert_eq!(restored.stats(), f.stats());
        assert_eq!(restored.export_state(), f.export_state());

        // A source key of no known kind, or a user past the universe, is
        // refused and leaves the filter as it was.
        let before = restored.export_state();
        let past = syms.len() as u32;
        for (kind, id, why) in [
            (0, 0, "kind 0"),
            (9, 1, "kind 9"),
            (SnapKey::USER, past, "past the"),
        ] {
            let mut bad = snap.clone();
            bad.windows[1].source = SnapKey { kind, id };
            let err = restored.import_state(&bad, &syms).expect_err(why);
            assert!(err.starts_with("filter.windows[1].source"), "{err}");
            assert!(err.contains(why), "{err}");
            assert_eq!(restored.export_state(), before, "{why}: state changed");
        }
    }

    /// Tenant windows are keyed by ids in the tenant's own table: the
    /// snapshot must name the tenant's user by its position in the
    /// tenant's universe, and restore into another process' tenant table
    /// (where the name gets another id) as the same window.
    #[test]
    fn tenant_windows_export_the_tenant_name_and_restore() {
        let tenant = SymScope::fresh();
        // Give the tenant's `eve` an id that names someone else globally.
        tenant.sym("tenant-filler");
        let alert = |scope: &SymScope, t: u64| {
            Alert::new(
                SimTime::from_secs(t),
                AlertKind::BruteForcePassword,
                Entity::User(scope.sym("eve")),
            )
        };
        let mut f = ScanFilter::default();
        assert!(f.admit(&alert(&tenant, 10)));
        let snap = f.export_state();
        let universe = tenant.snapshot();
        assert_eq!(snap.windows.len(), 1);
        assert_eq!(snap.windows[0].source.kind, SnapKey::USER);
        assert_eq!(universe[snap.windows[0].source.id as usize], "eve");

        let fresh = SymScope::fresh();
        for i in 0..3 {
            fresh.sym(&format!("other-{i}"));
        }
        let syms = SymMap::replay(&fresh, &universe);
        let mut restored = ScanFilter::default();
        restored
            .import_state(&snap, &syms)
            .expect("exported snapshot restores");
        let moved = restored.export_state();
        assert_eq!(moved.windows[0].source.id, fresh.sym("eve").id());
        assert!(
            !restored.admit(&alert(&fresh, 20)),
            "the restored window suppresses the tenant's repeat"
        );
    }

    /// A tenant user id past the end of the global table exports as its
    /// tenant-universe position and restores through the tenant's map.
    #[test]
    fn tenant_ids_past_the_global_table_export() {
        let tenant = SymScope::fresh();
        let past = SymScope::global().len() + 64;
        for i in 0..past {
            tenant.sym(&format!("tenant-user-{i}"));
        }
        let user = tenant.sym(&format!("tenant-user-{}", past - 1));
        assert!(user.id() as usize >= SymScope::global().len());
        let mut f = ScanFilter::default();
        assert!(f.admit(&Alert::new(
            SimTime::from_secs(1),
            AlertKind::BruteForcePassword,
            Entity::User(user),
        )));
        let snap = f.export_state();
        let universe = tenant.snapshot();
        assert_eq!(
            universe.get(snap.windows[0].source.id as usize),
            Some(format!("tenant-user-{}", past - 1).as_str())
        );
        let mut restored = ScanFilter::default();
        restored
            .import_state(&snap, &SymMap::replay(&tenant, &universe))
            .expect("restores into its own scope");
        assert_eq!(restored.export_state(), snap);
    }

    #[test]
    fn user_and_address_entities_keyed_separately() {
        let mut f = ScanFilter::default();
        let a1 = Alert::new(
            SimTime::from_secs(0),
            AlertKind::PortScan,
            Entity::User("x".into()),
        );
        let a2 = Alert::new(
            SimTime::from_secs(0),
            AlertKind::PortScan,
            Entity::Address("1.2.3.4".parse().unwrap()),
        );
        assert!(f.admit(&a1));
        assert!(f.admit(&a2));
    }
}
