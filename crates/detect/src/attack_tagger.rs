//! The factor-graph AttackTagger detector.
//!
//! Per §IV and refs \[5\], \[6\]: each attack entity (user account or source
//! address) carries a chain of hidden attack stages linked by learned
//! transition factors, with learned observation factors tying each stage to
//! the observed alert. Online, the detector maintains the *filtered*
//! posterior P(stage | alerts so far) — strictly causal, as preemption
//! requires — and raises a detection the moment the probability that the
//! entity is in an attack stage (but not yet at damage) crosses the
//! decision threshold.
//!
//! This is exactly Remark 2's prescription: the model "must incorporate
//! conditional probabilities of an alert being in a successful attack and
//! normal operational conditions".

use alertlib::alert::{Alert, EntityId, EntityKey, SnapKey};
use alertlib::taxonomy::AlertKind;
use factorgraph::chain::ChainModel;
use factorgraph::timing::GAP_NONE;
use simnet::intern::{SymMap, SymScope};
use simnet::rng::{FxHashMap, FxHashSet};
use simnet::time::{SimDuration, SimTime};

use crate::correlate::CorrelationPolicy;
use crate::stage::Stage;

/// Per-entity temporal evidence policy (Insight 3 hardening).
///
/// The order-only filter treats an entity's alert stream as one endless
/// session: evidence accumulates forever, and the hours between alerts
/// carry no information. This policy adds the time axis in three ways:
///
/// - **Evidence decay** — before folding a new alert, the entity's
///   posterior is relaxed toward the model prior by
///   `λ = 2^(−gap / decay_half_life)`: stale suspicion fades instead of
///   compounding across unrelated activity (the false-positive side of
///   temporal hardening).
/// - **Session timeout** — a gap beyond `session_timeout` ends the
///   entity's session outright: the filter restarts from the prior, as if
///   the entity were first seen (detection latching is preserved).
/// - **Gap observations** — when the model carries a
///   [`factorgraph::timing::GapModel`], the quantized gap preceding each
///   alert is folded in as one more observation factor, so low-and-slow
///   tempo *adds* evidence instead of hiding the attack.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalPolicy {
    /// Half-life of accumulated per-entity evidence; `None` disables
    /// decay.
    pub decay_half_life: Option<SimDuration>,
    /// Idle gap after which the entity's session is considered over and
    /// the filter restarts from the prior; `None` disables.
    pub session_timeout: Option<SimDuration>,
    /// Fold the model's quantized gap observations into the online filter
    /// (no-op when the model has no gap tables).
    pub gap_observations: bool,
    /// Degraded-mode duplicate suppression: an alert whose `(ts, kind)`
    /// exactly matches one already folded into the same entity within
    /// this window is dropped as a telemetry re-delivery instead of
    /// double-counting as evidence. `None` (the default) disables
    /// suppression, preserving the historical filter byte for byte.
    pub dedup_window: Option<SimDuration>,
}

impl Default for TemporalPolicy {
    fn default() -> Self {
        TemporalPolicy {
            decay_half_life: Some(SimDuration::from_hours(48)),
            session_timeout: Some(SimDuration::from_days(7)),
            gap_observations: true,
            dedup_window: None,
        }
    }
}

impl TemporalPolicy {
    /// The order-only behaviour of the pre-temporal tagger: no decay, no
    /// timeout, gaps ignored.
    pub fn disabled() -> TemporalPolicy {
        TemporalPolicy {
            decay_half_life: None,
            session_timeout: None,
            gap_observations: false,
            dedup_window: None,
        }
    }

    /// Apply the gap from an entity's previous alert at `last` to its
    /// next at `ts` to the posterior `alpha`: the temporal half of one
    /// filter step, shared by the tagger and the correlator's stitched
    /// replay. Known `blackouts` are subtracted from the gap first — a
    /// dark sensor is not attacker silence — while decay keeps
    /// wall-clock time (the evidence really is that old). `None` when the
    /// net gap ends the session (`alpha` untouched; the filter restarts
    /// from the prior); otherwise `alpha` has been relaxed toward the
    /// prior and the result is the gap bin to fold ([`GAP_NONE`] unless
    /// gap observations are on).
    #[inline]
    pub(crate) fn apply_gap(
        &self,
        model: &ChainModel,
        blackouts: &[(SimTime, SimTime)],
        last: SimTime,
        ts: SimTime,
        alpha: &mut [f64],
    ) -> Option<usize> {
        let gap = ts.saturating_since(last);
        let effective_gap = AttackTagger::net_gap(blackouts, last, ts);
        if self
            .session_timeout
            .is_some_and(|limit| effective_gap > limit)
        {
            return None;
        }
        if let Some(lambda) = decay_factor(gap, self.decay_half_life) {
            model.relax_to_prior(alpha, lambda);
        }
        Some(if self.gap_observations {
            model.gap_bin(effective_gap.as_secs_f64())
        } else {
            GAP_NONE
        })
    }
}

/// The evidence-decay factor `λ = 2^(−gap/half_life)` shared by the
/// tagger, the correlator's stitched replay and its mass and support
/// decay; `None` when nothing decays (no or a zero half-life, or no gap).
///
/// Written as `exp2`, not as a power of 0.5: optimised builds fold
/// `pow(0.5, x)` into `exp2(-x)` while unoptimised ones call `pow`, and
/// the two differ in the last bit for some `x`.
pub(crate) fn decay_factor(gap: SimDuration, half_life: Option<SimDuration>) -> Option<f64> {
    let hl = half_life?.as_secs_f64();
    let gap = gap.as_secs_f64();
    (hl > 0.0 && gap > 0.0).then(|| (-(gap / hl)).exp2())
}

/// Decision configuration.
#[derive(Debug, Clone)]
pub struct TaggerConfig {
    /// Posterior mass over attack stages required to raise a detection.
    pub threshold: f64,
    /// Stages counted as "attack underway".
    pub decision_stages: Vec<Stage>,
    /// Cap on per-entity history; older alerts are already folded into the
    /// forward message, so this only bounds the reported context.
    pub max_context: usize,
    /// Per-entity temporal evidence policy (decay / timeout / gap
    /// observations).
    pub temporal: TemporalPolicy,
    /// Opt-in cross-entity campaign correlation
    /// ([`crate::correlate::CampaignCorrelator`]). `None` — the default —
    /// keeps the detector strictly per-entity. The tagger itself never
    /// reads this; it is the policy carrier for the layer above (pipeline
    /// builder / [`crate::correlate::CorrelatedTagger`]).
    pub correlation: Option<CorrelationPolicy>,
    /// Soft bound on resident per-entity state (long-lived service mode).
    /// `0` — the default, and the historical behaviour — tracks every
    /// entity forever. With a bound set, reaching it triggers a sweep that
    /// evicts entities whose (blackout-net) idle gap exceeds the temporal
    /// policy's `session_timeout` — exactly the state PR 5 already defines
    /// as dead, so eviction is detection-neutral: the next alert would
    /// have restarted the filter from the prior anyway. Detection latches
    /// of evicted entities are preserved in a compact side set (one id per
    /// *detected* entity), so a re-arriving attacker is never re-counted.
    /// Without a `session_timeout` no state is ever provably dead and the
    /// bound is inert.
    pub max_entities: usize,
}

impl Default for TaggerConfig {
    fn default() -> Self {
        TaggerConfig {
            threshold: 0.8,
            decision_stages: vec![Stage::Foothold, Stage::Escalation, Stage::Lateral],
            max_context: 64,
            temporal: TemporalPolicy::default(),
            correlation: None,
            max_entities: 0,
        }
    }
}

/// A raised detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// When the detection fired.
    pub ts: SimTime,
    /// Index of the triggering alert within the entity's session.
    pub alert_index: usize,
    /// The triggering alert kind.
    pub trigger: AlertKind,
    /// Posterior mass over the decision stages at the trigger.
    pub score: f64,
    /// Most likely stage at the trigger.
    pub stage: Stage,
}

/// One [`AttackTagger::observe_scored`] result: the (latched) detection
/// verdict plus the entity's post-observe attack mass, reported on every
/// call. The score is what the campaign correlator links and fuses on.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// First threshold crossing for this entity, if it happened now.
    pub detection: Option<Detection>,
    /// Posterior mass over the decision stages after folding this alert
    /// (current mass when the alert was dropped as a duplicate).
    pub attack_score: f64,
}

/// Serializable per-entity filter state — one entry of a
/// [`TaggerSnapshot`]. Entities are [`SnapKey`]s, not raw ids: a user is
/// named by its position in the snapshot's symbol universe, so a snapshot
/// restores correctly in a fresh process whose intern table assigns
/// different ids. The posterior and the dedup ring have fixed arity, so a
/// snapshot entity owns no heap buffer of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityStateSnapshot {
    pub entity: SnapKey,
    /// Filtered posterior over stages.
    pub alpha: [f64; Stage::COUNT],
    /// Alerts folded in since the last session restart.
    pub steps: usize,
    /// Detection latch.
    pub detected: bool,
    /// Gap anchor.
    pub last_ts: SimTime,
    /// Duplicate-suppression ring, `(ts, kind index)`; `u16::MAX` kind
    /// marks an empty slot.
    pub recent: [(SimTime, u16); DEDUP_SLOTS],
    /// Next ring slot to overwrite.
    pub recent_head: u8,
}

/// Exported posteriors of an [`AttackTagger`] — the detector's share of
/// a service snapshot. Restoring it with
/// [`AttackTagger::import_state`] and replaying the stream tail yields
/// byte-identical detections to the uninterrupted run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaggerSnapshot {
    /// Per-entity filter state, sorted by entity.
    pub entities: Vec<EntityStateSnapshot>,
    /// Evicted entities whose detection latch is held, sorted.
    pub evicted_latches: Vec<SnapKey>,
    /// Alerts dropped as telemetry duplicates so far.
    pub duplicates_suppressed: u64,
    /// Entities evicted by the bounded-state sweep so far.
    pub entities_evicted: u64,
}

/// A [`TaggerSnapshot`] decoded and validated against a [`SymMap`],
/// ready for [`AttackTagger::install`]. Decoding touches no tagger, so a
/// restore of several detectors can decode them all before installing
/// any.
#[derive(Debug)]
pub struct DecodedTagger {
    states: FxHashMap<EntityId, EntityState>,
    evicted_latches: FxHashSet<EntityId>,
    duplicates_suppressed: u64,
    entities_evicted: u64,
}

/// Translate a snapshot's entity key through `syms`, naming `field` on
/// failure.
pub(crate) fn snapshot_key(
    key: SnapKey,
    syms: &SymMap,
    field: impl FnOnce() -> String,
) -> Result<EntityId, String> {
    EntityId::from_snap_key(key, syms).map_err(|why| format!("{}: {why}", field()))
}

/// `items` rendered in ascending key order. Sorts the small `(key, item)`
/// pairs rather than the rendered snapshot entries, which hold whole rings
/// and cost far more to move.
pub(crate) fn sorted_by_key<'a, K: Ord + Copy, T: 'a, S>(
    items: impl Iterator<Item = (K, &'a T)>,
    mut render: impl FnMut(K, &'a T) -> S,
) -> Vec<S> {
    let mut order: Vec<(K, &T)> = items.collect();
    order.sort_unstable_by_key(|&(k, _)| k);
    order.into_iter().map(|(k, t)| render(k, t)).collect()
}

/// Reject a snapshot ring head at or past its ring's length.
pub(crate) fn ring_head(
    head: u8,
    len: usize,
    field: impl FnOnce() -> String,
) -> Result<(), String> {
    if usize::from(head) < len {
        Ok(())
    } else {
        Err(format!("{}: {head} is past the {len}-slot ring", field()))
    }
}

impl TaggerSnapshot {
    /// Decode into fresh tagger state, translating users through
    /// `syms`. Fails on a key of no entity kind or past the universe, or
    /// a ring head past the ring.
    pub fn decode(&self, syms: &SymMap) -> Result<DecodedTagger, String> {
        let mut states = FxHashMap::default();
        states.reserve(self.entities.len());
        for (i, e) in self.entities.iter().enumerate() {
            let field = || format!("tagger.entities[{i}]");
            let id = snapshot_key(e.entity, syms, || format!("{}.entity", field()))?;
            ring_head(e.recent_head, DEDUP_SLOTS, || {
                format!("{}.recent_head", field())
            })?;
            let state = EntityState {
                alpha: e.alpha,
                steps: e.steps,
                detected: e.detected,
                last_ts: e.last_ts,
                recent: e.recent,
                recent_head: e.recent_head,
            };
            states.insert(id, state);
        }
        let mut evicted_latches = FxHashSet::default();
        for (i, &key) in self.evicted_latches.iter().enumerate() {
            evicted_latches.insert(snapshot_key(key, syms, || {
                format!("tagger.evicted_latches[{i}]")
            })?);
        }
        Ok(DecodedTagger {
            states,
            evicted_latches,
            duplicates_suppressed: self.duplicates_suppressed,
            entities_evicted: self.entities_evicted,
        })
    }
}

/// Slots in the per-entity duplicate-suppression ring. Telemetry
/// duplicates arrive within a handful of records of the original (the
/// fault model's reorder window is bounded), so a small fixed ring
/// suffices and keeps the hot path allocation-free.
pub const DEDUP_SLOTS: usize = 8;

/// Sentinel kind index marking an empty dedup slot (no [`AlertKind`]
/// reaches `u16::MAX`).
const DEDUP_EMPTY: u16 = u16::MAX;

/// Per-entity forward-filter state.
#[derive(Debug, Clone)]
struct EntityState {
    /// Current filtered posterior over stages (inline: a new entity
    /// allocates nothing of its own).
    alpha: [f64; Stage::COUNT],
    /// Number of alerts folded in (since the last session timeout).
    steps: usize,
    /// Whether a detection has already been raised (latched).
    detected: bool,
    /// Timestamp of the entity's previous alert (gap anchor).
    last_ts: SimTime,
    /// Ring of recently folded `(ts, kind)` pairs for duplicate
    /// suppression; only maintained when the policy sets a window.
    recent: [(SimTime, u16); DEDUP_SLOTS],
    /// Next ring slot to overwrite.
    recent_head: u8,
}

/// The online AttackTagger.
#[derive(Debug, Clone)]
pub struct AttackTagger {
    model: ChainModel,
    cfg: TaggerConfig,
    states: FxHashMap<EntityId, EntityState>,
    /// Known telemetry blackout windows, sorted and merged. A gap that
    /// overlaps one is a sensor outage, not attacker silence: the
    /// overlapped span is excluded from session-timeout and gap-bin
    /// accounting (decay still uses wall-clock time — evidence really is
    /// that old).
    blackouts: Vec<(SimTime, SimTime)>,
    /// Alerts dropped as telemetry duplicates.
    duplicates_suppressed: u64,
    /// Detection latches of evicted entities (see
    /// [`TaggerConfig::max_entities`]): a re-arriving evicted attacker
    /// resumes `detected` instead of being re-counted.
    evicted_latches: FxHashSet<EntityId>,
    /// Entities evicted so far.
    entities_evicted: u64,
    /// Don't rescan for dead state until the map regrows to this length —
    /// keeps sweeps amortized O(1) per alert when nothing is expiring.
    sweep_floor: usize,
    /// Reused eviction id buffer (alloc-free steady state).
    evict_scratch: Vec<EntityId>,
}

impl AttackTagger {
    /// Create from a trained chain model (states = [`Stage::COUNT`],
    /// observations = [`AlertKind::COUNT`]).
    pub fn new(model: ChainModel, cfg: TaggerConfig) -> AttackTagger {
        assert_eq!(
            model.n_states(),
            Stage::COUNT,
            "model must have one state per stage"
        );
        assert_eq!(
            model.n_obs(),
            AlertKind::COUNT,
            "model must cover the full taxonomy"
        );
        AttackTagger {
            model,
            cfg,
            states: FxHashMap::default(),
            blackouts: Vec::new(),
            duplicates_suppressed: 0,
            evicted_latches: FxHashSet::default(),
            entities_evicted: 0,
            sweep_floor: 0,
            evict_scratch: Vec::new(),
        }
    }

    pub fn config(&self) -> &TaggerConfig {
        &self.cfg
    }

    /// Replace the per-entity temporal policy (decay / timeout / gap
    /// observations). Takes effect from the next [`AttackTagger::observe`];
    /// existing per-entity posteriors are kept.
    pub fn set_temporal(&mut self, temporal: TemporalPolicy) {
        self.cfg.temporal = temporal;
    }

    /// Install (or clear) the carried cross-entity correlation policy.
    /// The tagger itself never consults it — see
    /// [`TaggerConfig::correlation`].
    pub fn set_correlation(&mut self, correlation: Option<CorrelationPolicy>) {
        self.cfg.correlation = correlation;
    }

    /// Override the per-entity state budget (see
    /// [`TaggerConfig::max_entities`]); `0` disables the bound. Takes
    /// effect from the next [`AttackTagger::observe`].
    pub fn set_max_entities(&mut self, max_entities: usize) {
        self.cfg.max_entities = max_entities;
    }

    pub fn model(&self) -> &ChainModel {
        &self.model
    }

    /// Declare known telemetry blackout windows (operator knowledge —
    /// e.g. a scheduled collector outage, or the spans of a
    /// `FaultPlan`). Overlapping/unsorted windows are merged. Gaps that
    /// overlap a declared window are shrunk by the overlap before the
    /// session-timeout and gap-observation logic runs, so a dark sensor
    /// is not read as attacker silence.
    pub fn set_blackouts(&mut self, mut windows: Vec<(SimTime, SimTime)>) {
        windows.retain(|(s, e)| e > s);
        windows.sort();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            match merged.last_mut() {
                Some((_, last_e)) if s <= *last_e => {
                    if e > *last_e {
                        *last_e = e;
                    }
                }
                _ => merged.push((s, e)),
            }
        }
        self.blackouts = merged;
    }

    /// The declared blackout windows (sorted, merged).
    pub fn blackouts(&self) -> &[(SimTime, SimTime)] {
        &self.blackouts
    }

    /// Alerts dropped as telemetry re-deliveries by the dedup window.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Total overlap of `[from, to]` with the declared blackout windows.
    pub fn blackout_overlap(&self, from: SimTime, to: SimTime) -> SimDuration {
        Self::overlap_of(&self.blackouts, from, to)
    }

    /// The gap from `from` to `to` net of its overlap with `blackouts`.
    fn net_gap(blackouts: &[(SimTime, SimTime)], from: SimTime, to: SimTime) -> SimDuration {
        let gap = to.saturating_since(from);
        if blackouts.is_empty() {
            gap
        } else {
            gap.saturating_sub(Self::overlap_of(blackouts, from, to))
        }
    }

    fn overlap_of(blackouts: &[(SimTime, SimTime)], from: SimTime, to: SimTime) -> SimDuration {
        let mut overlap = SimDuration::ZERO;
        for &(s, e) in blackouts {
            if s >= to {
                break;
            }
            if e <= from {
                continue;
            }
            let lo = if s > from { s } else { from };
            let hi = if e < to { e } else { to };
            overlap = overlap.saturating_add(hi.saturating_since(lo));
        }
        overlap
    }

    /// Observe one alert online. Returns a detection the first time the
    /// entity's posterior crosses the threshold (latched per entity).
    ///
    /// Allocation-free per call for already-tracked entities — the state
    /// map is keyed by the integer [`EntityId`], so no key string is ever
    /// built, and the posterior lives inline in the entity's state. A new
    /// entity allocates only when the state map grows.
    pub fn observe(&mut self, alert: &Alert) -> Option<Detection> {
        self.observe_scored(alert).detection
    }

    /// [`AttackTagger::observe`], but also reporting the entity's
    /// post-observe posterior mass over the decision stages — computed on
    /// every call, threshold or not, latched or not. This is the
    /// per-entity feature the campaign correlator consumes; keeping it on
    /// the observe path means a sharded executor needs no second pass
    /// over per-entity state.
    pub fn observe_scored(&mut self, alert: &Alert) -> Observation {
        // Bounded-state mode: at the budget, sweep state the temporal
        // policy already declares dead (idle past the session timeout, net
        // of blackouts). Detection-neutral — see `TaggerConfig::max_entities`.
        if self.cfg.max_entities != 0
            && self.states.len() >= self.cfg.max_entities
            && self.states.len() >= self.sweep_floor
        {
            self.sweep_expired(alert.ts);
        }
        let id = alert.entity.id();
        // Invariant: a tracked entity is never in `evicted_latches`, so a
        // hit here means an evicted-but-detected entity is re-arriving —
        // its fresh state resumes with the latch set (no double-count).
        let latched = !self.evicted_latches.is_empty() && self.evicted_latches.remove(&id);
        let temporal = &self.cfg.temporal;
        let state = self.states.entry(id).or_insert_with(|| EntityState {
            alpha: [0.0; Stage::COUNT],
            steps: 0,
            detected: latched,
            last_ts: alert.ts,
            recent: [(SimTime::EPOCH, DEDUP_EMPTY); DEDUP_SLOTS],
            recent_head: 0,
        });
        let obs = alert.kind.index();
        // Degraded-mode duplicate suppression: an exact `(ts, kind)`
        // re-delivery within the window is telemetry duplication, not new
        // evidence — drop it before it touches the filter.
        if let Some(window) = temporal.dedup_window {
            // The ring remembers the last few folded alerts; an entry
            // older than the window (relative to the incoming alert) can
            // no longer match — re-deliveries carry the original
            // timestamp, so a live duplicate always compares equal.
            let duplicate = state.recent.iter().any(|&(ts, kind)| {
                kind == obs as u16 && ts == alert.ts && alert.ts.saturating_since(ts) <= window
            });
            if duplicate {
                self.duplicates_suppressed += 1;
                let attack_score = if state.steps > 0 {
                    Self::decision_mass(&self.cfg.decision_stages, &state.alpha)
                } else {
                    0.0
                };
                return Observation {
                    detection: None,
                    attack_score,
                };
            }
            state.recent[state.recent_head as usize] = (alert.ts, obs as u16);
            state.recent_head = (state.recent_head + 1) % DEDUP_SLOTS as u8;
        }
        // Temporal policy: the gap since the entity's previous alert ends
        // the session (timeout), fades stale evidence (decay), and is
        // itself an observation (quantized gap factor).
        let mut gap_bin = GAP_NONE;
        if state.steps > 0 {
            match temporal.apply_gap(
                &self.model,
                &self.blackouts,
                state.last_ts,
                alert.ts,
                &mut state.alpha,
            ) {
                Some(bin) => gap_bin = bin,
                None => state.steps = 0,
            }
        }
        state.last_ts = alert.ts;
        let prev = state.alpha;
        self.model.forward_step(
            (state.steps > 0).then_some(&prev[..]),
            obs,
            gap_bin,
            &mut state.alpha,
        );
        state.steps += 1;
        let score = Self::decision_mass(&self.cfg.decision_stages, &state.alpha);
        if state.detected || score < self.cfg.threshold {
            return Observation {
                detection: None,
                attack_score: score,
            };
        }
        state.detected = true;
        let mut best = 0;
        for s in 1..Stage::COUNT {
            if state.alpha[s] > state.alpha[best] {
                best = s;
            }
        }
        Observation {
            detection: Some(Detection {
                ts: alert.ts,
                alert_index: state.steps - 1,
                trigger: alert.kind,
                score,
                stage: Stage::from_index(best),
            }),
            attack_score: score,
        }
    }

    /// Posterior mass over the configured decision stages.
    pub(crate) fn decision_mass(stages: &[Stage], alpha: &[f64]) -> f64 {
        stages.iter().map(|s| alpha[s.index()]).sum()
    }

    /// Evict every entity whose blackout-net idle gap (relative to `now`)
    /// exceeds the session timeout — state the temporal policy defines as
    /// dead, whose next alert would restart the filter from the prior
    /// regardless. Latches of detected entities move to the compact side
    /// set. Without a `session_timeout` nothing is provably dead, so the
    /// sweep is a no-op.
    fn sweep_expired(&mut self, now: SimTime) {
        let Some(timeout) = self.cfg.temporal.session_timeout else {
            // Nothing can expire; don't rescan until the map grows again.
            self.sweep_floor = self.states.len() + (self.cfg.max_entities / 8).max(1);
            return;
        };
        let mut expired = std::mem::take(&mut self.evict_scratch);
        expired.clear();
        for (&id, state) in &self.states {
            if Self::net_gap(&self.blackouts, state.last_ts, now) > timeout {
                expired.push(id);
            }
        }
        for &id in &expired {
            if let Some(state) = self.states.remove(&id) {
                if state.detected {
                    self.evicted_latches.insert(id);
                }
                self.entities_evicted += 1;
            }
        }
        self.evict_scratch = expired;
        // Amortization: if the stream is so hot that little or nothing
        // expired, let the map grow an eighth of the budget before
        // scanning again (the bound is a soft target, not a hard cap).
        self.sweep_floor = self.states.len() + (self.cfg.max_entities / 8).max(1);
    }

    /// Entities evicted by the bounded-state sweep so far.
    pub fn entities_evicted(&self) -> u64 {
        self.entities_evicted
    }

    /// Detection latches currently held for evicted entities.
    pub fn evicted_latched_entities(&self) -> usize {
        self.evicted_latches.len()
    }

    /// The current filtered posterior for an entity — the allocation-free
    /// primary lookup, keyed by [`EntityId`] like the state map itself.
    pub fn posterior_id(&self, id: EntityId) -> Option<&[f64]> {
        self.states.get(&id).map(|s| &s.alpha[..])
    }

    /// String-key convenience over [`AttackTagger::posterior_id`] for
    /// tests and boundary callers holding a canonical key (`user:…` /
    /// `addr:…`).
    pub fn posterior(&self, entity_key: &str) -> Option<&[f64]> {
        self.posterior_id(EntityId::from_key(entity_key)?)
    }

    /// Ground-truth hook: whether a detection has latched for this entity
    /// (allocation-free, [`EntityId`]-keyed). Latches survive bounded-state
    /// eviction.
    pub fn is_detected_id(&self, id: EntityId) -> bool {
        self.states.get(&id).is_some_and(|s| s.detected) || self.evicted_latches.contains(&id)
    }

    /// String-key convenience over [`AttackTagger::is_detected_id`].
    pub fn is_detected(&self, entity_key: &str) -> bool {
        EntityId::from_key(entity_key).is_some_and(|id| self.is_detected_id(id))
    }

    /// Ground-truth hook: entities with a latched detection, in
    /// unspecified order — the allocation-free primary surface the
    /// correlator and eval hooks consume. For harnesses and tests that
    /// drive a tagger directly and want to cross-check a notification
    /// stream against detector state (the stream-executor path scores
    /// from notifications alone, since executors consume their detector).
    pub fn detected_entity_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.states
            .iter()
            .filter(|(_, s)| s.detected)
            .map(|(&id, _)| id)
            .chain(self.evicted_latches.iter().copied())
    }

    /// Canonical-key convenience over
    /// [`AttackTagger::detected_entity_ids`], with user names resolved
    /// against `scope` (tests only — hot paths use the id variant).
    pub fn detected_entities<'a>(
        &'a self,
        scope: &'a SymScope,
    ) -> impl Iterator<Item = EntityKey> + 'a {
        self.detected_entity_ids().map(|id| id.key(scope))
    }

    /// Ground-truth hook: alerts folded into an entity's filter so far
    /// (allocation-free, [`EntityId`]-keyed).
    pub fn entity_steps_id(&self, id: EntityId) -> Option<usize> {
        self.states.get(&id).map(|s| s.steps)
    }

    /// String-key convenience over [`AttackTagger::entity_steps_id`].
    pub fn entity_steps(&self, entity_key: &str) -> Option<usize> {
        self.entity_steps_id(EntityId::from_key(entity_key)?)
    }

    /// Forget all per-entity state (including evicted-entity latches).
    pub fn reset(&mut self) {
        self.states.clear();
        self.evicted_latches.clear();
        self.sweep_floor = 0;
    }

    /// Number of tracked entities.
    pub fn tracked_entities(&self) -> usize {
        self.states.len()
    }

    /// Export the per-entity posteriors (and eviction side state) for
    /// a service snapshot. Deterministic: entities and latches are sorted
    /// by key. Users are named by symbol id, which is their position in
    /// the minting scope's universe ([`SymScope::snapshot`]).
    ///
    /// [`SymScope::snapshot`]: simnet::intern::SymScope::snapshot
    pub fn export_state(&self) -> TaggerSnapshot {
        let entities = sorted_by_key(
            self.states.iter().map(|(id, s)| (id.snap_key(), s)),
            |entity, s| EntityStateSnapshot {
                entity,
                alpha: s.alpha,
                steps: s.steps,
                detected: s.detected,
                last_ts: s.last_ts,
                recent: s.recent,
                recent_head: s.recent_head,
            },
        );
        let mut evicted_latches: Vec<SnapKey> = self
            .evicted_latches
            .iter()
            .map(|id| id.snap_key())
            .collect();
        evicted_latches.sort_unstable();
        TaggerSnapshot {
            entities,
            evicted_latches,
            duplicates_suppressed: self.duplicates_suppressed,
            entities_evicted: self.entities_evicted,
        }
    }

    /// Replace this tagger's per-entity state with a snapshot previously
    /// produced by [`AttackTagger::export_state`] (possibly in another
    /// process), translating users through `syms`. Replaying the stream
    /// tail after a restore yields byte-identical detections to the
    /// uninterrupted run. A malformed snapshot is an error naming the
    /// field, and leaves the tagger unchanged.
    pub fn import_state(&mut self, snap: &TaggerSnapshot, syms: &SymMap) -> Result<(), String> {
        self.install(snap.decode(syms)?);
        Ok(())
    }

    /// Swap in state decoded by [`TaggerSnapshot::decode`].
    pub fn install(&mut self, decoded: DecodedTagger) {
        self.states = decoded.states;
        self.evicted_latches = decoded.evicted_latches;
        self.duplicates_suppressed = decoded.duplicates_suppressed;
        self.entities_evicted = decoded.entities_evicted;
        self.sweep_floor = 0;
    }

    /// Offline convenience: scan a whole session and return the first
    /// detection, as the evaluation harness does.
    pub fn scan(&self, alerts: &[Alert]) -> Option<Detection> {
        let mut fresh = AttackTagger {
            model: self.model.clone(),
            cfg: self.cfg.clone(),
            states: FxHashMap::default(),
            blackouts: self.blackouts.clone(),
            duplicates_suppressed: 0,
            evicted_latches: FxHashSet::default(),
            entities_evicted: 0,
            sweep_floor: 0,
            evict_scratch: Vec::new(),
        };
        for a in alerts {
            if let Some(d) = fresh.observe(a) {
                return Some(d);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::toy_training_model;
    use alertlib::alert::Entity;

    fn alert(t: u64, kind: AlertKind, user: &str) -> Alert {
        Alert::new(SimTime::from_secs(t), kind, Entity::User(user.into()))
    }

    #[test]
    fn benign_stream_stays_quiet() {
        let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        for t in 0..50u64 {
            let a = alert(t, AlertKind::LoginSuccess, "alice");
            assert!(tagger.observe(&a).is_none(), "false positive at t={t}");
        }
    }

    #[test]
    fn s1_attack_detected_before_damage() {
        let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let seq = [
            (0, AlertKind::PortScan),
            (10, AlertKind::DownloadSensitive),
            (20, AlertKind::CompileKernelModule),
            (30, AlertKind::LogWipe),
            (40, AlertKind::DataExfiltration), // damage
        ];
        let mut detection = None;
        for (t, k) in seq {
            if let Some(d) = tagger.observe(&alert(t, k, "eve")) {
                detection = Some(d);
                break;
            }
        }
        let d = detection.expect("attack must be detected");
        assert!(
            d.ts < SimTime::from_secs(40),
            "must preempt the damage step"
        );
        assert!(d.score >= 0.8);
        assert!(d.stage.is_attack());
    }

    #[test]
    fn detection_latches_per_entity() {
        let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let mut count = 0;
        for t in 0..10u64 {
            let a = alert(t, AlertKind::KnownMalwareDownload, "eve");
            if tagger.observe(&a).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 1, "detection should fire once per entity");
    }

    #[test]
    fn entities_tracked_independently() {
        let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        tagger.observe(&alert(0, AlertKind::DownloadSensitive, "eve"));
        tagger.observe(&alert(1, AlertKind::LoginSuccess, "alice"));
        assert_eq!(tagger.tracked_entities(), 2);
        let eve = tagger.posterior("user:eve").unwrap();
        let alice = tagger.posterior("user:alice").unwrap();
        let attack_mass = |p: &[f64]| p[Stage::Foothold.index()] + p[Stage::Escalation.index()];
        assert!(attack_mass(eve) > attack_mass(alice));
    }

    #[test]
    fn scan_matches_streaming() {
        let tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let session: Vec<Alert> = [
            AlertKind::PortScan,
            AlertKind::DownloadSensitive,
            AlertKind::CompileKernelModule,
            AlertKind::LogWipe,
        ]
        .iter()
        .enumerate()
        .map(|(i, &k)| alert(i as u64, k, "eve"))
        .collect();
        let offline = tagger.scan(&session).expect("detected offline");
        let mut online = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let mut online_det = None;
        for a in &session {
            if let Some(d) = online.observe(a) {
                online_det = Some(d);
                break;
            }
        }
        assert_eq!(Some(offline), online_det);
    }

    /// With the temporal policy disabled the tagger is the order-only
    /// filter: shifting every timestamp by days changes nothing.
    #[test]
    fn disabled_policy_is_time_invariant() {
        let cfg = TaggerConfig {
            temporal: TemporalPolicy::disabled(),
            ..TaggerConfig::default()
        };
        let seq = [
            AlertKind::PortScan,
            AlertKind::DownloadSensitive,
            AlertKind::CompileKernelModule,
            AlertKind::LogWipe,
        ];
        let run = |stride: u64| {
            let mut tagger = AttackTagger::new(toy_training_model(), cfg.clone());
            for (i, &k) in seq.iter().enumerate() {
                tagger.observe(&alert(i as u64 * stride, k, "eve"));
            }
            tagger.posterior("user:eve").unwrap().to_vec()
        };
        assert_eq!(run(1), run(86_400 * 30), "order-only filter ignores time");
    }

    /// Evidence decay: the same suspicious pair separated by a long idle
    /// gap yields a colder posterior than back-to-back, and a decayed
    /// posterior approaches the prior as the gap grows.
    #[test]
    fn decay_relaxes_stale_evidence() {
        let cfg = TaggerConfig {
            temporal: TemporalPolicy {
                decay_half_life: Some(SimDuration::from_hours(6)),
                ..TemporalPolicy::disabled()
            },
            ..TaggerConfig::default()
        };
        let attack_mass = |gap_secs: u64| {
            let mut tagger = AttackTagger::new(toy_training_model(), cfg.clone());
            tagger.observe(&alert(0, AlertKind::DownloadSensitive, "eve"));
            tagger.observe(&alert(gap_secs, AlertKind::CompileKernelModule, "eve"));
            let p = tagger.posterior("user:eve").unwrap();
            p[Stage::Foothold.index()] + p[Stage::Escalation.index()]
        };
        let fresh = attack_mass(60);
        let stale = attack_mass(86_400 * 2);
        assert!(
            fresh > stale,
            "a two-day-stale foothold must be colder: {fresh} vs {stale}"
        );
        let very_stale = attack_mass(86_400 * 30);
        assert!(very_stale < stale, "decay is monotone in the gap");
    }

    /// Session timeout: beyond the idle limit the filter restarts from
    /// the prior — the posterior equals a fresh entity's, not a decayed
    /// continuation — while the detection latch survives.
    #[test]
    fn session_timeout_restarts_the_filter() {
        let cfg = TaggerConfig {
            temporal: TemporalPolicy {
                session_timeout: Some(SimDuration::from_hours(24)),
                ..TemporalPolicy::disabled()
            },
            ..TaggerConfig::default()
        };
        let mut tagger = AttackTagger::new(toy_training_model(), cfg.clone());
        tagger.observe(&alert(0, AlertKind::DownloadSensitive, "eve"));
        tagger.observe(&alert(10, AlertKind::CompileKernelModule, "eve"));
        // 3 days idle, then a benign-looking login.
        tagger.observe(&alert(86_400 * 3, AlertKind::LoginSuccess, "eve"));
        let mut fresh = AttackTagger::new(toy_training_model(), cfg);
        fresh.observe(&alert(0, AlertKind::LoginSuccess, "new"));
        assert_eq!(
            tagger.posterior("user:eve").unwrap(),
            fresh.posterior("user:new").unwrap(),
            "post-timeout the entity restarts from the prior"
        );
        assert_eq!(tagger.entity_steps("user:eve"), Some(1), "steps restart");

        // A latched detection survives the timeout.
        let mut latched = AttackTagger::new(
            toy_training_model(),
            TaggerConfig {
                temporal: TemporalPolicy {
                    session_timeout: Some(SimDuration::from_hours(1)),
                    ..TemporalPolicy::disabled()
                },
                ..TaggerConfig::default()
            },
        );
        let mut detections = 0;
        for t in [0, 10, 20] {
            if latched
                .observe(&alert(t, AlertKind::KnownMalwareDownload, "eve"))
                .is_some()
            {
                detections += 1;
            }
        }
        assert_eq!(detections, 1);
        assert!(latched.is_detected("user:eve"));
        latched.observe(&alert(86_400, AlertKind::KnownMalwareDownload, "eve"));
        assert!(
            latched.is_detected("user:eve"),
            "latch survives session timeout"
        );
    }

    /// Gap observations: with a gap model whose attack stages favour slow
    /// tempo, the same alert pair scores hotter at a slow gap than the
    /// order-only filter scores it (Insight 3: low-and-slow is evidence).
    #[test]
    fn gap_observations_make_slow_tempo_evidence() {
        use factorgraph::timing::GapModel;
        // 2 bins: < 1h, >= 1h. Benign/recon favour fast, attack slow.
        let mut emit = Vec::new();
        for s in 0..Stage::COUNT {
            if s >= Stage::Foothold.index() {
                emit.extend([0.3, 0.7]);
            } else {
                emit.extend([0.8, 0.2]);
            }
        }
        let model =
            toy_training_model().with_gap_model(GapModel::new(Stage::COUNT, vec![3_600.0], emit));
        let cfg_gaps = TaggerConfig {
            temporal: TemporalPolicy {
                gap_observations: true,
                ..TemporalPolicy::disabled()
            },
            ..TaggerConfig::default()
        };
        let cfg_plain = TaggerConfig {
            temporal: TemporalPolicy::disabled(),
            ..TaggerConfig::default()
        };
        let attack_mass = |model: &ChainModel, cfg: &TaggerConfig, gap: u64| {
            let mut tagger = AttackTagger::new(model.clone(), cfg.clone());
            tagger.observe(&alert(0, AlertKind::DownloadSensitive, "eve"));
            tagger.observe(&alert(gap, AlertKind::CompileKernelModule, "eve"));
            let p = tagger.posterior("user:eve").unwrap();
            p[Stage::Foothold.index()..].iter().sum::<f64>()
        };
        let slow = attack_mass(&model, &cfg_gaps, 8 * 3_600);
        let fast = attack_mass(&model, &cfg_gaps, 60);
        let order_only = attack_mass(&model, &cfg_plain, 8 * 3_600);
        assert!(
            slow > order_only,
            "slow tempo adds evidence: {slow} vs {order_only}"
        );
        assert!(slow > fast, "slow beats fast under this gap model");
    }

    /// Duplicate suppression: a re-delivered `(ts, kind)` is dropped
    /// before touching the filter, so the posterior equals the
    /// single-delivery posterior and the drop is counted.
    #[test]
    fn dedup_window_absorbs_redelivered_alerts() {
        let cfg = TaggerConfig {
            temporal: TemporalPolicy {
                dedup_window: Some(SimDuration::from_mins(5)),
                ..TemporalPolicy::disabled()
            },
            ..TaggerConfig::default()
        };
        let mut deduped = AttackTagger::new(toy_training_model(), cfg.clone());
        let mut clean = AttackTagger::new(toy_training_model(), cfg.clone());
        let seq = [
            (0, AlertKind::PortScan),
            (10, AlertKind::DownloadSensitive),
            (20, AlertKind::CompileKernelModule),
        ];
        for (t, k) in seq {
            clean.observe(&alert(t, k, "eve"));
            deduped.observe(&alert(t, k, "eve"));
            // At-least-once delivery: every alert arrives twice.
            deduped.observe(&alert(t, k, "eve"));
        }
        assert_eq!(
            deduped.posterior("user:eve").unwrap(),
            clean.posterior("user:eve").unwrap(),
            "duplicates must not double-count as evidence"
        );
        assert_eq!(deduped.entity_steps("user:eve"), Some(3));
        assert_eq!(deduped.duplicates_suppressed(), 3);
        assert_eq!(clean.duplicates_suppressed(), 0);

        // Distinct alerts at the same timestamp but different kinds are
        // NOT duplicates.
        let mut t2 = AttackTagger::new(toy_training_model(), cfg);
        t2.observe(&alert(0, AlertKind::PortScan, "bob"));
        t2.observe(&alert(0, AlertKind::DownloadSensitive, "bob"));
        assert_eq!(t2.entity_steps("user:bob"), Some(2));
        assert_eq!(t2.duplicates_suppressed(), 0);
    }

    /// Default policy: no dedup window, so duplicates still fold in (the
    /// historical behaviour is preserved byte for byte).
    #[test]
    fn dedup_is_off_by_default() {
        let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        tagger.observe(&alert(0, AlertKind::PortScan, "eve"));
        tagger.observe(&alert(0, AlertKind::PortScan, "eve"));
        assert_eq!(tagger.entity_steps("user:eve"), Some(2));
        assert_eq!(tagger.duplicates_suppressed(), 0);
    }

    /// A known blackout window is a sensor outage, not attacker silence:
    /// the overlapped span is excluded from the session-timeout gap, so
    /// evidence spanning the outage survives where an undeclared gap of
    /// the same length would restart the filter.
    #[test]
    fn known_blackouts_relax_session_timeout() {
        let cfg = TaggerConfig {
            temporal: TemporalPolicy {
                session_timeout: Some(SimDuration::from_hours(24)),
                ..TemporalPolicy::disabled()
            },
            ..TaggerConfig::default()
        };
        let day = 86_400u64;
        let run = |blackouts: Vec<(SimTime, SimTime)>| {
            let mut tagger = AttackTagger::new(toy_training_model(), cfg.clone());
            tagger.set_blackouts(blackouts);
            tagger.observe(&alert(0, AlertKind::DownloadSensitive, "eve"));
            // Next alert three days later — 2.5 of which the collector
            // was provably dark.
            tagger.observe(&alert(3 * day, AlertKind::CompileKernelModule, "eve"));
            tagger.entity_steps("user:eve").unwrap()
        };
        assert_eq!(run(vec![]), 1, "undeclared 3-day gap restarts the session");
        let outage = vec![(SimTime::from_secs(day / 2), SimTime::from_secs(3 * day))];
        assert_eq!(
            run(outage),
            2,
            "gap net of the declared outage is under the timeout"
        );
    }

    /// Blackout windows are merged and overlap accounting is exact.
    #[test]
    fn blackout_windows_merge_and_overlap() {
        let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let s = SimTime::from_secs;
        tagger.set_blackouts(vec![
            (s(300), s(400)),
            (s(100), s(200)),
            (s(150), s(250)), // overlaps the second window
            (s(500), s(500)), // empty, dropped
        ]);
        assert_eq!(tagger.blackouts(), &[(s(100), s(250)), (s(300), s(400))]);
        assert_eq!(
            tagger.blackout_overlap(s(0), s(1_000)),
            SimDuration::from_secs(250)
        );
        assert_eq!(
            tagger.blackout_overlap(s(120), s(320)),
            SimDuration::from_secs(150)
        );
        assert_eq!(tagger.blackout_overlap(s(420), s(480)), SimDuration::ZERO);
    }

    #[test]
    fn reset_clears_state() {
        let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        tagger.observe(&alert(0, AlertKind::PortScan, "x"));
        assert_eq!(tagger.tracked_entities(), 1);
        tagger.reset();
        assert_eq!(tagger.tracked_entities(), 0);
    }

    /// Bounded-state mode: an endless stream of one-shot entities cannot
    /// grow the state map unboundedly (mirror of the correlator's
    /// alert-storm bound test), and eviction changes no detection.
    #[test]
    fn entity_storm_cannot_grow_state_unboundedly() {
        let temporal = TemporalPolicy {
            session_timeout: Some(SimDuration::from_hours(1)),
            ..TemporalPolicy::disabled()
        };
        let bounded_cfg = TaggerConfig {
            temporal: temporal.clone(),
            max_entities: 64,
            ..TaggerConfig::default()
        };
        let unbounded_cfg = TaggerConfig {
            temporal,
            max_entities: 0,
            ..TaggerConfig::default()
        };
        let mut bounded = AttackTagger::new(toy_training_model(), bounded_cfg);
        let mut unbounded = AttackTagger::new(toy_training_model(), unbounded_cfg);
        let mut detections = (0u32, 0u32);
        // 10k distinct entities, one alert each, 2 minutes apart — every
        // entity is dead an hour after its alert. Interleave a slow
        // malicious session so detections are exercised too.
        for i in 0..10_000u64 {
            let t = i * 120;
            let a = alert(t, AlertKind::PortScan, &format!("drive-by-{i}"));
            detections.0 += u32::from(bounded.observe(&a).is_some());
            detections.1 += u32::from(unbounded.observe(&a).is_some());
            if i % 1_000 == 0 {
                let kinds = [
                    AlertKind::DownloadSensitive,
                    AlertKind::CompileKernelModule,
                    AlertKind::LogWipe,
                ];
                let m = alert(t + 1, kinds[(i / 1_000) as usize % 3], "eve");
                detections.0 += u32::from(bounded.observe(&m).is_some());
                detections.1 += u32::from(unbounded.observe(&m).is_some());
            }
        }
        assert!(
            bounded.tracked_entities() <= 64 + 64 / 8 + 32,
            "state must stay near the budget: {}",
            bounded.tracked_entities()
        );
        assert_eq!(unbounded.tracked_entities(), 10_001, "baseline grows");
        assert!(bounded.entities_evicted() > 9_000, "eviction was active");
        assert_eq!(
            detections.0, detections.1,
            "eviction must not change detections"
        );
    }

    /// A detected entity's latch survives eviction: when the attacker
    /// returns after the idle horizon, no second detection is raised —
    /// exactly as in the unbounded tagger.
    #[test]
    fn eviction_preserves_detection_latch() {
        let cfg = TaggerConfig {
            temporal: TemporalPolicy {
                session_timeout: Some(SimDuration::from_hours(1)),
                ..TemporalPolicy::disabled()
            },
            max_entities: 4,
            ..TaggerConfig::default()
        };
        let mut tagger = AttackTagger::new(toy_training_model(), cfg);
        // Detect eve.
        let mut detections = 0;
        for (t, k) in [
            (0, AlertKind::DownloadSensitive),
            (10, AlertKind::CompileKernelModule),
            (20, AlertKind::LogWipe),
        ] {
            detections += u32::from(tagger.observe(&alert(t, k, "eve")).is_some());
        }
        assert_eq!(detections, 1);
        // A day of unrelated one-shot entities forces eve out.
        for i in 0..64u64 {
            tagger.observe(&alert(
                86_400 + i * 3_600,
                AlertKind::PortScan,
                &format!("bg-{i}"),
            ));
        }
        assert!(
            tagger.posterior("user:eve").is_none(),
            "eve's filter state was evicted"
        );
        assert!(
            tagger.is_detected("user:eve"),
            "the latch survives in the side set"
        );
        assert!(tagger
            .detected_entities(&SymScope::global())
            .any(|k| k == "user:eve"));
        // Eve returns with the same kill chain: latched, so no re-count.
        let t0 = 86_400 * 3;
        for (dt, k) in [
            (0, AlertKind::DownloadSensitive),
            (10, AlertKind::CompileKernelModule),
            (20, AlertKind::LogWipe),
        ] {
            assert!(
                tagger.observe(&alert(t0 + dt, k, "eve")).is_none(),
                "re-arrival must not re-detect"
            );
        }
        assert_eq!(tagger.evicted_latched_entities(), 0, "latch moved back");
        assert!(tagger.is_detected("user:eve"));
    }

    /// Without a session timeout nothing is provably dead: the bound is
    /// inert and the historical track-everything behaviour is preserved.
    #[test]
    fn bound_is_inert_without_session_timeout() {
        let cfg = TaggerConfig {
            temporal: TemporalPolicy::disabled(),
            max_entities: 8,
            ..TaggerConfig::default()
        };
        let mut tagger = AttackTagger::new(toy_training_model(), cfg);
        for i in 0..100u64 {
            tagger.observe(&alert(i * 3_600, AlertKind::PortScan, &format!("u{i}")));
        }
        assert_eq!(tagger.tracked_entities(), 100);
        assert_eq!(tagger.entities_evicted(), 0);
    }

    /// Snapshot round-trip: export → import into a fresh tagger → replay
    /// the tail yields exactly the uninterrupted posteriors, latches and
    /// counters.
    #[test]
    fn state_snapshot_round_trips() {
        let cfg = TaggerConfig {
            temporal: TemporalPolicy {
                dedup_window: Some(SimDuration::from_mins(5)),
                ..TemporalPolicy::default()
            },
            max_entities: 16,
            ..TaggerConfig::default()
        };
        let head = [
            (0, AlertKind::PortScan, "eve"),
            (10, AlertKind::DownloadSensitive, "eve"),
            (20, AlertKind::LoginSuccess, "alice"),
            (20, AlertKind::LoginSuccess, "alice"), // duplicate
        ];
        let tail = [
            (30, AlertKind::CompileKernelModule, "eve"),
            (40, AlertKind::LogWipe, "eve"),
            (50, AlertKind::LoginSuccess, "alice"),
        ];
        // Uninterrupted run.
        let mut whole = AttackTagger::new(toy_training_model(), cfg.clone());
        let mut whole_detections = Vec::new();
        for (t, k, u) in head.iter().chain(tail.iter()) {
            whole_detections.extend(whole.observe(&alert(*t, *k, u)));
        }
        // Interrupted run: head → snapshot → fresh tagger → tail. The
        // concatenation of both segments' detections must equal the
        // uninterrupted run's.
        let mut pre = AttackTagger::new(toy_training_model(), cfg.clone());
        let mut stitched_detections = Vec::new();
        for (t, k, u) in head {
            stitched_detections.extend(pre.observe(&alert(t, k, u)));
        }
        let snap = pre.export_state();
        assert_eq!(snap.entities.len(), 2);
        assert_eq!(snap.duplicates_suppressed, 1);
        let global = simnet::intern::SymScope::global();
        let syms = SymMap::replay(&global, &global.snapshot());
        let mut post = AttackTagger::new(toy_training_model(), cfg);
        post.import_state(&snap, &syms)
            .expect("exported snapshot restores");
        for (t, k, u) in tail {
            stitched_detections.extend(post.observe(&alert(t, k, u)));
        }
        assert_eq!(whole_detections, stitched_detections, "detections drift");
        assert_eq!(
            whole.posterior("user:eve").unwrap(),
            post.posterior("user:eve").unwrap(),
            "posterior drift"
        );
        assert_eq!(whole.duplicates_suppressed(), post.duplicates_suppressed());
        // Export of the restored tagger equals export of the original.
        assert_eq!(whole.export_state(), post.export_state());

        // Malformed variants of the snapshot are refused with the field
        // named, and leave the restoring tagger untouched.
        type Mutation = fn(&mut TaggerSnapshot);
        let cases: [(&str, Mutation); 4] = [
            ("tagger.entities[1].entity: kind 7", |s| {
                s.entities[1].entity.kind = 7
            }),
            ("tagger.entities[1].entity: user", |s| {
                s.entities[1].entity = SnapKey {
                    kind: SnapKey::USER,
                    id: u32::MAX,
                }
            }),
            ("tagger.entities[0].recent_head", |s| {
                s.entities[0].recent_head = DEDUP_SLOTS as u8
            }),
            ("tagger.evicted_latches[0]", |s| {
                s.evicted_latches.push(SnapKey {
                    kind: SnapKey::SOURCE,
                    id: 0,
                })
            }),
        ];
        let before = post.export_state();
        for (field, mutate) in cases {
            let mut bad = snap.clone();
            mutate(&mut bad);
            let err = post.import_state(&bad, &syms).expect_err(field);
            assert!(err.starts_with(field), "{field}: {err}");
            assert_eq!(post.export_state(), before, "{field}: state changed");
        }
    }

    #[test]
    fn ground_truth_hooks_mirror_detections() {
        let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        for (t, k) in [
            (0, AlertKind::DownloadSensitive),
            (10, AlertKind::CompileKernelModule),
            (20, AlertKind::LogWipe),
        ] {
            tagger.observe(&alert(t, k, "eve"));
        }
        tagger.observe(&alert(0, AlertKind::LoginSuccess, "alice"));
        assert!(tagger.is_detected("user:eve"));
        assert!(!tagger.is_detected("user:alice"));
        assert!(!tagger.is_detected("user:nobody"));
        let detected: Vec<EntityKey> = tagger.detected_entities(&SymScope::global()).collect();
        assert_eq!(detected, ["user:eve"]);
        assert_eq!(tagger.entity_steps("user:eve"), Some(3));
        assert_eq!(tagger.entity_steps("user:alice"), Some(1));
        assert_eq!(tagger.entity_steps("user:nobody"), None);
    }
}
