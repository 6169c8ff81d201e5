//! Cross-entity campaign correlation.
//!
//! The per-entity tagger scores each user or address in isolation, so a
//! lateral-split session — recon on hop A, damage from hop B — presents
//! each hop with only a fragment of the kill chain. The residual misses at
//! every dilation in BENCH_5 are exactly these: hop B sees one alert
//! before damage and one alert is rarely enough to cross the decision
//! threshold on its own.
//!
//! [`CampaignCorrelator`] is the layer between per-entity inference and
//! response that stitches those fragments back together. It maintains a
//! bounded, allocation-free-in-steady-state graph of entity↔entity links
//! formed through compact join keys observed on the alert stream:
//!
//! - **shared victim** — two entities whose alerts target the same
//!   destination address;
//! - **shared source endpoint** — two entities whose alerts originate
//!   from the same address (a common C2 or staging host);
//! - **shared host** — two entities observed on the same monitored host;
//! - **shared exec palette** — two entities running the same interned
//!   cmdline / dropped binary / `COPY FROM PROGRAM` payload.
//!
//! A link only forms inside the policy's temporal adjacency window, and
//! only when the *anchoring* side has accumulated real attack mass —
//! benign traffic brushing a victim does not seed campaigns. Linked
//! entities are unioned into **campaigns**; each campaign tracks a decayed
//! support level (the strongest attack mass among its members, with the
//! same half-life semantics as [`TemporalPolicy`] evidence decay). When a
//! member's own posterior is suggestive but sub-threshold, the campaign
//! support is fused in:
//!
//! ```text
//! fused = 1 − (1 − own) · (1 − coupling · support)
//! ```
//!
//! i.e. evidence from hop A raises hop B's effective prior, so hop B's
//! *first* alert can cross the threshold pre-damage. A fused crossing is
//! *promoted* into an ordinary [`Detection`] (stage [`Stage::Lateral`],
//! score = fused posterior) and flows through the normal response path.
//!
//! Posterior fusion alone cannot recover every split: when the chain is
//! cut so that each hop holds only weak fragments (hop A peaks at 0.6,
//! hop B's pre-damage alert scores 0.1), no product of the two crosses
//! 0.8 even though the *concatenated* step sequence is exactly the
//! unsplit kill chain the tagger preempts reliably. The correlator
//! therefore also performs **sequence stitching**: each entity keeps a
//! bounded ring of its recent suggestive steps `(ts, kind)`, and when a
//! campaign member's fused posterior falls short, the members' rings are
//! merged in timestamp order and re-scored with the *same* chain model
//! the tagger runs (forward filter with gap observations and evidence
//! decay). If the stitched campaign sequence crosses the threshold the
//! member is promoted — the campaign as a whole walked the kill chain,
//! even though no single entity did.
//!
//! State is bounded on every axis (entities, join keys, per-campaign link
//! provenance) with idle-first eviction reusing [`TemporalPolicy`]
//! session-timeout semantics, so an adversarial many-entity alert storm
//! cannot grow memory without bound.

use serde::{Deserialize, Serialize};
use simnet::intern::SymMap;
use simnet::rng::{FxHashMap, FxHashSet};
use simnet::time::{SimDuration, SimTime};

use alertlib::alert::{Alert, EntityId, EntityKey, SnapKey};
use alertlib::message::MessageSpec;
use factorgraph::chain::ChainModel;
use factorgraph::timing::GAP_NONE;

use crate::attack_tagger::{
    decay_factor, ring_head, snapshot_key, AttackTagger, Detection, TaggerConfig, TaggerSnapshot,
    TemporalPolicy,
};
use crate::stage::Stage;

/// Opt-in cross-entity correlation policy (carried on
/// [`TaggerConfig::correlation`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationPolicy {
    /// Decayed attack mass an entity needs before it *anchors* links:
    /// cold entities never seed a campaign through a shared join key.
    pub anchor_min_score: f64,
    /// Attack mass an alert needs for its entity to *join* an anchored
    /// campaign through the high-specificity keys (shared victim, shared
    /// source endpoint) and to be eligible for promotion. Keeps benign
    /// traffic that merely shares a victim with an attack out of the
    /// campaign.
    pub join_min_score: f64,
    /// Attack mass required to link through the *low-specificity* keys
    /// (shared host, shared cmdline palette). These recur heavily across
    /// unrelated entities in a busy fleet — thousands of users share hosts
    /// and command palettes — so joining through them demands anchor-level
    /// evidence of the entity's own.
    pub weak_join_min_score: f64,
    /// Attack mass above which an alert is recorded into its entity's
    /// step ring (the entity's fragment of the campaign sequence), links
    /// through the high-specificity keys, and is eligible for
    /// sequence-stitched promotion. This is the "suggestive at all" floor
    /// — keep it at or below [`CorrelationPolicy::join_min_score`].
    pub sequence_min_score: f64,
    /// Attack mass above which an alert leaves a *trace* on the
    /// high-specificity join keys (victim / source rings) without
    /// anchoring anything — so a later suggestive entity touching the
    /// same key can link back to it. This is what recovers splits whose
    /// recon hop never scores: a VulnScan→SqlI fragment peaks well below
    /// any anchor floor, but its trace on the victim lets the exfil hop's
    /// first alert pull it into a campaign and re-score the stitched
    /// sequence. Keep it low; the trace itself grants nothing but
    /// linkability.
    pub trace_min_score: f64,
    /// Maximum time between two entities' alerts on the same join key for
    /// a link to form.
    pub adjacency_window: SimDuration,
    /// Strength of the cross-entity prior boost in the fused posterior.
    pub coupling: f64,
    /// Fused posterior mass required to promote a campaign-level
    /// detection (mirrors the tagger decision threshold).
    pub threshold: f64,
    /// Half-life of campaign support and per-entity peak mass — the
    /// [`TemporalPolicy::decay_half_life`] semantics applied to
    /// cross-entity evidence: `λ = 2^(−gap/half_life)`. `None` disables
    /// decay.
    pub decay_half_life: Option<SimDuration>,
    /// Idle gap after which an entity node is eligible for eviction — the
    /// [`TemporalPolicy::session_timeout`] semantics applied to the
    /// correlation graph. `None` keeps nodes until budget pressure.
    pub idle_timeout: Option<SimDuration>,
    /// Entity node budget; on pressure, idle-expired then oldest nodes
    /// are evicted in deterministic `(last_ts, id)` order.
    pub max_entities: usize,
    /// Join-key budget (victim / source / host / palette rings).
    pub max_join_keys: usize,
    /// Per-campaign link provenance budget (links beyond it still merge
    /// campaigns; only the provenance record is dropped).
    pub max_links_per_campaign: usize,
}

impl Default for CorrelationPolicy {
    fn default() -> Self {
        let temporal = TemporalPolicy::default();
        CorrelationPolicy {
            anchor_min_score: 0.5,
            join_min_score: 0.15,
            weak_join_min_score: 0.5,
            sequence_min_score: 0.05,
            trace_min_score: 0.005,
            adjacency_window: SimDuration::from_hours(48),
            coupling: 0.85,
            threshold: 0.8,
            decay_half_life: temporal.decay_half_life,
            idle_timeout: temporal.session_timeout,
            max_entities: 65_536,
            max_join_keys: 65_536,
            max_links_per_campaign: 64,
        }
    }
}

/// The kind of join key a link formed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LinkKind {
    /// Shared destination (victim) address.
    Victim,
    /// Shared source / C2 endpoint address.
    Source,
    /// Shared monitored host.
    Host,
    /// Shared interned cmdline / payload symbol.
    Palette,
}

impl LinkKind {
    pub fn as_str(self) -> &'static str {
        match self {
            LinkKind::Victim => "victim",
            LinkKind::Source => "source",
            LinkKind::Host => "host",
            LinkKind::Palette => "palette",
        }
    }
}

/// One recorded entity↔entity link (provenance, endpoint ids normalized
/// so `a < b`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct CampaignLink {
    ts: SimTime,
    a: EntityId,
    b: EntityId,
    kind: LinkKind,
}

/// A campaign link rendered for reports and snapshots: canonical entity
/// keys plus the join-key kind that formed it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSummary {
    pub ts: SimTime,
    pub a: EntityKey,
    pub b: EntityKey,
    pub kind: LinkKind,
}

/// A campaign rendered for reports: stable id, sorted member entity keys,
/// link provenance, and detection counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Correlator-assigned campaign id (stable across executors — the
    /// correlator consumes the merged outcome stream in stream order).
    pub id: u32,
    /// Canonical member entity keys (`user:…` / `addr:…`), sorted.
    pub members: Vec<EntityKey>,
    /// Link provenance, bounded by
    /// [`CorrelationPolicy::max_links_per_campaign`].
    pub links: Vec<LinkSummary>,
    /// Detections promoted by campaign fusion.
    pub promotions: u32,
    /// Total detections among members (tagger-raised + promoted).
    pub detections: u32,
}

/// One entity node rendered for snapshots. Process-independent on
/// purpose: entities are [`SnapKey`]s, never raw ids — raw ids embed
/// interner-local sym ids that do not survive a restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelatorEntitySnapshot {
    pub entity: SnapKey,
    /// Campaign slot id, or `u32::MAX` when uncorrelated.
    pub campaign: u32,
    /// Decayed peak attack mass.
    pub mass: f64,
    /// Timestamp of the entity's last observed alert.
    pub last_ts: SimTime,
    /// Alerts observed (promotion `alert_index` base).
    pub seen: u32,
    /// Surfaced-detection latch.
    pub promoted: bool,
    /// The full step ring in slot order (`u16::MAX` kind = empty slot).
    pub steps: Vec<(SimTime, u16)>,
    /// Rotation head of the step ring.
    pub steps_head: u8,
}

/// One join-key recency ring rendered for snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinKeySnapshot {
    pub kind: LinkKind,
    /// Address / host-id payload, or for a palette key the payload's
    /// position in the snapshot's symbol universe.
    pub id: u32,
    /// Ring slots in slot order: `(entity, ts)`.
    pub slots: Vec<Option<(SnapKey, SimTime)>>,
    /// Rotation head.
    pub head: u8,
}

/// One campaign rendered for snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSnapshot {
    pub id: u32,
    /// Members in *insertion order* — stitched replay folds a bounded
    /// member prefix, so order is behaviour-bearing (unlike the sorted
    /// members of [`CampaignSummary`]).
    pub members: Vec<SnapKey>,
    /// Link provenance.
    pub links: Vec<LinkSnapshot>,
    /// Support anchor: strongest member, or `None` when support is
    /// anonymous (post-merge runner-up mass) or empty.
    pub best_key: Option<SnapKey>,
    /// Decayed mass of the support anchor.
    pub best_mass: f64,
    /// Second-strongest decayed mass.
    pub second: f64,
    /// Timestamp the support masses were last decayed to.
    pub support_ts: SimTime,
    pub promotions: u32,
    pub detections: u32,
}

/// One campaign link rendered for snapshots: [`LinkSummary`] with
/// [`SnapKey`] endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSnapshot {
    pub ts: SimTime,
    pub a: SnapKey,
    pub b: SnapKey,
    pub kind: LinkKind,
}

/// Full correlator state rendered for snapshots — everything
/// [`CampaignCorrelator::import_state`] needs to resume mid-stream with
/// byte-identical downstream detections. Policy, chain model, and
/// decision stages are configuration, not state, and are reconstructed
/// from config on restore.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CorrelatorSnapshot {
    /// Entity nodes, sorted by key (canonical order; the graph itself is
    /// insertion-order independent).
    pub entities: Vec<CorrelatorEntitySnapshot>,
    /// Join-key rings, sorted by `(kind, id)`.
    pub keys: Vec<JoinKeySnapshot>,
    /// Campaigns, sorted by id.
    pub campaigns: Vec<CampaignSnapshot>,
    /// Evicted entities holding a surfaced-detection latch, sorted.
    pub promoted_latches: Vec<SnapKey>,
    pub next_campaign: u32,
    pub promotions: u64,
    pub tagger_confirmations: u64,
    pub entities_evicted: u64,
}

/// Sentinel: entity not yet part of any campaign.
const NO_CAMPAIGN: u32 = u32::MAX;

/// Sentinel raw id for anonymous campaign support (runner-up mass whose
/// attribution was lost in a merge). `u64::MAX` itself marks "no support
/// yet"; both sit far above any real `tag | payload` entity encoding.
const ANON_SUPPORT: u64 = u64::MAX - 1;

/// Slots per join-key recency ring.
const RING: usize = 8;

/// Slots per entity step-history ring (sequence stitching).
const SEQ_RING: usize = 12;

/// Sentinel kind index marking an empty step slot (no alert kind reaches
/// `u16::MAX`).
const STEP_EMPTY: u16 = u16::MAX;

/// Campaign members folded into one stitched replay — a deterministic
/// insertion-order prefix that bounds replay cost on merged
/// mega-campaigns.
const SEQ_MEMBERS: usize = 32;

/// Join-key tag bits (payload is a 32-bit address/host/symbol id).
const JK_VICTIM: u64 = 1 << 32;
const JK_SOURCE: u64 = 2 << 32;
const JK_HOST: u64 = 3 << 32;
const JK_PALETTE: u64 = 4 << 32;

/// Per-entity node in the correlation graph. `Copy` on purpose: inserting
/// a node never allocates beyond amortized map growth.
#[derive(Debug, Clone, Copy)]
struct EntityNode {
    /// Campaign slot, or [`NO_CAMPAIGN`].
    campaign: u32,
    /// Decayed peak attack mass (half-life = policy decay).
    mass: f64,
    /// Timestamp of the entity's last observed alert.
    last_ts: SimTime,
    /// Alerts observed for this entity (promotion `alert_index`).
    seen: u32,
    /// Whether this entity has already surfaced a detection — its own or
    /// a promoted one. Latched; suppresses double notification.
    promoted: bool,
    /// Recent suggestive steps `(ts, kind index)` — the entity's fragment
    /// of the campaign sequence, merged across members for stitched
    /// replay. [`STEP_EMPTY`] kind marks an unused slot.
    steps: [(SimTime, u16); SEQ_RING],
    steps_head: u8,
}

/// Bounded recency ring of anchoring entities for one join key.
#[derive(Debug, Clone, Copy, Default)]
struct KeyRing {
    slots: [Option<(EntityId, SimTime)>; RING],
    head: u8,
}

impl KeyRing {
    fn newest_ts(&self) -> SimTime {
        self.slots
            .iter()
            .flatten()
            .map(|&(_, ts)| ts)
            .max()
            .unwrap_or(SimTime::EPOCH)
    }

    /// Remember `(id, ts)`: refresh the entity's existing slot if present,
    /// otherwise overwrite the rotation head.
    fn insert(&mut self, id: EntityId, ts: SimTime) {
        for (sid, sts) in self.slots.iter_mut().flatten() {
            if *sid == id {
                if ts > *sts {
                    *sts = ts;
                }
                return;
            }
        }
        self.slots[self.head as usize] = Some((id, ts));
        self.head = (self.head + 1) % RING as u8;
    }
}

/// Per-campaign state: membership, decayed support, link provenance.
#[derive(Debug, Clone)]
struct CampaignState {
    members: Vec<EntityId>,
    links: Vec<CampaignLink>,
    /// Strongest member `(raw id, decayed mass)` — the support anchor.
    best: (u64, f64),
    /// Second-strongest mass, so a member never supports itself.
    second: f64,
    /// Timestamp the support masses were last decayed to.
    support_ts: SimTime,
    promotions: u32,
    detections: u32,
}

impl CampaignState {
    fn new(ts: SimTime, link_cap: usize) -> CampaignState {
        CampaignState {
            members: Vec::with_capacity(4),
            links: Vec::with_capacity(link_cap.min(8)),
            best: (u64::MAX, 0.0),
            second: 0.0,
            support_ts: ts,
            promotions: 0,
            detections: 0,
        }
    }

    /// Decay support toward zero with the policy half-life (evidence-decay
    /// semantics of [`TemporalPolicy`], applied to campaign support).
    fn decay_to(&mut self, ts: SimTime, half_life: Option<SimDuration>) {
        if let Some(lambda) = decay_factor(ts.saturating_since(self.support_ts), half_life) {
            self.best.1 *= lambda;
            self.second *= lambda;
        }
        if ts > self.support_ts {
            self.support_ts = ts;
        }
    }

    /// Fold one member's current mass into the top-2 support tracker.
    fn update_support(&mut self, raw_id: u64, mass: f64) {
        if self.best.0 == raw_id {
            if mass > self.best.1 {
                self.best.1 = mass;
            }
        } else if mass > self.best.1 {
            self.second = self.best.1;
            self.best = (raw_id, mass);
        } else if mass > self.second {
            self.second = mass;
        }
    }

    /// Campaign support as seen by `raw_id`: the strongest *other*
    /// member's decayed mass.
    fn support_for(&self, raw_id: u64) -> f64 {
        if self.best.0 == raw_id {
            self.second
        } else {
            self.best.1
        }
    }

    /// Record `link` unless the provenance is full or already holds it.
    /// The cap is checked first: a saturated mega-campaign sees several
    /// candidate links per alert, and each would otherwise rescan it.
    fn record_link(&mut self, link: CampaignLink, cap: usize) {
        if self.links.len() >= cap {
            return;
        }
        let dup = self
            .links
            .iter()
            .any(|l| l.a == link.a && l.b == link.b && l.kind == link.kind);
        if !dup {
            self.links.push(link);
        }
    }
}

/// The cross-entity campaign correlator (see module docs).
///
/// Consumes the detector's outcome stream *in stream order* — executors
/// run it over the merged, order-restored outcome sequence, which is what
/// makes its output byte-identical across inline / threaded / sharded
/// drivers.
#[derive(Debug, Clone)]
pub struct CampaignCorrelator {
    policy: CorrelationPolicy,
    /// The scope entity-key symbols resolve against in reports and
    /// default snapshots — global unless [`set_scope`] rebinds a
    /// tenant-scoped pipeline's correlator.
    ///
    /// [`set_scope`]: CampaignCorrelator::set_scope
    scope: simnet::intern::SymScope,
    /// The tagger's inference, when attached — enables stitched
    /// sequence re-scoring of merged campaign step rings. Without it the
    /// correlator falls back to posterior fusion alone.
    replay: Option<Replay>,
    entities: FxHashMap<EntityId, EntityNode>,
    keys: FxHashMap<u64, KeyRing>,
    campaigns: FxHashMap<u32, CampaignState>,
    next_campaign: u32,
    promotions: u64,
    tagger_confirmations: u64,
    /// Surfaced-detection latches of *evicted* entities. Eviction frees a
    /// node's graph state, but the fact that the entity has already been
    /// surfaced must survive it: a re-arriving promoted entity that walks
    /// the kill chain again would otherwise surface a second detection
    /// and double-count in the stream report, where the unbounded
    /// correlator counts a confirmation.
    promoted_latches: FxHashSet<EntityId>,
    /// Entity nodes evicted so far (idle/budget sweeps).
    entities_evicted: u64,
    /// Scratch for deterministic eviction sweeps (reused, no steady-state
    /// allocation).
    evict_scratch: Vec<(SimTime, u64)>,
    /// Scratch for stitched replay: merged `(ts, entity, kind)` steps
    /// (reused).
    seq_scratch: Vec<(SimTime, u64, u16)>,
}

impl CampaignCorrelator {
    pub fn new(policy: CorrelationPolicy) -> CampaignCorrelator {
        CampaignCorrelator {
            policy,
            scope: simnet::intern::SymScope::global(),
            replay: None,
            entities: FxHashMap::default(),
            keys: FxHashMap::default(),
            campaigns: FxHashMap::default(),
            next_campaign: 0,
            promotions: 0,
            tagger_confirmations: 0,
            promoted_latches: FxHashSet::default(),
            entities_evicted: 0,
            evict_scratch: Vec::new(),
            seq_scratch: Vec::new(),
        }
    }

    /// A correlator that can stitch: attach `tagger`'s chain model,
    /// decision stages, temporal policy and declared blackouts, so merged
    /// campaign sequences are re-scored with the exact inference the
    /// per-entity tagger runs. Build it after the tagger's temporal policy
    /// and blackouts are set: the correlator keeps copies.
    pub fn with_tagger(policy: CorrelationPolicy, tagger: &AttackTagger) -> CampaignCorrelator {
        let mut c = CampaignCorrelator::new(policy);
        c.replay = Some(Replay {
            model: tagger.model().clone(),
            decision_stages: tagger.config().decision_stages.clone(),
            temporal: tagger.config().temporal.clone(),
            blackouts: tagger.blackouts().to_vec(),
        });
        c
    }

    pub fn policy(&self) -> &CorrelationPolicy {
        &self.policy
    }

    /// Bind the scope this correlator's alerts are minted in. Report
    /// rendering ([`summaries`](Self::summaries) and friends) and the
    /// no-arg snapshot pair resolve entity keys against it; the default
    /// is the global scope, so only tenant pipelines need to call this.
    pub fn set_scope(&mut self, scope: simnet::intern::SymScope) {
        self.scope = scope;
    }

    /// The scope report rendering resolves against.
    pub fn scope(&self) -> &simnet::intern::SymScope {
        &self.scope
    }

    /// Detections promoted by campaign fusion so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Tagger detections suppressed because the entity had already been
    /// surfaced by a promotion (the tagger independently confirmed).
    pub fn tagger_confirmations(&self) -> u64 {
        self.tagger_confirmations
    }

    /// Entity nodes currently tracked.
    pub fn tracked_entities(&self) -> usize {
        self.entities.len()
    }

    /// Join-key rings currently tracked.
    pub fn tracked_join_keys(&self) -> usize {
        self.keys.len()
    }

    /// Live campaigns (≥ 2 members by construction).
    pub fn campaign_count(&self) -> usize {
        self.campaigns.len()
    }

    /// Total recorded link provenance across live campaigns.
    pub fn link_count(&self) -> usize {
        self.campaigns.values().map(|c| c.links.len()).sum()
    }

    /// The campaign an entity currently belongs to, if any.
    pub fn campaign_of(&self, id: EntityId) -> Option<u32> {
        self.entities
            .get(&id)
            .map(|n| n.campaign)
            .filter(|&c| c != NO_CAMPAIGN)
    }

    /// Entity nodes evicted so far (idle/budget sweeps).
    pub fn entities_evicted(&self) -> u64 {
        self.entities_evicted
    }

    /// Evicted entities whose surfaced-detection latch is being held
    /// outside the graph (memory-bound side set, cleared on re-arrival).
    pub fn promoted_latched_entities(&self) -> usize {
        self.promoted_latches.len()
    }

    /// Observe one detector outcome in stream order. `attack_score` is the
    /// entity's post-observe posterior mass over the decision stages;
    /// `detection` is the tagger's verdict for this alert, which the
    /// correlator may *promote* (None → fused detection) or *suppress*
    /// (a tagger detection on an entity already surfaced by promotion).
    pub fn observe(&mut self, alert: &Alert, attack_score: f64, detection: &mut Option<Detection>) {
        let ts = alert.ts;
        let id = alert.entity.id();

        // Node upkeep (budget-pressure eviction before a fresh insert).
        if self.entities.len() >= self.policy.max_entities && !self.entities.contains_key(&id) {
            self.evict_entities(ts);
        }
        let half_life = self.policy.decay_half_life;
        // A re-arriving evicted entity restarts with a fresh node but
        // keeps its surfaced-detection latch (see `promoted_latches`).
        let latched = !self.promoted_latches.is_empty() && self.promoted_latches.remove(&id);
        let node = self.entities.entry(id).or_insert_with(|| EntityNode {
            campaign: NO_CAMPAIGN,
            mass: 0.0,
            last_ts: ts,
            seen: 0,
            promoted: latched,
            steps: [(SimTime::EPOCH, STEP_EMPTY); SEQ_RING],
            steps_head: 0,
        });
        // Decay never raises a mass, so a score above the stored mass wins
        // either way: skip the decay factor.
        if attack_score > node.mass {
            node.mass = attack_score;
        } else {
            if let Some(lambda) = decay_factor(ts.saturating_since(node.last_ts), half_life) {
                node.mass *= lambda;
            }
            if attack_score > node.mass {
                node.mass = attack_score;
            }
        }
        node.last_ts = ts;
        node.seen += 1;
        // Every alert becomes a step in the entity's sequence fragment —
        // including low-posterior ones: the opening moves of a kill chain
        // score low on their own, and stitched replay must see them to
        // reproduce what an unsplit entity's filter would have seen.
        // Benign members' steps only dilute a stitched posterior, which
        // errs against promotion.
        node.steps[node.steps_head as usize] = (ts, alert.kind.index() as u16);
        node.steps_head = (node.steps_head + 1) % SEQ_RING as u8;
        // The rest of the call reads and updates only these fields; the
        // node itself stays in the map, where stitched replay reads its
        // step ring.
        let (mass, seen) = (node.mass, node.seen);
        let (entry_campaign, entry_promoted) = (node.campaign, node.promoted);
        let (mut campaign, mut promoted) = (entry_campaign, entry_promoted);

        // Link formation through the alert's join keys. On the
        // high-specificity keys (shared victim, shared source endpoint) an
        // entity *occupies* a ring slot as soon as its alert clears the
        // low trace floor — linkable-back-to, nothing more — and links
        // into occupants when this alert clears the join floor. The
        // low-specificity keys (host, palette) recur across thousands of
        // unrelated entities, so both sides demand real mass there:
        // anchor-level to occupy, the weak-join floor to link.
        let anchors = mass >= self.policy.anchor_min_score || detection.is_some();
        let mut candidates: [Option<(EntityId, LinkKind)>; 4 * RING] = [None; 4 * RING];
        let mut n_cand = 0;
        for (key, kind) in join_keys(alert).into_iter().flatten() {
            let strong = matches!(kind, LinkKind::Victim | LinkKind::Source);
            let join_floor = if strong {
                self.policy
                    .join_min_score
                    .min(self.policy.sequence_min_score)
            } else {
                self.policy.weak_join_min_score
            };
            let joins = attack_score >= join_floor || detection.is_some();
            let occupies = if strong {
                attack_score >= self.policy.trace_min_score || anchors
            } else {
                anchors
            };
            let ring = if occupies {
                if self.keys.len() >= self.policy.max_join_keys && !self.keys.contains_key(&key) {
                    self.evict_keys(ts);
                }
                self.keys.entry(key).or_default()
            } else {
                match self.keys.get_mut(&key) {
                    Some(ring) => ring,
                    None => continue, // nothing to join, nothing to occupy
                }
            };
            if joins {
                for &(other, ots) in ring.slots.iter().flatten() {
                    let gap = if ots > ts {
                        ots.saturating_since(ts)
                    } else {
                        ts.saturating_since(ots)
                    };
                    if other != id && gap <= self.policy.adjacency_window {
                        candidates[n_cand] = Some((other, kind));
                        n_cand += 1;
                    }
                }
            }
            if occupies {
                ring.insert(id, ts);
            }
        }
        for (other, kind) in candidates.into_iter().flatten() {
            campaign = self.link(id, campaign, other, kind, ts);
        }

        // Campaign fusion: fold this member's mass into the support
        // tracker, then either account a tagger detection or try to
        // promote a sub-threshold posterior — first with cross-entity
        // posterior fusion, then (when that falls short and a chain model
        // is attached) by re-scoring the stitched campaign sequence.
        if campaign != NO_CAMPAIGN {
            let c = self
                .campaigns
                .get_mut(&campaign)
                .expect("campaign slot for member");
            c.decay_to(ts, half_life);
            c.update_support(id.raw(), mass);
            if detection.is_some() {
                if promoted {
                    self.tagger_confirmations += 1;
                    *detection = None;
                } else {
                    promoted = true;
                    c.detections += 1;
                }
            } else if !promoted && attack_score >= self.policy.sequence_min_score {
                let support = c.support_for(id.raw());
                let mut fused = if attack_score >= self.policy.join_min_score {
                    1.0 - (1.0 - attack_score) * (1.0 - self.policy.coupling * support)
                } else {
                    0.0
                };
                if fused < self.policy.threshold {
                    if let Some(replay) = self.replay.as_ref() {
                        let stitched = stitched_sequence_score(
                            replay,
                            &self.policy,
                            &self.entities,
                            &c.members,
                            ts,
                            &mut self.seq_scratch,
                        );
                        fused = fused.max(stitched);
                    }
                }
                if fused >= self.policy.threshold {
                    *detection = Some(Detection {
                        ts,
                        alert_index: seen as usize - 1,
                        trigger: alert.kind,
                        score: fused,
                        stage: Stage::Lateral,
                    });
                    promoted = true;
                    c.promotions += 1;
                    c.detections += 1;
                    self.promotions += 1;
                }
            }
        } else if detection.is_some() {
            if promoted {
                self.tagger_confirmations += 1;
                *detection = None;
            } else {
                promoted = true;
            }
        }

        if (campaign, promoted) != (entry_campaign, entry_promoted) {
            let node = self.entities.get_mut(&id).expect("observed node");
            node.campaign = campaign;
            node.promoted = promoted;
        }
    }

    /// Union `id` (currently in `campaign`) with `other`; `id`'s node
    /// exists. Returns `id`'s campaign after the union.
    fn link(
        &mut self,
        id: EntityId,
        campaign: u32,
        other: EntityId,
        kind: LinkKind,
        ts: SimTime,
    ) -> u32 {
        let Some(&EntityNode {
            campaign: other_campaign,
            mass: other_mass,
            promoted: other_promoted,
            ..
        }) = self.entities.get(&other)
        else {
            return campaign; // anchor evicted between ring hit and now
        };
        let link_cap = self.policy.max_links_per_campaign;
        let (a, b) = if id.raw() <= other.raw() {
            (id, other)
        } else {
            (other, id)
        };
        let link = CampaignLink { ts, a, b, kind };
        let target = match (campaign, other_campaign) {
            (NO_CAMPAIGN, NO_CAMPAIGN) => {
                let cid = self.next_campaign;
                self.next_campaign += 1;
                let mut c = CampaignState::new(ts, link_cap);
                c.members.push(id);
                c.members.push(other);
                c.update_support(other.raw(), other_mass);
                if other_promoted {
                    c.detections += 1;
                }
                self.campaigns.insert(cid, c);
                self.entities.get_mut(&other).expect("other node").campaign = cid;
                cid
            }
            (NO_CAMPAIGN, cid) => {
                let c = self.campaigns.get_mut(&cid).expect("campaign slot");
                c.members.push(id);
                cid
            }
            (cid, NO_CAMPAIGN) => {
                let c = self.campaigns.get_mut(&cid).expect("campaign slot");
                c.members.push(other);
                c.update_support(other.raw(), other_mass);
                if other_promoted {
                    c.detections += 1;
                }
                self.entities.get_mut(&other).expect("other node").campaign = cid;
                cid
            }
            (x, y) if x == y => x,
            (x, y) => self.merge_campaigns(x, y, ts),
        };
        let c = self.campaigns.get_mut(&target).expect("campaign slot");
        c.record_link(link, link_cap);
        target
    }

    /// Merge the smaller campaign into the larger; returns the surviving
    /// id.
    fn merge_campaigns(&mut self, x: u32, y: u32, ts: SimTime) -> u32 {
        let (keep, drop) = {
            let cx = self.campaigns.get(&x).expect("campaign x").members.len();
            let cy = self.campaigns.get(&y).expect("campaign y").members.len();
            if cx >= cy {
                (x, y)
            } else {
                (y, x)
            }
        };
        let mut dropped = self.campaigns.remove(&drop).expect("dropped campaign");
        let half_life = self.policy.decay_half_life;
        let link_cap = self.policy.max_links_per_campaign;
        dropped.decay_to(ts, half_life);
        for &m in &dropped.members {
            if let Some(n) = self.entities.get_mut(&m) {
                n.campaign = keep;
            }
        }
        let c = self.campaigns.get_mut(&keep).expect("kept campaign");
        c.decay_to(ts, half_life);
        c.members.extend_from_slice(&dropped.members);
        let (bid, bmass) = dropped.best;
        if bid != u64::MAX {
            c.update_support(bid, bmass);
        }
        if dropped.second > 0.0 {
            // Attribution of the runner-up mass is lost in the merge; fold
            // it in as anonymous support so it can still back a member.
            c.update_support(ANON_SUPPORT, dropped.second);
        }
        for l in dropped.links {
            c.record_link(l, link_cap);
        }
        c.promotions += dropped.promotions;
        c.detections += dropped.detections;
        keep
    }

    /// Evict entity nodes: everything idle past the timeout, and at least
    /// enough of the oldest nodes to fall an eighth below the budget.
    /// Deterministic `(last_ts, raw id)` order — executors reach this with
    /// identical state, so eviction cannot perturb byte-identity.
    fn evict_entities(&mut self, now: SimTime) {
        let budget = self.policy.max_entities;
        let keep_target = budget.saturating_sub((budget / 8).max(1));
        self.evict_scratch.clear();
        for (id, n) in &self.entities {
            self.evict_scratch.push((n.last_ts, id.raw()));
        }
        self.evict_scratch.sort_unstable();
        let expired = match self.policy.idle_timeout {
            Some(t) => self
                .evict_scratch
                .iter()
                .take_while(|&&(ts, _)| now.saturating_since(ts) > t)
                .count(),
            None => 0,
        };
        let over = self.entities.len().saturating_sub(keep_target);
        let n_evict = expired.max(over).min(self.evict_scratch.len());
        for i in 0..n_evict {
            let (_, raw) = self.evict_scratch[i];
            self.remove_entity(EntityId::from_raw(raw));
        }
    }

    fn remove_entity(&mut self, id: EntityId) {
        let Some(node) = self.entities.remove(&id) else {
            return;
        };
        self.entities_evicted += 1;
        if node.promoted {
            self.promoted_latches.insert(id);
        }
        if node.campaign == NO_CAMPAIGN {
            return;
        }
        let dissolve = {
            let c = self
                .campaigns
                .get_mut(&node.campaign)
                .expect("member campaign");
            if let Some(pos) = c.members.iter().position(|&m| m == id) {
                c.members.swap_remove(pos);
            }
            c.members.len() < 2
        };
        if dissolve {
            let c = self.campaigns.remove(&node.campaign).expect("campaign");
            for m in c.members {
                if let Some(n) = self.entities.get_mut(&m) {
                    n.campaign = NO_CAMPAIGN;
                }
            }
        }
    }

    /// Evict join-key rings: idle-expired first, then oldest by newest
    /// entry, down to an eighth below the budget.
    fn evict_keys(&mut self, now: SimTime) {
        let budget = self.policy.max_join_keys;
        let keep_target = budget.saturating_sub((budget / 8).max(1));
        self.evict_scratch.clear();
        for (&key, ring) in &self.keys {
            self.evict_scratch.push((ring.newest_ts(), key));
        }
        self.evict_scratch.sort_unstable();
        let expired = match self.policy.idle_timeout {
            Some(t) => self
                .evict_scratch
                .iter()
                .take_while(|&&(ts, _)| now.saturating_since(ts) > t)
                .count(),
            None => 0,
        };
        let over = self.keys.len().saturating_sub(keep_target);
        let n_evict = expired.max(over).min(self.evict_scratch.len());
        for i in 0..n_evict {
            let (_, key) = self.evict_scratch[i];
            self.keys.remove(&key);
        }
    }

    /// Render live campaigns for reports: members and links sorted into
    /// canonical order, campaigns ordered by id. Report-time only, never
    /// on the per-alert path. Entity keys are inline and the sorts are in
    /// place, so a campaign costs its member and link vectors, whatever its
    /// size.
    pub fn summaries(&self) -> Vec<CampaignSummary> {
        let scope = &self.scope;
        let mut out: Vec<CampaignSummary> = self
            .campaigns
            .iter()
            .map(|(&id, c)| {
                let mut members: Vec<EntityKey> =
                    c.members.iter().map(|m| m.key_in(scope)).collect();
                members.sort_unstable();
                let mut links: Vec<LinkSummary> = c
                    .links
                    .iter()
                    .map(|l| LinkSummary {
                        ts: l.ts,
                        a: l.a.key_in(scope),
                        b: l.b.key_in(scope),
                        kind: l.kind,
                    })
                    .collect();
                // The key covers every field, so an unstable sort orders
                // exactly as a stable one would.
                links.sort_unstable_by(|x, y| {
                    (x.ts, &x.a, &x.b, x.kind).cmp(&(y.ts, &y.a, &y.b, y.kind))
                });
                CampaignSummary {
                    id,
                    members,
                    links,
                    promotions: c.promotions,
                    detections: c.detections,
                }
            })
            .collect();
        out.sort_unstable_by_key(|c| c.id);
        out
    }

    /// The current campaign partition as sorted member-key sets (sorted
    /// outer list) — the order-insensitive view of link formation.
    pub fn partition(&self) -> Vec<Vec<EntityKey>> {
        let mut out: Vec<Vec<EntityKey>> = self
            .campaigns
            .values()
            .map(|c| {
                let mut m: Vec<EntityKey> =
                    c.members.iter().map(|e| e.key_in(&self.scope)).collect();
                m.sort_unstable();
                m
            })
            .collect();
        out.sort();
        out
    }

    /// Recorded link endpoints `(a, b, kind)` across campaigns, sorted and
    /// deduplicated — link *timestamps* depend on arrival order within a
    /// batch, endpoints do not.
    pub fn link_pairs(&self) -> Vec<(EntityKey, EntityKey, LinkKind)> {
        let mut out: Vec<(EntityKey, EntityKey, LinkKind)> = self
            .campaigns
            .values()
            .flat_map(|c| c.links.iter())
            .map(|l| (l.a.key_in(&self.scope), l.b.key_in(&self.scope), l.kind))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Render the full correlator state as a process-independent,
    /// deterministically ordered snapshot (see [`CorrelatorSnapshot`]).
    /// Users and palette payloads are named by symbol id, which is their
    /// position in the correlator's scope's universe. Allocates —
    /// snapshot/report time only, never on the alert path.
    pub fn export_state(&self) -> CorrelatorSnapshot {
        let mut entities: Vec<CorrelatorEntitySnapshot> = self
            .entities
            .iter()
            .map(|(&id, n)| CorrelatorEntitySnapshot {
                entity: id.snap_key(),
                campaign: n.campaign,
                mass: n.mass,
                last_ts: n.last_ts,
                seen: n.seen,
                promoted: n.promoted,
                steps: n.steps.to_vec(),
                steps_head: n.steps_head,
            })
            .collect();
        entities.sort_unstable_by_key(|e| e.entity);
        let mut keys: Vec<JoinKeySnapshot> = self
            .keys
            .iter()
            .map(|(&key, ring)| {
                let (kind, id) = decode_join_key(key);
                JoinKeySnapshot {
                    kind,
                    id,
                    slots: ring
                        .slots
                        .iter()
                        .map(|s| s.map(|(id, ts)| (id.snap_key(), ts)))
                        .collect(),
                    head: ring.head,
                }
            })
            .collect();
        keys.sort_unstable_by_key(|k| (k.kind, k.id));
        let mut campaigns: Vec<CampaignSnapshot> = self
            .campaigns
            .iter()
            .map(|(&id, c)| {
                // Either the initial sentinel (mass 0) or anonymous
                // post-merge support — attribution is absent in both.
                let best_key =
                    (c.best.0 < ANON_SUPPORT).then(|| EntityId::from_raw(c.best.0).snap_key());
                CampaignSnapshot {
                    id,
                    members: c.members.iter().map(|m| m.snap_key()).collect(),
                    links: c
                        .links
                        .iter()
                        .map(|l| LinkSnapshot {
                            ts: l.ts,
                            a: l.a.snap_key(),
                            b: l.b.snap_key(),
                            kind: l.kind,
                        })
                        .collect(),
                    best_key,
                    best_mass: c.best.1,
                    second: c.second,
                    support_ts: c.support_ts,
                    promotions: c.promotions,
                    detections: c.detections,
                }
            })
            .collect();
        campaigns.sort_unstable_by_key(|c| c.id);
        let mut promoted_latches: Vec<SnapKey> = self
            .promoted_latches
            .iter()
            .map(|id| id.snap_key())
            .collect();
        promoted_latches.sort_unstable();
        CorrelatorSnapshot {
            entities,
            keys,
            campaigns,
            promoted_latches,
            next_campaign: self.next_campaign,
            promotions: self.promotions,
            tagger_confirmations: self.tagger_confirmations,
            entities_evicted: self.entities_evicted,
        }
    }

    /// Replace the correlator's state with a snapshot's, translating
    /// users and palette payloads through `syms`, so a restored
    /// correlator continues the stream with byte-identical detections
    /// even across a restart. A malformed snapshot is an error naming the
    /// field, and leaves the correlator unchanged.
    pub fn import_state(&mut self, snap: &CorrelatorSnapshot, syms: &SymMap) -> Result<(), String> {
        self.install(snap.decode(syms)?);
        Ok(())
    }

    /// Swap in state decoded by [`CorrelatorSnapshot::decode`].
    pub fn install(&mut self, decoded: DecodedCorrelator) {
        self.entities = decoded.entities;
        self.keys = decoded.keys;
        self.campaigns = decoded.campaigns;
        self.promoted_latches = decoded.promoted_latches;
        self.next_campaign = decoded.next_campaign;
        self.promotions = decoded.promotions;
        self.tagger_confirmations = decoded.tagger_confirmations;
        self.entities_evicted = decoded.entities_evicted;
    }
}

/// A [`CorrelatorSnapshot`] decoded and validated against a [`SymMap`],
/// ready for [`CampaignCorrelator::install`].
#[derive(Debug)]
pub struct DecodedCorrelator {
    entities: FxHashMap<EntityId, EntityNode>,
    keys: FxHashMap<u64, KeyRing>,
    campaigns: FxHashMap<u32, CampaignState>,
    promoted_latches: FxHashSet<EntityId>,
    next_campaign: u32,
    promotions: u64,
    tagger_confirmations: u64,
    entities_evicted: u64,
}

impl CorrelatorSnapshot {
    /// Decode into fresh correlator state, translating users and palette
    /// payloads through `syms`. Fails on a key of no entity kind or past
    /// the universe (nodes, ring slots, members, link endpoints, support
    /// anchors, latches), a palette payload past the universe, a step or
    /// key ring of the wrong arity, a ring head past its ring, or a node
    /// naming a missing campaign.
    pub fn decode(&self, syms: &SymMap) -> Result<DecodedCorrelator, String> {
        let mut entities = FxHashMap::default();
        entities.reserve(self.entities.len());
        for (i, e) in self.entities.iter().enumerate() {
            let field = || format!("correlator.entities[{i}]");
            let id = snapshot_key(e.entity, syms, || format!("{}.entity", field()))?;
            let steps =
                <[(SimTime, u16); SEQ_RING]>::try_from(e.steps.as_slice()).map_err(|_| {
                    format!(
                        "{}.steps: {} slots, expected {SEQ_RING}",
                        field(),
                        e.steps.len()
                    )
                })?;
            ring_head(e.steps_head, SEQ_RING, || format!("{}.steps_head", field()))?;
            let node = EntityNode {
                campaign: e.campaign,
                mass: e.mass,
                last_ts: e.last_ts,
                seen: e.seen,
                promoted: e.promoted,
                steps,
                steps_head: e.steps_head,
            };
            entities.insert(id, node);
        }
        let mut keys = FxHashMap::default();
        for (i, k) in self.keys.iter().enumerate() {
            let field = || format!("correlator.keys[{i}]");
            if k.slots.len() != RING {
                return Err(format!(
                    "{}.slots: {} slots, expected {RING}",
                    field(),
                    k.slots.len()
                ));
            }
            ring_head(k.head, RING, || format!("{}.head", field()))?;
            let mut ring = KeyRing {
                head: k.head,
                ..KeyRing::default()
            };
            for (j, (slot, s)) in ring.slots.iter_mut().zip(&k.slots).enumerate() {
                if let Some((key, ts)) = *s {
                    let id = snapshot_key(key, syms, || format!("{}.slots[{j}]", field()))?;
                    *slot = Some((id, ts));
                }
            }
            let key = encode_join_key(k.kind, k.id, syms).ok_or_else(|| {
                format!(
                    "{}.id: palette {} is past the {}-symbol universe",
                    field(),
                    k.id,
                    syms.len()
                )
            })?;
            keys.insert(key, ring);
        }
        let mut campaigns = FxHashMap::default();
        for (i, c) in self.campaigns.iter().enumerate() {
            let field = || format!("correlator.campaigns[{i}]");
            let best = match c.best_key {
                Some(k) => (
                    snapshot_key(k, syms, || format!("{}.best_key", field()))?.raw(),
                    c.best_mass,
                ),
                None if c.best_mass > 0.0 => (ANON_SUPPORT, c.best_mass),
                None => (u64::MAX, 0.0),
            };
            // Exact-capacity vectors: `collect` through a `Result` drops the
            // length hint and regrows.
            let mut members = Vec::with_capacity(c.members.len());
            for (j, &m) in c.members.iter().enumerate() {
                members.push(snapshot_key(m, syms, || {
                    format!("{}.members[{j}]", field())
                })?);
            }
            let mut links = Vec::with_capacity(c.links.len());
            for (j, l) in c.links.iter().enumerate() {
                let end = |key: SnapKey, end: &str| {
                    snapshot_key(key, syms, || format!("{}.links[{j}].{end}", field()))
                };
                let link = CampaignLink {
                    ts: l.ts,
                    a: end(l.a, "a")?,
                    b: end(l.b, "b")?,
                    kind: l.kind,
                };
                links.push(link);
            }
            let campaign = CampaignState {
                members,
                links,
                best,
                second: c.second,
                support_ts: c.support_ts,
                promotions: c.promotions,
                detections: c.detections,
            };
            campaigns.insert(c.id, campaign);
        }
        for (i, e) in self.entities.iter().enumerate() {
            if e.campaign != NO_CAMPAIGN && !campaigns.contains_key(&e.campaign) {
                return Err(format!(
                    "correlator.entities[{i}].campaign: no campaign {}",
                    e.campaign
                ));
            }
        }
        let mut promoted_latches = FxHashSet::default();
        for (i, &k) in self.promoted_latches.iter().enumerate() {
            promoted_latches.insert(snapshot_key(k, syms, || {
                format!("correlator.promoted_latches[{i}]")
            })?);
        }
        Ok(DecodedCorrelator {
            entities,
            keys,
            campaigns,
            promoted_latches,
            next_campaign: self.next_campaign,
            promotions: self.promotions,
            tagger_confirmations: self.tagger_confirmations,
            entities_evicted: self.entities_evicted,
        })
    }
}

/// What stitched replay steps a merged sequence with: the tagger's chain
/// model, decision stages, temporal policy and declared blackouts. The
/// temporal policy governs only the replay; campaign support and entity
/// mass decay with [`CorrelationPolicy::decay_half_life`].
#[derive(Debug, Clone)]
struct Replay {
    model: ChainModel,
    decision_stages: Vec<Stage>,
    temporal: TemporalPolicy,
    blackouts: Vec<(SimTime, SimTime)>,
}

/// Re-score the stitched campaign sequence: merge the members' step rings
/// in `(ts, entity, kind)` order (bounded window, bounded member prefix)
/// and run the chain model's forward filter over the merged steps — the
/// per-entity tagger's own inference: the same
/// [`ChainModel::forward_step`] and the same temporal step
/// ([`TemporalPolicy::apply_gap`]: session timeout, decay toward the
/// prior and gap observations, net of declared blackouts). Returns the
/// decision mass of the final posterior, or `0.0` when the merge holds
/// fewer than two steps or only one entity contributed (a single
/// member's fragment is the tagger's own problem; stitching exists for
/// *cross-entity* recovery).
///
/// Deterministic and allocation-free in steady state: the merge lives in
/// caller-owned reusable scratch, the posterior on the stack.
fn stitched_sequence_score(
    replay: &Replay,
    policy: &CorrelationPolicy,
    entities: &FxHashMap<EntityId, EntityNode>,
    members: &[EntityId],
    now: SimTime,
    order: &mut Vec<(SimTime, u64, u16)>,
) -> f64 {
    order.clear();
    for &m in members.iter().take(SEQ_MEMBERS) {
        let Some(n) = entities.get(&m) else { continue };
        for &(ts, kind) in &n.steps {
            if kind != STEP_EMPTY
                && ts <= now
                && now.saturating_since(ts) <= policy.adjacency_window
            {
                order.push((ts, m.raw(), kind));
            }
        }
    }
    if order.len() < 2 || order.iter().all(|&(_, e, _)| e == order[0].1) {
        return 0.0;
    }
    order.sort_unstable();
    let model = &replay.model;
    let mut alpha = [0.0f64; Stage::COUNT];
    let mut last_ts = SimTime::EPOCH;
    let mut started = false;
    for &(ts, _, kind) in order.iter() {
        let mut gap_bin = GAP_NONE;
        if started {
            match replay
                .temporal
                .apply_gap(model, &replay.blackouts, last_ts, ts, &mut alpha)
            {
                Some(bin) => gap_bin = bin,
                None => started = false,
            }
        }
        last_ts = ts;
        let prev = alpha;
        model.forward_step(
            started.then_some(&prev[..]),
            kind as usize,
            gap_bin,
            &mut alpha,
        );
        started = true;
    }
    AttackTagger::decision_mass(&replay.decision_stages, &alpha)
}

/// Compact join keys carried by one alert (tag | 32-bit payload).
fn join_keys(alert: &Alert) -> [Option<(u64, LinkKind)>; 4] {
    let mut out = [None; 4];
    if let Some(dst) = alert.dst {
        out[0] = Some((JK_VICTIM | u64::from(u32::from(dst)), LinkKind::Victim));
    }
    if let Some(src) = alert.src {
        out[1] = Some((JK_SOURCE | u64::from(u32::from(src)), LinkKind::Source));
    }
    if let Some(host) = alert.host {
        out[2] = Some((JK_HOST | u64::from(host.0), LinkKind::Host));
    }
    if let Some(sym) = palette_sym(&alert.message) {
        out[3] = Some((JK_PALETTE | u64::from(sym.id()), LinkKind::Palette));
    }
    out
}

/// Split a compact join key into its kind and payload (an address, a
/// host id, or a palette symbol id).
fn decode_join_key(key: u64) -> (LinkKind, u32) {
    let kind = match key & !0xFFFF_FFFF {
        JK_VICTIM => LinkKind::Victim,
        JK_SOURCE => LinkKind::Source,
        JK_HOST => LinkKind::Host,
        JK_PALETTE => LinkKind::Palette,
        _ => unreachable!("join key with unknown tag"),
    };
    (kind, key as u32)
}

/// Rebuild a compact join key from its snapshot form, translating a
/// palette payload's universe position through `syms`. `None` for a
/// palette position past the universe.
fn encode_join_key(kind: LinkKind, id: u32, syms: &SymMap) -> Option<u64> {
    Some(match kind {
        LinkKind::Victim => JK_VICTIM | u64::from(id),
        LinkKind::Source => JK_SOURCE | u64::from(id),
        LinkKind::Host => JK_HOST | u64::from(id),
        LinkKind::Palette => JK_PALETTE | u64::from(syms.id(id)?),
    })
}

/// The interned payload symbol of exec-flavoured messages — the
/// "cmdline/exe palette" join key.
fn palette_sym(msg: &MessageSpec) -> Option<simnet::intern::Sym> {
    match *msg {
        MessageSpec::Exec { cmdline, .. } => Some(cmdline),
        MessageSpec::FileDrop { process, .. } => Some(process),
        MessageSpec::CopyFromProgram { program } => Some(program),
        _ => None,
    }
}

/// An [`AttackTagger`] with campaign correlation fused in — the
/// direct-drive convenience the stream executors mirror (they run the
/// same two steps, split across the shard boundary).
#[derive(Debug, Clone)]
pub struct CorrelatedTagger {
    tagger: AttackTagger,
    correlator: CampaignCorrelator,
}

impl CorrelatedTagger {
    /// Build from a tagger, using its configured
    /// [`TaggerConfig::correlation`] policy (default policy if unset).
    pub fn new(tagger: AttackTagger) -> CorrelatedTagger {
        let policy = tagger.config().correlation.clone().unwrap_or_default();
        CorrelatedTagger::with_policy(tagger, policy)
    }

    pub fn with_policy(tagger: AttackTagger, policy: CorrelationPolicy) -> CorrelatedTagger {
        let correlator = CampaignCorrelator::with_tagger(policy, &tagger);
        CorrelatedTagger { tagger, correlator }
    }

    /// Observe one alert: per-entity filter first, then campaign
    /// correlation over the scored outcome.
    pub fn observe(&mut self, alert: &Alert) -> Option<Detection> {
        let scored = self.tagger.observe_scored(alert);
        let mut detection = scored.detection;
        self.correlator
            .observe(alert, scored.attack_score, &mut detection);
        detection
    }

    pub fn tagger(&self) -> &AttackTagger {
        &self.tagger
    }

    pub fn correlator(&self) -> &CampaignCorrelator {
        &self.correlator
    }

    pub fn into_parts(self) -> (AttackTagger, CampaignCorrelator) {
        (self.tagger, self.correlator)
    }

    /// Export tagger + correlator state as one pair (service snapshots).
    pub fn export_state(&self) -> (TaggerSnapshot, CorrelatorSnapshot) {
        (self.tagger.export_state(), self.correlator.export_state())
    }

    /// Restore tagger + correlator state from a snapshot pair, translating
    /// symbols through `syms`. Both are decoded before either is
    /// installed: a malformed snapshot is an error naming the field, and
    /// leaves the detector unchanged.
    pub fn import_state(
        &mut self,
        tagger: &TaggerSnapshot,
        correlator: &CorrelatorSnapshot,
        syms: &SymMap,
    ) -> Result<(), String> {
        let tagger = tagger.decode(syms)?;
        let correlator = correlator.decode(syms)?;
        self.tagger.install(tagger);
        self.correlator.install(correlator);
        Ok(())
    }
}

/// Build a correlated tagger straight from a model + config (mirrors
/// [`AttackTagger::new`]).
pub fn correlated_tagger(
    model: factorgraph::chain::ChainModel,
    cfg: TaggerConfig,
) -> CorrelatedTagger {
    CorrelatedTagger::new(AttackTagger::new(model, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::toy_training_model;
    use alertlib::alert::Entity;
    use alertlib::taxonomy::AlertKind;
    use std::net::Ipv4Addr;

    fn victim() -> Ipv4Addr {
        "10.9.8.7".parse().unwrap()
    }

    fn hop_alert(t: u64, kind: AlertKind, ip: &str) -> Alert {
        let src: Ipv4Addr = ip.parse().unwrap();
        Alert::new(
            simnet::time::SimTime::from_secs(t),
            kind,
            Entity::Address(src),
        )
        .with_src(src)
        .with_dst(victim())
    }

    fn test_policy() -> CorrelationPolicy {
        CorrelationPolicy {
            join_min_score: 0.05,
            ..CorrelationPolicy::default()
        }
    }

    /// The tentpole behaviour: hop A walks the kill chain and is detected;
    /// hop B — same victim — crosses on its *first* alert via campaign
    /// fusion, where an uncorrelated tagger stays silent.
    #[test]
    fn second_hop_promoted_on_first_alert() {
        let chain = [
            (0, AlertKind::PortScan),
            (60, AlertKind::DownloadSensitive),
            (120, AlertKind::CompileKernelModule),
            (180, AlertKind::LogWipe),
        ];
        let mut plain = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let mut fused = CorrelatedTagger::with_policy(
            AttackTagger::new(toy_training_model(), TaggerConfig::default()),
            test_policy(),
        );
        for (t, k) in chain {
            let a = hop_alert(t, k, "198.18.0.1");
            plain.observe(&a);
            fused.observe(&a);
        }
        // Hop B: one suspicious (but alone sub-threshold) alert against
        // the same victim.
        let b = hop_alert(240, AlertKind::LogWipe, "198.18.0.2");
        assert!(
            plain.observe(&b).is_none(),
            "uncorrelated tagger must not fire on one alert (else the test is vacuous)"
        );
        let d = fused.observe(&b).expect("campaign fusion promotes hop B");
        assert_eq!(d.stage, Stage::Lateral);
        assert_eq!(d.alert_index, 0, "promoted on the first alert");
        assert!(d.score >= 0.8);
        assert_eq!(fused.correlator().promotions(), 1);
        assert_eq!(fused.correlator().campaign_count(), 1);
        let summary = &fused.correlator().summaries()[0];
        assert_eq!(summary.members.len(), 2);
        assert_eq!(summary.promotions, 1);
        assert!(
            summary.links.iter().any(|l| l.kind == LinkKind::Victim),
            "shared-victim provenance recorded"
        );
    }

    /// Sequence stitching recovers splits posterior fusion cannot: both
    /// hops stay below the anchor floor (0.50) and the fused posterior
    /// peaks near 0.67, but the *concatenated* step sequence
    /// PortScan→LogWipe→LogWipe scores 0.92 under the chain model — so
    /// hop B is promoted on its first alert anyway.
    #[test]
    fn weak_fragments_recovered_by_sequence_stitching() {
        let fragment_a = [(0, AlertKind::PortScan), (60, AlertKind::LogWipe)];
        let hop_b = hop_alert(180, AlertKind::LogWipe, "198.18.0.2");

        // Neither fragment alone moves the plain tagger.
        let mut plain = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        for (t, k) in fragment_a {
            assert!(plain.observe(&hop_alert(t, k, "198.18.0.1")).is_none());
        }
        assert!(plain.observe(&hop_b).is_none());

        // Default policy — the trace floor (not an anchor) is what lets
        // hop A's weak fragment be linked back to.
        let mut fused = CorrelatedTagger::with_policy(
            AttackTagger::new(toy_training_model(), TaggerConfig::default()),
            CorrelationPolicy::default(),
        );
        for (t, k) in fragment_a {
            assert!(fused.observe(&hop_alert(t, k, "198.18.0.1")).is_none());
        }
        let d = fused
            .observe(&hop_b)
            .expect("stitched sequence promotes hop B");
        assert_eq!(d.stage, Stage::Lateral);
        assert_eq!(d.alert_index, 0, "promoted on hop B's first alert");
        assert!(d.score >= 0.8, "stitched score {:.3}", d.score);
        assert_eq!(fused.correlator().promotions(), 1);
    }

    /// Without an attached chain model the same weak-fragment split is
    /// *not* recovered — stitching degrades to posterior fusion, which
    /// cannot reach the threshold here.
    #[test]
    fn stitching_requires_a_model() {
        let mut c = CampaignCorrelator::new(CorrelationPolicy::default());
        let mut none = None;
        c.observe(
            &hop_alert(0, AlertKind::PortScan, "198.18.0.1"),
            0.0001,
            &mut none,
        );
        c.observe(
            &hop_alert(60, AlertKind::LogWipe, "198.18.0.1"),
            0.4957,
            &mut none,
        );
        let mut det = None;
        c.observe(
            &hop_alert(180, AlertKind::LogWipe, "198.18.0.2"),
            0.4361,
            &mut det,
        );
        assert_eq!(c.campaign_count(), 1, "the link still forms");
        assert!(det.is_none(), "fusion alone stays below threshold");
        assert_eq!(c.promotions(), 0);
    }

    /// Once promoted, the entity's own later tagger detection is
    /// suppressed (single surfaced detection per entity) and counted as a
    /// confirmation.
    #[test]
    fn promotion_suppresses_later_tagger_detection() {
        let mut fused = CorrelatedTagger::with_policy(
            AttackTagger::new(toy_training_model(), TaggerConfig::default()),
            test_policy(),
        );
        for (t, k) in [
            (0, AlertKind::PortScan),
            (60, AlertKind::DownloadSensitive),
            (120, AlertKind::CompileKernelModule),
            (180, AlertKind::LogWipe),
        ] {
            fused.observe(&hop_alert(t, k, "198.18.0.1"));
        }
        let mut raised = 0;
        for (t, k) in [
            (240, AlertKind::LogWipe),
            (300, AlertKind::DownloadSensitive),
            (360, AlertKind::CompileKernelModule),
            (420, AlertKind::DataExfiltration),
        ] {
            if fused.observe(&hop_alert(t, k, "198.18.0.2")).is_some() {
                raised += 1;
            }
        }
        assert_eq!(raised, 1, "one surfaced detection per entity");
        assert_eq!(fused.correlator().tagger_confirmations(), 1);
    }

    /// Entities with no shared join key never correlate.
    #[test]
    fn unrelated_victims_do_not_correlate() {
        let mut fused = CorrelatedTagger::with_policy(
            AttackTagger::new(toy_training_model(), TaggerConfig::default()),
            test_policy(),
        );
        for (i, ip) in ["198.18.0.1", "198.18.0.2"].iter().enumerate() {
            for (t, k) in [
                (0, AlertKind::DownloadSensitive),
                (60, AlertKind::CompileKernelModule),
            ] {
                let src: Ipv4Addr = ip.parse().unwrap();
                let dst: Ipv4Addr = format!("10.0.{i}.1").parse().unwrap();
                let a = Alert::new(
                    simnet::time::SimTime::from_secs(t + i as u64),
                    k,
                    Entity::Address(src),
                )
                .with_src(src)
                .with_dst(dst);
                fused.observe(&a);
            }
        }
        assert_eq!(fused.correlator().campaign_count(), 0);
        assert_eq!(fused.correlator().promotions(), 0);
    }

    /// Cold (benign-scored) traffic brushing the shared victim neither
    /// anchors nor joins a campaign. Below the trace floor it is fully
    /// invisible; at trace level it occupies ring slots but still cannot
    /// form a campaign on its own.
    #[test]
    fn benign_traffic_stays_out_of_campaigns() {
        let mut c = CampaignCorrelator::new(test_policy());
        let mut none = None;
        // Masses below the trace floor: no keys, no campaigns.
        for (t, ip) in [(0, "192.0.2.1"), (10, "192.0.2.2")] {
            c.observe(&hop_alert(t, AlertKind::LoginSuccess, ip), 0.001, &mut none);
        }
        assert_eq!(c.campaign_count(), 0);
        assert_eq!(c.tracked_join_keys(), 0, "sub-trace entities leave nothing");

        // Trace-level masses occupy rings (linkable back to) but two
        // trace-level entities never join each other into a campaign.
        for (t, ip) in [(20, "192.0.2.3"), (30, "192.0.2.4")] {
            c.observe(&hop_alert(t, AlertKind::LoginSuccess, ip), 0.02, &mut none);
        }
        assert!(
            c.tracked_join_keys() > 0,
            "trace-level entities occupy rings"
        );
        assert_eq!(c.campaign_count(), 0, "traces alone form no campaign");
    }

    /// Shared source endpoint and shared exec palette also form links.
    #[test]
    fn source_and_palette_links_form() {
        use simnet::intern::Sym;
        let p = CorrelationPolicy {
            anchor_min_score: 0.3,
            join_min_score: 0.05,
            weak_join_min_score: 0.3,
            ..CorrelationPolicy::default()
        };
        // Shared C2 source: two *user* entities from one staging host.
        let mut c = CampaignCorrelator::new(p.clone());
        let c2: Ipv4Addr = "203.0.113.9".parse().unwrap();
        let mk = |t: u64, user: &str| {
            Alert::new(
                simnet::time::SimTime::from_secs(t),
                AlertKind::DownloadSensitive,
                Entity::User(user.into()),
            )
            .with_src(c2)
        };
        let mut none = None;
        c.observe(&mk(0, "mallory"), 0.6, &mut none);
        c.observe(&mk(30, "trudy"), 0.4, &mut none);
        assert_eq!(c.campaign_count(), 1);
        assert_eq!(c.link_pairs()[0].2, LinkKind::Source);

        // Shared cmdline palette on two different hosts.
        let mut c = CampaignCorrelator::new(p);
        let cmd = Sym::new("./xmrig --donate-level 0");
        let mk = |t: u64, user: &str| {
            Alert::new(
                simnet::time::SimTime::from_secs(t),
                AlertKind::SuspiciousProcessName,
                Entity::User(user.into()),
            )
            .with_message(MessageSpec::Exec {
                hostname: Sym::new("node-17"),
                cmdline: cmd,
            })
        };
        let mut none = None;
        c.observe(&mk(0, "mallory"), 0.6, &mut none);
        c.observe(&mk(30, "trudy"), 0.4, &mut none);
        assert_eq!(c.campaign_count(), 1);
        assert_eq!(c.link_pairs()[0].2, LinkKind::Palette);

        // The same palette pair under the *default* policy does not link:
        // low-specificity keys demand anchor-level (0.5) mass, so a
        // 0.4-mass entity sharing a cmdline with a hot one stays out.
        let mut c = CampaignCorrelator::new(CorrelationPolicy::default());
        c.observe(&mk(0, "mallory"), 0.6, &mut none);
        c.observe(&mk(30, "trudy"), 0.4, &mut none);
        assert_eq!(c.campaign_count(), 0, "weak keys gated at default floor");
    }

    /// Links outside the adjacency window do not form.
    #[test]
    fn adjacency_window_bounds_links() {
        let p = CorrelationPolicy {
            adjacency_window: SimDuration::from_hours(1),
            idle_timeout: None,
            join_min_score: 0.05,
            ..CorrelationPolicy::default()
        };
        let mut c = CampaignCorrelator::new(p);
        let mut none = None;
        c.observe(
            &hop_alert(0, AlertKind::DownloadSensitive, "198.18.0.1"),
            0.9,
            &mut none,
        );
        // Two hours later: same victim, outside the window.
        c.observe(
            &hop_alert(7_200, AlertKind::DownloadSensitive, "198.18.0.2"),
            0.9,
            &mut none,
        );
        assert_eq!(c.campaign_count(), 0);
    }

    /// Transitive links merge campaigns into one.
    #[test]
    fn chained_links_merge_campaigns() {
        let p = CorrelationPolicy {
            anchor_min_score: 0.3,
            join_min_score: 0.05,
            ..CorrelationPolicy::default()
        };
        let mut c = CampaignCorrelator::new(p);
        let mut none = None;
        let mk = |t: u64, ip: &str, dst: &str| {
            let src: Ipv4Addr = ip.parse().unwrap();
            Alert::new(
                simnet::time::SimTime::from_secs(t),
                AlertKind::DownloadSensitive,
                Entity::Address(src),
            )
            .with_src(src)
            .with_dst(dst.parse().unwrap())
        };
        // A—B share victim 1; C—D share victim 2.
        c.observe(&mk(0, "198.18.0.1", "10.0.0.1"), 0.9, &mut none);
        c.observe(&mk(10, "198.18.0.2", "10.0.0.1"), 0.9, &mut none);
        c.observe(&mk(20, "198.18.0.3", "10.0.0.2"), 0.9, &mut none);
        c.observe(&mk(30, "198.18.0.4", "10.0.0.2"), 0.9, &mut none);
        assert_eq!(c.campaign_count(), 2);
        // B hits victim 2: the two campaigns become one.
        c.observe(&mk(40, "198.18.0.2", "10.0.0.2"), 0.9, &mut none);
        assert_eq!(c.campaign_count(), 1);
        assert_eq!(c.summaries()[0].members.len(), 4);
    }

    /// Link formation is order-insensitive within a batch: any permutation
    /// of the same alerts yields the same campaign partition and the same
    /// link endpoint set.
    #[test]
    fn link_formation_is_order_insensitive() {
        let alerts: Vec<Alert> = vec![
            hop_alert(0, AlertKind::DownloadSensitive, "198.18.0.1"),
            hop_alert(30, AlertKind::CompileKernelModule, "198.18.0.2"),
            hop_alert(60, AlertKind::LogWipe, "198.18.0.3"),
        ];
        let run = |order: &[usize]| {
            let mut c = CampaignCorrelator::new(CorrelationPolicy {
                anchor_min_score: 0.3,
                join_min_score: 0.05,
                ..CorrelationPolicy::default()
            });
            let mut none = None;
            for &i in order {
                c.observe(&alerts[i], 0.9, &mut none);
            }
            (c.partition(), c.link_pairs())
        };
        let reference = run(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(run(&order), reference, "order {order:?}");
        }
    }

    /// Satellite 6: an adversarial many-entity alert storm cannot grow
    /// state unboundedly — entities, join keys, campaigns, and link
    /// provenance all stay within their budgets.
    #[test]
    fn alert_storm_cannot_grow_state_unboundedly() {
        let p = CorrelationPolicy {
            anchor_min_score: 0.1,
            join_min_score: 0.05,
            max_entities: 128,
            max_join_keys: 64,
            max_links_per_campaign: 16,
            idle_timeout: Some(SimDuration::from_hours(1)),
            ..CorrelationPolicy::default()
        };
        let mut c = CampaignCorrelator::new(p);
        let mut none = None;
        for i in 0..10_000u32 {
            // Every alert: a fresh hot entity, a fresh victim, plus one
            // shared victim so campaigns and links keep forming.
            let src = Ipv4Addr::from(0xC612_0000 | i);
            let dst = Ipv4Addr::from(0x0A00_0000 | (i % 512));
            let a = Alert::new(
                simnet::time::SimTime::from_secs(u64::from(i) * 7),
                AlertKind::DownloadSensitive,
                Entity::Address(src),
            )
            .with_src(src)
            .with_dst(dst);
            c.observe(&a, 0.95, &mut none);
            none = None; // promotions may fire; discard
        }
        assert!(
            c.tracked_entities() <= 128,
            "entity budget held: {}",
            c.tracked_entities()
        );
        assert!(
            c.tracked_join_keys() <= 64,
            "join-key budget held: {}",
            c.tracked_join_keys()
        );
        assert!(
            c.campaign_count() <= c.tracked_entities(),
            "campaigns bounded by entities"
        );
        for s in c.summaries() {
            assert!(s.links.len() <= 16, "per-campaign link budget held");
        }
    }

    /// A distinct-entity storm at the default budget: each sweep evicts
    /// exactly an eighth of the budget, oldest first. Each evicted node is
    /// removed by id, so the sweeps stay fast enough for a debug build.
    #[test]
    fn default_budget_sweeps_evict_exactly_an_eighth() {
        let policy = CorrelationPolicy::default();
        let budget = policy.max_entities;
        let sweep = budget / 8;
        let mut c = CampaignCorrelator::new(policy);
        let addr = |i: u32| Ipv4Addr::from(0x0A00_0000 | i);
        let observe = |c: &mut CampaignCorrelator, i: u32, t: u64| {
            let a = Alert::new(
                simnet::time::SimTime::from_secs(t),
                AlertKind::LoginSuccess,
                Entity::Address(addr(i)),
            );
            let mut none = None;
            c.observe(&a, 0.0, &mut none);
        };
        // Inside the idle timeout throughout, so only budget pressure
        // evicts: three sweeps, landing exactly on the budget.
        let n = (budget + 3 * sweep) as u32;
        for i in 0..n {
            observe(&mut c, i, u64::from(i));
        }
        assert_eq!(c.tracked_entities(), budget, "budget held");
        assert_eq!(c.entities_evicted(), 3 * sweep as u64);
        // The newest entity is still tracked: observing it again sweeps
        // nothing. The oldest was evicted: it re-enters as a fresh node
        // at the budget, which forces a fourth sweep.
        observe(&mut c, n - 1, u64::from(n));
        assert_eq!(c.entities_evicted(), 3 * sweep as u64);
        observe(&mut c, 0, u64::from(n));
        assert_eq!(c.entities_evicted(), 4 * sweep as u64);
        assert_eq!(c.tracked_entities(), budget - sweep + 1);
    }

    /// Evicting a member keeps the campaign consistent and dissolves
    /// campaigns that fall below two members.
    #[test]
    fn eviction_keeps_campaigns_consistent() {
        let p = CorrelationPolicy {
            anchor_min_score: 0.1,
            join_min_score: 0.05,
            max_entities: 4,
            idle_timeout: Some(SimDuration::from_mins(10)),
            ..CorrelationPolicy::default()
        };
        let mut c = CampaignCorrelator::new(p);
        let mut none = None;
        c.observe(
            &hop_alert(0, AlertKind::DownloadSensitive, "198.18.0.1"),
            0.9,
            &mut none,
        );
        c.observe(
            &hop_alert(10, AlertKind::DownloadSensitive, "198.18.0.2"),
            0.9,
            &mut none,
        );
        assert_eq!(c.campaign_count(), 1);
        // A burst of fresh entities an hour later evicts the idle pair.
        for i in 3..10 {
            let a = hop_alert(
                3_600 + i,
                AlertKind::DownloadSensitive,
                &format!("198.18.1.{i}"),
            );
            c.observe(&a, 0.9, &mut none);
            none = None;
        }
        assert!(c.tracked_entities() <= 4);
        for s in c.summaries() {
            assert!(s.members.len() >= 2, "no singleton campaigns survive");
        }
    }

    /// The default `TaggerConfig` has correlation off — pre-correlation
    /// behaviour is preserved byte for byte — and the default policy
    /// mirrors the `TemporalPolicy` decay/timeout semantics.
    #[test]
    fn correlation_defaults_off_and_mirrors_temporal_policy() {
        assert!(TaggerConfig::default().correlation.is_none());
        let p = CorrelationPolicy::default();
        let t = TemporalPolicy::default();
        assert_eq!(p.decay_half_life, t.decay_half_life);
        assert_eq!(p.idle_timeout, t.session_timeout);
        let cfg = TaggerConfig {
            correlation: Some(p.clone()),
            ..TaggerConfig::default()
        };
        assert_eq!(cfg.correlation, Some(p));
    }

    /// Satellite (PR 8): an evicted entity that had already surfaced a
    /// detection keeps its latch outside the graph — re-arrival into a
    /// hot campaign must not promote a second detection, and a later
    /// tagger detection is still suppressed as a confirmation, exactly
    /// as the unbounded correlator would count it.
    #[test]
    fn evicted_promoted_entity_rearrival_does_not_double_count() {
        let p = CorrelationPolicy {
            join_min_score: 0.05,
            max_entities: 4,
            idle_timeout: Some(SimDuration::from_mins(10)),
            ..CorrelationPolicy::default()
        };
        let mut c = CampaignCorrelator::new(p);
        // Anchor A (tagger-detected) on victim V, then B joins with a
        // suggestive alert and is promoted through posterior fusion.
        let tagger_det = |t: u64| {
            Some(Detection {
                ts: simnet::time::SimTime::from_secs(t),
                alert_index: 0,
                trigger: AlertKind::DownloadSensitive,
                score: 0.9,
                stage: Stage::Lateral,
            })
        };
        let mut det = tagger_det(0);
        c.observe(
            &hop_alert(0, AlertKind::DownloadSensitive, "198.18.0.1"),
            0.9,
            &mut det,
        );
        let mut det = None;
        c.observe(
            &hop_alert(60, AlertKind::LogWipe, "198.18.0.2"),
            0.3,
            &mut det,
        );
        assert!(det.is_some(), "B promoted through campaign fusion");
        assert_eq!(c.promotions(), 1);

        // Keep A hot, leave B idle past the timeout, then let fresh
        // entities push the map over budget: the sweep evicts B.
        let mut det = tagger_det(700);
        c.observe(
            &hop_alert(700, AlertKind::DownloadSensitive, "198.18.0.1"),
            0.9,
            &mut det,
        );
        assert!(det.is_none(), "A's repeat detection is a confirmation");
        for i in 0..3u64 {
            let mut d = None;
            c.observe(
                &hop_alert(710 + i, AlertKind::LoginSuccess, &format!("198.18.9.{i}")),
                0.0,
                &mut d,
            );
        }
        assert!(c.entities_evicted() >= 1, "budget pressure evicted B");
        assert_eq!(
            c.promoted_latched_entities(),
            1,
            "B's surfaced-detection latch survives eviction"
        );
        // Refresh A once more so B's re-arrival (a fresh insert at full
        // budget) evicts a storm entity, not the anchor.
        let mut none = None;
        c.observe(
            &hop_alert(713, AlertKind::DownloadSensitive, "198.18.0.1"),
            0.9,
            &mut none,
        );

        // B re-arrives into the still-hot campaign neighbourhood with the
        // same suggestive score: without the latch this would promote a
        // second detection for the same entity.
        let mut det = None;
        c.observe(
            &hop_alert(720, AlertKind::LogWipe, "198.18.0.2"),
            0.3,
            &mut det,
        );
        assert!(det.is_none(), "re-arrival must not re-promote");
        assert_eq!(c.promotions(), 1, "promotion counter does not double-count");
        assert_eq!(
            c.promoted_latched_entities(),
            0,
            "latch consumed on re-arrival"
        );

        // A later tagger detection on B is suppressed as a confirmation —
        // the unbounded correlator's accounting, reproduced.
        let mut det = Some(Detection {
            ts: simnet::time::SimTime::from_secs(780),
            alert_index: 1,
            trigger: AlertKind::DataExfiltration,
            score: 0.95,
            stage: Stage::Lateral,
        });
        c.observe(
            &hop_alert(780, AlertKind::DataExfiltration, "198.18.0.2"),
            0.95,
            &mut det,
        );
        assert!(
            det.is_none(),
            "tagger detection suppressed, not surfaced twice"
        );
        assert_eq!(c.tagger_confirmations(), 2, "A's repeat + B's post-restore");
    }

    /// Tentpole (PR 8): snapshot → restore → replay tail is byte-identical
    /// to the uninterrupted run — detections, campaign summaries, and the
    /// re-exported state all match, including campaigns, join-key rings
    /// (palette keys round-trip through their resolved strings), merged
    /// support, and eviction latches.
    #[test]
    fn state_snapshot_round_trips() {
        use simnet::intern::Sym;
        let policy = CorrelationPolicy {
            anchor_min_score: 0.3,
            join_min_score: 0.05,
            weak_join_min_score: 0.3,
            max_entities: 6,
            idle_timeout: Some(SimDuration::from_mins(10)),
            ..CorrelationPolicy::default()
        };
        let tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let fresh = || CampaignCorrelator::with_tagger(policy.clone(), &tagger);
        let cmd = Sym::new("./miner --pool stratum+tcp://evil:3333");
        let exec = |t: u64, user: &str| {
            Alert::new(
                simnet::time::SimTime::from_secs(t),
                AlertKind::SuspiciousProcessName,
                Entity::User(user.into()),
            )
            .with_message(MessageSpec::Exec {
                hostname: Sym::new("node-42"),
                cmdline: cmd,
            })
        };
        // A mixed stream: an address campaign on a shared victim, a user
        // palette campaign, an eviction storm (latch + counter state),
        // then a promoted re-arrival and fresh links in the tail.
        let stream: Vec<(Alert, f64)> = vec![
            (hop_alert(0, AlertKind::PortScan, "198.18.0.1"), 0.2),
            (
                hop_alert(60, AlertKind::DownloadSensitive, "198.18.0.1"),
                0.9,
            ),
            (hop_alert(120, AlertKind::LogWipe, "198.18.0.2"), 0.3), // promoted
            (exec(180, "mallory"), 0.6),
            (exec(240, "trudy"), 0.4), // palette link
            (
                hop_alert(900, AlertKind::DownloadSensitive, "198.18.0.1"),
                0.9,
            ),
            (hop_alert(910, AlertKind::LoginSuccess, "198.18.9.1"), 0.0),
            (hop_alert(911, AlertKind::LoginSuccess, "198.18.9.2"), 0.0),
            (hop_alert(912, AlertKind::LoginSuccess, "198.18.9.3"), 0.0),
            // -------- snapshot taken here (index 10) --------
            (hop_alert(1000, AlertKind::LogWipe, "198.18.0.2"), 0.3), // latched re-arrival
            (
                hop_alert(1060, AlertKind::DownloadSensitive, "198.18.0.3"),
                0.7,
            ),
            (exec(1120, "mallory"), 0.7),
            (hop_alert(1180, AlertKind::LogWipe, "198.18.0.4"), 0.25),
        ];
        let drive =
            |c: &mut CampaignCorrelator, alerts: &[(Alert, f64)]| -> Vec<Option<Detection>> {
                alerts
                    .iter()
                    .map(|(a, s)| {
                        let mut d = None;
                        c.observe(a, *s, &mut d);
                        d
                    })
                    .collect()
            };

        let mut uninterrupted = fresh();
        let reference = drive(&mut uninterrupted, &stream);

        let split = 10;
        let mut head_run = fresh();
        let mut detections = drive(&mut head_run, &stream[..split]);
        let snap = head_run.export_state();
        let syms = SymMap::replay(&head_run.scope, &head_run.scope.snapshot());
        let mut restored = fresh();
        restored
            .import_state(&snap, &syms)
            .expect("exported snapshot restores");
        assert_eq!(
            restored.export_state(),
            snap,
            "import → export is the identity on snapshots"
        );
        detections.extend(drive(&mut restored, &stream[split..]));

        assert_eq!(detections, reference, "stitched detections drift");
        assert_eq!(restored.summaries(), uninterrupted.summaries());
        assert_eq!(restored.partition(), uninterrupted.partition());
        assert_eq!(restored.promotions(), uninterrupted.promotions());
        assert_eq!(
            restored.tagger_confirmations(),
            uninterrupted.tagger_confirmations()
        );
        assert_eq!(
            restored.entities_evicted(),
            uninterrupted.entities_evicted()
        );
        assert_eq!(
            restored.export_state(),
            uninterrupted.export_state(),
            "full state drift after tail replay"
        );

        // Malformed variants of the snapshot are refused with the field
        // named, and leave the restoring correlator untouched.
        let linked = snap
            .campaigns
            .iter()
            .position(|c| !c.links.is_empty())
            .expect("snapshot holds a linked campaign");
        let palette = (snap.keys.iter())
            .position(|k| k.kind == LinkKind::Palette)
            .expect("snapshot holds a palette key");
        let member = (snap.entities.iter())
            .position(|e| e.campaign != NO_CAMPAIGN)
            .expect("snapshot holds a campaign member");
        type Mutation = Box<dyn Fn(&mut CorrelatorSnapshot)>;
        let cases: Vec<(String, Mutation)> = vec![
            (
                "correlator.entities[0].entity: kind 0".into(),
                Box::new(|s| s.entities[0].entity.kind = 0),
            ),
            (
                "correlator.entities[0].steps".into(),
                Box::new(|s| {
                    s.entities[0].steps.pop();
                }),
            ),
            (
                "correlator.entities[0].steps_head".into(),
                Box::new(|s| s.entities[0].steps_head = SEQ_RING as u8),
            ),
            (
                "correlator.keys[0].slots".into(),
                Box::new(|s| s.keys[0].slots.push(None)),
            ),
            (
                format!("correlator.keys[{palette}].id: palette"),
                Box::new(move |s| s.keys[palette].id = u32::MAX),
            ),
            (
                format!("correlator.campaigns[{linked}].links[0].b: user"),
                Box::new(move |s| {
                    s.campaigns[linked].links[0].b = SnapKey {
                        kind: SnapKey::USER,
                        id: u32::MAX,
                    }
                }),
            ),
            (
                format!("correlator.entities[{member}].campaign"),
                Box::new(move |s| s.entities[member].campaign = u32::MAX - 1),
            ),
        ];
        let before = restored.export_state();
        for (field, mutate) in cases {
            let mut bad = snap.clone();
            mutate(&mut bad);
            let err = restored.import_state(&bad, &syms).expect_err(&field);
            assert!(err.starts_with(&field), "{field}: {err}");
            assert_eq!(restored.export_state(), before, "{field}: state changed");
        }
    }

    /// Stitched replay runs the tagger's inference: on two fragments that
    /// interleave inside the adjacency window, the stitched score equals,
    /// bit for bit, the decision mass a fresh tagger with the same temporal
    /// policy and declared blackouts reaches on the merged sequence fed as
    /// one entity — decay, gap bins, blackout-net gaps and session
    /// timeouts all follow the tagger, not the correlation policy.
    #[test]
    fn stitched_score_is_the_taggers_decision_mass_bit_for_bit() {
        use factorgraph::timing::GapModel;
        let mut emit = Vec::new();
        for s in 0..Stage::COUNT {
            emit.extend(if s >= Stage::Foothold.index() {
                [0.3, 0.7]
            } else {
                [0.8, 0.2]
            });
        }
        let model =
            toy_training_model().with_gap_model(GapModel::new(Stage::COUNT, vec![3_600.0], emit));
        let policy = CorrelationPolicy::default();
        // `(secs, kind, fragment)`, in merged order.
        let merged = [
            (0, AlertKind::PortScan, 0),
            (900, AlertKind::PortScan, 1),
            (2_400, AlertKind::DownloadSensitive, 0),
            (9_000, AlertKind::DownloadSensitive, 1),
            (16_200, AlertKind::CompileKernelModule, 0),
            (18_000, AlertKind::CompileKernelModule, 1),
            (30_000, AlertKind::LogWipe, 0),
        ];
        let ids = ["198.18.0.1", "198.18.0.2"].map(|ip| Entity::Address(ip.parse().unwrap()).id());
        let mut entities = FxHashMap::default();
        for (t, kind, f) in merged {
            let node = entities.entry(ids[f]).or_insert(EntityNode {
                campaign: NO_CAMPAIGN,
                mass: 0.0,
                last_ts: SimTime::EPOCH,
                seen: 0,
                promoted: false,
                steps: [(SimTime::EPOCH, STEP_EMPTY); SEQ_RING],
                steps_head: 0,
            });
            node.steps[node.steps_head as usize] = (SimTime::from_secs(t), kind.index() as u16);
            node.steps_head += 1;
        }
        // Stitched score and the one-entity tagger's mass under `temporal`
        // with `blackouts` declared.
        let score = |temporal: TemporalPolicy, blackouts: Vec<(SimTime, SimTime)>| {
            let mut tagger = AttackTagger::new(
                model.clone(),
                TaggerConfig {
                    temporal,
                    ..TaggerConfig::default()
                },
            );
            tagger.set_blackouts(blackouts);
            let correlator = CampaignCorrelator::with_tagger(policy.clone(), &tagger);
            let stitched = stitched_sequence_score(
                correlator.replay.as_ref().expect("stitching correlator"),
                &policy,
                &entities,
                &ids,
                SimTime::from_secs(30_000),
                &mut Vec::new(),
            );
            let one = Entity::Address("198.18.0.9".parse().unwrap());
            let mut mass = 0.0;
            for (t, kind, _) in merged {
                mass = tagger
                    .observe_scored(&Alert::new(SimTime::from_secs(t), kind, one))
                    .attack_score;
            }
            assert!(mass > 0.0);
            assert_eq!(stitched.to_bits(), mass.to_bits(), "{stitched} vs {mass}");
            stitched
        };
        let base = TemporalPolicy {
            decay_half_life: policy.decay_half_life,
            session_timeout: None,
            gap_observations: true,
            dedup_window: None,
        };
        let reference = score(base.clone(), Vec::new());
        let variants = [
            (
                "gap observations off",
                TemporalPolicy {
                    gap_observations: false,
                    ..base.clone()
                },
                Vec::new(),
            ),
            (
                "a declared blackout shrinks a gap below its bin edge",
                base.clone(),
                vec![(SimTime::from_secs(10_000), SimTime::from_secs(15_000))],
            ),
            (
                "the tagger's own half-life",
                TemporalPolicy {
                    decay_half_life: Some(SimDuration::from_hours(1)),
                    ..base.clone()
                },
                Vec::new(),
            ),
            (
                "a session timeout inside the merged sequence",
                TemporalPolicy {
                    session_timeout: Some(SimDuration::from_hours(3)),
                    ..base.clone()
                },
                Vec::new(),
            ),
        ];
        for (what, temporal, blackouts) in variants {
            let stitched = score(temporal, blackouts);
            assert_ne!(
                stitched.to_bits(),
                reference.to_bits(),
                "{what} moves the score"
            );
        }
    }
}
