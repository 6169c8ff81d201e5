//! Adversarial mutation engine and campaign driver.
//!
//! The clean family templates of [`crate::library`] replay the *textbook*
//! attacks; real incident corpora are dominated by mutated variants —
//! steps skipped or reordered, benign activity interleaved to dilute the
//! detector's posterior, low-and-slow timing dilation, decoy sessions, and
//! lateral campaigns that hop entities mid-attack. This module generates
//! those variants deterministically from a [`SimRng`]:
//!
//! - [`KillChain`] — per-template ordering invariants (contiguous
//!   same-phase runs may permute internally; phases never run backwards;
//!   damage steps stay terminal). Every mutation respects them by
//!   construction, and [`KillChain::validate`] re-checks any emitted
//!   sequence (the property-test hook).
//! - [`mutate_template`] — one mutated session plan from a template:
//!   step dropping, same-rank adjacent reordering, benign/noise
//!   interleaving, timing dilation, and multi-entity lateral splits.
//! - [`generate_campaign`] — multiplexes hundreds of mutated sessions
//!   (plus optional [`crate::stream`] background load) into one
//!   time-ordered [`LogRecord`] stream with full ground truth
//!   ([`CampaignGroundTruth`]) for the evaluation harness.
//!
//! Sessions are rendered as Zeek notice records carrying the alert symbol
//! (`Site::alert_*` custom notices — the paper's "new alerts ... being
//! improved and incorporated into Zeek policies"), so each session keys to
//! one `Entity::Address` per hop and replays through the full symbolize →
//! filter → detect pipeline, not around it.

use std::net::Ipv4Addr;

use alertlib::taxonomy::AlertKind;
use serde::{Deserialize, Serialize};
use simnet::intern::Sym;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use telemetry::record::{LogRecord, NoticeKind, NoticeRecord};

use crate::stream::{record_stream, RecordStreamConfig};
use crate::template::AttackTemplate;

/// Mutation knobs. All probabilities are per-session or per-step as noted;
/// everything is driven by the caller's [`SimRng`], so a campaign is
/// byte-identical under the same seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MutationConfig {
    /// Per-step probability of dropping a droppable step (never the first
    /// step, never a damage step when [`force_damage`](Self::force_damage)).
    pub drop_prob: f64,
    /// Per-adjacent-pair probability of swapping two retained steps of the
    /// same kill-chain rank.
    pub swap_prob: f64,
    /// Maximum benign/noise steps interleaved into the session (the count
    /// is drawn uniformly in `0..=noise_steps`).
    pub noise_steps: usize,
    /// Inter-step delay multiplier (low-and-slow evasion); `1.0` keeps the
    /// template's timing model, larger values stretch the session.
    pub dilation: f64,
    /// Per-session probability the session is a *decoy*: an
    /// attacker-controlled entity emitting only benign-shaped activity.
    pub decoy_prob: f64,
    /// Per-session probability the (non-decoy) session becomes a lateral
    /// campaign split across multiple entities.
    pub lateral_prob: f64,
    /// Maximum entities a lateral campaign pivots through (≥ 2 to have any
    /// effect; the count is drawn in `2..=max_lateral_entities`).
    pub max_lateral_entities: usize,
    /// Force the template's damage steps (critical severity) to occur so
    /// every attack session has a preemption anchor; otherwise they keep
    /// their template probability.
    pub force_damage: bool,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            drop_prob: 0.25,
            swap_prob: 0.35,
            noise_steps: 4,
            dilation: 1.0,
            decoy_prob: 0.1,
            lateral_prob: 0.25,
            max_lateral_entities: 3,
            force_damage: true,
        }
    }
}

/// Kill-chain ordering invariants of one template.
///
/// Each template step gets a *rank*: the index of the contiguous run of
/// equal [`Phase`](alertlib::taxonomy::Phase) values it belongs to. A legal
/// mutation may drop steps or permute steps *within* a rank, but the rank
/// sequence of the surviving steps must stay non-decreasing, and no
/// non-critical step may follow a critical (damage) step.
#[derive(Debug, Clone, PartialEq)]
pub struct KillChain {
    kinds: Vec<AlertKind>,
    ranks: Vec<u32>,
}

impl KillChain {
    /// Derive the invariants from a template.
    pub fn of(template: &AttackTemplate) -> KillChain {
        let kinds: Vec<AlertKind> = template.steps.iter().map(|s| s.kind).collect();
        let mut ranks = Vec::with_capacity(kinds.len());
        let mut rank = 0u32;
        for (i, k) in kinds.iter().enumerate() {
            if i > 0 && k.phase() != kinds[i - 1].phase() {
                rank += 1;
            }
            ranks.push(rank);
        }
        KillChain { kinds, ranks }
    }

    /// Rank of template step `i`.
    pub fn rank(&self, step: usize) -> u32 {
        self.ranks[step]
    }

    /// Check an emitted sequence of template step indices against the
    /// invariants: ranks non-decreasing, and nothing after a damage step.
    /// Returns the first violating position, or `None` if legal.
    pub fn validate(&self, step_indices: &[usize]) -> Option<usize> {
        let mut prev_rank = 0u32;
        let mut damage_seen = false;
        for (pos, &i) in step_indices.iter().enumerate() {
            if damage_seen {
                return Some(pos);
            }
            let r = self.ranks[i];
            if r < prev_rank {
                return Some(pos);
            }
            prev_rank = r;
            if self.kinds[i].is_critical() {
                damage_seen = true;
            }
        }
        None
    }
}

/// Where a planned step came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepOrigin {
    /// Template step (index into the family template).
    Template { index: usize },
    /// Interleaved benign/noise cover activity.
    Cover,
    /// Decoy-session activity (no underlying attack).
    Decoy,
}

/// One planned step of a mutated session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedStep {
    /// Offset from the session start.
    pub offset: SimDuration,
    pub kind: AlertKind,
    /// Index into [`MutatedSession::entities`] (lateral hop).
    pub entity: usize,
    pub origin: StepOrigin,
}

/// A fully planned mutated session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MutatedSession {
    pub id: usize,
    pub family: String,
    pub start: SimTime,
    pub decoy: bool,
    /// The attacker-controlled source addresses, in hop order.
    pub entities: Vec<Ipv4Addr>,
    /// Victim address carried on the emitted notices.
    pub victim: Ipv4Addr,
    /// Time-ordered steps (offsets non-decreasing).
    pub steps: Vec<PlannedStep>,
}

impl MutatedSession {
    /// Timestamp of the first damage (critical) template step, if any.
    pub fn damage_ts(&self) -> Option<SimTime> {
        self.steps
            .iter()
            .find(|s| matches!(s.origin, StepOrigin::Template { .. }) && s.kind.is_critical())
            .map(|s| self.start.saturating_add(s.offset))
    }

    /// Entity keys in hop order (matching `Entity::Address(ip).key()`).
    pub fn entity_keys(&self) -> Vec<String> {
        self.entities
            .iter()
            .map(|ip| format!("addr:{ip}"))
            .collect()
    }

    /// The emitted template step indices, in order (property-test hook for
    /// [`KillChain::validate`]).
    pub fn template_step_indices(&self) -> Vec<usize> {
        self.steps
            .iter()
            .filter_map(|s| match s.origin {
                StepOrigin::Template { index } => Some(index),
                _ => None,
            })
            .collect()
    }

    /// Render the session as time-ordered notice records.
    pub fn records(&self) -> Vec<LogRecord> {
        let mut out = Vec::with_capacity(self.steps.len());
        self.records_into(&mut out, &mut String::new());
        out
    }

    /// Append the session's notice records to `out`, reusing `scratch`
    /// for the formatted message — the campaign generator's scratch-buffer
    /// path (one `String` serves every session of a campaign).
    pub fn records_into(&self, out: &mut Vec<LogRecord>, scratch: &mut String) {
        self.records_into_scoped(&simnet::intern::SymScope::global(), out, scratch)
    }

    /// [`MutatedSession::records_into`] minting symbols into an explicit
    /// scope.
    pub fn records_into_scoped(
        &self,
        scope: &simnet::intern::SymScope,
        out: &mut Vec<LogRecord>,
        scratch: &mut String,
    ) {
        use std::fmt::Write as _;
        let family: Sym = scope.sym(self.family.as_str());
        out.reserve(self.steps.len());
        for s in &self.steps {
            let symbol = s.kind.symbol();
            scratch.clear();
            let _ = write!(scratch, "campaign session {} {}", self.id, symbol);
            out.push(LogRecord::Notice(NoticeRecord {
                ts: self.start.saturating_add(s.offset),
                note: NoticeKind::Custom(scope.sym(symbol)),
                msg: scope.sym(scratch.as_str()),
                src: self.entities[s.entity],
                dst: Some(self.victim),
                sub: family,
            }));
        }
    }
}

/// Benign-shaped kinds for cover traffic and decoys: admitted by the scan
/// filter (Info severity is never deduplicated) and observed by the
/// per-entity detectors, so they genuinely dilute the posterior.
const COVER_KINDS: &[AlertKind] = &[
    AlertKind::LoginSuccess,
    AlertKind::JobSubmit,
    AlertKind::FileTransfer,
    AlertKind::SoftwareInstall,
    AlertKind::LoginFailed,
    AlertKind::PortScan,
];

/// Decoy sessions replay benign workflows only.
const DECOY_KINDS: &[AlertKind] = &[
    AlertKind::LoginSuccess,
    AlertKind::JobSubmit,
    AlertKind::JobSubmit,
    AlertKind::FileTransfer,
    AlertKind::CompileSource,
    AlertKind::SoftwareInstall,
];

/// Mutate one template into a session plan. `entities` are the attacker
/// addresses available to the session (the first is always used; lateral
/// campaigns use more). Deterministic in `rng`.
pub fn mutate_template(
    id: usize,
    template: &AttackTemplate,
    cfg: &MutationConfig,
    start: SimTime,
    entities: Vec<Ipv4Addr>,
    victim: Ipv4Addr,
    rng: &mut SimRng,
) -> MutatedSession {
    assert!(!entities.is_empty(), "session needs at least one entity");
    assert!(
        cfg.dilation >= 1.0,
        "dilation must be >= 1.0 (low-and-slow)"
    );
    let chain = KillChain::of(template);

    // 1. Keep/drop pass. The first step is the session's observable entry
    //    point and is always kept; damage steps follow `force_damage`;
    //    everything else honours its template probability and then the
    //    mutation drop probability.
    let mut kept: Vec<usize> = Vec::with_capacity(template.steps.len());
    for (i, step) in template.steps.iter().enumerate() {
        let keep = if i == 0 {
            true
        } else if step.kind.is_critical() {
            cfg.force_damage || rng.chance(step.probability)
        } else {
            let realized = step.probability >= 1.0 || rng.chance(step.probability);
            realized && !rng.chance(cfg.drop_prob)
        };
        if keep {
            kept.push(i);
        }
    }
    // An attack that drops its whole middle is unobservable; keep the first
    // two non-critical template steps as a floor.
    let non_critical = template
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.kind.is_critical())
        .map(|(i, _)| i)
        .take(2);
    for i in non_critical {
        if !kept.contains(&i) {
            kept.push(i);
            kept.sort_unstable();
        }
    }
    // Damage stays terminal for *any* template (the built-in eight end on
    // their critical step, but callers may supply templates that don't):
    // truncate everything after the first kept critical step.
    if let Some(pos) = kept
        .iter()
        .position(|&i| template.steps[i].kind.is_critical())
    {
        kept.truncate(pos + 1);
    }

    // 2. Reorder pass: adjacent swaps within equal kill-chain rank (never
    //    across ranks, never involving a damage step), so the invariants
    //    hold by construction.
    for pos in 0..kept.len().saturating_sub(1) {
        let (a, b) = (kept[pos], kept[pos + 1]);
        if chain.rank(a) == chain.rank(b)
            && !template.steps[a].kind.is_critical()
            && !template.steps[b].kind.is_critical()
            && rng.chance(cfg.swap_prob)
        {
            kept.swap(pos, pos + 1);
        }
    }

    // 3. Timing: per-step delays from the template models, dilated.
    //    Saturating accumulation: extreme dilation × a heavy-tailed delay
    //    can reach the end of representable time, and must clamp there
    //    rather than wrap the session backwards.
    let mut steps: Vec<PlannedStep> = Vec::with_capacity(kept.len() + cfg.noise_steps);
    let mut t = SimDuration::ZERO;
    for &i in &kept {
        t = t.saturating_add(template.steps[i].delay.sample(rng).mul_f64(cfg.dilation));
        steps.push(PlannedStep {
            offset: t,
            kind: template.steps[i].kind,
            entity: 0,
            origin: StepOrigin::Template { index: i },
        });
    }
    let span = t;

    // 4. Lateral split: divide the attack steps into contiguous segments,
    //    one entity per segment (all alerts of one hop key to one entity,
    //    so detection must re-accumulate evidence after every pivot).
    let hops = if entities.len() >= 2 && rng.chance(cfg.lateral_prob) {
        2 + rng.index(entities.len().max(2) - 1)
    } else {
        1
    };
    let hops = hops.min(entities.len()).min(steps.len().max(1));
    if hops > 1 {
        let per = steps.len().div_ceil(hops);
        for (j, s) in steps.iter_mut().enumerate() {
            s.entity = (j / per).min(hops - 1);
        }
    }

    // 5. Cover interleave: benign/noise steps at uniform fractions of the
    //    session span, attributed to the hop active at that time.
    let cover_n = if cfg.noise_steps > 0 {
        rng.index(cfg.noise_steps + 1)
    } else {
        0
    };
    for _ in 0..cover_n {
        let frac = rng.f64();
        let offset = span.mul_f64(frac);
        let entity = steps
            .iter()
            .rev()
            .find(|s| s.offset <= offset && matches!(s.origin, StepOrigin::Template { .. }))
            .map(|s| s.entity)
            .unwrap_or(0);
        let kind = *rng.pick(COVER_KINDS);
        steps.push(PlannedStep {
            offset,
            kind,
            entity,
            origin: StepOrigin::Cover,
        });
    }
    steps.sort_by_key(|s| s.offset);

    MutatedSession {
        id,
        family: template.family.clone(),
        start,
        decoy: false,
        entities: entities.into_iter().take(hops.max(1)).collect(),
        victim,
        steps,
    }
}

/// Plan a decoy session: benign-shaped activity from a fresh entity.
pub fn decoy_session(
    id: usize,
    cfg: &MutationConfig,
    start: SimTime,
    entity: Ipv4Addr,
    victim: Ipv4Addr,
    rng: &mut SimRng,
) -> MutatedSession {
    let n = 3 + rng.index(DECOY_KINDS.len());
    let mut t = SimDuration::ZERO;
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        t = t.saturating_add(
            SimDuration::from_secs(30 + rng.range_u64(0, 3_600)).mul_f64(cfg.dilation),
        );
        steps.push(PlannedStep {
            offset: t,
            kind: *rng.pick(DECOY_KINDS),
            entity: 0,
            origin: StepOrigin::Decoy,
        });
    }
    MutatedSession {
        id,
        family: "decoy".to_string(),
        start,
        decoy: true,
        entities: vec![entity],
        victim,
        steps,
    }
}

/// Campaign shape: how many sessions, over which window, against which
/// family templates, mixed with how much background load.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub start: SimTime,
    /// Window session starts are spread over (sessions overlap freely).
    pub horizon: SimDuration,
    /// Total sessions (attack + decoy).
    pub sessions: usize,
    /// Family templates cycled round-robin (default: the standard eight).
    pub families: Vec<AttackTemplate>,
    pub mutation: MutationConfig,
    /// Optional `scenario::stream` background load interleaved into the
    /// campaign stream (scored as the false-positive denominator).
    pub background: Option<RecordStreamConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            start: SimTime::from_date(2024, 10, 1),
            horizon: SimDuration::from_days(7),
            sessions: 200,
            families: crate::library::standard_library(),
            mutation: MutationConfig::default(),
            background: None,
        }
    }
}

/// Ground truth for one campaign session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTruth {
    pub id: usize,
    pub family: String,
    pub decoy: bool,
    /// `Entity::key()` strings of every hop.
    pub entity_keys: Vec<String>,
    pub start: SimTime,
    /// First damage-step timestamp (the preemption deadline).
    pub damage_ts: Option<SimTime>,
    /// All attack (template) steps, time-ordered — the record-based
    /// lead-time ruler.
    pub steps: Vec<(SimTime, AlertKind)>,
    /// Inter-step gaps between consecutive attack steps, in seconds
    /// (`steps.len() - 1` entries; empty below two steps) — the realized
    /// tempo of the session, which the detection-vs-dilation curves plot
    /// the recovery against.
    #[serde(default)]
    pub step_gap_secs: Vec<f64>,
    /// Per-step hop index into `entity_keys` (parallel to `steps`): which
    /// lateral-split entity emitted each attack step. All zeros for
    /// unsplit sessions; the campaign-correlation evaluation uses this to
    /// attribute detections to hops.
    #[serde(default)]
    pub step_entities: Vec<usize>,
}

impl SessionTruth {
    /// Mean realized inter-step gap, seconds (0 below two steps).
    pub fn mean_step_gap_secs(&self) -> f64 {
        if self.step_gap_secs.is_empty() {
            return 0.0;
        }
        self.step_gap_secs.iter().sum::<f64>() / self.step_gap_secs.len() as f64
    }

    /// Largest realized inter-step gap, seconds (0 below two steps).
    pub fn max_step_gap_secs(&self) -> f64 {
        self.step_gap_secs.iter().copied().fold(0.0, f64::max)
    }
}

/// Ground truth for a whole campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignGroundTruth {
    pub sessions: Vec<SessionTruth>,
    /// Background records interleaved (the FP-rate denominator).
    pub background_records: u64,
    /// The timing-dilation factor the campaign was generated with
    /// (`MutationConfig::dilation`) — carried so an evaluation scored
    /// against this truth is a self-describing point on a
    /// detection-vs-dilation curve.
    #[serde(default = "default_dilation")]
    pub dilation: f64,
}

// Referenced by the `serde(default = ...)` attribute; the offline serde
// shim's derive does not expand it, hence the explicit allow.
#[allow(dead_code)]
fn default_dilation() -> f64 {
    1.0
}

impl Default for CampaignGroundTruth {
    fn default() -> Self {
        CampaignGroundTruth {
            sessions: Vec::new(),
            background_records: 0,
            dilation: 1.0,
        }
    }
}

impl CampaignGroundTruth {
    /// Entity keys belonging to real (non-decoy) attack sessions.
    pub fn attack_entity_keys(&self) -> std::collections::HashSet<&str> {
        self.sessions
            .iter()
            .filter(|s| !s.decoy)
            .flat_map(|s| s.entity_keys.iter().map(String::as_str))
            .collect()
    }

    /// Entity keys belonging to decoy sessions.
    pub fn decoy_entity_keys(&self) -> std::collections::HashSet<&str> {
        self.sessions
            .iter()
            .filter(|s| s.decoy)
            .flat_map(|s| s.entity_keys.iter().map(String::as_str))
            .collect()
    }
}

/// A generated campaign: one merged, time-ordered record stream plus the
/// ground truth to score any pipeline run against.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    pub records: Vec<LogRecord>,
    pub truth: CampaignGroundTruth,
}

/// Campaign entity addresses come from 198.18.0.0/15 (the benchmarking
/// range): disjoint from both the scanner pools and the internal networks
/// of `scenario::stream`, so session entities never collide with
/// background entities.
pub(crate) fn campaign_entity_addr(n: u32) -> Ipv4Addr {
    let base = u32::from_be_bytes([198, 18, 0, 0]);
    Ipv4Addr::from(base + 1 + (n % ((1 << 17) - 2)))
}

/// Generate a campaign: `cfg.sessions` mutated/decoy sessions multiplexed
/// with the optional background stream into one time-ordered record
/// stream. Deterministic in `rng` (fork-isolated per subsystem, so session
/// structure is independent of background volume).
pub fn generate_campaign(cfg: &CampaignConfig, rng: &mut SimRng) -> Campaign {
    assert!(!cfg.families.is_empty(), "campaign needs templates");
    let mut session_rng = rng.fork(0x5E55);
    let mut background_rng = rng.fork(0xBAC6);

    let mut records: Vec<LogRecord> = Vec::new();
    let mut truth = CampaignGroundTruth {
        dilation: cfg.mutation.dilation,
        ..CampaignGroundTruth::default()
    };
    let mut entity_counter = 0u32;
    let mut scratch = String::new();
    let horizon_ns = cfg.horizon.as_nanos().max(1);

    for id in 0..cfg.sessions {
        let start = cfg.start + SimDuration::from_nanos(session_rng.range_u64(0, horizon_ns));
        let victim = simnet::addr::ncsa_production().nth(session_rng.range_u64(256, 60_000));
        let session = if session_rng.chance(cfg.mutation.decoy_prob) {
            let entity = campaign_entity_addr(entity_counter);
            entity_counter += 1;
            decoy_session(id, &cfg.mutation, start, entity, victim, &mut session_rng)
        } else {
            let template = &cfg.families[id % cfg.families.len()];
            let entities: Vec<Ipv4Addr> = (0..cfg.mutation.max_lateral_entities.max(1))
                .map(|j| campaign_entity_addr(entity_counter + j as u32))
                .collect();
            entity_counter += entities.len() as u32;
            mutate_template(
                id,
                template,
                &cfg.mutation,
                start,
                entities,
                victim,
                &mut session_rng,
            )
        };
        session.records_into(&mut records, &mut scratch);
        let steps: Vec<(SimTime, AlertKind)> = session
            .steps
            .iter()
            .filter(|s| matches!(s.origin, StepOrigin::Template { .. }))
            .map(|s| (session.start.saturating_add(s.offset), s.kind))
            .collect();
        let step_gap_secs: Vec<f64> = steps
            .windows(2)
            .map(|w| w[1].0.saturating_since(w[0].0).as_secs_f64())
            .collect();
        let step_entities: Vec<usize> = session
            .steps
            .iter()
            .filter(|s| matches!(s.origin, StepOrigin::Template { .. }))
            .map(|s| s.entity)
            .collect();
        truth.sessions.push(SessionTruth {
            id: session.id,
            family: session.family.clone(),
            decoy: session.decoy,
            entity_keys: session.entity_keys(),
            start: session.start,
            damage_ts: session.damage_ts(),
            steps,
            step_gap_secs,
            step_entities,
        });
    }

    if let Some(bcfg) = &cfg.background {
        let background = record_stream(bcfg, &mut background_rng);
        truth.background_records = background.len() as u64;
        records.extend(background);
    }
    records.sort_by_key(|r| r.ts());
    Campaign { records, truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::standard_library;

    fn small_cfg(sessions: usize) -> CampaignConfig {
        CampaignConfig {
            sessions,
            horizon: SimDuration::from_hours(12),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn kill_chain_ranks_follow_phase_runs() {
        let lib = standard_library();
        let chain = KillChain::of(&lib[0]);
        // Ranks start at 0 and rise by at most 1 per step.
        assert_eq!(chain.rank(0), 0);
        for i in 1..lib[0].steps.len() {
            assert!(chain.rank(i) >= chain.rank(i - 1));
            assert!(chain.rank(i) - chain.rank(i - 1) <= 1);
        }
        // The identity order is always legal.
        let all: Vec<usize> = (0..lib[0].steps.len()).collect();
        assert_eq!(chain.validate(&all), None);
        // A backwards rank jump is flagged.
        let last = lib[0].steps.len() - 1;
        assert!(chain.validate(&[last, 0]).is_some());
    }

    #[test]
    fn mutated_sessions_respect_kill_chain() {
        let lib = standard_library();
        let cfg = MutationConfig::default();
        let mut rng = SimRng::seed(11);
        for trial in 0..200 {
            let template = &lib[trial % lib.len()];
            let chain = KillChain::of(template);
            let s = mutate_template(
                trial,
                template,
                &cfg,
                SimTime::from_date(2024, 10, 1),
                vec![campaign_entity_addr(trial as u32 * 4)],
                "141.142.2.9".parse().unwrap(),
                &mut rng,
            );
            let indices = s.template_step_indices();
            assert!(indices.len() >= 2, "floor of two attack steps");
            assert_eq!(
                chain.validate(&indices),
                None,
                "{}: illegal order {indices:?}",
                template.family
            );
            for w in s.steps.windows(2) {
                assert!(w[1].offset >= w[0].offset, "time-ordered");
            }
        }
    }

    #[test]
    fn force_damage_gives_every_attack_session_a_deadline() {
        let cfg = small_cfg(60);
        let campaign = generate_campaign(&cfg, &mut SimRng::seed(3));
        for s in campaign.truth.sessions.iter().filter(|s| !s.decoy) {
            assert!(
                s.damage_ts.is_some(),
                "session {} ({}) lacks a damage step",
                s.id,
                s.family
            );
            assert!(s.damage_ts.unwrap() >= s.start);
        }
        assert!(
            campaign.truth.sessions.iter().any(|s| s.decoy),
            "decoys present at default decoy_prob"
        );
    }

    #[test]
    fn campaign_is_deterministic_and_ordered() {
        let mut cfg = small_cfg(40);
        cfg.background = Some(RecordStreamConfig {
            scan_records: 500,
            benign_flows: 200,
            exec_records: 300,
            users: 40,
            ..RecordStreamConfig::default()
        });
        let a = generate_campaign(&cfg, &mut SimRng::seed(9));
        let b = generate_campaign(&cfg, &mut SimRng::seed(9));
        assert_eq!(a, b, "same seed, byte-identical campaign");
        assert_eq!(a.truth.background_records, 1_000);
        assert!(a.records.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        assert!(a.records.len() > 1_000);
    }

    #[test]
    fn lateral_sessions_split_across_entities() {
        let mut cfg = MutationConfig {
            lateral_prob: 1.0,
            decoy_prob: 0.0,
            ..MutationConfig::default()
        };
        cfg.max_lateral_entities = 3;
        let lib = standard_library();
        let mut rng = SimRng::seed(21);
        let mut saw_multi = false;
        for trial in 0..20 {
            let s = mutate_template(
                trial,
                &lib[1],
                &cfg,
                SimTime::from_date(2024, 10, 1),
                (0..3)
                    .map(|j| campaign_entity_addr(trial as u32 * 8 + j))
                    .collect(),
                "141.142.2.9".parse().unwrap(),
                &mut rng,
            );
            if s.entities.len() > 1 {
                saw_multi = true;
                // Hop index is non-decreasing over the attack steps
                // (contiguous segments).
                let hops: Vec<usize> = s
                    .steps
                    .iter()
                    .filter(|st| matches!(st.origin, StepOrigin::Template { .. }))
                    .map(|st| st.entity)
                    .collect();
                assert!(hops.windows(2).all(|w| w[1] >= w[0]));
                assert!(*hops.last().unwrap() < s.entities.len());
            }
        }
        assert!(
            saw_multi,
            "lateral_prob=1.0 must produce multi-hop sessions"
        );
    }

    #[test]
    fn damage_stays_terminal_for_mid_template_criticals() {
        use crate::template::{Delay, Step};
        // A pathological caller-supplied template: the critical step sits
        // mid-template with attack steps after it. The mutation engine
        // must still emit a kill-chain-legal session (damage terminal).
        let template = AttackTemplate::new(
            "pathological",
            vec![
                Step::always(AlertKind::PortScan, Delay::automated()),
                Step::always(AlertKind::DownloadSensitive, Delay::manual()),
                Step::always(AlertKind::PrivilegeEscalation, Delay::manual()), // critical
                Step::always(AlertKind::LogWipe, Delay::manual()),
                Step::always(AlertKind::HistoryCleared, Delay::manual()),
            ],
        );
        let chain = KillChain::of(&template);
        let mut rng = SimRng::seed(31);
        for trial in 0..100 {
            let s = mutate_template(
                trial,
                &template,
                &MutationConfig::default(),
                SimTime::from_date(2024, 10, 1),
                vec![campaign_entity_addr(trial as u32)],
                "141.142.2.9".parse().unwrap(),
                &mut rng,
            );
            let indices = s.template_step_indices();
            assert_eq!(chain.validate(&indices), None, "illegal order {indices:?}");
            assert_eq!(
                s.damage_ts().map(|t| t >= s.start),
                Some(true),
                "forced damage present"
            );
            let last = *indices.last().unwrap();
            assert!(
                template.steps[last].kind.is_critical(),
                "damage must be the terminal template step: {indices:?}"
            );
        }
    }

    #[test]
    fn dilation_stretches_without_reordering() {
        let lib = standard_library();
        let slow_cfg = MutationConfig {
            dilation: 24.0,
            ..MutationConfig::default()
        };
        let fast = mutate_template(
            0,
            &lib[0],
            &MutationConfig::default(),
            SimTime::from_date(2024, 10, 1),
            vec![campaign_entity_addr(0)],
            "141.142.2.9".parse().unwrap(),
            &mut SimRng::seed(5),
        );
        let slow = mutate_template(
            0,
            &lib[0],
            &slow_cfg,
            SimTime::from_date(2024, 10, 1),
            vec![campaign_entity_addr(0)],
            "141.142.2.9".parse().unwrap(),
            &mut SimRng::seed(5),
        );
        // Same structural choices (same rng stream), stretched timing.
        assert_eq!(fast.template_step_indices(), slow.template_step_indices());
        let span = |s: &MutatedSession| s.steps.last().unwrap().offset.as_secs_f64();
        assert!(span(&slow) > span(&fast) * 20.0, "low-and-slow stretches");
        assert!(slow.steps.windows(2).all(|w| w[1].offset >= w[0].offset));
    }

    #[test]
    fn dilation_composes_with_clock_skew_faults() {
        use crate::faults::{apply_fault_plan, ClockSkewConfig, FaultPlan};
        // A low-and-slow campaign run through the clock-fault injector:
        // the faulted stream keeps every record, moves each timestamp by
        // at most max_skew + jitter, never underflows the epoch, and is
        // reproducible draw for draw.
        let mut cfg = small_cfg(12);
        cfg.mutation.dilation = 16.0;
        let campaign = generate_campaign(&cfg, &mut SimRng::seed(27));
        assert_eq!(campaign.truth.dilation, 16.0);
        let max_skew = SimDuration::from_mins(20);
        let jitter = SimDuration::from_secs(90);
        let plan = FaultPlan::clean(41).with_clock(ClockSkewConfig { max_skew, jitter });
        let (out, stats) = apply_fault_plan(&plan, &campaign.records);
        assert_eq!(
            out.len(),
            campaign.records.len(),
            "clock faults lose nothing"
        );
        assert!(stats.skewed > 0 && stats.skewed as usize <= out.len());
        let bound = (max_skew.saturating_add(jitter)).as_nanos() as i128;
        for (orig, faulted) in campaign.records.iter().zip(&out) {
            let delta = faulted.ts().as_nanos() as i128 - orig.ts().as_nanos() as i128;
            assert!(delta.abs() <= bound, "skew bounded: {delta}");
            assert!(faulted.ts() >= SimTime::EPOCH);
        }
        let (again, _) = apply_fault_plan(&plan, &campaign.records);
        assert_eq!(out, again, "dilated + skewed stream replays identically");
    }

    #[test]
    fn session_records_symbolize_back_to_planned_kinds() {
        let lib = standard_library();
        let s = mutate_template(
            7,
            &lib[2],
            &MutationConfig::default(),
            SimTime::from_date(2024, 10, 1),
            vec![campaign_entity_addr(40)],
            "141.142.2.9".parse().unwrap(),
            &mut SimRng::seed(13),
        );
        let mut sym = alertlib::Symbolizer::with_defaults();
        let mut alerts = Vec::new();
        for r in s.records() {
            sym.symbolize_into(&r, &mut alerts);
        }
        assert_eq!(alerts.len(), s.steps.len(), "one alert per planned step");
        for (a, st) in alerts.iter().zip(&s.steps) {
            assert_eq!(a.kind, st.kind);
            assert_eq!(
                a.entity.key().as_str(),
                format!("addr:{}", s.entities[st.entity])
            );
        }
    }
}
