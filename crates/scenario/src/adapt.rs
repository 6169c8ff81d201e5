//! Closed-loop adaptive attackers.
//!
//! [`crate::mutate`] samples its knobs blindly: a campaign draws one
//! [`MutationConfig`] and replays open-loop, so an evaluation over it
//! measures *average* evasion. A motivated adversary does neither — they
//! search the knob space for the variant the defense misses, and they
//! watch the defense respond mid-attack. This module supplies both
//! attacker layers, fully deterministic under a seed:
//!
//! - [`AdaptiveSearch`] — a seeded hill-climbing optimizer over
//!   [`MutationConfig`]. Each probe proposes a one-knob perturbation of
//!   the best config found so far; the caller scores it (missed damage
//!   from an `EvalReport`) and feeds the score back. The converged best
//!   config is one point on the per-family **worst-case robustness
//!   frontier**.
//! - [`FeedbackTap`] — a shared, thread-safe channel the testbed's
//!   response stage publishes block *decisions* into. This is the
//!   attacker's observation surface: a blocked source is exactly what a
//!   real adversary sees (their connections stop landing).
//! - [`ReactiveGenerator`] — a mid-stream campaign generator that plans
//!   sessions exactly like [`generate_campaign`](crate::mutate::generate_campaign),
//!   emits records up to a time cursor, and *reacts* to observed blocks
//!   under a [`ReactivePolicy`]: rotating the blocked hop to a fresh
//!   source entity, stretching the remaining tempo, and optionally
//!   re-splitting the tail across an extra entity. Ground truth tracks
//!   every rotation, so the evaluation harness attributes detections on
//!   rotated entities to their session instead of counting them as
//!   background false positives.

use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

use alertlib::taxonomy::AlertKind;
use simnet::intern::SymScope;
use simnet::rng::{FxHashSet, SimRng};
use simnet::time::{SimDuration, SimTime};
use telemetry::record::{LogRecord, NoticeKind, NoticeRecord};

use crate::mutate::{
    campaign_entity_addr, decoy_session, mutate_template, CampaignConfig, CampaignGroundTruth,
    MutatedSession, MutationConfig, SessionTruth, StepOrigin,
};
use crate::stream::record_stream;

/// Bounds of the hill-climbing search over [`MutationConfig`]. Every
/// proposal stays inside these ranges, so the optimizer cannot wander
/// into configs the mutation engine rejects (`dilation < 1.0`) or that
/// trivialize the campaign (all-decoy, all-dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    pub drop_prob: (f64, f64),
    pub swap_prob: (f64, f64),
    /// Upper bound on `noise_steps` (lower bound is 0).
    pub max_noise_steps: usize,
    /// Dilation range; the lower bound must be ≥ 1.0.
    pub dilation: (f64, f64),
    pub decoy_prob: (f64, f64),
    pub lateral_prob: (f64, f64),
    /// Upper bound on `max_lateral_entities` (lower bound is 1).
    pub max_lateral_entities: usize,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            drop_prob: (0.0, 0.6),
            swap_prob: (0.0, 0.8),
            max_noise_steps: 8,
            dilation: (1.0, 24.0),
            decoy_prob: (0.0, 0.4),
            lateral_prob: (0.0, 1.0),
            max_lateral_entities: 4,
        }
    }
}

/// Seeded hill-climbing optimizer over [`MutationConfig`].
///
/// Protocol: call [`propose`](Self::propose), evaluate the returned
/// config (one campaign probe), then call [`observe`](Self::observe)
/// with the attacker's score (higher = more damage missed by the
/// defense). The first proposal is always the base config, so the
/// baseline is probe 0 of every search. `force_damage` is pinned: every
/// probe keeps its preemption anchor, otherwise "missed damage" is
/// unmeasurable.
#[derive(Debug, Clone)]
pub struct AdaptiveSearch {
    space: SearchSpace,
    rng: SimRng,
    best: MutationConfig,
    best_score: f64,
    candidate: Option<MutationConfig>,
    probes: usize,
    accepted: usize,
}

impl AdaptiveSearch {
    pub fn new(base: MutationConfig, space: SearchSpace, seed: u64) -> AdaptiveSearch {
        assert!(space.dilation.0 >= 1.0, "dilation lower bound must be >= 1");
        let mut base = base;
        base.force_damage = true;
        base.dilation = base.dilation.clamp(space.dilation.0, space.dilation.1);
        AdaptiveSearch {
            space,
            rng: SimRng::seed(seed),
            best: base,
            best_score: f64::NEG_INFINITY,
            candidate: None,
            probes: 0,
            accepted: 0,
        }
    }

    /// The next config to probe. Must be followed by one
    /// [`observe`](Self::observe) before the next proposal.
    pub fn propose(&mut self) -> MutationConfig {
        assert!(
            self.candidate.is_none(),
            "propose() called twice without observe()"
        );
        let c = if self.probes == 0 {
            self.best.clone()
        } else {
            self.perturb()
        };
        self.candidate = Some(c.clone());
        c
    }

    /// Score the outstanding proposal (higher = better for the
    /// attacker). Greedy accept: the proposal replaces the incumbent
    /// only on strict improvement, so ties keep the earlier (and under a
    /// fixed seed, reproducible) config.
    pub fn observe(&mut self, score: f64) {
        let c = self
            .candidate
            .take()
            .expect("observe() without a pending propose()");
        self.probes += 1;
        if score > self.best_score {
            self.best = c;
            self.best_score = score;
            self.accepted += 1;
        }
    }

    /// One-knob neighborhood move around the incumbent.
    fn perturb(&mut self) -> MutationConfig {
        let mut c = self.best.clone();
        let s = &self.space;
        match self.rng.index(7) {
            0 => {
                let d = self.rng.uniform(-0.15, 0.15);
                c.drop_prob = (c.drop_prob + d).clamp(s.drop_prob.0, s.drop_prob.1);
            }
            1 => {
                let d = self.rng.uniform(-0.2, 0.2);
                c.swap_prob = (c.swap_prob + d).clamp(s.swap_prob.0, s.swap_prob.1);
            }
            2 => {
                let step = self.rng.index(5) as i64 - 2;
                let n = (c.noise_steps as i64 + step).clamp(0, s.max_noise_steps as i64);
                c.noise_steps = n as usize;
            }
            3 => {
                let f = self.rng.uniform(0.6, 1.8);
                c.dilation = (c.dilation * f).clamp(s.dilation.0, s.dilation.1);
            }
            4 => {
                let d = self.rng.uniform(-0.1, 0.1);
                c.decoy_prob = (c.decoy_prob + d).clamp(s.decoy_prob.0, s.decoy_prob.1);
            }
            5 => {
                let d = self.rng.uniform(-0.25, 0.25);
                c.lateral_prob = (c.lateral_prob + d).clamp(s.lateral_prob.0, s.lateral_prob.1);
            }
            _ => {
                c.max_lateral_entities = 1 + self.rng.index(s.max_lateral_entities.max(1));
            }
        }
        c.force_damage = true;
        c
    }

    /// Best config found so far (the base config until a probe scores).
    pub fn best(&self) -> &MutationConfig {
        &self.best
    }

    /// Score of the best config (`-inf` before the first observation).
    pub fn best_score(&self) -> f64 {
        self.best_score
    }

    /// Probes observed so far.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Probes that improved on the incumbent (the base probe included).
    pub fn accepted(&self) -> usize {
        self.accepted
    }
}

/// One block decision observed by the attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEvent {
    pub ts: SimTime,
    pub addr: Ipv4Addr,
}

/// Shared feedback channel from the response stage back into the
/// attacker: the defense publishes every block *decision* (the moment a
/// source is chosen for null-routing — what an adversary observes as
/// their connections going dark), and the reactive generator drains the
/// channel at its round boundaries.
///
/// `std::sync` rather than a scenario-crate lock dependency; the tap is
/// cloned into the pipeline and contention is one push per distinct
/// blocked source, so the mutex is never hot. Publishing is a pure side
/// channel: it never perturbs pipeline state, so tapped and untapped
/// runs stay byte-identical.
#[derive(Debug, Clone, Default)]
pub struct FeedbackTap {
    inner: Arc<Mutex<Vec<BlockEvent>>>,
}

impl FeedbackTap {
    pub fn new() -> FeedbackTap {
        FeedbackTap::default()
    }

    /// Record one block decision.
    pub fn publish(&self, ts: SimTime, addr: Ipv4Addr) {
        self.inner
            .lock()
            .expect("feedback tap lock")
            .push(BlockEvent { ts, addr });
    }

    /// Take every event published since the last drain, in publish
    /// order.
    pub fn drain(&self) -> Vec<BlockEvent> {
        std::mem::take(&mut *self.inner.lock().expect("feedback tap lock"))
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("feedback tap lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How the attacker reacts to an observed block on one of its session
/// entities. All reactions apply to *future* (unemitted) steps only —
/// history is immutable, exactly as for a real adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactivePolicy {
    /// Rotate remaining steps of a blocked hop onto a fresh source
    /// entity.
    pub rotate_on_block: bool,
    /// Stretch the remaining inter-step tempo by this factor on each
    /// rotation (`1.0` keeps the tempo; > 1 goes low-and-slow after
    /// being burned).
    pub tempo_factor: f64,
    /// Probability a rotation also re-splits the remaining steps across
    /// a second fresh entity (lateral evasion under pressure).
    pub resplit_prob: f64,
    /// Rotation budget per session (bounds entity churn).
    pub max_rotations: u32,
}

impl Default for ReactivePolicy {
    fn default() -> Self {
        ReactivePolicy {
            rotate_on_block: true,
            tempo_factor: 1.5,
            resplit_prob: 0.5,
            max_rotations: 3,
        }
    }
}

impl ReactivePolicy {
    /// A policy that never reacts — the open-loop reference. A generator
    /// under this policy emits exactly the stream
    /// [`generate_campaign`](crate::mutate::generate_campaign) would.
    pub fn open_loop() -> ReactivePolicy {
        ReactivePolicy {
            rotate_on_block: false,
            tempo_factor: 1.0,
            resplit_prob: 0.0,
            max_rotations: 0,
        }
    }
}

/// Attacker-side accounting of one reactive campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactiveStats {
    /// Planned sessions (attack + decoy).
    pub sessions: usize,
    /// Hop rotations performed (a session may rotate several times).
    pub rotations: u64,
    /// Rotations that also stretched the remaining tempo.
    pub tempo_stretches: u64,
    /// Rotations that re-split the tail across an extra entity.
    pub resplits: u64,
    /// Fresh entities allocated by rotations.
    pub fresh_entities: u64,
}

/// One in-flight session of a reactive campaign.
#[derive(Debug, Clone)]
struct LiveSession {
    session: MutatedSession,
    /// First unemitted step index (steps stay offset-sorted through
    /// every reaction).
    next_step: usize,
    /// Realized template steps: (ts, kind, entity index).
    emitted: Vec<(SimTime, AlertKind, usize)>,
    rotations: u32,
}

impl LiveSession {
    /// Absolute timestamp of step `i`.
    fn step_ts(&self, i: usize) -> SimTime {
        self.session
            .start
            .saturating_add(self.session.steps[i].offset)
    }

    fn finished(&self) -> bool {
        self.next_step >= self.session.steps.len()
    }
}

/// Rotation entities come from the same 198.18.0.0/15 campaign pool but
/// far past any planned allocation (a 240-session campaign with 4-way
/// splits plans under 1 000 entities), so fresh sources never collide
/// with planned ones.
const ROTATION_ENTITY_BASE: u32 = 100_000;

/// Mid-stream campaign generator with a feedback loop.
///
/// Plans sessions with draw-for-draw the same RNG schedule as
/// [`generate_campaign`](crate::mutate::generate_campaign) (fork
/// `0x5E55` for sessions, `0xBAC6` for background), then emits the
/// merged record stream incrementally through
/// [`emit_until`](Self::emit_until). Between rounds the driver feeds
/// observed [`BlockEvent`]s into [`observe_blocks`](Self::observe_blocks)
/// and the attacker reacts per its [`ReactivePolicy`]. Everything is
/// deterministic in `(config, policy, seed, feedback sequence)` — and
/// the feedback itself is deterministic when it comes from a
/// deterministic pipeline, so the whole closed loop replays.
#[derive(Debug, Clone)]
pub struct ReactiveGenerator {
    policy: ReactivePolicy,
    sessions: Vec<LiveSession>,
    background: Vec<LogRecord>,
    bg_next: usize,
    /// Rotation-choice RNG (forked from the campaign seed; drawn from
    /// only on reactions, so the open-loop plan is feedback-independent).
    rng: SimRng,
    next_entity: u32,
    dilation: f64,
    stats: ReactiveStats,
    scratch: String,
}

impl ReactiveGenerator {
    /// Plan a reactive campaign. `rng` is the campaign seed stream, used
    /// exactly as [`generate_campaign`](crate::mutate::generate_campaign)
    /// uses it.
    pub fn new(
        cfg: &CampaignConfig,
        policy: ReactivePolicy,
        rng: &mut SimRng,
    ) -> ReactiveGenerator {
        assert!(!cfg.families.is_empty(), "campaign needs templates");
        assert!(policy.tempo_factor >= 1.0, "reactive tempo never speeds up");
        let mut session_rng = rng.fork(0x5E55);
        let mut background_rng = rng.fork(0xBAC6);
        let reactive_rng = rng.fork(0xADA7);

        let mut sessions = Vec::with_capacity(cfg.sessions);
        let mut entity_counter = 0u32;
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
            sessions.push(LiveSession {
                session,
                next_step: 0,
                emitted: Vec::new(),
                rotations: 0,
            });
        }

        let background = match &cfg.background {
            Some(bcfg) => record_stream(&SymScope::global(), bcfg, &mut background_rng),
            None => Vec::new(),
        };

        ReactiveGenerator {
            policy,
            stats: ReactiveStats {
                sessions: sessions.len(),
                ..ReactiveStats::default()
            },
            sessions,
            background,
            bg_next: 0,
            rng: reactive_rng,
            next_entity: ROTATION_ENTITY_BASE,
            dilation: cfg.mutation.dilation,
            scratch: String::new(),
        }
    }

    /// Emit every record with `ts < until` (sessions in id order, then
    /// background, stable-sorted by timestamp — the per-round slice of
    /// exactly the ordering `generate_campaign` produces globally).
    /// Returns the number of records appended.
    pub fn emit_until(&mut self, until: SimTime, out: &mut Vec<LogRecord>) -> usize {
        use std::fmt::Write as _;
        let mark = out.len();
        for ls in &mut self.sessions {
            while ls.next_step < ls.session.steps.len() {
                let ts = ls.step_ts(ls.next_step);
                if ts >= until {
                    break;
                }
                let step = &ls.session.steps[ls.next_step];
                let symbol = step.kind.symbol();
                self.scratch.clear();
                let _ = write!(
                    self.scratch,
                    "campaign session {} {}",
                    ls.session.id, symbol
                );
                out.push(LogRecord::Notice(NoticeRecord {
                    ts,
                    note: NoticeKind::Custom(symbol.into()),
                    msg: self.scratch.as_str().into(),
                    src: ls.session.entities[step.entity],
                    dst: Some(ls.session.victim),
                    sub: ls.session.family.as_str().into(),
                }));
                if matches!(step.origin, StepOrigin::Template { .. }) {
                    ls.emitted.push((ts, step.kind, step.entity));
                }
                ls.next_step += 1;
            }
        }
        while self.bg_next < self.background.len() && self.background[self.bg_next].ts() < until {
            out.push(self.background[self.bg_next].clone());
            self.bg_next += 1;
        }
        out[mark..].sort_by_key(|r| r.ts());
        out.len() - mark
    }

    /// Emit everything still pending (end of campaign).
    pub fn finish(&mut self, out: &mut Vec<LogRecord>) -> usize {
        let far = self
            .next_event_ts()
            .map(|t| t.saturating_add(SimDuration::from_days(36_500)))
            .unwrap_or(SimTime::EPOCH);
        self.emit_until(far, out)
    }

    /// Timestamp of the earliest unemitted record, if any.
    pub fn next_event_ts(&self) -> Option<SimTime> {
        let s = self
            .sessions
            .iter()
            .filter(|ls| !ls.finished())
            .map(|ls| ls.step_ts(ls.next_step))
            .min();
        let b = self.background.get(self.bg_next).map(|r| r.ts());
        match (s, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, y) => x.or(y),
        }
    }

    /// Whether every planned record has been emitted.
    pub fn finished(&self) -> bool {
        self.sessions.iter().all(LiveSession::finished) && self.bg_next >= self.background.len()
    }

    /// Feed observed block decisions back into the attacker at a round
    /// boundary `now` (all records before `now` already emitted). A
    /// session whose next step would come from a blocked entity rotates
    /// its remaining blocked-entity steps onto a fresh source, stretches
    /// the remaining tempo, and may re-split — per the policy.
    pub fn observe_blocks(&mut self, now: SimTime, blocked: &[BlockEvent]) {
        if !self.policy.rotate_on_block || blocked.is_empty() {
            return;
        }
        let blocked_addrs: FxHashSet<Ipv4Addr> = blocked.iter().map(|e| e.addr).collect();
        for i in 0..self.sessions.len() {
            let ls = &self.sessions[i];
            if ls.session.decoy || ls.finished() || ls.rotations >= self.policy.max_rotations {
                continue;
            }
            let cur = ls.session.entities[ls.session.steps[ls.next_step].entity];
            if !blocked_addrs.contains(&cur) {
                continue;
            }
            self.rotate_session(i, now, &blocked_addrs);
        }
    }

    /// Rotate the remaining blocked-entity steps of session `i` onto
    /// fresh entities, stretching the tail tempo.
    fn rotate_session(&mut self, i: usize, now: SimTime, blocked: &FxHashSet<Ipv4Addr>) {
        let tempo = self.policy.tempo_factor;
        let resplit = self.policy.resplit_prob > 0.0 && self.rng.chance(self.policy.resplit_prob);
        let ls = &mut self.sessions[i];
        let fresh = campaign_entity_addr(self.next_entity);
        self.next_entity += 1;
        self.stats.fresh_entities += 1;
        ls.session.entities.push(fresh);
        let fresh_idx = ls.session.entities.len() - 1;

        // Indices of remaining steps that need a new home.
        let moving: Vec<usize> = (ls.next_step..ls.session.steps.len())
            .filter(|&j| blocked.contains(&ls.session.entities[ls.session.steps[j].entity]))
            .collect();
        debug_assert!(!moving.is_empty(), "rotation implies a blocked next step");
        let second_idx = if resplit && moving.len() >= 2 {
            let second = campaign_entity_addr(self.next_entity);
            self.next_entity += 1;
            self.stats.fresh_entities += 1;
            ls.session.entities.push(second);
            self.stats.resplits += 1;
            Some(ls.session.entities.len() - 1)
        } else {
            None
        };
        let split_at = moving.len().div_ceil(2);
        for (k, &j) in moving.iter().enumerate() {
            ls.session.steps[j].entity = match second_idx {
                Some(second) if k >= split_at => second,
                _ => fresh_idx,
            };
        }

        // Low-and-slow after being burned: every remaining step slides
        // out by `tempo` relative to `now` (monotone, so step order is
        // preserved and nothing moves before the rotation instant).
        if tempo > 1.0 {
            for j in ls.next_step..ls.session.steps.len() {
                let ts = ls.session.start.saturating_add(ls.session.steps[j].offset);
                let rel = ts.saturating_since(now);
                let new_ts = now.saturating_add(rel.mul_f64(tempo));
                ls.session.steps[j].offset = new_ts.saturating_since(ls.session.start);
            }
            self.stats.tempo_stretches += 1;
        }
        ls.rotations += 1;
        self.stats.rotations += 1;
    }

    /// Attacker-side accounting so far.
    pub fn stats(&self) -> ReactiveStats {
        self.stats
    }

    /// Ground truth of the campaign *as realized* — rotated entities
    /// appear in their session's `entity_keys`/`step_entities`, and
    /// damage deadlines reflect any tempo stretching. Call after the
    /// stream is fully emitted.
    pub fn truth(&self) -> CampaignGroundTruth {
        let mut truth = CampaignGroundTruth {
            dilation: self.dilation,
            ..CampaignGroundTruth::default()
        };
        for ls in &self.sessions {
            let steps: Vec<(SimTime, AlertKind)> =
                ls.emitted.iter().map(|&(ts, kind, _)| (ts, kind)).collect();
            let step_gap_secs: Vec<f64> = steps
                .windows(2)
                .map(|w| w[1].0.saturating_since(w[0].0).as_secs_f64())
                .collect();
            let step_entities: Vec<usize> = ls.emitted.iter().map(|&(_, _, e)| e).collect();
            let damage_ts = ls
                .emitted
                .iter()
                .find(|(_, kind, _)| kind.is_critical())
                .map(|&(ts, _, _)| ts);
            truth.sessions.push(SessionTruth {
                id: ls.session.id,
                family: ls.session.family.clone(),
                decoy: ls.session.decoy,
                entity_keys: ls.session.entity_keys(),
                start: ls.session.start,
                damage_ts,
                steps,
                step_gap_secs,
                step_entities,
            });
        }
        truth.background_records = self.background.len() as u64;
        truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::standard_library;
    use crate::mutate::generate_campaign;
    use crate::stream::RecordStreamConfig;

    fn cfg(sessions: usize) -> CampaignConfig {
        CampaignConfig {
            sessions,
            horizon: SimDuration::from_hours(12),
            families: standard_library(),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn search_first_probe_is_the_base_config() {
        let base = MutationConfig::default();
        let mut s = AdaptiveSearch::new(base.clone(), SearchSpace::default(), 7);
        let first = s.propose();
        assert_eq!(first.drop_prob, base.drop_prob);
        assert_eq!(first.dilation, base.dilation);
        s.observe(0.25);
        assert_eq!(s.best_score(), 0.25);
        assert_eq!(s.probes(), 1);
    }

    #[test]
    fn search_is_greedy_and_stays_in_bounds() {
        let space = SearchSpace::default();
        let mut s = AdaptiveSearch::new(MutationConfig::default(), space.clone(), 11);
        let mut best_seen = f64::NEG_INFINITY;
        let mut scorer = SimRng::seed(5);
        for _ in 0..60 {
            let c = s.propose();
            assert!(c.drop_prob >= space.drop_prob.0 && c.drop_prob <= space.drop_prob.1);
            assert!(c.swap_prob >= space.swap_prob.0 && c.swap_prob <= space.swap_prob.1);
            assert!(c.noise_steps <= space.max_noise_steps);
            assert!(c.dilation >= 1.0 && c.dilation <= space.dilation.1);
            assert!(c.decoy_prob >= space.decoy_prob.0 && c.decoy_prob <= space.decoy_prob.1);
            assert!(c.lateral_prob >= 0.0 && c.lateral_prob <= 1.0);
            assert!(
                c.max_lateral_entities >= 1 && c.max_lateral_entities <= space.max_lateral_entities
            );
            assert!(c.force_damage, "preemption anchor pinned");
            let score = scorer.f64();
            s.observe(score);
            best_seen = best_seen.max(score);
            assert_eq!(s.best_score(), best_seen, "greedy max over probes");
        }
        assert_eq!(s.probes(), 60);
        assert!(s.accepted() >= 1);
    }

    #[test]
    fn search_same_seed_same_trajectory() {
        let run = || {
            let mut s = AdaptiveSearch::new(MutationConfig::default(), SearchSpace::default(), 42);
            let mut out = Vec::new();
            for i in 0..25 {
                let c = s.propose();
                out.push(format!(
                    "{:.12} {:.12} {} {:.12} {:.12} {:.12} {}",
                    c.drop_prob,
                    c.swap_prob,
                    c.noise_steps,
                    c.dilation,
                    c.decoy_prob,
                    c.lateral_prob,
                    c.max_lateral_entities
                ));
                s.observe(((i * 7) % 13) as f64 / 13.0);
            }
            out
        };
        assert_eq!(run(), run(), "same seed, same proposals");
    }

    #[test]
    fn feedback_tap_publishes_and_drains_in_order() {
        let tap = FeedbackTap::new();
        let clone = tap.clone();
        assert!(tap.is_empty());
        clone.publish(SimTime::from_secs(1), "198.18.0.1".parse().unwrap());
        clone.publish(SimTime::from_secs(2), "198.18.0.2".parse().unwrap());
        assert_eq!(tap.len(), 2, "clones share the channel");
        let events = tap.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ts, SimTime::from_secs(1));
        assert_eq!(events[1].addr, "198.18.0.2".parse::<Ipv4Addr>().unwrap());
        assert!(tap.is_empty(), "drain empties the channel");
    }

    #[test]
    fn open_loop_generator_matches_generate_campaign() {
        let mut c = cfg(30);
        c.background = Some(RecordStreamConfig {
            scan_records: 400,
            benign_flows: 150,
            exec_records: 250,
            users: 30,
            ..RecordStreamConfig::default()
        });
        let reference = generate_campaign(&c, &mut SimRng::seed(91));
        let mut gen =
            ReactiveGenerator::new(&c, ReactivePolicy::open_loop(), &mut SimRng::seed(91));
        // Emit in uneven rounds; the merged stream must be identical.
        let mut out = Vec::new();
        let mut t = c.start;
        for hours in [1u64, 5, 2, 9, 40, 300] {
            t = t.saturating_add(SimDuration::from_hours(hours));
            gen.emit_until(t, &mut out);
        }
        gen.finish(&mut out);
        assert!(gen.finished());
        assert_eq!(out, reference.records, "open loop is a drop-in stream");
        assert_eq!(gen.truth(), reference.truth, "and ground truth agrees");
        assert_eq!(gen.stats().rotations, 0);
    }

    #[test]
    fn blocked_hop_rotates_to_fresh_entity_and_truth_tracks_it() {
        let mut c = cfg(8);
        c.mutation.decoy_prob = 0.0;
        c.mutation.lateral_prob = 0.0;
        c.mutation.dilation = 4.0; // enough span to block mid-session
        let policy = ReactivePolicy {
            resplit_prob: 0.0,
            tempo_factor: 2.0,
            ..ReactivePolicy::default()
        };
        let mut gen = ReactiveGenerator::new(&c, policy, &mut SimRng::seed(17));
        // Find a session with at least 3 steps and block its first
        // entity after its first step has been emitted.
        let open_truth = generate_campaign(&c, &mut SimRng::seed(17)).truth;
        let target = open_truth
            .sessions
            .iter()
            .filter(|s| s.steps.len() >= 3)
            .max_by_key(|s| s.steps.len())
            .expect("a multi-step session")
            .clone();
        let first_key = target.entity_keys[0].clone();
        let first_addr: Ipv4Addr = first_key
            .strip_prefix("addr:")
            .expect("address entity")
            .parse()
            .unwrap();
        let cut = target.steps[0].0.saturating_add(SimDuration::from_secs(1));

        let mut out = Vec::new();
        gen.emit_until(cut, &mut out);
        gen.observe_blocks(
            cut,
            &[BlockEvent {
                ts: cut,
                addr: first_addr,
            }],
        );
        gen.finish(&mut out);
        let truth = gen.truth();
        let rotated = truth
            .sessions
            .iter()
            .find(|s| s.id == target.id)
            .expect("session survives");
        assert!(gen.stats().rotations >= 1, "block triggered a rotation");
        assert!(
            rotated.entity_keys.len() > target.entity_keys.len(),
            "fresh entity appears in ground truth: {:?}",
            rotated.entity_keys
        );
        assert!(
            rotated.entity_keys.contains(&first_key),
            "burned entity stays attributed"
        );
        // Remaining steps moved off the blocked entity.
        for (k, &(ts, _)) in rotated.steps.iter().enumerate() {
            if ts >= cut {
                let hop = rotated.step_entities[k];
                assert_ne!(
                    rotated.entity_keys[hop], first_key,
                    "no future step from a blocked source"
                );
            }
        }
        // Tempo stretch keeps order and pushes the damage step later.
        assert!(rotated.steps.windows(2).all(|w| w[1].0 >= w[0].0));
        assert!(rotated.damage_ts.expect("damage kept") >= target.damage_ts.unwrap());
        // Every emitted record is attributable: no step from an entity
        // missing from entity_keys.
        for s in &truth.sessions {
            assert_eq!(s.step_entities.len(), s.steps.len());
            for &e in &s.step_entities {
                assert!(e < s.entity_keys.len());
            }
        }
    }

    #[test]
    fn reactive_replay_is_deterministic_given_same_feedback() {
        let mut c = cfg(16);
        c.mutation.decoy_prob = 0.0;
        let run = || {
            let mut gen =
                ReactiveGenerator::new(&c, ReactivePolicy::default(), &mut SimRng::seed(23));
            let mut out = Vec::new();
            let mut t = c.start;
            let mut round = 0u64;
            while !gen.finished() {
                t = t.saturating_add(SimDuration::from_hours(2));
                gen.emit_until(t, &mut out);
                // Scripted feedback: block the source of every 7th
                // emitted record (a deterministic stand-in for the
                // pipeline's block stream).
                round += 1;
                let fake: Vec<BlockEvent> = out
                    .iter()
                    .skip((round as usize * 3) % 5)
                    .step_by(7)
                    .filter_map(|r| match r {
                        LogRecord::Notice(n) => Some(BlockEvent { ts: t, addr: n.src }),
                        _ => None,
                    })
                    .collect();
                gen.observe_blocks(t, &fake);
                if round > 10_000 {
                    panic!("runaway loop");
                }
            }
            (out, gen.truth(), gen.stats())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "same seed + same feedback = same stream");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert!(a.2.rotations > 0, "the scripted feedback caused reactions");
    }
}
