//! Closed-loop adaptive-attacker harnesses: the defense side of
//! [`scenario::adapt`].
//!
//! Three harnesses, all deterministic under the config seed:
//!
//! - [`worst_case_frontier`] — per attack family, drive an
//!   [`AdaptiveSearch`] hill-climb over [`MutationConfig`]: each probe
//!   generates one single-family campaign at the proposed config, runs it
//!   through the full pipeline, and scores the attacker by missed damage
//!   (with a lead-time tie-break). The converged per-family worst config +
//!   its preemption/lead-time is one [`FrontierPoint`] — the robustness
//!   frontier the paper's average-case `EvalReport` cannot see.
//! - [`learning_curve`] — replay one fixed campaign against models trained
//!   on increasing corpus sizes: the paper's learning story (training
//!   volume vs preemption) measured on the adversarial axis.
//! - [`run_reactive_campaign`] — the full detect→respond→adapt loop: a
//!   [`ReactiveGenerator`] feeds the inline pipeline in time-sliced
//!   rounds, a [`FeedbackTap`] carries every block decision back, and the
//!   attacker rotates/stretches/re-splits mid-stream. The emitted stream
//!   is recorded so the whole closed-loop run can be replayed through all
//!   three executors: the pipeline is a pure function of its record
//!   stream (the tap is a side channel), so the replay is byte-identical
//!   to the closed-loop run — determinism survives adaptivity.

use factorgraph::chain::ChainModel;
use scenario::adapt::{
    AdaptiveSearch, FeedbackTap, ReactiveGenerator, ReactivePolicy, ReactiveStats, SearchSpace,
};
use scenario::mutate::{Campaign, CampaignConfig, CampaignGroundTruth, MutationConfig};
use scenario::template::AttackTemplate;
use serde::Serialize;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use telemetry::record::LogRecord;

use crate::config::TestbedConfig;
use crate::eval::{evaluate_campaign, EvalReport};
use crate::stage::builder::PipelineBuilder;
use crate::stage::executor::InlineCore;
use crate::stage::StreamReport;

/// Shape of one [`worst_case_frontier`] search.
#[derive(Debug, Clone)]
pub struct FrontierConfig {
    /// Probes (campaign evaluations) per family; probe 0 is always the
    /// base config, so the baseline is part of every search.
    pub probes: usize,
    /// Sessions per probe campaign (single family, no background —
    /// preemption is the signal, FP accounting has its own benches).
    pub sessions: usize,
    /// Window the probe campaign's session starts spread over.
    pub horizon: SimDuration,
    /// Starting point of every per-family climb.
    pub base: MutationConfig,
    /// Bounds of the climb.
    pub space: SearchSpace,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig {
            probes: 12,
            sessions: 48,
            horizon: SimDuration::from_days(2),
            base: MutationConfig::default(),
            space: SearchSpace::default(),
        }
    }
}

/// One family's point on the worst-case robustness frontier: the worst
/// surviving [`MutationConfig`] the search found, and what the defense
/// still achieves there.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontierPoint {
    pub family: String,
    /// The searched worst-case config.
    pub config: MutationConfig,
    /// Defense preemption rate at the worst config.
    pub preemption_rate: f64,
    /// Attacker's objective at the worst config: damage-dealing sessions
    /// not preempted, as a fraction of sessions.
    pub missed_damage_rate: f64,
    /// Median preemption lead time (s) at the worst config.
    pub lead_median_secs: f64,
    /// Preemption rate at the base (unsearched) config — the average-case
    /// number the frontier is measured against.
    pub baseline_preemption: f64,
    /// Probes evaluated.
    pub probes: usize,
    /// Probes that improved the attacker's objective.
    pub accepted: usize,
}

/// The attacker's objective for one probe: missed damage, with a small
/// lead-time tie-break (between configs missing equally much, prefer the
/// one leaving the defense less warning).
fn attacker_score(eval: &EvalReport) -> f64 {
    let missed = 1.0 - eval.overall.preemption_rate;
    missed + 1e-3 / (1.0 + eval.overall.lead.median_secs.max(0.0))
}

/// Hill-climb the mutation space per family and return the worst-case
/// frontier. Deterministic in `cfg.seed`: the campaign generator is
/// reseeded identically per probe (paired probes — score differences come
/// from the config, not sampling), and the search's own proposal stream is
/// seeded per family.
pub fn worst_case_frontier(
    cfg: &TestbedConfig,
    model: &ChainModel,
    families: &[AttackTemplate],
    fcfg: &FrontierConfig,
) -> Vec<FrontierPoint> {
    assert!(fcfg.probes >= 1, "need at least the baseline probe");
    let mut frontier = Vec::with_capacity(families.len());
    for family in families {
        let fam_seed = family.family.bytes().fold(cfg.seed, |acc, b| {
            acc.wrapping_mul(31).wrapping_add(b as u64)
        });
        let mut search = AdaptiveSearch::new(fcfg.base.clone(), fcfg.space.clone(), fam_seed);
        let mut worst = (0.0f64, 0.0f64); // (preemption, lead median) at the incumbent
        let mut baseline_preemption = 0.0f64;
        for probe in 0..fcfg.probes {
            let candidate = search.propose();
            let ccfg = CampaignConfig {
                sessions: fcfg.sessions,
                horizon: fcfg.horizon,
                families: vec![family.clone()],
                mutation: candidate,
                background: None,
                ..CampaignConfig::default()
            };
            let Campaign { records, truth } =
                scenario::mutate::generate_campaign(&ccfg, &mut SimRng::seed(fam_seed));
            let report = PipelineBuilder::from_config(cfg, model.clone())
                .build()
                .run_inline(records);
            let eval = evaluate_campaign(&report, &truth);
            if probe == 0 {
                baseline_preemption = eval.overall.preemption_rate;
            }
            let before = search.best_score();
            search.observe(attacker_score(&eval));
            if search.best_score() > before {
                worst = (eval.overall.preemption_rate, eval.overall.lead.median_secs);
            }
        }
        frontier.push(FrontierPoint {
            family: family.family.to_string(),
            config: search.best().clone(),
            preemption_rate: worst.0,
            missed_damage_rate: 1.0 - worst.0,
            lead_median_secs: worst.1,
            baseline_preemption,
            probes: search.probes(),
            accepted: search.accepted(),
        });
    }
    frontier
}

/// One point of the corpus learning curve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LearningPoint {
    /// Training-corpus size (incidents) the model was trained on.
    pub corpus_incidents: usize,
    /// Preemption rate against the fixed adversarial campaign.
    pub preemption_rate: f64,
    /// Detection rate (preempted + late) against the same campaign.
    pub detection_rate: f64,
}

/// Replay one fixed mutated campaign (generated once from `cfg.seed`)
/// against each `(corpus_size, model)` pair: training volume vs
/// preemption-under-mutation. Callers train the models (see `bench9`) —
/// this keeps the harness free of a training-pipeline dependency and the
/// sweep paired on an identical record stream.
pub fn learning_curve(
    cfg: &TestbedConfig,
    campaign_cfg: &CampaignConfig,
    models: &[(usize, ChainModel)],
) -> Vec<LearningPoint> {
    let Campaign { records, truth } =
        scenario::mutate::generate_campaign(campaign_cfg, &mut SimRng::seed(cfg.seed));
    models
        .iter()
        .map(|(corpus_incidents, model)| {
            let report = PipelineBuilder::from_config(cfg, model.clone())
                .build()
                .run_inline(records.clone());
            let eval = evaluate_campaign(&report, &truth);
            let sessions = eval.overall.sessions.max(1) as f64;
            LearningPoint {
                corpus_incidents: *corpus_incidents,
                preemption_rate: eval.overall.preemption_rate,
                detection_rate: eval.overall.detected as f64 / sessions,
            }
        })
        .collect()
}

/// Everything one closed-loop reactive campaign produces.
#[derive(Debug)]
pub struct ReactiveRun {
    /// The full emitted record stream, in pipeline ingestion order —
    /// replaying it through any executor reproduces `stream` exactly.
    pub records: Vec<LogRecord>,
    /// Ground truth as realized (rotated entities attributed, stretched
    /// tempos reflected in damage deadlines).
    pub truth: CampaignGroundTruth,
    pub stream: StreamReport,
    pub eval: EvalReport,
    /// Attacker-side accounting (rotations, re-splits, fresh entities).
    pub stats: ReactiveStats,
    /// Feedback rounds driven.
    pub rounds: u64,
}

/// Drive the full detect→respond→adapt loop: the generator emits one
/// `round` of records, the inline pipeline processes them, the attacker
/// observes the round's block decisions through the [`FeedbackTap`] and
/// reacts. `policy: None` runs the identical harness open-loop (feedback
/// discarded) — the paired baseline for reactive-vs-open-loop deltas.
///
/// Feedback is observed only at round boundaries, so the closed loop is
/// deterministic: the pipeline is a pure function of its record stream,
/// the block-decision stream is a pure function of the pipeline state,
/// and the attacker's reaction is a pure function of both plus its seeded
/// RNG. The recorded stream replayed through any executor is
/// byte-identical to this run.
pub fn run_reactive_campaign(
    cfg: &TestbedConfig,
    campaign_cfg: &CampaignConfig,
    model: ChainModel,
    policy: Option<ReactivePolicy>,
    round: SimDuration,
) -> ReactiveRun {
    assert!(round > SimDuration::ZERO, "round must advance time");
    let reactive = policy.is_some();
    let mut rng = SimRng::seed(cfg.seed);
    let mut gen = ReactiveGenerator::new(
        campaign_cfg,
        policy.unwrap_or_else(ReactivePolicy::open_loop),
        &mut rng,
    );
    let tap = FeedbackTap::new();
    let mut core = InlineCore::new(
        PipelineBuilder::from_config(cfg, model)
            .block_feedback(tap.clone())
            .build(),
    );
    let mut records: Vec<LogRecord> = Vec::new();
    let mut buf: Vec<LogRecord> = Vec::new();
    let mut t = campaign_cfg.start.saturating_add(round);
    let mut rounds = 0u64;
    while !gen.finished() {
        buf.clear();
        gen.emit_until(t, &mut buf);
        if !buf.is_empty() {
            core.process_records_at(None, &mut buf, |_| {});
            records.extend_from_slice(&buf);
        }
        let events = tap.drain();
        if reactive && !events.is_empty() {
            gen.observe_blocks(t, &events);
        }
        rounds += 1;
        // Next boundary: one round ahead, or jump an idle gap straight to
        // the next pending event (dilated tails would otherwise cost
        // millions of empty rounds).
        let next: SimTime = match gen.next_event_ts() {
            Some(ts) if ts > t => ts,
            _ => t,
        };
        t = next.saturating_add(round);
    }
    core.flush();
    let stream = core.into_report();
    let truth = gen.truth();
    let eval = evaluate_campaign(&stream, &truth);
    ReactiveRun {
        records,
        truth,
        stream,
        eval,
        stats: gen.stats(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::library::standard_library;

    fn small_frontier_cfg() -> FrontierConfig {
        FrontierConfig {
            probes: 3,
            sessions: 10,
            horizon: SimDuration::from_hours(12),
            ..FrontierConfig::default()
        }
    }

    #[test]
    fn frontier_covers_every_family_and_attaches_configs() {
        let cfg = TestbedConfig::default();
        let model = detect::train::toy_training_model();
        let families = standard_library();
        let frontier = worst_case_frontier(&cfg, &model, &families[..2], &small_frontier_cfg());
        assert_eq!(frontier.len(), 2);
        for p in &frontier {
            assert_eq!(p.probes, 3);
            assert!(p.accepted >= 1, "baseline probe always accepts");
            assert!(p.config.dilation >= 1.0);
            assert!((0.0..=1.0).contains(&p.preemption_rate));
            assert!(
                (p.missed_damage_rate - (1.0 - p.preemption_rate)).abs() < 1e-12,
                "missed damage is the preemption complement"
            );
            assert!(
                p.preemption_rate <= p.baseline_preemption + 2e-3,
                "{}: the worst-case point cannot beat the baseline \
                 (search is greedy over attacker score): {} vs {}",
                p.family,
                p.preemption_rate,
                p.baseline_preemption
            );
        }
    }

    #[test]
    fn frontier_is_deterministic() {
        let cfg = TestbedConfig::default();
        let model = detect::train::toy_training_model();
        let families = standard_library();
        let run = || worst_case_frontier(&cfg, &model, &families[..1], &small_frontier_cfg());
        assert_eq!(run(), run());
    }

    #[test]
    fn learning_curve_scores_each_model_on_the_same_campaign() {
        let cfg = TestbedConfig::default();
        let model = detect::train::toy_training_model();
        let ccfg = CampaignConfig {
            sessions: 12,
            horizon: SimDuration::from_hours(12),
            ..CampaignConfig::default()
        };
        let points = learning_curve(&cfg, &ccfg, &[(10, model.clone()), (20, model)]);
        assert_eq!(points.len(), 2);
        // Identical models on an identical campaign: identical scores —
        // the sweep is paired.
        assert_eq!(points[0].preemption_rate, points[1].preemption_rate);
        assert_eq!(points[0].detection_rate, points[1].detection_rate);
        assert_eq!(points[0].corpus_incidents, 10);
        assert_eq!(points[1].corpus_incidents, 20);
    }
}
