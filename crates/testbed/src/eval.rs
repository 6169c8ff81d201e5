//! Preemption evaluation harness.
//!
//! Scores a pipeline run ([`StreamReport`]) against the ground truth of an
//! adversarial campaign ([`CampaignGroundTruth`]): per-family preemption
//! rate (alert strictly before the family's damage step), lead-time
//! distributions in simulated seconds *and* in attack-step records, TP/FN
//! per family, and the false-positive rate per million background records —
//! the paper's headline metrics, measured over mutating variants instead of
//! the eight clean templates.
//!
//! [`run_campaign`] is the end-to-end path: one [`TestbedConfig::seed`]
//! drives campaign generation, pipeline assembly and evaluation, so a
//! whole experiment is reproducible from a single config field.

use std::collections::HashMap;

use factorgraph::chain::ChainModel;
use scenario::mutate::{generate_campaign, Campaign, CampaignConfig, CampaignGroundTruth};
use simnet::rng::SimRng;
use simnet::time::SimTime;

use crate::config::TestbedConfig;
use crate::stage::{PipelineBuilder, StreamReport};

/// Distribution summary of preemption lead times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LeadTimeStats {
    /// Preempted sessions contributing a lead time.
    pub count: usize,
    pub mean_secs: f64,
    pub median_secs: f64,
    pub p10_secs: f64,
    pub p90_secs: f64,
    pub max_secs: f64,
    /// Mean attack-step records between detection and damage.
    pub mean_records: f64,
    /// Median attack-step records between detection and damage.
    pub median_records: f64,
}

impl LeadTimeStats {
    /// Nearest-rank index for percentile `p` over `n` sorted samples:
    /// `⌈p·n⌉ - 1`, clamped into range. Total for every `n` (0 included —
    /// callers with an empty sample get index 0, which they must guard),
    /// and consistent across p10/median/p90: at `n = 1` every percentile
    /// is the single sample, at `n = 2` the median is the lower sample
    /// (the nearest-rank convention) while p90 is the upper — the
    /// previous `.round()` form both underflowed at `n = 0` and pulled
    /// the `n = 2` median *up* while the median convention takes the
    /// lower rank.
    fn rank(n: usize, p: f64) -> usize {
        ((p * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
    }

    fn from_leads(mut secs: Vec<f64>, mut records: Vec<u64>) -> LeadTimeStats {
        if secs.is_empty() {
            return LeadTimeStats::default();
        }
        secs.sort_by(|a, b| a.partial_cmp(b).expect("finite lead"));
        records.sort_unstable();
        // Nearest-rank index, shared by both samples so the seconds and
        // records medians pick the same element of their distributions.
        let pct = |v: &[f64], p: f64| v[Self::rank(v.len(), p)];
        LeadTimeStats {
            count: secs.len(),
            mean_secs: secs.iter().sum::<f64>() / secs.len() as f64,
            median_secs: pct(&secs, 0.5),
            p10_secs: pct(&secs, 0.1),
            p90_secs: pct(&secs, 0.9),
            max_secs: *secs.last().expect("non-empty"),
            mean_records: records.iter().sum::<u64>() as f64 / records.len() as f64,
            median_records: records[Self::rank(records.len(), 0.5)] as f64,
        }
    }
}

/// Per-family breakdown of lateral-split (multi-hop) sessions versus
/// unsplit (single-entity) ones — the recovery axis the campaign
/// correlator is evaluated on. A *hop* is one entity of a split session;
/// a hop counts as detected before damage when its own entity raised a
/// notification strictly ahead of the session's damage step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LateralSplitEval {
    /// Attack sessions split across ≥ 2 entities.
    pub split_sessions: usize,
    /// Split sessions preempted before their damage step.
    pub split_preempted: usize,
    /// Single-entity attack sessions (the recovery baseline).
    pub unsplit_sessions: usize,
    /// Unsplit sessions preempted before their damage step.
    pub unsplit_preempted: usize,
    /// `split_preempted / split_sessions` (0 when no split sessions).
    pub split_preemption_rate: f64,
    /// `unsplit_preempted / unsplit_sessions` (0 when none).
    pub unsplit_preemption_rate: f64,
    /// Hops of split sessions whose own entity was detected strictly
    /// before the session's damage step (or with no damage step).
    pub hops_detected_before_damage: usize,
    /// Hops detected only at or after damage.
    pub hops_detected_after_damage: usize,
    /// Mean seconds between the earliest and latest hop detection within
    /// split sessions that had ≥ 2 hops detected — how fast evidence
    /// propagated across the split (0 with correlation: later hops are
    /// promoted on their first alert).
    pub mean_cross_hop_lead_secs: f64,
}

/// Per-family scoring of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyEval {
    pub family: String,
    /// Attack sessions of this family in the campaign.
    pub sessions: usize,
    /// Sessions with at least one detection on a session entity.
    pub detected: usize,
    /// Detected strictly before the damage step (or with no damage step).
    pub preempted: usize,
    /// Detected, but only at or after damage.
    pub late: usize,
    /// Never detected.
    pub missed: usize,
    pub preemption_rate: f64,
    pub lead: LeadTimeStats,
    /// Mean realized inter-attack-step gap across the family's sessions,
    /// in seconds — the tempo axis of a detection-vs-dilation curve.
    pub mean_step_gap_secs: f64,
    /// Lateral-split vs unsplit breakdown (the campaign-correlation
    /// recovery metric; all-zero when the family had no split sessions).
    pub lateral: LateralSplitEval,
}

/// The serializable evaluation report of one campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Total campaign sessions (attack + decoy).
    pub sessions: usize,
    pub attack_sessions: usize,
    pub decoy_sessions: usize,
    pub background_records: u64,
    /// Per-family rows, sorted by family name.
    pub families: Vec<FamilyEval>,
    /// Aggregate over all attack sessions.
    pub overall: FamilyEval,
    /// Detections attributed to decoy entities (fooled by cover traffic).
    pub decoy_detections: u64,
    /// Detections on entities belonging to no campaign session at all —
    /// false positives on the background load.
    pub background_false_positives: u64,
    /// Background false positives per million background records
    /// (`f64::NAN`-free: 0 when there is no background).
    pub fp_per_million_background: f64,
    /// The campaign's timing-dilation factor (from the ground truth), so
    /// a report is a self-describing point on a detection-vs-dilation
    /// curve.
    pub dilation: f64,
    /// Fault profile the scored stream ran under (`None` when the
    /// pipeline carried no fault plan; serialized as `"clean"`), so a
    /// report is also a self-describing point on a fault-intensity sweep.
    pub fault_profile: Option<String>,
    /// Alerts dropped by the detector's duplicate-suppression window.
    pub duplicates_suppressed: u64,
    /// Block RPC re-deliveries attempted by the response retry queue.
    pub blocks_retried: u64,
    /// Blocks permanently lost (retry cap or deadline exhausted).
    pub blocks_abandoned: u64,
    /// Campaigns the cross-entity correlator stitched together (0 when
    /// correlation is disabled).
    pub correlated_campaigns: u64,
    /// Detections the correlator raised by fusing cross-hop evidence.
    pub correlated_promotions: u64,
    /// Tagger detections suppressed because the correlator had already
    /// promoted the entity (would-be duplicate campaign alerts).
    pub correlated_confirmations: u64,
}

impl EvalReport {
    /// Render the report as a JSON value (the `ADVERSARIAL_EVAL.json`
    /// artifact payload).
    pub fn to_json(&self) -> serde_json::Value {
        let family_json = |f: &FamilyEval| {
            serde_json::json!({
                "family": f.family.clone(),
                "sessions": f.sessions,
                "detected": f.detected,
                "preempted": f.preempted,
                "late": f.late,
                "missed": f.missed,
                "preemption_rate": f.preemption_rate,
                "mean_step_gap_secs": f.mean_step_gap_secs,
                "lateral_split": {
                    "split_sessions": f.lateral.split_sessions,
                    "split_preempted": f.lateral.split_preempted,
                    "split_preemption_rate": f.lateral.split_preemption_rate,
                    "unsplit_sessions": f.lateral.unsplit_sessions,
                    "unsplit_preempted": f.lateral.unsplit_preempted,
                    "unsplit_preemption_rate": f.lateral.unsplit_preemption_rate,
                    "hops_detected_before_damage": f.lateral.hops_detected_before_damage,
                    "hops_detected_after_damage": f.lateral.hops_detected_after_damage,
                    "mean_cross_hop_lead_secs": f.lateral.mean_cross_hop_lead_secs,
                },
                "lead": {
                    "count": f.lead.count,
                    "mean_secs": f.lead.mean_secs,
                    "median_secs": f.lead.median_secs,
                    "p10_secs": f.lead.p10_secs,
                    "p90_secs": f.lead.p90_secs,
                    "max_secs": f.lead.max_secs,
                    "mean_records": f.lead.mean_records,
                    "median_records": f.lead.median_records,
                },
            })
        };
        let families: Vec<serde_json::Value> = self.families.iter().map(family_json).collect();
        serde_json::json!({
            "sessions": self.sessions,
            "attack_sessions": self.attack_sessions,
            "decoy_sessions": self.decoy_sessions,
            "background_records": self.background_records,
            "families": families,
            "overall": family_json(&self.overall),
            "decoy_detections": self.decoy_detections,
            "background_false_positives": self.background_false_positives,
            "fp_per_million_background": self.fp_per_million_background,
            "dilation": self.dilation,
            "fault_profile": self
                .fault_profile
                .clone()
                .unwrap_or_else(|| "clean".to_string()),
            "duplicates_suppressed": self.duplicates_suppressed,
            "blocks_retried": self.blocks_retried,
            "blocks_abandoned": self.blocks_abandoned,
            "correlated_campaigns": self.correlated_campaigns,
            "correlated_promotions": self.correlated_promotions,
            "correlated_confirmations": self.correlated_confirmations,
        })
    }

    /// Render the per-family preemption table as aligned text.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>8} {:>9} {:>5} {:>7} {:>8} {:>12} {:>12} {:>6} {:>8} {:>9}",
            "family",
            "sessions",
            "detected",
            "preempted",
            "late",
            "missed",
            "preempt%",
            "lead(med s)",
            "lead(med rec)",
            "split",
            "split p%",
            "unspl p%"
        );
        for f in self.families.iter().chain(std::iter::once(&self.overall)) {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>8} {:>9} {:>5} {:>7} {:>7.1}% {:>12.0} {:>12.1} {:>6} {:>7.1}% {:>8.1}%",
                f.family,
                f.sessions,
                f.detected,
                f.preempted,
                f.late,
                f.missed,
                f.preemption_rate * 100.0,
                f.lead.median_secs,
                f.lead.median_records,
                f.lateral.split_sessions,
                f.lateral.split_preemption_rate * 100.0,
                f.lateral.unsplit_preemption_rate * 100.0,
            );
        }
        let _ = writeln!(
            out,
            "decoy detections: {}   background FPs: {} ({:.3}/M records)",
            self.decoy_detections, self.background_false_positives, self.fp_per_million_background
        );
        out
    }
}

struct FamilyAccum {
    sessions: usize,
    detected: usize,
    preempted: usize,
    late: usize,
    lead_secs: Vec<f64>,
    lead_records: Vec<u64>,
    gap_sum_secs: f64,
    gap_count: usize,
    split_sessions: usize,
    split_preempted: usize,
    unsplit_sessions: usize,
    unsplit_preempted: usize,
    hops_before: usize,
    hops_after: usize,
    cross_hop_span_sum: f64,
    cross_hop_span_count: usize,
}

impl FamilyAccum {
    fn new() -> FamilyAccum {
        FamilyAccum {
            sessions: 0,
            detected: 0,
            preempted: 0,
            late: 0,
            lead_secs: Vec::new(),
            lead_records: Vec::new(),
            gap_sum_secs: 0.0,
            gap_count: 0,
            split_sessions: 0,
            split_preempted: 0,
            unsplit_sessions: 0,
            unsplit_preempted: 0,
            hops_before: 0,
            hops_after: 0,
            cross_hop_span_sum: 0.0,
            cross_hop_span_count: 0,
        }
    }

    fn finish(self, family: String) -> FamilyEval {
        let missed = self.sessions - self.detected;
        let rate = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        FamilyEval {
            family,
            sessions: self.sessions,
            detected: self.detected,
            preempted: self.preempted,
            late: self.late,
            missed,
            preemption_rate: rate(self.preempted, self.sessions),
            lead: LeadTimeStats::from_leads(self.lead_secs, self.lead_records),
            mean_step_gap_secs: if self.gap_count == 0 {
                0.0
            } else {
                self.gap_sum_secs / self.gap_count as f64
            },
            lateral: LateralSplitEval {
                split_sessions: self.split_sessions,
                split_preempted: self.split_preempted,
                unsplit_sessions: self.unsplit_sessions,
                unsplit_preempted: self.unsplit_preempted,
                split_preemption_rate: rate(self.split_preempted, self.split_sessions),
                unsplit_preemption_rate: rate(self.unsplit_preempted, self.unsplit_sessions),
                hops_detected_before_damage: self.hops_before,
                hops_detected_after_damage: self.hops_after,
                mean_cross_hop_lead_secs: if self.cross_hop_span_count == 0 {
                    0.0
                } else {
                    self.cross_hop_span_sum / self.cross_hop_span_count as f64
                },
            },
        }
    }
}

/// Score a pipeline run against campaign ground truth.
///
/// A session counts as *detected* when any of its hop entities raised a
/// notification; its detection instant is the earliest such notification.
/// *Preempted* means detected strictly before the session's damage step
/// (sessions without a realized damage step count any detection as
/// preemptive, mirroring [`detect::metrics`]). Notifications on entities
/// belonging to no session are background false positives.
pub fn evaluate_campaign(report: &StreamReport, truth: &CampaignGroundTruth) -> EvalReport {
    // Earliest notification per entity key.
    let mut first_detection: HashMap<&str, SimTime> = HashMap::new();
    for n in &report.notifications {
        let e = first_detection
            .entry(n.entity.as_str())
            .or_insert(n.detection.ts);
        if n.detection.ts < *e {
            *e = n.detection.ts;
        }
    }

    let mut families: HashMap<&str, FamilyAccum> = HashMap::new();
    let mut overall = FamilyAccum::new();
    let mut decoy_detections = 0u64;
    let mut session_entities: std::collections::HashSet<&str> = std::collections::HashSet::new();

    for s in &truth.sessions {
        for k in &s.entity_keys {
            session_entities.insert(k.as_str());
        }
        if s.decoy {
            if s.entity_keys
                .iter()
                .any(|k| first_detection.contains_key(k.as_str()))
            {
                decoy_detections += 1;
            }
            continue;
        }
        let fam = families
            .entry(s.family.as_str())
            .or_insert_with(FamilyAccum::new);
        fam.sessions += 1;
        overall.sessions += 1;
        for &g in &s.step_gap_secs {
            fam.gap_sum_secs += g;
            overall.gap_sum_secs += g;
        }
        fam.gap_count += s.step_gap_secs.len();
        overall.gap_count += s.step_gap_secs.len();
        let split = s.entity_keys.len() > 1;
        if split {
            fam.split_sessions += 1;
            overall.split_sessions += 1;
            // Per-hop attribution: each hop's own first detection versus
            // the shared damage deadline, plus the first-to-last detection
            // span across hops.
            let mut span: Option<(SimTime, SimTime)> = None;
            let mut detected_hops = 0usize;
            for k in &s.entity_keys {
                let Some(&d) = first_detection.get(k.as_str()) else {
                    continue;
                };
                detected_hops += 1;
                let before = match s.damage_ts {
                    Some(damage) => d < damage,
                    None => true,
                };
                if before {
                    fam.hops_before += 1;
                    overall.hops_before += 1;
                } else {
                    fam.hops_after += 1;
                    overall.hops_after += 1;
                }
                span = Some(match span {
                    None => (d, d),
                    Some((lo, hi)) => (lo.min(d), hi.max(d)),
                });
            }
            if detected_hops >= 2 {
                let (lo, hi) = span.expect("≥2 detected hops imply a span");
                let secs = (hi - lo).as_secs_f64();
                fam.cross_hop_span_sum += secs;
                fam.cross_hop_span_count += 1;
                overall.cross_hop_span_sum += secs;
                overall.cross_hop_span_count += 1;
            }
        } else {
            fam.unsplit_sessions += 1;
            overall.unsplit_sessions += 1;
        }
        let det_ts = s
            .entity_keys
            .iter()
            .filter_map(|k| first_detection.get(k.as_str()))
            .min()
            .copied();
        let Some(det) = det_ts else { continue };
        fam.detected += 1;
        overall.detected += 1;
        let mut preempted = false;
        match s.damage_ts {
            Some(damage) if det < damage => {
                let lead_secs = (damage - det).as_secs_f64();
                let lead_records = s
                    .steps
                    .iter()
                    .filter(|(t, _)| *t > det && *t <= damage)
                    .count() as u64;
                fam.preempted += 1;
                fam.lead_secs.push(lead_secs);
                fam.lead_records.push(lead_records);
                overall.preempted += 1;
                overall.lead_secs.push(lead_secs);
                overall.lead_records.push(lead_records);
                preempted = true;
            }
            Some(_) => {
                fam.late += 1;
                overall.late += 1;
            }
            None => {
                fam.preempted += 1;
                overall.preempted += 1;
                preempted = true;
            }
        }
        if preempted {
            if split {
                fam.split_preempted += 1;
                overall.split_preempted += 1;
            } else {
                fam.unsplit_preempted += 1;
                overall.unsplit_preempted += 1;
            }
        }
    }

    let background_false_positives = first_detection
        .keys()
        .filter(|k| !session_entities.contains(*k))
        .count() as u64;

    let mut family_rows: Vec<FamilyEval> = families
        .into_iter()
        .map(|(name, acc)| acc.finish(name.to_string()))
        .collect();
    family_rows.sort_by(|a, b| a.family.cmp(&b.family));

    let decoy_sessions = truth.sessions.iter().filter(|s| s.decoy).count();
    EvalReport {
        sessions: truth.sessions.len(),
        attack_sessions: truth.sessions.len() - decoy_sessions,
        decoy_sessions,
        background_records: truth.background_records,
        families: family_rows,
        overall: overall.finish("overall".to_string()),
        decoy_detections,
        background_false_positives,
        fp_per_million_background: if truth.background_records == 0 {
            0.0
        } else {
            background_false_positives as f64 * 1_000_000.0 / truth.background_records as f64
        },
        dilation: truth.dilation,
        fault_profile: report.fault.as_ref().map(|f| f.profile.clone()),
        duplicates_suppressed: report.duplicates_suppressed,
        blocks_retried: report.blocks_retried,
        blocks_abandoned: report.blocks_abandoned,
        correlated_campaigns: report.campaigns.len() as u64,
        correlated_promotions: report.correlated_promotions,
        correlated_confirmations: report.correlated_confirmations,
    }
}

/// One fully scored campaign run.
#[derive(Debug)]
pub struct CampaignRun {
    /// The generated campaign (records already consumed by the pipeline;
    /// ground truth retained).
    pub truth: CampaignGroundTruth,
    pub stream: StreamReport,
    pub eval: EvalReport,
}

/// End-to-end reproducible campaign run: [`TestbedConfig::seed`] seeds the
/// campaign generator, [`PipelineBuilder::from_config`] assembles the
/// pipeline (executor per `cfg.tuning`), and the run is scored against the
/// generated ground truth. Two calls with equal configs are byte-identical.
pub fn run_campaign(
    cfg: &TestbedConfig,
    campaign_cfg: &CampaignConfig,
    model: ChainModel,
) -> CampaignRun {
    let mut rng = SimRng::seed(cfg.seed);
    let Campaign { records, truth } = generate_campaign(campaign_cfg, &mut rng);
    let report = PipelineBuilder::from_config(cfg, model)
        .build()
        .run(records);
    let eval = evaluate_campaign(&report, &truth);
    CampaignRun {
        truth,
        stream: report,
        eval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::alert::EntityKey;
    use scenario::mutate::MutationConfig;
    use scenario::stream::RecordStreamConfig;
    use simnet::intern::SymScope;
    use simnet::time::SimDuration;

    fn campaign_cfg(sessions: usize) -> CampaignConfig {
        CampaignConfig {
            sessions,
            horizon: SimDuration::from_hours(24),
            mutation: MutationConfig {
                decoy_prob: 0.15,
                ..MutationConfig::default()
            },
            background: Some(RecordStreamConfig {
                scan_records: 2_000,
                benign_flows: 500,
                exec_records: 1_500,
                users: 100,
                ..RecordStreamConfig::default()
            }),
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_run_detects_and_preempts_mutated_attacks() {
        let cfg = TestbedConfig::default();
        let run = run_campaign(&cfg, &campaign_cfg(48), detect::train::toy_training_model());
        assert_eq!(run.eval.sessions, 48);
        assert!(run.eval.attack_sessions >= 30);
        assert_eq!(run.eval.background_records, 4_000);
        assert!(
            run.eval.overall.detected > run.eval.attack_sessions / 2,
            "most mutated sessions detected: {}/{}",
            run.eval.overall.detected,
            run.eval.attack_sessions
        );
        assert!(
            run.eval.overall.preempted > 0,
            "some sessions preempted before damage"
        );
        // Accounting: detected = preempted + late; lead stats only count
        // sessions preempted ahead of a realized damage step.
        let o = &run.eval.overall;
        assert_eq!(o.detected, o.preempted + o.late);
        assert_eq!(o.sessions, o.detected + o.missed);
        assert!(o.lead.count <= o.preempted);
        assert!(o.lead.mean_secs >= 0.0);
    }

    #[test]
    fn same_seed_same_eval_report() {
        let cfg = TestbedConfig::default();
        let a = run_campaign(&cfg, &campaign_cfg(24), detect::train::toy_training_model());
        let b = run_campaign(&cfg, &campaign_cfg(24), detect::train::toy_training_model());
        assert_eq!(a.eval, b.eval, "single seed reproduces the whole run");
        assert_eq!(a.truth, b.truth);
        let mut other = TestbedConfig::default();
        other.seed ^= 0xDEAD;
        let c = run_campaign(
            &other,
            &campaign_cfg(24),
            detect::train::toy_training_model(),
        );
        assert_ne!(a.truth, c.truth, "different seed, different campaign");
    }

    #[test]
    fn eval_report_serializes_and_tabulates() {
        let cfg = TestbedConfig::default();
        let run = run_campaign(&cfg, &campaign_cfg(16), detect::train::toy_training_model());
        let json = run.eval.to_json();
        let rendered = serde_json::to_string_pretty(&json).expect("serialize");
        for key in [
            "preemption_rate",
            "fp_per_million_background",
            "median_records",
            "overall",
        ] {
            assert!(rendered.contains(key), "missing {key}: {rendered}");
        }
        assert_eq!(
            json.get("sessions").as_f64(),
            Some(16.0),
            "session count serialized"
        );
        let table = run.eval.table();
        assert!(table.contains("overall"));
        assert!(table.contains("preempt%"));
        // PR 7's lateral-split breakdown is part of the rendered table,
        // not just the JSON.
        assert!(table.contains("split p%"));
        assert!(table.contains("unspl p%"));
        for line in table.lines().skip(1).take(run.eval.families.len() + 1) {
            assert_eq!(
                line.split_whitespace().count(),
                12,
                "every row carries the split columns: {line}"
            );
        }
    }

    #[test]
    fn decoy_detections_do_not_count_as_family_detections() {
        // All-decoy campaign: no attack sessions, so family rows are empty
        // and any notification would land in decoy/background buckets.
        let cfg = TestbedConfig::default();
        let ccfg = CampaignConfig {
            sessions: 10,
            mutation: MutationConfig {
                decoy_prob: 1.0,
                ..MutationConfig::default()
            },
            background: None,
            ..CampaignConfig::default()
        };
        let run = run_campaign(&cfg, &ccfg, detect::train::toy_training_model());
        assert_eq!(run.eval.attack_sessions, 0);
        assert_eq!(run.eval.decoy_sessions, 10);
        assert!(run.eval.families.is_empty());
        assert_eq!(
            run.eval.decoy_detections, 0,
            "benign-shaped decoys must not trip the tagger"
        );
    }

    /// The tagger's ground-truth hooks (`detected_entities` etc.) must
    /// agree with the notification stream the harness scores from: a
    /// hand-driven tagger over the same campaign latches exactly the
    /// entities the pipeline notified about.
    #[test]
    fn tagger_hooks_cross_check_notification_stream() {
        let mut rng = SimRng::seed(77);
        let campaign = generate_campaign(
            &CampaignConfig {
                sessions: 12,
                ..CampaignConfig::default()
            },
            &mut rng,
        );
        let report = PipelineBuilder::new()
            .build()
            .run_inline(campaign.records.clone());

        let mut sym = alertlib::Symbolizer::with_defaults();
        let mut filt = alertlib::ScanFilter::default();
        let mut tagger = detect::AttackTagger::new(
            detect::train::toy_training_model(),
            detect::TaggerConfig::default(),
        );
        for r in &campaign.records {
            for a in sym.symbolize(r) {
                if filt.admit(&a) {
                    tagger.observe(&a);
                }
            }
        }
        let notified: std::collections::HashSet<EntityKey> = report
            .notifications
            .iter()
            .map(|n| n.entity.clone())
            .collect();
        let latched: std::collections::HashSet<EntityKey> =
            tagger.detected_entities(&SymScope::global()).collect();
        assert_eq!(notified, latched, "hooks and notifications must agree");
        assert!(!latched.is_empty(), "campaign must trigger detections");
        for k in &latched {
            assert!(tagger.is_detected(k));
            assert!(tagger.entity_steps(k).is_some());
        }
    }

    #[test]
    fn lead_stats_nearest_rank_small_samples() {
        // n = 0: no sample, all-zero stats (the old shared `rank` closure
        // underflowed `n - 1` here if reached).
        let s0 = LeadTimeStats::from_leads(Vec::new(), Vec::new());
        assert_eq!(s0, LeadTimeStats::default());
        assert_eq!(LeadTimeStats::rank(0, 0.5), 0, "rank total at n = 0");

        // n = 1: every percentile is the single sample.
        let s1 = LeadTimeStats::from_leads(vec![7.0], vec![3]);
        assert_eq!(s1.count, 1);
        for v in [s1.p10_secs, s1.median_secs, s1.p90_secs, s1.max_secs] {
            assert_eq!(v, 7.0);
        }
        assert_eq!(s1.median_records, 3.0);

        // n = 2: nearest-rank median is the *lower* sample (the old
        // `.round()` pulled it up to the upper), p10 lower, p90 upper.
        let s2 = LeadTimeStats::from_leads(vec![10.0, 20.0], vec![1, 5]);
        assert_eq!(s2.median_secs, 10.0);
        assert_eq!(s2.p10_secs, 10.0);
        assert_eq!(s2.p90_secs, 20.0);
        assert_eq!(s2.max_secs, 20.0);
        assert_eq!(s2.median_records, 1.0);
        assert_eq!(s2.mean_secs, 15.0);

        // n = 3: true middle median; p10 lowest, p90 highest.
        let s3 = LeadTimeStats::from_leads(vec![30.0, 10.0, 20.0], vec![9, 1, 4]);
        assert_eq!(s3.median_secs, 20.0);
        assert_eq!(s3.p10_secs, 10.0);
        assert_eq!(s3.p90_secs, 30.0);
        assert_eq!(s3.median_records, 4.0);
    }

    /// Rendered reports must never carry NaN/Inf rates: zero indicative
    /// background, zero background records, and all-decoy campaigns are
    /// the denominators that could degenerate.
    #[test]
    fn fp_rate_edge_cases_stay_finite_in_json() {
        let check = |eval: &EvalReport| {
            assert!(
                eval.fp_per_million_background.is_finite(),
                "fp/M must be finite"
            );
            assert!(eval.overall.preemption_rate.is_finite());
            let json = serde_json::to_string(&eval.to_json()).expect("serialize");
            // `serde_json::json!` maps non-finite floats to null — their
            // presence would mean a NaN/Inf sneaked into the report.
            assert!(!json.contains("null"), "no degenerate values: {json}");
            eval.to_json()
        };

        // Fully benign background: indicative_exec_fraction = 0.
        let cfg = TestbedConfig::default();
        let mut ccfg = campaign_cfg(12);
        if let Some(b) = &mut ccfg.background {
            b.indicative_exec_fraction = 0.0;
        }
        let run = run_campaign(&cfg, &ccfg, detect::train::toy_training_model());
        let json = check(&run.eval);
        assert!(json.get("fp_per_million_background").as_f64().is_some());

        // Zero background records.
        let ccfg = CampaignConfig {
            sessions: 6,
            background: None,
            ..CampaignConfig::default()
        };
        let run = run_campaign(&cfg, &ccfg, detect::train::toy_training_model());
        assert_eq!(run.eval.background_records, 0);
        assert_eq!(run.eval.fp_per_million_background, 0.0);
        check(&run.eval);

        // All-decoy campaign: no attack sessions at all (every per-family
        // denominator empty), still no background.
        let ccfg = CampaignConfig {
            sessions: 8,
            mutation: MutationConfig {
                decoy_prob: 1.0,
                ..MutationConfig::default()
            },
            background: None,
            ..CampaignConfig::default()
        };
        let run = run_campaign(&cfg, &ccfg, detect::train::toy_training_model());
        assert_eq!(run.eval.attack_sessions, 0);
        assert_eq!(run.eval.fp_per_million_background, 0.0);
        assert_eq!(run.eval.overall.preemption_rate, 0.0);
        check(&run.eval);
    }

    /// Fault accounting flows StreamReport → EvalReport → JSON, and a
    /// profile with zero sessions (faulted stream scored against empty
    /// ground truth) keeps every rate finite and the JSON null-free.
    #[test]
    fn fault_profile_breakdown_reaches_json_even_with_zero_sessions() {
        use scenario::faults::FaultPlan;
        use scenario::{record_stream, RecordStreamConfig};
        let records = record_stream(
            &SymScope::global(),
            &RecordStreamConfig {
                scan_records: 400,
                benign_flows: 100,
                exec_records: 200,
                users: 20,
                ..RecordStreamConfig::default()
            },
            &mut SimRng::seed(11),
        );
        let report = PipelineBuilder::new()
            .faults(
                FaultPlan::clean(9)
                    .named("loss-10pct")
                    .with_loss(0.10)
                    .with_duplication(0.05),
            )
            .build()
            .run_inline(records);
        // Zero-session edge: no ground truth at all for this profile.
        let eval = evaluate_campaign(&report, &CampaignGroundTruth::default());
        assert_eq!(eval.fault_profile.as_deref(), Some("loss-10pct"));
        assert_eq!(eval.sessions, 0);
        assert_eq!(eval.overall.preemption_rate, 0.0);
        assert!(eval.fp_per_million_background.is_finite());
        assert_eq!(eval.blocks_abandoned, 0);
        let json = serde_json::to_string(&eval.to_json()).expect("serialize");
        assert!(
            !json.contains("null"),
            "zero-session profile stays finite: {json}"
        );
        assert!(json.contains("\"fault_profile\":\"loss-10pct\""));
        assert!(json.contains("duplicates_suppressed"));
        assert!(json.contains("blocks_retried"));

        // Clean runs serialize the profile as the literal "clean".
        let clean = PipelineBuilder::new()
            .build()
            .run(Vec::<telemetry::LogRecord>::new());
        let eval = evaluate_campaign(&clean, &CampaignGroundTruth::default());
        assert_eq!(eval.fault_profile, None);
        let json = serde_json::to_string(&eval.to_json()).expect("serialize");
        assert!(json.contains("\"fault_profile\":\"clean\""));
        assert!(!json.contains("null"));
    }

    #[test]
    fn eval_report_carries_dilation_and_tempo() {
        let cfg = TestbedConfig::default();
        let mut ccfg = campaign_cfg(16);
        ccfg.mutation.dilation = 4.0;
        let run = run_campaign(&cfg, &ccfg, detect::train::toy_training_model());
        assert_eq!(run.truth.dilation, 4.0);
        assert_eq!(run.eval.dilation, 4.0);
        assert!(
            run.eval.overall.mean_step_gap_secs > 0.0,
            "attack sessions have realized tempo"
        );
        // Ground-truth gap stats align with the step timeline.
        for s in run.truth.sessions.iter().filter(|s| !s.decoy) {
            assert_eq!(
                s.step_gap_secs.len(),
                s.steps.len().saturating_sub(1),
                "one gap per consecutive step pair"
            );
            assert!(s.mean_step_gap_secs() >= 0.0);
            assert!(s.max_step_gap_secs() >= s.mean_step_gap_secs());
        }
        let json = run.eval.to_json();
        assert_eq!(json.get("dilation").as_f64(), Some(4.0));
        assert!(json
            .get("overall")
            .get("mean_step_gap_secs")
            .as_f64()
            .is_some());
    }

    #[test]
    fn lateral_split_breakdown_reaches_report_and_json() {
        // Force every attack session to split across 3 entities and turn
        // the correlator on (via the tagger config, as the lateral-split
        // quality gate does).
        let mut cfg = TestbedConfig::default();
        cfg.tagger.correlation = Some(detect::CorrelationPolicy::default());
        let mut ccfg = campaign_cfg(32);
        ccfg.mutation.lateral_prob = 1.0;
        ccfg.mutation.max_lateral_entities = 3;
        ccfg.mutation.decoy_prob = 0.0;
        let run = run_campaign(&cfg, &ccfg, detect::train::toy_training_model());

        let o = &run.eval.overall.lateral;
        assert!(o.split_sessions > 0, "forced lateral splits present");
        assert_eq!(
            o.split_sessions + o.unsplit_sessions,
            run.eval.attack_sessions,
            "every attack session classified split or unsplit"
        );
        assert!(o.split_preempted <= o.split_sessions);
        assert!(o.split_preemption_rate.is_finite());
        assert!(o.mean_cross_hop_lead_secs >= 0.0);
        // Ground truth carries per-step hop attribution for split sessions.
        for s in run.truth.sessions.iter().filter(|s| !s.decoy) {
            assert_eq!(s.step_entities.len(), s.steps.len());
            assert!(s.step_entities.iter().all(|&e| e < s.entity_keys.len()));
        }
        // Correlation accounting flows StreamReport → EvalReport → JSON.
        assert_eq!(
            run.eval.correlated_campaigns,
            run.stream.campaigns.len() as u64
        );
        let json = serde_json::to_string(&run.eval.to_json()).expect("serialize");
        for key in [
            "lateral_split",
            "split_preemption_rate",
            "hops_detected_before_damage",
            "mean_cross_hop_lead_secs",
            "correlated_campaigns",
            "correlated_promotions",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(!json.contains("null"), "lateral stats stay finite: {json}");

        // Without correlation the same campaign reports zero campaigns.
        let plain = run_campaign(
            &TestbedConfig::default(),
            &ccfg,
            detect::train::toy_training_model(),
        );
        assert_eq!(plain.eval.correlated_campaigns, 0);
        assert_eq!(plain.eval.correlated_promotions, 0);
    }

    #[test]
    fn empty_truth_and_empty_report_are_fine() {
        let report = PipelineBuilder::new()
            .build()
            .run(Vec::<telemetry::LogRecord>::new());
        let eval = evaluate_campaign(&report, &CampaignGroundTruth::default());
        assert_eq!(eval.sessions, 0);
        assert_eq!(eval.overall.preemption_rate, 0.0);
        assert_eq!(eval.fp_per_million_background, 0.0);
    }
}
