//! Detector evaluation: detection, preemption, lead time.
//!
//! The paper's headline result is *preemption*: the factor-graph model
//! notified operators **12 days** before the ransomware hit production.
//! This module scores any detector on an incident corpus plus benign
//! sessions: did it detect, did it detect *before the first critical
//! alert* (preemption), with how much lead time, and at what false-positive
//! cost on benign sessions.

use alertlib::alert::Alert;
use alertlib::store::{IncidentId, IncidentStore};
use rayon::prelude::*;
use simnet::time::SimDuration;

use crate::attack_tagger::{AttackTagger, Detection};
use crate::critical::CriticalOnlyDetector;
use crate::rules::RuleBasedDetector;

/// Anything that can scan a per-entity session for an attack.
pub trait SequenceDetector: Sync {
    fn name(&self) -> &str;
    fn scan(&self, alerts: &[Alert]) -> Option<Detection>;
}

impl SequenceDetector for AttackTagger {
    fn name(&self) -> &str {
        "attack-tagger"
    }
    fn scan(&self, alerts: &[Alert]) -> Option<Detection> {
        AttackTagger::scan(self, alerts)
    }
}

impl SequenceDetector for RuleBasedDetector {
    fn name(&self) -> &str {
        "rule-based"
    }
    fn scan(&self, alerts: &[Alert]) -> Option<Detection> {
        RuleBasedDetector::scan(self, alerts)
    }
}

impl SequenceDetector for CriticalOnlyDetector {
    fn name(&self) -> &str {
        "critical-only"
    }
    fn scan(&self, alerts: &[Alert]) -> Option<Detection> {
        CriticalOnlyDetector::scan(self, alerts)
    }
}

/// Per-incident evaluation outcome.
#[derive(Debug, Clone)]
pub struct IncidentOutcome {
    pub id: IncidentId,
    pub detected: bool,
    /// Detection strictly before the first critical alert.
    pub preempted: bool,
    /// Damage time minus detection time, when preempted.
    pub lead: Option<SimDuration>,
    /// Alerts observed before (and including) the detection trigger.
    pub alerts_to_detect: Option<usize>,
}

/// Aggregate evaluation summary.
#[derive(Debug, Clone)]
pub struct EvalSummary {
    pub detector: String,
    pub incidents: usize,
    pub detected: usize,
    pub preempted: usize,
    pub benign_sessions: usize,
    pub false_positives: usize,
    pub recall: f64,
    pub precision: f64,
    pub f1: f64,
    /// Fraction of incidents detected before damage.
    pub preemption_rate: f64,
    pub mean_lead_secs: f64,
    pub median_lead_secs: f64,
}

/// Evaluate a detector on a corpus and benign sessions.
pub fn evaluate(
    det: &dyn SequenceDetector,
    store: &IncidentStore,
    benign_sessions: &[Vec<Alert>],
) -> (Vec<IncidentOutcome>, EvalSummary) {
    let incidents: Vec<_> = store.iter().collect();
    let outcomes: Vec<IncidentOutcome> = incidents
        .par_iter()
        .map(|inc| {
            let detection = det.scan(&inc.alerts);
            let damage_ts = inc.first_damage_ts();
            match detection {
                None => IncidentOutcome {
                    id: inc.id,
                    detected: false,
                    preempted: false,
                    lead: None,
                    alerts_to_detect: None,
                },
                Some(d) => {
                    let (preempted, lead) = match damage_ts {
                        Some(dt) if d.ts < dt => (true, Some(dt - d.ts)),
                        Some(_) => (false, None),
                        // No damage in the incident: any detection is early.
                        None => (true, None),
                    };
                    IncidentOutcome {
                        id: inc.id,
                        detected: true,
                        preempted,
                        lead,
                        alerts_to_detect: Some(d.alert_index + 1),
                    }
                }
            }
        })
        .collect();

    let false_positives = benign_sessions
        .par_iter()
        .filter(|s| det.scan(s).is_some())
        .count();

    let detected = outcomes.iter().filter(|o| o.detected).count();
    let preempted = outcomes.iter().filter(|o| o.preempted).count();
    let mut leads: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.lead)
        .map(|l| l.as_secs_f64())
        .collect();
    leads.sort_by(|a, b| a.partial_cmp(b).expect("finite leads"));
    let recall = if outcomes.is_empty() {
        0.0
    } else {
        detected as f64 / outcomes.len() as f64
    };
    let precision = if detected + false_positives == 0 {
        1.0
    } else {
        detected as f64 / (detected + false_positives) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    let mean_lead = if leads.is_empty() {
        0.0
    } else {
        leads.iter().sum::<f64>() / leads.len() as f64
    };
    let median_lead = if leads.is_empty() {
        0.0
    } else {
        leads[leads.len() / 2]
    };
    let summary = EvalSummary {
        detector: det.name().to_string(),
        incidents: outcomes.len(),
        detected,
        preempted,
        benign_sessions: benign_sessions.len(),
        false_positives,
        recall,
        precision,
        f1,
        preemption_rate: if outcomes.is_empty() {
            0.0
        } else {
            preempted as f64 / outcomes.len() as f64
        },
        mean_lead_secs: mean_lead,
        median_lead_secs: median_lead,
    };
    (outcomes, summary)
}

/// Detection rate when the detector only sees the first `k` alerts of each
/// incident — Insight 2's "effective range ... two to four alerts"
/// (experiment E11).
pub fn prefix_sweep(
    det: &dyn SequenceDetector,
    store: &IncidentStore,
    max_prefix: usize,
) -> Vec<(usize, f64)> {
    (1..=max_prefix)
        .map(|k| {
            let hits = store
                .iter()
                .collect::<Vec<_>>()
                .par_iter()
                .filter(|inc| {
                    let n = inc.alerts.len().min(k);
                    det.scan(&inc.alerts[..n]).is_some()
                })
                .count();
            let rate = if store.is_empty() {
                0.0
            } else {
                hits as f64 / store.len() as f64
            };
            (k, rate)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack_tagger::TaggerConfig;
    use crate::train::toy_training_model;
    use alertlib::alert::Entity;
    use alertlib::store::Incident;
    use alertlib::taxonomy::AlertKind;
    use simnet::time::SimTime;

    fn mk_incident(kinds: &[AlertKind]) -> Incident {
        let mut inc = Incident::new(IncidentId(0), "t", 2020);
        for (i, &k) in kinds.iter().enumerate() {
            inc.push_alert(Alert::new(
                SimTime::from_secs(i as u64 * 100),
                k,
                Entity::User("eve".into()),
            ));
        }
        inc
    }

    fn corpus() -> IncidentStore {
        use AlertKind::*;
        let mut store = IncidentStore::new();
        for _ in 0..5 {
            store.add(mk_incident(&[
                PortScan,
                DownloadSensitive,
                CompileKernelModule,
                LogWipe,
                DataExfiltration,
            ]));
        }
        store
    }

    fn benign() -> Vec<Vec<Alert>> {
        use AlertKind::*;
        (0..10)
            .map(|_| {
                [LoginSuccess, JobSubmit, FileTransfer]
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| {
                        Alert::new(
                            SimTime::from_secs(i as u64),
                            k,
                            Entity::User("alice".into()),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn attack_tagger_preempts_critical_only_does_not() {
        let store = corpus();
        let benign = benign();
        let tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let (_, tagger_sum) = evaluate(&tagger, &store, &benign);
        assert_eq!(tagger_sum.detected, 5);
        assert_eq!(tagger_sum.preempted, 5, "tagger must beat the damage step");
        assert!(tagger_sum.mean_lead_secs > 0.0);
        assert_eq!(tagger_sum.false_positives, 0);
        assert!(tagger_sum.f1 > 0.99);

        let critical = CriticalOnlyDetector::new();
        let (_, crit_sum) = evaluate(&critical, &store, &benign);
        assert_eq!(crit_sum.detected, 5);
        assert_eq!(
            crit_sum.preempted, 0,
            "critical-only never preempts (Insight 4)"
        );
        assert_eq!(crit_sum.preemption_rate, 0.0);
    }

    #[test]
    fn rule_detector_preempts_known_patterns() {
        let store = corpus();
        let rules = RuleBasedDetector::with_default_rules();
        let (outcomes, sum) = evaluate(&rules, &store, &[]);
        assert_eq!(sum.preempted, 5);
        for o in outcomes {
            assert_eq!(
                o.alerts_to_detect,
                Some(3),
                "s1 rule completes at the third alert"
            );
            assert!(o.lead.is_some());
        }
    }

    #[test]
    fn prefix_sweep_shows_effective_range() {
        let store = corpus();
        let tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
        let sweep = prefix_sweep(&tagger, &store, 5);
        assert_eq!(sweep.len(), 5);
        // One alert (a scan) is not enough; by 2–4 alerts detection is in
        // the effective range (Insight 2).
        assert_eq!(sweep[0].1, 0.0, "single scan alert must not trigger");
        assert!(sweep[2].1 > 0.99, "three alerts suffice");
        // Monotone non-decreasing in k.
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn false_positives_reduce_precision() {
        use AlertKind::*;
        let store = corpus();
        // A detector that fires on everything.
        struct FireAlways;
        impl SequenceDetector for FireAlways {
            fn name(&self) -> &str {
                "fire-always"
            }
            fn scan(&self, alerts: &[Alert]) -> Option<Detection> {
                alerts.first().map(|a| Detection {
                    ts: a.ts,
                    alert_index: 0,
                    trigger: a.kind,
                    score: 1.0,
                    stage: crate::stage::Stage::Recon,
                })
            }
        }
        let benign = benign();
        let (_, sum) = evaluate(&FireAlways, &store, &benign);
        assert_eq!(sum.false_positives, 10);
        assert!(sum.precision < 0.4);
        let _ = LoginSuccess; // silence unused-import lint path
    }
}
