//! Rule-based baseline detector (ref \[5\]).
//!
//! The paper's testbed runs both a "rule-based detector \[5\]" and the
//! factor-graph detector. This baseline matches ordered alert-kind
//! sequences within a time window — the signature-matching approach that
//! Insight 1 motivates (recurring alert sequences) but that lacks the
//! probabilistic weighting of Remark 2.

use alertlib::alert::Alert;
use alertlib::taxonomy::AlertKind;
use simnet::time::SimDuration;

use crate::attack_tagger::Detection;
use crate::stage::Stage;

/// A detection rule: an ordered kind sequence within a window.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    pub sequence: Vec<AlertKind>,
    pub window: SimDuration,
}

impl Rule {
    pub fn new(name: impl Into<String>, sequence: Vec<AlertKind>, window: SimDuration) -> Rule {
        assert!(!sequence.is_empty(), "rule needs at least one kind");
        Rule {
            name: name.into(),
            sequence,
            window,
        }
    }
}

/// The rule engine.
#[derive(Debug, Clone, Default)]
pub struct RuleBasedDetector {
    rules: Vec<Rule>,
}

impl RuleBasedDetector {
    pub fn new(rules: Vec<Rule>) -> Self {
        RuleBasedDetector { rules }
    }

    /// The default ruleset: known recurring patterns from the corpus.
    pub fn with_default_rules() -> Self {
        use AlertKind::*;
        let d = SimDuration::from_hours(48);
        Self::new(vec![
            Rule::new(
                "s1-rootkit",
                vec![DownloadSensitive, CompileKernelModule],
                d,
            ),
            Rule::new(
                "db-payload-staging",
                vec![DbVersionRecon, ElfMagicInDbBlob],
                d,
            ),
            Rule::new("db-file-drop", vec![ElfMagicInDbBlob, LoExportExecution], d),
            Rule::new(
                "ssh-key-lateral",
                vec![SshKeyEnumeration, LateralMovementAttempt],
                d,
            ),
            Rule::new("known-malware", vec![KnownMalwareDownload], d),
            Rule::new("honeytoken", vec![HoneytokenAccess], d),
            Rule::new(
                "rce-chain",
                vec![RemoteCodeExecAttempt, DownloadBinaryUnknown],
                d,
            ),
        ])
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Scan a session for the earliest rule match. Returns the detection at
    /// the alert completing the earliest-finishing rule.
    pub fn scan(&self, alerts: &[Alert]) -> Option<Detection> {
        let mut best: Option<(usize, &Rule, f64)> = None;
        for rule in &self.rules {
            if let Some(idx) = match_rule(rule, alerts) {
                let better = match best {
                    None => true,
                    Some((bidx, _, _)) => idx < bidx,
                };
                if better {
                    best = Some((idx, rule, 1.0));
                }
            }
        }
        best.map(|(idx, _rule, score)| Detection {
            ts: alerts[idx].ts,
            alert_index: idx,
            trigger: alerts[idx].kind,
            score,
            stage: Stage::from_phase(alerts[idx].kind.phase()),
        })
    }
}

/// Find the first index at which `rule.sequence` completes as a subsequence
/// whose first and last matched alerts fall within the window.
fn match_rule(rule: &Rule, alerts: &[Alert]) -> Option<usize> {
    // Greedy anchored scan from each candidate start; early-exit on first
    // completion. Sessions are short (tens of alerts), so the O(n·m)
    // re-anchor loop is cheap and exact.
    for start in 0..alerts.len() {
        if alerts[start].kind != rule.sequence[0] {
            continue;
        }
        let t0 = alerts[start].ts;
        let mut needle = 1;
        if rule.sequence.len() == 1 {
            return Some(start);
        }
        for (i, a) in alerts.iter().enumerate().skip(start + 1) {
            if a.ts.saturating_since(t0) > rule.window {
                break;
            }
            if a.kind == rule.sequence[needle] {
                needle += 1;
                if needle == rule.sequence.len() {
                    return Some(i);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::alert::Entity;
    use simnet::time::SimTime;

    fn alert(t: u64, kind: AlertKind) -> Alert {
        Alert::new(SimTime::from_secs(t), kind, Entity::User("e".into()))
    }

    #[test]
    fn s1_rule_fires_at_second_step() {
        use AlertKind::*;
        let det = RuleBasedDetector::with_default_rules();
        let session = vec![
            alert(0, PortScan),
            alert(10, DownloadSensitive),
            alert(20, CompileKernelModule),
            alert(30, LogWipe),
        ];
        let d = det.scan(&session).expect("rule should fire");
        assert_eq!(d.alert_index, 2);
        assert_eq!(d.trigger, CompileKernelModule);
    }

    #[test]
    fn window_expiry_blocks_match() {
        use AlertKind::*;
        let rule = Rule::new(
            "slow",
            vec![DownloadSensitive, CompileKernelModule],
            SimDuration::from_secs(10),
        );
        let det = RuleBasedDetector::new(vec![rule]);
        let session = vec![alert(0, DownloadSensitive), alert(100, CompileKernelModule)];
        assert!(det.scan(&session).is_none());
    }

    #[test]
    fn reanchoring_finds_later_start() {
        use AlertKind::*;
        let rule = Rule::new(
            "pair",
            vec![DownloadSensitive, CompileKernelModule],
            SimDuration::from_secs(10),
        );
        let det = RuleBasedDetector::new(vec![rule]);
        // First DownloadSensitive expires, second anchors a valid match.
        let session = vec![
            alert(0, DownloadSensitive),
            alert(100, DownloadSensitive),
            alert(105, CompileKernelModule),
        ];
        let d = det.scan(&session).expect("re-anchored match");
        assert_eq!(d.alert_index, 2);
    }

    #[test]
    fn earliest_completing_rule_wins() {
        use AlertKind::*;
        let det = RuleBasedDetector::with_default_rules();
        let session = vec![
            alert(0, KnownMalwareDownload), // single-kind rule fires at 0
            alert(10, DownloadSensitive),
            alert(20, CompileKernelModule),
        ];
        let d = det.scan(&session).unwrap();
        assert_eq!(d.alert_index, 0);
        assert_eq!(d.trigger, KnownMalwareDownload);
    }

    #[test]
    fn no_match_no_detection() {
        use AlertKind::*;
        let det = RuleBasedDetector::with_default_rules();
        let session = vec![alert(0, LoginSuccess), alert(1, JobSubmit)];
        assert!(det.scan(&session).is_none());
    }

    #[test]
    fn empty_rule_rejected() {
        assert!(std::panic::catch_unwind(|| {
            Rule::new("bad", vec![], SimDuration::from_secs(1))
        })
        .is_err());
    }
}
