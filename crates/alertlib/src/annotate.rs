//! Ground-truth annotation.
//!
//! §II-A: *"A majority of alerts (99.7%) have been automatically annotated
//! with corresponding attack states. ... Only a small fraction (0.3%) of
//! alerts (i.e., ones that appear in both attack and legitimate activities)
//! cannot be annotated automatically. We consulted with several security
//! experts to annotate the remaining alerts."*
//!
//! The [`Annotator`] reproduces that pipeline: kinds whose label is implied
//! by the taxonomy are annotated automatically; a configurable set of
//! *ambiguous* kinds is routed to an expert resolver, which here consults
//! the incident's [`GroundTruth`] (the human-written incident report).

use std::net::Ipv4Addr;

use simnet::rng::FxHashSet;

use crate::alert::{Alert, Entity};
use crate::taxonomy::{AlertKind, Severity};

/// Binary attack-state label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    Benign,
    Malicious,
}

/// How a label was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Auto,
    Expert,
}

/// An annotated alert label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Annotation {
    pub label: Label,
    pub method: Method,
}

/// The ground truth from a human-written incident report: "the users and
/// the machines involved in the incident" (§II-A).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// Compromised or attacker-controlled accounts.
    pub users: Vec<String>,
    /// Compromised machines (hostnames).
    pub machines: Vec<String>,
    /// Attacker source addresses.
    pub attacker_ips: Vec<Ipv4Addr>,
}

impl GroundTruth {
    /// Whether the alert's entity is implicated by this report.
    pub fn implicates(&self, alert: &Alert) -> bool {
        let entity_hit = match &alert.entity {
            Entity::User(u) => self.users.iter().any(|x| x == u),
            Entity::Address(a) => self.attacker_ips.contains(a),
            Entity::Unknown => false,
        };
        entity_hit || alert.src.is_some_and(|s| self.attacker_ips.contains(&s))
    }
}

/// Summary counts of an annotation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnotationReport {
    pub total: u64,
    pub auto_annotated: u64,
    pub expert_annotated: u64,
    pub malicious: u64,
    pub benign: u64,
}

impl AnnotationReport {
    /// Fraction annotated automatically (the paper reports 99.7%).
    pub fn auto_fraction(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.auto_annotated as f64 / self.total as f64
    }
}

/// The annotation engine.
#[derive(Debug, Clone)]
pub struct Annotator {
    /// Kinds appearing in both attack and legitimate activity — these are
    /// the 0.3% that cannot be auto-annotated.
    ambiguous: FxHashSet<AlertKind>,
}

impl Default for Annotator {
    fn default() -> Self {
        let mut ambiguous = FxHashSet::default();
        for k in [
            AlertKind::CompileSource,
            AlertKind::LoginUnusualHour,
            AlertKind::InternalPivotLogin,
            AlertKind::NewServiceInstall,
            AlertKind::ArchiveStaging,
            AlertKind::PasswordFileAccess,
        ] {
            ambiguous.insert(k);
        }
        Annotator { ambiguous }
    }
}

impl Annotator {
    pub fn new(ambiguous: impl IntoIterator<Item = AlertKind>) -> Self {
        Annotator {
            ambiguous: ambiguous.into_iter().collect(),
        }
    }

    /// Whether a kind requires expert review.
    pub fn is_ambiguous(&self, kind: AlertKind) -> bool {
        self.ambiguous.contains(&kind)
    }

    /// The automatic label for a kind, or `None` if ambiguous.
    pub fn auto_label(&self, kind: AlertKind) -> Option<Label> {
        if self.is_ambiguous(kind) {
            return None;
        }
        Some(match kind.severity() {
            Severity::Info => Label::Benign,
            // Mass scans and attempts overwhelmingly fail (Remark 2); as
            // isolated alerts they are not evidence of a successful attack.
            Severity::Noise | Severity::Attempt => Label::Benign,
            Severity::Significant | Severity::Critical => Label::Malicious,
        })
    }

    /// Annotate one alert, consulting the ground truth for ambiguous kinds
    /// (the "expert" of §II-A reads the incident report).
    pub fn annotate(&self, alert: &Alert, gt: &GroundTruth) -> Annotation {
        match self.auto_label(alert.kind) {
            Some(label) => Annotation {
                label,
                method: Method::Auto,
            },
            None => {
                let label = if gt.implicates(alert) {
                    Label::Malicious
                } else {
                    Label::Benign
                };
                Annotation {
                    label,
                    method: Method::Expert,
                }
            }
        }
    }

    /// Annotate a batch and produce the coverage report (experiment E10).
    pub fn annotate_batch(
        &self,
        alerts: &[Alert],
        gt: &GroundTruth,
    ) -> (Vec<Annotation>, AnnotationReport) {
        let mut report = AnnotationReport::default();
        let mut labels = Vec::with_capacity(alerts.len());
        for a in alerts {
            let ann = self.annotate(a, gt);
            report.total += 1;
            match ann.method {
                Method::Auto => report.auto_annotated += 1,
                Method::Expert => report.expert_annotated += 1,
            }
            match ann.label {
                Label::Malicious => report.malicious += 1,
                Label::Benign => report.benign += 1,
            }
            labels.push(ann);
        }
        (labels, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;

    fn gt() -> GroundTruth {
        GroundTruth {
            users: vec!["eve".into()],
            machines: vec!["db01".into()],
            attacker_ips: vec!["111.200.1.1".parse().unwrap()],
        }
    }

    #[test]
    fn info_and_noise_auto_benign() {
        let ann = Annotator::default();
        assert_eq!(ann.auto_label(AlertKind::LoginSuccess), Some(Label::Benign));
        assert_eq!(ann.auto_label(AlertKind::PortScan), Some(Label::Benign));
    }

    #[test]
    fn significant_and_critical_auto_malicious() {
        let ann = Annotator::default();
        assert_eq!(
            ann.auto_label(AlertKind::KnownMalwareDownload),
            Some(Label::Malicious)
        );
        assert_eq!(
            ann.auto_label(AlertKind::PrivilegeEscalation),
            Some(Label::Malicious)
        );
    }

    #[test]
    fn ambiguous_kinds_need_expert() {
        let ann = Annotator::default();
        assert_eq!(ann.auto_label(AlertKind::CompileSource), None);
        assert!(ann.is_ambiguous(AlertKind::LoginUnusualHour));
    }

    #[test]
    fn expert_resolution_uses_ground_truth() {
        let ann = Annotator::default();
        let attacker_alert = Alert::new(
            SimTime::from_secs(0),
            AlertKind::CompileSource,
            Entity::User("eve".into()),
        );
        let benign_alert = Alert::new(
            SimTime::from_secs(0),
            AlertKind::CompileSource,
            Entity::User("alice".into()),
        );
        let a = ann.annotate(&attacker_alert, &gt());
        assert_eq!((a.label, a.method), (Label::Malicious, Method::Expert));
        let b = ann.annotate(&benign_alert, &gt());
        assert_eq!((b.label, b.method), (Label::Benign, Method::Expert));
    }

    #[test]
    fn attacker_ip_implication() {
        let alert = Alert::new(
            SimTime::from_secs(0),
            AlertKind::InternalPivotLogin,
            Entity::Address("111.200.1.1".parse().unwrap()),
        );
        assert!(gt().implicates(&alert));
    }

    #[test]
    fn batch_report_fractions() {
        let ann = Annotator::default();
        let mut alerts = Vec::new();
        for i in 0..997 {
            alerts.push(Alert::new(
                SimTime::from_secs(i),
                AlertKind::PortScan,
                Entity::Address("1.1.1.1".parse().unwrap()),
            ));
        }
        for i in 0..3 {
            alerts.push(Alert::new(
                SimTime::from_secs(i),
                AlertKind::CompileSource,
                Entity::User("eve".into()),
            ));
        }
        let (labels, report) = ann.annotate_batch(&alerts, &gt());
        assert_eq!(labels.len(), 1_000);
        assert_eq!(report.total, 1_000);
        assert_eq!(report.expert_annotated, 3);
        assert!((report.auto_fraction() - 0.997).abs() < 1e-9);
    }
}
