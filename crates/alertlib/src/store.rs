//! Incident storage.
//!
//! An [`Incident`] bundles a forensically examined attack: the ground truth
//! report, the attack family, the year, and the alert sequence directly
//! related to the attack — the unit of the paper's 200+ incident corpus
//! (Table I). The [`IncidentStore`] is the longitudinal dataset.

use std::fmt;

use simnet::rng::FxHashSet;
use simnet::time::SimTime;

use crate::alert::Alert;
use crate::annotate::GroundTruth;
use crate::taxonomy::AlertKind;

/// Incident identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IncidentId(pub u32);

impl fmt::Display for IncidentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INC-{:04}", self.0)
    }
}

/// One security incident.
#[derive(Debug, Clone)]
pub struct Incident {
    pub id: IncidentId,
    /// Attack family label (e.g. "ransomware", "ssh-keylogger").
    pub family: String,
    /// Calendar year the incident occurred.
    pub year: i32,
    /// The human-written report's ground truth.
    pub report: GroundTruth,
    /// Time-ordered alerts directly related to the attack.
    pub alerts: Vec<Alert>,
}

impl Incident {
    pub fn new(id: IncidentId, family: impl Into<String>, year: i32) -> Incident {
        Incident {
            id,
            family: family.into(),
            year,
            report: GroundTruth::default(),
            alerts: Vec::new(),
        }
    }

    /// Append an alert; alerts must be pushed in time order.
    pub fn push_alert(&mut self, alert: Alert) {
        debug_assert!(
            self.alerts.last().is_none_or(|last| last.ts <= alert.ts),
            "alerts must be time-ordered"
        );
        self.alerts.push(alert);
    }

    /// The set of distinct alert kinds (for Jaccard similarity, Fig. 3a).
    pub fn kind_set(&self) -> FxHashSet<AlertKind> {
        self.alerts.iter().map(|a| a.kind).collect()
    }

    /// The alert-kind sequence in time order (for LCS mining, Fig. 3b).
    pub fn kind_sequence(&self) -> Vec<AlertKind> {
        self.alerts.iter().map(|a| a.kind).collect()
    }

    /// Timestamp of the first alert.
    pub fn start_ts(&self) -> Option<SimTime> {
        self.alerts.first().map(|a| a.ts)
    }

    /// Timestamp of the first *critical* alert — the moment damage becomes
    /// irreversible (Insight 4). Preemption must beat this instant.
    pub fn first_damage_ts(&self) -> Option<SimTime> {
        self.alerts.iter().find(|a| a.is_critical()).map(|a| a.ts)
    }

    /// Number of alerts before the first critical alert (the preemption
    /// budget; Insight 2's "two to four alerts" window).
    pub fn preemption_budget(&self) -> usize {
        self.alerts.iter().take_while(|a| !a.is_critical()).count()
    }

    /// Whether the given kind subsequence occurs (in order, possibly with
    /// gaps) in this incident's alert sequence.
    pub fn contains_subsequence(&self, pattern: &[AlertKind]) -> bool {
        let mut it = pattern.iter();
        let mut next = it.next();
        for a in &self.alerts {
            match next {
                Some(&k) if a.kind == k => next = it.next(),
                Some(_) => {}
                None => break,
            }
        }
        next.is_none()
    }

    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }
}

/// The longitudinal incident corpus.
#[derive(Debug, Clone, Default)]
pub struct IncidentStore {
    incidents: Vec<Incident>,
}

impl IncidentStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an incident, returning its id.
    pub fn add(&mut self, mut incident: Incident) -> IncidentId {
        let id = IncidentId(self.incidents.len() as u32);
        incident.id = id;
        self.incidents.push(incident);
        id
    }

    pub fn get(&self, id: IncidentId) -> Option<&Incident> {
        self.incidents.get(id.0 as usize)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.iter()
    }

    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Incidents in a year range (inclusive).
    pub fn by_years(&self, from: i32, to: i32) -> impl Iterator<Item = &Incident> {
        self.incidents
            .iter()
            .filter(move |i| i.year >= from && i.year <= to)
    }

    /// Total alerts across all incidents.
    pub fn total_alerts(&self) -> usize {
        self.incidents.iter().map(Incident::len).sum()
    }

    /// Distinct attack family names.
    pub fn families(&self) -> Vec<&str> {
        let mut fams: Vec<&str> = self.incidents.iter().map(|i| i.family.as_str()).collect();
        fams.sort_unstable();
        fams.dedup();
        fams
    }

    /// Fraction of incidents containing the given kind subsequence — used
    /// for the "60.08% of incidents contain S1" claim (experiment E6).
    pub fn subsequence_support(&self, pattern: &[AlertKind]) -> f64 {
        if self.incidents.is_empty() {
            return 0.0;
        }
        let hits = self
            .incidents
            .iter()
            .filter(|i| i.contains_subsequence(pattern))
            .count();
        hits as f64 / self.incidents.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::Entity;

    fn alert(t: u64, kind: AlertKind) -> Alert {
        Alert::new(SimTime::from_secs(t), kind, Entity::User("eve".into()))
    }

    fn s1_incident(year: i32) -> Incident {
        let mut inc = Incident::new(IncidentId(0), "rootkit", year);
        inc.push_alert(alert(10, AlertKind::DownloadSensitive));
        inc.push_alert(alert(20, AlertKind::CompileKernelModule));
        inc.push_alert(alert(30, AlertKind::LogWipe));
        inc.push_alert(alert(40, AlertKind::PrivilegeEscalation));
        inc
    }

    #[test]
    fn kind_set_and_sequence() {
        let inc = s1_incident(2002);
        assert_eq!(inc.len(), 4);
        assert_eq!(inc.kind_set().len(), 4);
        assert_eq!(
            inc.kind_sequence(),
            vec![
                AlertKind::DownloadSensitive,
                AlertKind::CompileKernelModule,
                AlertKind::LogWipe,
                AlertKind::PrivilegeEscalation
            ]
        );
    }

    #[test]
    fn damage_timing_and_budget() {
        let inc = s1_incident(2002);
        assert_eq!(inc.first_damage_ts(), Some(SimTime::from_secs(40)));
        assert_eq!(inc.preemption_budget(), 3);
        assert_eq!(inc.start_ts(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn subsequence_containment() {
        let inc = s1_incident(2002);
        assert!(inc.contains_subsequence(&[
            AlertKind::DownloadSensitive,
            AlertKind::CompileKernelModule,
            AlertKind::LogWipe
        ]));
        // With a gap.
        assert!(inc.contains_subsequence(&[AlertKind::DownloadSensitive, AlertKind::LogWipe]));
        // Wrong order.
        assert!(!inc.contains_subsequence(&[AlertKind::LogWipe, AlertKind::DownloadSensitive]));
        // Empty pattern trivially contained.
        assert!(inc.contains_subsequence(&[]));
    }

    #[test]
    fn store_queries() {
        let mut store = IncidentStore::new();
        store.add(s1_incident(2002));
        store.add(s1_incident(2024));
        let mut other = Incident::new(IncidentId(0), "sqli", 2010);
        other.push_alert(alert(5, AlertKind::SqlInjectionProbe));
        store.add(other);
        assert_eq!(store.len(), 3);
        assert_eq!(store.total_alerts(), 9);
        assert_eq!(store.by_years(2000, 2005).count(), 1);
        assert_eq!(store.families(), vec!["rootkit", "sqli"]);
        let support = store.subsequence_support(&[
            AlertKind::DownloadSensitive,
            AlertKind::CompileKernelModule,
            AlertKind::LogWipe,
        ]);
        assert!((support - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn ids_reassigned_on_add() {
        let mut store = IncidentStore::new();
        let id0 = store.add(s1_incident(2002));
        let id1 = store.add(s1_incident(2003));
        assert_eq!(id0, IncidentId(0));
        assert_eq!(id1, IncidentId(1));
        assert_eq!(store.get(id1).unwrap().year, 2003);
        assert!(store.get(IncidentId(99)).is_none());
    }
}
