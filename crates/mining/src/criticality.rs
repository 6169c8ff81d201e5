//! Critical-alert analysis (Insight 4 / experiment E7).
//!
//! *"The entire dataset has 19 such unique critical alerts, which occur 98
//! times in the more than 200 attacks. In cases where critical alerts were
//! recorded, it was too late to preempt the system integrity loss."*
//!
//! This module measures: how many distinct critical kinds occur, how often,
//! where in the attack timeline they fall (position fraction), and how much
//! of each incident would remain after a critical-only detector fires.

use alertlib::store::IncidentStore;
use alertlib::taxonomy::AlertKind;
use simnet::rng::FxHashSet;

/// Corpus-wide criticality measurements.
#[derive(Debug, Clone)]
pub struct CriticalityReport {
    /// Distinct critical kinds observed (paper: 19).
    pub unique_critical_kinds: usize,
    /// Total critical alert occurrences (paper: 98).
    pub critical_occurrences: usize,
    /// Incidents containing at least one critical alert.
    pub incidents_with_critical: usize,
    pub total_incidents: usize,
    /// Mean relative position (0 = first alert, 1 = last alert) of the
    /// first critical alert within its incident.
    pub mean_first_critical_position: f64,
    /// Mean number of alerts preceding the first critical alert (the
    /// preemption budget).
    pub mean_preemption_budget: f64,
}

impl CriticalityReport {
    /// Insight 4's qualitative claim: criticals come late in the timeline.
    pub fn criticals_come_late(&self) -> bool {
        self.mean_first_critical_position > 0.5
    }
}

/// Measure criticality statistics over a corpus.
pub fn measure_criticality(store: &IncidentStore) -> CriticalityReport {
    let mut kinds: FxHashSet<AlertKind> = FxHashSet::default();
    let mut occurrences = 0usize;
    let mut with_critical = 0usize;
    let mut positions = Vec::new();
    let mut budgets = Vec::new();
    for inc in store.iter() {
        let mut first_idx: Option<usize> = None;
        for (i, a) in inc.alerts.iter().enumerate() {
            if a.is_critical() {
                kinds.insert(a.kind);
                occurrences += 1;
                if first_idx.is_none() {
                    first_idx = Some(i);
                }
            }
        }
        if let Some(i) = first_idx {
            with_critical += 1;
            budgets.push(i as f64);
            if inc.len() > 1 {
                positions.push(i as f64 / (inc.len() - 1) as f64);
            } else {
                positions.push(1.0);
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    CriticalityReport {
        unique_critical_kinds: kinds.len(),
        critical_occurrences: occurrences,
        incidents_with_critical: with_critical,
        total_incidents: store.len(),
        mean_first_critical_position: mean(&positions),
        mean_preemption_budget: mean(&budgets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::alert::{Alert, Entity};
    use alertlib::store::{Incident, IncidentId};
    use simnet::time::SimTime;

    fn incident(kinds: &[AlertKind]) -> Incident {
        let mut inc = Incident::new(IncidentId(0), "t", 2020);
        for (i, &k) in kinds.iter().enumerate() {
            inc.push_alert(Alert::new(SimTime::from_secs(i as u64), k, Entity::Unknown));
        }
        inc
    }

    #[test]
    fn counts_unique_kinds_and_occurrences() {
        use AlertKind::*;
        let mut store = IncidentStore::new();
        store.add(incident(&[
            PortScan,
            DownloadSensitive,
            PrivilegeEscalation,
        ]));
        store.add(incident(&[PortScan, PrivilegeEscalation, DataExfiltration]));
        store.add(incident(&[PortScan, LoginFailed]));
        let r = measure_criticality(&store);
        assert_eq!(r.unique_critical_kinds, 2);
        assert_eq!(r.critical_occurrences, 3);
        assert_eq!(r.incidents_with_critical, 2);
        assert_eq!(r.total_incidents, 3);
    }

    #[test]
    fn late_position_detected() {
        use AlertKind::*;
        let mut store = IncidentStore::new();
        // Critical at the very end of a 5-alert incident.
        store.add(incident(&[
            PortScan,
            BruteForcePassword,
            DownloadSensitive,
            LogWipe,
            DataExfiltration,
        ]));
        let r = measure_criticality(&store);
        assert_eq!(r.mean_first_critical_position, 1.0);
        assert_eq!(r.mean_preemption_budget, 4.0);
        assert!(r.criticals_come_late());
    }

    #[test]
    fn no_criticals() {
        use AlertKind::*;
        let mut store = IncidentStore::new();
        store.add(incident(&[PortScan, LoginFailed]));
        let r = measure_criticality(&store);
        assert_eq!(r.unique_critical_kinds, 0);
        assert_eq!(r.critical_occurrences, 0);
        assert_eq!(r.mean_first_critical_position, 0.0);
    }
}
