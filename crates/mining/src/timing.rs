//! Alert timing analysis (Insight 3).
//!
//! *"Attacks in the wild often start with a set of repetitive but
//! inconclusive alerts ... once an attacker identified a target, they would
//! manually carry out the attack. Thus, the time between alerts in this
//! stage exhibits significant variability."*
//!
//! We split each incident's alert stream into the *automated* phase
//! (noise/attempt severities: scans, brute force) and the *manual* phase
//! (significant and critical alerts) and compare inter-arrival gap
//! dispersion (coefficient of variation) between the two.

use alertlib::alert::Alert;
use alertlib::store::IncidentStore;
use alertlib::taxonomy::Severity;

use crate::stats::Summary;

/// Inter-arrival gaps (seconds) between consecutive alerts.
pub fn inter_arrival_secs(alerts: &[Alert]) -> Vec<f64> {
    alerts
        .windows(2)
        .map(|w| w[1].ts.saturating_since(w[0].ts).as_secs_f64())
        .collect()
}

/// Timing profile of one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTiming {
    /// Number of gaps measured.
    pub gaps: usize,
    pub mean_gap_secs: f64,
    pub std_gap_secs: f64,
    /// Coefficient of variation (σ/μ): the paper's dispersion signal.
    pub cv: f64,
}

impl PhaseTiming {
    fn from_gaps(gaps: &[f64]) -> Option<PhaseTiming> {
        let s = Summary::of(gaps)?;
        Some(PhaseTiming {
            gaps: s.n,
            mean_gap_secs: s.mean,
            std_gap_secs: s.std_dev,
            cv: s.cv(),
        })
    }
}

/// Automated-vs-manual timing comparison across a corpus.
#[derive(Debug, Clone, Copy)]
pub struct TimingComparison {
    pub automated: PhaseTiming,
    pub manual: PhaseTiming,
}

impl TimingComparison {
    /// Insight 3's qualitative claim: the manual stage is more variable.
    pub fn manual_more_variable(&self) -> bool {
        self.manual.cv > self.automated.cv
    }
}

/// Split an incident's alerts into (automated, manual) sub-streams.
pub fn split_phases(alerts: &[Alert]) -> (Vec<&Alert>, Vec<&Alert>) {
    let mut auto = Vec::new();
    let mut manual = Vec::new();
    for a in alerts {
        match a.severity() {
            Severity::Noise | Severity::Attempt => auto.push(a),
            Severity::Significant | Severity::Critical => manual.push(a),
            Severity::Info => {}
        }
    }
    (auto, manual)
}

/// Phase class of one alert for timing purposes.
fn phase_class(a: &Alert) -> Option<bool> {
    // true = automated, false = manual. `Attempt` alerts are excluded:
    // a probe can be fired by a scanner or typed by a human mid-attack,
    // so they measure neither cadence cleanly.
    match a.severity() {
        Severity::Noise => Some(true),
        Severity::Significant | Severity::Critical => Some(false),
        Severity::Info | Severity::Attempt => None,
    }
}

/// Compare automated vs manual inter-arrival dispersion over all incidents.
///
/// Only gaps between *consecutive alerts of the same phase* count: a gap
/// spanning the automated→manual hand-off measures neither tool cadence
/// nor human cadence and would contaminate both distributions.
/// Returns `None` if either phase has fewer than two gaps corpus-wide.
pub fn compare_phase_timing(store: &IncidentStore) -> Option<TimingComparison> {
    let mut auto_gaps = Vec::new();
    let mut manual_gaps = Vec::new();
    for inc in store.iter() {
        for w in inc.alerts.windows(2) {
            let (Some(a), Some(b)) = (phase_class(&w[0]), phase_class(&w[1])) else {
                continue;
            };
            if a != b {
                continue;
            }
            let gap = w[1].ts.saturating_since(w[0].ts).as_secs_f64();
            if a {
                auto_gaps.push(gap);
            } else {
                manual_gaps.push(gap);
            }
        }
    }
    Some(TimingComparison {
        automated: PhaseTiming::from_gaps(&auto_gaps)?,
        manual: PhaseTiming::from_gaps(&manual_gaps)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::alert::Entity;
    use alertlib::store::{Incident, IncidentId};
    use alertlib::taxonomy::AlertKind;
    use simnet::time::SimTime;

    fn alert(t: u64, kind: AlertKind) -> Alert {
        Alert::new(SimTime::from_secs(t), kind, Entity::Unknown)
    }

    #[test]
    fn gaps_computed() {
        let alerts = vec![
            alert(0, AlertKind::PortScan),
            alert(10, AlertKind::PortScan),
            alert(40, AlertKind::PortScan),
        ];
        assert_eq!(inter_arrival_secs(&alerts), vec![10.0, 30.0]);
        assert!(inter_arrival_secs(&alerts[..1]).is_empty());
    }

    #[test]
    fn phase_split_by_severity() {
        let alerts = vec![
            alert(0, AlertKind::PortScan),            // Noise → automated
            alert(1, AlertKind::BruteForcePassword),  // Attempt → automated
            alert(2, AlertKind::LoginSuccess),        // Info → neither
            alert(3, AlertKind::DownloadSensitive),   // Significant → manual
            alert(4, AlertKind::PrivilegeEscalation), // Critical → manual
        ];
        let (auto, manual) = split_phases(&alerts);
        assert_eq!(auto.len(), 2);
        assert_eq!(manual.len(), 2);
    }

    #[test]
    fn manual_phase_more_variable_in_constructed_corpus() {
        let mut store = IncidentStore::new();
        let mut inc = Incident::new(IncidentId(0), "t", 2020);
        // Automated: metronome probes every 5 s (CV ≈ 0).
        for i in 0..20u64 {
            inc.push_alert(alert(i * 5, AlertKind::PortScan));
        }
        // Manual: wildly varying gaps.
        let manual_times = [200u64, 210, 400, 2_000, 2_010, 9_000];
        for (i, &t) in manual_times.iter().enumerate() {
            let k = if i % 2 == 0 {
                AlertKind::DownloadSensitive
            } else {
                AlertKind::LogWipe
            };
            inc.push_alert(alert(t, k));
        }
        store.add(inc);
        let cmp = compare_phase_timing(&store).unwrap();
        assert!(
            cmp.automated.cv < 0.01,
            "metronome CV ~0, got {}",
            cmp.automated.cv
        );
        assert!(cmp.manual_more_variable());
        assert!(cmp.manual.cv > 0.5);
    }

    #[test]
    fn insufficient_gaps_yield_none() {
        let mut store = IncidentStore::new();
        let mut inc = Incident::new(IncidentId(0), "t", 2020);
        inc.push_alert(alert(0, AlertKind::PortScan));
        store.add(inc);
        assert!(compare_phase_timing(&store).is_none());
    }
}
