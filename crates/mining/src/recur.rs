//! Pattern recurrence across years (experiment E6).
//!
//! §I: the S1 pattern "first observed in 2002, continues to appear in
//! attacks as of 2024 and was found in 60.08% (137 out of more than 200) of
//! past security incidents." This module measures, for an alert-kind
//! subsequence, which incidents/years contain it.

use alertlib::store::IncidentStore;
use alertlib::taxonomy::AlertKind;

/// Recurrence measurement of one pattern over a corpus.
#[derive(Debug, Clone)]
pub struct Recurrence {
    /// Incidents containing the pattern.
    pub hits: usize,
    /// Total incidents in the corpus.
    pub total: usize,
    /// First calendar year the pattern appears in.
    pub first_year: Option<i32>,
    /// Last calendar year the pattern appears in.
    pub last_year: Option<i32>,
    /// Distinct years with at least one containing incident.
    pub years: Vec<i32>,
}

impl Recurrence {
    /// Fraction of incidents containing the pattern (paper: 60.08%).
    pub fn support_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.hits as f64 / self.total as f64
    }

    /// Years between first and last appearance, inclusive.
    pub fn span_years(&self) -> Option<i32> {
        Some(self.last_year? - self.first_year? + 1)
    }
}

/// Measure recurrence of an alert-kind subsequence over the corpus.
pub fn measure_recurrence(store: &IncidentStore, pattern: &[AlertKind]) -> Recurrence {
    let mut years = Vec::new();
    let mut hits = 0;
    for inc in store.iter() {
        if inc.contains_subsequence(pattern) {
            hits += 1;
            years.push(inc.year);
        }
    }
    years.sort_unstable();
    years.dedup();
    Recurrence {
        hits,
        total: store.len(),
        first_year: years.first().copied(),
        last_year: years.last().copied(),
        years,
    }
}

/// The canonical S1 pattern of the paper: download source over unsecured
/// HTTP → compile as kernel module → erase the forensic trace.
pub fn s1_pattern() -> Vec<AlertKind> {
    vec![
        AlertKind::DownloadSensitive,
        AlertKind::CompileKernelModule,
        AlertKind::LogWipe,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::alert::{Alert, Entity};
    use alertlib::store::{Incident, IncidentId};
    use simnet::time::SimTime;

    fn incident(year: i32, kinds: &[AlertKind]) -> Incident {
        let mut inc = Incident::new(IncidentId(0), "t", year);
        for (i, &k) in kinds.iter().enumerate() {
            inc.push_alert(Alert::new(SimTime::from_secs(i as u64), k, Entity::Unknown));
        }
        inc
    }

    #[test]
    fn recurrence_counts_and_span() {
        use AlertKind::*;
        let mut store = IncidentStore::new();
        store.add(incident(
            2002,
            &[PortScan, DownloadSensitive, CompileKernelModule, LogWipe],
        ));
        store.add(incident(2010, &[SqlInjectionProbe]));
        store.add(incident(
            2024,
            &[DownloadSensitive, VulnScan, CompileKernelModule, LogWipe],
        ));
        let r = measure_recurrence(&store, &s1_pattern());
        assert_eq!(r.hits, 2);
        assert_eq!(r.total, 3);
        assert_eq!(r.first_year, Some(2002));
        assert_eq!(r.last_year, Some(2024));
        assert_eq!(r.span_years(), Some(23));
        assert!((r.support_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.years, vec![2002, 2024]);
    }

    #[test]
    fn empty_store() {
        let store = IncidentStore::new();
        let r = measure_recurrence(&store, &s1_pattern());
        assert_eq!(r.hits, 0);
        assert_eq!(r.support_fraction(), 0.0);
        assert!(r.span_years().is_none());
    }
}
