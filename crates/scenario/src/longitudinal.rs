//! The 24-year longitudinal dataset generator (Table I).
//!
//! Produces an incident corpus calibrated to the paper's published
//! statistics:
//!
//! - **more than 200 incidents** over 2000–2024 (default 228),
//! - S-pattern families with Fig. 3b's support distribution,
//! - the S1 motif present in **60.08%** of incidents,
//! - **19 unique critical kinds occurring 98 times**,
//! - noise prologues so pairwise similarity stays below Fig. 3a's 33%
//!   knee for ≥95% of pairs.

use alertlib::store::{Incident, IncidentStore};
use alertlib::taxonomy::AlertKind;
use simnet::rng::SimRng;
use simnet::time::SimTime;

use crate::incident::{generate_incident, IncidentSpec};
use crate::library::{s1_motif, s_pattern_signatures, s_pattern_supports};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct LongitudinalConfig {
    pub seed: u64,
    pub start_year: i32,
    pub end_year: i32,
    /// Total incidents ("more than 200").
    pub total_incidents: usize,
    /// Target fraction of incidents containing the S1 motif (60.08%).
    pub s1_fraction: f64,
    /// Total critical-alert occurrences (98).
    pub critical_occurrences: usize,
    /// Noise prologue length range.
    pub noise_range: (usize, usize),
}

impl Default for LongitudinalConfig {
    fn default() -> Self {
        LongitudinalConfig {
            seed: 20_240_801,
            start_year: 2000,
            end_year: 2024,
            total_incidents: 228,
            s1_fraction: 0.6008,
            critical_occurrences: 98,
            noise_range: (3, 9),
        }
    }
}

/// Generate the longitudinal corpus.
pub fn generate_corpus(cfg: &LongitudinalConfig) -> IncidentStore {
    let mut rng = SimRng::seed(cfg.seed);
    let signatures = s_pattern_signatures(&mut rng);
    let supports = s_pattern_supports();
    assert_eq!(signatures.len(), supports.len());

    // Build the per-incident plan: `supports[i]` incidents carry signature
    // i; the remainder are one-off attacks with random signatures.
    let mut plans: Vec<(String, Vec<AlertKind>)> = Vec::with_capacity(cfg.total_incidents);
    for (i, (sig, &support)) in signatures.iter().zip(&supports).enumerate() {
        for _ in 0..support {
            plans.push((format!("family-s{}", i + 1), sig.clone()));
        }
    }
    // One-off incidents: random 3–6 kind signatures.
    let pool: Vec<AlertKind> = AlertKind::ALL
        .iter()
        .copied()
        .filter(|k| {
            use alertlib::taxonomy::Severity::*;
            matches!(k.severity(), Attempt | Significant)
        })
        .collect();
    while plans.len() < cfg.total_incidents {
        let len = rng.range_u64(4, 8) as usize;
        let mut sig = Vec::with_capacity(len);
        while sig.len() < len {
            let k = *rng.pick(&pool);
            if !sig.contains(&k) {
                sig.push(k);
            }
        }
        plans.push(("one-off".into(), sig));
    }
    plans.truncate(cfg.total_incidents);
    rng.shuffle(&mut plans);

    // Motif plan: exactly round(s1_fraction · total) incidents carry it.
    let motif_target = (cfg.s1_fraction * cfg.total_incidents as f64).round() as usize;
    let mut motif_flags = vec![false; cfg.total_incidents];
    // Plans whose signature already contains the motif count toward the
    // target; mark extra incidents until the target is reached.
    let motif = s1_motif();
    let mut have = 0usize;
    for (i, (_, sig)) in plans.iter().enumerate() {
        if contains_subseq(&motif, sig) {
            motif_flags[i] = true;
            have += 1;
        }
    }
    let mut i = 0;
    while have < motif_target && i < cfg.total_incidents {
        if !motif_flags[i] {
            motif_flags[i] = true;
            have += 1;
        }
        i += 1;
    }

    // Critical plan: `critical_occurrences` incidents end in damage, the 19
    // critical kinds assigned round-robin so every kind occurs.
    let criticals: Vec<AlertKind> = AlertKind::critical_kinds().collect();
    let mut critical_plan: Vec<Option<AlertKind>> = vec![None; cfg.total_incidents];
    for (n, slot) in critical_plan
        .iter_mut()
        .take(cfg.critical_occurrences)
        .enumerate()
    {
        *slot = Some(criticals[n % criticals.len()]);
    }
    rng.shuffle(&mut critical_plan);

    // Year plan: linear growth toward the present (attack volume grows).
    let years: Vec<i32> = (cfg.start_year..=cfg.end_year).collect();
    let weights: Vec<f64> = (0..years.len()).map(|i| 1.0 + i as f64 * 0.15).collect();

    let mut store = IncidentStore::new();
    for (idx, (family, sig)) in plans.into_iter().enumerate() {
        let year = years[rng.weighted_index(&weights)];
        let month = rng.range_u64(1, 13) as u32;
        let day = rng.range_u64(1, 28) as u32;
        let start = SimTime::from_date(year, month, day);
        let spec = IncidentSpec {
            family,
            year,
            signature: sig,
            noise_prologue: rng.range_u64(cfg.noise_range.0 as u64, cfg.noise_range.1 as u64 + 1)
                as usize,
            weave_s1: motif_flags[idx],
            critical: critical_plan[idx],
        };
        store.add(generate_incident(&mut rng, start, &spec));
    }
    store
}

/// Force the first (by year) motif incident to 2002 and the last to 2024 so
/// the corpus exhibits the paper's "first observed in 2002 ... as of 2024"
/// recurrence claim; [`generate_corpus`] with defaults usually already
/// covers the span, this pins it for small configurations.
pub fn pin_motif_span(store: &mut IncidentStore) {
    let motif = s1_motif();
    let mut first: Option<usize> = None;
    let mut last: Option<usize> = None;
    let snapshot: Vec<(usize, i32, bool)> = store
        .iter()
        .enumerate()
        .map(|(i, inc)| (i, inc.year, contains_subseq(&motif, &inc.kind_sequence())))
        .collect();
    for (i, year, has) in &snapshot {
        if !has {
            continue;
        }
        if first.is_none_or(|f| snapshot[f].1 > *year) {
            first = Some(*i);
        }
        if last.is_none_or(|l| snapshot[l].1 < *year) {
            last = Some(*i);
        }
    }
    // IncidentStore has no mutable iteration API by design; rebuild.
    if let (Some(f), Some(l)) = (first, last) {
        let mut rebuilt = IncidentStore::new();
        for (i, inc) in store.iter().enumerate() {
            let mut inc: Incident = inc.clone();
            if i == f {
                inc.year = inc.year.min(2002);
            }
            if i == l {
                inc.year = inc.year.max(2024);
            }
            rebuilt.add(inc);
        }
        *store = rebuilt;
    }
}

fn contains_subseq(needle: &[AlertKind], haystack: &[AlertKind]) -> bool {
    let mut it = needle.iter();
    let mut next = it.next();
    for x in haystack {
        match next {
            Some(n) if n == x => next = it.next(),
            Some(_) => {}
            None => return true,
        }
    }
    next.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> IncidentStore {
        generate_corpus(&LongitudinalConfig::default())
    }

    #[test]
    fn corpus_size_and_span() {
        let store = corpus();
        assert_eq!(store.len(), 228);
        assert!(store.total_alerts() > 228 * 5);
        let years: Vec<i32> = store.iter().map(|i| i.year).collect();
        assert!(years.iter().any(|&y| y <= 2005));
        assert!(years.iter().any(|&y| y >= 2023));
    }

    #[test]
    fn motif_fraction_matches_paper() {
        let store = corpus();
        let motif = s1_motif().to_vec();
        let frac = store.subsequence_support(&motif);
        assert!(
            (frac - 0.6008).abs() < 0.02,
            "S1 motif support {frac} should be ≈60.08%"
        );
    }

    #[test]
    fn critical_calibration() {
        let store = corpus();
        let mut kinds = std::collections::HashSet::new();
        let mut occurrences = 0;
        for inc in store.iter() {
            for a in &inc.alerts {
                if a.is_critical() {
                    kinds.insert(a.kind);
                    occurrences += 1;
                }
            }
        }
        assert_eq!(occurrences, 98, "paper: criticals occur 98 times");
        assert_eq!(kinds.len(), 19, "paper: 19 unique critical alerts");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_corpus(&LongitudinalConfig::default());
        let b = generate_corpus(&LongitudinalConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.alerts, y.alerts);
        }
    }

    #[test]
    fn pin_motif_span_covers_2002_to_2024() {
        let mut store = corpus();
        pin_motif_span(&mut store);
        let motif = s1_motif();
        let years: Vec<i32> = store
            .iter()
            .filter(|i| contains_subseq(&motif, &i.kind_sequence()))
            .map(|i| i.year)
            .collect();
        assert!(years.iter().min().unwrap() <= &2002);
        assert!(years.iter().max().unwrap() >= &2024);
    }

    #[test]
    fn small_configs_work() {
        let cfg = LongitudinalConfig {
            total_incidents: 20,
            critical_occurrences: 10,
            ..Default::default()
        };
        let store = generate_corpus(&cfg);
        assert_eq!(store.len(), 20);
    }
}
