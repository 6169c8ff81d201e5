//! The §II measurement study on a generated longitudinal corpus: attack
//! similarity (Insight 1), common-sequence mining (Insight 2), timing
//! dispersion (Insight 3) and critical-alert lateness (Insight 4).
//!
//! ```text
//! cargo run --example incident_mining
//! ```

use attack_tagger::prelude::*;
use mining::{
    compare_phase_timing, measure_criticality, measure_recurrence, mine_common_patterns,
    s1_pattern, similarity_cdf,
};

fn main() {
    let store = scenario::generate_corpus(&LongitudinalConfig::default());
    println!("=== Longitudinal corpus ===");
    println!("incidents      : {}", store.len());
    println!("total alerts   : {}", store.total_alerts());
    println!("families       : {}", store.families().len());
    println!();

    // Insight 1: pairwise Jaccard similarity CDF (Fig. 3a).
    let cdf = similarity_cdf(&store);
    println!("=== Insight 1: attack similarity (Fig. 3a) ===");
    println!("pairs          : {}", cdf.len());
    println!(
        "fraction <=33% : {:.3} (paper: >= 0.95)",
        cdf.fraction_le(0.33)
    );
    println!("median         : {:.3}", cdf.quantile(0.5));
    println!();

    // Insight 2: common alert sequences (Fig. 3b). LcsPeers counts the
    // incidents whose shared signature with a peer is exactly the pattern
    // (see the README's "Fig. 3b counts and the 60.08% S1 motif" on how
    // this reconciles "S1 seen 14 times" with the 60% motif prevalence).
    let patterns = mine_common_patterns(
        &store,
        &MinerConfig {
            min_len: 4,
            support: mining::lcs::SupportMode::LcsPeers,
            ..Default::default()
        },
    );
    println!("=== Insight 2: common sequences (Fig. 3b) ===");
    println!("patterns mined : {}", patterns.len());
    for p in patterns.iter().take(5) {
        println!(
            "  {}: support={} len={} [{}]",
            p.name(),
            p.support,
            p.len(),
            p.seq
                .iter()
                .map(|k| k.symbol())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!();

    // The S1 recurrence claim.
    let rec = measure_recurrence(&store, &s1_pattern());
    println!("=== S1 motif recurrence ===");
    println!(
        "support        : {:.2}% ({}/{}) (paper: 60.08%)",
        100.0 * rec.support_fraction(),
        rec.hits,
        rec.total
    );
    println!(
        "span           : {:?} - {:?}",
        rec.first_year, rec.last_year
    );
    println!();

    // Insight 3: timing dispersion.
    if let Some(cmp) = compare_phase_timing(&store) {
        println!("=== Insight 3: timing ===");
        println!(
            "automated phase: mean gap {:.1}s cv {:.2}",
            cmp.automated.mean_gap_secs, cmp.automated.cv
        );
        println!(
            "manual phase   : mean gap {:.1}s cv {:.2}",
            cmp.manual.mean_gap_secs, cmp.manual.cv
        );
        println!("manual more variable: {}", cmp.manual_more_variable());
        println!();
    }

    // Insight 4: criticality.
    let crit = measure_criticality(&store);
    println!("=== Insight 4: critical alerts ===");
    println!(
        "unique critical kinds : {} (paper: 19)",
        crit.unique_critical_kinds
    );
    println!(
        "occurrences           : {} (paper: 98)",
        crit.critical_occurrences
    );
    println!(
        "mean relative position of first critical: {:.2} (late in the timeline)",
        crit.mean_first_critical_position
    );
    println!(
        "mean preemption budget: {:.1} alerts",
        crit.mean_preemption_budget
    );
}
