//! E5 — Fig. 3b: counts of common alert sequences S1..S43.
//!
//! Insight 2: 43 recurring sequences, lengths 2–14, the most frequent seen
//! 14 times. Mining uses LCS-peer support (the number of incidents whose
//! shared signature with a peer is exactly the pattern) — see the README's
//! "Fig. 3b counts and the 60.08% S1 motif" for how this reconciles with
//! the S1-motif prevalence, and the `planted` series for the generator's
//! ground-truth family sizes.

use bench::{banner, compare, write_artifact};
use mining::lcs::{mine_common_patterns, MinerConfig, SupportMode};

fn main() {
    banner("Fig. 3b: common alert sequences (E5)");
    let store = bench::standard_corpus();
    let t0 = std::time::Instant::now();
    let cfg = MinerConfig {
        min_len: 4,
        max_len: 14,
        min_support: 2,
        max_patterns: 43,
        support: SupportMode::LcsPeers,
    };
    let patterns = mine_common_patterns(&store, &cfg);
    println!("mined {} patterns in {:?}", patterns.len(), t0.elapsed());

    println!("\n{:<6}{:>9}{:>7}  sequence", "id", "count", "len");
    for p in &patterns {
        let preview: Vec<&str> = p.seq.iter().take(5).map(|k| k.symbol()).collect();
        let ellipsis = if p.seq.len() > 5 { ", …" } else { "" };
        println!(
            "{:<6}{:>9}{:>7}  [{}{}]",
            p.name(),
            p.support,
            p.len(),
            preview.join(", "),
            ellipsis
        );
    }

    // The generator's planted family-size distribution (the ground truth
    // the paper's own histogram shape encodes: max 14, tail of 2s).
    let planted = scenario::s_pattern_supports();
    println!(
        "\nplanted family sizes: max={} min={} n={}",
        planted[0],
        planted.last().unwrap(),
        planted.len()
    );
    println!();
    compare("number of patterns", patterns.len() as f64, 43.0);
    compare("planted max support", planted[0] as f64, 14.0);
    if let Some(top) = patterns.first() {
        println!(
            "mined top pattern: {} count={} (motif-superset counts run above the planted 14; see README)",
            top.name(),
            top.support
        );
    }
    let lens: Vec<usize> = patterns.iter().map(|p| p.len()).collect();
    println!(
        "mined lengths: min={} max={} (paper: 2–14)",
        lens.iter().min().unwrap_or(&0),
        lens.iter().max().unwrap_or(&0)
    );

    write_artifact(
        "fig3b",
        &serde_json::json!({
            "patterns": patterns
                .iter()
                .map(|p| serde_json::json!({
                    "id": p.name(),
                    "support": p.support,
                    "len": p.len(),
                    "seq": p.seq.iter().map(|k| k.symbol()).collect::<Vec<_>>(),
                }))
                .collect::<Vec<_>>(),
            "planted_supports": planted,
            "paper": {"patterns": 43, "max_count": 14, "lengths": "2-14"},
        }),
    );
}
