//! E11 — Insight 2's effective range: detection as a function of the
//! observed alert prefix, plus the full detector comparison (the README's
//! "Ablations": factor graph vs rule-based vs critical-only).
//!
//! "An attack preemption model must work with sequences of two to five
//! alerts to detect the attack."

use bench::{banner, write_artifact};
use detect::{
    evaluate, prefix_sweep, AttackTagger, CriticalOnlyDetector, RuleBasedDetector,
    SequenceDetector, TaggerConfig,
};

fn main() {
    banner("Preemption effective range (E11)");
    let store = bench::standard_corpus();
    let benign = bench::standard_benign(400);
    let model = bench::standard_model();

    let tagger = AttackTagger::new(model, TaggerConfig::default());
    let rules = RuleBasedDetector::with_default_rules();
    let critical = CriticalOnlyDetector::new();
    let detectors: Vec<(&str, &dyn SequenceDetector)> = vec![
        ("attack-tagger", &tagger),
        ("rule-based", &rules),
        ("critical-only", &critical),
    ];

    // Prefix sweep over *attack-session* alerts: the detector keys on the
    // compromised account's entity (§III-B), so Insight 2's "two to four
    // alerts" counts the alerts of that session, not the unauthenticated
    // scan prologue that precedes it under a different entity.
    let session_store = {
        let mut s = alertlib::IncidentStore::new();
        for inc in store.iter() {
            let mut trimmed = alertlib::Incident::new(inc.id, inc.family.clone(), inc.year);
            trimmed.report = inc.report.clone();
            for a in &inc.alerts {
                if matches!(a.entity, alertlib::Entity::User(_)) {
                    trimmed.push_alert(*a);
                }
            }
            if !trimmed.is_empty() {
                s.add(trimmed);
            }
        }
        s
    };
    println!("\ndetection rate vs observed attack-session prefix length:");
    print!("{:<8}", "k");
    for (name, _) in &detectors {
        print!("{name:>16}");
    }
    println!();
    let mut sweeps = Vec::new();
    for k in 1..=8 {
        print!("{k:<8}");
        for (_, det) in &detectors {
            let sweep = prefix_sweep(*det, &session_store, k);
            let rate = sweep.last().map(|(_, r)| *r).unwrap_or(0.0);
            print!("{rate:>16.3}");
        }
        println!();
    }
    for (name, det) in &detectors {
        let sweep = prefix_sweep(*det, &session_store, 8);
        sweeps.push(serde_json::json!({"detector": name, "sweep": sweep}));
    }
    // Insight 2's effective range: by 2–4 session alerts the factor-graph
    // model has substantial detection; one alert is not enough.
    let tagger_sweep = prefix_sweep(&tagger, &session_store, 4);
    let rate_at = |k: usize| {
        tagger_sweep
            .iter()
            .find(|(kk, _)| *kk == k)
            .map(|(_, r)| *r)
            .unwrap_or(0.0)
    };
    println!(
        "\ninsight 2 check: tagger detection at k=1: {:.3}, k=4: {:.3}",
        rate_at(1),
        rate_at(4)
    );
    assert!(
        rate_at(4) > 0.8,
        "2-4 session alerts must be the effective range"
    );

    // Full evaluation: recall / precision / preemption / lead.
    println!(
        "\nfull-sequence evaluation (with {} benign sessions):",
        benign.len()
    );
    println!(
        "{:<16}{:>8}{:>10}{:>8}{:>12}{:>12}{:>14}",
        "detector", "recall", "precision", "f1", "preempted", "rate", "lead (h)"
    );
    let mut evals = Vec::new();
    for (name, det) in &detectors {
        let (_, s) = evaluate(*det, &store, &benign);
        println!(
            "{:<16}{:>8.3}{:>10.3}{:>8.3}{:>12}{:>12.3}{:>14.1}",
            name,
            s.recall,
            s.precision,
            s.f1,
            s.preempted,
            s.preemption_rate,
            s.mean_lead_secs / 3_600.0
        );
        evals.push(serde_json::json!({
            "detector": name,
            "recall": s.recall,
            "precision": s.precision,
            "f1": s.f1,
            "preempted": s.preempted,
            "preemption_rate": s.preemption_rate,
            "mean_lead_hours": s.mean_lead_secs / 3_600.0,
            "false_positives": s.false_positives,
        }));
    }
    // The structural claims of the paper.
    let (_, tagger_eval) = evaluate(&tagger, &store, &benign);
    let (_, critical_eval) = evaluate(&critical, &store, &benign);
    assert!(
        tagger_eval.preemption_rate > critical_eval.preemption_rate,
        "the factor-graph model must preempt where critical-only cannot"
    );
    assert_eq!(
        critical_eval.preemption_rate, 0.0,
        "Insight 4: critical-only never preempts"
    );

    write_artifact(
        "preemption_range",
        &serde_json::json!({
            "prefix_sweeps": sweeps,
            "evaluations": evals,
            "paper": {"effective_range": "2-4 alerts", "critical_only_preemption": 0.0},
        }),
    );
}
