//! BENCH_7 — cross-entity campaign correlation: lateral-split recovery.
//!
//! PR 4's adversarial harness showed that splitting one attack session
//! across multiple entities (lateral hops) starves every per-entity
//! posterior: each hop sees only a fragment of the chain, so short
//! families lose most of their preemption. This bench sweeps the
//! seed-2809840877 campaign across lateral fan-outs (unsplit baseline,
//! then 2/3/4 hops per session) with the `CampaignCorrelator` stitching
//! hops via shared-victim / shared-source / host / palette join keys, and
//! gates on the recovery:
//!
//! - **Recovery gate** — at 2-hop fan-out, for sqli-webapp and data-exfil,
//!   the correlator must preempt ≥ 0.90 of the *recoverable* split
//!   sessions. Recoverable means a counterfactual unsplit observer — a
//!   fresh per-entity tagger replaying the session's merged template
//!   steps on one entity — would have preempted it; mutation draws whose
//!   pre-damage evidence is below the decision threshold even unsplit
//!   (e.g. a bare VulnScan→SqlI→SqlI prefix) are information-theoretically
//!   lost to any observer and excluded, so the gate measures exactly what
//!   the lateral split cost and the correlator won back. The fan-out 1
//!   sweep point records the absolute unsplit baseline informationally.
//! - **FP budget gate** — correlated FP-per-million at the gate point
//!   within 1.5x of the *uncorrelated* reference run on the same records.
//! - **Invariants** — inline and sharded detections byte-identical at
//!   every fan-out with correlation enabled, and the warmed
//!   symbolize → filter → observe+correlate path still allocation-free
//!   (< 0.05 allocs/record).
//!
//! Emits `BENCH_7.json` (at the workspace root, or `$BENCH_OUT`).
//! Run with: `cargo run --release -p bench --bin bench7`
//! Scale the workload with `BENCH_SCALE` (default 1.0; CI uses 0.2 —
//! the quality gates are asserted at full scale, recorded otherwise).

use std::time::Instant;

use bench::detection_bytes;
use detect::CorrelationPolicy;
use scenario::mutate::{generate_campaign, CampaignConfig, MutationConfig};
use scenario::stream::RecordStreamConfig;
use simnet::alloc_count::{allocations, CountingAllocator};
use simnet::rng::SimRng;
use simnet::time::SimDuration;
use testbed::stage::PipelineBuilder;
use testbed::TestbedConfig;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Lateral fan-outs swept: 1 = unsplit baseline, then 2/3/4 hops.
const FANOUTS: [usize; 4] = [1, 2, 3, 4];
/// The sweep point the recovery and FP gates read.
const GATE_FANOUT: usize = 2;
const RECOVERY_FAMILIES: [&str; 2] = ["sqli-webapp", "data-exfil"];
/// Fraction of the counterfactually-recoverable split sessions the
/// correlated pipeline must preempt.
const RECOVERY_RATIO: f64 = 0.90;
const FP_BUDGET_RATIO: f64 = 1.5;
const ALLOC_GATE_PER_RECORD: f64 = 0.05;

fn campaign_cfg(scale: f64, fanout: usize) -> CampaignConfig {
    CampaignConfig {
        sessions: ((240.0 * scale) as usize).max(16),
        horizon: SimDuration::from_days(3),
        mutation: MutationConfig {
            // Fan-out 1: no splits at all (the baseline). Otherwise every
            // non-decoy session splits across 2..=fanout entities.
            lateral_prob: if fanout > 1 { 1.0 } else { 0.0 },
            max_lateral_entities: fanout.max(1),
            ..MutationConfig::default()
        },
        background: Some(RecordStreamConfig {
            scan_records: (400_000.0 * scale) as usize,
            benign_flows: (150_000.0 * scale) as usize,
            exec_records: (450_000.0 * scale) as usize,
            users: 4_000,
            horizon: SimDuration::from_days(3),
            indicative_exec_fraction: 0.02,
            ..RecordStreamConfig::default()
        }),
        ..CampaignConfig::default()
    }
}

fn pipeline(cfg: &TestbedConfig, model: factorgraph::chain::ChainModel) -> PipelineBuilder {
    PipelineBuilder::from_config(cfg, model).alert_retention(1_000)
}

/// Would an *unsplit* observer have preempted this session? Replays the
/// session's template steps — merged across hops onto a single entity,
/// exactly what the per-entity tagger would have seen had the session not
/// split — through a fresh uncorrelated tagger and checks for a detection
/// strictly before the damage step. Split sessions failing even this carry
/// too little pre-damage evidence for any observer and are excluded from
/// the recovery gate's denominator.
fn counterfactual_unsplit_preempts(
    truth: &scenario::mutate::SessionTruth,
    model: &factorgraph::chain::ChainModel,
    cfg: &detect::attack_tagger::TaggerConfig,
) -> bool {
    use alertlib::alert::{Alert, Entity};
    let entity: std::net::Ipv4Addr = "198.18.255.254".parse().expect("static address");
    let mut tagger = detect::AttackTagger::new(model.clone(), cfg.clone());
    for &(ts, kind) in &truth.steps {
        if let Some(d) = tagger.observe(&Alert::new(ts, kind, Entity::Address(entity))) {
            return match truth.damage_ts {
                Some(damage) => d.ts < damage,
                None => true,
            };
        }
    }
    false
}

fn main() {
    let scale: f64 = std::env::var("BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    bench::banner("BENCH_7: cross-entity campaign correlation — lateral-split recovery");

    // Correlation rides on the tagger config, exactly as a deployment
    // would enable it; the plain config is the uncorrelated reference.
    let plain_cfg = TestbedConfig::default();
    let mut corr_cfg = TestbedConfig::default();
    corr_cfg.tagger.correlation = Some(CorrelationPolicy::default());
    let cores = rayon::current_num_threads();
    let model = bench::standard_model();

    let family_rate = |eval: &testbed::EvalReport, fam: &str, split: bool| -> f64 {
        eval.families
            .iter()
            .find(|f| f.family == fam)
            .map(|f| {
                if split {
                    f.lateral.split_preemption_rate
                } else {
                    f.lateral.unsplit_preemption_rate
                }
            })
            .unwrap_or(0.0)
    };

    let mut points = Vec::new();
    let mut baseline_eval: Option<testbed::EvalReport> = None;
    let mut gate_eval: Option<testbed::EvalReport> = None;
    let mut fp_at_reference = f64::NAN;
    let mut fp_at_gate = f64::NAN;
    let mut steady_allocs_per_record = f64::NAN;
    // Per gated family: (counterfactually recoverable split sessions,
    // of those, actually preempted by the correlated pipeline).
    let mut gate_recovery = [(0usize, 0usize); RECOVERY_FAMILIES.len()];

    println!(
        "{:<7} {:>9} {:>10} {:>10} {:>10} {:>10} {:>9} {:>10} {:>9}",
        "fanout",
        "records",
        "sqli",
        "data-exfil",
        "overall",
        "plain-ovr",
        "fp/M",
        "campaigns",
        "inline-s"
    );
    for fanout in FANOUTS {
        let mut campaign = generate_campaign(
            &campaign_cfg(scale, fanout),
            &mut SimRng::seed(corr_cfg.seed),
        );
        let n = campaign.records.len();
        let split = fanout > 1;

        // Correlated inline (timed) + sharded over the same records; the
        // detection streams must be byte-identical.
        let built = pipeline(&corr_cfg, model.clone()).build();
        let t0 = Instant::now();
        let inline = built.run_inline(campaign.records.clone());
        let inline_s = t0.elapsed().as_secs_f64();
        let sharded = pipeline(&corr_cfg, model.clone())
            .build()
            .run_sharded(campaign.records.clone());
        assert_eq!(
            detection_bytes(&inline),
            detection_bytes(&sharded),
            "fanout {fanout}: sharded detections must be byte-identical to inline"
        );
        assert_eq!(inline.stats, sharded.stats);
        assert_eq!(inline.campaigns, sharded.campaigns);

        // Uncorrelated reference on the same records — the before/after
        // recovery comparison and the FP denominator.
        let plain = pipeline(&plain_cfg, model.clone())
            .build()
            .run_inline(campaign.records.clone());
        let plain_eval = testbed::evaluate_campaign(&plain, &campaign.truth);

        let eval = testbed::evaluate_campaign(&inline, &campaign.truth);
        if split {
            assert!(
                eval.overall.lateral.split_sessions > 0,
                "fanout {fanout} must produce split sessions"
            );
        }

        if fanout == 1 {
            baseline_eval = Some(eval.clone());
        }
        if fanout == GATE_FANOUT {
            fp_at_gate = eval.fp_per_million_background;
            fp_at_reference = plain_eval.fp_per_million_background;
            gate_eval = Some(eval.clone());

            // Paired recovery accounting: which split sessions would an
            // unsplit observer have caught, and how many of those did the
            // correlator actually preempt? (Mirrors evaluate_campaign's
            // earliest-notification-per-hop preemption rule.)
            let mut first_detection: std::collections::HashMap<&str, simnet::time::SimTime> =
                std::collections::HashMap::new();
            for note in &inline.notifications {
                let e = first_detection
                    .entry(note.entity.as_str())
                    .or_insert(note.detection.ts);
                *e = (*e).min(note.detection.ts);
            }
            for s in &campaign.truth.sessions {
                if s.decoy || s.entity_keys.len() < 2 {
                    continue;
                }
                let Some(fi) = RECOVERY_FAMILIES.iter().position(|f| *f == s.family) else {
                    continue;
                };
                if !counterfactual_unsplit_preempts(s, &model, &plain_cfg.tagger) {
                    continue;
                }
                gate_recovery[fi].0 += 1;
                let det = s
                    .entity_keys
                    .iter()
                    .filter_map(|k| first_detection.get(k.as_str()))
                    .min()
                    .copied();
                let preempted = match (det, s.damage_ts) {
                    (Some(d), Some(damage)) => d < damage,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if preempted {
                    gate_recovery[fi].1 += 1;
                }
            }

            // Steady-state allocation check on the gate point, with the
            // correlator in the loop: warm the bare hot path once, then
            // count a full second pass.
            let mut sym = alertlib::Symbolizer::new(corr_cfg.symbolizer.clone());
            let mut filt = alertlib::ScanFilter::new(corr_cfg.filter.clone());
            let mut tagger =
                detect::correlate::correlated_tagger(model.clone(), corr_cfg.tagger.clone());
            let mut alerts = Vec::with_capacity(64);
            for r in &campaign.records {
                alerts.clear();
                sym.symbolize_into(r, &mut alerts);
                for a in &alerts {
                    if filt.admit(a) {
                        tagger.observe(a);
                    }
                }
            }
            let (steady_allocs, _) = allocations(|| {
                let mut d = 0u64;
                for r in &campaign.records {
                    alerts.clear();
                    sym.symbolize_into(r, &mut alerts);
                    for a in &alerts {
                        if filt.admit(a) && tagger.observe(a).is_some() {
                            d += 1;
                        }
                    }
                }
                d
            });
            steady_allocs_per_record = steady_allocs as f64 / n as f64;
        }

        println!(
            "{:<7} {:>9} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1} {:>10} {:>9.3}",
            fanout,
            n,
            family_rate(&eval, "sqli-webapp", split) * 100.0,
            family_rate(&eval, "data-exfil", split) * 100.0,
            eval.overall.preemption_rate * 100.0,
            plain_eval.overall.preemption_rate * 100.0,
            eval.fp_per_million_background,
            eval.correlated_campaigns,
            inline_s,
        );
        campaign.records.clear();
        points.push(serde_json::json!({
            "fanout": fanout,
            "records": n,
            "inline_seconds": inline_s,
            "detections_byte_identical": true,
            "correlated": eval.to_json(),
            "uncorrelated": {
                "overall_preemption_rate": plain_eval.overall.preemption_rate,
                "sqli_webapp": family_rate(&plain_eval, "sqli-webapp", split),
                "data_exfil": family_rate(&plain_eval, "data-exfil", split),
                "fp_per_million_background": plain_eval.fp_per_million_background,
                "mean_cross_hop_lead_secs": plain_eval.overall.lateral.mean_cross_hop_lead_secs,
            },
        }));
    }

    let baseline = baseline_eval.expect("sweep covers the unsplit baseline");
    let gate = gate_eval.expect("sweep covers the gate fanout");
    let sqli_base = family_rate(&baseline, RECOVERY_FAMILIES[0], false);
    let exfil_base = family_rate(&baseline, RECOVERY_FAMILIES[1], false);
    let sqli_split = family_rate(&gate, RECOVERY_FAMILIES[0], true);
    let exfil_split = family_rate(&gate, RECOVERY_FAMILIES[1], true);
    let recovered_ratio = |&(able, got): &(usize, usize)| -> f64 {
        if able == 0 {
            1.0
        } else {
            got as f64 / able as f64
        }
    };
    let recovery_pass = gate_recovery
        .iter()
        .all(|r| recovered_ratio(r) >= RECOVERY_RATIO);
    let fp_ratio = if fp_at_reference > 0.0 {
        fp_at_gate / fp_at_reference
    } else if fp_at_gate == 0.0 {
        1.0
    } else {
        f64::INFINITY
    };
    let fp_pass = fp_ratio <= FP_BUDGET_RATIO;
    let alloc_pass = steady_allocs_per_record < ALLOC_GATE_PER_RECORD;

    println!(
        "\n2-hop recovery: sqli-webapp {}/{} recoverable preempted (split {:.1}%, unsplit \
         baseline {:.1}%), data-exfil {}/{} (split {:.1}%, baseline {:.1}%) \
         (floor {:.0}% of recoverable) -> {}",
        gate_recovery[0].1,
        gate_recovery[0].0,
        sqli_split * 100.0,
        sqli_base * 100.0,
        gate_recovery[1].1,
        gate_recovery[1].0,
        exfil_split * 100.0,
        exfil_base * 100.0,
        RECOVERY_RATIO * 100.0,
        if recovery_pass { "PASS" } else { "FAIL" },
    );
    println!(
        "fp budget     : {fp_at_gate:.1}/M correlated vs {fp_at_reference:.1}/M uncorrelated \
         ({fp_ratio:.2}x, limit {FP_BUDGET_RATIO}x) -> {}",
        if fp_pass { "PASS" } else { "FAIL" },
    );
    println!(
        "allocations   : {steady_allocs_per_record:.6}/record steady-state (limit {ALLOC_GATE_PER_RECORD}) -> {}",
        if alloc_pass { "PASS" } else { "FAIL" },
    );

    let artifact = serde_json::json!({
        "workload": {
            "sessions": ((240.0 * scale) as usize).max(16),
            "fanouts": FANOUTS.to_vec(),
            "scale": scale,
            "seed": corr_cfg.seed,
        },
        "cores": cores,
        "points": points,
        "detections_byte_identical": true,
        "acceptance": {
            "lateral_split": {
                "families": RECOVERY_FAMILIES.to_vec(),
                "at_fanout": GATE_FANOUT,
                "min_recovered_ratio": RECOVERY_RATIO,
                // Gate ledgers: split sessions a counterfactual unsplit
                // observer would have preempted, and how many of those
                // the correlated pipeline actually preempted.
                "sqli_webapp_recoverable": gate_recovery[0].0,
                "sqli_webapp_recovered": gate_recovery[0].1,
                "sqli_webapp_recovered_ratio": recovered_ratio(&gate_recovery[0]),
                "data_exfil_recoverable": gate_recovery[1].0,
                "data_exfil_recovered": gate_recovery[1].1,
                "data_exfil_recovered_ratio": recovered_ratio(&gate_recovery[1]),
                // Absolute rates, informational: the unsplit figures come
                // from the fan-out 1 sweep point (a different mutation
                // draw, not a paired population).
                "sqli_webapp_split": sqli_split,
                "sqli_webapp_unsplit": sqli_base,
                "data_exfil_split": exfil_split,
                "data_exfil_unsplit": exfil_base,
                // Gates presume the full 240-session campaign; tiny CI
                // scales have 3-6 sessions per family and are recorded
                // informationally.
                "applicable": scale >= 1.0,
                "pass": scale < 1.0 || recovery_pass,
            },
            "fp_budget": {
                "max_ratio": FP_BUDGET_RATIO,
                "fp_per_million_reference": fp_at_reference,
                "fp_per_million_at_gate": fp_at_gate,
                "ratio": fp_ratio,
                "applicable": scale >= 1.0,
                "pass": scale < 1.0 || fp_pass,
            },
            "steady_state_allocations": {
                "per_record": steady_allocs_per_record,
                "limit": ALLOC_GATE_PER_RECORD,
                "pass": alloc_pass,
            },
        },
    });
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_7.json".to_string());
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&artifact).expect("serialize"),
    )
    .expect("write BENCH_7.json");
    println!("[artifact] {out}");

    // Hard gates. Allocation and byte-identity hold at any scale; the
    // detection-quality gates presume the full-scale campaign.
    assert!(alloc_pass, "steady-state allocations per record regressed");
    let enforce = std::env::var("BENCH_ENFORCE").map_or(true, |v| v != "0");
    if enforce && scale >= 1.0 {
        assert!(
            recovery_pass,
            "2-hop recovery gate failed: sqli-webapp {}/{} recoverable split sessions preempted, \
             data-exfil {}/{}",
            gate_recovery[0].1, gate_recovery[0].0, gate_recovery[1].1, gate_recovery[1].0,
        );
        assert!(
            fp_pass,
            "FP budget gate failed: {fp_ratio:.2}x over the uncorrelated reference"
        );
    } else if !(recovery_pass && fp_pass) {
        println!(
            "NOTE: quality gates not enforced ({})",
            if scale < 1.0 {
                format!("BENCH_SCALE={scale} < 1")
            } else {
                "BENCH_ENFORCE=0".to_string()
            }
        );
    }
}
