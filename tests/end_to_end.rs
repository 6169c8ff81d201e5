//! Cross-crate integration tests: the full pipeline from scripted actions
//! to operator notifications and BHR response.

use attack_tagger::prelude::*;
use scenario::{build_scenario, RansomwareConfig};

/// The §V ransomware is preempted with ~12 days of lead over the
/// production wave, and the attacker source ends up null-routed.
#[test]
fn ransomware_preempted_with_twelve_day_lead() {
    let rw = RansomwareConfig::default();
    let mut cfg = TestbedConfig::default();
    cfg.c2_feed.push(rw.c2_server);
    let mut tb = Testbed::new(cfg);

    let scenario = {
        let topo = tb.topology().clone();
        build_scenario(&topo, tb.deployment_mut(), &rw)
    };
    let c2_time = scenario.c2_time;
    let production_time = scenario.production_time;
    tb.schedule(scenario.actions);
    let report = tb.run();

    let first = report.first_notification().expect("detection required");
    assert!(
        first <= c2_time,
        "preemption must be no later than the C2 step"
    );
    let lead = production_time - first;
    assert!(
        lead.as_days() >= 11,
        "expected ~12 days of lead, got {}",
        lead.as_days()
    );
    assert!(report.stats.detections >= 1);
    // The ransomware source was null-routed by the response stage.
    assert!(
        tb.bhr().is_blocked(production_time, rw.attacker),
        "detected attacker source must be blocked"
    );
}

/// Mass scanning is absorbed: auto-blocked at the border, filtered in the
/// pipeline, and never detected as an attack.
#[test]
fn scanner_flood_absorbed_without_false_positives() {
    let mut tb = Testbed::new(TestbedConfig::default());
    let start = tb.config().start;
    let production = simnet::addr::ncsa_production();
    let mut actions = Vec::new();
    for i in 0..10_000u64 {
        let t = start + SimDuration::from_millis(i * 10);
        actions.push((
            t,
            Action::Flow(Flow::probe(
                FlowId(i),
                t,
                "103.102.8.9".parse().unwrap(),
                production.nth(i % 65_536),
                22,
            )),
        ));
    }
    tb.schedule(actions);
    let report = tb.run();
    assert_eq!(
        report.stats.detections, 0,
        "scans alone must not raise detections"
    );
    assert!(
        report.router.dropped > 9_000,
        "auto-block must absorb the flood"
    );
    assert!(
        report.stats.admitted < 100,
        "scan filter must collapse the flood (got {})",
        report.stats.admitted
    );
}

/// Full measurement-study loop: generate the corpus, train, evaluate —
/// the factor-graph detector preempts most incidents; critical-only never
/// preempts (Insight 4); benign sessions stay quiet.
#[test]
fn corpus_train_evaluate_loop() {
    let store = scenario::generate_corpus(&LongitudinalConfig {
        total_incidents: 80,
        critical_occurrences: 40,
        ..Default::default()
    });
    let mut rng = SimRng::seed(9);
    let benign = scenario::benign_sessions(&mut rng, 100, SimTime::from_date(2024, 1, 1));
    let model = detect::train::train(&store, &benign, &detect::train::TrainConfig::default());

    let tagger = AttackTagger::new(model, TaggerConfig::default());
    let (_, tagger_eval) = detect::evaluate(&tagger, &store, &benign);
    assert!(tagger_eval.recall > 0.9, "recall {}", tagger_eval.recall);
    assert!(
        tagger_eval.precision > 0.9,
        "precision {}",
        tagger_eval.precision
    );
    assert!(
        tagger_eval.preemption_rate > 0.4,
        "preemption {}",
        tagger_eval.preemption_rate
    );

    let critical = CriticalOnlyDetector::new();
    let (_, crit_eval) = detect::evaluate(&critical, &store, &benign);
    assert_eq!(crit_eval.preemption_rate, 0.0, "Insight 4");
    assert!(tagger_eval.preemption_rate > crit_eval.preemption_rate);
}

/// The honeynet contains egress: a compromised honeypot host cannot reach
/// the Internet, and the containment itself produces an alert.
#[test]
fn honeynet_egress_containment_alerts() {
    let mut tb = Testbed::new(TestbedConfig::default());
    let entry = tb.deployment().entry_addrs()[0];
    let start = tb.config().start;
    let mut actions = Vec::new();
    for i in 0..5u64 {
        let t = start + SimDuration::from_secs(30 * i);
        actions.push((
            t,
            Action::Flow(Flow::probe(
                FlowId(i),
                t,
                entry,
                "194.145.22.33".parse().unwrap(),
                443,
            )),
        ));
    }
    tb.schedule(actions);
    let report = tb.run();
    assert_eq!(report.router.dropped, 5, "all egress attempts dropped");
    assert!(
        report.stats.alerts >= 5,
        "isolation monitor must alert on drops"
    );
}

/// Determinism: the same seed and workload give bit-identical reports.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut tb = Testbed::new(TestbedConfig::default());
        let start = tb.config().start;
        let mut actions = Vec::new();
        let mut rng = SimRng::seed(77);
        for i in 0..500u64 {
            let t = start + SimDuration::from_secs(i);
            let dst = simnet::addr::ncsa_production().nth(rng.range_u64(0, 65_536));
            actions.push((
                t,
                Action::Flow(Flow::probe(
                    FlowId(i),
                    t,
                    "91.247.1.1".parse().unwrap(),
                    dst,
                    22,
                )),
            ));
        }
        tb.schedule(actions);
        let r = tb.run();
        (r.actions, r.stats, r.router.dropped)
    };
    assert_eq!(run(), run());
}

/// The VRT → container → service chain: a 2019 build is exploitable, a
/// 2021 build is not (`COPY FROM PROGRAM` gated by version).
#[test]
fn vrt_gates_vulnerability_exposure() {
    use honeynet::{PostgresEmulator, SnapshotRepo};
    let repo = SnapshotRepo::with_debian_history();
    let old = repo
        .resolve(SimTime::from_date(2019, 6, 1), &["postgresql"])
        .unwrap();
    let new = repo
        .resolve(SimTime::from_date(2021, 1, 1), &["postgresql"])
        .unwrap();

    for (snap, expect_rce) in [(old, true), (new, false)] {
        let version = snap.version_of("postgresql").unwrap();
        let mut pg = PostgresEmulator::with_default_credentials(version);
        use honeynet::VulnerableService;
        assert!(pg.try_auth("postgres", "postgres"));
        let mut session = honeynet::SessionCtx {
            user: Some("postgres".into()),
            commands: 0,
        };
        let out = pg.execute(&mut session, "COPY t FROM PROGRAM 'id'");
        assert_eq!(out.ok, expect_rce, "version {version}");
    }
}

/// Fig. 1 structure survives the full flow→graph→layout path.
#[test]
fn fig1_graph_structure() {
    use scenario::{fig1_flows, Fig1Config};
    use vizgraph::{graph_from_flows, top_hubs};
    let mut rng = SimRng::seed(1);
    let cfg = Fig1Config {
        scanner_flows: 2_000,
        secondary_flows: 100,
        legit_nodes: 3_000,
        legit_flows: 2_500,
    };
    let (flows, gt) = fig1_flows(&cfg, &mut rng);
    let graph = graph_from_flows(&flows, |a| simnet::addr::ncsa_production().contains(a));
    // The mass scanner is the top hub; the real attack is two edges.
    let hubs = top_hubs(&graph, 1);
    assert_eq!(hubs[0].label, gt.mass_scanner.to_string());
    let attacker = graph.id_of(&gt.attacker.to_string()).unwrap();
    assert_eq!(graph.degree(attacker), 2);
}
