//! E9 — the §V ransomware case study, with detector comparison.
//!
//! Replays the scripted ransomware against the deployed honeynet and
//! measures, for each detector (factor-graph AttackTagger, rule-based,
//! critical-only): detection time, whether it preempted the C2 step, and
//! the lead over the production wave (paper: twelve days).

use bench::{banner, compare, write_artifact};
use detect::{AttackTagger, CriticalOnlyDetector, RuleBasedDetector, TaggerConfig};
use scenario::{build_scenario, RansomwareConfig};
use simnet::intern::SymScope;
use simnet::time::SimTime;
use testbed::{Testbed, TestbedConfig};

fn main() {
    banner("Ransomware case study (E9)");
    let rw = RansomwareConfig::default();
    let mut cfg = TestbedConfig::default();
    cfg.c2_feed.push(rw.c2_server);
    let mut tb = Testbed::new(cfg);
    tb.set_model(bench::standard_model());

    let scenario = {
        let topo = tb.topology().clone();
        build_scenario(&topo, tb.deployment_mut(), &rw)
    };
    let c2_time = scenario.c2_time;
    let production_time = scenario.production_time;
    println!("scripted actions     : {}", scenario.actions.len());
    println!("C2 communication at  : {c2_time}");
    println!("production wave at   : {production_time}");

    tb.schedule(scenario.actions);
    let t0 = std::time::Instant::now();
    let report = tb.run();
    println!("pipeline run in {:?}", t0.elapsed());

    let first = report
        .first_notification()
        .expect("must detect the ransomware");
    let lead = production_time - first;
    let lead_days = lead.as_secs_f64() / 86_400.0;
    println!("\nfull-testbed first notification: {first}");
    println!("lead over production wave      : {lead} ({lead_days:.2} days)");
    compare("lead days", lead_days.round(), 12.0);
    assert!(first <= c2_time, "preemption no later than the C2 step");

    // Detector comparison on the honeypot-phase alert session (what each
    // model would have seen for the `postgres` entity). Replay the same
    // scripted scenario through bare monitors (no response loop) so every
    // alert survives for offline scanning.
    let session: Vec<alertlib::Alert> = {
        use simnet::engine::ActionSink;
        let mut topo = simnet::topology::NcsaTopologyBuilder::default().build();
        let mut dep =
            honeynet::HoneynetDeployment::install(&mut topo, &honeynet::DeployConfig::default());
        let replay = build_scenario(&topo, &mut dep, &rw);
        let mut engine = simnet::engine::Engine::new(topo, SimTime::from_date(2024, 10, 1));
        for (t, a) in replay.actions {
            engine.schedule(t, a);
        }
        let mut hub = telemetry::MonitorHub::standard(&SymScope::global());
        engine.run(&mut [&mut hub as &mut dyn ActionSink]);
        let mut symbolizer = {
            let mut scfg = alertlib::SymbolizerConfig::default();
            scfg.c2_addresses.insert(rw.c2_server);
            alertlib::Symbolizer::new(scfg)
        };
        let mut session = Vec::new();
        for r in hub.records() {
            for a in symbolizer.symbolize(r) {
                if a.entity == alertlib::Entity::User("postgres".into()) {
                    session.push(a);
                }
            }
        }
        session
    };
    println!(
        "\nhoneypot-phase session alerts for entity user:postgres: {}",
        session.len()
    );

    let tagger = AttackTagger::new(bench::standard_model(), TaggerConfig::default());
    let rules = RuleBasedDetector::with_default_rules();
    let critical = CriticalOnlyDetector::new();
    println!(
        "\n{:<16}{:>12}{:>20}{:>14}",
        "detector", "detected", "at alert index", "lead (days)"
    );
    let mut rows = Vec::new();
    for (name, det) in [
        ("attack-tagger", &tagger as &dyn detect::SequenceDetector),
        ("rule-based", &rules),
        ("critical-only", &critical),
    ] {
        let d = det.scan(&session);
        match d {
            Some(d) => {
                let lead_days = if d.ts < production_time {
                    (production_time - d.ts).as_days() as i64
                } else {
                    -((d.ts - production_time).as_days() as i64)
                };
                println!(
                    "{:<16}{:>12}{:>20}{:>14}",
                    name, "yes", d.alert_index, lead_days
                );
                rows.push(serde_json::json!({
                    "detector": name, "detected": true,
                    "alert_index": d.alert_index, "lead_days": lead_days,
                    "trigger": d.trigger.symbol(),
                }));
            }
            None => {
                println!("{:<16}{:>12}{:>20}{:>14}", name, "no", "-", "-");
                rows.push(serde_json::json!({"detector": name, "detected": false}));
            }
        }
    }

    write_artifact(
        "case_study",
        &serde_json::json!({
            "first_notification": format!("{first}"),
            "c2_time": format!("{c2_time}"),
            "production_time": format!("{production_time}"),
            "lead_days": lead.as_days(),
            "detections": report.detections,
            "detector_comparison": rows,
            "paper": {"lead_days": 12},
        }),
    );
}
