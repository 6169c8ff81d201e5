//! The §V case study, end to end: a ransomware family probes PostgreSQL
//! for a month, enters the honeypot through the advertised default
//! credentials, stages an ELF payload in a largeobject, drops `/tmp/kp`
//! via `lo_export`, spreads laterally with stolen SSH keys, and calls its
//! C2. The testbed detects it and the operator notification lands ~12 days
//! before the same family hits a production host.
//!
//! ```text
//! cargo run --example ransomware_replay
//! ```

use attack_tagger::prelude::*;
use detect::train::{train, TrainConfig};
use scenario::{build_scenario, RansomwareConfig};

fn main() {
    // Train the detector on the longitudinal corpus (as the deployed model
    // is trained on two decades of annotated incidents).
    let corpus = scenario::generate_corpus(&LongitudinalConfig::default());
    let mut rng = SimRng::seed(7);
    let benign = scenario::benign_sessions(&mut rng, 400, SimTime::from_date(2024, 1, 1));
    let model = train(&corpus, &benign, &TrainConfig::default());

    let mut cfg = TestbedConfig::default();
    let rw = RansomwareConfig::default();
    cfg.c2_feed.push(rw.c2_server);
    let mut tb = Testbed::new(cfg);
    tb.set_model(model);

    // Script the attack against the deployed honeynet.
    let scenario = {
        let topo = tb.topology().clone();
        build_scenario(&topo, tb.deployment_mut(), &rw)
    };
    let c2_time = scenario.c2_time;
    let production_time = scenario.production_time;
    println!("scripted {} actions", scenario.actions.len());
    tb.schedule(scenario.actions);
    let report = tb.run();

    println!("=== Ransomware case study (§V) ===");
    println!("{}", report.summary());
    println!();
    let first = report
        .first_notification()
        .expect("the ransomware must be detected");
    println!("first operator notification : {first}");
    println!("ransomware C2 communication : {c2_time}");
    println!("production wave begins      : {production_time}");
    let lead = production_time - first;
    println!(
        "preemption lead time        : {lead} ({} days)",
        lead.as_days()
    );
    for n in report.notifications.iter().take(3) {
        println!("  -> [{}] {}", n.ts, n.message());
    }
    assert!(
        first <= c2_time,
        "detection must happen no later than the C2 step the paper reports"
    );
    assert!(
        lead.as_days() >= 11,
        "the paper's 12-day lead should hold approximately"
    );
    println!();
    println!(
        "honeypot stats: {} sessions, {} auth failures, {} files dropped",
        tb.deployment().stats().sessions_opened,
        tb.deployment().stats().auth_failures,
        tb.deployment().stats().files_dropped,
    );
    println!("done.");
}
