//! BENCH_2 — pipeline executor throughput: sequential vs threaded vs
//! sharded over the identical assembled stage chain.
//!
//! The workload is a `scenario::stream` mixed record stream (scan floods
//! collapsed by the filter, benign flows, Zipf-skewed per-user command
//! sessions driving the per-entity detectors). Every executor runs the
//! exact same pipeline on the exact same records; the harness verifies
//! the detection sets are **byte-identical** (serialized notification
//! streams compared as strings) before reporting speedups.
//!
//! Emits `BENCH_2.json` (at the workspace root, or `$BENCH_OUT`).
//! Acceptance (enforced unless `BENCH_ENFORCE=0`): the sharded executor
//! reaches ≥ 2× the sequential throughput on a ≥ 4-core host.
//!
//! Run with: `cargo run --release -p bench --bin bench2`
//! Scale the workload with `BENCH_SCALE` (default 1.0; CI uses 0.2).

use std::time::Instant;

use bench::detection_bytes;
use scenario::stream::{record_stream, RecordStreamConfig};
use simnet::intern::SymScope;
use simnet::rng::SimRng;
use telemetry::record::LogRecord;
use testbed::stage::{PipelineBuilder, StreamReport};

fn pipeline(shards: usize) -> PipelineBuilder {
    PipelineBuilder::new()
        .tagger(detect::AttackTagger::new(
            bench::standard_model(),
            detect::TaggerConfig::default(),
        ))
        .block_on_detection(true, None)
        .detect_shards(shards)
        .alert_retention(1_000)
}

fn timed<F: FnOnce() -> StreamReport>(f: F) -> (StreamReport, f64) {
    let t0 = Instant::now();
    let report = f();
    (report, t0.elapsed().as_secs_f64())
}

fn main() {
    let scale: f64 = std::env::var("BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let cfg = RecordStreamConfig {
        scan_records: (150_000.0 * scale) as usize,
        benign_flows: (60_000.0 * scale) as usize,
        exec_records: (300_000.0 * scale) as usize,
        users: 4_000,
        ..RecordStreamConfig::default()
    };
    bench::banner("BENCH_2: pipeline executor throughput");
    let records: Vec<LogRecord> =
        record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(0x5EC2));
    let n = records.len();
    let cores = rayon::current_num_threads();
    let shards = cores.max(1);
    println!(
        "workload: {n} records, {} users, {cores} cores, {shards} detect shards",
        cfg.users
    );

    // Warm the rayon pool and page in the workload once.
    let _ = pipeline(shards).build().run_inline(records.clone());

    let (seq, seq_s) = timed(|| pipeline(shards).build().run_inline(records.clone()));
    let (thr, thr_s) = timed(|| pipeline(shards).build().run_threaded(records.clone()));
    let (shd, shd_s) = timed(|| pipeline(shards).build().run_sharded(records.clone()));

    let seq_bytes = detection_bytes(&seq);
    assert_eq!(
        seq_bytes,
        detection_bytes(&thr),
        "threaded detections must be byte-identical to sequential"
    );
    assert_eq!(
        seq_bytes,
        detection_bytes(&shd),
        "sharded detections must be byte-identical to sequential"
    );
    assert_eq!(seq.stats, thr.stats);
    assert_eq!(seq.stats, shd.stats);

    let rate = |s: f64| n as f64 / s;
    let threaded_speedup = seq_s / thr_s;
    let sharded_speedup = seq_s / shd_s;
    println!(
        "  stats: {} alerts, {} admitted, {} detections, {} blocked sources",
        seq.stats.alerts, seq.stats.admitted, seq.stats.detections, seq.blocked_sources
    );
    println!("  sequential : {seq_s:8.3}s  {:>12.0} rec/s", rate(seq_s));
    println!(
        "  threaded   : {thr_s:8.3}s  {:>12.0} rec/s  ({threaded_speedup:.2}x)",
        rate(thr_s)
    );
    println!(
        "  sharded    : {shd_s:8.3}s  {:>12.0} rec/s  ({sharded_speedup:.2}x)",
        rate(shd_s)
    );

    let artifact = serde_json::json!({
        "workload": {
            "records": n,
            "scan_records": cfg.scan_records,
            "benign_flows": cfg.benign_flows,
            "exec_records": cfg.exec_records,
            "users": cfg.users,
            "scale": scale,
        },
        "cores": cores,
        "detect_shards": shards,
        "stats": {
            "alerts": seq.stats.alerts,
            "admitted": seq.stats.admitted,
            "detections": seq.stats.detections,
            "blocked_sources": seq.blocked_sources,
        },
        "sequential": { "seconds": seq_s, "records_per_sec": rate(seq_s) },
        "threaded": { "seconds": thr_s, "records_per_sec": rate(thr_s), "speedup": threaded_speedup },
        "sharded": { "seconds": shd_s, "records_per_sec": rate(shd_s), "speedup": sharded_speedup },
        "detections_byte_identical": true,
        "acceptance": {
            "sharded_speedup_target": 2.0,
            // The 2x target presumes stage overlap + shard parallelism,
            // i.e. a >= 4-core host; below that the executors can only
            // add overhead over sequential.
            "requires_cores": 4,
            "applicable": cores >= 4,
            "pass": cores < 4 || sharded_speedup >= 2.0,
        },
    });
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_2.json".to_string());
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&artifact).expect("serialize"),
    )
    .expect("write BENCH_2.json");
    println!("\n[artifact] {out}");

    // Threshold enforcement is opt-out (`BENCH_ENFORCE=0`): shared CI
    // runners have enough timing variance (and too few cores) to fail the
    // gate spuriously, so CI records the artifact and only local or
    // dedicated ≥4-core runs enforce.
    let enforce = std::env::var("BENCH_ENFORCE").map_or(true, |v| v != "0");
    if enforce && cores >= 4 {
        assert!(
            sharded_speedup >= 2.0,
            "sharded executor must be >= 2x sequential on this host (got {sharded_speedup:.2}x on {cores} cores)"
        );
    } else if sharded_speedup < 2.0 {
        println!(
            "NOTE: sharded speedup {sharded_speedup:.2}x below the 2x target — \
             not enforced ({})",
            if cores < 4 {
                format!("host has {cores} core(s); the target presumes >= 4")
            } else {
                "BENCH_ENFORCE=0".to_string()
            }
        );
    }
}
