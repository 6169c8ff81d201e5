//! Service-mode restart properties (proptest):
//!
//! On randomized adversarial campaign workloads, snapshotting a tenant
//! mid-stream, serializing the snapshot through its JSON wire format,
//! restoring it into a *fresh* service process, and replaying the stream
//! tail must reproduce the uninterrupted run exactly: same cumulative
//! stream counters, same detection stream, same campaign graph. And the
//! per-entity state budget (`detect_max_entities`) must be
//! detection-neutral: a bounded pipeline with eviction active yields
//! byte-identical detections to the unbounded one.
//!
//! Restore-level properties: a committed format-1 snapshot and its
//! format-2 re-encoding restore with zero drift; a snapshot restores into
//! a tenant whose scope already holds other symbols; and a mutated
//! snapshot restored into one tenant never disturbs another.

use std::sync::OnceLock;

use proptest::prelude::*;
use scenario::mutate::{generate_campaign, CampaignConfig, MutationConfig};
use scenario::stream::{record_stream, RecordStreamConfig};
use simnet::intern::{SymScope, TenantId};
use simnet::rng::SimRng;
use simnet::time::SimDuration;
use telemetry::record::LogRecord;
use testbed::stage::{BuiltPipeline, PipelineBuilder, StreamReport};
use testbed::{ServiceConfig, ServiceHandle, ServiceSnapshot};

fn campaign_records(seed: u64, sessions: usize, lateral_prob: f64) -> Vec<LogRecord> {
    let cfg = CampaignConfig {
        sessions,
        horizon: SimDuration::from_hours(24),
        mutation: MutationConfig {
            lateral_prob,
            ..MutationConfig::default()
        },
        background: Some(RecordStreamConfig {
            scan_records: 200,
            benign_flows: 80,
            exec_records: 150,
            users: 20,
            ..RecordStreamConfig::default()
        }),
        ..CampaignConfig::default()
    };
    generate_campaign(&cfg, &mut SimRng::seed(seed)).records
}

fn service_factory() -> impl FnMut(TenantId, SymScope) -> BuiltPipeline + Send + 'static {
    |_, scope| {
        PipelineBuilder::new()
            .tagger(detect::AttackTagger::new(
                detect::train::toy_training_model(),
                detect::TaggerConfig::default(),
            ))
            .correlation(detect::CorrelationPolicy::default())
            .scope(scope)
            .build()
    }
}

fn ingest_all(service: &ServiceHandle, tenant: TenantId, records: &[LogRecord], batch: usize) {
    for chunk in records.chunks(batch.max(1)) {
        service
            .ingest(tenant, chunk.to_vec())
            .expect("worker alive");
    }
}

/// Every notification as the operator reads it, one per line.
fn notification_bytes(report: &StreamReport) -> String {
    report
        .notifications
        .iter()
        .map(|n| format!("{} {} {} {}\n", n.ts, n.entity, n.source, n.message()))
        .collect()
}

/// Ingest `records` into a fresh service's `tenant`, after `prepare`, and
/// return its final report.
fn run_tenant(
    tenant: TenantId,
    records: &[LogRecord],
    batch: usize,
    prepare: impl FnOnce(&ServiceHandle),
) -> StreamReport {
    let service = ServiceHandle::spawn(ServiceConfig::default(), service_factory());
    prepare(&service);
    ingest_all(&service, tenant, records, batch);
    let reports = service.shutdown();
    let (_, report) = reports.into_iter().find(|(t, _)| *t == tenant).unwrap();
    report
}

/// The workload `fixtures/snapshot_v1_campaign.json` was cut from: tenant
/// 2 of a correlated service, snapshotted after the first half of these
/// records, ingested in batches of 256.
fn v1_fixture_records() -> Vec<LogRecord> {
    let cfg = CampaignConfig {
        sessions: 20,
        horizon: SimDuration::from_hours(12),
        background: Some(RecordStreamConfig {
            scan_records: 300,
            benign_flows: 200,
            exec_records: 600,
            users: 60,
            zipf_exponent: 0.0,
            ..RecordStreamConfig::default()
        }),
        ..CampaignConfig::default()
    };
    generate_campaign(&cfg, &mut SimRng::seed(0xC0DEC)).records
}

/// A format-1 snapshot (written before format 2 existed) and its format-2
/// re-encoding both restore into a fresh service with zero drift: the
/// restored state re-exports as the live snapshot, posterior and mass
/// floats included, and the stitched notifications equal the
/// uninterrupted run's byte for byte. The fixture was captured from a
/// release build, so under a debug build this is also the witness that
/// both build profiles compute the same floats.
#[test]
fn v1_campaign_fixture_restores_with_zero_drift() {
    let records = v1_fixture_records();
    let (head, tail) = records.split_at(records.len() / 2);
    let tenant = TenantId(2);
    let full = run_tenant(tenant, &records, 256, |_| {});
    let live = ServiceHandle::spawn(ServiceConfig::default(), service_factory());
    ingest_all(&live, tenant, head, 256);
    let live_snap = live.snapshot(tenant).unwrap();
    let (_, head_report) = live.shutdown().pop().unwrap();

    let v1 = ServiceSnapshot::from_json(include_str!("fixtures/snapshot_v1_campaign.json"))
        .expect("v1 fixture decodes");
    let correlator = v1.correlator.as_ref().expect("correlated pipeline");
    assert!(correlator.promotions > 0 && correlator.campaigns.len() > 1);
    let wire = v1.to_json();
    assert!(wire.starts_with("{\"format\":2,"));
    let v2 = ServiceSnapshot::from_json(&wire).unwrap();
    assert_eq!(v2, v1, "the v2 re-encoding is lossless");
    for snap in [v1, v2] {
        let tail_report = run_tenant(tenant, tail, 256, |service| {
            service.restore(snap).expect("fixture fits the factory");
            let restored = service.snapshot(tenant).unwrap();
            assert_eq!(restored, live_snap);
        });
        assert_eq!(tail_report.stats, full.stats, "zero detection drift");
        assert_eq!(tail_report.campaigns, full.campaigns);
        let stitched = notification_bytes(&head_report) + &notification_bytes(&tail_report);
        assert_eq!(stitched, notification_bytes(&full));
    }
    assert!(full.stats.detections > head_report.stats.detections);
}

/// Restoring into a tenant whose scope already holds other symbols gives
/// the snapshot's names other ids: every stored position goes through the
/// universe map, and the detections stay byte-identical.
#[test]
fn restore_into_a_populated_scope_keeps_detections() {
    let records = campaign_records(7, 10, 0.5);
    let (head, tail) = records.split_at(records.len() / 2);
    let tenant = TenantId(4);
    let full = run_tenant(tenant, &records, 64, |_| {});
    let live = ServiceHandle::spawn(ServiceConfig::default(), service_factory());
    ingest_all(&live, tenant, head, 64);
    let snap = live.snapshot(tenant).unwrap();
    let (_, head_report) = live.shutdown().pop().unwrap();
    let snap = ServiceSnapshot::from_json(&snap.to_json()).unwrap();

    let tail_report = run_tenant(tenant, tail, 64, |service| {
        let scope = service.symbols().scope(tenant);
        for i in 0..40 {
            scope.sym(&format!("resident-{i}"));
        }
        service.restore(snap.clone()).expect("restores");
        let moved = service.snapshot(tenant).unwrap();
        assert_eq!(moved.sym_universe[1], "resident-0");
        assert_ne!(moved.tagger, snap.tagger, "ids moved");
    });
    assert_eq!(tail_report.stats, full.stats, "zero detection drift");
    assert_eq!(tail_report.campaigns, full.campaigns);
    let stitched = notification_bytes(&head_report) + &notification_bytes(&tail_report);
    assert_eq!(stitched, notification_bytes(&full));
    assert!(full.stats.detections > 0);
}

/// Tenant A's mid-stream snapshot as format-2 wire.
fn tenant_a_wire() -> &'static str {
    static WIRE: OnceLock<String> = OnceLock::new();
    WIRE.get_or_init(|| {
        let records = campaign_records(11, 8, 0.5);
        let service = ServiceHandle::spawn(ServiceConfig::default(), service_factory());
        ingest_all(&service, TENANT_A, &records[..records.len() / 2], 64);
        service.snapshot(TENANT_A).unwrap().to_json()
    })
}

const TENANT_A: TenantId = TenantId(1);
const TENANT_B: TenantId = TenantId(2);

/// Tenant B's workload and its notifications when it runs alone.
fn tenant_b_solo() -> &'static (Vec<LogRecord>, String) {
    static SOLO: OnceLock<(Vec<LogRecord>, String)> = OnceLock::new();
    SOLO.get_or_init(|| {
        let records = campaign_records(12, 6, 0.3);
        let report = run_tenant(TENANT_B, &records, 64, |_| {});
        assert!(report.stats.detections > 0);
        (records, notification_bytes(&report))
    })
}

fn detection_keys(report: &StreamReport) -> Vec<String> {
    report
        .notifications
        .iter()
        .map(|n| {
            format!(
                "{}|{}|{}|{}",
                n.entity, n.detection.ts, n.detection.trigger, n.detection.stage
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot → JSON → restore → replay-tail ≡ the uninterrupted run.
    #[test]
    fn restart_from_json_snapshot_loses_no_detections(
        seed in 0u64..100_000,
        sessions in 2usize..16,
        lateral_x10 in 0u64..10,
        split_pct in 1usize..100,
        batch in 1usize..200,
    ) {
        let records = campaign_records(seed, sessions, lateral_x10 as f64 / 10.0);
        let tenant = TenantId(3);
        let split = records.len() * split_pct / 100;
        let (head, tail) = records.split_at(split);

        // Reference: one service, never restarted.
        let uninterrupted = ServiceHandle::spawn(ServiceConfig::default(), service_factory());
        ingest_all(&uninterrupted, tenant, &records, batch);
        let mut reports = uninterrupted.shutdown();
        prop_assert_eq!(reports.len(), 1);
        let full = reports.pop().unwrap().1;

        // Interrupted: ingest the head, snapshot, kill the process...
        let first = ServiceHandle::spawn(ServiceConfig::default(), service_factory());
        ingest_all(&first, tenant, head, batch);
        let snap = first.snapshot(tenant).expect("live tenant snapshots");
        let mut head_reports = first.shutdown();
        let head_report = head_reports.pop().unwrap().1;

        // ...round-trip the snapshot through its wire format...
        let wire = snap.to_json();
        let restored = ServiceSnapshot::from_json(&wire).expect("wire format round-trips");
        prop_assert_eq!(&restored, &snap);

        // ...and restore into a fresh service, replaying only the tail.
        let second = ServiceHandle::spawn(ServiceConfig::default(), service_factory());
        second.restore(restored).expect("snapshot fits the factory pipeline");
        ingest_all(&second, tenant, tail, batch);
        let mut tail_reports = second.shutdown();
        let tail_report = tail_reports.pop().unwrap().1;

        // Counters are cumulative across the restart; detections are the
        // prefix's plus the tail's, byte for byte; the campaign graph is
        // whole.
        prop_assert_eq!(tail_report.stats, full.stats);
        prop_assert_eq!(&tail_report.filter, &full.filter);
        let mut stitched = detection_keys(&head_report);
        stitched.extend(detection_keys(&tail_report));
        prop_assert_eq!(stitched, detection_keys(&full));
        prop_assert_eq!(&tail_report.campaigns, &full.campaigns);
        prop_assert_eq!(tail_report.correlated_promotions, full.correlated_promotions);
        prop_assert_eq!(tail_report.correlated_confirmations, full.correlated_confirmations);
        prop_assert_eq!(tail_report.duplicates_suppressed, full.duplicates_suppressed);
    }

    /// The per-entity state budget evicts aggressively but never changes
    /// what is detected — bounded and unbounded pipelines agree on the
    /// whole report, on both the inline and sharded executors.
    #[test]
    fn entity_budget_is_detection_neutral(
        seed in 0u64..100_000,
        budget in 8usize..64,
        scans in 0usize..400,
        execs in 100usize..500,
        users in 30usize..80,
        shards in 1usize..6,
    ) {
        let cfg = RecordStreamConfig {
            scan_records: scans,
            scanners: 1 + seed as usize % 7,
            benign_flows: scans / 2,
            exec_records: execs,
            users,
            ..RecordStreamConfig::default()
        };
        let records = record_stream(&cfg, &mut SimRng::seed(seed));
        let build = |max_entities: usize| {
            PipelineBuilder::new()
                .tagger(detect::AttackTagger::new(
                    detect::train::toy_training_model(),
                    detect::TaggerConfig::default(),
                ))
                .detect_shards(shards)
                .detect_max_entities(max_entities)
                .build()
        };

        let unbounded = build(0).run_inline(records.clone());
        let bounded = build(budget).run_inline(records.clone());
        prop_assert_eq!(bounded.stats, unbounded.stats);
        prop_assert_eq!(detection_keys(&bounded), detection_keys(&unbounded));
        prop_assert_eq!(&bounded.notifications, &unbounded.notifications);
        prop_assert_eq!(bounded.duplicates_suppressed, unbounded.duplicates_suppressed);

        let bounded_sharded = build(budget).run_sharded(records);
        prop_assert_eq!(bounded_sharded.stats, bounded.stats);
        prop_assert_eq!(
            detection_keys(&bounded_sharded),
            detection_keys(&bounded)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A mutated snapshot that still decodes, restored into tenant A
    /// (accepted or refused), leaves tenant B's detections byte-identical
    /// to B running alone. Mutations rewrite, insert or delete one digit,
    /// so most of them decode: ids, kinds, ring heads, counters and
    /// floats all move, some past what the restore accepts.
    #[test]
    fn mutated_restores_spare_the_other_tenants(
        at in 0usize..1 << 20,
        digit in 0u8..10,
        op in 0u8..3,
    ) {
        let wire = tenant_a_wire();
        let digits: Vec<usize> = wire
            .bytes()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let mut bytes = wire.as_bytes().to_vec();
        let at = digits[at % digits.len()];
        match op {
            0 => bytes[at] = b'0' + digit,
            1 => bytes.insert(at, b'0' + digit),
            _ => {
                bytes.remove(at);
            }
        }
        let text = String::from_utf8(bytes).unwrap();
        // Only mutations that still decode reach the restore.
        if let Ok(mut snap) = ServiceSnapshot::from_json(&text) {
            snap.tenant = TENANT_A;
            let (records, solo) = tenant_b_solo();
            let report = run_tenant(TENANT_B, records, 64, |service| {
                let _ = service.restore(snap);
            });
            prop_assert_eq!(&notification_bytes(&report), solo);
        }
    }
}
