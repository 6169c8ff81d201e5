//! Asserts the interning refactor's core contract: after warmup, the
//! symbolize → filter → detect hot path performs **zero** heap allocations
//! per record.
//!
//! "Warmup" means one pass over the workload — it interns nothing (the
//! generators pre-intern), but it does populate the symbolizer's memo
//! caches, the filter's `(source, kind)` windows, the tagger's per-entity
//! posterior states, and the alert buffer's capacity. Every subsequent
//! record then flows `LogRecord` → `Alert` (`Copy`, `MessageSpec` message)
//! → filter admit (integer-keyed window lookup) → `AttackTagger::observe`
//! (integer `EntityId` key, reused scratch) without touching the
//! allocator. The same holds through the service: ingest re-mints the
//! owned batch in place through the session's memo and reuses the
//! pipeline's scratch buffers. Off the per-record path, a restart
//! (snapshot → JSON → restore) allocates per snapshot and per campaign,
//! and a symbol table per doubling, never per entity or per symbol.

use scenario::faults::{ClockSkewConfig, FaultInjector, FaultPlan};
use scenario::mutate::{generate_campaign, CampaignConfig};
use scenario::stream::{record_stream, RecordStreamConfig};
use simnet::alloc_count::{allocations, thread_allocations, CountingAllocator};
use simnet::intern::{SymScope, SymTable, TenantId};
use simnet::rng::SimRng;
use simnet::time::SimDuration;
use telemetry::record::LogRecord;
use testbed::stage::{DetectOutcome, DetectorStage, ResponseStage, Stage};
use testbed::{PipelineBuilder, ServiceConfig, ServiceError, ServiceHandle, ServiceSnapshot};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs measurements one at a time: the test harness runs tests on parallel
/// threads, and the service test counts process-wide because its work
/// runs on the service's worker thread. Work on the calling thread is
/// counted per thread, which also keeps the harness's threads out.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized<T>(f: impl FnOnce() -> T) -> T {
    let _guard = MEASURE.lock().unwrap_or_else(|p| p.into_inner());
    f()
}

fn workload() -> Vec<LogRecord> {
    let cfg = RecordStreamConfig {
        scan_records: 3_000,
        benign_flows: 1_000,
        exec_records: 3_000,
        users: 60,
        ..RecordStreamConfig::default()
    };
    record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(0x5EED))
}

#[test]
fn symbolize_filter_observe_steady_state_allocates_nothing() {
    serialized(|| {
        let records = workload();
        let mut sym = alertlib::Symbolizer::with_defaults();
        let mut filt = alertlib::ScanFilter::default();
        let mut tagger = detect::AttackTagger::new(
            detect::train::toy_training_model(),
            detect::TaggerConfig::default(),
        );
        let mut alerts = Vec::with_capacity(64);

        // Warmup: populates memo caches, filter windows, per-entity
        // detector states, and buffer capacity.
        let mut warm_admitted = 0u64;
        for r in &records {
            alerts.clear();
            sym.symbolize_into(r, &mut alerts);
            for a in &alerts {
                if filt.admit(a) {
                    warm_admitted += 1;
                    tagger.observe(a);
                }
            }
        }
        assert!(warm_admitted > 0, "sanity: the workload produces admits");
        assert!(tagger.tracked_entities() > 10, "sanity: entities tracked");

        // Steady state: the full hot path must not allocate at all.
        let (allocs, _) = thread_allocations(|| {
            for r in &records {
                alerts.clear();
                sym.symbolize_into(r, &mut alerts);
                for a in &alerts {
                    if filt.admit(a) {
                        tagger.observe(a);
                    }
                }
            }
        });
        assert_eq!(
            allocs,
            0,
            "steady-state symbolize_into → filter → observe must not allocate \
             ({} records)",
            records.len()
        );
    });
}

#[test]
fn fault_injector_steady_state_allocates_nothing() {
    serialized(|| {
        let records = workload();
        let (warm, measured) = records.split_at(records.len() / 2);
        // The `fault_storm` feed, and the same at duplication 1.0, where
        // every record enters the reorderer twice.
        let storm = FaultPlan::clean(0xFA_017)
            .named("fault-storm")
            .with_loss(0.02)
            .with_duplication(0.05)
            .with_reorder(64)
            .with_clock(ClockSkewConfig {
                max_skew: SimDuration::from_secs(30),
                jitter: SimDuration::from_secs(2),
            });
        let dup_all = storm.clone().named("dup-all").with_duplication(1.0);
        for plan in [storm, dup_all] {
            let mut inj = FaultInjector::new(plan);
            let mut out = Vec::with_capacity(2 * records.len());
            // Warm half: fills the reorder window and exercises every
            // fault model before measuring.
            for r in warm {
                inj.push(*r, &mut out);
            }
            let batch = measured.to_vec();
            let (allocs, ()) = thread_allocations(|| {
                for r in batch {
                    inj.push(r, &mut out);
                }
                inj.finish(&mut out);
            });
            let stats = inj.stats();
            assert_eq!(
                allocs,
                0,
                "{}: push x {} + finish must not allocate",
                stats.profile,
                measured.len()
            );
            assert_eq!(stats.records_out, out.len() as u64);
            assert!(stats.lost_iid > 0 && stats.duplicated > 0 && stats.reordered > 0);
        }
    });
}

/// A `CorrelatedTagger` warmed over the workload's admitted alerts, and
/// those alerts: entity nodes, join-key rings, campaigns and their link
/// provenance, and the stitched-replay scratch are all in place.
fn warm_correlated_tagger() -> (detect::CorrelatedTagger, Vec<alertlib::Alert>) {
    let records = workload();
    let mut sym = alertlib::Symbolizer::with_defaults();
    let mut filt = alertlib::ScanFilter::default();
    let mut alerts = Vec::with_capacity(64);
    let mut admitted = Vec::new();
    for r in &records {
        alerts.clear();
        sym.symbolize_into(r, &mut alerts);
        admitted.extend(alerts.iter().filter(|a| filt.admit(a)).copied());
    }
    let mut detector = detect::CorrelatedTagger::with_policy(
        detect::AttackTagger::new(
            detect::train::toy_training_model(),
            detect::TaggerConfig::default(),
        ),
        detect::CorrelationPolicy::default(),
    );
    for a in &admitted {
        detector.observe(a);
    }
    (detector, admitted)
}

#[test]
fn correlated_tagger_steady_state_allocates_nothing() {
    serialized(|| {
        let (mut detector, admitted) = warm_correlated_tagger();
        let correlator = detector.correlator();
        let cap = correlator.policy().max_links_per_campaign;
        assert!(
            correlator.summaries().iter().any(|c| c.links.len() == cap),
            "sanity: a campaign saturates its link provenance"
        );

        // Steady state: replaying the stream links into the saturated
        // campaign on every alert and must not allocate.
        let (allocs, ()) = thread_allocations(|| {
            for a in &admitted {
                detector.observe(a);
            }
        });
        assert_eq!(
            allocs,
            0,
            "steady-state tagger + correlator observe must not allocate ({} alerts)",
            admitted.len()
        );
    });
}

#[test]
fn campaign_summaries_allocate_per_campaign_not_per_member() {
    serialized(|| {
        let (detector, _) = warm_correlated_tagger();
        let correlator = detector.correlator();
        let (allocs, summaries) = thread_allocations(|| correlator.summaries());
        let members: usize = summaries.iter().map(|c| c.members.len()).sum();
        let links: usize = summaries.iter().map(|c| c.links.len()).sum();
        assert!(
            summaries.iter().any(|c| c.members.len() > 16),
            "sanity: a campaign with many members"
        );
        // The outer vector, then each campaign's member and link vectors:
        // entity keys are inline and the sorts are in place.
        let budget = 1 + 2 * summaries.len() as u64;
        assert!(
            allocs <= budget,
            "summaries(): {allocs} allocations for {} campaigns, {members} members and \
             {links} links (budget {budget})",
            summaries.len()
        );
    });
}

/// Detection outcomes of a fault-storm-shaped replay: a mutated attack
/// campaign over the workload's background, under loss, duplication, a
/// 64-record reorder window and clock skew, through symbolize, filter and
/// a tagger with a 5-minute dedup window.
fn storm_detections() -> Vec<DetectOutcome> {
    let campaign = CampaignConfig {
        sessions: 48,
        horizon: SimDuration::from_hours(24),
        background: Some(RecordStreamConfig {
            scan_records: 2_000,
            benign_flows: 500,
            exec_records: 2_000,
            users: 60,
            horizon: SimDuration::from_hours(24),
            ..RecordStreamConfig::default()
        }),
        ..CampaignConfig::default()
    };
    let plan = FaultPlan::clean(0xFA_017)
        .named("fault-storm")
        .with_loss(0.02)
        .with_duplication(0.05)
        .with_reorder(64)
        .with_clock(ClockSkewConfig {
            max_skew: SimDuration::from_secs(30),
            jitter: SimDuration::from_secs(2),
        });
    let mut inj = FaultInjector::new(plan);
    let mut records = Vec::new();
    for r in generate_campaign(&campaign, &mut SimRng::seed(0x5_7041)).records {
        inj.push(r, &mut records);
    }
    inj.finish(&mut records);
    let mut config = detect::TaggerConfig::default();
    config.temporal.dedup_window = Some(SimDuration::from_mins(5));
    let mut tag = DetectorStage::tagger(detect::AttackTagger::new(
        detect::train::toy_training_model(),
        config,
    ));
    let mut sym = alertlib::Symbolizer::with_defaults();
    let mut filt = alertlib::ScanFilter::default();
    let (mut alerts, mut outcomes) = (Vec::new(), Vec::new());
    for r in &records {
        alerts.clear();
        sym.symbolize_into(r, &mut alerts);
        alerts.retain(|a| filt.admit(a));
        tag.process_batch(&alerts, &mut outcomes);
    }
    outcomes.retain(|o| o.detection.is_some());
    outcomes
}

#[test]
fn response_steady_state_allocates_nothing() {
    serialized(|| {
        let detections = storm_detections();
        assert!(
            detections.len() > 20,
            "sanity: {} detections",
            detections.len()
        );
        assert!(
            detections.iter().any(|o| o.alert.src.is_some())
                && detections.iter().any(|o| o.alert.src.is_none()),
            "sanity: detections with and without a source address"
        );
        let bhr = bhr::BhrHandle::with_backend(bhr::retry::FlakyBackend::new(0.30, 0xB10C));
        let mut response = ResponseStage::new(bhr, true, None, "attack-tagger");
        let mut out = Vec::new();
        // Warm-up blocks every source, through failures and retries; the
        // flush drains the retry queue.
        response.respond(None, &detections, &mut out);
        response.flush(&mut out);
        assert!(response.blocks_retried() > 0, "sanity: the backend fails");

        // Steady state: every source is blocked or absent, so each
        // detection only becomes a notification.
        out.clear();
        out.reserve(detections.len());
        let (allocs, ()) = thread_allocations(|| response.respond(None, &detections, &mut out));
        assert_eq!(out.len(), detections.len(), "every detection notifies");
        assert_eq!(
            allocs,
            0,
            "respond must not allocate for {} detections of blocked or absent sources",
            detections.len()
        );
    });
}

/// A block-delivery backend that is always down.
#[derive(Debug)]
struct DownBackend;

impl bhr::BlockBackend for DownBackend {
    fn try_block(
        &mut self,
        _: simnet::time::SimTime,
        _: std::net::Ipv4Addr,
        _: bhr::BlockReason,
        _: Option<SimDuration>,
    ) -> Result<(), bhr::BlockError> {
        Err(bhr::BlockError::Timeout)
    }
}

#[test]
fn retried_block_delivery_allocates_only_audit_log_growth() {
    serialized(|| {
        let detection = storm_detections()
            .into_iter()
            .find(|o| o.alert.src.is_some())
            .expect("sanity: a detection with a source address");
        let retry = bhr::RetryPolicy {
            max_attempts: 64,
            deadline: SimDuration::from_days(365),
            breaker_threshold: u32::MAX,
            ..bhr::RetryPolicy::default()
        };
        let bhr = bhr::BhrHandle::with_backend(DownBackend);
        let mut response =
            ResponseStage::new(bhr.clone(), true, None, "attack-tagger").with_retry(retry, 1);
        let mut out = Vec::with_capacity(1);
        // The first delivery attempt fails and queues the block.
        response.respond(None, std::slice::from_ref(&detection), &mut out);
        let logged = bhr.audit_log().len();
        // Every retry fails too, until the attempt cap abandons the block.
        let (allocs, ()) = thread_allocations(|| response.flush(&mut out));
        assert_eq!(response.blocks_retried(), 63);
        assert_eq!(response.blocks_abandoned(), 1);
        let entries = (bhr.audit_log().len() - logged) as u64;
        assert_eq!(entries, 64, "63 failed retries and the abandonment");
        // Audit entries own nothing: only the log's doublings allocate.
        let growth = u64::from(u64::BITS - entries.leading_zeros()) + 1;
        assert!(
            allocs <= growth,
            "{allocs} allocations for {entries} audit entries"
        );
    });
}

/// One whole `run_inline` pass of a correlated campaign of `sessions`
/// mutated attack sessions over a fixed background, with correlation on
/// and a 30%-failing block backend. Returns the pass's allocations, its
/// block decisions and its failed deliveries; `block` off gives the same
/// pass without a response path to the BHR.
fn flaky_campaign_pass(records: &[LogRecord], block: bool) -> (u64, u64, u64) {
    let backend = bhr::retry::FlakyBackend::new(0.30, 0xB10C);
    let failures = backend.failure_counter();
    let pipeline = PipelineBuilder::new()
        .tagger(detect::AttackTagger::new(
            detect::train::toy_training_model(),
            detect::TaggerConfig::default(),
        ))
        .correlation(detect::CorrelationPolicy::default())
        .bhr(bhr::BhrHandle::with_backend(backend))
        .block_on_detection(block, None)
        .build();
    let records = records.to_vec();
    let (allocs, report) = thread_allocations(|| pipeline.run_inline(records));
    let failed = failures.load(std::sync::atomic::Ordering::Relaxed);
    (allocs, report.blocked_sources, failed)
}

/// What blocking adds to a whole pass of `sessions` attack sessions:
/// `(allocations, block decisions, failed deliveries)`.
fn response_path_allocations(sessions: usize) -> (u64, u64, u64) {
    let campaign = CampaignConfig {
        sessions,
        horizon: SimDuration::from_hours(24),
        background: Some(RecordStreamConfig {
            scan_records: 2_000,
            benign_flows: 500,
            exec_records: 2_000,
            users: 60,
            horizon: SimDuration::from_hours(24),
            ..RecordStreamConfig::default()
        }),
        ..CampaignConfig::default()
    };
    let records = generate_campaign(&campaign, &mut SimRng::seed(0xCA_4415)).records;
    let (with_blocks, blocks, failed) = flaky_campaign_pass(&records, true);
    let (without, _, _) = flaky_campaign_pass(&records, false);
    (with_blocks.saturating_sub(without), blocks, failed)
}

#[test]
fn whole_pass_response_allocations_do_not_scale_with_blocks() {
    serialized(|| {
        let small = response_path_allocations(24);
        let large = response_path_allocations(192);
        assert!(
            large.1 >= 4 * small.1 && large.2 >= 4 * small.2,
            "sanity: more block decisions and failed deliveries ({small:?} vs {large:?})"
        );
        // Deciding, delivering, retrying and auditing a block own nothing:
        // what blocking adds is the doubling of four collections (the
        // blocked-source set, the null-route table, the audit log and the
        // retry queue), never an allocation per block or per failure.
        for (allocs, blocks, failed) in [small, large] {
            let growth = 4 * (u64::from((blocks + failed).max(1).ilog2()) + 2);
            assert!(
                allocs <= growth,
                "{allocs} allocations for {blocks} blocks and {failed} failed deliveries \
                 (growth bound {growth})"
            );
        }
    });
}

#[test]
fn new_entities_allocate_then_settle() {
    serialized(|| {
        // A fresh entity's state lives inline in the state map, so only
        // map growth allocates: the first entity sizes the map, the next
        // fits in its spare capacity, and every repeat alert is free.
        let mut tagger = detect::AttackTagger::new(
            detect::train::toy_training_model(),
            detect::TaggerConfig::default(),
        );
        let alert = |user: &str| {
            alertlib::Alert::new(
                simnet::time::SimTime::from_secs(1),
                alertlib::AlertKind::LoginSuccess,
                alertlib::Entity::User(user.into()),
            )
        };
        let (a, b) = (alert("fresh-entity-a"), alert("fresh-entity-b"));
        let (first, _) = thread_allocations(|| tagger.observe(&a));
        assert!(first > 0, "the first entity sizes the state map");
        let (second, _) = thread_allocations(|| tagger.observe(&b));
        assert_eq!(second, 0, "a fresh entity in spare capacity is free");
        let (repeat, _) = thread_allocations(|| {
            for _ in 0..100 {
                tagger.observe(&a);
                tagger.observe(&b);
            }
        });
        assert_eq!(repeat, 0, "tracked entities are allocation-free");
    });
}

#[test]
fn interned_record_generation_reuses_palettes() {
    serialized(|| {
        // Generating the same stream twice interns nothing new the second
        // time: the per-record cost is the records vector itself, not
        // per-record strings. (~6 allocations per 1000 records of slack
        // covers the generator's palette Vecs and the sort's scratch.)
        let first = workload();
        let (allocs, second) = thread_allocations(workload);
        assert_eq!(first, second, "deterministic regeneration");
        let per_record = allocs as f64 / second.len() as f64;
        assert!(
            per_record < 0.05,
            "regeneration should be palette-backed: {allocs} allocs for {} records",
            second.len()
        );
    });
}

#[test]
fn service_ingest_steady_state_allocates_nothing_per_batch_or_record() {
    serialized(|| {
        let records = workload();
        let service = ServiceHandle::spawn(ServiceConfig::default(), |_, scope| {
            PipelineBuilder::new()
                .tagger(detect::AttackTagger::new(
                    detect::train::toy_training_model(),
                    detect::TaggerConfig::default(),
                ))
                .scope(scope)
                .build()
        });
        let tenant = TenantId(1);
        // Snapshotting a tenant that was never ingested returns once the
        // worker has processed every batch queued before it.
        let barrier = || {
            let absent = TenantId(u32::MAX);
            assert_eq!(
                service.snapshot(absent),
                Err(ServiceError::UnknownTenant(absent))
            );
        };
        // Warm pass: the ingest memo, the symbolizer caches, the filter
        // windows, the tagger's entity states, and scratch buffers sized
        // for the largest batch measured below.
        service.ingest(tenant, records.clone()).unwrap();
        barrier();

        // Re-ingest pre-built owned batches: the producer's only work is
        // moving each `Vec` into the queue.
        let measure = |batch: usize| {
            let batches: Vec<Vec<LogRecord>> =
                records.chunks(batch).map(<[LogRecord]>::to_vec).collect();
            let calls = batches.len();
            let (allocs, ()) = allocations(|| {
                for b in batches {
                    service.ingest(tenant, b).unwrap();
                }
                barrier();
            });
            (allocs, calls)
        };
        // The barrier's reply channel and the queue's one-time waiter
        // registrations: a constant independent of batch size *and* call
        // count, so nothing per record and nothing per batch.
        const SLACK: u64 = 16;
        for batch in [64, 1_024, records.len()] {
            let (allocs, calls) = measure(batch);
            assert!(
                allocs <= SLACK,
                "{allocs} allocations over {calls} calls of {batch}-record batches \
                 ({} records)",
                records.len()
            );
        }
        let (_, report) = service.shutdown().pop().unwrap();
        assert!(report.stats.admitted > 0, "sanity: the workload admits");
    });
}

/// Heap buffers a decoded snapshot owns: its non-empty `Vec`s (empty ones
/// never allocate) and the universe's text and offsets. Keys are integers
/// and rings fixed-length arrays: they own nothing.
fn owned_buffers(snap: &ServiceSnapshot) -> u64 {
    fn n<T>(v: &[T]) -> u64 {
        u64::from(!v.is_empty())
    }
    let mut total = n(&snap.filter.windows) + 2 * u64::from(!snap.sym_universe.is_empty());
    if let Some(t) = &snap.tagger {
        total += n(&t.entities) + n(&t.evicted_latches);
    }
    if let Some(c) = &snap.correlator {
        total += n(&c.entities) + n(&c.keys) + n(&c.campaigns) + n(&c.promoted_latches);
        for cs in &c.campaigns {
            total += n(&cs.members) + n(&cs.links);
        }
    }
    total
}

#[test]
fn snapshot_codec_builds_no_intermediate_tree() {
    serialized(|| {
        let cfg = RecordStreamConfig {
            scan_records: 2_000,
            benign_flows: 1_000,
            exec_records: 8_000,
            users: 1_500,
            zipf_exponent: 0.0,
            ..RecordStreamConfig::default()
        };
        let records = record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(0xC0DEC));
        let service = ServiceHandle::spawn(ServiceConfig::default(), |_, scope| {
            PipelineBuilder::new()
                .tagger(detect::AttackTagger::new(
                    detect::train::toy_training_model(),
                    detect::TaggerConfig::default(),
                ))
                .correlation(detect::CorrelationPolicy::default())
                .scope(scope)
                .build()
        });
        let tenant = TenantId(1);
        service.ingest(tenant, records).unwrap();
        let snap = service.snapshot(tenant).unwrap();
        let tagged = snap.tagger.as_ref().map_or(0, |t| t.entities.len());
        let correlated = snap.correlator.as_ref().map_or(0, |c| c.entities.len());
        assert!(
            tagged >= 1_000 && correlated >= 1_000,
            "{tagged} tagger / {correlated} correlator entities"
        );

        // Encoding appends into one buffer: its growth is all it allocates.
        const SLACK: u64 = 32;
        let (encode, wire) = thread_allocations(|| snap.to_json());
        assert!(
            encode <= SLACK,
            "to_json: {encode} allocations for {} bytes",
            wire.len()
        );
        // Decoding allocates each owned string and vector once, at its
        // final size.
        let (decode, decoded) = thread_allocations(|| ServiceSnapshot::from_json(&wire));
        let decoded = decoded.unwrap();
        assert_eq!(decoded, snap);
        let buffers = owned_buffers(&decoded);
        assert!(
            decode <= buffers + SLACK,
            "from_json: {decode} allocations for {buffers} owned buffers"
        );
    });
}

/// A tenant of the correlated pipeline over a uniform background of
/// `users` users, with the stream scaled to match.
fn restart_tenant(users: usize) -> ServiceHandle {
    let cfg = RecordStreamConfig {
        scan_records: 2 * users,
        benign_flows: users,
        exec_records: 6 * users,
        users,
        zipf_exponent: 0.0,
        ..RecordStreamConfig::default()
    };
    let records = record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(0x2E57));
    let service = ServiceHandle::spawn(ServiceConfig::default(), correlated_pipeline);
    service.ingest(TenantId(1), records).unwrap();
    // `ingest` only queues the batch: a round trip waits until the worker
    // has processed it, so none of that work lands in a restart's count.
    service.snapshot(TenantId(1)).unwrap();
    service
}

fn correlated_pipeline(_: TenantId, scope: SymScope) -> testbed::stage::builder::BuiltPipeline {
    PipelineBuilder::new()
        .tagger(detect::AttackTagger::new(
            detect::train::toy_training_model(),
            detect::TaggerConfig::default(),
        ))
        .correlation(detect::CorrelationPolicy::default())
        .scope(scope)
        .build()
}

/// Allocations of one restart of `service`'s tenant: snapshot →
/// `to_json` → `from_json` → restore into a fresh service, counted
/// process-wide (the snapshot and the restore run on worker threads).
/// Also returns the snapshot's entity, symbol and campaign counts.
fn restart_allocations(service: &ServiceHandle) -> (u64, [usize; 4]) {
    let tenant = TenantId(1);
    let fresh = ServiceHandle::spawn(ServiceConfig::default(), correlated_pipeline);
    let (allocs, sizes) = allocations(|| {
        let snap = service.snapshot(tenant).unwrap();
        let sizes = [
            snap.tagger.as_ref().map_or(0, |t| t.entities.len()),
            snap.correlator.as_ref().map_or(0, |c| c.entities.len()),
            snap.sym_universe.len(),
            snap.correlator.as_ref().map_or(0, |c| c.campaigns.len()),
        ];
        let wire = snap.to_json();
        drop(snap);
        fresh
            .restore(ServiceSnapshot::from_json(&wire).unwrap())
            .unwrap();
        sizes
    });
    let restored = fresh.snapshot(tenant).unwrap();
    assert_eq!(restored, service.snapshot(tenant).unwrap(), "restart drift");
    (allocs, sizes)
}

#[test]
fn restart_allocations_do_not_scale_with_entities_or_symbols() {
    serialized(|| {
        let (small, small_sizes) = restart_allocations(&restart_tenant(300));
        let (large, large_sizes) = restart_allocations(&restart_tenant(1_500));
        for (what, i) in [
            ("tagger entities", 0),
            ("correlator entities", 1),
            ("symbols", 2),
        ] {
            assert!(
                large_sizes[i] >= 4 * small_sizes[i],
                "{what}: {} vs {}",
                large_sizes[i],
                small_sizes[i]
            );
        }
        // What may grow: each campaign's member and link vectors (export,
        // decode and restore), and a few doublings of the hash maps, the
        // restored table's arena and index, and the universe buffers.
        const SLACK: u64 = 64;
        const PER_CAMPAIGN: u64 = 8;
        let campaigns = large_sizes[3] as u64;
        assert!(
            large <= small + SLACK + PER_CAMPAIGN * campaigns,
            "{large} allocations restarting {large_sizes:?} (entities, entities, symbols, \
             campaigns) vs {small} restarting {small_sizes:?}"
        );
    });
}

#[test]
fn sym_table_interning_allocates_per_doubling_not_per_string() {
    serialized(|| {
        let names: Vec<String> = (0..10_000).map(|i| format!("gate-{i:05}")).collect();
        let (allocs, table) = thread_allocations(|| {
            let table = SymTable::new();
            for name in &names {
                table.intern(name);
            }
            table
        });
        assert_eq!(table.len(), 1 + names.len());
        // Per doubling of the table: a slot chunk, an arena chunk, a probe
        // table (two allocations) and the occasional growth of the lists
        // that hold them.
        let doublings = u64::from(names.len().ilog2()) + 1;
        assert!(
            allocs <= 6 * doublings,
            "{allocs} allocations interning {} distinct strings",
            names.len()
        );
    });
}
