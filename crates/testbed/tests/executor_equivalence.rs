//! Differential properties of the pipeline executors (proptest):
//!
//! On randomized mixed record streams (scan floods, benign flows,
//! Zipf-skewed per-user command sessions), on randomized **adversarial
//! campaign workloads** (mutated attack sessions with decoys, lateral
//! hops and dilation from `scenario::mutate`), and on randomized
//! batching / capacity / shard-count tuning, the inline, threaded, and
//! sharded executors must produce results **identical** to the
//! hand-rolled sequential composition of the raw components: same stats,
//! same detection stream, same notifications, same retained alerts, same
//! blocked sources.

use proptest::prelude::*;
use scenario::mutate::{generate_campaign, CampaignConfig, MutationConfig};
use scenario::stream::{record_stream, RecordStreamConfig};
use simnet::intern::SymScope;
use simnet::rng::SimRng;
use simnet::time::SimDuration;
use telemetry::record::{LogRecord, NoticeKind};
use testbed::stage::{PipelineBuilder, StreamReport};
use testbed::StreamStats;

/// Rebuild a record through owned `String`s — the string-backed
/// construction path kept for tests/examples. Every interned field is
/// resolved to a fresh heap `String` and re-interned via the `From`
/// conversions a by-hand caller would use, proving the two construction
/// styles are observationally identical.
fn string_roundtrip(r: &LogRecord) -> LogRecord {
    let s = |sym: simnet::intern::Sym| -> simnet::intern::Sym { String::from(sym.as_str()).into() };
    match r {
        LogRecord::Conn(c) => LogRecord::Conn(c.clone()),
        LogRecord::Http(h) => {
            let mut h = h.clone();
            h.method = s(h.method);
            h.host = s(h.host);
            h.uri = s(h.uri);
            h.mime = s(h.mime);
            h.user_agent = s(h.user_agent);
            LogRecord::Http(h)
        }
        LogRecord::Ssh(r) => {
            let mut r = r.clone();
            r.user = s(r.user);
            r.client_banner = s(r.client_banner);
            LogRecord::Ssh(r)
        }
        LogRecord::Notice(n) => {
            let mut n = n.clone();
            if let NoticeKind::Custom(sym) = n.note {
                n.note = NoticeKind::Custom(s(sym));
            }
            n.msg = s(n.msg);
            n.sub = s(n.sub);
            LogRecord::Notice(n)
        }
        LogRecord::Process(p) => {
            let mut p = p.clone();
            p.hostname = s(p.hostname);
            p.user = s(p.user);
            p.exe = s(p.exe);
            p.cmdline = s(p.cmdline);
            LogRecord::Process(p)
        }
        LogRecord::File(f) => {
            let mut f = f.clone();
            f.hostname = s(f.hostname);
            f.user = s(f.user);
            f.path = s(f.path);
            f.process = s(f.process);
            LogRecord::File(f)
        }
        LogRecord::Auth(a) => {
            let mut a = a.clone();
            a.hostname = s(a.hostname);
            a.user = s(a.user);
            LogRecord::Auth(a)
        }
        LogRecord::Audit(a) => {
            let mut a = a.clone();
            a.hostname = s(a.hostname);
            a.user = s(a.user);
            a.syscall = s(a.syscall);
            a.args = s(a.args);
            LogRecord::Audit(a)
        }
        LogRecord::Db(d) => {
            let mut d = d.clone();
            d.user = s(d.user);
            d.statement = s(d.statement);
            LogRecord::Db(d)
        }
    }
}

fn workload(seed: u64, scans: usize, execs: usize, users: usize) -> Vec<LogRecord> {
    let cfg = RecordStreamConfig {
        scan_records: scans,
        scanners: 1 + seed as usize % 7,
        benign_flows: scans / 2,
        exec_records: execs,
        users,
        ..RecordStreamConfig::default()
    };
    record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(seed))
}

/// The raw sequential composition, written against the component APIs
/// directly (no stage machinery) — the ground truth the executors must
/// reproduce.
fn sequential_reference(records: &[LogRecord]) -> (StreamStats, Vec<String>) {
    let mut sym = alertlib::Symbolizer::with_defaults();
    let mut filt = alertlib::ScanFilter::default();
    let mut tag = detect::AttackTagger::new(
        detect::train::toy_training_model(),
        detect::TaggerConfig::default(),
    );
    let mut stats = StreamStats::default();
    let mut detections = Vec::new();
    for r in records {
        stats.records += 1;
        for a in sym.symbolize(r) {
            stats.alerts += 1;
            if filt.admit(&a) {
                stats.admitted += 1;
                if let Some(d) = tag.observe(&a) {
                    stats.detections += 1;
                    detections.push(format!(
                        "{}|{}|{}|{}",
                        a.entity.key(sym.scope()),
                        d.ts,
                        d.trigger,
                        d.stage
                    ));
                }
            }
        }
    }
    (stats, detections)
}

fn builder(batch: usize, capacity: usize, shards: usize, retention: usize) -> PipelineBuilder {
    PipelineBuilder::new()
        .batch_size(batch)
        .stage_capacity(capacity)
        .detect_shards(shards)
        .alert_retention(retention)
        .block_on_detection(true, None)
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

fn assert_reports_identical(a: &StreamReport, b: &StreamReport) {
    prop_assert_eq!(a.stats, b.stats);
    prop_assert_eq!(a.filter, b.filter);
    prop_assert_eq!(&a.notifications, &b.notifications);
    prop_assert_eq!(&a.retained_alerts, &b.retained_alerts);
    prop_assert_eq!(a.alerts_dropped, b.alerts_dropped);
    prop_assert_eq!(a.alerts_discarded, b.alerts_discarded);
    prop_assert_eq!(a.blocked_sources, b.blocked_sources);
    prop_assert_eq!(a.duplicates_suppressed, b.duplicates_suppressed);
    prop_assert_eq!(a.blocks_retried, b.blocks_retried);
    prop_assert_eq!(a.blocks_abandoned, b.blocks_abandoned);
    prop_assert_eq!(&a.fault, &b.fault);
    prop_assert_eq!(&a.campaigns, &b.campaigns);
    prop_assert_eq!(a.correlated_promotions, b.correlated_promotions);
    prop_assert_eq!(a.correlated_confirmations, b.correlated_confirmations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// All three executors equal the raw sequential composition.
    #[test]
    fn executors_match_sequential_reference(
        seed in 0u64..10_000,
        batch in 1usize..300,
        shards in 1usize..9,
        scans in 0usize..600,
        execs in 0usize..500,
        users in 1usize..40,
    ) {
        let records = workload(seed, scans, execs, users);
        let (seq_stats, seq_detections) = sequential_reference(&records);
        // Stage capacity deliberately small sometimes: back-pressure must
        // not change results.
        let capacity = batch * (1 + seed as usize % 4);
        let retention = seed as usize % 50;

        let inline = builder(batch, capacity, shards, retention)
            .build()
            .run_inline(records.clone());
        prop_assert_eq!(inline.stats, seq_stats);
        prop_assert_eq!(detection_keys(&inline), seq_detections.clone());
        prop_assert_eq!(
            inline.retained_alerts.len() as u64 + inline.alerts_dropped + inline.alerts_discarded,
            inline.stats.admitted
        );

        let threaded = builder(batch, capacity, shards, retention)
            .build()
            .run_threaded(records.clone());
        assert_reports_identical(&inline, &threaded);

        let sharded = builder(batch, capacity, shards, retention)
            .build()
            .run_sharded(records);
        assert_reports_identical(&inline, &sharded);
    }

    /// Adversarial campaign workloads — mutated multi-entity sessions
    /// interleaved with background load — shard and thread identically to
    /// the sequential reference too. This is the workload the preemption
    /// evaluation harness scores, so executor choice must be invisible to
    /// `EvalReport` as well.
    #[test]
    fn executors_agree_on_mutated_campaigns(
        seed in 0u64..100_000,
        sessions in 1usize..32,
        batch in 1usize..300,
        shards in 1usize..9,
        drop_prob in 0.0f64..0.8,
        lateral_prob in 0.0f64..1.0,
        decoy_prob in 0.0f64..0.4,
        dilation_x10 in 10u64..100,
        background in 0usize..2,
    ) {
        let cfg = CampaignConfig {
            sessions,
            horizon: SimDuration::from_hours(24),
            mutation: MutationConfig {
                drop_prob,
                lateral_prob,
                decoy_prob,
                dilation: dilation_x10 as f64 / 10.0,
                ..MutationConfig::default()
            },
            background: (background == 1).then(|| RecordStreamConfig {
                scan_records: 300,
                benign_flows: 100,
                exec_records: 200,
                users: 25,
                ..RecordStreamConfig::default()
            }),
            ..CampaignConfig::default()
        };
        let campaign = generate_campaign(&cfg, &mut SimRng::seed(seed));
        let records = campaign.records;
        let (seq_stats, seq_detections) = sequential_reference(&records);
        let capacity = batch * (1 + seed as usize % 4);
        let retention = seed as usize % 64;

        let inline = builder(batch, capacity, shards, retention)
            .build()
            .run_inline(records.clone());
        prop_assert_eq!(inline.stats, seq_stats);
        prop_assert_eq!(detection_keys(&inline), seq_detections);

        let threaded = builder(batch, capacity, shards, retention)
            .build()
            .run_threaded(records.clone());
        assert_reports_identical(&inline, &threaded);

        let sharded = builder(batch, capacity, shards, retention)
            .build()
            .run_sharded(records);
        assert_reports_identical(&inline, &sharded);

        // Scoring the identical reports yields identical evaluations.
        let eval_inline = testbed::evaluate_campaign(&inline, &campaign.truth);
        let eval_sharded = testbed::evaluate_campaign(&sharded, &campaign.truth);
        prop_assert_eq!(eval_inline, eval_sharded);
    }

    /// Pre-interned generation vs string-backed construction: a campaign
    /// whose records are round-tripped through owned `String`s (the
    /// construction path tests and examples use) must flow through the
    /// pipeline byte-identically — same `StreamReport`, same
    /// `EvalReport` — on both the inline and sharded executors.
    #[test]
    fn interned_and_string_constructed_pipelines_agree(
        seed in 0u64..100_000,
        sessions in 1usize..24,
        drop_prob in 0.0f64..0.8,
        lateral_prob in 0.0f64..1.0,
        dilation_x10 in 10u64..60,
    ) {
        let cfg = CampaignConfig {
            sessions,
            horizon: SimDuration::from_hours(24),
            mutation: MutationConfig {
                drop_prob,
                lateral_prob,
                dilation: dilation_x10 as f64 / 10.0,
                ..MutationConfig::default()
            },
            background: Some(RecordStreamConfig {
                scan_records: 300,
                benign_flows: 100,
                exec_records: 200,
                users: 25,
                ..RecordStreamConfig::default()
            }),
            ..CampaignConfig::default()
        };
        let campaign = generate_campaign(&cfg, &mut SimRng::seed(seed));
        let stringed: Vec<LogRecord> =
            campaign.records.iter().map(string_roundtrip).collect();
        // Re-interning resolves to the same symbols, so the records are
        // value-identical before the pipeline even runs...
        prop_assert_eq!(&stringed, &campaign.records);

        // ...and the pipeline results are byte-identical, inline and
        // sharded, including the scored evaluation.
        let interned = builder(64, 256, 3, 50)
            .build()
            .run_inline(campaign.records.clone());
        let from_strings = builder(64, 256, 3, 50)
            .build()
            .run_inline(stringed.clone());
        assert_reports_identical(&interned, &from_strings);
        let sharded_from_strings = builder(64, 256, 3, 50)
            .build()
            .run_sharded(stringed);
        assert_reports_identical(&interned, &sharded_from_strings);

        let eval_interned = testbed::evaluate_campaign(&interned, &campaign.truth);
        let eval_strings = testbed::evaluate_campaign(&from_strings, &campaign.truth);
        prop_assert_eq!(eval_interned, eval_strings);
    }

    /// Fault injection is part of the determinism contract: the same
    /// `FaultPlan` seed over the same input must yield a byte-identical
    /// faulted stream, and the in-pipeline injection must equal
    /// pre-faulting the stream by hand — with byte-identical detections
    /// across all three executors on top.
    #[test]
    fn faulted_streams_replay_identically_across_executors(
        seed in 0u64..100_000,
        fault_seed in 0u64..100_000,
        batch in 1usize..300,
        shards in 1usize..9,
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        reorder in 0usize..48,
        scans in 0usize..400,
        execs in 0usize..400,
    ) {
        use scenario::faults::{apply_fault_plan, ClockSkewConfig, FaultPlan};
        let records = workload(seed, scans, execs, 20);
        let plan = FaultPlan::clean(fault_seed)
            .named("prop-mixed")
            .with_loss(loss)
            .with_duplication(dup)
            .with_reorder(reorder)
            .with_clock(ClockSkewConfig {
                max_skew: SimDuration::from_secs(30),
                jitter: SimDuration::from_secs(5),
            });

        // Same plan seed ⇒ byte-identical faulted stream.
        let (faulted_a, stats_a) = apply_fault_plan(&plan, &records);
        let (faulted_b, stats_b) = apply_fault_plan(&plan, &records);
        prop_assert_eq!(&faulted_a, &faulted_b);
        prop_assert_eq!(&stats_a, &stats_b);

        let capacity = batch * (1 + seed as usize % 4);
        let inline = builder(batch, capacity, shards, 50)
            .faults(plan.clone())
            .build()
            .run_inline(records.clone());
        // In-pipeline injection ≡ pre-faulting the stream by hand.
        prop_assert_eq!(inline.fault.as_ref(), Some(&stats_a));
        let pre_faulted = builder(batch, capacity, shards, 50)
            .build()
            .run_inline(faulted_a);
        prop_assert_eq!(inline.stats, pre_faulted.stats);
        prop_assert_eq!(detection_keys(&inline), detection_keys(&pre_faulted));

        let threaded = builder(batch, capacity, shards, 50)
            .faults(plan.clone())
            .build()
            .run_threaded(records.clone());
        assert_reports_identical(&inline, &threaded);

        let sharded = builder(batch, capacity, shards, 50)
            .faults(plan)
            .build()
            .run_sharded(records);
        assert_reports_identical(&inline, &sharded);
    }

    /// With the cross-entity campaign correlator enabled, the three
    /// executors must still agree byte-for-byte — including the campaign
    /// summaries, promotion counters, and the scored evaluation. Lateral
    /// splits are forced often so correlation genuinely fires.
    #[test]
    fn correlated_executors_agree_on_mutated_campaigns(
        seed in 0u64..100_000,
        sessions in 1usize..24,
        batch in 1usize..300,
        shards in 1usize..9,
        lateral_prob in 0.5f64..1.0,
        max_lateral in 2usize..5,
        decoy_prob in 0.0f64..0.3,
        background in 0usize..2,
    ) {
        let cfg = CampaignConfig {
            sessions,
            horizon: SimDuration::from_hours(24),
            mutation: MutationConfig {
                lateral_prob,
                max_lateral_entities: max_lateral,
                decoy_prob,
                ..MutationConfig::default()
            },
            background: (background == 1).then(|| RecordStreamConfig {
                scan_records: 300,
                benign_flows: 100,
                exec_records: 200,
                users: 25,
                ..RecordStreamConfig::default()
            }),
            ..CampaignConfig::default()
        };
        let campaign = generate_campaign(&cfg, &mut SimRng::seed(seed));
        let records = campaign.records;
        let capacity = batch * (1 + seed as usize % 4);
        let correlated = |batch, capacity, shards| {
            builder(batch, capacity, shards, 50)
                .correlation(detect::CorrelationPolicy::default())
        };

        let inline = correlated(batch, capacity, shards)
            .build()
            .run_inline(records.clone());
        let threaded = correlated(batch, capacity, shards)
            .build()
            .run_threaded(records.clone());
        assert_reports_identical(&inline, &threaded);

        let sharded = correlated(batch, capacity, shards)
            .build()
            .run_sharded(records);
        assert_reports_identical(&inline, &sharded);

        let eval_inline = testbed::evaluate_campaign(&inline, &campaign.truth);
        let eval_sharded = testbed::evaluate_campaign(&sharded, &campaign.truth);
        prop_assert_eq!(eval_inline, eval_sharded);
    }

    /// Link formation is order-insensitive within a batch: alerts sharing
    /// one timestamp (a batch arriving "at once") produce the same
    /// campaign partition and link multiset no matter how the batch is
    /// permuted.
    #[test]
    fn correlator_link_formation_is_order_insensitive(
        seed in 0u64..100_000,
        entities in 2usize..7,
        rounds in 1usize..4,
    ) {
        use alertlib::alert::{Alert, Entity};
        use alertlib::taxonomy::AlertKind;
        let victim: std::net::Ipv4Addr = "141.142.20.7".parse().unwrap();
        // Per entity: a hot anchor alert then a joinable follow-up, all
        // aimed at one victim, timestamps equal within each round.
        let mut batch: Vec<Alert> = Vec::new();
        for round in 0..rounds {
            for e in 0..entities {
                let src: std::net::Ipv4Addr =
                    format!("198.18.7.{}", 10 + e).parse().unwrap();
                let kind = if round == 0 {
                    AlertKind::PasswordFileAccess
                } else {
                    AlertKind::LogWipe
                };
                batch.push(
                    Alert::new(
                        simnet::time::SimTime::from_secs(1_000 + 600 * round as u64),
                        kind,
                        Entity::Address(src),
                    )
                    .with_src(src)
                    .with_dst(victim),
                );
            }
        }

        let run = |order: &[usize]| {
            let mut tagger = detect::correlate::correlated_tagger(
                detect::train::toy_training_model(),
                detect::TaggerConfig::default(),
            );
            for &i in order {
                tagger.observe(&batch[i]);
            }
            let c = tagger.correlator();
            (c.partition(), {
                let mut links = c.link_pairs();
                links.sort();
                links
            })
        };

        let identity: Vec<usize> = (0..batch.len()).collect();
        let (base_partition, base_links) = run(&identity);
        prop_assert!(!base_partition.is_empty(), "shared victim links campaigns");

        // Fisher–Yates permutations within each equal-timestamp round.
        let mut rng = SimRng::seed(seed);
        for _ in 0..4 {
            let mut order = identity.clone();
            for round in 0..rounds {
                let lo = round * entities;
                for j in (1..entities).rev() {
                    let k = rng.index(j + 1);
                    order.swap(lo + j, lo + k);
                }
            }
            let (partition, links) = run(&order);
            prop_assert_eq!(&partition, &base_partition);
            prop_assert_eq!(&links, &base_links);
        }
    }

    /// The rule-based baseline detector shards identically too (its
    /// per-entity session state follows the same entity partition).
    #[test]
    fn baseline_detector_shards_identically(
        seed in 0u64..10_000,
        shards in 2usize..8,
        execs in 1usize..400,
        users in 1usize..25,
    ) {
        let records = workload(seed, 100, execs, users);
        let build = || {
            PipelineBuilder::new()
                .rules_detector(detect::RuleBasedDetector::with_default_rules())
                .batch_size(64)
                .detect_shards(shards)
        };
        let inline = build().build().run_inline(records.clone());
        let sharded = build().build().run_sharded(records);
        assert_reports_identical(&inline, &sharded);
    }
}
