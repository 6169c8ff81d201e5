//! Edge-case unit tests for [`AlertRetention`] and the stage adapters:
//! cap boundaries (exactly `cap`, `cap + 1`, `cap == 0`), exact
//! `alerts_dropped` accounting through full pipeline runs, and empty-batch
//! behaviour of every stage adapter.

use alertlib::alert::{Alert, Entity};
use alertlib::taxonomy::AlertKind;
use simnet::intern::SymScope;
use simnet::time::SimTime;
use telemetry::record::LogRecord;
use testbed::stage::adapters::{
    DetectOutcome, DetectorStage, FilterStage, MonitorStage, ResponseStage, SymbolizeStage,
};
use testbed::stage::{AlertRetention, PipelineBuilder, Stage};

fn alert(t: u64) -> Alert {
    Alert::new(
        SimTime::from_secs(t),
        AlertKind::DownloadSensitive,
        Entity::User(format!("u{t}").into()),
    )
}

#[test]
fn retention_exactly_at_cap_drops_nothing() {
    let mut r = AlertRetention::new(5);
    for t in 0..5 {
        r.push(alert(t));
    }
    assert_eq!(r.len(), 5);
    assert_eq!(r.dropped(), 0);
    assert!(!r.is_empty());
    let kept: Vec<u64> = r.into_vec().iter().map(|a| a.ts.as_secs()).collect();
    assert_eq!(kept, vec![0, 1, 2, 3, 4], "insertion order preserved");
}

#[test]
fn retention_one_past_cap_drops_exactly_the_oldest() {
    let mut r = AlertRetention::new(5);
    for t in 0..6 {
        r.push(alert(t));
    }
    assert_eq!(r.len(), 5);
    assert_eq!(r.dropped(), 1);
    let kept: Vec<u64> = r.into_vec().iter().map(|a| a.ts.as_secs()).collect();
    assert_eq!(kept, vec![1, 2, 3, 4, 5], "only the oldest went");
}

#[test]
fn retention_cap_zero_discards_without_counting_drops() {
    let mut r = AlertRetention::new(0);
    assert_eq!(r.cap(), 0);
    assert!(r.is_empty());
    for t in 0..7 {
        r.push(alert(t));
    }
    assert_eq!(r.len(), 0);
    assert!(r.is_empty());
    assert_eq!(
        r.dropped(),
        0,
        "retention-off must not masquerade as cap overflow"
    );
    assert_eq!(r.discarded(), 7, "retention-off still accounts every alert");
    assert_eq!(r.iter().count(), 0);
    assert!(r.into_vec().is_empty());
}

#[test]
fn retention_cap_one_is_a_latest_alert_register() {
    let mut r = AlertRetention::new(1);
    for t in 0..100 {
        r.push(alert(t));
    }
    assert_eq!(r.len(), 1);
    assert_eq!(r.dropped(), 99);
    assert_eq!(r.iter().next().unwrap().ts.as_secs(), 99);
}

/// `alerts_dropped` accounting is exact through a full pipeline run: every
/// admitted alert is either retained or counted as dropped, for caps
/// below, at, and above the admitted count.
#[test]
fn dropped_counter_is_exact_through_pipeline_runs() {
    let mut rng = simnet::rng::SimRng::seed(42);
    let cfg = scenario::stream::RecordStreamConfig {
        scan_records: 300,
        benign_flows: 100,
        exec_records: 400,
        users: 20,
        ..scenario::stream::RecordStreamConfig::default()
    };
    let records = scenario::stream::record_stream(&SymScope::global(), &cfg, &mut rng);
    let admitted = PipelineBuilder::new()
        .alert_retention(usize::MAX)
        .build()
        .run_inline(records.clone())
        .stats
        .admitted;
    assert!(admitted > 10, "workload must admit alerts: {admitted}");
    for cap in [
        0,
        1,
        admitted as usize - 1,
        admitted as usize,
        admitted as usize + 1,
    ] {
        let report = PipelineBuilder::new()
            .alert_retention(cap)
            .build()
            .run_inline(records.clone());
        assert_eq!(report.stats.admitted, admitted, "same workload");
        assert_eq!(
            report.retained_alerts.len() as u64 + report.alerts_dropped + report.alerts_discarded,
            admitted,
            "cap {cap}: retained + dropped + discarded must equal admitted"
        );
        assert_eq!(
            report.retained_alerts.len(),
            cap.min(admitted as usize),
            "cap {cap}: retained count"
        );
        if cap == 0 {
            assert_eq!(report.alerts_dropped, 0, "retention-off drops nothing");
            assert_eq!(
                report.alerts_discarded, admitted,
                "retention-off discards everything"
            );
        } else {
            assert_eq!(
                report.alerts_dropped,
                admitted.saturating_sub(cap as u64),
                "cap {cap}: dropped count"
            );
            assert_eq!(
                report.alerts_discarded, 0,
                "enabled retention discards nothing"
            );
        }
    }
}

#[test]
fn symbolize_stage_empty_batch_is_a_noop() {
    let mut stage = SymbolizeStage::new(alertlib::Symbolizer::with_defaults());
    let mut out = Vec::new();
    stage.process_batch(&[], &mut out);
    assert!(out.is_empty());
    assert_eq!(stage.symbolizer().alerts_emitted(), 0);
    stage.flush(&mut out);
    assert!(out.is_empty(), "symbolizer holds no windowed state");
}

#[test]
fn filter_stage_empty_batch_touches_no_counters() {
    let mut stage = FilterStage::new(alertlib::ScanFilter::default());
    let mut out = Vec::new();
    stage.process_batch(&[], &mut out);
    let mut empty_batch = Vec::new();
    stage.admit_drain(&mut empty_batch, &mut out);
    stage.flush(&mut out);
    assert!(out.is_empty());
    let stats = stage.stats();
    assert_eq!(stats.seen, 0);
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.suppressed, 0);
}

#[test]
fn detector_stages_empty_batch_emit_no_outcomes() {
    for mut stage in [
        DetectorStage::tagger(detect::AttackTagger::new(
            detect::train::toy_training_model(),
            detect::TaggerConfig::default(),
        )),
        DetectorStage::rules(detect::RuleBasedDetector::with_default_rules()),
        DetectorStage::critical(),
    ] {
        let mut out: Vec<DetectOutcome> = Vec::new();
        stage.process_batch(&[], &mut out);
        let mut empty_batch = Vec::new();
        stage.process_drain(&mut empty_batch, &mut out);
        stage.flush(&mut out);
        assert!(out.is_empty(), "{}: outcomes from nothing", stage.name());
        if let Some(tagger) = stage.as_tagger() {
            assert_eq!(tagger.tracked_entities(), 0);
        }
    }
}

#[test]
fn response_stage_empty_batch_sends_nothing() {
    let bhr = bhr::api::BhrHandle::new();
    let mut stage = ResponseStage::new(bhr.clone(), true, None, "attack-tagger");
    let mut notes = Vec::new();
    stage.respond(None, &[], &mut notes);
    stage.process_batch(&[], &mut notes);
    stage.flush(&mut notes);
    assert!(notes.is_empty());
    assert_eq!(stage.blocked_sources(), 0);
    assert_eq!(bhr.stats().blocks_added, 0);
}

#[test]
fn monitor_stage_empty_batch_produces_no_records() {
    let topo = simnet::topology::NcsaTopologyBuilder::default().build();
    let mut stage =
        MonitorStage::new(telemetry::MonitorHub::standard(&SymScope::global()).into_monitors())
            .with_topology(topo);
    let mut records: Vec<LogRecord> = Vec::new();
    stage.process_batch(&[], &mut records);
    assert!(records.is_empty());
    stage.flush(&mut records);
    assert!(
        records.is_empty(),
        "no observations, no windowed scan notices"
    );
}

/// Empty record streams leave retention untouched on every executor.
#[test]
fn empty_stream_retention_is_empty_everywhere() {
    for kind in [
        testbed::ExecutorKind::Inline,
        testbed::ExecutorKind::Threaded,
        testbed::ExecutorKind::Sharded,
    ] {
        let report = PipelineBuilder::new()
            .executor(kind)
            .alert_retention(8)
            .build()
            .run(Vec::<LogRecord>::new());
        assert!(report.retained_alerts.is_empty());
        assert_eq!(report.alerts_dropped, 0);
        assert_eq!(report.alerts_discarded, 0);
    }
}
