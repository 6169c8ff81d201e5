//! Pins the operator-notification bytes that every executor-equivalence
//! witness compares (`bench::detection_bytes`) to a committed fixture.
//!
//! The witnesses compare executors against each other, so a change in how
//! a notification's entity key, source label or message text is rendered
//! would pass all of them. This test compares against fixed bytes
//! instead, over a small deterministic run in the global and in a tenant
//! scope plus hand-built detections for the rendering edge cases: a user
//! name longer than an inline entity key, an address entity, the unknown
//! entity, and scores that round at the second decimal.

use std::net::Ipv4Addr;

use alertlib::alert::{Alert, Entity};
use alertlib::taxonomy::AlertKind;
use bhr::BhrHandle;
use detect::attack_tagger::{AttackTagger, Detection, TaggerConfig};
use scenario::stream::{record_stream, RecordStreamConfig};
use simnet::intern::SymScope;
use simnet::rng::SimRng;
use simnet::time::SimTime;
use testbed::stage::{DetectOutcome, ResponseStage};
use testbed::{PipelineBuilder, StreamReport};

const FIXTURE: &str = include_str!("fixtures/notification_bytes.txt");

/// A small campaign through the full inline pipeline, its symbols minted
/// in `scope`.
fn run(scope: &SymScope) -> StreamReport {
    let cfg = RecordStreamConfig {
        scan_records: 400,
        benign_flows: 200,
        exec_records: 1_200,
        users: 12,
        ..RecordStreamConfig::default()
    };
    let records = record_stream(scope, &cfg, &mut SimRng::seed(0x601D));
    PipelineBuilder::new()
        .tagger(AttackTagger::new(
            detect::train::toy_training_model(),
            TaggerConfig::default(),
        ))
        .scope(scope.clone())
        .build()
        .run_inline(records)
}

/// Hand-built detections through the response stage of a pipeline in
/// `scope`, covering entity kinds and scores the campaign may not reach.
fn edge_cases(scope: &SymScope) -> StreamReport {
    let entities = [
        Entity::User(scope.sym("eve")),
        Entity::User(scope.sym("svc-batch-scheduler-account-0042")),
        Entity::Address(Ipv4Addr::new(203, 0, 113, 77)),
        Entity::Unknown,
    ];
    let scores = [0.125, 0.675, 0.995, 0.004_999, 1.0];
    let mut outcomes = Vec::new();
    for (i, entity) in entities.into_iter().enumerate() {
        for (j, score) in scores.into_iter().enumerate() {
            let ts = SimTime::from_secs(60 * (5 * i + j) as u64);
            outcomes.push(DetectOutcome {
                alert: Alert::new(ts, AlertKind::C2Communication, entity)
                    .with_src(Ipv4Addr::new(198, 51, 100, i as u8)),
                detection: Some(Detection {
                    ts,
                    alert_index: j,
                    trigger: AlertKind::C2Communication,
                    score,
                    stage: detect::Stage::Foothold,
                }),
                attack_score: score,
            });
        }
    }
    let mut response =
        ResponseStage::new(BhrHandle::new(), true, None, "attack-tagger").with_scope(scope.clone());
    let mut report = PipelineBuilder::new()
        .scope(scope.clone())
        .build()
        .run_inline(Vec::new());
    response.respond(None, &outcomes, &mut report.notifications);
    report
}

#[test]
fn notification_bytes_match_the_fixture() {
    let mut bytes = String::new();
    for scope in [SymScope::global(), SymScope::fresh()] {
        let campaign = run(&scope);
        assert!(
            campaign.notifications.len() >= 3,
            "sanity: the campaign notifies ({} notifications)",
            campaign.notifications.len()
        );
        bytes += &bench::detection_bytes(&campaign);
        bytes += &bench::detection_bytes(&edge_cases(&scope));
    }
    if bytes != FIXTURE {
        let first = bytes.lines().zip(FIXTURE.lines()).position(|(a, b)| a != b);
        panic!(
            "notification bytes drifted from the fixture (first differing line: {first:?}; \
             {} vs {} lines)",
            bytes.lines().count(),
            FIXTURE.lines().count()
        );
    }
}
