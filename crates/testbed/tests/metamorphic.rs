//! Metamorphic witnesses (proptest): transform the input stream, predict
//! the output.
//!
//! The executor-equivalence witnesses compare two drivers of the same
//! stages, so a fault inside a stage shows on both sides. These relations
//! instead change the records and state what the report must become:
//!
//! - **Time translation.** Moving every timestamp forward by whole days
//!   changes nothing once the shift is taken off: the same notifications,
//!   stream counters and campaigns. Whole days only, because the
//!   symbolizer reads the time of day for odd-hours logins.
//! - **Hostile clocks.** Timestamps pinned to `u64::MAX` ns and to the
//!   epoch, in stream order, reversed or shuffled, panic nowhere, and the
//!   inline, sharded and tenant-service runs stay byte-identical.

use proptest::prelude::*;
use scenario::mutate::{generate_campaign, CampaignConfig, MutationConfig};
use scenario::stream::RecordStreamConfig;
use simnet::intern::{SymScope, TenantId};
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use telemetry::record::LogRecord;
use testbed::stage::{BuiltPipeline, PipelineBuilder, StreamReport};
use testbed::{ServiceConfig, ServiceHandle};

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

/// The tagger with the campaign correlator, minting into `scope`.
fn pipeline(scope: SymScope, batch: usize, shards: usize) -> BuiltPipeline {
    PipelineBuilder::new()
        .tagger(detect::AttackTagger::new(
            detect::train::toy_training_model(),
            detect::TaggerConfig::default(),
        ))
        .correlation(detect::CorrelationPolicy::default())
        .batch_size(batch)
        .detect_shards(shards)
        .scope(scope)
        .build()
}

/// Every record with its timestamp rewritten by `f(stream position, ts)`.
fn retimed(records: &[LogRecord], f: impl Fn(usize, SimTime) -> SimTime) -> Vec<LogRecord> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut r = *r;
            let (ts, _) = r.clock_mut();
            *ts = f(i, *ts);
            r
        })
        .collect()
}

/// Every notification as the operator reads it, one per line.
fn notification_bytes(report: &StreamReport) -> String {
    report
        .notifications
        .iter()
        .map(|n| format!("{} {} {} {}\n", n.ts, n.entity, n.source, n.message()))
        .collect()
}

/// The report's time-bearing outputs with `shift` taken off every
/// timestamp.
fn unshifted(mut report: StreamReport, shift: SimDuration) -> StreamReport {
    for n in &mut report.notifications {
        n.ts = n.ts.saturating_sub(shift);
        n.detection.ts = n.detection.ts.saturating_sub(shift);
    }
    for link in report.campaigns.iter_mut().flat_map(|c| &mut c.links) {
        link.ts = link.ts.saturating_sub(shift);
    }
    for a in &mut report.retained_alerts {
        a.ts = a.ts.saturating_sub(shift);
    }
    report
}

/// `records` through one tenant of a fresh service, `batch` per ingest.
fn tenant_report(records: &[LogRecord], batch: usize) -> StreamReport {
    let service = ServiceHandle::spawn(ServiceConfig::default(), move |_, scope| {
        pipeline(scope, batch, 1)
    });
    for chunk in records.chunks(batch) {
        service
            .ingest(TenantId(9), chunk.to_vec())
            .expect("worker alive");
    }
    let (_, report) = service.shutdown().into_iter().next().expect("one tenant");
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Moving every timestamp by 1, 7 or 365 days and taking the shift off
    /// the report gives back the unshifted run: the same stream counters,
    /// filter counters, notifications, campaigns and retained alerts.
    #[test]
    fn whole_day_time_translation_is_invisible(
        seed in 0u64..100_000,
        sessions in 1usize..10,
        lateral_x10 in 0u64..10,
        days_pick in 0usize..3,
        batch in 1usize..300,
    ) {
        let records = campaign_records(seed, sessions, lateral_x10 as f64 / 10.0);
        let shift = SimDuration::from_days([1, 7, 365][days_pick]);
        let moved = retimed(&records, |_, ts| ts + shift);
        let base = pipeline(SymScope::global(), batch, 1).run_inline(records);
        let back = unshifted(
            pipeline(SymScope::global(), batch, 1).run_inline(moved),
            shift,
        );
        prop_assert_eq!(base.stats, back.stats);
        prop_assert_eq!(base.filter, back.filter);
        prop_assert_eq!(&base.notifications, &back.notifications);
        prop_assert_eq!(&base.campaigns, &back.campaigns);
        prop_assert_eq!(&base.retained_alerts, &back.retained_alerts);
    }

    /// Every 97th timestamp at `u64::MAX` ns and every 89th at the epoch,
    /// with the stream then kept in order, reversed or shuffled: no stage
    /// panics, and the inline, sharded and tenant-service runs agree byte
    /// for byte.
    #[test]
    fn hostile_clocks_panic_nowhere_and_agree_across_paths(
        seed in 0u64..100_000,
        sessions in 1usize..10,
        order in 0usize..3,
        batch in 1usize..200,
        shards in 2usize..6,
    ) {
        let records = campaign_records(seed, sessions, 0.5);
        let mut hostile = retimed(&records, |i, ts| match i + 1 {
            n if n % 97 == 0 => SimTime::from_nanos(u64::MAX),
            n if n % 89 == 0 => SimTime::EPOCH,
            _ => ts,
        });
        match order {
            0 => {}
            1 => hostile.reverse(),
            _ => {
                let mut rng = SimRng::seed(seed ^ 0x5A5A);
                for j in (1..hostile.len()).rev() {
                    hostile.swap(j, rng.index(j + 1));
                }
            }
        }
        let inline = pipeline(SymScope::global(), batch, 1).run_inline(hostile.clone());
        let sharded = pipeline(SymScope::global(), batch, shards).run_sharded(hostile.clone());
        let tenant = tenant_report(&hostile, batch);
        prop_assert_eq!(inline.stats.records, hostile.len() as u64);
        for other in [&sharded, &tenant] {
            prop_assert_eq!(notification_bytes(other), notification_bytes(&inline));
            prop_assert_eq!(other.stats, inline.stats);
            prop_assert_eq!(other.filter, inline.filter);
            prop_assert_eq!(&other.campaigns, &inline.campaigns);
        }
        // Retained alerts carry symbols of the scope they were minted in,
        // so only the two global-scope runs compare them.
        prop_assert_eq!(&sharded.notifications, &inline.notifications);
        prop_assert_eq!(&sharded.retained_alerts, &inline.retained_alerts);
    }
}
