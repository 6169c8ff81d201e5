//! The traced driver: `testbed`'s inline executor loop, reassembled from
//! the public stage objects so a span can sit around every call into a
//! layer.
//!
//! It mirrors `run_inline` (and the service worker's per-batch step) call
//! for call. The benchmark refuses to report unless this driver's
//! detections are byte-identical to the real executor's on the same
//! input, which is what shows that the traced run measures the same
//! program as the untraced one.

use alertlib::alert::Alert;
use alertlib::symbolize::Symbolizer;
use detect::attack_tagger::AttackTagger;
use detect::correlate::CampaignCorrelator;
use scenario::faults::FaultInjector;
use simnet::intern::SymScope;
use telemetry::record::LogRecord;
use testbed::report::OperatorNotification;
use testbed::stage::{
    AlertRetention, DetectOutcome, DetectorStage, FilterStage, ResponseStage, SymbolizeStage,
};
use testbed::{Stage, StreamReport, StreamStats};

use crate::trace::{Layer, Tracer};
use crate::workload::PipelineSpec;

/// Work counted at layer boundaries, for per-layer ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Records offered before fault injection.
    pub offered: u64,
    /// Detections straight out of the tagger, before correlation.
    pub tagger_detections: u64,
}

/// One pipeline's stage objects, driven batch by batch.
pub struct Driver {
    symbolize: SymbolizeStage,
    filter: FilterStage,
    detect: DetectorStage,
    correlate: Option<CampaignCorrelator>,
    response: ResponseStage,
    retention: AlertRetention,
    faults: Option<FaultInjector>,
    batch: usize,
    stats: StreamStats,
    counts: Counts,
    notifications: Vec<OperatorNotification>,
    alerts_buf: Vec<Alert>,
    admitted_buf: Vec<Alert>,
    outcomes_buf: Vec<DetectOutcome>,
}

impl Driver {
    /// Assemble the stages `spec.builder().build()` would, minting into
    /// `scope` when one is given (the tenant path).
    pub fn new(spec: &PipelineSpec, scope: Option<&SymScope>) -> Driver {
        let tb = &spec.tb;
        let mut symbolizer_cfg = tb.symbolizer.clone();
        symbolizer_cfg
            .c2_addresses
            .extend(tb.c2_feed.iter().copied());
        let mut symbolizer = Symbolizer::new(symbolizer_cfg);
        let mut detect =
            DetectorStage::tagger(AttackTagger::new(spec.model.clone(), tb.tagger.clone()));
        if let Some(temporal) = &tb.tuning.temporal {
            detect.apply_temporal(temporal);
        }
        if tb.tuning.detect_max_entities != 0 {
            detect.apply_entity_budget(tb.tuning.detect_max_entities);
        }
        detect.apply_correlation(Some(PipelineSpec::correlation()));
        let mut correlate = detect.build_correlator();
        let mut response = ResponseStage::new(
            spec.bhr(),
            tb.block_on_detection,
            tb.detection_block_ttl,
            detect.source(),
        )
        .with_retry(tb.tuning.retry.clone(), tb.seed);
        if let Some(scope) = scope {
            symbolizer.set_scope(scope.clone());
            if let Some(c) = correlate.as_mut() {
                c.set_scope(scope.clone());
            }
            response = response.with_scope(scope.clone());
        }
        Driver {
            symbolize: SymbolizeStage::new(symbolizer),
            filter: FilterStage::new(alertlib::filter::ScanFilter::new(tb.filter.clone())),
            detect,
            correlate,
            response,
            retention: AlertRetention::new(tb.tuning.alert_retention),
            faults: spec.faults.clone().map(FaultInjector::new),
            batch: tb.tuning.batch_size.max(1),
            stats: StreamStats::default(),
            counts: Counts::default(),
            notifications: Vec::new(),
            alerts_buf: Vec::with_capacity(64),
            admitted_buf: Vec::with_capacity(64),
            outcomes_buf: Vec::with_capacity(64),
        }
    }

    /// The whole stream, as `run_inline` drives it. Filling a batch from
    /// the source is one span: `Faults` when an injector sits in the path
    /// (its `push` per record, the record copy included), `Generate`
    /// otherwise. A span per record would cost more than the call.
    pub fn run(mut self, records: &[LogRecord], tr: &mut Tracer) -> (StreamReport, Counts) {
        let mut buf: Vec<LogRecord> = Vec::with_capacity(self.batch);
        let mut faults = self.faults.take();
        let fill_layer = match faults {
            Some(_) => Layer::Faults,
            None => Layer::Generate,
        };
        self.counts.offered = records.len() as u64;
        let mut fill = tr.open(fill_layer);
        for r in records {
            match faults.as_mut() {
                None => buf.push(r.clone()),
                Some(inj) => inj.push(r.clone(), &mut buf),
            }
            if buf.len() >= self.batch {
                tr.close(fill);
                self.process(&buf, tr);
                buf.clear();
                fill = tr.open(fill_layer);
            }
        }
        if let Some(inj) = faults.as_mut() {
            inj.finish(&mut buf);
        }
        tr.close(fill);
        if !buf.is_empty() {
            self.process(&buf, tr);
        }
        self.flush(tr);
        let (mut report, counts) = self.finish();
        report.fault = faults.map(|inj| inj.stats());
        (report, counts)
    }

    /// One record batch through symbolize → filter → detect → correlate →
    /// respond → retention.
    pub fn process(&mut self, records: &[LogRecord], tr: &mut Tracer) {
        let batch = tr.open(Layer::Batch);
        self.stats.records += records.len() as u64;
        self.alerts_buf.clear();
        tr.span(Layer::Symbolize, || {
            self.symbolize.process_batch(records, &mut self.alerts_buf)
        });
        self.stats.alerts += self.alerts_buf.len() as u64;
        self.tail(tr);
        tr.close(batch);
        tr.next_batch();
    }

    fn tail(&mut self, tr: &mut Tracer) {
        self.admitted_buf.clear();
        tr.span(Layer::Filter, || {
            self.filter
                .admit_drain(&mut self.alerts_buf, &mut self.admitted_buf)
        });
        self.stats.admitted += self.admitted_buf.len() as u64;
        self.outcomes_buf.clear();
        tr.span(Layer::Tagger, || {
            self.detect
                .process_drain(&mut self.admitted_buf, &mut self.outcomes_buf)
        });
        self.finish_outcomes(tr);
    }

    fn finish_outcomes(&mut self, tr: &mut Tracer) {
        self.counts.tagger_detections += self
            .outcomes_buf
            .iter()
            .filter(|o| o.detection.is_some())
            .count() as u64;
        if let Some(c) = self.correlate.as_mut() {
            for o in self.outcomes_buf.iter_mut() {
                tr.span(Layer::Correlate, || {
                    c.observe(&o.alert, o.attack_score, &mut o.detection)
                });
            }
        }
        tr.span(Layer::Respond, || {
            self.response
                .respond(None, &self.outcomes_buf, &mut self.notifications)
        });
        tr.span(Layer::Retention, || {
            for o in self.outcomes_buf.drain(..) {
                if o.detection.is_some() {
                    self.stats.detections += 1;
                }
                self.retention.push(o.alert);
            }
        });
    }

    /// End of stream: drain windowed stage state and pending responses.
    pub fn flush(&mut self, tr: &mut Tracer) {
        let flush = tr.open(Layer::Flush);
        self.alerts_buf.clear();
        tr.span(Layer::Symbolize, || {
            self.symbolize.flush(&mut self.alerts_buf)
        });
        self.stats.alerts += self.alerts_buf.len() as u64;
        self.tail(tr);
        self.admitted_buf.clear();
        tr.span(Layer::Filter, || self.filter.flush(&mut self.admitted_buf));
        self.stats.admitted += self.admitted_buf.len() as u64;
        self.outcomes_buf.clear();
        tr.span(Layer::Tagger, || {
            self.detect
                .process_drain(&mut self.admitted_buf, &mut self.outcomes_buf);
            self.detect.flush(&mut self.outcomes_buf);
        });
        self.finish_outcomes(tr);
        tr.span(Layer::Respond, || {
            self.response.flush(&mut self.notifications)
        });
        tr.close(flush);
    }

    /// The report `run_inline` would return, with the boundary counts.
    pub fn finish(self) -> (StreamReport, Counts) {
        let (campaigns, correlated_promotions, correlated_confirmations) = match &self.correlate {
            Some(c) => (c.summaries(), c.promotions(), c.tagger_confirmations()),
            None => (Vec::new(), 0, 0),
        };
        let report = StreamReport {
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
        };
        (report, self.counts)
    }
}

/// Whether two reports carry the same detections and stream counters:
/// the contract between the global and a tenant's symbol scope. Campaign
/// link orientation follows symbol ids, which differ between scopes, so
/// campaigns are compared only within one scope ([`identical`]).
pub fn same_detections(a: &StreamReport, b: &StreamReport) -> bool {
    bench::detection_bytes(a) == bench::detection_bytes(b)
        && a.stats == b.stats
        && a.filter == b.filter
        && a.correlated_promotions == b.correlated_promotions
}

/// Whether two reports of the same scope agree on everything the
/// executors promise to reproduce: the byte-identity gate between the
/// traced driver and the real executor.
pub fn identical(a: &StreamReport, b: &StreamReport) -> bool {
    same_detections(a, b)
        && a.campaigns == b.campaigns
        && a.blocked_sources == b.blocked_sources
        && a.duplicates_suppressed == b.duplicates_suppressed
        && a.blocks_retried == b.blocks_retried
        && a.blocks_abandoned == b.blocks_abandoned
        && a.notifications_abandoned == b.notifications_abandoned
        && a.fault == b.fault
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::small;
    use crate::workload::Workload;

    #[test]
    fn traced_driver_matches_run_inline_at_small_scale() {
        for w in [Workload::Campaign, Workload::FaultStorm] {
            let inputs = small(w, 11);
            let reference = inputs
                .spec
                .builder()
                .build()
                .run_inline(inputs.records.iter().cloned());
            assert!(reference.stats.detections > 0, "{}", w.name());
            let mut tr = Tracer::on();
            let (traced, counts) = Driver::new(&inputs.spec, None).run(&inputs.records, &mut tr);
            assert!(identical(&traced, &reference), "{}", w.name());
            assert_eq!(counts.offered, inputs.records.len() as u64);
            let totals = tr.totals();
            assert!(totals[Layer::Symbolize as usize].calls > 0);
            assert_eq!(
                totals[Layer::Faults as usize].calls > 0,
                w == Workload::FaultStorm,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn identity_gate_sees_a_different_program() {
        let mut inputs = small(Workload::FaultStorm, 11);
        let faulted = inputs
            .spec
            .builder()
            .build()
            .run_inline(inputs.records.iter().cloned());
        inputs.spec.faults = None;
        let (clean, _) = Driver::new(&inputs.spec, None).run(&inputs.records, &mut Tracer::off());
        assert!(!identical(&clean, &faulted));
    }
}
