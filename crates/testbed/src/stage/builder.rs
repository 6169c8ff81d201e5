//! Assembling the Fig. 4 stages.
//!
//! [`PipelineBuilder`] collects the Fig. 4 components plus the tee points
//! (alert retention, response wiring) and batching knobs, then produces
//! either a [`BuiltPipeline`] for record-stream executors or a
//! [`PipelineSink`] for the closed-loop
//! simulation engine. Both paths share the exact same stage objects — the
//! builder is the single place the pipeline shape is defined.

use alertlib::filter::ScanFilter;
use alertlib::symbolize::Symbolizer;
use bhr::api::BhrHandle;
use detect::attack_tagger::AttackTagger;
use detect::correlate::{CampaignCorrelator, CorrelationPolicy};
use detect::rules::RuleBasedDetector;
use factorgraph::chain::ChainModel;
use scenario::adapt::FeedbackTap;
use scenario::faults::{FaultInjector, FaultPlan};
use simnet::intern::SymScope;
use simnet::time::{SimDuration, SimTime};
use telemetry::monitor::Monitor;
use telemetry::record::LogRecord;

use crate::config::{ExecutorKind, PipelineTuning, TestbedConfig};
use crate::pipeline::PipelineSink;
use crate::stage::adapters::{
    DetectorStage, FilterStage, NotifyBackend, ResponseStage, SymbolizeStage,
};
use crate::stage::executor::{self, StreamReport};
use crate::stage::AlertRetention;

/// Builder for the Fig. 4 stage chain.
pub struct PipelineBuilder {
    symbolizer: Symbolizer,
    filter: ScanFilter,
    detector: DetectorStage,
    bhr: BhrHandle,
    block_on_detection: bool,
    detection_block_ttl: Option<SimDuration>,
    tuning: PipelineTuning,
    seed: u64,
    faults: Option<FaultPlan>,
    blackouts: Vec<(SimTime, SimTime)>,
    notify_backend: Option<Box<dyn NotifyBackend>>,
    correlation: Option<CorrelationPolicy>,
    block_feedback: Option<FeedbackTap>,
    scope: Option<SymScope>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineBuilder {
    /// A pipeline with default stages: default symbolizer and scan filter,
    /// the toy-trained factor-graph detector, a private BHR, and no
    /// detection-triggered blocking.
    pub fn new() -> Self {
        PipelineBuilder {
            symbolizer: Symbolizer::with_defaults(),
            filter: ScanFilter::default(),
            detector: DetectorStage::tagger(AttackTagger::new(
                detect::train::toy_training_model(),
                detect::TaggerConfig::default(),
            )),
            bhr: BhrHandle::new(),
            block_on_detection: false,
            detection_block_ttl: None,
            tuning: PipelineTuning::default(),
            seed: TestbedConfig::default().seed,
            faults: None,
            blackouts: Vec::new(),
            notify_backend: None,
            correlation: None,
            block_feedback: None,
            scope: None,
        }
    }

    /// Configure every stage from a [`TestbedConfig`] plus a trained
    /// detector model (the testbed orchestrator's path). A
    /// [`PipelineTuning::temporal`] override, when set, replaces the
    /// tagger's per-entity temporal policy at [`PipelineBuilder::build`]
    /// — the stage-adapter end of the `TestbedConfig::tuning` temporal
    /// knobs.
    pub fn from_config(cfg: &TestbedConfig, model: ChainModel) -> Self {
        let mut symbolizer_cfg = cfg.symbolizer.clone();
        for c2 in &cfg.c2_feed {
            symbolizer_cfg.c2_addresses.insert(*c2);
        }
        PipelineBuilder {
            symbolizer: Symbolizer::new(symbolizer_cfg),
            filter: ScanFilter::new(cfg.filter.clone()),
            detector: DetectorStage::tagger(AttackTagger::new(model, cfg.tagger.clone())),
            bhr: BhrHandle::new(),
            block_on_detection: cfg.block_on_detection,
            detection_block_ttl: cfg.detection_block_ttl,
            tuning: cfg.tuning.clone(),
            seed: cfg.seed,
            faults: None,
            blackouts: Vec::new(),
            notify_backend: None,
            correlation: None,
            block_feedback: None,
            scope: None,
        }
    }

    /// Override the top-level RNG seed (defaults to
    /// [`TestbedConfig::seed`]'s default, or the config's value when built
    /// via [`PipelineBuilder::from_config`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The RNG every scenario generator feeding this pipeline should use:
    /// seeded from the single top-level seed, so workload generation and
    /// pipeline assembly are reproducible together.
    pub fn scenario_rng(&self) -> simnet::rng::SimRng {
        simnet::rng::SimRng::seed(self.seed)
    }

    pub fn symbolizer(mut self, symbolizer: Symbolizer) -> Self {
        self.symbolizer = symbolizer;
        self
    }

    /// Mint and resolve the pipeline's symbols in an explicit
    /// [`SymScope`] instead of the process-global default. At
    /// [`build`](PipelineBuilder::build) the symbolizer, the campaign
    /// correlator's report rendering and the response stage's
    /// notification text are all rebound to the scope — the wiring a
    /// per-tenant service pipeline needs so its symbol universe lives
    /// (and dies) with the tenant.
    pub fn scope(mut self, scope: SymScope) -> Self {
        self.scope = Some(scope);
        self
    }

    pub fn filter(mut self, filter: ScanFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Use the factor-graph detector.
    pub fn tagger(mut self, tagger: AttackTagger) -> Self {
        self.detector = DetectorStage::tagger(tagger);
        self
    }

    /// Use the rule-based baseline as the detection stage.
    pub fn rules_detector(mut self, rules: RuleBasedDetector) -> Self {
        self.detector = DetectorStage::rules(rules);
        self
    }

    /// Use the critical-alert-only baseline as the detection stage.
    pub fn critical_detector(mut self) -> Self {
        self.detector = DetectorStage::critical();
        self
    }

    /// Install any prepared detection stage.
    pub fn detector(mut self, detector: DetectorStage) -> Self {
        self.detector = detector;
        self
    }

    /// Share a BHR handle (e.g. the one the border filter consults).
    pub fn bhr(mut self, bhr: BhrHandle) -> Self {
        self.bhr = bhr;
        self
    }

    /// Whether detections trigger BHR blocks, and with what TTL.
    pub fn block_on_detection(mut self, block: bool, ttl: Option<SimDuration>) -> Self {
        self.block_on_detection = block;
        self.detection_block_ttl = ttl;
        self
    }

    pub fn tuning(mut self, tuning: PipelineTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Override the detector's per-entity temporal policy (evidence decay,
    /// session timeout, gap observations) — recorded in the tuning and
    /// applied to the tagger stage at [`PipelineBuilder::build`].
    pub fn temporal(mut self, temporal: detect::attack_tagger::TemporalPolicy) -> Self {
        self.tuning.temporal = Some(temporal);
        self
    }

    /// Cap the detector's resident per-entity state (`0` = unbounded) —
    /// recorded in the tuning and applied to the tagger stage at
    /// [`PipelineBuilder::build`]. Eviction is detection-neutral: only
    /// session-timeout-expired entities are swept, so a bounded run's
    /// detections stay byte-identical to the unbounded baseline (see
    /// [`TaggerConfig::max_entities`](detect::TaggerConfig::max_entities)).
    pub fn detect_max_entities(mut self, max_entities: usize) -> Self {
        self.tuning.detect_max_entities = max_entities;
        self
    }

    /// Enable cross-entity campaign correlation with the given policy,
    /// overriding whatever the detector's [`TaggerConfig`] carries. The
    /// correlator runs on the merged outcome stream in every executor, so
    /// enabling it preserves cross-executor byte-identity.
    ///
    /// [`TaggerConfig`]: detect::TaggerConfig
    pub fn correlation(mut self, policy: CorrelationPolicy) -> Self {
        self.correlation = Some(policy);
        self
    }

    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.tuning.executor = executor;
        self
    }

    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.tuning.batch_size = batch_size.max(1);
        self
    }

    pub fn stage_capacity(mut self, capacity: usize) -> Self {
        self.tuning.stage_capacity = capacity.max(1);
        self
    }

    pub fn detect_shards(mut self, shards: usize) -> Self {
        self.tuning.detect_shards = shards;
        self
    }

    /// Cap on retained post-filter alerts (0 disables retention).
    pub fn alert_retention(mut self, cap: usize) -> Self {
        self.tuning.alert_retention = cap;
        self
    }

    /// Inject telemetry faults (loss, blackouts, duplication, reordering,
    /// clock skew) between the record source and symbolization. The plan's
    /// own seed keeps the faulted stream identical across executors.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Declare telemetry outage windows the *operator knows about*
    /// (scheduled maintenance, an acknowledged sensor crash). The detector
    /// subtracts these spans from inter-alert gaps so a blackout is not
    /// misread as attacker silence. Deliberately separate from
    /// [`PipelineBuilder::faults`]: an injected blackout is only also
    /// *known* if the caller passes it here (typically via
    /// [`FaultPlan::blackout_spans`]).
    pub fn known_blackouts(mut self, windows: Vec<(SimTime, SimTime)>) -> Self {
        self.blackouts = windows;
        self
    }

    /// Route operator notifications through a fallible delivery backend
    /// (retried under the tuning's [`RetryPolicy`]); default delivery is
    /// direct and infallible.
    ///
    /// [`RetryPolicy`]: bhr::retry::RetryPolicy
    pub fn notify_backend(mut self, backend: impl NotifyBackend + 'static) -> Self {
        self.notify_backend = Some(Box::new(backend));
        self
    }

    /// Publish every block decision into `tap` — the detect→respond→adapt
    /// feedback channel a closed-loop adaptive attacker
    /// ([`scenario::adapt::ReactiveGenerator`]) observes. A pure side
    /// channel: detections stay byte-identical with or without the tap.
    pub fn block_feedback(mut self, tap: FeedbackTap) -> Self {
        self.block_feedback = Some(tap);
        self
    }

    /// Assemble the record-stream pipeline.
    pub fn build(mut self) -> BuiltPipeline {
        if let Some(temporal) = &self.tuning.temporal {
            self.detector.apply_temporal(temporal);
        }
        if self.tuning.detect_max_entities != 0 {
            self.detector
                .apply_entity_budget(self.tuning.detect_max_entities);
        }
        if !self.blackouts.is_empty() {
            self.detector.apply_blackouts(self.blackouts);
        }
        if let Some(policy) = self.correlation {
            self.detector.apply_correlation(Some(policy));
        }
        let mut correlate = self.detector.build_correlator();
        let source = self.detector.source();
        let mut response = ResponseStage::new(
            self.bhr,
            self.block_on_detection,
            self.detection_block_ttl,
            source,
        )
        .with_retry(self.tuning.retry.clone(), self.seed);
        if let Some(scope) = &self.scope {
            self.symbolizer.set_scope(scope.clone());
            if let Some(c) = correlate.as_mut() {
                c.set_scope(scope.clone());
            }
            response = response.with_scope(scope.clone());
        }
        if let Some(backend) = self.notify_backend {
            response = response.with_notify_backend(backend);
        }
        if let Some(tap) = self.block_feedback {
            response = response.with_block_feedback(tap);
        }
        BuiltPipeline {
            symbolize: SymbolizeStage::new(self.symbolizer),
            filter: FilterStage::new(self.filter),
            detect: self.detector,
            correlate,
            response,
            retention: AlertRetention::new(self.tuning.alert_retention),
            tuning: self.tuning,
            faults: self.faults.map(FaultInjector::new),
        }
    }

    /// Assemble the closed-loop simulation sink around a monitor fleet.
    pub fn build_sink(self, monitors: Vec<Box<dyn Monitor>>) -> PipelineSink {
        PipelineSink::from_built(monitors, self.build())
    }
}

/// An assembled Fig. 4 record pipeline, ready to be driven by any
/// executor. The stage chain and its tee points are fixed; only the
/// execution strategy varies, and every strategy produces an identical
/// [`StreamReport`].
pub struct BuiltPipeline {
    pub(crate) symbolize: SymbolizeStage,
    pub(crate) filter: FilterStage,
    pub(crate) detect: DetectorStage,
    pub(crate) correlate: Option<CampaignCorrelator>,
    pub(crate) response: ResponseStage,
    pub(crate) retention: AlertRetention,
    pub(crate) tuning: PipelineTuning,
    pub(crate) faults: Option<FaultInjector>,
}

impl BuiltPipeline {
    /// Build directly from live stage components (compatibility path for
    /// callers that already hold them).
    pub fn from_stages(
        symbolizer: Symbolizer,
        filter: ScanFilter,
        tagger: AttackTagger,
        tuning: PipelineTuning,
    ) -> Self {
        let detect = DetectorStage::tagger(tagger);
        let correlate = detect.build_correlator();
        BuiltPipeline {
            symbolize: SymbolizeStage::new(symbolizer),
            filter: FilterStage::new(filter),
            detect,
            correlate,
            response: ResponseStage::new(BhrHandle::new(), false, None, "attack-tagger"),
            retention: AlertRetention::new(tuning.alert_retention),
            tuning,
            faults: None,
        }
    }

    pub fn tuning(&self) -> &PipelineTuning {
        &self.tuning
    }

    /// Drive the pipeline with the executor selected in the tuning.
    pub fn run<I>(self, records: I) -> StreamReport
    where
        I: IntoIterator<Item = LogRecord> + Send,
    {
        match self.tuning.executor {
            ExecutorKind::Inline => self.run_inline(records),
            ExecutorKind::Threaded => self.run_threaded(records),
            ExecutorKind::Sharded => self.run_sharded(records),
        }
    }

    /// Sequential execution in the calling thread.
    pub fn run_inline<I>(self, records: I) -> StreamReport
    where
        I: IntoIterator<Item = LogRecord>,
    {
        executor::run_inline(self, records)
    }

    /// One thread per stage, batched bounded channels.
    pub fn run_threaded<I>(self, records: I) -> StreamReport
    where
        I: IntoIterator<Item = LogRecord> + Send,
    {
        executor::run_threaded(self, records)
    }

    /// Threaded, with the detect stage sharded by entity hash across the
    /// rayon worker pool.
    pub fn run_sharded<I>(self, records: I) -> StreamReport
    where
        I: IntoIterator<Item = LogRecord> + Send,
    {
        executor::run_sharded(self, records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_knobs_reach_built_pipeline() {
        let p = PipelineBuilder::new()
            .batch_size(64)
            .stage_capacity(512)
            .detect_shards(3)
            .alert_retention(7)
            .detect_max_entities(100)
            .executor(ExecutorKind::Sharded)
            .build();
        assert_eq!(p.tuning().batch_size, 64);
        assert_eq!(p.tuning().stage_capacity, 512);
        assert_eq!(p.tuning().shards(), 3);
        assert_eq!(p.retention.cap(), 7);
        assert_eq!(p.tuning().detect_max_entities, 100);
        assert_eq!(p.tuning().executor, ExecutorKind::Sharded);
    }

    #[test]
    fn seed_plumbs_from_config_into_scenario_rng() {
        let cfg = TestbedConfig {
            seed: 0xFEED,
            ..TestbedConfig::default()
        };
        let b = PipelineBuilder::from_config(&cfg, detect::train::toy_training_model());
        let mut r1 = b.scenario_rng();
        let mut r2 = simnet::rng::SimRng::seed(0xFEED);
        assert_eq!(r1.range_u64(0, 1_000), r2.range_u64(0, 1_000));
        // The builder override wins.
        let mut r3 = PipelineBuilder::new().seed(7).scenario_rng();
        let mut r4 = simnet::rng::SimRng::seed(7);
        assert_eq!(r3.range_u64(0, 1_000), r4.range_u64(0, 1_000));
    }

    #[test]
    fn from_config_carries_c2_feed_and_flags() {
        let mut cfg = TestbedConfig::default();
        cfg.c2_feed.push("194.145.22.33".parse().unwrap());
        cfg.block_on_detection = false;
        let b = PipelineBuilder::from_config(&cfg, detect::train::toy_training_model());
        assert!(b
            .symbolizer
            .config()
            .c2_addresses
            .contains(&"194.145.22.33".parse().unwrap()));
        assert!(!b.block_on_detection);
        assert_eq!(b.detector.source(), "attack-tagger");
    }
}
