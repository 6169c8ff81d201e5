//! Testbed configuration.

use std::net::Ipv4Addr;

use alertlib::filter::FilterConfig;
use alertlib::symbolize::SymbolizerConfig;
use bhr::policy::AutoBlockPolicy;
use bhr::retry::RetryPolicy;
use detect::attack_tagger::{TaggerConfig, TemporalPolicy};
use honeynet::deploy::DeployConfig;
use simnet::time::{SimDuration, SimTime};
use telemetry::zeek::ZeekConfig;

/// Which executor drives an assembled record pipeline
/// (see [`crate::stage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// All stages run in the caller's thread, batch by batch. The
    /// deterministic reference; also what the closed-loop simulation sink
    /// uses.
    Inline,
    /// One thread per stage, bounded channels carrying record/alert
    /// batches between them.
    Threaded,
    /// Like [`ExecutorKind::Threaded`], but the detect stage is
    /// partitioned by entity hash into shards driven on the rayon worker
    /// pool.
    Sharded,
}

/// Batching / capacity / sharding knobs shared by every executor.
///
/// Defaults: `batch_size` 256 (large enough to amortize channel costs,
/// small enough to keep stages busy), `stage_capacity` 4096 in-flight
/// items per inter-stage channel (back-pressure bound; the pre-redesign
/// pipeline hardcoded this as `STAGE_CAPACITY`), `detect_shards` 0 =
/// one shard per available core, `alert_retention` 10 000 retained
/// post-filter alerts (drop-oldest beyond that; see
/// [`crate::stage::AlertRetention`]).
#[derive(Debug, Clone)]
pub struct PipelineTuning {
    /// Executor used by [`crate::stage::BuiltPipeline::run`].
    pub executor: ExecutorKind,
    /// Records/alerts moved between stages per channel send.
    pub batch_size: usize,
    /// Maximum in-flight items buffered between two stages (rounded up to
    /// whole batches, minimum one batch).
    pub stage_capacity: usize,
    /// Detect-stage shard count for [`ExecutorKind::Sharded`];
    /// `0` = one shard per available core.
    pub detect_shards: usize,
    /// Cap on retained post-filter alerts (drop-oldest, counted);
    /// `0` disables retention entirely.
    pub alert_retention: usize,
    /// Override of the detector's per-entity temporal policy (evidence
    /// decay half-life, session timeout, gap observations). `None` keeps
    /// whatever the [`TaggerConfig`] carries — set it here to tune the
    /// temporal behaviour of an assembled pipeline without rebuilding the
    /// detector config (the knob the dilation sweeps turn).
    pub temporal: Option<TemporalPolicy>,
    /// Per-entity detector state budget applied to the tagger at build
    /// time (see [`TaggerConfig::max_entities`]); `0` (the default) keeps
    /// whatever the detector config carries. The service-mode knob: a
    /// long-lived multi-tenant deployment caps resident per-entity state
    /// here without rebuilding the detector config.
    pub detect_max_entities: usize,
    /// Retry schedule for failed response deliveries (block RPCs and
    /// operator notifications): exponential backoff + jitter, attempt
    /// cap, per-block deadline and a circuit breaker. Irrelevant — and
    /// behaviourally invisible — while the BHR backend is the default
    /// always-successful one.
    pub retry: RetryPolicy,
}

impl Default for PipelineTuning {
    fn default() -> Self {
        PipelineTuning {
            executor: ExecutorKind::Threaded,
            batch_size: 256,
            stage_capacity: 4_096,
            detect_shards: 0,
            alert_retention: 10_000,
            temporal: None,
            detect_max_entities: 0,
            retry: RetryPolicy::default(),
        }
    }
}

impl PipelineTuning {
    /// Effective shard count.
    pub fn shards(&self) -> usize {
        if self.detect_shards == 0 {
            rayon::current_num_threads().max(1)
        } else {
            self.detect_shards
        }
    }

    /// Channel depth in batches implied by `stage_capacity`.
    pub fn channel_batches(&self) -> usize {
        (self.stage_capacity / self.batch_size.max(1)).max(1)
    }
}

/// Full configuration of the ATTACKTAGGER testbed (Fig. 4).
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Simulation start time.
    pub start: SimTime,
    /// Top-level RNG seed. Every stochastic subsystem of a run — campaign
    /// generation, background streams, scenario scripts — derives its
    /// stream from this one value (via [`PipelineBuilder::scenario_rng`]
    /// and [`crate::eval::run_campaign`]), so an experiment is reproducible
    /// end-to-end from this single field.
    ///
    /// [`PipelineBuilder::scenario_rng`]: crate::stage::PipelineBuilder::scenario_rng
    pub seed: u64,
    /// Honeynet deployment parameters (§IV-C).
    pub deploy: DeployConfig,
    /// Zeek policy tuning.
    pub zeek: ZeekConfig,
    /// Symbolization rules.
    pub symbolizer: SymbolizerConfig,
    /// Repeated-scan filter.
    pub filter: FilterConfig,
    /// Factor-graph detector decision config.
    pub tagger: TaggerConfig,
    /// Mass-scanner auto-block policy (None disables).
    pub auto_block: Option<AutoBlockPolicy>,
    /// Whether detections trigger a BHR block of the attacker source.
    pub block_on_detection: bool,
    /// TTL for detection-triggered blocks.
    pub detection_block_ttl: Option<SimDuration>,
    /// Known C2 endpoints fed to the symbolizer (threat intel).
    pub c2_feed: Vec<Ipv4Addr>,
    /// Pipeline batching / capacity / sharding knobs.
    pub tuning: PipelineTuning,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            start: SimTime::from_date(2024, 10, 1),
            seed: 0xA77AC4ED,
            deploy: DeployConfig::default(),
            zeek: ZeekConfig::default(),
            symbolizer: SymbolizerConfig::default(),
            filter: FilterConfig::default(),
            tagger: TaggerConfig::default(),
            auto_block: Some(AutoBlockPolicy::default()),
            block_on_detection: true,
            detection_block_ttl: None,
            c2_feed: Vec::new(),
            tuning: PipelineTuning::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let cfg = TestbedConfig::default();
        assert!(cfg.block_on_detection);
        assert_eq!(cfg.seed, 0xA77AC4ED);
        assert_eq!(cfg.deploy.entry_points, 16);
        assert!(cfg.auto_block.is_some());
        assert_eq!(cfg.tuning.batch_size, 256);
        assert_eq!(cfg.tuning.stage_capacity, 4_096);
        assert!(cfg.tuning.shards() >= 1);
        assert_eq!(cfg.tuning.channel_batches(), 16);
    }

    #[test]
    fn tuning_derived_quantities_clamp() {
        let mut t = PipelineTuning {
            batch_size: 10_000,
            stage_capacity: 100,
            detect_shards: 3,
            ..PipelineTuning::default()
        };
        assert_eq!(t.channel_batches(), 1, "capacity below one batch clamps");
        assert_eq!(t.shards(), 3);
        t.detect_shards = 0;
        assert_eq!(t.shards(), rayon::current_num_threads().max(1));
    }
}
