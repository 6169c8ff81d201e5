//! The three workloads: their generated inputs and the pipeline
//! configuration the program runs them with.
//!
//! Every input is derived from the `--seed` argument; the program only
//! ever sees the generated records. Why each workload exists is recorded
//! in this directory's README.

use bhr::api::BhrHandle;
use bhr::retry::FlakyBackend;
use detect::correlate::CorrelationPolicy;
use factorgraph::chain::ChainModel;
use scenario::faults::{ClockSkewConfig, FaultPlan};
use scenario::mutate::{generate_campaign, CampaignConfig, CampaignGroundTruth, MutationConfig};
use scenario::stream::RecordStreamConfig;
use simnet::rng::SimRng;
use simnet::time::SimDuration;
use telemetry::record::LogRecord;
use testbed::stage::PipelineBuilder;
use testbed::TestbedConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    TenantRestart,
    FaultStorm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Campaign,
        Workload::TenantRestart,
        Workload::FaultStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::TenantRestart => "tenant_restart",
            Workload::FaultStorm => "fault_storm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn campaign(self) -> CampaignConfig {
        match self {
            Workload::Campaign | Workload::TenantRestart => campaign_config(),
            Workload::FaultStorm => storm_config(),
        }
    }
}

/// Retained post-filter alerts per pipeline (reporting tee only).
const RETENTION: usize = 1_000;
/// Transient failure probability of the fault storm's block backend.
const BLOCK_FAIL_PROB: f64 = 0.30;

/// The campaign of BENCH_3/BENCH_10: 240 mutated sessions at dilation 2
/// over a 1M-record mostly-benign background.
fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        sessions: 240,
        horizon: SimDuration::from_days(3),
        mutation: MutationConfig {
            dilation: 2.0,
            ..MutationConfig::default()
        },
        background: Some(RecordStreamConfig {
            scan_records: 400_000,
            benign_flows: 150_000,
            exec_records: 450_000,
            users: 4_000,
            horizon: SimDuration::from_days(3),
            indicative_exec_fraction: 0.02,
            ..RecordStreamConfig::default()
        }),
        ..CampaignConfig::default()
    }
}

/// The same campaign over an alert-heavy background: 20k users of uniform
/// activity, 10% attack-indicative commands.
fn storm_config() -> CampaignConfig {
    let mut cfg = campaign_config();
    let bg = cfg.background.as_mut().expect("campaign has a background");
    bg.users = 20_000;
    bg.zipf_exponent = 0.0;
    bg.indicative_exec_fraction = 0.10;
    cfg
}

/// Degraded telemetry: 2% loss, 5% duplication, 64-record reordering,
/// 30 s ± 2 s per-host clock skew.
fn storm_faults(seed: u64) -> FaultPlan {
    FaultPlan::clean(seed)
        .named("fault-storm")
        .with_loss(0.02)
        .with_duplication(0.05)
        .with_reorder(64)
        .with_clock(ClockSkewConfig {
            max_skew: SimDuration::from_secs(30),
            jitter: SimDuration::from_secs(2),
        })
}

/// Independent sub-seeds of the workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    SimRng::seed(seed ^ salt).range_u64(0, u64::MAX)
}

/// Generated inputs of one workload.
pub struct Inputs {
    pub records: Vec<LogRecord>,
    pub truth: CampaignGroundTruth,
    pub spec: PipelineSpec,
}

impl Inputs {
    /// Generate the records and train the detector model: everything a
    /// run needs before its first record is processed.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        Inputs::from_campaign(workload, seed, &workload.campaign())
    }

    fn from_campaign(workload: Workload, seed: u64, campaign: &CampaignConfig) -> Inputs {
        let generated = generate_campaign(campaign, &mut SimRng::seed(seed));
        let mut tb = TestbedConfig::default();
        tb.tuning.alert_retention = RETENTION;
        let mut spec = PipelineSpec {
            tb,
            model: bench::standard_model(),
            faults: None,
            flaky_seed: None,
        };
        if workload == Workload::FaultStorm {
            let mut temporal = spec.tb.tagger.temporal.clone();
            temporal.dedup_window = Some(SimDuration::from_mins(5));
            spec.tb.tuning.temporal = Some(temporal);
            spec.faults = Some(storm_faults(derive(seed, 0xFA_017)));
            spec.flaky_seed = Some(derive(seed, 0xB10C_FA11));
        }
        Inputs {
            records: generated.records,
            truth: generated.truth,
            spec,
        }
    }
}

/// How the program is configured for a workload. [`PipelineSpec::builder`]
/// is the program's own assembly; the traced driver rebuilds the same
/// stages from this spec (see `driver.rs`).
pub struct PipelineSpec {
    pub tb: TestbedConfig,
    pub model: ChainModel,
    pub faults: Option<FaultPlan>,
    /// Seed of a 30%-failing block backend, when blocks go through one.
    pub flaky_seed: Option<u64>,
}

impl PipelineSpec {
    pub fn correlation() -> CorrelationPolicy {
        CorrelationPolicy::default()
    }

    /// A fresh BHR handle: the flaky backend restarts its failure stream
    /// from its seed, so every pass sees the same failures.
    pub fn bhr(&self) -> BhrHandle {
        match self.flaky_seed {
            Some(seed) => BhrHandle::with_backend(FlakyBackend::new(BLOCK_FAIL_PROB, seed)),
            None => BhrHandle::new(),
        }
    }

    pub fn builder(&self) -> PipelineBuilder {
        let mut b = PipelineBuilder::from_config(&self.tb, self.model.clone())
            .correlation(Self::correlation())
            .bhr(self.bhr());
        if let Some(plan) = &self.faults {
            b = b.faults(plan.clone());
        }
        b
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// The workload at a small fraction of its size, for tests.
    pub fn small(workload: Workload, seed: u64) -> Inputs {
        let mut cfg = workload.campaign();
        cfg.sessions = 24;
        let bg = cfg.background.as_mut().expect("campaign has a background");
        bg.scan_records /= 50;
        bg.benign_flows /= 50;
        bg.exec_records /= 50;
        bg.users /= 10;
        Inputs::from_campaign(workload, seed, &cfg)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = small(Workload::FaultStorm, 7);
        let b = small(Workload::FaultStorm, 7);
        let c = small(Workload::FaultStorm, 8);
        assert_eq!(a.records, b.records);
        assert_eq!(a.spec.faults, b.spec.faults);
        assert_ne!(a.records, c.records);
        assert_ne!(a.spec.flaky_seed, c.spec.flaky_seed);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::metrics::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("inline"), None);
    }
}
