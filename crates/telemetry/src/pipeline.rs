//! Monitor hub: fans each simulation action out to all registered monitors
//! and collects the produced records, preserving time order.

use simnet::action::Action;
use simnet::engine::{ActionSink, EventCtx};
use simnet::event::EventQueue;
use simnet::intern::SymScope;
use simnet::rng::FxHashMap;

use crate::hostmon::HostMonitor;
use crate::monitor::Monitor;
use crate::record::{LogRecord, RecordKind};
use crate::zeek::{ZeekConfig, ZeekMonitor};

/// Collects records from a set of monitors. Implements
/// [`simnet::engine::ActionSink`], so it plugs directly into the engine.
#[derive(Default)]
pub struct MonitorHub {
    monitors: Vec<Box<dyn Monitor>>,
    records: Vec<LogRecord>,
    counts: FxHashMap<RecordKind, u64>,
    /// Reused staging buffer for monitor output, so the per-action hot
    /// path does not allocate a fresh `Vec` per event.
    scratch: Vec<LogRecord>,
}

impl MonitorHub {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a monitor. Monitors observe every action in registration
    /// order.
    pub fn add_monitor(&mut self, monitor: Box<dyn Monitor>) -> &mut Self {
        self.monitors.push(monitor);
        self
    }

    /// Standard production configuration: Zeek at the border plus the host
    /// monitor fleet, both minting records into `scope`.
    pub fn standard(scope: &SymScope) -> Self {
        let mut hub = Self::new();
        hub.add_monitor(Box::new(ZeekMonitor::new(
            ZeekConfig::default(),
            scope.clone(),
        )));
        hub.add_monitor(Box::new(HostMonitor::new(scope.clone())));
        hub
    }

    /// Build a hub around an existing monitor fleet.
    pub fn with_monitors(monitors: Vec<Box<dyn Monitor>>) -> Self {
        MonitorHub {
            monitors,
            ..Self::default()
        }
    }

    /// Take the monitor fleet out of the hub (e.g. to hand it to a
    /// pipeline builder), discarding collected records.
    pub fn into_monitors(self) -> Vec<Box<dyn Monitor>> {
        self.monitors
    }

    /// All records collected so far.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Take ownership of the collected records, leaving the hub empty.
    pub fn drain(&mut self) -> Vec<LogRecord> {
        std::mem::take(&mut self.records)
    }

    /// Per-stream record counts.
    pub fn count(&self, kind: RecordKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total records collected.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl ActionSink for MonitorHub {
    fn on_action(&mut self, ctx: &EventCtx<'_>, action: &Action, _queue: &mut EventQueue<Action>) {
        self.scratch.clear();
        for m in &mut self.monitors {
            m.observe(ctx, action, &mut self.scratch);
        }
        // Move the staged records into the time-ordered log.
        for r in self.scratch.drain(..) {
            *self.counts.entry(r.kind()).or_insert(0) += 1;
            self.records.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::engine::Engine;
    use simnet::flow::{Flow, FlowId};
    use simnet::time::SimTime;
    use simnet::topology::NcsaTopologyBuilder;

    #[test]
    fn standard_hub_collects_conn_records() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut engine = Engine::new(topo, SimTime::EPOCH);
        for i in 0..5u64 {
            engine.schedule(
                SimTime::from_secs(i),
                Action::Flow(Flow::probe(
                    FlowId(i),
                    SimTime::from_secs(i),
                    "103.102.1.1".parse().unwrap(),
                    format!("141.142.2.{}", i + 1).parse().unwrap(),
                    22,
                )),
            );
        }
        let mut hub = MonitorHub::standard(&SymScope::global());
        engine.run(&mut [&mut hub]);
        assert_eq!(hub.count(RecordKind::Conn), 5);
        assert_eq!(hub.total(), 5);
        let drained = hub.drain();
        assert_eq!(drained.len(), 5);
        assert!(hub.records().is_empty());
    }

    #[test]
    fn monitor_fleet_round_trips_through_hub() {
        let hub = MonitorHub::standard(&SymScope::global());
        let monitors = hub.into_monitors();
        assert_eq!(monitors.len(), 2);
        let hub = MonitorHub::with_monitors(monitors);
        assert_eq!(hub.total(), 0);
        assert!(hub.records().is_empty());
    }

    #[test]
    fn records_are_time_ordered() {
        let topo = NcsaTopologyBuilder::default().build();
        let mut engine = Engine::new(topo, SimTime::EPOCH);
        for i in (0..20u64).rev() {
            engine.schedule(
                SimTime::from_secs(i),
                Action::Flow(Flow::probe(
                    FlowId(i),
                    SimTime::from_secs(i),
                    "9.9.9.9".parse().unwrap(),
                    "141.142.2.1".parse().unwrap(),
                    80,
                )),
            );
        }
        let mut hub = MonitorHub::standard(&SymScope::global());
        engine.run(&mut [&mut hub]);
        let times: Vec<_> = hub.records().iter().map(|r| r.ts()).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }
}
