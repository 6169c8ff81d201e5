//! The ATTACKTAGGER testbed orchestrator.
//!
//! Wires the whole of Fig. 4 together: an NCSA-like topology with the
//! honeynet /24 embedded in production, border routing through the shared
//! Black Hole Router filter plus the honeynet egress firewall, the monitor
//! fleet, and the in-line detection pipeline with BHR response.

use bhr::api::BhrHandle;
use bhr::policy::BhrFilter;
use factorgraph::chain::ChainModel;
use honeynet::deploy::HoneynetDeployment;
use honeynet::isolation::EgressFirewall;
use simnet::action::Action;
use simnet::engine::Engine;
use simnet::flow::Flow;
use simnet::intern::SymScope;
use simnet::router::{RouteDecision, RouteFilter};
use simnet::time::SimTime;
use simnet::topology::{NcsaTopologyBuilder, Topology};
use telemetry::hostmon::HostMonitor;
use telemetry::monitor::Monitor;
use telemetry::zeek::ZeekMonitor;

use crate::config::TestbedConfig;
use crate::report::RunReport;
use crate::stage::builder::PipelineBuilder;

/// Chain of border filters: the first `Drop` wins.
pub struct FilterChain<'a> {
    filters: Vec<&'a mut dyn RouteFilter>,
}

impl<'a> FilterChain<'a> {
    pub fn new(filters: Vec<&'a mut dyn RouteFilter>) -> Self {
        FilterChain { filters }
    }
}

impl RouteFilter for FilterChain<'_> {
    fn check(&mut self, t: SimTime, flow: &Flow) -> RouteDecision {
        for f in &mut self.filters {
            if let RouteDecision::Drop(reason) = f.check(t, flow) {
                return RouteDecision::Drop(reason);
            }
        }
        RouteDecision::Forward
    }
}

/// The testbed.
pub struct Testbed {
    cfg: TestbedConfig,
    engine: Engine,
    deployment: HoneynetDeployment,
    bhr: BhrHandle,
    model: ChainModel,
}

impl Testbed {
    /// Build the testbed: topology, honeynet, shared BHR. Uses the built-in
    /// toy-trained detector model; replace it with
    /// [`Testbed::set_model`] for corpus-trained detection.
    pub fn new(cfg: TestbedConfig) -> Testbed {
        let mut topo = NcsaTopologyBuilder::default().build();
        let deployment = HoneynetDeployment::install(&mut topo, &cfg.deploy);
        let engine = Engine::new(topo, cfg.start);
        Testbed {
            cfg,
            engine,
            deployment,
            bhr: BhrHandle::new(),
            model: detect::train::toy_training_model(),
        }
    }

    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    pub fn topology(&self) -> &Topology {
        self.engine.topology()
    }

    pub fn deployment_mut(&mut self) -> &mut HoneynetDeployment {
        &mut self.deployment
    }

    pub fn deployment(&self) -> &HoneynetDeployment {
        &self.deployment
    }

    pub fn bhr(&self) -> &BhrHandle {
        &self.bhr
    }

    /// Install a (corpus-)trained detector model.
    pub fn set_model(&mut self, model: ChainModel) {
        self.model = model;
    }

    /// Schedule actions (from scenario scripts or generators).
    pub fn schedule(&mut self, actions: impl IntoIterator<Item = (SimTime, Action)>) {
        for (t, a) in actions {
            self.engine.schedule(t, a);
        }
    }

    /// Run everything scheduled so far through the full pipeline and
    /// return the report. Can be called repeatedly (state persists:
    /// installed blocks stay installed).
    pub fn run(&mut self) -> RunReport {
        let monitors: Vec<Box<dyn Monitor>> = vec![
            Box::new(ZeekMonitor::new(self.cfg.zeek.clone(), SymScope::global())),
            Box::new(HostMonitor::new(SymScope::global())),
            Box::new(honeynet::isolation::IsolationMonitor::new()),
        ];
        let mut sink = PipelineBuilder::from_config(&self.cfg, self.model.clone())
            .bhr(self.bhr.clone())
            .build_sink(monitors);

        let mut bhr_filter = BhrFilter::new(self.bhr.clone(), self.cfg.auto_block.clone());
        let mut egress = EgressFirewall::new(vec![
            self.deployment.cidr(),
            "10.77.0.0/16".parse().expect("static overlay CIDR"),
        ]);
        // Monitoring/log export to the management net stays allowed.
        egress.allow("192.168.100.0/24".parse().expect("static"), None);
        {
            let mut chain =
                FilterChain::new(vec![&mut bhr_filter as &mut dyn RouteFilter, &mut egress]);
            self.engine.run_filtered(&mut chain, &mut [&mut sink], None);
        }
        let mut report = sink.finish();
        report.router = self.engine.router_stats();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::flow::FlowId;
    use simnet::router::DropReason;
    use simnet::time::SimDuration;

    #[test]
    fn filter_chain_first_drop_wins() {
        struct DropAll;
        impl RouteFilter for DropAll {
            fn check(&mut self, _t: SimTime, _f: &Flow) -> RouteDecision {
                RouteDecision::Drop(DropReason::Policy { rule: "all".into() })
            }
        }
        let mut allow = simnet::router::ForwardAll;
        let mut deny = DropAll;
        let mut chain = FilterChain::new(vec![&mut allow, &mut deny]);
        let f = Flow::probe(
            FlowId(1),
            SimTime::EPOCH,
            "1.1.1.1".parse().unwrap(),
            "141.142.1.1".parse().unwrap(),
            22,
        );
        assert!(matches!(
            chain.check(SimTime::EPOCH, &f),
            RouteDecision::Drop(_)
        ));
    }

    #[test]
    fn testbed_builds_and_runs_empty() {
        let mut tb = Testbed::new(TestbedConfig::default());
        let report = tb.run();
        assert_eq!(report.actions, 0);
        assert_eq!(tb.deployment().entry_addrs().len(), 16);
    }

    #[test]
    fn honeynet_egress_is_contained_and_alerted() {
        let mut tb = Testbed::new(TestbedConfig::default());
        let entry = tb.deployment().entry_addrs()[0];
        let t = tb.config().start + SimDuration::from_secs(10);
        // Something inside the honeynet calls out.
        tb.schedule(vec![(
            t,
            Action::Flow(Flow::probe(
                FlowId(7),
                t,
                entry,
                "194.145.22.33".parse().unwrap(),
                443,
            )),
        )]);
        let report = tb.run();
        assert_eq!(
            report.router.dropped, 1,
            "egress containment must drop the flow"
        );
        // The isolation monitor turned the drop into an alert.
        assert!(report.stats.alerts >= 1);
    }

    #[test]
    fn run_is_repeatable_with_persistent_blocks() {
        let mut tb = Testbed::new(TestbedConfig::default());
        let t0 = tb.config().start;
        tb.bhr()
            .block(t0, "103.102.1.1".parse().unwrap(), "manual", None);
        let t = t0 + SimDuration::from_secs(5);
        tb.schedule(vec![(
            t,
            Action::Flow(Flow::probe(
                FlowId(1),
                t,
                "103.102.1.1".parse().unwrap(),
                "141.142.2.1".parse().unwrap(),
                22,
            )),
        )]);
        let r1 = tb.run();
        assert_eq!(r1.router.dropped, 1, "pre-installed block applies");
        // Second run: block persists.
        let t2 = t + SimDuration::from_secs(5);
        tb.schedule(vec![(
            t2,
            Action::Flow(Flow::probe(
                FlowId(2),
                t2,
                "103.102.1.1".parse().unwrap(),
                "141.142.2.1".parse().unwrap(),
                22,
            )),
        )]);
        let r2 = tb.run();
        assert_eq!(
            r2.router.dropped, 2,
            "router stats accumulate; block persisted"
        );
    }
}
