//! # simnet — discrete-event network & cluster substrate
//!
//! The simulation substrate underneath the AttackTagger testbed
//! reproduction (SC'24, *Security Testbed for Preempting Attacks against
//! Supercomputing Infrastructure*). The paper deploys on NCSA's production
//! network; this crate provides the synthetic equivalent: a deterministic
//! discrete-event simulator of an HPC center's network — address space,
//! topology, flows, border routing — over which the honeypot, monitors,
//! detectors and response components of the other crates operate.
//!
//! ## Layout
//! - [`time`] — nanosecond virtual clock with calendar mapping (2000–2024).
//! - [`addr`] — CIDR blocks; the production /16 and honeynet /24.
//! - [`rng`] — seeded randomness, distributions, Fx hashing.
//! - [`intern`] — process-wide string interning ([`intern::Sym`]).
//! - [`alloc_count`] — shared counting allocator for alloc-contract tests.
//! - [`event`] — generic stable discrete-event queue.
//! - [`topology`] — hosts, subnets, zones; NCSA-like builder.
//! - [`flow`] — connections with Zeek-style states and service tags.
//! - [`action`] — the vocabulary of observable behaviour.
//! - [`router`] — border router with pluggable filters (BHR hook).
//! - [`engine`] — the driver that fans actions out to monitor sinks.
//!
//! ## Example
//! ```
//! use simnet::prelude::*;
//!
//! let topo = NcsaTopologyBuilder::default().build();
//! let mut engine = Engine::new(topo, SimTime::from_date(2024, 8, 1));
//! let scan = Flow::probe(
//!     FlowId(1),
//!     SimTime::from_date(2024, 8, 1),
//!     "103.102.8.9".parse().unwrap(),
//!     "141.142.2.1".parse().unwrap(),
//!     22,
//! );
//! engine.schedule(scan.start, Action::Flow(scan));
//! engine.run(&mut []);
//! assert_eq!(engine.router_stats().inbound, 1);
//! ```

pub mod action;
pub mod addr;
pub mod alloc_count;
pub mod engine;
pub mod event;
pub mod flow;
pub mod intern;
pub mod rng;
pub mod router;
pub mod time;
pub mod topology;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::action::{
        Action, AuditAction, AuthMethod, DbAction, DbCommandKind, ExecAction, FileOp, FileOpAction,
        HttpAction, SshAuthAction,
    };
    pub use crate::addr::{anonymize, ncsa_production, ncsa_secondary, Cidr};
    pub use crate::engine::{ActionSink, Engine, EventCtx};
    pub use crate::event::EventQueue;
    pub use crate::flow::{ConnState, Direction, Flow, FlowId, Proto, Service};
    pub use crate::intern::Sym;
    pub use crate::rng::{FxHashMap, FxHashSet, SimRng, Zipf};
    pub use crate::router::{
        BorderRouter, DropReason, ForwardAll, RouteDecision, RouteFilter, RouteOutcome,
    };
    pub use crate::time::{CivilDate, SimDuration, SimTime};
    pub use crate::topology::{
        Host, HostId, HostRole, NcsaTopologyBuilder, Subnet, Topology, Zone,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::SimRng;

    /// Every seeded run in the workspace leans on this: one seed gives one
    /// stream, through both the raw draws and the forked child streams, and
    /// a neighbouring seed gives a different one.
    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..64 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
        let (mut fa, mut fb) = (a.fork(7), b.fork(7));
        for _ in 0..64 {
            assert_eq!(fa.range_u64(0, u64::MAX), fb.range_u64(0, u64::MAX));
        }
        assert_ne!(
            SimRng::seed(42).f64().to_bits(),
            SimRng::seed(43).f64().to_bits()
        );
    }
}
