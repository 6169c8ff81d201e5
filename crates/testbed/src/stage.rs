//! # The composable pipeline stage API.
//!
//! The paper's Fig. 4 pipeline (monitors → symbolization → repeated-scan
//! filter → online detection → response) is defined once, here; the
//! closed-loop [`PipelineSink`](crate::pipeline::PipelineSink) and the
//! record-stream executors both run it:
//!
//! - [`Stage`] — the batched stage trait: `process_batch` turns a slice of
//!   inputs into outputs, `flush` drains windowed state at end of stream.
//!   (Not to be confused with [`detect::Stage`], the hidden attack-stage
//!   enum — this one is a pipeline processing stage.)
//! - [`adapters`] — `Stage` impls wrapping every existing Fig. 4 component:
//!   monitors, `Symbolizer`, `ScanFilter`, `AttackTagger`, the
//!   rule-based/critical baselines, and the BHR-block + operator
//!   notification response step.
//! - [`builder`] — [`PipelineBuilder`] assembles a typed stage chain plus
//!   its tee points (counters, capped alert retention) into a
//!   [`BuiltPipeline`].
//! - [`executor`] — three drivers over the same assembled pipeline:
//!   inline (sequential), threaded (one thread per stage, batched bounded
//!   channels), and sharded (detect stage partitioned by entity hash
//!   across the rayon worker pool). All three produce *identical*
//!   [`StreamReport`]s; only wall-clock differs.
//!
//! ## Composing custom chains
//!
//! The executors drive the standard record→alert→detection chain, but the
//! trait composes freely; [`Chain`] fuses two stages and [`FnStage`] lifts
//! a closure:
//!
//! ```
//! use testbed::stage::{Chain, FnStage, Stage};
//!
//! let double = FnStage::new("double", |x: &u32, out: &mut Vec<u32>| out.push(x * 2));
//! let odd = FnStage::new("odd", |x: &u32, out: &mut Vec<u32>| {
//!     if x % 2 == 1 {
//!         out.push(*x)
//!     }
//! });
//! let mut chain = Chain::new(double, odd);
//! let mut out = Vec::new();
//! chain.process_batch(&[1, 2, 3], &mut out);
//! assert!(out.is_empty()); // doubling leaves nothing odd
//! ```

pub mod adapters;
pub mod builder;
pub mod executor;

pub use adapters::{
    BaselineStage, DetectOutcome, DetectorStage, FaultStage, FilterStage, MonitorStage,
    NotifyBackend, ResponseStage, SymbolizeStage, TagStage, TimedAction,
};
pub use builder::{BuiltPipeline, PipelineBuilder};
pub use executor::{StreamReport, StreamStats};

use alertlib::alert::Alert;
use std::collections::VecDeque;

/// A batched pipeline stage: consumes a slice of `In` items, appends any
/// produced `Out` items.
///
/// Contract notes for executor writers:
/// - Stages are order-preserving over their input stream; calling
///   `process_batch` on `[a, b]` equals calling it on `[a]` then `[b]`.
///   This is what makes batch boundaries (and therefore executor choice)
///   unobservable.
/// - `flush` is called exactly once, after the final batch, for stages
///   with windowed state (e.g. scan-notice windows in monitors).
pub trait Stage<In, Out>: Send {
    /// Stage name for diagnostics and counters.
    fn name(&self) -> &'static str;

    /// Process one batch, appending outputs to `out`.
    fn process_batch(&mut self, input: &[In], out: &mut Vec<Out>);

    /// Drain any end-of-stream state.
    fn flush(&mut self, _out: &mut Vec<Out>) {}
}

/// Two stages fused into one: `A`'s output feeds `B` within the same
/// `process_batch` call (no intermediate channel).
pub struct Chain<A, B, Mid> {
    a: A,
    b: B,
    mid: Vec<Mid>,
}

impl<A, B, Mid> Chain<A, B, Mid> {
    pub fn new(a: A, b: B) -> Self {
        Chain {
            a,
            b,
            mid: Vec::new(),
        }
    }
}

impl<In, Mid, Out, A, B> Stage<In, Out> for Chain<A, B, Mid>
where
    Mid: Send,
    A: Stage<In, Mid>,
    B: Stage<Mid, Out>,
{
    fn name(&self) -> &'static str {
        "chain"
    }

    fn process_batch(&mut self, input: &[In], out: &mut Vec<Out>) {
        self.mid.clear();
        self.a.process_batch(input, &mut self.mid);
        self.b.process_batch(&self.mid, out);
    }

    fn flush(&mut self, out: &mut Vec<Out>) {
        self.mid.clear();
        self.a.flush(&mut self.mid);
        self.b.process_batch(&self.mid, out);
        self.b.flush(out);
    }
}

/// A stage defined by a closure over single items — handy glue for tests
/// and ad-hoc tees.
pub struct FnStage<F> {
    name: &'static str,
    f: F,
}

impl<F> FnStage<F> {
    pub fn new(name: &'static str, f: F) -> Self {
        FnStage { name, f }
    }
}

impl<In, Out, F> Stage<In, Out> for FnStage<F>
where
    F: FnMut(&In, &mut Vec<Out>) + Send,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn process_batch(&mut self, input: &[In], out: &mut Vec<Out>) {
        for item in input {
            (self.f)(item, out);
        }
    }
}

/// Capped retention of post-filter alerts for post-run analysis.
///
/// Replaces the old unbounded `PipelineSink::alerts` vector: a 25 M-alert
/// streaming run used to OOM if sampling was left on. Retention keeps at
/// most `cap` alerts, dropping the *oldest* beyond that and counting the
/// drops. `cap == 0` disables retention entirely; alerts flowing past a
/// disabled retention are counted as *discarded*, not dropped — a
/// stats-only run that never intended to retain anything must not report
/// its whole alert volume as drops (it used to: `alerts_dropped` in a
/// retention-off streaming run equalled every admitted alert).
#[derive(Debug, Default)]
pub struct AlertRetention {
    cap: usize,
    buf: VecDeque<Alert>,
    dropped: u64,
    discarded: u64,
}

impl AlertRetention {
    pub fn new(cap: usize) -> Self {
        AlertRetention {
            cap,
            buf: VecDeque::with_capacity(cap.min(1_024)),
            dropped: 0,
            discarded: 0,
        }
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Alerts dropped because the cap was exceeded. Zero when retention
    /// is disabled — see [`AlertRetention::discarded`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Alerts discarded because retention is disabled (`cap == 0`).
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn push(&mut self, alert: Alert) {
        if self.cap == 0 {
            self.discarded += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(alert);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Alert> {
        self.buf.iter()
    }

    /// Retained alerts, oldest first.
    pub fn into_vec(self) -> Vec<Alert> {
        self.buf.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::alert::Entity;
    use alertlib::taxonomy::AlertKind;
    use simnet::time::SimTime;

    fn alert(t: u64) -> Alert {
        Alert::new(
            SimTime::from_secs(t),
            AlertKind::LoginSuccess,
            Entity::User("u".into()),
        )
    }

    #[test]
    fn retention_drops_oldest_and_counts() {
        let mut r = AlertRetention::new(3);
        for t in 0..5 {
            r.push(alert(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.into_vec().iter().map(|a| a.ts.as_secs()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn retention_cap_zero_disables() {
        let mut r = AlertRetention::new(0);
        for t in 0..10 {
            r.push(alert(t));
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0, "retention-off is not a cap overflow");
        assert_eq!(r.discarded(), 10, "retention-off counts discards");
    }

    #[test]
    fn fn_stage_and_chain_compose() {
        let double = FnStage::new("double", |x: &u32, out: &mut Vec<u32>| out.push(x * 2));
        let add_one = FnStage::new("inc", |x: &u32, out: &mut Vec<u32>| out.push(x + 1));
        let mut chain = Chain::new(double, add_one);
        assert_eq!(chain.name(), "chain");
        let mut out = Vec::new();
        chain.process_batch(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![3, 5, 7]);
    }

    #[test]
    fn chain_flush_drains_both_sides() {
        struct Windowed {
            pending: Vec<u32>,
        }
        impl Stage<u32, u32> for Windowed {
            fn name(&self) -> &'static str {
                "windowed"
            }
            fn process_batch(&mut self, input: &[u32], _out: &mut Vec<u32>) {
                self.pending.extend_from_slice(input);
            }
            fn flush(&mut self, out: &mut Vec<u32>) {
                out.append(&mut self.pending);
            }
        }
        let tail = FnStage::new("x10", |x: &u32, out: &mut Vec<u32>| out.push(x * 10));
        let mut chain = Chain::new(Windowed { pending: vec![] }, tail);
        let mut out = Vec::new();
        chain.process_batch(&[1, 2], &mut out);
        assert!(out.is_empty(), "all buffered until flush");
        chain.flush(&mut out);
        assert_eq!(out, vec![10, 20]);
    }
}
