//! # The Fig. 4 pipeline stages.
//!
//! The paper's Fig. 4 pipeline (monitors → symbolization → repeated-scan
//! filter → online detection → response) is defined once, here; the
//! closed-loop [`PipelineSink`](crate::pipeline::PipelineSink), the
//! record-stream executors and the service worker all run it:
//!
//! - [`Stage`] — the batched stage trait: `process_batch` turns a slice of
//!   inputs into outputs, `flush` drains end-of-stream state. The
//!   executors and external drivers (the benchmark's traced driver) call
//!   the concrete stages through it. (Not to be confused with
//!   [`detect::Stage`], the hidden attack-stage enum — this one is a
//!   pipeline processing stage.)
//! - [`adapters`] — the four concrete stages, one per component:
//!   `Symbolizer`, `ScanFilter`, the detector slot (factor-graph
//!   `AttackTagger` or a rule-based / critical-only baseline), and the
//!   BHR-block + operator notification response step. The monitor fleet
//!   in front of them is held by the closed-loop sink.
//! - [`builder`] — [`PipelineBuilder`] assembles the stages plus their
//!   tee points (counters, capped alert retention) into a
//!   [`BuiltPipeline`].
//! - [`executor`] — three drivers over the same assembled pipeline:
//!   inline (sequential), threaded (one thread per stage, batched bounded
//!   channels), and sharded (detect stage partitioned by entity hash
//!   across the rayon worker pool). All three produce *identical*
//!   [`StreamReport`]s; only wall-clock differs.

pub mod adapters;
pub mod builder;
pub mod executor;

pub use adapters::{
    DetectOutcome, DetectorStage, FilterStage, NotifyBackend, ResponseStage, SymbolizeStage,
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
/// - `flush` drains end-of-stream state after the final batch. Only the
///   response stage has any (its retry queues), so the executors flush
///   only that stage; the others keep the default no-op.
pub trait Stage<In, Out>: Send {
    /// Stage name for diagnostics and counters.
    fn name(&self) -> &'static str;

    /// Process one batch, appending outputs to `out`.
    fn process_batch(&mut self, input: &[In], out: &mut Vec<Out>);

    /// Drain any end-of-stream state.
    fn flush(&mut self, _out: &mut Vec<Out>) {}
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
}
