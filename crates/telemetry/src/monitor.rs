//! The monitor abstraction.
//!
//! A [`Monitor`] turns observed [`Action`]s into [`LogRecord`]s. The
//! defender capabilities of §III-B assume "an extensive set of
//! well-configured ... and well-protected monitors": one action can be
//! witnessed by several monitors, and tampering with a single monitor
//! (e.g. killing the host agent) does not blind the rest.
//!
//! A monitor emits each record while it observes the action behind it:
//! even Zeek's stateful scan and guessing policies raise their notice on
//! the flow that crosses the threshold. So a monitor holds nothing back,
//! and there is nothing to flush at the end of a run.

use simnet::action::Action;
use simnet::engine::EventCtx;

use crate::record::LogRecord;

/// A security monitor observing the action stream.
pub trait Monitor: Send {
    /// Monitor name (for provenance metadata).
    fn name(&self) -> &'static str;

    /// Observe one action, appending any produced records to `out`.
    fn observe(&mut self, ctx: &EventCtx<'_>, action: &Action, out: &mut Vec<LogRecord>);
}
