//! [`Stage`] adapters wrapping the existing Fig. 4 components.
//!
//! Each adapter owns the component it wraps and exposes the batched
//! [`Stage`] interface; the detection adapters additionally guarantee the
//! **1:1 contract** the sharded executor relies on: exactly one
//! [`DetectOutcome`] is emitted per input alert, in input order.

use std::net::Ipv4Addr;

use alertlib::alert::Alert;
use alertlib::filter::{FilterStats, ScanFilter};
use alertlib::symbolize::Symbolizer;
use bhr::api::BhrHandle;
use bhr::retry::{BlockError, RetryPolicy};
use detect::attack_tagger::AttackTagger;
use detect::critical::CriticalOnlyDetector;
use detect::online::OnlineSessionDetector;
use detect::rules::RuleBasedDetector;
use detect::Detection;
use scenario::adapt::FeedbackTap;
use simnet::action::Action;
use simnet::engine::EventCtx;
use simnet::flow::Direction;
use simnet::intern::SymScope;
use simnet::rng::{FxHashSet, SimRng};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::Topology;
use telemetry::monitor::Monitor;
use telemetry::record::LogRecord;

use crate::report::OperatorNotification;
use crate::stage::Stage;

/// An action with its observation context, for driving [`MonitorStage`]
/// outside the simulation engine (which supplies a live [`EventCtx`]).
#[derive(Debug, Clone)]
pub struct TimedAction {
    pub time: SimTime,
    pub direction: Direction,
    pub action: Action,
}

/// The monitor fleet as a stage: fans each action out to every monitor in
/// registration order (§III-B: one action can be witnessed by several
/// monitors).
pub struct MonitorStage {
    monitors: Vec<Box<dyn Monitor>>,
    /// Topology used to synthesize an [`EventCtx`] when driven as a
    /// batched [`Stage`]; the closed-loop sink instead passes the
    /// engine's live context to [`MonitorStage::observe`].
    topology: Option<Topology>,
}

impl MonitorStage {
    pub fn new(monitors: Vec<Box<dyn Monitor>>) -> Self {
        MonitorStage {
            monitors,
            topology: None,
        }
    }

    /// Attach a topology so the stage can be driven from [`TimedAction`]s
    /// without a running engine.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Observe one action under the engine's live context — the single
    /// definition of the monitor fan-out both deployments share.
    pub fn observe(&mut self, ctx: &EventCtx<'_>, action: &Action, out: &mut Vec<LogRecord>) {
        for m in &mut self.monitors {
            m.observe(ctx, action, out);
        }
    }

    /// Drain windowed monitor state (pending scan notices etc.).
    pub fn flush_records(&mut self, out: &mut Vec<LogRecord>) {
        for m in &mut self.monitors {
            m.flush(out);
        }
    }
}

impl Stage<TimedAction, LogRecord> for MonitorStage {
    fn name(&self) -> &'static str {
        "monitors"
    }

    fn process_batch(&mut self, input: &[TimedAction], out: &mut Vec<LogRecord>) {
        let topo = self
            .topology
            .as_ref()
            .expect("MonitorStage needs with_topology() to run as a batched stage");
        for ta in input {
            let ctx = EventCtx {
                time: ta.time,
                direction: ta.direction,
                dropped: None,
                topo,
            };
            for m in &mut self.monitors {
                m.observe(&ctx, &ta.action, out);
            }
        }
    }

    fn flush(&mut self, out: &mut Vec<LogRecord>) {
        self.flush_records(out);
    }
}

/// Telemetry fault injection as a stage: sits between generation and
/// symbolize, corrupting the record stream per a
/// [`scenario::faults::FaultPlan`] (loss, blackouts, duplication,
/// bounded reordering, clock skew). Deterministic in `(plan, input)` and
/// batch-boundary-invariant, so every executor sees the identical
/// faulted stream.
#[derive(Debug)]
pub struct FaultStage {
    injector: scenario::faults::FaultInjector,
}

impl FaultStage {
    pub fn new(plan: scenario::faults::FaultPlan) -> Self {
        FaultStage {
            injector: scenario::faults::FaultInjector::new(plan),
        }
    }

    pub fn stats(&self) -> scenario::faults::FaultStats {
        self.injector.stats()
    }
}

impl Stage<LogRecord, LogRecord> for FaultStage {
    fn name(&self) -> &'static str {
        "fault-injection"
    }

    fn process_batch(&mut self, input: &[LogRecord], out: &mut Vec<LogRecord>) {
        for r in input {
            self.injector.push(r.clone(), out);
        }
    }

    fn flush(&mut self, out: &mut Vec<LogRecord>) {
        self.injector.finish(out);
    }
}

/// Symbolization: records → alerts (§II-A).
#[derive(Debug, Clone)]
pub struct SymbolizeStage {
    symbolizer: Symbolizer,
}

impl SymbolizeStage {
    pub fn new(symbolizer: Symbolizer) -> Self {
        SymbolizeStage { symbolizer }
    }

    pub fn symbolizer(&self) -> &Symbolizer {
        &self.symbolizer
    }

    /// Symbolize an owned batch in one pass, running `prep` on each
    /// record just before it is symbolized (the service's tenant remap;
    /// a no-op elsewhere).
    pub(crate) fn prep_and_process(
        &mut self,
        records: &mut [LogRecord],
        mut prep: impl FnMut(&mut LogRecord),
        out: &mut Vec<Alert>,
    ) {
        for r in records {
            prep(r);
            self.symbolizer.symbolize_into(r, out);
        }
    }
}

impl Stage<LogRecord, Alert> for SymbolizeStage {
    fn name(&self) -> &'static str {
        "symbolize"
    }

    fn process_batch(&mut self, input: &[LogRecord], out: &mut Vec<Alert>) {
        for r in input {
            self.symbolizer.symbolize_into(r, out);
        }
    }
}

/// The repeated-scan filter as a stage (admitted alerts pass through).
#[derive(Debug)]
pub struct FilterStage {
    filter: ScanFilter,
}

impl FilterStage {
    pub fn new(filter: ScanFilter) -> Self {
        FilterStage { filter }
    }

    pub fn stats(&self) -> FilterStats {
        self.filter.stats()
    }

    /// The underlying filter — service snapshot export reads its window
    /// state.
    pub fn filter(&self) -> &ScanFilter {
        &self.filter
    }

    /// Mutable access for service snapshot restore.
    pub fn filter_mut(&mut self) -> &mut ScanFilter {
        &mut self.filter
    }

    /// Owned-batch variant for executors: drains `batch`, moving admitted
    /// alerts into `out` (no clones on the hot path). Leaves `batch`
    /// empty with its capacity intact.
    pub fn admit_drain(&mut self, batch: &mut Vec<Alert>, out: &mut Vec<Alert>) {
        for a in batch.drain(..) {
            if self.filter.admit(&a) {
                out.push(a);
            }
        }
    }
}

impl Stage<Alert, Alert> for FilterStage {
    fn name(&self) -> &'static str {
        "scan-filter"
    }

    fn process_batch(&mut self, input: &[Alert], out: &mut Vec<Alert>) {
        for a in input {
            if self.filter.admit(a) {
                out.push(*a);
            }
        }
    }
}

/// One admitted alert annotated with the detector's verdict. Detection
/// stages emit exactly one outcome per input alert, in order.
#[derive(Debug, Clone)]
pub struct DetectOutcome {
    pub alert: Alert,
    pub detection: Option<Detection>,
    /// The entity's post-observe posterior mass over the decision stages
    /// (tagger), or 0.0 / 1.0 detection indicator (baselines). Computed
    /// on the per-shard observe path so the cross-entity correlator —
    /// which runs downstream on the merged outcome stream — never needs a
    /// second look at per-entity state.
    pub attack_score: f64,
}

/// The factor-graph [`AttackTagger`] as a detection stage.
#[derive(Debug, Clone)]
pub struct TagStage {
    tagger: AttackTagger,
}

impl TagStage {
    pub fn new(tagger: AttackTagger) -> Self {
        TagStage { tagger }
    }

    pub fn tagger(&self) -> &AttackTagger {
        &self.tagger
    }

    pub fn tagger_mut(&mut self) -> &mut AttackTagger {
        &mut self.tagger
    }

    fn outcome(&mut self, alert: Alert) -> DetectOutcome {
        let scored = self.tagger.observe_scored(&alert);
        DetectOutcome {
            detection: scored.detection,
            attack_score: scored.attack_score,
            alert,
        }
    }
}

impl Stage<Alert, DetectOutcome> for TagStage {
    fn name(&self) -> &'static str {
        "attack-tagger"
    }

    fn process_batch(&mut self, input: &[Alert], out: &mut Vec<DetectOutcome>) {
        for a in input {
            out.push(self.outcome(*a));
        }
    }
}

/// A session-scan baseline (rule-based or critical-only) as an online
/// detection stage, via [`OnlineSessionDetector`].
#[derive(Debug, Clone)]
pub struct BaselineStage<D> {
    name: &'static str,
    online: OnlineSessionDetector<D>,
}

impl<D: detect::SequenceDetector> BaselineStage<D> {
    pub fn new(name: &'static str, detector: D) -> Self {
        BaselineStage {
            name,
            online: OnlineSessionDetector::new(detector),
        }
    }

    fn outcome(&mut self, alert: Alert) -> DetectOutcome {
        let detection = self.online.observe(&alert);
        DetectOutcome {
            attack_score: if detection.is_some() { 1.0 } else { 0.0 },
            detection,
            alert,
        }
    }
}

impl<D: detect::SequenceDetector + Send> Stage<Alert, DetectOutcome> for BaselineStage<D> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process_batch(&mut self, input: &[Alert], out: &mut Vec<DetectOutcome>) {
        for a in input {
            out.push(self.outcome(*a));
        }
    }
}

/// The detection slot of an assembled pipeline. An enum (rather than a
/// boxed trait object) so the sharded executor can clone per-entity-empty
/// replicas for its shards.
#[derive(Debug, Clone)]
pub enum DetectorStage {
    Tagger(Box<TagStage>),
    Rules(BaselineStage<RuleBasedDetector>),
    Critical(BaselineStage<CriticalOnlyDetector>),
}

impl DetectorStage {
    pub fn tagger(tagger: AttackTagger) -> Self {
        DetectorStage::Tagger(Box::new(TagStage::new(tagger)))
    }

    pub fn rules(rules: RuleBasedDetector) -> Self {
        DetectorStage::Rules(BaselineStage::new("rule-based", rules))
    }

    pub fn critical() -> Self {
        DetectorStage::Critical(BaselineStage::new(
            "critical-only",
            CriticalOnlyDetector::new(),
        ))
    }

    /// Detector source label carried on operator notifications.
    pub fn source(&self) -> &'static str {
        match self {
            DetectorStage::Tagger(_) => "attack-tagger",
            DetectorStage::Rules(_) => "rule-based",
            DetectorStage::Critical(_) => "critical-only",
        }
    }

    /// The underlying factor-graph tagger, when this slot holds one —
    /// the evaluation harness's ground-truth hook into per-entity
    /// detection state.
    pub fn as_tagger(&self) -> Option<&AttackTagger> {
        match self {
            DetectorStage::Tagger(s) => Some(s.tagger()),
            _ => None,
        }
    }

    /// Mutable tagger access — service snapshot restore imports posterior
    /// state through this.
    pub fn as_tagger_mut(&mut self) -> Option<&mut AttackTagger> {
        match self {
            DetectorStage::Tagger(s) => Some(s.tagger_mut()),
            _ => None,
        }
    }

    /// Apply a temporal-policy override to the detector, when it is the
    /// factor-graph tagger (the baselines have no temporal state). This is
    /// how [`crate::config::PipelineTuning::temporal`] reaches the stage.
    pub fn apply_temporal(&mut self, temporal: &detect::attack_tagger::TemporalPolicy) {
        if let DetectorStage::Tagger(s) = self {
            s.tagger_mut().set_temporal(temporal.clone());
        }
    }

    /// Cap the detector's resident per-entity state (tagger only — the
    /// baselines key state by session, not entity). This is how
    /// [`crate::config::PipelineTuning::detect_max_entities`] reaches the
    /// stage.
    pub fn apply_entity_budget(&mut self, max_entities: usize) {
        if let DetectorStage::Tagger(s) = self {
            s.tagger_mut().set_max_entities(max_entities);
        }
    }

    /// Declare known telemetry blackout windows to the detector (tagger
    /// only — the baselines carry no temporal state). See
    /// [`AttackTagger::set_blackouts`].
    pub fn apply_blackouts(&mut self, windows: Vec<(SimTime, SimTime)>) {
        if let DetectorStage::Tagger(s) = self {
            s.tagger_mut().set_blackouts(windows);
        }
    }

    /// The opt-in cross-entity correlation policy carried by the tagger's
    /// config (`None` for the baselines and for taggers without one).
    /// The pipeline builder reads this to construct the campaign
    /// correlator that runs over the merged outcome stream.
    pub fn correlation_policy(&self) -> Option<detect::CorrelationPolicy> {
        match self {
            DetectorStage::Tagger(s) => s.tagger().config().correlation.clone(),
            _ => None,
        }
    }

    /// Build the campaign correlator the pipeline should run over the
    /// merged outcome stream, when the detector carries a correlation
    /// policy: the tagger's own chain model, decision stages, temporal
    /// policy and blackouts are attached so stitched campaign sequences
    /// are re-scored with the exact inference the per-entity tagger runs
    /// (see [`detect::CampaignCorrelator::with_tagger`]). Call it after
    /// [`apply_temporal`](Self::apply_temporal) and
    /// [`apply_blackouts`](Self::apply_blackouts).
    pub fn build_correlator(&self) -> Option<detect::CampaignCorrelator> {
        match self {
            DetectorStage::Tagger(s) => {
                let tagger = s.tagger();
                (tagger.config().correlation.clone())
                    .map(|policy| detect::CampaignCorrelator::with_tagger(policy, tagger))
            }
            _ => None,
        }
    }

    /// Install (or clear) the cross-entity correlation policy, when the
    /// detector is the factor-graph tagger — the builder's override hook,
    /// mirroring [`DetectorStage::apply_temporal`].
    pub fn apply_correlation(&mut self, correlation: Option<detect::CorrelationPolicy>) {
        if let DetectorStage::Tagger(s) = self {
            s.tagger_mut().set_correlation(correlation);
        }
    }

    /// Alerts the detector dropped as telemetry re-deliveries (0 for the
    /// baselines, and for a tagger with no dedup window configured).
    pub fn duplicates_suppressed(&self) -> u64 {
        match self {
            DetectorStage::Tagger(s) => s.tagger().duplicates_suppressed(),
            _ => 0,
        }
    }

    /// Owned-batch variant for executors: drains `batch`, emitting one
    /// outcome per alert (no clones). Leaves `batch` empty with its
    /// capacity intact.
    pub fn process_drain(&mut self, batch: &mut Vec<Alert>, out: &mut Vec<DetectOutcome>) {
        for a in batch.drain(..) {
            let o = match self {
                DetectorStage::Tagger(s) => s.outcome(a),
                DetectorStage::Rules(s) => s.outcome(a),
                DetectorStage::Critical(s) => s.outcome(a),
            };
            out.push(o);
        }
    }
}

impl Stage<Alert, DetectOutcome> for DetectorStage {
    fn name(&self) -> &'static str {
        match self {
            DetectorStage::Tagger(s) => s.name(),
            DetectorStage::Rules(s) => s.name(),
            DetectorStage::Critical(s) => s.name(),
        }
    }

    fn process_batch(&mut self, input: &[Alert], out: &mut Vec<DetectOutcome>) {
        match self {
            DetectorStage::Tagger(s) => s.process_batch(input, out),
            DetectorStage::Rules(s) => s.process_batch(input, out),
            DetectorStage::Critical(s) => s.process_batch(input, out),
        }
    }
}

/// Delivery transport for operator notifications. The default path has no
/// backend at all (every notification lands, exactly the historical
/// behaviour); an injected backend may fail, feeding the same retry
/// machinery as blocks.
pub trait NotifyBackend: Send {
    fn try_notify(&mut self, note: &OperatorNotification) -> Result<(), BlockError>;
}

/// A block whose delivery failed, waiting for its next retry slot.
#[derive(Debug, Clone)]
struct PendingBlock {
    addr: Ipv4Addr,
    reason: String,
    ttl: Option<SimDuration>,
    /// When the first delivery failed (deadline anchor).
    first_failure: SimTime,
    /// Failed delivery attempts so far.
    attempts: u32,
    /// Scheduled time of the next attempt.
    next_ts: SimTime,
}

/// A notification whose delivery failed, waiting for its next retry slot.
struct PendingNote {
    note: OperatorNotification,
    first_failure: SimTime,
    attempts: u32,
    next_ts: SimTime,
}

/// Circuit-breaker state for block delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed,
    /// Tripped: no RPCs until `until`.
    Open {
        until: SimTime,
    },
}

/// Response and remediation (Fig. 4 part b): block the attacker source at
/// the BHR (deduplicated per source) and emit an operator notification
/// per detection.
///
/// Delivery is fallible: a failed block RPC (see
/// [`bhr::retry::BlockBackend`]) enters a pending queue and is retried on
/// the [`RetryPolicy`]'s backoff schedule — with a circuit breaker that
/// stops hammering a down router — until it lands, exhausts its attempt
/// cap, or passes its deadline (then it is *abandoned*, counted and
/// audited, never silently dropped). Failed notifications get the same
/// treatment minus the breaker. All retry timing is driven by the alert
/// timestamps flowing through [`ResponseStage::respond`] (plus
/// [`Stage::flush`] at end of stream), never by batch boundaries, so
/// every executor replays the identical schedule.
pub struct ResponseStage {
    bhr: BhrHandle,
    block_on_detection: bool,
    detection_block_ttl: Option<SimDuration>,
    blocked: FxHashSet<Ipv4Addr>,
    source: &'static str,
    /// Scope the pipeline's alert symbols were minted in — notification
    /// entity keys resolve user names against it (global by default).
    scope: SymScope,
    retry: RetryPolicy,
    /// Jitter stream for backoff scheduling; consumed only on failures,
    /// so the clean path draws nothing.
    rng: SimRng,
    notify_backend: Option<Box<dyn NotifyBackend>>,
    /// Optional adaptive-attacker observation channel: every block
    /// *decision* is published here (see [`FeedbackTap`]). A pure side
    /// channel — publishing never touches pipeline state, so tapped and
    /// untapped runs produce byte-identical detections.
    feedback: Option<FeedbackTap>,
    pending_blocks: Vec<PendingBlock>,
    pending_notes: Vec<PendingNote>,
    breaker: Breaker,
    consecutive_failures: u32,
    blocks_retried: u64,
    blocks_abandoned: u64,
    notifications_retried: u64,
    notifications_abandoned: u64,
}

impl ResponseStage {
    /// Seed for the backoff-jitter stream (shared by every executor so
    /// retry schedules are byte-identical across them).
    const RETRY_SEED: u64 = 0x5E7_B10C;

    pub fn new(
        bhr: BhrHandle,
        block_on_detection: bool,
        detection_block_ttl: Option<SimDuration>,
        source: &'static str,
    ) -> Self {
        ResponseStage {
            bhr,
            block_on_detection,
            detection_block_ttl,
            blocked: FxHashSet::default(),
            source,
            scope: SymScope::global(),
            retry: RetryPolicy::default(),
            rng: SimRng::seed(Self::RETRY_SEED),
            notify_backend: None,
            feedback: None,
            pending_blocks: Vec::new(),
            pending_notes: Vec::new(),
            breaker: Breaker::Closed,
            consecutive_failures: 0,
            blocks_retried: 0,
            blocks_abandoned: 0,
            notifications_retried: 0,
            notifications_abandoned: 0,
        }
    }

    /// Replace the retry policy (and reseed the jitter stream — pass the
    /// same seed across executors for byte-identical schedules).
    pub fn with_retry(mut self, retry: RetryPolicy, seed: u64) -> Self {
        self.retry = retry;
        self.rng = SimRng::seed(seed);
        self
    }

    /// Route notifications through a fallible backend (fault injection);
    /// without one every notification lands directly.
    pub fn with_notify_backend(mut self, backend: impl NotifyBackend + 'static) -> Self {
        self.notify_backend = Some(Box::new(backend));
        self
    }

    /// [`ResponseStage::with_notify_backend`] for an already-boxed backend.
    pub fn with_boxed_notify_backend(mut self, backend: Box<dyn NotifyBackend>) -> Self {
        self.notify_backend = Some(backend);
        self
    }

    /// Resolve notification entity names against an explicit scope —
    /// required when the pipeline's alerts carry tenant-scoped symbols.
    pub fn with_scope(mut self, scope: SymScope) -> Self {
        self.scope = scope;
        self
    }

    /// Publish every block decision into `tap` — the adaptive attacker's
    /// observation surface (`scenario::adapt::ReactiveGenerator` drains
    /// it at its round boundaries). Decision-time, not delivery-time:
    /// what an adversary observes is the defense *choosing* to null-route
    /// them, and the decision stream is identical across executors and
    /// unaffected by flaky delivery backends.
    pub fn with_block_feedback(mut self, tap: FeedbackTap) -> Self {
        self.feedback = Some(tap);
        self
    }

    pub fn bhr(&self) -> &BhrHandle {
        &self.bhr
    }

    /// Distinct sources this stage decided to block. Includes sources
    /// whose delivery is still pending or was abandoned — the *intent*
    /// count, deduplicated per source.
    pub fn blocked_sources(&self) -> u64 {
        self.blocked.len() as u64
    }

    /// Retry delivery attempts for blocks (first attempts excluded).
    pub fn blocks_retried(&self) -> u64 {
        self.blocks_retried
    }

    /// Blocks given up on after the attempt cap or deadline.
    pub fn blocks_abandoned(&self) -> u64 {
        self.blocks_abandoned
    }

    /// Retry delivery attempts for notifications.
    pub fn notifications_retried(&self) -> u64 {
        self.notifications_retried
    }

    /// Notifications given up on after the attempt cap or deadline.
    pub fn notifications_abandoned(&self) -> u64 {
        self.notifications_abandoned
    }

    /// Blocks currently awaiting a retry slot.
    pub fn pending_block_count(&self) -> usize {
        self.pending_blocks.len()
    }

    fn note_block_failure(&mut self, ts: SimTime) {
        self.consecutive_failures += 1;
        if self.breaker == Breaker::Closed
            && self.retry.breaker_threshold > 0
            && self.consecutive_failures >= self.retry.breaker_threshold
        {
            let until = ts.saturating_add(self.retry.breaker_cooldown);
            self.breaker = Breaker::Open { until };
            self.bhr.audit_event(
                ts,
                "circuit-open",
                None,
                format!(
                    "{} consecutive delivery failures",
                    self.consecutive_failures
                ),
            );
        }
    }

    /// Queue (or immediately deliver) one block decision.
    fn submit_block(&mut self, ts: SimTime, addr: Ipv4Addr, reason: String) {
        if let Breaker::Open { until } = self.breaker {
            // No RPCs while the breaker is open: straight to the queue,
            // first attempt when the breaker closes.
            self.pending_blocks.push(PendingBlock {
                addr,
                reason,
                ttl: self.detection_block_ttl,
                first_failure: ts,
                attempts: 0,
                next_ts: until,
            });
            return;
        }
        match self
            .bhr
            .try_block(ts, addr, &reason, self.detection_block_ttl)
        {
            Ok(_) => self.consecutive_failures = 0,
            Err(_) => {
                self.note_block_failure(ts);
                if self.retry.max_attempts <= 1 {
                    self.blocks_abandoned += 1;
                    self.bhr
                        .audit_event(ts, "block-abandoned", Some(addr), "retries disabled");
                    return;
                }
                let delay = self.retry.backoff(1, &mut self.rng);
                let mut next_ts = ts.saturating_add(delay);
                if let Breaker::Open { until } = self.breaker {
                    if until > next_ts {
                        next_ts = until;
                    }
                }
                self.pending_blocks.push(PendingBlock {
                    addr,
                    reason,
                    ttl: self.detection_block_ttl,
                    first_failure: ts,
                    attempts: 1,
                    next_ts,
                });
            }
        }
    }

    /// Deliver (or queue) one notification.
    fn deliver_note(
        &mut self,
        ts: SimTime,
        note: OperatorNotification,
        out: &mut Vec<OperatorNotification>,
    ) {
        let Some(backend) = self.notify_backend.as_mut() else {
            out.push(note);
            return;
        };
        match backend.try_notify(&note) {
            Ok(()) => out.push(note),
            Err(e) => {
                self.bhr
                    .audit_event(ts, "notify-failed", None, e.to_string());
                if self.retry.max_attempts <= 1 {
                    self.notifications_abandoned += 1;
                    self.bhr
                        .audit_event(ts, "notify-abandoned", None, "retries disabled");
                    return;
                }
                let delay = self.retry.backoff(1, &mut self.rng);
                self.pending_notes.push(PendingNote {
                    note,
                    first_failure: ts,
                    attempts: 1,
                    next_ts: ts.saturating_add(delay),
                });
            }
        }
    }

    /// Pump the retry queues up to time `ts`: close a cooled-down
    /// breaker, re-attempt every due pending block and notification.
    /// Driven per detection event and by [`Stage::flush`] — never by
    /// batch boundaries.
    fn advance(&mut self, ts: SimTime, out: &mut Vec<OperatorNotification>) {
        if let Breaker::Open { until } = self.breaker {
            if ts >= until {
                self.breaker = Breaker::Closed;
                self.consecutive_failures = 0;
                self.bhr
                    .audit_event(until, "circuit-close", None, "cooldown elapsed");
            }
        }
        let mut i = 0;
        while i < self.pending_blocks.len() {
            if matches!(self.breaker, Breaker::Open { .. }) {
                break;
            }
            if self.pending_blocks[i].next_ts > ts {
                i += 1;
                continue;
            }
            let mut pb = self.pending_blocks.swap_remove(i);
            let attempt_ts = pb.next_ts;
            self.blocks_retried += 1;
            match self.bhr.try_block(attempt_ts, pb.addr, &pb.reason, pb.ttl) {
                Ok(_) => self.consecutive_failures = 0,
                Err(_) => {
                    self.note_block_failure(attempt_ts);
                    pb.attempts += 1;
                    let over_deadline = self
                        .retry
                        .deadline_exceeded(attempt_ts.saturating_since(pb.first_failure));
                    if pb.attempts >= self.retry.max_attempts || over_deadline {
                        self.blocks_abandoned += 1;
                        self.bhr.audit_event(
                            attempt_ts,
                            "block-abandoned",
                            Some(pb.addr),
                            format!("after {} failed attempts", pb.attempts),
                        );
                    } else {
                        let delay = self.retry.backoff(pb.attempts, &mut self.rng);
                        pb.next_ts = attempt_ts.saturating_add(delay);
                        if let Breaker::Open { until } = self.breaker {
                            if until > pb.next_ts {
                                pb.next_ts = until;
                            }
                        }
                        self.pending_blocks.push(pb);
                    }
                }
            }
        }
        let mut i = 0;
        while i < self.pending_notes.len() {
            if self.pending_notes[i].next_ts > ts {
                i += 1;
                continue;
            }
            let mut pn = self.pending_notes.swap_remove(i);
            let attempt_ts = pn.next_ts;
            self.notifications_retried += 1;
            let backend = self
                .notify_backend
                .as_mut()
                .expect("pending notes exist only with a notify backend");
            match backend.try_notify(&pn.note) {
                Ok(()) => out.push(pn.note),
                Err(e) => {
                    pn.attempts += 1;
                    let over_deadline = self
                        .retry
                        .deadline_exceeded(attempt_ts.saturating_since(pn.first_failure));
                    if pn.attempts >= self.retry.max_attempts || over_deadline {
                        self.notifications_abandoned += 1;
                        self.bhr
                            .audit_event(attempt_ts, "notify-abandoned", None, e.to_string());
                    } else {
                        let delay = self.retry.backoff(pn.attempts, &mut self.rng);
                        pn.next_ts = attempt_ts.saturating_add(delay);
                        self.pending_notes.push(pn);
                    }
                }
            }
        }
    }

    /// Respond to a batch of outcomes. `now` is the response timestamp
    /// (block install time, TTL anchor, notification time): the
    /// closed-loop sink passes the engine's event time; record-stream
    /// executors pass `None`, anchoring each response at its alert's
    /// observation timestamp.
    pub fn respond(
        &mut self,
        now: Option<SimTime>,
        input: &[DetectOutcome],
        out: &mut Vec<OperatorNotification>,
    ) {
        for o in input {
            let Some(detection) = &o.detection else {
                continue;
            };
            let ts = now.unwrap_or(o.alert.ts);
            self.advance(ts, out);
            if self.block_on_detection {
                if let Some(src) = o.alert.src {
                    if self.blocked.insert(src) {
                        if let Some(tap) = &self.feedback {
                            tap.publish(ts, src);
                        }
                        let reason =
                            format!("detector: {} at {}", detection.trigger, detection.stage);
                        self.submit_block(ts, src, reason);
                    }
                }
            }
            let note = OperatorNotification {
                ts,
                entity: o.alert.entity.key_in(&self.scope),
                detection: detection.clone(),
                source: self.source,
            };
            self.deliver_note(ts, note, out);
        }
    }

    /// Drain the retry queues at end of stream by advancing the clock to
    /// each next scheduled attempt. Terminates: every pass delivers,
    /// reschedules with a bounded attempt count, or abandons.
    fn drain_pending(&mut self, out: &mut Vec<OperatorNotification>) {
        loop {
            let next = self
                .pending_blocks
                .iter()
                .map(|p| p.next_ts)
                .chain(self.pending_notes.iter().map(|p| p.next_ts))
                .min();
            let Some(mut t) = next else {
                break;
            };
            if let Breaker::Open { until } = self.breaker {
                if until > t {
                    t = until;
                }
            }
            self.advance(t, out);
        }
    }
}

impl Stage<DetectOutcome, OperatorNotification> for ResponseStage {
    fn name(&self) -> &'static str {
        "response"
    }

    fn process_batch(&mut self, input: &[DetectOutcome], out: &mut Vec<OperatorNotification>) {
        self.respond(None, input, out);
    }

    fn flush(&mut self, out: &mut Vec<OperatorNotification>) {
        self.drain_pending(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::alert::Entity;
    use alertlib::filter::FilterConfig;
    use alertlib::symbolize::SymbolizerConfig;
    use alertlib::taxonomy::AlertKind;
    use detect::attack_tagger::TaggerConfig;
    use detect::train::toy_training_model;

    fn alert(t: u64, kind: AlertKind, user: &str) -> Alert {
        Alert::new(SimTime::from_secs(t), kind, Entity::User(user.into()))
    }

    #[test]
    fn tag_stage_emits_one_outcome_per_alert() {
        let mut stage = TagStage::new(AttackTagger::new(
            toy_training_model(),
            TaggerConfig::default(),
        ));
        let input = vec![
            alert(0, AlertKind::DownloadSensitive, "eve"),
            alert(10, AlertKind::CompileKernelModule, "eve"),
            alert(20, AlertKind::LogWipe, "eve"),
        ];
        let mut out = Vec::new();
        stage.process_batch(&input, &mut out);
        assert_eq!(out.len(), input.len(), "1:1 contract");
        assert!(out.iter().any(|o| o.detection.is_some()));
    }

    #[test]
    fn detector_stage_clone_starts_equivalent() {
        let stage = DetectorStage::rules(RuleBasedDetector::with_default_rules());
        let mut a = stage.clone();
        let mut b = stage;
        let input = vec![
            alert(0, AlertKind::KnownMalwareDownload, "eve"),
            alert(1, AlertKind::LoginSuccess, "alice"),
        ];
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.process_batch(&input, &mut oa);
        b.process_batch(&input, &mut ob);
        assert_eq!(oa.len(), ob.len());
        for (x, y) in oa.iter().zip(&ob) {
            assert_eq!(x.detection, y.detection);
        }
    }

    #[test]
    fn response_blocks_once_per_source_and_notifies() {
        let bhr = BhrHandle::new();
        let mut resp = ResponseStage::new(bhr.clone(), true, None, "attack-tagger");
        let src: Ipv4Addr = "103.102.1.1".parse().unwrap();
        let d = Detection {
            ts: SimTime::from_secs(5),
            alert_index: 0,
            trigger: AlertKind::C2Communication,
            score: 0.9,
            stage: detect::Stage::Foothold,
        };
        let outcome = |t: u64| DetectOutcome {
            alert: alert(t, AlertKind::C2Communication, "eve").with_src(src),
            detection: Some(d.clone()),
            attack_score: 0.9,
        };
        let mut notes = Vec::new();
        resp.process_batch(&[outcome(5), outcome(6)], &mut notes);
        assert_eq!(notes.len(), 2, "every detection notifies");
        assert_eq!(resp.blocked_sources(), 1, "block deduplicated per source");
        assert!(bhr.is_blocked(SimTime::from_secs(10), src));
        assert!(notes[0].message().to_string().contains("preemption"));
    }

    fn detection() -> Detection {
        Detection {
            ts: SimTime::from_secs(5),
            alert_index: 0,
            trigger: AlertKind::C2Communication,
            score: 0.9,
            stage: detect::Stage::Foothold,
        }
    }

    fn outcome_at(t: u64, user: &str, src: Ipv4Addr) -> DetectOutcome {
        DetectOutcome {
            alert: alert(t, AlertKind::C2Communication, user).with_src(src),
            detection: Some(detection()),
            attack_score: 0.9,
        }
    }

    fn fast_retry() -> bhr::retry::RetryPolicy {
        bhr::retry::RetryPolicy {
            max_attempts: 12,
            base_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_secs(8),
            jitter_frac: 0.0,
            deadline: SimDuration::from_hours(1),
            breaker_threshold: 5,
            breaker_cooldown: SimDuration::from_secs(30),
        }
    }

    #[test]
    fn failed_blocks_retry_until_they_land() {
        use bhr::retry::FlakyBackend;
        let bhr = BhrHandle::with_backend(FlakyBackend::failing_first(2));
        let mut resp = ResponseStage::new(bhr.clone(), true, None, "attack-tagger")
            .with_retry(fast_retry(), 1);
        let src: Ipv4Addr = "103.102.1.1".parse().unwrap();
        let mut notes = Vec::new();
        resp.respond(None, &[outcome_at(5, "eve", src)], &mut notes);
        assert_eq!(notes.len(), 1, "notification still lands");
        assert!(!bhr.is_blocked(SimTime::from_secs(6), src), "RPC failed");
        assert_eq!(resp.pending_block_count(), 1);
        // End of stream: the flush drains the retry queue on schedule.
        resp.flush(&mut notes);
        assert!(bhr.is_blocked(SimTime::from_secs(100), src), "block landed");
        assert_eq!(resp.blocks_abandoned(), 0, "nothing permanently lost");
        assert_eq!(resp.blocks_retried(), 2);
        let commands: Vec<String> = bhr.audit_log().iter().map(|e| e.command.clone()).collect();
        assert_eq!(commands, vec!["block-failed", "block-failed", "block"]);
    }

    #[test]
    fn hopeless_blocks_are_abandoned_and_audited() {
        use bhr::retry::FlakyBackend;
        let bhr = BhrHandle::with_backend(FlakyBackend::new(1.0, 3));
        let policy = bhr::retry::RetryPolicy {
            max_attempts: 3,
            breaker_threshold: 0, // breaker off; exercise the cap alone
            ..fast_retry()
        };
        let mut resp =
            ResponseStage::new(bhr.clone(), true, None, "attack-tagger").with_retry(policy, 1);
        let src: Ipv4Addr = "103.102.1.2".parse().unwrap();
        let mut notes = Vec::new();
        resp.respond(None, &[outcome_at(5, "eve", src)], &mut notes);
        resp.flush(&mut notes);
        assert_eq!(resp.blocks_abandoned(), 1);
        assert_eq!(resp.pending_block_count(), 0);
        assert!(!bhr.is_blocked(SimTime::from_secs(10_000), src));
        let log = bhr.audit_log();
        assert!(log.iter().any(|e| e.command == "block-abandoned"));
        assert_eq!(
            log.iter().filter(|e| e.command == "block-failed").count(),
            3,
            "attempt cap respected"
        );
        // The intent is still recorded: the source counts as handled so
        // the stage will not re-decide it, and the audit trail shows why
        // no route exists.
        assert_eq!(resp.blocked_sources(), 1);
    }

    #[test]
    fn block_landing_exactly_at_the_deadline_is_not_abandoned() {
        use bhr::retry::FlakyBackend;
        // fast_retry (jitter 0) retries at +1s, +3s, +7s, +15s after the
        // first failure. With deadline = 7s the third retry lands
        // *exactly* on the boundary: per RetryPolicy ("past it the block
        // is abandoned") the boundary attempt is still inside the
        // budget, so a backend that recovers right after it gets probed
        // again and the block lands.
        let policy = bhr::retry::RetryPolicy {
            deadline: SimDuration::from_secs(7),
            ..fast_retry()
        };
        let bhr = BhrHandle::with_backend(FlakyBackend::failing_first(4));
        let mut resp =
            ResponseStage::new(bhr.clone(), true, None, "attack-tagger").with_retry(policy, 1);
        let src: Ipv4Addr = "103.102.2.1".parse().unwrap();
        let mut notes = Vec::new();
        resp.respond(None, &[outcome_at(100, "eve", src)], &mut notes);
        resp.flush(&mut notes);
        assert_eq!(
            resp.blocks_abandoned(),
            0,
            "the boundary attempt must not be the abandoning one"
        );
        assert!(bhr.is_blocked(SimTime::from_secs(200), src), "block landed");
        assert_eq!(resp.blocks_retried(), 4, "retries at +1, +3, +7, +15");
    }

    #[test]
    fn block_failing_past_the_deadline_is_abandoned() {
        use bhr::retry::FlakyBackend;
        // Same schedule, one more scripted failure: the +15s retry is
        // past the 7s deadline, so when it fails the block is abandoned
        // even though attempts remain.
        let policy = bhr::retry::RetryPolicy {
            deadline: SimDuration::from_secs(7),
            breaker_threshold: 0,
            ..fast_retry()
        };
        let bhr = BhrHandle::with_backend(FlakyBackend::failing_first(5));
        let mut resp =
            ResponseStage::new(bhr.clone(), true, None, "attack-tagger").with_retry(policy, 1);
        let src: Ipv4Addr = "103.102.2.2".parse().unwrap();
        let mut notes = Vec::new();
        resp.respond(None, &[outcome_at(100, "eve", src)], &mut notes);
        resp.flush(&mut notes);
        assert_eq!(resp.blocks_abandoned(), 1, "past-deadline failure gives up");
        assert!(!bhr.is_blocked(SimTime::from_secs(200), src));
        assert!(bhr
            .audit_log()
            .iter()
            .any(|e| e.command == "block-abandoned"));
    }

    #[test]
    fn breaker_half_open_probe_fires_exactly_at_the_cooldown_boundary() {
        use bhr::retry::FlakyBackend;
        // Two failures trip the breaker (threshold 2, cooldown 30s). A
        // block submitted while the breaker is open queues its first
        // attempt for the close instant; the backend has recovered by
        // then, so the probe at *exactly* `until` must land.
        let policy = bhr::retry::RetryPolicy {
            breaker_threshold: 2,
            breaker_cooldown: SimDuration::from_secs(30),
            ..fast_retry()
        };
        let bhr = BhrHandle::with_backend(FlakyBackend::failing_first(2));
        let mut resp =
            ResponseStage::new(bhr.clone(), true, None, "attack-tagger").with_retry(policy, 1);
        let mut notes = Vec::new();
        let s1: Ipv4Addr = "10.1.0.1".parse().unwrap();
        let s2: Ipv4Addr = "10.1.0.2".parse().unwrap();
        let s3: Ipv4Addr = "10.1.0.3".parse().unwrap();
        resp.respond(None, &[outcome_at(5, "u1", s1)], &mut notes);
        resp.respond(None, &[outcome_at(5, "u2", s2)], &mut notes);
        assert!(
            bhr.audit_log().iter().any(|e| e.command == "circuit-open"),
            "two consecutive failures trip the breaker"
        );
        // Submitted while open: queued untried, probe scheduled for the
        // breaker close at t = 5 + 30 = 35.
        resp.respond(None, &[outcome_at(10, "u3", s3)], &mut notes);
        assert!(!bhr.is_blocked(SimTime::from_secs(34), s3), "held open");
        // A detection at exactly the boundary closes the breaker and
        // releases the probe in the same advance.
        let s4: Ipv4Addr = "10.1.0.4".parse().unwrap();
        resp.respond(None, &[outcome_at(35, "u4", s4)], &mut notes);
        let log = bhr.audit_log();
        let close = log
            .iter()
            .find(|e| e.command == "circuit-close")
            .expect("breaker closed at the boundary");
        assert_eq!(close.ts, SimTime::from_secs(35));
        assert!(
            bhr.is_blocked(SimTime::from_secs(36), s3),
            "boundary probe landed"
        );
        resp.flush(&mut notes);
        assert_eq!(resp.blocks_abandoned(), 0, "nothing permanently lost");
        for s in [s1, s2, s3, s4] {
            assert!(bhr.is_blocked(SimTime::from_secs(100_000), s));
        }
    }

    #[test]
    fn circuit_breaker_trips_and_recovers() {
        use bhr::retry::FlakyBackend;
        // Fails the first 6 RPCs, then recovers: the breaker (threshold
        // 3) must trip, hold further RPCs, then close after cooldown and
        // let the queued blocks through.
        let bhr = BhrHandle::with_backend(FlakyBackend::failing_first(6));
        let policy = bhr::retry::RetryPolicy {
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_secs(30),
            ..fast_retry()
        };
        let mut resp =
            ResponseStage::new(bhr.clone(), true, None, "attack-tagger").with_retry(policy, 1);
        let mut notes = Vec::new();
        let srcs: Vec<Ipv4Addr> = (1..=4).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect();
        for (i, src) in srcs.iter().enumerate() {
            resp.respond(
                None,
                &[outcome_at(10 * (i as u64 + 1), &format!("u{i}"), *src)],
                &mut notes,
            );
        }
        let log = bhr.audit_log();
        assert!(
            log.iter().any(|e| e.command == "circuit-open"),
            "breaker tripped: {log:?}"
        );
        resp.flush(&mut notes);
        assert!(bhr.audit_log().iter().any(|e| e.command == "circuit-close"));
        assert_eq!(resp.blocks_abandoned(), 0);
        for src in &srcs {
            assert!(
                bhr.is_blocked(SimTime::from_secs(100_000), *src),
                "{src} must eventually land"
            );
        }
    }

    #[test]
    fn failed_notifications_retry_too() {
        struct FlakyNotify {
            fail_first: u32,
            calls: u32,
        }
        impl NotifyBackend for FlakyNotify {
            fn try_notify(&mut self, _: &OperatorNotification) -> Result<(), BlockError> {
                self.calls += 1;
                if self.calls <= self.fail_first {
                    Err(BlockError::Timeout)
                } else {
                    Ok(())
                }
            }
        }
        let bhr = BhrHandle::new();
        let mut resp = ResponseStage::new(bhr.clone(), false, None, "attack-tagger")
            .with_retry(fast_retry(), 1)
            .with_notify_backend(FlakyNotify {
                fail_first: 2,
                calls: 0,
            });
        let src: Ipv4Addr = "103.102.1.3".parse().unwrap();
        let mut notes = Vec::new();
        resp.respond(None, &[outcome_at(5, "eve", src)], &mut notes);
        assert!(notes.is_empty(), "first delivery failed");
        resp.flush(&mut notes);
        assert_eq!(notes.len(), 1, "notification re-delivered");
        assert_eq!(resp.notifications_retried(), 2);
        assert_eq!(resp.notifications_abandoned(), 0);
    }

    #[test]
    fn fault_stage_is_batch_boundary_invariant() {
        use scenario::faults::{ClockSkewConfig, FaultPlan};
        use scenario::{record_stream, RecordStreamConfig};
        let records = record_stream(
            &RecordStreamConfig {
                scan_records: 200,
                benign_flows: 100,
                exec_records: 100,
                users: 10,
                ..RecordStreamConfig::default()
            },
            &mut simnet::rng::SimRng::seed(8),
        );
        let plan = FaultPlan::clean(3)
            .with_loss(0.1)
            .with_duplication(0.05)
            .with_reorder(8)
            .with_clock(ClockSkewConfig {
                max_skew: SimDuration::from_secs(10),
                jitter: SimDuration::from_secs(1),
            });
        let run = |batch: usize| {
            let mut stage = FaultStage::new(plan.clone());
            let mut out = Vec::new();
            for chunk in records.chunks(batch) {
                stage.process_batch(chunk, &mut out);
            }
            stage.flush(&mut out);
            (out, stage.stats())
        };
        let (a, sa) = run(1);
        let (b, sb) = run(97);
        assert_eq!(a, b, "batching must be unobservable");
        assert_eq!(sa, sb);
    }

    #[test]
    fn monitor_stage_runs_batched_without_an_engine() {
        use simnet::flow::{Flow, FlowId};
        // A monitor fleet handed over from a MonitorHub, driven as a
        // batched stage against a synthesized context.
        let topo = simnet::topology::NcsaTopologyBuilder::default().build();
        let mut stage = MonitorStage::new(telemetry::MonitorHub::standard().into_monitors())
            .with_topology(topo);
        let actions: Vec<TimedAction> = (0..5u64)
            .map(|i| {
                let t = SimTime::from_secs(i);
                TimedAction {
                    time: t,
                    direction: Direction::Inbound,
                    action: Action::Flow(Flow::probe(
                        FlowId(i),
                        t,
                        "103.102.1.1".parse().unwrap(),
                        "141.142.2.9".parse().unwrap(),
                        22,
                    )),
                }
            })
            .collect();
        let mut records = Vec::new();
        stage.process_batch(&actions, &mut records);
        assert_eq!(records.len(), 5, "each probe yields a conn record");
        stage.flush(&mut records);
        assert!(records.len() >= 5, "flush may add windowed scan notices");
    }

    #[test]
    fn symbolize_and_filter_stages_compose() {
        use simnet::flow::{ConnState, Direction, FlowId, Proto, Service};
        let mut sym = SymbolizeStage::new(Symbolizer::new(SymbolizerConfig::default()));
        let mut filt = FilterStage::new(ScanFilter::new(FilterConfig::default()));
        let records: Vec<LogRecord> = (0..50u64)
            .map(|i| {
                LogRecord::Conn(telemetry::record::ConnRecord {
                    ts: SimTime::from_secs(i),
                    uid: FlowId(i),
                    orig_h: "103.102.1.1".parse().unwrap(),
                    orig_p: 40_000,
                    resp_h: "141.142.2.9".parse().unwrap(),
                    resp_p: 22,
                    proto: Proto::Tcp,
                    service: Service::Ssh,
                    duration: simnet::time::SimDuration::ZERO,
                    orig_bytes: 0,
                    resp_bytes: 0,
                    conn_state: ConnState::S0,
                    direction: Direction::Inbound,
                })
            })
            .collect();
        let mut alerts = Vec::new();
        sym.process_batch(&records, &mut alerts);
        assert_eq!(alerts.len(), 50);
        let mut admitted = Vec::new();
        filt.process_batch(&alerts, &mut admitted);
        assert!(
            admitted.len() < 5,
            "scan flood collapses: {}",
            admitted.len()
        );
        assert_eq!(filt.stats().seen, 50);
    }
}
