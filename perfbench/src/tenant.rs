//! The `tenant_restart` workload: one producer replays the record stream
//! for several tenants through one `ServiceHandle`, and the whole service
//! restarts at evenly spaced cut points.
//!
//! The producer is a closed loop: blocking `ingest` waits whenever the
//! service's bounded queue is full, so the service sets the pace. A
//! restart snapshots every tenant, encodes the snapshots as JSON, shuts
//! the service down, spawns a fresh one, decodes and restores.

use std::sync::Arc;
use std::time::Instant;

use simnet::intern::{SymScope, TenantId};
use telemetry::record::LogRecord;
use testbed::{ServiceConfig, ServiceError, ServiceHandle, ServiceSnapshot, StreamReport};

use crate::calib::Calibration;
use crate::driver::{Counts, Driver};
use crate::trace::{Layer, Tracer};
use crate::workload::PipelineSpec;

/// Tenants sharing the service.
pub const TENANTS: u32 = 4;
/// Records per ingest call.
pub const CHUNK: usize = 4_096;
/// Service restarts per pass.
pub const RESTARTS: usize = 2;
/// A tenant id never ingested: snapshotting it is a queue barrier that
/// returns once every batch queued before it has been processed.
const BARRIER: TenantId = TenantId(u32::MAX);

/// Service operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record<T, E>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        if result.is_err() {
            self.failed += 1;
        }
        result.ok()
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one pass produced.
pub struct TenantPass {
    pub wall_s: f64,
    /// The pass at reference machine speed, when calibrated.
    pub reference_s: Option<f64>,
    /// Per tenant, the final report of every service lifetime, in order.
    pub segments: Vec<Vec<StreamReport>>,
    /// Wall time of each restart.
    pub restart_s: Vec<f64>,
    /// Encoded snapshot bytes over all restarts.
    pub snapshot_bytes: u64,
    /// Symbols resident in the tenants' tables at the end of the stream.
    pub tenant_syms: u64,
    pub ops: Ops,
}

fn tenants() -> impl Iterator<Item = TenantId> {
    (1..=TENANTS).map(TenantId)
}

fn spawn(spec: &Arc<PipelineSpec>) -> ServiceHandle {
    let spec = Arc::clone(spec);
    ServiceHandle::spawn(ServiceConfig::default(), move |_, scope| {
        spec.builder().scope(scope).build()
    })
}

/// Wait until the service has processed everything queued so far.
fn barrier(svc: &ServiceHandle, ops: &mut Ops) {
    let r = svc.snapshot(BARRIER);
    ops.record(match r {
        Err(ServiceError::UnknownTenant(_)) => Ok(()),
        _ => Err(()),
    });
}

/// Collect one service lifetime's reports into per-tenant segments.
fn collect(segments: &mut [Vec<StreamReport>], reports: Vec<(TenantId, StreamReport)>) {
    for (t, report) in reports {
        if let Some(seg) = segments.get_mut((t.0 as usize).wrapping_sub(1)) {
            seg.push(report);
        }
    }
}

/// A pass timed in stretches that end where the service is idle: after
/// a queue barrier, after a restart and at shutdown. With a calibration,
/// each stretch is followed by a kernel block of its own length, so a
/// 2-second pass is paired with the machine's speed at a finer grain.
struct Stretches<'a> {
    calib: Option<&'a mut Calibration>,
    start: Instant,
    wall_s: f64,
    reference_s: f64,
}

impl Stretches<'_> {
    /// End the current stretch and return its length.
    fn lap(&mut self) -> f64 {
        let dt = self.start.elapsed().as_secs_f64();
        self.wall_s += dt;
        if let Some(calib) = self.calib.as_deref_mut() {
            self.reference_s += Calibration::to_reference(dt, calib.block(dt));
        }
        self.start = Instant::now();
        dt
    }
}

/// One full pass over `records` for every tenant, restarts included.
pub fn pass(
    spec: &Arc<PipelineSpec>,
    records: &[LogRecord],
    tr: &mut Tracer,
    calib: Option<&mut Calibration>,
) -> TenantPass {
    let calibrated = calib.is_some();
    let mut clock = Stretches {
        calib,
        start: Instant::now(),
        wall_s: 0.0,
        reference_s: 0.0,
    };
    let mut ops = Ops::default();
    let mut segments: Vec<Vec<StreamReport>> = (0..TENANTS).map(|_| Vec::new()).collect();
    let mut restart_s = Vec::with_capacity(RESTARTS);
    let mut snapshot_bytes = 0u64;
    let chunks = records.len().div_ceil(CHUNK);
    let cuts: Vec<usize> = (1..=RESTARTS)
        .map(|k| k * chunks / (RESTARTS + 1))
        .collect();

    let mut svc = tr.span(Layer::Spawn, || spawn(spec));
    for (i, chunk) in records.chunks(CHUNK).enumerate() {
        if cuts.contains(&i) {
            tr.span(Layer::Ingest, || barrier(&svc, &mut ops));
            clock.lap();
            let restart = tr.open(Layer::Restart);
            let mut wire = Vec::with_capacity(TENANTS as usize);
            for t in tenants() {
                let snap = tr.span(Layer::Snapshot, || svc.snapshot(t));
                if let Some(snap) = ops.record(snap) {
                    wire.push(tr.span(Layer::Encode, || snap.to_json()));
                }
            }
            collect(&mut segments, tr.span(Layer::Shutdown, || svc.shutdown()));
            svc = tr.span(Layer::Spawn, || spawn(spec));
            for json in &wire {
                snapshot_bytes += json.len() as u64;
                let snap = tr.span(Layer::Decode, || ServiceSnapshot::from_json(json));
                if let Some(snap) = ops.record(snap) {
                    ops.record(tr.span(Layer::Restore, || svc.restore(snap)));
                }
            }
            tr.close(restart);
            restart_s.push(clock.lap());
        }
        let batch = tr.open(Layer::Batch);
        for t in tenants() {
            let owned = tr.span(Layer::Generate, || chunk.to_vec());
            ops.record(tr.span(Layer::Ingest, || svc.ingest(t, owned)));
        }
        tr.close(batch);
        tr.next_batch();
    }
    tr.span(Layer::Ingest, || barrier(&svc, &mut ops));
    let tenant_syms = tenants()
        .filter_map(|t| svc.symbols().get(t))
        .map(|s| s.len() as u64)
        .sum();
    collect(&mut segments, tr.span(Layer::Shutdown, || svc.shutdown()));
    clock.lap();
    TenantPass {
        wall_s: clock.wall_s,
        reference_s: calibrated.then_some(clock.reference_s),
        segments,
        restart_s,
        snapshot_bytes,
        tenant_syms,
        ops,
    }
}

/// Every tenant's notifications, stitched across service lifetimes,
/// must equal the uninterrupted reference byte for byte, and the last
/// lifetime's cumulative counters and filter state must equal the
/// reference's. (A restored
/// session reports only its own lifetime, so the last segment alone
/// cannot match.)
pub fn stitched_identical(pass: &TenantPass, reference: &StreamReport) -> bool {
    let want = bench::detection_bytes(reference);
    pass.segments.len() == TENANTS as usize
        && pass.segments.iter().all(|segs| {
            segs.len() == RESTARTS + 1
                && segs.iter().map(bench::detection_bytes).collect::<String>() == want
                && segs.last().is_some_and(|last| {
                    last.stats == reference.stats && last.filter == reference.filter
                })
        })
}

/// One tenant's stitched report (the last lifetime's report carrying every
/// lifetime's notifications), for scoring.
pub fn stitched_report(mut pass: TenantPass) -> Option<StreamReport> {
    let segs = pass.segments.swap_remove(0);
    let mut notes = Vec::new();
    let mut last = None;
    for seg in segs {
        notes.extend(seg.notifications.iter().cloned());
        last = Some(seg);
    }
    let mut report = last?;
    report.notifications = notes;
    Some(report)
}

/// The service worker's per-ingest step, reassembled for one tenant:
/// rescope every record into the tenant's scope (one span per batch of
/// `LogRecord::rescope` calls), then run the batch through the stages.
pub fn replay(
    spec: &PipelineSpec,
    records: &[LogRecord],
    tr: &mut Tracer,
) -> (StreamReport, Counts) {
    let global = SymScope::global();
    let scope = SymScope::fresh();
    let mut driver = Driver::new(spec, Some(&scope));
    let mut scoped = Vec::with_capacity(CHUNK);
    for chunk in records.chunks(CHUNK) {
        scoped.clear();
        tr.span(Layer::Rescope, || {
            scoped.extend(chunk.iter().map(|r| r.rescope(&global, &scope)))
        });
        driver.process(&scoped, tr);
    }
    driver.flush(tr);
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::same_detections;
    use crate::workload::tests::small;
    use crate::workload::Workload;

    #[test]
    fn restarted_tenants_stitch_to_run_inline_at_small_scale() {
        let inputs = small(Workload::TenantRestart, 5);
        let spec = Arc::new(inputs.spec);
        let records = inputs.records;
        assert!(
            records.len() > (RESTARTS + 1) * CHUNK,
            "every segment ingests"
        );
        let reference = spec.builder().build().run_inline(records.iter().cloned());
        let pass = pass(&spec, &records, &mut Tracer::on(), None);
        assert_eq!(pass.ops.failed, 0);
        assert_eq!(pass.restart_s.len(), RESTARTS);
        assert!(pass.snapshot_bytes > 0 && pass.tenant_syms > 0);
        assert!(stitched_identical(&pass, &reference));
        // A restored session reports only its own lifetime.
        let last = pass.segments[0].last().expect("segments");
        assert_ne!(
            bench::detection_bytes(last),
            bench::detection_bytes(&reference)
        );
        let (replayed, _) = replay(&spec, &records, &mut Tracer::off());
        assert!(same_detections(&replayed, &reference));
        // Both tenant paths intern in stream order: same campaign graph.
        assert_eq!(replayed.campaigns, last.campaigns);
    }
}
