//! The two kinds of run: end-to-end (tracing off) for one workload, and
//! the traced run that derives per-layer metrics for every workload.

use std::sync::Arc;
use std::time::Instant;

use simnet::alloc_count;
use telemetry::record::LogRecord;
use testbed::StreamReport;

use crate::calib::Calibration;
use crate::driver::{self, identical, Driver};
use crate::metrics::{peak_rss_mb, RunResult};
use crate::stats::{median, relative_iqr, supported_tail};
use crate::tenant::{self, Ops, TENANTS};
use crate::trace::{Layer, Profile, Tracer};
use crate::workload::{Inputs, PipelineSpec, Workload};
use crate::Args;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed passes per measurement, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Fewest traced passes per workload in the traced run.
const MIN_TRACED_PASSES: usize = 2;
/// Share of traced wall time the layer spans must account for.
const COVERAGE_RANGE: (f64, f64) = (0.80, 1.0);
/// Where the traced run writes its spans.
const TRACE_DIR: &str = "perfbench/out";

fn check(what: &str, ok: bool) -> bool {
    if !ok {
        eprintln!("perfbench: FAILED {what}");
    }
    ok
}

/// Operations of one pipeline lifetime: the lifetime itself, every block
/// decision and every notification; abandoned deliveries failed.
fn response_ops(r: &StreamReport) -> Ops {
    Ops {
        attempted: 1 + r.blocked_sources + r.notifications.len() as u64 + r.notifications_abandoned,
        failed: r.blocks_abandoned + r.notifications_abandoned,
    }
}

/// The program's own executor on one workload: the reference every other
/// path must reproduce byte for byte.
fn reference(spec: &PipelineSpec, records: &[LogRecord]) -> StreamReport {
    spec.builder().build().run_inline(records.iter().cloned())
}

fn tenant_ops(pass: &tenant::TenantPass) -> Ops {
    let mut ops = pass.ops;
    for report in pass.segments.iter().flatten() {
        ops.add(response_ops(report));
    }
    ops
}

/// End-to-end metrics of one workload, tracing off.
pub fn untraced(args: &Args) -> RunResult {
    let w = args.workload;
    let mut calib = Calibration::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(Inputs::generate(w, args.seed));
        let dt = t0.elapsed().as_secs_f64();
        setup_s.push(Calibration::to_reference(dt, calib.block(dt)));
    }
    let Inputs {
        records,
        truth,
        spec,
    } = inputs.expect("at least one set-up");
    let spec = Arc::new(spec);
    let n = records.len() as f64;
    eprintln!(
        "perfbench: {} seed {}: {} records, set-up {:?} s",
        w.name(),
        args.seed,
        records.len(),
        setup_s
    );

    let reference = reference(&spec, &records);
    let mut ops = response_ops(&reference);
    let (replayed, _) = Driver::new(&spec, None).run(&records, &mut Tracer::off());
    let mut correct = check(
        "traced driver is byte-identical to run_inline",
        identical(&replayed, &reference),
    );

    let offered = match w {
        Workload::TenantRestart => n * f64::from(TENANTS),
        _ => n,
    };
    let mut pass_s = Vec::new();
    let mut reference_s = Vec::new();
    let mut allocs = Vec::new();
    let mut scored = None;
    let start = Instant::now();
    while pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let a0 = alloc_count::total();
        let (raw, at_reference) = match w {
            Workload::Campaign | Workload::FaultStorm => {
                let pipeline = spec.builder().build();
                let t0 = Instant::now();
                let report = pipeline.run_inline(records.iter().cloned());
                let raw = t0.elapsed().as_secs_f64();
                correct &= check(
                    "run_inline is deterministic",
                    identical(&report, &reference),
                );
                ops.add(response_ops(&report));
                (raw, Calibration::to_reference(raw, calib.block(raw)))
            }
            Workload::TenantRestart => {
                let pass = tenant::pass(&spec, &records, &mut Tracer::off(), Some(&mut calib));
                correct &= check(
                    "stitched tenant notifications equal run_inline",
                    tenant::stitched_identical(&pass, &reference),
                );
                ops.add(tenant_ops(&pass));
                let at_reference = pass.reference_s.unwrap_or(f64::NAN);
                let raw = pass.wall_s;
                scored = Some(pass);
                (raw, at_reference)
            }
        };
        // Allocations of the pass itself: calibration allocates nothing.
        allocs.push((alloc_count::total() - a0) as f64 / offered);
        pass_s.push(raw);
        reference_s.push(at_reference);
    }
    let scored = match scored {
        Some(pass) => tenant::stitched_report(pass).unwrap_or(reference),
        None => reference,
    };
    let eval = testbed::evaluate_campaign(&scored, &truth);
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    for (what, v) in [("raw", &pass_s), ("reference-speed", &reference_s)] {
        if let Some((p, tail)) = supported_tail(v) {
            eprintln!(
                "perfbench: {} passes, {what} time: median {:.4} s, p{} {tail:.4} s, \
                 IQR/median {:.3}",
                v.len(),
                med(v),
                p * 100.0,
                relative_iqr(v).unwrap_or(f64::NAN)
            );
        }
    }

    let mut out = RunResult {
        correct,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: Vec::new(),
    };
    out.push("records_per_s", "records/s", offered / med(&reference_s));
    out.push("preemption_rate", "ratio", eval.overall.preemption_rate);
    out.push("fp_per_million", "1/M", eval.fp_per_million_background);
    out.push("lead_median_h", "h", eval.overall.lead.median_secs / 3600.0);
    out.push("allocs_per_record", "allocs/record", med(&allocs));
    out.push("peak_rss_mb", "MB", peak_rss_mb());
    out.push("setup_s", "s", med(&setup_s));
    out
}

/// Work counted over the traced passes of one workload.
#[derive(Default)]
struct Totals {
    passes: u64,
    offered: u64,
    records: u64,
    alerts: u64,
    admitted: u64,
    tagger_detections: u64,
    detections: u64,
    promotions: u64,
    dups: u64,
    blocks_retried: u64,
    blocks_abandoned: u64,
}

impl Totals {
    fn add(&mut self, report: &StreamReport, counts: crate::driver::Counts) {
        self.passes += 1;
        self.offered += counts.offered;
        self.records += report.stats.records;
        self.alerts += report.stats.alerts;
        self.admitted += report.stats.admitted;
        self.tagger_detections += counts.tagger_detections;
        self.detections += report.stats.detections;
        self.promotions += report.correlated_promotions;
        self.dups += report.duplicates_suppressed;
        self.blocks_retried += report.blocks_retried;
        self.blocks_abandoned += report.blocks_abandoned;
    }
}

/// What the tenant workload's service passes add to the traced run.
#[derive(Default)]
struct ServiceTotals {
    passes: u64,
    restarts: u64,
    snapshot_bytes: u64,
    tenant_syms: u64,
    restart_s: Vec<f64>,
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Per-layer metrics of every workload, from traced passes alternated
/// with untraced ones.
pub fn traced(args: &Args) -> RunResult {
    let budget = args.seconds / Workload::ALL.len() as f64;
    let mut out = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut kept: Vec<(String, Tracer)> = Vec::new();
    for w in Workload::ALL {
        let Inputs { records, spec, .. } = Inputs::generate(w, args.seed);
        let spec = Arc::new(spec);
        let reference = reference(&spec, &records);
        let mut ops = response_ops(&reference);
        let mut tr = Tracer::on();
        let mut tr_service = Tracer::on();
        let mut profile = Profile::default();
        let mut totals = Totals::default();
        let mut service = ServiceTotals::default();
        let mut untraced_s = Vec::new();
        let mut traced_s = Vec::new();
        let start = Instant::now();
        // Pass 0 is warm-up: it also grows the span buffers to size, so
        // later passes record without allocating.
        for pass in 0.. {
            let warm = pass == 0;
            let (untraced, traced) = match w {
                Workload::Campaign | Workload::FaultStorm => {
                    let pipeline = spec.builder().build();
                    let t0 = Instant::now();
                    drop(pipeline.run_inline(records.iter().cloned()));
                    let untraced = t0.elapsed().as_secs_f64();
                    tr.clear();
                    let t0 = Instant::now();
                    let (report, counts) = Driver::new(&spec, None).run(&records, &mut tr);
                    let traced = t0.elapsed().as_secs_f64();
                    out.correct &= check(
                        "traced driver is byte-identical to run_inline",
                        identical(&report, &reference),
                    );
                    ops.add(response_ops(&report));
                    if !warm {
                        profile.add(&tr, (traced * 1e9) as u64);
                        totals.add(&report, counts);
                    }
                    (untraced, traced)
                }
                Workload::TenantRestart => {
                    let plain = tenant::pass(&spec, &records, &mut Tracer::off(), None);
                    ops.add(tenant_ops(&plain));
                    tr_service.clear();
                    let svc = tenant::pass(&spec, &records, &mut tr_service, None);
                    out.correct &= check(
                        "stitched tenant notifications equal run_inline",
                        tenant::stitched_identical(&svc, &reference)
                            && tenant::stitched_identical(&plain, &reference),
                    );
                    ops.add(tenant_ops(&svc));
                    tr.clear();
                    let t0 = Instant::now();
                    let (report, counts) = tenant::replay(&spec, &records, &mut tr);
                    let replay_s = t0.elapsed().as_secs_f64();
                    out.correct &= check(
                        "tenant-scoped replay has run_inline's detections",
                        driver::same_detections(&report, &reference),
                    );
                    let service_last = svc.segments.first().and_then(|s| s.last());
                    out.correct &= check(
                        "tenant-scoped replay has the service's campaign graph",
                        service_last.is_some_and(|l| l.campaigns == report.campaigns),
                    );
                    if !warm {
                        profile.add(&tr_service, (svc.wall_s * 1e9) as u64);
                        profile.add(&tr, (replay_s * 1e9) as u64);
                        totals.add(&report, counts);
                        service.passes += 1;
                        service.restarts += svc.restart_s.len() as u64;
                        service.snapshot_bytes += svc.snapshot_bytes;
                        service.tenant_syms = svc.tenant_syms;
                        service.restart_s.extend(&plain.restart_s);
                    }
                    (plain.wall_s, svc.wall_s)
                }
            };
            if !warm {
                untraced_s.push(untraced);
                traced_s.push(traced);
            }
            if traced_s.len() >= MIN_TRACED_PASSES && start.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        out.attempted += ops.attempted;
        out.failed += ops.failed;

        let p = |metric: &str| format!("{}.{metric}", w.name());
        let ns = |l: Layer| profile.get(l).self_ns;
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let overhead = med(&traced_s) / med(&untraced_s) - 1.0;
        let coverage = profile.coverage();
        out.correct &= check(
            &format!(
                "{}: trace coverage {coverage:.3} within {COVERAGE_RANGE:?}",
                w.name()
            ),
            (COVERAGE_RANGE.0..=COVERAGE_RANGE.1).contains(&coverage),
        );
        eprintln!(
            "perfbench: {} traced {} passes, overhead {overhead:.3}, coverage {coverage:.3}",
            w.name(),
            traced_s.len()
        );
        for l in Layer::ALL {
            let t = profile.get(l);
            if t.calls > 0 {
                eprintln!(
                    "perfbench:   {:<10} {:>10} calls {:>8.1} ms/pass self {:>6.1}%",
                    l.name(),
                    t.calls,
                    t.self_ns as f64 / 1e6 / totals.passes.max(1) as f64,
                    100.0 * t.self_ns as f64 / profile.wall_ns.max(1) as f64
                );
            }
        }

        out.push(
            p("symbolize.ns_per_record"),
            "ns",
            ratio(ns(Layer::Symbolize), totals.records),
        );
        out.push(
            p("symbolize.alerts_per_record"),
            "ratio",
            ratio(totals.alerts, totals.records),
        );
        out.push(
            p("symbolize.allocs_per_record"),
            "allocs/record",
            ratio(profile.get(Layer::Symbolize).self_allocs, totals.records),
        );
        out.push(
            p("filter.ns_per_alert"),
            "ns",
            ratio(ns(Layer::Filter), totals.alerts),
        );
        out.push(
            p("filter.admit_ratio"),
            "ratio",
            ratio(totals.admitted, totals.alerts),
        );
        out.push(
            p("tagger.ns_per_alert"),
            "ns",
            ratio(ns(Layer::Tagger), totals.admitted),
        );
        out.push(
            p("tagger.detect_ratio"),
            "ratio",
            ratio(totals.tagger_detections, totals.admitted),
        );
        out.push(
            p("correlate.ns_per_outcome"),
            "ns",
            ratio(ns(Layer::Correlate), totals.admitted),
        );
        out.push(
            p("correlate.promotions"),
            "count",
            ratio(totals.promotions, totals.passes),
        );
        out.push(
            p("respond.ns_per_detection"),
            "ns",
            ratio(ns(Layer::Respond), totals.detections),
        );
        if w == Workload::FaultStorm {
            out.push(
                p("tagger.dups_suppressed"),
                "count",
                ratio(totals.dups, totals.passes),
            );
            out.push(
                p("respond.blocks_retried"),
                "count",
                ratio(totals.blocks_retried, totals.passes),
            );
            out.push(
                p("respond.blocks_abandoned"),
                "count",
                ratio(totals.blocks_abandoned, totals.passes),
            );
            out.push(
                p("faults.ns_per_record"),
                "ns",
                ratio(ns(Layer::Faults), totals.offered),
            );
            out.push(
                p("faults.out_per_in"),
                "ratio",
                ratio(totals.records, totals.offered),
            );
        }
        if w == Workload::TenantRestart {
            let per_restart_s = |l: Layer| ns(l) as f64 / 1e9 / service.restarts.max(1) as f64;
            out.push(
                p("rescope.ns_per_record"),
                "ns",
                ratio(ns(Layer::Rescope), totals.records),
            );
            out.push(
                p("rescope.allocs_per_record"),
                "allocs/record",
                ratio(profile.get(Layer::Rescope).self_allocs, totals.records),
            );
            out.push(
                p("service.ingest_wait_s"),
                "s",
                ns(Layer::Ingest) as f64 / 1e9 / service.passes.max(1) as f64,
            );
            out.push(p("service.restart_s"), "s", med(&service.restart_s));
            out.push(p("intern.tenant_syms"), "count", service.tenant_syms as f64);
            out.push(p("codec.snapshot_s"), "s", per_restart_s(Layer::Snapshot));
            out.push(p("codec.encode_s"), "s", per_restart_s(Layer::Encode));
            out.push(p("codec.decode_s"), "s", per_restart_s(Layer::Decode));
            out.push(p("codec.restore_s"), "s", per_restart_s(Layer::Restore));
            out.push(
                p("codec.snapshot_mb"),
                "MB",
                service.snapshot_bytes as f64 / 1e6 / service.restarts.max(1) as f64,
            );
            kept.push((format!("{}-service", w.name()), tr_service));
        }
        out.push(p("trace.overhead_frac"), "ratio", overhead);
        out.push(p("trace.coverage_frac"), "ratio", coverage);
        kept.push((w.name().to_string(), tr));
    }
    write_spans(&kept);
    out
}

/// Write the last traced pass of each workload as `<dir>/trace-<name>.tsv`.
fn write_spans(kept: &[(String, Tracer)]) {
    use std::io::Write as _;
    let write = |name: &str, tr: &Tracer| -> std::io::Result<()> {
        std::fs::create_dir_all(TRACE_DIR)?;
        let path = format!("{TRACE_DIR}/trace-{name}.tsv");
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        tr.write_tsv(&mut f)?;
        f.flush()
    };
    for (name, tr) in kept {
        if let Err(e) = write(name, tr) {
            eprintln!("perfbench: could not write spans of {name}: {e}");
        }
    }
}
