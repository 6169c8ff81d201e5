//! Background traffic: mass scanners, daily alert volume, Fig. 1 flows.
//!
//! Calibrated to the paper's published numbers:
//!
//! - Fig. 2: **94,238 alerts/day on average (σ = 23,547)**, of which
//!   ~80 K are repeated port/vulnerability scans (Insight 3).
//! - Table I: **25 M alerts over 24 years** reduced to ~191 K by the
//!   repeated-scan filter.
//! - Fig. 1: one mass scanner probing the /16 (10,000 sampled flows), a
//!   smaller scanner, ~17 K legitimate connections, and a two-edge real
//!   attack, totalling ≈29 K nodes and ≈27 K edges.

use std::net::Ipv4Addr;

use alertlib::alert::{Alert, Entity};
use alertlib::taxonomy::AlertKind;
use simnet::flow::{Flow, FlowId};
use simnet::rng::{SimRng, Zipf};
use simnet::time::{SimDuration, SimTime, NANOS_PER_DAY};

/// Daily alert volume model (Fig. 2).
#[derive(Debug, Clone)]
pub struct VolumeModel {
    pub daily_mean: f64,
    pub daily_std: f64,
    /// Fraction of daily alerts that are repeated scans (~80K/94K).
    pub scan_fraction: f64,
    /// Number of distinct scanner sources active per day.
    pub scanners_per_day: usize,
    /// Number of distinct legitimate/attempt sources per day.
    pub legit_sources_per_day: usize,
}

impl Default for VolumeModel {
    fn default() -> Self {
        VolumeModel {
            daily_mean: 94_238.0,
            daily_std: 23_547.0,
            scan_fraction: 80_000.0 / 94_238.0,
            scanners_per_day: 120,
            legit_sources_per_day: 2_000,
        }
    }
}

/// Kinds of background alerts and their relative weights within the
/// non-scan remainder.
const OTHER_KINDS: &[(AlertKind, f64)] = &[
    (AlertKind::LoginSuccess, 5.0),
    (AlertKind::LoginFailed, 3.0),
    (AlertKind::JobSubmit, 3.0),
    (AlertKind::FileTransfer, 2.0),
    (AlertKind::BruteForcePassword, 1.5),
    (AlertKind::VulnScan, 1.0),
    (AlertKind::SoftwareInstall, 0.5),
];

/// Sample the alert count for one day.
pub fn sample_daily_volume(model: &VolumeModel, rng: &mut SimRng) -> u64 {
    rng.normal(model.daily_mean, model.daily_std).max(1_000.0) as u64
}

/// Stream one day's background alerts through `sink`, returning the count.
/// Alerts are generated in time order and never materialized as a batch —
/// this is how the 25 M-alert Table I experiment stays in constant memory.
pub fn stream_day(
    model: &VolumeModel,
    rng: &mut SimRng,
    day_start: SimTime,
    sink: &mut impl FnMut(Alert),
) -> u64 {
    let total = sample_daily_volume(model, rng);
    let scans = (total as f64 * model.scan_fraction) as u64;
    let zipf_scanners = Zipf::new(model.scanners_per_day.max(1), 1.2);
    let other_weights: Vec<f64> = OTHER_KINDS.iter().map(|(_, w)| *w).collect();
    let step = NANOS_PER_DAY / total.max(1);
    let mut t = day_start;
    // Scanner address pool for the day, derived deterministically.
    let day_tag = day_start.day_index() as u32;
    let scanner_addr = |rank: usize| -> Ipv4Addr {
        let x = (rank as u32)
            .wrapping_mul(2_654_435_761)
            .wrapping_add(day_tag * 97);
        Ipv4Addr::from(0x0100_0000u32 | (x % 0xDE00_0000))
    };
    for i in 0..total {
        t += SimDuration::from_nanos(step);
        let alert = if i < scans {
            let src = scanner_addr(zipf_scanners.sample(rng));
            let dst = simnet::addr::ncsa_production().nth(rng.range_u64(0, 65_536));
            let kind = if rng.chance(0.85) {
                AlertKind::PortScan
            } else {
                AlertKind::AddressSweep
            };
            Alert::new(t, kind, Entity::Address(src))
                .with_src(src)
                .with_dst(dst)
        } else {
            let (kind, _) = OTHER_KINDS[rng.weighted_index(&other_weights)];
            let src_idx = rng.index(model.legit_sources_per_day.max(1));
            let src = simnet::addr::ncsa_production().nth(256 + src_idx as u64);
            let user = format!("user{:04}", src_idx % 997);
            Alert::new(t, kind, Entity::User(user.into())).with_src(src)
        };
        sink(alert);
    }
    total
}

/// Stream `days` days of background alerts; returns `(total, per-day)`.
pub fn stream_days(
    model: &VolumeModel,
    rng: &mut SimRng,
    start: SimTime,
    days: u64,
    sink: &mut impl FnMut(Alert),
) -> (u64, Vec<u64>) {
    let mut per_day = Vec::with_capacity(days as usize);
    let mut total = 0;
    for d in 0..days {
        let day_start = start + SimDuration::from_days(d);
        let n = stream_day(model, rng, day_start, sink);
        per_day.push(n);
        total += n;
    }
    (total, per_day)
}

/// Fig. 1 workload configuration.
#[derive(Debug, Clone)]
pub struct Fig1Config {
    /// Sampled flows from the dominant mass scanner (paper: 10,000).
    pub scanner_flows: usize,
    /// Flows from the secondary scanner (part C).
    pub secondary_flows: usize,
    /// Legitimate connection endpoints pool (part D).
    pub legit_nodes: usize,
    /// Legitimate flows.
    pub legit_flows: usize,
}

impl Default for Fig1Config {
    fn default() -> Self {
        // legit_nodes is the *pool*; with 2×legit_flows endpoint draws the
        // number of distinct endpoints used follows the coupon-collector
        // expectation n(1-e^{-2f/n}) ≈ 18.6 K, landing total nodes near the
        // paper's 29,075.
        Fig1Config {
            scanner_flows: 10_000,
            secondary_flows: 500,
            legit_nodes: 25_200,
            legit_flows: 16_835,
        }
    }
}

/// The Fig. 1 ground truth: which addresses play which role.
#[derive(Debug, Clone)]
pub struct Fig1GroundTruth {
    /// The mass scanner at the center of part A (103.102.x.y).
    pub mass_scanner: Ipv4Addr,
    /// The secondary scanner of part C (77.72.x.y).
    pub secondary_scanner: Ipv4Addr,
    /// The real attacker of part B (132.x.y.z).
    pub attacker: Ipv4Addr,
    /// The two internal targets of the real attack (141.142.a.b).
    pub targets: [Ipv4Addr; 2],
}

/// Generate the Fig. 1 flow sample.
pub fn fig1_flows(cfg: &Fig1Config, rng: &mut SimRng) -> (Vec<Flow>, Fig1GroundTruth) {
    let t0 = SimTime::from_date(2024, 8, 1);
    let production = simnet::addr::ncsa_production();
    let secondary_net = simnet::addr::ncsa_secondary();
    let gt = Fig1GroundTruth {
        mass_scanner: "103.102.8.9".parse().expect("static"),
        secondary_scanner: "77.72.3.4".parse().expect("static"),
        attacker: "132.45.67.89".parse().expect("static"),
        targets: [production.nth(4_321), production.nth(9_876)],
    };
    let mut flows =
        Vec::with_capacity(cfg.scanner_flows + cfg.secondary_flows + cfg.legit_flows + 2);
    let mut id = 0u64;
    let mut next_id = || {
        id += 1;
        FlowId(id)
    };

    // Part A: mass scanner sweeping distinct /16 targets.
    let mut target_perm: Vec<u64> = (0..65_536).collect();
    rng.shuffle(&mut target_perm);
    for i in 0..cfg.scanner_flows {
        let dst = production.nth(target_perm[i % target_perm.len()]);
        let t = t0 + SimDuration::from_millis(i as u64 * 5);
        flows.push(Flow::probe(next_id(), t, gt.mass_scanner, dst, 5432));
    }
    // Part C: secondary scanner, smaller target list.
    for i in 0..cfg.secondary_flows {
        let dst = production.nth(target_perm[(50_000 + i) % target_perm.len()]);
        let t = t0 + SimDuration::from_millis(200 + i as u64 * 11);
        flows.push(Flow::probe(next_id(), t, gt.secondary_scanner, dst, 22));
    }
    // Part D: legitimate connections between a diffuse endpoint pool.
    // Half the pool is external, half internal (both /16s).
    for i in 0..cfg.legit_flows {
        let src_i = rng.index(cfg.legit_nodes);
        let dst_i = rng.index(cfg.legit_nodes);
        let addr_of = |j: usize| -> Ipv4Addr {
            if j.is_multiple_of(2) {
                // External endpoint: hash to a public-looking address.
                let x = (j as u32).wrapping_mul(2_654_435_761);
                Ipv4Addr::from(0x0200_0000u32 | (x % 0xC000_0000))
            } else if j % 4 == 1 {
                secondary_net.nth((j as u64 * 37) % 65_536)
            } else {
                production.nth((j as u64 * 53) % 65_536)
            }
        };
        let (src, dst) = (addr_of(src_i), addr_of(dst_i));
        if src == dst {
            continue;
        }
        let t = t0 + SimDuration::from_millis(i as u64 * 7);
        flows.push(Flow::established(
            next_id(),
            t,
            SimDuration::from_secs(rng.range_u64(1, 600)),
            src,
            (40_000 + (i % 20_000)) as u16,
            dst,
            [22, 80, 443, 2_049][rng.index(4)],
            rng.range_u64(200, 1_000_000),
            rng.range_u64(200, 1_000_000),
        ));
    }
    // Part B: the real attack — exactly two connections from one external
    // attacker to two internal targets.
    for (k, &target) in gt.targets.iter().enumerate() {
        let t = t0 + SimDuration::from_mins(20 + k as u64);
        flows.push(Flow::established(
            next_id(),
            t,
            SimDuration::from_secs(90),
            gt.attacker,
            50_000 + k as u16,
            target,
            22,
            9_000,
            4_000,
        ));
    }
    (flows, gt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daily_volume_calibration() {
        let model = VolumeModel::default();
        let mut rng = SimRng::seed(11);
        let n = 500;
        let samples: Vec<f64> = (0..n)
            .map(|_| sample_daily_volume(&model, &mut rng) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 94_238.0).abs() < 4_000.0, "mean {mean}");
        assert!((std - 23_547.0).abs() < 4_000.0, "std {std}");
    }

    #[test]
    fn stream_day_respects_scan_fraction() {
        let model = VolumeModel::default();
        let mut rng = SimRng::seed(12);
        let mut scans = 0u64;
        let mut total = 0u64;
        let n = stream_day(
            &model,
            &mut rng,
            SimTime::from_date(2024, 10, 1),
            &mut |a| {
                total += 1;
                if matches!(a.kind, AlertKind::PortScan | AlertKind::AddressSweep) {
                    scans += 1;
                }
            },
        );
        assert_eq!(n, total);
        let frac = scans as f64 / total as f64;
        assert!(
            (frac - 80_000.0 / 94_238.0).abs() < 0.03,
            "scan fraction {frac}"
        );
    }

    #[test]
    fn stream_day_is_time_ordered_within_day() {
        let model = VolumeModel::default();
        let mut rng = SimRng::seed(13);
        let day = SimTime::from_date(2024, 10, 2);
        let mut last = day;
        stream_day(&model, &mut rng, day, &mut |a| {
            assert!(a.ts >= last);
            assert_eq!(
                a.ts.day_index(),
                day.day_index(),
                "alert stays within its day"
            );
            last = a.ts;
        });
    }

    #[test]
    fn fig1_flow_composition() {
        let cfg = Fig1Config::default();
        let mut rng = SimRng::seed(14);
        let (flows, gt) = fig1_flows(&cfg, &mut rng);
        // The mass scanner dominates.
        let from_scanner = flows.iter().filter(|f| f.src == gt.mass_scanner).count();
        assert_eq!(from_scanner, 10_000);
        // Exactly two real-attack edges.
        let attack: Vec<_> = flows.iter().filter(|f| f.src == gt.attacker).collect();
        assert_eq!(attack.len(), 2);
        assert!(attack.iter().all(|f| f.state.established()));
        assert!(attack
            .iter()
            .all(|f| simnet::addr::ncsa_production().contains(f.dst)));
        // Scanner probes are probe-like (recorded by the black hole).
        assert!(flows
            .iter()
            .filter(|f| f.src == gt.mass_scanner)
            .all(|f| f.state.probe_like()));
    }

    #[test]
    fn multi_day_stream_counts() {
        let model = VolumeModel {
            daily_mean: 1_000.0,
            daily_std: 100.0,
            ..Default::default()
        };
        let mut rng = SimRng::seed(15);
        let mut count = 0u64;
        let (total, per_day) = stream_days(
            &model,
            &mut rng,
            SimTime::from_date(2024, 10, 1),
            5,
            &mut |_| count += 1,
        );
        assert_eq!(per_day.len(), 5);
        assert_eq!(total, count);
        assert_eq!(total, per_day.iter().sum::<u64>());
    }
}
