//! Run reports and operator notifications.

use std::fmt;

use alertlib::alert::EntityKey;
use alertlib::filter::FilterStats;
use bhr::table::TableStats;
use detect::attack_tagger::Detection;
use serde::{Deserialize, Serialize};
use simnet::router::RouterStats;
use simnet::time::SimTime;

use crate::stage::StreamStats;

/// A notification sent to security operators — the §V mechanism that gave
/// NCSA its twelve-day warning. It holds no heap string: the entity key is
/// inline and the operator text is rendered on demand by
/// [`OperatorNotification::message`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorNotification {
    pub ts: SimTime,
    /// Canonical entity key (`user:…` / `addr:…` / `unknown`), resolved
    /// against the pipeline's scope at notification time. An inline
    /// [`EntityKey`] rather than an interned handle, so notifications stay
    /// valid, and process-independent, after a tenant's symbol scope is
    /// evicted.
    pub entity: EntityKey,
    pub detection: Detection,
    /// Which detector raised it.
    pub source: &'static str,
}

impl OperatorNotification {
    /// The operator-facing text, e.g. `preemption: user eve reached stage
    /// 'foothold' (p=0.97) on alert alert_download_sensitive`, formatted
    /// from the entity key and the detection when it is displayed.
    pub fn message(&self) -> impl fmt::Display + '_ {
        let Detection {
            trigger,
            score,
            stage,
            ..
        } = &self.detection;
        fmt::from_fn(move |f| {
            write!(
                f,
                "preemption: {} reached stage '{stage}' (p={score:.2}) on alert {trigger}",
                self.entity.describe()
            )
        })
    }
}

/// Per-stage counters of one testbed run (Fig. 4's E1..En → response).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Actions processed by the engine.
    pub actions: u64,
    /// Stage counters: log records produced by the monitors, alerts after
    /// symbolization, alerts admitted by the repeated-scan filter, and
    /// detections raised.
    pub stats: StreamStats,
    /// Notifications delivered to operators.
    pub notifications: Vec<OperatorNotification>,
    /// Border router counters.
    pub router: RouterStats,
    /// Filter counters.
    pub filter: FilterStats,
    /// Black-hole-router counters.
    pub bhr: TableStats,
    /// Sources blocked during the run.
    pub blocked_sources: u64,
    /// Admitted alerts not retained for analysis because the retention
    /// cap was exceeded. Zero when retention is disabled.
    pub alerts_dropped: u64,
    /// Admitted alerts not retained because retention was disabled
    /// (`alert_retention == 0`, e.g. stats-only runs) — deliberately not
    /// counted as drops.
    pub alerts_discarded: u64,
}

impl RunReport {
    /// First notification time, if any — the preemption instant.
    pub fn first_notification(&self) -> Option<SimTime> {
        self.notifications.iter().map(|n| n.ts).min()
    }

    /// Human summary block.
    pub fn summary(&self) -> String {
        format!(
            "actions={} records={} alerts={} filtered={} detections={} blocked={} (router: {} flows, {} dropped)",
            self.actions,
            self.stats.records,
            self.stats.alerts,
            self.stats.admitted,
            self.stats.detections,
            self.blocked_sources,
            self.router.total(),
            self.router.dropped,
        )
    }
}

/// Render an operator-facing incident report in the style of the §V
/// incident snippet ("Alerted to the following downloads to this host at
/// 3:44a …"): a timestamped narrative of the notifications of one run.
pub fn render_incident_report(report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "SECURITY INCIDENT REPORT (auto-generated)");
    let _ = writeln!(out, "=========================================");
    let _ = writeln!(
        out,
        "pipeline: {} actions, {} alerts ({} after filtering), {} detections",
        report.actions, report.stats.alerts, report.stats.admitted, report.stats.detections
    );
    let _ = writeln!(
        out,
        "response: {} sources null-routed, {} border drops",
        report.blocked_sources, report.router.dropped
    );
    if report.notifications.is_empty() {
        let _ = writeln!(out, "\nNo preemption notifications were raised.");
        return out;
    }
    let _ = writeln!(out, "\nTimeline:");
    for n in &report.notifications {
        let (h, m, _) = n.ts.time_of_day();
        let d = n.ts.date();
        let _ = writeln!(
            out,
            "  {} {:02}:{:02}  Alerted to {} activity by {}: trigger {} (stage {}, p={:.2})",
            d, h, m, n.source, n.entity, n.detection.trigger, n.detection.stage, n.detection.score
        );
    }
    if let Some(first) = report.first_notification() {
        let _ = writeln!(out, "\nFirst warning delivered at {first}.");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::taxonomy::AlertKind;
    use detect::stage::Stage;

    #[test]
    fn first_notification_and_summary() {
        let mut r = RunReport::default();
        assert!(r.first_notification().is_none());
        let det = Detection {
            ts: SimTime::from_secs(100),
            alert_index: 3,
            trigger: AlertKind::C2Communication,
            score: 0.93,
            stage: Stage::Lateral,
        };
        r.notifications.push(OperatorNotification {
            ts: SimTime::from_secs(100),
            entity: "user:postgres".into(),
            detection: det.clone(),
            source: "attack-tagger",
        });
        r.notifications.push(OperatorNotification {
            ts: SimTime::from_secs(50),
            entity: "user:x".into(),
            detection: det,
            source: "attack-tagger",
        });
        assert_eq!(r.first_notification(), Some(SimTime::from_secs(50)));
        assert!(r.summary().contains("detections=0"));
    }

    #[test]
    fn incident_report_rendering() {
        let mut r = RunReport::default();
        let rendered = render_incident_report(&r);
        assert!(rendered.contains("No preemption notifications"));

        r.notifications.push(OperatorNotification {
            ts: SimTime::from_datetime(2024, 10, 30, 3, 44, 0),
            entity: "user:postgres".into(),
            detection: Detection {
                ts: SimTime::from_datetime(2024, 10, 30, 3, 44, 0),
                alert_index: 3,
                trigger: AlertKind::ElfMagicInDbBlob,
                score: 0.97,
                stage: Stage::Foothold,
            },
            source: "attack-tagger",
        });
        let rendered = render_incident_report(&r);
        assert!(
            rendered.contains("03:44"),
            "snippet-style timestamp: {rendered}"
        );
        assert!(rendered.contains("alert_elf_in_db_blob"));
        assert!(rendered.contains("user:postgres"));
        assert!(rendered.contains("First warning delivered"));
    }
}
