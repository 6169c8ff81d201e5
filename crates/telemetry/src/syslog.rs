//! Log rendering and daily storage.
//!
//! Renders records into the textual formats the paper works with — Zeek
//! TSV rows, syslog lines, and the raw snippet format quoted in §II-A
//! (`23:15:22 [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK" [7036]`) —
//! and buckets records per day, which is the data behind Fig. 2's daily
//! alert series.
//!
//! Rendering is global-only: record strings print through the `Display`
//! of [`simnet::intern::Sym`], which resolves against the global scope.

use std::fmt::Write as _;

use simnet::intern::SymScope;
use simnet::rng::FxHashMap;

use crate::record::{LogRecord, RecordKind};

/// Render a record as a single human-readable syslog-style line.
pub fn render_syslog(r: &LogRecord) -> String {
    let ts = r.ts();
    let mut line = String::with_capacity(96);
    let d = ts.date();
    let (h, m, s) = ts.time_of_day();
    let _ = write!(
        line,
        "{} {:2} {:02}:{:02}:{:02} ",
        d.month_abbrev(),
        d.day,
        h,
        m,
        s
    );
    match r {
        LogRecord::Conn(c) => {
            let _ = write!(
                line,
                "zeek conn: {}:{} -> {}:{} {} {} state={} bytes={}/{}",
                c.orig_h,
                c.orig_p,
                c.resp_h,
                c.resp_p,
                c.proto,
                c.service,
                c.conn_state,
                c.orig_bytes,
                c.resp_bytes
            );
        }
        LogRecord::Http(hh) => {
            let _ = write!(
                line,
                "zeek http: {} {} {}{} {} {}",
                hh.orig_h, hh.method, hh.host, hh.uri, hh.status, hh.mime
            );
        }
        LogRecord::Ssh(sr) => {
            let _ = write!(
                line,
                "zeek ssh: {} -> {} user={} method={:?} success={}",
                sr.orig_h, sr.resp_h, sr.user, sr.method, sr.success
            );
        }
        LogRecord::Notice(n) => {
            let _ = write!(line, "zeek notice: {} {} src={}", n.note, n.msg, n.src);
        }
        LogRecord::Process(p) => {
            let _ = write!(
                line,
                "{} osquery process: user={} pid={} {}",
                p.hostname, p.user, p.pid, p.cmdline
            );
        }
        LogRecord::File(fr) => {
            let _ = write!(
                line,
                "{} osquery file: user={} {:?} {} by {}",
                fr.hostname, fr.user, fr.op, fr.path, fr.process
            );
        }
        LogRecord::Auth(a) => {
            let outcome = if a.success { "Accepted" } else { "Failed" };
            let src = a
                .src_addr
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into());
            let _ = write!(
                line,
                "{} sshd: {} {:?} for {} from {}",
                a.hostname, outcome, a.method, a.user, src
            );
        }
        LogRecord::Audit(au) => {
            let _ = write!(
                line,
                "{} auditd: user={} syscall={} args={} exit={}",
                au.hostname, au.user, au.syscall, au.args, au.exit_code
            );
        }
        LogRecord::Db(db) => {
            let _ = write!(
                line,
                "postgres audit: {} user={} statement={}",
                db.orig_h, db.user, db.statement
            );
        }
    }
    line
}

/// Render the paper's raw-snippet format for an HTTP download record:
/// `23:15:22 [internal-host] wget 64.215.xxx.yyy/abs.c (200 "OK" [7036]`.
pub fn render_snippet(r: &LogRecord, host_label: &str) -> String {
    let (h, m, s) = r.ts().time_of_day();
    match r {
        LogRecord::Http(hh) => format!(
            "{:02}:{:02}:{:02} [{}] wget {}{} ({} \"OK\" [{}]",
            h, m, s, host_label, hh.host, hh.uri, hh.status, hh.uid.0
        ),
        other => format!(
            "{:02}:{:02}:{:02} [{}] {}",
            h,
            m,
            s,
            host_label,
            render_syslog(other)
        ),
    }
}

/// Render a Zeek TSV header for a stream.
pub fn zeek_tsv_header(kind: RecordKind) -> String {
    let fields: &[&str] = match kind {
        RecordKind::Conn => &[
            "ts",
            "uid",
            "id.orig_h",
            "id.orig_p",
            "id.resp_h",
            "id.resp_p",
            "proto",
            "service",
            "duration",
            "orig_bytes",
            "resp_bytes",
            "conn_state",
        ],
        RecordKind::Http => &[
            "ts",
            "uid",
            "id.orig_h",
            "id.resp_h",
            "method",
            "host",
            "uri",
            "status_code",
            "resp_mime_types",
            "user_agent",
        ],
        RecordKind::Ssh => &[
            "ts",
            "uid",
            "id.orig_h",
            "id.resp_h",
            "user",
            "auth_method",
            "auth_success",
            "client",
        ],
        RecordKind::Notice => &["ts", "note", "msg", "src", "dst", "sub"],
        _ => &["ts", "host", "user", "detail"],
    };
    format!("#fields\t{}", fields.join("\t"))
}

/// Render a record as a Zeek TSV row (matching [`zeek_tsv_header`]).
pub fn zeek_tsv_row(r: &LogRecord) -> String {
    let ts_secs = r.ts().as_nanos() as f64 / 1e9;
    match r {
        LogRecord::Conn(c) => format!(
            "{:.6}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.6}\t{}\t{}\t{}",
            ts_secs,
            c.uid,
            c.orig_h,
            c.orig_p,
            c.resp_h,
            c.resp_p,
            c.proto,
            c.service,
            c.duration.as_secs_f64(),
            c.orig_bytes,
            c.resp_bytes,
            c.conn_state
        ),
        LogRecord::Http(h) => format!(
            "{:.6}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            ts_secs,
            h.uid,
            h.orig_h,
            h.resp_h,
            h.method,
            h.host,
            h.uri,
            h.status,
            h.mime,
            h.user_agent
        ),
        LogRecord::Ssh(s) => format!(
            "{:.6}\t{}\t{}\t{}\t{}\t{:?}\t{}\t{}",
            ts_secs, s.uid, s.orig_h, s.resp_h, s.user, s.method, s.success, s.client_banner
        ),
        LogRecord::Notice(n) => format!(
            "{:.6}\t{}\t{}\t{}\t{}\t{}",
            ts_secs,
            n.note,
            n.msg,
            n.src,
            n.dst.map(|d| d.to_string()).unwrap_or_else(|| "-".into()),
            n.sub
        ),
        other => format!(
            "{:.6}\t{}\t{}\t{}",
            ts_secs,
            other
                .host()
                .map(|h| h.to_string())
                .unwrap_or_else(|| "-".into()),
            other.user(&SymScope::global()).unwrap_or("-"),
            render_syslog(other)
        ),
    }
}

/// Records bucketed by simulation day — the storage behind daily-volume
/// analyses (Fig. 2).
#[derive(Debug, Default)]
pub struct DailyLogStore {
    days: FxHashMap<u64, Vec<LogRecord>>,
}

impl DailyLogStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, r: LogRecord) {
        self.days.entry(r.ts().day_index()).or_default().push(r);
    }

    pub fn extend(&mut self, rs: impl IntoIterator<Item = LogRecord>) {
        for r in rs {
            self.push(r);
        }
    }

    /// Number of records on a given day.
    pub fn day_count(&self, day_index: u64) -> usize {
        self.days.get(&day_index).map_or(0, Vec::len)
    }

    /// Records for a day, if any.
    pub fn day(&self, day_index: u64) -> Option<&[LogRecord]> {
        self.days.get(&day_index).map(Vec::as_slice)
    }

    /// `(day_index, count)` pairs sorted by day.
    pub fn daily_counts(&self) -> Vec<(u64, usize)> {
        let mut v: Vec<_> = self.days.iter().map(|(d, rs)| (*d, rs.len())).collect();
        v.sort_unstable();
        v
    }

    /// Total stored records.
    pub fn total(&self) -> usize {
        self.days.values().map(Vec::len).sum()
    }

    /// Earliest and latest day indices present.
    pub fn day_span(&self) -> Option<(u64, u64)> {
        let min = self.days.keys().min()?;
        let max = self.days.keys().max()?;
        Some((*min, *max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{HttpRecord, NoticeKind, NoticeRecord};
    use simnet::flow::FlowId;
    use simnet::time::SimTime;

    fn http_at(t: SimTime) -> LogRecord {
        LogRecord::Http(HttpRecord {
            ts: t,
            uid: FlowId(7036),
            orig_h: "141.142.2.5".parse().unwrap(),
            resp_h: "64.215.4.5".parse().unwrap(),
            method: "GET".into(),
            host: "64.215.4.5".into(),
            uri: "/abs.c".into(),
            status: 200,
            mime: "text/x-c".into(),
            user_agent: "Wget/1.21".into(),
        })
    }

    #[test]
    fn snippet_format_matches_paper_example() {
        let t = SimTime::from_datetime(2002, 6, 1, 23, 15, 22);
        let s = render_snippet(&http_at(t), "internal-host");
        assert_eq!(
            s,
            "23:15:22 [internal-host] wget 64.215.4.5/abs.c (200 \"OK\" [7036]"
        );
    }

    #[test]
    fn tsv_header_and_row_field_counts_match() {
        let t = SimTime::from_secs(100);
        let rec = http_at(t);
        let header = zeek_tsv_header(RecordKind::Http);
        let row = zeek_tsv_row(&rec);
        let n_header = header.trim_start_matches("#fields\t").split('\t').count();
        let n_row = row.split('\t').count();
        assert_eq!(n_header, n_row);
    }

    #[test]
    fn syslog_rendering_contains_key_fields() {
        let t = SimTime::from_datetime(2024, 10, 30, 3, 44, 0);
        let n = LogRecord::Notice(NoticeRecord {
            ts: t,
            note: NoticeKind::AddressScan,
            msg: "scanner".into(),
            src: "103.102.1.1".parse().unwrap(),
            dst: None,
            sub: simnet::intern::Sym::EMPTY,
        });
        let line = render_syslog(&n);
        assert!(line.contains("Scan::Address_Scan"));
        assert!(line.contains("103.102.1.1"));
        assert!(line.starts_with("Oct 30 03:44:00"));
    }

    #[test]
    fn daily_store_buckets_by_day() {
        let mut store = DailyLogStore::new();
        let d1 = SimTime::from_date(2024, 10, 1);
        let d2 = SimTime::from_date(2024, 10, 2);
        store.push(http_at(d1));
        store.push(http_at(d1 + simnet::time::SimDuration::from_hours(5)));
        store.push(http_at(d2));
        assert_eq!(store.day_count(d1.day_index()), 2);
        assert_eq!(store.day_count(d2.day_index()), 1);
        assert_eq!(store.total(), 3);
        let counts = store.daily_counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(store.day_span(), Some((d1.day_index(), d2.day_index())));
        assert!(store.day(d1.day_index()).is_some());
        assert_eq!(store.day_count(12345), 0);
    }
}
