//! The result line and the metrics it carries.

use std::fmt::Write as _;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// One run's outcome, printed as the last line of standard output.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Metric names: a letter or digit first, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

impl RunResult {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?} is malformed");
        self.metrics.push(Metric { name, unit, value });
    }

    /// The JSON line. A non-finite value cannot be printed as a number:
    /// it is written as 0 and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                eprintln!("perfbench: metric {} is not finite", metric.name);
                correct = false;
                0.0
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        assert!(valid_name("records_per_s"));
        assert!(valid_name("campaign.symbolize.ns_per_record"));
        assert!(valid_name("tenant_restart.codec.snapshot-mb"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("latency(ms)"));
        assert!(!valid_name("naïve"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn json_line_shape() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("setup_s", "s", 0.8127);
        r.push("records_per_s", "records/s", 1.0e7);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"records_per_s\": {\"value\": 10000000.0, \"unit\": \"records/s\"}}}"
        );
        r.push("lead_median_h", "h", f64::NAN);
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn malformed_names_are_refused() {
        let mut r = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("bad name", "s", 1.0);
    }
}
