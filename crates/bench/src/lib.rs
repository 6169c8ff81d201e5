//! # bench — experiment harnesses
//!
//! One binary per paper artifact (see `EXPERIMENTS.md` at the workspace
//! root). Each binary regenerates its table/figure from scratch with fixed
//! seeds, prints the same rows/series the paper reports, and writes a
//! machine-readable JSON copy under `target/experiments/`.
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I — dataset overview |
//! | `fig1` | Fig. 1 — attack graph |
//! | `fig2` | Fig. 2 — daily alert volume |
//! | `fig3a` | Fig. 3a — attack similarity CDF |
//! | `fig3b` | Fig. 3b — common-sequence counts |
//! | `s1_recurrence` | §I/§II — 60.08% S1 motif claim |
//! | `criticality` | Insights 3+4 — timing & critical alerts |
//! | `pipeline` | Fig. 4 — testbed pipeline throughput |
//! | `case_study` | §V — ransomware preemption & 12-day lead |
//! | `annotation` | §II-A — 99.7% auto-annotation |
//! | `preemption_range` | Insight 2 — 2–4 alert effective range |

use std::path::PathBuf;

/// Where experiment JSON artifacts land.
pub fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Write a JSON artifact and report the path.
pub fn write_artifact(name: &str, value: &serde_json::Value) {
    let path = artifact_dir().join(format!("{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write artifact");
    println!("[artifact] {}", path.display());
}

/// Section header for harness output.
pub fn banner(title: &str) {
    println!("\n==== {title} ====");
}

/// Serialize a stream report's detection/notification stream to one
/// canonical string — the byte-identity witness the executor benchmarks
/// (`bench2`, `bench3`) compare across executors. Defined once so both
/// benches assert the same identity predicate.
pub fn detection_bytes(report: &testbed::StreamReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for n in &report.notifications {
        let _ = writeln!(
            s,
            "{}|{}|{}|{}|{}|{:.9}|{}|{}",
            n.ts,
            n.entity,
            n.source,
            n.detection.ts,
            n.detection.trigger,
            n.detection.score,
            n.detection.stage,
            n.message(),
        );
    }
    s
}

/// Compare a measured value against the paper's value, reporting the
/// relative deviation.
pub fn compare(label: &str, measured: f64, paper: f64) {
    let rel = if paper != 0.0 {
        (measured - paper) / paper * 100.0
    } else {
        0.0
    };
    println!("{label:<44} measured={measured:>12.4}  paper={paper:>12.4}  ({rel:+.1}%)");
}

/// The standard experiment corpus (fixed seed) shared by several
/// harnesses.
pub fn standard_corpus() -> alertlib::store::IncidentStore {
    scenario::generate_corpus(&scenario::LongitudinalConfig::default())
}

/// Standard benign sessions for training/evaluation.
pub fn standard_benign(n: usize) -> Vec<Vec<alertlib::alert::Alert>> {
    let mut rng = simnet::rng::SimRng::seed(0xBE19);
    scenario::benign_sessions(&mut rng, n, simnet::time::SimTime::from_date(2024, 1, 1))
}

/// Train the detector on the standard corpus.
pub fn standard_model() -> factorgraph::chain::ChainModel {
    detect::train::train(
        &standard_corpus(),
        &standard_benign(400),
        &detect::train::TrainConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn artifact_dir_creatable() {
        let d = super::artifact_dir();
        assert!(d.exists());
    }

    #[test]
    fn standard_corpus_is_stable() {
        let a = super::standard_corpus();
        let b = super::standard_corpus();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_alerts(), b.total_alerts());
    }
}
