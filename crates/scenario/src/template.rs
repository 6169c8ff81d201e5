//! Attack step templates.
//!
//! A template describes an attack family as a sequence of steps, each
//! causing one symbolic alert after a delay drawn from a step-specific
//! model. Delay models encode Insight 3: automated steps (scans) tick at
//! machine rate with low variance; manual steps (a human driving the
//! exploit) have heavy-tailed, high-variance gaps.

use alertlib::taxonomy::AlertKind;
use simnet::rng::SimRng;
use simnet::time::SimDuration;

/// Inter-step delay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delay {
    /// Fixed gap (automated tooling).
    Fixed { secs: f64 },
    /// Exponential with the given mean (scripted-but-jittery).
    Exponential { mean_secs: f64 },
    /// Log-normal (manual attacker behaviour, Insight 3).
    LogNormal { mu: f64, sigma: f64 },
}

impl Delay {
    /// Draw a delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let secs = match *self {
            Delay::Fixed { secs } => secs,
            Delay::Exponential { mean_secs } => rng.exponential(1.0 / mean_secs.max(1e-9)),
            Delay::LogNormal { mu, sigma } => rng.log_normal(mu, sigma),
        };
        SimDuration::from_secs_f64(secs)
    }

    /// Typical automated-phase delay (tight, seconds apart).
    pub fn automated() -> Delay {
        Delay::Fixed { secs: 5.0 }
    }

    /// Typical manual-phase delay (minutes to hours, heavy-tailed).
    pub fn manual() -> Delay {
        // exp(7) ≈ 18 min median, sigma 1.4 → long tail into hours.
        Delay::LogNormal {
            mu: 7.0,
            sigma: 1.4,
        }
    }
}

/// One step of an attack template.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The alert this step causes when observed.
    pub kind: AlertKind,
    /// Delay after the previous step.
    pub delay: Delay,
    /// Probability the step occurs at all (1.0 = always).
    pub probability: f64,
}

impl Step {
    pub fn always(kind: AlertKind, delay: Delay) -> Step {
        Step {
            kind,
            delay,
            probability: 1.0,
        }
    }

    pub fn sometimes(kind: AlertKind, delay: Delay, probability: f64) -> Step {
        Step {
            kind,
            delay,
            probability,
        }
    }
}

/// An attack family template.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackTemplate {
    pub family: String,
    pub steps: Vec<Step>,
}

impl AttackTemplate {
    pub fn new(family: impl Into<String>, steps: Vec<Step>) -> AttackTemplate {
        assert!(!steps.is_empty(), "template needs at least one step");
        AttackTemplate {
            family: family.into(),
            steps,
        }
    }

    /// The deterministic kind signature (all always-steps).
    pub fn signature(&self) -> Vec<AlertKind> {
        self.steps
            .iter()
            .filter(|s| s.probability >= 1.0)
            .map(|s| s.kind)
            .collect()
    }

    /// Realize the step sequence: per-step `(offset_from_start, kind)`.
    pub fn realize(&self, rng: &mut SimRng) -> Vec<(SimDuration, AlertKind)> {
        let mut out = Vec::with_capacity(self.steps.len());
        let mut t = SimDuration::ZERO;
        for step in &self.steps {
            if step.probability < 1.0 && !rng.chance(step.probability) {
                continue;
            }
            t += step.delay.sample(rng);
            out.push((t, step.kind));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AlertKind::*;

    fn template() -> AttackTemplate {
        AttackTemplate::new(
            "test",
            vec![
                Step::always(PortScan, Delay::automated()),
                Step::always(DownloadSensitive, Delay::manual()),
                Step::sometimes(CompileKernelModule, Delay::manual(), 0.5),
                Step::always(LogWipe, Delay::manual()),
            ],
        )
    }

    #[test]
    fn realization_is_time_ordered() {
        let mut rng = SimRng::seed(1);
        for _ in 0..50 {
            let seq = template().realize(&mut rng);
            for w in seq.windows(2) {
                assert!(w[1].0 >= w[0].0);
            }
            assert!(seq.len() >= 3 && seq.len() <= 4);
        }
    }

    #[test]
    fn optional_steps_sometimes_skipped() {
        let mut rng = SimRng::seed(2);
        let lens: Vec<usize> = (0..200)
            .map(|_| template().realize(&mut rng).len())
            .collect();
        assert!(lens.contains(&3));
        assert!(lens.contains(&4));
    }

    #[test]
    fn signature_excludes_optional_steps() {
        let sig = template().signature();
        assert_eq!(sig, vec![PortScan, DownloadSensitive, LogWipe]);
    }

    #[test]
    fn delay_models_have_expected_dispersion() {
        let mut rng = SimRng::seed(3);
        let n = 5_000;
        let sample = |d: Delay, rng: &mut SimRng| -> Vec<f64> {
            (0..n).map(|_| d.sample(rng).as_secs_f64()).collect()
        };
        let auto = sample(Delay::automated(), &mut rng);
        let manual = sample(Delay::manual(), &mut rng);
        let cv = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64;
            var.sqrt() / m
        };
        assert!(cv(&auto) < 1e-9, "fixed delay has no variance");
        assert!(
            cv(&manual) > 1.0,
            "manual delays are high-variance (Insight 3)"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = template().realize(&mut SimRng::seed(7));
        let b = template().realize(&mut SimRng::seed(7));
        assert_eq!(a, b);
    }
}
