//! Hidden attack stages.
//!
//! The factor-graph models of refs \[5\], \[6\] infer a *hidden attack state*
//! per observed event. We use a six-stage progression; the decision rule
//! collapses it to the paper's benign / suspicious / malicious verdicts.

use alertlib::taxonomy::Phase;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Hidden attack stage, ordered by progression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Stage {
    /// Normal user activity.
    Benign = 0,
    /// Scanning / probing for vulnerable resources.
    Recon = 1,
    /// Initial access achieved; payload staging.
    Foothold = 2,
    /// Privilege escalation / defense evasion underway.
    Escalation = 3,
    /// Spreading through the network / exfil staging / C2.
    Lateral = 4,
    /// Irreversible damage: exfiltration or impact.
    Damage = 5,
}

impl Stage {
    /// All stages in progression order.
    pub const ALL: [Stage; 6] = [
        Stage::Benign,
        Stage::Recon,
        Stage::Foothold,
        Stage::Escalation,
        Stage::Lateral,
        Stage::Damage,
    ];

    /// Number of stages (the chain-model state cardinality).
    pub const COUNT: usize = 6;

    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stage for a dense index.
    ///
    /// # Panics
    /// Panics if `i >= COUNT`.
    pub fn from_index(i: usize) -> Stage {
        Self::ALL[i]
    }

    /// The typical stage an alert phase maps to. This seeds the supervised
    /// labels for training (§II-A's "annotated with corresponding attack
    /// states").
    pub fn from_phase(phase: Phase) -> Stage {
        match phase {
            Phase::Benign => Stage::Benign,
            Phase::Recon | Phase::Discovery => Stage::Recon,
            Phase::InitialAccess
            | Phase::Execution
            | Phase::Persistence
            | Phase::CredentialAccess => Stage::Foothold,
            Phase::PrivilegeEscalation | Phase::DefenseEvasion => Stage::Escalation,
            Phase::LateralMovement | Phase::Collection | Phase::CommandAndControl => Stage::Lateral,
            Phase::Exfiltration | Phase::Impact => Stage::Damage,
        }
    }

    /// Whether reaching this stage means the attack is in progress and a
    /// preemption decision is warranted.
    pub fn is_attack(self) -> bool {
        self >= Stage::Foothold
    }

    /// Whether this stage means damage has already occurred.
    pub fn is_damage(self) -> bool {
        self == Stage::Damage
    }

    /// The stage's lower-case name, as displayed.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Benign => "benign",
            Stage::Recon => "recon",
            Stage::Foothold => "foothold",
            Stage::Escalation => "escalation",
            Stage::Lateral => "lateral",
            Stage::Damage => "damage",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The stage a single alert kind is evidence of. Attempt-severity alerts
/// (probes, brute force, sqli attempts) never escalate past `Recon`:
/// Remark 2 — "most daily attack attempts and mass brute-force scans will
/// fail", so an attempt alone is not evidence the attack took hold.
pub fn stage_of_kind(k: alertlib::taxonomy::AlertKind) -> Stage {
    use alertlib::taxonomy::Severity;
    let s = Stage::from_phase(k.phase());
    if k.severity() <= Severity::Attempt && s > Stage::Recon {
        Stage::Recon
    } else {
        s
    }
}

/// Label a kind sequence with monotone non-decreasing stages: attacks
/// progress, and noise alerts mid-attack do not reset the stage.
pub fn monotone_stage_labels(kinds: &[alertlib::taxonomy::AlertKind]) -> Vec<Stage> {
    let mut out = Vec::with_capacity(kinds.len());
    let mut current = Stage::Benign;
    for k in kinds {
        let s = stage_of_kind(*k);
        if s > current {
            current = s;
        }
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::taxonomy::AlertKind;

    #[test]
    fn ordering_and_indexing() {
        assert!(Stage::Benign < Stage::Recon);
        assert!(Stage::Lateral < Stage::Damage);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Stage::from_index(i), *s);
        }
    }

    #[test]
    fn phase_mapping_sensible() {
        assert_eq!(Stage::from_phase(Phase::Benign), Stage::Benign);
        assert_eq!(Stage::from_phase(Phase::Recon), Stage::Recon);
        assert_eq!(Stage::from_phase(Phase::Execution), Stage::Foothold);
        assert_eq!(Stage::from_phase(Phase::Impact), Stage::Damage);
        assert!(Stage::from_phase(Phase::LateralMovement).is_attack());
        assert!(!Stage::from_phase(Phase::Recon).is_attack());
    }

    #[test]
    fn monotone_labels_never_decrease() {
        use AlertKind::*;
        let kinds = [PortScan, DownloadSensitive, PortScan, LogWipe, LoginSuccess];
        let stages = monotone_stage_labels(&kinds);
        for w in stages.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // The mid-attack PortScan stays at Foothold level.
        assert_eq!(stages[2], Stage::Foothold);
        assert_eq!(stages[3], Stage::Escalation);
    }

    #[test]
    fn damage_detection() {
        assert!(Stage::Damage.is_damage());
        assert!(!Stage::Lateral.is_damage());
        assert!(Stage::Foothold.is_attack());
    }
}
