//! Longest-common-subsequence pattern mining (Fig. 3b).
//!
//! Insight 2 identifies "common alert sequences (named from S1 to S43)"
//! via longest common subsequences between incident alert sequences
//! (the paper cites the NIST LCS definition \[15\]). This module provides:
//!
//! - the classic O(n·m) LCS DP over arbitrary `Eq` tokens,
//! - a miner that extracts the common patterns across an incident corpus,
//!   counts each pattern's support (how many incidents contain it as a
//!   subsequence), and names them `S1..Sk` in support order.

use alertlib::store::IncidentStore;
use alertlib::taxonomy::AlertKind;
use rayon::prelude::*;
use simnet::rng::FxHashMap;

/// Length of the longest common subsequence of two token slices.
pub fn lcs_length<T: Eq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    // Rolling single-row DP: O(min(n,m)) space.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut row = vec![0usize; short.len() + 1];
    for x in long {
        let mut prev_diag = 0;
        for (j, y) in short.iter().enumerate() {
            let up = row[j + 1];
            row[j + 1] = if x == y {
                prev_diag + 1
            } else {
                up.max(row[j])
            };
            prev_diag = up;
        }
    }
    row[short.len()]
}

/// One longest common subsequence of two token slices (ties broken by the
/// standard backtrack preferring matches late in `a`).
pub fn lcs<T: Eq + Clone>(a: &[T], b: &[T]) -> Vec<T> {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return Vec::new();
    }
    let mut dp = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in 1..=n {
        for j in 1..=m {
            dp[idx(i, j)] = if a[i - 1] == b[j - 1] {
                dp[idx(i - 1, j - 1)] + 1
            } else {
                dp[idx(i - 1, j)].max(dp[idx(i, j - 1)])
            };
        }
    }
    let mut out = Vec::with_capacity(dp[idx(n, m)] as usize);
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        if a[i - 1] == b[j - 1] {
            out.push(a[i - 1].clone());
            i -= 1;
            j -= 1;
        } else if dp[idx(i - 1, j)] >= dp[idx(i, j - 1)] {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    out.reverse();
    out
}

/// Whether `needle` occurs as a (possibly gapped) subsequence of `haystack`.
pub fn is_subsequence<T: Eq>(needle: &[T], haystack: &[T]) -> bool {
    let mut it = needle.iter();
    let mut next = it.next();
    for x in haystack {
        match next {
            Some(n) if n == x => next = it.next(),
            Some(_) => {}
            None => return true,
        }
    }
    next.is_none()
}

/// A mined common alert sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonPattern {
    /// 1-based rank: pattern `S{rank}` of Fig. 3b.
    pub rank: usize,
    /// The alert-kind sequence.
    pub seq: Vec<AlertKind>,
    /// Number of incidents containing the sequence as a subsequence.
    pub support: usize,
}

impl CommonPattern {
    /// The paper's name for this pattern (`S1`, `S2`, …).
    pub fn name(&self) -> String {
        format!("S{}", self.rank)
    }

    pub fn len(&self) -> usize {
        self.seq.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// How pattern support is counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupportMode {
    /// Number of incidents containing the pattern as a subsequence. Broad:
    /// a short motif shared across families scores its full prevalence
    /// (used for the "S1 in 60.08% of incidents" claim).
    Subsequence,
    /// Number of incidents whose pairwise LCS with at least one *other*
    /// incident is exactly this pattern — i.e., incidents where this was
    /// the shared signature. This is Fig. 3b's "count of LCS in our
    /// dataset": a family of 14 incidents sharing a signature counts 14.
    LcsPeers,
}

/// Mining parameters.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Minimum pattern length to keep (paper: ≥ 2; single alerts are
    /// sudden attacks outside the model's effective range).
    pub min_len: usize,
    /// Maximum pattern length to keep (paper observes up to 14).
    pub max_len: usize,
    /// Minimum support (number of containing incidents).
    pub min_support: usize,
    /// Cap on the number of returned patterns (paper reports 43).
    pub max_patterns: usize,
    /// Support counting mode.
    pub support: SupportMode,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            min_len: 2,
            max_len: 14,
            min_support: 2,
            max_patterns: 43,
            support: SupportMode::Subsequence,
        }
    }
}

/// Mine common patterns from an incident corpus.
///
/// Candidates are the pairwise LCSs of incident alert sequences (computed
/// in parallel); support of each deduplicated candidate is the number of
/// incidents containing it as a subsequence. Results are sorted by
/// descending support (then shorter first, then lexicographic by kind
/// index) and named `S1..Sk`.
pub fn mine_common_patterns(store: &IncidentStore, cfg: &MinerConfig) -> Vec<CommonPattern> {
    let seqs: Vec<Vec<AlertKind>> = store.iter().map(|i| i.kind_sequence()).collect();
    let n = seqs.len();
    if n < 2 {
        return Vec::new();
    }
    // Pairwise LCS candidates, parallel over rows, keeping the pair that
    // produced each candidate (needed for LcsPeers support).
    let candidates: Vec<(usize, usize, Vec<AlertKind>)> = (0..n - 1)
        .into_par_iter()
        .flat_map_iter(|i| {
            let seqs = &seqs;
            (i + 1..n).map(move |j| (i, j, lcs(&seqs[i], &seqs[j])))
        })
        .filter(|(_, _, c)| c.len() >= cfg.min_len && c.len() <= cfg.max_len)
        .collect();

    let mut scored: Vec<(Vec<AlertKind>, usize)> = match cfg.support {
        SupportMode::Subsequence => {
            let mut uniq: FxHashMap<Vec<AlertKind>, ()> = FxHashMap::default();
            for (_, _, c) in candidates {
                uniq.entry(c).or_insert(());
            }
            let uniq: Vec<Vec<AlertKind>> = uniq.into_keys().collect();
            uniq.into_par_iter()
                .map(|cand| {
                    let support = seqs.iter().filter(|s| is_subsequence(&cand, s)).count();
                    (cand, support)
                })
                .collect()
        }
        SupportMode::LcsPeers => {
            // For each distinct pattern, the set of incidents that shared
            // exactly this sequence with some peer.
            let mut members: FxHashMap<Vec<AlertKind>, Vec<usize>> = FxHashMap::default();
            for (i, j, c) in candidates {
                let entry = members.entry(c).or_default();
                entry.push(i);
                entry.push(j);
            }
            members
                .into_iter()
                .map(|(cand, mut incidents)| {
                    incidents.sort_unstable();
                    incidents.dedup();
                    (cand, incidents.len())
                })
                .collect()
        }
    };
    scored.retain(|(_, s)| *s >= cfg.min_support);

    scored.sort_by(|(sa, ca), (sb, cb)| {
        cb.cmp(ca)
            .then_with(|| sa.len().cmp(&sb.len()))
            .then_with(|| {
                let ka: Vec<usize> = sa.iter().map(|k| k.index()).collect();
                let kb: Vec<usize> = sb.iter().map(|k| k.index()).collect();
                ka.cmp(&kb)
            })
    });
    scored.truncate(cfg.max_patterns);
    scored
        .into_iter()
        .enumerate()
        .map(|(i, (seq, support))| CommonPattern {
            rank: i + 1,
            seq,
            support,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertlib::alert::{Alert, Entity};
    use alertlib::store::{Incident, IncidentId};
    use simnet::time::SimTime;

    #[test]
    fn lcs_length_classics() {
        assert_eq!(lcs_length(b"ABCBDAB", b"BDCABA"), 4);
        assert_eq!(lcs_length(b"", b"xyz"), 0);
        assert_eq!(lcs_length(b"abc", b"abc"), 3);
        assert_eq!(lcs_length(b"abc", b"def"), 0);
    }

    #[test]
    fn lcs_reconstruction_is_valid() {
        let a = b"ABCBDAB".to_vec();
        let b = b"BDCABA".to_vec();
        let s = lcs(&a, &b);
        assert_eq!(s.len(), lcs_length(&a, &b));
        assert!(is_subsequence(&s, &a));
        assert!(is_subsequence(&s, &b));
    }

    #[test]
    fn subsequence_checks() {
        assert!(is_subsequence(b"ace", b"abcde"));
        assert!(!is_subsequence(b"aec", b"abcde"));
        assert!(is_subsequence(b"", b"abc"));
        assert!(!is_subsequence(b"a", b""));
    }

    fn incident(kinds: &[AlertKind]) -> Incident {
        let mut inc = Incident::new(IncidentId(0), "t", 2020);
        for (i, &k) in kinds.iter().enumerate() {
            inc.push_alert(Alert::new(SimTime::from_secs(i as u64), k, Entity::Unknown));
        }
        inc
    }

    #[test]
    fn mining_finds_shared_motif() {
        use AlertKind::*;
        let mut store = IncidentStore::new();
        // The S1 motif with different noise around it.
        for extra in [PortScan, BruteForcePassword, VulnScan, LoginFailed] {
            store.add(incident(&[
                extra,
                DownloadSensitive,
                CompileKernelModule,
                LogWipe,
            ]));
        }
        // One unrelated incident.
        store.add(incident(&[SqlInjectionProbe, DataExfiltration]));
        let patterns = mine_common_patterns(&store, &MinerConfig::default());
        assert!(!patterns.is_empty());
        let top = &patterns[0];
        assert_eq!(top.name(), "S1");
        assert_eq!(
            top.seq,
            vec![DownloadSensitive, CompileKernelModule, LogWipe]
        );
        assert_eq!(top.support, 4);
    }

    #[test]
    fn min_support_filters_rare_patterns() {
        use AlertKind::*;
        let mut store = IncidentStore::new();
        store.add(incident(&[PortScan, LogWipe]));
        store.add(incident(&[PortScan, LogWipe]));
        store.add(incident(&[SqlInjectionProbe, RansomNoteDropped]));
        let cfg = MinerConfig {
            min_support: 3,
            ..Default::default()
        };
        let patterns = mine_common_patterns(&store, &cfg);
        assert!(patterns.is_empty());
    }

    #[test]
    fn pattern_cap_respected() {
        use AlertKind::*;
        let mut store = IncidentStore::new();
        // Many distinct pairwise motifs.
        let kinds = [
            PortScan,
            VulnScan,
            BruteForcePassword,
            DownloadSensitive,
            CompileSource,
            LogWipe,
            HistoryCleared,
            SshKeyEnumeration,
        ];
        for i in 0..kinds.len() {
            for j in 0..kinds.len() {
                if i != j {
                    store.add(incident(&[kinds[i], kinds[j]]));
                }
            }
        }
        let cfg = MinerConfig {
            max_patterns: 5,
            min_support: 2,
            ..Default::default()
        };
        let patterns = mine_common_patterns(&store, &cfg);
        assert!(patterns.len() <= 5);
        // Ranks are 1-based and ordered by support.
        for (i, p) in patterns.iter().enumerate() {
            assert_eq!(p.rank, i + 1);
            if i > 0 {
                assert!(patterns[i - 1].support >= p.support);
            }
        }
    }
}
