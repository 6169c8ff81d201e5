//! # mining — longitudinal measurement analytics
//!
//! The analyses of §II-C, which extract the paper's four insights from the
//! incident corpus:
//!
//! - [`jaccard`](mod@jaccard) — pairwise attack similarity CDF (Fig. 3a, Insight 1).
//! - [`lcs`](mod@lcs) — longest-common-subsequence pattern mining, producing the
//!   `S1..S43` common sequences and their counts (Fig. 3b, Insight 2).
//! - [`timing`] — automated-vs-manual inter-alert timing dispersion
//!   (Insight 3).
//! - [`criticality`] — critical-alert counts and lateness (Insight 4).
//! - [`recur`] — pattern recurrence across years (the 2002→2024 S1 claim).
//! - [`stats`] — CDF / histogram / summary primitives.

pub mod criticality;
pub mod jaccard;
pub mod lcs;
pub mod recur;
pub mod stats;
pub mod timing;

pub use criticality::{measure_criticality, CriticalityReport};
pub use jaccard::{fraction_pairs_below, jaccard, pairwise_similarities, similarity_cdf};
pub use lcs::{is_subsequence, lcs, lcs_length, mine_common_patterns, CommonPattern, MinerConfig};
pub use recur::{measure_recurrence, s1_pattern, Recurrence};
pub use stats::{Cdf, Histogram, Summary};
pub use timing::{compare_phase_timing, inter_arrival_secs, split_phases, TimingComparison};
