//! Quantized inter-observation-gap observation factors.
//!
//! Insight 3 of the paper: attack *tempo* is itself evidence. Automated
//! reconnaissance ticks at machine rate, manual exploitation has
//! heavy-tailed minutes-to-hours gaps, and low-and-slow evasion stretches
//! both — while benign interactive activity keeps its own rhythm. A chain
//! model that sees only alert *order* is blind to all of it; this module
//! adds the timing side: the gap preceding each observation is quantized
//! into a small set of logarithmic bins, and a per-state emission table
//! `P(gap bin | state)` turns that bin into one more observation factor
//! multiplied into the forward filter (or, in the session factor graph,
//! one more unary factor on the step variable).
//!
//! The quantization is deliberately coarse: bins are evidence about tempo
//! *class* (machine-paced / interactive / slow / dormant), not a timing
//! side-channel. Coarse bins also keep the learned tables well-supported
//! and the per-step likelihood ratios bounded, which is what keeps the
//! false-positive rate stable when the feature is enabled.

/// Gap bin index meaning "no preceding observation" (the first alert of an
/// entity, or the first after a session timeout). No gap factor is applied
/// at such steps.
pub const GAP_NONE: usize = usize::MAX;

/// A per-state emission model over quantized inter-observation gaps.
///
/// `boundaries_secs` are the (sorted, positive) upper edges of the first
/// `n_bins - 1` bins; the last bin is open-ended. A gap `g` lands in the
/// first bin whose boundary exceeds it: with boundaries `[60, 3600]`,
/// gaps quantize to `<1m`, `1m–1h`, `≥1h`.
#[derive(Debug, Clone, PartialEq)]
pub struct GapModel {
    n_states: usize,
    boundaries_secs: Vec<f64>,
    /// `emit[s * n_bins + b]` = P(gap bin = b | state = s).
    emit: Vec<f64>,
    /// Gaps shorter than this quantize to [`GAP_NONE`] (no evidence
    /// folded): machine-paced bursts are emitted by scanners, exploit
    /// tooling and batch jobs alike, so sub-threshold tempo carries no
    /// stage information worth acting on. 0 disables the guard.
    neutral_below_secs: f64,
}

impl GapModel {
    /// Create a gap model, validating that boundaries are sorted/positive
    /// and every state row is a distribution over the bins.
    pub fn new(n_states: usize, boundaries_secs: Vec<f64>, emit: Vec<f64>) -> GapModel {
        assert!(n_states > 0, "gap model needs at least one state");
        assert!(
            !boundaries_secs.is_empty(),
            "gap model needs at least two bins"
        );
        assert!(
            boundaries_secs
                .windows(2)
                .all(|w| w[0] < w[1] && w[0] > 0.0)
                && boundaries_secs[0] > 0.0,
            "gap boundaries must be positive and strictly increasing"
        );
        let n_bins = boundaries_secs.len() + 1;
        assert_eq!(emit.len(), n_states * n_bins, "gap emission table size");
        for s in 0..n_states {
            let row = &emit[s * n_bins..(s + 1) * n_bins];
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "gap emission row {s} must sum to 1 (got {sum})"
            );
            assert!(
                row.iter().all(|&x| x >= 0.0),
                "gap emission row {s} must be non-negative"
            );
        }
        GapModel {
            n_states,
            boundaries_secs,
            emit,
            neutral_below_secs: 0.0,
        }
    }

    /// Treat gaps shorter than `secs` as carrying no evidence
    /// ([`GapModel::bin`] returns [`GAP_NONE`] for them).
    pub fn with_neutral_below(mut self, secs: f64) -> GapModel {
        assert!(secs >= 0.0 && secs.is_finite());
        self.neutral_below_secs = secs;
        self
    }

    /// The neutral-gap guard threshold in seconds (0 = disabled).
    pub fn neutral_below_secs(&self) -> f64 {
        self.neutral_below_secs
    }

    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of quantization bins (boundaries + the open-ended last bin).
    pub fn n_bins(&self) -> usize {
        self.boundaries_secs.len() + 1
    }

    /// The bin boundaries in seconds (upper edges of all but the last bin).
    pub fn boundaries_secs(&self) -> &[f64] {
        &self.boundaries_secs
    }

    /// Quantize a gap (seconds) into its bin; [`GAP_NONE`] when it falls
    /// under the neutral-gap guard.
    #[inline]
    pub fn bin(&self, gap_secs: f64) -> usize {
        if gap_secs < self.neutral_below_secs {
            return GAP_NONE;
        }
        quantize_gap(&self.boundaries_secs, gap_secs)
    }

    /// P(gap bin | state). Returns 1.0 (a neutral factor) for
    /// [`GAP_NONE`], so callers can fold unconditionally.
    #[inline]
    pub fn emit(&self, state: usize, bin: usize) -> f64 {
        if bin == GAP_NONE {
            return 1.0;
        }
        self.emit[state * self.n_bins() + bin]
    }
}

/// Quantize a gap in seconds against sorted bin boundaries: the first bin
/// whose upper edge exceeds the gap, or the open-ended last bin.
#[inline]
pub fn quantize_gap(boundaries_secs: &[f64], gap_secs: f64) -> usize {
    boundaries_secs
        .iter()
        .position(|&b| gap_secs < b)
        .unwrap_or(boundaries_secs.len())
}

/// Accumulates `(state, gap bin)` counts and finalizes into a [`GapModel`]
/// with add-k smoothing — the timing counterpart of
/// [`crate::learn::ChainLearner`], kept separate so order-only training
/// paths pay nothing.
#[derive(Debug, Clone)]
pub struct GapLearner {
    n_states: usize,
    boundaries_secs: Vec<f64>,
    smoothing: f64,
    counts: Vec<f64>,
    neutral_below_secs: f64,
}

impl GapLearner {
    pub fn new(n_states: usize, boundaries_secs: Vec<f64>, smoothing: f64) -> GapLearner {
        assert!(smoothing >= 0.0);
        let n_bins = boundaries_secs.len() + 1;
        GapLearner {
            n_states,
            boundaries_secs,
            smoothing,
            counts: vec![0.0; n_states * n_bins],
            neutral_below_secs: 0.0,
        }
    }

    /// Skip gaps shorter than `secs` during learning and stamp the same
    /// guard on the built [`GapModel`] (see
    /// [`GapModel::with_neutral_below`]).
    pub fn with_neutral_below(mut self, secs: f64) -> GapLearner {
        assert!(secs >= 0.0 && secs.is_finite());
        self.neutral_below_secs = secs;
        self
    }

    fn n_bins(&self) -> usize {
        self.boundaries_secs.len() + 1
    }

    /// Count one labeled gap observation with a weight. Gaps under the
    /// neutral guard are skipped — they will be neutral online too.
    pub fn observe_weighted(&mut self, state: usize, gap_secs: f64, weight: f64) {
        assert!(state < self.n_states, "state out of range");
        if weight <= 0.0
            || !gap_secs.is_finite()
            || gap_secs < 0.0
            || gap_secs < self.neutral_below_secs
        {
            return;
        }
        let bin = quantize_gap(&self.boundaries_secs, gap_secs);
        let idx = state * self.n_bins() + bin;
        self.counts[idx] += weight;
    }

    /// Count one labeled gap observation.
    pub fn observe(&mut self, state: usize, gap_secs: f64) {
        self.observe_weighted(state, gap_secs, 1.0);
    }

    /// Finalize into a [`GapModel`]. `floor` mixes each learned row with
    /// the uniform distribution (`row ← (1-floor)·row + floor·uniform`),
    /// bounding the per-step likelihood ratio any single gap observation
    /// can contribute — the knob that trades recovery-under-dilation
    /// against false-positive growth.
    pub fn build(&self, floor: f64) -> GapModel {
        assert!((0.0..=1.0).contains(&floor), "floor must be in [0, 1]");
        let n_bins = self.n_bins();
        let uniform = 1.0 / n_bins as f64;
        let mut emit = vec![0.0; self.n_states * n_bins];
        for s in 0..self.n_states {
            let row = &self.counts[s * n_bins..(s + 1) * n_bins];
            let total: f64 = row.iter().sum::<f64>() + self.smoothing * n_bins as f64;
            for b in 0..n_bins {
                let learned = if total > 0.0 {
                    (row[b] + self.smoothing) / total
                } else {
                    uniform
                };
                emit[s * n_bins + b] = (1.0 - floor) * learned + floor * uniform;
            }
        }
        GapModel::new(self.n_states, self.boundaries_secs.clone(), emit)
            .with_neutral_below(self.neutral_below_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_edges() {
        let b = [60.0, 3600.0];
        assert_eq!(quantize_gap(&b, 0.0), 0);
        assert_eq!(quantize_gap(&b, 59.9), 0);
        assert_eq!(quantize_gap(&b, 60.0), 1);
        assert_eq!(quantize_gap(&b, 3599.9), 1);
        assert_eq!(quantize_gap(&b, 3600.0), 2);
        assert_eq!(quantize_gap(&b, f64::INFINITY), 2);
    }

    #[test]
    fn learned_rows_are_distributions() {
        let mut l = GapLearner::new(2, vec![60.0, 3600.0], 0.1);
        l.observe(0, 5.0);
        l.observe(0, 5.0);
        l.observe(1, 10_000.0);
        let m = l.build(0.0);
        for s in 0..2 {
            let sum: f64 = (0..m.n_bins()).map(|b| m.emit(s, b)).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert!(m.emit(0, 0) > m.emit(0, 2));
        assert!(m.emit(1, 2) > m.emit(1, 0));
    }

    #[test]
    fn floor_bounds_likelihood_ratios() {
        let mut l = GapLearner::new(2, vec![60.0], 0.0);
        // State 0 only ever short gaps, state 1 only ever long.
        for _ in 0..1000 {
            l.observe(0, 1.0);
            l.observe(1, 1000.0);
        }
        let sharp = l.build(0.0);
        let floored = l.build(0.5);
        let ratio = |m: &GapModel| m.emit(1, 1) / m.emit(0, 1);
        assert!(ratio(&sharp) > ratio(&floored));
        // With a 0.5 floor, each row holds >= 0.25 on every bin.
        for s in 0..2 {
            for b in 0..2 {
                assert!(floored.emit(s, b) >= 0.25 - 1e-12);
            }
        }
    }

    #[test]
    fn gap_none_is_neutral() {
        let m = GapModel::new(1, vec![60.0], vec![0.9, 0.1]);
        assert_eq!(m.emit(0, GAP_NONE), 1.0);
    }

    #[test]
    fn unseen_state_rows_are_uniform() {
        let l = GapLearner::new(3, vec![60.0, 600.0], 0.0);
        let m = l.build(0.0);
        for b in 0..3 {
            assert!((m.emit(2, b) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_models_rejected() {
        for bad in [
            // Unsorted boundaries.
            (vec![60.0, 10.0], vec![0.5; 6]),
            // Non-distribution row.
            (vec![60.0], vec![0.9, 0.9]),
        ] {
            let (bounds, emit) = bad;
            assert!(std::panic::catch_unwind(|| GapModel::new(2, bounds, emit)).is_err());
        }
    }
}
