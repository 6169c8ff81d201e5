//! Maximum-likelihood parameter learning with Laplace smoothing.
//!
//! The paper's factor-graph detector is trained on labeled past incidents
//! (§II-A's annotated corpus): emission and transition probabilities are
//! relative frequencies over (stage, alert) and (stage, stage) pairs, with
//! add-k smoothing so alerts never seen in training do not zero out the
//! posterior — essential for "generalizing to unseen attacks".

use crate::chain::ChainModel;

/// Accumulates counts from labeled `(state, observation)` sequences.
#[derive(Debug, Clone)]
pub struct ChainLearner {
    n_states: usize,
    n_obs: usize,
    smoothing: f64,
    prior_counts: Vec<f64>,
    trans_counts: Vec<f64>,
    emit_counts: Vec<f64>,
    sequences_seen: u64,
}

impl ChainLearner {
    /// Create a learner with add-`smoothing` Laplace regularization.
    pub fn new(n_states: usize, n_obs: usize, smoothing: f64) -> ChainLearner {
        assert!(n_states > 0 && n_obs > 0);
        assert!(smoothing >= 0.0);
        ChainLearner {
            n_states,
            n_obs,
            smoothing,
            prior_counts: vec![0.0; n_states],
            trans_counts: vec![0.0; n_states * n_states],
            emit_counts: vec![0.0; n_states * n_obs],
            sequences_seen: 0,
        }
    }

    /// Ingest one labeled sequence. `states` and `obs` must be parallel.
    pub fn observe(&mut self, states: &[usize], obs: &[usize]) {
        assert_eq!(
            states.len(),
            obs.len(),
            "states/observations length mismatch"
        );
        if states.is_empty() {
            return;
        }
        self.sequences_seen += 1;
        self.prior_counts[states[0]] += 1.0;
        for t in 0..states.len() {
            assert!(states[t] < self.n_states, "state out of range");
            assert!(obs[t] < self.n_obs, "observation out of range");
            self.emit_counts[states[t] * self.n_obs + obs[t]] += 1.0;
            if t + 1 < states.len() {
                self.trans_counts[states[t] * self.n_states + states[t + 1]] += 1.0;
            }
        }
    }

    /// Ingest with a weight (e.g. to overweight recent incidents).
    pub fn observe_weighted(&mut self, states: &[usize], obs: &[usize], weight: f64) {
        assert_eq!(states.len(), obs.len());
        if states.is_empty() || weight <= 0.0 {
            return;
        }
        self.sequences_seen += 1;
        self.prior_counts[states[0]] += weight;
        for t in 0..states.len() {
            self.emit_counts[states[t] * self.n_obs + obs[t]] += weight;
            if t + 1 < states.len() {
                self.trans_counts[states[t] * self.n_states + states[t + 1]] += weight;
            }
        }
    }

    /// Add weight to a single `(state, observation)` emission cell without
    /// touching the prior or transition counts. This is the hook for
    /// marginal emission evidence that carries no sequence context — e.g.
    /// cover-activity augmentation, where benign-shaped observations are
    /// known to occur *within* attack-stage windows at some rate but have
    /// no meaningful position in the labeled chain.
    pub fn observe_emission(&mut self, state: usize, obs: usize, weight: f64) {
        assert!(state < self.n_states, "state out of range");
        assert!(obs < self.n_obs, "observation out of range");
        if weight <= 0.0 {
            return;
        }
        self.emit_counts[state * self.n_obs + obs] += weight;
    }

    /// Total emission weight accumulated for a state (the normalizer its
    /// emission row will be divided by, pre-smoothing).
    pub fn emission_weight(&self, state: usize) -> f64 {
        self.emit_counts[state * self.n_obs..(state + 1) * self.n_obs]
            .iter()
            .sum()
    }

    pub fn sequences_seen(&self) -> u64 {
        self.sequences_seen
    }

    fn normalize_rows(counts: &[f64], rows: usize, cols: usize, smoothing: f64) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            let row = &counts[r * cols..(r + 1) * cols];
            let total: f64 = row.iter().sum::<f64>() + smoothing * cols as f64;
            for c in 0..cols {
                out[r * cols + c] = if total > 0.0 {
                    (row[c] + smoothing) / total
                } else {
                    1.0 / cols as f64
                };
            }
        }
        out
    }

    /// Finalize into a [`ChainModel`].
    pub fn build(&self) -> ChainModel {
        let prior = Self::normalize_rows(&self.prior_counts, 1, self.n_states, self.smoothing);
        let trans = Self::normalize_rows(
            &self.trans_counts,
            self.n_states,
            self.n_states,
            self.smoothing,
        );
        let emit =
            Self::normalize_rows(&self.emit_counts, self.n_states, self.n_obs, self.smoothing);
        ChainModel::new(self.n_states, self.n_obs, prior, trans, emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_recovered_without_smoothing() {
        let mut l = ChainLearner::new(2, 2, 0.0);
        // State 0 always emits 0; state 1 always emits 1; transitions 0→1.
        l.observe(&[0, 1], &[0, 1]);
        l.observe(&[0, 1], &[0, 1]);
        let m = l.build();
        assert!((m.prior()[0] - 1.0).abs() < 1e-12);
        assert!((m.trans(0, 1) - 1.0).abs() < 1e-12);
        assert!((m.emit(0, 0) - 1.0).abs() < 1e-12);
        assert!((m.emit(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_avoids_zeros() {
        let mut l = ChainLearner::new(2, 3, 1.0);
        l.observe(&[0], &[0]);
        let m = l.build();
        // Observation 2 never seen but has non-zero emission everywhere.
        assert!(m.emit(0, 2) > 0.0);
        assert!(m.emit(1, 2) > 0.0);
        // Rows remain distributions.
        let row: f64 = (0..3).map(|o| m.emit(0, o)).sum();
        assert!((row - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_rows_are_uniform() {
        let mut l = ChainLearner::new(3, 2, 0.5);
        l.observe(&[0, 0], &[0, 1]);
        let m = l.build();
        // State 2 never seen: uniform transition row.
        for to in 0..3 {
            assert!((m.trans(2, to) - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_observations_shift_estimates() {
        let mut l = ChainLearner::new(1, 2, 0.0);
        l.observe_weighted(&[0], &[0], 1.0);
        l.observe_weighted(&[0], &[1], 3.0);
        let m = l.build();
        assert!((m.emit(0, 1) - 0.75).abs() < 1e-12);
        assert_eq!(l.sequences_seen(), 2);
    }

    #[test]
    fn learned_model_decodes_training_pattern() {
        // Train on the S1-like pattern: stage ramps 0→1→2, distinct
        // observation per stage.
        let mut l = ChainLearner::new(3, 3, 0.01);
        for _ in 0..50 {
            l.observe(&[0, 1, 2], &[0, 1, 2]);
        }
        let m = l.build();
        let (path, _) = m.viterbi(&[0, 1, 2]);
        assert_eq!(path, vec![0, 1, 2]);
        // Filtering after two observations already points at stage 1.
        let (alpha, _) = m.filter(&[0, 1]);
        assert!(alpha[1][1] > 0.9);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut l = ChainLearner::new(2, 2, 0.0);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            l.observe(&[0, 1], &[0]);
        }))
        .is_err());
    }
}
