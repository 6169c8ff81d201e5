//! Exact inference on chain-structured models.
//!
//! The AttackTagger detector (refs \[5\], \[6\] of the paper) models each
//! attack entity as a chain of hidden attack stages `s_1 → s_2 → … → s_n`
//! with one observed alert per step. This module provides the exact,
//! numerically scaled algorithms on that chain: forward filtering (the
//! *causal* posterior a preemption model must use online), forward-backward
//! smoothing, Viterbi MAP decoding and sequence likelihood — all O(n·S²).

use crate::timing::{GapModel, GAP_NONE};

/// `f64::MIN_POSITIVE.ln()`: the log-likelihood an impossible
/// observation costs in [`ChainModel::filter`]. A literal, so every build
/// reads the same bits without a run-time `ln` call.
const LN_MIN_POSITIVE: f64 = -708.396_418_532_264_1;

/// A stationary chain model: prior, transition and emission tables, plus
/// an optional quantized inter-observation-gap emission model
/// ([`GapModel`], Insight 3: attack tempo is evidence).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainModel {
    n_states: usize,
    n_obs: usize,
    /// `prior[s]` = P(s_1 = s).
    prior: Vec<f64>,
    /// `trans[from * n_states + to]` = P(s_{t+1} = to | s_t = from).
    trans: Vec<f64>,
    /// `emit[s * n_obs + o]` = P(o_t = o | s_t = s).
    emit: Vec<f64>,
    /// Optional timing side: `P(gap bin | state)` folded in as one more
    /// observation factor per step. `None` = the order-only model.
    gap: Option<GapModel>,
}

fn assert_distribution(v: &[f64], what: &str) {
    let sum: f64 = v.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6, "{what} must sum to 1 (got {sum})");
    assert!(v.iter().all(|&x| x >= 0.0), "{what} must be non-negative");
}

impl ChainModel {
    /// Create a model, validating that every row is a distribution.
    pub fn new(
        n_states: usize,
        n_obs: usize,
        prior: Vec<f64>,
        trans: Vec<f64>,
        emit: Vec<f64>,
    ) -> ChainModel {
        assert_eq!(prior.len(), n_states);
        assert_eq!(trans.len(), n_states * n_states);
        assert_eq!(emit.len(), n_states * n_obs);
        assert_distribution(&prior, "prior");
        for s in 0..n_states {
            assert_distribution(&trans[s * n_states..(s + 1) * n_states], "transition row");
            assert_distribution(&emit[s * n_obs..(s + 1) * n_obs], "emission row");
        }
        ChainModel {
            n_states,
            n_obs,
            prior,
            trans,
            emit,
            gap: None,
        }
    }

    /// Attach a quantized gap emission model (builder style).
    pub fn with_gap_model(mut self, gap: GapModel) -> ChainModel {
        assert_eq!(
            gap.n_states(),
            self.n_states,
            "gap model state count must match the chain"
        );
        self.gap = Some(gap);
        self
    }

    /// The attached gap model, if any.
    pub fn gap_model(&self) -> Option<&GapModel> {
        self.gap.as_ref()
    }

    pub fn n_states(&self) -> usize {
        self.n_states
    }

    pub fn n_obs(&self) -> usize {
        self.n_obs
    }

    pub fn prior(&self) -> &[f64] {
        &self.prior
    }

    /// P(to | from).
    #[inline]
    pub fn trans(&self, from: usize, to: usize) -> f64 {
        self.trans[from * self.n_states + to]
    }

    /// P(obs | state).
    #[inline]
    pub fn emit(&self, state: usize, obs: usize) -> f64 {
        self.emit[state * self.n_obs + obs]
    }

    /// P(gap bin | state) from the attached gap model; 1.0 (neutral) when
    /// no gap model is attached or the bin is [`GAP_NONE`].
    #[inline]
    pub fn gap_emit(&self, state: usize, gap_bin: usize) -> f64 {
        match &self.gap {
            Some(g) => g.emit(state, gap_bin),
            None => 1.0,
        }
    }

    /// Quantize a gap in seconds with the attached gap model's bins;
    /// [`GAP_NONE`] when the model has no timing side (so the result can
    /// be fed straight back into [`ChainModel::gap_emit`]).
    #[inline]
    pub fn gap_bin(&self, gap_secs: f64) -> usize {
        match &self.gap {
            Some(g) => g.bin(gap_secs),
            None => GAP_NONE,
        }
    }

    /// Forward (filtering) pass: `alpha[t][s] = P(s_t = s | o_1..o_t)`,
    /// plus the log-likelihood of the observations. This is the quantity an
    /// online preemption model thresholds after every alert. Order-only:
    /// any attached gap model is ignored (see [`ChainModel::filter_timed`]).
    pub fn filter(&self, obs: &[usize]) -> (Vec<Vec<f64>>, f64) {
        self.filter_impl(obs, None)
    }

    /// Timed forward pass: like [`ChainModel::filter`], but each step also
    /// folds in the gap-bin observation preceding it ([`GAP_NONE`] entries
    /// contribute a neutral factor — use it at `t = 0` and wherever the
    /// gap is unknown). `gap_bins` is parallel to `obs`.
    pub fn filter_timed(&self, obs: &[usize], gap_bins: &[usize]) -> (Vec<Vec<f64>>, f64) {
        assert_eq!(
            obs.len(),
            gap_bins.len(),
            "observations/gap-bins length mismatch"
        );
        self.filter_impl(obs, Some(gap_bins))
    }

    fn filter_impl(&self, obs: &[usize], gap_bins: Option<&[usize]>) -> (Vec<Vec<f64>>, f64) {
        let mut alphas: Vec<Vec<f64>> = Vec::with_capacity(obs.len());
        let mut loglik = 0.0;
        for (t, &o) in obs.iter().enumerate() {
            assert!(o < self.n_obs, "observation {o} out of range");
            let bin = gap_bins.map_or(GAP_NONE, |g| g[t]);
            let mut a = vec![0.0f64; self.n_states];
            let norm = self.forward_step(alphas.last().map(Vec::as_slice), o, bin, &mut a);
            // An impossible observation under the model costs a heavy
            // likelihood penalty (the posterior fell back to uniform).
            loglik += if norm > 0.0 {
                norm.ln()
            } else {
                LN_MIN_POSITIVE
            };
            alphas.push(a);
        }
        (alphas, loglik)
    }

    /// One forward-filter step, the online update of every chain filter
    /// (this model's [`ChainModel::filter`], the per-entity tagger and the
    /// correlator's stitched replay). Writes `P(s_t | o_1..o_t)` into
    /// `out`: `prev` is the step-`t-1` posterior, or `None` at `t = 0`
    /// (start from the prior); `gap_bin` is the quantized gap preceding
    /// `obs` ([`GAP_NONE`] is neutral). Returns the normaliser
    /// `P(o_t | o_1..o_{t-1})`; when it is 0 (an impossible observation)
    /// `out` falls back to uniform. Allocation-free.
    #[inline]
    pub fn forward_step(
        &self,
        prev: Option<&[f64]>,
        obs: usize,
        gap_bin: usize,
        out: &mut [f64],
    ) -> f64 {
        debug_assert_eq!(out.len(), self.n_states);
        match prev {
            None => {
                for (s, a) in out.iter_mut().enumerate() {
                    *a = self.prior[s] * self.emit(s, obs) * self.gap_emit(s, gap_bin);
                }
            }
            Some(prev) => {
                for (s, a) in out.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (ps, &p) in prev.iter().enumerate() {
                        acc += p * self.trans(ps, s);
                    }
                    *a = acc * self.emit(s, obs) * self.gap_emit(s, gap_bin);
                }
            }
        }
        let norm: f64 = out.iter().sum();
        if norm > 0.0 {
            for x in out.iter_mut() {
                *x /= norm;
            }
        } else {
            out.fill(1.0 / out.len() as f64);
        }
        norm
    }

    /// Relax a posterior toward the prior, `α ← λα + (1−λ)·prior` (the
    /// evidence decay applied between steps). Both operands are
    /// distributions, so the mixture needs no renormalisation.
    #[inline]
    pub fn relax_to_prior(&self, alpha: &mut [f64], lambda: f64) {
        for (a, &p) in alpha.iter_mut().zip(&self.prior) {
            *a = lambda * *a + (1.0 - lambda) * p;
        }
    }

    /// Smoothed posteriors `gamma[t][s] = P(s_t = s | o_1..o_n)` via scaled
    /// forward-backward. Order-only; see [`ChainModel::posteriors_timed`].
    pub fn posteriors(&self, obs: &[usize]) -> Vec<Vec<f64>> {
        self.posteriors_impl(obs, None)
    }

    /// Timed forward-backward smoothing: folds the quantized gap
    /// observations (parallel to `obs`; [`GAP_NONE`] entries neutral) into
    /// both sweeps.
    pub fn posteriors_timed(&self, obs: &[usize], gap_bins: &[usize]) -> Vec<Vec<f64>> {
        assert_eq!(
            obs.len(),
            gap_bins.len(),
            "observations/gap-bins length mismatch"
        );
        self.posteriors_impl(obs, Some(gap_bins))
    }

    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    fn posteriors_impl(&self, obs: &[usize], gap_bins: Option<&[usize]>) -> Vec<Vec<f64>> {
        if obs.is_empty() {
            return Vec::new();
        }
        let s_n = self.n_states;
        let (alphas, _) = self.filter_impl(obs, gap_bins);
        let n = obs.len();
        let mut betas = vec![vec![1.0f64; s_n]; n];
        for t in (0..n - 1).rev() {
            let o_next = obs[t + 1];
            let bin_next = gap_bins.map_or(GAP_NONE, |g| g[t + 1]);
            let mut b = vec![0.0f64; s_n];
            for s in 0..s_n {
                let mut acc = 0.0;
                for ns in 0..s_n {
                    acc += self.trans(s, ns)
                        * self.emit(ns, o_next)
                        * self.gap_emit(ns, bin_next)
                        * betas[t + 1][ns];
                }
                b[s] = acc;
            }
            let norm: f64 = b.iter().sum();
            if norm > 0.0 {
                for x in &mut b {
                    *x /= norm;
                }
            }
            betas[t] = b;
        }
        let mut gammas = Vec::with_capacity(n);
        for t in 0..n {
            let mut g: Vec<f64> = (0..s_n).map(|s| alphas[t][s] * betas[t][s]).collect();
            let norm: f64 = g.iter().sum();
            if norm > 0.0 {
                for x in &mut g {
                    *x /= norm;
                }
            }
            gammas.push(g);
        }
        gammas
    }

    /// Viterbi MAP decode in log domain. Returns the best state sequence
    /// and its log-probability.
    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    pub fn viterbi(&self, obs: &[usize]) -> (Vec<usize>, f64) {
        if obs.is_empty() {
            return (Vec::new(), 0.0);
        }
        let s_n = self.n_states;
        let n = obs.len();
        let log = |x: f64| if x > 0.0 { x.ln() } else { f64::NEG_INFINITY };
        let mut delta: Vec<f64> = (0..s_n)
            .map(|s| log(self.prior[s]) + log(self.emit(s, obs[0])))
            .collect();
        let mut backptr = vec![vec![0usize; s_n]; n];
        for t in 1..n {
            let mut next = vec![f64::NEG_INFINITY; s_n];
            for s in 0..s_n {
                let e = log(self.emit(s, obs[t]));
                for ps in 0..s_n {
                    let cand = delta[ps] + log(self.trans(ps, s)) + e;
                    if cand > next[s] {
                        next[s] = cand;
                        backptr[t][s] = ps;
                    }
                }
            }
            delta = next;
        }
        let mut best = 0;
        for s in 1..s_n {
            if delta[s] > delta[best] {
                best = s;
            }
        }
        let best_logp = delta[best];
        let mut path = vec![0usize; n];
        path[n - 1] = best;
        for t in (1..n).rev() {
            path[t - 1] = backptr[t][path[t]];
        }
        (path, best_logp)
    }

    /// Log-likelihood of an observation sequence.
    pub fn loglik(&self, obs: &[usize]) -> f64 {
        self.filter(obs).1
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    /// A 2-state weather-like model.
    fn toy() -> ChainModel {
        ChainModel::new(
            2,
            3,
            vec![0.6, 0.4],
            vec![0.7, 0.3, 0.4, 0.6],
            vec![0.5, 0.4, 0.1, 0.1, 0.3, 0.6],
        )
    }

    fn toy_with_gaps() -> ChainModel {
        // 2 gap bins (< 1h / >= 1h): state 0 fast, state 1 slow.
        toy().with_gap_model(GapModel::new(2, vec![3_600.0], vec![0.9, 0.1, 0.2, 0.8]))
    }

    /// The exact oracle: all `S^n` state paths, each weighted by
    /// `prior·emit·gap_emit · Π trans·emit·gap_emit` straight from the
    /// model's tables.
    struct Exhaustive {
        /// `P(s_t = s | o_1..o_n)`.
        marginals: Vec<Vec<f64>>,
        /// `P(o_1..o_n)`.
        evidence: f64,
        /// The heaviest path and its joint weight.
        best: (Vec<usize>, f64),
    }

    fn exhaustive(m: &ChainModel, obs: &[usize], bins: &[usize]) -> Exhaustive {
        let (s, n) = (m.n_states(), obs.len());
        let mut marginals = vec![vec![0.0; s]; n];
        let mut evidence = 0.0;
        let mut best = (Vec::new(), f64::NEG_INFINITY);
        for code in 0..s.pow(n as u32) {
            let path: Vec<usize> = (0..n).map(|t| code / s.pow(t as u32) % s).collect();
            let mut w = 1.0;
            for t in 0..n {
                let step = if t == 0 {
                    m.prior()[path[0]]
                } else {
                    m.trans(path[t - 1], path[t])
                };
                w *= step * m.emit(path[t], obs[t]) * m.gap_emit(path[t], bins[t]);
            }
            evidence += w;
            for t in 0..n {
                marginals[t][path[t]] += w;
            }
            if w > best.1 {
                best = (path, w);
            }
        }
        for x in marginals.iter_mut().flatten() {
            *x /= evidence;
        }
        Exhaustive {
            marginals,
            evidence,
            best,
        }
    }

    /// The chain's factor graph, built straight from the model's tables:
    /// one unary factor per step (`prior` on the first, `emit·gap_emit` on
    /// every one) and one pairwise `trans` factor per link. Each factor is
    /// its variables and a row-major table over them.
    fn chain_factors(m: &ChainModel, obs: &[usize], bins: &[usize]) -> Vec<(Vec<usize>, Vec<f64>)> {
        let s = m.n_states();
        let mut factors = Vec::new();
        for t in 0..obs.len() {
            let unary = (0..s)
                .map(|x| {
                    let p = if t == 0 { m.prior()[x] } else { 1.0 };
                    p * m.emit(x, obs[t]) * m.gap_emit(x, bins[t])
                })
                .collect();
            factors.push((vec![t], unary));
            if t > 0 {
                let pair = (0..s * s).map(|k| m.trans(k / s, k % s)).collect();
                factors.push((vec![t - 1, t], pair));
            }
        }
        factors
    }

    /// Sum-product belief propagation with a flooding schedule: every
    /// round recomputes all factor-to-variable messages from the previous
    /// round's. On an `n`-variable chain every message has crossed the
    /// graph after `n + 1` rounds, so the beliefs are the exact marginals.
    fn factor_graph_bp(factors: &[(Vec<usize>, Vec<f64>)], n: usize, s: usize) -> Vec<Vec<f64>> {
        // msg[f][i]: factor f → its i-th variable.
        let mut msg: Vec<Vec<Vec<f64>>> = factors
            .iter()
            .map(|(vars, _)| vec![vec![1.0; s]; vars.len()])
            .collect();
        // The normalized product of the messages into `v`, leaving out
        // factor `skip`'s (the variable-to-factor message when `Some`).
        let belief = |msg: &[Vec<Vec<f64>>], v: usize, skip: Option<usize>| -> Vec<f64> {
            let mut b = vec![1.0; s];
            for (g, (vars, _)) in factors.iter().enumerate() {
                if Some(g) == skip {
                    continue;
                }
                for (i, _) in vars.iter().enumerate().filter(|&(_, &u)| u == v) {
                    for x in 0..s {
                        b[x] *= msg[g][i][x];
                    }
                }
            }
            let z: f64 = b.iter().sum();
            b.iter().map(|x| x / z).collect()
        };
        for _ in 0..=n {
            msg = factors
                .iter()
                .enumerate()
                .map(|(f, (vars, table))| match *vars.as_slice() {
                    [_] => vec![table.clone()],
                    [a, b] => {
                        let (into_a, into_b) = (belief(&msg, a, Some(f)), belief(&msg, b, Some(f)));
                        let to_a = (0..s)
                            .map(|x| (0..s).map(|y| table[x * s + y] * into_b[y]).sum())
                            .collect();
                        let to_b = (0..s)
                            .map(|y| (0..s).map(|x| table[x * s + y] * into_a[x]).sum())
                            .collect();
                        vec![to_a, to_b]
                    }
                    _ => unreachable!("chain factors are unary or pairwise"),
                })
                .collect();
        }
        (0..n).map(|v| belief(&msg, v, None)).collect()
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        for (s, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < 1e-9, "{what} s={s}: {g} vs exact {w}");
        }
    }

    #[test]
    fn filter_is_normalized_per_step() {
        let m = toy();
        let (alphas, ll) = m.filter(&[0, 1, 2, 2, 0]);
        for a in &alphas {
            let s: f64 = a.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!(ll < 0.0);
    }

    #[test]
    fn posteriors_match_brute_force() {
        let m = toy_with_gaps();
        for (obs, bins) in [
            (vec![2, 2, 0], vec![GAP_NONE, 0, 1]),
            (vec![0, 2, 1, 2], vec![GAP_NONE, 1, 0, 1]),
        ] {
            let none = vec![GAP_NONE; obs.len()];
            let order_only = exhaustive(&m, &obs, &none).marginals;
            let timed = exhaustive(&m, &obs, &bins).marginals;
            let (plain, with_none, with_bins) = (
                m.posteriors(&obs),
                m.posteriors_timed(&obs, &none),
                m.posteriors_timed(&obs, &bins),
            );
            assert_eq!(plain.len(), obs.len());
            for t in 0..obs.len() {
                assert_close(&plain[t], &order_only[t], &format!("posteriors t={t}"));
                assert_close(&with_none[t], &order_only[t], &format!("GAP_NONE t={t}"));
                assert_close(&with_bins[t], &timed[t], &format!("timed t={t}"));
            }
        }
    }

    #[test]
    fn posteriors_match_factor_graph_bp() {
        let m = toy();
        let obs = vec![0, 2, 1, 2];
        let gammas = m.posteriors(&obs);
        let bp = factor_graph_bp(&chain_factors(&m, &obs, &[GAP_NONE; 4]), obs.len(), 2);
        for (t, gamma) in gammas.iter().enumerate() {
            assert_close(gamma, &bp[t], &format!("fb vs bp t={t}"));
        }
    }

    #[test]
    fn filter_prefixes_match_brute_force() {
        let m = toy_with_gaps();
        let obs = [0, 2, 1, 2, 1];
        let bins = [GAP_NONE, 1, 0, GAP_NONE, 1];
        let (alphas, _) = m.filter_timed(&obs, &bins);
        for t in 0..obs.len() {
            // The filtered posterior at t is the prefix's last marginal,
            // and the prefix's log-likelihood is its log evidence.
            let exact = exhaustive(&m, &obs[..=t], &bins[..=t]);
            assert_close(&alphas[t], &exact.marginals[t], &format!("filtered t={t}"));
            let (_, ll) = m.filter_timed(&obs[..=t], &bins[..=t]);
            assert!((ll - exact.evidence.ln()).abs() < 1e-9, "loglik t={t}");
        }
    }

    #[test]
    fn viterbi_agrees_with_exhaustive_search() {
        let m = toy();
        let obs = vec![0, 2, 2, 1];
        let (path, logp) = m.viterbi(&obs);
        let (best_path, best) = exhaustive(&m, &obs, &[GAP_NONE; 4]).best;
        assert_eq!(path, best_path);
        assert!((logp - best.ln()).abs() < 1e-9);
    }

    #[test]
    fn loglik_decreases_with_unlikely_observations() {
        let m = toy();
        // State 0 emits obs 2 rarely; a run of 2s is less likely than 0s
        // under the prior-favored state.
        let likely = m.loglik(&[0, 0, 0]);
        let unlikely = m.loglik(&[2, 2, 2]);
        assert!(likely > unlikely);
    }

    #[test]
    fn ln_min_positive_literal_is_exact() {
        assert_eq!(LN_MIN_POSITIVE.to_bits(), f64::MIN_POSITIVE.ln().to_bits());
    }

    #[test]
    fn empty_sequence_handled() {
        let m = toy();
        assert!(m.posteriors(&[]).is_empty());
        let (p, l) = m.viterbi(&[]);
        assert!(p.is_empty());
        assert_eq!(l, 0.0);
    }

    #[test]
    fn filtering_is_causal_smoothing_is_not() {
        let m = toy();
        let obs_a = vec![0, 0, 2];
        let obs_b = vec![0, 0, 0];
        let (fa, _) = m.filter(&obs_a);
        let (fb, _) = m.filter(&obs_b);
        // Filtered estimate at t=1 cannot depend on the future observation.
        assert_eq!(fa[1], fb[1]);
        // Smoothed estimate at t=1 does.
        let ga = m.posteriors(&obs_a);
        let gb = m.posteriors(&obs_b);
        assert_ne!(ga[1], gb[1]);
    }

    #[test]
    fn timed_filter_with_neutral_bins_matches_order_only() {
        let m = toy_with_gaps();
        let obs = vec![0, 1, 2, 2];
        let (plain, ll_plain) = m.filter(&obs);
        let (timed, ll_timed) = m.filter_timed(&obs, &[GAP_NONE; 4]);
        assert_eq!(plain, timed, "GAP_NONE everywhere is a neutral fold");
        assert!((ll_plain - ll_timed).abs() < 1e-12);
    }

    #[test]
    fn timed_filter_shifts_posterior_toward_tempo_matched_state() {
        let m = toy_with_gaps();
        let obs = vec![1, 1, 1];
        let fast_bins = vec![GAP_NONE, 0, 0];
        let slow_bins = vec![GAP_NONE, 1, 1];
        let (fast, _) = m.filter_timed(&obs, &fast_bins);
        let (slow, _) = m.filter_timed(&obs, &slow_bins);
        assert!(
            slow[2][1] > fast[2][1],
            "slow tempo must favour the slow state: {} vs {}",
            slow[2][1],
            fast[2][1]
        );
    }

    #[test]
    fn timed_smoothing_matches_timed_factor_graph_bp() {
        let m = toy_with_gaps();
        let obs = vec![0, 2, 1, 2];
        let bins = vec![GAP_NONE, 1, 0, 1];
        let gammas = m.posteriors_timed(&obs, &bins);
        let bp = factor_graph_bp(&chain_factors(&m, &obs, &bins), obs.len(), 2);
        for (t, gamma) in gammas.iter().enumerate() {
            assert_close(gamma, &bp[t], &format!("timed fb vs bp t={t}"));
        }
    }

    #[test]
    fn gap_model_equality_and_accessors() {
        let with = toy_with_gaps();
        let plain = toy();
        assert_ne!(with, plain, "gap side participates in model equality");
        assert_eq!(with.clone(), with);
        assert!(with.gap_model().is_some());
        assert!(plain.gap_model().is_none());
        // Neutral accessors on a gap-free model.
        assert_eq!(plain.gap_emit(0, 3), 1.0);
        assert_eq!(plain.gap_bin(12_345.0), GAP_NONE);
        // And real quantization on the gap-carrying one.
        assert_eq!(with.gap_bin(10.0), 0);
        assert_eq!(with.gap_bin(7_200.0), 1);
        assert!((with.gap_emit(1, 1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn invalid_rows_rejected() {
        assert!(std::panic::catch_unwind(|| {
            ChainModel::new(2, 2, vec![0.5, 0.6], vec![0.5; 4], vec![0.5; 4])
        })
        .is_err());
    }
}
