//! Full factor-graph session model (skip-chain extension).
//!
//! The chain model of [`crate::attack_tagger`] links consecutive events
//! only. The factor-graph formulation of ref \[6\] is richer: repeated
//! observations of the *same alert kind* within a session are linked by
//! additional "skip" factors, encoding that recurrences of an indicative
//! alert refer to the same underlying attack state even when far apart in
//! the stream. The resulting graph is loopy; inference uses damped
//! sum-product BP, and falls back to exact behaviour on skip-free
//! sessions (where the graph is the chain).
//!
//! This module is the offline/forensic analysis counterpart to the online
//! chain filter: given a full session, it produces smoothed per-event
//! stage posteriors with the skip evidence folded in.
//!
//! Batch workloads should hold a [`SessionEngine`]: it keeps the session
//! graph in a [`ChainGraphBuffer`] and the BP state in a reused
//! [`BpWorkspace`], so consecutive sessions with the same shape (same
//! length, same skip links — the common case when rescoring one entity's
//! session as it grows, or sweeping model variants over a fixed corpus)
//! rewrite factor tables in place and run inference with zero
//! steady-state allocation.

use alertlib::alert::Alert;
use factorgraph::chain::{ChainGraphBuffer, ChainModel};
use factorgraph::factor::Factor;
use factorgraph::graph::FactorGraph;
use factorgraph::sumproduct::{run_in, BpOptions, BpSchedule, BpStats, BpWorkspace};
use factorgraph::VarId;

use crate::stage::Stage;

/// Configuration of the session factor graph.
#[derive(Debug, Clone)]
pub struct SessionGraphConfig {
    /// Strength of the skip factor: probability mass placed on the two
    /// linked events being in the same stage (vs. uniform elsewhere).
    /// 0.5 = no information; 1.0 = hard equality.
    pub skip_agreement: f64,
    /// Only link recurrences of kinds at least this severe (linking scan
    /// noise would shackle the whole session together).
    pub min_skip_severity: alertlib::taxonomy::Severity,
    /// Cap on skip links per kind (first occurrence links to at most this
    /// many later recurrences).
    pub max_skips_per_kind: usize,
    /// BP options (damping is required on loopy sessions).
    pub max_iters: usize,
    pub damping: f64,
    /// Message-passing schedule for the loopy solve.
    pub schedule: BpSchedule,
    /// Fold the model's quantized inter-alert-gap observations into each
    /// step's evidence factor (no-op when the model carries no
    /// [`factorgraph::timing::GapModel`]).
    pub gap_observations: bool,
}

impl Default for SessionGraphConfig {
    fn default() -> Self {
        SessionGraphConfig {
            skip_agreement: 0.8,
            min_skip_severity: alertlib::taxonomy::Severity::Significant,
            max_skips_per_kind: 3,
            max_iters: 200,
            damping: 0.3,
            schedule: BpSchedule::Flood,
            gap_observations: true,
        }
    }
}

impl SessionGraphConfig {
    fn bp_options(&self) -> BpOptions {
        BpOptions {
            max_iters: self.max_iters,
            damping: self.damping,
            tolerance: 1e-8,
            schedule: self.schedule,
        }
    }
}

/// Result of session-graph inference.
#[derive(Debug, Clone)]
pub struct SessionPosteriors {
    /// Per-event stage marginals.
    pub marginals: Vec<Vec<f64>>,
    /// Number of skip factors added.
    pub skip_factors: usize,
    /// Whether BP converged.
    pub converged: bool,
}

impl SessionPosteriors {
    /// The most probable stage at event `t`.
    pub fn stage_at(&self, t: usize) -> Stage {
        let m = &self.marginals[t];
        let mut best = 0;
        for s in 1..m.len() {
            if m[s] > m[best] {
                best = s;
            }
        }
        Stage::from_index(best)
    }

    /// Posterior mass on attack stages (≥ Foothold) at event `t`.
    pub fn attack_mass(&self, t: usize) -> f64 {
        self.marginals[t][Stage::Foothold.index()..].iter().sum()
    }
}

/// Collect the skip links `(anchor, recurrence)` a session induces under
/// `cfg`, appending to `out` (which is cleared first).
fn collect_skip_links(alerts: &[Alert], cfg: &SessionGraphConfig, out: &mut Vec<(u32, u32)>) {
    out.clear();
    // Few distinct indicative kinds per session: linear scan beats a map
    // and allocates nothing. `seen` tracks (kind, anchor, links_used);
    // the slot count must cover every distinct kind a session can
    // contain, i.e. the whole taxonomy.
    const SEEN_SLOTS: usize = 128;
    const {
        assert!(
            alertlib::taxonomy::AlertKind::COUNT <= SEEN_SLOTS,
            "taxonomy outgrew the skip-link scratch table"
        )
    };
    let mut seen: [(usize, u32, usize); SEEN_SLOTS] = [(usize::MAX, 0, 0); SEEN_SLOTS];
    let mut seen_len = 0usize;
    for (t, a) in alerts.iter().enumerate() {
        if a.severity() < cfg.min_skip_severity {
            continue;
        }
        let kind = a.kind.index();
        match seen[..seen_len].iter_mut().find(|e| e.0 == kind) {
            None => {
                if seen_len < seen.len() {
                    seen[seen_len] = (kind, t as u32, 0);
                    seen_len += 1;
                }
            }
            Some(entry) if entry.2 < cfg.max_skips_per_kind => {
                out.push((entry.1, t as u32));
                entry.2 += 1;
            }
            Some(_) => {}
        }
    }
}

/// Quantize a session's inter-alert gaps with the model's bins, appending
/// to `out` (cleared first only by callers — `out` may be a reused
/// scratch). The first alert has no gap ([`factorgraph::timing::GAP_NONE`]);
/// leaves `out` empty when the model carries no gap tables, which
/// [`ChainModel::fill_factor_graph_timed`] treats as an order-only fill.
/// The single definition of the session gap semantics — the online tagger
/// anchors gaps per *entity* instead, but uses the same quantizer.
fn collect_gap_bins(model: &ChainModel, alerts: &[Alert], out: &mut Vec<usize>) {
    if model.gap_model().is_none() {
        return;
    }
    out.extend(alerts.iter().enumerate().map(|(t, a)| {
        if t == 0 {
            factorgraph::timing::GAP_NONE
        } else {
            model.gap_bin(a.ts.saturating_since(alerts[t - 1].ts).as_secs_f64())
        }
    }));
}

fn skip_factor(s: usize, cfg: &SessionGraphConfig, anchor: u32, here: u32) -> Factor {
    let same = cfg.skip_agreement;
    let diff = (1.0 - same) / (s as f64 - 1.0).max(1.0);
    Factor::from_fn(vec![VarId(anchor), VarId(here)], vec![s, s], |a| {
        if a[0] == a[1] {
            same
        } else {
            diff
        }
    })
}

/// Reusable skip-chain inference engine. See the module docs for the
/// reuse semantics.
#[derive(Debug, Clone)]
pub struct SessionEngine {
    model: ChainModel,
    cfg: SessionGraphConfig,
    buf: ChainGraphBuffer,
    /// Skip links materialized in `buf`'s graph.
    links: Vec<(u32, u32)>,
    ws: BpWorkspace,
    /// Scratch: observation symbols of the current session.
    obs: Vec<usize>,
    /// Scratch: quantized gap bins of the current session (empty when the
    /// timing side is off).
    bins: Vec<usize>,
    /// Scratch: links the current session wants.
    want: Vec<(u32, u32)>,
}

impl SessionEngine {
    pub fn new(model: ChainModel, cfg: SessionGraphConfig) -> SessionEngine {
        SessionEngine {
            model,
            cfg,
            buf: ChainGraphBuffer::new(),
            links: Vec::new(),
            ws: BpWorkspace::default(),
            obs: Vec::new(),
            bins: Vec::new(),
            want: Vec::new(),
        }
    }

    pub fn model(&self) -> &ChainModel {
        &self.model
    }

    pub fn config(&self) -> &SessionGraphConfig {
        &self.cfg
    }

    /// Run inference for a session, reusing the graph and workspace.
    /// Returns the skip-factor count and BP statistics; read posteriors
    /// back through [`SessionEngine::marginal`] / `attack_mass` without
    /// allocating.
    pub fn run(&mut self, alerts: &[Alert]) -> (usize, BpStats) {
        self.obs.clear();
        self.obs.extend(alerts.iter().map(|a| a.kind.index()));
        self.bins.clear();
        if self.cfg.gap_observations {
            collect_gap_bins(&self.model, alerts, &mut self.bins);
        }
        collect_skip_links(alerts, &self.cfg, &mut self.want);

        let same_shape = self.buf.chain_len() == self.obs.len() && self.links == self.want;
        if !same_shape {
            self.buf.reset();
        }
        // Same shape ⇒ in-place table refresh (skip factors are constant
        // tables, nothing to update; gap evidence lives in the chain
        // factor tables, which are rewritten every fill); otherwise a
        // full rebuild.
        self.model
            .fill_factor_graph_timed(&self.obs, &self.bins, &mut self.buf);
        if !same_shape {
            let s = self.model.n_states();
            for &(anchor, here) in &self.want {
                self.buf
                    .append_factor(skip_factor(s, &self.cfg, anchor, here));
            }
            std::mem::swap(&mut self.links, &mut self.want);
        }

        let stats = run_in(self.buf.graph(), &self.cfg.bp_options(), &mut self.ws);
        (self.links.len(), stats)
    }

    /// Stage marginal of event `t` from the last [`SessionEngine::run`].
    pub fn marginal(&self, t: usize) -> &[f64] {
        self.ws.marginal(VarId(t as u32))
    }

    /// Posterior mass on attack stages (≥ Foothold) at event `t`.
    pub fn attack_mass(&self, t: usize) -> f64 {
        self.marginal(t)[Stage::Foothold.index()..].iter().sum()
    }

    /// Allocating convenience: full [`SessionPosteriors`].
    pub fn infer(&mut self, alerts: &[Alert]) -> SessionPosteriors {
        if alerts.is_empty() {
            return SessionPosteriors {
                marginals: Vec::new(),
                skip_factors: 0,
                converged: true,
            };
        }
        let (skip_factors, stats) = self.run(alerts);
        SessionPosteriors {
            marginals: (0..alerts.len())
                .map(|t| self.marginal(t).to_vec())
                .collect(),
            skip_factors,
            converged: stats.converged,
        }
    }
}

/// Build the session factor graph: the chain (prior, transition, emission
/// folded on evidence) plus skip-agreement factors between recurrences of
/// indicative kinds. One-shot helper; batch callers use [`SessionEngine`].
pub fn build_session_graph(
    model: &ChainModel,
    alerts: &[Alert],
    cfg: &SessionGraphConfig,
) -> (FactorGraph, usize) {
    let obs: Vec<usize> = alerts.iter().map(|a| a.kind.index()).collect();
    let mut bins = Vec::new();
    if cfg.gap_observations {
        collect_gap_bins(model, alerts, &mut bins);
    }
    let mut buf = ChainGraphBuffer::new();
    model.fill_factor_graph_timed(&obs, &bins, &mut buf);
    let mut links = Vec::new();
    collect_skip_links(alerts, cfg, &mut links);
    let s = model.n_states();
    for &(anchor, here) in &links {
        buf.append_factor(skip_factor(s, cfg, anchor, here));
    }
    (buf.into_graph(), links.len())
}

/// Infer smoothed stage posteriors for a session with the skip-chain
/// model. One-shot helper; batch callers use [`SessionEngine`].
pub fn infer_session(
    model: &ChainModel,
    alerts: &[Alert],
    cfg: &SessionGraphConfig,
) -> SessionPosteriors {
    SessionEngine::new(model.clone(), cfg.clone()).infer(alerts)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::train::toy_training_model;
    use alertlib::alert::Entity;
    use alertlib::taxonomy::AlertKind;
    use simnet::time::SimTime;

    fn alert(t: u64, kind: AlertKind) -> Alert {
        Alert::new(SimTime::from_secs(t), kind, Entity::User("e".into()))
    }

    #[test]
    fn skip_free_session_matches_chain_smoothing() {
        use AlertKind::*;
        let model = toy_training_model();
        // No repeated Significant kinds → zero skip factors → chain.
        let session = vec![
            alert(0, PortScan),
            alert(1, DownloadSensitive),
            alert(2, LogWipe),
        ];
        let cfg = SessionGraphConfig::default();
        let post = infer_session(&model, &session, &cfg);
        assert_eq!(post.skip_factors, 0);
        assert!(post.converged);
        let obs: Vec<usize> = session.iter().map(|a| a.kind.index()).collect();
        let bins: Vec<usize> = session
            .iter()
            .enumerate()
            .map(|(t, a)| {
                if t == 0 {
                    factorgraph::timing::GAP_NONE
                } else {
                    model.gap_bin(a.ts.saturating_since(session[t - 1].ts).as_secs_f64())
                }
            })
            .collect();
        let exact = model.posteriors_timed(&obs, &bins);
        for t in 0..session.len() {
            for s in 0..Stage::COUNT {
                assert!(
                    (post.marginals[t][s] - exact[t][s]).abs() < 1e-5,
                    "t={t} s={s}: {} vs {}",
                    post.marginals[t][s],
                    exact[t][s]
                );
            }
        }
    }

    #[test]
    fn skip_factors_added_for_recurring_significant_kinds() {
        use AlertKind::*;
        let model = toy_training_model();
        let session = vec![
            alert(0, DownloadSensitive),
            alert(1, PortScan),
            alert(2, DownloadSensitive),
            alert(3, DownloadSensitive),
        ];
        let (graph, skips) = build_session_graph(&model, &session, &SessionGraphConfig::default());
        assert_eq!(skips, 2, "two recurrences of the indicative kind");
        // Graph is loopy once skips coexist with the chain.
        assert!(!graph.is_forest());
    }

    #[test]
    fn noise_recurrences_not_linked() {
        use AlertKind::*;
        let model = toy_training_model();
        let session: Vec<Alert> = (0..6).map(|t| alert(t, PortScan)).collect();
        let (_, skips) = build_session_graph(&model, &session, &SessionGraphConfig::default());
        assert_eq!(skips, 0, "scan noise must not be shackled together");
    }

    #[test]
    fn skip_evidence_raises_recurrence_confidence() {
        use AlertKind::*;
        let model = toy_training_model();
        // An ambiguous early download in benign context, whose *recurrence*
        // later sits in a clearly malicious context. The skip factor pipes
        // that late confidence back to the early anchor; without skips
        // (same session, skips disabled) the anchor stays colder.
        let session = vec![
            alert(0, LoginSuccess),
            alert(1, DownloadSensitive), // anchor
            alert(2, JobSubmit),
            alert(3, LoginSuccess),
            alert(4, DownloadSensitive), // recurrence, then escalation:
            alert(5, CompileKernelModule),
            alert(6, LogWipe),
        ];
        let with_skips = infer_session(&model, &session, &SessionGraphConfig::default());
        let no_skips = infer_session(
            &model,
            &session,
            &SessionGraphConfig {
                min_skip_severity: alertlib::taxonomy::Severity::Critical,
                ..Default::default()
            },
        );
        assert_eq!(with_skips.skip_factors, 1);
        assert_eq!(no_skips.skip_factors, 0);
        assert!(
            with_skips.attack_mass(1) > no_skips.attack_mass(1),
            "skip evidence must warm the anchor: {} vs {}",
            with_skips.attack_mass(1),
            no_skips.attack_mass(1)
        );
    }

    #[test]
    fn max_skips_cap_respected() {
        use AlertKind::*;
        let model = toy_training_model();
        let session: Vec<Alert> = (0..10).map(|t| alert(t, DownloadSensitive)).collect();
        let cfg = SessionGraphConfig {
            max_skips_per_kind: 2,
            ..Default::default()
        };
        let (_, skips) = build_session_graph(&model, &session, &cfg);
        assert_eq!(skips, 2);
    }

    #[test]
    fn ransomware_session_stages_progress() {
        let model = toy_training_model();
        let session: Vec<Alert> = scenario_kinds()
            .into_iter()
            .enumerate()
            .map(|(t, k)| alert(t as u64, k))
            .collect();
        let post = infer_session(&model, &session, &SessionGraphConfig::default());
        assert!(post.converged);
        // Late events sit in attack stages with high confidence.
        let last = session.len() - 1;
        assert!(
            post.attack_mass(last) > 0.9,
            "got {}",
            post.attack_mass(last)
        );
        assert!(post.stage_at(last) >= Stage::Lateral);
    }

    fn scenario_kinds() -> Vec<AlertKind> {
        use AlertKind::*;
        vec![
            RepeatedProbeDb,
            DefaultCredentialUse,
            DbVersionRecon,
            ElfMagicInDbBlob,
            LoExportExecution,
            FileDropTmp,
            SshKeyEnumeration,
            LateralMovementAttempt,
            C2Communication,
        ]
    }

    /// Slow sessions fold real gap bins: the timed session graph must
    /// match timed chain smoothing on a skip-free session, and differ
    /// from the order-only solve (the toy gap tables are live).
    #[test]
    fn slow_session_gap_evidence_reaches_the_graph() {
        use AlertKind::*;
        // The toy corpus's fake 1-second timestamps all fall under the
        // neutral-gap guard, leaving its learned gap rows uniform — use an
        // explicit tempo-discriminating gap model instead (fast bin < 1h
        // favours benign/recon, slow bin favours the attack stages).
        let mut emit = Vec::new();
        for s in 0..Stage::COUNT {
            if s >= Stage::Foothold.index() {
                emit.extend([0.3, 0.7]);
            } else {
                emit.extend([0.8, 0.2]);
            }
        }
        let model = toy_training_model().with_gap_model(factorgraph::timing::GapModel::new(
            Stage::COUNT,
            vec![3_600.0],
            emit,
        ));
        assert!(model.gap_model().is_some());
        // Hours-apart alerts: bins land in informative territory.
        let session = vec![
            alert(0, PortScan),
            alert(8_000, DownloadSensitive),
            alert(23_000, LogWipe),
        ];
        let cfg = SessionGraphConfig::default();
        let timed = infer_session(&model, &session, &cfg);
        let order_only = infer_session(
            &model,
            &session,
            &SessionGraphConfig {
                gap_observations: false,
                ..cfg.clone()
            },
        );
        let obs: Vec<usize> = session.iter().map(|a| a.kind.index()).collect();
        let bins: Vec<usize> = vec![
            factorgraph::timing::GAP_NONE,
            model.gap_bin(8_000.0),
            model.gap_bin(15_000.0),
        ];
        assert!(bins[1] != factorgraph::timing::GAP_NONE);
        let exact = model.posteriors_timed(&obs, &bins);
        let plain = model.posteriors(&obs);
        let mut saw_difference = false;
        for t in 0..session.len() {
            for s in 0..Stage::COUNT {
                assert!(
                    (timed.marginals[t][s] - exact[t][s]).abs() < 1e-5,
                    "timed graph vs timed chain t={t} s={s}"
                );
                assert!(
                    (order_only.marginals[t][s] - plain[t][s]).abs() < 1e-5,
                    "order-only graph vs plain chain t={t} s={s}"
                );
                if (timed.marginals[t][s] - order_only.marginals[t][s]).abs() > 1e-6 {
                    saw_difference = true;
                }
            }
        }
        assert!(saw_difference, "gap evidence must move some marginal");
    }

    #[test]
    fn empty_session() {
        let model = toy_training_model();
        let post = infer_session(&model, &[], &SessionGraphConfig::default());
        assert!(post.marginals.is_empty());
        assert!(post.converged);
    }

    #[test]
    fn engine_reuse_matches_one_shot_inference() {
        use AlertKind::*;
        let model = toy_training_model();
        let cfg = SessionGraphConfig::default();
        let mut engine = SessionEngine::new(model.clone(), cfg.clone());
        let sessions: Vec<Vec<Alert>> = vec![
            // Same shape twice (exercises the in-place refresh)...
            vec![
                alert(0, PortScan),
                alert(1, DownloadSensitive),
                alert(2, LogWipe),
            ],
            vec![
                alert(0, LoginSuccess),
                alert(1, JobSubmit),
                alert(2, PortScan),
            ],
            // ...then a shape change (length and skip links).
            vec![
                alert(0, DownloadSensitive),
                alert(1, PortScan),
                alert(2, DownloadSensitive),
                alert(3, LogWipe),
            ],
        ];
        for session in &sessions {
            let reused = engine.infer(session);
            let fresh = infer_session(&model, session, &cfg);
            assert_eq!(reused.skip_factors, fresh.skip_factors);
            for t in 0..session.len() {
                for s in 0..Stage::COUNT {
                    assert!(
                        (reused.marginals[t][s] - fresh.marginals[t][s]).abs() < 1e-12,
                        "t={t} s={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_and_residual_schedules_agree_on_sessions() {
        let model = toy_training_model();
        let session: Vec<Alert> = scenario_kinds()
            .into_iter()
            .chain(scenario_kinds())
            .enumerate()
            .map(|(t, k)| alert(t as u64, k))
            .collect();
        let base = infer_session(&model, &session, &SessionGraphConfig::default());
        for schedule in [BpSchedule::ParallelFlood, BpSchedule::Residual] {
            let alt = infer_session(
                &model,
                &session,
                &SessionGraphConfig {
                    schedule,
                    ..Default::default()
                },
            );
            assert_eq!(alt.skip_factors, base.skip_factors);
            assert!(alt.converged, "{schedule:?}");
            for t in 0..session.len() {
                for s in 0..Stage::COUNT {
                    assert!(
                        (alt.marginals[t][s] - base.marginals[t][s]).abs() < 1e-4,
                        "{schedule:?} t={t} s={s}: {} vs {}",
                        alt.marginals[t][s],
                        base.marginals[t][s]
                    );
                }
            }
        }
    }
}
