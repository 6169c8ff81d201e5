//! # factorgraph — the chain factor graph of the preemption models
//!
//! The inference substrate behind the paper's preemption models (\[5\], \[6\]):
//! "Factor-Graph-based models ... to infer hidden attack states and stop
//! attacks before the damage." The factor graph the testbed runs is a
//! chain per attack entity: hidden stages `s_1 → … → s_n`, one
//! `trans·emit·gap_emit` factor per alert. On a chain, exact inference
//! costs O(n·S²), so no general message-passing engine is needed.
//!
//! - [`chain`] — forward filtering, forward-backward smoothing, Viterbi
//!   decoding and likelihood on the per-entity attack-stage chains. [`ChainModel::forward_step`] is the one online
//!   update: the detector's per-entity tagger and the correlator's
//!   stitched replay both run it after every alert.
//! - [`timing`] — quantized inter-alert-gap emissions folded into each
//!   step as one more observation factor.
//! - [`learn`] — MLE with Laplace smoothing from labeled incidents.
//!
//! ## Example: infer a hidden attack stage
//! ```
//! use factorgraph::chain::ChainModel;
//! use factorgraph::learn::ChainLearner;
//!
//! // Two stages (benign=0, malicious=1), three alert symbols.
//! let mut learner = ChainLearner::new(2, 3, 0.1);
//! learner.observe(&[0, 1, 1], &[0, 1, 2]); // a labeled past incident
//! learner.observe(&[0, 0, 0], &[0, 0, 0]); // benign activity
//! let model: ChainModel = learner.build();
//!
//! // Online filtering over a new alert sequence.
//! let (posterior, _ll) = model.filter(&[0, 1]);
//! assert!(posterior[1][1] > 0.5, "second alert points at the malicious stage");
//! ```

pub mod chain;
pub mod learn;
pub mod timing;

pub use chain::ChainModel;
pub use learn::ChainLearner;
pub use timing::{GapLearner, GapModel, GAP_NONE};
