//! # factorgraph — discrete probabilistic graphical models
//!
//! The inference substrate behind the paper's preemption models (\[5\], \[6\]):
//! "Factor-Graph-based models ... to infer hidden attack states and stop
//! attacks before the damage."
//!
//! - [`variable`], [`factor`] — discrete variables and tabular factors
//!   (product, marginalize, reduce, normalize).
//! - [`graph`] — the bipartite factor graph with forest detection.
//! - [`engine`] — the stride/arena message-passing core: flat message
//!   arenas, precomputed edge offsets and table strides, pairwise
//!   kernels, and the reusable zero-allocation [`BpWorkspace`].
//! - [`sumproduct`] — loopy/exact sum-product BP + brute-force validator
//!   (the seed implementation survives as `sumproduct::reference`).
//! - [`maxproduct`] — max-product MAP inference on the same engine.
//! - [`chain`] — exact O(n·S²) filtering / smoothing / Viterbi on the
//!   per-entity attack-stage chains the detector runs online.
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
pub mod engine;
pub mod factor;
pub mod graph;
pub mod learn;
pub mod maxproduct;
pub mod sumproduct;
pub mod timing;
pub mod variable;

pub use chain::{ChainGraphBuffer, ChainModel};
pub use engine::{BpSchedule, BpStats, BpWorkspace};
pub use factor::Factor;
pub use graph::{FactorGraph, FactorId};
pub use learn::ChainLearner;
pub use sumproduct::{BpOptions, BpResult};
pub use timing::{GapLearner, GapModel, GAP_NONE};
pub use variable::{VarId, Variable};
