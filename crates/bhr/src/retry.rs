//! Fallible block delivery and retry policy.
//!
//! The paper's response path assumes every BHR RPC lands. Production
//! deployments see the opposite: the router API times out, drops
//! connections, or rate-limits. This module makes delivery failure a
//! first-class, injectable behavior ([`BlockBackend`]) and defines the
//! [`RetryPolicy`] (exponential backoff + jitter, attempt cap, deadline,
//! circuit breaker) that the testbed's response stage uses to guarantee no
//! block is silently lost while failures are transient.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};

use crate::table::BlockReason;

/// Why a block RPC failed. `Copy`: a failed delivery is recorded and
/// audited without allocating, and rendered only when displayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// The backend RPC for the block of `addr` failed (transient:
    /// connection refused, 5xx, ...). Displays as
    /// `rpc error: {detail} for {addr}`.
    Rpc {
        detail: &'static str,
        addr: Ipv4Addr,
    },
    /// The backend did not answer within its deadline.
    Timeout,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Rpc { detail, addr } => write!(f, "rpc error: {detail} for {addr}"),
            BlockError::Timeout => write!(f, "rpc timeout"),
        }
    }
}

/// The transport that actually delivers a block to the router. The
/// in-memory table is only updated after the backend reports success, so
/// an injected failure models a block that never reached the BHR.
pub trait BlockBackend: Send + std::fmt::Debug {
    fn try_block(
        &mut self,
        ts: SimTime,
        addr: Ipv4Addr,
        reason: BlockReason,
        ttl: Option<SimDuration>,
    ) -> Result<(), BlockError>;
}

/// The default backend: every RPC succeeds (the paper's assumption, and
/// the behavior of every pipeline that does not opt into fault
/// injection).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReliableBackend;

impl BlockBackend for ReliableBackend {
    fn try_block(
        &mut self,
        _ts: SimTime,
        _addr: Ipv4Addr,
        _reason: BlockReason,
        _ttl: Option<SimDuration>,
    ) -> Result<(), BlockError> {
        Ok(())
    }
}

/// A deterministic, seeded failing backend: each RPC independently fails
/// with `fail_prob`, and the first `fail_first` RPCs fail
/// unconditionally (for scripted retry tests). Shared atomic counters
/// stay readable after the backend is moved into a handle.
#[derive(Debug)]
pub struct FlakyBackend {
    fail_prob: f64,
    fail_first: u64,
    rng: SimRng,
    attempts: Arc<AtomicU64>,
    failures: Arc<AtomicU64>,
}

impl FlakyBackend {
    pub fn new(fail_prob: f64, seed: u64) -> FlakyBackend {
        FlakyBackend {
            fail_prob: fail_prob.clamp(0.0, 1.0),
            fail_first: 0,
            rng: SimRng::seed(seed),
            attempts: Arc::new(AtomicU64::new(0)),
            failures: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A backend that fails its first `n` RPCs and then recovers —
    /// deterministic transient-outage scripting.
    pub fn failing_first(n: u64) -> FlakyBackend {
        let mut b = FlakyBackend::new(0.0, 0);
        b.fail_first = n;
        b
    }

    /// Shared RPC-attempt counter (clone before installing the backend).
    pub fn attempt_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.attempts)
    }

    /// Shared failed-RPC counter (clone before installing the backend).
    pub fn failure_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.failures)
    }
}

impl BlockBackend for FlakyBackend {
    fn try_block(
        &mut self,
        _ts: SimTime,
        addr: Ipv4Addr,
        _reason: BlockReason,
        _ttl: Option<SimDuration>,
    ) -> Result<(), BlockError> {
        let n = self.attempts.fetch_add(1, Ordering::Relaxed);
        let fail = n < self.fail_first || self.rng.chance(self.fail_prob);
        if fail {
            self.failures.fetch_add(1, Ordering::Relaxed);
            Err(BlockError::Rpc {
                detail: "injected failure",
                addr,
            })
        } else {
            Ok(())
        }
    }
}

/// Retry schedule for failed response deliveries: exponential backoff
/// with jitter, an attempt cap, an overall deadline, and a circuit
/// breaker that stops hammering a down router.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total delivery attempts per block (first try included) before the
    /// block is abandoned. `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each attempt.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Uniform jitter applied to each backoff: the delay is scaled by a
    /// factor in `[1 - jitter_frac, 1 + jitter_frac]`.
    pub jitter_frac: f64,
    /// Overall deadline per block, measured from first failure; past it
    /// the block is abandoned even if attempts remain.
    pub deadline: SimDuration,
    /// Consecutive delivery failures that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before probing again.
    pub breaker_cooldown: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 12,
            base_backoff: SimDuration::from_secs(1),
            max_backoff: SimDuration::from_mins(5),
            jitter_frac: 0.25,
            deadline: SimDuration::from_hours(1),
            breaker_threshold: 5,
            breaker_cooldown: SimDuration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based: `1` is the
    /// first retry). Deterministic in the caller's RNG stream.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let mut delay = self.base_backoff;
        for _ in 1..attempt.max(1) {
            delay = delay.saturating_add(delay);
            if delay >= self.max_backoff {
                break;
            }
        }
        if delay > self.max_backoff {
            delay = self.max_backoff;
        }
        let jitter = 1.0 + self.jitter_frac.clamp(0.0, 1.0) * (rng.f64() * 2.0 - 1.0);
        delay.mul_f64(jitter)
    }

    /// Whether a delivery that failed `elapsed` after the first failure
    /// is past the overall deadline. The deadline is inclusive: an
    /// attempt landing *exactly* on `first_failure + deadline` is still
    /// inside its retry budget ("past it the block is abandoned" — not
    /// "at it"), so a backend that recovers exactly at the boundary gets
    /// its probe.
    pub fn deadline_exceeded(&self, elapsed: SimDuration) -> bool {
        elapsed > self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> Ipv4Addr {
        "203.0.113.1".parse().unwrap()
    }

    #[test]
    fn reliable_backend_always_succeeds() {
        let mut b = ReliableBackend;
        for i in 0..100 {
            assert!(b
                .try_block(SimTime::from_secs(i), addr(), "r".into(), None)
                .is_ok());
        }
    }

    #[test]
    fn flaky_backend_is_deterministic() {
        let run = || {
            let mut b = FlakyBackend::new(0.4, 99);
            (0..200)
                .map(|i| {
                    b.try_block(SimTime::from_secs(i), addr(), "r".into(), None)
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same failure pattern");
        let failures = a.iter().filter(|ok| !**ok).count();
        assert!(failures > 40 && failures < 140, "roughly 40%: {failures}");
    }

    #[test]
    fn failing_first_recovers_exactly_on_schedule() {
        let mut b = FlakyBackend::failing_first(3);
        let fails = b.failure_counter();
        for i in 0..3 {
            let err = b
                .try_block(SimTime::from_secs(i), addr(), "r".into(), None)
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                "rpc error: injected failure for 203.0.113.1"
            );
        }
        assert!(b
            .try_block(SimTime::from_secs(3), addr(), "r".into(), None)
            .is_ok());
        assert_eq!(fails.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let policy = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = SimRng::seed(1);
        assert_eq!(policy.backoff(1, &mut rng), SimDuration::from_secs(1));
        assert_eq!(policy.backoff(2, &mut rng), SimDuration::from_secs(2));
        assert_eq!(policy.backoff(5, &mut rng), SimDuration::from_secs(16));
        // Far past the doubling range: clamped to the ceiling.
        assert_eq!(policy.backoff(30, &mut rng), SimDuration::from_mins(5));
    }

    #[test]
    fn deadline_boundary_is_inclusive() {
        let policy = RetryPolicy::default(); // deadline: 1h
        assert!(!policy.deadline_exceeded(SimDuration::ZERO));
        assert!(
            !policy.deadline_exceeded(SimDuration::from_hours(1)),
            "an attempt exactly at the deadline is still inside the budget"
        );
        assert!(policy.deadline_exceeded(SimDuration::from_nanos(
            SimDuration::from_hours(1).as_nanos() + 1
        )));
    }

    #[test]
    fn jitter_stays_inside_the_band() {
        let policy = RetryPolicy::default(); // jitter_frac 0.25
        let mut rng = SimRng::seed(7);
        for attempt in 1..=12 {
            let nominal = RetryPolicy {
                jitter_frac: 0.0,
                ..policy.clone()
            }
            .backoff(attempt, &mut SimRng::seed(0));
            let jittered = policy.backoff(attempt, &mut rng);
            let lo = nominal.mul_f64(0.75);
            let hi = nominal.mul_f64(1.25);
            assert!(
                jittered >= lo && jittered <= hi,
                "attempt {attempt}: {jittered:?} outside [{lo:?}, {hi:?}]"
            );
        }
    }
}
