//! The one retransmit schedule: how a sender reacts to observed loss.
//!
//! The simulated NIC observes a message's fate at injection time (the
//! fabric's link-layer NACK model, see `simnet::FaultPlan`), so recovery
//! is **sender-driven**: a lost transfer is retransmitted after an
//! exponential backoff in virtual time. The backoff stands in for the
//! timeout-and-ack round trip a real reliable transport would pay. The
//! clMPI runtime's wire chunks and this crate's one-sided ops
//! ([`crate::rma`]) both retransmit on a [`RetryPolicy`].

use simtime::SimNs;

/// Every backoff is capped here, whatever the policy's growth.
const MAX_BACKOFF_NS: SimNs = 50_000_000; // 50 ms

/// How a sender reacts to observed loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Transmission attempts per transfer (>= 1; 0 is taken as 1).
    /// Exhausting the budget fails the transfer permanently.
    pub max_attempts: u32,
    /// Backoff before the first retransmit, virtual ns.
    pub backoff_base_ns: SimNs,
    /// Multiplier applied to the backoff after every failed attempt.
    pub backoff_factor: u32,
    /// Consecutive chunk losses (without an intervening delivery) after
    /// which the clMPI runtime degrades pipelined transfers to pinned:
    /// fewer, larger messages expose fewer per-message loss draws.
    pub degrade_after: u32,
    /// Receiver-side patience per wire chunk, virtual ns. Only consulted
    /// when the world runs under a fault plan; must exceed the sender's
    /// worst-case retry schedule or the receiver gives up first.
    pub chunk_timeout_ns: SimNs,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            backoff_base_ns: 200_000, // 200 us
            backoff_factor: 2,
            degrade_after: 3,
            chunk_timeout_ns: 1_000_000_000, // 1 s virtual
        }
    }
}

impl RetryPolicy {
    /// Policy with an explicit attempt budget and base backoff; other
    /// fields take their defaults.
    pub fn new(max_attempts: u32, backoff_base_ns: SimNs) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff_base_ns,
            ..Default::default()
        }
    }

    /// Backoff before retransmit number `attempt` (1-based):
    /// `base * factor^(attempt-1)`, saturating, capped at 50 ms.
    pub fn backoff_ns(&self, attempt: u32) -> SimNs {
        let factor =
            (self.backoff_factor.max(1) as SimNs).saturating_pow(attempt.saturating_sub(1));
        self.backoff_base_ns
            .saturating_mul(factor)
            .min(MAX_BACKOFF_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::new(4, 1_000);
        assert_eq!(p.backoff_ns(1), 1_000);
        assert_eq!(p.backoff_ns(2), 2_000);
        assert_eq!(p.backoff_ns(3), 4_000);
    }

    #[test]
    fn attempt_budget_never_below_one() {
        assert_eq!(RetryPolicy::new(0, 10).max_attempts, 1);
    }

    #[test]
    fn huge_attempts_saturate_instead_of_overflowing() {
        let p = RetryPolicy {
            backoff_base_ns: u64::MAX / 2,
            ..RetryPolicy::new(200, 0)
        };
        assert_eq!(p.backoff_ns(200), MAX_BACKOFF_NS);
    }

    #[test]
    fn shipped_policies_stay_below_the_cap() {
        let default = RetryPolicy::default();
        let last = default.backoff_ns(default.max_attempts - 1);
        assert_eq!(last, 1_600_000);
        let eight = RetryPolicy::new(8, default.backoff_base_ns);
        assert_eq!(eight.backoff_ns(eight.max_attempts - 1), 12_800_000);
    }
}
