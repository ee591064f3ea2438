//! How often a failed chunk read is tried again, and how long to wait
//! between tries.

use std::time::Duration;

/// Bounded-retry policy for failed chunk reads.
///
/// Retryable [`cscan_storage::StoreError`]s (transient, timeout,
/// corrupted) are retried up to `max_attempts` times with exponential
/// backoff; a permanent error — or exhausting the attempt budget —
/// quarantines the chunk.  The scheduler core applies it
/// ([`crate::sched::Scheduler::load_failed`]); the backoff it returns is a
/// wall-clock [`Duration`] the threaded executor's I/O worker sleeps with
/// no lock held (the simulation injects no faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total read attempts allowed per load (including the first).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (every failure quarantines).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The exponential backoff after `failed_attempts` failures (≥ 1).
    pub fn backoff(&self, failed_attempts: u32) -> Duration {
        let factor = 1u32 << failed_attempts.saturating_sub(1).min(16);
        (self.backoff_base * factor).min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_backs_off_exponentially_up_to_its_cap() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(350),
        };
        // Doubles from the base, saturates at the cap, never shrinks —
        // however many failures are reported.
        let expected_us = [100, 200, 350, 350, 350];
        for (i, us) in expected_us.into_iter().enumerate() {
            assert_eq!(policy.backoff(i as u32 + 1), Duration::from_micros(us));
        }
        assert_eq!(policy.backoff(0), policy.backoff(1));
        assert_eq!(policy.backoff(u32::MAX), policy.backoff_cap);
    }
}
