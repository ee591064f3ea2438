//! What the threaded executor does with a failed chunk read: retry with
//! backoff, or give the chunk up.

use cscan_storage::StoreError;
use std::time::Duration;

/// Bounded-retry policy for failed chunk reads.
///
/// Retryable [`StoreError`]s (transient, timeout, corrupted) are retried up
/// to `max_attempts` times with exponential backoff; a permanent error — or
/// exhausting the attempt budget — quarantines the chunk.  The backoff is a
/// wall-clock [`Duration`] the threaded executor's I/O worker sleeps with no
/// lock held; that worker is the only caller (the simulation injects no
/// faults).
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

/// What the retry policy decided about a failed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureAction {
    /// Read the chunk again after sleeping `delay`.
    Retry {
        /// Backoff to wait before the retry.
        delay: Duration,
    },
    /// Give up on the chunk: quarantine it and err its interested queries.
    Quarantine,
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

    /// Decides what to do after a read of a chunk failed with `error` for
    /// the `failed_attempts`-th time (1-based).
    pub fn on_failure(&self, error: StoreError, failed_attempts: u32) -> FailureAction {
        if !error.is_retryable() || failed_attempts >= self.max_attempts {
            FailureAction::Quarantine
        } else {
            FailureAction::Retry {
                delay: self.backoff(failed_attempts),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_backs_off_then_quarantines() {
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

        use FailureAction::{Quarantine, Retry};
        use StoreError::{Corrupted, Permanent, TimedOut, Transient};
        let retry = |n| Retry {
            delay: policy.backoff(n),
        };
        let table = [
            // A permanent error quarantines on the first failure.
            (policy, Permanent, 1, Quarantine),
            // A retryable one is retried until the attempt budget is spent.
            (policy, Transient, 1, retry(1)),
            (policy, TimedOut, 2, retry(2)),
            (policy, Corrupted, 3, retry(3)),
            (policy, Transient, 4, Quarantine),
            (policy, Transient, 5, Quarantine),
            (RetryPolicy::no_retries(), Transient, 1, Quarantine),
        ];
        for (policy, error, failed_attempts, expected) in table {
            assert_eq!(
                policy.on_failure(error, failed_attempts),
                expected,
                "{error:?} after {failed_attempts} failed attempts of {}",
                policy.max_attempts
            );
        }
    }
}
