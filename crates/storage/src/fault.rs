//! The storage-error taxonomy and a deterministic fault-injecting store.
//!
//! Real table files fail in ways the happy path never sees: a read errors
//! transiently (retry it), times out (retry it), returns damaged bytes
//! (the checksum catches it — retry it), or the sector is gone for good
//! (quarantine the chunk and err the queries that need it).  [`StoreError`]
//! names those four outcomes; every layer above — buffer manager, I/O
//! scheduler, scan sessions, query operators — routes them instead of
//! panicking.
//!
//! [`FaultInjectingStore`] wraps any [`ChunkStore`] and injects that whole
//! taxonomy *deterministically*: the outcome of attempt `n` on chunk `c` is
//! a pure function of `(seed, c, n)`, so a chaos run is exactly
//! reproducible from its seed, and a bounded retry loop provably clears
//! transient faults (attempt numbers advance, so rerolls differ).

use crate::chunkdata::{ChunkData, ChunkPayload, ChunkStore, ColumnChunk, LazyColumn};
use crate::ids::{ChunkId, ColumnId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Why a chunk read failed.
///
/// The variants matter to the retry layer: everything except
/// [`StoreError::Permanent`] is worth another attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StoreError {
    /// The read failed but a retry may succeed (EIO-class hiccup).
    Transient,
    /// The read did not complete within its deadline; retryable.
    TimedOut,
    /// The read completed but the payload failed checksum verification;
    /// the bytes were torn in flight, so a retry may return clean ones.
    Corrupted,
    /// The chunk is unreadable for good (bad sector, truncated file);
    /// retrying cannot help — quarantine the chunk.
    Permanent,
}

impl StoreError {
    /// Whether a bounded retry loop should try this read again.
    pub fn is_retryable(self) -> bool {
        !matches!(self, StoreError::Permanent)
    }

    /// Stable wire code for this error, used by the serving layer's binary
    /// protocol.  Codes are append-only: existing values never change
    /// meaning, and new variants (the enum is `#[non_exhaustive]`) claim
    /// fresh codes.
    pub fn wire_code(self) -> u16 {
        match self {
            StoreError::Transient => 1,
            StoreError::TimedOut => 2,
            StoreError::Corrupted => 3,
            StoreError::Permanent => 4,
        }
    }

    /// Decodes a wire code back into the error it names, or `None` for
    /// codes this build does not know (a newer peer may send them).
    pub fn from_wire_code(code: u16) -> Option<StoreError> {
        match code {
            1 => Some(StoreError::Transient),
            2 => Some(StoreError::TimedOut),
            3 => Some(StoreError::Corrupted),
            4 => Some(StoreError::Permanent),
            _ => None,
        }
    }

    /// Every variant this build knows, for exhaustive round-trip tests.
    pub const ALL: [StoreError; 4] = [
        StoreError::Transient,
        StoreError::TimedOut,
        StoreError::Corrupted,
        StoreError::Permanent,
    ];
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Transient => write!(f, "transient read failure"),
            StoreError::TimedOut => write!(f, "read timed out"),
            StoreError::Corrupted => write!(f, "payload failed checksum verification"),
            StoreError::Permanent => write!(f, "permanent read failure"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What the fault injector decided for one `(chunk, attempt)` read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver the payload untouched.
    Success,
    /// Deliver the payload with one byte flipped in a compressed column
    /// (the checksum at install/decode time turns this into
    /// [`StoreError::Corrupted`]).
    Corrupt,
    /// Fail the read outright with the given error.
    Fail(StoreError),
}

/// Deterministic fault model: rates, mix and targets.
///
/// All decisions derive from `seed` and the `(chunk, attempt)` coordinates
/// via SplitMix64, so two runs with the same config see the same faults in
/// the same places.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that a read fails outright.
    pub fault_rate: f64,
    /// Fraction of outright failures that are [`StoreError::Permanent`]
    /// (the rest split between transient failures and timeouts).
    pub permanent_fraction: f64,
    /// Probability in `[0, 1]` that an otherwise-successful read returns a
    /// payload with a flipped byte in a compressed column.
    pub corruption_rate: f64,
    /// Probability in `[0, 1]` that a read incurs an extra latency spike.
    pub latency_spike_rate: f64,
    /// Duration of an injected latency spike (a real sleep on the I/O
    /// worker that called the store).
    pub latency_spike: Duration,
    /// Chunk indices that *always* fail permanently, regardless of rates —
    /// the "one bad sector" scenario of the acceptance criteria.
    pub permanent_chunks: Vec<u32>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED_F417,
            fault_rate: 0.0,
            permanent_fraction: 0.0,
            corruption_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::from_millis(1),
            permanent_chunks: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A config injecting only transient/timeout failures at `rate`.
    pub fn transient_only(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            fault_rate: rate,
            ..Self::default()
        }
    }

    /// A uniform roll in `[0, 1)` for decision lane `lane` of
    /// `(chunk, attempt)`.
    fn roll(&self, chunk: ChunkId, attempt: u64, lane: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_add((chunk.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(lane.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The deterministic outcome of attempt `attempt` on `chunk`.
    pub fn outcome(&self, chunk: ChunkId, attempt: u64) -> FaultOutcome {
        if self.permanent_chunks.contains(&chunk.index()) {
            return FaultOutcome::Fail(StoreError::Permanent);
        }
        if self.roll(chunk, attempt, 0) < self.fault_rate {
            let kind = if self.roll(chunk, attempt, 1) < self.permanent_fraction {
                StoreError::Permanent
            } else if self.roll(chunk, attempt, 2) < 0.25 {
                StoreError::TimedOut
            } else {
                StoreError::Transient
            };
            return FaultOutcome::Fail(kind);
        }
        if self.roll(chunk, attempt, 3) < self.corruption_rate {
            return FaultOutcome::Corrupt;
        }
        FaultOutcome::Success
    }

    /// Whether attempt `attempt` on `chunk` incurs a latency spike.
    pub fn spikes(&self, chunk: ChunkId, attempt: u64) -> bool {
        self.latency_spike_rate > 0.0 && self.roll(chunk, attempt, 4) < self.latency_spike_rate
    }

    /// The byte/bit selector used when corrupting attempt `attempt` on
    /// `chunk` (exposed so tests can predict the damage).
    pub fn corruption_selector(&self, chunk: ChunkId, attempt: u64) -> u64 {
        let lo = (self.roll(chunk, attempt, 5) * (1u64 << 32) as f64) as u64;
        let hi = (self.roll(chunk, attempt, 6) * 8.0) as u64;
        lo | (hi << 32)
    }
}

/// A [`ChunkStore`] wrapper that injects the full [`StoreError`] taxonomy
/// deterministically, per [`FaultConfig`].
///
/// Attempt numbers advance per chunk across calls (a retry of chunk `c`
/// rolls fresh dice), which is what lets a bounded retry loop clear
/// transient faults with probability `1 - rateᴬ`.
pub struct FaultInjectingStore<S> {
    inner: S,
    config: FaultConfig,
    attempts: Mutex<HashMap<u32, u64>>,
    faults_injected: AtomicU64,
    corruptions_injected: AtomicU64,
    spikes_injected: AtomicU64,
    /// Observability mirror of the three injection counters; disabled (a
    /// no-op) unless installed via [`FaultInjectingStore::with_observability`].
    obs: Arc<cscan_obs::Registry>,
}

impl<S: ChunkStore> FaultInjectingStore<S> {
    /// Wraps `inner` under the given fault model.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        Self {
            inner,
            config,
            attempts: Mutex::new(HashMap::new()),
            faults_injected: AtomicU64::new(0),
            corruptions_injected: AtomicU64::new(0),
            spikes_injected: AtomicU64::new(0),
            obs: Arc::new(cscan_obs::Registry::disabled()),
        }
    }

    /// Mirrors the injection counters (`faults_injected`,
    /// `corruptions_injected`, `latency_spikes_injected`) into `obs`, so a
    /// chaos run's snapshot shows how much damage was *injected* alongside
    /// how much the engine *observed*.
    pub fn with_observability(mut self, obs: Arc<cscan_obs::Registry>) -> Self {
        self.obs = obs;
        self
    }

    /// The fault model in force.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Total reads failed so far (transient + timeout + permanent).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Total payloads delivered with a flipped byte so far.
    pub fn corruptions_injected(&self) -> u64 {
        self.corruptions_injected.load(Ordering::Relaxed)
    }

    /// Total latency spikes slept so far.
    pub fn spikes_injected(&self) -> u64 {
        self.spikes_injected.load(Ordering::Relaxed)
    }

    /// The next attempt number for `chunk` (0-based), advancing the counter.
    fn next_attempt(&self, chunk: ChunkId) -> u64 {
        let mut attempts = self.attempts.lock().expect("attempt counter lock");
        let n = attempts.entry(chunk.index()).or_insert(0);
        let attempt = *n;
        *n += 1;
        attempt
    }

    /// Flips one byte in the first compressed column of `payload` (keeping
    /// the recorded checksum), or returns the payload untouched if nothing
    /// is compressed — plain columns carry no checksum, so corrupting them
    /// would be silent.
    fn corrupt_payload(&self, payload: ChunkPayload, selector: u64) -> (ChunkPayload, bool) {
        let ChunkPayload::Data(data) = &payload else {
            return (payload, false);
        };
        let mut parts = data.parts().to_vec();
        for (_, part) in &mut parts {
            if let ColumnChunk::Compressed(lazy) = part {
                let torn = lazy.encoded().with_flipped_byte(selector);
                *part = ColumnChunk::Compressed(Arc::new(LazyColumn::new(torn)));
                return (ChunkData::from_parts(parts).into(), true);
            }
        }
        (payload, false)
    }
}

impl<S: ChunkStore> ChunkStore for FaultInjectingStore<S> {
    fn materialize(
        &self,
        chunk: ChunkId,
        cols: Option<&[ColumnId]>,
    ) -> Result<ChunkPayload, StoreError> {
        let attempt = self.next_attempt(chunk);
        if self.config.spikes(chunk, attempt) {
            self.spikes_injected.fetch_add(1, Ordering::Relaxed);
            self.obs.inc(cscan_obs::Counter::LatencySpikesInjected);
            std::thread::sleep(self.config.latency_spike);
        }
        match self.config.outcome(chunk, attempt) {
            FaultOutcome::Fail(e) => {
                self.faults_injected.fetch_add(1, Ordering::Relaxed);
                self.obs.inc(cscan_obs::Counter::FaultsInjected);
                Err(e)
            }
            FaultOutcome::Success => self.inner.materialize(chunk, cols),
            FaultOutcome::Corrupt => {
                let payload = self.inner.materialize(chunk, cols)?;
                let selector = self.config.corruption_selector(chunk, attempt);
                let (payload, hit) = self.corrupt_payload(payload, selector);
                if hit {
                    self.corruptions_injected.fetch_add(1, Ordering::Relaxed);
                    self.obs.inc(cscan_obs::Counter::CorruptionsInjected);
                }
                Ok(payload)
            }
        }
    }

    fn recycle(&self, payload: ChunkPayload) {
        self.inner.recycle(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkdata::{CompressingStore, SeededStore};
    use crate::compression::Compression;

    fn base() -> SeededStore {
        SeededStore::new(64, 2, 7)
    }

    #[test]
    fn zero_rates_are_transparent() {
        let store = FaultInjectingStore::new(base(), FaultConfig::default());
        for i in 0..8 {
            let chunk = ChunkId::new(i);
            let a = store
                .materialize(chunk, None)
                .expect("no faults configured");
            let b = base()
                .materialize(chunk, None)
                .expect("seeded store is infallible");
            assert_eq!(a, b);
        }
        assert_eq!(store.faults_injected(), 0);
        assert_eq!(store.corruptions_injected(), 0);
    }

    #[test]
    fn outcomes_are_deterministic_and_attempt_sensitive() {
        let cfg = FaultConfig {
            fault_rate: 0.5,
            corruption_rate: 0.2,
            ..FaultConfig::transient_only(99, 0.5)
        };
        let chunk = ChunkId::new(3);
        // Same coordinates, same outcome.
        assert_eq!(cfg.outcome(chunk, 0), cfg.outcome(chunk, 0));
        // Across many attempts, outcomes vary (some succeed, some fail).
        let outcomes: Vec<FaultOutcome> = (0..64).map(|a| cfg.outcome(chunk, a)).collect();
        assert!(outcomes.iter().any(|o| matches!(o, FaultOutcome::Fail(_))));
        assert!(outcomes.contains(&FaultOutcome::Success));
    }

    #[test]
    fn transient_only_config_never_rolls_permanent() {
        let cfg = FaultConfig::transient_only(12345, 0.9);
        for c in 0..16 {
            for a in 0..32 {
                if let FaultOutcome::Fail(e) = cfg.outcome(ChunkId::new(c), a) {
                    assert!(e.is_retryable(), "transient-only must stay retryable");
                }
            }
        }
    }

    #[test]
    fn permanent_chunk_always_fails() {
        let cfg = FaultConfig {
            permanent_chunks: vec![5],
            ..FaultConfig::default()
        };
        let store = FaultInjectingStore::new(base(), cfg);
        for _ in 0..4 {
            assert_eq!(
                store.materialize(ChunkId::new(5), None),
                Err(StoreError::Permanent)
            );
        }
        assert!(store.materialize(ChunkId::new(4), None).is_ok());
        assert_eq!(store.faults_injected(), 4);
    }

    #[test]
    fn retry_clears_transient_faults() {
        let cfg = FaultConfig::transient_only(42, 0.5);
        let store = FaultInjectingStore::new(base(), cfg);
        let chunk = ChunkId::new(0);
        // With a 50% rate, 32 attempts succeed with probability 1 - 2^-32.
        let mut ok = false;
        for _ in 0..32 {
            if store.materialize(chunk, None).is_ok() {
                ok = true;
                break;
            }
        }
        assert!(ok, "attempt numbers must advance so retries reroll");
    }

    #[test]
    fn corruption_breaks_checksums_but_not_plain_payloads() {
        let cfg = FaultConfig {
            corruption_rate: 1.0,
            ..FaultConfig::default()
        };
        // Plain inner store: nothing compressed, so corruption cannot land.
        let plain = FaultInjectingStore::new(base(), cfg.clone());
        let p = plain
            .materialize(ChunkId::new(1), None)
            .expect("corruption is not a read failure");
        assert!(p.verify_checksums().is_ok());
        assert_eq!(plain.corruptions_injected(), 0);
        // Compressed inner store: the flip lands and verification fails.
        let schemes = vec![
            Compression::Pfor {
                bits: 21,
                exception_rate: 0.02,
            };
            2
        ];
        let compressed = FaultInjectingStore::new(CompressingStore::new(base(), schemes), cfg);
        let p = compressed
            .materialize(ChunkId::new(1), None)
            .expect("corruption is not a read failure");
        assert_eq!(p.verify_checksums(), Err(StoreError::Corrupted));
        assert_eq!(compressed.corruptions_injected(), 1);
    }

    #[test]
    fn wrappers_pass_recycled_payloads_down() {
        /// Counts what reaches the bottom of the stack.
        struct Sink(Arc<AtomicU64>);
        impl ChunkStore for Sink {
            fn materialize(
                &self,
                _chunk: ChunkId,
                _cols: Option<&[ColumnId]>,
            ) -> Result<ChunkPayload, StoreError> {
                Ok(ChunkPayload::Missing)
            }
            fn recycle(&self, _payload: ChunkPayload) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let seen = Arc::new(AtomicU64::new(0));
        let store = FaultInjectingStore::new(
            CompressingStore::new(Sink(Arc::clone(&seen)), Vec::new()),
            FaultConfig::default(),
        );
        store.recycle(ChunkPayload::Missing);
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        // A store with nothing to reuse takes the default: the payload drops.
        base().recycle(ChunkPayload::Missing);
    }

    #[test]
    fn store_error_wire_codes_round_trip() {
        for e in StoreError::ALL {
            assert_eq!(StoreError::from_wire_code(e.wire_code()), Some(e));
            assert!(
                e.wire_code() >= 1 && e.wire_code() <= 99,
                "store errors own 1-99"
            );
        }
        // Codes are pairwise distinct.
        let mut codes: Vec<u16> = StoreError::ALL.iter().map(|e| e.wire_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), StoreError::ALL.len());
        // Unknown codes decode to None rather than panicking.
        assert_eq!(StoreError::from_wire_code(0), None);
        assert_eq!(StoreError::from_wire_code(99), None);
    }

    #[test]
    fn store_error_display_and_retryability() {
        assert!(StoreError::Transient.is_retryable());
        assert!(StoreError::TimedOut.is_retryable());
        assert!(StoreError::Corrupted.is_retryable());
        assert!(!StoreError::Permanent.is_retryable());
        assert!(StoreError::Permanent.to_string().contains("permanent"));
    }
}
