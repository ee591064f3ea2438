//! Seeded thread-interleaving fuzzer for the threaded executor: grant
//! mailboxes and releases around one scheduler lock.
//!
//! Gated behind the `interleave_fuzz` feature (run with
//! `cargo test -p cscan_core --features interleave_fuzz`): each seed builds
//! a fresh server with a seed-derived shape (policy, pool size, worker
//! count) and unleashes scanner threads whose scripts — consume, drop a
//! pinned chunk without completing it, abandon the scan mid-way, detach
//! without draining, yield — are chosen by a per-thread PRNG.  There is no
//! schedule controller (no loom); the scripts plus the OS scheduler explore
//! interleavings, and every seed must drain to the same quiescent state:
//! no pinned frames, no erred queries, no panicked workers, and a
//! consistent metrics snapshot.

#![cfg(feature = "interleave_fuzz")]

use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::threaded::ScanServer;
use cscan_core::{CScanPlan, ScanRanges};
use cscan_obs::Registry;
use std::sync::Arc;
use std::time::Duration;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

const NUM_CHUNKS: u32 = 16;

fn run_seed(seed: u64) {
    let mut rng = seed;
    let policy = PolicyKind::ALL[(lcg(&mut rng) % 4) as usize];
    let buffer_chunks = 2 + lcg(&mut rng) % 6;
    let io_threads = 1 + (lcg(&mut rng) % 4) as usize;
    let scanners = 4 + (lcg(&mut rng) % 12) as usize;

    let obs = Arc::new(Registry::new());
    let model = TableModel::nsm_uniform(NUM_CHUNKS, 64, 4);
    let server = Arc::new(
        ScanServer::builder(model.clone())
            .policy(policy)
            .buffer_chunks(buffer_chunks)
            .io_threads(io_threads)
            .io_cost_per_page(Duration::ZERO)
            .observability(Arc::clone(&obs))
            .build(),
    );

    let threads: Vec<_> = (0..scanners)
        .map(|i| {
            let server = Arc::clone(&server);
            let model = model.clone();
            let mut rng = seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1));
            std::thread::spawn(move || {
                let start = (lcg(&mut rng) % NUM_CHUNKS as u64) as u32;
                let end = start + 1 + (lcg(&mut rng) % (NUM_CHUNKS - start) as u64) as u32;
                let handle = server.cscan(CScanPlan::new(
                    format!("fuzz-{seed}-{i}"),
                    ScanRanges::single(start, end),
                    model.all_columns(),
                ));
                loop {
                    match lcg(&mut rng) % 16 {
                        // Abandon the scan: drop the handle mid-stream
                        // (undrained grants must be reclaimed by finish).
                        0 => {
                            handle.finish();
                            return;
                        }
                        // Detach via Drop without an explicit finish.
                        1 => return,
                        2 => std::thread::yield_now(),
                        _ => {}
                    }
                    match handle.next_chunk().expect("no faults injected") {
                        Some(guard) => {
                            if lcg(&mut rng).is_multiple_of(4) {
                                // Unconsumed drop: release without complete.
                                drop(guard);
                            } else {
                                guard.complete();
                            }
                        }
                        None => {
                            handle.finish();
                            return;
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("scanner panicked");
    }

    assert_eq!(server.pinned_frames(), 0, "seed {seed}: leaked pins");
    drop(server);
    let snap = obs.snapshot();
    assert!(snap.is_consistent(), "seed {seed}: inconsistent snapshot");
    assert_eq!(snap.counter("worker_panics"), 0, "seed {seed}");
    assert_eq!(snap.counter("queries_erred"), 0, "seed {seed}");
    // No wait ended on its belt-and-braces bound with work waiting for it.
    assert_eq!(snap.counter("worker_park_timeouts"), 0, "seed {seed}");
    assert_eq!(snap.counter("consumer_wait_timeouts"), 0, "seed {seed}");
}

#[test]
fn seeded_interleavings_always_drain_clean() {
    for seed in 0..48u64 {
        run_seed(seed);
    }
}
