//! The one instrument the timed release gates read a ratio from: two
//! sides of one piece of work — ours and a reference — timed on one thread
//! in alternating windows.
//!
//! Each side runs in windows of at least 25 ms and three passes,
//! twenty windows a side, alternating, and keeps its best window: a busy
//! neighbour only ever slows a window down, and short windows interleaved
//! finely see the same phases of a shared host.  The windows run under a
//! process-wide lock, so two gates of one test binary never measure at
//! once and take each other's core.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The shortest window a side is timed over.
const WINDOW: Duration = Duration::from_millis(25);
/// Windows a side; the best counts.
const WINDOWS: usize = 20;

/// Held while a comparison measures.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What one comparison read: each side's seconds a pass in its best
/// window.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Seconds a pass of ours takes.
    pub ours_s: f64,
    /// Seconds a pass of the reference takes.
    pub theirs_s: f64,
}

impl Comparison {
    /// How many times as fast as the reference ours runs.
    pub fn speedup(&self) -> f64 {
        self.theirs_s / self.ours_s
    }

    /// How many times the reference's time a pass of ours takes: the
    /// inverse of [`Comparison::speedup`].
    pub fn cost_ratio(&self) -> f64 {
        self.ours_s / self.theirs_s
    }
}

/// Times `ours` against `theirs`, a call of each being one pass, and
/// prints both rates under `label`.
pub fn compare<R>(label: &str, ours: impl Fn() -> R, theirs: impl Fn() -> R) -> Comparison {
    let (ours, theirs) = (&ours, &theirs);
    compare_prepared(label, move || move || ours(), move || move || theirs())
}

/// [`compare`] with untimed set-up: a call of a side prepares a pass and
/// returns it, and only the pass is timed; what the pass returns is
/// dropped after the clock stops.
pub fn compare_prepared<P, Q, R>(
    label: &str,
    mut ours: impl FnMut() -> P,
    mut theirs: impl FnMut() -> Q,
) -> Comparison
where
    P: FnOnce() -> R,
    Q: FnOnce() -> R,
{
    let (mut ours_s, mut theirs_s) = (f64::MAX, f64::MAX);
    {
        let _measuring = measuring();
        for _ in 0..WINDOWS {
            ours_s = ours_s.min(seconds_a_pass(&mut ours));
            theirs_s = theirs_s.min(seconds_a_pass(&mut theirs));
        }
    }
    let comparison = Comparison { ours_s, theirs_s };
    println!(
        "{label}: {:.2} µs a pass against the reference's {:.2} µs: {:.3}x its time, \
         {:.2}x as fast",
        ours_s * 1e6,
        theirs_s * 1e6,
        comparison.cost_ratio(),
        comparison.speedup()
    );
    comparison
}

/// Seconds a pass over one window of at least [`WINDOW`] of timed passes
/// and at least three passes.
fn seconds_a_pass<P: FnOnce() -> R, R>(prepare: &mut impl FnMut() -> P) -> f64 {
    let (mut timed, mut passes) = (Duration::ZERO, 0u32);
    while passes < 3 || timed < WINDOW {
        let pass = prepare();
        let started = Instant::now();
        let out = black_box(pass());
        timed += started.elapsed();
        drop(out);
        passes += 1;
    }
    timed.as_secs_f64() / f64::from(passes)
}
