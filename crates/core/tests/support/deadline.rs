//! One deadline for tests that run the threaded executor on real threads.
//!
//! No wait in the executor ends by a timer, so a lost wake-up hangs the
//! test it happens in.  While a [`Deadline`] is armed, a scenario still
//! running at [`LIMIT`] prints the flight recorder's dump and the queries
//! still attached, then aborts the process: the run turns red with
//! evidence instead of running on until it is killed.

use cscan_obs::Registry;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// How long one scenario may run: far above what any takes in a debug
/// build on a loaded two-core box.
pub const LIMIT: Duration = Duration::from_secs(30);

/// Armed from [`Deadline::arm`] until dropped.
pub struct Deadline {
    _disarm: mpsc::Sender<()>,
}

impl Deadline {
    /// Arms the deadline over the servers that record into `obs`.
    pub fn arm(obs: &Arc<Registry>) -> Deadline {
        let (disarm, disarmed) = mpsc::channel::<()>();
        let obs = Arc::clone(obs);
        std::thread::spawn(move || {
            if disarmed.recv_timeout(LIMIT) == Err(RecvTimeoutError::Timeout) {
                let attached: Vec<String> = (obs.snapshot().queries.iter())
                    .filter(|q| !q.detached)
                    .map(|q| format!("{} on {}", q.label, q.table))
                    .collect();
                eprintln!("{}", obs.dump_flight("deadline passed"));
                eprintln!("still running after {LIMIT:?}; queries attached: {attached:?}");
                std::process::abort();
            }
        });
        Deadline { _disarm: disarm }
    }
}
