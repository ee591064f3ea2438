//! The benchmark's scratch directory.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Where the benchmark writes: `benchmark/out/`, inside the checkout the
/// binary was built from (the driver's contract forbids writing anywhere
/// else, `$TMPDIR` included).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory of its own under [`out_dir`], named by pid, clock and a
/// counter so neither two runs nor two set-ups of one run can share a
/// path, and removed when dropped, on the failure paths too.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create() -> io::Result<ScratchDir> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = out_dir().join(format!(
            "scratch-{}-{nanos}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed removal here; the
        // directory is under the ignored `out/` either way.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::create().expect("scratch a");
        let b = ScratchDir::create().expect("scratch b");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
    }
}
