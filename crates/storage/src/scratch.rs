//! Scratch paths for the tests, benches and examples that write real files.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// A path of its own under the system temp directory, removed — file or
/// directory tree — when dropped, on the failure paths too.
///
/// The name carries the pid, the clock and a per-process counter, so
/// neither two tests of one binary (which `cargo test` runs on parallel
/// threads), nor two processes, nor a rerun over a crashed run's leftovers
/// can be handed the same path.  Nothing is created: the holder decides
/// whether the path becomes a file or a directory.
#[derive(Debug)]
pub struct ScratchPath(PathBuf);

impl ScratchPath {
    /// Names a fresh path `cscan_<tag>_<pid>_<nanos>_<n>`.
    pub fn new(tag: &str) -> ScratchPath {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        ScratchPath(std::env::temp_dir().join(format!(
            "cscan_{tag}_{}_{nanos}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Deref for ScratchPath {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl From<&ScratchPath> for PathBuf {
    fn from(scratch: &ScratchPath) -> PathBuf {
        scratch.0.clone()
    }
}

impl Drop for ScratchPath {
    fn drop(&mut self) {
        // Nothing useful can be done about a failed removal here, and the
        // path may never have been created.
        let _ = if self.0.is_dir() {
            std::fs::remove_dir_all(&self.0)
        } else {
            std::fs::remove_file(&self.0)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_distinct_and_removed_on_drop() {
        let file = ScratchPath::new("unit");
        let dir = ScratchPath::new("unit");
        assert_ne!(&*file, &*dir);
        std::fs::write(&file, b"x").expect("write scratch file");
        std::fs::create_dir_all(dir.join("nested")).expect("create scratch dir");
        let (file_path, dir_path) = (file.to_path_buf(), dir.to_path_buf());
        drop(file);
        drop(dir);
        assert!(!file_path.exists() && !dir_path.exists());
        drop(ScratchPath::new("never-created"));
    }
}
