//! Test-only on-disk hygiene helper: per-test temp directories.
//!
//! The durability tests create real files (checkpoint manifests). Every
//! such artifact must live under a [`TempDir`] so test runs never litter
//! the repo root or accumulate in `/tmp`.
//!
//! Hand-rolled (no `tempfile` crate): unique names come from the pid plus
//! a process-wide counter, which is collision-free within a test binary
//! and good enough across binaries for the lifetimes involved.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, removed
/// recursively on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `\<system tmp\>/facade-\<label\>-\<pid\>-\<n\>`.
    ///
    /// # Panics
    /// If the directory cannot be created — tests cannot proceed without
    /// scratch space.
    #[must_use]
    pub fn new(label: &str) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("facade-{label}-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create per-test temp dir");
        Self { path }
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdir_is_unique_and_cleaned_up() {
        let (a, b) = (TempDir::new("uniq"), TempDir::new("uniq"));
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("scratch.bin"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists(), "drop must remove the directory");
        drop(b);
    }
}
