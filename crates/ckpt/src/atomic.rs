//! Durable atomic file publication: temp file + fsync + rename + parent
//! directory fsync.
//!
//! Publication is *atomic* (readers see the old or the new file, never a
//! torn one) and *durable*: the contents are synced (`sync_all` on the
//! temp file before the rename), and so is the rename itself, by
//! fsyncing the parent directory afterwards; without that a power cut
//! could roll the directory entry back. Test-visible counters let a
//! unit test prove both syncs actually happen on the write path.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `sync_all` calls issued on temp files (test seam).
static FILE_SYNCS: AtomicU64 = AtomicU64::new(0);
/// `sync_all` calls issued on parent directories (test seam).
static DIR_SYNCS: AtomicU64 = AtomicU64::new(0);

/// Temp-file fsyncs since process start.
pub fn file_syncs() -> u64 {
    FILE_SYNCS.load(Ordering::Relaxed)
}

/// Parent-directory fsyncs since process start.
pub fn dir_syncs() -> u64 {
    DIR_SYNCS.load(Ordering::Relaxed)
}

/// Writes `contents` to `path` atomically *and durably*: the bytes are
/// fsynced into a unique temp file in the target directory, a `rename`
/// publishes them, and the parent directory is fsynced so the rename
/// itself survives a power cut. Concurrent readers (and a kill at any
/// instant) observe either the old complete file or the new complete
/// file, never a torn prefix.
pub fn write_atomic_bytes(path: &Path, contents: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => {
            std::fs::create_dir_all(d)?;
            d.to_path_buf()
        }
        _ => PathBuf::from("."),
    };
    let base = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(".{base}.tmp{}", std::process::id()));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        FILE_SYNCS.fetch_add(1, Ordering::Relaxed);
        std::fs::rename(&tmp, path)?;
        // Durability of the rename itself: fsync the directory so the
        // new entry is on stable storage. Platforms whose directory
        // handles refuse fsync (not Linux) surface the error rather than
        // silently skipping the guarantee.
        File::open(&dir)?.sync_all()?;
        DIR_SYNCS.fetch_add(1, Ordering::Relaxed);
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_whole_files_and_syncs_file_and_directory() {
        let dir = std::env::temp_dir().join(format!("hbat-ckpt-atomic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("snap.ckpt");

        let (f0, d0) = (file_syncs(), dir_syncs());
        write_atomic_bytes(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // Both the contents and the rename were forced to stable storage.
        assert!(file_syncs() > f0, "temp file must be fsynced");
        assert!(dir_syncs() > d0, "parent directory must be fsynced");

        write_atomic_bytes(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");

        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_pathless_targets() {
        assert!(write_atomic_bytes(Path::new("/"), b"x").is_err());
    }
}
