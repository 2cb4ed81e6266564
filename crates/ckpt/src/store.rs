//! Content-addressed snapshot storage.
//!
//! Snapshots live in one directory, named
//! `{bench}-{fingerprint}-{index:012}.ckpt` — the same
//! `(benchmark, config fingerprint, instruction index)` addressing the
//! sweep journal uses for cells, so a retry knows exactly which
//! snapshots it may trust. [`CheckpointStore::save`] publishes through
//! the durable atomic writer; [`CheckpointStore::latest_valid`] scans
//! newest-first, decodes and identity-checks each candidate, and falls
//! back past corrupt files (collecting their typed errors) rather than
//! ever returning questionable state.

use std::path::{Path, PathBuf};

use crate::atomic::write_atomic_bytes;
use crate::events;
use crate::format::{CkptError, Snapshot};

/// One benchmark+configuration's snapshot directory view.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    bench: String,
    fingerprint: String,
}

/// Outcome of a [`CheckpointStore::latest_valid`] scan.
#[derive(Debug)]
pub struct RestoreScan {
    /// The newest snapshot that decoded and identity-checked cleanly.
    pub snapshot: Option<Snapshot>,
    /// Candidates that were rejected, newest first, with why.
    pub rejected: Vec<(PathBuf, CkptError)>,
}

impl CheckpointStore {
    /// A store view for `(bench, fingerprint)` under `dir`.
    pub fn new(dir: &Path, bench: &str, fingerprint: &str) -> CheckpointStore {
        CheckpointStore {
            dir: dir.to_path_buf(),
            bench: bench.to_owned(),
            fingerprint: fingerprint.to_owned(),
        }
    }

    /// The file a snapshot at `index` is stored at.
    pub fn path_for(&self, index: u64) -> PathBuf {
        self.dir.join(format!(
            "{}-{}-{index:012}.ckpt",
            self.bench, self.fingerprint
        ))
    }

    /// Encodes and durably publishes `snap`, returning its path.
    ///
    /// # Panics
    ///
    /// Panics if `snap`'s identity differs from the store's — snapshots
    /// are only ever saved by the run that produced them.
    pub fn save(&self, snap: &Snapshot) -> Result<PathBuf, CkptError> {
        assert_eq!(snap.bench, self.bench, "snapshot/store bench mismatch");
        assert_eq!(
            snap.fingerprint, self.fingerprint,
            "snapshot/store fingerprint mismatch"
        );
        let path = self.path_for(snap.index);
        write_atomic_bytes(&path, &snap.encode())?;
        events::note_written();
        Ok(path)
    }

    /// Indices of this identity's snapshots present on disk, ascending.
    /// Files for other identities (or with unparsable names) are ignored.
    pub fn indices(&self) -> Result<Vec<u64>, CkptError> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(CkptError::Io(e)),
        };
        let prefix = format!("{}-{}-", self.bench, self.fingerprint);
        for entry in entries {
            let name = entry.map_err(CkptError::Io)?.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name
                .strip_prefix(&prefix)
                .and_then(|r| r.strip_suffix(".ckpt"))
            {
                if let Ok(idx) = rest.parse::<u64>() {
                    out.push(idx);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Finds the newest snapshot at or below `max_index` that decodes and
    /// identity-checks cleanly, skipping (and reporting) corrupt ones.
    /// Bumps the restored/rejected event counters as it goes. Only disk
    /// scanning errors are returned as `Err`; "nothing usable" is
    /// `Ok` with `snapshot: None` — the caller cold-starts.
    pub fn latest_valid(&self, max_index: u64) -> Result<RestoreScan, CkptError> {
        let mut scan = RestoreScan {
            snapshot: None,
            rejected: Vec::new(),
        };
        let mut indices = self.indices()?;
        indices.retain(|&i| i <= max_index);
        for idx in indices.into_iter().rev() {
            let path = self.path_for(idx);
            let verdict = std::fs::read(&path)
                .map_err(CkptError::Io)
                .and_then(|bytes| Snapshot::decode(&bytes))
                .and_then(|snap| {
                    snap.verify_identity(&self.bench, &self.fingerprint)?;
                    if snap.index != idx {
                        return Err(CkptError::Malformed(format!(
                            "file named for index {idx} contains index {}",
                            snap.index
                        )));
                    }
                    Ok(snap)
                });
            match verdict {
                Ok(snap) => {
                    events::note_restored();
                    scan.snapshot = Some(snap);
                    break;
                }
                Err(e) => {
                    events::note_rejected();
                    scan.rejected.push((path, e));
                }
            }
        }
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::checksum_of;
    use hbat_cpu::WarmExport;
    use hbat_isa::executor::ArchState;

    fn snap(bench: &str, fp: &str, index: u64) -> Snapshot {
        Snapshot {
            bench: bench.to_owned(),
            fingerprint: fp.to_owned(),
            index,
            arch: ArchState {
                iregs: [index as i64; 32],
                freg_bits: [0; 32],
                pc: 1,
                serial: index,
                halted: false,
            },
            mem_chunks: Vec::new(),
            warm: WarmExport::default(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hbat-ckpt-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn save_then_latest_valid_round_trips() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::new(&dir, "Compress", "deadbeef");
        for idx in [100u64, 200, 300] {
            store.save(&snap("Compress", "deadbeef", idx)).unwrap();
        }
        assert_eq!(store.indices().unwrap(), vec![100, 200, 300]);

        let scan = store.latest_valid(u64::MAX).unwrap();
        assert_eq!(scan.snapshot.unwrap().index, 300);
        assert!(scan.rejected.is_empty());

        // A ceiling excludes newer snapshots.
        let scan = store.latest_valid(250).unwrap();
        assert_eq!(scan.snapshot.unwrap().index, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_directory_cold_starts() {
        let dir = tmpdir("missing");
        let store = CheckpointStore::new(&dir, "Gcc", "00");
        let scan = store.latest_valid(u64::MAX).unwrap();
        assert!(scan.snapshot.is_none());
        assert!(scan.rejected.is_empty());
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmpdir("fallback");
        let store = CheckpointStore::new(&dir, "Compress", "deadbeef");
        store.save(&snap("Compress", "deadbeef", 100)).unwrap();
        store.save(&snap("Compress", "deadbeef", 200)).unwrap();

        // Flip one bit in the newest snapshot.
        let newest = store.path_for(200);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&newest, &bytes).unwrap();

        let rejected_before = crate::events::rejected();
        let scan = store.latest_valid(u64::MAX).unwrap();
        assert_eq!(
            scan.snapshot.unwrap().index,
            100,
            "fell back past corruption"
        );
        assert_eq!(scan.rejected.len(), 1);
        assert!(matches!(
            scan.rejected[0].1,
            CkptError::ChecksumMismatch { .. }
        ));
        assert!(crate::events::rejected() > rejected_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_one_snapshot_cold_starts() {
        // A checksum-valid version-1 file: no TLB-model section, so it
        // cannot restore exactly and must be passed over.
        let dir = tmpdir("v1");
        let store = CheckpointStore::new(&dir, "Compress", "aaaa");
        let mut bytes = snap("Compress", "aaaa", 100).encode();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let body_end = bytes.len() - 8;
        let sum = checksum_of(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        write_atomic_bytes(&store.path_for(100), &bytes).unwrap();
        let scan = store.latest_valid(u64::MAX).unwrap();
        assert!(scan.snapshot.is_none(), "cold start");
        assert!(matches!(
            scan.rejected[0].1,
            CkptError::UnsupportedVersion(1)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_identity_snapshots_are_invisible() {
        let dir = tmpdir("foreign");
        let ours = CheckpointStore::new(&dir, "Compress", "aaaa");
        let theirs = CheckpointStore::new(&dir, "Compress", "bbbb");
        theirs.save(&snap("Compress", "bbbb", 500)).unwrap();
        let scan = ours.latest_valid(u64::MAX).unwrap();
        assert!(
            scan.snapshot.is_none(),
            "different fingerprint never restored"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lying_contents_with_valid_checksum_are_rejected() {
        // A file *named* for our identity whose contents (checksum-valid)
        // carry a different fingerprint: the identity check must fire.
        let dir = tmpdir("lying");
        let store = CheckpointStore::new(&dir, "Compress", "aaaa");
        let alien = snap("Compress", "bbbb", 700);
        write_atomic_bytes(&store.path_for(700), &alien.encode()).unwrap();
        let scan = store.latest_valid(u64::MAX).unwrap();
        assert!(scan.snapshot.is_none());
        assert_eq!(scan.rejected.len(), 1);
        assert!(matches!(
            scan.rejected[0].1,
            CkptError::FingerprintMismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_mismatch_between_name_and_contents_is_rejected() {
        let dir = tmpdir("renamed");
        let store = CheckpointStore::new(&dir, "Compress", "aaaa");
        // Contents say index 100, file name says 900.
        let s = snap("Compress", "aaaa", 100);
        write_atomic_bytes(&store.path_for(900), &s.encode()).unwrap();
        let scan = store.latest_valid(u64::MAX).unwrap();
        assert!(scan.snapshot.is_none());
        assert!(matches!(scan.rejected[0].1, CkptError::Malformed(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_refuses_foreign_snapshots() {
        let dir = tmpdir("refuse");
        let store = CheckpointStore::new(&dir, "Compress", "aaaa");
        let alien = snap("Gcc", "aaaa", 1);
        assert!(std::panic::catch_unwind(|| store.save(&alien)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_helper_matches_decoder() {
        let bytes = snap("A", "b", 1).encode();
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
        assert_eq!(stored, checksum_of(&bytes[..body_end]));
    }
}
