//! The on-disk content-addressed result cache.
//!
//! Every completed sweep point's rendered row is stored under its
//! canonical content hash (64 lowercase hex characters, computed by the
//! [`crate::JobEngine`] — for `silo-sim` a SHA-256 over the resolved
//! point descriptor). Layout shards by the first two hex characters so
//! no directory grows unboundedly:
//!
//! ```text
//! <root>/rows/ab/abcdef....json
//! ```
//!
//! Properties the daemon relies on:
//!
//! * **Pure function of the key.** A row is immutable once written;
//!   `get` after `put` returns the identical bytes. Writes go through a
//!   temp file + rename, so a row is never observed half-written, even
//!   by a concurrent daemon sharing the directory.
//! * **Checked on read.** A row file starts with a `sha256 <hex>` line
//!   over the row after it. A file whose checksum is missing or wrong
//!   (torn by a copy, truncated by a full disk, edited by hand) is
//!   deleted and reads as a miss, so the point is recomputed instead of
//!   served broken.
//! * **Safe to delete.** Removing any file (or the whole directory)
//!   only costs recompute — which is also the eviction story: when the
//!   entry count exceeds the configured cap after a write, the
//!   oldest-modified rows are removed until the cap holds again.
//! * **Crash tolerant.** A `kill -9` loses at most rows not yet
//!   renamed into place; everything completed before the crash is
//!   served on restart (the `--resume` path).

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use silo_types::sha::sha256_hex;

/// Subdirectory of the cache root holding row files.
const ROWS_DIR: &str = "rows";
/// Subdirectory holding auxiliary event records (NDJSON sidecars,
/// e.g. epoch telemetry), parallel to `rows/` and keyed identically.
/// Sidecars are not counted against the entry cap; evicting a row
/// best-effort removes its sidecar too.
const EVENTS_DIR: &str = "events";
/// Row file extension.
const ROW_EXT: &str = "json";
/// Event sidecar extension.
const EVENTS_EXT: &str = "ndjson";
/// Prefix of a row file's first line, followed by the row's SHA-256.
const CHECKSUM_PREFIX: &str = "sha256 ";

/// Writes `bytes` to `path` through a sibling `<path>.tmp` file renamed
/// into place, so a reader — or a restart after a crash — sees either no
/// file or the whole of it, never a torn write. The temp file is synced
/// before the rename and the directory after it, so the write also
/// survives a power loss once this returns. The temp name derives from
/// `path`, so two daemons writing the same row race only against
/// identical bytes.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn write_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes.as_ref())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    File::open(path.parent().expect("callers write below a directory"))?.sync_all()
}

/// A content-addressed row store rooted at one directory.
pub struct RowCache {
    root: PathBuf,
    /// Maximum row files kept; exceeding it evicts oldest-modified
    /// entries. Zero disables the cache entirely (every `get` misses,
    /// every `put` is dropped).
    max_entries: usize,
    /// Approximate entry count (exact while one daemon owns the dir).
    entries: AtomicU64,
    /// Rows removed by cap enforcement since this cache was opened.
    evictions: AtomicU64,
    /// Serializes evictions so concurrent writers don't scan twice.
    evict_lock: Mutex<()>,
}

impl RowCache {
    /// Opens (creating if needed) a cache rooted at `root`, counting any
    /// rows already present from previous runs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating or scanning the directory.
    pub fn open(root: &Path, max_entries: usize) -> io::Result<RowCache> {
        let rows = root.join(ROWS_DIR);
        std::fs::create_dir_all(&rows)?;
        let mut count = 0u64;
        for shard in std::fs::read_dir(&rows)? {
            let shard = shard?.path();
            if shard.is_dir() {
                count += std::fs::read_dir(&shard)?.count() as u64;
            }
        }
        Ok(RowCache {
            root: root.to_path_buf(),
            max_entries,
            entries: AtomicU64::new(count),
            evictions: AtomicU64::new(0),
            evict_lock: Mutex::new(()),
        })
    }

    /// Rows removed by cap enforcement since this cache was opened.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current row count (approximate under concurrent external writers).
    pub fn len(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The file path for `key` under `dir` with `ext`, or `None` for
    /// malformed keys. Keys must be lowercase hex (the engine hashes
    /// into this form); anything else is rejected so a buggy engine
    /// can never address outside the cache directory.
    fn path_in(&self, dir: &str, ext: &str, key: &str) -> Option<PathBuf> {
        if key.len() < 8
            || key.len() > 128
            || !key
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return None;
        }
        Some(
            self.root
                .join(dir)
                .join(&key[..2])
                .join(format!("{key}.{ext}")),
        )
    }

    /// The row file path for `key`, or `None` for malformed keys.
    fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.path_in(ROWS_DIR, ROW_EXT, key)
    }

    /// The event sidecar path for `key`, or `None` for malformed keys.
    fn events_path_for(&self, key: &str) -> Option<PathBuf> {
        self.path_in(EVENTS_DIR, EVENTS_EXT, key)
    }

    /// Fetches the row stored under `key`, if present and intact. A
    /// corrupt row file is deleted and reads as absent.
    pub fn get(&self, key: &str) -> Option<String> {
        self.probe(key).ok().flatten()
    }

    /// [`RowCache::get`], telling a corrupt row apart from a miss:
    /// `Err` carries the path of a row file whose checksum was missing
    /// or wrong, which has been deleted (best effort) so the next `put`
    /// rewrites it.
    pub(crate) fn probe(&self, key: &str) -> Result<Option<String>, PathBuf> {
        let Some(path) = self.path_for(key).filter(|_| self.max_entries > 0) else {
            return Ok(None);
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(None);
        };
        match text.split_once('\n') {
            Some((sum, row))
                if sum.strip_prefix(CHECKSUM_PREFIX) == Some(&sha256_hex(row.as_bytes())) =>
            {
                Ok(Some(row.to_string()))
            }
            _ => {
                if std::fs::remove_file(&path).is_ok() {
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                }
                Err(path)
            }
        }
    }

    /// Stores `row` under `key` (atomic: temp file + rename). Overwrites
    /// are idempotent — rows are pure functions of their key.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for malformed keys and propagates
    /// filesystem errors.
    pub fn put(&self, key: &str, row: &str) -> io::Result<()> {
        if self.max_entries == 0 {
            return Ok(());
        }
        let path = self
            .path_for(key)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "malformed cache key"))?;
        std::fs::create_dir_all(path.parent().expect("row path has a shard directory"))?;
        let existed = path.exists();
        let sum = sha256_hex(row.as_bytes());
        write_atomic(&path, format!("{CHECKSUM_PREFIX}{sum}\n{row}"))?;
        if !existed {
            let now = self.entries.fetch_add(1, Ordering::Relaxed) + 1;
            if now > self.max_entries as u64 {
                self.evict();
            }
        }
        Ok(())
    }

    /// Fetches the auxiliary event records stored alongside `key`, if
    /// any. Absence is normal: rows written before events existed, or
    /// points that produced none.
    pub fn get_events(&self, key: &str) -> Option<Vec<String>> {
        if self.max_entries == 0 {
            return None;
        }
        let text = std::fs::read_to_string(self.events_path_for(key)?).ok()?;
        Some(text.lines().map(str::to_string).collect())
    }

    /// Stores `events` as the NDJSON sidecar of `key` (atomic, like
    /// [`RowCache::put`]). An empty slice is a no-op — absence and
    /// emptiness are indistinguishable by design.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for malformed keys and propagates
    /// filesystem errors.
    pub fn put_events(&self, key: &str, events: &[String]) -> io::Result<()> {
        if self.max_entries == 0 || events.is_empty() {
            return Ok(());
        }
        let path = self
            .events_path_for(key)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "malformed cache key"))?;
        std::fs::create_dir_all(path.parent().expect("events path has a shard directory"))?;
        let mut text = String::new();
        for e in events {
            text.push_str(e);
            text.push('\n');
        }
        write_atomic(&path, text)
    }

    /// Removes oldest-modified rows until the count is back under the
    /// cap. Failures are ignored — eviction is best-effort; a row that
    /// survives costs nothing but disk.
    fn evict(&self) {
        let Ok(_guard) = self.evict_lock.lock() else {
            return;
        };
        if self.entries.load(Ordering::Relaxed) <= self.max_entries as u64 {
            return;
        }
        let mut rows: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        let Ok(shards) = std::fs::read_dir(self.root.join(ROWS_DIR)) else {
            return;
        };
        for shard in shards.flatten() {
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for f in files.flatten() {
                if let Ok(meta) = f.metadata() {
                    let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                    rows.push((mtime, f.path()));
                }
            }
        }
        self.entries.store(rows.len() as u64, Ordering::Relaxed);
        if rows.len() <= self.max_entries {
            return;
        }
        rows.sort();
        let excess = rows.len() - self.max_entries;
        for (_, path) in rows.into_iter().take(excess) {
            if std::fs::remove_file(&path).is_ok() {
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(key) = path.file_stem().and_then(|s| s.to_str()) {
                    if let Some(events) = self.events_path_for(key) {
                        let _ = std::fs::remove_file(events);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("silo-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> String {
        silo_types::sha::sha256_hex(&n.to_le_bytes())
    }

    #[test]
    fn put_then_get_roundtrips_and_persists_across_opens() {
        let dir = temp_dir("roundtrip");
        let cache = RowCache::open(&dir, 100).expect("open");
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1)), None);
        cache.put(&key(1), "{\"row\":1}").expect("put");
        assert_eq!(cache.get(&key(1)).as_deref(), Some("{\"row\":1}"));
        assert_eq!(cache.len(), 1);
        drop(cache);
        // A fresh daemon over the same directory sees the row.
        let cache = RowCache::open(&dir, 100).expect("reopen");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1)).as_deref(), Some("{\"row\":1}"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn malformed_keys_are_rejected_not_written() {
        let dir = temp_dir("badkey");
        let cache = RowCache::open(&dir, 10).expect("open");
        for bad in [
            "",
            "short",
            "../../../etc/passwd",
            "ABCDEF0123456789",
            &"g".repeat(64),
        ] {
            assert!(cache.get(bad).is_none(), "{bad}");
            assert!(cache.put(bad, "x").is_err(), "{bad}");
        }
        assert!(cache.is_empty());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn overwrites_do_not_double_count() {
        let dir = temp_dir("overwrite");
        let cache = RowCache::open(&dir, 10).expect("open");
        cache.put(&key(7), "a").expect("put");
        cache.put(&key(7), "a").expect("put again");
        assert_eq!(cache.len(), 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn eviction_keeps_the_newest_rows() {
        let dir = temp_dir("evict");
        let cache = RowCache::open(&dir, 3).expect("open");
        for n in 0..5u64 {
            cache.put(&key(n), &format!("row{n}")).expect("put");
            // mtime granularity on some filesystems is coarse; space the
            // writes so oldest-first ordering is unambiguous.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(cache.len() <= 3, "cap enforced, len {}", cache.len());
        // The newest row always survives.
        assert_eq!(cache.get(&key(4)).as_deref(), Some("row4"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn event_sidecars_roundtrip_and_track_row_eviction() {
        let dir = temp_dir("events");
        let cache = RowCache::open(&dir, 2).expect("open");
        assert_eq!(cache.get_events(&key(1)), None);
        cache.put(&key(1), "row1").expect("put");
        cache
            .put_events(&key(1), &["{\"type\":\"epoch\",\"n\":0}".to_string()])
            .expect("put events");
        assert_eq!(
            cache.get_events(&key(1)),
            Some(vec!["{\"type\":\"epoch\",\"n\":0}".to_string()])
        );
        // Empty event lists are a no-op, indistinguishable from absence.
        cache.put_events(&key(2), &[]).expect("empty put");
        assert_eq!(cache.get_events(&key(2)), None);
        // Sidecars don't count against the row cap.
        assert_eq!(cache.len(), 1);
        // Evicting the row takes the sidecar with it.
        for n in 10..13u64 {
            cache.put(&key(n), "filler").expect("put");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(cache.get(&key(1)), None, "row evicted");
        assert_eq!(cache.get_events(&key(1)), None, "sidecar evicted");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_or_unchecked_rows_are_deleted_and_read_as_misses() {
        let dir = temp_dir("corrupt");
        let cache = RowCache::open(&dir, 10).expect("open");
        let path = cache.path_for(&key(1)).expect("valid key");
        for torn in [
            "{\"workload\":".to_string(),
            format!(
                "{CHECKSUM_PREFIX}{}\n{{\"row\":2}}",
                sha256_hex(b"{\"row\":1}")
            ),
        ] {
            cache.put(&key(1), "{\"row\":1}").expect("put");
            assert_eq!(cache.len(), 1);
            std::fs::write(&path, torn).expect("tear the row");
            assert_eq!(cache.probe(&key(1)), Err(path.clone()));
            assert!(!path.exists(), "the corrupt file is deleted");
            assert_eq!(cache.len(), 0);
            assert_eq!(cache.get(&key(1)), None, "and stays a miss");
        }
        // A rewrite after the miss is served again.
        cache.put(&key(1), "{\"row\":1}").expect("rewrite");
        assert_eq!(cache.get(&key(1)).as_deref(), Some("{\"row\":1}"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn zero_cap_disables_the_cache() {
        let dir = temp_dir("disabled");
        let cache = RowCache::open(&dir, 0).expect("open");
        cache.put(&key(1), "row").expect("put is a no-op");
        assert_eq!(cache.get(&key(1)), None);
        assert!(cache.is_empty());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
