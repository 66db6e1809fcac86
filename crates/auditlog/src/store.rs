//! Storage backends for segments and the manifest log.
//!
//! The chain/segment logic is written against the small [`Store`] trait so
//! the same pipeline runs on a real directory ([`DiskStore`]) or entirely
//! in memory ([`MemStore`] — used by the campaign explorer's invariant
//! probes and fast tests, where filesystem I/O would dominate).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// A flat namespace of append-only blobs. Only the drainer and the admin
/// (query/verify) paths touch a store; the check path never does. The
/// drainer appends and syncs (recovery also truncates and removes) while
/// the admin paths read, so a read must see every byte of each append
/// that returned before the read began.
pub trait Store: Send + Sync {
    /// Lists blob names (unordered).
    fn list(&self) -> io::Result<Vec<String>>;

    /// Reads a whole blob.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Appends bytes to a blob, creating it if absent.
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Durably flushes a blob's appended bytes, and the directory entry of
    /// every blob created since the last sync.
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Truncates a blob to `len` bytes (used by torn-tail recovery).
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Current size of a blob in bytes.
    fn size(&self, name: &str) -> io::Result<u64>;

    /// Removes a blob (used by recovery to discard unrecoverable empty
    /// tails). Removing a missing blob is an error.
    fn remove(&self, name: &str) -> io::Result<()>;
}

/// A directory-backed store. One file per blob; the last appended blob's
/// handle is cached so sustained appends do not reopen per batch. Reads
/// open their own handle and never wait for an append.
pub struct DiskStore {
    dir: PathBuf,
    append: Mutex<Appender>,
}

#[derive(Default)]
struct Appender {
    cached: Option<(String, File)>,
    /// A blob was created since the directory was last fsync'd.
    dir_dirty: bool,
}

impl Appender {
    fn file(&mut self, dir: &Path, name: &str) -> io::Result<&mut File> {
        if self
            .cached
            .as_ref()
            .is_none_or(|(cached, _)| cached != name)
        {
            let path = dir.join(name);
            self.dir_dirty |= !path.exists();
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            self.cached = Some((name.to_owned(), file));
        }
        Ok(&mut self.cached.as_mut().expect("cached handle").1)
    }

    /// Drops the cached handle if it is `name`'s.
    fn forget(&mut self, name: &str) {
        if matches!(&self.cached, Some((cached, _)) if cached == name) {
            self.cached = None;
        }
    }
}

impl DiskStore {
    /// Opens (creating if needed) the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DiskStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskStore {
            dir,
            append: Mutex::default(),
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Store for DiskStore {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            if dirent.file_type()?.is_file() {
                if let Ok(name) = dirent.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(self.path(name))?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.append.lock().file(&self.dir, name)?.write_all(bytes)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let mut append = self.append.lock();
        append.file(&self.dir, name)?.sync_all()?;
        if append.dir_dirty {
            // Make the new files' directory entries durable, not just
            // their contents.
            File::open(&self.dir)?.sync_all()?;
            append.dir_dirty = false;
        }
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.append.lock().forget(name);
        let file = OpenOptions::new().write(true).open(self.path(name))?;
        file.set_len(len)?;
        file.sync_all()
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.path(name))?.len())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.append.lock().forget(name);
        std::fs::remove_file(self.path(name))
    }
}

/// An in-memory store: a map of named byte vectors behind one lock, held
/// only for the copy in or out. `sync` is trivially satisfied.
#[derive(Default)]
pub struct MemStore {
    blobs: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

fn no_blob(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no blob {name}"))
}

impl Store for MemStore {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.blobs.lock().keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.blobs
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| no_blob(name))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.blobs
            .lock()
            .entry(name.to_owned())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut blobs = self.blobs.lock();
        let blob = blobs.get_mut(name).ok_or_else(|| no_blob(name))?;
        blob.truncate(len as usize);
        Ok(())
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.blobs
            .lock()
            .get(name)
            .map(|b| b.len() as u64)
            .ok_or_else(|| no_blob(name))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.blobs
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| no_blob(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn Store) {
        store.append("a", b"hello ").unwrap();
        store.append("a", b"world").unwrap();
        store.sync("a").unwrap();
        assert_eq!(store.read("a").unwrap(), b"hello world");
        assert_eq!(store.size("a").unwrap(), 11);
        store.truncate("a", 5).unwrap();
        assert_eq!(store.read("a").unwrap(), b"hello");
        store.append("m", b"line\n").unwrap();
        store.sync("m").unwrap();
        store.append("a", b"!").unwrap();
        assert_eq!(store.read("a").unwrap(), b"hello!");
        let mut names = store.list().unwrap();
        names.sort();
        assert_eq!(names, ["a", "m"]);
        assert!(store.read("missing").is_err());
        store.append("gone", b"x").unwrap();
        store.remove("gone").unwrap();
        assert!(store.read("gone").is_err());
        assert!(store.remove("gone").is_err());

        // A read while another thread appends sees a prefix of what the
        // appends build, never bytes out of place.
        let expect: Vec<u8> = (0..2_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for chunk in expect.chunks(4) {
                    store.append("grow", chunk).unwrap();
                }
            });
            let mut seen = 0;
            while seen < expect.len() {
                let bytes = store.read("grow").unwrap_or_default();
                assert!(bytes.len() >= seen, "a read went backwards");
                assert_eq!(bytes, expect[..bytes.len()]);
                seen = bytes.len();
            }
        });
    }

    #[test]
    fn mem_store_contract() {
        exercise(&MemStore::new());
    }

    #[test]
    fn disk_store_contract() {
        let dir = std::env::temp_dir().join(format!(
            "extsec-audit-store-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        exercise(&DiskStore::open(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
