//! Page file + commit/recovery engine.
//!
//! All pages are `PAGE_SIZE` bytes. Page 0 is the meta page (magic,
//! version, page count, B+tree root, schema location, commit sequence,
//! completeness flag, trailing FNV checksum); everything else belongs to
//! the B+tree or the schema blob. Mutations stage full-page images in a
//! dirty map; [`PageStore::commit`] runs the WAL protocol described in the
//! [module docs](super).

use super::wal::Wal;
use super::{crash_now, fnv1a64, CrashPoint, StoreError, StoreResult};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Size of every page, including the meta page.
pub const PAGE_SIZE: usize = 4096;

const PAGE_MAGIC: &[u8; 8] = b"DAILPG01";
const VERSION: u32 = 1;

/// What recovery found in the WAL when the store was opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryInfo {
    /// Committed batches replayed into the page file.
    pub replayed_commits: u64,
    /// A torn or uncommitted WAL tail was discarded.
    pub discarded_tail: bool,
}

/// Decoded meta page.
#[derive(Debug, Clone, Copy)]
struct Meta {
    n_pages: u64,
    root: u64,
    schema_page: u64,
    schema_len: u64,
    commit_seq: u64,
    complete: bool,
}

impl Meta {
    fn fresh() -> Meta {
        Meta {
            n_pages: 1,
            root: 0,
            schema_page: 0,
            schema_len: 0,
            commit_seq: 0,
            complete: false,
        }
    }

    fn pack(&self) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        p[..8].copy_from_slice(PAGE_MAGIC);
        p[8..12].copy_from_slice(&VERSION.to_le_bytes());
        p[12..20].copy_from_slice(&self.n_pages.to_le_bytes());
        p[20..28].copy_from_slice(&self.root.to_le_bytes());
        p[28..36].copy_from_slice(&self.schema_page.to_le_bytes());
        p[36..44].copy_from_slice(&self.schema_len.to_le_bytes());
        p[44..52].copy_from_slice(&self.commit_seq.to_le_bytes());
        p[52] = u8::from(self.complete);
        let crc = fnv1a64(&p[..PAGE_SIZE - 8]);
        p[PAGE_SIZE - 8..].copy_from_slice(&crc.to_le_bytes());
        p
    }

    fn unpack(p: &[u8], path: &Path) -> StoreResult<Meta> {
        if p.len() != PAGE_SIZE || &p[..8] != PAGE_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "bad page-file magic in {}",
                path.display()
            )));
        }
        let crc = u64::from_le_bytes(p[PAGE_SIZE - 8..].try_into().expect("8-byte crc"));
        if fnv1a64(&p[..PAGE_SIZE - 8]) != crc {
            return Err(StoreError::Corrupt(format!(
                "meta page checksum mismatch in {}",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(p[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported page-file version {version} in {}",
                path.display()
            )));
        }
        Ok(Meta {
            n_pages: u64::from_le_bytes(p[12..20].try_into().expect("8 bytes")),
            root: u64::from_le_bytes(p[20..28].try_into().expect("8 bytes")),
            schema_page: u64::from_le_bytes(p[28..36].try_into().expect("8 bytes")),
            schema_len: u64::from_le_bytes(p[36..44].try_into().expect("8 bytes")),
            commit_seq: u64::from_le_bytes(p[44..52].try_into().expect("8 bytes")),
            complete: p[52] != 0,
        })
    }
}

/// An open page store: page file + WAL + staged dirty pages.
pub struct PageStore {
    file: File,
    wal: Wal,
    path: PathBuf,
    meta: Meta,
    dirty: BTreeMap<u64, Vec<u8>>,
}

fn wal_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

impl PageStore {
    /// Create a fresh store, truncating any existing files at `path`.
    pub fn create(path: &Path) -> StoreResult<PageStore> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // A stale WAL from a previous incarnation must not replay into the
        // fresh file.
        let wp = wal_path(path);
        if wp.exists() {
            std::fs::remove_file(&wp)?;
        }
        let wal = Wal::open(&wp)?;
        let meta = Meta::fresh();
        let mut ps = PageStore {
            file,
            wal,
            path: path.to_path_buf(),
            meta,
            dirty: BTreeMap::new(),
        };
        ps.dirty.insert(0, meta.pack());
        Ok(ps)
    }

    /// Open an existing store, replaying the WAL first so the meta page is
    /// only read after recovery has made the file self-consistent.
    pub fn open(path: &Path) -> StoreResult<(PageStore, RecoveryInfo)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut wal = Wal::open(&wal_path(path))?;
        let replay = wal.replay()?;
        let info = RecoveryInfo {
            replayed_commits: replay.batches.len() as u64,
            discarded_tail: replay.discarded_tail,
        };
        for batch in &replay.batches {
            for (page_no, image) in &batch.pages {
                file.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))?;
                file.write_all(image)?;
            }
        }
        if !replay.batches.is_empty() {
            file.sync_all()?;
        }
        // The tail (if any) is gone for good once the log is reset; the
        // committed prefix is already durable in the page file.
        wal.reset()?;
        // A durable commit always leaves a meta page after replay (either
        // the checkpoint wrote it or the replay just did), so a file too
        // short to hold one means no commit ever became durable — an
        // interrupted persist, not damage.
        let mut meta_page = vec![0u8; PAGE_SIZE];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut meta_page).map_err(|_| {
            StoreError::Incomplete(format!(
                "page file {} has no meta page (no commit ever became durable)",
                path.display()
            ))
        })?;
        let meta = Meta::unpack(&meta_page, path)?;
        Ok((
            PageStore {
                file,
                wal,
                path: path.to_path_buf(),
                meta,
                dirty: BTreeMap::new(),
            },
            info,
        ))
    }

    /// Path of the page file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total pages (meta page included).
    pub fn n_pages(&self) -> u64 {
        self.meta.n_pages
    }

    /// Commit sequence number of the last durable commit.
    pub fn commit_seq(&self) -> u64 {
        self.meta.commit_seq
    }

    /// B+tree root page (0 = empty tree).
    pub fn root(&self) -> u64 {
        self.meta.root
    }

    /// Set the B+tree root page (staged; durable at the next commit).
    pub fn set_root(&mut self, root: u64) {
        self.meta.root = root;
    }

    /// Schema blob location as (first page, byte length).
    pub fn schema_loc(&self) -> (u64, u64) {
        (self.meta.schema_page, self.meta.schema_len)
    }

    /// Set the schema blob location (staged).
    pub fn set_schema_loc(&mut self, page: u64, len: u64) {
        self.meta.schema_page = page;
        self.meta.schema_len = len;
    }

    /// Whether the store was marked complete by a finished persist.
    pub fn complete(&self) -> bool {
        self.meta.complete
    }

    /// Mark the store complete (staged).
    pub fn set_complete(&mut self, complete: bool) {
        self.meta.complete = complete;
    }

    /// Allocate a fresh zeroed page and return its number.
    pub fn allocate(&mut self) -> u64 {
        let no = self.meta.n_pages;
        self.meta.n_pages += 1;
        self.dirty.insert(no, vec![0u8; PAGE_SIZE]);
        no
    }

    /// Read a page, preferring the staged (uncommitted) image.
    pub fn read_page(&mut self, no: u64) -> StoreResult<Vec<u8>> {
        if let Some(p) = self.dirty.get(&no) {
            return Ok(p.clone());
        }
        if no >= self.meta.n_pages {
            return Err(StoreError::Corrupt(format!(
                "page {no} out of range (file has {})",
                self.meta.n_pages
            )));
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file.seek(SeekFrom::Start(no * PAGE_SIZE as u64))?;
        self.file.read_exact(&mut buf).map_err(|_| {
            StoreError::Corrupt(format!("page {no} truncated in {}", self.path.display()))
        })?;
        Ok(buf)
    }

    /// Stage a full-page image (durable at the next commit).
    pub fn write_page(&mut self, no: u64, image: Vec<u8>) -> StoreResult<()> {
        if image.len() != PAGE_SIZE {
            return Err(StoreError::Unsupported(format!(
                "page image must be {PAGE_SIZE} bytes, got {}",
                image.len()
            )));
        }
        if no >= self.meta.n_pages {
            return Err(StoreError::Corrupt(format!(
                "write to unallocated page {no}"
            )));
        }
        self.dirty.insert(no, image);
        Ok(())
    }

    /// Make every staged page durable: WAL-append, fsync, commit frame,
    /// fsync, checkpoint into the page file, fsync, truncate the WAL. The
    /// meta page (with a bumped commit sequence) rides in every batch.
    /// An armed `crash` aborts the process at its site instead.
    pub fn commit(&mut self, crash: Option<&CrashPoint>) -> StoreResult<()> {
        self.meta.commit_seq += 1;
        self.dirty.insert(0, self.meta.pack());
        let n_frames = u32::try_from(self.dirty.len())
            .map_err(|_| StoreError::Unsupported("commit batch exceeds u32 frames".into()))?;
        for (no, image) in &self.dirty {
            let torn = crash.is_some_and(|c| c.hit("mid-frame"));
            self.wal.append_page(*no, image, torn)?;
        }
        if crash.is_some_and(|c| c.hit("before-commit")) {
            self.wal.sync().ok();
            crash_now();
        }
        self.wal.sync()?;
        let torn = crash.is_some_and(|c| c.hit("mid-commit"));
        self.wal
            .append_commit(self.meta.commit_seq, n_frames, torn)?;
        self.wal.sync()?; // the commit is durable from here on
        if crash.is_some_and(|c| c.hit("after-commit")) {
            crash_now();
        }
        let halfway = self.dirty.len() / 2;
        let crash_mid_checkpoint = crash.is_some_and(|c| c.hit("mid-checkpoint"));
        for (i, (no, image)) in self.dirty.iter().enumerate() {
            if crash_mid_checkpoint && i == halfway {
                self.file.sync_all().ok();
                crash_now();
            }
            self.file.seek(SeekFrom::Start(no * PAGE_SIZE as u64))?;
            self.file.write_all(image)?;
        }
        self.file.sync_all()?;
        self.wal.reset()?;
        self.dirty.clear();
        Ok(())
    }
}
