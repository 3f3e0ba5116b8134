//! Write-ahead log: checksummed page frames and commit records.
//!
//! Layout: an 8-byte magic header, then a stream of frames.
//!
//! ```text
//! page frame:   [0xF1] [page_no: u64 LE] [payload: PAGE_SIZE bytes] [crc: u64 LE]
//! commit frame: [0xC2] [seq: u64 LE] [n_frames: u32 LE] [crc: u64 LE]
//! ```
//!
//! Each `crc` is FNV-1a 64 over everything before it in the frame, so a
//! torn write (partial frame at the tail) or a flipped bit anywhere in a
//! frame is detected. Replay trusts a batch of page frames only once it
//! sees a valid commit frame whose `n_frames` matches the pending batch;
//! the first invalid byte ends the scan and the rest of the file is
//! discarded as an un-committed tail.

use super::{crash_now, fnv1a64, StoreError, StoreResult, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8; 8] = b"DAILWAL1";
const TAG_PAGE: u8 = 0xF1;
const TAG_COMMIT: u8 = 0xC2;

/// One committed batch recovered from the log. (The commit frame's
/// sequence number is on disk for debugging but not needed for replay.)
pub(crate) struct Batch {
    /// Full-page images in append order.
    pub pages: Vec<(u64, Vec<u8>)>,
}

/// Outcome of scanning a WAL file.
pub(crate) struct Replay {
    /// Batches whose commit frame checksummed clean, in log order.
    pub batches: Vec<Batch>,
    /// Bytes past the last valid commit frame were discarded (torn tail or
    /// an in-flight batch that never committed).
    pub discarded_tail: bool,
}

/// An open write-ahead log.
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Open (creating with a fresh header if absent or empty).
    pub fn open(path: &Path) -> StoreResult<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if file.metadata()?.len() < WAL_MAGIC.len() as u64 {
            file.set_len(0)?;
            file.write_all(WAL_MAGIC)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Append a full-page image frame. `torn` (the `mid-frame` crash site)
    /// writes only the first half of the frame before aborting.
    pub fn append_page(&mut self, page_no: u64, payload: &[u8], torn: bool) -> StoreResult<()> {
        debug_assert_eq!(payload.len(), PAGE_SIZE);
        let mut frame = Vec::with_capacity(1 + 8 + PAGE_SIZE + 8);
        frame.push(TAG_PAGE);
        frame.extend_from_slice(&page_no.to_le_bytes());
        frame.extend_from_slice(payload);
        let crc = fnv1a64(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        if torn {
            self.file.write_all(&frame[..frame.len() / 2]).ok();
            self.file.sync_all().ok();
            crash_now();
        }
        self.file.write_all(&frame)?;
        Ok(())
    }

    /// Append a commit frame sealing the `n_frames` page frames appended
    /// since the last commit. `torn` (the `mid-commit` crash site) writes a
    /// truncated commit record before aborting.
    pub fn append_commit(&mut self, seq: u64, n_frames: u32, torn: bool) -> StoreResult<()> {
        let mut frame = Vec::with_capacity(1 + 8 + 4 + 8);
        frame.push(TAG_COMMIT);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&n_frames.to_le_bytes());
        let crc = fnv1a64(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        if torn {
            self.file.write_all(&frame[..frame.len() / 2]).ok();
            self.file.sync_all().ok();
            crash_now();
        }
        self.file.write_all(&frame)?;
        Ok(())
    }

    /// fsync the log.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Drop everything after the header (called once a checkpoint has made
    /// the committed batches durable in the page file).
    pub fn reset(&mut self) -> StoreResult<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Scan the log from the start, returning every cleanly committed batch
    /// and whether a torn/uncommitted tail was discarded.
    pub fn replay(&mut self) -> StoreResult<Replay> {
        let mut buf = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut buf)?;
        self.file.seek(SeekFrom::End(0))?;
        if buf.len() < WAL_MAGIC.len() || &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "bad WAL magic in {}",
                self.path.display()
            )));
        }
        let mut pos = WAL_MAGIC.len();
        let mut batches = Vec::new();
        let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut clean_end = pos;
        while pos < buf.len() {
            match buf[pos] {
                TAG_PAGE => {
                    let frame_len = 1 + 8 + PAGE_SIZE + 8;
                    if pos + frame_len > buf.len() {
                        break; // torn page frame
                    }
                    let body = &buf[pos..pos + 1 + 8 + PAGE_SIZE];
                    let crc = u64::from_le_bytes(
                        buf[pos + 1 + 8 + PAGE_SIZE..pos + frame_len]
                            .try_into()
                            .expect("8-byte crc"),
                    );
                    if fnv1a64(body) != crc {
                        break; // corrupt page frame
                    }
                    let page_no = u64::from_le_bytes(body[1..9].try_into().expect("8-byte no"));
                    pending.push((page_no, body[9..].to_vec()));
                    pos += frame_len;
                }
                TAG_COMMIT => {
                    let frame_len = 1 + 8 + 4 + 8;
                    if pos + frame_len > buf.len() {
                        break; // torn commit frame
                    }
                    let body = &buf[pos..pos + 1 + 8 + 4];
                    let crc = u64::from_le_bytes(
                        buf[pos + 1 + 8 + 4..pos + frame_len]
                            .try_into()
                            .expect("8-byte crc"),
                    );
                    if fnv1a64(body) != crc {
                        break; // corrupt commit frame
                    }
                    let n_frames =
                        u32::from_le_bytes(body[9..13].try_into().expect("4-byte count"));
                    if pending.len() != n_frames as usize {
                        break; // commit frame does not seal the pending batch
                    }
                    batches.push(Batch {
                        pages: std::mem::take(&mut pending),
                    });
                    pos += frame_len;
                    clean_end = pos;
                }
                _ => break, // unknown tag: treat as torn tail
            }
        }
        let discarded_tail = clean_end != buf.len() || !pending.is_empty();
        Ok(Replay {
            batches,
            discarded_tail,
        })
    }
}
