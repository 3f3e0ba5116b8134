//! Torn-write recovery: a commit is applied entirely or not at all.
//!
//! The test pins the documented WAL format (magic `DAILWAL1`, `0xF1` page
//! frames, `0xC2` commit frames, trailing FNV-1a checksums) by crafting a
//! two-page committed batch by hand, then attacking it:
//!
//! * truncate the log at **every** byte offset of the batch, and
//! * flip a bit at every byte offset of the final (commit) frame, plus a
//!   stride of offsets across the page frames,
//!
//! asserting after each attack that recovery yields either the pre-batch
//! state or the post-batch state — never one page from each — or reports
//! corruption. A mixed state would mean a partially applied commit leaked
//! through, which is exactly the bug class the WAL exists to prevent.

use std::fs;
use std::path::{Path, PathBuf};
use storage::pagestore::{fnv1a64, PageStore, PAGE_SIZE};

const WAL_MAGIC: &[u8; 8] = b"DAILWAL1";
const TAG_PAGE: u8 = 0xF1;
const TAG_COMMIT: u8 = 0xC2;

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dail_torn_{}_{name}.pages", std::process::id()));
    let _ = fs::remove_file(&p);
    let _ = fs::remove_file(wal_of(&p));
    p
}

fn wal_of(pages: &Path) -> PathBuf {
    let mut os = pages.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

fn page_frame(page_no: u64, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(1 + 8 + PAGE_SIZE + 8);
    f.push(TAG_PAGE);
    f.extend_from_slice(&page_no.to_le_bytes());
    f.extend_from_slice(payload);
    let crc = fnv1a64(&f);
    f.extend_from_slice(&crc.to_le_bytes());
    f
}

fn commit_frame(seq: u64, n_frames: u32) -> Vec<u8> {
    let mut f = Vec::with_capacity(1 + 8 + 4 + 8);
    f.push(TAG_COMMIT);
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&n_frames.to_le_bytes());
    let crc = fnv1a64(&f);
    f.extend_from_slice(&crc.to_le_bytes());
    f
}

/// Recovered (page1, page2) images, or None when open reported corruption.
fn recover_pages(pages: &Path, wal: &[u8], trial: &Path) -> Option<(Vec<u8>, Vec<u8>)> {
    let _ = fs::remove_file(trial);
    let _ = fs::remove_file(wal_of(trial));
    fs::copy(pages, trial).unwrap();
    fs::write(wal_of(trial), wal).unwrap();
    let out = match PageStore::open(trial) {
        Ok((mut store, _info)) => {
            let p1 = store.read_page(1).unwrap();
            let p2 = store.read_page(2).unwrap();
            Some((p1, p2))
        }
        Err(_) => None,
    };
    let _ = fs::remove_file(trial);
    let _ = fs::remove_file(wal_of(trial));
    out
}

#[test]
fn torn_or_flipped_tail_never_yields_partial_commit() {
    let base = tmp("base");
    let trial = tmp("trial");

    // State A: two pages with known images, committed cleanly.
    let image_a1 = vec![0xA1u8; PAGE_SIZE];
    let image_a2 = vec![0xA2u8; PAGE_SIZE];
    {
        let mut store = PageStore::create(&base).unwrap();
        let p1 = store.allocate();
        let p2 = store.allocate();
        assert_eq!((p1, p2), (1, 2));
        store.write_page(1, image_a1.clone()).unwrap();
        store.write_page(2, image_a2.clone()).unwrap();
        store.commit(None).unwrap();
    }

    // State B: a handcrafted WAL batch updating both pages, as left behind
    // by a crash after the commit fsync but before the checkpoint.
    let image_b1 = vec![0xB1u8; PAGE_SIZE];
    let image_b2 = vec![0xB2u8; PAGE_SIZE];
    let mut wal = WAL_MAGIC.to_vec();
    let batch_start = wal.len();
    wal.extend_from_slice(&page_frame(1, &image_b1));
    wal.extend_from_slice(&page_frame(2, &image_b2));
    let final_frame_start = wal.len();
    wal.extend_from_slice(&commit_frame(2, 2));

    let a = (image_a1.clone(), image_a2.clone());
    let b = (image_b1.clone(), image_b2.clone());

    // Untampered: the batch is committed, recovery must surface state B.
    assert_eq!(recover_pages(&base, &wal, &trial), Some(b.clone()));

    // Truncation at every byte offset of the batch (torn tail): the commit
    // frame is incomplete or missing, so recovery must restore state A.
    for cut in batch_start..wal.len() {
        let got = recover_pages(&base, &wal[..cut], &trial);
        assert_eq!(
            got,
            Some(a.clone()),
            "truncation at byte {cut} must roll back to the pre-batch state"
        );
    }

    // Bit flips at every byte of the final (commit) frame: the checksum
    // must reject the frame, rolling back to A — or report corruption.
    // Never state B with a damaged commit record, and never a mix.
    for off in final_frame_start..wal.len() {
        for bit in [0u8, 7] {
            let mut tampered = wal.clone();
            tampered[off] ^= 1 << bit;
            let got = recover_pages(&base, &tampered, &trial);
            assert!(
                got.is_none() || got == Some(a.clone()),
                "bit {bit} of byte {off} in the commit frame: got a state \
                 that is neither rollback nor corruption"
            );
        }
    }

    // Bit flips striding across the page frames: a damaged page frame fails
    // its checksum, so the whole batch (including the *intact* second page
    // frame) must be discarded — the partial-commit trap this test is for.
    for off in (batch_start..final_frame_start).step_by(97) {
        let mut tampered = wal.clone();
        tampered[off] ^= 0x10;
        let got = recover_pages(&base, &tampered, &trial);
        assert!(
            got.is_none() || got == Some(a.clone()) || got == Some(b.clone()),
            "flip at byte {off} of a page frame produced a mixed state"
        );
        // A flip inside frame 1 can never leave frame 2 applied alone.
        if let Some((p1, p2)) = recover_pages(&base, &tampered, &trial) {
            assert_eq!(
                p1 == image_b1,
                p2 == image_b2,
                "flip at byte {off}: pages from different commits"
            );
        }
    }

    let _ = fs::remove_file(&base);
    let _ = fs::remove_file(wal_of(&base));
}

/// A WAL whose committed batch survives but whose trailing, un-committed
/// batch is discarded: recovery applies exactly the committed prefix.
#[test]
fn committed_prefix_survives_uncommitted_tail() {
    let base = tmp("prefix");
    let trial = tmp("prefix_trial");
    let image_a1 = vec![0x11u8; PAGE_SIZE];
    let image_a2 = vec![0x22u8; PAGE_SIZE];
    {
        let mut store = PageStore::create(&base).unwrap();
        store.allocate();
        store.allocate();
        store.write_page(1, image_a1).unwrap();
        store.write_page(2, image_a2).unwrap();
        store.commit(None).unwrap();
    }
    let committed1 = vec![0x33u8; PAGE_SIZE];
    let uncommitted2 = vec![0x44u8; PAGE_SIZE];
    let mut wal = WAL_MAGIC.to_vec();
    wal.extend_from_slice(&page_frame(1, &committed1));
    wal.extend_from_slice(&commit_frame(2, 1));
    // Second batch: page frame appended, commit frame never made it.
    wal.extend_from_slice(&page_frame(2, &uncommitted2));

    let got = recover_pages(&base, &wal, &trial).expect("recovery succeeds");
    assert_eq!(got.0, committed1, "committed batch must be applied");
    assert_eq!(got.1, vec![0x22u8; PAGE_SIZE], "uncommitted batch must not");

    let _ = fs::remove_file(&base);
    let _ = fs::remove_file(wal_of(&base));
}

/// A page file created but killed before its first commit fsync has no
/// meta page even after replay. That is an interrupted persist — recovery
/// must report it as incomplete (resumable), not as corruption.
#[test]
fn empty_page_file_is_incomplete_not_corrupt() {
    let pages = tmp("never_committed");
    fs::write(&pages, b"").unwrap();
    let _ = fs::remove_file(wal_of(&pages));
    match storage::recover_store(&pages) {
        Err(storage::StoreError::Incomplete(_)) => {}
        other => panic!("expected Incomplete, got {other:?}"),
    }
    let _ = fs::remove_file(&pages);
}
