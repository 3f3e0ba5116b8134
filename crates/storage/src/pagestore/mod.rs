//! # pagestore — crash-safe disk persistence
//!
//! A fixed-size page file fronted by a write-ahead log, plus a B+tree keyed
//! on `(table-id, row-id)` that materializes generated databases to disk and
//! loads them back **byte-identically** (float cells round-trip through
//! their IEEE bit patterns, so `-0.0` and NaN payloads survive). The
//! in-memory [`crate::Database`] row store becomes a cache over this layer:
//! [`load_database`] rebuilds it from the on-disk tree and the executor
//! never knows the difference.
//!
//! ## Commit protocol
//!
//! All mutations are staged as full-page images and made durable in one
//! commit:
//!
//! 1. append one WAL frame per dirty page (FNV-1a checksum per frame),
//! 2. fsync the WAL,
//! 3. append a commit frame naming the batch size and sequence number,
//! 4. fsync the WAL — **the commit is durable here**,
//! 5. checkpoint the staged pages into the page file and fsync it,
//! 6. truncate the WAL back to its header.
//!
//! ## Recovery
//!
//! On open, the WAL is replayed before the meta page is trusted: every
//! fully-checksummed batch that ends in a valid commit frame is re-applied
//! to the page file (full-page images make replay idempotent), and the
//! first torn or corrupt frame ends the scan — everything from there on is
//! an un-committed tail and is discarded. A batch is therefore applied
//! entirely or not at all; a partially applied commit is unrepresentable.
//!
//! ## Crash-point injector
//!
//! A [`CrashPoint`] parsed from `"<site>@<n>"` and handed to
//! [`persist_database`] aborts the process at the n-th (1-based) hit of the
//! named site, after deliberately writing a *partial* record where the site
//! is mid-write. Sites: `mid-frame`, `before-commit`, `mid-commit`,
//! `after-commit`, `mid-checkpoint`. The check.sh kill-and-recover gate
//! drives this through `persist --crash-at` to prove recovery determinism
//! end-to-end.

mod btree;
mod pager;
mod store;
mod wal;

pub use pager::{PageStore, RecoveryInfo, PAGE_SIZE};
pub use store::{load_database, persist_database, recover_store, StoreInfo};

use std::cell::Cell;

/// Errors from the persistence layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Structural damage: bad magic, checksum mismatch, truncated page, …
    Corrupt(String),
    /// The store exists but was never marked complete (interrupted persist).
    Incomplete(String),
    /// A value or schema the on-disk format cannot represent.
    Unsupported(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Incomplete(m) => write!(f, "incomplete store: {m}"),
            StoreError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias for pagestore results.
pub type StoreResult<T> = Result<T, StoreError>;

/// FNV-1a 64-bit over a byte slice — the one checksum used by every on-disk
/// structure in this repo (WAL frames, page-file meta, embedding snapshots).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Crash sites, in commit-protocol order.
const CRASH_SITES: [&str; 5] = [
    "mid-frame",
    "before-commit",
    "mid-commit",
    "after-commit",
    "mid-checkpoint",
];

/// A deterministic crash injector armed for the n-th (1-based) hit of one
/// site. It counts its own hits, so one value handed to several
/// [`persist_database`] calls targets the n-th hit across all of them.
#[derive(Debug)]
pub struct CrashPoint {
    site: &'static str,
    n: u64,
    hits: Cell<u64>,
}

impl CrashPoint {
    /// Count one hit of `site`; `true` exactly on the armed hit, where the
    /// caller performs its deliberate partial write, syncs, and aborts.
    pub(crate) fn hit(&self, site: &str) -> bool {
        if site != self.site {
            return false;
        }
        self.hits.set(self.hits.get() + 1);
        self.hits.get() == self.n
    }
}

impl std::str::FromStr for CrashPoint {
    type Err = String;

    /// Parse `"<site>@<n>"`: one of the crash sites and a hit count >= 1.
    fn from_str(spec: &str) -> Result<CrashPoint, String> {
        let parsed = spec.rsplit_once('@').and_then(|(site, n)| {
            Some(CrashPoint {
                site: CRASH_SITES.into_iter().find(|s| *s == site)?,
                n: n.parse().ok().filter(|&n| n >= 1)?,
                hits: Cell::new(0),
            })
        });
        parsed.ok_or_else(|| {
            let sites = CRASH_SITES.join(", ");
            format!("expected <site>@<n> with n >= 1 and site one of {sites}; got {spec:?}")
        })
    }
}

/// Abort the process without unwinding — simulates a SIGKILL at exactly the
/// durability boundary the armed crash site describes.
pub(crate) fn crash_now() -> ! {
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values for FNV-1a 64-bit.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn crash_point_parses_known_sites_only() {
        for site in CRASH_SITES {
            assert!(format!("{site}@1").parse::<CrashPoint>().is_ok(), "{site}");
        }
        for bad in ["mid-air@1", "mid-commit", "mid-commit@0", "mid-commit@x"] {
            assert!(bad.parse::<CrashPoint>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn crash_point_fires_once_on_the_nth_hit_of_its_site() {
        let c: CrashPoint = "mid-commit@2".parse().unwrap();
        assert!(!c.hit("mid-commit"));
        assert!(!c.hit("mid-frame"), "another site neither fires nor counts");
        assert!(c.hit("mid-commit"));
        assert!(!c.hit("mid-commit"), "fires once");
    }
}
