//! B+tree over fixed-size pages, keyed on `(table-id, row-id)`.
//!
//! Node layouts (all integers little-endian):
//!
//! ```text
//! leaf:     [1u8] [n: u16] [next-leaf: u64] ([table: u32] [row: u64] [len: u16] [len bytes])*
//! internal: [2u8] [n: u16] [child0: u64]    ([table: u32] [row: u64] [child: u64])*
//! ```
//!
//! Keys are fixed twelve bytes; values are serialized rows (length-capped so
//! one entry always fits a page). Leaves chain left-to-right, so a full
//! scan is: descend leftmost, walk `next` pointers — which also yields rows
//! in `(table, row-id)` order, i.e. exactly insertion order per table.

use super::pager::{PageStore, PAGE_SIZE};
use super::{StoreError, StoreResult};

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;
const LEAF_HDR: usize = 1 + 2 + 8;
const INT_HDR: usize = 1 + 2 + 8;
const INT_ENTRY: usize = 4 + 8 + 8;

/// Largest serialized row the tree will store. Leaves a comfortable margin
/// below the one-entry-per-page ceiling.
pub(crate) const MAX_VALUE: usize = 3900;

/// A composite key: table ordinal within the schema, then row ordinal
/// within the table (insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    /// Table ordinal in `DbSchema::tables`.
    pub table: u32,
    /// Row ordinal (insertion index).
    pub row: u64,
}

fn corrupt(msg: &str) -> StoreError {
    StoreError::Corrupt(msg.to_string())
}

/// Decoded leaf entries: `(key, serialized row)` in key order.
type LeafEntries = Vec<(Key, Vec<u8>)>;

fn decode_leaf(page: &[u8]) -> StoreResult<(LeafEntries, u64)> {
    let n = u16::from_le_bytes(page[1..3].try_into().expect("2 bytes")) as usize;
    let next = u64::from_le_bytes(page[3..11].try_into().expect("8 bytes"));
    let mut entries = Vec::with_capacity(n);
    let mut pos = LEAF_HDR;
    for _ in 0..n {
        if pos + 14 > PAGE_SIZE {
            return Err(corrupt("leaf entry header past page end"));
        }
        let table = u32::from_le_bytes(page[pos..pos + 4].try_into().expect("4 bytes"));
        let row = u64::from_le_bytes(page[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let len =
            u16::from_le_bytes(page[pos + 12..pos + 14].try_into().expect("2 bytes")) as usize;
        pos += 14;
        if pos + len > PAGE_SIZE {
            return Err(corrupt("leaf entry payload past page end"));
        }
        entries.push((Key { table, row }, page[pos..pos + len].to_vec()));
        pos += len;
    }
    Ok((entries, next))
}

/// `None` when the entries do not fit one page.
fn encode_leaf(entries: &[(Key, Vec<u8>)], next: u64) -> Option<Vec<u8>> {
    let need: usize = LEAF_HDR + entries.iter().map(|(_, v)| 14 + v.len()).sum::<usize>();
    if need > PAGE_SIZE || entries.len() > u16::MAX as usize {
        return None;
    }
    let mut page = vec![0u8; PAGE_SIZE];
    page[0] = TAG_LEAF;
    page[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    page[3..11].copy_from_slice(&next.to_le_bytes());
    let mut pos = LEAF_HDR;
    for (k, v) in entries {
        page[pos..pos + 4].copy_from_slice(&k.table.to_le_bytes());
        page[pos + 4..pos + 12].copy_from_slice(&k.row.to_le_bytes());
        page[pos + 12..pos + 14].copy_from_slice(&(v.len() as u16).to_le_bytes());
        pos += 14;
        page[pos..pos + v.len()].copy_from_slice(v);
        pos += v.len();
    }
    Some(page)
}

fn decode_internal(page: &[u8]) -> StoreResult<(u64, Vec<(Key, u64)>)> {
    let n = u16::from_le_bytes(page[1..3].try_into().expect("2 bytes")) as usize;
    let child0 = u64::from_le_bytes(page[3..11].try_into().expect("8 bytes"));
    if INT_HDR + n * INT_ENTRY > PAGE_SIZE {
        return Err(corrupt("internal node entry count past page end"));
    }
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let pos = INT_HDR + i * INT_ENTRY;
        let table = u32::from_le_bytes(page[pos..pos + 4].try_into().expect("4 bytes"));
        let row = u64::from_le_bytes(page[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let child = u64::from_le_bytes(page[pos + 12..pos + 20].try_into().expect("8 bytes"));
        entries.push((Key { table, row }, child));
    }
    Ok((child0, entries))
}

fn encode_internal(child0: u64, entries: &[(Key, u64)]) -> Option<Vec<u8>> {
    if INT_HDR + entries.len() * INT_ENTRY > PAGE_SIZE {
        return None;
    }
    let mut page = vec![0u8; PAGE_SIZE];
    page[0] = TAG_INTERNAL;
    page[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    page[3..11].copy_from_slice(&child0.to_le_bytes());
    for (i, (k, child)) in entries.iter().enumerate() {
        let pos = INT_HDR + i * INT_ENTRY;
        page[pos..pos + 4].copy_from_slice(&k.table.to_le_bytes());
        page[pos + 4..pos + 12].copy_from_slice(&k.row.to_le_bytes());
        page[pos + 12..pos + 20].copy_from_slice(&child.to_le_bytes());
    }
    Some(page)
}

/// Insert (or replace) `key → value`, splitting nodes upward as needed.
pub(crate) fn insert(store: &mut PageStore, key: Key, value: &[u8]) -> StoreResult<()> {
    if value.len() > MAX_VALUE {
        return Err(StoreError::Unsupported(format!(
            "serialized row of {} bytes exceeds the {MAX_VALUE}-byte page-store cap",
            value.len()
        )));
    }
    let root = store.root();
    if root == 0 {
        let leaf = store.allocate();
        let page = encode_leaf(&[(key, value.to_vec())], 0).expect("one capped entry fits");
        store.write_page(leaf, page)?;
        store.set_root(leaf);
        return Ok(());
    }
    if let Some((sep, right)) = insert_rec(store, root, key, value)? {
        let new_root = store.allocate();
        let page = encode_internal(root, &[(sep, right)]).expect("two-child root fits");
        store.write_page(new_root, page)?;
        store.set_root(new_root);
    }
    Ok(())
}

/// Returns `Some((separator, new-right-page))` when the child split.
fn insert_rec(
    store: &mut PageStore,
    page_no: u64,
    key: Key,
    value: &[u8],
) -> StoreResult<Option<(Key, u64)>> {
    let page = store.read_page(page_no)?;
    match page[0] {
        TAG_LEAF => {
            let (mut entries, next) = decode_leaf(&page)?;
            match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => entries[i].1 = value.to_vec(),
                Err(i) => entries.insert(i, (key, value.to_vec())),
            }
            if let Some(encoded) = encode_leaf(&entries, next) {
                store.write_page(page_no, encoded)?;
                return Ok(None);
            }
            let right_entries = entries.split_off(entries.len() / 2);
            let sep = right_entries[0].0;
            let right_page = store.allocate();
            let right = encode_leaf(&right_entries, next).ok_or_else(|| {
                StoreError::Unsupported("leaf half still overflows a page".into())
            })?;
            let left = encode_leaf(&entries, right_page).ok_or_else(|| {
                StoreError::Unsupported("leaf half still overflows a page".into())
            })?;
            store.write_page(right_page, right)?;
            store.write_page(page_no, left)?;
            Ok(Some((sep, right_page)))
        }
        TAG_INTERNAL => {
            let (child0, mut entries) = decode_internal(&page)?;
            let idx = entries.partition_point(|(k, _)| *k <= key);
            let child = if idx == 0 { child0 } else { entries[idx - 1].1 };
            let Some((sep, new_child)) = insert_rec(store, child, key, value)? else {
                return Ok(None);
            };
            let at = entries.partition_point(|(k, _)| *k < sep);
            entries.insert(at, (sep, new_child));
            if let Some(encoded) = encode_internal(child0, &entries) {
                store.write_page(page_no, encoded)?;
                return Ok(None);
            }
            let mid = entries.len() / 2;
            let (up_key, up_child) = entries[mid];
            let right_entries: Vec<(Key, u64)> = entries[mid + 1..].to_vec();
            entries.truncate(mid);
            let right_page = store.allocate();
            let right = encode_internal(up_child, &right_entries).expect("split half fits");
            let left = encode_internal(child0, &entries).expect("split half fits");
            store.write_page(right_page, right)?;
            store.write_page(page_no, left)?;
            Ok(Some((up_key, right_page)))
        }
        tag => Err(corrupt(&format!(
            "unknown node tag {tag} at page {page_no}"
        ))),
    }
}

/// Every entry in key order: descend to the leftmost leaf, then follow the
/// leaf chain.
pub(crate) fn scan_all(store: &mut PageStore) -> StoreResult<Vec<(Key, Vec<u8>)>> {
    let mut out = Vec::new();
    let mut page_no = store.root();
    if page_no == 0 {
        return Ok(out);
    }
    loop {
        let page = store.read_page(page_no)?;
        match page[0] {
            TAG_LEAF => break,
            TAG_INTERNAL => page_no = decode_internal(&page)?.0,
            tag => {
                return Err(corrupt(&format!(
                    "unknown node tag {tag} at page {page_no}"
                )))
            }
        }
    }
    loop {
        let page = store.read_page(page_no)?;
        let (entries, next) = decode_leaf(&page)?;
        out.extend(entries);
        if next == 0 {
            return Ok(out);
        }
        page_no = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("dail_btree_{}_{name}.pages", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let mut wal = p.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(wal));
        p
    }

    #[test]
    fn insert_scan_roundtrip_with_splits() {
        let path = tmp("splits");
        let mut store = PageStore::create(&path).unwrap();
        // Enough entries (with fat values) to force leaf and internal splits,
        // inserted in a shuffled deterministic order.
        let n = 600u64;
        let mut order: Vec<u64> = (0..n).collect();
        // Simple LCG shuffle — deterministic, no external randomness.
        let mut state = 0x9e37_79b9u64;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for &i in &order {
            let key = Key {
                table: (i % 3) as u32,
                row: i,
            };
            let value = vec![(i % 251) as u8; 40 + (i as usize % 100)];
            insert(&mut store, key, &value).unwrap();
        }
        store.commit(None).unwrap();
        drop(store);
        let (mut store, info) = PageStore::open(&path).unwrap();
        assert!(!info.discarded_tail);
        let all = scan_all(&mut store).unwrap();
        assert_eq!(all.len(), n as usize);
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "scan must be strictly key-ordered");
        }
        for (k, v) in &all {
            assert_eq!(v.len(), 40 + (k.row as usize % 100));
            assert!(v.iter().all(|&b| b == (k.row % 251) as u8));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_value_is_rejected() {
        let path = tmp("oversize");
        let mut store = PageStore::create(&path).unwrap();
        let err = insert(
            &mut store,
            Key { table: 0, row: 0 },
            &vec![0u8; MAX_VALUE + 1],
        );
        assert!(matches!(err, Err(StoreError::Unsupported(_))));
        let _ = std::fs::remove_file(&path);
    }
}
