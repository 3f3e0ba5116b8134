//! Binary on-disk snapshots of sparse embedding matrices — millisecond
//! warm starts instead of re-embedding the pool through textkit.
//!
//! ## Format (all integers little-endian)
//!
//! ```text
//! header (64 bytes):
//!   [magic "DAILEMB1": 8] [version 3: u32] [dim: u32] [total_rows: u64]
//!   [n_mats: u32] [reserved 0: u32] [aux_len: u64] [meta_crc: u64]
//!   [data_crc: u64] [pad 0: 8]
//! body:
//!   matrix table            (n_mats × 24 bytes:
//!                              [rows: u64] [encoding: u8] [pad 0: 7]
//!                              [block_len: u64])
//!   per-matrix norms blocks (rows_i × f32 each, matrix order)
//!   per-matrix data blocks  (block_len_i bytes each, matrix order)
//!   aux blob                (aux_len bytes, opaque to this crate)
//! ```
//!
//! The file ends with the aux blob. The reader knows one version, 3;
//! versions 1 and 2 kept the header outside the checksum, and the reader
//! rejects them as unsupported.
//!
//! A data block is either **dense** (encoding 0: `rows × dim × f32`,
//! row-major) or **sparse** (encoding 1: per row `[nnz: u16]` then `nnz ×
//! ([lane: u16] [bits: f32])`, lanes strictly ascending). The writer picks
//! whichever is smaller per matrix. Text-hash embeddings put a few dozen
//! n-grams into 512 lanes, so sparse typically shrinks the file — and the
//! warm-start read behind it — by an order of magnitude. In memory every
//! matrix is a [`SparseMatrix`]: the writer encodes from its stored
//! entries, the loader decodes a sparse block straight into one, and a
//! dense block is sparsified row by row on the way in.
//!
//! Floats are stored as raw IEEE bits, so a loaded matrix is
//! **bit-identical** to the one saved — cosine scores, tie-breaks, and
//! therefore every selection downstream reproduce exactly. Sparseness is
//! decided on bit patterns too (`to_bits() != 0`): a `-0.0` lane is stored
//! explicitly, never folded into the implicit `+0.0` background. Norms are
//! trusted as stored, not recomputed.
//!
//! Two checksums with different jobs. `meta_crc` covers every byte that
//! says how to read the rest: the whole header (its own field read as
//! zero), the matrix table, the norms and the aux blob. It is cheap and
//! verified on every load. `data_crc` covers the data blocks word-wise and
//! is verified only when the caller asks ([`load_snapshot`] with
//! `verify_data`), so integrity checking is available without taxing the
//! warm-start path it exists to keep fast. Sizes read from the file are
//! combined with checked arithmetic and bounded by the file length before
//! anything is allocated from them, so a damaged file is an error, never a
//! panic or an oversized allocation.

use crate::sparse::SparseMatrix;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"DAILEMB1";
const VERSION: u32 = 3;
const HEADER_LEN: usize = 64;
const META_CRC_AT: usize = 40;
const MAT_ENTRY_LEN: usize = 24;
const ENC_DENSE: u8 = 0;
const ENC_SPARSE: u8 = 1;

/// Errors from snapshot save/load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Bad magic, checksum mismatch, or inconsistent sizes.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io: {e}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// A loaded snapshot: the matrices plus the caller's opaque sidecar blob.
#[derive(Debug)]
pub struct Snapshot {
    /// Matrices in the order they were saved, bit-identical to the saved
    /// ones.
    pub matrices: Vec<SparseMatrix>,
    /// Opaque auxiliary payload (promptkit stores its pool catalog here).
    pub aux: Vec<u8>,
}

/// FNV-1a 64 processed a u64 word at a time — one xor/multiply per eight
/// bytes instead of per byte, so checksumming a multi-megabyte block
/// doesn't dominate the warm start it protects.
fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for w in chunks.by_ref() {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    out.reserve(xs.len() * 4);
    for x in xs {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// Encode one matrix's data block, choosing the smaller of the dense and
/// sparse encodings. Sparse needs `u16` lane indices, so matrices wider
/// than `u16::MAX` lanes are always dense.
fn encode_data(m: &SparseMatrix) -> (u8, Vec<u8>) {
    let dim = m.dim();
    let dense_len = m.len() * dim * 4;
    let sparse_len = m.len() * 2 + m.nnz() * 6;
    if dim <= u16::MAX as usize && sparse_len < dense_len {
        let mut out = Vec::with_capacity(sparse_len);
        for i in 0..m.len() {
            let (lanes, values) = m.row(i);
            out.extend_from_slice(&(lanes.len() as u16).to_le_bytes());
            for (&lane, x) in lanes.iter().zip(values) {
                out.extend_from_slice(&lane.to_le_bytes());
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        return (ENC_SPARSE, out);
    }
    let mut out = Vec::with_capacity(dense_len);
    let mut row = vec![0f32; dim];
    for i in 0..m.len() {
        m.densify_into(i, &mut row);
        push_f32s(&mut out, &row);
    }
    (ENC_DENSE, out)
}

fn decode_f32s_into(dst: &mut [f32], src: &[u8]) {
    for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *d = f32::from_bits(u32::from_le_bytes(c.try_into().expect("4-byte chunk")));
    }
}

/// Decode a dense block of `norms.len()` rows, keeping each row's non-zero
/// bits (the block length was checked against `rows × dim × 4`).
fn decode_dense(bytes: &[u8], dim: usize, norms: &[f32]) -> SparseMatrix {
    let mut m = SparseMatrix::with_capacity(dim, norms.len());
    let (mut lanes, mut values) = (Vec::new(), Vec::new());
    for (row, &norm) in bytes.chunks_exact(dim * 4).zip(norms) {
        lanes.clear();
        values.clear();
        for (lane, c) in row.chunks_exact(4).enumerate() {
            let bits = u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
            if bits != 0 {
                lanes.push(lane as u16);
                values.push(f32::from_bits(bits));
            }
        }
        m.push_entries(&lanes, &values, norm);
    }
    m
}

/// Decode a sparse data block of `norms.len()` rows straight into a
/// [`SparseMatrix`]. Rejects out-of-range lanes, non-ascending lanes,
/// explicit `+0.0` entries (which would break the encoding's canonical
/// form) and trailing bytes. Lanes are `u16` and every row spends at least
/// its two-byte count, so nothing is allocated for a block too short to
/// hold its rows or a width the encoding cannot express.
fn decode_sparse(bytes: &[u8], dim: usize, norms: &[f32]) -> Result<SparseMatrix, String> {
    let rows = norms.len();
    if dim > u16::MAX as usize || bytes.len() / 2 < rows {
        return Err(format!(
            "sparse block of {} bytes cannot hold {rows} rows at dim {dim}",
            bytes.len()
        ));
    }
    let mut m = SparseMatrix::with_capacity(dim, rows);
    m.reserve_entries((bytes.len() - rows * 2) / 6);
    let (mut lanes, mut values) = (Vec::new(), Vec::new());
    let mut off = 0usize;
    for (r, &norm) in norms.iter().enumerate() {
        if off + 2 > bytes.len() {
            return Err(format!("sparse block truncated at row {r}"));
        }
        let nnz = u16::from_le_bytes(bytes[off..off + 2].try_into().expect("2 bytes")) as usize;
        off += 2;
        if off + nnz * 6 > bytes.len() {
            return Err(format!("sparse block truncated inside row {r}"));
        }
        lanes.clear();
        values.clear();
        for _ in 0..nnz {
            let lane = u16::from_le_bytes(bytes[off..off + 2].try_into().expect("2 bytes"));
            let bits = u32::from_le_bytes(bytes[off + 2..off + 6].try_into().expect("4 bytes"));
            off += 6;
            if lane as usize >= dim {
                return Err(format!("sparse lane {lane} out of range at row {r}"));
            }
            if lanes.last().is_some_and(|&p| lane <= p) {
                return Err(format!("sparse lanes not ascending at row {r}"));
            }
            if bits == 0 {
                return Err(format!("explicit zero entry at row {r} lane {lane}"));
            }
            lanes.push(lane);
            values.push(f32::from_bits(bits));
        }
        m.push_entries(&lanes, &values, norm);
    }
    if off != bytes.len() {
        return Err(format!(
            "{} trailing bytes in sparse block",
            bytes.len() - off
        ));
    }
    Ok(m)
}

/// Checksum of the metadata region: `header_to_data` is the file from its
/// first byte up to the data blocks, hashed with the `meta_crc` field
/// zeroed, followed by the aux blob.
fn meta_checksum(header_to_data: &[u8], aux: &[u8]) -> u64 {
    let mut joined = Vec::with_capacity(header_to_data.len() + aux.len());
    joined.extend_from_slice(header_to_data);
    joined[META_CRC_AT..META_CRC_AT + 8].fill(0);
    joined.extend_from_slice(aux);
    fnv1a64_words(&joined)
}

/// Save matrices plus an opaque `aux` blob to `path`, atomically (write to
/// a sibling temp file, fsync, rename). All matrices must share one
/// dimension.
pub fn save_snapshot(
    path: &Path,
    matrices: &[&SparseMatrix],
    aux: &[u8],
) -> Result<(), SnapshotError> {
    let dim = matrices.first().map(|m| m.dim()).unwrap_or(1);
    if matrices.iter().any(|m| m.dim() != dim) {
        return Err(SnapshotError::Corrupt(
            "matrices in one snapshot must share a dimension".into(),
        ));
    }
    let total_rows: u64 = matrices.iter().map(|m| m.len() as u64).sum();

    let blocks: Vec<(u8, Vec<u8>)> = matrices.iter().map(|m| encode_data(m)).collect();
    let mut data = Vec::new();
    for (_, block) in &blocks {
        data.extend_from_slice(block);
    }

    let meta_len = matrices.len() * MAT_ENTRY_LEN + total_rows as usize * 4;
    let mut out = Vec::with_capacity(HEADER_LEN + meta_len + data.len() + aux.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    out.extend_from_slice(&total_rows.to_le_bytes());
    out.extend_from_slice(&(matrices.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(aux.len() as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // meta_crc, patched below
    out.extend_from_slice(&fnv1a64_words(&data).to_le_bytes());
    out.resize(HEADER_LEN, 0);
    for (m, (enc, block)) in matrices.iter().zip(&blocks) {
        out.extend_from_slice(&(m.len() as u64).to_le_bytes());
        out.push(*enc);
        out.extend_from_slice(&[0u8; 7]);
        out.extend_from_slice(&(block.len() as u64).to_le_bytes());
    }
    for m in matrices {
        push_f32s(&mut out, m.norms());
    }
    let meta_crc = meta_checksum(&out, aux);
    out[META_CRC_AT..META_CRC_AT + 8].copy_from_slice(&meta_crc.to_le_bytes());
    out.extend_from_slice(&data);
    out.extend_from_slice(aux);

    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&out)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Load a snapshot. The header, matrix table, norms and aux are always
/// verified against `meta_crc`; pass `verify_data = true` to also checksum
/// the data blocks (slower — meant for `recover --verify`, not the warm
/// start).
pub fn load_snapshot(path: &Path, verify_data: bool) -> Result<Snapshot, SnapshotError> {
    let bytes = fs::read(path)?;
    let corrupt = |m: String| SnapshotError::Corrupt(format!("{}: {m}", path.display()));
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let version = u32_at(8);
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (this reader knows {VERSION})"
        )));
    }
    let dim = u32_at(12) as usize;
    let total_rows = u64_at(16);
    let n_mats = u32_at(24) as u64;
    let aux_len = u64_at(32);
    let meta_crc = u64_at(META_CRC_AT);
    let data_crc = u64_at(48);
    if u32_at(28) != 0 || bytes[56..HEADER_LEN].iter().any(|&b| b != 0) {
        return Err(corrupt(
            "reserved or pad bytes in the header are not zero".into(),
        ));
    }
    if dim == 0 {
        return Err(corrupt("zero dimension".into()));
    }
    if dim > u16::MAX as usize + 1 {
        return Err(corrupt(format!(
            "dim {dim} is wider than u16 lanes can index"
        )));
    }

    // Region bounds in u64 with checked arithmetic; every region must lie
    // inside the file before it is read.
    let file_len = bytes.len() as u64;
    let in_file = |need: Option<u64>| match need {
        Some(n) if n <= file_len => Ok(n as usize),
        Some(n) => Err(corrupt(format!(
            "file is {file_len} bytes, header implies at least {n}"
        ))),
        None => Err(corrupt("header sizes overflow".into())),
    };
    let table_at = HEADER_LEN;
    let norms_at = in_file(Some(HEADER_LEN as u64 + n_mats * MAT_ENTRY_LEN as u64))?;
    let data_at = in_file(
        total_rows
            .checked_mul(4)
            .and_then(|n| n.checked_add(norms_at as u64)),
    )?;

    // (rows, encoding, block_len) per matrix.
    let mut table = Vec::with_capacity(n_mats as usize);
    let (mut rows_sum, mut data_len) = (Some(0u64), Some(0u64));
    for at in (table_at..norms_at).step_by(MAT_ENTRY_LEN) {
        if bytes[at + 9..at + 16].iter().any(|&b| b != 0) {
            return Err(corrupt("pad bytes in the matrix table are not zero".into()));
        }
        rows_sum = rows_sum.and_then(|s| s.checked_add(u64_at(at)));
        data_len = data_len.and_then(|s| s.checked_add(u64_at(at + 16)));
        table.push((u64_at(at) as usize, bytes[at + 8], u64_at(at + 16) as usize));
    }
    if rows_sum != Some(total_rows) {
        return Err(corrupt("per-matrix row counts disagree with total".into()));
    }
    let aux_at = in_file(data_len.and_then(|n| n.checked_add(data_at as u64)))?;
    let end = in_file((aux_at as u64).checked_add(aux_len))?;
    if end != bytes.len() {
        return Err(corrupt(format!(
            "file is {file_len} bytes, header implies {end}"
        )));
    }

    if meta_checksum(&bytes[..data_at], &bytes[aux_at..]) != meta_crc {
        return Err(corrupt("meta checksum mismatch".into()));
    }
    if verify_data && fnv1a64_words(&bytes[data_at..aux_at]) != data_crc {
        return Err(corrupt("data checksum mismatch".into()));
    }

    // Every norms block and data block now lies inside the file.
    let mut matrices = Vec::with_capacity(table.len());
    let (mut norm_off, mut block_off) = (norms_at, data_at);
    for (r, enc, block_len) in table {
        let mut norms = vec![0f32; r];
        decode_f32s_into(&mut norms, &bytes[norm_off..norm_off + r * 4]);
        norm_off += r * 4;
        let block = &bytes[block_off..block_off + block_len];
        block_off += block_len;
        // Either encoding spends at least four bytes per stored entry, and
        // a sparse matrix indexes its entries with `u32` offsets.
        if block_len / 4 > u32::MAX as usize {
            return Err(corrupt(format!(
                "data block of {block_len} bytes exceeds u32 entry offsets"
            )));
        }
        matrices.push(match enc {
            ENC_DENSE => {
                if r.checked_mul(dim).and_then(|n| n.checked_mul(4)) != Some(block_len) {
                    return Err(corrupt(format!(
                        "dense block is {block_len} bytes for {r} rows at dim {dim}"
                    )));
                }
                decode_dense(block, dim, &norms)
            }
            ENC_SPARSE => decode_sparse(block, dim, &norms).map_err(&corrupt)?,
            other => return Err(corrupt(format!("unknown data encoding {other}"))),
        });
    }
    Ok(Snapshot {
        matrices,
        aux: bytes[aux_at..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("dail_snap_{}_{name}.emb", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    /// Mostly-zero rows (the realistic text-hash shape) with adversarial
    /// nonzero bits: `-0.0` must round-trip as an explicit entry.
    fn sparse_sample(rows: usize, dim: usize, seed: u32) -> SparseMatrix {
        let mut m = SparseMatrix::with_capacity(dim, rows);
        let mut row = vec![0f32; dim];
        for i in 0..rows {
            row.iter_mut().for_each(|x| *x = 0.0);
            let mut lcg = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            for _ in 0..dim / 16 {
                lcg = lcg.wrapping_mul(1664525).wrapping_add(1013904223);
                let lane = (lcg >> 8) as usize % dim;
                row[lane] = ((lcg % 17) as f32 - 8.0) / 4.0;
            }
            row[i % dim] = -0.0;
            m.push_row(&row);
        }
        m
    }

    fn dense_sample(rows: usize, dim: usize, seed: f32) -> SparseMatrix {
        let mut m = SparseMatrix::with_capacity(dim, rows);
        for i in 0..rows {
            let row: Vec<f32> = (0..dim)
                .map(|j| ((i * dim + j) as f32 * seed).sin())
                .collect();
            m.push_row(&row);
        }
        m
    }

    fn assert_bits_eq(a: &SparseMatrix, b: &SparseMatrix) {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dim(), b.dim());
        for i in 0..a.len() {
            assert_eq!(a.row(i).0, b.row(i).0, "lanes of row {i}");
            assert_eq!(bits(a.row(i).1), bits(b.row(i).1), "values of row {i}");
        }
        assert_eq!(bits(a.norms()), bits(b.norms()));
    }

    #[test]
    fn roundtrip_is_bit_identical_across_encodings() {
        let path = tmp("roundtrip");
        // One matrix lands sparse, the other dense — both must survive.
        let a = sparse_sample(7, 64, 0xbeef);
        let b = dense_sample(3, 64, 0.11);
        let aux = b"pool catalog bytes \x00\xff".to_vec();
        save_snapshot(&path, &[&a, &b], &aux).unwrap();
        let snap = load_snapshot(&path, true).unwrap();
        assert_eq!(snap.aux, aux);
        assert_eq!(snap.matrices.len(), 2);
        assert_bits_eq(&a, &snap.matrices[0]);
        assert_bits_eq(&b, &snap.matrices[1]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn sparse_encoding_actually_shrinks_the_file() {
        let sparse = tmp("sparse");
        let dense = tmp("dense");
        let m = sparse_sample(50, 512, 1);
        save_snapshot(&sparse, &[&m], &[]).unwrap();
        let d = dense_sample(50, 512, 0.37);
        save_snapshot(&dense, &[&d], &[]).unwrap();
        let s_len = fs::metadata(&sparse).unwrap().len();
        let d_len = fs::metadata(&dense).unwrap().len();
        assert!(
            s_len * 4 < d_len,
            "sparse file {s_len}B should be well under dense {d_len}B"
        );
        let _ = fs::remove_file(&sparse);
        let _ = fs::remove_file(&dense);
    }

    #[test]
    fn empty_matrices_and_aux_roundtrip() {
        let path = tmp("empty");
        let m = SparseMatrix::with_dim(8);
        save_snapshot(&path, &[&m], &[]).unwrap();
        let snap = load_snapshot(&path, true).unwrap();
        assert!(snap.matrices[0].is_empty());
        assert!(snap.aux.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flipped_data_bit_passes_fast_load_but_fails_verify() {
        let path = tmp("flip");
        let m = dense_sample(5, 8, 0.7);
        save_snapshot(&path, &[&m], b"aux").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let data_at = HEADER_LEN + MAT_ENTRY_LEN + 5 * 4; // table + norms
        bytes[data_at + 3] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        // The fast path skips the data checksum by design…
        assert!(load_snapshot(&path, false).is_ok());
        // …but an integrity check catches the flip.
        assert!(matches!(
            load_snapshot(&path, true),
            Err(SnapshotError::Corrupt(_))
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_meta_is_always_rejected() {
        let path = tmp("meta");
        let m = dense_sample(4, 8, 0.3);
        save_snapshot(&path, &[&m], b"sidecar").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let norms_at = HEADER_LEN + MAT_ENTRY_LEN;
        bytes[norms_at] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path, false),
            Err(SnapshotError::Corrupt(_))
        ));
        // Truncation is caught structurally.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 1]).unwrap();
        assert!(load_snapshot(&path, false).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn malformed_sparse_blocks_are_rejected() {
        let path = tmp("sparse_bad");
        let m = sparse_sample(4, 32, 9);
        save_snapshot(&path, &[&m], &[]).unwrap();
        let base = fs::read(&path).unwrap();
        let data_at = HEADER_LEN + MAT_ENTRY_LEN + 4 * 4;
        // First row's first entry lane (2-byte nnz precedes it): point it
        // out of range. meta_crc does not cover data, so only the sparse
        // decoder's own validation can catch this on the fast path.
        let mut bad = base.clone();
        bad[data_at + 2] = 0xff;
        bad[data_at + 3] = 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_snapshot(&path, false),
            Err(SnapshotError::Corrupt(_))
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        let path = tmp("versions");
        let m = dense_sample(3, 8, 0.9);
        save_snapshot(&path, &[&m], &[]).unwrap();
        let base = fs::read(&path).unwrap();
        assert_eq!(u32::from_le_bytes(base[8..12].try_into().unwrap()), 3);
        // Versions 1 and 2 left the header outside the checksum; a future
        // version is unknown. None of them may be read as this format.
        for version in [1u32, 2, 4] {
            let mut old = base.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            fs::write(&path, &old).unwrap();
            let err = load_snapshot(&path, false).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unsupported version {version}")),
                "{err}"
            );
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn every_header_and_table_bit_flip_is_rejected() {
        let path = tmp("bitflip");
        let mut sparse = SparseMatrix::with_dim(16);
        let mut row = [0f32; 16];
        row[3] = 0.5;
        row[9] = -0.0;
        sparse.push_row(&row);
        let dense = dense_sample(2, 16, 0.4);
        // Mixed encodings, and sparse only: there no block length depends
        // on `dim`, so only the checksum can catch a wider `dim`.
        for mats in [[&sparse, &dense], [&sparse, &sparse]] {
            save_snapshot(&path, &mats, b"aux").unwrap();
            let good = fs::read(&path).unwrap();
            assert!(load_snapshot(&path, true).is_ok());
            for bit in 0..(HEADER_LEN + 2 * MAT_ENTRY_LEN) * 8 {
                let mut bad = good.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                fs::write(&path, &bad).unwrap();
                match load_snapshot(&path, true) {
                    Err(SnapshotError::Corrupt(_)) => {}
                    Err(e) => panic!("flipping bit {bit} gave {e}"),
                    Ok(_) => panic!("flipping bit {bit} loaded as a valid snapshot"),
                }
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_resealed_header_cannot_widen_a_sparse_matrix() {
        // A header rewritten under a valid checksum, not bit rot: the
        // sparse decoder must refuse a width its u16 lanes cannot express
        // before it allocates anything, and no block may claim a width the
        // in-memory u16 lanes cannot index.
        let path = tmp("resealed");
        let m = sparse_sample(2, 64, 5);
        save_snapshot(&path, &[&m], &[]).unwrap();
        let good = fs::read(&path).unwrap();
        for (dim, want) in [
            (1u32 << 16, "cannot hold 2 rows at dim 65536"),
            (
                (1u32 << 16) + 1,
                "dim 65537 is wider than u16 lanes can index",
            ),
        ] {
            let mut bytes = good.clone();
            bytes[12..16].copy_from_slice(&dim.to_le_bytes());
            let data_at = HEADER_LEN + MAT_ENTRY_LEN + 2 * 4;
            let crc = meta_checksum(&bytes[..data_at], &[]);
            bytes[META_CRC_AT..META_CRC_AT + 8].copy_from_slice(&crc.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let err = load_snapshot(&path, true).unwrap_err().to_string();
            assert!(err.contains(want), "{err}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mismatched_dims_refuse_to_save() {
        let path = tmp("dims");
        let a = dense_sample(2, 8, 0.5);
        let b = dense_sample(2, 16, 0.5);
        assert!(matches!(
            save_snapshot(&path, &[&a, &b], &[]),
            Err(SnapshotError::Corrupt(_))
        ));
        let _ = fs::remove_file(&path);
    }
}
