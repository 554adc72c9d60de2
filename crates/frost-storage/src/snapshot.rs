//! `FROSTB` — the versioned, checksummed binary snapshot of a
//! [`BenchmarkStore`].
//!
//! CSV directories ([`persist`](crate::persist)) stay the *interchange*
//! format — diffable, importable by third-party tools. Snapshots are
//! the *at-rest* format for a long-lived server: one sequential read
//! restores the full store **including the import-time artifacts**
//! (per-experiment clusterings and prebuilt
//! [`RoaringPairSet`] arenas), so
//! `frostd` start-up skips CSV parsing, id interning, union-find and
//! pair-set packing entirely.
//!
//! # Layout
//!
//! ```text
//! offset  size  field
//! 0       6     magic  "FROSTB"
//! 6       2     format version, u16 LE (currently 1)
//! 8       4     section count, u32 LE
//! 12      24·n  section table: tag [u8;4], offset u64, len u64, crc32
//! 12+24n  4     header CRC32 (over bytes 0 .. 12+24n)
//! ...           section payloads, back to back, in table order
//! ```
//!
//! Sections (all integers varint-encoded LEB128 unless noted):
//!
//! * **`DSET`** — datasets: name, schema attributes, records (native
//!   id, null bitmap, present values). The records are written row by
//!   row, but a [`Dataset`](frost_core::dataset::Dataset) keeps one
//!   column per attribute, and the decoder fills those columns
//!   directly ([`DatasetBuilder`]): a first pass over a dataset's
//!   records adds up the bytes of every attribute, a second copies each
//!   value into its column, sized exactly. Each native id is checked for
//!   UTF-8 as it is resolved, and each column's values once as a whole,
//!   with every record's offset on a character boundary. The encoder
//!   reads the null bitmap off the columns' presence bits.
//! * **`GOLD`** — gold standards: dataset name, record count, dense
//!   cluster assignment (one varint per record).
//! * **`EXPT`** — experiments: name, dataset, optional soft KPIs, the
//!   scored pair list (packed pair varint + flags + similarity bits),
//!   the precomputed clustering assignment, and the roaring arenas —
//!   directory `index` delta-varint-encoded, array containers as
//!   per-chunk delta varints, bitmap containers as raw `u64` LE words;
//!   `offsets` are recomputed while streaming, so the arenas are
//!   rebuilt with **no re-packing**
//!   ([`RoaringPairSet::from_arenas`]).
//!
//! Every section carries a CRC32; the header carries its own. Any
//! single corrupted byte — magic, version, table, payload or a
//! checksum itself — is rejected, as is any truncation (pinned by the
//! property tests in `tests/snapshot_properties.rs`).

use crate::store::{BenchmarkStore, StoreError, StoredExperiment};
use frost_core::clustering::Clustering;
use frost_core::dataset::chunked::ARRAY_MAX;
use frost_core::dataset::roaring::BITMAP_WORDS;
use frost_core::dataset::{
    DatasetBuilder, Experiment, PairOrigin, RoaringPairSet, Schema, ScoredPair,
};
use frost_core::softkpi::{Effort, ExperimentKpis};
use std::fmt;
use std::io::Write;
use std::path::Path;

/// The 6-byte magic at offset 0.
pub const MAGIC: &[u8; 6] = b"FROSTB";
/// The current format version.
pub const VERSION: u16 = 1;

const TAG_DATASETS: [u8; 4] = *b"DSET";
const TAG_GOLDS: [u8; 4] = *b"GOLD";
const TAG_EXPERIMENTS: [u8; 4] = *b"EXPT";

/// Errors raised while writing or reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the `FROSTB` magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    VersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Version this build writes.
        supported: u16,
    },
    /// A checksum did not match, or a structure was truncated or
    /// internally inconsistent.
    Corrupted {
        /// Which part failed (`header`, `DSET`, …).
        section: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// The decoded store violated store-level invariants.
    Store(StoreError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a FROSTB snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::Corrupted { section, reason } => {
                write!(f, "corrupted snapshot ({section}): {reason}")
            }
            SnapshotError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}
impl From<StoreError> for SnapshotError {
    fn from(e: StoreError) -> Self {
        SnapshotError::Store(e)
    }
}

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). Shared with
/// the WAL frames ([`crate::wal`]).
///
/// On x86-64 CPUs with carry-less multiply, inputs of 64 bytes or more
/// are folded 16 bytes at a time ([`clmul`]); everything else, and the
/// tail under 16 bytes, goes through the slicing-by-8 tables.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` checked that the CPU has the features
        // `fold` is compiled for.
        let (crc, tail) = unsafe { clmul::fold(!0, bytes) };
        return !crc32_sliced(crc, tail);
    }
    !crc32_sliced(!0, bytes)
}

/// Slicing by eight: eight table lookups per 8-byte word instead of
/// one per byte. Takes and returns the CRC register (not inverted).
fn crc32_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 by carry-less multiplication (`PCLMULQDQ`), after Gopal et
/// al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction* (Intel, 2009), in its bit-reflected form: four 128-bit
/// lanes fold 64 bytes per step, the lanes fold into one, and a
/// Barrett reduction takes the last 64 bits to the 32-bit remainder.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input worth folding: the four lanes start full.
    pub(super) const MIN_LEN: usize = 64;

    // Folding constants for the reflected polynomial: powers of x
    // modulo P(x), bit-reflected and shifted by one, as tabulated in
    // the paper (and used by zlib and Linux).
    /// Fold distance 512 bits (four lanes): `(low, high)` multipliers.
    const FOLD_4: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// Fold distance 128 bits (one lane).
    const FOLD_1: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// Folds 64 bits into 32.
    const FOLD_32: i64 = 0x1_63cd_6124;
    /// P(x) and μ = ⌊x⁶⁴ / P(x)⌋, bit-reflected, for the Barrett step.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// `acc · x¹²⁸ ⊕ next` modulo P, up to the multiplier in `keys`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(acc, keys, 0x00);
        let high = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// Feeds the whole 16-byte blocks of `bytes` (at least [`MIN_LEN`]
    /// bytes) into the CRC register `crc`; returns the register and the
    /// tail of fewer than 16 bytes left over.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        assert!(bytes.len() >= MIN_LEN);
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: every chunk is 16 bytes; the load is unaligned.
        let load = |b: &[u8]| unsafe { _mm_loadu_si128(b.as_ptr().cast()) };
        let mut blocks = body.chunks_exact(16).map(load);
        let mut lanes: [__m128i; 4] =
            std::array::from_fn(|_| blocks.next().expect("length checked"));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let keys = _mm_set_epi64x(FOLD_4.1, FOLD_4.0);
        while blocks.len() >= 4 {
            for lane in &mut lanes {
                *lane = fold_into(*lane, blocks.next().expect("four left"), keys);
            }
        }
        let keys = _mm_set_epi64x(FOLD_1.1, FOLD_1.0);
        let mut acc = fold_into(lanes[0], lanes[1], keys);
        acc = fold_into(acc, lanes[2], keys);
        acc = fold_into(acc, lanes[3], keys);
        for block in blocks {
            acc = fold_into(acc, block, keys);
        }
        // 128 → 64 bits, then 64 → 32 (each appends 32 zero bits).
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, keys, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, FOLD_32), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett reduction to the 32-bit remainder.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        (_mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32, tail)
    }
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

// ------------------------------------------------------------- encoding

pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub(crate) fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    pub(crate) fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}

#[derive(Clone)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], section: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    pub(crate) fn corrupt(&self, reason: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupted {
            section: self.section,
            reason: reason.into(),
        }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt("unexpected end of section"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, SnapshotError> {
        // Most varints (lengths, deltas, flags) fit one byte.
        if let Some(&byte) = self.buf.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(byte as u64);
        }
        let mut v = 0u64;
        let mut shift = 0;
        for &byte in self.buf[self.pos..].iter().take(10) {
            self.pos += 1;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                // Reject over-long encodings: a zero final limb (for
                // any multi-byte value) or top-limb overflow. Every
                // u64 then has exactly one encoding, which is what
                // makes `to_bytes` a fixpoint of `from_bytes`.
                if (byte == 0 && shift > 0) || (shift == 63 && byte > 1) {
                    return Err(self.corrupt("non-canonical varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
        Err(self.corrupt(if shift == 70 {
            "varint longer than 10 bytes"
        } else {
            "truncated varint"
        }))
    }

    pub(crate) fn len_capped(&mut self, what: &str, cap: usize) -> Result<usize, SnapshotError> {
        let v = self.varint()?;
        // Every counted structure occupies at least one byte per unit,
        // so a count beyond the remaining section bytes is corruption —
        // checking here keeps `with_capacity` calls allocation-safe.
        if v > cap as u64 {
            return Err(self.corrupt(format!("{what} count {v} exceeds section bounds")));
        }
        Ok(v as usize)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn string(&mut self) -> Result<String, SnapshotError> {
        self.str().map(str::to_owned)
    }

    /// A string borrowed from the buffer.
    pub(crate) fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let bytes = self.str_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string is not UTF-8"))
    }

    /// The bytes of a string, not yet checked for UTF-8.
    pub(crate) fn str_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.len_capped("string byte", self.remaining())?;
        self.bytes(len)
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        let b = self.bytes(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn finished(&self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} trailing bytes", self.buf.len() - self.pos)))
        }
    }
}

// ------------------------------------------------------------- sections

fn encode_datasets(store: &BenchmarkStore, w: &mut Writer) -> Result<(), SnapshotError> {
    let names = store.dataset_names();
    w.varint(names.len() as u64);
    for name in names {
        let ds = store.dataset(&name)?;
        w.string(ds.name());
        let attrs = ds.schema().attributes();
        w.varint(attrs.len() as u64);
        for a in attrs {
            w.string(a);
        }
        w.varint(ds.len() as u64);
        let columns = ds.columns();
        for (id, _) in ds.iter() {
            w.string(ds.native_id(id));
            // Null mask: bit i set ⇔ attribute i present, eight
            // attributes a byte, read off the columns' bitmaps.
            for group in columns.chunks(8) {
                let mask = group
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_present(id.index()))
                    .fold(0u8, |mask, (i, _)| mask | 1 << i);
                w.u8(mask);
            }
            for column in columns {
                if let Some(v) = column.get(id.index()) {
                    w.string(v);
                }
            }
        }
    }
    Ok(())
}

/// Reads one `DSET` record: its native id and, per attribute, the
/// bytes of its value or `None`, into `values`. Nothing is checked for
/// UTF-8 here.
fn read_record<'a>(
    r: &mut Reader<'a>,
    width: usize,
    values: &mut Vec<Option<&'a [u8]>>,
) -> Result<&'a [u8], SnapshotError> {
    let native = r.str_bytes()?;
    let mask = r.bytes(width.div_ceil(8))?;
    values.clear();
    for i in 0..width {
        values.push(if mask[i / 8] & (1 << (i % 8)) != 0 {
            Some(r.str_bytes()?)
        } else {
            None
        });
    }
    Ok(native)
}

/// Decodes `DSET` straight into columns, in two passes over each
/// dataset's records: the first counts the bytes of the native ids
/// and of every attribute, the second copies the values into columns
/// sized exactly. Each native id is checked for UTF-8 on its own as it
/// is resolved; each attribute's values are checked once, as a whole,
/// with every record's offset on a character boundary.
fn decode_datasets(bytes: &[u8], store: &mut BenchmarkStore) -> Result<(), SnapshotError> {
    let mut r = Reader::new(bytes, "DSET");
    let count = r.len_capped("dataset", r.remaining())?;
    for _ in 0..count {
        let name = r.string()?;
        let attr_count = r.len_capped("attribute", r.remaining())?;
        let mut attrs = Vec::with_capacity(attr_count);
        for _ in 0..attr_count {
            attrs.push(r.string()?);
        }
        let width = attrs.len();
        let record_count = r.len_capped("record", r.remaining())?;
        let schema = Schema::try_new(attrs)
            .map_err(|a| r.corrupt(format!("duplicate attribute name {a:?}")))?;

        let mut values = Vec::with_capacity(width);
        let mut id_bytes = 0usize;
        let mut value_bytes = vec![0usize; width];
        let mut sizing = r.clone();
        for _ in 0..record_count {
            id_bytes += read_record(&mut sizing, width, &mut values)?.len();
            for (total, value) in value_bytes.iter_mut().zip(&values) {
                *total += value.map_or(0, <[u8]>::len);
            }
        }
        if let Some(i) = value_bytes.iter().position(|&b| b > u32::MAX as usize) {
            return Err(r.corrupt(format!(
                "values of attribute {:?} exceed 4 GiB",
                schema.name(i)
            )));
        }

        let mut builder = DatasetBuilder::new(&name, schema, record_count, id_bytes, &value_bytes);
        for _ in 0..record_count {
            let native = read_record(&mut r, width, &mut values)?;
            let native =
                std::str::from_utf8(native).map_err(|_| r.corrupt("string is not UTF-8"))?;
            if builder.try_push(native, values.iter().copied()).is_none() {
                return Err(r.corrupt(format!("duplicate native id {native:?}")));
            }
        }
        let ds = builder
            .finish()
            .map_err(|i| r.corrupt(format!("values of attribute {i} of {name:?} are not UTF-8")))?;
        store.add_dataset(ds)?;
    }
    r.finished()
}

fn encode_clustering(c: &Clustering, w: &mut Writer) {
    w.varint(c.num_records() as u64);
    for i in 0..c.num_records() {
        w.varint(c.cluster_of(frost_core::dataset::RecordId(i as u32)) as u64);
    }
}

fn decode_clustering(r: &mut Reader<'_>) -> Result<Clustering, SnapshotError> {
    let n = r.len_capped("clustering record", r.remaining())?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let v = r.varint()?;
        let label = u32::try_from(v).map_err(|_| r.corrupt("cluster label exceeds u32"))?;
        labels.push(label);
    }
    // Stored labels are the dense assignment in first-appearance
    // order, so `from_assignment` reproduces the identical structure.
    Ok(Clustering::from_assignment(&labels))
}

fn encode_golds(store: &BenchmarkStore, w: &mut Writer) -> Result<(), SnapshotError> {
    let with_gold: Vec<String> = store
        .dataset_names()
        .into_iter()
        .filter(|n| store.gold_standard(n).is_ok())
        .collect();
    w.varint(with_gold.len() as u64);
    for name in with_gold {
        w.string(&name);
        encode_clustering(store.gold_standard(&name)?, w);
    }
    Ok(())
}

fn decode_golds(bytes: &[u8], store: &mut BenchmarkStore) -> Result<(), SnapshotError> {
    let mut r = Reader::new(bytes, "GOLD");
    let count = r.len_capped("gold standard", r.remaining())?;
    for _ in 0..count {
        let dataset = r.string()?;
        let truth = decode_clustering(&mut r)?;
        let expected = store.dataset(&dataset)?.len();
        if truth.num_records() != expected {
            return Err(r.corrupt(format!(
                "gold standard for {dataset:?} covers {} records, dataset has {expected}",
                truth.num_records()
            )));
        }
        store.set_gold_standard(&dataset, truth)?;
    }
    r.finished()
}

fn encode_roaring(set: &RoaringPairSet, w: &mut Writer) {
    let (index, _offsets, elems, words) = set.arenas();
    w.varint(index.len() as u64);
    // Directory: strictly ascending u64 entries, delta-encoded.
    let mut prev = 0u64;
    for (i, &entry) in index.iter().enumerate() {
        w.varint(if i == 0 { entry } else { entry - prev });
        prev = entry;
    }
    // Containers in chunk order; offsets are implicit (recomputed on
    // load as the running arena positions).
    let (mut eoff, mut woff) = (0usize, 0usize);
    for &entry in index {
        let card = (entry & 0xFFFF) as usize + 1;
        if card > ARRAY_MAX {
            for &word in &words[woff..woff + BITMAP_WORDS] {
                w.buf.extend_from_slice(&word.to_le_bytes());
            }
            woff += BITMAP_WORDS;
        } else {
            let vals = &elems[eoff..eoff + card];
            let mut prev = 0u16;
            for (i, &v) in vals.iter().enumerate() {
                w.varint(if i == 0 { v as u64 } else { (v - prev) as u64 });
                prev = v;
            }
            eoff += card;
        }
    }
}

fn decode_roaring(r: &mut Reader<'_>) -> Result<RoaringPairSet, SnapshotError> {
    let chunks = r.len_capped("roaring chunk", r.remaining())?;
    let mut index = Vec::with_capacity(chunks);
    let mut prev = 0u64;
    for i in 0..chunks {
        let delta = r.varint()?;
        let entry = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .ok_or_else(|| r.corrupt("directory delta overflows"))?
        };
        index.push(entry);
        prev = entry;
    }
    let mut offsets = Vec::with_capacity(chunks);
    // Each array element takes at least one byte, which caps what a
    // corrupt directory can make this reserve.
    let array_elems: usize = index
        .iter()
        .map(|&entry| (entry & 0xFFFF) as usize + 1)
        .filter(|&card| card <= ARRAY_MAX)
        .sum();
    let mut elems: Vec<u16> = Vec::with_capacity(array_elems.min(r.remaining()));
    let mut words: Vec<u64> = Vec::new();
    for &entry in &index {
        let card = (entry & 0xFFFF) as usize + 1;
        if card > ARRAY_MAX {
            offsets.push(words.len() as u32);
            let raw = r.bytes(BITMAP_WORDS * 8)?;
            words.extend(
                raw.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
            );
        } else {
            offsets.push(
                u32::try_from(elems.len()).map_err(|_| r.corrupt("elems arena exceeds u32"))?,
            );
            let mut prev = 0u64;
            for i in 0..card {
                let delta = r.varint()?;
                let v = if i == 0 {
                    delta
                } else {
                    prev.checked_add(delta)
                        .ok_or_else(|| r.corrupt("array delta overflows"))?
                };
                if v > u16::MAX as u64 {
                    return Err(r.corrupt("array element exceeds u16"));
                }
                elems.push(v as u16);
                prev = v;
            }
        }
    }
    RoaringPairSet::from_arenas(index, offsets, elems, words)
        .map_err(|e| r.corrupt(format!("roaring arenas: {e}")))
}

fn encode_experiments(store: &BenchmarkStore, w: &mut Writer) -> Result<(), SnapshotError> {
    let names = store.experiment_names(None);
    w.varint(names.len() as u64);
    for name in names {
        let stored = store.experiment(&name)?;
        w.string(stored.experiment.name());
        w.string(&stored.dataset);
        match &stored.kpis {
            None => w.u8(0),
            Some(k) => {
                w.u8(1);
                w.f64(k.setup.hours);
                w.u8(k.setup.expertise);
                w.f64(k.runtime_seconds);
            }
        }
        let pairs = stored.experiment.pairs();
        w.varint(pairs.len() as u64);
        for sp in pairs {
            let packed = ((sp.pair.lo().0 as u64) << 32) | sp.pair.hi().0 as u64;
            w.varint(packed);
            let mut flags = 0u8;
            if sp.similarity.is_some() {
                flags |= 1;
            }
            if sp.origin == PairOrigin::Closure {
                flags |= 2;
            }
            w.u8(flags);
            if let Some(s) = sp.similarity {
                w.f64(s);
            }
        }
        encode_clustering(&stored.clustering, w);
        encode_roaring(&stored.pair_set, w);
    }
    Ok(())
}

fn decode_experiments(bytes: &[u8], store: &mut BenchmarkStore) -> Result<(), SnapshotError> {
    let mut r = Reader::new(bytes, "EXPT");
    let count = r.len_capped("experiment", r.remaining())?;
    for _ in 0..count {
        let name = r.string()?;
        let dataset = r.string()?;
        let kpis = match r.u8()? {
            0 => None,
            1 => Some(ExperimentKpis {
                setup: Effort {
                    hours: r.f64()?,
                    expertise: r.u8()?,
                },
                runtime_seconds: r.f64()?,
            }),
            other => return Err(r.corrupt(format!("bad KPI flag {other}"))),
        };
        let pair_count = r.len_capped("pair", r.remaining())?;
        let mut pairs = Vec::with_capacity(pair_count);
        for _ in 0..pair_count {
            let packed = r.varint()?;
            let flags = r.u8()?;
            if flags & !3 != 0 {
                return Err(r.corrupt(format!("bad pair flags {flags}")));
            }
            let (lo, hi) = ((packed >> 32) as u32, packed as u32);
            // `RecordPair::new` normalizes but asserts on self-pairs —
            // reject them as corruption instead of panicking.
            if lo == hi {
                return Err(r.corrupt(format!("self-pair ({lo}, {hi})")));
            }
            let similarity = if flags & 1 != 0 { Some(r.f64()?) } else { None };
            pairs.push(ScoredPair {
                pair: frost_core::dataset::RecordPair::new(
                    frost_core::dataset::RecordId(lo),
                    frost_core::dataset::RecordId(hi),
                ),
                similarity,
                origin: if flags & 2 != 0 {
                    PairOrigin::Closure
                } else {
                    PairOrigin::Matcher
                },
            });
        }
        let clustering = decode_clustering(&mut r)?;
        let pair_set = decode_roaring(&mut r)?;
        // The pair list was deduplicated before it was written
        // (`Experiment` is a set); the trusted constructor skips the
        // hash pass that would otherwise dominate load time.
        let experiment = Experiment::from_deduplicated_pairs(name, pairs);
        store.insert_stored(StoredExperiment {
            dataset,
            experiment,
            clustering,
            pair_set,
            kpis,
        })?;
    }
    r.finished()
}

// ------------------------------------------------------------- file API

/// Serializes a store into `FROSTB` bytes.
pub fn to_bytes(store: &BenchmarkStore) -> Result<Vec<u8>, SnapshotError> {
    let mut sections: Vec<([u8; 4], Vec<u8>)> = Vec::with_capacity(3);
    for (tag, encode) in [
        (
            TAG_DATASETS,
            encode_datasets as fn(&BenchmarkStore, &mut Writer) -> Result<(), SnapshotError>,
        ),
        (TAG_GOLDS, encode_golds),
        (TAG_EXPERIMENTS, encode_experiments),
    ] {
        let mut w = Writer::new();
        encode(store, &mut w)?;
        sections.push((tag, w.buf));
    }

    let header_len = 12 + 24 * sections.len() + 4;
    let mut out =
        Vec::with_capacity(header_len + sections.iter().map(|(_, b)| b.len()).sum::<usize>());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = header_len as u64;
    for (tag, body) in &sections {
        out.extend_from_slice(tag);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(body).to_le_bytes());
        offset += body.len() as u64;
    }
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    for (_, body) in &sections {
        out.extend_from_slice(body);
    }
    Ok(out)
}

/// Deserializes `FROSTB` bytes into a store.
pub fn from_bytes(bytes: &[u8]) -> Result<BenchmarkStore, SnapshotError> {
    let corrupt = |reason: &str| SnapshotError::Corrupted {
        section: "header",
        reason: reason.to_string(),
    };
    if bytes.len() < 12 || &bytes[..6] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: VERSION,
        });
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let table_end = 12usize
        .checked_add(
            count
                .checked_mul(24)
                .ok_or_else(|| corrupt("section count overflows"))?,
        )
        .ok_or_else(|| corrupt("section count overflows"))?;
    if bytes.len() < table_end + 4 {
        return Err(corrupt("truncated section table"));
    }
    let stored_crc = u32::from_le_bytes(bytes[table_end..table_end + 4].try_into().unwrap());
    if crc32(&bytes[..table_end]) != stored_crc {
        return Err(corrupt("header checksum mismatch"));
    }

    let mut store = BenchmarkStore::new();
    let mut seen = [false; 3];
    for i in 0..count {
        let entry = &bytes[12 + 24 * i..12 + 24 * (i + 1)];
        let tag: [u8; 4] = entry[..4].try_into().unwrap();
        let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(entry[12..20].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(entry[20..24].try_into().unwrap());
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| corrupt("section extends past end of file"))?;
        let body = &bytes[offset..end];
        type SectionDecoder = fn(&[u8], &mut BenchmarkStore) -> Result<(), SnapshotError>;
        let (section, decode, slot): (&'static str, SectionDecoder, usize) = match &tag {
            b"DSET" => ("DSET", decode_datasets, 0),
            b"GOLD" => ("GOLD", decode_golds, 1),
            b"EXPT" => ("EXPT", decode_experiments, 2),
            other => {
                return Err(SnapshotError::Corrupted {
                    section: "header",
                    reason: format!("unknown section tag {other:?}"),
                })
            }
        };
        if crc32(body) != crc {
            return Err(SnapshotError::Corrupted {
                section,
                reason: "section checksum mismatch".into(),
            });
        }
        if std::mem::replace(&mut seen[slot], true) {
            return Err(SnapshotError::Corrupted {
                section,
                reason: "duplicate section".into(),
            });
        }
        decode(body, &mut store)?;
    }
    Ok(store)
}

/// Writes a store snapshot to a file, atomically: the bytes land in a
/// sibling temp file first and are renamed over the target, so a
/// crash mid-write can never destroy a previous good snapshot.
pub fn save(store: &BenchmarkStore, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let bytes = to_bytes(store)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    Ok(())
}

/// Puts snapshot `bytes` fetched from elsewhere at `path`, but only if
/// they decode.
///
/// A checksum over the whole file catches transport damage only, so the
/// bytes are decoded in memory first; bytes that do not decode return
/// an `InvalidData` error and leave `path` — the last good state —
/// untouched. Bytes that do are written to `path` with extension
/// `tmp_extension`, fsynced, and renamed over `path`.
pub fn replace(path: &Path, tmp_extension: &str, bytes: &[u8]) -> std::io::Result<()> {
    from_bytes(bytes).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("fetched snapshot does not decode: {e}"),
        )
    })?;
    let tmp = path.with_extension(tmp_extension);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Loads a store snapshot from a file (one sequential read).
pub fn load(path: impl AsRef<Path>) -> Result<BenchmarkStore, SnapshotError> {
    from_bytes(&std::fs::read(path)?)
}

/// Whether a path looks like a `FROSTB` snapshot (file starting with
/// the magic).
pub fn is_snapshot(path: impl AsRef<Path>) -> bool {
    use std::io::Read;
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    let mut head = [0u8; 6];
    f.read_exact(&mut head).is_ok() && &head == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use frost_core::dataset::{Dataset, RecordPair};

    /// The bytewise CRC-32 the sliced one must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let mut x = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..70_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        // Every offset and length around the folding thresholds (one
        // to four lanes, and every tail length) …
        for offset in 0..64 {
            for len in 0..=300 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
                assert_eq!(
                    !crc32_sliced(!0, slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        // … and long inputs.
        for len in [4_096, 65_535, 69_999] {
            assert_eq!(crc32(&buf[1..=len]), crc32_bytewise(&buf[1..=len]));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn carry_less_folding_matches_the_tables() {
        if !clmul::available() {
            return;
        }
        let buf: Vec<u8> = (0..1_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in clmul::MIN_LEN..buf.len() {
            // SAFETY: the CPU features were checked above.
            let (crc, tail) = unsafe { clmul::fold(0x1234_5678, &buf[..len]) };
            assert_eq!(tail.len(), len % 16);
            assert_eq!(
                crc32_sliced(crc, tail),
                crc32_sliced(0x1234_5678, &buf[..len]),
                "len {len}"
            );
        }
    }

    fn sample_store() -> BenchmarkStore {
        let mut ds = Dataset::new("people", Schema::new(["name", "city"]));
        ds.push_record("a", ["Ann, the first", "Berlin"]);
        ds.push_record_opt("b", vec![Some("Anne \"II\"".into()), None]);
        ds.push_record("c", ["Bob\nNewline", "Potsdam"]);
        ds.push_record("d", ["Dora", "Kiel"]);
        let mut store = BenchmarkStore::new();
        store.add_dataset(ds).unwrap();
        store
            .set_gold_standard("people", Clustering::from_assignment(&[0, 0, 1, 2]))
            .unwrap();
        store
            .add_experiment(
                "people",
                Experiment::new(
                    "run-1",
                    [
                        ScoredPair::scored((0u32, 1u32), 0.93),
                        ScoredPair::closure((0u32, 2u32)),
                        ScoredPair::unscored((2u32, 3u32)),
                    ],
                ),
                Some(ExperimentKpis {
                    setup: Effort {
                        hours: 2.5,
                        expertise: 40,
                    },
                    runtime_seconds: 1.25,
                }),
            )
            .unwrap();
        store
            .add_experiment(
                "people",
                Experiment::from_scored_pairs("run-2", [(0u32, 1u32, 0.7), (2, 3, 0.6)]),
                None,
            )
            .unwrap();
        store
    }

    fn assert_stores_equal(a: &BenchmarkStore, b: &BenchmarkStore) {
        assert_eq!(a.dataset_names(), b.dataset_names());
        for name in a.dataset_names() {
            assert_eq!(a.dataset(&name).unwrap(), b.dataset(&name).unwrap());
            assert_eq!(a.gold_standard(&name).ok(), b.gold_standard(&name).ok());
        }
        assert_eq!(a.experiment_names(None), b.experiment_names(None));
        for name in a.experiment_names(None) {
            let (ea, eb) = (a.experiment(&name).unwrap(), b.experiment(&name).unwrap());
            assert_eq!(ea.dataset, eb.dataset);
            assert_eq!(ea.experiment.pairs(), eb.experiment.pairs());
            assert_eq!(ea.clustering, eb.clustering);
            assert_eq!(ea.pair_set, eb.pair_set, "roaring arenas must round-trip");
            assert_eq!(ea.kpis.is_some(), eb.kpis.is_some());
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let store = sample_store();
        let bytes = to_bytes(&store).unwrap();
        let loaded = from_bytes(&bytes).unwrap();
        assert_stores_equal(&store, &loaded);
        // Derived artifacts agree too.
        assert_eq!(
            store.confusion_matrix("run-1").unwrap(),
            loaded.confusion_matrix("run-1").unwrap()
        );
        // Serialization is deterministic.
        assert_eq!(bytes, to_bytes(&loaded).unwrap());
    }

    #[test]
    fn round_trip_with_bitmap_chunks() {
        // An experiment dense enough to promote a chunk to a bitmap
        // container exercises the raw-words path.
        let n = 6000usize;
        let mut ds = Dataset::with_capacity("big", Schema::new(["x"]), n);
        for i in 0..n {
            ds.push_record(format!("r{i}"), [format!("v{i}")]);
        }
        let mut store = BenchmarkStore::new();
        store.add_dataset(ds).unwrap();
        store
            .add_experiment(
                "big",
                Experiment::from_pairs("dense", (1..n as u32).map(|hi| (0u32, hi))),
                None,
            )
            .unwrap();
        let loaded = from_bytes(&to_bytes(&store).unwrap()).unwrap();
        let stored = loaded.experiment("dense").unwrap();
        assert!(stored.pair_set.bitmap_chunk_count() >= 1);
        assert!(stored.pair_set.contains(&RecordPair::from((0u32, 4321u32))));
        assert_stores_equal(&store, &loaded);
    }

    #[test]
    fn empty_store_round_trips() {
        let loaded = from_bytes(&to_bytes(&BenchmarkStore::new()).unwrap()).unwrap();
        assert!(loaded.dataset_names().is_empty());
        assert!(loaded.experiment_names(None).is_empty());
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let bytes = to_bytes(&sample_store()).unwrap();
        assert!(matches!(
            from_bytes(b"NOTFROSTB"),
            Err(SnapshotError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[6] = 99;
        assert!(matches!(
            from_bytes(&wrong_version),
            Err(SnapshotError::VersionMismatch { found: 99, .. })
        ));
        for cut in [3, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_any_corrupted_byte() {
        let bytes = to_bytes(&sample_store()).unwrap();
        // Flipping one bit anywhere must be caught by the magic check,
        // the version check, or a checksum.
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(from_bytes(&bad).is_err(), "flip at byte {i} was accepted");
        }
    }

    /// `bytes` with every section checksum and the header checksum
    /// recomputed, so an edit inside a section reaches its decoder.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        for i in 0..count {
            let entry = 12 + 24 * i;
            let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let (offset, len) = (field(entry + 4) as usize, field(entry + 12) as usize);
            let crc = crc32(&bytes[offset..offset + len]);
            bytes[entry + 20..entry + 24].copy_from_slice(&crc.to_le_bytes());
        }
        let table_end = 12 + 24 * count;
        let crc = crc32(&bytes[..table_end]);
        bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn a_repeated_native_id_is_corruption_not_a_panic() {
        let mut bytes = to_bytes(&sample_store()).unwrap();
        // Native ids are written as length-prefixed strings: `\x01b`
        // is record b's, and becomes a second `a`.
        let at = bytes.windows(2).position(|w| w == b"\x01b").unwrap();
        assert_eq!(bytes.windows(2).filter(|w| *w == b"\x01b").count(), 1);
        bytes[at + 1] = b'a';
        assert!(matches!(
            from_bytes(&bytes),
            Err(SnapshotError::Corrupted { reason, .. }) if reason == "section checksum mismatch"
        ));
        match from_bytes(&reseal(bytes)) {
            Err(SnapshotError::Corrupted { section, reason }) => {
                assert_eq!(
                    (section, reason.as_str()),
                    ("DSET", "duplicate native id \"a\"")
                );
            }
            other => panic!("expected a corrupted DSET, got {other:?}"),
        }
        // Resealing alone changes nothing.
        let sealed = to_bytes(&sample_store()).unwrap();
        assert_eq!(reseal(sealed.clone()), sealed);
    }

    #[test]
    fn text_that_is_not_utf8_is_corruption() {
        let corrupt = |from: &[u8], to: &[u8]| {
            let mut bytes = to_bytes(&sample_store()).unwrap();
            let at = bytes.windows(from.len()).position(|w| w == from).unwrap();
            bytes[at..at + to.len()].copy_from_slice(to);
            match from_bytes(&reseal(bytes)) {
                Err(SnapshotError::Corrupted { section, reason }) => (section, reason),
                other => panic!("expected a corrupted DSET, got {other:?}"),
            }
        };
        // A value: record d's name `Dora` starts with a stray byte.
        assert_eq!(
            corrupt(b"\x04Dora", b"\x04\xFF"),
            (
                "DSET",
                "values of attribute 0 of \"people\" are not UTF-8".into()
            )
        );
        // A native id: record d's id `d`.
        assert_eq!(
            corrupt(b"\x01d\x03", b"\x01\xFF"),
            ("DSET", "string is not UTF-8".into())
        );
    }

    #[test]
    fn a_repeated_attribute_name_is_corruption_not_a_panic() {
        let mut bytes = to_bytes(&sample_store()).unwrap();
        // Attribute names are length-prefixed strings: `\x04city`
        // becomes a second `name`.
        let at = bytes.windows(5).position(|w| w == b"\x04city").unwrap();
        assert_eq!(bytes.windows(5).filter(|w| *w == b"\x04city").count(), 1);
        bytes[at + 1..at + 5].copy_from_slice(b"name");
        match from_bytes(&reseal(bytes)) {
            Err(SnapshotError::Corrupted { section, reason }) => {
                assert_eq!(
                    (section, reason.as_str()),
                    ("DSET", "duplicate attribute name \"name\"")
                );
            }
            other => panic!("expected a corrupted DSET, got {other:?}"),
        }
    }

    #[test]
    fn save_load_and_sniffing() {
        let dir = std::env::temp_dir().join(format!("frost-snap-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("store.frostb");
        let store = sample_store();
        save(&store, &path).unwrap();
        assert!(is_snapshot(&path));
        assert!(!is_snapshot(dir.join("missing.frostb")));
        let loaded = load(&path).unwrap();
        assert_stores_equal(&store, &loaded);
        // load_auto dispatches on the file shape.
        let via_auto = crate::persist::load_auto(&path).unwrap();
        assert_stores_equal(&store, &via_auto);
        let csv = dir.join("not-a-snapshot.csv");
        std::fs::write(&csv, "id,name\n").unwrap();
        assert!(!is_snapshot(&csv));
        assert!(crate::persist::load_auto(&csv).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
