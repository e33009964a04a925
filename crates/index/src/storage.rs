//! Disk-spill storage for shards of the blocking index.
//!
//! ROADMAP names "spill cold shards to disk / mmap" as the next scale step after the
//! in-memory sharded layout: a streaming corpus eventually exceeds RAM, but most shards
//! are *cold* — they hold old rows that rarely win a top-k slot. This module gives every
//! shard payload a [`ShardStorage`] home with two states:
//!
//! * [`ShardStorage::Resident`] — the row-major [`Matrix`] in memory, next to its i8
//!   tier ([`QuantizedMatrix`]) when the shard is quantized;
//! * [`ShardStorage::Spilled`] — the same payload serialized to a compact on-disk file
//!   ([`SpilledShard`]), read back on demand when a query actually needs the shard.
//!
//! Which shards spill is decided by [`crate::ShardedCosineIndex`]'s residency budget
//! after `compact()` (least-recently-used shards go first); which spilled shards are
//! ever *read back* is decided by the routing statistics of [`crate::routing`] — a shard
//! whose cosine upper bound cannot enter the current top-k is skipped without touching
//! disk, which is what makes spilling and routing multiplicative.
//!
//! ## On-disk format
//!
//! A spill file is the shard payload and nothing else. A plain shard is written as
//! `SWSHARD1`, laid out for a single sequential read:
//!
//! ```text
//! offset  size           field
//! 0       8              magic  b"SWSHARD1" (version baked into the magic)
//! 8       8              rows   (u64, little endian)
//! 16      8              cols   (u64, little endian)
//! 24      rows*cols*4    row-major f32 data, little endian
//! end-4   4              CRC-32 (ISO-HDLC) of every preceding byte, little endian
//! ```
//!
//! The payload is the matrix buffer bit-for-bit (including the zero padding rows up to
//! the SIMD row-quad width), so a spilled-then-faulted shard scores queries **bit
//! identically** to its resident twin — the dense/sharded equivalence contract survives
//! spilling. The CRC trailer is verified whenever a file is read, so silent on-disk
//! corruption (a flipped bit, a truncated-then-padded file) surfaces as a typed
//! [`StorageError`] instead of wrong similarity scores. Files live in a per-index
//! temporary directory ([`SpillDir`]) that is removed when the index is dropped;
//! individual files are removed as soon as their shard is repacked or faulted back to
//! residency.
//!
//! The same format doubles as the per-shard **payload format of persistent snapshots**
//! ([`crate::snapshot`]): a snapshot shard file is byte-identical to a spill file, so a
//! spilled shard is snapshotted with a plain file copy (no deserialization), and a
//! snapshot-loaded shard is served through the exact same fault path — just via a
//! non-owning handle ([`SpilledShard::open`]) that never deletes the snapshot.
//!
//! ## Quantized payloads (`SWSHARDQ1`)
//!
//! A shard quantized by [`QuantizedMatrix::quantize`] (i8 codes with one f32 scale per
//! row) spills and snapshots into a second format that carries **both tiers** of the
//! two-stage scan — the i8 codes the approximate scan reads and the exact f32 rows the
//! rescore tier reads, so a quantized shard still answers queries bit-identically:
//!
//! ```text
//! offset            size           field
//! 0                 9              magic  b"SWSHARDQ1"
//! 9                 7              zero padding (keeps every later field 4-byte aligned)
//! 16                8              rows   (u64, little endian)
//! 24                8              cols   (u64, little endian)
//! 32                4              max_err_norm (f32 LE, see `QuantizedMatrix`)
//! 36                4              max_row_norm (f32 LE)
//! 40                rows*4         per-row scales (f32 LE)
//! 40+4r             rows*cols*4    exact row-major f32 payload (bit-for-bit)
//! 40+4r+4rc         rows*cols      i8 codes, row-major
//! end-4             4              CRC-32 (ISO-HDLC) of every preceding byte
//! ```
//!
//! ## One handle, one reader
//!
//! A [`SpilledShard`] serves both formats: it records which one its file holds, and one
//! private layout table gives each format's magic, shape offset, exact-tier offset and
//! file length (in checked arithmetic, so a hostile shape from a snapshot manifest is
//! corruption, not an overflow). Every read goes through one validating reader that
//! checks the file length, magic, header shape and CRC-32 trailer, in that order, and
//! yields a [`MappedPayload`] — a read-only `mmap(2)` of the file on little-endian Unix,
//! a heap copy elsewhere. On top of it:
//!
//! * [`SpilledShard::mapped`] caches the validated mapping for the query path, which
//!   borrows the exact f32 tier out of it with zero copies (the tier sits at a 4-byte
//!   aligned offset in both formats);
//! * [`SpilledShard::load`] copies the exact tier out of a freshly validated mapping,
//!   so every call re-validates;
//! * [`SpilledShard::quant`] decodes a `SWSHARDQ1` file's codes and scales from the
//!   cached mapping into a small heap copy once per handle — a quarter the bytes of the
//!   f32 payload, which is the whole memory-density point.
//!
//! ## Failure model
//!
//! Every fault path returns a typed [`StorageError`] naming the file (and, one layer
//! up, the shard id) instead of panicking: a vanished spill file or a corrupt payload
//! degrades the query that needed it, never the process. [`SpilledShard::load_retrying`]
//! and [`SpilledShard::mapped`] retry transient failures with a short exponential
//! backoff; callers that still fail after the retries quarantine the shard (see
//! [`crate::ShardedCosineIndex`]). The fault-injection points of this module
//! (`spill.read.io_err`, `spill.write.io_err`, `snapshot.payload.torn`) are armed
//! through [`sudowoodo_faults`] and compile to one relaxed atomic load when disarmed.

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sudowoodo_faults as faults;
use sudowoodo_nn::matrix::{Matrix, MatrixView};

/// Magic prefix of a plain spill file; the trailing `1` is the format version.
const MAGIC: &[u8; 8] = b"SWSHARD1";

/// Byte length of the plain spill-file header (magic + rows + cols).
const HEADER_LEN: usize = 8 + 8 + 8;

/// Magic prefix of a quantized payload file; the trailing `1` is the format version.
const QMAGIC: &[u8; 9] = b"SWSHARDQ1";

/// Byte length of the quantized-file header: magic (9) + zero pad (7) + rows (8) +
/// cols (8) + max_err_norm (4) + max_row_norm (4). A multiple of 4, so the scales and
/// the exact f32 payload that follow are 4-byte aligned from the page-aligned mmap base.
const QHEADER_LEN: usize = 9 + 7 + 8 + 8 + 4 + 4;

/// Byte length of the CRC-32 trailer at the end of a spill file.
const TRAILER_LEN: usize = 4;

/// Where the sections of a `rows x cols` payload file sit, for either format.
#[derive(Clone, Copy, Debug)]
struct Layout {
    magic: &'static [u8],
    rows: usize,
    cols: usize,
    /// Offset of the `rows`/`cols` header fields (two little-endian u64s).
    shape_at: usize,
    /// Offset of the exact row-major f32 tier (4-byte aligned in both formats).
    exact_at: usize,
    /// Total file length, CRC-32 trailer included.
    len: usize,
}

impl Layout {
    /// The layout of a `SWSHARDQ1` (`quantized`) or `SWSHARD1` payload, or `None` when
    /// its length overflows `usize` — only a corrupt or hostile shape gets there.
    fn of(quantized: bool, rows: usize, cols: usize) -> Option<Layout> {
        let cells = rows.checked_mul(cols)?;
        let (magic, shape_at, exact_at, codes_len) = if quantized {
            let scales_end = rows.checked_mul(4)?.checked_add(QHEADER_LEN)?;
            (&QMAGIC[..], 16, scales_end, cells)
        } else {
            (&MAGIC[..], 8, HEADER_LEN, 0)
        };
        let len = cells
            .checked_mul(4)?
            .checked_add(exact_at)?
            .checked_add(codes_len)?
            .checked_add(TRAILER_LEN)?;
        Some(Layout {
            magic,
            rows,
            cols,
            shape_at,
            exact_at,
            len,
        })
    }

    /// Offset just past the exact tier: where a quantized file's i8 codes start.
    fn codes_at(&self) -> usize {
        self.exact_at + self.rows * self.cols * 4
    }
}

/// Read attempts a retrying fault makes in total (1 initial + 3 backoff retries).
/// Strictly below [`faults::SUPPRESS_WINDOW`], so a probabilistically injected read
/// fault always recovers within one retry loop.
pub(crate) const FAULT_ATTEMPTS: u32 = 4;

/// Sleeps the exponential fault-retry backoff for 0-based retry number `retry`
/// (1ms, 2ms, 4ms, ...). Shared by every retry loop in the crate so the policy
/// cannot drift between the storage and query layers.
pub(crate) fn fault_backoff(retry: u32) {
    std::thread::sleep(Duration::from_millis(1u64 << retry.min(6)));
}

// ---- CRC-32 (ISO-HDLC) ---------------------------------------------------------------

/// The reflected CRC-32 lookup table (polynomial 0xEDB88320), built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Incremental CRC-32/ISO-HDLC (the zlib/PNG checksum) — std-only, table-driven.
/// Shared by the spill-file payloads and the snapshot manifest.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    pub(crate) fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice (see [`Crc32`]).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// ---- typed errors --------------------------------------------------------------------

/// What went wrong inside a [`StorageError`].
#[derive(Debug)]
pub enum StorageErrorKind {
    /// The underlying I/O operation failed (file vanished, permission, injected fault).
    Io(io::Error),
    /// The bytes on disk are not a valid payload (bad magic, shape mismatch, CRC
    /// mismatch, wrong length). Retrying cannot help; the file must be quarantined.
    Corrupt(String),
}

/// A typed fault from the spill/snapshot storage layer: which file failed, which shard
/// it backed (when known), and how. Replaces the panics these paths used to take —
/// callers retry, quarantine, or surface the error, but the process survives.
#[derive(Debug)]
pub struct StorageError {
    path: PathBuf,
    shard: Option<usize>,
    kind: StorageErrorKind,
}

impl StorageError {
    pub(crate) fn io(path: &Path, err: io::Error) -> StorageError {
        StorageError {
            path: path.to_path_buf(),
            shard: None,
            kind: StorageErrorKind::Io(err),
        }
    }

    pub(crate) fn corrupt(path: &Path, what: impl Into<String>) -> StorageError {
        StorageError {
            path: path.to_path_buf(),
            shard: None,
            kind: StorageErrorKind::Corrupt(what.into()),
        }
    }

    /// Attaches the shard id the failing file was backing (for messages and reports).
    pub fn with_shard(mut self, shard: usize) -> StorageError {
        self.shard = Some(shard);
        self
    }

    /// The file that failed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shard the file was backing, when the caller attached it.
    pub fn shard(&self) -> Option<usize> {
        self.shard
    }

    /// What went wrong.
    pub fn kind(&self) -> &StorageErrorKind {
        &self.kind
    }

    /// `true` when the bytes on disk are invalid (retrying cannot help).
    pub fn is_corrupt(&self) -> bool {
        matches!(self.kind, StorageErrorKind::Corrupt(_))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shard {
            Some(i) => write!(f, "shard {i} payload {}: ", self.path.display())?,
            None => write!(f, "payload {}: ", self.path.display())?,
        }
        match &self.kind {
            StorageErrorKind::Io(e) => write!(f, "{e}"),
            StorageErrorKind::Corrupt(what) => write!(f, "corrupt: {what}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            StorageErrorKind::Io(e) => Some(e),
            StorageErrorKind::Corrupt(_) => None,
        }
    }
}

impl From<StorageError> for io::Error {
    /// Keeps `?` working in `io::Result` contexts (the snapshot loader): corruption
    /// maps to [`io::ErrorKind::InvalidData`], I/O faults keep their kind.
    fn from(err: StorageError) -> io::Error {
        let kind = match &err.kind {
            StorageErrorKind::Io(e) => e.kind(),
            StorageErrorKind::Corrupt(_) => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, err.to_string())
    }
}

/// Removes a path best-effort without ever panicking — Drop-path cleanup must not
/// double-panic while the thread is already unwinding.
fn remove_quietly(path: &Path, dir: bool) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if dir {
            let _ = fs::remove_dir_all(path);
        } else {
            let _ = fs::remove_file(path);
        }
    }));
    drop(result); // cleanup is best-effort; a leaked temp path never takes the process down
}

/// A per-index temporary directory holding spill files.
///
/// Cloning shares the directory (spilled shards keep it alive through their own
/// handles); the directory and anything left in it are removed when the last handle
/// drops. Creation is lazy in [`crate::ShardedCosineIndex`] — an index that never
/// spills never touches the filesystem.
#[derive(Clone, Debug)]
pub struct SpillDir {
    inner: Arc<SpillDirInner>,
}

#[derive(Debug)]
struct SpillDirInner {
    path: PathBuf,
    next_file: AtomicU64,
}

impl Drop for SpillDirInner {
    fn drop(&mut self) {
        // Best-effort, panic-safe cleanup; `Drop` may run during an unwind and a
        // second panic here would abort the process.
        remove_quietly(&self.path, true);
    }
}

impl SpillDir {
    /// Creates a fresh, uniquely named spill directory under the system temp dir.
    pub fn create() -> io::Result<SpillDir> {
        static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sudowoodo-spill-{}-{n}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(SpillDir {
            inner: Arc::new(SpillDirInner {
                path,
                next_file: AtomicU64::new(0),
            }),
        })
    }

    /// The directory path (for diagnostics; contents are managed by the index).
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Reserves a fresh file path inside the directory (paths are never reused, so a
    /// shard spilled after a repack can never collide with a stale file).
    fn next_path(&self) -> PathBuf {
        let n = self.inner.next_file.fetch_add(1, Ordering::Relaxed);
        self.inner.path.join(format!("shard-{n}.bin"))
    }
}

/// Runs `attempt` up to [`FAULT_ATTEMPTS`] times with the shared exponential backoff
/// (1/2/4 ms) between tries. Corruption ([`StorageError::is_corrupt`]) is returned at
/// once — the bytes will not improve; the caller should quarantine the shard.
fn retrying<T>(mut attempt: impl FnMut() -> Result<T, StorageError>) -> Result<T, StorageError> {
    let mut last = None;
    for retry in 0..FAULT_ATTEMPTS {
        if retry > 0 {
            fault_backoff(retry - 1);
        }
        match attempt() {
            Ok(value) => return Ok(value),
            Err(e) if e.is_corrupt() => return Err(e),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// One shard payload serialized to disk, in either format (see the module docs).
///
/// Comes in two ownership flavours:
///
/// * **Owning** ([`SpilledShard::write`]) — a spill file under a [`SpillDir`]; the file
///   is deleted when the `SpilledShard` drops (shard repacked, faulted back to
///   residency, or index dropped).
/// * **Non-owning** ([`SpilledShard::open`]) — a payload file of a persistent snapshot
///   ([`crate::snapshot`]); the handle reads it on demand but never deletes it, so one
///   snapshot directory can back any number of loaded indexes (across processes).
///
/// Two caches live on the handle, each established on first use. A failure is never
/// cached — the next query retries from scratch, so a transient fault costs retries,
/// never a permanently broken shard:
///
/// * `map` — the validated [`MappedPayload`] the query path borrows the exact tier from;
/// * `quant` — a `SWSHARDQ1` file's codes, scales and norms decoded into the heap;
///   seeded for free when the handle came from spilling a resident quantized shard.
#[derive(Debug)]
pub struct SpilledShard {
    /// Keeps the spill directory alive as long as any owned file in it exists (never
    /// read — the handle's `Drop` ordering is its whole job). `None` for non-owning
    /// snapshot-backed handles.
    _dir: Option<SpillDir>,
    path: PathBuf,
    /// Whether the file is deleted when this handle drops.
    owns_file: bool,
    /// `true` for a `SWSHARDQ1` file, `false` for `SWSHARD1`.
    quantized: bool,
    rows: usize,
    cols: usize,
    map: OnceLock<MappedPayload>,
    quant: OnceLock<QuantizedMatrix>,
}

impl Drop for SpilledShard {
    fn drop(&mut self) {
        if self.owns_file {
            remove_quietly(&self.path, false);
        }
    }
}

/// Streams `values` through `put` as little-endian bytes, in bounded chunks so writing
/// a large shard never doubles its memory footprint.
fn put_le<T: Copy, const N: usize>(
    put: &mut impl FnMut(&[u8]) -> io::Result<()>,
    values: &[T],
    to_le: fn(T) -> [u8; N],
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(16 * 1024);
    for chunk in values.chunks(16 * 1024 / N) {
        buf.clear();
        for &value in chunk {
            buf.extend_from_slice(&to_le(value));
        }
        put(&buf)?;
    }
    Ok(())
}

/// Serializes a shard payload at `path` (see the module docs for both layouts):
/// `SWSHARD1` for a plain shard, `SWSHARDQ1` when `quant` carries the shard's i8 tier.
/// Appends the CRC-32 trailer. Shared by the transient spill path and the snapshot
/// writers.
///
/// Failpoint `snapshot.payload.torn`: writes the header (plus a quantized file's scales)
/// and roughly half the exact payload, then errors out without the codes or the
/// trailer — the on-disk shape of a crash mid-write, for both formats through one switch.
pub(crate) fn write_payload_file(
    path: &Path,
    exact: &Matrix,
    quant: Option<&QuantizedMatrix>,
) -> io::Result<()> {
    let torn = faults::fires("snapshot.payload.torn");
    let mut file = io::BufWriter::new(fs::File::create(path)?);
    let mut crc = Crc32::new();
    let mut put = |bytes: &[u8]| {
        crc.update(bytes);
        file.write_all(bytes)
    };
    match quant {
        None => put(MAGIC)?,
        Some(_) => {
            put(QMAGIC)?;
            put(&[0u8; 7])?;
        }
    }
    put_le(
        &mut put,
        &[exact.rows() as u64, exact.cols() as u64],
        u64::to_le_bytes,
    )?;
    if let Some(q) = quant {
        debug_assert_eq!((q.rows(), q.cols()), (exact.rows(), exact.cols()));
        put_le(
            &mut put,
            &[q.max_err_norm(), q.max_row_norm()],
            f32::to_le_bytes,
        )?;
        put_le(&mut put, q.scales(), f32::to_le_bytes)?;
    }
    let data = exact.data();
    let keep = if torn { data.len() / 2 } else { data.len() };
    put_le(&mut put, &data[..keep], f32::to_le_bytes)?;
    if let (Some(q), false) = (quant, torn) {
        put_le(&mut put, q.codes(), i8::to_le_bytes)?;
    }
    if torn {
        file.flush()?;
        return Err(io::Error::other(
            "failpoint snapshot.payload.torn: simulated crash mid-payload",
        ));
    }
    file.write_all(&crc.finish().to_le_bytes())?;
    file.flush()
}

impl SpilledShard {
    /// Serializes `exact` — with its i8 tier, as `SWSHARDQ1`, when `quant` is given —
    /// into a fresh file under `dir`. The returned handle owns the file and deletes it
    /// on drop; a quantized handle's `quant` cache is seeded from the in-memory copy, so
    /// spilling never has to read its own file back.
    ///
    /// Failpoint `spill.write.io_err`: fails before touching the filesystem (the shard
    /// simply stays resident — spilling is an optimization).
    pub fn write(
        dir: &SpillDir,
        exact: &Matrix,
        quant: Option<&QuantizedMatrix>,
    ) -> io::Result<SpilledShard> {
        if faults::fires("spill.write.io_err") {
            return Err(io::Error::other(
                "failpoint spill.write.io_err: injected spill-write failure",
            ));
        }
        let path = dir.next_path();
        write_payload_file(&path, exact, quant)?;
        let mut shard = Self::open_unchecked(path, quant.is_some(), exact.rows(), exact.cols());
        shard._dir = Some(dir.clone());
        shard.owns_file = true;
        if let Some(q) = quant {
            let _ = shard.quant.set(q.clone());
        }
        Ok(shard)
    }

    /// Opens an existing payload file (a snapshot shard) **without taking ownership**:
    /// the file is read back on demand exactly like a spill file, but never deleted by
    /// this handle.
    ///
    /// `quantized` (`SWSHARDQ1` vs `SWSHARD1`), `rows` and `cols` are what the snapshot
    /// manifest records; the file's own magic, header and CRC are verified against them
    /// whenever it is read. The file length is checked here so a truncated snapshot
    /// fails at load time, not mid-query.
    pub fn open(
        path: PathBuf,
        quantized: bool,
        rows: usize,
        cols: usize,
    ) -> Result<SpilledShard, StorageError> {
        let shard = Self::open_unchecked(path, quantized, rows, cols);
        let len = fs::metadata(&shard.path)
            .map_err(|e| StorageError::io(&shard.path, e))?
            .len();
        shard.layout(len)?;
        Ok(shard)
    }

    /// Like [`SpilledShard::open`] but without touching the filesystem — for building
    /// a **quarantined** shard over a payload that already failed validation, so the
    /// rest of a snapshot can load and serve around it.
    pub(crate) fn open_unchecked(
        path: PathBuf,
        quantized: bool,
        rows: usize,
        cols: usize,
    ) -> SpilledShard {
        SpilledShard {
            _dir: None,
            path,
            owns_file: false,
            quantized,
            rows,
            cols,
            map: OnceLock::new(),
            quant: OnceLock::new(),
        }
    }

    /// Copies the serialized payload to `dest` without deserializing it — how a spilled
    /// shard snapshots without faulting into memory. Copying a file onto itself (saving
    /// a snapshot-loaded index back into its own directory) is a no-op.
    pub(crate) fn copy_to(&self, dest: &Path) -> io::Result<()> {
        if same_file(&self.path, dest) {
            return Ok(());
        }
        fs::copy(&self.path, dest).map(|_| ())
    }

    /// The file layout the recorded format and shape imply, checked against the
    /// on-disk length `actual`.
    fn layout(&self, actual: u64) -> Result<Layout, StorageError> {
        let (rows, cols) = (self.rows, self.cols);
        let kind = if self.quantized {
            "quantized shard"
        } else {
            "shard"
        };
        let layout = Layout::of(self.quantized, rows, cols).ok_or_else(|| {
            StorageError::corrupt(
                &self.path,
                format!("a {rows}x{cols} {kind} overflows the addressable file size"),
            )
        })?;
        if actual != layout.len as u64 {
            return Err(StorageError::corrupt(
                &self.path,
                format!(
                    "{actual} bytes on disk, expected {} for a {rows}x{cols} {kind}",
                    layout.len
                ),
            ));
        }
        Ok(layout)
    }

    /// The one validating reader: checks the file length against the recorded format
    /// and shape, maps the file read-only, then checks the magic, the header shape,
    /// and the CRC-32 trailer over every preceding byte.
    ///
    /// Failpoint `spill.read.io_err`: fails the attempt before opening the file (the
    /// transient-fault shape: NFS hiccup, EINTR storm, evicted page).
    fn map_file(&self) -> Result<MappedPayload, StorageError> {
        let ioerr = |e| StorageError::io(&self.path, e);
        if faults::fires("spill.read.io_err") {
            return Err(ioerr(io::Error::other(
                "failpoint spill.read.io_err: injected spill-read failure",
            )));
        }
        let file = fs::File::open(&self.path).map_err(ioerr)?;
        let layout = self.layout(file.metadata().map_err(ioerr)?.len())?;
        let payload = MappedPayload::new(&file, layout).map_err(ioerr)?;
        let bytes = payload.bytes();
        if !bytes.starts_with(layout.magic) {
            let magic = String::from_utf8_lossy(layout.magic);
            return Err(StorageError::corrupt(
                &self.path,
                format!("bad magic (not a Sudowoodo {magic} shard file)"),
            ));
        }
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let shape = (field(layout.shape_at), field(layout.shape_at + 8));
        if shape != (self.rows as u64, self.cols as u64) {
            return Err(StorageError::corrupt(
                &self.path,
                "header shape disagrees with the index metadata",
            ));
        }
        let (body, trailer) = bytes.split_at(layout.len - TRAILER_LEN);
        if u32::from_le_bytes(trailer.try_into().unwrap()) != crc32(body) {
            return Err(StorageError::corrupt(
                &self.path,
                "CRC-32 mismatch (the payload bytes changed since they were written)",
            ));
        }
        Ok(payload)
    }

    /// Reads the exact matrix back out of a freshly validated mapping — every check of
    /// the reader runs again on each call.
    ///
    /// The returned matrix is bit-for-bit the one passed to [`SpilledShard::write`].
    pub fn load(&self) -> Result<Matrix, StorageError> {
        let payload = self.map_file()?;
        Ok(Matrix::from_vec(
            self.rows,
            self.cols,
            payload.exact().to_vec(),
        ))
    }

    /// [`SpilledShard::load`] with a short exponential backoff (1/2/4 ms) for transient
    /// I/O faults. Corruption ([`StorageError::is_corrupt`]) is **not** retried.
    pub fn load_retrying(&self) -> Result<Matrix, StorageError> {
        retrying(|| self.load())
    }

    /// The shared, validated mapping of this payload, established on first use with
    /// the same retry backoff as [`SpilledShard::load_retrying`].
    pub fn mapped(&self) -> Result<&MappedPayload, StorageError> {
        if let Some(mapped) = self.map.get() {
            return Ok(mapped);
        }
        let fresh = retrying(|| self.map_file())?;
        // A concurrent query may have won the race; the loser's mapping is released
        // harmlessly (read-only — dropping a duplicate changes nothing).
        Ok(self.map.get_or_init(|| fresh))
    }

    /// The quantized tier of a `SWSHARDQ1` file (`None` for `SWSHARD1`): codes, scales
    /// and norms, decoded from the cached mapping into the heap on first use.
    pub fn quant(&self) -> Option<Result<&QuantizedMatrix, StorageError>> {
        if !self.quantized {
            return None;
        }
        if let Some(q) = self.quant.get() {
            return Some(Ok(q));
        }
        Some(self.mapped().map(|mapped| {
            let (layout, bytes) = (mapped.layout, mapped.bytes());
            let f32_le = |b: &[u8]| f32::from_le_bytes(b.try_into().unwrap());
            let scales = bytes[QHEADER_LEN..layout.exact_at]
                .chunks_exact(4)
                .map(f32_le)
                .collect();
            let codes = bytes[layout.codes_at()..layout.len - TRAILER_LEN]
                .iter()
                .map(|&b| b as i8)
                .collect();
            let (rows, cols) = (self.rows, self.cols);
            let fresh = QuantizedMatrix::from_parts(
                rows,
                cols,
                codes,
                scales,
                f32_le(&bytes[32..36]),
                f32_le(&bytes[36..40]),
            );
            // A concurrent scan may have won the race; both decoded the same bytes.
            self.quant.get_or_init(|| fresh)
        }))
    }

    /// `true` when the file is a quantized `SWSHARDQ1` payload.
    pub fn is_quantized(&self) -> bool {
        self.quantized
    }

    /// Rows of the serialized matrix (including zero padding rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the serialized matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The on-disk location of the payload (diagnostics; the file is managed by this
    /// handle when owned, by the snapshot directory otherwise).
    pub fn file_path(&self) -> &Path {
        &self.path
    }
}

/// The validated bytes of one payload file, in either format: a read-only `mmap(2)` on
/// little-endian Unix — shared across every index (and every *process*) serving the same
/// snapshot, so the faulted pages live in the OS page cache once instead of one heap
/// copy per process per query tile — and a heap copy of the file elsewhere.
/// [`SpilledShard`]'s reader verifies the header, shape and CRC-32 trailer once when it
/// is established; after that a query borrows the exact f32 tier straight out of it
/// ([`MappedPayload::view`]) with zero copies.
#[derive(Debug)]
pub struct MappedPayload {
    layout: Layout,
    /// The first of the file's `layout.len` bytes.
    bytes: *const u8,
    /// The exact tier's `rows * cols` native-endian, 4-byte-aligned f32s.
    exact: *const f32,
    /// What `bytes` and `exact` point into where the file is not mapped: the file bytes
    /// and the exact tier decoded from them. `None` for a mapping (unmapped on drop).
    _heap: Option<(Vec<u8>, Vec<f32>)>,
}

// SAFETY: the payload is immutable for its whole lifetime — a PROT_READ mapping of a
// file that is never rewritten in place (spill paths are never reused; snapshots are
// write-once), or heap buffers only this value owns — so concurrent reads from any
// thread are safe.
unsafe impl Send for MappedPayload {}
unsafe impl Sync for MappedPayload {}

#[cfg(all(unix, target_endian = "little"))]
mod sys {
    //! The two `mmap(2)` symbols this module needs, declared directly against libc
    //! (which `std` already links) — no new dependency, per the workspace's offline
    //! build constraint.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 0x01;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl MappedPayload {
    /// Maps `layout.len` bytes of `file` read-only and shared (never 0: every payload
    /// carries its header and trailer). The exact tier is reinterpreted in place: the
    /// on-disk floats are little-endian and its offset is 4-byte aligned from the
    /// page-aligned mapping base.
    #[cfg(all(unix, target_endian = "little"))]
    fn new(file: &fs::File, layout: Layout) -> io::Result<MappedPayload> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh PROT_READ/MAP_SHARED mapping of a file we hold open; the
        // kernel validates the fd and length, and failure is reported via MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                layout.len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let bytes = ptr as *const u8;
        Ok(MappedPayload {
            layout,
            bytes,
            exact: bytes.wrapping_add(layout.exact_at) as *const f32,
            _heap: None,
        })
    }

    /// Reads `layout.len` bytes of `file` into the heap and decodes the exact tier from
    /// them — the targets without the zero-copy mapping (non-Unix, or big-endian, where
    /// the little-endian floats cannot be reinterpreted in place) serve the same
    /// validated bytes from a copy.
    #[cfg(not(all(unix, target_endian = "little")))]
    fn new(mut file: &fs::File, layout: Layout) -> io::Result<MappedPayload> {
        use std::io::Read;
        let mut bytes = vec![0u8; layout.len];
        file.read_exact(&mut bytes)?;
        let exact: Vec<f32> = bytes[layout.exact_at..layout.codes_at()]
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        Ok(MappedPayload {
            layout,
            bytes: bytes.as_ptr(),
            exact: exact.as_ptr(),
            _heap: Some((bytes, exact)),
        })
    }

    /// The whole file, header and trailer included.
    fn bytes(&self) -> &[u8] {
        // SAFETY: `bytes` points at `layout.len` live bytes (the mapping or the heap
        // copy), released only when `self` drops.
        unsafe { std::slice::from_raw_parts(self.bytes, self.layout.len) }
    }

    /// The exact row-major f32 tier, borrowed straight out of the page cache (or the
    /// heap copy).
    pub fn exact(&self) -> &[f32] {
        // SAFETY: `exact` points at `rows * cols` aligned f32s inside the live mapping
        // (whose length was validated) or the heap copy; every bit pattern is a valid
        // f32.
        unsafe { std::slice::from_raw_parts(self.exact, self.layout.rows * self.layout.cols) }
    }

    /// The exact tier as a borrowed matrix view for the scoring kernels.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.layout.rows, self.layout.cols, self.exact())
    }
}

#[cfg(all(unix, target_endian = "little"))]
impl Drop for MappedPayload {
    fn drop(&mut self) {
        // SAFETY: unmapping exactly the region `new` mapped; the pointers are never used
        // again (self is being dropped).
        unsafe {
            sys::munmap(self.bytes as *mut std::os::raw::c_void, self.layout.len);
        }
    }
}

/// `true` when the two paths resolve to the same existing file or directory (a path
/// that does not exist yet is never "the same"). Shared with [`crate::snapshot`] so
/// the canonicalize-and-compare logic cannot drift between the spill and save paths.
pub(crate) fn same_file(a: &Path, b: &Path) -> bool {
    match (fs::canonicalize(a), fs::canonicalize(b)) {
        (Ok(ca), Ok(cb)) => ca == cb,
        _ => false,
    }
}

// ---- i8 quantization -----------------------------------------------------------------

/// Rounds a non-negative f64 up into an f32 that is **guaranteed ≥ the true value** —
/// the `as f32` cast rounds to nearest, so a measured error bound could otherwise
/// round *down* and break admissibility. Mirrors the `.next_up()` radius idiom of
/// [`crate::routing`].
fn round_up_to_f32(x: f64) -> f32 {
    let f = x as f32;
    if (f as f64) < x {
        f.next_up()
    } else {
        f
    }
}

/// An i8 (per-row scale) quantized copy of a shard matrix — the first tier of the
/// two-stage quantized scan.
///
/// Each row `x` is encoded as `code[j] = round(x[j] / s)` with `s = max_j |x[j]| / 127`
/// (zero rows get scale 0 and all-zero codes), so `s * code` reconstructs the row to
/// within one half-step per coordinate. Two **measured** (not estimated) per-shard
/// norms travel with the codes and feed the admissible candidate bound in
/// [`crate::routing`]:
///
/// * `max_err_norm` — `max_r ‖x_r − s_r·c_r‖₂`, the worst row reconstruction error;
/// * `max_row_norm` — `max_r ‖x_r‖₂`, the worst row magnitude.
///
/// Both are accumulated in f64 and rounded **up** into f32, so the bound derived from
/// them can only be slacker than reality, never tighter.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
    max_err_norm: f32,
    max_row_norm: f32,
}

impl QuantizedMatrix {
    /// Quantizes `matrix` row by row, measuring the reconstruction-error norms as it
    /// goes. Deterministic: the same matrix always produces the same codes, scales,
    /// and norms on every platform (scalar f32/f64 arithmetic only).
    pub fn quantize(matrix: &Matrix) -> QuantizedMatrix {
        let (rows, cols) = (matrix.rows(), matrix.cols());
        let mut codes = vec![0i8; rows * cols];
        let mut scales = vec![0f32; rows];
        let mut max_err_sq = 0f64;
        let mut max_norm_sq = 0f64;
        for r in 0..rows {
            let row = matrix.row(r);
            let (scale, err_sq, norm_sq) =
                quantize_row_into(row, &mut codes[r * cols..(r + 1) * cols]);
            scales[r] = scale;
            max_err_sq = max_err_sq.max(err_sq);
            max_norm_sq = max_norm_sq.max(norm_sq);
        }
        QuantizedMatrix {
            rows,
            cols,
            codes,
            scales,
            max_err_norm: round_up_to_f32(max_err_sq.sqrt()),
            max_row_norm: round_up_to_f32(max_norm_sq.sqrt()),
        }
    }

    /// Rebuilds a quantized matrix from its serialized parts (the `SWSHARDQ1` loader).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        codes: Vec<i8>,
        scales: Vec<f32>,
        max_err_norm: f32,
        max_row_norm: f32,
    ) -> QuantizedMatrix {
        QuantizedMatrix {
            rows,
            cols,
            codes,
            scales,
            max_err_norm,
            max_row_norm,
        }
    }

    /// Number of encoded rows (including zero padding rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of encoded columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The i8 codes of row `r`.
    #[inline]
    pub fn code_row(&self, r: usize) -> &[i8] {
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// The reconstruction scale of row `r` (`row ≈ scale * codes`).
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// All row scales (the serialization order of the `SWSHARDQ1` scales section).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// All codes, row-major (the serialization order of the codes section).
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Worst-row reconstruction error norm `max_r ‖x_r − s_r·c_r‖₂` (rounded up).
    pub fn max_err_norm(&self) -> f32 {
        self.max_err_norm
    }

    /// Worst-row magnitude `max_r ‖x_r‖₂` (rounded up).
    pub fn max_row_norm(&self) -> f32 {
        self.max_row_norm
    }

    /// Heap bytes this quantized copy occupies (codes + scales) — what the
    /// memory-density bench compares against the 4 bytes/coordinate f32 payload.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.codes.as_slice()) + std::mem::size_of_val(self.scales.as_slice())
    }
}

/// Quantizes one row into `out`, returning `(scale, err_sq, norm_sq)` with the error
/// and norm accumulated in f64. Shared by the shard-side [`QuantizedMatrix::quantize`]
/// and the query-side [`QuantizedRow::from_row`] so the two sides can never disagree
/// on the rounding rule (round half away from zero, clamped to ±127).
fn quantize_row_into(row: &[f32], out: &mut [i8]) -> (f32, f64, f64) {
    let amax = row.iter().fold(0f32, |m, &x| m.max(x.abs()));
    let mut err_sq = 0f64;
    let mut norm_sq = 0f64;
    if amax <= 0.0 || !amax.is_finite() {
        // A zero row stays all-zero codes with scale 0 (exactly reconstructed); a
        // non-finite row cannot be coded, so it degrades to "everything is error" —
        // still admissible because the measured norms absorb it.
        for x in row {
            norm_sq += (*x as f64) * (*x as f64);
        }
        out.fill(0);
        return (0.0, norm_sq, norm_sq);
    }
    let scale = amax / 127.0;
    for (c, &x) in out.iter_mut().zip(row.iter()) {
        let code = ((x as f64) / (scale as f64)).round().clamp(-127.0, 127.0);
        *c = code as i8;
        let delta = (x as f64) - (scale as f64) * code;
        err_sq += delta * delta;
        norm_sq += (x as f64) * (x as f64);
    }
    (scale, err_sq, norm_sq)
}

/// A query row quantized with the same rule as [`QuantizedMatrix`], plus the measured
/// norms the candidate bound needs. Built lazily, once per query tile, and only when a
/// quantized shard is actually scanned.
#[derive(Clone, Debug)]
pub struct QuantizedRow {
    /// i8 codes of the (pre-normalized) query row.
    pub codes: Vec<i8>,
    /// Reconstruction scale (`row ≈ scale * codes`).
    pub scale: f32,
    /// Measured `‖row − scale·codes‖₂`, rounded up.
    pub err_norm: f32,
    /// Measured `‖row‖₂`, rounded up.
    pub norm: f32,
}

impl QuantizedRow {
    /// Quantizes one query row (the caller passes the row already scaled by its
    /// inverse norm, so these codes approximate the *unit* query vector).
    pub fn from_row(row: &[f32]) -> QuantizedRow {
        let mut codes = vec![0i8; row.len()];
        let (scale, err_sq, norm_sq) = quantize_row_into(row, &mut codes);
        QuantizedRow {
            codes,
            scale,
            err_norm: round_up_to_f32(err_sq.sqrt()),
            norm: round_up_to_f32(norm_sq.sqrt()),
        }
    }
}

/// Where a shard's payload currently lives.
///
/// The surrounding shard metadata (stable ids, tombstones, routing statistics) always
/// stays resident — only the `rows x dim` payload spills, because that is where
/// virtually all of a shard's memory goes.
#[derive(Debug)]
pub enum ShardStorage {
    /// The payload is in memory (the hot state).
    Resident {
        /// The exact f32 matrix — the bit-identical source of truth for scoring,
        /// rescoring, mutation, and snapshots.
        exact: Matrix,
        /// The i8 codes + per-row scales + measured error norms the first-stage scan
        /// reads, when the shard is quantized.
        quant: Option<QuantizedMatrix>,
    },
    /// The payload (both tiers when quantized) is on disk and read back per use; the
    /// small quantized tier is decoded into a heap cache on first scan, the exact tier
    /// is served through the shared mapping.
    Spilled(SpilledShard),
}

impl Clone for ShardStorage {
    /// Cloning faults spilled storage back into memory: spill files are single-owner
    /// (deleted on drop), so the clone gets an independent resident copy (quantized
    /// storage stays quantized — both tiers are cloned or loaded).
    ///
    /// # Panics
    /// `Clone` has no error channel, so an unreadable spill file (after the retry
    /// backoff) still panics here — with the typed [`StorageError`] message. Query
    /// paths never clone storage; this is only reachable through an explicit
    /// [`crate::ShardedCosineIndex`] clone.
    fn clone(&self) -> Self {
        match self {
            ShardStorage::Resident { exact, quant } => ShardStorage::Resident {
                exact: exact.clone(),
                quant: quant.clone(),
            },
            ShardStorage::Spilled(s) => {
                let faulted = s.load_retrying().and_then(|exact| {
                    let quant = s.quant().transpose()?.cloned();
                    Ok(ShardStorage::Resident { exact, quant })
                });
                faulted.unwrap_or_else(|e| panic!("ShardStorage::clone: {e}"))
            }
        }
    }
}

impl ShardStorage {
    /// Rows of the stored matrix (including zero padding rows).
    pub fn rows(&self) -> usize {
        match self {
            ShardStorage::Resident { exact, .. } => exact.rows(),
            ShardStorage::Spilled(s) => s.rows(),
        }
    }

    /// Columns of the stored matrix.
    pub fn cols(&self) -> usize {
        match self {
            ShardStorage::Resident { exact, .. } => exact.cols(),
            ShardStorage::Spilled(s) => s.cols(),
        }
    }

    /// Bytes the **exact f32** payload occupies (or would occupy) in memory, regardless
    /// of where it currently lives — the per-shard quantity the residency budget weighs
    /// when deciding what to keep resident and what to fault back.
    pub fn payload_bytes(&self) -> usize {
        self.rows() * self.cols() * std::mem::size_of::<f32>()
    }

    /// `true` when the exact payload is in memory.
    pub fn is_resident(&self) -> bool {
        matches!(self, ShardStorage::Resident { .. })
    }

    /// `true` when this storage carries a quantized tier (resident or spilled).
    pub fn is_quantized(&self) -> bool {
        match self {
            ShardStorage::Resident { quant, .. } => quant.is_some(),
            ShardStorage::Spilled(s) => s.is_quantized(),
        }
    }

    /// Bytes of **exact f32** payload currently held in memory (0 when spilled) — the
    /// quantity the residency budget is accounted in. The quantized tier is tracked
    /// separately by [`ShardStorage::quantized_payload_bytes`]: it is metadata-sized
    /// (a quarter of the payload) and deliberately outside the budget, like the
    /// routing statistics.
    pub fn resident_bytes(&self) -> usize {
        match self {
            ShardStorage::Resident { exact, .. } => std::mem::size_of_val(exact.data()),
            ShardStorage::Spilled(_) => 0,
        }
    }

    /// Heap bytes of the quantized tier (codes + scales), 0 for plain f32 storage and
    /// for quantized spills whose cache has not been decoded yet — what the
    /// memory-density bench sums against [`ShardStorage::payload_bytes`].
    pub fn quantized_payload_bytes(&self) -> usize {
        let quant = match self {
            ShardStorage::Resident { quant, .. } => quant.as_ref(),
            ShardStorage::Spilled(s) => s.quant.get(),
        };
        quant.map_or(0, QuantizedMatrix::heap_bytes)
    }

    /// The quantized tier for the first-stage scan: `None` for plain f32 storage,
    /// otherwise the codes/scales (decoding the spilled cache on first use).
    ///
    /// # Errors
    /// The inner `Result` carries the same contract as [`ShardStorage::matrix`]: a
    /// spilled quantized payload that stayed unreadable through the retries — the
    /// caller quarantines the shard exactly like an exact-tier fault.
    pub fn quant(&self) -> Option<Result<&QuantizedMatrix, StorageError>> {
        match self {
            ShardStorage::Resident { quant, .. } => quant.as_ref().map(Ok),
            ShardStorage::Spilled(s) => s.quant(),
        }
    }

    /// The **exact** matrix, borrowed when resident and transiently loaded (with the
    /// retry backoff) when spilled. Quantized storage hands out its exact tier —
    /// mutation and legacy paths never see codes.
    ///
    /// # Errors
    /// A spilled shard whose file cannot be read back even after
    /// [`SpilledShard::load_retrying`] — the caller decides whether that degrades one
    /// query (quarantine) or the whole operation.
    pub fn matrix(&self) -> Result<Cow<'_, Matrix>, StorageError> {
        match self {
            ShardStorage::Resident { exact, .. } => Ok(Cow::Borrowed(exact)),
            ShardStorage::Spilled(s) => s.load_retrying().map(Cow::Owned),
        }
    }

    /// The **query-path** view of the exact tier: borrowed from resident memory, or
    /// from the shared validated mapping of a spilled shard ([`SpilledShard::mapped`]) —
    /// so a spilled shard's working set is OS page cache shared across every process
    /// serving the same snapshot, not a fresh heap copy per query tile. This is what
    /// the rescore stage (and any full scan) scores against.
    ///
    /// Mutating paths (compaction, ingestion, cloning) keep using
    /// [`ShardStorage::matrix`] / [`ShardStorage::make_resident`].
    ///
    /// # Errors
    /// Same contract as [`ShardStorage::matrix`]: the shard stayed unreadable (or
    /// unmappable) through the retries.
    pub fn query_payload(&self) -> Result<MatrixView<'_>, StorageError> {
        match self {
            ShardStorage::Resident { exact, .. } => Ok(exact.view()),
            ShardStorage::Spilled(s) => s.mapped().map(MappedPayload::view),
        }
    }

    /// The payload file backing spilled storage (`None` when resident) — what the
    /// snapshot and delta savers compare against their target and base directories.
    pub fn spill_file(&self) -> Option<&Path> {
        match self {
            ShardStorage::Resident { .. } => None,
            ShardStorage::Spilled(s) => Some(s.file_path()),
        }
    }

    /// Writes this shard's payload file to `dest`: serialized from memory when
    /// resident, copied byte for byte (no deserialization) when spilled.
    pub(crate) fn write_to(&self, dest: &Path) -> io::Result<()> {
        match self {
            ShardStorage::Resident { exact, quant } => {
                write_payload_file(dest, exact, quant.as_ref())
            }
            ShardStorage::Spilled(s) => s.copy_to(dest),
        }
    }

    /// Spills the payload (both tiers when quantized) to a fresh file under `dir`.
    /// No-op when already spilled. On I/O failure the matrix simply stays resident
    /// (spilling is an optimization; the error is returned for reporting).
    pub fn spill(&mut self, dir: &SpillDir) -> io::Result<()> {
        if let ShardStorage::Resident { exact, quant } = self {
            *self = ShardStorage::Spilled(SpilledShard::write(dir, exact, quant.as_ref())?);
        }
        Ok(())
    }

    /// Faults the exact matrix back into memory for mutation (ingestion into a
    /// partially filled tail shard). An owned spill file is deleted; a non-owning
    /// snapshot payload is left on disk for other loads of the same snapshot.
    ///
    /// The quantized tier is dropped here: mutation invalidates the codes, and the
    /// next `compact()` re-quantizes under the index's current quantization setting.
    ///
    /// # Errors
    /// An unreadable spill file (after the retry backoff); the storage is left
    /// spilled and untouched.
    pub fn make_resident(&mut self) -> Result<&mut Matrix, StorageError> {
        if let ShardStorage::Spilled(s) = self {
            let exact = s.load_retrying()?;
            *self = ShardStorage::Resident { exact, quant: None };
        }
        match self {
            ShardStorage::Resident { exact, quant } => {
                *quant = None;
                Ok(exact)
            }
            ShardStorage::Spilled(_) => unreachable!("made resident above"),
        }
    }

    /// Quantizes resident storage in place (builds the i8 tier next to the untouched
    /// exact matrix). No-op for already-quantized or spilled storage — spilled shards
    /// are re-quantized when compaction rebuilds them resident.
    pub(crate) fn quantize_resident(&mut self) {
        if let ShardStorage::Resident { exact, quant } = self {
            quant.get_or_insert_with(|| QuantizedMatrix::quantize(exact));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Failpoints are process-global, so every test that arms them *or* touches spill
    /// files (spilling, reading spilled shards, snapshots) serializes here — a test
    /// reading a spill file while another has `spill.read.io_err` armed would see
    /// its faults. Arming tests also disarm on drop through [`DisarmGuard`].
    pub(crate) fn fault_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) struct DisarmGuard;
    impl Drop for DisarmGuard {
        fn drop(&mut self) {
            faults::disarm_all();
        }
    }

    fn fixture_matrix() -> Matrix {
        // Values chosen to catch any lossy serialization: negatives, -0.0, subnormals,
        // and values whose decimal round-trip would differ from a bit round-trip.
        let mut data = vec![
            0.1f32,
            -0.0,
            1.0e-40,
            std::f32::consts::PI,
            -2.5e7,
            f32::MIN_POSITIVE,
        ];
        let mut state = 0x1234_5678_u64;
        while data.len() < 12 * 5 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push(((state >> 33) as f32 / (1u64 << 30) as f32) - 2.0);
        }
        Matrix::from_vec(12, 5, data)
    }

    /// Both payload formats (`quantized` = `SWSHARDQ1`), for the tests that must hold
    /// for each: the reader is shared, so every corruption case runs on both.
    const FORMATS: [bool; 2] = [false, true];

    /// Spills the fixture in the given format; returns the owning handle and the exact
    /// matrix it holds.
    fn spill_fixture(dir: &SpillDir, quantized: bool) -> (SpilledShard, Matrix) {
        let exact = fixture_matrix();
        let quant = quantized.then(|| QuantizedMatrix::quantize(&exact));
        let spilled = SpilledShard::write(dir, &exact, quant.as_ref()).expect("spill");
        (spilled, exact)
    }

    /// A fresh non-owning handle on `spilled`'s file: empty caches, so every read goes
    /// through the reader.
    fn reopen(spilled: &SpilledShard) -> SpilledShard {
        SpilledShard::open_unchecked(
            spilled.path.clone(),
            spilled.quantized,
            spilled.rows,
            spilled.cols,
        )
    }

    /// Asserts that the copying read, the retrying read, and the query-path mapping of a
    /// fresh handle all reject `spilled`'s file as corrupt, with `what` in the message.
    fn assert_corrupt(spilled: &SpilledShard, what: &str) {
        let fresh = reopen(spilled);
        let errs = [
            fresh.load().expect_err("load must fail"),
            fresh
                .load_retrying()
                .expect_err("corruption is not retried"),
            fresh.mapped().expect_err("the mapping must fail too"),
        ];
        for err in errs {
            assert!(err.is_corrupt(), "quantized={}: {err}", spilled.quantized);
            assert!(
                err.to_string().contains(what),
                "expected {what:?}, got: {err}"
            );
        }
    }

    #[test]
    fn spill_round_trip_is_byte_identical() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        for quantized in FORMATS {
            let (spilled, matrix) = spill_fixture(&dir, quantized);
            let loaded = spilled.load().expect("fault");
            assert_eq!(
                (loaded.rows(), loaded.cols()),
                (matrix.rows(), matrix.cols())
            );
            for (i, (a, b)) in matrix.data().iter().zip(loaded.data().iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "element {i} changed bits across the spill round trip"
                );
            }
        }
    }

    #[test]
    fn storage_transitions_preserve_the_matrix_and_account_bytes() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        let matrix = fixture_matrix();
        let bytes = matrix.data().len() * 4;
        let mut storage = ShardStorage::Resident {
            exact: matrix.clone(),
            quant: None,
        };
        assert!(storage.is_resident());
        assert_eq!(storage.resident_bytes(), bytes);

        storage.spill(&dir).expect("spill");
        assert!(!storage.is_resident());
        assert_eq!(storage.resident_bytes(), 0);
        assert_eq!(storage.rows(), matrix.rows());
        assert_eq!(
            *storage.matrix().expect("transient fault"),
            matrix,
            "transient fault must match"
        );

        // Cloning a spilled storage produces an independent resident copy.
        let cloned = storage.clone();
        assert!(cloned.is_resident());
        assert_eq!(*cloned.matrix().expect("resident"), matrix);

        let faulted = storage.make_resident().expect("fault back");
        assert_eq!(*faulted, matrix);
        assert!(storage.is_resident());
        assert_eq!(storage.resident_bytes(), bytes);
    }

    #[test]
    fn files_and_directory_are_cleaned_up_on_drop() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        let dir_path = dir.path().to_path_buf();
        let spilled = SpilledShard::write(&dir, &fixture_matrix(), None).expect("spill");
        let file_path = spilled.path.clone();
        assert!(file_path.exists());
        drop(spilled);
        assert!(
            !file_path.exists(),
            "spill file must be removed with its shard"
        );
        assert!(dir_path.exists(), "dir survives while a handle exists");
        drop(dir);
        assert!(
            !dir_path.exists(),
            "dir must be removed with the last handle"
        );
    }

    #[test]
    fn open_is_non_owning_and_validates_length() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        let matrix = fixture_matrix();
        let owned = SpilledShard::write(&dir, &matrix, None).expect("spill");
        // Detach the file from the owning handle by copying it aside.
        let snapshot_path = dir.path().join("snapshot-copy.bin");
        owned.copy_to(&snapshot_path).expect("copy payload");

        let (rows, cols) = (matrix.rows(), matrix.cols());
        let opened =
            SpilledShard::open(snapshot_path.clone(), false, rows, cols).expect("open payload");
        assert_eq!(opened.load().expect("load"), matrix);
        assert_eq!(opened.file_path(), snapshot_path.as_path());
        drop(opened);
        assert!(
            snapshot_path.exists(),
            "a non-owning handle must leave the file on disk"
        );

        // Copying a file onto itself (snapshot re-saved into its own dir) is a no-op.
        let reopened = SpilledShard::open(snapshot_path.clone(), false, rows, cols).unwrap();
        reopened.copy_to(&snapshot_path).expect("self-copy");
        assert_eq!(reopened.load().expect("load after self-copy"), matrix);

        // A wrong manifest shape or format is caught at open time, before any query
        // faults.
        for (quantized, rows) in [(false, rows + 4), (true, rows)] {
            let err = SpilledShard::open(snapshot_path.clone(), quantized, rows, cols)
                .expect_err("bad shape must fail fast");
            assert!(err.is_corrupt(), "length mismatch is corruption: {err}");
            assert!(err.to_string().contains("bytes on disk"), "got: {err}");
        }
        // A shape whose file length overflows is corruption too, not a panic.
        let err = SpilledShard::open(snapshot_path, false, 1 << 62, cols)
            .expect_err("overflowing shape must fail");
        assert!(
            err.is_corrupt() && err.to_string().contains("overflows"),
            "got: {err}"
        );
    }

    #[test]
    fn corrupted_magic_is_rejected() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        for quantized in FORMATS {
            let (spilled, _) = spill_fixture(&dir, quantized);
            let mut bytes = fs::read(&spilled.path).unwrap();
            bytes[0] ^= 0xFF;
            fs::write(&spilled.path, &bytes).unwrap();
            assert_corrupt(&spilled, "bad magic");
        }
    }

    #[test]
    fn header_shape_mismatch_is_rejected() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        for quantized in FORMATS {
            let (spilled, matrix) = spill_fixture(&dir, quantized);
            // Rewrite the header's row count; the file length still matches the shape
            // the handle records, so only the header check can catch it.
            let layout = Layout::of(quantized, matrix.rows(), matrix.cols()).unwrap();
            let mut bytes = fs::read(&spilled.path).unwrap();
            let at = layout.shape_at;
            bytes[at..at + 8].copy_from_slice(&(matrix.rows() as u64 + 1).to_le_bytes());
            fs::write(&spilled.path, &bytes).unwrap();
            assert_corrupt(&spilled, "header shape disagrees");
        }
    }

    #[test]
    fn single_flipped_payload_bit_fails_the_crc() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        for quantized in FORMATS {
            let (spilled, matrix) = spill_fixture(&dir, quantized);
            let layout = Layout::of(quantized, matrix.rows(), matrix.cols()).unwrap();
            let pristine = fs::read(&spilled.path).unwrap();
            // One bit deep in the exact f32 tier, and (quantized) one in the codes.
            let mut targets = vec![(layout.exact_at + layout.codes_at()) / 2];
            if quantized {
                targets.push(layout.codes_at() + 3);
            }
            for at in targets {
                let mut bytes = pristine.clone();
                bytes[at] ^= 0x01;
                fs::write(&spilled.path, &bytes).unwrap();
                assert_corrupt(&spilled, "CRC-32");
            }
        }
    }

    #[test]
    fn truncated_payloads_fail_typed_at_open_and_on_read() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        for quantized in FORMATS {
            let (spilled, matrix) = spill_fixture(&dir, quantized);
            let mut bytes = fs::read(&spilled.path).unwrap();
            bytes.truncate(bytes.len() / 2);
            fs::write(&spilled.path, &bytes).unwrap();
            let err = SpilledShard::open(
                spilled.path.clone(),
                quantized,
                matrix.rows(),
                matrix.cols(),
            )
            .expect_err("torn file must fail fast");
            assert!(err.is_corrupt());
            assert!(err.to_string().contains("bytes on disk"), "got: {err}");
            // A handle opened before the tear reports the same corruption on read.
            assert_corrupt(&spilled, "bytes on disk");
        }
    }

    #[test]
    fn crc32_matches_the_iso_hdlc_check_value() {
        // The ISO-HDLC check value: crc32(b"123456789") == 0xCBF43926 (zlib, PNG, ...).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn vanished_spill_file_is_a_typed_io_error_with_the_path() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        for quantized in FORMATS {
            let (spilled, _) = spill_fixture(&dir, quantized);
            fs::remove_file(&spilled.path).unwrap();
            let fresh = reopen(&spilled);
            let errs = [
                fresh.load_retrying().expect_err("missing file must fail"),
                fresh.mapped().expect_err("missing file must not map"),
            ];
            for err in errs {
                assert!(!err.is_corrupt(), "a vanished file is an I/O fault");
                let msg = err.with_shard(3).to_string();
                assert!(msg.contains("shard 3"), "got: {msg}");
                assert!(msg.contains(".bin"), "got: {msg}");
            }
        }
    }

    #[test]
    fn injected_read_faults_fail_then_recover_within_the_retry_budget() {
        let _s = fault_lock();
        let _g = DisarmGuard;
        let dir = SpillDir::create().expect("create spill dir");
        for quantized in FORMATS {
            let (spilled, matrix) = spill_fixture(&dir, quantized);

            // A bounded transient fault: the single-attempt read fails, the retry loop
            // rides it out — on the copying read and on the query-path mapping.
            faults::arm("spill.read.io_err", faults::Policy::Times(2));
            assert!(spilled.load().is_err());
            assert_eq!(spilled.load_retrying().expect("retries recover"), matrix);
            faults::arm("spill.read.io_err", faults::Policy::Times(2));
            let fresh = reopen(&spilled);
            let view = fresh.mapped().expect("retries recover").view().to_matrix();
            assert_eq!(view, matrix);
            if quantized {
                let expected = QuantizedMatrix::quantize(&matrix);
                assert_eq!(fresh.quant().unwrap().expect("decoded"), &expected);
            }
            faults::disarm("spill.read.io_err");

            // A durable fault exhausts the retries and surfaces the injected error.
            faults::arm("spill.read.io_err", faults::Policy::Always);
            let err = spilled.load_retrying().expect_err("durable fault");
            assert!(err.to_string().contains("spill.read.io_err"), "got: {err}");
            let err = reopen(&spilled).mapped().expect_err("durable fault");
            assert!(err.to_string().contains("spill.read.io_err"), "got: {err}");
            faults::disarm("spill.read.io_err");
        }
    }

    #[test]
    fn quantized_spill_round_trip_is_byte_identical_on_both_tiers() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        let (spilled, exact) = spill_fixture(&dir, true);
        let quant = QuantizedMatrix::quantize(&exact);
        // The seeded cache answers without re-reading the file; a fresh handle decodes
        // the same tier from the file.
        assert_eq!(spilled.quant().unwrap().expect("seeded"), &quant);
        let fresh = reopen(&spilled);
        assert_eq!(
            fresh.quant().unwrap().expect("decoded"),
            &quant,
            "quantized tier must round-trip exactly"
        );
        let e2 = fresh.load().expect("fault");
        for (i, (a, b)) in exact.data().iter().zip(e2.data().iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "exact element {i} changed bits across the quantized round trip"
            );
        }
        // The mapped exact tier serves the same bits.
        assert_eq!(spilled.mapped().expect("map").view().to_matrix(), exact);
        // A plain file has no quantized tier.
        assert!(spill_fixture(&dir, false).0.quant().is_none());
    }

    #[test]
    fn quantization_reconstructs_rows_within_the_measured_error_norm() {
        let exact = fixture_matrix();
        let quant = QuantizedMatrix::quantize(&exact);
        for r in 0..exact.rows() {
            let row = exact.row(r);
            let s = quant.scale(r) as f64;
            let err_sq: f64 = row
                .iter()
                .zip(quant.code_row(r))
                .map(|(&x, &c)| {
                    let d = x as f64 - s * c as f64;
                    d * d
                })
                .sum();
            assert!(
                err_sq.sqrt() <= quant.max_err_norm() as f64,
                "row {r} error {} exceeds the claimed bound {}",
                err_sq.sqrt(),
                quant.max_err_norm()
            );
            let norm_sq: f64 = row.iter().map(|&x| (x as f64) * (x as f64)).sum();
            assert!(norm_sq.sqrt() <= quant.max_row_norm() as f64);
        }
    }

    #[test]
    fn quantized_storage_transitions_account_both_tiers() {
        let _s = fault_lock();
        let dir = SpillDir::create().expect("create spill dir");
        let exact = fixture_matrix();
        let bytes = exact.data().len() * 4;
        let mut storage = ShardStorage::Resident {
            exact: exact.clone(),
            quant: None,
        };
        assert_eq!(storage.quantized_payload_bytes(), 0);

        storage.quantize_resident();
        assert!(storage.is_resident() && storage.is_quantized());
        assert_eq!(storage.resident_bytes(), bytes);
        let qbytes = exact.rows() * exact.cols() + exact.rows() * 4;
        assert_eq!(storage.quantized_payload_bytes(), qbytes);
        assert_eq!(*storage.matrix().expect("exact tier"), exact);

        storage.spill(&dir).expect("spill");
        assert!(!storage.is_resident() && storage.is_quantized());
        assert_eq!(storage.resident_bytes(), 0);
        // The spill seeded the quantized cache, so its bytes are still resident.
        assert_eq!(storage.quantized_payload_bytes(), qbytes);
        assert_eq!(
            storage.query_payload().expect("exact view").to_matrix(),
            exact
        );

        // Cloning a quantized spill produces an independent quant-resident copy.
        let cloned = storage.clone();
        assert!(cloned.is_resident() && cloned.is_quantized());
        assert_eq!(*cloned.matrix().expect("resident"), exact);

        // Faulting back for mutation drops the (soon stale) quantized tier.
        let faulted = storage.make_resident().expect("fault back");
        assert_eq!(*faulted, exact);
        assert!(storage.is_resident() && !storage.is_quantized());

        // Making quant-resident storage resident drops the tier without touching the
        // exact matrix.
        storage.quantize_resident();
        storage.make_resident().expect("already resident");
        assert!(!storage.is_quantized());
        assert_eq!(*storage.matrix().expect("still exact"), exact);
    }

    #[test]
    fn injected_write_faults_keep_the_shard_resident() {
        let _s = fault_lock();
        let _g = DisarmGuard;
        let dir = SpillDir::create().expect("create spill dir");
        let mut storage = ShardStorage::Resident {
            exact: fixture_matrix(),
            quant: None,
        };
        faults::arm("spill.write.io_err", faults::Policy::Once);
        assert!(storage.spill(&dir).is_err(), "injected write fault");
        assert!(storage.is_resident(), "a failed spill must not lose data");
        storage.spill(&dir).expect("next spill succeeds");
        assert!(!storage.is_resident());
    }
}
