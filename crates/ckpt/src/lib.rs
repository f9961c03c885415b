#![warn(missing_docs)]

//! Versioned binary checkpoints of warmed machine state, plus the disk
//! blob cache the bench harness persists memoized results into.
//!
//! A checkpoint file is a small container format:
//!
//! ```text
//! magic     "NWOC"                      4 bytes
//! version   format version              u16 LE
//! salt      code-version salt           u64 LE
//! count     number of sections         u32 LE
//! section*  name-len u16, name bytes,
//!           payload-len u64, crc32 u32,
//!           payload bytes
//! ```
//!
//! Every section carries its own CRC32 so corruption is localized and
//! detected *before* any state is mutated; [`CheckpointReader::from_bytes`]
//! verifies every checksum up front. The `salt` ties a file to the code
//! revision that wrote it — [`SimConfig::fingerprint`]-style Debug-format
//! hashes are stable within a build but not across versions, so a salt
//! mismatch means "regenerate", never "trust".
//!
//! Subsystems participate by implementing [`Checkpointable`]: `save`
//! serializes into a [`SectionWriter`], `restore` reads the same fields
//! back from a [`SectionReader`] in the same order. Restore is strictly
//! validated: every decode failure surfaces as a typed [`CkptError`],
//! never as garbage state or a panic.
//!
//! [`CacheDir`] is the storage layer underneath both `sim --ckpt-out`
//! files and the harness's `NWO_CACHE_DIR` disk memo cache (see
//! `docs/checkpointing.md`).
//!
//! [`SimConfig::fingerprint`]: https://docs.rs/nwo-sim

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// File magic: the first four bytes of every checkpoint.
pub const MAGIC: [u8; 4] = *b"NWOC";

/// Container format version. Bump on incompatible *container* layout
/// changes (section framing, header fields).
pub const FORMAT_VERSION: u16 = 1;

/// Section-payload layout revision. Bump whenever any `Checkpointable`
/// impl changes its field order or encoding; it feeds [`code_salt`] so
/// stale files are rejected instead of misparsed.
const LAYOUT_REV: u64 = 3;

/// The code-version salt baked into every checkpoint written by this
/// build: a hash of the crate version and the payload-layout revision.
/// Files carrying a different salt are rejected with
/// [`CkptError::StaleSalt`].
pub fn code_salt() -> u64 {
    let tag = concat!(env!("CARGO_PKG_VERSION"), "+layout=");
    fnv1a(tag.as_bytes()) ^ LAYOUT_REV.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// FNV-1a over `bytes` — the same cheap stable hash the simulator uses
/// for config fingerprints, exposed here so every layer keys its cache
/// entries identically.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

/// Why a checkpoint could not be read. Every variant is a hard reject:
/// no partial restore ever survives an error.
#[derive(Debug)]
pub enum CkptError {
    /// The file does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The container format version is not ours.
    ForeignVersion {
        /// Version found in the file.
        found: u16,
        /// Version this build writes.
        expected: u16,
    },
    /// The file was written by a different code revision.
    StaleSalt {
        /// Salt found in the file.
        found: u64,
        /// Salt this build writes.
        expected: u64,
    },
    /// The file ends before the declared structure does.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not match its stored CRC32.
    CrcMismatch {
        /// Name of the corrupted section.
        section: String,
    },
    /// A section decoded to something structurally impossible.
    Malformed(String),
    /// A required section is absent.
    MissingSection(String),
    /// The checkpoint belongs to a different program or machine shape.
    Mismatch {
        /// Which identity field disagreed.
        what: &'static str,
        /// Value found in the file.
        found: u64,
        /// Value the restoring machine expects.
        expected: u64,
    },
    /// Underlying filesystem error.
    Io(io::Error),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::ForeignVersion { found, expected } => {
                write!(f, "checkpoint format version {found} (expected {expected})")
            }
            CkptError::StaleSalt { found, expected } => write!(
                f,
                "checkpoint written by a different code revision \
                 (salt {found:#018x}, expected {expected:#018x}); regenerate it"
            ),
            CkptError::Truncated { context } => {
                write!(f, "checkpoint truncated while reading {context}")
            }
            CkptError::CrcMismatch { section } => {
                write!(
                    f,
                    "checkpoint section `{section}` is corrupted (CRC mismatch)"
                )
            }
            CkptError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CkptError::MissingSection(name) => {
                write!(f, "checkpoint is missing section `{name}`")
            }
            CkptError::Mismatch {
                what,
                found,
                expected,
            } => write!(
                f,
                "checkpoint {what} mismatch: file has {found:#x}, machine expects {expected:#x}"
            ),
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

// ----------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial)
// ----------------------------------------------------------------------

/// CRC32 (IEEE) of `bytes` — the per-section integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

// ----------------------------------------------------------------------
// Section encoding
// ----------------------------------------------------------------------

/// Append-only little-endian encoder for one section's payload.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// A fresh, empty payload.
    pub fn new() -> SectionWriter {
        SectionWriter::default()
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` via its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Strictly-validated little-endian decoder over one section's payload.
/// Every read past the end is a typed error, never a panic.
#[derive(Debug)]
pub struct SectionReader {
    buf: Vec<u8>,
    pos: usize,
}

impl SectionReader {
    /// Wraps `bytes` for decoding.
    pub fn new(bytes: Vec<u8>) -> SectionReader {
        SectionReader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&[u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, CkptError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a bool; any byte other than 0/1 is malformed.
    pub fn take_bool(&mut self, context: &'static str) -> Result<bool, CkptError> {
        match self.take_u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Malformed(format!(
                "{context}: bool byte {other:#x}"
            ))),
        }
    }

    /// Reads a `u16`, little-endian.
    pub fn take_u16(&mut self, context: &'static str) -> Result<u16, CkptError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`, little-endian.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, CkptError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`, little-endian.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, CkptError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    /// Reads a length-prefixed byte string. `max` bounds the declared
    /// length so a corrupted prefix cannot drive a huge allocation.
    pub fn take_bytes(&mut self, max: u64, context: &'static str) -> Result<Vec<u8>, CkptError> {
        let len = self.take_u64(context)?;
        if len > max || len > self.remaining() as u64 {
            return Err(CkptError::Malformed(format!(
                "{context}: declared length {len} exceeds bounds"
            )));
        }
        Ok(self.take(len as usize, context)?.to_vec())
    }

    /// Reads a length prefix for a repeated group, validated against
    /// `max` entries (corruption guard, not a capacity contract).
    pub fn take_len(&mut self, max: u64, context: &'static str) -> Result<usize, CkptError> {
        let len = self.take_u64(context)?;
        if len > max {
            return Err(CkptError::Malformed(format!(
                "{context}: declared count {len} exceeds limit {max}"
            )));
        }
        Ok(len as usize)
    }

    /// Asserts the payload was consumed exactly — trailing garbage in a
    /// section means the reader and writer disagree on layout.
    pub fn finish(&self, section: &str) -> Result<(), CkptError> {
        if self.remaining() != 0 {
            return Err(CkptError::Malformed(format!(
                "section `{section}` has {} unread trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Save/restore of one subsystem's state into a checkpoint section.
///
/// Contract: `restore` after `save` reproduces the exact state, and
/// `save` after that `restore` produces byte-identical payloads (the
/// property the round-trip test suites assert for every impl). Restore
/// must validate structure against the receiver's configuration and
/// fail with a typed [`CkptError`] rather than accept a shape mismatch.
pub trait Checkpointable {
    /// Serializes this subsystem's state.
    fn save(&self, w: &mut SectionWriter);
    /// Restores state previously written by [`Checkpointable::save`].
    ///
    /// # Errors
    ///
    /// Any [`CkptError`] on truncation, malformed data, or a shape
    /// mismatch with the receiver.
    fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError>;
}

// ----------------------------------------------------------------------
// Container
// ----------------------------------------------------------------------

/// Builds a checkpoint file: named sections, each independently
/// CRC-protected, under a versioned + salted header.
#[derive(Debug, Default)]
pub struct CheckpointWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl CheckpointWriter {
    /// An empty container.
    pub fn new() -> CheckpointWriter {
        CheckpointWriter::default()
    }

    /// Adds a raw pre-encoded section.
    pub fn add_section(&mut self, name: &str, payload: Vec<u8>) {
        self.sections.push((name.to_string(), payload));
    }

    /// Serializes `state` into a new section called `name`.
    pub fn write_section(&mut self, name: &str, state: &dyn Checkpointable) {
        let mut w = SectionWriter::new();
        state.save(&mut w);
        self.add_section(name, w.into_bytes());
    }

    /// Encodes the full container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self
            .sections
            .iter()
            .map(|(n, p)| 2 + n.len() + 8 + 4 + p.len())
            .sum();
        let mut out = Vec::with_capacity(4 + 2 + 8 + 4 + body);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&code_salt().to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

/// One parsed section: name, payload and whether the payload matches
/// its stored CRC.
#[derive(Debug, Clone)]
struct Section {
    name: String,
    payload: Vec<u8>,
    crc_ok: bool,
}

/// Parses and fully verifies a checkpoint container: magic, version,
/// salt and every section CRC are checked before any payload is handed
/// out.
#[derive(Debug)]
pub struct CheckpointReader {
    salt: u64,
    sections: Vec<Section>,
}

impl CheckpointReader {
    /// Parses `bytes`, verifying the header against this build and every
    /// section against its CRC.
    ///
    /// # Errors
    ///
    /// [`CkptError::BadMagic`], [`CkptError::ForeignVersion`],
    /// [`CkptError::StaleSalt`], [`CkptError::Truncated`] or
    /// [`CkptError::CrcMismatch`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CheckpointReader, CkptError> {
        let reader = Self::parse(bytes, true)?;
        if reader.salt != code_salt() {
            return Err(CkptError::StaleSalt {
                found: reader.salt,
                expected: code_salt(),
            });
        }
        Ok(reader)
    }

    /// Parses the container structure. `verify_crc` controls whether a
    /// CRC mismatch is fatal (restore) or merely reported (inspection).
    fn parse(bytes: &[u8], verify_crc: bool) -> Result<CheckpointReader, CkptError> {
        let mut r = SectionReader::new(bytes.to_vec());
        let magic = r.take(4, "magic")?;
        if magic != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = r.take_u16("format version")?;
        if version != FORMAT_VERSION {
            return Err(CkptError::ForeignVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let salt = r.take_u64("code salt")?;
        let count = r.take_u32("section count")?;
        let mut sections = Vec::with_capacity(count.min(1024) as usize);
        for _ in 0..count {
            let name_len = r.take_u16("section name length")? as usize;
            let name_bytes = r.take(name_len, "section name")?.to_vec();
            let name = String::from_utf8(name_bytes)
                .map_err(|_| CkptError::Malformed("section name is not UTF-8".into()))?;
            let payload_len = r.take_u64("section length")?;
            let stored_crc = r.take_u32("section crc")?;
            if payload_len > r.remaining() as u64 {
                return Err(CkptError::Truncated {
                    context: "section payload",
                });
            }
            let payload = r.take(payload_len as usize, "section payload")?.to_vec();
            let crc_ok = crc32(&payload) == stored_crc;
            if verify_crc && !crc_ok {
                return Err(CkptError::CrcMismatch { section: name });
            }
            sections.push(Section {
                name,
                payload,
                crc_ok,
            });
        }
        r.finish("container")?;
        Ok(CheckpointReader { salt, sections })
    }

    /// The code salt stored in the file.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Opens the named section for decoding.
    ///
    /// # Errors
    ///
    /// [`CkptError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<SectionReader, CkptError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| SectionReader::new(s.payload.clone()))
            .ok_or_else(|| CkptError::MissingSection(name.to_string()))
    }

    /// Restores `state` from the named section, requiring the payload to
    /// be consumed exactly.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`] from the section lookup or the impl's restore.
    pub fn restore_section(
        &self,
        name: &str,
        state: &mut dyn Checkpointable,
    ) -> Result<(), CkptError> {
        let mut r = self.section(name)?;
        state.restore(&mut r)?;
        r.finish(name)
    }
}

// ----------------------------------------------------------------------
// Inspection (`nwo ckpt info`)
// ----------------------------------------------------------------------

/// One section's summary as seen by [`inspect`].
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section name.
    pub name: String,
    /// Payload length in bytes.
    pub len: u64,
    /// Whether the stored CRC matches the payload.
    pub crc_ok: bool,
}

/// A checkpoint's header and table of contents.
#[derive(Debug, Clone)]
pub struct CkptInfo {
    /// Container format version.
    pub version: u16,
    /// Code salt stored in the file.
    pub salt: u64,
    /// True when the salt matches this build (the file is restorable).
    pub salt_current: bool,
    /// Per-section summaries, in file order.
    pub sections: Vec<SectionInfo>,
}

/// Summarizes a checkpoint without restoring it. Unlike
/// [`CheckpointReader::from_bytes`] this tolerates a stale salt and
/// corrupted payloads (both are *reported*, not fatal), so `ckpt info`
/// can diagnose exactly the files restore rejects. Bad magic, a foreign
/// format version and truncation remain errors — there is nothing
/// trustworthy to print.
///
/// # Errors
///
/// [`CkptError::BadMagic`], [`CkptError::ForeignVersion`] or
/// [`CkptError::Truncated`].
pub fn inspect(bytes: &[u8]) -> Result<CkptInfo, CkptError> {
    let parsed = CheckpointReader::parse(bytes, false)?;
    Ok(CkptInfo {
        version: FORMAT_VERSION,
        salt: parsed.salt,
        salt_current: parsed.salt == code_salt(),
        sections: parsed
            .sections
            .into_iter()
            .map(|s| SectionInfo {
                name: s.name,
                len: s.payload.len() as u64,
                crc_ok: s.crc_ok,
            })
            .collect(),
    })
}

// ----------------------------------------------------------------------
// Disk blob cache
// ----------------------------------------------------------------------

/// A directory of keyed binary blobs — the storage layer under both
/// checkpoint files and the harness's disk-persistent memo cache.
///
/// Keys are sanitized into file names (`[A-Za-z0-9._-]`, everything else
/// becomes `_`) with an FNV suffix so distinct keys never collide after
/// sanitization. Stores are atomic (temp file + rename), so a crashed
/// writer never leaves a torn blob — and a torn blob would be caught by
/// the per-section CRCs anyway. [`CacheDir::scrub`] walks the whole
/// directory verifying exactly that, quarantining damage and reaping
/// temp files orphaned by killed writers (`nwo cache scrub`).
#[derive(Debug, Clone)]
pub struct CacheDir {
    root: PathBuf,
    /// Remaining injected transient I/O failures (robustness testing).
    /// `Clone` shares the budget, so every handle to the same cache
    /// draws from one fault counter.
    inject: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
}

impl CacheDir {
    /// A cache rooted at `root` (created lazily on first store).
    pub fn new(root: impl Into<PathBuf>) -> CacheDir {
        CacheDir {
            root: root.into(),
            inject: None,
        }
    }

    /// A cache that fails its next `faults` load/store calls with a
    /// transient [`CkptError::Io`] before behaving normally — a
    /// deterministic stand-in for flaky network filesystems, used to
    /// exercise the bench runner's retry path.
    pub fn with_injected_faults(root: impl Into<PathBuf>, faults: u64) -> CacheDir {
        CacheDir {
            root: root.into(),
            inject: Some(std::sync::Arc::new(std::sync::atomic::AtomicU64::new(
                faults,
            ))),
        }
    }

    /// Consumes one injected fault if any remain.
    fn injected_failure(&self, op: &str) -> Result<(), CkptError> {
        if let Some(budget) = &self.inject {
            use std::sync::atomic::Ordering;
            // Decrement-if-positive without underflowing concurrent takers.
            let mut left = budget.load(Ordering::Relaxed);
            while left > 0 {
                match budget.compare_exchange(left, left - 1, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => {
                        return Err(CkptError::Io(io::Error::other(format!(
                            "injected transient I/O fault during {op}"
                        ))));
                    }
                    Err(now) => left = now,
                }
            }
        }
        Ok(())
    }

    /// The directory blobs live in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a key maps to.
    pub fn path_for(&self, key: &str) -> PathBuf {
        let sanitized: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root
            .join(format!("{sanitized}-{:016x}.ckpt", fnv1a(key.as_bytes())))
    }

    /// Loads the blob stored under `key`, or `None` when absent.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for filesystem failures other than not-found.
    pub fn load(&self, key: &str) -> Result<Option<Vec<u8>>, CkptError> {
        self.injected_failure("load")?;
        match std::fs::read(self.path_for(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CkptError::Io(e)),
        }
    }

    /// Atomically stores `bytes` under `key` (temp file + rename).
    ///
    /// The temp name carries the pid *and* a process-wide sequence
    /// number: two threads storing the same key concurrently must not
    /// share a temp path, or one writer's rename can publish the other
    /// writer's half-written bytes — exactly the torn blob the atomic
    /// dance exists to prevent. A failed rename removes its temp file
    /// so crashes do not strand orphans (and [`CacheDir::scrub`] reaps
    /// any that a hard kill leaves behind).
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for filesystem failures.
    pub fn store(&self, key: &str, bytes: &[u8]) -> Result<(), CkptError> {
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        self.injected_failure("store")?;
        std::fs::create_dir_all(&self.root)?;
        let dest = self.path_for(key);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dest.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        if let Err(e) = std::fs::rename(&tmp, &dest) {
            let _ = std::fs::remove_file(&tmp);
            return Err(CkptError::Io(e));
        }
        Ok(())
    }

    /// Walks every blob in the cache, verifying container structure,
    /// code salt and per-section CRCs, optionally quarantining corrupt
    /// blobs and reaping orphaned temp files. See [`ScrubReport`] for
    /// what comes back; the walk order (and therefore the report) is
    /// deterministic — entries are sorted by file name.
    ///
    /// A missing cache directory is an empty (clean) report, matching
    /// `load`'s treatment of absent blobs.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] for filesystem failures while walking or
    /// renaming — a *corrupt blob* is never an error, it is the thing
    /// being reported.
    pub fn scrub(&self, options: &ScrubOptions) -> Result<ScrubReport, CkptError> {
        let mut report = ScrubReport::default();
        let dir = match std::fs::read_dir(&self.root) {
            Ok(dir) => dir,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(CkptError::Io(e)),
        };
        let mut names: Vec<String> = Vec::new();
        for entry in dir {
            let entry = entry.map_err(CkptError::Io)?;
            if entry.file_type().map_err(CkptError::Io)?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        for name in names {
            let path = self.root.join(&name);
            if name.ends_with(".quarantined") {
                report.prior_quarantined += 1;
                continue;
            }
            if name.contains(".tmp.") {
                // An orphaned temp file: a writer died between write
                // and rename. Never trustworthy, never referenced.
                if options.reap_tmp {
                    std::fs::remove_file(&path).map_err(CkptError::Io)?;
                }
                report.reaped_tmp.push(name);
                continue;
            }
            if !name.ends_with(".ckpt") {
                continue;
            }
            let bytes = std::fs::read(&path).map_err(CkptError::Io)?;
            let health = blob_health(&bytes);
            let mut quarantined = false;
            if matches!(health, BlobHealth::Corrupt(_)) && options.quarantine {
                let mut target = path.clone().into_os_string();
                target.push(".quarantined");
                std::fs::rename(&path, &target).map_err(CkptError::Io)?;
                quarantined = true;
            }
            report.entries.push(ScrubEntry {
                file: name,
                health,
                quarantined,
            });
        }
        Ok(report)
    }
}

/// What [`CacheDir::scrub`] should do beyond reporting.
#[derive(Debug, Clone, Copy)]
pub struct ScrubOptions {
    /// Rename corrupt blobs to `<name>.quarantined` so the cache never
    /// serves them again (a later identical request re-simulates and
    /// re-stores a healthy blob).
    pub quarantine: bool,
    /// Delete orphaned `*.tmp.*` files left by writers that died
    /// between write and rename.
    pub reap_tmp: bool,
}

impl Default for ScrubOptions {
    fn default() -> ScrubOptions {
        ScrubOptions {
            quarantine: true,
            reap_tmp: true,
        }
    }
}

/// One blob's verdict from a scrub walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobHealth {
    /// Structure, salt and every section CRC check out.
    Ok,
    /// The container is damaged (bad magic, foreign version,
    /// truncation, malformed framing, or a section CRC mismatch) —
    /// carries the diagnosis. These blobs are quarantine candidates.
    Corrupt(String),
    /// Structurally sound but written by a different code revision
    /// (carries the stale salt). Not damage — the blob is merely
    /// unusable by this build, and is reported rather than touched.
    Stale(u64),
}

/// One scrubbed blob.
#[derive(Debug, Clone)]
pub struct ScrubEntry {
    /// The blob's file name inside the cache directory.
    pub file: String,
    /// The verdict.
    pub health: BlobHealth,
    /// Whether this scrub renamed it to `.quarantined`.
    pub quarantined: bool,
}

/// Everything one [`CacheDir::scrub`] walk found, in deterministic
/// (name-sorted) order.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Every `.ckpt` blob examined.
    pub entries: Vec<ScrubEntry>,
    /// Orphaned temp files found (and deleted, when
    /// [`ScrubOptions::reap_tmp`] was set).
    pub reaped_tmp: Vec<String>,
    /// Blobs already quarantined by an earlier scrub.
    pub prior_quarantined: u64,
}

impl ScrubReport {
    /// Healthy blobs.
    pub fn ok(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.health == BlobHealth::Ok)
            .count()
    }

    /// Corrupt blobs found by this walk.
    pub fn corrupt(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.health, BlobHealth::Corrupt(_)))
            .count()
    }

    /// Stale-salt blobs found by this walk.
    pub fn stale(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e.health, BlobHealth::Stale(_)))
            .count()
    }

    /// True when nothing was corrupt, stale or orphaned.
    pub fn clean(&self) -> bool {
        self.corrupt() == 0 && self.stale() == 0 && self.reaped_tmp.is_empty()
    }
}

/// Classifies one blob's bytes for [`CacheDir::scrub`], reusing the
/// tolerant [`inspect`] parse: structural damage and CRC mismatches
/// are [`BlobHealth::Corrupt`], a foreign code salt is
/// [`BlobHealth::Stale`].
fn blob_health(bytes: &[u8]) -> BlobHealth {
    match inspect(bytes) {
        Err(e) => BlobHealth::Corrupt(e.to_string()),
        Ok(info) => {
            if let Some(bad) = info.sections.iter().find(|s| !s.crc_ok) {
                BlobHealth::Corrupt(format!("section `{}` CRC mismatch", bad.name))
            } else if !info.salt_current {
                BlobHealth::Stale(info.salt)
            } else {
                BlobHealth::Ok
            }
        }
    }
}

/// Runs a cache I/O operation up to three times, backing off ~10ms then
/// ~40ms between attempts. Shared filesystems fail transiently; a cache
/// miss costs a full re-simulation, so a couple of cheap retries pay for
/// themselves many times over. The final error is returned unchanged.
///
/// Shared by every [`CacheDir`] consumer — the bench runner's disk
/// result cache, its warm-checkpoint spill and the `nwo-serve` daemon's
/// server-side cache I/O all retry with the same policy.
///
/// # Errors
///
/// The last [`CkptError`] once all attempts are exhausted.
pub fn with_retry<T>(mut op: impl FnMut() -> Result<T, CkptError>) -> Result<T, CkptError> {
    let mut delay = std::time::Duration::from_millis(10);
    let mut last = None;
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay *= 4;
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("retry loop ran at least once"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy subsystem exercising every scalar type.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Toy {
        a: u64,
        b: f64,
        c: bool,
        d: Vec<u8>,
    }

    impl Checkpointable for Toy {
        fn save(&self, w: &mut SectionWriter) {
            w.put_u64(self.a);
            w.put_f64(self.b);
            w.put_bool(self.c);
            w.put_bytes(&self.d);
        }

        fn restore(&mut self, r: &mut SectionReader) -> Result<(), CkptError> {
            self.a = r.take_u64("toy.a")?;
            self.b = r.take_f64("toy.b")?;
            self.c = r.take_bool("toy.c")?;
            self.d = r.take_bytes(1 << 20, "toy.d")?;
            Ok(())
        }
    }

    fn sample() -> Vec<u8> {
        let toy = Toy {
            a: 0xdead_beef_cafe_f00d,
            b: -1.5e300,
            c: true,
            d: vec![1, 2, 3, 255],
        };
        let mut w = CheckpointWriter::new();
        w.write_section("toy", &toy);
        w.write_section("empty", &SectionWriterless);
        w.to_bytes()
    }

    /// A zero-byte section participant.
    struct SectionWriterless;
    impl Checkpointable for SectionWriterless {
        fn save(&self, _w: &mut SectionWriter) {}
        fn restore(&mut self, _r: &mut SectionReader) -> Result<(), CkptError> {
            Ok(())
        }
    }

    #[test]
    fn round_trip_restores_exact_state_and_rewrites_identically() {
        let bytes = sample();
        let reader = CheckpointReader::from_bytes(&bytes).unwrap();
        let mut toy = Toy::default();
        reader.restore_section("toy", &mut toy).unwrap();
        assert_eq!(toy.a, 0xdead_beef_cafe_f00d);
        assert_eq!(toy.b, -1.5e300);
        assert!(toy.c);
        assert_eq!(toy.d, vec![1, 2, 3, 255]);
        // save → restore → save is byte-identical.
        let mut w = CheckpointWriter::new();
        w.write_section("toy", &toy);
        w.write_section("empty", &SectionWriterless);
        assert_eq!(w.to_bytes(), bytes);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            CheckpointReader::from_bytes(&bytes),
            Err(CkptError::BadMagic)
        ));
        assert!(matches!(inspect(&bytes), Err(CkptError::BadMagic)));
    }

    #[test]
    fn foreign_version_is_rejected() {
        let mut bytes = sample();
        bytes[4] = bytes[4].wrapping_add(1);
        let err = CheckpointReader::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CkptError::ForeignVersion { .. }));
    }

    #[test]
    fn stale_salt_is_rejected_on_restore_but_tolerated_by_inspect() {
        let mut bytes = sample();
        bytes[6] ^= 0xff; // flip a salt byte
        let err = CheckpointReader::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CkptError::StaleSalt { .. }));
        let info = inspect(&bytes).unwrap();
        assert!(!info.salt_current);
        assert_eq!(info.sections.len(), 2);
        assert!(info.sections.iter().all(|s| s.crc_ok));
    }

    #[test]
    fn every_truncation_point_is_detected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            let err = CheckpointReader::from_bytes(truncated).unwrap_err();
            assert!(
                matches!(err, CkptError::Truncated { .. } | CkptError::Malformed(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn flipping_any_payload_byte_is_a_crc_mismatch() {
        let bytes = sample();
        // The toy payload occupies the tail before the empty section's
        // framing; flip a byte inside it.
        let header = 4 + 2 + 8 + 4;
        let frame = 2 + "toy".len() + 8 + 4;
        let payload_start = header + frame;
        let mut corrupted = bytes.clone();
        corrupted[payload_start + 5] ^= 0x40;
        let err = CheckpointReader::from_bytes(&corrupted).unwrap_err();
        assert!(
            matches!(&err, CkptError::CrcMismatch { section } if section == "toy"),
            "got {err:?}"
        );
        // inspect reports it instead of failing.
        let info = inspect(&corrupted).unwrap();
        assert!(!info.sections[0].crc_ok);
        assert!(info.sections[1].crc_ok);
    }

    #[test]
    fn missing_sections_and_trailing_bytes_are_typed_errors() {
        let bytes = sample();
        let reader = CheckpointReader::from_bytes(&bytes).unwrap();
        let mut toy = Toy::default();
        assert!(matches!(
            reader.restore_section("nope", &mut toy),
            Err(CkptError::MissingSection(_))
        ));
        // Restoring the empty section into Toy hits truncation.
        assert!(matches!(
            reader.restore_section("empty", &mut toy),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_declared_lengths_are_malformed_not_oom() {
        let mut w = SectionWriter::new();
        w.put_u64(u64::MAX); // an absurd length prefix
        let mut r = SectionReader::new(w.into_bytes());
        assert!(matches!(
            r.take_bytes(1 << 30, "blob"),
            Err(CkptError::Malformed(_))
        ));
        let mut w = SectionWriter::new();
        w.put_u64(10_000);
        let mut r = SectionReader::new(w.into_bytes());
        assert!(matches!(
            r.take_len(100, "count"),
            Err(CkptError::Malformed(_))
        ));
    }

    #[test]
    fn bool_bytes_are_validated() {
        let mut r = SectionReader::new(vec![7]);
        assert!(matches!(r.take_bool("flag"), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is 0xcbf43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn cache_dir_stores_and_loads_blobs_atomically() {
        let root = std::env::temp_dir().join(format!("nwo-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = CacheDir::new(&root);
        assert_eq!(cache.load("missing").unwrap(), None);
        cache.store("report/compress s0 fp=1", b"hello").unwrap();
        assert_eq!(
            cache.load("report/compress s0 fp=1").unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        // Distinct keys that sanitize identically still map to distinct
        // files thanks to the hash suffix.
        let a = cache.path_for("a/b");
        let b = cache.path_for("a_b");
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_faults_are_transient_and_shared_across_clones() {
        let root = std::env::temp_dir().join(format!("nwo-ckpt-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = CacheDir::with_injected_faults(&root, 2);
        let clone = cache.clone();
        // The budget is shared: one fault drawn on each handle.
        assert!(matches!(cache.store("k", b"v"), Err(CkptError::Io(_))));
        assert!(matches!(clone.load("k"), Err(CkptError::Io(_))));
        // Exhausted budget: operations succeed from now on.
        cache.store("k", b"v").unwrap();
        assert_eq!(clone.load("k").unwrap().as_deref(), Some(&b"v"[..]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn with_retry_absorbs_transient_faults_and_surfaces_persistent_ones() {
        let root = std::env::temp_dir().join(format!("nwo-ckpt-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Two injected faults: the third attempt of one operation wins.
        let cache = CacheDir::with_injected_faults(&root, 2);
        with_retry(|| cache.store("k", b"v")).expect("retries through 2 faults");
        assert_eq!(cache.load("k").unwrap().as_deref(), Some(&b"v"[..]));
        // More faults than one operation's attempts: the final error
        // surfaces unchanged.
        let flaky = CacheDir::with_injected_faults(&root, 99);
        assert!(matches!(
            with_retry(|| flaky.load("k")),
            Err(CkptError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn code_salt_is_stable_within_a_build() {
        assert_eq!(code_salt(), code_salt());
        assert_ne!(code_salt(), 0);
    }
}
