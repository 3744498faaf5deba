//! The versioned binary snapshot container and its flat-buffer codec.
//!
//! Every persisted index structure of the engine (interner, data graph,
//! keyword index) writes itself into a **section** of a snapshot file, so
//! that a prepared engine cold-starts in time proportional to bytes on disk
//! instead of corpus size. The format is deliberately
//! hand-rolled over `std` only (the workspace has no serde/memmap):
//!
//! ```text
//! +----------------------------+
//! | magic  "KWSNAP\r\n"  (8 B) |   catches text-mode/CRLF mangling, like PNG
//! | format version   (u32 LE)  |
//! | section count    (u32 LE)  |
//! +----------------------------+
//! | section table: per section |
//! |   id       (u32 LE)        |
//! |   length   (u64 LE)        |
//! |   checksum (u64 LE)        |
//! +----------------------------+
//! | section payloads, in table |
//! | order, concatenated        |
//! +----------------------------+
//! ```
//!
//! Section payloads are sequences of little-endian scalars and
//! **length-prefixed flat buffers** (`u64` element count followed by the raw
//! little-endian element bytes). Loading a flat buffer is a bounds check
//! plus one bulk copy — no per-element parsing — which is what makes
//! snapshot loads O(bytes).
//!
//! Integrity: every section carries a 64-bit checksum ([`checksum64`], a
//! four-lane word-wide FNV-1a variant) that is verified **before** any of
//! its bytes are parsed, so corrupt data can never build a partial
//! structure; all failures surface as the typed [`SnapshotError`].

use std::fmt;
use std::io::{self, Read, Write};

/// The 8-byte magic at offset 0 of every snapshot.
pub const MAGIC: [u8; 8] = *b"KWSNAP\r\n";

/// The container format version this build reads and writes. Version 2
/// dropped the stored adjacency from the graph section, version 3 the
/// triple-store section and version 4 the summary section: all three are
/// derived from the graph on load. Version 5 dropped the interner's probe
/// table, rebuilt from its strings on load, and the metadata section.
/// Version 6 dropped the attribute classes from the keyword section: the
/// summary graph derives them on load.
pub const FORMAT_VERSION: u32 = 6;

/// Upper bound on the section count (a snapshot has a handful of sections;
/// anything larger is a corrupt header, not a bigger snapshot).
const MAX_SECTIONS: u32 = 1024;

/// Errors produced while writing or reading snapshots.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`] — it is not a snapshot.
    BadMagic,
    /// The container was written by a newer (or otherwise unknown) format
    /// version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file ends before the advertised data does.
    Truncated,
    /// A section's payload does not match its table checksum.
    ChecksumMismatch {
        /// Id of the corrupt section.
        section: u32,
    },
    /// A section's checksum matched but its contents are structurally
    /// invalid (internal inconsistency, bad enum tag, invalid UTF-8, …).
    Corrupt {
        /// Id of the offending section.
        section: u32,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A section required by the loader is absent.
    MissingSection {
        /// Id of the absent section.
        section: u32,
    },
    /// An underlying I/O failure (other than a clean truncation).
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a kwsearch snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in snapshot section {section}")
            }
            SnapshotError::Corrupt { section, detail } => {
                write!(f, "corrupt snapshot section {section}: {detail}")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(e)
        }
    }
}

/// FNV-1a 64-bit hash — the interner's table hash (byte-serial; the inputs
/// are short strings, where the setup cost of the wide variant would lose).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// The section checksum: four independent FNV-1a lanes over interleaved
/// 8-byte words, folded together with the length at the end.
///
/// Section payloads run to tens of megabytes, and the byte-serial FNV loop
/// is a single loop-carried multiply chain — ~5 cycles *per byte*, which
/// made checksum verification the single largest cost of a snapshot load.
/// Four lanes of word-wide mixing break the dependency chain and process
/// 32 bytes per iteration while keeping the same multiply-xor error
/// detection; mixing in the length guards against trailing truncation of a
/// lane-aligned payload.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_OFFSET ^ 1,
        FNV_OFFSET ^ 2,
        FNV_OFFSET ^ 3,
        FNV_OFFSET ^ 4,
    ];
    let mut chunks = bytes.chunks_exact(32);
    for block in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ le_u64(&block[i * 8..])).wrapping_mul(FNV_PRIME);
        }
    }
    let mut hash = FNV_OFFSET;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash ^ bytes.len() as u64
}

// ---------------------------------------------------------------------
// Section payload encoding
// ---------------------------------------------------------------------

/// Append-only encoder for one section payload.
#[derive(Debug, Default)]
pub struct SectionEncoder {
    buf: Vec<u8>,
}

impl SectionEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed flat `u32` buffer.
    pub fn put_u32_slice(&mut self, s: &[u32]) {
        self.put_u64(s.len() as u64);
        for &v in s {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a length-prefixed raw byte buffer.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor over one checksum-verified section payload.
#[derive(Debug)]
pub struct SectionDecoder<'a> {
    section: u32,
    buf: &'a [u8],
}

impl<'a> SectionDecoder<'a> {
    /// Wraps a verified payload; `section` is used in error reports.
    pub fn new(section: u32, buf: &'a [u8]) -> Self {
        Self { section, buf }
    }

    /// Builds a [`SnapshotError::Corrupt`] for this section.
    pub fn corrupt(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            section: self.section,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() < n {
            return Err(self.corrupt(format!(
                "payload ends early: wanted {n} bytes, {} left",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    fn get_len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| self.corrupt("length overflows usize"))?;
        // The length is validated against the bytes actually present before
        // any allocation, so a corrupt length cannot trigger a huge alloc.
        if len
            .checked_mul(elem_size)
            .is_none_or(|b| b > self.buf.len())
        {
            return Err(self.corrupt(format!(
                "buffer length {len} exceeds the {} bytes left in the section",
                self.buf.len()
            )));
        }
        Ok(len)
    }

    /// Reads a length-prefixed flat `u32` buffer as a zero-copy view into
    /// the section payload. Use this for columns that are only *iterated*
    /// during a load (validation passes, struct-of-arrays re-packing) — it
    /// skips the intermediate `Vec` that [`Self::get_u32_vec`] would
    /// allocate and touch, which matters at 10⁶-row column sizes.
    pub fn get_u32_column(&mut self) -> Result<U32Column<'a>, SnapshotError> {
        let len = self.get_len(4)?;
        Ok(U32Column {
            raw: self.take(len * 4)?,
        })
    }

    /// Reads a length-prefixed flat `u32` buffer with one bulk copy.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let len = self.get_len(4)?;
        let raw = self.take(len * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads a length-prefixed raw byte buffer.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_len(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string (validated once, in bulk).
    pub fn get_string(&mut self) -> Result<String, SnapshotError> {
        let raw = self.get_bytes()?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|e| self.corrupt(format!("invalid UTF-8 in string: {e}")))
    }

    /// Asserts that the payload was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} trailing bytes", self.buf.len())))
        }
    }
}

/// A borrowed little-endian `u32` column inside a section payload.
///
/// Decoding is deferred to iteration, so a column that is consumed exactly
/// once (the common load pattern) never materialises as a `Vec<u32>`.
#[derive(Debug, Clone, Copy)]
pub struct U32Column<'a> {
    raw: &'a [u8],
}

impl<'a> U32Column<'a> {
    /// Number of `u32` elements in the column.
    pub fn len(&self) -> usize {
        self.raw.len() / 4
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Iterates the elements, decoding each from its little-endian bytes.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }
}

// ---------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------

/// Accumulates sections and writes the framed container.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a section; sections are written in insertion order.
    pub fn add_section(&mut self, id: u32, payload: SectionEncoder) {
        self.sections.push((id, payload.into_bytes()));
    }

    /// Writes magic, version, section table and payloads.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<(), SnapshotError> {
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(self.sections.len() as u32).to_le_bytes())?;
        for (id, payload) in &self.sections {
            w.write_all(&id.to_le_bytes())?;
            w.write_all(&(payload.len() as u64).to_le_bytes())?;
            w.write_all(&checksum64(payload).to_le_bytes())?;
        }
        for (_, payload) in &self.sections {
            w.write_all(payload)?;
        }
        w.flush()?;
        Ok(())
    }
}

/// Reads and checksum-verifies a framed container.
#[derive(Debug)]
pub struct SnapshotReader {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotReader {
    /// Reads the whole container, verifying magic, version and every
    /// section checksum before returning. No payload byte is interpreted
    /// until its checksum has matched.
    pub fn read_from<R: Read>(mut r: R) -> Result<Self, SnapshotError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = read_u32(&mut r)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let count = read_u32(&mut r)?;
        if count > MAX_SECTIONS {
            return Err(SnapshotError::Corrupt {
                section: 0,
                detail: format!("implausible section count {count}"),
            });
        }
        let mut table = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = read_u32(&mut r)?;
            let len = read_u64(&mut r)?;
            let checksum = read_u64(&mut r)?;
            table.push((id, len, checksum));
        }
        let mut sections = Vec::with_capacity(table.len());
        for (id, len, checksum) in table {
            // `take` + `read_to_end` grows with the data actually present,
            // so a corrupt huge length yields `Truncated`, not a huge alloc.
            let mut payload = Vec::new();
            let got = r.by_ref().take(len).read_to_end(&mut payload)?;
            if got as u64 != len {
                return Err(SnapshotError::Truncated);
            }
            if checksum64(&payload) != checksum {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            sections.push((id, payload));
        }
        Ok(Self { sections })
    }

    /// A decoder over the payload of section `id`.
    pub fn section(&self, id: u32) -> Result<SectionDecoder<'_>, SnapshotError> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, payload)| SectionDecoder::new(id, payload))
            .ok_or(SnapshotError::MissingSection { section: id })
    }
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, SnapshotError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, SnapshotError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(sections: Vec<(u32, SectionEncoder)>) -> SnapshotReader {
        let mut writer = SnapshotWriter::new();
        for (id, enc) in sections {
            writer.add_section(id, enc);
        }
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();
        SnapshotReader::read_from(bytes.as_slice()).unwrap()
    }

    #[test]
    fn scalars_and_buffers_round_trip() {
        let mut enc = SectionEncoder::new();
        enc.put_u32(7);
        enc.put_u64(u64::MAX - 1);
        enc.put_f64(-0.125);
        enc.put_u32_slice(&[1, 2, 3]);
        enc.put_str("héllo");
        enc.put_bytes(&[0xde, 0xad]);
        let reader = round_trip(vec![(42, enc)]);
        let mut dec = reader.section(42).unwrap();
        assert_eq!(dec.get_u32().unwrap(), 7);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.get_f64().unwrap().to_bits(), (-0.125f64).to_bits());
        assert_eq!(dec.get_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(dec.get_string().unwrap(), "héllo");
        assert_eq!(dec.get_bytes().unwrap(), &[0xde, 0xad]);
        dec.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_detected() {
        let err = SnapshotReader::read_from(&b"NOTASNAP.........."[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic), "{err:?}");
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = Vec::new();
        SnapshotWriter::new().write_to(&mut bytes).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = SnapshotReader::read_from(bytes.as_slice()).unwrap_err();
        match err {
            SnapshotError::UnsupportedVersion { found } => {
                assert_eq!(found, FORMAT_VERSION + 1)
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut enc = SectionEncoder::new();
        enc.put_u32_slice(&[1, 2, 3, 4]);
        let mut writer = SnapshotWriter::new();
        writer.add_section(1, enc);
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, 4] {
            let err = SnapshotReader::read_from(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut enc = SectionEncoder::new();
        enc.put_u32_slice(&[9, 9, 9]);
        let mut writer = SnapshotWriter::new();
        writer.add_section(5, enc);
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = SnapshotReader::read_from(bytes.as_slice()).unwrap_err();
        match err {
            SnapshotError::ChecksumMismatch { section } => assert_eq!(section, 5),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_section_is_typed() {
        let reader = round_trip(vec![(1, SectionEncoder::new())]);
        assert!(matches!(
            reader.section(2).unwrap_err(),
            SnapshotError::MissingSection { section: 2 }
        ));
    }

    #[test]
    fn corrupt_length_prefix_cannot_over_allocate() {
        let mut enc = SectionEncoder::new();
        enc.put_u64(u64::MAX); // a length prefix with no data behind it
        let reader = round_trip(vec![(3, enc)]);
        let mut dec = reader.section(3).unwrap();
        assert!(matches!(
            dec.get_u32_vec().unwrap_err(),
            SnapshotError::Corrupt { section: 3, .. }
        ));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checksum64_detects_flips_and_truncation() {
        // A buffer long enough to exercise the 32-byte lanes and the
        // byte-serial remainder.
        let data: Vec<u8> = (0..137u32).map(|i| (i * 31) as u8).collect();
        let reference = checksum64(&data);
        for i in 0..data.len() {
            for bit in [0x01u8, 0x80] {
                let mut flipped = data.clone();
                flipped[i] ^= bit;
                assert_ne!(checksum64(&flipped), reference, "flip at byte {i}");
            }
        }
        // Truncation at every prefix length — including lane-aligned ones,
        // which is what the length mix-in protects.
        for len in 0..data.len() {
            assert_ne!(checksum64(&data[..len]), reference, "truncated to {len}");
        }
    }
}
