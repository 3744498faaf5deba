//! String interning.
//!
//! Every label in a data graph (entity IRIs, class names, attribute values,
//! predicate names) is stored exactly once in an [`Interner`] and referred to
//! by a compact [`Symbol`]. Interning keeps the graph representation small
//! and makes label comparisons O(1), which matters because the exploration
//! algorithm compares labels in its inner loop.
//!
//! The representation is snapshot-friendly: all strings live in one
//! concatenated UTF-8 blob addressed by an offsets array, and deduplication
//! uses an open-addressing hash table of symbol ids. A snapshot stores the
//! blob and the offsets, both flat buffers, and not the table: it is a
//! function of the strings, so a load rehashes them in one presized pass,
//! and that pass refuses a string the blob holds twice.

use crate::snapshot::{fnv1a64, SectionDecoder, SectionEncoder, SnapshotError};

/// A handle to an interned string.
///
/// Symbols are only meaningful relative to the [`Interner`] (and therefore the
/// [`DataGraph`](crate::DataGraph)) that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Numeric index of the symbol; useful for dense per-symbol tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Marks an empty slot in the probe table.
const EMPTY: u32 = u32::MAX;

/// Initial probe-table capacity (power of two).
const INITIAL_TABLE: usize = 16;

/// A deduplicating string table.
#[derive(Debug, Clone)]
pub struct Interner {
    /// All interned strings concatenated; `offsets` delimits them.
    bytes: String,
    /// `offsets[i]..offsets[i + 1]` is the byte range of symbol `i`;
    /// always has `len() + 1` entries starting with 0.
    offsets: Vec<u32>,
    /// Open-addressing probe table over symbol ids (`EMPTY` = free slot);
    /// capacity is a power of two.
    table: Vec<u32>,
}

impl Default for Interner {
    fn default() -> Self {
        Self {
            bytes: String::new(),
            offsets: vec![0],
            table: vec![EMPTY; INITIAL_TABLE],
        }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn str_at(&self, idx: u32) -> &str {
        let start = self.offsets[idx as usize] as usize;
        let end = self.offsets[idx as usize + 1] as usize;
        &self.bytes[start..end]
    }

    /// Probes for `s`; returns either its symbol id or the free slot index
    /// where it would be inserted.
    #[inline]
    fn probe(&self, s: &str) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut slot = fnv1a64(s.as_bytes()) as usize & mask;
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                idx => {
                    if self.str_at(idx) == s {
                        return Ok(idx);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `s`, returning the existing symbol if it has been seen before.
    pub fn intern(&mut self, s: &str) -> Symbol {
        match self.probe(s) {
            Ok(idx) => Symbol(idx),
            Err(slot) => {
                let idx = self.len() as u32;
                assert!(idx < EMPTY, "interner is full");
                assert!(
                    self.bytes.len() + s.len() <= u32::MAX as usize,
                    "interner blob exceeds u32 addressing"
                );
                self.bytes.push_str(s);
                self.offsets.push(self.bytes.len() as u32);
                self.table[slot] = idx;
                let capacity = table_capacity(self.len());
                if self.table.len() < capacity {
                    let grown = self.fill_table(capacity);
                    debug_assert!(grown.is_ok(), "interned strings are distinct");
                }
                Symbol(idx)
            }
        }
    }

    /// Replaces the probe table by one of `capacity` slots holding every
    /// symbol id. Fails with the first id whose string an earlier id
    /// already holds.
    fn fill_table(&mut self, capacity: usize) -> Result<(), u32> {
        self.table = vec![EMPTY; capacity];
        for idx in 0..self.len() as u32 {
            match self.probe(self.str_at(idx)) {
                Ok(_) => return Err(idx),
                Err(slot) => self.table[slot] = idx,
            }
        }
        Ok(())
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.probe(s).ok().map(Symbol)
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if the symbol was produced by a different interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.str_at(sym.0)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no strings have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(symbol, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        (0..self.len() as u32).map(|i| (Symbol(i), self.str_at(i)))
    }

    /// Approximate number of heap bytes used by the interner. Used by the
    /// index-size experiment (Fig. 6b).
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.table.len() * std::mem::size_of::<u32>()
    }

    /// Serialises the interner into a snapshot section: the blob and the
    /// offsets. The probe table is a function of them and is not written.
    pub fn write_snapshot(&self, enc: &mut SectionEncoder) {
        enc.put_str(&self.bytes);
        enc.put_u32_slice(&self.offsets);
    }

    /// Rebuilds an interner from [`Self::write_snapshot`] output.
    ///
    /// The blob is UTF-8 validated in one pass and every offset is checked to
    /// be a monotone char boundary. The probe table is then rebuilt at the
    /// capacity interning would have reached, and a string that is already
    /// in it is [`SnapshotError::Corrupt`]: symbol ids stay in blob order,
    /// and each names a distinct string.
    pub fn read_snapshot(dec: &mut SectionDecoder<'_>) -> Result<Self, SnapshotError> {
        let bytes = dec.get_string()?;
        let offsets = dec.get_u32_vec()?;
        if offsets.is_empty() || offsets[0] != 0 {
            return Err(dec.corrupt("interner offsets must start at 0"));
        }
        if offsets[offsets.len() - 1] as usize != bytes.len() {
            return Err(dec.corrupt("interner offsets do not cover the blob"));
        }
        let len = offsets.len() - 1;
        if len >= EMPTY as usize {
            return Err(dec.corrupt("interner holds more strings than symbol ids"));
        }
        for pair in offsets.windows(2) {
            if pair[0] > pair[1] {
                return Err(dec.corrupt("interner offsets are not monotone"));
            }
        }
        for &off in &offsets {
            if !bytes.is_char_boundary(off as usize) {
                return Err(dec.corrupt("interner offset splits a UTF-8 character"));
            }
        }
        let mut interner = Self {
            bytes,
            offsets,
            table: Vec::new(),
        };
        if let Err(idx) = interner.fill_table(table_capacity(len)) {
            return Err(dec.corrupt(format!(
                "interner repeats the string {:?} at symbol {idx}",
                interner.str_at(idx)
            )));
        }
        Ok(interner)
    }
}

/// The probe-table capacity for `len` strings: the smallest power of two,
/// at least [`INITIAL_TABLE`], that keeps the load factor below ~0.7 (so
/// probes stay short) with room for one more string. Interning grows the
/// table to exactly this, and a load presizes it to this.
fn table_capacity(len: usize) -> usize {
    let mut capacity = INITIAL_TABLE;
    while (len + 1) * 10 >= capacity * 7 {
        capacity *= 2;
    }
    capacity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapshotReader, SnapshotWriter};

    #[test]
    fn interning_deduplicates() {
        let mut interner = Interner::new();
        let a = interner.intern("publication");
        let b = interner.intern("author");
        let a2 = interner.intern("publication");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut interner = Interner::new();
        let labels = ["X-Media", "Thanh Tran", "2006", ""];
        let symbols: Vec<_> = labels.iter().map(|l| interner.intern(l)).collect();
        for (label, sym) in labels.iter().zip(symbols) {
            assert_eq!(interner.resolve(sym), *label);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut interner = Interner::new();
        assert!(interner.get("missing").is_none());
        assert!(interner.is_empty());
        let sym = interner.intern("present");
        assert_eq!(interner.get("present"), Some(sym));
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut interner = Interner::new();
        interner.intern("a");
        interner.intern("b");
        interner.intern("c");
        let collected: Vec<_> = interner.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    #[test]
    fn heap_bytes_grows_with_content() {
        let mut small = Interner::new();
        small.intern("x");
        let mut large = Interner::new();
        for i in 0..100 {
            large.intern(&format!("some-longer-label-{i}"));
        }
        assert!(large.heap_bytes() > small.heap_bytes());
    }

    #[test]
    fn survives_table_growth() {
        let mut interner = Interner::new();
        let symbols: Vec<_> = (0..5_000)
            .map(|i| interner.intern(&format!("label-{i}")))
            .collect();
        for (i, sym) in symbols.iter().enumerate() {
            assert_eq!(interner.resolve(*sym), format!("label-{i}"));
            assert_eq!(interner.get(&format!("label-{i}")), Some(*sym));
        }
        assert_eq!(interner.len(), 5_000);
    }

    #[test]
    fn snapshot_round_trips_and_keeps_symbols() {
        let mut interner = Interner::new();
        let labels = ["publication", "", "Thanh Tran", "naïve-ütf8", "2009"];
        let symbols: Vec<_> = labels.iter().map(|l| interner.intern(l)).collect();

        let mut enc = SectionEncoder::new();
        interner.write_snapshot(&mut enc);
        let mut writer = SnapshotWriter::new();
        writer.add_section(1, enc);
        let mut bytes = Vec::new();
        writer.write_to(&mut bytes).unwrap();

        let reader = SnapshotReader::read_from(bytes.as_slice()).unwrap();
        let mut dec = reader.section(1).unwrap();
        let loaded = Interner::read_snapshot(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(loaded.len(), interner.len());
        for (label, sym) in labels.iter().zip(&symbols) {
            assert_eq!(loaded.resolve(*sym), *label);
            assert_eq!(loaded.get(label), Some(*sym));
        }
        assert_eq!(loaded.heap_bytes(), interner.heap_bytes());
        // Interning into the loaded copy keeps deduplicating.
        let mut loaded = loaded;
        assert_eq!(loaded.intern("publication"), symbols[0]);
        let fresh = loaded.intern("brand-new");
        assert_eq!(fresh.index(), labels.len());
    }

    /// A blob that holds a string twice would give it two symbols, and
    /// `get` could find at most one of them: the load refuses it.
    #[test]
    fn a_repeated_string_is_corrupt() {
        let mut enc = SectionEncoder::new();
        enc.put_str("xyx");
        enc.put_u32_slice(&[0, 1, 2, 3]);
        let bytes = enc.into_bytes();
        let mut dec = SectionDecoder::new(7, &bytes);
        match Interner::read_snapshot(&mut dec) {
            Err(SnapshotError::Corrupt { section, detail }) => {
                assert_eq!(section, 7);
                assert!(detail.contains("repeats"), "{detail}");
            }
            other => panic!("a repeated string must be corrupt, got {other:?}"),
        }
    }
}
