//! A line-oriented, N-Triples-like serialisation.
//!
//! Each line holds one triple:
//!
//! ```text
//! <pub1URI> <author> <re1URI> .
//! <pub1URI> <year> "2006" .
//! # comments and blank lines are ignored
//! ```
//!
//! IRIs are written in angle brackets, literals in double quotes. Reading
//! decodes the escapes of W3C N-Triples — in literals ECHAR
//! (`\t \b \n \r \f \" \' \\`) and UCHAR (`\uXXXX`, `\UXXXXXXXX`), in IRIs
//! UCHAR only — and refuses any other. Writing escapes `"`, `\`, line feed
//! and carriage return in literals, and every character IRIREF forbids
//! (`U+0000`–`U+0020`, `<>"{}|^`, backtick and `\`) in IRIs as a `\u00XX`
//! UCHAR, so every written line is one N-Triples line and reads back as the
//! triple written. Otherwise this is deliberately a small subset of
//! N-Triples (no blank nodes, datatypes or language tags) — enough to
//! persist and exchange the generated datasets and the paper's running
//! example.
//!
//! One layer reads and writes it: [`parse_line_ref`] parses a line into a
//! borrowed [`TripleRef`] with a reused scratch buffer, [`ingest_ntriples`]
//! streams a document from any reader into a [`DataGraph`] without ever
//! materialising the document or an owned `Triple`, and [`write_graph_to`]
//! streams a graph's edges to any writer — the ingest and export path for
//! the 10⁶–10⁷ triple tiers.

use std::io::{self, BufRead, Write};

use crate::error::RdfError;
use crate::graph::DataGraph;
use crate::term::TermRef;
use crate::triple::TripleRef;
use crate::Result;

/// Streaming unescape into a caller-provided buffer; the inverse of
/// [`write_escaped`] for a literal and of [`write_iri`] for an `iri`.
/// Decodes UCHAR escapes, and ECHAR escapes outside an IRI (module doc);
/// any other escape, or a code point that is not a Unicode scalar value, is
/// the error message returned.
fn unescape_into(s: &str, iri: bool, out: &mut String) -> std::result::Result<(), String> {
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let decoded = match chars.next() {
            Some(c) if iri && c != 'u' && c != 'U' => {
                return Err(format!(
                    "escape `\\{c}` in an IRI (only `\\u` and `\\U` are allowed)"
                ))
            }
            Some('t') => '\t',
            Some('b') => '\u{8}',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('f') => '\u{c}',
            Some(c @ ('"' | '\'' | '\\')) => c,
            Some(u @ ('u' | 'U')) => {
                let digits = if u == 'u' { 4 } else { 8 };
                let rest = chars.as_str();
                let hex = rest
                    .get(..digits)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| format!("`\\{u}` needs {digits} hex digits"))?;
                chars = rest[digits..].chars();
                u32::from_str_radix(hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| format!("`\\{u}{hex}` is not a Unicode scalar value"))?
            }
            Some(other) => return Err(format!("unknown escape `\\{other}`")),
            None if iri => return Err("IRI ends in a lone `\\`".to_string()),
            None => return Err("literal ends in a lone `\\`".to_string()),
        };
        out.push(decoded);
    }
    Ok(())
}

/// Writes `s` with `"`, `\`, line-feed and carriage-return escaping,
/// copying unescaped runs in bulk.
fn write_escaped<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let mut rest = s;
    while let Some(i) = rest.find(['"', '\\', '\n', '\r']) {
        w.write_all(&rest.as_bytes()[..i])?;
        match rest.as_bytes()[i] {
            b'"' => w.write_all(b"\\\"")?,
            b'\\' => w.write_all(b"\\\\")?,
            b'\n' => w.write_all(b"\\n")?,
            _ => w.write_all(b"\\r")?,
        }
        rest = &rest[i + 1..];
    }
    w.write_all(rest.as_bytes())
}

/// Writes `iri` with every character IRIREF forbids (module doc) as a
/// `\u00XX` UCHAR, copying the permitted runs in bulk.
fn write_iri<W: Write>(w: &mut W, iri: &str) -> io::Result<()> {
    let mut rest = iri;
    let forbidden = |b| {
        matches!(
            b,
            0..=b' ' | b'<' | b'>' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\'
        )
    };
    while let Some(i) = rest.bytes().position(forbidden) {
        w.write_all(&rest.as_bytes()[..i])?;
        write!(w, "\\u{:04X}", rest.as_bytes()[i])?;
        rest = &rest[i + 1..];
    }
    w.write_all(rest.as_bytes())
}

/// Streams all edges of a data graph as N-Triples lines to `w` without
/// materialising the triples or any per-line `String`.
///
/// Wrap `w` in a `BufWriter` when writing to a file.
pub fn write_graph_to<W: Write>(graph: &DataGraph, w: &mut W) -> io::Result<()> {
    for e in graph.edges() {
        let triple = graph.triple_ref(e);
        w.write_all(b"<")?;
        write_iri(w, triple.subject)?;
        w.write_all(b"> <")?;
        write_iri(w, triple.predicate)?;
        w.write_all(b"> ")?;
        if triple.object.is_literal() {
            w.write_all(b"\"")?;
            write_escaped(w, triple.object.value())?;
            w.write_all(b"\" .\n")?;
        } else {
            w.write_all(b"<")?;
            write_iri(w, triple.object.value())?;
            w.write_all(b"> .\n")?;
        }
    }
    Ok(())
}

/// A parsed term that still borrows the input line, and whether it
/// contains escapes, so unescaping can be skipped on the (overwhelmingly
/// common) clean path.
struct RawTerm<'a> {
    raw: &'a str,
    literal: bool,
    escaped: bool,
}

struct Cursor<'a> {
    line: &'a str,
    pos: usize,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    fn error(&self, message: impl Into<String>) -> RdfError {
        RdfError::Parse {
            line: self.line_no,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.line.len() && self.line.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    /// Parses one term without allocating: IRIs and literals are returned
    /// as slices of the input line.
    fn parse_term_raw(&mut self) -> Result<RawTerm<'a>> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => {
                // Scan for the closing `>`, noting any escape on the way.
                let bytes = self.line.as_bytes();
                let mut i = self.pos + 1;
                let mut escaped = false;
                while i < bytes.len() && bytes[i] != b'>' {
                    escaped |= bytes[i] == b'\\';
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(self.error("unterminated IRI"));
                }
                let raw = &self.line[self.pos + 1..i];
                self.pos = i + 1;
                Ok(RawTerm {
                    raw,
                    literal: false,
                    escaped,
                })
            }
            Some(b'"') => {
                // Scan for the closing unescaped quote.
                let bytes = self.line.as_bytes();
                let mut i = self.pos + 1;
                let mut escaped = false;
                let mut any_escape = false;
                while i < bytes.len() {
                    let b = bytes[i];
                    if escaped {
                        escaped = false;
                    } else if b == b'\\' {
                        escaped = true;
                        any_escape = true;
                    } else if b == b'"' {
                        break;
                    }
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(self.error("unterminated literal"));
                }
                let raw = &self.line[self.pos + 1..i];
                self.pos = i + 1;
                Ok(RawTerm {
                    raw,
                    literal: true,
                    escaped: any_escape,
                })
            }
            Some(_) => Err(self.error("expected `<` or `\"` at start of term")),
            None => Err(self.error("unexpected end of line")),
        }
    }

    fn expect_dot(&mut self) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_ws();
            if self.pos == self.line.len() {
                Ok(())
            } else {
                Err(self.error("trailing content after `.`"))
            }
        } else {
            Err(self.error("expected terminating `.`"))
        }
    }
}

/// Parses one line into a borrowed [`TripleRef`] without allocating.
///
/// Returns `Ok(None)` for blank lines and comments. `scratch` is only
/// written when a term contains escape sequences, and then holds the
/// decoded terms one after another; reusing one buffer across lines
/// removes a per-line allocation.
pub fn parse_line_ref<'a>(
    line: &'a str,
    line_no: usize,
    scratch: &'a mut String,
) -> Result<Option<TripleRef<'a>>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let mut cursor = Cursor {
        line: trimmed,
        pos: 0,
        line_no,
    };
    let subject = cursor.parse_term_raw()?;
    if subject.literal {
        return Err(cursor.error("subject must be an IRI"));
    }
    let predicate = cursor.parse_term_raw()?;
    if predicate.literal {
        return Err(cursor.error("predicate must be an IRI"));
    }
    let object = cursor.parse_term_raw()?;
    cursor.expect_dot()?;
    let object_term: fn(&'a str) -> TermRef<'a> = if object.literal {
        TermRef::Literal
    } else {
        TermRef::Iri
    };
    if !(subject.escaped || predicate.escaped || object.escaped) {
        return Ok(Some(TripleRef {
            subject: subject.raw,
            predicate: predicate.raw,
            object: object_term(object.raw),
        }));
    }

    // The escaped terms, decoded into `scratch` back to back: term `i`
    // ends at `ends[i]`.
    scratch.clear();
    let mut ends = [0; 3];
    for (term, end) in [&subject, &predicate, &object].into_iter().zip(&mut ends) {
        if term.escaped {
            unescape_into(term.raw, !term.literal, &mut *scratch)
                .map_err(|message| cursor.error(message))?;
        }
        *end = scratch.len();
    }
    let scratch: &'a str = scratch;
    let text = |term: &RawTerm<'a>, start, end| {
        if term.escaped {
            &scratch[start..end]
        } else {
            term.raw
        }
    };
    Ok(Some(TripleRef {
        subject: text(&subject, 0, ends[0]),
        predicate: text(&predicate, ends[0], ends[1]),
        object: object_term(text(&object, ends[1], ends[2])),
    }))
}

/// Attaches the offending line number to a graph-insertion error.
///
/// A line can parse cleanly and still be rejected by the graph's typing
/// rules (Definition 1) — e.g. a `type` predicate with a literal object.
/// Those classification errors come out of [`DataGraph::insert_triple_ref`]
/// without positional context; the ingest paths wrap them so every
/// per-line failure reports the line it came from, exactly like syntax
/// errors do.
fn insert_error_at_line(err: RdfError, line_no: usize) -> RdfError {
    match err {
        // Already positioned (cannot currently come out of insertion, but
        // never double-wrap).
        err @ RdfError::Parse { .. } => err,
        other => RdfError::Parse {
            line: line_no,
            message: other.to_string(),
        },
    }
}

/// Counters reported by [`ingest_ntriples`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Total lines read (including comments and blank lines).
    pub lines: usize,
    /// Triples inserted into the graph.
    pub triples: usize,
}

/// Streams N-Triples from any `BufRead` source straight into a
/// [`DataGraph`].
///
/// The document is never materialised: one line buffer and one scratch
/// buffer for escaped terms are reused for the whole stream, and each triple is
/// classified and interned via the borrowed [`DataGraph::insert_triple_ref`]
/// path. The resulting graph is bit-identical to one built by inserting
/// the same triples as owned [`Triple`](crate::Triple)s in the same order.
pub fn ingest_ntriples<R: BufRead>(mut reader: R, graph: &mut DataGraph) -> Result<IngestStats> {
    let mut line = String::new();
    let mut scratch = String::new();
    let mut stats = IngestStats::default();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        stats.lines += 1;
        if let Some(t) = parse_line_ref(&line, stats.lines, &mut scratch)? {
            graph
                .insert_triple_ref(&t)
                .map_err(|e| insert_error_at_line(e, stats.lines))?;
            stats.triples += 1;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_graph, figure1_triples};
    use crate::triple::Triple;

    /// `triples` inserted in order into a fresh graph.
    fn graph_of(triples: &[Triple]) -> DataGraph {
        let mut graph = DataGraph::new();
        for t in triples {
            graph.insert_triple(t).unwrap();
        }
        graph
    }

    /// `graph` written as one document.
    fn document(graph: &DataGraph) -> String {
        let mut out = Vec::new();
        write_graph_to(graph, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// `doc` ingested into a fresh graph.
    fn ingest(doc: &str) -> (DataGraph, IngestStats) {
        let mut graph = DataGraph::new();
        let stats = ingest_ntriples(doc.as_bytes(), &mut graph).unwrap();
        (graph, stats)
    }

    /// The one triple on `line`, parsed.
    fn parse(line: &str) -> Triple {
        let mut scratch = String::new();
        let parsed = parse_line_ref(line, 1, &mut scratch).unwrap();
        parsed.expect("a triple line").to_triple()
    }

    #[test]
    fn single_triple_round_trip() {
        let t = Triple::attribute("re2URI", "name", "P. Cimiano");
        let doc = document(&graph_of(std::slice::from_ref(&t)));
        assert_eq!(doc, "<re2URI> <name> \"P. Cimiano\" .\n");
        assert_eq!(parse(doc.trim_end()), t);
    }

    #[test]
    fn literal_escaping_round_trip() {
        let original = Triple::attribute(
            "p",
            "title",
            "A \"quoted\" title \\ with backslash\nand newline",
        );
        let doc = document(&graph_of(std::slice::from_ref(&original)));
        assert_eq!(
            doc,
            "<p> <title> \"A \\\"quoted\\\" title \\\\ with backslash\\nand newline\" .\n"
        );
        assert_eq!(parse(doc.trim_end()), original);
    }

    /// N-Triples' ECHAR and UCHAR escapes decode to the characters they
    /// name, and a written carriage return comes back as one.
    #[test]
    fn echar_and_uchar_escapes_decode() {
        let line = r#"<s> <p> "a\tb\u00E9c\rd\U0001F600\b\f\'" ."#;
        assert_eq!(
            parse(line),
            Triple::attribute("s", "p", "a\tb\u{e9}c\rd\u{1F600}\u{8}\u{c}'")
        );
        let original = Triple::attribute("p", "title", "carriage\rreturn");
        let doc = document(&graph_of(std::slice::from_ref(&original)));
        assert_eq!(doc, "<p> <title> \"carriage\\rreturn\" .\n");
        assert_eq!(parse(doc.trim_end()), original);
    }

    /// A short or non-hex UCHAR, an escape N-Triples does not define and a
    /// code point that is not a Unicode scalar value are parse errors on
    /// their line.
    #[test]
    fn malformed_escapes_are_parse_errors() {
        for literal in [r"\u12", r"\u12G4", r"\q", r"\uD800", r"\U00110000"] {
            let doc = format!("<s> <q> <o> .\n<s> <p> \"{literal}\" .\n");
            let mut g = DataGraph::new();
            match ingest_ntriples(doc.as_bytes(), &mut g) {
                Err(RdfError::Parse { line, message }) => {
                    assert_eq!(line, 2, "{literal}");
                    assert!(message.contains(&literal[..2]), "{literal}: {message}");
                }
                other => panic!("{literal} must be a parse error, got {other:?}"),
            }
        }
    }

    /// An IRI holding characters IRIREF forbids is written with UCHARs and
    /// reads back as the IRI written; a clean IRI stays borrowed.
    #[test]
    fn iris_with_forbidden_characters_round_trip() {
        let original = Triple::relation("a>b c", "p", "o");
        let doc = document(&graph_of(std::slice::from_ref(&original)));
        assert_eq!(doc, "<a\\u003Eb\\u0020c> <p> <o> .\n");
        assert_eq!(ingest(&doc).0.triples(), [original]);

        let original = Triple::attribute("x\\y\n{z}", "has|\"note\"", "v");
        let doc = document(&graph_of(std::slice::from_ref(&original)));
        assert_eq!(
            doc,
            "<x\\u005Cy\\u000A\\u007Bz\\u007D> <has\\u007C\\u0022note\\u0022> \"v\" .\n"
        );
        assert_eq!(parse(doc.trim_end()), original);

        let mut scratch = String::new();
        let t = parse_line_ref("<s\\u00E9> <p> <o> .", 1, &mut scratch)
            .unwrap()
            .unwrap();
        assert_eq!(t.subject, "s\u{e9}");
        assert_eq!(scratch, "s\u{e9}");
        scratch.clear();
        let t = parse_line_ref("<s\u{e9}> <p> <o> .", 1, &mut scratch)
            .unwrap()
            .unwrap();
        assert_eq!(t.subject, "s\u{e9}");
        assert!(
            scratch.is_empty(),
            "a clean IRI does not touch the scratch buffer"
        );
    }

    /// Inside an IRI only UCHAR decodes: an ECHAR, an unknown escape, a
    /// short UCHAR and a lone trailing `\` are parse errors on their line.
    #[test]
    fn iri_escapes_other_than_uchar_are_parse_errors() {
        for iri in [r"a\n", r"a\\", r"a\q", r"a\u12", r"a\"] {
            let doc = format!("<s> <q> <o> .\n<s> <p> <{iri}> .\n");
            let mut g = DataGraph::new();
            match ingest_ntriples(doc.as_bytes(), &mut g) {
                Err(RdfError::Parse { line, message }) => {
                    assert_eq!(line, 2, "{iri}");
                    assert!(message.contains('\\'), "{iri}: {message}");
                }
                other => panic!("{iri} must be a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (graph, stats) = ingest("# a comment\n\n<s> <p> <o> .\n   \n# another\n");
        assert_eq!((stats.lines, stats.triples), (5, 1));
        assert_eq!(graph.triples(), [Triple::relation("s", "p", "o")]);
    }

    #[test]
    fn document_round_trip_preserves_all_triples() {
        let triples = figure1_triples();
        let (graph, stats) = ingest(&document(&graph_of(&triples)));
        assert_eq!(stats.triples, triples.len());
        assert_eq!(graph.triples(), triples);
    }

    /// A written and re-ingested graph is the same graph, id for id, and
    /// writes the same document again.
    #[test]
    fn graph_round_trip() {
        let original = figure1_graph();
        let doc = document(&original);
        let (graph, stats) = ingest(&doc);
        assert_eq!(stats.lines, doc.lines().count());
        assert_eq!(graph.vertex_count(), original.vertex_count());
        assert_eq!(graph.edge_count(), original.edge_count());
        for v in original.vertices() {
            assert_eq!(graph.vertex(v), original.vertex(v));
            assert_eq!(graph.vertex_label(v), original.vertex_label(v));
        }
        for e in original.edges() {
            assert_eq!(graph.edge(e), original.edge(e));
        }
        assert_eq!(document(&graph), doc);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut scratch = String::new();
        match parse_line_ref("<s> <p> broken .", 2, &mut scratch) {
            Err(RdfError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn various_malformed_lines_are_rejected() {
        let cases = [
            "<s> <p> <o>",              // missing dot
            "<s> <p> \"unterminated .", // unterminated literal
            "\"lit\" <p> <o> .",        // literal subject
            "<s> \"p\" <o> .",          // literal predicate
            "<s> <p> <o> . extra",      // trailing garbage
            "<s <p> <o> .",             // unterminated IRI
        ];
        let mut scratch = String::new();
        for case in cases {
            let parsed = parse_line_ref(case, 1, &mut scratch);
            assert!(parsed.is_err(), "should reject: {case}");
        }
    }
    #[test]
    fn parse_line_ref_borrows_clean_literals() {
        let line = "<s> <year> \"2006\" .";
        let mut scratch = String::new();
        let t = parse_line_ref(line, 1, &mut scratch).unwrap().unwrap();
        assert_eq!(t.subject, "s");
        assert_eq!(t.predicate, "year");
        assert_eq!(t.object, TermRef::Literal("2006"));
        // The clean path must not touch the scratch buffer.
        assert!(scratch.is_empty());
    }

    #[test]
    fn parse_line_ref_unescapes_into_scratch() {
        let line = "<s> <title> \"a \\\"b\\\" c\" .";
        let mut scratch = String::new();
        let t = parse_line_ref(line, 1, &mut scratch).unwrap().unwrap();
        assert_eq!(t.object, TermRef::Literal("a \"b\" c"));
    }

    #[test]
    fn ingest_reports_parse_errors_with_line_numbers() {
        let doc = "<s> <p> <o> .\nnot a triple\n";
        let mut g = DataGraph::new();
        let err = ingest_ntriples(doc.as_bytes(), &mut g).unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// Asserts the streamed ingest fails on exactly `line` for `doc`.
    fn ingest_error_line(doc: &str) -> usize {
        let mut g = DataGraph::new();
        match ingest_ntriples(doc.as_bytes(), &mut g).unwrap_err() {
            RdfError::Parse { line, .. } => line,
            other => panic!("expected a positioned parse error, got {other:?}"),
        }
    }

    #[test]
    fn crlf_line_endings_do_not_shift_error_line_numbers() {
        // CRLF terminators everywhere; the bad line is the third.
        let doc = "<s> <p> <o> .\r\n<s> <q> <o> .\r\n<s> <p> broken .\r\n";
        assert_eq!(ingest_error_line(doc), 3);
        // CRLF documents also ingest cleanly when well-formed.
        let mut g = DataGraph::new();
        let stats = ingest_ntriples("<s> <p> <o> .\r\n".as_bytes(), &mut g).unwrap();
        assert_eq!((stats.lines, stats.triples), (1, 1));
    }

    #[test]
    fn trailing_whitespace_after_the_dot_is_accepted_and_does_not_shift_lines() {
        // Trailing spaces and tabs after the terminating `.` are legal and
        // must neither reject the line nor disturb later error positions.
        let doc = "<s> <p> <o> .   \t\n<s> <q> <o> . \n<s> <p> broken .\n";
        assert_eq!(ingest_error_line(doc), 3);
        let mut g = DataGraph::new();
        let stats = ingest_ntriples("<s> <p> <o> .   \n".as_bytes(), &mut g).unwrap();
        assert_eq!((stats.lines, stats.triples), (1, 1));
    }

    #[test]
    fn interleaved_comments_and_blank_lines_keep_error_lines_physical() {
        // Comments and blank lines count as physical lines: the malformed
        // triple below sits on physical line 6, not on "triple number 2".
        let doc = "# header\n\n<s> <p> <o> .\n   \n# more\n<s> <p> broken .\n";
        assert_eq!(ingest_error_line(doc), 6);
    }

    #[test]
    fn graph_insertion_errors_carry_the_offending_line_number() {
        // Line 3 parses fine but violates Definition 1 (`type` with a
        // literal object); the classification error must still be positioned.
        let doc = "# schema\n<s> <p> <o> .\n<s> <type> \"Person\" .\n";
        let mut g = DataGraph::new();
        match ingest_ntriples(doc.as_bytes(), &mut g).unwrap_err() {
            RdfError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("literal object"), "got: {message}");
            }
            other => panic!("expected a positioned error, got {other:?}"),
        }
    }
}
