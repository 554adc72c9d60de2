//! A small, dependency-free CSV reader/writer.
//!
//! Snowman's custom importers are "as simple as defining the separator,
//! quote, escape symbols and a mapping for rows" (§5.1). This module
//! provides exactly that: a configurable delimited-text reader used by
//! every importer in `frost-storage` (datasets, gold pairs, experiments
//! and the CSV store loader).
//!
//! [`read_csv`] is the one reader. It walks the input's bytes once and
//! hands each row to a callback as a [`CsvRow`] of borrowed `&str` fields:
//! an unquoted field is a slice of the input, and only a field that
//! contains a quote is unescaped, into one scratch buffer the reader
//! reuses for every row. Reading a table therefore allocates nothing
//! per row or per field. [`parse_csv`] is a short collect over it for
//! callers that want owned rows.
//!
//! The dialect symbols may be any `char`, including multi-byte ones:
//! the reader matches their UTF-8 encodings, and since a UTF-8 lead
//! byte never occurs inside another character, a match always starts on
//! a character boundary.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Parser/writer configuration: separator, quote and escape symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsvOptions {
    /// Field separator, usually `,` or `;` or `\t`.
    pub separator: char,
    /// Quote character wrapping fields that contain separators/newlines.
    pub quote: char,
    /// Escape character used *inside* quoted fields to escape the quote.
    /// When equal to `quote`, doubled quotes (`""`) act as the escape,
    /// per RFC 4180.
    pub escape: char,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            separator: ',',
            quote: '"',
            escape: '"',
        }
    }
}

impl CsvOptions {
    /// RFC 4180-style comma-separated values.
    pub fn comma() -> Self {
        Self::default()
    }

    /// Tab-separated values.
    pub fn tsv() -> Self {
        Self {
            separator: '\t',
            ..Self::default()
        }
    }

    /// Semicolon-separated values (common in European exports).
    pub fn semicolon() -> Self {
        Self {
            separator: ';',
            ..Self::default()
        }
    }
}

/// Errors raised while parsing delimited text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A quoted field was never closed before end of input.
    UnterminatedQuote {
        /// 1-based line on which the field started.
        line: usize,
    },
    /// A row had a different number of fields than the first row.
    RaggedRow {
        /// 1-based row number.
        row: usize,
        /// Fields found in this row.
        found: usize,
        /// Fields expected (width of the first row).
        expected: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            CsvError::RaggedRow {
                row,
                found,
                expected,
            } => write!(f, "row {row} has {found} fields, expected {expected}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Collects delimited text into owned rows of fields.
///
/// * Handles quoted fields, escaped quotes, embedded separators and
///   embedded newlines.
/// * Accepts `\n`, `\r\n` and a lone `\r` as row terminators.
/// * Rejects ragged rows (all rows must match the first row's width).
/// * An empty input yields no rows; blank lines and a trailing newline
///   do not produce empty rows.
///
/// A collect over [`read_csv`]; importers call that directly and keep
/// only what they need of each row.
pub fn parse_csv(input: &str, opts: CsvOptions) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows = Vec::new();
    read_csv(input, opts, |row| {
        rows.push(row.iter().map(str::to_owned).collect());
        Ok::<(), CsvError>(())
    })?;
    Ok(rows)
}

/// Streams every row of `input` through `f`, in order.
///
/// Each [`CsvRow`] borrows its fields from `input` (or, for quoted fields,
/// from the reader's scratch buffer), so `f` must copy what it keeps.
///
/// Structural errors take precedence over `f`'s: once `f` fails, or a
/// row turns out ragged, `f` is not called again, but the scan goes on
/// to the end of the input. The result is then, by precedence,
/// [`CsvError::UnterminatedQuote`], the first [`CsvError::RaggedRow`],
/// or `f`'s first error — the same error that collecting every row
/// first and processing them afterwards would report.
pub fn read_csv<E: From<CsvError>>(
    input: &str,
    opts: CsvOptions,
    mut f: impl FnMut(CsvRow<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let mut reader = Reader::new(input, opts);
    let mut ragged = None;
    let mut failed = None;
    while let Some(row) = reader.next_row() {
        match row {
            Ok(row) => {
                if ragged.is_none() && failed.is_none() {
                    failed = f(row).err();
                }
            }
            Err(e @ CsvError::RaggedRow { .. }) => {
                ragged.get_or_insert(e);
            }
            Err(e) => return Err(e.into()),
        }
    }
    match (ragged, failed) {
        (Some(e), _) => Err(e.into()),
        (None, Some(e)) => Err(e),
        (None, None) => Ok(()),
    }
}

/// One row handed out by [`read_csv`]: its fields, borrowed.
#[derive(Clone, Copy)]
pub struct CsvRow<'r> {
    number: usize,
    input: &'r str,
    scratch: &'r str,
    fields: &'r [Field],
}

impl<'r> CsvRow<'r> {
    /// 1-based row number (blank lines are not rows; the header is row 1).
    pub fn number(&self) -> usize {
        self.number
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the row has no fields (never true for a row that
    /// [`read_csv`] hands out: every row has at least one field).
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The `i`-th field, or `None` past the end of the row.
    pub fn get(&self, i: usize) -> Option<&'r str> {
        self.fields.get(i).map(|f| self.text(f))
    }

    /// The fields in order.
    pub fn iter(&self) -> impl Iterator<Item = &'r str> + '_ {
        self.fields.iter().map(|f| self.text(f))
    }

    fn text(&self, f: &Field) -> &'r str {
        let source = if f.unescaped {
            self.scratch
        } else {
            self.input
        };
        &source[f.start..f.end]
    }
}

impl fmt::Debug for CsvRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl std::ops::Index<usize> for CsvRow<'_> {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        match self.get(i) {
            Some(field) => field,
            None => panic!("field {i} out of range for a row of {} fields", self.len()),
        }
    }
}

/// Where one field's text lives: a byte range of the input, or of the
/// scratch buffer once a quote made the field need unescaping.
#[derive(Debug, Clone, Copy)]
struct Field {
    start: usize,
    end: usize,
    unescaped: bool,
}

/// A dialect symbol as its UTF-8 bytes.
#[derive(Clone, Copy)]
struct Symbol {
    bytes: [u8; 4],
    len: usize,
}

impl Symbol {
    fn new(c: char) -> Self {
        let mut bytes = [0; 4];
        let len = c.encode_utf8(&mut bytes).len();
        Self { bytes, len }
    }

    #[inline]
    fn at(&self, input: &[u8], pos: usize) -> bool {
        input[pos..].starts_with(&self.bytes[..self.len])
    }
}

/// Bytes that may start a symbol the scan must stop at.
fn stop_table(symbols: &[u8]) -> [bool; 256] {
    let mut table = [false; 256];
    for &b in symbols {
        table[b as usize] = true;
    }
    table
}

/// The byte-level state machine behind [`read_csv`].
struct Reader<'a> {
    input: &'a str,
    pos: usize,
    separator: Symbol,
    quote: Symbol,
    escape: Symbol,
    /// When the escape is the quote, `""` inside quotes is a literal
    /// quote (RFC 4180); otherwise the escape takes the next char.
    doubled_quote: bool,
    /// Lead bytes of the quote, the separator and the row terminators.
    plain_stops: [bool; 256],
    /// Lead bytes of the escape, the quote and `\n` (counted as a line).
    quoted_stops: [bool; 256],
    line: usize,
    rows: usize,
    width: Option<usize>,
    fields: Vec<Field>,
    scratch: String,
}

impl<'a> Reader<'a> {
    fn new(input: &'a str, opts: CsvOptions) -> Self {
        let (separator, quote, escape) = (
            Symbol::new(opts.separator),
            Symbol::new(opts.quote),
            Symbol::new(opts.escape),
        );
        Self {
            input,
            pos: 0,
            separator,
            quote,
            escape,
            doubled_quote: opts.escape == opts.quote,
            plain_stops: stop_table(&[quote.bytes[0], separator.bytes[0], b'\n', b'\r']),
            quoted_stops: stop_table(&[escape.bytes[0], quote.bytes[0], b'\n']),
            line: 1,
            rows: 0,
            width: None,
            fields: Vec::new(),
            scratch: String::new(),
        }
    }

    /// The next non-blank row, a structural error, or `None` at the end
    /// of the input. A ragged row is reported and skipped (the next
    /// call goes on with the row after it); an unterminated quote
    /// consumes the rest of the input.
    fn next_row(&mut self) -> Option<Result<CsvRow<'_>, CsvError>> {
        match self.read_row() {
            Err(e) => Some(Err(e)),
            Ok(false) => None,
            Ok(true) => {
                self.rows += 1;
                let found = self.fields.len();
                let expected = *self.width.get_or_insert(found);
                if found != expected {
                    return Some(Err(CsvError::RaggedRow {
                        row: self.rows,
                        found,
                        expected,
                    }));
                }
                Some(Ok(CsvRow {
                    number: self.rows,
                    input: self.input,
                    scratch: &self.scratch,
                    fields: &self.fields,
                }))
            }
        }
    }

    /// Reads the fields of the next non-blank row into `fields`;
    /// `Ok(false)` when the input holds no further row.
    fn read_row(&mut self) -> Result<bool, CsvError> {
        self.fields.clear();
        self.scratch.clear();
        let bytes = self.input.as_bytes();
        // Whether the row has content yet: a blank line is no row.
        let mut started = false;
        let mut field_start = self.pos;
        // `Some(scratch offset)` once the field holds a quote: from then
        // on its text is assembled in `scratch`, and `copied` marks how
        // far the field's input has been copied there (until then it
        // stays at `field_start`).
        let mut unescaped: Option<usize> = None;
        let mut copied = self.pos;
        loop {
            let run = self.pos;
            while self.pos < bytes.len() && !self.plain_stops[bytes[self.pos] as usize] {
                self.pos += 1;
            }
            started |= self.pos > run;
            if self.pos == bytes.len() {
                if started {
                    self.end_field(field_start, unescaped, copied, self.pos);
                }
                return Ok(started);
            }
            if self.quote.at(bytes, self.pos) {
                started = true;
                unescaped.get_or_insert(self.scratch.len());
                self.scratch.push_str(&self.input[copied..self.pos]);
                self.pos += self.quote.len;
                self.read_quoted()?;
                copied = self.pos;
            } else if self.separator.at(bytes, self.pos) {
                started = true;
                self.end_field(field_start, unescaped, copied, self.pos);
                self.pos += self.separator.len;
                field_start = self.pos;
                unescaped = None;
                copied = self.pos;
            } else if matches!(bytes[self.pos], b'\n' | b'\r') {
                let end = self.pos;
                self.pos += 1;
                if bytes[end] == b'\r' && bytes.get(self.pos) == Some(&b'\n') {
                    self.pos += 1;
                }
                self.line += 1;
                if started {
                    self.end_field(field_start, unescaped, copied, end);
                    return Ok(true);
                }
                field_start = self.pos;
                copied = self.pos;
            } else {
                // The lead byte of a multi-byte char that is not one of
                // the symbols.
                started = true;
                self.pos += 1;
            }
        }
    }

    /// Ends the current field at input offset `end`.
    fn end_field(
        &mut self,
        field_start: usize,
        unescaped: Option<usize>,
        copied: usize,
        end: usize,
    ) {
        let field = match unescaped {
            None => Field {
                start: field_start,
                end,
                unescaped: false,
            },
            Some(start) => {
                self.scratch.push_str(&self.input[copied..end]);
                Field {
                    start,
                    end: self.scratch.len(),
                    unescaped: true,
                }
            }
        };
        self.fields.push(field);
    }

    /// Copies a quoted section (the opening quote already consumed)
    /// into `scratch`, up to and past its closing quote.
    fn read_quoted(&mut self) -> Result<(), CsvError> {
        let bytes = self.input.as_bytes();
        let opened_on = self.line;
        let mut copied = self.pos;
        loop {
            while self.pos < bytes.len() && !self.quoted_stops[bytes[self.pos] as usize] {
                self.pos += 1;
            }
            if self.pos == bytes.len() {
                return Err(CsvError::UnterminatedQuote { line: opened_on });
            }
            if self.escape.at(bytes, self.pos) {
                self.scratch.push_str(&self.input[copied..self.pos]);
                self.pos += self.escape.len;
                if self.doubled_quote {
                    if !self.quote.at(bytes, self.pos) {
                        return Ok(());
                    }
                    // Keep the second quote as the literal.
                    copied = self.pos;
                    self.pos += self.quote.len;
                } else {
                    // The char after the escape is taken literally.
                    copied = self.pos;
                    if let Some(c) = self.input[self.pos..].chars().next() {
                        if c == '\n' {
                            self.line += 1;
                        }
                        self.pos += c.len_utf8();
                    }
                }
            } else if self.quote.at(bytes, self.pos) {
                self.scratch.push_str(&self.input[copied..self.pos]);
                self.pos += self.quote.len;
                return Ok(());
            } else {
                if bytes[self.pos] == b'\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
        }
    }
}

/// Serializes rows back to delimited text. Fields containing the
/// separator, quote, `\n` or `\r` are quoted; quotes are escaped.
pub fn write_csv<R, F>(rows: R, opts: CsvOptions) -> String
where
    R: IntoIterator<Item = F>,
    F: IntoIterator<Item = String>,
{
    let mut out = String::new();
    for row in rows {
        let mut first = true;
        for field in row {
            if !first {
                out.push(opts.separator);
            }
            first = false;
            let needs_quoting = field.contains(opts.separator)
                || field.contains(opts.quote)
                || field.contains('\n')
                || field.contains('\r');
            if needs_quoting {
                out.push(opts.quote);
                for c in field.chars() {
                    if c == opts.quote {
                        out.push(opts.escape);
                    }
                    out.push(c);
                }
                out.push(opts.quote);
            } else {
                out.push_str(&field);
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-level parser the byte reader replaced, kept as the
    /// reference the reader must agree with.
    fn reference_parse(input: &str, opts: CsvOptions) -> Result<Vec<Vec<String>>, CsvError> {
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut row: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut chars = input.chars().peekable();
        let mut in_quotes = false;
        let mut quote_start_line = 1usize;
        let mut line = 1usize;
        let mut row_started = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == opts.escape && opts.escape == opts.quote {
                    if chars.peek() == Some(&opts.quote) {
                        field.push(opts.quote);
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                } else if c == opts.escape {
                    if let Some(next) = chars.next() {
                        field.push(next);
                        if next == '\n' {
                            line += 1;
                        }
                    }
                } else if c == opts.quote {
                    in_quotes = false;
                } else {
                    if c == '\n' {
                        line += 1;
                    }
                    field.push(c);
                }
            } else if c == opts.quote {
                in_quotes = true;
                quote_start_line = line;
                row_started = true;
            } else if c == opts.separator {
                row.push(std::mem::take(&mut field));
                row_started = true;
            } else if c == '\n' || c == '\r' {
                if c == '\r' && chars.peek() == Some(&'\n') {
                    chars.next();
                }
                line += 1;
                if row_started || !field.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                row_started = false;
            } else {
                field.push(c);
                row_started = true;
            }
        }
        if in_quotes {
            return Err(CsvError::UnterminatedQuote {
                line: quote_start_line,
            });
        }
        if row_started || !field.is_empty() || !row.is_empty() {
            row.push(field);
            rows.push(row);
        }
        if let Some(width) = rows.first().map(Vec::len) {
            for (i, r) in rows.iter().enumerate() {
                if r.len() != width {
                    return Err(CsvError::RaggedRow {
                        row: i + 1,
                        found: r.len(),
                        expected: width,
                    });
                }
            }
        }
        Ok(rows)
    }

    /// The dialects the agreement property runs under: RFC 4180, a
    /// distinct escape, `;`, `\t`, and a multi-byte separator, quote
    /// and escape.
    fn dialects() -> Vec<CsvOptions> {
        vec![
            CsvOptions::comma(),
            CsvOptions {
                escape: '\\',
                ..CsvOptions::comma()
            },
            CsvOptions::semicolon(),
            CsvOptions::tsv(),
            CsvOptions {
                separator: '¦',
                ..CsvOptions::comma()
            },
            CsvOptions {
                separator: '→',
                quote: '«',
                escape: '§',
            },
        ]
    }

    /// Pieces of text drawn from the symbols of every dialect, row
    /// terminators and multi-byte letters (`©` shares `¦`'s lead byte).
    const PIECES: [&str; 22] = [
        "a", "bc", "r12", "", ",", ";", "\t", "\"", "\"\"", "\\", "\n", "\r\n", "\r", "\n\n", "é",
        "©", "¦", "→", "«", "§", "日本", " ",
    ];

    fn csv_text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..PIECES.len(), 0..40)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The byte reader returns the reference parser's rows, and
        /// its error values, on every dialect.
        #[test]
        fn reader_agrees_with_reference(text in csv_text(), dialect in 0usize..6) {
            let opts = dialects()[dialect];
            prop_assert_eq!(parse_csv(&text, opts), reference_parse(&text, opts));
        }
    }

    #[test]
    fn reader_borrows_unquoted_fields() {
        let input = "a,\"b\"\"c\"d,e\n";
        read_csv(input, CsvOptions::comma(), |row| {
            let first = row.get(0).unwrap();
            // An unquoted field is a slice of the input itself.
            assert_eq!(first.as_ptr(), input.as_ptr());
            assert_eq!(&row[1], "b\"cd");
            assert_eq!(row.get(2), Some("e"));
            assert_eq!(row.get(3), None);
            assert_eq!(row.number(), 1);
            Ok::<(), CsvError>(())
        })
        .unwrap();
    }

    #[test]
    fn structural_errors_beat_callback_errors() {
        #[derive(Debug, PartialEq)]
        enum E {
            Csv(CsvError),
            Mine(usize),
        }
        impl From<CsvError> for E {
            fn from(e: CsvError) -> Self {
                E::Csv(e)
            }
        }
        let fail_on_2 = |row: CsvRow<'_>| {
            if row.number() == 2 {
                Err(E::Mine(2))
            } else {
                Ok(())
            }
        };
        assert_eq!(
            read_csv("a,b\nc,d\ne,f\n", CsvOptions::comma(), fail_on_2),
            Err(E::Mine(2))
        );
        // A ragged row after the failing row still wins …
        assert_eq!(
            read_csv("a,b\nc,d\ne\n", CsvOptions::comma(), fail_on_2),
            Err(E::Csv(CsvError::RaggedRow {
                row: 3,
                found: 1,
                expected: 2
            }))
        );
        // … and an unterminated quote beats an earlier ragged row.
        assert_eq!(
            read_csv("a,b\nc\n\"e,f\n", CsvOptions::comma(), fail_on_2),
            Err(E::Csv(CsvError::UnterminatedQuote { line: 3 }))
        );
    }

    #[test]
    fn lone_cr_and_blank_lines_end_rows() {
        let rows = parse_csv("a,b\r\r\nc,d\n\n\re,f", CsvOptions::comma()).unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"], vec!["e", "f"]]);
    }

    #[test]
    fn simple_rows() {
        let rows = parse_csv("a,b\nc,d\n", CsvOptions::comma()).unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn crlf_and_no_trailing_newline() {
        let rows = parse_csv("a,b\r\nc,d", CsvOptions::comma()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["c", "d"]);
    }

    #[test]
    fn quoted_fields_with_separator_and_newline() {
        let rows = parse_csv("\"a,1\",\"b\nx\"\n", CsvOptions::comma()).unwrap();
        assert_eq!(rows, vec![vec!["a,1".to_string(), "b\nx".to_string()]]);
    }

    #[test]
    fn doubled_quote_escape() {
        let rows = parse_csv("\"he said \"\"hi\"\"\",x\n", CsvOptions::comma()).unwrap();
        assert_eq!(rows[0][0], "he said \"hi\"");
        assert_eq!(rows[0][1], "x");
    }

    #[test]
    fn distinct_escape_char() {
        let opts = CsvOptions {
            separator: ',',
            quote: '"',
            escape: '\\',
        };
        let rows = parse_csv("\"a\\\"b\",y\n", opts).unwrap();
        assert_eq!(rows[0][0], "a\"b");
    }

    #[test]
    fn empty_fields() {
        let rows = parse_csv("a,,c\n,,\n", CsvOptions::comma()).unwrap();
        assert_eq!(rows[0], vec!["a", "", "c"]);
        assert_eq!(rows[1], vec!["", "", ""]);
    }

    #[test]
    fn empty_input_yields_no_rows() {
        assert!(parse_csv("", CsvOptions::comma()).unwrap().is_empty());
        assert!(parse_csv("\n", CsvOptions::comma()).unwrap().is_empty());
    }

    #[test]
    fn unterminated_quote_error() {
        let err = parse_csv("\"abc", CsvOptions::comma()).unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 1 });
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn ragged_row_error() {
        let err = parse_csv("a,b\nc\n", CsvOptions::comma()).unwrap_err();
        assert_eq!(
            err,
            CsvError::RaggedRow {
                row: 2,
                found: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn tsv_and_semicolon_presets() {
        let rows = parse_csv("a\tb\n", CsvOptions::tsv()).unwrap();
        assert_eq!(rows[0], vec!["a", "b"]);
        let rows = parse_csv("a;b\n", CsvOptions::semicolon()).unwrap();
        assert_eq!(rows[0], vec!["a", "b"]);
    }

    #[test]
    fn roundtrip() {
        let original = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with \"quote\"".to_string(), "multi\nline".to_string()],
        ];
        let text = write_csv(original.clone(), CsvOptions::comma());
        let parsed = parse_csv(&text, CsvOptions::comma()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn quoted_empty_string_is_a_field() {
        let rows = parse_csv("\"\",x\n", CsvOptions::comma()).unwrap();
        assert_eq!(rows[0], vec!["", "x"]);
    }
}
