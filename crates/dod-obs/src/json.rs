//! The workspace's one JSON reader and writer.
//!
//! The workspace builds offline (no serde), so JSON is hand-rolled —
//! once. Every component that emits JSON (the [`crate::JsonlRecorder`]
//! trace writer, the flight recorder's dump path, the `dod serve`
//! response loop, checkpoint records) uses the writing primitives here,
//! and everything that reads it — protocol-v1 requests, checkpoint
//! manifests, task records and the DLQ, trace replay — goes through one
//! tokenizer, the pull [`Reader`]. Most callers take the [`Json`] tree
//! [`parse`] builds from its tokens and layer their schema on that; the
//! `dod serve` request loop, whose lines carry hundreds of coordinates,
//! reads the tokens straight into its own types. None scans bytes
//! itself.
//!
//! # Writer
//!
//! Two number flavors exist on purpose:
//!
//! * [`write_f64`] always emits a decimal point or exponent (`3.0`,
//!   never `3`) so trace replay can tell floats from integers when
//!   round-tripping label values;
//! * [`number`] emits the shortest form (`0`, `1.5`) for human-facing
//!   response fields where the distinction does not matter.
//!
//! Both serialize non-finite values (`NaN`, `±Inf`) as `null`: bare
//! `NaN` is not valid JSON and would poison every downstream consumer.
//!
//! # Reader contract
//!
//! The reader takes bytes from outside the program — a socket, a file
//! an operator may have truncated — so every rule below ends in a
//! [`ParseError`], never a panic, whether the tokens build a tree or
//! not:
//!
//! 1. **Nesting is bounded by [`MAX_DEPTH`].** [`parse`] recurses once
//!    per open `[` or `{`, so the bound is what keeps a line of 100,000
//!    `[` from overflowing the stack. It is a constant, not an option:
//!    the deepest document any writer in this workspace emits has fewer
//!    than ten levels, so no caller needs another value.
//! 2. **Numbers follow the JSON grammar** (`-`? digits, optional
//!    fraction, optional exponent; no `+1`, `.5`, `01` or `1.`). A token
//!    of at most 19 digits, a mantissa below 2^53 and no exponent — every
//!    six-decimal coordinate — is converted by the exact short-decimal
//!    fast path the CSV reader shares (`decimal.rs`: Clinger's
//!    `m / 10^f`, which returns `str::parse`'s bits); any other token by
//!    `str::parse::<f64>`. A result that is not finite is rejected: JSON
//!    has no infinity, so `1e999` is an error rather than a coordinate.
//! 3. **A number keeps what each caller needs, with no allocation.**
//!    [`Json::as_f64`] is bit-identical to `str::parse::<f64>` on the
//!    token, so `-0`, subnormals and Rust's shortest `Display` output
//!    re-read to the same bits (checkpointed floats resume
//!    byte-identically). A token without fraction or exponent that fits
//!    is also available exactly through [`Json::as_u64`] /
//!    [`Json::as_i64`] (`u64::MAX` and 2^53 + 1 survive); one that has a
//!    fraction or exponent, or does not fit, answers `None` there —
//!    which is how replay tells `U64`/`I64`/`F64` labels apart.
//! 4. **Strings** know the escapes `\" \\ \/ \n \r \t \b \f \uXXXX`;
//!    a surrogate pair decodes to its scalar and a lone surrogate is an
//!    error. Runs between escapes are copied by slice, and a string
//!    with no escape is lent from the input.
//! 5. **The whole input is one value.** Anything but whitespace after
//!    it is an error.
//!
//! Objects keep their fields in source order and [`Json::get`] returns
//! the first match; duplicate keys are not an error.

use std::borrow::Cow;
use std::io::{self, Write};

use crate::decimal;

/// Writes `s` as a JSON string literal with escaping.
pub fn write_str(out: &mut impl Write, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_all(b"\"")
}

/// Writes an `f64` so it round-trips through the replay parser
/// (always with a decimal point or exponent; non-finite as `null`).
pub fn write_f64(out: &mut impl Write, v: f64) -> io::Result<()> {
    if !v.is_finite() {
        return out.write_all(b"null");
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        out.write_all(s.as_bytes())
    } else {
        write!(out, "{s}.0")
    }
}

/// Escapes a string for embedding between quotes in a JSON document
/// (the allocating form of [`write_str`], without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len() + 2);
    write_str(&mut out, s).expect("writing to a Vec cannot fail");
    let mut quoted = String::from_utf8(out).expect("escaping emits valid UTF-8");
    quoted.pop(); // closing quote
    quoted.remove(0); // opening quote
    quoted
}

/// Appends `s` to `out` as a quoted JSON string literal.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// Appends `v` in decimal, the digits `Display` writes, without going
/// through `fmt`: for the reply loops that write hundreds of counts a
/// line.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Serializes an `f64` as a JSON value in its shortest form; non-finite
/// numbers (`NaN`, `±Inf`) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts (rule 1 of
/// the module's reader contract).
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Num),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// A number token: its `f64` value, and the exact integer when the
/// token was one (rule 3 of the module's reader contract). Read it
/// through [`Json::as_f64`], [`Json::as_u64`] and [`Json::as_i64`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Num {
    float: f64,
    int: Int,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Int {
    /// The token had a fraction or exponent, or does not fit.
    No,
    /// No leading `-`.
    Unsigned(u64),
    /// A leading `-` (so `-0` is `Negative(0)`).
    Negative(i64),
}

impl Num {
    /// The number's value: what `str::parse::<f64>` gives for its token,
    /// always finite.
    pub fn as_f64(self) -> f64 {
        self.float
    }

    /// The exact value of an integer token without a `-` that fits.
    pub fn as_u64(self) -> Option<u64> {
        match self.int {
            Int::Unsigned(v) => Some(v),
            _ => None,
        }
    }

    /// The exact value of an integer token that fits.
    pub fn as_i64(self) -> Option<i64> {
        match self.int {
            Int::Unsigned(v) => i64::try_from(v).ok(),
            Int::Negative(v) => Some(v),
            Int::No => None,
        }
    }
}

impl Json {
    /// Looks up a key in an object (the first match, in source order).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A number's value ([`Num::as_f64`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// A number's exact value as a `u64` ([`Num::as_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// A number's exact value as an `i64` ([`Num::as_i64`]).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    /// A number's exact value as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }
}

/// Why [`parse`] or a [`Reader`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the problem was found.
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses `text` as exactly one JSON value, under the module's reader
/// contract: a [`Json`] tree built from a [`Reader`]'s tokens.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut reader = Reader::new(text);
    let first = reader.next_token()?;
    let value = tree(&mut reader, first)?;
    reader.finish()?;
    Ok(value)
}

/// The value that begins with `token`, read to its end.
fn tree(reader: &mut Reader<'_>, token: Token<'_>) -> Result<Json, ParseError> {
    Ok(match token {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::Num(n) => Json::Num(n),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::ArrStart => {
            let mut items = Vec::new();
            loop {
                match reader.next_token()? {
                    Token::ArrEnd => break Json::Arr(items),
                    item => items.push(tree(reader, item)?),
                }
            }
        }
        Token::ObjStart => {
            let mut fields = Vec::new();
            loop {
                match reader.next_token()? {
                    Token::ObjEnd => break Json::Obj(fields),
                    Token::Key(key) => {
                        let value = reader.next_token()?;
                        fields.push((key.into_owned(), tree(reader, value)?));
                    }
                    other => unreachable!("an object holds keys, not {other:?}"),
                }
            }
        }
        Token::Key(_) | Token::ArrEnd | Token::ObjEnd => {
            unreachable!("a value does not begin with {token:?}")
        }
    })
}

/// One token of a JSON document, in the order a [`Reader`] meets them.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Num),
    /// A string value, unescaped; borrowed from the input when it had no
    /// escape.
    Str(Cow<'a, str>),
    /// An object key, unescaped; its `:` is consumed.
    Key(Cow<'a, str>),
    /// `[`.
    ArrStart,
    /// `]`.
    ArrEnd,
    /// `{`.
    ObjStart,
    /// `}`.
    ObjEnd,
}

impl Token<'_> {
    /// Whether the token opens an array or an object.
    fn opens(&self) -> bool {
        matches!(self, Token::ArrStart | Token::ObjStart)
    }
}

/// What a [`Reader`] reads next.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// A value.
    Value,
    /// The first item of an array, or its `]`.
    FirstItem,
    /// The first key of an object, or its `}`.
    FirstKey,
    /// A `,` and the next item or key, or the container's close.
    Next,
    /// Nothing: the document's one value has ended.
    Done,
}

// Open containers are kept one bit per level in a `u128`.
const _: () = assert!(MAX_DEPTH <= 128);

/// The workspace's one JSON tokenizer: a pull reader over one document,
/// yielding [`Token`]s under the module's reader contract. [`parse`]
/// builds its tree from these tokens; a caller that wants its own types
/// (the `dod serve` request loop) reads them directly and never builds a
/// tree.
///
/// Containers arrive as `ArrStart … ArrEnd` and `ObjStart (Key value)* ObjEnd`;
/// the reader checks the commas, colons and nesting between them. After
/// the document's value, [`Reader::finish`] refuses trailing bytes. An
/// error ends the document: the reader's state after one is unspecified.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// Bit `i` is set when the container at depth `i + 1` is an object.
    objects: u128,
    expect: Expect,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`, which should hold one value.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            expect: Expect::Value,
        }
    }

    /// The next token of the document.
    pub fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        match self.expect {
            Expect::Value => self.value(),
            Expect::FirstItem => {
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(self.close(Token::ArrEnd));
                }
                self.value()
            }
            Expect::FirstKey => {
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(self.close(Token::ObjEnd));
                }
                self.key()
            }
            Expect::Next => {
                self.skip_ws();
                let object = (self.objects >> (self.depth - 1)) & 1 == 1;
                let (close, token, message) = if object {
                    (b'}', Token::ObjEnd, "expected ',' or '}'")
                } else {
                    (b']', Token::ArrEnd, "expected ',' or ']'")
                };
                if self.eat(close) {
                    return Ok(self.close(token));
                }
                if !self.eat(b',') {
                    return Err(self.error(message));
                }
                if object {
                    self.key()
                } else {
                    self.value()
                }
            }
            Expect::Done => Err(self.error("the document's value has ended")),
        }
    }

    /// Reads past the rest of the value that began with `first`: nothing
    /// more for a scalar, through the matching close for a container.
    pub fn skip(&mut self, first: &Token<'_>) -> Result<(), ParseError> {
        let mut open = usize::from(first.opens());
        while open > 0 {
            match self.next_token()? {
                Token::ArrEnd | Token::ObjEnd => open -= 1,
                token => open += usize::from(token.opens()),
            }
        }
        Ok(())
    }

    /// Ends the document: anything but whitespace after its value is an
    /// error.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters"));
        }
        Ok(())
    }

    fn error(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// A value, with `depth` containers already open around it.
    fn value(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        let token = match self.peek() {
            None => return Err(self.error("unexpected end of input")),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                return Err(self.error("nesting deeper than MAX_DEPTH"))
            }
            Some(b'[') => return Ok(self.open(false)),
            Some(b'{') => return Ok(self.open(true)),
            Some(b'"') => Token::Str(self.string()?),
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b'-' | b'0'..=b'9') => Token::Num(self.number()?),
            Some(_) => return Err(self.error("expected a value")),
        };
        self.end_value();
        Ok(token)
    }

    /// Opens the container whose bracket `peek()` is.
    fn open(&mut self, object: bool) -> Token<'a> {
        self.pos += 1;
        self.objects = (self.objects & !(1 << self.depth)) | (u128::from(object) << self.depth);
        self.depth += 1;
        if object {
            self.expect = Expect::FirstKey;
            Token::ObjStart
        } else {
            self.expect = Expect::FirstItem;
            Token::ArrStart
        }
    }

    /// Closes the innermost container, whose bracket is consumed.
    fn close(&mut self, token: Token<'a>) -> Token<'a> {
        self.depth -= 1;
        self.end_value();
        token
    }

    /// Moves past a complete value.
    fn end_value(&mut self) {
        self.expect = if self.depth == 0 {
            Expect::Done
        } else {
            Expect::Next
        };
    }

    /// A key and its `:`.
    fn key(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.error("expected ':'"));
        }
        self.expect = Expect::Value;
        Ok(Token::Key(key))
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.error("expected a value"))
        }
    }

    /// Consumes a run of digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Num, ParseError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        match self.digits() {
            0 => return Err(self.error("expected a digit")),
            n if n > 1 && leading_zero => return Err(self.error("number has a leading zero")),
            _ => {}
        }
        let mut integer = true;
        if self.eat(b'.') {
            integer = false;
            if self.digits() == 0 {
                return Err(self.error("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.error("expected a digit in the exponent"));
            }
        }
        let token = &self.text[start..self.pos];
        let out_of_range = ParseError {
            offset: start,
            message: "number out of range",
        };
        let float = match decimal::prefix(token.as_bytes()) {
            Some((v, used)) if used == token.len() => v,
            _ => match token.parse::<f64>() {
                Ok(v) if v.is_finite() => v,
                _ => return Err(out_of_range),
            },
        };
        let int = if !integer {
            Int::No
        } else if negative {
            token.parse().map_or(Int::No, Int::Negative)
        } else {
            token.parse().map_or(Int::No, Int::Unsigned)
        };
        Ok(Num { float, int })
    }

    /// A string literal; `peek()` is its opening quote. Borrowed from the
    /// input unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.pos += 1;
        let start = self.pos;
        let mut unescaped: Option<String> = None;
        loop {
            // `"` and `\` are ASCII, so a byte scan for them stops on a
            // character boundary and the run before it is a valid slice.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    let tail = &self.text[run..self.pos - 1];
                    return Ok(match unescaped {
                        None => Cow::Borrowed(&self.text[start..self.pos - 1]),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(_) => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape stands for; its `\` is consumed.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.error("unknown escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The scalar a `\uXXXX` escape (or a surrogate pair of them) stands
    /// for; its `\u` is consumed.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let lone = self.error("lone surrogate in \\u escape");
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) {
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(lone);
            }
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(lone);
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        char::from_u32(code).ok_or(lone)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.error("expected four hex digits"))?;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_controls_and_unicode() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("héllo"), "héllo");
    }

    /// Regression: non-finite f64s must serialize as `null` in both
    /// flavors, never as bare `NaN`/`inf` (which no JSON parser accepts).
    #[test]
    fn non_finite_numbers_are_null_in_both_flavors() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(v), "null");
            let mut buf = Vec::new();
            write_f64(&mut buf, v).unwrap();
            assert_eq!(buf, b"null");
        }
        assert_eq!(number(0.0), "0");
        assert_eq!(number(1.5), "1.5");
        let mut buf = Vec::new();
        write_f64(&mut buf, 3.0).unwrap();
        assert_eq!(buf, b"3.0", "replay flavor keeps the float marker");
    }

    /// Reader rule 1: `MAX_DEPTH` containers parse, one more is an error,
    /// for arrays and for objects.
    #[test]
    fn nesting_is_bounded_by_max_depth() {
        for (open, innermost, close) in [("[", "", "]"), ("{\"a\":", "1", "}")] {
            let at = |depth| format!("{}{innermost}{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&at(MAX_DEPTH)).is_ok(), "{open} at MAX_DEPTH");
            let err = parse(&at(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.message, "nesting deeper than MAX_DEPTH");
            assert_eq!(err.offset, open.len() * MAX_DEPTH);
        }
    }

    /// Rule 1 is what keeps hostile nesting off the stack: 200,000 open
    /// brackets are an error on a 256 KB stack, not an overflow.
    #[test]
    fn hostile_nesting_errors_on_a_small_stack() {
        let verdicts = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                ["[", "{\"a\":", "[{\"a\":"]
                    .map(|open| parse(&open.repeat(200_000)).map_err(|e| e.message))
            })
            .unwrap()
            .join()
            .expect("the reader must not overflow the stack");
        for verdict in verdicts {
            assert_eq!(verdict, Err("nesting deeper than MAX_DEPTH"));
        }
    }

    /// Reader rules 2 and 3 on a table of tokens.
    #[test]
    fn numbers_follow_the_grammar_and_keep_exact_integers() {
        let refused = "+1 .5 --1 1e - 1. 1.e5 -.5 01 -01 1e+ 0x10 1e999 -1e999 NaN inf Infinity";
        for bad in refused.split(' ') {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // `f64` bits are `str::parse`'s, whatever the token's shape.
        let accepted = "0 -0 -0.0 5e-324 2.2250738585072014e-308 1.7976931348623157e308 0.1 \
                        -1E+2 1e-5 18446744073709551615 18446744073709551616 9007199254740993 \
                        -9223372036854775808 -9223372036854775809 123456789012345678901234567890";
        for token in accepted.split(' ') {
            let bits = parse(token).unwrap().as_f64().map(f64::to_bits);
            assert_eq!(
                bits,
                Some(token.parse::<f64>().unwrap().to_bits()),
                "{token}"
            );
        }
        assert!(parse("-0").unwrap().as_f64().unwrap().is_sign_negative());
        // Integer tokens that fit are exact; a `-` token is never a u64; a
        // fraction, an exponent or no fit leaves only the `f64`.
        let int = |t: &str| {
            let v = parse(t).unwrap();
            (v.as_u64(), v.as_i64())
        };
        let big = (1 << 53) + 1;
        assert_eq!(int("18446744073709551615"), (Some(u64::MAX), None));
        assert_eq!(int("9007199254740993"), (Some(big), Some(big as i64)));
        assert_eq!(int("-9223372036854775808"), (None, Some(i64::MIN)));
        assert_eq!(int("-0"), (None, Some(0)));
        for float_only in "18446744073709551616 -9223372036854775809 7.0 7e0".split(' ') {
            assert_eq!(int(float_only), (None, None), "{float_only}");
        }
        assert_eq!(parse("7").unwrap().as_usize(), Some(7));
        assert_eq!(parse("\"7\"").unwrap().as_f64(), None);
    }

    /// Rule 2's fast path: every token it converts reads to the bits
    /// `str::parse` gives — six-decimal coordinates, 15 to 19 digits,
    /// mantissas around 2^53, long zero runs — and the tokens it declines
    /// (exponents, 20+ digits, mantissas at or past 2^53) still do.
    #[test]
    fn short_decimals_read_to_str_parse_bits() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut tokens: Vec<String> = "0.1 0.2 0.3 1.000001 -0.000001 0.000000000000000001              9007199254740991 9007199254740992 9007199254740993 900719925474099.1              0.9007199254740993 1234567890123456789 12345678901234567890 -0 -0.0 1e308              2.5e-3 123456789012345.6 1234567890123456.7 12345678901234567.8"
            .split_whitespace()
            .map(String::from)
            .collect();
        for _ in 0..20_000 {
            let r = next();
            let digits = 1 + (r % 19) as usize;
            let int: String = (0..digits)
                .map(|i| char::from(b'0' + ((next() >> (i % 8)) % 10) as u8))
                .collect();
            let int = int.trim_start_matches('0');
            let int = if int.is_empty() { "0" } else { int };
            let dot = (r >> 8) as usize % (int.len() + 1);
            let sign = if r >> 20 & 1 == 1 { "-" } else { "" };
            tokens.push(match dot {
                0 => format!("{sign}{int}"),
                d if d == int.len() => format!("{sign}0.{int}"),
                d => format!("{sign}{}.{}", &int[..d], &int[d..]),
            });
            tokens.push(format!(
                "{:.6}",
                (next() % 2_000_000_000) as f64 / 1e6 - 1000.0
            ));
        }
        for token in &tokens {
            let got = parse(token).unwrap().as_f64().map(f64::to_bits);
            assert_eq!(
                got,
                Some(token.parse::<f64>().unwrap().to_bits()),
                "{token}"
            );
        }
    }

    /// The tokens of a document in order, `skip` past a container, and
    /// the writer's integers.
    #[test]
    fn the_reader_yields_tokens_in_document_order() {
        let mut r = Reader::new(r#" {"a": [1, {"b": null}], "k\u0041": "v", "c": true} "#);
        assert_eq!(r.next_token(), Ok(Token::ObjStart));
        assert_eq!(r.next_token(), Ok(Token::Key("a".into())));
        let open = r.next_token().unwrap();
        assert_eq!(open, Token::ArrStart);
        r.skip(&open).unwrap();
        assert_eq!(r.next_token(), Ok(Token::Key("kA".into())));
        assert!(matches!(r.next_token(), Ok(Token::Str(Cow::Borrowed("v")))));
        assert_eq!(r.next_token(), Ok(Token::Key("c".into())));
        assert_eq!(r.next_token(), Ok(Token::Bool(true)));
        assert_eq!(r.next_token(), Ok(Token::ObjEnd));
        assert_eq!(r.finish(), Ok(()));
        let mut s = String::new();
        for v in [0, 7, 10, 1234567890, u64::MAX] {
            push_u64(&mut s, v);
            s.push(' ');
        }
        assert_eq!(s, format!("0 7 10 1234567890 {} ", u64::MAX));
    }

    /// Reader rule 4.
    #[test]
    fn strings_decode_escapes_and_refuse_lone_surrogates() {
        let s = |text: &str| parse(text).map(|v| v.as_str().map(str::to_string));
        let decoded = s(r#""a\"b\\c\/ \n\r\t\b\f \u0041\u00e9 \ud83d\ude00 héllo — 日本""#);
        let expected = "a\"b\\c/ \n\r\t\u{8}\u{c} Aé 😀 héllo — 日本";
        assert_eq!(decoded.unwrap().as_deref(), Some(expected));
        let refused = r#"\ud800 \ud800x \ud800\n \ud800\u0041 \udc00 \u+123 \u12 \x41 \"#;
        for bad in refused.split(' ') {
            assert!(s(&format!("\"{bad}\"")).is_err(), "accepted {bad:?}");
        }
        assert!(s("\"open").is_err());
        // Whatever the writer escapes, the reader restores.
        let odd = "q\"uote \\ \u{1}\u{1f} tab\t é 😀";
        let mut quoted = String::new();
        push_str(&mut quoted, odd);
        assert_eq!(s(&quoted).unwrap().as_deref(), Some(odd));
    }

    /// Reader rule 5, and the shapes around it.
    #[test]
    fn the_whole_input_is_one_value() {
        let refused = "|  |{} trailing|[] []|1 2|{\"a\": }|[1, 2|[1,]|{\"a\":1,}|{a:1}|{\"a\" 1}|tru|nulll|[1 2]";
        for bad in refused.split('|') {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(
            (err.offset, err.to_string().as_str()),
            (4, "expected a value at byte 4")
        );
        // Whitespace anywhere between tokens; source order; first match wins.
        let v =
            parse(" { \"b\" : [ true , false , null ] ,\t\"a\" : { } , \"b\" : 2 }\r\n").unwrap();
        let Json::Obj(fields) = &v else {
            panic!("object: {v:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        let first_b = [Json::Bool(true), Json::Bool(false), Json::Null];
        assert_eq!(v.get("b").and_then(Json::as_arr), Some(&first_b[..]));
        assert_eq!(v.get("a"), Some(&Json::Obj(Vec::new())));
        assert_eq!((v.get("missing"), Json::Null.get("a")), (None, None));
    }
}
