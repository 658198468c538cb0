//! Minimal JSON value, parser, and string escaping.
//!
//! The workspace deliberately carries no `serde_json` dependency; the
//! records it writes are small, so a ~150-line recursive-descent parser
//! keeps the observability layer self-contained. Numbers keep their
//! source lexeme (`Json::Num` stores the string) so `u64` seeds above
//! 2^53 and shortest-round-trip `f64` values survive a decode/encode
//! cycle exactly. Records are encoded and decoded through
//! [`crate::schema`].

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source lexeme for lossless round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// FNV-1a 64-bit checksum over `bytes`.
///
/// The durable-state layers (`RunCheckpoint` headers, the job-server
/// journal) frame their JSON payloads with this checksum so torn or
/// corrupted writes are detected on read. FNV-1a is not cryptographic —
/// it guards against partial writes and bit rot, not adversaries — but
/// it is deterministic, dependency-free, and one multiply per byte.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// workspace writes nests a few levels; the bound keeps a hostile one
/// from recursing the parser off the end of its stack.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace, or arrays and
/// objects nested more than 64 deep, is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number lexemes are ASCII")
            .to_string();
        // Validate by parsing; the lexeme itself is what we keep.
        lexeme
            .parse::<f64>()
            .map_err(|_| format!("bad number '{lexeme}' at byte {start}"))?;
        Ok(Json::Num(lexeme))
    }

    /// A string literal. Everything between escapes is copied as one
    /// run: a run ends at an ASCII `"` or `\\`, so it is whole UTF-8,
    /// and each byte is scanned once.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.bytes.len();
                return Err(format!("unterminated string at byte {}", self.pos));
            };
            out.push_str(
                std::str::from_utf8(&rest[..run])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?,
            );
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            let esc = self
                .char_here()
                .ok_or_else(|| format!("dangling escape at byte {}", self.pos))?;
            self.pos += esc.len_utf8();
            match esc {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000c}'),
                'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed by this schema; map
                    // unpaired surrogates to the replacement character.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("unknown escape '\\{other}'")),
            }
        }
    }

    /// The character starting at the current byte, decoded from at most
    /// the four bytes one can span.
    fn char_here(&self) -> Option<char> {
        let head = &self.bytes[self.pos..self.bytes.len().min(self.pos + 4)];
        let valid = match std::str::from_utf8(head) {
            Ok(s) => s,
            Err(e) => std::str::from_utf8(&head[..e.valid_up_to()]).unwrap_or_default(),
        };
        valid.chars().next()
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The string reader as it was before it copied runs: one character
    /// at a time, re-validating the rest of the input as UTF-8 for each.
    /// The reference the run-copying reader must agree with.
    impl Parser<'_> {
        fn string_reference(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                // Re-decode from the current byte position so multi-byte
                // UTF-8 sequences pass through intact.
                let rest = std::str::from_utf8(&self.bytes[self.pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                let mut chars = rest.chars();
                let c = chars
                    .next()
                    .ok_or_else(|| format!("unterminated string at byte {}", self.pos))?;
                self.pos += c.len_utf8();
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let esc = chars
                            .next()
                            .ok_or_else(|| format!("dangling escape at byte {}", self.pos))?;
                        self.pos += esc.len_utf8();
                        match esc {
                            '"' => out.push('"'),
                            '\\' => out.push('\\'),
                            '/' => out.push('/'),
                            'n' => out.push('\n'),
                            'r' => out.push('\r'),
                            't' => out.push('\t'),
                            'b' => out.push('\u{0008}'),
                            'f' => out.push('\u{000c}'),
                            'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| {
                                        format!("bad \\u escape at byte {}", self.pos)
                                    })?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                                self.pos += 4;
                                // Surrogate pairs are not needed by this
                                // schema; map unpaired surrogates to the
                                // replacement character.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("unknown escape '\\{other}'")),
                        }
                    }
                    c => out.push(c),
                }
            }
        }
    }

    /// Pieces a string literal's body is built from: plain and
    /// multi-byte text, every escape, malformed escapes, and the bytes
    /// that end a run.
    const PIECES: [&str; 24] = [
        "a", "xyz", " ", "é", "π ≈ 3", "😀", "\u{7f}", "\u{1}", "\\\"", "\\\\", "\\/", "\\n",
        "\\r", "\\t", "\\b", "\\f", "\\u00e9", "\\u+041", "\\ud800", "\\u12", "\\x", "\\é", "\"",
        "\\",
    ];

    /// Reads a string literal made of `pieces` and one of three tails
    /// (none, a closing quote, a closing quote and more input) with both
    /// readers: the same string or error, ending at the same byte.
    fn readers_agree(pieces: impl IntoIterator<Item = usize>, tail: usize) -> Result<(), String> {
        let mut input = String::from("\"");
        pieces.into_iter().for_each(|i| input.push_str(PIECES[i]));
        input.push_str(["", "\"", "\" , 1]"][tail]);
        let mut new = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let mut old = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let (got, want) = (new.string(), old.string_reference());
        if got == want && new.pos == old.pos {
            Ok(())
        } else {
            Err(format!(
                "{input:?}: {got:?} at {} vs {want:?} at {}",
                new.pos, old.pos
            ))
        }
    }

    #[test]
    fn run_copying_string_reader_agrees_on_every_pair_of_pieces() {
        for (a, b, tail) in (0..PIECES.len())
            .flat_map(|a| (0..PIECES.len()).map(move |b| (a, b)))
            .flat_map(|(a, b)| (0..3).map(move |tail| (a, b, tail)))
        {
            readers_agree([a, b], tail).unwrap();
        }
    }

    proptest! {
        #[test]
        fn run_copying_string_reader_agrees_with_the_reference(
            picks in proptest::collection::vec(0usize..24, 0..40),
            tail in 0usize..3,
        ) {
            prop_assert_eq!(readers_agree(picks, tail), Ok(()));
        }
    }

    #[test]
    fn parses_flat_object() {
        let v = parse(r#"{"a": 1, "b": "x", "c": true, "d": null, "e": [1, 2]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert!(v.get("d").unwrap().is_null());
        let e = Json::Arr(vec![Json::Num("1".into()), Json::Num("2".into())]);
        assert_eq!(v.get("e"), Some(&e));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn numbers_keep_their_lexeme() {
        // 2^63 + 1 is not representable in f64; the lexeme must survive.
        let v = parse("{\"seed\": 9223372036854775809}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(9223372036854775809));
        let f = parse("{\"x\": -1.25e-3}").unwrap();
        assert_eq!(f.get("x").unwrap().as_f64(), Some(-1.25e-3));
    }

    #[test]
    fn escapes_round_trip() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        let back = parse(&s).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // Far past any stack: an error, not an overflow.
        assert!(parse(&"[{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse("{\"s\": \"π ≈ 3.14\"}").unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("π ≈ 3.14"));
    }
}
