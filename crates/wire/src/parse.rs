//! The JSON parser.

use crate::json::Json;
use crate::traits::{WireError, WireResult};

impl Json {
    /// Parses JSON text (with the `NaN` / `inf` / `-inf` float extension).
    ///
    /// The whole input must be one value; trailing non-whitespace is an
    /// error. Numbers without `.`, exponent, or non-finite token parse as
    /// [`Json::Int`]; everything else numeric parses as [`Json::Float`].
    pub fn parse(text: &str) -> WireResult<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }
}

/// Maximum container nesting the parser accepts. Recursive descent uses the
/// thread stack, so unbounded nesting in a hostile snapshot would abort the
/// process with a stack overflow instead of returning an error.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> WireError {
        WireError::new(format!("{message} (at byte {})", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> WireResult<()> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", expected as char)))
        }
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> WireResult<Json> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b'N') if self.eat_keyword("NaN") => Ok(Json::Float(f64::NAN)),
            Some(b'i') if self.eat_keyword("inf") => Ok(Json::Float(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                self.pos += 4;
                Ok(Json::Float(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(&mut self, inner: fn(&mut Parser<'a>) -> WireResult<Json>) -> WireResult<Json> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error("too deeply nested"));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> WireResult<Json> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> WireResult<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> WireResult<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs for characters beyond the BMP.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !self.eat_keyword("\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at once.
                    // Both are ASCII, so the run ends on a character
                    // boundary and is valid UTF-8 (the input is a &str).
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    let text = std::str::from_utf8(&self.bytes[start..start + run])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&mut self) -> WireResult<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> WireResult<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.error("invalid float literal"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.error("invalid integer literal"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(j: &Json) {
        let text = j.render();
        let parsed = Json::parse(&text).unwrap();
        match (j, &parsed) {
            // NaN != NaN under PartialEq; compare via render instead.
            _ if text.contains("NaN") => assert_eq!(parsed.render(), text),
            _ => assert_eq!(&parsed, j),
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("inf").unwrap(), Json::Float(f64::INFINITY));
        assert_eq!(Json::parse("-inf").unwrap(), Json::Float(f64::NEG_INFINITY));
        assert!(matches!(Json::parse("NaN").unwrap(), Json::Float(f) if f.is_nan()));
        assert_eq!(
            Json::parse(r#""hi\nthere""#).unwrap(),
            Json::from("hi\nthere")
        );
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::from("A"));
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::from("😀"));
    }

    #[test]
    fn parses_containers() {
        let j = Json::parse(r#"{"a": [1, 2.0, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(vec![]));
    }

    #[test]
    fn deep_nesting_is_rejected_not_fatal() {
        // Within the limit: fine.
        let ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        // Past the limit: a clean error instead of a stack overflow.
        let too_deep = "[".repeat(100_000);
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.to_string().contains("too deeply nested"));
        let objects = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "1 2",
            "01a",
            "--1",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn roundtrips_tricky_values() {
        for j in [
            Json::Float(0.1),
            Json::Float(1.0),
            Json::Float(-1.5e-300),
            Json::Float(f64::NAN),
            Json::Float(f64::INFINITY),
            Json::Int(i64::MIN),
            Json::Int(i64::MAX),
            Json::from("quote\" slash\\ newline\n tab\t unicode→ €"),
            Json::object([("k", Json::Array(vec![Json::Null, Json::Int(0)]))]),
        ] {
            roundtrip(&j);
        }
    }

    /// The string decoder before runs were copied whole: one character at a
    /// time, each decoded from the rest of the document. Kept as the oracle
    /// for `string_scanner_matches_the_per_character_decoder`.
    fn per_character_string(p: &mut Parser<'_>) -> WireResult<String> {
        p.eat(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.error("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            p.pos += 1;
                            let code = p.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !p.eat_keyword("\\u") {
                                    return Err(p.error("unpaired surrogate"));
                                }
                                let low = p.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(p.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(p.error("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(p.error("invalid escape sequence")),
                    }
                    p.pos += 1;
                }
                Some(_) => {
                    let rest = &p.bytes[p.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| p.error("invalid UTF-8"))?;
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    /// One random piece of a string literal's body: plain characters of
    /// every UTF-8 width, quotes, and well-formed or broken escapes.
    fn random_piece(rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng;
        let any_char = |rng: &mut rand::rngs::StdRng| -> char {
            let ranges = [
                (0x20, 0x80),
                (0x80, 0x800),
                (0x800, 0xD800),
                (0xE000, 0x1_0000),
                (0x1_0000, 0x11_0000),
            ];
            let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
            char::from_u32(rng.gen_range(lo..hi)).unwrap_or('\u{FFFD}')
        };
        let hex = |code: u32| format!("\\u{code:04x}");
        match rng.gen_range(0..12) {
            0..=3 => (0..rng.gen_range(1..6)).map(|_| any_char(rng)).collect(),
            4 => ["é", "€", "😀", "漢", "\u{7ff}", "\u{10ffff}"][rng.gen_range(0..6usize)]
                .to_string(),
            5 => "\"".to_string(),
            6 => {
                let escapes = ["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f"];
                escapes[rng.gen_range(0..escapes.len())].to_string()
            }
            7 => hex(rng.gen_range(0..0x1_0000)),
            // A surrogate pair, well-formed or not.
            8 => {
                let high = rng.gen_range(0xD800..0xDC00);
                let low = if rng.gen_bool(0.7) {
                    rng.gen_range(0xDC00..0xE000)
                } else {
                    rng.gen_range(0..0x1_0000)
                };
                format!("{}{}", hex(high), hex(low))
            }
            // An unpaired high or a lone low surrogate.
            9 => hex(rng.gen_range(0xD800..0xE000)),
            10 => ["\\q", "\\u12", "\\u12G4", "\\", "\\u", "\\ud800\\u"][rng.gen_range(0..6usize)]
                .to_string(),
            _ => " ".to_string(),
        }
    }

    #[test]
    fn string_scanner_matches_the_per_character_decoder() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..20_000 {
            let mut text = String::from("\"");
            for _ in 0..rng.gen_range(0..12) {
                text.push_str(&random_piece(&mut rng));
            }
            if rng.gen_bool(0.8) {
                text.push('"');
            }
            let parser = || Parser {
                bytes: text.as_bytes(),
                pos: 0,
                depth: 0,
            };
            let (mut new, mut old) = (parser(), parser());
            let got = new.string();
            let want = per_character_string(&mut old);
            assert_eq!(got, want, "input {text:?}");
            assert_eq!(new.pos, old.pos, "input {text:?}");
        }
    }

    /// Complexity guard: a string decoder that rescans the rest of the
    /// document per character needs ~10^12 byte steps here and never
    /// finishes; a linear one takes milliseconds. No timing assert — the
    /// test harness's own timeout is the failure.
    #[test]
    fn one_mebibyte_string_parses_in_linear_time() {
        let body: String = "plain ascii, é€😀 and \\n escapes "
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let doc = format!("{{\"blob\":\"{body}\",\"n\":1}}");
        let parsed = Json::parse(&doc).unwrap();
        let blob = parsed.get("blob").unwrap().as_str().unwrap();
        assert_eq!(
            blob.chars().filter(|&c| c == '😀').count(),
            body.matches('😀').count()
        );
        assert_eq!(blob.len(), body.len() - body.matches("\\n").count());
    }

    #[test]
    fn int_float_distinction_survives() {
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(Json::Int(3).render(), "3");
        assert_eq!(Json::Float(3.0).render(), "3.0");
    }
}
