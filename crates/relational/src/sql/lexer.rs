//! SQL lexer, shared by the SQL parser and the MINE RULE parser.
//!
//! Identifiers are case-preserving; keyword recognition happens in the
//! parsers. The token set includes `..` (used by MINE RULE cardinality
//! specifications such as `1..n`) and host variables (`:totg`).
//!
//! Tokens borrow their text from the input: an identifier or host
//! variable is a slice of it, and so is a string literal unless it holds a
//! `''` escape. String literals and comments are delimited by a
//! word-at-a-time byte search ([`find_byte`]), so lexing a bulk `VALUES`
//! list allocates only the token vector.

use std::borrow::Cow;

use crate::error::{Error, Result};

/// A lexical token, borrowing its text from the lexed input.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    /// `9223372036854775808` (2^63, possibly with leading zeros) right
    /// after a `-`: the magnitude of `i64::MIN`, valid only as the operand
    /// of a unary minus. Anywhere else it is the lex error any integer
    /// beyond `i64` is (see [`Token::deferred_error`]).
    IntMinMagnitude(&'a str),
    Float(f64),
    /// A string literal's value: borrowed unless it holds a `''` escape.
    Str(Cow<'a, str>),
    /// `:name`
    HostVar(&'a str),
    /// Bare `:` (used by MINE RULE's `SUPPORT: 0.2` syntax).
    Colon,
    LParen,
    RParen,
    Comma,
    Dot,
    /// `..`
    DotDot,
    Semi,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    /// `<>` or `!=`
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// `||`
    Concat,
}

/// A token plus its byte offset in the source (for error reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    pub tok: Tok<'a>,
    pub pos: usize,
}

impl Token<'_> {
    /// The lex error a [`Tok::IntMinMagnitude`] stands for where no unary
    /// minus takes it; `None` for every other token.
    pub fn deferred_error(&self) -> Option<Error> {
        match self.tok {
            Tok::IntMinMagnitude(text) => Some(bad_integer(self.pos, text)),
            _ => None,
        }
    }
}

fn bad_integer(pos: usize, text: &str) -> Error {
    Error::Lex {
        pos,
        message: format!("bad integer literal '{text}'"),
    }
}

/// The first position of `needle` in `hay`, eight bytes per step: a word
/// holds the needle where `word ^ splat(needle)` has a zero byte.
pub fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splat = LO * u64::from(needle);
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ splat;
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(at + zero.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let rest = words.remainder().iter().position(|&b| b == needle);
    rest.map(|i| at + i)
}

/// Tokenise `input`. Comments (`-- ...` to end of line) are skipped.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>> {
    let (toks, lexed) = lex_prefix(input);
    lexed.map(|()| toks)
}

/// The tokens of `input` up to its first bad one, and that one's error.
pub(crate) fn lex_prefix(input: &str) -> (Vec<Token<'_>>, Result<()>) {
    // Sized for one token per four bytes: bulk VALUES text runs about one
    // per three, so a bulk statement grows the vector once at most.
    let mut out = Vec::with_capacity(input.len() / 4 + 1);
    let lexed = lex_into(input, &mut out);
    (out, lexed)
}

fn lex_into<'a>(input: &'a str, out: &mut Vec<Token<'a>>) -> Result<()> {
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let next = bytes.get(i + 1).copied();
        let (tok, len) = match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                continue;
            }
            '-' if next == Some(b'-') => {
                i = find_byte(&bytes[i..], b'\n').map_or(bytes.len(), |n| i + n);
                continue;
            }
            '(' => (Tok::LParen, 1),
            ')' => (Tok::RParen, 1),
            ',' => (Tok::Comma, 1),
            ';' => (Tok::Semi, 1),
            '*' => (Tok::Star, 1),
            '+' => (Tok::Plus, 1),
            '-' => (Tok::Minus, 1),
            '/' => (Tok::Slash, 1),
            '%' => (Tok::Percent, 1),
            '=' => (Tok::Eq, 1),
            '!' if next == Some(b'=') => (Tok::NotEq, 2),
            '<' if next == Some(b'=') => (Tok::LtEq, 2),
            '<' if next == Some(b'>') => (Tok::NotEq, 2),
            '<' => (Tok::Lt, 1),
            '>' if next == Some(b'=') => (Tok::GtEq, 2),
            '>' => (Tok::Gt, 1),
            '|' if next == Some(b'|') => (Tok::Concat, 2),
            '.' if next == Some(b'.') => (Tok::DotDot, 2),
            '.' => (Tok::Dot, 1),
            ':' => {
                let name = word(&bytes[i + 1..]);
                if name == 0 {
                    (Tok::Colon, 1)
                } else {
                    (Tok::HostVar(&input[i + 1..i + 1 + name]), 1 + name)
                }
            }
            '\'' => string_literal(input, i)?,
            c if c.is_ascii_digit() => {
                let (tok, len) = number(input, i)?;
                let tok = match tok {
                    Some(tok) => tok,
                    None if out.last().is_some_and(|t| t.tok == Tok::Minus) => {
                        Tok::IntMinMagnitude(&input[i..i + len])
                    }
                    None => return Err(bad_integer(i, &input[i..i + len])),
                };
                (tok, len)
            }
            '"' => {
                // Delimited identifier.
                let Some(end) = find_byte(&bytes[i + 1..], b'"') else {
                    return Err(Error::Lex {
                        pos: i,
                        message: "unterminated delimited identifier".into(),
                    });
                };
                (Tok::Ident(&input[i + 1..i + 1 + end]), end + 2)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let len = word(&bytes[i..]);
                (Tok::Ident(&input[i..i + len]), len)
            }
            other => {
                return Err(Error::Lex {
                    pos: i,
                    message: format!("unexpected character '{other}'"),
                })
            }
        };
        out.push(Token { tok, pos: i });
        i += len;
    }
    Ok(())
}

/// The length of the `[A-Za-z0-9_]*` run `bytes` starts with.
fn word(bytes: &[u8]) -> usize {
    let is_word = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_';
    bytes
        .iter()
        .position(|b| !is_word(b))
        .unwrap_or(bytes.len())
}

/// The string literal opening at `start`, and its length with quotes.
fn string_literal(input: &str, start: usize) -> Result<(Tok<'_>, usize)> {
    let bytes = input.as_bytes();
    let unterminated = || Error::Lex {
        pos: start,
        message: "unterminated string literal".into(),
    };
    let body = start + 1;
    let mut end = body + find_byte(&bytes[body..], b'\'').ok_or_else(unterminated)?;
    if bytes.get(end + 1) != Some(&b'\'') {
        return Ok((Tok::Str(Cow::Borrowed(&input[body..end])), end + 1 - start));
    }
    // Escaped quotes: copy the pieces between them.
    let mut s = String::with_capacity(end - body + 16);
    let mut from = body;
    while bytes.get(end + 1) == Some(&b'\'') {
        s.push_str(&input[from..=end]);
        from = end + 2;
        end = from + find_byte(&bytes[from..], b'\'').ok_or_else(unterminated)?;
    }
    s.push_str(&input[from..end]);
    Ok((Tok::Str(Cow::Owned(s)), end + 1 - start))
}

/// The numeric literal at `start` and its length. `None` for an integer
/// that is exactly 2^63, which only a preceding `-` can make valid; any
/// other integer beyond `i64` is an error.
fn number(input: &str, start: usize) -> Result<(Option<Tok<'_>>, usize)> {
    let bytes = input.as_bytes();
    let digits = |from: usize| {
        let run = bytes[from..].iter().position(|b| !b.is_ascii_digit());
        from + run.unwrap_or(bytes.len() - from)
    };
    let mut i = digits(start);
    let mut is_float = false;
    // A '.' followed by a digit continues the number; `1..n` must lex as
    // Int(1) DotDot Ident(n).
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        is_float = true;
        i = digits(i + 1);
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if bytes.get(j).is_some_and(u8::is_ascii_digit) {
            is_float = true;
            i = digits(j);
        }
    }
    let text = &input[start..i];
    if is_float {
        let x = text.parse().map_err(|_| Error::Lex {
            pos: start,
            message: format!("bad float literal '{text}'"),
        })?;
        return Ok((Some(Tok::Float(x)), i - start));
    }
    // The digits' value, or `None` beyond `u64`.
    let value = text.bytes().try_fold(0u64, |v, d| {
        v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
    });
    match value.map(i64::try_from) {
        Some(Ok(v)) => Ok((Some(Tok::Int(v)), i - start)),
        Some(Err(_)) if value == Some(1 << 63) => Ok((None, i - start)),
        _ => Err(bad_integer(start, text)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Tok<'_>> {
        lex(s).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lex_basic_select() {
        assert_eq!(
            toks("SELECT a, b FROM t"),
            vec![
                Tok::Ident("SELECT"),
                Tok::Ident("a"),
                Tok::Comma,
                Tok::Ident("b"),
                Tok::Ident("FROM"),
                Tok::Ident("t"),
            ]
        );
    }

    #[test]
    fn lex_numbers_and_dotdot() {
        assert_eq!(
            toks("1..n 2.5 0.2"),
            vec![
                Tok::Int(1),
                Tok::DotDot,
                Tok::Ident("n"),
                Tok::Float(2.5),
                Tok::Float(0.2),
            ]
        );
    }

    #[test]
    fn lex_qualified_and_nextval() {
        assert_eq!(
            toks("Gidsequence.NEXTVAL"),
            vec![Tok::Ident("Gidsequence"), Tok::Dot, Tok::Ident("NEXTVAL"),]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            toks("< <= > >= <> != = ||"),
            vec![
                Tok::Lt,
                Tok::LtEq,
                Tok::Gt,
                Tok::GtEq,
                Tok::NotEq,
                Tok::NotEq,
                Tok::Eq,
                Tok::Concat,
            ]
        );
    }

    #[test]
    fn lex_string_with_escape() {
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into())]);
    }

    #[test]
    fn lex_host_var() {
        assert_eq!(toks(":totg"), vec![Tok::HostVar("totg")]);
    }

    #[test]
    fn lex_bare_colon() {
        assert_eq!(
            toks("SUPPORT: 0.2"),
            vec![Tok::Ident("SUPPORT"), Tok::Colon, Tok::Float(0.2)]
        );
    }

    #[test]
    fn lex_comment_skipped() {
        assert_eq!(
            toks("a -- comment\n b"),
            vec![Tok::Ident("a"), Tok::Ident("b")]
        );
    }

    #[test]
    fn lex_unterminated_string_errors() {
        assert!(lex("'abc").is_err());
    }

    #[test]
    fn lex_delimited_identifier() {
        assert_eq!(toks("\"Group By\""), vec![Tok::Ident("Group By")]);
    }

    #[test]
    fn string_literals_borrow_unless_escaped() {
        let plain = lex("'abc' 'é€'").unwrap();
        assert!(matches!(&plain[0].tok, Tok::Str(Cow::Borrowed("abc"))));
        assert!(matches!(&plain[1].tok, Tok::Str(Cow::Borrowed("é€"))));
        assert_eq!((plain[0].pos, plain[1].pos), (0, 6));
        for (sql, value) in [
            ("''", ""),
            ("''''", "'"),
            ("'a''b''c'", "a'b'c"),
            ("'x'''", "x'"),
        ] {
            assert_eq!(toks(sql), vec![Tok::Str(value.into())], "{sql}");
        }
        let err = lex("'ab''").unwrap_err();
        assert!(matches!(err, Error::Lex { pos: 0, .. }), "{err}");
    }

    #[test]
    fn find_byte_agrees_with_a_linear_scan() {
        let hay: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) % 11).collect();
        for from in 0..hay.len() {
            for needle in 0..12 {
                let expected = hay[from..].iter().position(|&b| b == needle);
                assert_eq!(find_byte(&hay[from..], needle), expected);
            }
        }
        assert_eq!(find_byte(&[0x80, 0x27, 0x27], b'\''), Some(1));
    }

    #[test]
    fn the_magnitude_of_i64_min_lexes_only_after_a_minus() {
        assert_eq!(
            toks("-9223372036854775808"),
            vec![Tok::Minus, Tok::IntMinMagnitude("9223372036854775808")]
        );
        let bad = |sql: &str| lex(sql).unwrap_err().to_string();
        assert_eq!(
            bad("9223372036854775808"),
            "lex error at 0: bad integer literal '9223372036854775808'"
        );
        assert_eq!(
            bad("-9223372036854775809"),
            "lex error at 1: bad integer literal '9223372036854775809'"
        );
    }
}
