//! The front ends under hostile text: the SQL parser and the MINE RULE
//! parser, which shares its lexer, must answer every input with a value
//! or a typed error whose position lies inside the input — never a panic.
//!
//! [`mangle`] derives the inputs from one well-formed statement: every
//! char-boundary prefix, single-byte deletions and replacements (made
//! UTF-8 again with `from_utf8_lossy`, so broken sequences become
//! U+FFFD), and seeded noise spliced into the text. [`check`] feeds one
//! input to both parsers.

use std::panic::{catch_unwind, AssertUnwindSafe};

use datagen::rng::Rng;
use minerule::{parse_mine_rule, MineError};
use relational::sql::parser::{parse_expression, parse_statement, parse_statements};
use relational::Error;

/// Bytes a replacement or a noise splice draws from: quotes, comment and
/// operator starts, digits, a multi-byte lead and continuation, a NUL.
const HOSTILE: &[u8] = b"'\"-(),.:;|!<>*0959eE_ \n\x00\xc3\xa9\xff";

/// At most this many positions of one input are deleted or replaced; a
/// longer input is sampled evenly.
const POSITIONS: usize = 256;

/// Seeded noise inputs per statement.
const NOISE: usize = 32;

/// Feed `input` to both parsers. `Err` describes a panic or an error
/// position beyond the input.
pub fn check(input: &str) -> Result<(), String> {
    let len = input.len();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let sql = [
            parse_statements(input).err(),
            parse_statement(input).err(),
            parse_expression(input).err(),
        ];
        let mine = match parse_mine_rule(input) {
            Err(MineError::Syntax { pos, .. }) => Some(pos),
            _ => None,
        };
        sql.into_iter()
            .flatten()
            .filter_map(|e| match e {
                Error::Lex { pos, .. } | Error::Parse { pos, .. } => Some(pos),
                _ => None,
            })
            .chain(mine)
            .max()
    }));
    match outcome {
        Err(_) => Err(format!("a parser panicked on {input:?}")),
        Ok(Some(pos)) if pos > len => Err(format!(
            "error position {pos} beyond the {len}-byte input {input:?}"
        )),
        Ok(_) => Ok(()),
    }
}

/// Run [`check`] over the inputs derived from `text` (see the module
/// docs), stopping at the first failure. Returns how many were checked.
pub fn mangle(text: &str, seed: u64) -> Result<usize, String> {
    let mut checked = 0;
    let mut run = |input: &str| {
        checked += 1;
        check(input)
    };
    for end in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
        run(&text[..end])?;
    }
    let bytes = text.as_bytes();
    let step = bytes.len().div_ceil(POSITIONS).max(1);
    let mut rng = Rng::seed_from_u64(seed);
    let mut edited = Vec::with_capacity(bytes.len() + 8);
    for at in (0..bytes.len()).step_by(step) {
        edited.clear();
        edited.extend_from_slice(&bytes[..at]);
        edited.extend_from_slice(&bytes[at + 1..]);
        run(&String::from_utf8_lossy(&edited))?;
        edited.clear();
        edited.extend_from_slice(bytes);
        edited[at] = HOSTILE[rng.gen_range_usize(0, HOSTILE.len())];
        run(&String::from_utf8_lossy(&edited))?;
    }
    for _ in 0..NOISE {
        let noise: Vec<u8> = (0..rng.gen_range_usize(1, 24))
            .map(|_| match rng.gen_below(3) {
                0 => rng.gen_below(256) as u8,
                _ => HOSTILE[rng.gen_range_usize(0, HOSTILE.len())],
            })
            .collect();
        let at = rng.gen_range_usize(0, bytes.len() + 1);
        edited.clear();
        edited.extend_from_slice(&bytes[..at]);
        edited.extend_from_slice(&noise);
        edited.extend_from_slice(&bytes[at..]);
        run(&String::from_utf8_lossy(&edited))?;
        run(&String::from_utf8_lossy(&noise))?;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_statement_and_its_manglings_pass() {
        let n = mangle("SELECT a, 'x''y' FROM t WHERE b <> -9223372036854775808", 7).unwrap();
        assert!(n > 100, "{n} inputs");
    }
}
