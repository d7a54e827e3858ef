//! Self-contained repro files.
//!
//! A repro is a line-oriented text file holding everything needed to
//! replay a case: metadata headers, the schema, the data rows and the
//! checked operations. The format is deliberately trivial — one
//! statement per line, no quoting or escapes — because every statement
//! the grammar emits (and every statement the shrinker re-renders) is a
//! single line of SQL already.
//!
//! ```text
//! #! tcdm-fuzz repro v1
//! #! kind: matrix
//! #! config: workers=1 reference=off ... storage=memory
//! #! against: workers=1 reference=on ... storage=memory
//! #! note: seed=7 case=12
//! table Purchase CREATE TABLE Purchase (tr INT, ...)
//! row Purchase (1, 'c0', 'it3', DATE '1995-03-01', 120, 1)
//! dml UPDATE Purchase SET qty = qty + 1 WHERE tr <= 3
//! query SELECT item FROM Purchase WHERE price > 100
//! mine MINE RULE R0 AS SELECT DISTINCT ...
//! ```
//!
//! Lines starting `#` (but not `#!`) are free comments and ignored.

use crate::{FuzzCase, Op, TableDef};

/// Magic first line of every repro file.
pub const MAGIC: &str = "#! tcdm-fuzz repro v1";

/// Metadata carried in `#!` headers. All fields optional: a corpus entry
/// typically records only `note`, a shrunk divergence all of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReproHeader {
    /// Divergence kind (`matrix` | `reference` | `telemetry`).
    pub kind: Option<String>,
    /// Label of the diverging configuration.
    pub config: Option<String>,
    /// What it diverged against (a configuration label or `reference`).
    pub against: Option<String>,
    /// The injected skew that produced the divergence, if any.
    pub skew: Option<String>,
    /// Free-form provenance (`seed=7 case=12`).
    pub note: Option<String>,
}

/// A parsed repro file: metadata + the replayable case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Repro {
    pub header: ReproHeader,
    pub case: FuzzCase,
}

/// Serialise a case (plus metadata) into the repro format.
pub fn to_repro(case: &FuzzCase, header: &ReproHeader) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    let mut push_header = |key: &str, value: &Option<String>| {
        if let Some(v) = value {
            out.push_str(&format!("#! {key}: {v}\n"));
        }
    };
    push_header("kind", &header.kind);
    push_header("config", &header.config);
    push_header("against", &header.against);
    push_header("skew", &header.skew);
    push_header("note", &header.note);
    for t in &case.tables {
        out.push_str(&format!("table {} {}\n", t.name, t.create));
        for row in &t.rows {
            out.push_str(&format!("row {} {row}\n", t.name));
        }
    }
    for op in &case.ops {
        let tag = match op {
            Op::Dml(_) => "dml",
            Op::Query(_) => "query",
            Op::Mine(_) => "mine",
        };
        out.push_str(&format!("{tag} {}\n", op.text()));
    }
    out
}

/// Parse a repro file. Errors carry the offending line number.
pub fn parse_repro(text: &str) -> Result<Repro, String> {
    let mut repro = Repro::default();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = n + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("#!") {
            let rest = rest.trim();
            if rest.starts_with("tcdm-fuzz repro") {
                continue; // magic
            }
            let Some((key, value)) = rest.split_once(':') else {
                return Err(format!("line {lineno}: malformed header `{line}`"));
            };
            let value = Some(value.trim().to_string());
            match key.trim() {
                "kind" => repro.header.kind = value,
                "config" => repro.header.config = value,
                "against" => repro.header.against = value,
                "skew" => repro.header.skew = value,
                "note" => repro.header.note = value,
                other => return Err(format!("line {lineno}: unknown header `{other}`")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free comment
        }
        let Some((tag, rest)) = line.split_once(' ') else {
            return Err(format!("line {lineno}: malformed line `{line}`"));
        };
        let rest = rest.trim();
        match tag {
            "table" => {
                let Some((name, create)) = rest.split_once(' ') else {
                    return Err(format!("line {lineno}: `table` needs a name and DDL"));
                };
                repro.case.tables.push(TableDef {
                    name: name.to_string(),
                    create: create.trim().to_string(),
                    rows: Vec::new(),
                });
            }
            "row" => {
                let Some((name, tuple)) = rest.split_once(' ') else {
                    return Err(format!("line {lineno}: `row` needs a table name and tuple"));
                };
                let Some(table) = repro.case.tables.iter_mut().find(|t| t.name == name) else {
                    return Err(format!("line {lineno}: row for undeclared table `{name}`"));
                };
                table.rows.push(tuple.trim().to_string());
            }
            "dml" => repro.case.ops.push(Op::Dml(rest.to_string())),
            "query" => repro.case.ops.push(Op::Query(rest.to_string())),
            "mine" => repro.case.ops.push(Op::Mine(rest.to_string())),
            other => return Err(format!("line {lineno}: unknown tag `{other}`")),
        }
    }
    Ok(repro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{gen_case, GenConfig};

    #[test]
    fn generated_cases_round_trip() {
        let cfg = GenConfig::default();
        for i in 0..25 {
            let case = gen_case(11, i, &cfg);
            let header = ReproHeader {
                kind: Some("matrix".into()),
                config: Some("reference=off".into()),
                against: Some("reference=on".into()),
                skew: None,
                note: Some(format!("seed=11 case={i}")),
            };
            let text = to_repro(&case, &header);
            let parsed = parse_repro(&text).expect("round-trip parse");
            assert_eq!(parsed.case, case, "case {i} round-trips");
            assert_eq!(parsed.header, header, "header {i} round-trips");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!(
            "{MAGIC}\n\n# a human note\ntable t CREATE TABLE t (x INT)\nrow t (1)\n\nquery SELECT x FROM t\n"
        );
        let repro = parse_repro(&text).unwrap();
        assert_eq!(repro.case.tables.len(), 1);
        assert_eq!(repro.case.tables[0].rows, vec!["(1)".to_string()]);
        assert_eq!(repro.case.ops.len(), 1);
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let err = parse_repro("row t (1)\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_repro("table t CREATE TABLE t (x INT)\nbogus SELECT 1\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
