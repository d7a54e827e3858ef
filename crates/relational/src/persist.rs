//! TSV snapshots: an inspectable interchange format for whole databases.
//!
//! This is the *export/import* side of persistence — save a database to
//! a directory, load it back, diff it, check it into a repo. The format
//! is deliberately plain: a `_catalog.txt` manifest plus one
//! tab-separated file per table. Values are tagged (`I:`, `F:`, `S:`,
//! `B:`, `D:`, `N`) and floats are stored as hexadecimal bit patterns,
//! making the round-trip bit-exact.
//!
//! For *transactional durability* — crash-safe commit of every executed
//! statement, with WAL recovery on reopen — use the paged storage
//! backend ([`crate::storage`], `docs/STORAGE.md`) instead; this module
//! stays the human-readable snapshot format.

use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::catalog::View;
use crate::engine::Database;
use crate::error::{Error, Result};
use crate::row::Row;
use crate::sequence::Sequence;
use crate::sql::parser::parse_statement;
use crate::table::Table;
use crate::types::{Column, DataType, Schema};
use crate::value::{Date, Value};

fn io_err(e: std::io::Error) -> Error {
    Error::storage(format!("persistence I/O error: {e}"))
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "N".to_string(),
        Value::Int(i) => format!("I:{i}"),
        Value::Float(f) => format!("F:{:016x}", f.to_bits()),
        Value::Str(s) => format!(
            "S:{}",
            s.replace('\\', "\\\\")
                .replace('\t', "\\t")
                .replace('\n', "\\n")
        ),
        Value::Bool(b) => format!("B:{}", if *b { 1 } else { 0 }),
        Value::Date(d) => format!("D:{d}"),
    }
}

fn decode_value(s: &str) -> Result<Value> {
    if s == "N" {
        return Ok(Value::Null);
    }
    let (tag, body) = s
        .split_once(':')
        .ok_or_else(|| Error::storage(format!("bad persisted value '{s}'")))?;
    Ok(match tag {
        "I" => Value::Int(
            body.parse()
                .map_err(|_| Error::storage(format!("bad persisted int '{body}'")))?,
        ),
        "F" => Value::Float(f64::from_bits(
            u64::from_str_radix(body, 16)
                .map_err(|_| Error::storage(format!("bad persisted float '{body}'")))?,
        )),
        "S" => {
            let mut out = String::with_capacity(body.len());
            let mut chars = body.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('t') => out.push('\t'),
                        Some('n') => out.push('\n'),
                        Some('\\') => out.push('\\'),
                        other => {
                            return Err(Error::storage(format!(
                                "bad escape in persisted string: \\{other:?}"
                            )))
                        }
                    }
                } else {
                    out.push(c);
                }
            }
            Value::Str(out)
        }
        "B" => Value::Bool(body == "1"),
        "D" => Value::Date(
            Date::parse(body)
                .ok_or_else(|| Error::storage(format!("bad persisted date '{body}'")))?,
        ),
        other => return Err(Error::storage(format!("unknown value tag '{other}'"))),
    })
}

/// Save the whole catalog (tables, views, sequences) under `dir`.
/// The directory is created; existing files are overwritten.
pub fn save(db: &Database, dir: &Path) -> Result<()> {
    fs::create_dir_all(dir).map_err(io_err)?;
    let mut manifest = BufWriter::new(fs::File::create(dir.join("_catalog.txt")).map_err(io_err)?);

    for name in db.catalog().table_names() {
        let table = db.catalog().table(name)?;
        writeln!(manifest, "table\t{name}").map_err(io_err)?;
        for c in table.schema().columns() {
            writeln!(manifest, "col\t{}\t{}", c.name, c.dtype).map_err(io_err)?;
        }
        let mut out = BufWriter::new(
            fs::File::create(dir.join(format!("{}.tsv", name.to_ascii_lowercase())))
                .map_err(io_err)?,
        );
        for row in table.rows() {
            let line: Vec<String> = row.iter().map(encode_value).collect();
            writeln!(out, "{}", line.join("\t")).map_err(io_err)?;
        }
        out.flush().map_err(io_err)?;
    }
    for (name, query) in db.catalog().view_definitions() {
        writeln!(manifest, "view\t{name}\t{query}").map_err(io_err)?;
    }
    for (name, next, increment) in db.catalog().sequence_states() {
        writeln!(manifest, "sequence\t{name}\t{next}\t{increment}").map_err(io_err)?;
    }
    manifest.flush().map_err(io_err)?;
    Ok(())
}

/// Load a database previously written by [`save`].
pub fn load(dir: &Path) -> Result<Database> {
    let manifest = fs::File::open(dir.join("_catalog.txt")).map_err(io_err)?;
    let mut db = Database::new();
    let mut pending: Option<(String, Vec<Column>)> = None;

    let finish_table =
        |db: &mut Database, pending: &mut Option<(String, Vec<Column>)>| -> Result<()> {
            if let Some((name, cols)) = pending.take() {
                let mut table = Table::new(name.clone(), Schema::new(cols));
                let path = dir.join(format!("{}.tsv", name.to_ascii_lowercase()));
                if path.exists() {
                    let file = fs::File::open(path).map_err(io_err)?;
                    let mut rows: Vec<Row> = Vec::new();
                    for line in BufReader::new(file).lines() {
                        let line = line.map_err(io_err)?;
                        if line.is_empty() {
                            continue;
                        }
                        rows.push(
                            line.split('\t')
                                .map(decode_value)
                                .collect::<Result<Row>>()?,
                        );
                    }
                    table.insert_all(rows)?;
                }
                db.catalog_mut().create_table(table)?;
            }
            Ok(())
        };

    for line in BufReader::new(manifest).lines() {
        let line = line.map_err(io_err)?;
        let mut parts = line.splitn(4, '\t');
        match parts.next() {
            Some("table") => {
                finish_table(&mut db, &mut pending)?;
                let name = parts
                    .next()
                    .ok_or_else(|| Error::storage("manifest: table without name"))?;
                pending = Some((name.to_string(), Vec::new()));
            }
            Some("col") => {
                let (Some(name), Some(ty)) = (parts.next(), parts.next()) else {
                    return Err(Error::storage("manifest: malformed col line"));
                };
                let dtype = DataType::from_sql_name(ty)
                    .ok_or_else(|| Error::storage(format!("manifest: bad type {ty}")))?;
                match &mut pending {
                    Some((_, cols)) => cols.push(Column::new(name, dtype)),
                    None => return Err(Error::storage("manifest: col outside table")),
                }
            }
            Some("view") => {
                finish_table(&mut db, &mut pending)?;
                let (Some(name), Some(sql)) = (parts.next(), parts.next()) else {
                    return Err(Error::storage("manifest: malformed view line"));
                };
                let stmt = parse_statement(sql)?;
                let crate::sql::ast::Statement::Select(query) = stmt else {
                    return Err(Error::storage("manifest: view body is not a SELECT"));
                };
                db.catalog_mut().create_view(View {
                    name: name.to_string(),
                    query,
                })?;
            }
            Some("sequence") => {
                finish_table(&mut db, &mut pending)?;
                let (Some(name), Some(next), Some(inc)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(Error::storage("manifest: malformed sequence line"));
                };
                let next: i64 = next
                    .parse()
                    .map_err(|_| Error::storage("manifest: bad sequence value"))?;
                let inc: i64 = inc
                    .parse()
                    .map_err(|_| Error::storage("manifest: bad sequence increment"))?;
                db.catalog_mut()
                    .create_sequence(Sequence::new(name.to_string(), next, inc))?;
            }
            Some("") | None => {}
            Some(other) => {
                return Err(Error::storage(format!(
                    "manifest: unknown record '{other}'"
                )))
            }
        }
    }
    finish_table(&mut db, &mut pending)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("relational_persist_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_tables_views_sequences() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, b VARCHAR, c FLOAT, d DATE, e BOOLEAN)")
            .unwrap();
        db.execute(
            "INSERT INTO t VALUES \
             (1, 'plain', 1.5, DATE '1995-12-17', TRUE), \
             (2, NULL, 0.1, NULL, FALSE)",
        )
        .unwrap();
        db.execute("CREATE VIEW v AS (SELECT a FROM t WHERE e = TRUE)")
            .unwrap();
        db.execute("CREATE SEQUENCE s START WITH 5 INCREMENT BY 2")
            .unwrap();
        // NEXTVAL evaluates per input row (2 rows): draws 5 and 7.
        db.query("SELECT s.NEXTVAL FROM t LIMIT 1").unwrap();

        let dir = tempdir("roundtrip");
        save(&db, &dir).unwrap();
        let mut loaded = load(&dir).unwrap();

        let orig = db.query("SELECT * FROM t ORDER BY a").unwrap();
        let back = loaded.query("SELECT * FROM t ORDER BY a").unwrap();
        assert_eq!(orig, back);
        assert_eq!(loaded.query("SELECT * FROM v").unwrap().len(), 1);
        // Sequence resumes where it left off (next draw is 9).
        let rs = loaded.query("SELECT s.NEXTVAL FROM t LIMIT 1").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(9));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (s VARCHAR)").unwrap();
        db.catalog_mut()
            .table_mut("t")
            .unwrap()
            .insert(row!["tab\there\nand \\ slash"])
            .unwrap();
        let dir = tempdir("escapes");
        save(&db, &dir).unwrap();
        let mut loaded = load(&dir).unwrap();
        let rs = loaded.query("SELECT s FROM t").unwrap();
        assert_eq!(
            rs.rows()[0][0],
            Value::Str("tab\there\nand \\ slash".into())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_bits_roundtrip_exactly() {
        let tricky = [0.1f64, f64::MIN_POSITIVE, 1e300, -0.0];
        for f in tricky {
            let v = Value::Float(f);
            let decoded = decode_value(&encode_value(&v)).unwrap();
            match decoded {
                Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn load_missing_dir_errors() {
        let err = load(Path::new("/nonexistent/definitely/missing")).unwrap_err();
        assert!(matches!(err, Error::Storage { .. }), "{err}");
        assert!(err.to_string().contains("persistence I/O error"), "{err}");
    }

    #[test]
    fn truncated_or_corrupt_snapshot_is_a_storage_error() {
        let dir = tempdir("truncated");
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
        save(&db, &dir).unwrap();
        // The manifest cut off in the middle of a column record.
        let manifest = dir.join("_catalog.txt");
        let whole = fs::read_to_string(&manifest).unwrap();
        let cut = whole.find("\tINT").expect("typed col record");
        fs::write(&manifest, &whole[..cut]).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, Error::Storage { .. }), "{err}");
        assert!(err.to_string().contains("malformed col line"), "{err}");
        // A whole manifest over a damaged value file.
        fs::write(&manifest, &whole).unwrap();
        fs::write(dir.join("t.tsv"), "I:one\tS:x\n").unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, Error::Storage { .. }), "{err}");
        assert!(err.to_string().contains("bad persisted int"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
