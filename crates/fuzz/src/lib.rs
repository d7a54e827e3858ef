//! # tcdm-fuzz — grammar-based differential fuzzing of the mining stack
//!
//! The tightly-coupled architecture's central contract is that every
//! configuration computes the *same* relation of rules: production or
//! reference paths through every layer, either cache on or off, memory
//! or paged storage. The per-feature agreement suites
//! each vary one axis while pinning the rest; this crate varies **all
//! of them at once**:
//!
//! * [`grammar`] generates random schemas + data (seeded through
//!   `datagen::rng`) and random well-typed statements — DDL, DML,
//!   `SELECT`s with joins / `GROUP BY` / set operations / subqueries,
//!   and full MINE RULE statements spanning every statement class;
//! * [`matrix`] executes each generated case across the configuration
//!   cross-product, asserting bit-identical results against a pinned
//!   baseline configuration and (on small cases) against the brute-force
//!   [`minerule::reference`] oracle;
//! * [`shrink`] minimises a failing case by deleting rows, statements
//!   and clauses while the divergence still reproduces;
//! * [`repro`] serialises cases to self-contained repro files that the
//!   `tcdm-fuzz` binary (and `tests/fuzz_corpus.rs`) replay;
//! * [`frontend`] feeds mangled copies of each generated statement —
//!   prefixes, byte deletions and replacements, noise — to both parsers,
//!   which must return a typed error inside the input, never panic.
//!
//! See `docs/FUZZING.md` for the operational tour.

pub mod frontend;
pub mod grammar;
pub mod matrix;
pub mod repro;
pub mod shrink;

/// One table of a case: its `CREATE TABLE` statement plus the rendered
/// row tuples. Rows are kept separate from the DDL so the shrinker can
/// delete them individually and the matrix runner can insert them in one
/// multi-row statement (one WAL commit under the paged backend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table name, as spelled in `create`.
    pub name: String,
    /// The full `CREATE TABLE name (...)` statement, single-line.
    pub create: String,
    /// Rendered value tuples, e.g. `(1, 'it3', DATE '1995-03-02')`.
    pub rows: Vec<String>,
}

impl TableDef {
    /// The `INSERT INTO <name> VALUES t1, t2, ...` statement loading
    /// every row, or `None` for an empty table.
    pub fn insert_statement(&self) -> Option<String> {
        if self.rows.is_empty() {
            return None;
        }
        Some(format!(
            "INSERT INTO {} VALUES {}",
            self.name,
            self.rows.join(", ")
        ))
    }
}

/// One checked operation of a case, executed in order on every
/// configuration's database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A mutating statement (INSERT / UPDATE / DELETE / CREATE TABLE AS):
    /// executed on every configuration, success-or-error compared.
    Dml(String),
    /// A SELECT whose result relation (order-insensitive) or error is
    /// compared across configurations.
    Query(String),
    /// A MINE RULE statement whose decoded rule set (bit-exact) or error
    /// is compared across configurations, and against the reference
    /// oracle on small cases.
    Mine(String),
}

impl Op {
    /// The statement text, whatever the kind.
    pub fn text(&self) -> &str {
        match self {
            Op::Dml(s) | Op::Query(s) | Op::Mine(s) => s,
        }
    }
}

/// A self-contained fuzz case: schema + data + an ordered list of
/// checked operations. Everything the matrix runner needs, and exactly
/// what repro files serialise.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuzzCase {
    pub tables: Vec<TableDef>,
    pub ops: Vec<Op>,
}

impl FuzzCase {
    /// Total data rows across all tables (the size the shrinker minimises
    /// and the reference-oracle gate measures).
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// The setup script: every CREATE TABLE, then one bulk INSERT per
    /// non-empty table.
    pub fn setup_statements(&self) -> Vec<String> {
        let mut out: Vec<String> = self.tables.iter().map(|t| t.create.clone()).collect();
        out.extend(self.tables.iter().filter_map(|t| t.insert_statement()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_orders_creates_before_inserts() {
        let case = FuzzCase {
            tables: vec![
                TableDef {
                    name: "a".into(),
                    create: "CREATE TABLE a (x INT)".into(),
                    rows: vec!["(1)".into(), "(2)".into()],
                },
                TableDef {
                    name: "b".into(),
                    create: "CREATE TABLE b (y INT)".into(),
                    rows: vec![],
                },
            ],
            ops: vec![Op::Query("SELECT x FROM a".into())],
        };
        let setup = case.setup_statements();
        assert_eq!(setup.len(), 3, "two creates + one bulk insert");
        assert_eq!(setup[2], "INSERT INTO a VALUES (1), (2)");
        assert_eq!(case.row_count(), 2);
    }
}
