//! The catalog ("data dictionary"): tables, views, sequences.
//!
//! The MINE RULE translator consults the data dictionary to validate
//! attribute lists (§4.1 of the paper), so the catalog exposes schema
//! lookup as a first-class operation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Error, ObjectKind, Result};
use crate::sequence::Sequence;
use crate::sql::ast::SelectStmt;
use crate::table::{DeferredTable, Table};
use crate::types::Schema;

/// A non-materialised view: a stored SELECT re-evaluated at use.
#[derive(Debug, Clone)]
pub struct View {
    pub name: String,
    pub query: SelectStmt,
}

/// A base table as the catalog holds it: its rows, or a deferred table
/// whose rows are built on first access.
#[derive(Debug, Clone)]
pub enum TableEntry {
    Table(Table),
    Deferred(DeferredTable),
}

impl TableEntry {
    pub fn name(&self) -> &str {
        match self {
            TableEntry::Table(t) => t.name(),
            TableEntry::Deferred(d) => d.name(),
        }
    }

    pub fn schema(&self) -> &Schema {
        match self {
            TableEntry::Table(t) => t.schema(),
            TableEntry::Deferred(d) => d.schema(),
        }
    }

    pub fn row_count(&self) -> usize {
        match self {
            TableEntry::Table(t) => t.row_count(),
            TableEntry::Deferred(d) => d.row_count(),
        }
    }

    /// Rough heap footprint: a table's rows at their per-row cost, a
    /// deferred table's producer (and its rows once built).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            TableEntry::Table(t) => t.approx_bytes(),
            TableEntry::Deferred(d) => d.approx_bytes(),
        }
    }
}

/// All named objects known to a [`crate::engine::Database`].
///
/// Names are case-insensitive; the original spelling is preserved on the
/// objects themselves for display.
///
/// A deferred table is built by the first [`Catalog::table`] or
/// [`Catalog::table_mut`] that names it — every read and every write of
/// its rows goes through one of them — and never by a lookup that needs
/// only its name, schema or row count, nor by a DROP.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableEntry>,
    views: HashMap<String, View>,
    sequences: HashMap<String, Sequence>,
    /// Rows built for deferred tables so far.
    deferred_rows_built: AtomicU64,
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn check_free(&self, name: &str) -> Result<()> {
        let k = key(name);
        if self.tables.contains_key(&k) {
            return Err(Error::DuplicateObject {
                kind: ObjectKind::Table,
                name: name.to_string(),
            });
        }
        if self.views.contains_key(&k) {
            return Err(Error::DuplicateObject {
                kind: ObjectKind::View,
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Register a new base table.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        self.create_entry(TableEntry::Table(table))
    }

    /// Register a new base table, its rows built or deferred.
    pub fn create_entry(&mut self, entry: TableEntry) -> Result<()> {
        self.check_free(entry.name())?;
        self.tables.insert(key(entry.name()), entry);
        Ok(())
    }

    /// Register a new view.
    pub fn create_view(&mut self, view: View) -> Result<()> {
        self.check_free(&view.name)?;
        self.views.insert(key(&view.name), view);
        Ok(())
    }

    /// Register a new sequence.
    pub fn create_sequence(&mut self, seq: Sequence) -> Result<()> {
        let k = key(seq.name());
        if self.sequences.contains_key(&k) {
            return Err(Error::DuplicateObject {
                kind: ObjectKind::Sequence,
                name: seq.name().to_string(),
            });
        }
        self.sequences.insert(k, seq);
        Ok(())
    }

    /// Drop a table. `if_exists` suppresses the missing-object error.
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        if self.tables.remove(&key(name)).is_none() && !if_exists {
            return Err(Error::UnknownObject {
                kind: ObjectKind::Table,
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Drop a view.
    pub fn drop_view(&mut self, name: &str, if_exists: bool) -> Result<()> {
        if self.views.remove(&key(name)).is_none() && !if_exists {
            return Err(Error::UnknownObject {
                kind: ObjectKind::View,
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// Drop a sequence.
    pub fn drop_sequence(&mut self, name: &str, if_exists: bool) -> Result<()> {
        if self.sequences.remove(&key(name)).is_none() && !if_exists {
            return Err(Error::UnknownObject {
                kind: ObjectKind::Sequence,
                name: name.to_string(),
            });
        }
        Ok(())
    }

    /// A base table as registered, built or deferred: building nothing.
    pub fn entry(&self, name: &str) -> Result<&TableEntry> {
        self.tables
            .get(&key(name))
            .ok_or_else(|| Error::UnknownObject {
                kind: ObjectKind::Table,
                name: name.to_string(),
            })
    }

    /// Look up a base table, building a deferred one's rows.
    pub fn table(&self, name: &str) -> Result<&Table> {
        Ok(match self.entry(name)? {
            TableEntry::Table(table) => table,
            TableEntry::Deferred(deferred) => deferred.table(&self.deferred_rows_built),
        })
    }

    /// Mutable table lookup. A deferred table becomes an ordinary one.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let entry = self
            .tables
            .get_mut(&key(name))
            .ok_or_else(|| Error::UnknownObject {
                kind: ObjectKind::Table,
                name: name.to_string(),
            })?;
        if let TableEntry::Deferred(deferred) = entry {
            let table = deferred.clone().into_table(&self.deferred_rows_built);
            *entry = TableEntry::Table(table);
        }
        match entry {
            TableEntry::Table(table) => Ok(table),
            TableEntry::Deferred(_) => unreachable!("replaced above"),
        }
    }

    /// A base table's row count, building nothing.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        Ok(self.entry(name)?.row_count())
    }

    /// Rows built for deferred tables since the catalog was made.
    pub fn deferred_rows_built(&self) -> u64 {
        self.deferred_rows_built.load(Ordering::Relaxed)
    }

    /// Take over `other`'s objects, keeping this catalog's counters.
    pub(crate) fn replace_objects(&mut self, other: Catalog) {
        let built = self.deferred_rows_built();
        *self = other;
        *self.deferred_rows_built.get_mut() += built;
    }

    /// Look up a view.
    pub fn view(&self, name: &str) -> Option<&View> {
        self.views.get(&key(name))
    }

    /// Look up a sequence mutably (NEXTVAL advances it).
    pub fn sequence_mut(&mut self, name: &str) -> Result<&mut Sequence> {
        self.sequences
            .get_mut(&key(name))
            .ok_or_else(|| Error::UnknownObject {
                kind: ObjectKind::Sequence,
                name: name.to_string(),
            })
    }

    /// True when a base table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&key(name))
    }

    /// True when a view with this name exists.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains_key(&key(name))
    }

    /// True when a sequence with this name exists.
    pub fn has_sequence(&self, name: &str) -> bool {
        self.sequences.contains_key(&key(name))
    }

    /// The schema of a base table (data-dictionary access for the
    /// translator). Views are resolved by the executor, not here.
    pub fn table_schema(&self, name: &str) -> Result<&Schema> {
        Ok(self.entry(name)?.schema())
    }

    /// `(name, SQL text)` of every view, sorted by name (persistence).
    pub fn view_definitions(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .views
            .values()
            .map(|v| (v.name.clone(), v.query.to_string()))
            .collect();
        out.sort();
        out
    }

    /// `(name, next value, increment)` of every sequence, sorted by name.
    pub fn sequence_states(&self) -> Vec<(String, i64, i64)> {
        let mut out: Vec<(String, i64, i64)> = self
            .sequences
            .values()
            .map(|s| (s.name().to_string(), s.peek(), s.increment()))
            .collect();
        out.sort();
        out
    }

    /// True when the catalog holds no tables, views or sequences
    /// (drives the attach direction when switching storage backends).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.views.is_empty() && self.sequences.is_empty()
    }

    /// Names of all base tables, sorted (deterministic listings).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.values().map(TableEntry::name).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::types::{Column, DataType};
    use crate::value::Value;

    fn table(name: &str) -> Table {
        Table::new(name, Schema::new(vec![Column::new("a", DataType::Int)]))
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let mut c = Catalog::new();
        c.create_table(table("Purchase")).unwrap();
        assert!(c.table("purchase").is_ok());
        assert!(c.table("PURCHASE").is_ok());
        assert!(c.has_table("PuRcHaSe"));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.create_table(table("t")).unwrap();
        assert!(matches!(
            c.create_table(table("T")),
            Err(Error::DuplicateObject { .. })
        ));
    }

    #[test]
    fn drop_missing_table_errors_unless_if_exists() {
        let mut c = Catalog::new();
        assert!(c.drop_table("nope", false).is_err());
        assert!(c.drop_table("nope", true).is_ok());
    }

    #[test]
    fn sequences_are_separate_namespace() {
        let mut c = Catalog::new();
        c.create_table(table("x")).unwrap();
        c.create_sequence(Sequence::new("x", 1, 1)).unwrap();
        assert!(c.has_table("x") && c.has_sequence("x"));
    }

    /// Two INT rows, `(1)` and `(2)`.
    struct TwoRows;

    impl crate::table::RowProducer for TwoRows {
        fn rows(&self) -> Vec<crate::row::Row> {
            vec![vec![Value::Int(1)], vec![Value::Int(2)]]
        }

        fn retained_bytes(&self) -> u64 {
            0
        }
    }

    fn deferred(name: &str) -> TableEntry {
        let schema = Schema::new(vec![Column::new("a", DataType::Int)]);
        TableEntry::Deferred(DeferredTable::new(name, schema, 2, Arc::new(TwoRows)))
    }

    #[test]
    fn a_deferred_table_is_built_once_by_its_first_access() {
        let mut c = Catalog::new();
        c.create_entry(deferred("d")).unwrap();
        let version = match c.entry("d").unwrap() {
            TableEntry::Deferred(d) => d.version(),
            TableEntry::Table(_) => unreachable!("registered deferred"),
        };
        // Lookups that need no row build nothing.
        assert!(c.has_table("D"));
        assert_eq!(c.row_count("d").unwrap(), 2);
        assert_eq!(c.table_schema("d").unwrap().len(), 1);
        assert_eq!(c.table_names(), vec!["d"]);
        assert_eq!(c.deferred_rows_built(), 0);
        // The first read builds it under the stamp taken at registration.
        let table = c.table("d").unwrap();
        assert_eq!(table.rows(), [vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(table.version(), version);
        assert_eq!(c.deferred_rows_built(), 2);
        c.table("d").unwrap();
        // A write takes the built table as it is.
        c.table_mut("d")
            .unwrap()
            .insert(vec![Value::Int(3)])
            .unwrap();
        assert!(matches!(c.entry("d").unwrap(), TableEntry::Table(_)));
        assert_eq!((c.row_count("d").unwrap(), c.deferred_rows_built()), (3, 2));

        // A write to an unbuilt one builds it; a DROP builds nothing.
        c.create_entry(deferred("w")).unwrap();
        c.table_mut("w")
            .unwrap()
            .delete_where(|r| r[0] == Value::Int(1));
        assert_eq!((c.row_count("w").unwrap(), c.deferred_rows_built()), (1, 4));
        c.create_entry(deferred("x")).unwrap();
        c.drop_table("x", false).unwrap();
        assert_eq!(c.deferred_rows_built(), 4);
        assert!(c.create_entry(deferred("D")).is_err(), "names stay unique");
    }

    #[test]
    fn table_names_sorted() {
        let mut c = Catalog::new();
        c.create_table(table("b")).unwrap();
        c.create_table(table("a")).unwrap();
        assert_eq!(c.table_names(), vec!["a", "b"]);
    }
}
