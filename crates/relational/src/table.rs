//! In-memory base tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::{Error, Result};
use crate::row::Row;
use crate::stats::ColumnStats;
use crate::types::Schema;

/// Process-global version stamp source. Every stamp is unique, so a table
/// version identifies one exact row snapshot of one exact table instance:
/// dropping and recreating a table (or reloading a saved database) can
/// never resurrect a version that an index or cache entry was built
/// against.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// Maximum rows the per-table change log retains across all records.
/// Beyond this the log rebases to the current version: bulk loads stay
/// cheap, while the small INSERT/DELETE deltas of an interactive mining
/// session (the mined-result cache's re-mining path) remain replayable.
const CHANGE_LOG_ROWS: usize = 4096;

/// The row-level difference between two version stamps of one table, as
/// reported by [`Table::changes_since`]: every row inserted and every row
/// deleted, in mutation order. Rows are physical — a row inserted and
/// later deleted inside the window appears in both lists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDelta {
    pub inserted: Vec<Row>,
    pub deleted: Vec<Row>,
}

impl TableDelta {
    /// Total rows in the delta (inserted + deleted).
    pub fn row_count(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// True when the window saw no row changes.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

/// Which row *positions* a table's latest mutation moved, as reported by
/// [`Table::moved_since`]. Where the change log above carries row values
/// for a bounded window, this carries positions for exactly one step:
/// what a positional mirror of the rows (the paged store's page chain)
/// needs to bring itself up to date without reading the whole table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RowsMoved {
    /// Rows `from..` were appended; every earlier row kept its place.
    Appended { from: usize },
    /// The rows at these positions (as of before the mutation, ascending)
    /// were removed; the survivors closed ranks in order.
    Deleted { at: Vec<usize> },
    /// The rows at these positions were replaced in place.
    Updated { at: Vec<usize> },
}

/// One logged mutation: the version it produced plus the rows it moved.
/// `tracked` is false for mutations whose row-level effect is not logged
/// (TRUNCATE); a window crossing one yields no delta. UPDATE logs as a
/// tracked delete+insert pair via [`Table::apply_updates`].
#[derive(Debug, Clone)]
struct ChangeRecord {
    version: u64,
    inserted: Vec<Row>,
    deleted: Vec<Row>,
    tracked: bool,
}

/// A materialised table: a schema plus row storage.
///
/// Storage is a plain `Vec<Row>`; the engine targets the working-set sizes
/// of the mining preprocessor (encoded tables of at most a few million
/// small rows), for which contiguous row vectors beat any paging scheme.
///
/// The rows and the change log sit behind `Arc`s, so a clone shares them
/// — the same rows at the same version, whoever holds it (the catalog,
/// the session artifact store) — and a mutation copies what it is about
/// to change only while another holder exists: a shared table copies
/// once, an unshared one never.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Arc<Vec<Row>>,
    version: u64,
    /// One distinct-count estimate per column, each filled by the first
    /// [`Table::distinct`] call at this version and emptied by `restamp`.
    distinct: Vec<OnceLock<u64>>,
    /// Row-level mutation log, oldest first. Applies on top of
    /// `change_base`; bounded by `CHANGE_LOG_ROWS` total rows.
    changes: Arc<Vec<ChangeRecord>>,
    /// Rows held by `changes` (inserted + deleted): the running total the
    /// retention check reads instead of re-summing the log.
    change_rows: usize,
    /// The version the oldest retained change record applies on top of.
    change_base: u64,
    /// The version the latest mutation replaced and the positions it
    /// moved; `None` when that is not known row by row (new table,
    /// TRUNCATE).
    moved: Option<(u64, RowsMoved)>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let version = next_version();
        Table {
            name: name.into(),
            distinct: vec![OnceLock::new(); schema.len()],
            schema,
            rows: Arc::default(),
            version,
            changes: Arc::default(),
            change_rows: 0,
            change_base: version,
            moved: None,
        }
    }

    /// Take a fresh version stamp. The one place the version moves, so
    /// the one place data derived from the old rows is dropped.
    fn restamp(&mut self) {
        self.version = next_version();
        self.distinct.fill(OnceLock::new());
    }

    /// The table's current version stamp. Monotonically increasing across
    /// the whole process: bumped by every mutation, and globally unique,
    /// so consumers (hash indexes, the preprocess artifact cache) detect
    /// both in-place mutation and drop/recreate by a simple equality
    /// check.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Table name as stored in the catalog.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Stored rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The stored rows themselves, shared: a reader (a query's scan)
    /// holds this version's rows without copying them, and a later
    /// mutation copies them once only if the reader still holds them.
    pub(crate) fn shared_rows(&self) -> Arc<Vec<Row>> {
        Arc::clone(&self.rows)
    }

    /// Number of stored rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Estimated number of distinct values in column `col` (`None` past
    /// the schema width): exact up to [`crate::stats::KMV_K`] values, a
    /// KMV estimate beyond. Computed over the current rows on the first
    /// request and kept until the next mutation, so it always describes
    /// [`Table::version`].
    pub fn distinct(&self, col: usize) -> Option<u64> {
        let cell = self.distinct.get(col)?;
        Some(*cell.get_or_init(|| {
            let mut sketch = ColumnStats::default();
            self.rows.iter().for_each(|row| sketch.observe(&row[col]));
            sketch.distinct()
        }))
    }

    /// Append a row after checking arity and column types: the one-row
    /// case of [`Table::insert_all`].
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.insert_all([row]).map(|_| ())
    }

    /// The append primitive: check every row (arity and column types)
    /// first, then append them all under one version stamp and one change
    /// record — all-or-nothing, a bad row leaves the table untouched. An
    /// empty batch is a no-op, not a version bump. Returns how many rows
    /// were appended.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let mut batch: Vec<Row> = rows.into_iter().collect();
        for row in &batch {
            self.check_row(row)?;
        }
        if batch.is_empty() {
            return Ok(0);
        }
        let n = batch.len();
        // A batch the log cannot retain rebases it, so no copy is taken.
        let logged = self.log_retains(n).then(|| batch.clone());
        let from = self.rows.len();
        self.moved = Some((self.version, RowsMoved::Appended { from }));
        if from == 0 {
            // An empty table takes the batch itself: no row is copied.
            batch.shrink_to_fit();
            self.rows = Arc::new(batch);
        } else {
            Arc::make_mut(&mut self.rows).append(&mut batch);
        }
        self.restamp();
        match logged {
            Some(inserted) => self.log_change(ChangeRecord {
                version: self.version,
                inserted,
                deleted: Vec::new(),
                tracked: true,
            }),
            None => self.rebase_log(),
        }
        Ok(n)
    }

    /// Arity and column-type check of one incoming row.
    fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::Arity {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (value, column) in row.iter().zip(self.schema.columns()) {
            if !column.dtype.admits(value) {
                return Err(Error::type_mismatch(format!(
                    "column '{}' of table '{}' is {} but value is {}",
                    column.name,
                    self.name,
                    column.dtype,
                    value.type_name()
                )));
            }
        }
        Ok(())
    }

    /// Remove all rows matching the predicate; returns how many were removed.
    pub fn delete_where(&mut self, pred: impl FnMut(&Row) -> bool) -> usize {
        let mask: Vec<bool> = self.rows.iter().map(pred).collect();
        self.delete_mask(&mask)
    }

    /// Remove every row whose mask position is true; returns how many were
    /// removed. Positions beyond the mask are kept. This is the DELETE
    /// primitive: removed rows enter the change log, so a consumer holding
    /// an older version stamp can replay the delta. A mask that removes
    /// nothing is a no-op, not a version bump: indexes, caches and the
    /// paged store see an untouched table.
    pub fn delete_mask(&mut self, mask: &[bool]) -> usize {
        if !mask.iter().take(self.rows.len()).any(|&m| m) {
            return 0;
        }
        let mut deleted = Vec::new();
        let mut at = Vec::new();
        let mut kept = Vec::with_capacity(self.rows.len());
        for (i, row) in Arc::make_mut(&mut self.rows).drain(..).enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                deleted.push(row);
                at.push(i);
            } else {
                kept.push(row);
            }
        }
        self.rows = Arc::new(kept);
        self.moved = Some((self.version, RowsMoved::Deleted { at }));
        self.restamp();
        let removed = deleted.len();
        self.log_change(ChangeRecord {
            version: self.version,
            inserted: Vec::new(),
            deleted,
            tracked: true,
        });
        removed
    }

    /// Replace rows in place: each `(index, new_row)` swaps the stored
    /// row at `index` after arity/type checking (all-or-nothing — a bad
    /// row leaves the table untouched). The whole batch logs as one
    /// tracked change record holding the old rows as deletions and the
    /// new rows as insertions, so UPDATE windows stay replayable by
    /// [`Table::changes_since`]. Returns how many rows were replaced.
    pub fn apply_updates(&mut self, changes: Vec<(usize, Row)>) -> Result<usize> {
        for (i, row) in &changes {
            if *i >= self.rows.len() {
                return Err(Error::unsupported(format!(
                    "update index {i} out of bounds for table '{}'",
                    self.name
                )));
            }
            self.check_row(row)?;
        }
        if changes.is_empty() {
            return Ok(0);
        }
        let mut inserted = Vec::with_capacity(changes.len());
        let mut deleted = Vec::with_capacity(changes.len());
        let mut at = Vec::with_capacity(changes.len());
        let rows = Arc::make_mut(&mut self.rows);
        for (i, row) in changes {
            inserted.push(row.clone());
            deleted.push(std::mem::replace(&mut rows[i], row));
            at.push(i);
        }
        self.moved = Some((self.version, RowsMoved::Updated { at }));
        self.restamp();
        let n = inserted.len();
        self.log_change(ChangeRecord {
            version: self.version,
            inserted,
            deleted,
            tracked: true,
        });
        Ok(n)
    }

    /// Drop every row.
    pub fn truncate(&mut self) {
        // Nothing of a shared vector is kept, so nothing of it is copied.
        match Arc::get_mut(&mut self.rows) {
            Some(rows) => rows.clear(),
            None => self.rows = Arc::default(),
        }
        self.moved = None;
        self.restamp();
        self.log_change(ChangeRecord {
            version: self.version,
            inserted: Vec::new(),
            deleted: Vec::new(),
            tracked: false,
        });
    }

    /// Whether the retained log still fits `rows` more rows.
    fn log_retains(&self, rows: usize) -> bool {
        self.change_rows + rows <= CHANGE_LOG_ROWS
    }

    /// Append a mutation record, rebasing the log when its retained row
    /// total would exceed [`CHANGE_LOG_ROWS`].
    fn log_change(&mut self, record: ChangeRecord) {
        let rows = record.inserted.len() + record.deleted.len();
        if self.log_retains(rows) {
            self.change_rows += rows;
            Arc::make_mut(&mut self.changes).push(record);
        } else {
            self.rebase_log();
        }
    }

    /// Forget the retained log: old windows become unanswerable, new ones
    /// start from the current version.
    fn rebase_log(&mut self) {
        if !self.changes.is_empty() {
            self.changes = Arc::default();
        }
        self.change_rows = 0;
        self.change_base = self.version;
    }

    /// The row-level delta between `version` and the table's current
    /// state, or `None` when it cannot be reconstructed: the stamp is not
    /// one this table's retained log starts from, the window fell off the
    /// bounded log, or it crosses an untracked mutation (TRUNCATE).
    /// `Some(delta)` is exact: applying it to the `version` snapshot
    /// yields the current rows.
    pub fn changes_since(&self, version: u64) -> Option<TableDelta> {
        if version == self.version {
            return Some(TableDelta::default());
        }
        // The stamp must be a state the retained log applies on top of.
        if version != self.change_base && !self.changes.iter().any(|c| c.version == version) {
            return None;
        }
        let mut delta = TableDelta::default();
        for record in self.changes.iter().filter(|c| c.version > version) {
            if !record.tracked {
                return None;
            }
            delta.inserted.extend(record.inserted.iter().cloned());
            delta.deleted.extend(record.deleted.iter().cloned());
        }
        Some(delta)
    }

    /// The positions the latest mutation moved, when `version` is the
    /// stamp that mutation replaced: a mirror at `version` that applies
    /// them holds the current rows, in order. `None` when `version` is
    /// any other stamp or the mutation is not known row by row — the
    /// mirror must then take the rows whole.
    pub(crate) fn moved_since(&self, version: u64) -> Option<&RowsMoved> {
        match &self.moved {
            Some((since, moved)) if *since == version => Some(moved),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::types::{Column, DataType};
    use crate::value::Value;

    fn t() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
            ]),
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        assert_eq!(table.row_count(), 1);
        assert_eq!(table.rows()[0][1], Value::Str("x".into()));
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut table = t();
        assert!(matches!(table.insert(row![1]), Err(Error::Arity { .. })));
    }

    #[test]
    fn insert_rejects_wrong_type() {
        let mut table = t();
        assert!(table.insert(row!["no", "x"]).is_err());
    }

    #[test]
    fn insert_accepts_null_anywhere() {
        let mut table = t();
        table.insert(vec![Value::Null, Value::Null]).unwrap();
    }

    #[test]
    fn versions_bump_on_every_mutation_and_never_repeat() {
        let mut table = t();
        let mut seen = vec![table.version()];
        table.insert(row![1, "x"]).unwrap();
        seen.push(table.version());
        table.insert_all(vec![row![2, "y"]]).unwrap();
        seen.push(table.version());
        table.delete_where(|r| r[0] == Value::Int(1));
        seen.push(table.version());
        table.truncate();
        seen.push(table.version());
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "every mutation restamps");
        // A freshly created table never reuses an old stamp.
        assert!(t().version() > seen[0]);
    }

    /// Which distinct cells hold a value, without asking for one.
    fn filled(table: &Table) -> Vec<bool> {
        table.distinct.iter().map(|c| c.get().is_some()).collect()
    }

    #[test]
    fn distinct_is_computed_on_demand_and_dropped_by_every_mutation() {
        let mut table = t();
        assert_eq!(filled(&table), [false, false], "a new table asks nothing");
        table
            .insert_all(vec![row![1, "x"], row![2, "y"], row![3, "x"]])
            .unwrap();
        assert_eq!(filled(&table), [false, false], "INSERT sketches nothing");
        assert_eq!(table.distinct(0), Some(3));
        assert_eq!(filled(&table), [true, false], "only the column asked for");
        assert_eq!(table.distinct(1), Some(2));
        assert_eq!(table.distinct(2), None, "past the schema width");
        assert_eq!(filled(&table), [true, true]);

        // What changes nothing keeps the cells: no-ops and refused batches.
        assert_eq!(table.insert_all(Vec::new()).unwrap(), 0);
        assert_eq!(table.delete_mask(&[false, false, false]), 0);
        assert_eq!(table.apply_updates(Vec::new()).unwrap(), 0);
        assert!(table.insert(row!["bad", "z"]).is_err());
        assert_eq!(filled(&table), [true, true]);
        // A clone is the same rows at the same version: it carries the
        // answers and computes none of its own.
        assert_eq!(filled(&table.clone()), [true, true]);

        table.insert(row![4, "z"]).unwrap();
        assert_eq!(filled(&table), [false, false], "INSERT invalidates");
        assert_eq!(filled(&table.clone()), [false, false]);
        assert_eq!((table.distinct(0), table.distinct(1)), (Some(4), Some(3)));

        table.apply_updates(vec![(3, row![1, "x"])]).unwrap();
        assert_eq!(filled(&table), [false, false], "UPDATE invalidates");
        assert_eq!((table.distinct(0), table.distinct(1)), (Some(3), Some(2)));

        table.delete_where(|r| r[1] == Value::Str("x".into()));
        assert_eq!(filled(&table), [false, false], "DELETE invalidates");
        assert_eq!(table.row_count(), 1);
        assert_eq!((table.distinct(0), table.distinct(1)), (Some(1), Some(1)));

        table.truncate();
        assert_eq!(filled(&table), [false, false], "TRUNCATE invalidates");
        assert_eq!(table.row_count(), 0);
        assert_eq!((table.distinct(0), table.distinct(1)), (Some(0), Some(0)));
    }

    #[test]
    fn changes_since_replays_inserts_and_deletes() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        let v0 = table.version();
        table.insert(row![2, "y"]).unwrap();
        table.insert(row![3, "z"]).unwrap();
        table.delete_where(|r| r[0] == Value::Int(1));
        let delta = table.changes_since(v0).expect("window is tracked");
        assert_eq!(delta.inserted, vec![row![2, "y"], row![3, "z"]]);
        assert_eq!(delta.deleted, vec![row![1, "x"]]);
        assert_eq!(delta.row_count(), 3);
        // The current stamp always yields an empty delta.
        assert_eq!(
            table.changes_since(table.version()),
            Some(TableDelta::default())
        );
    }

    #[test]
    fn changes_since_rejects_alien_and_pre_log_versions() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        assert!(
            table.changes_since(0).is_none(),
            "never a stamp of this table"
        );
        assert!(
            table.changes_since(table.version() + 1_000_000).is_none(),
            "future stamps are alien"
        );
    }

    #[test]
    fn truncate_breaks_the_change_window() {
        let mut table = t();
        let v0 = table.version();
        table.insert(row![1, "x"]).unwrap();
        table.truncate();
        table.insert(row![2, "y"]).unwrap();
        assert!(
            table.changes_since(v0).is_none(),
            "windows crossing an untracked mutation yield no delta"
        );
    }

    #[test]
    fn change_log_rebases_beyond_capacity() {
        let mut table = t();
        let v0 = table.version();
        for i in 0..(CHANGE_LOG_ROWS as i64 + 10) {
            table.insert(row![i, "x"]).unwrap();
        }
        assert!(table.changes_since(v0).is_none(), "window fell off the log");
        // Small deltas on top of the rebased log are replayable again.
        let v1 = table.version();
        table.insert(row![-1, "y"]).unwrap();
        let delta = table.changes_since(v1).expect("fresh window after rebase");
        assert_eq!(delta.inserted, vec![row![-1, "y"]]);
    }

    fn numbered(range: std::ops::Range<usize>) -> Vec<Row> {
        range.map(|i| row![i as i64, "x"]).collect()
    }

    #[test]
    fn row_at_a_time_log_retains_exactly_the_cap_then_rebases() {
        let mut table = t();
        let v0 = table.version();
        for r in numbered(0..CHANGE_LOG_ROWS) {
            table.insert(r).unwrap();
        }
        let delta = table
            .changes_since(v0)
            .expect("exactly the cap is retained");
        assert_eq!(delta.inserted, numbered(0..CHANGE_LOG_ROWS));
        let at_cap = table.version();
        table.insert(row![-1, "y"]).unwrap();
        assert!(table.changes_since(v0).is_none(), "cap + 1 rebases");
        assert!(table.changes_since(at_cap).is_none(), "every older stamp");
        assert_eq!(
            table.changes_since(table.version()),
            Some(TableDelta::default())
        );
    }

    #[test]
    fn bulk_append_within_the_cap_is_one_record_with_the_row_at_a_time_delta() {
        let (mut bulk, mut single) = (t(), t());
        let (b0, s0) = (bulk.version(), single.version());
        assert_eq!(bulk.insert_all(numbered(0..CHANGE_LOG_ROWS)).unwrap(), 4096);
        for r in numbered(0..CHANGE_LOG_ROWS) {
            single.insert(r).unwrap();
        }
        assert_eq!(bulk.changes.len(), 1, "one statement, one record");
        assert_eq!(single.changes.len(), CHANGE_LOG_ROWS);
        assert_eq!(bulk.changes_since(b0), single.changes_since(s0));
        assert_eq!(bulk.rows(), single.rows());
        assert_eq!(bulk.distinct(0), single.distinct(0));
    }

    #[test]
    fn bulk_append_beyond_the_cap_rebases_and_older_stamps_answer_none() {
        let mut table = t();
        let v0 = table.version();
        table.insert(row![-1, "y"]).unwrap();
        let v1 = table.version();
        table.insert_all(numbered(0..CHANGE_LOG_ROWS + 1)).unwrap();
        assert_eq!(table.row_count(), CHANGE_LOG_ROWS + 2);
        assert!(table.changes_since(v0).is_none());
        assert!(table.changes_since(v1).is_none());
        assert!(table.changes.is_empty(), "nothing copied into the log");
        // A batch that fits alone but not on top of the retained rows
        // rebases too; small deltas on the fresh base replay again.
        let v2 = table.version();
        table.insert(row![-2, "y"]).unwrap();
        table.insert_all(numbered(0..CHANGE_LOG_ROWS)).unwrap();
        assert!(table.changes_since(v2).is_none());
        let v3 = table.version();
        table.insert_all(numbered(0..2)).unwrap();
        assert_eq!(table.changes_since(v3).unwrap().inserted, numbered(0..2));
    }

    #[test]
    fn insert_all_is_all_or_nothing_and_empty_is_a_no_op() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        let v0 = table.version();
        assert_eq!(table.insert_all(Vec::new()).unwrap(), 0);
        assert_eq!(table.version(), v0, "an empty batch bumps no version");
        assert!(table
            .insert_all(vec![row![2, "y"], row!["bad", "z"]])
            .is_err());
        assert!(table.insert_all(vec![row![2, "y"], row![3]]).is_err());
        assert_eq!(table.version(), v0, "a failed batch leaves no trace");
        assert_eq!(table.rows(), &[row![1, "x"]]);
        assert_eq!(table.changes_since(v0), Some(TableDelta::default()));
    }

    #[test]
    fn apply_updates_replaces_rows_and_logs_a_tracked_delta() {
        let mut table = t();
        table
            .insert_all(vec![row![1, "x"], row![2, "y"], row![3, "x"]])
            .unwrap();
        let v0 = table.version();
        let n = table
            .apply_updates(vec![(0, row![10, "x"]), (2, row![3, "z"])])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(table.rows()[0], row![10, "x"]);
        assert_eq!(table.rows()[2], row![3, "z"]);
        let delta = table.changes_since(v0).expect("UPDATE windows replay");
        assert_eq!(delta.inserted, vec![row![10, "x"], row![3, "z"]]);
        assert_eq!(delta.deleted, vec![row![1, "x"], row![3, "x"]]);
    }

    #[test]
    fn apply_updates_is_all_or_nothing() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        let v0 = table.version();
        assert!(table.apply_updates(vec![(0, row!["bad", "y"])]).is_err());
        assert_eq!(table.version(), v0, "failed batch leaves no trace");
        assert_eq!(table.rows()[0], row![1, "x"]);
        // An empty batch is a no-op, not a version bump.
        assert_eq!(table.apply_updates(Vec::new()).unwrap(), 0);
        assert_eq!(table.version(), v0);
    }

    #[test]
    fn moved_since_reports_the_latest_mutation_to_the_version_it_replaced() {
        let mut table = t();
        assert_eq!(table.moved_since(table.version()), None, "new table");
        let v0 = table.version();
        table.insert_all(numbered(0..5)).unwrap();
        assert_eq!(
            table.moved_since(v0),
            Some(&RowsMoved::Appended { from: 0 })
        );
        let v1 = table.version();
        table.insert(row![5, "x"]).unwrap();
        assert_eq!(
            table.moved_since(v1),
            Some(&RowsMoved::Appended { from: 5 })
        );
        assert_eq!(table.moved_since(v0), None, "one step back only");
        assert_eq!(table.moved_since(table.version()), None);

        let v2 = table.version();
        table.delete_where(|r| r[0] == Value::Int(1) || r[0] == Value::Int(4));
        let deleted = RowsMoved::Deleted { at: vec![1, 4] };
        assert_eq!(table.moved_since(v2), Some(&deleted));
        let v3 = table.version();
        table
            .apply_updates(vec![(3, row![50, "y"]), (0, row![0, "y"])])
            .unwrap();
        let updated = RowsMoved::Updated { at: vec![3, 0] };
        assert_eq!(table.moved_since(v3), Some(&updated));

        // Mutations that change nothing leave the record standing; one
        // that is not known row by row clears it.
        table.delete_where(|_| false);
        assert!(table.insert_all(vec![row!["bad", "z"]]).is_err());
        assert_eq!(table.moved_since(v3), Some(&updated));
        let v4 = table.version();
        table.truncate();
        assert_eq!(table.moved_since(v4), None);
        assert_eq!(table.moved_since(v3), None);
    }

    /// Copy-on-write, on both backends: a clone (what the session
    /// artifact store captures) shares the rows; the first mutation of
    /// either holder copies them once, an unshared holder never copies,
    /// and no holder ever sees another's mutation — a copy put back into
    /// the catalog (a restored encoding) included.
    #[test]
    fn mutations_copy_shared_rows_once_and_leave_every_other_holder_unchanged() {
        use crate::engine::Database;
        let dir = std::env::temp_dir().join(format!("tcdm_table_cow_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for paged in [false, true] {
            let mut db = if paged {
                Database::open_paged(&dir).unwrap()
            } else {
                Database::new()
            };
            db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
                .unwrap();
            let live = |db: &Database| db.catalog().table("t").unwrap().clone();
            let captured = live(&db);
            let (version, rows) = (captured.version(), captured.rows().to_vec());
            assert!(Arc::ptr_eq(&captured.rows, &live(&db).rows), "shared");
            assert!(Arc::ptr_eq(&captured.changes, &live(&db).changes));

            db.execute("INSERT INTO t VALUES (4, 'w')").unwrap();
            let copied = Arc::as_ptr(&live(&db).rows);
            assert_ne!(copied, Arc::as_ptr(&captured.rows), "copied on write");
            db.execute("INSERT INTO t VALUES (5, 'v')").unwrap();
            db.execute("UPDATE t SET b = 'u' WHERE a = 1").unwrap();
            assert_eq!(Arc::as_ptr(&live(&db).rows), copied, "unshared: in place");
            db.execute("DELETE FROM t WHERE a = 2").unwrap();
            assert_eq!(live(&db).row_count(), 4);
            db.catalog_mut().table_mut("t").unwrap().truncate();
            assert_eq!(live(&db).row_count(), 0);
            assert_eq!((captured.version(), captured.rows()), (version, &rows[..]));
            assert_eq!(captured.changes_since(version), Some(TableDelta::default()));

            // Back into the catalog, shared again, and mutated there by
            // every primitive in turn.
            for sql in [
                "INSERT INTO t VALUES (6, 't')",
                "UPDATE t SET a = 0",
                "DELETE FROM t WHERE a = 3",
            ] {
                db.execute("DROP TABLE t").unwrap();
                db.catalog_mut().create_table(captured.clone()).unwrap();
                assert_eq!(live(&db).version(), version, "the same snapshot");
                db.execute(sql).unwrap();
                assert_ne!(live(&db).rows(), &rows[..], "{sql}");
                assert_eq!((captured.version(), captured.rows()), (version, &rows[..]));
            }
            db.execute("DROP TABLE t").unwrap();
            db.catalog_mut().create_table(captured.clone()).unwrap();
            db.catalog_mut().table_mut("t").unwrap().truncate();
            assert_eq!(captured.rows(), &rows[..], "TRUNCATE copies nothing");

            if paged {
                // The store mirrored what the catalog held, not a holder.
                db.execute("INSERT INTO t VALUES (7, 's')").unwrap();
                drop(db);
                let reopened = Database::open_paged(&dir).unwrap();
                assert_eq!(live(&reopened).rows(), &[row![7, "s"]]);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn statements_share_the_rows_they_scan_and_release_them_before_writing() {
        use crate::engine::Database;
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
            .unwrap();
        let rows = |db: &Database| Arc::clone(&db.catalog().table("t").unwrap().rows);
        let stored = Arc::as_ptr(&rows(&db));
        for sql in [
            "SELECT * FROM t",
            "SELECT COUNT(*) FROM t x, t y WHERE x.a = y.a",
            "SELECT b FROM t WHERE a > 1 ORDER BY b DESC LIMIT 1",
        ] {
            db.query(sql).unwrap();
            assert_eq!(Arc::strong_count(&rows(&db)), 2, "released: {sql}");
        }
        // A subquery predicate visits a shared snapshot, dropped before the
        // write, so the write is still in place.
        db.execute("UPDATE t SET b = 'w' WHERE a IN (SELECT a FROM t WHERE b = 'x')")
            .unwrap();
        assert_eq!(Arc::as_ptr(&rows(&db)), stored, "updated in place");
        assert_eq!(rows(&db)[0], row![1, "w"]);
    }

    #[test]
    fn delete_where_removes_matching() {
        let mut table = t();
        table
            .insert_all(vec![row![1, "x"], row![2, "y"], row![3, "x"]])
            .unwrap();
        let removed = table.delete_where(|r| r[1] == Value::Str("x".into()));
        assert_eq!(removed, 2);
        assert_eq!(table.row_count(), 1);
    }
}
