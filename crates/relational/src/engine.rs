//! The database engine: a catalog plus a SQL entry point.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::catalog::{Catalog, View};
use crate::error::{Error, Result};
use crate::exec::run_select;
use crate::exec::select::{kept, plan_subqueries, slot, Frame};
use crate::expr::compile::{ExecCounter, SiteEval};
use crate::expr::eval::{eval_expr, Kept, QueryCtx, SubqueryKind};
use crate::expr::Expr;
use crate::resultset::ResultSet;
use crate::row::Row;
use crate::sequence::Sequence;
use crate::sql::ast::{InsertSource, SelectStmt, Statement};
use crate::sql::parser::Parser;
use crate::storage::{PagedStore, StorageBackend, StorageConfig, StorageStats, WalFault};
use crate::table::Table;
use crate::types::{Column, Schema};
use crate::value::Value;

/// Counters exposed for benchmarking and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecStats {
    /// Statements executed through [`Database::run_statement`].
    pub statements: u64,
    /// Rows inserted into base tables.
    pub rows_inserted: u64,
    /// Expression programs compiled by the SQL executor.
    pub programs_compiled: u64,
    /// Constant subtrees folded during expression compilation.
    pub exprs_const_folded: u64,
    /// Always 0: the compiler lowers every node, subqueries included, to
    /// its own ops. Kept only because the kernel benchmark reads it.
    pub compile_fallback_ops: u64,
    /// Base-table rows fed into SELECT evaluation.
    pub rows_scanned: u64,
    /// Rows removed by WHERE / join-residual filters.
    pub rows_filtered: u64,
    /// Rows produced by join operators. A counted join
    /// (`exec::counted`) adds what it would have built: the sum of its
    /// entries' counts after each step.
    pub rows_joined: u64,
    /// What join operators actually built: one tuple or row per joined
    /// row, or one entry per distinct live value of a counted join.
    pub join_tuples: u64,
    /// Tokens lexed from the SQL text handed to [`Database::execute`]
    /// and [`Database::execute_script`].
    pub tokens_lexed: u64,
    /// Bytes of that text.
    pub bytes_lexed: u64,
    /// FROM lists run in the step order of their join plan (0 on the
    /// reference paths, like every `planner_*` counter).
    pub planner_plans: u64,
    /// Factors the plan joined at another position than the written one:
    /// a factor no key connected waited until one did.
    pub planner_reordered_joins: u64,
    /// WHERE conjuncts pushed beneath joins by the plan (the reference
    /// fold pushes too but does not account).
    pub planner_pushed_filters: u64,
    /// Always 0: the planner estimates nothing. Kept only because the
    /// kernel benchmark reads it.
    pub planner_est_rows_err: u64,
    /// Always 0: the executor evaluates expressions row-at-a-time and
    /// forms no column batches, the paged backend keeps no page cache,
    /// and every hash join and GROUP BY buckets its own input, so no
    /// table index is built, hit or invalidated. Kept only because the
    /// kernel benchmark reads these fields.
    pub vector_batches: u64,
    pub vector_fallback_batches: u64,
    pub storage_cache_hits: u64,
    pub storage_cache_evictions: u64,
    pub indexes_built: u64,
    pub index_hits: u64,
    pub index_invalidations: u64,
    /// Heap pages read by the paged storage backend (0 under memory).
    pub storage_page_reads: u64,
    /// Heap pages written by the paged storage backend (0 under memory).
    pub storage_page_writes: u64,
    /// Records appended to the write-ahead log (0 under memory).
    pub storage_wal_appends: u64,
    /// WAL fsyncs, one per committed transaction (0 under memory).
    pub storage_wal_fsyncs: u64,
    /// WAL recoveries performed at open (0 under memory).
    pub storage_recoveries: u64,
    /// Rows built for deferred tables on their first access (0 when
    /// nothing reads one).
    pub deferred_rows_built: u64,
}

impl ExecStats {
    /// Every counter published to telemetry, as (metric name, value), in
    /// publication order. `statements`, `rows_inserted` and the always-zero
    /// `vector_*` and `storage_cache_*` fields are not published. The
    /// `relational.index.*` and `relational.planner.est_rows_err` entries
    /// stay listed but always read 0, so publication, which skips zero
    /// deltas, never mints them.
    pub fn named(&self) -> [(&'static str, u64); 22] {
        [
            ("relational.compile.programs", self.programs_compiled),
            ("relational.compile.const_folded", self.exprs_const_folded),
            ("relational.compile.fallback_ops", self.compile_fallback_ops),
            ("relational.rows.scanned", self.rows_scanned),
            ("relational.rows.filtered", self.rows_filtered),
            ("relational.rows.joined", self.rows_joined),
            ("relational.rows.join_tuples", self.join_tuples),
            ("relational.index.built", self.indexes_built),
            ("relational.index.hits", self.index_hits),
            ("relational.index.invalidations", self.index_invalidations),
            ("relational.storage.page_reads", self.storage_page_reads),
            ("relational.storage.page_writes", self.storage_page_writes),
            ("relational.storage.wal_appends", self.storage_wal_appends),
            ("relational.storage.wal_fsyncs", self.storage_wal_fsyncs),
            ("relational.storage.recoveries", self.storage_recoveries),
            ("relational.planner.plans", self.planner_plans),
            (
                "relational.planner.reordered_joins",
                self.planner_reordered_joins,
            ),
            (
                "relational.planner.pushed_filters",
                self.planner_pushed_filters,
            ),
            ("relational.planner.est_rows_err", self.planner_est_rows_err),
            ("relational.deferred.rows_built", self.deferred_rows_built),
            ("relational.sql.tokens_lexed", self.tokens_lexed),
            ("relational.sql.bytes_lexed", self.bytes_lexed),
        ]
    }
}

/// Result of executing one statement.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Rows inserted/deleted/updated (0 for DDL and SELECT).
    pub rows_affected: usize,
    /// Present for SELECT statements.
    pub result: Option<ResultSet>,
}

/// An in-memory SQL database: the "SQL server" of the tightly-coupled
/// architecture. Holds the catalog, session host variables and statistics.
///
/// ```
/// use relational::Database;
/// let mut db = Database::new();
/// db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
/// db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
/// let rs = db.query("SELECT b FROM t WHERE a = 2").unwrap();
/// assert_eq!(rs.rows()[0][0].to_string(), "y");
/// ```
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    vars: HashMap<String, Value>,
    stats: ExecStats,
    reference_paths: bool,
    /// The running statement's subqueries and what they kept.
    pub(crate) frame: Frame,
    storage_dir: Option<PathBuf>,
    storage_cfg: StorageConfig,
    store: Option<PagedStore>,
    /// Counters folded in from stores detached by a backend switch.
    storage_base: StorageStats,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Open a database on the durable paged backend rooted at `dir`
    /// (created if missing, recovered if a previous process crashed).
    /// Equivalent to [`Database::set_storage_dir`] followed by
    /// [`Database::set_storage`]`(StorageBackend::Paged)`.
    pub fn open_paged(dir: impl AsRef<Path>) -> Result<Database> {
        let mut db = Database::new();
        db.set_storage_dir(dir);
        db.set_storage(StorageBackend::Paged)?;
        Ok(db)
    }

    /// Read-only catalog access.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (programmatic table setup). Under the
    /// paged backend, mutations made here reach disk lazily, with the
    /// next executed statement, [`Database::sync_storage`] or an explicit
    /// [`Database::checkpoint`].
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Execution statistics so far (storage counters included).
    pub fn stats(&self) -> ExecStats {
        let mut stats = self.stats;
        let st = self.storage_stats();
        stats.storage_page_reads = st.page_reads;
        stats.storage_page_writes = st.page_writes;
        stats.storage_wal_appends = st.wal_appends;
        stats.storage_wal_fsyncs = st.wal_fsyncs;
        stats.storage_recoveries = st.recoveries;
        stats.deferred_rows_built = self.catalog.deferred_rows_built();
        stats
    }

    /// Storage-layer work counters (all zero under the memory backend).
    pub fn storage_stats(&self) -> StorageStats {
        match &self.store {
            Some(store) => self.storage_base.merged(store.stats()),
            None => self.storage_base,
        }
    }

    /// The storage backend this database currently runs on.
    pub fn storage(&self) -> StorageBackend {
        if self.store.is_some() {
            StorageBackend::Paged
        } else {
            StorageBackend::Memory
        }
    }

    /// Set the directory the paged backend will use. Takes effect at the
    /// next switch to [`StorageBackend::Paged`].
    pub fn set_storage_dir(&mut self, dir: impl AsRef<Path>) {
        self.storage_dir = Some(dir.as_ref().to_path_buf());
    }

    /// Tune the paged backend (its checkpoint threshold).
    /// Takes effect at the next switch to [`StorageBackend::Paged`].
    pub fn set_storage_config(&mut self, cfg: StorageConfig) {
        self.storage_cfg = cfg;
    }

    /// Switch the storage backend.
    ///
    /// Switching to `Paged` opens (or creates) the store under the
    /// configured directory, recovering from its WAL if needed. When the
    /// store is empty the current in-memory catalog is written through;
    /// when the in-memory catalog is empty the stored one is loaded
    /// (with fresh version stamps). Both being non-empty is rejected —
    /// there is no merge story. Switching to `Memory` checkpoints and
    /// detaches the store; the catalog stays resident and the directory
    /// remains reopenable.
    pub fn set_storage(&mut self, backend: StorageBackend) -> Result<()> {
        match backend {
            StorageBackend::Paged => {
                if self.store.is_some() {
                    return Ok(());
                }
                let dir = self.storage_dir.clone().ok_or_else(|| {
                    Error::storage(
                        "the paged backend needs a directory; call set_storage_dir first",
                    )
                })?;
                let (mut store, stored) = PagedStore::open(&dir, self.storage_cfg)?;
                if stored.is_empty() {
                    store.sync(&self.catalog)?;
                } else if self.catalog.is_empty() {
                    self.catalog.replace_objects(stored);
                } else {
                    return Err(Error::storage(format!(
                        "{} already contains a database; attach it from an empty \
                         Database or choose another directory",
                        dir.display()
                    )));
                }
                self.store = Some(store);
                Ok(())
            }
            StorageBackend::Memory => {
                let Some(mut store) = self.store.take() else {
                    return Ok(());
                };
                let result = store.sync(&self.catalog).and_then(|()| store.checkpoint());
                self.storage_base = self.storage_base.merged(store.stats());
                result
            }
        }
    }

    /// Flush all durable state: sync the catalog, write dirty pages to
    /// the heap, fsync, truncate the WAL. A no-op on the memory backend.
    pub fn checkpoint(&mut self) -> Result<()> {
        if let Some(store) = self.store.as_mut() {
            store.sync(&self.catalog)?;
            store.checkpoint()?;
        }
        Ok(())
    }

    /// Arm the WAL crash-injection hook on the attached store (tests).
    pub fn inject_wal_fault(&mut self, fault: Option<WalFault>) {
        if let Some(store) = self.store.as_mut() {
            store.set_fault(fault);
        }
    }

    /// Under the paged backend a row must fit one page: refuse rows that
    /// do not before any table takes them, so the statement fails with
    /// memory and store both as they were.
    fn check_storable<'a>(&self, rows: impl IntoIterator<Item = &'a Row>) -> Result<()> {
        if self.store.is_some() {
            rows.into_iter().try_for_each(crate::storage::check_row)?;
        }
        Ok(())
    }

    /// Mirror the catalog to the paged store, if one is attached: one
    /// storage transaction, WAL-committed before this returns. Every
    /// executed statement ends with it; a caller that built objects
    /// through [`Database::catalog_mut`] calls it to make them durable at
    /// its own statement boundary. A no-op on the memory backend.
    pub fn sync_storage(&mut self) -> Result<()> {
        match self.store.as_mut() {
            Some(store) => store.sync(&self.catalog),
            None => Ok(()),
        }
    }

    /// Route subsequent statements through the reference paths: every
    /// strategy choice flips at once to interpreted expressions,
    /// row-at-a-time flow and the written-order join fold — and the
    /// mining kernel on top follows suit (list gid-sets, `Qi`
    /// steps run one by one). Results are bit-identical either way; the
    /// agreement suites and the fuzzer use this as their oracle. Not a
    /// tuning knob: the reference paths are dominated on every workload.
    pub fn set_reference_paths(&mut self, on: bool) {
        self.reference_paths = on;
    }

    /// Bind a host variable (`:name`).
    pub fn set_var(&mut self, name: &str, value: Value) {
        self.vars.insert(name.to_ascii_lowercase(), value);
    }

    /// Read a host variable.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.vars.get(&name.to_ascii_lowercase())
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        let stmt = self.parse(sql, Parser::statement)?;
        self.run_statement(stmt)
    }

    /// Parse and execute a `;`-separated script.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = self.parse(sql, Parser::script)?;
        stmts.into_iter().map(|s| self.run_statement(s)).collect()
    }

    /// Parse `sql` with `parse`, counting the bytes and, when it lexes,
    /// the tokens.
    fn parse<'a, T>(
        &mut self,
        sql: &'a str,
        parse: impl FnOnce(&mut Parser<'a>) -> Result<T>,
    ) -> Result<T> {
        self.stats.bytes_lexed += sql.len() as u64;
        let tokens = &mut self.stats.tokens_lexed;
        Parser::run(sql, |p| {
            *tokens += p.tokens() as u64;
            parse(p)
        })
    }

    /// Parse and execute a query, returning its result set.
    pub fn query(&mut self, sql: &str) -> Result<ResultSet> {
        match self.execute(sql)?.result {
            Some(rs) => Ok(rs),
            None => Err(Error::unsupported("statement did not produce rows")),
        }
    }

    /// Execute an already-parsed statement.
    ///
    /// Under the paged backend each statement is one storage
    /// transaction: after the in-memory dispatch succeeds, the catalog
    /// is mirrored to the store and WAL-committed (fsync included)
    /// before this returns — the statement boundary is the durability
    /// boundary.
    pub fn run_statement(&mut self, stmt: Statement) -> Result<ExecOutcome> {
        let outcome = self.dispatch_statement(stmt)?;
        self.sync_storage()?;
        Ok(outcome)
    }

    fn dispatch_statement(&mut self, stmt: Statement) -> Result<ExecOutcome> {
        self.stats.statements += 1;
        match stmt {
            Statement::Explain(inner) => {
                let text = crate::exec::explain::explain_statement(self, &inner)?;
                let schema = Schema::new(vec![Column::new("plan", crate::types::DataType::Str)]);
                let rows = text
                    .lines()
                    .map(|l| vec![Value::Str(l.to_string())])
                    .collect();
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: Some(ResultSet::new(schema, rows)),
                })
            }
            Statement::Select(sel) => {
                let rs = run_select(self, &sel)?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: Some(rs),
                })
            }
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                if if_not_exists && self.catalog.has_table(&name) {
                    return Ok(ExecOutcome {
                        rows_affected: 0,
                        result: None,
                    });
                }
                let columns = columns.into_iter().map(|(n, t)| Column::new(n, t));
                let schema = Schema::new(columns.collect());
                self.catalog.create_table(Table::new(name, schema))?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::CreateTableAs { name, query } => {
                let rs = run_select(self, &query)?;
                self.check_storable(rs.rows())?;
                let schema = rs.schema().unqualified();
                let mut table = Table::new(name, schema);
                let n = table.insert_all(rs.into_rows())?;
                self.stats.rows_inserted += n as u64;
                self.catalog.create_table(table)?;
                Ok(ExecOutcome {
                    rows_affected: n,
                    result: None,
                })
            }
            Statement::CreateView { name, query } => {
                self.catalog.create_view(View { name, query })?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::CreateSequence {
                name,
                start,
                increment,
            } => {
                self.catalog
                    .create_sequence(Sequence::new(name, start, increment))?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::DropTable { name, if_exists } => {
                self.catalog.drop_table(&name, if_exists)?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::DropView { name, if_exists } => {
                self.catalog.drop_view(&name, if_exists)?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::DropSequence { name, if_exists } => {
                self.catalog.drop_sequence(&name, if_exists)?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => self.run_insert(&table, columns.as_deref(), source),
            Statement::Delete {
                table,
                where_clause,
            } => self.run_delete(&table, where_clause.as_ref()),
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => self.run_update(&table, &assignments, where_clause.as_ref()),
        }
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        source: InsertSource,
    ) -> Result<ExecOutcome> {
        // Compute the incoming rows first (needs &mut self for NEXTVAL and
        // subqueries), then touch the target table. A literal's value
        // moves into its row; every other item is evaluated, in order.
        let incoming: Vec<Row> = match source {
            InsertSource::Values(rows) => {
                let empty_schema = Schema::default();
                let empty_row: Row = Vec::new();
                let mut out = Vec::with_capacity(rows.widths.len());
                let mut exprs = rows.exprs.into_iter();
                for width in rows.widths {
                    let mut r = Vec::with_capacity(width);
                    for e in exprs.by_ref().take(width) {
                        r.push(match e {
                            Expr::Literal(v) => v,
                            e => eval_expr(&e, &empty_schema, &empty_row, self)?,
                        });
                    }
                    out.push(r);
                }
                out
            }
            InsertSource::Query(q) => run_select(self, &q)?.into_rows(),
        };

        // Map through the explicit column list, if present.
        let target_schema = self.catalog.table(table)?.schema().clone();
        let mapped: Vec<Row> = match columns {
            None => incoming,
            Some(cols) => {
                let mut idxs = Vec::with_capacity(cols.len());
                for c in cols {
                    idxs.push(target_schema.resolve(None, c)?);
                }
                let mut out = Vec::with_capacity(incoming.len());
                for r in incoming {
                    if r.len() != idxs.len() {
                        return Err(Error::Arity {
                            expected: idxs.len(),
                            got: r.len(),
                        });
                    }
                    let mut full = vec![Value::Null; target_schema.len()];
                    for (v, &i) in r.into_iter().zip(&idxs) {
                        full[i] = v;
                    }
                    out.push(full);
                }
                out
            }
        };

        self.check_storable(&mapped)?;
        let t = self.catalog.table_mut(table)?;
        let n = t.insert_all(mapped)?;
        self.stats.rows_inserted += n as u64;
        Ok(ExecOutcome {
            rows_affected: n,
            result: None,
        })
    }

    /// Visit every row of `table` (with its position) with an evaluator
    /// of `exprs` over it: `eval(i)` is the value of `exprs[i]` on the
    /// row. Each expression is planned once ([`SiteEval::plan`]):
    /// compiled in production, interpreted on the reference paths; the
    /// subqueries of `exprs` are planned with them and run once each. The
    /// visit reads a snapshot of the rows (shared, not copied), released
    /// before the caller writes the table.
    fn for_each_target_row(
        &mut self,
        table: &str,
        exprs: &[&Expr],
        mut visit: impl FnMut(usize, &Row, &mut dyn FnMut(usize) -> Result<Value>) -> Result<()>,
    ) -> Result<()> {
        let subqueries = Arc::new(plan_subqueries(self, exprs.iter().copied())?);
        let table = self.catalog.table(table)?;
        let (schema, rows) = (table.schema().clone(), table.shared_rows());
        let outer = std::mem::replace(&mut self.frame, Frame::new(subqueries));
        let evals: Vec<SiteEval> = exprs
            .iter()
            .map(|e| SiteEval::plan(e, &schema, self))
            .collect();
        let mut stack = Vec::new();
        let visited = rows.iter().enumerate().try_for_each(|(at, row)| {
            visit(at, row, &mut |i| {
                evals[i].eval(&schema, row, self, &mut stack)
            })
        });
        self.frame = outer;
        visited
    }

    fn run_delete(&mut self, table: &str, pred: Option<&Expr>) -> Result<ExecOutcome> {
        // Evaluate the predicate over every row first, then remove in one
        // masked mutation so the table's change log records exactly the
        // deleted rows.
        let mut mask = Vec::with_capacity(self.catalog.table(table)?.row_count());
        let exprs: Vec<&Expr> = pred.into_iter().collect();
        self.for_each_target_row(table, &exprs, |_, _, eval| {
            mask.push(pred.is_none() || eval(0)?.is_true());
            Ok(())
        })?;
        let removed = self.catalog.table_mut(table)?.delete_mask(&mask);
        Ok(ExecOutcome {
            rows_affected: removed,
            result: None,
        })
    }

    fn run_update(
        &mut self,
        table: &str,
        assignments: &[(String, Expr)],
        pred: Option<&Expr>,
    ) -> Result<ExecOutcome> {
        let schema = self.catalog.table(table)?.schema();
        let mut idxs = Vec::with_capacity(assignments.len());
        for (c, _) in assignments {
            idxs.push(schema.resolve(None, c)?);
        }
        // Evaluate predicate and assignments over every row first, then
        // swap the matched rows in one batch so the change log records
        // the UPDATE as a tracked delete+insert pair — downstream delta
        // consumers (the mined-result cache) can replay it instead of
        // refusing the window.
        let mut changes: Vec<(usize, Row)> = Vec::new();
        let exprs: Vec<&Expr> = assignments.iter().map(|(_, e)| e).chain(pred).collect();
        self.for_each_target_row(table, &exprs, |at, row, eval| {
            if pred.is_some() && !eval(assignments.len())?.is_true() {
                return Ok(());
            }
            let mut new_vals = Vec::with_capacity(assignments.len());
            for i in 0..assignments.len() {
                new_vals.push(eval(i)?);
            }
            let mut new_row = row.clone();
            for (v, &i) in new_vals.into_iter().zip(&idxs) {
                new_row[i] = v;
            }
            changes.push((at, new_row));
            Ok(())
        })?;
        self.check_storable(changes.iter().map(|(_, row)| row))?;
        let updated = self.catalog.table_mut(table)?.apply_updates(changes)?;
        Ok(ExecOutcome {
            rows_affected: updated,
            result: None,
        })
    }
}

impl QueryCtx for Database {
    fn run_subquery(&mut self, query: &SelectStmt) -> Result<ResultSet> {
        run_select(self, query)
    }

    fn subquery_slot(&self, kind: SubqueryKind, query: &SelectStmt) -> Option<usize> {
        slot(&self.frame.subqueries, kind, query)
    }

    fn subquery(&mut self, slot: usize) -> Result<&Kept> {
        kept(self, slot)
    }

    fn nextval(&mut self, sequence: &str) -> Result<i64> {
        Ok(self.catalog.sequence_mut(sequence)?.nextval())
    }

    fn host_var(&self, name: &str) -> Result<Value> {
        self.var(name)
            .cloned()
            .ok_or_else(|| Error::UnboundVariable {
                name: name.to_string(),
            })
    }

    fn reference_paths(&self) -> bool {
        self.reference_paths
    }

    /// Counters saturate: a counted join can stand for more joined rows
    /// than a `u64` holds.
    fn bump(&mut self, counter: ExecCounter, n: u64) {
        let stats = &mut self.stats;
        let counter = match counter {
            ExecCounter::ProgramsCompiled => &mut stats.programs_compiled,
            ExecCounter::ConstFolded => &mut stats.exprs_const_folded,
            ExecCounter::RowsScanned => &mut stats.rows_scanned,
            ExecCounter::RowsFiltered => &mut stats.rows_filtered,
            ExecCounter::RowsJoined => &mut stats.rows_joined,
            ExecCounter::JoinTuples => &mut stats.join_tuples,
            ExecCounter::PlannerPlans => &mut stats.planner_plans,
            ExecCounter::PlannerReorderedJoins => &mut stats.planner_reordered_joins,
            ExecCounter::PlannerPushedFilters => &mut stats.planner_pushed_filters,
        };
        *counter = counter.saturating_add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_t() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
            .unwrap();
        db
    }

    #[test]
    fn select_where() {
        let mut db = db_with_t();
        let rs = db.query("SELECT a FROM t WHERE b = 'x'").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn select_order_and_limit() {
        let mut db = db_with_t();
        let rs = db.query("SELECT a FROM t ORDER BY a DESC LIMIT 2").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(3));
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn select_group_by_having() {
        let mut db = db_with_t();
        let rs = db
            .query("SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 1")
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][0], Value::Str("x".into()));
        assert_eq!(rs.rows()[0][1], Value::Int(2));
    }

    #[test]
    fn select_distinct() {
        let mut db = db_with_t();
        let rs = db.query("SELECT DISTINCT b FROM t").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn aggregate_without_group_by() {
        let mut db = db_with_t();
        let rs = db.query("SELECT COUNT(*), SUM(a) FROM t").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Int(3), Value::Int(6)]);
    }

    #[test]
    fn join_two_tables() {
        let mut db = db_with_t();
        db.execute("CREATE TABLE u (a INT, c VARCHAR)").unwrap();
        db.execute("INSERT INTO u VALUES (1, 'one'), (3, 'three')")
            .unwrap();
        let rs = db
            .query("SELECT t.b, u.c FROM t, u WHERE t.a = u.a ORDER BY u.c")
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows()[0][1], Value::Str("one".into()));
    }

    #[test]
    fn derived_table_in_from() {
        let mut db = db_with_t();
        let rs = db
            .query("SELECT COUNT(*) FROM (SELECT DISTINCT b FROM t) d")
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn select_into_host_variable() {
        let mut db = db_with_t();
        db.query("SELECT COUNT(*) INTO :totg FROM t").unwrap();
        assert_eq!(db.var("totg"), Some(&Value::Int(3)));
        let rs = db.query("SELECT a FROM t WHERE a < :totg").unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn views_reevaluate() {
        let mut db = db_with_t();
        db.execute("CREATE VIEW v AS (SELECT a FROM t WHERE b = 'x')")
            .unwrap();
        assert_eq!(db.query("SELECT * FROM v").unwrap().len(), 2);
        db.execute("INSERT INTO t VALUES (9, 'x')").unwrap();
        assert_eq!(db.query("SELECT * FROM v").unwrap().len(), 3);
    }

    #[test]
    fn sequences_via_sql() {
        let mut db = db_with_t();
        db.execute("CREATE SEQUENCE s START WITH 1 INCREMENT BY 1")
            .unwrap();
        db.execute("CREATE TABLE ids (id INT, b VARCHAR)").unwrap();
        db.execute("INSERT INTO ids (SELECT s.NEXTVAL, b FROM t)")
            .unwrap();
        let rs = db.query("SELECT id FROM ids ORDER BY id").unwrap();
        assert_eq!(
            rs.rows().iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn create_table_as() {
        let mut db = db_with_t();
        db.execute("CREATE TABLE c AS (SELECT b, COUNT(*) AS n FROM t GROUP BY b)")
            .unwrap();
        assert_eq!(db.query("SELECT * FROM c").unwrap().len(), 2);
    }

    #[test]
    fn delete_and_update() {
        let mut db = db_with_t();
        let out = db.execute("DELETE FROM t WHERE b = 'x'").unwrap();
        assert_eq!(out.rows_affected, 2);
        let out = db.execute("UPDATE t SET b = 'z' WHERE a = 2").unwrap();
        assert_eq!(out.rows_affected, 1);
        let rs = db.query("SELECT b FROM t").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Str("z".into()));
    }

    #[test]
    fn scalar_subquery() {
        let mut db = db_with_t();
        let rs = db
            .query("SELECT a FROM t WHERE a = (SELECT MAX(a) FROM t)")
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Int(3));
    }

    #[test]
    fn in_subquery() {
        let mut db = db_with_t();
        db.execute("CREATE TABLE u (a INT)").unwrap();
        db.execute("INSERT INTO u VALUES (1), (3)").unwrap();
        let rs = db
            .query("SELECT a FROM t WHERE a IN (SELECT a FROM u) ORDER BY a")
            .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = db_with_t();
        db.execute("INSERT INTO t (a) VALUES (9)").unwrap();
        let rs = db.query("SELECT b FROM t WHERE a = 9").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Null);
    }

    #[test]
    fn unknown_table_reported() {
        let mut db = Database::new();
        assert!(matches!(
            db.query("SELECT * FROM nope"),
            Err(Error::UnknownObject { .. })
        ));
    }

    #[test]
    fn date_columns_and_literals() {
        let mut db = Database::new();
        db.execute("CREATE TABLE d (x DATE)").unwrap();
        db.execute("INSERT INTO d VALUES (DATE '1995-12-17'), (DATE '1996-01-02')")
            .unwrap();
        let rs = db
            .query("SELECT x FROM d WHERE x BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'")
            .unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn planner_modes_agree_bit_for_bit_and_counters_gate() {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (x INT, tag VARCHAR)").unwrap();
        db.execute("CREATE TABLE b (x INT, y INT)").unwrap();
        db.execute("CREATE TABLE c (y INT, lab VARCHAR)").unwrap();
        db.execute("INSERT INTO a VALUES (1, 'p'), (2, 'q'), (3, 'r'), (4, 's')")
            .unwrap();
        db.execute("INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        db.execute("INSERT INTO c VALUES (20, 'twenty'), (30, 'thirty')")
            .unwrap();
        let q = "SELECT a.tag, c.lab FROM a, b, c WHERE a.x = b.x AND b.y = c.y AND a.x > 1";
        let planned = db.query(q).unwrap();
        let s = db.stats();
        assert!(s.planner_plans > 0, "the planned join accounts its plans");
        assert!(s.planner_pushed_filters > 0, "a.x > 1 pushed to the scan");
        db.set_reference_paths(true);
        let before = db.stats();
        let naive = db.query(q).unwrap();
        let after = db.stats();
        assert_eq!(planned.rows(), naive.rows(), "row content and order agree");
        for (c, n) in [
            (before.planner_plans, after.planner_plans),
            (
                before.planner_reordered_joins,
                after.planner_reordered_joins,
            ),
            (before.planner_pushed_filters, after.planner_pushed_filters),
        ] {
            assert_eq!(c, n, "the written-order fold never moves planner counters");
        }
    }

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tcdm_engine_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn paged_backend_survives_drop_and_reopen() {
        let dir = temp_store("reopen");
        {
            let mut db = Database::open_paged(&dir).unwrap();
            assert_eq!(db.storage(), crate::StorageBackend::Paged);
            db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
                .unwrap();
            let s = db.stats();
            assert!(s.storage_wal_fsyncs >= 2, "one fsync per statement");
            assert!(s.storage_wal_appends > 0);
        } // dropped mid-flight: no checkpoint, the WAL carries everything
        let mut db = Database::open_paged(&dir).unwrap();
        assert_eq!(db.stats().storage_recoveries, 1);
        let rs = db.query("SELECT b FROM t ORDER BY a").unwrap();
        assert_eq!(rs.rows()[1][0], Value::Str("y".into()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_requires_a_directory_and_rejects_double_attach() {
        let mut db = db_with_t();
        assert!(matches!(
            db.set_storage(crate::StorageBackend::Paged),
            Err(Error::Storage { .. })
        ));
        let dir = temp_store("attach");
        {
            let mut seeded = Database::open_paged(&dir).unwrap();
            seeded.execute("CREATE TABLE other (x INT)").unwrap();
        }
        // A non-empty catalog cannot attach to a non-empty store.
        db.set_storage_dir(&dir);
        assert!(matches!(
            db.set_storage(crate::StorageBackend::Paged),
            Err(Error::Storage { .. })
        ));
        assert_eq!(db.storage(), crate::StorageBackend::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backend_switch_memory_paged_memory_keeps_data() {
        let dir = temp_store("switch");
        let mut db = db_with_t();
        db.set_storage_dir(&dir);
        db.set_storage(crate::StorageBackend::Paged).unwrap();
        db.execute("INSERT INTO t VALUES (4, 'w')").unwrap();
        db.set_storage(crate::StorageBackend::Memory).unwrap();
        assert_eq!(db.storage(), crate::StorageBackend::Memory);
        // Catalog still resident after detach…
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(4))
        );
        // …and the checkpointed directory reopens on its own.
        let mut back = Database::open_paged(&dir).unwrap();
        assert_eq!(
            back.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Int(4))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_backend_reports_zero_storage_counters() {
        let mut db = db_with_t();
        db.query("SELECT * FROM t").unwrap();
        let s = db.stats();
        assert_eq!(s.storage_wal_appends, 0);
        assert_eq!(s.storage_page_writes, 0);
        assert_eq!(s.storage_recoveries, 0);
    }

    #[test]
    fn group_key_ordering_deterministic() {
        let mut db = db_with_t();
        let rs = db
            .query("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b")
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Str("x".into()));
        assert_eq!(rs.rows()[1][0], Value::Str("y".into()));
    }
}
