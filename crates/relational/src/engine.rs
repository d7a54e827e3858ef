//! The database engine: a catalog plus a SQL entry point.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::catalog::{Catalog, View};
use crate::error::{Error, Result};
use crate::exec::run_select;
use crate::expr::compile::ExecCounter;
use crate::expr::eval::{eval_expr, QueryCtx};
use crate::expr::Expr;
use crate::index::{HashIndex, IndexLookup, IndexRegistry};
use crate::resultset::ResultSet;
use crate::row::Row;
use crate::sequence::Sequence;
use crate::sql::ast::{InsertSource, SelectStmt, Statement};
use crate::sql::parser::{parse_statement, parse_statements};
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
    /// Interpreter-fallback ops emitted by the compiler (subqueries).
    pub compile_fallback_ops: u64,
    /// Base-table rows fed into SELECT evaluation.
    pub rows_scanned: u64,
    /// Rows removed by WHERE / join-residual filters.
    pub rows_filtered: u64,
    /// Rows produced by join operators.
    pub rows_joined: u64,
    /// FROM lists planned by the cost-based planner (0 on the reference
    /// paths, like every `planner_*` and `vector_*` counter).
    pub planner_plans: u64,
    /// Join steps moved off the written left-to-right order.
    pub planner_reordered_joins: u64,
    /// WHERE conjuncts pushed beneath joins by the cost-based planner
    /// (the reference fold pushes too but does not account).
    pub planner_pushed_filters: u64,
    /// Accumulated |estimated − actual| join output rows.
    pub planner_est_rows_err: u64,
    /// Column batches evaluated on the vector path.
    pub vector_batches: u64,
    /// Rows streamed through the vector path.
    pub vector_rows: u64,
    /// Conditional jumps that narrowed a batch's selection vector.
    pub vector_sel_narrowings: u64,
    /// Always 0: a site either vectorizes whole or row-loops whole. Read
    /// by the kernel benchmark, so the field outlives its counter.
    pub vector_fallback_batches: u64,
    /// Hash indexes built (lazily, on first use of a key column set).
    pub indexes_built: u64,
    /// Operators served by a live hash index instead of a rebuild.
    pub index_hits: u64,
    /// Index entries discarded because their table version went stale.
    pub index_invalidations: u64,
    /// Heap pages read by the paged storage backend (0 under memory).
    pub storage_page_reads: u64,
    /// Heap pages written by the paged storage backend (0 under memory).
    pub storage_page_writes: u64,
    /// Page-cache hits in the paged storage backend (0 under memory).
    pub storage_cache_hits: u64,
    /// Page-cache evictions in the paged storage backend (0 under memory).
    pub storage_cache_evictions: u64,
    /// Records appended to the write-ahead log (0 under memory).
    pub storage_wal_appends: u64,
    /// WAL fsyncs, one per committed transaction (0 under memory).
    pub storage_wal_fsyncs: u64,
    /// WAL recoveries performed at open (0 under memory).
    pub storage_recoveries: u64,
}

impl ExecStats {
    /// Every counter published to telemetry, as (metric name, value), in
    /// publication order. `statements`, `rows_inserted` and the always-zero
    /// `vector_fallback_batches` are not published.
    pub fn named(&self) -> [(&'static str, u64); 23] {
        [
            ("relational.compile.programs", self.programs_compiled),
            ("relational.compile.const_folded", self.exprs_const_folded),
            ("relational.compile.fallback_ops", self.compile_fallback_ops),
            ("relational.rows.scanned", self.rows_scanned),
            ("relational.rows.filtered", self.rows_filtered),
            ("relational.rows.joined", self.rows_joined),
            ("relational.index.built", self.indexes_built),
            ("relational.index.hits", self.index_hits),
            ("relational.index.invalidations", self.index_invalidations),
            ("relational.storage.page_reads", self.storage_page_reads),
            ("relational.storage.page_writes", self.storage_page_writes),
            ("relational.storage.cache_hits", self.storage_cache_hits),
            (
                "relational.storage.cache_evictions",
                self.storage_cache_evictions,
            ),
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
            ("relational.vector.batches", self.vector_batches),
            ("relational.vector.rows", self.vector_rows),
            (
                "relational.vector.sel_narrowings",
                self.vector_sel_narrowings,
            ),
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
    indexes: IndexRegistry,
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
        stats.storage_cache_hits = st.cache_hits;
        stats.storage_cache_evictions = st.cache_evictions;
        stats.storage_wal_appends = st.wal_appends;
        stats.storage_wal_fsyncs = st.wal_fsyncs;
        stats.storage_recoveries = st.recoveries;
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

    /// Tune the paged backend (cache budget, checkpoint threshold).
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
                    self.catalog = stored;
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
    /// row-at-a-time flow, written-order join fold, no table indexes —
    /// and the mining kernel on top follows suit (list gid-sets, `Qi`
    /// steps run one by one). Results are bit-identical either way; the
    /// agreement suites and the fuzzer use this as their oracle. Not a
    /// tuning knob: the reference paths are dominated on every workload.
    pub fn set_reference_paths(&mut self, on: bool) {
        self.reference_paths = on;
    }

    /// Number of live hash indexes in the registry (observability).
    pub fn live_indexes(&self) -> usize {
        self.indexes.len()
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
        let stmt = parse_statement(sql)?;
        self.run_statement(&stmt)
    }

    /// Parse and execute a `;`-separated script.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = parse_statements(sql)?;
        stmts.iter().map(|s| self.run_statement(s)).collect()
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
    pub fn run_statement(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        let outcome = self.dispatch_statement(stmt)?;
        self.sync_storage()?;
        Ok(outcome)
    }

    fn dispatch_statement(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        self.stats.statements += 1;
        match stmt {
            Statement::Explain(inner) => {
                let text = crate::exec::explain::explain_statement(self, inner)?;
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
                let rs = run_select(self, sel)?;
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
                if *if_not_exists && self.catalog.has_table(name) {
                    return Ok(ExecOutcome {
                        rows_affected: 0,
                        result: None,
                    });
                }
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|(n, t)| Column::new(n.clone(), *t))
                        .collect(),
                );
                self.catalog
                    .create_table(Table::new(name.clone(), schema))?;
                self.indexes.purge_table(name);
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::CreateTableAs { name, query } => {
                let rs = run_select(self, query)?;
                self.check_storable(rs.rows())?;
                let schema = rs.schema().unqualified();
                let mut table = Table::new(name.clone(), schema);
                let n = table.insert_all(rs.into_rows())?;
                self.stats.rows_inserted += n as u64;
                self.catalog.create_table(table)?;
                self.indexes.purge_table(name);
                Ok(ExecOutcome {
                    rows_affected: n,
                    result: None,
                })
            }
            Statement::CreateView { name, query } => {
                self.catalog.create_view(View {
                    name: name.clone(),
                    query: query.clone(),
                })?;
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
                    .create_sequence(Sequence::new(name.clone(), *start, *increment))?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::DropTable { name, if_exists } => {
                self.catalog.drop_table(name, *if_exists)?;
                self.indexes.purge_table(name);
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::DropView { name, if_exists } => {
                self.catalog.drop_view(name, *if_exists)?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::DropSequence { name, if_exists } => {
                self.catalog.drop_sequence(name, *if_exists)?;
                Ok(ExecOutcome {
                    rows_affected: 0,
                    result: None,
                })
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => self.run_insert(table, columns.as_deref(), source),
            Statement::Delete {
                table,
                where_clause,
            } => self.run_delete(table, where_clause.as_ref()),
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => self.run_update(table, assignments, where_clause.as_ref()),
        }
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
    ) -> Result<ExecOutcome> {
        // Compute the incoming rows first (needs &mut self for NEXTVAL and
        // subqueries), then touch the target table.
        let incoming: Vec<Row> = match source {
            InsertSource::Values(rows) => {
                let empty_schema = Schema::default();
                let empty_row: Row = Vec::new();
                let mut out = Vec::with_capacity(rows.len());
                for exprs in rows {
                    let mut r = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        r.push(eval_expr(e, &empty_schema, &empty_row, self)?);
                    }
                    out.push(r);
                }
                out
            }
            InsertSource::Query(q) => run_select(self, q)?.into_rows(),
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

    /// Visit every row of `table` (with its position) under an
    /// evaluation context fit for `exprs`. Expressions that reach back
    /// into the engine — subqueries, sequence draws — need `&mut self`,
    /// so they see a snapshot of the rows (shared, not copied: the table
    /// is not mutated until the visit is over); everything else is
    /// evaluated against the stored rows in place.
    fn for_each_target_row(
        &mut self,
        table: &str,
        exprs: &[&Expr],
        mut visit: impl FnMut(&Schema, usize, &Row, &mut dyn QueryCtx) -> Result<()>,
    ) -> Result<()> {
        let mut reaches_engine = false;
        for e in exprs {
            e.walk(&mut |e| {
                reaches_engine |= matches!(
                    e,
                    Expr::ScalarSubquery(_)
                        | Expr::Exists { .. }
                        | Expr::InSubquery { .. }
                        | Expr::NextVal(_)
                )
            });
        }
        let target = self.catalog.table(table)?;
        if reaches_engine {
            let (schema, rows) = (target.schema().clone(), target.shared_rows());
            for (at, row) in rows.iter().enumerate() {
                visit(&schema, at, row, self)?;
            }
        } else {
            let mut ctx = HostVars(&self.vars);
            for (at, row) in target.rows().iter().enumerate() {
                visit(target.schema(), at, row, &mut ctx)?;
            }
        }
        Ok(())
    }

    fn run_delete(&mut self, table: &str, pred: Option<&Expr>) -> Result<ExecOutcome> {
        // Evaluate the predicate over every row first, then remove in one
        // masked mutation so the table's change log records exactly the
        // deleted rows.
        let mut mask = Vec::with_capacity(self.catalog.table(table)?.row_count());
        let exprs: Vec<&Expr> = pred.into_iter().collect();
        self.for_each_target_row(table, &exprs, |schema, _, row, ctx| {
            mask.push(match pred {
                None => true,
                Some(p) => eval_expr(p, schema, row, ctx)?.is_true(),
            });
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
        let exprs: Vec<&Expr> = pred
            .into_iter()
            .chain(assignments.iter().map(|(_, e)| e))
            .collect();
        self.for_each_target_row(table, &exprs, |schema, at, row, ctx| {
            let matches = match pred {
                None => true,
                Some(p) => eval_expr(p, schema, row, ctx)?.is_true(),
            };
            if !matches {
                return Ok(());
            }
            let mut new_row = row.clone();
            let mut new_vals = Vec::with_capacity(assignments.len());
            for (_, e) in assignments {
                new_vals.push(eval_expr(e, schema, row, ctx)?);
            }
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

fn host_var(vars: &HashMap<String, Value>, name: &str) -> Result<Value> {
    vars.get(&name.to_ascii_lowercase())
        .cloned()
        .ok_or_else(|| Error::UnboundVariable {
            name: name.to_string(),
        })
}

/// The evaluation context of a DML expression that needs nothing of the
/// engine but its host variables: the table's rows stay borrowed from the
/// catalog while it runs, so the database itself cannot be the context.
/// [`Database::for_each_target_row`] routes expressions with subqueries
/// or sequence draws elsewhere, so those arms are unreachable errors.
struct HostVars<'a>(&'a HashMap<String, Value>);

impl QueryCtx for HostVars<'_> {
    fn run_subquery(&mut self, _query: &SelectStmt) -> Result<ResultSet> {
        Err(Error::unsupported("subquery over stored rows"))
    }
    fn nextval(&mut self, _sequence: &str) -> Result<i64> {
        Err(Error::unsupported("sequence draw over stored rows"))
    }
    fn host_var(&self, name: &str) -> Result<Value> {
        host_var(self.0, name)
    }
}

impl QueryCtx for Database {
    fn run_subquery(&mut self, query: &SelectStmt) -> Result<ResultSet> {
        run_select(self, query)
    }

    fn nextval(&mut self, sequence: &str) -> Result<i64> {
        Ok(self.catalog.sequence_mut(sequence)?.nextval())
    }

    fn host_var(&self, name: &str) -> Result<Value> {
        host_var(&self.vars, name)
    }

    fn reference_paths(&self) -> bool {
        self.reference_paths
    }

    fn bump(&mut self, counter: ExecCounter, n: u64) {
        let stats = &mut self.stats;
        match counter {
            ExecCounter::ProgramsCompiled => stats.programs_compiled += n,
            ExecCounter::ConstFolded => stats.exprs_const_folded += n,
            ExecCounter::FallbackOps => stats.compile_fallback_ops += n,
            ExecCounter::RowsScanned => stats.rows_scanned += n,
            ExecCounter::RowsFiltered => stats.rows_filtered += n,
            ExecCounter::RowsJoined => stats.rows_joined += n,
            ExecCounter::PlannerPlans => stats.planner_plans += n,
            ExecCounter::PlannerReorderedJoins => stats.planner_reordered_joins += n,
            ExecCounter::PlannerPushedFilters => stats.planner_pushed_filters += n,
            ExecCounter::PlannerEstRowsErr => stats.planner_est_rows_err += n,
            ExecCounter::VectorBatches => stats.vector_batches += n,
            ExecCounter::VectorRows => stats.vector_rows += n,
            ExecCounter::VectorSelNarrowings => stats.vector_sel_narrowings += n,
        }
    }

    /// Serve (or lazily build) the hash index on `cols` of a base table.
    /// Returns `None` on the reference paths or when `version` does not
    /// match the live table — the caller then falls back to a scan, so a
    /// stale index can never be consulted.
    fn table_index(&mut self, table: &str, version: u64, cols: &[usize]) -> Option<Arc<HashIndex>> {
        if self.reference_paths {
            return None;
        }
        match self.indexes.get(table, cols, version) {
            IndexLookup::Hit(ix) => {
                self.stats.index_hits += 1;
                return Some(ix);
            }
            IndexLookup::Stale => self.stats.index_invalidations += 1,
            IndexLookup::Miss => {}
        }
        let t = self.catalog.table(table).ok()?;
        if t.version() != version {
            return None;
        }
        let ix = Arc::new(HashIndex::build(t.rows(), cols, version));
        self.stats.indexes_built += 1;
        self.indexes.put(table, cols, Arc::clone(&ix));
        Some(ix)
    }

    fn has_table_index(&self, table: &str, version: u64, cols: &[usize]) -> bool {
        !self.reference_paths && self.indexes.peek(table, cols, version)
    }

    fn column_distinct(&self, table: &str, col: usize) -> Option<u64> {
        self.catalog.table(table).ok()?.distinct(col)
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
    fn indexes_serve_joins_and_invalidate_on_mutation() {
        let mut db = db_with_t();
        db.execute("CREATE TABLE u (a INT, c VARCHAR)").unwrap();
        db.execute("INSERT INTO u VALUES (1, 'one'), (3, 'three')")
            .unwrap();
        let q = "SELECT t.b, u.c FROM t, u WHERE t.a = u.a ORDER BY u.c";
        let r1 = db.query(q).unwrap();
        assert_eq!(db.stats().indexes_built, 1, "lazy build on first join");
        let r2 = db.query(q).unwrap();
        assert_eq!(db.stats().index_hits, 1, "second join reuses it");
        assert_eq!(db.stats().indexes_built, 1);
        assert_eq!(r1.rows(), r2.rows());
        // Mutating the build-side table stales the entry.
        db.execute("INSERT INTO u VALUES (2, 'two')").unwrap();
        let r3 = db.query(q).unwrap();
        assert_eq!(db.stats().index_invalidations, 1);
        assert_eq!(db.stats().indexes_built, 2, "rebuilt after invalidation");
        assert_eq!(r3.len(), 3);
        // DROP purges the registry outright.
        db.execute("DROP TABLE u").unwrap();
        assert_eq!(db.live_indexes(), 0);
    }

    #[test]
    fn group_by_index_matches_scan_bit_for_bit() {
        let mut db = db_with_t();
        let q = "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b";
        let indexed = db.query(q).unwrap();
        assert_eq!(db.stats().indexes_built, 1);
        let hit = db.query(q).unwrap();
        assert_eq!(db.stats().index_hits, 1);
        db.set_reference_paths(true);
        let scanned = db.query(q).unwrap();
        assert_eq!(indexed.rows(), scanned.rows());
        assert_eq!(hit.rows(), scanned.rows());
        assert_eq!(db.stats().indexes_built, 1, "the reference builds nothing");
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
        let cost = db.query(q).unwrap();
        let s = db.stats();
        assert!(s.planner_plans > 0, "cost planner accounts its plans");
        assert!(
            s.planner_reordered_joins > 0,
            "smallest-first order deviates from the FROM order"
        );
        assert!(s.planner_pushed_filters > 0, "a.x > 1 pushed to the scan");
        db.set_reference_paths(true);
        let before = db.stats();
        let naive = db.query(q).unwrap();
        let after = db.stats();
        assert_eq!(cost.rows(), naive.rows(), "row content and order agree");
        for (c, n) in [
            (before.planner_plans, after.planner_plans),
            (
                before.planner_reordered_joins,
                after.planner_reordered_joins,
            ),
            (before.planner_pushed_filters, after.planner_pushed_filters),
            (before.planner_est_rows_err, after.planner_est_rows_err),
        ] {
            assert_eq!(c, n, "the written-order fold never moves planner counters");
        }
    }

    #[test]
    fn cost_build_side_follows_statistics() {
        let mut db = Database::new();
        db.execute("CREATE TABLE big (a INT, v VARCHAR)").unwrap();
        db.execute("CREATE TABLE small (a INT, w VARCHAR)").unwrap();
        db.execute("INSERT INTO big VALUES (1,'b1'), (2,'b2'), (3,'b3'), (4,'b4'), (5,'b5')")
            .unwrap();
        db.execute("INSERT INTO small VALUES (2,'s2'), (4,'s4')")
            .unwrap();
        // `big` comes first in FROM: the written-order fold would build over the
        // *next* factor regardless of size; the cost planner builds over
        // the smaller `small`, so mutating `big` invalidates nothing.
        let q = "SELECT big.v, small.w FROM big, small WHERE big.a = small.a";
        let r1 = db.query(q).unwrap();
        assert_eq!(r1.len(), 2);
        assert_eq!(db.stats().indexes_built, 1);
        db.execute("INSERT INTO big VALUES (6, 'b6')").unwrap();
        let r2 = db.query(q).unwrap();
        assert_eq!(r2.len(), 2);
        assert_eq!(
            db.stats().index_invalidations,
            0,
            "the index lives on the small build side, untouched by the mutation"
        );
        assert_eq!(db.stats().index_hits, 1, "second join reuses it");
        assert_eq!(db.stats().indexes_built, 1);
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
