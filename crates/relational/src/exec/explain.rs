//! `EXPLAIN <statement>`: a human-readable description of how the engine
//! would execute a query — factor order, predicate pushdown, join
//! strategy, aggregation and post-processing steps.
//!
//! The description is computed from the same classification logic the
//! executor uses ([`crate::exec::join`]), so it reflects the actual plan,
//! not a guess.

use crate::engine::Database;
use crate::error::Result;
use crate::exec::join::{conjuncts, resolves_in};
use crate::expr::eval::QueryCtx;
use crate::expr::vector::vectorizes;
use crate::expr::{BinOp, Expr};
use crate::sql::ast::{JoinKind, SelectStmt, Statement, TableSource};
use crate::types::Schema;

/// Render the plan for any statement.
pub fn explain_statement(db: &Database, stmt: &Statement) -> Result<String> {
    let mut out = String::new();
    match stmt {
        Statement::Select(s) => explain_select(db, s, 0, &mut out)?,
        Statement::Insert { table, source, .. } => {
            out.push_str(&format!("Insert into {table}\n"));
            if let crate::sql::ast::InsertSource::Query(q) = source {
                explain_select(db, q, 1, &mut out)?;
            }
        }
        Statement::CreateTableAs { name, query } => {
            out.push_str(&format!("Materialise into new table {name}\n"));
            explain_select(db, query, 1, &mut out)?;
        }
        Statement::Delete { table, .. } => {
            out.push_str(&format!("Delete from {table} (scan + filter)\n"));
        }
        Statement::Update { table, .. } => {
            out.push_str(&format!("Update {table} (scan + filter + rewrite)\n"));
        }
        other => out.push_str(&format!("DDL: {other}\n")),
    }
    Ok(out.trim_end().to_string())
}

fn pad(indent: usize) -> String {
    "  ".repeat(indent)
}

fn factor_schema(db: &Database, source: &TableSource, alias: Option<&str>) -> Option<Schema> {
    match source {
        TableSource::Named(name) => {
            let base = if let Some(view) = db.catalog().view(name) {
                // Approximate a view's schema by its projection arity only.
                let _ = view;
                return None;
            } else {
                db.catalog().table_schema(name).ok()?.clone()
            };
            Some(match alias {
                Some(a) => base.with_qualifier(a),
                None => base.with_qualifier(name),
            })
        }
        TableSource::Subquery(_) => None,
    }
}

fn factor_label(db: &Database, source: &TableSource, alias: Option<&str>) -> String {
    match source {
        TableSource::Named(name) => {
            let rows = db
                .catalog()
                .table(name)
                .map(|t| format!("{} rows", t.row_count()))
                .unwrap_or_else(|_| {
                    if db.catalog().has_view(name) {
                        "view".to_string()
                    } else {
                        "missing".to_string()
                    }
                });
            match alias {
                Some(a) => format!("{name} AS {a} [{rows}]"),
                None => format!("{name} [{rows}]"),
            }
        }
        TableSource::Subquery(_) => "(subquery)".to_string(),
    }
}

/// Format `index(<table>.<cols>)` for a factor the executor would serve
/// from a table index, or `None` when it would scan: the factor must be a
/// plain named base table (no view, no explicit joins, no pushdown filter
/// — both clear base-table provenance) and every key a plain column.
fn index_label(
    db: &Database,
    stmt: &SelectStmt,
    pushed: bool,
    factor: usize,
    keys: &[&Expr],
) -> Option<String> {
    if pushed {
        return None;
    }
    let tref = stmt.from.get(factor)?;
    if !tref.joins.is_empty() {
        return None;
    }
    let TableSource::Named(name) = &tref.source else {
        return None;
    };
    let table = db.catalog().table(name).ok()?;
    let mut cols = Vec::with_capacity(keys.len());
    for k in keys {
        match k {
            Expr::Column { name, .. } => cols.push(name.as_str()),
            _ => return None,
        }
    }
    let col_part = if cols.len() == 1 {
        cols[0].to_string()
    } else {
        format!("({})", cols.join(","))
    };
    Some(format!("index({}.{})", table.name(), col_part))
}

/// The batch-execution tag for a site whose expression programs are
/// `exprs`: `vector` when the executor would run it batch-at-a-time,
/// `row` otherwise.
fn exec_tag(db: &Database, exprs: &[&Expr]) -> &'static str {
    if vectorizes(db, exprs) {
        "vector"
    } else {
        "row"
    }
}

/// The access path the executor would pick for one equi-join conjunct.
/// Factors fold left to right, so the side resolving in the later factor
/// is the hash-build side — the one a table index can replace.
fn equi_access_path(
    db: &Database,
    stmt: &SelectStmt,
    schemas: &[Option<Schema>],
    pushed: &[bool],
    left: &Expr,
    right: &Expr,
) -> String {
    if db.reference_paths() {
        return "scan".into();
    }
    let factor_of = |e: &Expr| -> Option<usize> {
        schemas
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| resolves_in(e, s)))
    };
    let (build_factor, build_key) = match (factor_of(left), factor_of(right)) {
        (Some(lf), Some(rf)) if lf != rf => {
            if lf > rf {
                (lf, left)
            } else {
                (rf, right)
            }
        }
        _ => return "scan".into(),
    };
    index_label(db, stmt, pushed[build_factor], build_factor, &[build_key])
        .unwrap_or_else(|| "scan".into())
}

/// Row count of factor `i` when it is a plain named base table.
fn factor_rows(db: &Database, stmt: &SelectStmt, i: usize) -> Option<u64> {
    let tref = stmt.from.get(i)?;
    if !tref.joins.is_empty() {
        return None;
    }
    let TableSource::Named(name) = &tref.source else {
        return None;
    };
    Some(db.catalog().table(name).ok()?.row_count() as u64)
}

/// Catalog distinct estimate for a plain-column key of factor `i`.
fn column_ndv(
    db: &Database,
    stmt: &SelectStmt,
    schemas: &[Option<Schema>],
    i: usize,
    key: &Expr,
) -> Option<u64> {
    let tref = stmt.from.get(i)?;
    if !tref.joins.is_empty() {
        return None;
    }
    let TableSource::Named(name) = &tref.source else {
        return None;
    };
    let Expr::Column {
        qualifier,
        name: col,
    } = key
    else {
        return None;
    };
    let pos = schemas
        .get(i)?
        .as_ref()?
        .resolve(qualifier.as_deref(), col)
        .ok()?;
    db.catalog().table(name).ok()?.distinct(pos)
}

/// Cost-based estimate for one equi-join conjunct: `(est rows, cost)`,
/// with `est = |L|·|R| / ndv(key)` from the catalog statistics and
/// `cost = |L| + |R| + est` (hash build + probe + emit). `None` when
/// either side is not a named base table.
fn join_estimate(
    db: &Database,
    stmt: &SelectStmt,
    schemas: &[Option<Schema>],
    left: &Expr,
    right: &Expr,
) -> Option<(u64, u64)> {
    let factor_of = |e: &Expr| -> Option<usize> {
        schemas
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| resolves_in(e, s)))
    };
    let (lf, rf) = match (factor_of(left), factor_of(right)) {
        (Some(lf), Some(rf)) if lf != rf => (lf, rf),
        _ => return None,
    };
    let lr = factor_rows(db, stmt, lf)?;
    let rr = factor_rows(db, stmt, rf)?;
    let ndv = column_ndv(db, stmt, schemas, lf, left)
        .into_iter()
        .chain(column_ndv(db, stmt, schemas, rf, right))
        .max()
        .unwrap_or_else(|| lr.max(rr))
        .max(1);
    let est = lr.saturating_mul(rr) / ndv;
    Some((est, lr.saturating_add(rr).saturating_add(est)))
}

/// The access path the executor would pick for the GROUP BY bucketing
/// pass: a table index serves it only when the grouped input is one
/// unfiltered named base table and every key is a plain column.
fn group_access_path(db: &Database, stmt: &SelectStmt, schemas: &[Option<Schema>]) -> String {
    if db.reference_paths()
        || stmt.where_clause.is_some()
        || schemas.len() != 1
        || schemas[0].is_none()
    {
        return "scan".into();
    }
    let keys: Vec<&Expr> = stmt.group_by.iter().collect();
    index_label(db, stmt, false, 0, &keys).unwrap_or_else(|| "scan".into())
}

fn explain_select(db: &Database, stmt: &SelectStmt, indent: usize, out: &mut String) -> Result<()> {
    out.push_str(&format!("{}Select\n", pad(indent)));
    if let Some((kind, rhs)) = &stmt.set_op {
        out.push_str(&format!(
            "{}set operation: {}\n",
            pad(indent + 1),
            kind.sql()
        ));
        let mut left = stmt.clone();
        left.set_op = None;
        left.order_by = Vec::new();
        left.limit = None;
        explain_select(db, &left, indent + 1, out)?;
        explain_select(db, rhs, indent + 1, out)?;
        return Ok(());
    }

    // Factors and explicit joins.
    let mut schemas: Vec<Option<Schema>> = Vec::new();
    for tref in &stmt.from {
        out.push_str(&format!(
            "{}scan {}\n",
            pad(indent + 1),
            factor_label(db, &tref.source, tref.alias.as_deref())
        ));
        for j in &tref.joins {
            let kw = match j.kind {
                JoinKind::Inner => "inner join",
                JoinKind::LeftOuter => "left outer join",
            };
            out.push_str(&format!(
                "{}{kw} {} on {}\n",
                pad(indent + 2),
                factor_label(db, &j.source, j.alias.as_deref()),
                j.on.as_ref()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "TRUE".into())
            ));
        }
        if let TableSource::Subquery(q) = &tref.source {
            explain_select(db, q, indent + 2, out)?;
        }
        schemas.push(factor_schema(db, &tref.source, tref.alias.as_deref()));
    }

    // Predicate classification, mirroring the executor's pushdown logic.
    // A first pass records which factors receive pushdown filters: a
    // filtered factor loses base-table provenance, so its joins can no
    // longer be served by a table index.
    let mut pushed = vec![false; schemas.len()];
    if let Some(w) = &stmt.where_clause {
        for c in conjuncts(w) {
            for (i, schema) in schemas.iter().enumerate() {
                if let Some(schema) = schema {
                    if resolves_in(c, schema) {
                        pushed[i] = true;
                        break;
                    }
                }
            }
        }
    }
    if let Some(w) = &stmt.where_clause {
        for c in conjuncts(w) {
            let mut placed = false;
            for (i, schema) in schemas.iter().enumerate() {
                if let Some(schema) = schema {
                    if resolves_in(c, schema) {
                        out.push_str(&format!(
                            "{}pushdown to factor {}: {c}\n",
                            pad(indent + 1),
                            i + 1
                        ));
                        placed = true;
                        break;
                    }
                }
            }
            if placed {
                continue;
            }
            let equi_sides = match c {
                Expr::Binary {
                    op: BinOp::Eq,
                    left,
                    right,
                } if matches!(**left, Expr::Column { .. })
                    && matches!(**right, Expr::Column { .. }) =>
                {
                    Some((left.as_ref(), right.as_ref()))
                }
                _ => None,
            };
            if let Some((l, r)) = equi_sides {
                let path = equi_access_path(db, stmt, &schemas, &pushed, l, r);
                let tag = exec_tag(db, &[l, r]);
                out.push_str(&format!(
                    "{}hash join on: {c} [{path}] [{tag}]",
                    pad(indent + 1)
                ));
                if !db.reference_paths() {
                    if let Some((est, cost)) = join_estimate(db, stmt, &schemas, l, r) {
                        out.push_str(&format!(" (est {est} rows, cost {cost})"));
                    }
                }
                out.push('\n');
            } else {
                out.push_str(&format!("{}filter: {c}\n", pad(indent + 1)));
            }
        }
    }

    if !stmt.group_by.is_empty() {
        let keys: Vec<String> = stmt.group_by.iter().map(|e| e.to_string()).collect();
        let path = group_access_path(db, stmt, &schemas);
        let key_refs: Vec<&Expr> = stmt.group_by.iter().collect();
        let tag = exec_tag(db, &key_refs);
        out.push_str(&format!(
            "{}hash aggregate by ({}) [{path}] [{tag}]",
            pad(indent + 1),
            keys.join(", ")
        ));
        if !db.reference_paths() && schemas.len() == 1 {
            let rows = factor_rows(db, stmt, 0);
            let ndvs: Option<Vec<u64>> = stmt
                .group_by
                .iter()
                .map(|k| column_ndv(db, stmt, &schemas, 0, k))
                .collect();
            if let (Some(rows), Some(ndvs)) = (rows, ndvs) {
                let groups = ndvs
                    .iter()
                    .fold(1u64, |acc, &d| acc.saturating_mul(d.max(1)))
                    .min(rows);
                out.push_str(&format!(" (est {groups} groups of {rows} rows)"));
            }
        }
        out.push('\n');
    } else if stmt
        .items
        .iter()
        .any(|i| matches!(i, crate::sql::ast::SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
    {
        out.push_str(&format!("{}aggregate (single group)\n", pad(indent + 1)));
    }
    if let Some(h) = &stmt.having {
        out.push_str(&format!("{}having: {h}\n", pad(indent + 1)));
    }
    if stmt.distinct {
        out.push_str(&format!("{}distinct\n", pad(indent + 1)));
    }
    if !stmt.order_by.is_empty() {
        let keys: Vec<String> = stmt
            .order_by
            .iter()
            .map(|o| format!("{}{}", o.expr, if o.asc { "" } else { " DESC" }))
            .collect();
        out.push_str(&format!("{}sort by {}\n", pad(indent + 1), keys.join(", ")));
    }
    if let Some(l) = stmt.limit {
        out.push_str(&format!("{}limit {l}\n", pad(indent + 1)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        db.execute("CREATE TABLE u (a INT, c INT)").unwrap();
        db
    }

    fn plan(sql: &str) -> String {
        let db = db();
        let stmt = parse_statement(sql).unwrap();
        explain_statement(&db, &stmt).unwrap()
    }

    #[test]
    fn pushdown_and_hash_join_reported() {
        let p = plan("SELECT t.b FROM t, u WHERE t.a = u.a AND t.b = 'x'");
        assert!(p.contains("scan t [2 rows]"), "{p}");
        assert!(p.contains("hash join on: t.a = u.a"), "{p}");
        assert!(p.contains("pushdown to factor 1: t.b = 'x'"), "{p}");
    }

    #[test]
    fn aggregation_and_sort_reported() {
        let p = plan("SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 1 ORDER BY b LIMIT 5");
        assert!(p.contains("hash aggregate by (b)"), "{p}");
        assert!(p.contains("having: COUNT(*) > 1"), "{p}");
        assert!(p.contains("sort by b"), "{p}");
        assert!(p.contains("limit 5"), "{p}");
    }

    #[test]
    fn access_paths_reported() {
        let p = plan("SELECT t.b FROM t, u WHERE t.a = u.a");
        assert!(p.contains("hash join on: t.a = u.a [index(u.a)]"), "{p}");
        let p = plan("SELECT b, COUNT(*) FROM t GROUP BY b");
        assert!(p.contains("hash aggregate by (b) [index(t.b)]"), "{p}");
        // A pushdown filter on the build factor clears its provenance.
        let p = plan("SELECT t.b FROM t, u WHERE t.a = u.a AND u.c = 1");
        assert!(p.contains("hash join on: t.a = u.a [scan]"), "{p}");
        // A WHERE clause forces the grouped input through a filter.
        let p = plan("SELECT b, COUNT(*) FROM t WHERE a = 1 GROUP BY b");
        assert!(p.contains("hash aggregate by (b) [scan]"), "{p}");
    }

    #[test]
    fn cost_estimates_annotate_access_paths() {
        let mut db = db();
        db.execute("INSERT INTO u VALUES (1, 7), (2, 8)").unwrap();
        let join = parse_statement("SELECT t.b FROM t, u WHERE t.a = u.a").unwrap();
        let p = explain_statement(&db, &join).unwrap();
        assert!(
            p.contains("[index(u.a)] [vector] (est 2 rows, cost 6)"),
            "{p}"
        );
        let group = parse_statement("SELECT b, COUNT(*) FROM t GROUP BY b").unwrap();
        let p = explain_statement(&db, &group).unwrap();
        assert!(
            p.contains("[index(t.b)] [vector] (est 2 groups of 2 rows)"),
            "{p}"
        );
        // The written-order fold estimates nothing.
        db.set_reference_paths(true);
        let p = explain_statement(&db, &join).unwrap();
        assert!(!p.contains("(est "), "{p}");
    }

    #[test]
    fn policy_off_reports_scans_everywhere() {
        let mut db = db();
        db.set_reference_paths(true);
        let stmt = parse_statement("SELECT t.b FROM t, u WHERE t.a = u.a GROUP BY t.b").unwrap();
        let p = explain_statement(&db, &stmt).unwrap();
        assert!(p.contains("hash join on: t.a = u.a [scan]"), "{p}");
        assert!(
            !p.contains("[index("),
            "no index paths on the reference: {p}"
        );
    }

    #[test]
    fn exec_tags_follow_the_batch_mode() {
        let mut db = db();
        let stmt = parse_statement("SELECT t.b FROM t, u WHERE t.a = u.a GROUP BY t.b").unwrap();
        // Plain-column sites vectorize.
        let p = explain_statement(&db, &stmt).unwrap();
        assert!(
            p.contains("hash join on: t.a = u.a [index(u.a)] [vector]"),
            "{p}"
        );
        assert!(p.contains("hash aggregate by (t.b) [scan] [vector]"), "{p}");
        // The reference paths re-tag every site.
        db.set_reference_paths(true);
        let p = explain_statement(&db, &stmt).unwrap();
        assert!(p.contains("t.a = u.a [scan] [row]"), "{p}");
        assert!(p.contains("(t.b) [scan] [row]"), "{p}");
        assert!(!p.contains("[vector]"), "{p}");
    }

    #[test]
    fn set_ops_and_joins_reported() {
        let p = plan("SELECT a FROM t UNION SELECT a FROM u");
        assert!(p.contains("set operation: UNION"), "{p}");
        let p = plan("SELECT b FROM t LEFT JOIN u ON t.a = u.a");
        assert!(p.contains("left outer join"), "{p}");
    }
}
