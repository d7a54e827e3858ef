//! `EXPLAIN <statement>`: a human-readable description of how the engine
//! executes a query — the scan of each factor, the conjuncts pushed down
//! to them, the join steps in the order they run, the residual filter,
//! aggregation and post-processing steps.
//!
//! The FROM list's part is not re-derived: it is the [`JoinPlan`] that
//! [`plan_joins`] returns for the factors' catalog schemas, the same
//! function the executor runs its joins by. Views and subqueries have no
//! schema before they run, so nothing is pushed to a factor holding one
//! here, while the executor, which has their rows, may push to it.

use crate::engine::Database;
use crate::error::Result;
use crate::exec::join::{conjuncts, plan_joins, JoinPlan};
use crate::expr::eval::QueryCtx;
use crate::sql::ast::{JoinKind, SelectStmt, Statement, TableRef, TableSource};
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

/// The schema the executor gives factor `tref`: its tables' columns under
/// their qualifiers, joined along its explicit JOIN chain. Empty when the
/// chain holds a view or a subquery.
fn factor_schema(db: &Database, tref: &TableRef) -> Schema {
    let one = |source: &TableSource, alias: &Option<String>| match source {
        TableSource::Named(name) if !db.catalog().has_view(name) => {
            let schema = db.catalog().table_schema(name).ok()?;
            Some(schema.with_qualifier(alias.as_deref().unwrap_or(name)))
        }
        _ => None,
    };
    let chain = tref.joins.iter().map(|j| one(&j.source, &j.alias));
    std::iter::once(one(&tref.source, &tref.alias))
        .chain(chain)
        .try_fold(Schema::default(), |acc, s| Some(acc.join(&s?)))
        .unwrap_or_default()
}

/// The name a join step calls factor `tref` by.
fn factor_name(tref: &TableRef) -> &str {
    match (&tref.alias, &tref.source) {
        (Some(a), _) => a,
        (None, TableSource::Named(name)) => name,
        (None, TableSource::Subquery(_)) => "(subquery)",
    }
}

fn factor_label(db: &Database, source: &TableSource, alias: Option<&str>) -> String {
    match source {
        TableSource::Named(name) => {
            let rows = db
                .catalog()
                .row_count(name)
                .map(|n| format!("{n} rows"))
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

/// Print a FROM list's plan: pushed conjuncts, join steps, residual
/// filters. Each join step names the order it runs in; the reference
/// paths fold in written order instead, so there the steps carry no
/// order and no cross product is listed.
fn explain_plan(
    db: &Database,
    stmt: &SelectStmt,
    plan: &JoinPlan,
    indent: usize,
    out: &mut String,
) {
    let pad = pad(indent);
    for (f, c) in &plan.pushed {
        out.push_str(&format!("{pad}pushdown to factor {}: {c}\n", f + 1));
    }
    let ordered = !db.reference_paths();
    let name = |f: usize| factor_name(&stmt.from[f]);
    for (k, step) in plan.steps.iter().enumerate().skip(1) {
        let at = match k {
            1 => format!(
                "step 1: {} ⋈ {}",
                name(plan.steps[0].factor),
                name(step.factor)
            ),
            _ => format!("step {k}: ⋈ {}", name(step.factor)),
        };
        if step.keys.is_empty() && ordered {
            out.push_str(&format!("{pad}cross join ({at})\n"));
        }
        for key in &step.keys {
            out.push_str(&format!("{pad}hash join on: {}", key.conjunct));
            if ordered {
                out.push_str(&format!(" ({at})"));
            }
            out.push('\n');
        }
    }
    for c in &plan.residual {
        out.push_str(&format!("{pad}filter: {c}\n"));
    }
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
    }

    let schemas: Vec<Schema> = stmt.from.iter().map(|t| factor_schema(db, t)).collect();
    let schemas: Vec<&Schema> = schemas.iter().collect();
    let where_conjuncts = stmt
        .where_clause
        .as_ref()
        .map(conjuncts)
        .unwrap_or_default();
    let plan = plan_joins(&schemas, where_conjuncts);
    explain_plan(db, stmt, &plan, indent + 1, out);

    if !stmt.group_by.is_empty() {
        let keys: Vec<String> = stmt.group_by.iter().map(|e| e.to_string()).collect();
        out.push_str(&format!(
            "{}hash aggregate by ({})\n",
            pad(indent + 1),
            keys.join(", ")
        ));
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
        // `a` answers to `t.a` and `u.a`: pushing it to `t` would pick one.
        let p = plan("SELECT t.b FROM t, u WHERE a = 1");
        assert!(
            p.ends_with("  filter: a = 1") && !p.contains("pushdown"),
            "{p}"
        );
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
        // Every equi-join is a hash join and every GROUP BY a hash
        // aggregate over its own bucketing pass, whatever feeds them: the
        // operator line is the access path and carries no tag.
        for (sql, op) in [
            (
                "SELECT t.b FROM t, u WHERE t.a = u.a",
                "hash join on: t.a = u.a",
            ),
            (
                "SELECT t.b FROM t, u WHERE t.a = u.a AND u.c = 1",
                "hash join on: t.a = u.a",
            ),
            (
                "SELECT b, COUNT(*) FROM t GROUP BY b",
                "hash aggregate by (b)",
            ),
            (
                "SELECT b, COUNT(*) FROM t WHERE a = 1 GROUP BY b",
                "hash aggregate by (b)",
            ),
            (
                "SELECT t.b FROM t, u WHERE t.a = u.a GROUP BY t.b",
                "hash aggregate by (t.b)",
            ),
        ] {
            let p = plan(sql);
            let line = p.lines().find(|l| l.trim_start().starts_with(op));
            assert!(line.is_some_and(|l| !l.contains('[')), "{p}");
        }
    }

    #[test]
    fn join_steps_name_the_order_that_runs() {
        let mut db = db();
        db.execute("INSERT INTO u VALUES (1, 7), (2, 8)").unwrap();
        db.execute("CREATE TABLE v (c INT)").unwrap();
        // `v` is written second but joins nothing before it: it waits.
        let join =
            parse_statement("SELECT t.b FROM t, v, u WHERE t.a = u.a AND u.c = v.c").unwrap();
        let p = explain_statement(&db, &join).unwrap();
        assert!(
            p.contains("  hash join on: t.a = u.a (step 1: t ⋈ u)\n"),
            "{p}"
        );
        assert!(p.contains("  hash join on: u.c = v.c (step 2: ⋈ v)"), "{p}");
        let cross = parse_statement("SELECT t.b FROM t, u").unwrap();
        let p = explain_statement(&db, &cross).unwrap();
        assert!(p.ends_with("  cross join (step 1: t ⋈ u)"), "{p}");
        let group = parse_statement("SELECT b, COUNT(*) FROM t GROUP BY b").unwrap();
        let p = explain_statement(&db, &group).unwrap();
        assert!(p.ends_with("  hash aggregate by (b)"), "{p}");
        // The written-order fold claims no order and no cross product.
        db.set_reference_paths(true);
        let p = explain_statement(&db, &join).unwrap();
        assert!(p.contains("  hash join on: t.a = u.a\n"), "{p}");
        assert!(!p.contains("(step "), "{p}");
        let p = explain_statement(&db, &cross).unwrap();
        assert!(!p.contains("cross join"), "{p}");
    }

    #[test]
    fn policy_off_reports_scans_everywhere() {
        let mut db = db();
        db.set_reference_paths(true);
        let stmt = parse_statement("SELECT t.b FROM t, u WHERE t.a = u.a GROUP BY t.b").unwrap();
        let p = explain_statement(&db, &stmt).unwrap();
        assert_eq!(
            p,
            "Select\n  scan t [2 rows]\n  scan u [0 rows]\n  \
             hash join on: t.a = u.a\n  hash aggregate by (t.b)",
            "the reference plan scans its factors and annotates nothing"
        );
    }

    #[test]
    fn set_ops_and_joins_reported() {
        let p = plan("SELECT a FROM t UNION SELECT a FROM u");
        assert!(p.contains("set operation: UNION"), "{p}");
        let p = plan("SELECT b FROM t LEFT JOIN u ON t.a = u.a");
        assert!(p.contains("left outer join"), "{p}");
    }
}
