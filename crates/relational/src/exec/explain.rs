//! `EXPLAIN <statement>`: a human-readable description of how the engine
//! executes a query. It prints the `SelectPlan` that `plan_select`
//! returns — the value [`crate::exec::run_select`] runs — and reads none
//! of the statement's clauses: per factor its scan (a view's or derived
//! table's own plan nested under it), the pushed conjuncts, the join
//! steps in the order they run, the residual filters, aggregation,
//! DISTINCT, a set operation's arms, then ORDER BY, LIMIT and each
//! expression subquery's plan. The node list is in docs/ARCHITECTURE.md.

use crate::engine::Database;
use crate::error::Result;
use crate::exec::select::{plan_select, Body, Factor, SelectPlan, Shape, SortKey};
use crate::expr::eval::QueryCtx;
use crate::sql::ast::{InsertSource, JoinKind, Statement};

/// Render the plan for any statement.
pub fn explain_statement(db: &Database, stmt: &Statement) -> Result<String> {
    let mut out = String::new();
    match stmt {
        Statement::Select(s) => explain_select(db, &plan_select(db, s)?, 0, &mut out),
        Statement::Insert { table, source, .. } => {
            out.push_str(&format!("Insert into {table}\n"));
            if let InsertSource::Query(q) = source {
                explain_select(db, &plan_select(db, q)?, 1, &mut out);
            }
        }
        Statement::CreateTableAs { name, query } => {
            out.push_str(&format!("Materialise into new table {name}\n"));
            explain_select(db, &plan_select(db, query)?, 1, &mut out);
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

fn explain_select(db: &Database, plan: &SelectPlan, indent: usize, out: &mut String) {
    out.push_str(&format!("{}Select\n", pad(indent)));
    let pad = pad(indent + 1);
    match &plan.shape {
        Shape::Body(body) => explain_body(db, body, indent + 1, out),
        Shape::SetOp(op, left, right) => {
            out.push_str(&format!("{pad}set operation: {}\n", op.sql()));
            explain_select(db, left, indent + 1, out);
            explain_select(db, right, indent + 1, out);
        }
    }
    if !plan.sort.is_empty() {
        let key = |k: &SortKey| format!("{}{}", k.expr, if k.asc { "" } else { " DESC" });
        let keys: Vec<String> = plan.sort.iter().map(key).collect();
        out.push_str(&format!("{pad}sort by {}\n", keys.join(", ")));
    }
    if let Some(l) = plan.max_rows {
        out.push_str(&format!("{pad}limit {l}\n"));
    }
    // Each subquery's plan, or the fault planning it met, which the
    // statement raises only if it runs the subquery.
    for (k, subquery) in plan.subqueries.iter().enumerate() {
        out.push_str(&format!("{pad}subquery {}: {}\n", k + 1, subquery.query));
        match &subquery.plan {
            Ok(plan) => explain_select(db, plan, indent + 2, out),
            Err(e) => out.push_str(&format!("{pad}  error: {e}\n")),
        }
    }
}

/// One factor's line, `{head} {label}{tail}`, then the plan of a view or
/// derived table under it.
fn explain_factor(
    db: &Database,
    head: &str,
    factor: &Factor,
    tail: &str,
    indent: usize,
    out: &mut String,
) {
    let named = |name: &str| match &factor.alias {
        Some(a) => format!("{name} AS {a}"),
        None => name.to_string(),
    };
    let label = match (&factor.name, &factor.plan) {
        (Some(name), None) => {
            let rows = db.catalog().row_count(name).unwrap_or_default();
            format!("{} [{rows} rows]", named(name))
        }
        (Some(name), Some(_)) => format!("{} [view]", named(name)),
        (None, _) => "(subquery)".to_string(),
    };
    out.push_str(&format!("{}{head} {label}{tail}\n", pad(indent)));
    if let Some(plan) = &factor.plan {
        explain_select(db, plan, indent + 1, out);
    }
}

fn explain_body(db: &Database, body: &Body, indent: usize, out: &mut String) {
    let pad = pad(indent);
    for (factor, joins) in &body.from {
        explain_factor(db, "scan", factor, "", indent, out);
        for (kind, factor, on) in joins {
            let kw = match kind {
                JoinKind::Inner => "inner join",
                JoinKind::LeftOuter => "left outer join",
            };
            let on = on.as_ref().map_or("TRUE".into(), |e| e.to_string());
            explain_factor(db, kw, factor, &format!(" on {on}"), indent + 1, out);
        }
    }

    // The FROM list's join plan: pushed conjuncts, join steps in the order
    // they run, residual filters.
    let plan = &body.joins;
    for (f, c) in &plan.pushed {
        out.push_str(&format!("{pad}pushdown to factor {}: {c}\n", f + 1));
    }
    let ordered = !db.reference_paths();
    let name = |f: usize| body.from[f].0.qualifier().unwrap_or("(subquery)");
    for (k, step) in plan.steps.iter().enumerate().skip(1) {
        let (first, this) = (name(plan.steps[0].factor), name(step.factor));
        let at = match k {
            1 => format!("step 1: {first} ⋈ {this}"),
            _ => format!("step {k}: ⋈ {this}"),
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

    if !body.group_keys.is_empty() {
        let keys: Vec<String> = body.group_keys.iter().map(|e| e.to_string()).collect();
        out.push_str(&format!("{pad}hash aggregate by ({})\n", keys.join(", ")));
    } else if body.grouped {
        out.push_str(&format!("{pad}aggregate (single group)\n"));
    }
    if let Some(h) = &body.group_filter {
        out.push_str(&format!("{pad}having: {h}\n"));
    }
    if body.dedup {
        out.push_str(&format!("{pad}distinct\n"));
    }
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
