//! EXPLAIN snapshots over the paper's own data: the Figure 1 `Purchase`
//! table and the §2 / Figure 2b mined-output join shapes. The plans must
//! state each operator — a scan per factor, a hash join per equi-join
//! conjunct with the step it runs at (none on the reference paths), a
//! hash aggregate per GROUP BY — so the tightly-coupled claim ("the SQL
//! server does the data management") stays inspectable.

use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::MineRuleEngine;
use relational::Database;

fn plan(db: &mut Database, sql: &str) -> String {
    let rs = db.query(&format!("EXPLAIN {sql}")).unwrap();
    rs.rows()
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Figure 1's Purchase table grouped by customer — the shape of the
/// translator's `Q1` (`ValidGroups`: one row per group).
const GROUPED: &str = "SELECT customer, COUNT(*) AS purchases FROM Purchase GROUP BY customer";

#[test]
fn figure2b_output_join_reports_its_access_path() {
    let mut db = purchase_db();
    MineRuleEngine::new()
        .execute(&mut db, FILTERED_ORDERED_SETS)
        .unwrap();
    // The Figure 2b decode shape: the rule table joined to its bodies.
    let join = "SELECT r.SUPPORT, b.item FROM FilteredOrderedSets r, \
                FilteredOrderedSets_Bodies b WHERE r.BodyId = b.BodyId";
    let p = plan(&mut db, join);
    assert!(
        p.lines()
            .any(|l| l == "  hash join on: r.BodyId = b.BodyId (step 1: r ⋈ b)"),
        "{p}"
    );

    db.set_reference_paths(true);
    let p = plan(&mut db, join);
    assert!(
        p.lines()
            .any(|l| l == "  hash join on: r.BodyId = b.BodyId"),
        "{p}"
    );
}

#[test]
fn explain_snapshot_is_stable_for_the_figure1_plan() {
    let mut db = purchase_db();
    // Full snapshot: the plan shape is part of the observable contract.
    // A one-factor plan has no join step, so both paths print the same.
    for reference in [false, true] {
        db.set_reference_paths(reference);
        assert_eq!(
            plan(&mut db, GROUPED),
            "Select\n  \
             scan Purchase [8 rows]\n  \
             hash aggregate by (customer)",
            "plan drifted (reference paths: {reference})"
        );
    }
}

#[test]
fn explain_shows_the_order_that_ran() {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE a (x INT, tag VARCHAR)",
        "CREATE TABLE b (x INT, y INT)",
        "CREATE TABLE c (y INT, lab VARCHAR)",
        "INSERT INTO a VALUES (1, 'p'), (2, 'q'), (3, 'r'), (4, 's')",
        "INSERT INTO b VALUES (1, 10), (2, 20), (3, 30), (3, 31)",
        "INSERT INTO c VALUES (20, 'twenty'), (30, 'thirty'), (30, 'xxx'), (99, 'none')",
    ] {
        db.execute(sql).unwrap();
    }
    // Written order a, c, b: no key joins c to a, so c waits for b.
    let q = "SELECT a.tag, c.lab FROM a, c, b WHERE a.x = b.x AND b.y = c.y";
    let p = plan(&mut db, q);
    let steps: Vec<&str> = p.lines().filter(|l| l.contains(" join")).collect();
    assert_eq!(
        steps,
        [
            "  hash join on: a.x = b.x (step 1: a ⋈ b)",
            "  hash join on: b.y = c.y (step 2: ⋈ c)",
        ],
        "{p}"
    );

    let before = db.stats();
    let planned = db.query(q).unwrap();
    let after = db.stats();
    assert_eq!(
        after.planner_reordered_joins - before.planner_reordered_joins,
        2,
        "b and c each run off their written position"
    );
    // |a ⋈ b| = 4, then |a ⋈ b ⋈ c| = 3: the 16-row a × c is never built.
    assert_eq!(after.rows_joined - before.rows_joined, 4 + 3);

    db.set_reference_paths(true);
    let folded = db.query(q).unwrap();
    assert_eq!(planned.rows(), folded.rows(), "rows and row order agree");
    assert_eq!(planned.len(), 3);
}

#[test]
fn fused_preprocess_plan_snapshot() {
    // The fused simple-class preprocess pass subsumes six SQL statements into one pipelined scan; the report is
    // the observable "plan" of that fusion: DDL for the two sequences,
    // then one fused step per Q1, Q2, Q3 and Q4 with the rows each
    // materialised (or 1 for pure bindings).
    let mut db = purchase_db();
    let outcome = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE FusedPlan AS SELECT DISTINCT item AS BODY, item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap();
    let report = &outcome.preprocess_report;
    assert_eq!(report.fused_steps, 6, "six SQL statements subsumed");
    let steps: Vec<String> = report
        .executed
        .iter()
        .map(|(id, rows)| format!("{id}[{rows}]"))
        .collect();
    assert_eq!(
        steps.join(" -> "),
        "DDL[1] -> DDL[1] -> Q1[1] -> Q2[2] -> Q3[5] -> Q4[6]",
        "fused preprocess plan drifted"
    );
}

/// A database with `t(a, b)` and `u(a, c)`, a few rows in each.
fn tu_db() -> Database {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE t (a INT, b VARCHAR)",
        "CREATE TABLE u (a INT, c INT)",
        "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')",
        "INSERT INTO u VALUES (1, 9), (2, 6), (3, 7), (3, 4)",
    ] {
        db.execute(sql).unwrap();
    }
    db
}

/// EXPLAIN's `pushdown` lines for `sql`, and the conjuncts the executor
/// pushed while running it (`planner.pushed_filters`): the same number
/// when EXPLAIN prints the plan that runs.
fn pushdowns(db: &mut Database, sql: &str) -> (String, usize, u64) {
    let p = plan(db, sql);
    let printed = p
        .lines()
        .filter(|l| l.contains("pushdown to factor"))
        .count();
    let before = db.stats().planner_pushed_filters;
    db.query(sql).unwrap();
    (p, printed, db.stats().planner_pushed_filters - before)
}

#[test]
fn a_view_factor_is_planned_through_its_own_plan() {
    let mut db = tu_db();
    db.execute("CREATE VIEW v AS SELECT a, c FROM u WHERE c > 5")
        .unwrap();
    let q = "SELECT t.b FROM t, v WHERE t.a = v.a AND v.c > 6";
    let (p, printed, pushed) = pushdowns(&mut db, q);
    assert_eq!(
        p,
        "Select\n  \
         scan t [3 rows]\n  \
         scan v [view]\n    \
         Select\n      \
         scan u [4 rows]\n      \
         pushdown to factor 1: c > 5\n  \
         pushdown to factor 2: v.c > 6\n  \
         hash join on: t.a = v.a (step 1: t ⋈ v)"
    );
    assert_eq!((printed, pushed), (2, 2), "{p}");
}

#[test]
fn a_derived_table_is_planned_through_its_own_plan() {
    let mut db = tu_db();
    let q = "SELECT x.a FROM (SELECT a FROM t) x, u WHERE x.a = u.a AND x.a > 1";
    let (p, printed, pushed) = pushdowns(&mut db, q);
    assert_eq!(
        p,
        "Select\n  \
         scan (subquery)\n    \
         Select\n      \
         scan t [3 rows]\n  \
         scan u [4 rows]\n  \
         pushdown to factor 1: x.a > 1\n  \
         hash join on: x.a = u.a (step 1: x ⋈ u)"
    );
    assert_eq!((printed, pushed), (1, 1), "{p}");
}

#[test]
fn an_aggregate_in_having_alone_makes_one_group() {
    let mut db = tu_db();
    let q = "SELECT 'many' FROM t HAVING COUNT(*) > 1";
    assert_eq!(
        plan(&mut db, q),
        "Select\n  scan t [3 rows]\n  aggregate (single group)\n  having: COUNT(*) > 1"
    );
    assert_eq!(db.query(q).unwrap().len(), 1, "one group, kept");
}

#[test]
fn a_set_operation_prints_its_tail_after_both_arms() {
    let mut db = tu_db();
    let q = "SELECT a FROM t WHERE a > 0 UNION SELECT a FROM t ORDER BY 1 DESC LIMIT 1";
    assert_eq!(
        plan(&mut db, q),
        "Select\n  \
         set operation: UNION\n  \
         Select\n    \
         scan t [3 rows]\n    \
         pushdown to factor 1: a > 0\n  \
         Select\n    \
         scan t [3 rows]\n  \
         sort by 1 DESC\n  \
         limit 1"
    );
    assert_eq!(
        db.query(q).unwrap().rows(),
        [vec![relational::Value::Int(3)]]
    );
}

/// `t(a)` holding `0..n`.
fn numbers_db(n: i64) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    let values: Vec<String> = (0..n).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    db
}

/// `(exec.rows_scanned, planner.plans)` for running `sql` once.
fn scans_and_plans(db: &mut Database, sql: &str) -> (u64, u64) {
    let before = db.stats();
    db.execute(sql).unwrap();
    let after = db.stats();
    (
        after.rows_scanned - before.rows_scanned,
        after.planner_plans - before.planner_plans,
    )
}

/// An uncorrelated subquery is planned with its statement and runs once
/// per statement, not once per outer row: each shape scans `t` twice.
#[test]
fn a_subquery_runs_once_per_statement() {
    const N: u64 = 1_000;
    let mut db = numbers_db(N as i64);
    for sql in [
        "SELECT COUNT(*) FROM t WHERE a > (SELECT AVG(a) FROM t)",
        "SELECT COUNT(*) FROM t WHERE a IN (SELECT a FROM t WHERE a < 10)",
        "SELECT COUNT(*) FROM t WHERE EXISTS (SELECT a FROM t WHERE a = 7)",
        "SELECT a, (SELECT MAX(a) FROM t) AS top FROM t",
        // Grouped expressions and aggregate arguments are interpreted,
        // and read the kept result too.
        "SELECT a FROM t GROUP BY a HAVING COUNT(*) > (SELECT MIN(a) FROM t)",
        "SELECT SUM(a + (SELECT MIN(a) FROM t)) FROM t",
    ] {
        assert_eq!(scans_and_plans(&mut db, sql), (2 * N, 2), "{sql}");
    }
    let rs = db
        .query("SELECT COUNT(*) FROM t WHERE a > (SELECT AVG(a) FROM t)")
        .unwrap();
    assert_eq!(rs.rows()[0][0], relational::Value::Int(500));

    // DML: the table's own pass scans nothing; each subquery scans once.
    let delete = "DELETE FROM t WHERE a > (SELECT AVG(a) FROM t)";
    assert_eq!(scans_and_plans(&mut db, delete), (N, 1));
    let mut db = numbers_db(N as i64);
    let update =
        "UPDATE t SET a = (SELECT MAX(a) FROM t) WHERE a IN (SELECT a FROM t WHERE a < 10)";
    assert_eq!(scans_and_plans(&mut db, update), (2 * N, 2));
    let rs = db.query("SELECT COUNT(*) FROM t WHERE a = 999").unwrap();
    assert_eq!(rs.rows()[0][0], relational::Value::Int(11));
}

/// EXPLAIN prints each subquery's plan under a `subquery k` node, its
/// pushdowns among the ones that run.
#[test]
fn a_subquery_is_printed_as_its_own_plan() {
    let mut db = tu_db();
    let q = "SELECT b FROM t WHERE a IN (SELECT a FROM u WHERE c > 6) ORDER BY b";
    let (p, printed, pushed) = pushdowns(&mut db, q);
    assert_eq!(
        p,
        "Select\n  \
         scan t [3 rows]\n  \
         pushdown to factor 1: a IN (SELECT a FROM u WHERE c > 6)\n  \
         sort by b\n  \
         subquery 1: SELECT a FROM u WHERE c > 6\n    \
         Select\n      \
         scan u [4 rows]\n      \
         pushdown to factor 1: c > 6"
    );
    assert_eq!((printed, pushed), (2, 2), "{p}");
    // A fault planning a subquery is printed where its plan would be: the
    // statement raises it only if some row reaches the subquery.
    db.execute("CREATE TABLE e (a INT)").unwrap();
    let q = "SELECT a FROM e WHERE a > (SELECT MAX(c) FROM nosuch)";
    assert_eq!(
        plan(&mut db, q),
        "Select\n  \
         scan e [0 rows]\n  \
         pushdown to factor 1: a > (SELECT MAX(c) FROM nosuch)\n  \
         subquery 1: SELECT MAX(c) FROM nosuch\n    \
         error: unknown table 'nosuch'"
    );
    assert!(db.query(q).unwrap().is_empty());
}
