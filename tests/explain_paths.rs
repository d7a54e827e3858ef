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
