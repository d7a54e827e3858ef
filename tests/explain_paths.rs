//! EXPLAIN snapshots over the paper's own data: the Figure 1 `Purchase`
//! table and the §2 / Figure 2b mined-output join shapes. The plans must
//! state each operator — a scan per factor, a hash join per equi-join
//! conjunct, a hash aggregate per GROUP BY, with the cost planner's
//! estimates beside them and none on the reference paths — so the
//! tightly-coupled claim ("the SQL server does the data management")
//! stays inspectable.

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
            .any(|l| l == "  hash join on: r.BodyId = b.BodyId (est 4 rows, cost 11)"),
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
    let p = plan(&mut db, GROUPED);
    // Full snapshot: the plan shape is part of the observable contract.
    // The cost planner annotates its cardinality estimates.
    assert_eq!(
        p,
        "Select\n  \
         scan Purchase [8 rows]\n  \
         hash aggregate by (customer) (est 2 groups of 8 rows)",
        "plan drifted"
    );

    // On the reference paths the estimates disappear: no statistics are
    // consulted, so none are printed.
    db.set_reference_paths(true);
    let p = plan(&mut db, GROUPED);
    assert_eq!(
        p,
        "Select\n  \
         scan Purchase [8 rows]\n  \
         hash aggregate by (customer)",
        "reference plan drifted"
    );
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
