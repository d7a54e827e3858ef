//! Multi-row agreement between the production paths and the reference
//! paths (`Database::set_reference_paths`): every SQL site runs its
//! compiled program in a row loop in production, and the tree-walking
//! interpreter is the oracle. The file and test names date from the
//! batch executor these tests used to pit against the row loop; they
//! now pit the compiled row loop against the interpreter where a short
//! fixture cannot reach:
//!
//! 1. randomized expressions and filters from the shared fuzz grammar
//!    (`tcdm_fuzz::grammar`) over a NULL-heavy 2 000-row table,
//!    comparing the full result **or error** (`tests/sqlexec_agreement.rs`
//!    runs the same grammar over a five-row table);
//! 2. the one statement shape whose preprocessing still runs `Q0..Q11`
//!    on the SQL server — a two-table FROM — mined on both paths,
//!    asserting bit-identical rules and preprocessing reports.

use datagen::rng::Rng;
use minerule::paper_example::purchase_db;
use minerule::MineRuleEngine;
use relational::Database;
use tcdm_fuzz::grammar::{abcs_table, gen_expr, ExprCols};

/// Rows in the NULL-heavy table every randomized case runs over.
const ROWS: usize = 2_000;

/// Evaluate `sql` over a fresh [`ROWS`]-row table on the reference or the
/// production paths, rendering the result-or-error for comparison.
/// Errors are part of the observable contract: a path that fails
/// differently (or at a different row) is a regression even when
/// successful queries agree.
fn run(reference: bool, sql: &str) -> String {
    let mut db = abcs_table(ROWS);
    db.set_reference_paths(reference);
    format!("{:?}", db.query(sql))
}

fn assert_paths_agree(sql: &str, label: &str) {
    let compiled = run(false, sql);
    let interpreted = run(true, sql);
    assert_eq!(compiled, interpreted, "{label}: paths disagree on: {sql}");
}

// ---------------------------------------------------------------------
// Layer 1: randomized grammar over a NULL-heavy multi-row table
// ---------------------------------------------------------------------

#[test]
fn randomized_expressions_agree_across_batches() {
    let mut rng = Rng::seed_from_u64(0x0bac_ed10);
    let cols = ExprCols::abcs_fixture();
    for i in 0..60 {
        let expr = gen_expr(&mut rng, 3, &cols);
        assert_paths_agree(&format!("SELECT {expr} AS v FROM t"), &format!("case {i}"));
    }
}

#[test]
fn randomized_filters_agree_across_batches() {
    let mut rng = Rng::seed_from_u64(0x0bac_ed20);
    let cols = ExprCols::abcs_fixture();
    for i in 0..40 {
        let pred = gen_expr(&mut rng, 3, &cols);
        assert_paths_agree(
            &format!("SELECT a, s FROM t WHERE {pred}"),
            &format!("case {i}"),
        );
    }
}

// ---------------------------------------------------------------------
// Layer 2: end-to-end mining agreement on the SQL-server statement shape
// ---------------------------------------------------------------------

/// A two-table FROM: its preprocessing runs `Q0..Q11` through the SQL
/// executor's filter, join, GROUP BY and DISTINCT sites (a one-table FROM
/// fuses into a single pass over the source rows instead).
const JOINED: &str = "\
MINE RULE JoinedAssoc AS \
SELECT DISTINCT category AS BODY, category AS HEAD, SUPPORT, CONFIDENCE \
FROM Purchase, Product WHERE item = pitem GROUP BY customer \
EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1";

/// Figure 1's Purchase table plus the `Product` table [`JOINED`] reads.
fn joined_db() -> Database {
    let mut db = purchase_db();
    db.execute("CREATE TABLE Product (pitem VARCHAR, category VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO Product VALUES ('jackets', 'outer'), ('ski_pants', 'snow'), \
         ('hiking_boots', 'snow'), ('col_shirts', 'inner'), ('brown_boots', 'outer')",
    )
    .unwrap();
    db
}

#[test]
fn mining_is_bit_identical_across_exec_modes_and_workers() {
    let mut db = joined_db();
    db.set_reference_paths(true);
    let baseline = MineRuleEngine::new().execute(&mut db, JOINED).unwrap();
    assert_eq!(baseline.preprocess_report.fused_steps, 0);
    assert!(!baseline.rules.is_empty());
    for reference in [false, true] {
        let mut db = joined_db();
        db.set_reference_paths(reference);
        let outcome = MineRuleEngine::new().execute(&mut db, JOINED).unwrap();
        let label = format!("reference={reference}");
        assert_eq!(outcome.rules, baseline.rules, "{label}");
        assert_eq!(outcome.preprocess_report.fused_steps, 0, "{label}");
        assert_eq!(
            outcome.preprocess_report.executed, baseline.preprocess_report.executed,
            "{label}: per-step row counts"
        );
        assert_eq!(
            outcome.preprocess_report.total_groups, baseline.preprocess_report.total_groups,
            "{label}"
        );
        assert_eq!(
            outcome.preprocess_report.min_groups, baseline.preprocess_report.min_groups,
            "{label}"
        );
    }
}
