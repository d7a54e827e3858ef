//! Vectorized vs row-at-a-time execution must be observationally
//! identical: same rows in the same order, same errors at the same row,
//! same mined rules and preprocessing reports. Every vector-safe site
//! runs batch-at-a-time in production; the row loop survives as the
//! row-flow leg of the database's reference paths
//! (`Database::set_reference_paths`). This suite is the contract that
//! keeps the two interchangeable, with the batch boundaries
//! (`VECTOR_BATCH_ROWS`) deliberately straddled.
//!
//! Three layers of evidence:
//!
//! 1. hand-written queries over tables sized exactly at, one below and
//!    one above the batch size (plus empty and single-row), NULL-heavy
//!    columns included;
//! 2. randomized expressions from the shared fuzz grammar
//!    (`tcdm_fuzz::grammar`) evaluated over a NULL-heavy multi-batch
//!    table, comparing the full result **or error** — including
//!    erroring expressions that must fail at the same row either way;
//! 3. the paper's statements mined on both paths at every worker count,
//!    asserting bit-identical rules and worker-invariant
//!    `relational.vector.*` telemetry.

use datagen::rng::Rng;
use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::MineRuleEngine;
use relational::{Database, Value, VECTOR_BATCH_ROWS};
use tcdm_fuzz::grammar::{gen_expr, ExprCols};

/// A table of `rows` rows with every value class the expression language
/// touches — ints (positive/negative/zero), floats, strings — and
/// NULL-heavy `b` and `s` columns (every 3rd and every 4th row).
fn sized_db(rows: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT, c FLOAT, s VARCHAR)")
        .unwrap();
    let table = db.catalog_mut().table_mut("t").unwrap();
    for i in 0..rows as i64 {
        let b = if i % 3 == 0 {
            Value::Null
        } else {
            Value::Int((i % 11) - 5)
        };
        let s = if i % 4 == 0 {
            Value::Null
        } else {
            Value::Str(["alpha", "Beta", "GAMMA_9"][(i % 3) as usize].to_string())
        };
        table
            .insert(vec![
                Value::Int(i - 2),
                b,
                Value::Float((i as f64) * 0.25 - 1.5),
                s,
            ])
            .unwrap();
    }
    db
}

/// Evaluate `sql` on the reference (row) or production (vector) paths,
/// rendering the result-or-error for comparison. Errors are part of the
/// observable contract: a path that fails differently (or at a different
/// row) is a regression even when successful queries agree.
fn run(build: impl Fn() -> Database, reference: bool, sql: &str) -> String {
    let mut db = build();
    db.set_reference_paths(reference);
    format!("{:?}", db.query(sql))
}

fn assert_modes_agree(build: impl Fn() -> Database + Copy, sql: &str, label: &str) {
    let row = run(build, true, sql);
    let vector = run(build, false, sql);
    assert_eq!(vector, row, "{label}: vector != row on: {sql}");
}

// ---------------------------------------------------------------------
// Layer 1: batch boundaries
// ---------------------------------------------------------------------

/// Row counts that straddle every batch boundary: empty, single row,
/// one below / exactly at / one above the batch size, and two batches.
fn boundary_sizes() -> [usize; 6] {
    [
        0,
        1,
        VECTOR_BATCH_ROWS - 1,
        VECTOR_BATCH_ROWS,
        VECTOR_BATCH_ROWS + 1,
        2 * VECTOR_BATCH_ROWS,
    ]
}

#[test]
fn batch_boundaries_agree_on_every_hot_site() {
    // One query per vectorized site: scan filter, projection, GROUP BY
    // bucketing, DISTINCT dedup, hash-join keys.
    let queries = [
        "SELECT a, b + 1, UPPER(s) FROM t WHERE a % 2 = 0 AND c < 100.0",
        "SELECT CASE WHEN b IS NULL THEN -1 ELSE a * b END FROM t",
        "SELECT s, COUNT(*), SUM(a) FROM t GROUP BY s ORDER BY s",
        "SELECT DISTINCT b, s FROM t ORDER BY b, s",
        "SELECT COUNT(*) FROM t t1, t t2 WHERE t1.a = t2.b",
    ];
    for rows in boundary_sizes() {
        let label = format!("rows={rows}");
        for sql in queries {
            assert_modes_agree(|| sized_db(rows), sql, &label);
        }
    }
}

#[test]
fn errors_surface_at_the_same_row_across_batch_boundaries() {
    // A predicate-guarded division places the first failing row at a
    // chosen position; both paths must report the identical error, even
    // when the failure sits exactly on a batch seam. (`a` is `i - 2`, so
    // row index k fails when `a = k - 2`.)
    for rows in [1, VECTOR_BATCH_ROWS, VECTOR_BATCH_ROWS + 1] {
        for fail_at in [0usize, rows / 2, rows - 1] {
            let k = fail_at as i64 - 2;
            let sql = format!("SELECT CASE WHEN a = {k} THEN 1 / 0 ELSE a END FROM t");
            let label = format!("rows={rows} fail_at={fail_at}");
            assert_modes_agree(|| sized_db(rows), &sql, &label);
        }
    }
    // Constant erroring expressions fail on the first row either way.
    for sql in [
        "SELECT 1 / 0 FROM t",
        "SELECT a FROM t WHERE 1 / 0",
        "SELECT a / (b - b) FROM t",
    ] {
        assert_modes_agree(|| sized_db(VECTOR_BATCH_ROWS + 1), sql, "constant error");
    }
}

// ---------------------------------------------------------------------
// Layer 2: randomized grammar over a multi-batch NULL-heavy table
// ---------------------------------------------------------------------

#[test]
fn randomized_expressions_agree_across_batches() {
    let mut rng = Rng::seed_from_u64(0x0bac_ed10);
    let cols = ExprCols::abcs_fixture();
    for i in 0..60 {
        let expr = gen_expr(&mut rng, 3, &cols);
        let sql = format!("SELECT {expr} AS v FROM t");
        let label = format!("case {i}");
        assert_modes_agree(|| sized_db(VECTOR_BATCH_ROWS + 1), &sql, &label);
    }
}

#[test]
fn randomized_filters_agree_across_batches() {
    let mut rng = Rng::seed_from_u64(0x0bac_ed20);
    let cols = ExprCols::abcs_fixture();
    for i in 0..40 {
        let pred = gen_expr(&mut rng, 3, &cols);
        let sql = format!("SELECT a, s FROM t WHERE {pred}");
        let label = format!("case {i}");
        assert_modes_agree(|| sized_db(VECTOR_BATCH_ROWS + 1), &sql, &label);
    }
}

// ---------------------------------------------------------------------
// Layer 3: end-to-end mining agreement + telemetry invariance
// ---------------------------------------------------------------------

const SIMPLE: &str = "\
MINE RULE SimpleAssoc AS \
SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
FROM Purchase GROUP BY customer \
EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";

#[test]
fn mining_is_bit_identical_across_exec_modes_and_workers() {
    for stmt in [SIMPLE, FILTERED_ORDERED_SETS] {
        let mut db = purchase_db();
        db.set_reference_paths(true);
        let baseline = MineRuleEngine::new().execute(&mut db, stmt).unwrap();
        for reference in [false, true] {
            for workers in [1, 2, 4] {
                let mut db = purchase_db();
                db.set_reference_paths(reference);
                let outcome = MineRuleEngine::new()
                    .with_workers(workers)
                    .execute(&mut db, stmt)
                    .unwrap();
                let label = format!("reference={reference} workers={workers}");
                assert_eq!(outcome.rules, baseline.rules, "{label}");
                // The fused pass reports its own (shorter) step list;
                // `tests/sqlexec_agreement.rs` pins the per-step counts of
                // the stepwise program on the production paths.
                if outcome.preprocess_report.fused_steps == 0 {
                    assert_eq!(
                        outcome.preprocess_report.executed, baseline.preprocess_report.executed,
                        "{label}: per-step row counts"
                    );
                }
            }
        }
    }
}

/// A two-table FROM: the one statement shape whose preprocessing still
/// runs `Q0`..`Q11` on the SQL server — and so through its vectorized
/// operators — in production. (The fused pass of every one-table
/// statement interns straight from the source rows: it pivots no batch
/// and counts none.)
const JOINED: &str = "\
MINE RULE JoinedAssoc AS \
SELECT DISTINCT category AS BODY, category AS HEAD, SUPPORT, CONFIDENCE \
FROM Purchase, Product WHERE item = pitem GROUP BY customer \
EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1";

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
fn vector_counters_publish_and_stay_worker_invariant() {
    let mut snapshots = Vec::new();
    for workers in [1usize, 2, 4] {
        let engine = MineRuleEngine::new().with_workers(workers);
        let mut db = joined_db();
        let outcome = engine.execute(&mut db, JOINED).unwrap();
        assert_eq!(outcome.preprocess_report.fused_steps, 0);
        assert!(!outcome.rules.is_empty());
        let snapshot = engine.metrics_snapshot();
        assert!(
            snapshot.counter("relational.vector.batches") > 0,
            "workers={workers}: no batches counted: {}",
            snapshot.render_text()
        );
        assert!(
            snapshot.counter("relational.vector.rows") > 0,
            "workers={workers}: no rows counted"
        );
        let vector: Vec<(String, u64)> = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("relational.vector."))
            .map(|(name, value)| (name.clone(), *value))
            .collect();
        snapshots.push((workers, vector));
    }
    for pair in snapshots.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "vector counters differ between workers={} and workers={}",
            pair[0].0, pair[1].0
        );
    }

    // The row path mints no vector counters at all, and neither does a
    // statement the fused pass encodes: counters say what ran.
    for (reference, stmt) in [(true, JOINED), (false, SIMPLE)] {
        let engine = MineRuleEngine::new();
        let mut db = joined_db();
        db.set_reference_paths(reference);
        engine.execute(&mut db, stmt).unwrap();
        let snapshot = engine.metrics_snapshot();
        assert!(
            !snapshot
                .counters
                .keys()
                .any(|k| k.starts_with("relational.vector.")),
            "reference={reference}: no batch ran, none may be counted: {}",
            snapshot.render_text()
        );
    }
}
