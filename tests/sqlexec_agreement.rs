//! Compiled vs interpreted expression execution must be observationally
//! identical: same rows, same errors, same mined rules, same
//! preprocessing reports. The compiled path is the production path; the
//! interpreter survives as the expression leg of the database's
//! reference paths (`Database::set_reference_paths`), and this suite is
//! the contract that keeps the two interchangeable.
//!
//! Three layers of evidence:
//!
//! 1. randomized expressions (seeded, reproducible) evaluated per row
//!    on both paths, comparing the full result **or error**;
//! 2. hand-written SELECTs exercising every hot site the compiler
//!    touches (scan filters, hash joins, explicit joins, GROUP BY,
//!    DISTINCT, set operations, subquery fallback, ORDER BY);
//! 3. the paper's own statements (§2 / Appendix A shapes) mined on both
//!    paths at every worker count, asserting bit-identical rules and
//!    preprocessing reports.
//!
//! Two late-materialisation contracts of the executor ride along:
//! `ORDER BY … LIMIT k` (a top-k selection) returns exactly the first
//! `k` rows of the full stable sort, and a cost-planned join that builds
//! only the columns its statement reads answers — and fails — exactly
//! like the written-order fold, which builds them all.

use datagen::rng::Rng;
use minerule::paper_example::{purchase_db, FIGURE_2B, FILTERED_ORDERED_SETS};
use minerule::preprocess::run_steps;
use minerule::{parse_mine_rule, translate, MineRuleEngine};
use relational::{Database, Value};
use tcdm_fuzz::grammar::{gen_expr, ExprCols};

/// Evaluate `sql` on a fresh fixture database — on the reference paths or
/// the production ones — rendering the result-or-error for comparison.
/// Errors are part of the observable contract: a path that fails
/// differently (or at a different row) is a regression even if
/// successful queries agree.
fn run(build: fn() -> Database, reference: bool, sql: &str) -> String {
    let mut db = build();
    db.set_reference_paths(reference);
    format!("{:?}", db.query(sql))
}

fn assert_paths_agree(build: fn() -> Database, sql: &str) {
    let compiled = run(build, false, sql);
    let interpreted = run(build, true, sql);
    assert_eq!(compiled, interpreted, "paths disagree on: {sql}");
}

/// A small table with every value class the expression language touches:
/// positive/negative/zero ints, floats, strings, NULLs in two columns.
fn expr_fixture() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT, c FLOAT, s VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO t VALUES \
         (1, 10, 1.5, 'alpha'), \
         (2, NULL, -2.25, 'Beta'), \
         (-3, 0, 0.0, NULL), \
         (0, 7, 100.0, 'alpha'), \
         (42, -5, 0.125, 'GAMMA_9')",
    )
    .unwrap();
    db
}

// ---------------------------------------------------------------------
// Layer 1: randomized expression agreement
// ---------------------------------------------------------------------

// The expression generator lives in the fuzz harness (`tcdm_fuzz::grammar`)
// so the differential fuzzer and this suite share one grammar; this suite
// keeps pinning the compiled-vs-interpreted contract on the fixture's
// column mix, including ill-typed and erroring expressions.

#[test]
fn randomized_expressions_agree() {
    let mut rng = Rng::seed_from_u64(0x5eed_0401);
    let cols = ExprCols::abcs_fixture();
    for i in 0..400 {
        let expr = gen_expr(&mut rng, 3, &cols);
        let sql = format!("SELECT {expr} AS v FROM t");
        let compiled = run(expr_fixture, false, &sql);
        let interpreted = run(expr_fixture, true, &sql);
        assert_eq!(compiled, interpreted, "case {i}: paths disagree on {sql}");
    }
}

#[test]
fn randomized_filters_agree() {
    // The same generator feeding WHERE exercises the scan-filter site
    // (truthiness of NULL/errors in predicate position).
    let mut rng = Rng::seed_from_u64(20260806);
    let cols = ExprCols::abcs_fixture();
    for i in 0..200 {
        let pred = gen_expr(&mut rng, 3, &cols);
        let sql = format!("SELECT a, s FROM t WHERE {pred}");
        let compiled = run(expr_fixture, false, &sql);
        let interpreted = run(expr_fixture, true, &sql);
        assert_eq!(compiled, interpreted, "case {i}: paths disagree on {sql}");
    }
}

// ---------------------------------------------------------------------
// Layer 2: hand-written query agreement over the paper's Figure 1 table
// ---------------------------------------------------------------------

const QUERIES: &[&str] = &[
    // Scan filter + projection expressions.
    "SELECT item, price * qty FROM Purchase WHERE price >= 100 ORDER BY item, 2",
    "SELECT UPPER(item), price - 100 FROM Purchase WHERE NOT (price < 100) ORDER BY 1",
    // Comma join (hash join keys) and cross join.
    "SELECT p1.item, p2.item FROM Purchase p1, Purchase p2 \
     WHERE p1.tr = p2.tr AND p1.item < p2.item ORDER BY 1, 2",
    "SELECT COUNT(*) FROM Purchase p1, Purchase p2 WHERE p1.price > p2.price",
    // Explicit JOIN ... ON (the ON-predicate site), incl. LEFT OUTER.
    "SELECT p1.item, p2.item FROM Purchase p1 JOIN Purchase p2 \
     ON p1.customer = p2.customer AND p1.date < p2.date ORDER BY 1, 2",
    "SELECT p1.tr, p2.item FROM Purchase p1 LEFT OUTER JOIN Purchase p2 \
     ON p1.price = p2.price AND p1.item <> p2.item ORDER BY 1, 2",
    // GROUP BY keys + HAVING + aggregate projections.
    "SELECT customer, COUNT(*), SUM(price * qty) FROM Purchase \
     GROUP BY customer ORDER BY customer",
    "SELECT customer, MAX(price) FROM Purchase GROUP BY customer \
     HAVING COUNT(DISTINCT item) >= 3 ORDER BY customer",
    "SELECT tr, COUNT(*) FROM Purchase WHERE price >= 25 GROUP BY tr \
     HAVING SUM(qty) > 1 ORDER BY tr",
    // DISTINCT dedup.
    "SELECT DISTINCT customer, date FROM Purchase ORDER BY customer, date",
    "SELECT DISTINCT price >= 100 FROM Purchase ORDER BY 1",
    // Set operations (zero-clone dedup paths).
    "SELECT item FROM Purchase WHERE price >= 150 UNION \
     SELECT item FROM Purchase WHERE qty >= 2 ORDER BY item",
    "SELECT item FROM Purchase WHERE customer = 'cust1' INTERSECT \
     SELECT item FROM Purchase WHERE customer = 'cust2' ORDER BY item",
    "SELECT item FROM Purchase EXCEPT \
     SELECT item FROM Purchase WHERE price < 100 ORDER BY item",
    // Subqueries: the compiler's interpreter-fallback ops.
    "SELECT item FROM Purchase WHERE price > \
     (SELECT AVG(price) FROM Purchase) ORDER BY item",
    "SELECT DISTINCT customer FROM Purchase WHERE item IN \
     (SELECT item FROM Purchase WHERE price < 100) ORDER BY customer",
    "SELECT DISTINCT p1.item FROM Purchase p1 WHERE EXISTS \
     (SELECT * FROM Purchase p2 WHERE p2.item = p1.item AND p2.qty > 1) \
     ORDER BY p1.item",
    // Derived table + outer expressions.
    "SELECT customer, total FROM \
     (SELECT customer, SUM(price * qty) AS total FROM Purchase GROUP BY customer) spend \
     WHERE total > 500 ORDER BY customer",
    // Date arithmetic (the temporal statements lean on this).
    "SELECT item FROM Purchase \
     WHERE date BETWEEN DATE '1995-12-18' AND DATE '1995-12-31' ORDER BY item",
    "SELECT COUNT(*) FROM Purchase p1, Purchase p2 \
     WHERE p1.customer = p2.customer AND p1.date < p2.date",
    // CASE + IN + LIKE through a full pipeline.
    "SELECT item, CASE WHEN price >= 100 THEN 'premium' ELSE 'basic' END \
     FROM Purchase WHERE item LIKE '%oots' OR item IN ('jackets', 'col_shirts') \
     ORDER BY item, 2",
    // LIMIT after ORDER BY.
    "SELECT item, price FROM Purchase ORDER BY price DESC, item LIMIT 3",
];

#[test]
fn handwritten_queries_agree() {
    for sql in QUERIES {
        assert_paths_agree(purchase_db, sql);
    }
}

#[test]
fn error_reporting_agrees() {
    // Per-row evaluation errors must surface identically: same variant,
    // same message, regardless of constant folding or compilation.
    for sql in [
        "SELECT price / 0 FROM Purchase",
        "SELECT price / (qty - qty) FROM Purchase",
        "SELECT item + 1 FROM Purchase",
        "SELECT ABS(item) FROM Purchase",
        "SELECT nonexistent FROM Purchase",
        "SELECT item FROM Purchase WHERE LENGTH(price) > (1 / 0)",
    ] {
        assert_paths_agree(purchase_db, sql);
    }
}

// ---------------------------------------------------------------------
// Layer 3: end-to-end mining agreement (rules + preprocessing reports)
// ---------------------------------------------------------------------

const SIMPLE: &str = "\
MINE RULE SimpleAssoc AS \
SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
FROM Purchase GROUP BY customer \
EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";

#[test]
fn mining_is_bit_identical_across_modes_and_workers() {
    for stmt in [SIMPLE, FILTERED_ORDERED_SETS] {
        let mut db = purchase_db();
        db.set_reference_paths(true);
        let baseline = MineRuleEngine::new().execute(&mut db, stmt).unwrap();
        assert_eq!(baseline.preprocess_report.fused_steps, 0);
        // The Qi program run step by step on the production paths reports
        // the reference's per-step row counts...
        let mut db = purchase_db();
        let translation = translate(&parse_mine_rule(stmt).unwrap(), db.catalog()).unwrap();
        let min_support = translation.stmt.min_support;
        run_steps(&mut db, &translation.cleanup, min_support).unwrap();
        let stepwise = run_steps(&mut db, &translation.preprocess, min_support).unwrap();
        assert_eq!(
            stepwise.executed, baseline.preprocess_report.executed,
            "per-step row counts"
        );
        // ...and whole statements agree at every worker count.
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
                if outcome.preprocess_report.fused_steps == 0 {
                    assert_eq!(
                        outcome.preprocess_report.executed, baseline.preprocess_report.executed,
                        "{label}: per-step row counts"
                    );
                }
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
    }
}

#[test]
fn compiled_mode_reproduces_figure_2b() {
    // The §2 statement on the production (compiled) path must produce
    // exactly the paper's Figure 2b rules.
    let mut db = purchase_db();
    let outcome = MineRuleEngine::new()
        .execute(&mut db, FILTERED_ORDERED_SETS)
        .unwrap();
    assert!(outcome.used_general);
    assert_eq!(outcome.rules.len(), FIGURE_2B.len());
    for (rule, (body, head, support, confidence)) in outcome.rules.iter().zip(FIGURE_2B) {
        assert_eq!(rule.body, *body);
        assert_eq!(rule.head, *head);
        assert!((rule.support - support).abs() < 1e-9);
        assert!((rule.confidence - confidence).abs() < 1e-9);
    }
}

#[test]
fn compiled_mode_publishes_compile_counters() {
    // The telemetry plumbing: production runs that execute SQL publish
    // relational.compile.* and relational.rows.*; reference runs publish
    // no compile counters. (A single-table statement fuses at both ends
    // and compiles nothing; a joined FROM still runs its Qi step by step.)
    let engine = MineRuleEngine::new();
    let mut db = purchase_db();
    db.execute("CREATE TABLE Category (citem VARCHAR, cat VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO Category VALUES ('ski_pants','wear'), ('hiking_boots','shoes'), \
         ('col_shirts','wear'), ('brown_boots','shoes'), ('jackets','wear')",
    )
    .unwrap();
    let joined = "MINE RULE J AS \
        SELECT DISTINCT 1..n cat AS BODY, 1..1 cat AS HEAD, SUPPORT, CONFIDENCE \
        FROM Purchase, Category WHERE item = citem GROUP BY customer \
        EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5";
    engine.execute(&mut db, joined).unwrap();
    let snapshot = engine.metrics_snapshot();
    for counter in [
        "relational.compile.programs",
        "relational.rows.scanned",
        "relational.rows.joined",
    ] {
        assert!(
            snapshot.counter(counter) > 0,
            "missing {counter}: {}",
            snapshot.render_text()
        );
    }

    let engine = MineRuleEngine::new();
    let mut db = purchase_db();
    db.set_reference_paths(true);
    engine.execute(&mut db, SIMPLE).unwrap();
    let snapshot = engine.metrics_snapshot();
    assert!(
        !snapshot
            .counters
            .contains_key("relational.compile.programs"),
        "interpreted runs must not mint compile counters"
    );
    assert!(
        snapshot.counter("relational.rows.scanned") > 0,
        "row counters are path-independent"
    );
}

// ---------------------------------------------------------------------
// Late materialisation: stable top-k and demanded join columns
// ---------------------------------------------------------------------

/// `k(id, g, f, s)`: nine rows with duplicate keys in every column,
/// NULLs in three of them, NaN and -0.0 among the floats.
fn topk_fixture() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE k (id INT, g INT, f FLOAT, s VARCHAR)")
        .unwrap();
    let (int, float, text) = (Value::Int, Value::Float, |s: &str| Value::Str(s.into()));
    let rows = vec![
        vec![int(0), int(2), float(1.5), text("b")],
        vec![int(1), Value::Null, float(f64::NAN), text("a")],
        vec![int(2), int(1), float(-0.0), Value::Null],
        vec![int(3), int(2), Value::Null, text("a")],
        vec![int(4), int(1), float(0.0), text("b")],
        vec![int(5), Value::Null, float(1.5), text("b")],
        vec![int(6), int(3), float(f64::NAN), text("a")],
        vec![int(7), int(2), float(-1.0), Value::Null],
        vec![int(8), int(1), float(1.5), text("a")],
    ];
    let table = db.catalog_mut().table_mut("k").unwrap();
    table.insert_all(rows).unwrap();
    db
}

/// `head LIMIT k` against the full sort of `head` truncated to `k`, for
/// `k` ∈ {0, 1, n−1, n, n+1}, on both paths.
fn assert_top_k_is_a_sorted_prefix(head: &str) {
    for reference in [false, true] {
        let mut db = topk_fixture();
        db.set_reference_paths(reference);
        let full = db.query(head).unwrap().into_rows();
        let n = full.len();
        for k in [0, 1, n.saturating_sub(1), n, n + 1] {
            let sql = format!("{head} LIMIT {k}");
            let top = db.query(&sql).unwrap().into_rows();
            let prefix = &full[..k.min(n)];
            assert_eq!(
                format!("{top:?}"),
                format!("{prefix:?}"),
                "reference={reference}: {sql}"
            );
        }
    }
}

#[test]
fn order_by_limit_is_the_prefix_of_the_stable_sort() {
    for order in [
        "g",
        "g DESC",
        "f",
        "f DESC, id DESC",
        "s, g DESC",
        "s DESC, f",
        "g DESC, s, f DESC",
        "2, 3",
    ] {
        assert_top_k_is_a_sorted_prefix(&format!("SELECT id, g, f, s FROM k ORDER BY {order}"));
    }
    // Keys that are not projected, duplicate rows, DISTINCT.
    assert_top_k_is_a_sorted_prefix("SELECT s FROM k ORDER BY g DESC, f");
    assert_top_k_is_a_sorted_prefix("SELECT DISTINCT g, s FROM k ORDER BY s DESC");
    assert_top_k_is_a_sorted_prefix("SELECT DISTINCT f FROM k ORDER BY f DESC");
    // A set operation's trailing ORDER BY.
    assert_top_k_is_a_sorted_prefix(
        "SELECT g, s FROM k WHERE id < 6 UNION ALL SELECT g, s FROM k WHERE id >= 3 ORDER BY s",
    );
    assert_top_k_is_a_sorted_prefix(
        "SELECT g, s FROM k UNION SELECT g, s FROM k WHERE id > 4 ORDER BY g DESC, s",
    );
    assert_top_k_is_a_sorted_prefix(
        "SELECT g FROM k EXCEPT SELECT g FROM k WHERE id = 6 ORDER BY 1 DESC",
    );
}

#[test]
fn pruned_join_columns_resolve_and_fail_like_the_full_join() {
    for sql in [
        // Unqualified over a self-join: ambiguous on both paths.
        "SELECT tr FROM Purchase a, Purchase b WHERE a.tr = b.tr",
        "SELECT COUNT(*) FROM Purchase a, Purchase b WHERE a.tr = b.tr GROUP BY item",
        "SELECT a.item FROM Purchase a, Purchase b WHERE a.tr = b.tr ORDER BY price",
        // Unknown columns, qualified and not.
        "SELECT nonexistent FROM Purchase a, Purchase b WHERE a.tr = b.tr",
        "SELECT a.nonexistent FROM Purchase a, Purchase b WHERE a.tr = b.tr",
        "SELECT c.item FROM Purchase a, Purchase b WHERE a.tr = b.tr",
        // Wildcards.
        "SELECT a.* FROM Purchase a, Purchase b WHERE a.tr = b.tr AND a.item < b.item \
         ORDER BY 1, 3",
        "SELECT * FROM Purchase a, Purchase b WHERE a.tr = b.tr ORDER BY 1, 3, 9",
        "SELECT c.* FROM Purchase a, Purchase b WHERE a.tr = b.tr",
        // HAVING and ORDER BY on columns that are not projected.
        "SELECT a.customer, COUNT(*) FROM Purchase a, Purchase b WHERE a.tr = b.tr \
         GROUP BY a.customer HAVING MAX(b.price) > 100 ORDER BY a.customer",
        "SELECT a.item FROM Purchase a, Purchase b WHERE a.customer = b.customer \
         ORDER BY b.date DESC, a.item, b.qty",
        // Scalar subqueries in the select list.
        "SELECT a.item, (SELECT COUNT(*) FROM Purchase) FROM Purchase a, Purchase b \
         WHERE a.tr = b.tr ORDER BY 1",
        "SELECT a.item, (SELECT MAX(price) FROM Purchase WHERE item = a.item) \
         FROM Purchase a, Purchase b WHERE a.tr = b.tr ORDER BY 1",
        // Aggregates over a self-join.
        "SELECT COUNT(*) FROM Purchase a, Purchase b WHERE a.tr = b.tr",
        "SELECT COUNT(a.item) FROM Purchase a, Purchase b WHERE a.customer = b.customer",
        "SELECT SUM(b.price), a.customer FROM Purchase a, Purchase b \
         WHERE a.customer = b.customer GROUP BY a.customer ORDER BY 2",
        // Residual conjuncts, mixed case, three factors.
        "SELECT COUNT(*) FROM Purchase a, Purchase b WHERE a.tr = b.tr AND a.item <> b.item",
        "SELECT A.ITEM, b.Qty FROM Purchase a, Purchase b WHERE a.TR = B.tr ORDER BY 1, 2",
        "SELECT c.price FROM Purchase a, Purchase b, Purchase c \
         WHERE a.tr = b.tr AND b.item = c.item AND a.qty < c.qty ORDER BY 1",
    ] {
        assert_paths_agree(purchase_db, sql);
    }
}
