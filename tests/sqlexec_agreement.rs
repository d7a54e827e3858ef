//! Compiled vs interpreted expression execution must be observationally
//! identical: same rows, same errors, same mined rules, same
//! preprocessing reports. The compiled path is the production path; the
//! interpreter survives as the expression leg of the database's
//! reference paths (`Database::set_reference_paths`), and this suite is
//! the contract that keeps the two interchangeable.
//!
//! Three layers of evidence:
//!
//! 1. randomized expressions and filters (seeded, reproducible)
//!    evaluated per row on both paths, comparing the full result **or
//!    error**, over a five-row table with every value class and over a
//!    NULL-heavy 2 000-row one;
//! 2. hand-written SELECTs exercising every hot site the compiler
//!    touches (scan filters, hash joins, explicit joins, GROUP BY,
//!    DISTINCT, set operations, subquery fallback, ORDER BY), and errors
//!    that must surface at the same row on both paths;
//! 3. the paper's own statements (§2 / Appendix A shapes) and the one
//!    statement shape whose preprocessing still runs `Q0..Q11` on the SQL
//!    server — a two-table FROM — mined on both paths, asserting
//!    bit-identical rules and preprocessing reports.
//!
//! Two late-materialisation contracts of the executor ride along. The
//! cutting operators (a bounded top-k for `ORDER BY … LIMIT k`, a
//! seen-set for DISTINCT) return exactly the first `k` rows of the full
//! stable sort, and agree with an oracle computed outside the engine.
//! A cost-planned join that builds only the columns its statement reads
//! answers — and fails — exactly like the written-order fold, which
//! builds them all.

use datagen::rng::Rng;
use minerule::paper_example::{purchase_db, FIGURE_2B, FILTERED_ORDERED_SETS};
use minerule::preprocess::run_steps;
use minerule::{parse_mine_rule, translate, MineRuleEngine};
use relational::{Database, Value};
use tcdm_fuzz::grammar::{abcs_table, gen_expr, ExprCols};

/// Evaluate `sql` on a fresh fixture database — on the reference paths or
/// the production ones — rendering the result-or-error for comparison.
/// Errors are part of the observable contract: a path that fails
/// differently (or at a different row) is a regression even if
/// successful queries agree.
fn run(build: impl Fn() -> Database, reference: bool, sql: &str) -> String {
    let mut db = build();
    db.set_reference_paths(reference);
    format!("{:?}", db.query(sql))
}

fn assert_paths_agree(build: impl Fn() -> Database + Copy, sql: &str) {
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

/// Rows in the multi-row fixture ([`null_heavy_fixture`]).
const NULL_HEAVY_ROWS: usize = 2_000;

/// The same columns as [`expr_fixture`] over [`NULL_HEAVY_ROWS`] rows,
/// NULL-heavy in `b` and `s`.
fn null_heavy_fixture() -> Database {
    abcs_table(NULL_HEAVY_ROWS)
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

#[test]
fn randomized_expressions_agree_on_a_null_heavy_table() {
    let mut rng = Rng::seed_from_u64(0x0bac_ed10);
    let cols = ExprCols::abcs_fixture();
    for i in 0..60 {
        let expr = gen_expr(&mut rng, 3, &cols);
        let sql = format!("SELECT {expr} AS v FROM t");
        let compiled = run(null_heavy_fixture, false, &sql);
        let interpreted = run(null_heavy_fixture, true, &sql);
        assert_eq!(compiled, interpreted, "case {i}: paths disagree on {sql}");
    }
}

#[test]
fn randomized_filters_agree_on_a_null_heavy_table() {
    let mut rng = Rng::seed_from_u64(0x0bac_ed20);
    let cols = ExprCols::abcs_fixture();
    for i in 0..40 {
        let pred = gen_expr(&mut rng, 3, &cols);
        let sql = format!("SELECT a, s FROM t WHERE {pred}");
        let compiled = run(null_heavy_fixture, false, &sql);
        let interpreted = run(null_heavy_fixture, true, &sql);
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
    // Subqueries: planned with the statement and run once in production
    // (a grouped expression or an aggregate's argument included), run at
    // every evaluation on the reference paths.
    "SELECT item FROM Purchase WHERE price > \
     (SELECT AVG(price) FROM Purchase) ORDER BY item",
    "SELECT item FROM Purchase WHERE item NOT IN \
     (SELECT item FROM Purchase WHERE qty > 1) ORDER BY item",
    "SELECT DISTINCT customer FROM Purchase WHERE NOT EXISTS \
     (SELECT tr FROM Purchase WHERE price > 1000) ORDER BY customer",
    "SELECT customer, SUM(price + (SELECT MIN(qty) FROM Purchase)) FROM Purchase \
     GROUP BY customer HAVING COUNT(*) > (SELECT MIN(qty) FROM Purchase) ORDER BY 1",
    "SELECT item FROM Purchase ORDER BY price * (SELECT MAX(qty) FROM Purchase), item",
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
fn hot_sites_agree_on_empty_single_and_null_heavy_tables() {
    // One query per per-row site: scan filter, projection, GROUP BY
    // bucketing, DISTINCT dedup, hash-join keys.
    for rows in [0, 1, NULL_HEAVY_ROWS] {
        for sql in [
            "SELECT a, b + 1, UPPER(s) FROM t WHERE a % 2 = 0 AND c < 100.0",
            "SELECT CASE WHEN b IS NULL THEN -1 ELSE a * b END FROM t",
            "SELECT s, COUNT(*), SUM(a) FROM t GROUP BY s ORDER BY s",
            "SELECT DISTINCT b, s FROM t ORDER BY b, s",
            "SELECT COUNT(*) FROM t t1, t t2 WHERE t1.a = t2.b",
        ] {
            let compiled = run(|| abcs_table(rows), false, sql);
            let interpreted = run(|| abcs_table(rows), true, sql);
            assert_eq!(
                compiled, interpreted,
                "rows={rows}: paths disagree on {sql}"
            );
        }
    }
}

/// Run the DML statement `dml` on a fresh fixture database on one path,
/// rendering its outcome — rows affected, or the error — and the table
/// it leaves behind.
fn run_dml(build: impl Fn() -> Database, reference: bool, dml: &str) -> String {
    let mut db = build();
    db.set_reference_paths(reference);
    let outcome = db.execute(dml).map(|o| o.rows_affected);
    format!("{outcome:?} {:?}", db.query("SELECT * FROM t"))
}

#[test]
fn randomized_deletes_and_updates_agree() {
    // DELETE's predicate and UPDATE's SET and WHERE expressions are
    // planned once per statement: compiled in production, interpreted on
    // the reference paths. Both must delete and write the same rows, and
    // fail with the same error at the same row (an UPDATE also when a
    // value does not fit its column).
    let mut rng = Rng::seed_from_u64(0xd31e_7e00);
    let cols = ExprCols::abcs_fixture();
    for (fixture, cases) in [
        (expr_fixture as fn() -> Database, 150),
        (null_heavy_fixture, 25),
    ] {
        for i in 0..cases {
            let pred = gen_expr(&mut rng, 3, &cols);
            let expr = gen_expr(&mut rng, 2, &cols);
            for dml in [
                format!("DELETE FROM t WHERE {pred}"),
                format!("UPDATE t SET c = {expr} WHERE {pred}"),
                format!("UPDATE t SET b = {expr}, s = 'x' WHERE {pred}"),
                format!("UPDATE t SET a = {expr}"),
            ] {
                let compiled = run_dml(fixture, false, &dml);
                let interpreted = run_dml(fixture, true, &dml);
                assert_eq!(compiled, interpreted, "case {i}: paths disagree on {dml}");
            }
        }
    }
    // Expressions that reach the engine (a subquery, a sequence draw)
    // and ones that fail on a given row.
    for dml in [
        "DELETE FROM t WHERE a > (SELECT MIN(a) FROM t)",
        "DELETE FROM t WHERE a IN (SELECT b FROM t)",
        "UPDATE t SET b = (SELECT MAX(a) FROM t) WHERE c > 0",
        "UPDATE t SET b = (SELECT MIN(a) FROM t) WHERE a NOT IN (SELECT b FROM t)",
        "DELETE FROM t WHERE 10 / a > 2",
        "UPDATE t SET a = a * 9223372036854775807 WHERE b IS NULL",
        "UPDATE t SET a = 'text' WHERE a > 0",
        "DELETE FROM t WHERE missing = 1",
        "DELETE FROM t",
    ] {
        for fixture in [expr_fixture as fn() -> Database, null_heavy_fixture] {
            let compiled = run_dml(fixture, false, dml);
            let interpreted = run_dml(fixture, true, dml);
            assert_eq!(compiled, interpreted, "paths disagree on {dml}");
        }
    }
    // Production compiles each expression once per statement; the
    // reference paths compile none.
    for (reference, programs) in [(false, 3), (true, 0)] {
        let mut db = null_heavy_fixture();
        db.set_reference_paths(reference);
        let before = db.stats().programs_compiled;
        db.execute("DELETE FROM t WHERE a = -5").unwrap();
        db.execute("UPDATE t SET b = b + 1 WHERE a = -5").unwrap();
        assert_eq!(db.stats().programs_compiled - before, programs);
    }
}

#[test]
fn errors_surface_at_the_same_row() {
    // A predicate-guarded division places the first failing row on the
    // first, a middle or the last row (`a` is `i - 2`, so row index k
    // fails when `a = k - 2`); both paths must report the identical error.
    for rows in [1, NULL_HEAVY_ROWS] {
        for fail_at in [0, rows / 2, rows - 1] {
            let k = fail_at as i64 - 2;
            let sql = format!("SELECT CASE WHEN a = {k} THEN 1 / 0 ELSE a END FROM t");
            let compiled = run(|| abcs_table(rows), false, &sql);
            let interpreted = run(|| abcs_table(rows), true, &sql);
            assert_eq!(compiled, interpreted, "rows={rows} fail_at={fail_at}");
        }
    }
    // Constant erroring expressions fail on the first row either way.
    for sql in [
        "SELECT 1 / 0 FROM t",
        "SELECT a FROM t WHERE 1 / 0",
        "SELECT a / (b - b) FROM t",
    ] {
        assert_paths_agree(null_heavy_fixture, sql);
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
    // INT arithmetic that leaves the 64-bit range — and a date moved out
    // of its range — is the one typed error on both paths, never a
    // wrapped value or an abort.
    let extremes = || {
        let mut db = Database::new();
        db.execute("CREATE TABLE big (a INT, d DATE)").unwrap();
        db.execute(
            "INSERT INTO big VALUES (-9223372036854775807, DATE '2000-01-01'), \
             (-9223372036854775807, DATE '2000-01-02')",
        )
        .unwrap();
        db
    };
    for sql in [
        "SELECT (a - 1) % -1 FROM big",
        "SELECT 9223372036854775807 + 1 FROM big",
        "SELECT a - 2 FROM big",
        "SELECT a * 2 FROM big",
        "SELECT SUM(a) FROM big",
        "SELECT -(a - 1) FROM big",
        "SELECT ABS(a - 1) FROM big",
        "SELECT d + 4294967296 FROM big",
        "SELECT d - 4294967296 FROM big",
        "SELECT d - a FROM big",
    ] {
        for reference in [false, true] {
            let got = run(extremes, reference, sql);
            assert!(
                got.contains("Arithmetic { message: \"integer overflow\" }"),
                "reference={reference}: {sql} gave {got}"
            );
        }
    }
    // In range, the same operators still compute.
    let in_range = "SELECT a - 1, ABS(a), -a, d + 1, d - 1, d - d, a % -1 FROM big";
    assert_paths_agree(extremes, in_range);
    assert!(run(extremes, false, in_range).starts_with("Ok("));
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
        // ...and whole statements agree on both paths.
        for reference in [false, true] {
            let mut db = purchase_db();
            db.set_reference_paths(reference);
            let outcome = MineRuleEngine::new().execute(&mut db, stmt).unwrap();
            let label = format!("reference={reference}");
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
fn a_joined_from_mines_bit_identically_on_both_paths() {
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
        assert_eq!(rule.body.as_slice(), *body);
        assert_eq!(rule.head.as_slice(), *head);
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
    // A grouped body's ORDER BY, on an aggregate and on a key.
    assert_top_k_is_a_sorted_prefix("SELECT g, COUNT(*) FROM k GROUP BY g ORDER BY 2 DESC, g");
    assert_top_k_is_a_sorted_prefix("SELECT s, MAX(f) FROM k GROUP BY s ORDER BY s DESC");
}

/// `SELECT [DISTINCT] <out> FROM <all> ORDER BY <keys> LIMIT <limit>`
/// computed outside the engine over the table's rows in scan order:
/// DISTINCT keeps each projected row's first occurrence (with that
/// row's keys), ORDER BY is a stable sort on [`Value::total_cmp`]
/// (`(column, ascending)`, NULLs first), LIMIT takes the prefix.
fn cutting_oracle(
    all: &[Vec<Value>],
    out: &[usize],
    keys: &[(usize, bool)],
    distinct: bool,
    limit: usize,
) -> Vec<Vec<Value>> {
    let mut rows: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    for r in all {
        let projected: Vec<Value> = out.iter().map(|&c| r[c].clone()).collect();
        if distinct && rows.iter().any(|(p, _)| *p == projected) {
            continue;
        }
        rows.push((projected, keys.iter().map(|&(c, _)| r[c].clone()).collect()));
    }
    rows.sort_by(|(_, a), (_, b)| {
        let mut ord = std::cmp::Ordering::Equal;
        for ((x, y), &(_, asc)) in a.iter().zip(b).zip(keys) {
            ord = ord.then_with(|| if asc { x.total_cmp(y) } else { y.total_cmp(x) });
        }
        ord
    });
    rows.truncate(limit);
    rows.into_iter().map(|(p, _)| p).collect()
}

#[test]
fn the_cutting_select_matches_a_stable_sort_oracle() {
    // (table, its columns, row count, cases: DISTINCT, output columns,
    // ORDER BY keys). Ties in every key, NULLs, NaN and -0.0 (`k`),
    // DESC, keys that are not projected, and over `t` enough rows that
    // a LIMIT 20 top-k evicts.
    type Case = (bool, &'static [usize], &'static [(usize, bool)]);
    let k_cases: &[Case] = &[
        (false, &[0, 1, 2, 3], &[(1, true)]),
        (false, &[0, 1, 2, 3], &[(1, false)]),
        (false, &[0, 1, 2, 3], &[(2, true)]),
        (false, &[0, 1, 2, 3], &[(2, false), (0, false)]),
        (false, &[0, 1, 2, 3], &[(3, true), (1, false)]),
        (false, &[3], &[(1, false), (2, true)]),
        (false, &[1, 3], &[]),
        (true, &[1, 3], &[(3, false)]),
        (true, &[2], &[(2, false)]),
        (true, &[3], &[(1, true)]),
        (true, &[1], &[]),
    ];
    let t_cases: &[Case] = &[
        (false, &[0, 1, 3], &[(3, true), (1, false)]),
        (false, &[2], &[(3, false)]),
        (false, &[1, 3], &[(1, true)]),
        (true, &[3, 1], &[(1, true)]),
        (true, &[1], &[(3, false), (1, true)]),
        (true, &[3], &[]),
    ];
    type Fixture = (
        fn() -> Database,
        &'static str,
        [&'static str; 4],
        &'static [Case],
    );
    let tables: [Fixture; 2] = [
        (topk_fixture, "k", ["id", "g", "f", "s"], k_cases),
        (null_heavy_fixture, "t", ["a", "b", "c", "s"], t_cases),
    ];
    for (build, table, names, cases) in tables {
        for reference in [false, true] {
            let mut db = build();
            db.set_reference_paths(reference);
            let all = db
                .query(&format!("SELECT * FROM {table}"))
                .unwrap()
                .into_rows();
            let n = all.len();
            for &(distinct, out, keys) in cases {
                let cols: Vec<&str> = out.iter().map(|&c| names[c]).collect();
                let order: Vec<String> = keys
                    .iter()
                    .map(|&(c, asc)| format!("{}{}", names[c], if asc { "" } else { " DESC" }))
                    .collect();
                let head = format!(
                    "SELECT {}{} FROM {table}{}",
                    if distinct { "DISTINCT " } else { "" },
                    cols.join(", "),
                    if order.is_empty() {
                        String::new()
                    } else {
                        format!(" ORDER BY {}", order.join(", "))
                    },
                );
                for limit in [
                    None,
                    Some(0),
                    Some(1),
                    Some(20),
                    Some(n - 1),
                    Some(n),
                    Some(n + 1),
                ] {
                    let sql = match limit {
                        Some(l) => format!("{head} LIMIT {l}"),
                        None => head.clone(),
                    };
                    let got = db.query(&sql).unwrap().into_rows();
                    let want = cutting_oracle(&all, out, keys, distinct, limit.unwrap_or(n));
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "reference={reference}: {sql}"
                    );
                }
            }
        }
    }
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

/// `k` — NULL join keys, NULLs in every aggregated column, strings and
/// floats (`-0.0` beside `0.0`); `e`, with `k`'s key columns and no
/// rows; `big`, whose INT sum over its self-join overflows; `mixed`,
/// whose positive and negative parts each leave `i64` while some sums
/// stay in it.
fn counted_fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE k (id INT, g INT, v INT, s VARCHAR, f FLOAT, d DATE);
         INSERT INTO k VALUES (1, 1, 5, 'a', 1.5, DATE '1995-01-02'),
           (2, 1, NULL, 'b', -0.0, NULL), (3, 2, -7, NULL, 0.0, DATE '1994-12-31'),
           (4, NULL, 9, 'c', NULL, DATE '1995-03-01'), (5, 2, 3, 'a', 2.5, NULL),
           (6, 3, 0, 'b', -1.0, DATE '1995-01-02');
         CREATE TABLE e (id INT, g INT);
         CREATE TABLE big (g INT, x INT);
         INSERT INTO big VALUES (1, 9223372036854775807), (1, 1), (2, 3);
         CREATE TABLE mixed (g INT, x INT);
         INSERT INTO mixed VALUES (1, 9223372036854775807), (1, -9223372036854775807);
         CREATE VIEW kv AS SELECT g, v FROM k WHERE v IS NOT NULL",
    )
    .unwrap();
    db
}

#[test]
fn counted_joins_answer_and_fail_like_the_fold() {
    for sql in [
        // NULL keys never match; NULLs are not counted by COUNT(col).
        "SELECT COUNT(*) FROM k a, k b WHERE a.g = b.g",
        "SELECT COUNT(*), COUNT(a.v), COUNT(b.s), COUNT(a.f) FROM k a, k b WHERE a.g = b.g",
        "SELECT SUM(a.v), SUM(b.v), MIN(b.s), MAX(a.s), MIN(a.f), MAX(b.f), MIN(a.d), \
         MAX(b.d) FROM k a, k b WHERE a.g = b.g",
        "SELECT MIN(a.v), MAX(a.v), MIN(b.id) FROM k a, k b WHERE a.s = b.s",
        // Empty factors, keyed and key-less.
        "SELECT COUNT(*), COUNT(a.v), SUM(a.v), MIN(a.s), MAX(e.g) FROM k a, e \
         WHERE a.id = e.id",
        "SELECT COUNT(*), SUM(k.v) FROM k, e",
        "SELECT COUNT(*) FROM e x, e y",
        // Key-less cross products, three ways, with aggregated columns.
        "SELECT COUNT(*) FROM k x, k y, k z",
        "SELECT COUNT(*), SUM(y.v), MAX(z.s), COUNT(x.f) FROM k x, k y, k z",
        // Self-joins on several keys, and a pushed filter.
        "SELECT COUNT(*), SUM(b.v) FROM k a, k b WHERE a.g = b.g AND a.s = b.s",
        "SELECT COUNT(*), MIN(b.f) FROM k a, k b WHERE a.g = b.g AND a.v > 0",
        // Three-way chains: connected, and written disconnected.
        "SELECT COUNT(*), MIN(c.v), MAX(a.s) FROM k a, k b, k c \
         WHERE a.g = b.g AND b.id = c.id",
        "SELECT COUNT(*), SUM(c.v) FROM k a, k c, k b WHERE a.g = b.g AND b.v = c.v",
        "SELECT COUNT(*) FROM k a, k b, k c, k d WHERE a.g = b.g AND c.s = d.s",
        // An explicit JOIN, a view and a derived table as factors.
        "SELECT COUNT(*), SUM(c.v) FROM k a JOIN k b ON a.id = b.id, k c WHERE a.g = c.g",
        "SELECT COUNT(*), SUM(kv.v) FROM kv, k WHERE kv.g = k.g",
        "SELECT COUNT(*), MAX(d.m) FROM k a, (SELECT g, s AS m FROM k) d WHERE a.g = d.g",
        // Values whose aggregate depends on row order: the row path.
        "SELECT MIN(d.m), MAX(d.m) FROM k a, (SELECT id, CASE WHEN id > 3 THEN 1.0 \
         ELSE id END AS m FROM k) d WHERE a.id = d.id",
        "SELECT SUM(a.f), AVG(b.v), COUNT(DISTINCT a.g) FROM k a, k b WHERE a.g = b.g",
        // INT sums: an overflow, and mixed signs that may or may not.
        "SELECT SUM(a.x) FROM big a, big b WHERE a.g = b.g",
        "SELECT COUNT(*), SUM(b.x) FROM big a, big b WHERE a.g = b.g",
        "SELECT SUM(b.x) FROM mixed a, mixed b WHERE a.g = b.g",
        "SELECT SUM(a.x) FROM mixed a, mixed b WHERE a.g = b.g",
        "SELECT SUM(a.x), COUNT(*) FROM mixed a, mixed b",
        // Columns that do not resolve: raised only over joined rows.
        "SELECT COUNT(v) FROM k a, k b WHERE a.g = b.g",
        "SELECT COUNT(a.nosuch) FROM k a, k b WHERE a.g = b.g",
        "SELECT COUNT(nosuch), MIN(a.nosuch) FROM k a, e WHERE a.id = e.id",
        // ORDER BY an output, LIMIT, INTO.
        "SELECT COUNT(*) AS n FROM k a, k b WHERE a.g = b.g ORDER BY n LIMIT 0",
        "SELECT COUNT(*), MAX(b.s) FROM k a, k b WHERE a.g = b.g ORDER BY 2 DESC LIMIT 1",
        "SELECT COUNT(*) INTO :n FROM k a, k b WHERE a.g = b.g",
    ] {
        assert_paths_agree(counted_fixture, sql);
    }
}

#[test]
fn a_counted_join_counts_its_rows_and_builds_its_entries() {
    let mut db = counted_fixture();
    let before = db.stats();
    let rs = db
        .query("SELECT COUNT(*) FROM k a, k b WHERE a.g = b.g")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(9)));
    let after = db.stats();
    // The joined rows are counted as the row path counts them; one entry
    // is built: nothing is read after the step.
    assert_eq!(after.rows_joined - before.rows_joined, 9);
    assert_eq!(after.join_tuples - before.join_tuples, 1);
    db.set_reference_paths(true);
    let before = db.stats();
    db.query("SELECT COUNT(*) FROM k a, k b WHERE a.g = b.g")
        .unwrap();
    let after = db.stats();
    assert_eq!(after.rows_joined - before.rows_joined, 9);
    assert_eq!(after.join_tuples - before.join_tuples, 9);
}

#[test]
fn a_count_beyond_i64_is_the_overflow_error() {
    // 6^24 rows fit in `i64`; 6^25 do not. Only the counted join can
    // answer these: the fold would build every row.
    let mut db = counted_fixture();
    let cross = |n: usize| {
        let from: Vec<String> = (0..n).map(|i| format!("k t{i}")).collect();
        format!("SELECT COUNT(*) FROM {}", from.join(", "))
    };
    let rs = db.query(&cross(24)).unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(6i64.pow(24))));
    let err = db.query(&cross(25)).unwrap_err();
    assert_eq!(err.to_string(), "arithmetic error: integer overflow");
}
