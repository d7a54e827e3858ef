//! Failure injection across the pipeline: errors at each stage must be
//! typed, descriptive and non-destructive (the session and the user's
//! data survive every failure).

use minerule::paper_example::purchase_db;
use minerule::postprocess::read_rules;
use minerule::{MineError, MineRuleEngine, SemanticViolation};
use relational::Value;

#[test]
fn syntax_error_is_reported_with_position() {
    let mut db = purchase_db();
    let err = MineRuleEngine::new()
        .execute(&mut db, "MINE RULE Broken AS SELECT")
        .unwrap_err();
    assert!(matches!(err, MineError::Syntax { .. }), "{err:?}");
}

#[test]
fn missing_source_table_is_a_sql_error() {
    let mut db = purchase_db();
    let err = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM NoSuchTable GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(matches!(err, MineError::Sql(_)), "{err:?}");
}

#[test]
fn semantic_violation_reported_before_any_side_effect() {
    let mut db = purchase_db();
    let tables_before = db.catalog().table_names().len();
    let err = MineRuleEngine::new()
        .execute(
            &mut db,
            // body overlaps grouping: check 2.
            "MINE RULE R AS SELECT DISTINCT customer AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(matches!(err, MineError::Semantic(_)));
    assert_eq!(
        db.catalog().table_names().len(),
        tables_before,
        "translation failures must not touch the catalog"
    );
}

#[test]
fn output_table_cannot_clobber_source() {
    let mut db = purchase_db();
    let err = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE Purchase AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            MineError::Semantic(SemanticViolation::OutputClobbersSource { .. })
        ),
        "{err:?}"
    );
    // Crucially, the source data is intact.
    let rs = db.query("SELECT COUNT(*) FROM Purchase").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(8)));
}

#[test]
fn preprocessing_conflict_names_the_failing_query() {
    let mut db = purchase_db();
    // A *view* named Bset survives the cleanup's DROP TABLE IF EXISTS and
    // collides with Q3's CREATE TABLE.
    db.execute("CREATE VIEW Bset AS (SELECT item FROM Purchase)")
        .unwrap();
    let err = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("Q3"), "failing query id missing: {text}");
}

/// A warm run whose restore the catalog refuses must read like a cold
/// run. After one successful mine a user *view* takes the name of an
/// encoded table; the cleanup's `DROP TABLE IF EXISTS` leaves it, so the
/// store cannot reinstate `Bset`. With the cache on or off the statement
/// then fails with the same text, leaves the same tables behind, and
/// succeeds again once the view is gone.
#[test]
fn a_restore_the_catalog_refuses_reads_like_a_cold_run() {
    const STMT: &str = "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
                        FROM Purchase GROUP BY customer \
                        EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1";
    let run = |cache: bool| {
        let mut db = purchase_db();
        let engine = MineRuleEngine::new().with_cache(cache);
        let first = engine.execute(&mut db, STMT).unwrap().rules;
        db.execute("DROP TABLE Bset").unwrap();
        db.execute("CREATE VIEW Bset AS (SELECT item FROM Purchase)")
            .unwrap();
        let error = engine.execute(&mut db, STMT).unwrap_err().to_string();
        let tables: Vec<String> = db
            .catalog()
            .table_names()
            .iter()
            .map(|t| t.to_string())
            .collect();
        db.execute("DROP VIEW Bset").unwrap();
        let again = engine.execute(&mut db, STMT).unwrap().rules;
        assert_eq!(again, first, "cache={cache}");
        (error, tables, again)
    };
    let cold = run(false);
    assert!(
        cold.0
            .contains("preprocessing query Q3 failed: view 'Bset' already exists"),
        "{}",
        cold.0
    );
    assert!(cold.1.contains(&"ValidGroups".to_string()), "{:?}", cold.1);
    assert_eq!(run(true), cold);
}

/// Reading an earlier session's rule tables back must never invent data:
/// a companion table that lost rows (a dangling `BodyId`/`HeadId`) or its
/// id column is a typed error naming the table and the id — not a rule
/// with an empty body — and a view a user put in a companion's place is
/// read through the SQL server to the same rules.
#[test]
fn read_rules_refuses_altered_companion_tables() {
    const STMT: &str = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                        SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
                        EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";
    let mined = || {
        let mut db = purchase_db();
        let outcome = MineRuleEngine::new().execute(&mut db, STMT).unwrap();
        (db, outcome)
    };
    let (mut db, outcome) = mined();
    assert_eq!(outcome.rules.len(), 18);
    assert_eq!(
        read_rules(&mut db, &outcome.translation).unwrap(),
        outcome.rules,
        "reading the tables back returns what the run returned"
    );

    // A dangling BodyId / HeadId.
    for (table, column, id) in [("R_Bodies", "BodyId", 3), ("R_Heads", "HeadId", 2)] {
        let (mut db, outcome) = mined();
        db.execute(&format!("DELETE FROM {table} WHERE {column} = {id}"))
            .unwrap();
        let err = read_rules(&mut db, &outcome.translation).unwrap_err();
        assert_eq!(
            err,
            MineError::DanglingItemset {
                rules: "R".to_string(),
                itemsets: table.to_string(),
                column,
                id,
            }
        );
        assert!(err.to_string().contains(table) && err.to_string().contains(&id.to_string()));
    }

    // A companion recreated without its id column: column 0 is not the id.
    let (mut db, outcome) = mined();
    db.execute("DROP TABLE R_Bodies").unwrap();
    db.execute("CREATE TABLE R_Bodies AS (SELECT Bid, item FROM Bset)")
        .unwrap();
    let err = read_rules(&mut db, &outcome.translation).unwrap_err();
    assert_eq!(
        err,
        MineError::Sql(relational::Error::UnknownColumn {
            name: "R_Bodies.BodyId".to_string()
        })
    );
    // ... and one dropped outright is the SQL server's unknown-table error.
    db.execute("DROP TABLE R_Bodies").unwrap();
    let err = read_rules(&mut db, &outcome.translation).unwrap_err();
    assert!(matches!(err, MineError::Sql(_)), "{err:?}");

    // A view in a companion's place decodes to the same rules.
    let (mut db, outcome) = mined();
    db.execute("CREATE TABLE Kept AS (SELECT * FROM R_Heads)")
        .unwrap();
    db.execute("DROP TABLE R_Heads").unwrap();
    db.execute("CREATE VIEW R_Heads AS SELECT item, HeadId FROM Kept")
        .unwrap();
    assert_eq!(
        read_rules(&mut db, &outcome.translation).unwrap(),
        outcome.rules
    );
}

#[test]
fn session_survives_every_failure() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new();
    let bad = [
        "MINE RULE R AS nonsense",
        "MINE RULE R AS SELECT DISTINCT ghost AS BODY, item AS HEAD FROM Purchase \
         GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
        "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM Purchase \
         GROUP BY customer EXTRACTING RULES WITH SUPPORT: 2.0, CONFIDENCE: 0.1",
    ];
    for stmt in bad {
        assert!(engine.execute(&mut db, stmt).is_err());
    }
    // After all that, a good statement still runs.
    let outcome = engine
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap();
    assert!(!outcome.rules.is_empty());
}

#[test]
fn unknown_cache_mode_is_rejected_like_an_unknown_algorithm() {
    // Every knob rejection is the one typed error; this is the value the
    // shell builds for `\set cache maybe`.
    let err = MineError::InvalidKnob {
        knob: "cache",
        value: "maybe".into(),
        domain: "on|off",
    };
    // Same user-facing shape as UnknownAlgorithm: name the offending
    // value and the valid domain.
    let message = err.to_string();
    assert!(message.contains("'maybe'"), "{message}");
    assert!(message.contains("cache"), "{message}");
    assert!(message.contains("on|off"), "{message}");
}

/// Hostile nesting must come back as a positioned parse error, not abort
/// the process: 200 000 levels of each shape the expression grammar can
/// stack, as SQL and as a MINE RULE mining condition.
#[test]
fn absurdly_deep_expressions_are_parse_errors_not_stack_overflows() {
    const N: usize = 200_000;
    let parens = format!("{}1{}", "(".repeat(N), ")".repeat(N));
    let chain = format!("1{}", "+1".repeat(N));
    let mut db = purchase_db();
    for expr in [&parens, &chain] {
        let err = db.query(&format!("SELECT {expr}")).unwrap_err();
        assert!(
            matches!(err, relational::Error::Parse { .. }),
            "{:.80}",
            err.to_string()
        );
        assert!(err.to_string().contains("nested too deeply"));
        let err = MineRuleEngine::new()
            .execute(
                &mut db,
                &format!(
                    "MINE RULE Deep AS SELECT DISTINCT item AS BODY, item AS HEAD, \
                     SUPPORT, CONFIDENCE WHERE BODY.price < {expr} \
                     FROM Purchase GROUP BY customer \
                     EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1"
                ),
            )
            .unwrap_err();
        assert!(
            matches!(err, MineError::Syntax { .. }),
            "{:.80}",
            err.to_string()
        );
    }
    for sql in [
        format!("SELECT {}1{}", "(SELECT ".repeat(N), ")".repeat(N)),
        format!("SELECT 1{}", " UNION SELECT 1".repeat(N)),
        format!("{}SELECT 1", "EXPLAIN ".repeat(N)),
    ] {
        let err = db.execute(&sql).unwrap_err();
        assert!(matches!(err, relational::Error::Parse { .. }));
    }
    // The session is intact.
    assert_eq!(
        db.query("SELECT 1 + 1").unwrap().scalar(),
        Some(&Value::Int(2))
    );
}

/// The other half of the budget's contract: the deepest tree it accepts
/// — of every shape that stacks — parses, evaluates (on both paths),
/// explains, prints, clones and drops inside this test thread's 2 MiB
/// stack in a debug build.
#[test]
fn deepest_accepted_expressions_run_inside_a_test_thread_stack() {
    use relational::sql::ast::Statement;
    use relational::sql::parser::{parse_statement, MAX_EXPR_DEPTH};
    let shapes: [fn(usize) -> String; 8] = [
        |n| format!("SELECT {}1{}", "(".repeat(n), ")".repeat(n)),
        |n| format!("SELECT 1{}", "+1".repeat(n)),
        |n| format!("SELECT {}1", "- ".repeat(n)),
        |n| format!("SELECT {}1{}", "ABS(".repeat(n), ")".repeat(n)),
        |n| {
            format!(
                "SELECT {}1{}",
                "CASE WHEN TRUE THEN ".repeat(n),
                " END".repeat(n)
            )
        },
        |n| format!("SELECT {}1{}", "(SELECT ".repeat(n), ")".repeat(n)),
        |n| format!("SELECT 1{}", " UNION SELECT 1".repeat(n)),
        |n| {
            format!(
                "SELECT item FROM Purchase WHERE price > 0{}",
                " OR price > 0".repeat(n)
            )
        },
    ];
    for shape in shapes {
        let deepest = (1..=MAX_EXPR_DEPTH)
            .rev()
            .find(|&n| parse_statement(&shape(n)).is_ok())
            .expect("some depth parses");
        assert!(
            deepest >= MAX_EXPR_DEPTH / 2 - 4,
            "the budget refuses shallow input: {deepest} levels of {:.40}",
            shape(2)
        );
        let sql = shape(deepest);
        let stmt = parse_statement(&sql).unwrap();
        for reference in [false, true] {
            let mut db = purchase_db();
            db.set_reference_paths(reference);
            let rs = db.query(&sql).unwrap_or_else(|e| panic!("{e}: {sql:.60}"));
            assert!(!rs.is_empty(), "{sql:.60}");
            // (Built, not parsed: `EXPLAIN` itself costs a level.)
            db.run_statement(Statement::Explain(Box::new(stmt.clone())))
                .unwrap();
        }
        assert!(stmt.to_string().starts_with("SELECT"), "prints: {sql:.60}");
    }
    // A mining condition at its own deepest accepted nesting is embedded
    // in generated SQL a few levels further down: the statement may be
    // refused there (a typed error), it must not abort.
    let mine = |n: usize| {
        format!(
            "MINE RULE Deep AS SELECT DISTINCT item AS BODY, item AS HEAD, \
             SUPPORT, CONFIDENCE WHERE BODY.price < HEAD.price + {}1{} \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
            "ABS(".repeat(n),
            ")".repeat(n)
        )
    };
    let deepest = (1..=MAX_EXPR_DEPTH)
        .rev()
        .find(|&n| minerule::parse_mine_rule(&mine(n)).is_ok())
        .expect("some depth parses");
    if let Err(e) = MineRuleEngine::new().execute(&mut purchase_db(), &mine(deepest)) {
        assert!(e.to_string().contains("nested too deeply"), "{e}");
    }
}

#[test]
fn a_column_two_factors_answer_to_is_ambiguous_wherever_it_is_written() {
    // `x` answers to `a.x` and `b.x`. A WHERE conjunct naming it is not
    // pushed down to the first factor that has an `x` (which read
    // `x = y` as `b.x = b.y`): like a projection or an ON condition, it
    // fails over the joined row, on the production and reference paths.
    for reference in [false, true] {
        let mut db = relational::Database::new();
        db.set_reference_paths(reference);
        for sql in [
            "CREATE TABLE a (x INT, tag VARCHAR)",
            "CREATE TABLE b (x INT, y INT)",
            "INSERT INTO a VALUES (1, 'p'), (2, 'q')",
            "INSERT INTO b VALUES (1, 1), (3, 4)",
        ] {
            db.execute(sql).unwrap();
        }
        for sql in [
            "SELECT * FROM a, b WHERE x = 1",
            "SELECT x FROM a, b",
            "SELECT * FROM a JOIN b ON x = 1",
            "SELECT COUNT(*) FROM a, b WHERE x = y",
        ] {
            let err = db.query(sql).unwrap_err();
            assert_eq!(
                err.to_string(),
                "ambiguous column 'x'",
                "{sql} (reference paths: {reference})"
            );
        }
        // Qualified, the same conjuncts push down and join as before.
        let rs = db.query("SELECT COUNT(*) FROM a, b WHERE a.x = 1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
        let rs = db.query("SELECT COUNT(*) FROM a, b WHERE b.x = y").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    }
}

#[test]
fn a_condition_failing_at_run_time_reads_the_same_on_every_path() {
    // A source, group, cluster or mining condition that fails while it is
    // evaluated (division by zero, string arithmetic): the fused pass
    // discards its work and the stepwise program reports, so the
    // production paths give the reference paths' error text and leave
    // the catalog exactly as the stepwise program leaves it — and the
    // session goes on.
    let mine = |site: &str| {
        let (mining, source, group, cluster) = match site {
            "source" => ("", " WHERE price / (price - price) > 1", "", ""),
            "source, string arithmetic" => ("", " WHERE item + 1 > 1", "", ""),
            "group" => (
                "",
                "",
                " HAVING SUM(price) / (COUNT(item) - COUNT(item)) > 1",
                "",
            ),
            "cluster" => (
                "",
                "",
                "",
                " HAVING SUM(BODY.price) / (SUM(HEAD.price) - SUM(HEAD.price)) > 1",
            ),
            "cluster, string arithmetic" => ("", "", "", " HAVING BODY.date + 'x' < HEAD.date"),
            "mining" => (
                " WHERE BODY.price / (HEAD.price - HEAD.price) > 1",
                "",
                "",
                "",
            ),
            // Failing on some rows only: one cluster of one group totals
            // 300 (a one-sided conjunct, evaluated per cluster whatever it
            // pairs with), one item costs 25 (a residual, evaluated per
            // valid pair).
            "cluster, one cluster" => (
                "",
                "",
                "",
                " HAVING BODY.date < HEAD.date AND 1 / (SUM(HEAD.price) - 300) < 1",
            ),
            "mining, some pairs" => (" WHERE BODY.price / (HEAD.price - 25) > 1", "", "", ""),
            other => panic!("{other}"),
        };
        format!(
            "MINE RULE Broken AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, \
             SUPPORT, CONFIDENCE{mining} FROM Purchase{source} GROUP BY customer{group} \
             CLUSTER BY date{cluster} EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
        )
    };
    let good = "MINE RULE Good AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
                FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < HEAD.date \
                EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1";
    let catalog = |db: &relational::Database| {
        let tables: Vec<(String, usize)> = db
            .catalog()
            .table_names()
            .into_iter()
            .map(|t| {
                let rows = db.catalog().table(t).unwrap().row_count();
                (t.to_string(), rows)
            })
            .collect();
        (
            tables,
            db.catalog().view_definitions(),
            db.catalog().sequence_states(),
        )
    };
    for site in [
        "source",
        "source, string arithmetic",
        "group",
        "cluster",
        "cluster, string arithmetic",
        "mining",
        "cluster, one cluster",
        "mining, some pairs",
    ] {
        let stmt = mine(site);
        let mut outcomes = Vec::new();
        for reference in [true, false] {
            let mut db = purchase_db();
            db.set_reference_paths(reference);
            let engine = MineRuleEngine::new();
            // A statement before, so the failure meets a used catalog.
            engine.execute(&mut db, good).unwrap();
            let err = engine.execute(&mut db, &stmt).unwrap_err();
            assert!(matches!(err, MineError::Internal { .. }), "{site}: {err:?}");
            let text = err.to_string();
            assert!(text.contains("preprocessing query Q"), "{site}: {text}");
            let left = catalog(&db);
            // The next statement on the same session succeeds.
            let after = engine.execute(&mut db, good).unwrap();
            assert!(!after.rules.is_empty(), "{site}");
            outcomes.push((text, left, after.rules));
        }
        assert_eq!(outcomes[0], outcomes[1], "{site}: production vs reference");
    }
}

#[test]
fn unknown_algorithm_fails_after_preprocessing_but_session_recovers() {
    let mut db = purchase_db();
    let mut engine = MineRuleEngine::new();
    engine.core.algorithm = "made-up".into();
    let err = engine
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(matches!(err, MineError::UnknownAlgorithm { .. }));
    // The message is user-facing: it names the offender and the pool.
    let message = err.to_string();
    assert!(message.contains("made-up"), "{message}");
    assert!(
        message.contains("apriori") && message.contains("eclat"),
        "{message}"
    );
    engine.core.algorithm = "apriori".into();
    assert!(engine
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .is_ok());
}

/// DML that fails part-way — a predicate erroring on a later row, an
/// assignment the column rejects — reports the same error whether or not
/// it holds a subquery, and leaves the source untouched: the next mine is
/// still answered by both halves of the artifact store.
#[test]
fn failing_dml_is_all_or_nothing_and_keeps_the_caches_warm() {
    const STMT: &str = "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1";
    let mut db = purchase_db();
    let engine = MineRuleEngine::new();
    let cold = engine.execute(&mut db, STMT).unwrap();
    let version = db.catalog().table("Purchase").unwrap().version();
    // `qty - 2` first hits zero on the third row: the error surfaces
    // after rows have already matched.
    for (plain, reaching) in [
        (
            "DELETE FROM Purchase WHERE price / (qty - 2) <= 0",
            "DELETE FROM Purchase WHERE price / (qty - 2) <= (SELECT MIN(0) FROM Purchase)",
        ),
        (
            "UPDATE Purchase SET price = 'steep' WHERE qty > 1",
            "UPDATE Purchase SET price = 'steep' WHERE qty > (SELECT MIN(1) FROM Purchase)",
        ),
        (
            "UPDATE Purchase SET qty = 10 / (qty - 2)",
            "UPDATE Purchase SET qty = 10 / (qty - (SELECT MIN(2) FROM Purchase))",
        ),
    ] {
        let stored = db.execute(plain).unwrap_err();
        let snapshot = db.execute(reaching).unwrap_err();
        assert_eq!(stored.to_string(), snapshot.to_string(), "{plain}");
    }
    assert_eq!(db.catalog().table("Purchase").unwrap().version(), version);
    let warm = engine.execute(&mut db, STMT).unwrap();
    assert_eq!(warm.rules, cold.rules);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("preprocess.cache.hit"), 1);
    assert_eq!(snap.counter("core.minecache.hit"), 1);
    assert_eq!(snap.counter("core.minecache.delta"), 0);
}

/// A row that fits no page is the paged backend's to refuse, and it
/// refuses it whole: a typed storage error, memory and store exactly as
/// they were (no row, no version bump, nothing logged), and the session
/// carries on — the next statement, and a reopen, see the old state. The
/// memory backend has no such limit and takes the row.
#[test]
fn a_row_no_page_can_hold_is_refused_atomically_on_the_paged_backend() {
    let dir = std::env::temp_dir().join(format!("tcdm_err_unstorable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let long = "x".repeat(5000);
    let unstorable = [
        format!("INSERT INTO t VALUES (2, '{long}')"),
        format!("INSERT INTO t VALUES (2, 'fits'), (3, '{long}')"),
        format!("UPDATE t SET b = '{long}' WHERE a = 1"),
        format!("CREATE TABLE u AS SELECT a, '{long}' AS b FROM t"),
    ];
    let mut memory = relational::Database::new();
    let mut paged = relational::Database::open_paged(&dir).unwrap();
    for db in [&mut memory, &mut paged] {
        db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one')").unwrap();
    }
    for sql in &unstorable {
        memory.execute(sql).unwrap();

        let version = paged.catalog().table("t").unwrap().version();
        let logged = paged.stats().storage_wal_appends;
        let err = paged.execute(sql).unwrap_err();
        assert!(
            matches!(err, relational::Error::Storage { .. }),
            "{err:?}: {}",
            &sql[..40]
        );
        assert!(err.to_string().contains("exceeds the page capacity"));
        assert_eq!(paged.catalog().table("t").unwrap().version(), version);
        assert!(!paged.catalog().has_table("u"));
        // The session is not wedged: reads and unrelated DDL go through,
        // and the refused statement left nothing for their sync to log.
        let rows = paged.query("SELECT a, b FROM t").unwrap();
        assert_eq!(
            rows.rows(),
            &[vec![Value::Int(1), Value::Str("one".into())]]
        );
        assert_eq!(paged.stats().storage_wal_appends, logged);
        paged.execute("CREATE TABLE other (x INT)").unwrap();
        paged.execute("DROP TABLE other").unwrap();
    }
    assert!(memory.catalog().has_table("u"), "memory took every row");
    assert_eq!(memory.catalog().table("t").unwrap().row_count(), 4);

    // A row that does fit still lands, and a reopen finds exactly it.
    paged.execute("INSERT INTO t VALUES (2, 'two')").unwrap();
    drop(paged);
    let mut reopened = relational::Database::open_paged(&dir).unwrap();
    let rows = reopened.query("SELECT a, b FROM t").unwrap();
    assert_eq!(
        rows.rows(),
        &[
            vec![Value::Int(1), Value::Str("one".into())],
            vec![Value::Int(2), Value::Str("two".into())]
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sequence draw inside an expression subquery is refused when the
/// statement is planned, before any row is read and on every path: the
/// subquery runs once per statement, so it cannot draw once per
/// evaluation. Nothing is drawn, and a draw outside a subquery still
/// draws per row.
#[test]
fn a_sequence_draw_inside_a_subquery_is_refused_when_planned() {
    for reference in [false, true] {
        let mut db = relational::Database::new();
        db.set_reference_paths(reference);
        for sql in [
            "CREATE TABLE t (a INT)",
            "CREATE TABLE e (a INT)",
            "INSERT INTO t VALUES (1), (2)",
            "CREATE SEQUENCE s",
        ] {
            db.execute(sql).unwrap();
        }
        for sql in [
            "SELECT a FROM e WHERE a > (SELECT s.NEXTVAL)",
            "SELECT a FROM t WHERE a IN (SELECT s.NEXTVAL FROM t)",
            "SELECT a FROM t WHERE EXISTS (SELECT x FROM (SELECT s.NEXTVAL AS x FROM t) d)",
            "DELETE FROM e WHERE a = (SELECT s.NEXTVAL)",
            "UPDATE t SET a = (SELECT s.NEXTVAL)",
        ] {
            let err = db.execute(sql).unwrap_err();
            assert_eq!(
                err.to_string(),
                "unsupported: sequence draw s.NEXTVAL inside a subquery",
                "{sql} (reference paths: {reference})"
            );
        }
        let rs = db.query("SELECT s.NEXTVAL FROM t").unwrap();
        assert_eq!(rs.rows(), [vec![Value::Int(1)], vec![Value::Int(2)]]);
    }
}

/// A subquery runs on its first use: one that no row reaches raises
/// nothing, a fault in running or planning it included, on every path.
#[test]
fn a_subquery_no_row_reaches_raises_nothing() {
    for reference in [false, true] {
        let mut db = relational::Database::new();
        db.set_reference_paths(reference);
        for sql in [
            "CREATE TABLE t (a INT)",
            "CREATE TABLE e (a INT)",
            "INSERT INTO t VALUES (1), (2)",
        ] {
            db.execute(sql).unwrap();
        }
        for (sql, err) in [
            (
                "a > (SELECT 1/0 FROM t)",
                "arithmetic error: division by zero",
            ),
            ("a IN (SELECT x FROM nosuch)", "unknown table 'nosuch'"),
        ] {
            let rs = db.query(&format!("SELECT a FROM e WHERE {sql}")).unwrap();
            assert!(rs.is_empty(), "{sql}");
            let found = db.query(&format!("SELECT a FROM t WHERE {sql}"));
            assert_eq!(found.unwrap_err().to_string(), err, "{sql}");
        }
    }
}

/// The cutting operators decide which rows to keep only after every item
/// and every input-side ORDER BY key of a row is evaluated: a row that a
/// LIMIT cuts, a DISTINCT drops as a duplicate or a grouped top-k leaves
/// out still raises its error, on every path.
#[test]
fn a_row_the_cut_drops_still_raises_its_error() {
    for reference in [false, true] {
        let mut db = relational::Database::new();
        db.set_reference_paths(reference);
        db.execute("CREATE TABLE t (id INT, s VARCHAR)").unwrap();
        db.execute(
            "INSERT INTO t VALUES (0, 'a'), (1, 'b'), (2, 'a'), (3, 'b'), (4, 'a'), \
             (5, 'b'), (6, 'a'), (7, 'b'), (8, 'a'), (9, 'b')",
        )
        .unwrap();
        for sql in [
            // Outside the top-k: the failing row ranks last.
            "SELECT id, 10 / (id - 9) FROM t ORDER BY id LIMIT 3",
            "SELECT id FROM t ORDER BY 10 / (9 - id), id LIMIT 3",
            "SELECT id, 10 / (id - 9) FROM t ORDER BY id DESC LIMIT 0",
            "SELECT 10 / (id - 9) FROM t LIMIT 2",
            // Only on a row DISTINCT drops as a duplicate of row 1.
            "SELECT DISTINCT s, CASE WHEN id = 7 THEN 1 / 0 ELSE 0 END FROM t",
            "SELECT DISTINCT s FROM t ORDER BY 1 / (id - 7)",
            "SELECT DISTINCT s FROM t ORDER BY s, 1 / (id - 9) LIMIT 1",
            // A group outside the top-k.
            "SELECT s, SUM(id) / (MIN(id) - 1) FROM t GROUP BY s ORDER BY s LIMIT 1",
        ] {
            let got = db.query(sql).map(|rs| rs.into_rows());
            assert_eq!(
                got.unwrap_err().to_string(),
                "arithmetic error: division by zero",
                "{sql} (reference paths: {reference})"
            );
        }
    }
}

#[test]
fn i64_min_is_written_under_a_unary_minus_and_nowhere_else() {
    let mut db = purchase_db();
    let rs = db
        .query("SELECT -9223372036854775808, - 9223372036854775808 * 1")
        .unwrap();
    assert_eq!(
        rs.rows()[0],
        vec![Value::Int(i64::MIN), Value::Int(i64::MIN)]
    );
    db.execute("CREATE TABLE m (k INT, v VARCHAR)").unwrap();
    db.execute("INSERT INTO m VALUES (-9223372036854775808, 'x'), (-09223372036854775808, 'y')")
        .unwrap();
    let rs = db
        .query("SELECT COUNT(*) FROM m WHERE k = -9223372036854775808")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    // Negating it again, or subtracting from it, is the arithmetic overflow.
    for sql in [
        "SELECT - -9223372036854775808",
        "SELECT -9223372036854775808 - 1",
    ] {
        let err = db.query(sql).unwrap_err().to_string();
        assert_eq!(err, "arithmetic error: integer overflow", "{sql}");
    }
    // Every other spelling fails as before, at the first bad literal.
    for (sql, err) in [
        (
            "SELECT 9223372036854775808",
            "lex error at 7: bad integer literal '9223372036854775808'",
        ),
        (
            "SELECT 1 -9223372036854775808",
            "lex error at 10: bad integer literal '9223372036854775808'",
        ),
        (
            "SELECT -9223372036854775809",
            "lex error at 8: bad integer literal '9223372036854775809'",
        ),
        (
            "SELECT -9223372036854775808 FROM",
            "lex error at 8: bad integer literal '9223372036854775808'",
        ),
        (
            "SELECT -9223372036854775808 'open",
            "lex error at 8: bad integer literal '9223372036854775808'",
        ),
        (
            "SELECT - 9223372036854775808, 9223372036854775808",
            "lex error at 9: bad integer literal '9223372036854775808'",
        ),
    ] {
        assert_eq!(db.query(sql).unwrap_err().to_string(), err, "{sql}");
    }
    // The MINE RULE parser shares the lexer and the rule.
    let mine = "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
                FROM Purchase WHERE price > -9223372036854775808 GROUP BY customer \
                EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1";
    assert!(minerule::parse_mine_rule(mine).is_ok());
    let broken = mine.replace("GROUP BY", "GROUP");
    let err = minerule::parse_mine_rule(&broken).unwrap_err();
    assert!(
        err.to_string()
            .contains("bad integer literal '9223372036854775808'"),
        "{err}"
    );
}
