//! Planner agreement: the cost-based planner (statistics-driven join
//! ordering, build-side selection) and the fused preprocess pass — every
//! statement class — must be observably identical to the written-order
//! fold and the step-by-step `Qi` program — bit-identical rules, rows *and row order*
//! — across grammar-generated workloads and worker counts. The fold and
//! the stepwise program are the planning legs of the database's
//! reference paths (`Database::set_reference_paths`). The second half
//! pins the catalog-statistics maintenance the planner relies on:
//! incremental upkeep across INSERT/UPDATE/DELETE/TRUNCATE, version
//! stamping, and survival of a persist/reload cycle.

use minerule::core_op::{run_core, CoreOptions};
use minerule::encoded::read_encoded;
use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::postprocess::{decode_rules, postprocess, read_rules, store_encoded_rules};
use minerule::preprocess::{preprocess, preprocess_for_core, run_steps, Preprocessed};
use minerule::translator::Step;
use minerule::{parse_mine_rule, translate, ArtifactStore, DecodedRule, MineRuleEngine};
use relational::{persist, Database, StorageBackend, Value};
use tcdm_fuzz::grammar::{gen_case, GenConfig};
use tcdm_fuzz::matrix::{diverges_between, Config, Skew};
use tcdm_fuzz::Op;

fn work_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcdm_planner_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A simple-class statement over the paper's Purchase table.
const SIMPLE: &str = "MINE RULE R AS \
    SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
    FROM Purchase GROUP BY customer \
    EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";

// ---------------------------------------------------------------------
// Agreement across the reference × workers cross-product
// ---------------------------------------------------------------------

#[test]
fn grammar_cases_agree_across_planner_sqlexec_and_workers() {
    // Grammar-generated workloads (DDL + DML + SELECTs + MINE RULE)
    // replayed on the production and the reference paths at every worker
    // count must produce outcomes bit-identical to the baseline: same
    // rule signatures (float bits included), same sorted SELECT rows,
    // same DML counts, same error texts.
    let dir = work_dir("grammar");
    let base = Config::baseline();
    assert!(base.reference, "the baseline folds in written order");
    let gen_cfg = GenConfig::default();
    for case_no in 0..4 {
        let case = gen_case(0x51A77, case_no, &gen_cfg);
        for reference in [true, false] {
            for workers in [1usize, 2, 4] {
                let variant = Config {
                    reference,
                    workers,
                    ..base
                };
                if variant == base {
                    continue;
                }
                let tag = format!("pa{case_no}_{reference}_{workers}");
                if let Some(d) = diverges_between(&case, &base, &variant, Skew::None, &dir, &tag) {
                    panic!("case {case_no} diverged:\n{d}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Everything a preprocessing run leaves behind that a later component
/// (or a user) can read: every encoded object that exists, in stored
/// order and with its column names and types, the id-sequence states and
/// the host variables.
#[derive(Debug, PartialEq)]
struct Encoding {
    objects: Vec<(String, Vec<String>, Vec<String>)>,
    sequences: Vec<(String, i64, i64)>,
    vars: (Option<Value>, Option<Value>),
}

const ENCODED_OBJECTS: [&str; 8] = [
    "ValidGroups",
    "Bset",
    "Hset",
    "Clusters",
    "ClusterCouples",
    "MiningSource",
    "CodedSource",
    "InputRules",
];

/// What the stepwise program materialises on the way and the fused pass
/// never does.
const SUBSUMED: [&str; 6] = [
    "Source",
    "ValidGroupsView",
    "DistinctGroupsInBody",
    "DistinctGroupsInHead",
    "InputRulesRaw",
    "LargeRules",
];

fn encoding(db: &mut Database) -> Encoding {
    let mut objects = Vec::new();
    for name in ENCODED_OBJECTS {
        if let Ok(table) = db.catalog().table(name) {
            let columns = table
                .schema()
                .columns()
                .iter()
                .map(|c| format!("{} {}", c.name, c.dtype))
                .collect();
            let rows = table.rows().iter().map(|r| format!("{r:?}")).collect();
            objects.push((name.to_string(), columns, rows));
        } else if db.catalog().has_view(name) {
            let rs = db.query(&format!("SELECT * FROM {name}")).unwrap();
            let columns = rs
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            let rows = rs.rows().iter().map(|r| format!("{r:?}")).collect();
            objects.push((format!("{name} (view)"), columns, rows));
        }
    }
    Encoding {
        objects,
        sequences: db.catalog().sequence_states(),
        vars: (db.var("totg").cloned(), db.var("mingroups").cloned()),
    }
}

/// Preprocess `stmt` on `fused` through [`preprocess_for_core`] and on `stepwise`
/// through the written SQL program (both on the production paths, so
/// fusion is the only difference) and demand the *exact* same encoding:
/// schema, rows, row order, id assignment, sequence states, host
/// variables — and the core's input the fused pass hands over equal to
/// the one read back from its tables ([`assert_handover_agrees`]).
/// Returns how many SQL steps the fused pass subsumed.
fn assert_same_encoding(fused: &mut Database, stepwise: &mut Database, stmt: &str) -> usize {
    let parsed = parse_mine_rule(stmt).unwrap();
    let translation = translate(&parsed, fused.catalog()).unwrap();
    let min_support = translation.stmt.min_support;

    let fused_run = preprocess_for_core(fused, &translation);
    run_steps(stepwise, &translation.cleanup, min_support).unwrap();
    let stepwise_report = run_steps(stepwise, &translation.preprocess, min_support);
    let (fused_run, stepwise_report) = match (fused_run, stepwise_report) {
        (Ok(f), Ok(s)) => (f, s),
        (Err(f), Err(s)) => {
            assert_eq!(f.to_string(), s.to_string(), "{stmt}");
            assert_eq!(
                encoding(fused),
                encoding(stepwise),
                "after the error: {stmt}"
            );
            return 0;
        }
        (f, s) => panic!("only one side failed: {f:?} vs {s:?}\n{stmt}"),
    };
    assert_eq!(encoding(fused), encoding(stepwise), "{stmt}");
    let fused_report = &fused_run.report;
    assert_eq!(
        (fused_report.total_groups, fused_report.min_groups),
        (stepwise_report.total_groups, stepwise_report.min_groups),
        "{stmt}"
    );
    assert_eq!(stepwise_report.fused_steps, 0);
    if fused_report.fused_steps > 0 {
        for name in SUBSUMED {
            assert!(
                !fused.catalog().has_table(name) && !fused.catalog().has_view(name),
                "the fused pass left {name}: {stmt}"
            );
        }
        // The fused pass reports each table it creates under the id of
        // the step that fills it, with the rows that step leaves there.
        for (id, name) in [
            ("Q2", "ValidGroups"),
            ("Q3", "Bset"),
            ("Q5", "Hset"),
            ("Q6", "Clusters"),
            ("Q7", "ClusterCouples"),
            ("Q4", "CodedSource"),
            ("Q4b", "MiningSource"),
            ("Q10", "InputRules"),
        ] {
            let reported: Vec<usize> = fused_report
                .executed
                .iter()
                .filter(|(step, _)| step == id)
                .map(|(_, rows)| *rows)
                .collect();
            match stepwise.catalog().table(name) {
                Ok(table) => assert_eq!(reported, [table.row_count().max(1)], "{id}: {stmt}"),
                Err(_) => assert!(reported.is_empty(), "{id}: {stmt}"),
            }
        }
        assert_handover_agrees(fused, &translation, &fused_run);
    } else {
        let handed_over = fused_run.encoded_input(&translation).unwrap();
        assert!(
            handed_over.is_none(),
            "the stepwise program hands none over"
        );
    }
    fused_report.fused_steps
}

/// The input the fused pass handed over equals `read_encoded` on the
/// same database: cold, and after a capture and a restore into the
/// artifact store — at the cold thresholds (the stored input shared) and
/// at a tighter support and another confidence (stamped anew). Leaves the
/// database as the cold run left it.
fn assert_handover_agrees(
    db: &mut Database,
    translation: &minerule::Translation,
    run: &Preprocessed,
) {
    let stmt = &translation.stmt;
    let handed_over = run.encoded_input(translation).unwrap();
    let handed_over = handed_over.expect("the fused pass hands its input over");
    let read_back = read_encoded(db, translation);
    assert_eq!(Ok(&*handed_over), read_back.as_ref(), "cold: {stmt:?}");

    let store = ArtifactStore::new(true);
    store.capture_encoding(db, translation, "", run);
    let mut tighter = translation.clone();
    tighter.stmt.min_support = (stmt.min_support * 1.5).min(1.0);
    tighter.stmt.min_confidence = 1.0 - stmt.min_confidence / 2.0;
    // The cold thresholds last, so the database ends as it started.
    for translation in [&tighter, translation] {
        let restored = store.restore_encoding(db, translation, "").unwrap();
        let restored = restored.expect("a tighter support restores");
        let handed_over = restored.encoded_input(translation).unwrap();
        let handed_over = handed_over.expect("a restore hands the input over");
        let read_back = read_encoded(db, translation);
        assert_eq!(Ok(&*handed_over), read_back.as_ref(), "restored: {stmt:?}");
    }
}

/// The statements of `tests/statement_classes.rs` that read one table:
/// W, G+R, M, C, C+K, F, H with cardinalities, multi-attribute schemas,
/// the paper's W+M+C+K statement, and the simple ones around them.
const STATEMENT_CLASSES: [&str; 12] = [
    SIMPLE,
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
     FROM Purchase GROUP BY tr EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
     FROM Purchase WHERE price < 200 GROUP BY tr \
     EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.3",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
     FROM Purchase GROUP BY customer HAVING COUNT(item) >= 4 \
     EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.4",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
     WHERE BODY.price >= 100 AND HEAD.price < 100 FROM Purchase GROUP BY tr \
     EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.3",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
     WHERE BODY.price >= 100 AND HEAD.price < 100 FROM Purchase GROUP BY customer \
     CLUSTER BY date EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
     FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < HEAD.date \
     EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
    "MINE RULE R AS SELECT DISTINCT 1..1 item AS BODY, 1..1 qty AS HEAD, SUPPORT, CONFIDENCE \
     FROM Purchase GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.3",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
     FROM Purchase GROUP BY customer CLUSTER BY date HAVING SUM(BODY.price) > SUM(HEAD.price) \
     EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1",
    "MINE RULE R AS SELECT DISTINCT 1..n item, qty AS BODY, 1..1 item, qty AS HEAD, \
     SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
     EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
     WHERE -(-BODY.price) >= 100 AND HEAD.price < 100 FROM Purchase GROUP BY tr \
     EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.3",
    FILTERED_ORDERED_SETS,
];

#[test]
fn fused_and_naive_preprocessing_materialise_identical_encoded_tables() {
    // The fused pass must leave the *exact* encoded tables the SQL
    // program leaves, for every statement class.
    for stmt in STATEMENT_CLASSES {
        let steps = assert_same_encoding(&mut purchase_db(), &mut purchase_db(), stmt);
        let translation = translate(&parse_mine_rule(stmt).unwrap(), purchase_db().catalog());
        let subsumed = translation
            .unwrap()
            .preprocess
            .iter()
            .filter(|s| matches!(s, Step::Sql { id, .. } if id != "DDL"))
            .count();
        assert_eq!(steps, subsumed, "every non-DDL step is subsumed: {stmt}");
    }
    assert_eq!(
        assert_same_encoding(&mut purchase_db(), &mut purchase_db(), SIMPLE),
        6
    );
    assert_eq!(
        assert_same_encoding(
            &mut purchase_db(),
            &mut purchase_db(),
            FILTERED_ORDERED_SETS
        ),
        14,
        "Q0, Q1, 2×Q2, 2×Q3, Q6, Q7, 2×Q4b, Q11, Q8, Q9, Q10"
    );

    // End to end, the reference paths (which never fuse) decode the same
    // rules as the fused production run, at every worker count.
    for stmt in STATEMENT_CLASSES {
        let mine = |reference: bool, workers: usize| {
            let mut db = purchase_db();
            db.set_reference_paths(reference);
            let engine = MineRuleEngine::new().with_workers(workers);
            let outcome = engine.execute(&mut db, stmt).unwrap();
            (outcome.rules, outcome.preprocess_report.fused_steps)
        };
        let (reference, stepwise_steps) = mine(true, 1);
        assert_eq!(stepwise_steps, 0);
        for workers in [1, 2, 4] {
            let (production, fused_steps) = mine(false, workers);
            assert!(fused_steps > 0, "{stmt}");
            assert_eq!(production, reference, "workers {workers}: {stmt}");
        }
    }
}

#[test]
fn generated_statements_encode_identically_fused_and_stepwise() {
    // Grammar-generated sessions, replayed on two equal databases: every
    // MINE RULE statement preprocesses fused on one and step by step on
    // the other; DML in between keeps moving the source.
    let gen_cfg = GenConfig::default();
    let (mut mines, mut fused, mut general, mut decoded) = (0, 0, 0, 0);
    let mut case_no = 0;
    while mines < 240 {
        let case = gen_case(0xF05ED, case_no, &gen_cfg);
        case_no += 1;
        let (mut a, mut b) = (Database::new(), Database::new());
        for sql in case.setup_statements() {
            a.execute(&sql).unwrap();
            b.execute(&sql).unwrap();
        }
        for op in &case.ops {
            match op {
                Op::Dml(sql) => {
                    let (ra, rb) = (a.execute(sql), b.execute(sql));
                    assert_eq!(ra.is_ok(), rb.is_ok(), "{sql}");
                }
                Op::Query(_) => {}
                Op::Mine(stmt) => {
                    mines += 1;
                    let steps = assert_same_encoding(&mut a, &mut b, stmt);
                    let parsed = parse_mine_rule(stmt).unwrap();
                    assert_eq!(steps > 0, parsed.from.len() == 1, "{stmt}");
                    fused += usize::from(steps > 0);
                    general += usize::from(steps > 0 && stmt.contains("CLUSTER BY"));
                    decoded += usize::from(assert_same_decoding(&mut a, &mut b, stmt));
                }
            }
        }
    }
    assert!(fused >= 200, "{fused} of {mines} statements fused");
    assert!(general >= 30, "{general} clustered statements fused");
    assert!(decoded >= 200, "{decoded} of {mines} statements decoded");
}

/// Mine the encoding [`assert_same_encoding`] left on both databases and
/// decode the rules through [`decode_rules`] on `fused` and through the
/// written store → `P1`–`P3` → read-back route on `written`; demand the
/// *exact* same six output tables and the same rules. `false` when the
/// statement's preprocessing failed (nothing to decode).
fn assert_same_decoding(fused: &mut Database, written: &mut Database, stmt: &str) -> bool {
    let translation = translate(&parse_mine_rule(stmt).unwrap(), fused.catalog()).unwrap();
    let (Ok(encoded), Ok(_)) = (
        read_encoded(fused, &translation),
        read_encoded(written, &translation),
    ) else {
        return false;
    };
    let mined = run_core(&encoded, &CoreOptions::default()).unwrap();
    let decoded = decode_rules(fused, &translation, &mined.rules).unwrap();
    assert_eq!(decoded.fused_steps, 3, "{stmt}");
    store_encoded_rules(written, &translation, &mined.rules).unwrap();
    postprocess(written, &translation).unwrap();
    assert_eq!(
        decoded.rules,
        read_rules(written, &translation).unwrap(),
        "{stmt}"
    );
    let out = &translation.stmt.output_table;
    assert_eq!(
        output_tables(fused, out, ""),
        output_tables(written, out, ""),
        "{stmt}"
    );
    true
}

/// A Purchase-shaped table with the given rows.
fn purchases(rows: &str) -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE Purchase (tr INT, customer VARCHAR, item VARCHAR, \
         date DATE, price INT, qty INT)",
    )
    .unwrap();
    if !rows.is_empty() {
        db.execute(&format!("INSERT INTO Purchase VALUES {rows}"))
            .unwrap();
    }
    db
}

#[test]
fn hand_written_edge_sources_encode_identically() {
    // NULL group / cluster / item keys group but never join; duplicate
    // source rows; one (group, cluster, item) with two prices (two
    // MiningSource rows, one CodedSource row); NULL prices under the
    // mining condition.
    let edgy = "(1, 'c1', 'a', DATE '1995-03-01', 120, 1), \
                (1, 'c1', 'a', DATE '1995-03-01', 120, 1), \
                (1, 'c1', 'a', DATE '1995-03-01', 20, 1), \
                (1, 'c1', 'b', DATE '1995-03-02', 30, 2), \
                (2, NULL, 'a', DATE '1995-03-01', 120, 1), \
                (2, NULL, 'b', DATE '1995-03-02', 30, 1), \
                (3, 'c2', NULL, DATE '1995-03-01', 150, 1), \
                (3, 'c2', 'b', NULL, 30, 1), \
                (3, 'c2', 'a', DATE '1995-03-01', NULL, 1), \
                (3, 'c2', 'b', DATE '1995-03-03', 40, NULL), \
                (4, 'c3', 'a', DATE '1995-03-01', 130, 3), \
                (4, 'c3', 'b', DATE '1995-03-01', 35, 3), \
                (4, 'c3', 'c', DATE '1995-03-04', 10, 1)";
    let paper = FILTERED_ORDERED_SETS.replace("1995-01-01", "1995-03-01");
    let statements = [
        SIMPLE,
        STATEMENT_CLASSES[3],
        STATEMENT_CLASSES[4],
        STATEMENT_CLASSES[5],
        STATEMENT_CLASSES[6],
        STATEMENT_CLASSES[7],
        STATEMENT_CLASSES[8],
        STATEMENT_CLASSES[9],
        paper.as_str(),
        // Every directive at once, H included, equality across the sides.
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..2 qty AS HEAD, SUPPORT, CONFIDENCE \
         WHERE BODY.price >= HEAD.price AND BODY.price = HEAD.price OR HEAD.price IS NULL \
         FROM Purchase WHERE tr < 4 AND qty >= 1 \
         GROUP BY customer HAVING COUNT(DISTINCT item) >= 1 AND customer <> 'zz' \
         CLUSTER BY date HAVING BODY.date <= HEAD.date AND COUNT(BODY.item) >= COUNT(HEAD.qty) \
         EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1",
        // A cluster condition that is a disjunction, one side of it
        // one-sided, and a same-cluster equality.
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
         FROM Purchase GROUP BY customer \
         CLUSTER BY date HAVING BODY.date = HEAD.date OR BODY.date < DATE '1995-03-02' \
         EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1",
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
         FROM Purchase GROUP BY customer \
         CLUSTER BY date HAVING BODY.date = HEAD.date AND MAX(HEAD.price) > 20 AND 1 = 1 \
         EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1",
    ];
    for stmt in statements {
        let steps = assert_same_encoding(&mut purchases(edgy), &mut purchases(edgy), stmt);
        assert!(steps > 0, "{stmt}");
        // An empty source: every table exists and is empty, :totg is 0.
        assert!(assert_same_encoding(&mut purchases(""), &mut purchases(""), stmt) > 0);
    }
    // A disjunctive cluster condition stays under the group join: no
    // couple pairs clusters of two groups.
    let mut db = purchases(edgy);
    let disjunctive = statements[statements.len() - 2];
    let translation = translate(&parse_mine_rule(disjunctive).unwrap(), db.catalog()).unwrap();
    preprocess(&mut db, &translation).unwrap();
    let couples = db.query("SELECT COUNT(*) FROM ClusterCouples").unwrap();
    assert_ne!(couples.scalar(), Some(&Value::Int(0)));
    let strays = db
        .query(
            "SELECT COUNT(*) FROM ClusterCouples CC, Clusters B, Clusters H \
             WHERE CC.Cidb = B.Cid AND CC.Cidh = H.Cid AND B.Gid <> H.Gid",
        )
        .unwrap();
    assert_eq!(strays.scalar(), Some(&Value::Int(0)));

    // A group HAVING that rejects every group, and a source condition
    // that rejects every row.
    for stmt in [
        STATEMENT_CLASSES[3].replace(">= 4", ">= 40"),
        paper.replace("HAVING BODY.date", "HAVING 1 = 0 AND BODY.date"),
        paper.replace("1995-12-31", "1995-02-01"),
    ] {
        assert!(assert_same_encoding(&mut purchases(edgy), &mut purchases(edgy), &stmt) > 0);
    }
    // The same run twice on one database: cleanup resets the sequences.
    let (mut a, mut b) = (purchases(edgy), purchases(edgy));
    for _ in 0..2 {
        assert!(assert_same_encoding(&mut a, &mut b, &paper) > 0);
    }
}

#[test]
fn a_float_column_holding_ints_is_left_to_the_stepwise_program() {
    // `CREATE TABLE AS` types a column by its first value; with INT
    // values in a FLOAT column that depends on which rows a step sees,
    // so the fused pass declines and the encodings (or errors) agree.
    let build = |rows: &str| {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (g FLOAT, item VARCHAR, price FLOAT)")
            .unwrap();
        db.execute(&format!("INSERT INTO T VALUES {rows}")).unwrap();
        db
    };
    let stmt = "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
                WHERE BODY.price > HEAD.price FROM T GROUP BY g \
                EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1";
    let floats = "(1.0, 'a', 2.5), (1.0, 'b', 1.5), (2.5, 'a', 2.5), (2.5, 'b', 0.5)";
    assert!(assert_same_encoding(&mut build(floats), &mut build(floats), stmt) > 0);
    for mixed in [
        "(1, 'a', 2.5), (1.0, 'b', 1.5), (2.5, 'a', 2.5)",
        "(1.0, 'a', 2), (1.0, 'b', 1.5), (2.5, 'a', 2.5)",
    ] {
        assert_eq!(
            assert_same_encoding(&mut build(mixed), &mut build(mixed), stmt),
            0
        );
    }
}

#[test]
fn statements_the_fused_pass_declines_run_stepwise_and_match_the_reference() {
    // A two-table FROM (one scan cannot read a join) and a condition
    // holding a subquery (only the SQL server evaluates one) run the
    // step-by-step program even on the production paths, and still match
    // the reference bit for bit.
    let with_category = || {
        let mut db = purchase_db();
        db.execute("CREATE TABLE Category (citem VARCHAR, cat VARCHAR)")
            .unwrap();
        db.execute(
            "INSERT INTO Category VALUES ('ski_pants','wear'), ('hiking_boots','shoes'), \
             ('col_shirts','wear'), ('brown_boots','shoes'), ('jackets','wear')",
        )
        .unwrap();
        db
    };
    for stmt in [
        "MINE RULE J AS SELECT DISTINCT 1..n cat AS BODY, 1..1 cat AS HEAD, SUPPORT, CONFIDENCE \
         FROM Purchase, Category WHERE item = citem GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5",
        "MINE RULE S AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
         FROM Purchase WHERE price > (SELECT MIN(price) FROM Purchase) GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
    ] {
        assert_eq!(
            assert_same_encoding(&mut with_category(), &mut with_category(), stmt),
            0,
            "{stmt}"
        );
        let run = |reference: bool| {
            let mut db = with_category();
            db.set_reference_paths(reference);
            let outcome = MineRuleEngine::new().execute(&mut db, stmt).unwrap();
            (outcome.rules, outcome.preprocess_report.fused_steps)
        };
        let (production, production_fused) = run(false);
        let (reference, reference_fused) = run(true);
        assert_eq!((production_fused, reference_fused), (0, 0), "{stmt}");
        assert!(!production.is_empty(), "{stmt}");
        assert_eq!(production, reference, "{stmt}");
    }
}

// ---------------------------------------------------------------------
// Decode agreement: the fused postprocessing pass against P1–P3
// ---------------------------------------------------------------------

/// One stored table: `name dtype` per column, and its rows in stored
/// order. `None` when the name is not a base table.
type StoredTable = Option<(Vec<String>, Vec<String>)>;

/// The six tables the postprocessor leaves, under the engine's `prefix`.
fn output_tables(db: &Database, out: &str, prefix: &str) -> Vec<(String, StoredTable)> {
    [
        format!("{prefix}OutputRules"),
        format!("{prefix}OutputBodies"),
        format!("{prefix}OutputHeads"),
        out.to_string(),
        format!("{out}_Bodies"),
        format!("{out}_Heads"),
    ]
    .into_iter()
    .map(|name| {
        let stored = db.catalog().table(&name).ok().map(|table| {
            assert_eq!(table.name(), name, "stored under the written name");
            let columns = table.schema().columns();
            assert!(columns.iter().all(|c| c.qualifier.is_none()), "{name}");
            (
                columns
                    .iter()
                    .map(|c| format!("{} {}", c.name, c.dtype))
                    .collect(),
                table.rows().iter().map(|r| format!("{r:?}")).collect(),
            )
        });
        (name, stored)
    })
    .collect()
}

/// What a session leaves that a later statement can see: every table and
/// view name — but for the preprocessing intermediates only the stepwise
/// program materialises ([`SUBSUMED`]) — and the six output tables in full.
fn catalog_image(db: &Database, out: &str, prefix: &str) -> impl PartialEq + std::fmt::Debug {
    let kept = |name: &str| {
        !SUBSUMED
            .iter()
            .any(|s| name.eq_ignore_ascii_case(&format!("{prefix}{s}")))
    };
    let mut tables: Vec<String> = db
        .catalog()
        .table_names()
        .into_iter()
        .filter(|name| kept(name))
        .map(str::to_string)
        .collect();
    tables.sort();
    let mut views = db.catalog().view_definitions();
    views.retain(|(name, _)| kept(name));
    (tables, views, output_tables(db, out, prefix))
}

/// Run `session` (SQL and MINE RULE statements) on a production and a
/// reference database built by `setup`, each with its own engine from
/// `engine`, and demand after every MINE RULE the same outcome — rules or
/// error `Debug` text — and the same catalog image, the six output tables
/// byte for byte. Returns each successful statement's rules and the
/// production engine's counters.
fn assert_decoding_agrees(
    setup: &dyn Fn() -> Database,
    engine: &dyn Fn() -> MineRuleEngine,
    prefix: &str,
    session: &[&str],
) -> (
    Vec<Vec<DecodedRule>>,
    std::collections::BTreeMap<String, u64>,
) {
    let (mut production, mut reference) = (setup(), setup());
    reference.set_reference_paths(true);
    let (fused, written) = (engine(), engine());
    let mut mined = Vec::new();
    for stmt in session {
        if !minerule::is_mine_rule(stmt) {
            production.execute(stmt).unwrap();
            reference.execute(stmt).unwrap();
            continue;
        }
        let out = parse_mine_rule(stmt).unwrap().output_table;
        let plans_before = production.stats().planner_plans;
        let a = fused.execute(&mut production, stmt);
        let b = written.execute(&mut reference, stmt);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.rules, b.rules, "{stmt}");
                // A fused encoding plans nothing, and after it neither
                // does the postprocessor.
                if a.preprocess_report.fused_steps > 0 {
                    assert_eq!(
                        production.stats().planner_plans,
                        plans_before,
                        "no SELECT planned on the fused routes: {stmt}"
                    );
                }
                mined.push(a.rules);
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{stmt}"),
            (a, b) => panic!("only one route failed: {a:?} vs {b:?}\n{stmt}"),
        }
        assert_eq!(
            catalog_image(&production, &out, prefix),
            catalog_image(&reference, &out, prefix),
            "{stmt}"
        );
    }
    let counters = fused.metrics_snapshot().counters;
    assert!(
        !written
            .metrics_snapshot()
            .counters
            .contains_key("postprocess.fused_steps"),
        "the reference route never fuses"
    );
    (mined, counters)
}

#[test]
fn fused_and_written_decoding_leave_identical_output_tables() {
    let h_multi =
        "MINE RULE R AS SELECT DISTINCT 1..n item, qty AS BODY, 1..2 price, date AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.2";
    // (d) every SELECT list: the projection of `<out>` follows it, the
    // returned rules always carry both measures.
    let projections = [
        SIMPLE.replace(", SUPPORT, CONFIDENCE", ", SUPPORT"),
        SIMPLE.replace(", SUPPORT, CONFIDENCE", ", CONFIDENCE"),
        SIMPLE.replace(", SUPPORT, CONFIDENCE", ""),
    ];
    let mut statements: Vec<&str> = STATEMENT_CLASSES.to_vec();
    // (b) multi-attribute body *and* head over distinct schemas (H).
    statements.push(h_multi);
    statements.extend(projections.iter().map(String::as_str));
    for stmt in &statements {
        let (mined, counters) =
            assert_decoding_agrees(&purchase_db, &MineRuleEngine::new, "", &[stmt]);
        assert!(!mined[0].is_empty(), "{stmt}");
        assert_eq!(counters["postprocess.fused_steps"], 3, "{stmt}");
        assert_eq!(
            counters["postprocess.rules_decoded"],
            mined[0].len() as u64,
            "{stmt}"
        );
    }
    // (c) without H the heads decode through Bset on Hid = Bid.
    let simple = translate(&parse_mine_rule(SIMPLE).unwrap(), purchase_db().catalog()).unwrap();
    assert!(!simple.directives.h);
    let multi = translate(&parse_mine_rule(h_multi).unwrap(), purchase_db().catalog()).unwrap();
    assert!(multi.directives.h);

    // (a) an empty rule set — an empty source, and thresholds nothing
    // meets — is six empty tables with the declared column types.
    let empty = || purchases("");
    let unmet = SIMPLE.replace("GROUP BY customer", "GROUP BY tr HAVING COUNT(*) > 99");
    for (setup, stmt) in [
        (&empty as &dyn Fn() -> Database, STATEMENT_CLASSES[9]),
        (&empty, h_multi),
        (&purchase_db, unmet.as_str()),
    ] {
        let (mined, counters) = assert_decoding_agrees(setup, &MineRuleEngine::new, "", &[stmt]);
        assert!(mined[0].is_empty(), "{stmt}");
        assert_eq!(counters["postprocess.fused_steps"], 3, "{stmt}");
        let mut db = setup();
        MineRuleEngine::new().execute(&mut db, stmt).unwrap();
        for (name, stored) in output_tables(&db, "R", "") {
            let (columns, rows) = stored.unwrap_or_else(|| panic!("{name} missing"));
            assert!(rows.is_empty() && columns.len() >= 2, "{name}");
        }
    }

    // NULL items and items that render alike: rules tie on (body, head)
    // and must keep the stored order on both routes.
    let edgy = || {
        purchases(
            "(1, 'c1', 'a', DATE '1995-03-01', 120, 1), (1, 'c1', 'b', DATE '1995-03-01', 20, 1), \
             (2, 'c1', 'a', DATE '1995-03-02', 120, 1), (2, 'c1', NULL, DATE '1995-03-02', 30, 2), \
             (3, 'c2', 'a', DATE '1995-03-01', 120, NULL), (3, 'c2', 'b', DATE '1995-03-01', 20, 1)",
        )
    };
    for stmt in [SIMPLE, STATEMENT_CLASSES[1], STATEMENT_CLASSES[7], h_multi] {
        assert_decoding_agrees(&edgy, &MineRuleEngine::new, "", &[stmt]);
    }
}

#[test]
fn served_runs_decode_identically_on_both_routes() {
    // (e) refine and delta serves through the artifact store hand the
    // postprocessor rules no core run produced; a prefix moves the three
    // normalised tables.
    let tightened = SIMPLE.replace(
        "SUPPORT: 0.25, CONFIDENCE: 0.5",
        "SUPPORT: 0.5, CONFIDENCE: 0.7",
    );
    let session = [
        SIMPLE,
        tightened.as_str(),
        "INSERT INTO Purchase VALUES (9, 'c3', 'jackets', DATE '1995-12-20', 300, 1)",
        "DELETE FROM Purchase WHERE tr = 1",
        SIMPLE,
        SIMPLE,
    ];
    for prefix in ["", "S1_"] {
        let engine = || MineRuleEngine::new().with_prefix(prefix).with_cache(true);
        let (mined, counters) = assert_decoding_agrees(&purchase_db, &engine, prefix, &session);
        assert_eq!(mined.len(), 4);
        assert!(counters["core.minecache.refine"] >= 1, "{counters:?}");
        assert!(counters["core.minecache.delta"] >= 1, "{counters:?}");
        assert_eq!(counters["postprocess.fused_steps"], 12);
    }
}

#[test]
fn paged_backend_decodes_identically_and_durably() {
    // (f) the six tables reach the store with the statement: a process
    // that dies right after `execute` recovers them from the WAL.
    let root = work_dir("decode_paged");
    let next = std::cell::Cell::new(0);
    let paged = || {
        let dir = root.join(format!("db{}", next.get()));
        next.set(next.get() + 1);
        let mut db = purchase_db();
        db.set_storage_dir(&dir);
        db.set_storage(StorageBackend::Paged).unwrap();
        db
    };
    for stmt in [SIMPLE, STATEMENT_CLASSES[9], FILTERED_ORDERED_SETS] {
        assert_decoding_agrees(&paged, &MineRuleEngine::new, "", &[stmt]);
    }

    let dir = root.join("crash");
    let mut db = purchase_db();
    db.set_storage_dir(&dir);
    db.set_storage(StorageBackend::Paged).unwrap();
    let fsyncs = db.storage_stats().wal_fsyncs;
    MineRuleEngine::new().execute(&mut db, SIMPLE).unwrap();
    assert!(db.storage_stats().wal_fsyncs > fsyncs);
    let live = output_tables(&db, "R", "");
    assert!(live.iter().all(|(_, stored)| stored.is_some()));
    drop(db); // no checkpoint: whatever was not committed is lost
    let recovered = Database::open_paged(&dir).unwrap();
    assert_eq!(output_tables(&recovered, "R", ""), live);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_taken_output_name_fails_identically_on_both_routes() {
    // The cleanup drops tables, not views: a view under one of the six
    // names stops both routes at the same object with the same error, and
    // what was created before it is what the written route leaves.
    for (view, prefix) in [
        ("R_Heads", ""),
        ("R_Bodies", ""),
        ("R", "E_"),
        ("E_OutputBodies", "E_"),
        ("OutputRules", ""),
    ] {
        let setup = || {
            let mut db = purchase_db();
            db.execute(&format!("CREATE VIEW {view} AS SELECT item FROM Purchase"))
                .unwrap();
            db
        };
        let engine = || MineRuleEngine::new().with_prefix(prefix);
        for stmt in [
            SIMPLE,
            FILTERED_ORDERED_SETS
                .replace("FilteredOrderedSets", "R")
                .as_str(),
        ] {
            let (mined, counters) = assert_decoding_agrees(&setup, &engine, prefix, &[stmt]);
            assert!(mined.is_empty(), "{view} must fail the statement");
            assert!(!counters.contains_key("postprocess.fused_steps"));
        }
    }
    // A *table* under an output name is the previous run's: cleanup drops
    // it and both routes succeed.
    let setup = || {
        let mut db = purchase_db();
        db.execute("CREATE TABLE R_Heads (x INT)").unwrap();
        db
    };
    let (mined, _) = assert_decoding_agrees(&setup, &MineRuleEngine::new, "", &[SIMPLE]);
    assert_eq!(mined[0].len(), 18);
}

// ---------------------------------------------------------------------
// Catalog statistics (computed on demand, per table version)
// ---------------------------------------------------------------------

#[test]
fn stats_track_insert_update_delete_truncate() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (a INT, b TEXT)").unwrap();
    let stats = |db: &Database| {
        let t = db.catalog().table("T").unwrap();
        (t.row_count(), t.distinct(0), t.distinct(1))
    };
    assert_eq!(stats(&db), (0, Some(0), Some(0)));

    // Every answer describes the rows as they are now.
    for (a, b) in [(1, "x"), (2, "y"), (3, "x"), (3, "z")] {
        db.execute(&format!("INSERT INTO T VALUES ({a}, '{b}')"))
            .unwrap();
    }
    assert_eq!(stats(&db), (4, Some(3), Some(3)));

    // UPDATE rewrites the rows and the statistics follow.
    db.execute("UPDATE T SET b = 'x' WHERE a = 2").unwrap();
    assert_eq!(stats(&db), (4, Some(3), Some(2)));

    // DELETE: the estimate is over the survivors.
    db.execute("DELETE FROM T WHERE a = 3").unwrap();
    assert_eq!(stats(&db), (2, Some(2), Some(1)));

    // Truncation empties (the SQL surface has no TRUNCATE; the
    // engine truncates through the table API, e.g. for UPDATE rewrites).
    db.catalog_mut().table_mut("T").unwrap().truncate();
    assert_eq!(stats(&db), (0, Some(0), Some(0)));
}

#[test]
fn stats_survive_persist_and_reload() {
    let dir = work_dir("persist");
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = purchase_db();
    db.execute("INSERT INTO Purchase VALUES (10, 'c3', 'boots', DATE '2026-01-05', 140, 1)")
        .unwrap();
    let before = {
        let t = db.catalog().table("Purchase").unwrap();
        (t.row_count(), t.distinct(1))
    };
    assert_eq!(before.0, 9);
    persist::save(&db, &dir).unwrap();

    let reloaded = persist::load(&dir).unwrap();
    let t = reloaded.catalog().table("Purchase").unwrap();
    assert_eq!((t.row_count(), t.distinct(1)), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cost_planner_plans_baseref_joins_and_matches_the_naive_fold() {
    // Both join inputs resolve to base tables (BaseRef provenance); the
    // cost planner must consult their statistics (accounted through the
    // planner counters and the EXPLAIN estimates) while producing rows
    // bit-identical to the written-order fold — order included.
    let mut db = Database::new();
    db.execute("CREATE TABLE Big (k INT, pad TEXT)").unwrap();
    db.execute("CREATE TABLE Small (k INT)").unwrap();
    for i in 0..200 {
        db.execute(&format!("INSERT INTO Big VALUES ({}, 'p{i}')", i % 50))
            .unwrap();
    }
    for i in 0..5 {
        db.execute(&format!("INSERT INTO Small VALUES ({i})"))
            .unwrap();
    }
    let join = "SELECT b.k, s.k FROM Big b, Small s WHERE b.k = s.k";
    let explain = db.query(&format!("EXPLAIN {join}")).unwrap();
    let plan: Vec<String> = explain.rows().iter().map(|r| r[0].to_string()).collect();
    let plan = plan.join("\n");
    assert!(
        plan.contains("(est ") && plan.contains("cost "),
        "cost planner must annotate its estimates: {plan}"
    );

    let before = db.stats();
    let cost = db.query(join).unwrap();
    let after = db.stats();
    assert!(
        after.planner_plans > before.planner_plans,
        "the cost planner must account the planned join"
    );

    db.set_reference_paths(true);
    let naive = db.query(join).unwrap();
    assert_eq!(cost.rows(), naive.rows(), "row order must match the fold");
    assert_eq!(cost.rows().len(), 20);

    // The sequence of values matters too: canonical order is the
    // left-to-right fold's order.
    let first: Vec<&Value> = cost.rows()[0].iter().collect();
    assert_eq!(first, vec![&Value::Int(0), &Value::Int(0)]);
}
