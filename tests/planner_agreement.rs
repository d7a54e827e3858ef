//! Planner agreement: the cost-based planner (statistics-driven join
//! ordering, build-side selection) and the fused simple-class preprocess
//! pass must be observably identical to the written-order fold and the
//! step-by-step `Qi` program — bit-identical rules, rows *and row order*
//! — across grammar-generated workloads and worker counts. The fold and
//! the stepwise program are the planning legs of the database's
//! reference paths (`Database::set_reference_paths`). The second half
//! pins the catalog-statistics maintenance the planner relies on:
//! incremental upkeep across INSERT/UPDATE/DELETE/TRUNCATE, version
//! stamping, and survival of a persist/reload cycle.

use minerule::paper_example::purchase_db;
use minerule::preprocess::{preprocess, run_steps};
use minerule::{parse_mine_rule, translate, MineRuleEngine};
use relational::{persist, Database, Value};
use tcdm_fuzz::grammar::{gen_case, GenConfig};
use tcdm_fuzz::matrix::{diverges_between, Config, Skew};

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

#[test]
fn fused_and_naive_preprocessing_materialise_identical_encoded_tables() {
    // The fused pass must leave the *exact* encoded tables the SQL
    // program leaves: same schema names, same rows, same row order, same
    // Gid/Bid assignments, same host-variable bindings. Both legs run on
    // the production paths, so fusion is the only difference.
    let run = |fused: bool| {
        let mut db = purchase_db();
        let translation = translate(&parse_mine_rule(SIMPLE).unwrap(), db.catalog()).unwrap();
        let report = if fused {
            preprocess(&mut db, &translation).unwrap()
        } else {
            let min_support = translation.stmt.min_support;
            run_steps(&mut db, &translation.cleanup, min_support).unwrap();
            run_steps(&mut db, &translation.preprocess, min_support).unwrap()
        };
        let mut dump = |sql: &str| {
            let rs = db.query(sql).unwrap();
            let cols: Vec<String> = rs
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            let rows: Vec<String> = rs.rows().iter().map(|r| format!("{r:?}")).collect();
            (cols, rows)
        };
        let tables = [
            dump("SELECT * FROM ValidGroups"),
            dump("SELECT * FROM Bset"),
            dump("SELECT * FROM CodedSource"),
        ];
        let vars = (db.var("totg").cloned(), db.var("mingroups").cloned());
        (report, tables, vars)
    };
    let (fused, fused_tables, fused_vars) = run(true);
    let (naive, naive_tables, naive_vars) = run(false);

    assert_eq!(fused.fused_steps, 6);
    assert_eq!(naive.fused_steps, 0);
    assert_eq!(fused_tables, naive_tables, "encoded tables differ");
    assert_eq!(fused_vars, naive_vars, ":totg/:mingroups differ");
    assert_eq!(
        (fused.total_groups, fused.min_groups),
        (naive.total_groups, naive.min_groups)
    );

    // End to end, the reference paths (which never fuse) decode the same
    // rules as the fused production run.
    let mine = |reference: bool| {
        let mut db = purchase_db();
        db.set_reference_paths(reference);
        MineRuleEngine::new().execute(&mut db, SIMPLE).unwrap()
    };
    let (production, reference) = (mine(false), mine(true));
    assert_eq!(production.preprocess_report.fused_steps, 6);
    assert_eq!(reference.preprocess_report.fused_steps, 0);
    assert_eq!(
        production.rules, reference.rules,
        "bit-identical decoded rules"
    );
}

#[test]
fn general_class_statements_never_fuse() {
    // A statement outside the fusion gate (here: a grouped HAVING sets
    // the G directive) runs the step-by-step program even on the
    // production paths, and still matches the reference bit for bit.
    let stmt = "MINE RULE G AS \
        SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
        FROM Purchase GROUP BY customer HAVING COUNT(item) >= 2 \
        EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";
    let run = |reference: bool| {
        let mut db = purchase_db();
        db.set_reference_paths(reference);
        let outcome = MineRuleEngine::new().execute(&mut db, stmt).unwrap();
        (outcome.rules, outcome.preprocess_report.fused_steps)
    };
    let (cost_rules, cost_fused) = run(false);
    let (naive_rules, naive_fused) = run(true);
    assert_eq!(cost_fused, 0, "G directive must disable fusion");
    assert_eq!(naive_fused, 0);
    assert_eq!(cost_rules, naive_rules);
}

// ---------------------------------------------------------------------
// Catalog statistics maintenance
// ---------------------------------------------------------------------

#[test]
fn stats_track_insert_update_delete_truncate() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (a INT, b TEXT)").unwrap();
    let stats = |db: &Database| {
        let t = db.catalog().table("T").unwrap();
        assert_eq!(
            t.stats().as_of_version(),
            t.version(),
            "stats stamp must never lag the table version"
        );
        (
            t.stats().row_count(),
            t.stats().distinct(0),
            t.stats().distinct(1),
        )
    };
    assert_eq!(stats(&db), (0, Some(0), Some(0)));

    // INSERT maintains incrementally.
    for (a, b) in [(1, "x"), (2, "y"), (3, "x"), (3, "z")] {
        db.execute(&format!("INSERT INTO T VALUES ({a}, '{b}')"))
            .unwrap();
    }
    assert_eq!(stats(&db), (4, Some(3), Some(3)));

    // UPDATE rewrites the rows and the statistics follow.
    db.execute("UPDATE T SET b = 'x' WHERE a = 2").unwrap();
    assert_eq!(stats(&db), (4, Some(3), Some(2)));

    // DELETE rebuilds over the survivors (sketches cannot subtract).
    db.execute("DELETE FROM T WHERE a = 3").unwrap();
    assert_eq!(stats(&db), (2, Some(2), Some(1)));

    // Truncation resets to empty (the SQL surface has no TRUNCATE; the
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
        (t.stats().row_count(), t.stats().distinct(1))
    };
    assert_eq!(before.0, 9);
    persist::save(&db, &dir).unwrap();

    let reloaded = persist::load(&dir).unwrap();
    let t = reloaded.catalog().table("Purchase").unwrap();
    assert_eq!((t.stats().row_count(), t.stats().distinct(1)), before);
    assert_eq!(
        t.stats().as_of_version(),
        t.version(),
        "reloaded stats must describe the reloaded (fresh) version"
    );
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
