//! Experiment F3/F4: the kernel's dataflow matches Figure 3a / Figure 4 —
//! every intermediate artefact of the architecture exists in the DBMS
//! with the documented shape, and the components communicate only through
//! the database and the directives.

use datagen::{generate_retail, RetailConfig};
use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::MineRuleEngine;
use relational::Value;

#[test]
fn general_statement_materialises_figure4b_tables() {
    // On the reference paths the full step-by-step Figure 4b program
    // runs, materialising every intermediate.
    let mut db = purchase_db();
    db.set_reference_paths(true);
    MineRuleEngine::new()
        .execute(&mut db, FILTERED_ORDERED_SETS)
        .unwrap();

    // Figure 4a artefacts.
    for table in ["Source", "ValidGroups", "DistinctGroupsInBody", "Bset"] {
        assert!(db.catalog().has_table(table), "{table} missing");
    }
    // Figure 4b artefacts for C=1, K=1, M=1, H=0.
    for table in [
        "Clusters",
        "ClusterCouples",
        "MiningSource",
        "InputRulesRaw",
        "LargeRules",
        "InputRules",
    ] {
        assert!(db.catalog().has_table(table), "{table} missing");
    }
    assert!(!db.catalog().has_table("Hset"), "H=0: no head encoding");
    // CodedSource is a *view* over MiningSource in the general case (Q11:
    // "there is no computation").
    assert!(db.catalog().has_view("CodedSource"));
    assert!(!db.catalog().has_table("CodedSource"));

    // :totg counts the two customers; :mingroups = ceil(2 * 0.2) = 1.
    assert_eq!(db.var("totg"), Some(&Value::Int(2)));
    assert_eq!(db.var("mingroups"), Some(&Value::Int(1)));
}

#[test]
fn simple_statement_materialises_only_figure4a_tables() {
    // On the reference paths the full step-by-step Figure 4a program
    // runs, materialising every intermediate.
    let mut db = purchase_db();
    db.set_reference_paths(true);
    MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE Simple AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap();
    // W=0: Q0 skipped, no materialised Source.
    assert!(!db.catalog().has_table("Source"));
    for table in ["ValidGroups", "DistinctGroupsInBody", "Bset", "CodedSource"] {
        assert!(db.catalog().has_table(table), "{table} missing");
    }
    for table in [
        "Clusters",
        "ClusterCouples",
        "MiningSource",
        "InputRules",
        "Hset",
    ] {
        assert!(!db.catalog().has_table(table), "{table} must not exist");
    }
}

#[test]
fn fused_preprocessing_skips_the_subsumed_intermediates() {
    // On the production paths the program runs as one fused pass: the
    // encoded outputs still materialise, but the subsumed intermediates
    // never reach the catalog. The general class first: the paper's
    // statement (W, M, C, K) leaves exactly the objects the core operator
    // and the postprocessor read.
    let mut db = purchase_db();
    let outcome = MineRuleEngine::new()
        .execute(&mut db, FILTERED_ORDERED_SETS)
        .unwrap();
    assert_eq!(outcome.preprocess_report.fused_steps, 14);
    assert_eq!(outcome.rules.len(), 3, "Figure 2b");
    for table in [
        "ValidGroups",
        "Bset",
        "Clusters",
        "ClusterCouples",
        "MiningSource",
        "InputRules",
    ] {
        assert!(db.catalog().has_table(table), "{table} missing");
    }
    assert!(db.catalog().has_view("CodedSource"), "Q11 stays a view");
    for table in [
        "Source",
        "DistinctGroupsInBody",
        "InputRulesRaw",
        "LargeRules",
        "Hset",
    ] {
        assert!(!db.catalog().has_table(table), "{table} must not exist");
    }
    assert!(!db.catalog().has_view("ValidGroupsView"));
    assert_eq!(db.var("totg"), Some(&Value::Int(2)));
    assert_eq!(db.var("mingroups"), Some(&Value::Int(1)));

    // The simple class is the degenerate case of the same pass.
    let mut db = purchase_db();
    let outcome = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE Simple AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap();
    assert_eq!(outcome.preprocess_report.fused_steps, 6);
    assert!(!db.catalog().has_table("Source"));
    for table in ["ValidGroups", "Bset", "CodedSource"] {
        assert!(db.catalog().has_table(table), "{table} missing");
    }
    assert!(
        !db.catalog().has_table("DistinctGroupsInBody"),
        "the fused pass must not materialise DistinctGroupsInBody"
    );
    assert!(
        !db.catalog().has_view("ValidGroupsView"),
        "the fused pass must not materialise the Q2 view"
    );
}

#[test]
fn coded_source_schema_adapts_to_directives() {
    // The schema of CodedSource "is not fixed, but changes depending on
    // which of C, H and M is set to true" (§4.2.2).
    let mut db = purchase_db();
    MineRuleEngine::new()
        .execute(&mut db, FILTERED_ORDERED_SETS)
        .unwrap();
    let rs = db.query("SELECT * FROM CodedSource LIMIT 1").unwrap();
    let names: Vec<&str> = rs
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, vec!["Gid", "Cid", "Bid"], "C=1, H=0");

    // A simple statement: only (Gid, Bid).
    let mut db = purchase_db();
    MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE S AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap();
    let rs = db.query("SELECT * FROM CodedSource LIMIT 1").unwrap();
    let names: Vec<&str> = rs
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(names, vec!["Gid", "Bid"]);
}

#[test]
fn bset_encodes_only_large_items() {
    let mut db = purchase_db();
    MineRuleEngine::new()
        .execute(
            &mut db,
            // support 1.0 → items must appear for *every* customer.
            "MINE RULE S AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 1.0, CONFIDENCE: 0.1",
        )
        .unwrap();
    let rs = db.query("SELECT item FROM Bset").unwrap();
    assert_eq!(rs.len(), 1, "only jackets is bought by both customers");
    assert_eq!(rs.rows()[0][0], Value::Str("jackets".into()));
}

#[test]
fn shared_preprocessing_reuse_yields_identical_rules() {
    // §3: "the same preprocessing could be in common to the execution of
    // several data mining queries, thus saving its cost."
    let data = generate_retail(&RetailConfig {
        customers: 80,
        ..RetailConfig::default()
    });
    let mut db = relational::Database::new();
    data.load(&mut db, "Purchase").unwrap();
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
                EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.2";
    let engine = MineRuleEngine::new();
    let fresh = engine.execute(&mut db, stmt).unwrap();
    let reused = engine.execute(&mut db, stmt).unwrap();
    assert_eq!(fresh.rules, reused.rules);
    assert_eq!(
        reused.preprocess_report.executed.len(),
        0,
        "no preprocessing queries on a warm rerun"
    );
}

#[test]
fn prefixed_sessions_coexist() {
    // Two engines with different table prefixes share one catalog without
    // clobbering each other's encoded tables.
    let mut db = purchase_db();
    let a = MineRuleEngine::new().with_prefix("A_");
    let b = MineRuleEngine::new().with_prefix("B_");
    let out_a = a
        .execute(
            &mut db,
            "MINE RULE RulesA AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap();
    let out_b = b
        .execute(
            &mut db,
            "MINE RULE RulesB AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1",
        )
        .unwrap();
    assert!(db.catalog().has_table("A_Bset") && db.catalog().has_table("B_Bset"));
    assert!(db.catalog().has_table("RulesA") && db.catalog().has_table("RulesB"));
    // Grouping by tr instead of customer changes supports.
    assert_ne!(out_a.rules, out_b.rules);
}

#[test]
fn algorithm_choice_is_invisible_downstream() {
    // Algorithm interoperability (§3): swapping the core algorithm leaves
    // every downstream artefact identical.
    let mut db = purchase_db();
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
                EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";
    let with_apriori = MineRuleEngine::new()
        .with_algorithm("apriori")
        .execute(&mut db, stmt)
        .unwrap();
    let rules_table_1 = db.query("SELECT * FROM R").unwrap().sorted();
    let with_partition = MineRuleEngine::new()
        .with_algorithm("partition")
        .execute(&mut db, stmt)
        .unwrap();
    let rules_table_2 = db.query("SELECT * FROM R").unwrap().sorted();
    assert_eq!(with_apriori.rules, with_partition.rules);
    assert_eq!(rules_table_1, rules_table_2);
}
