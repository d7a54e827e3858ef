//! Experiment T1: a matrix of MINE RULE statements covering the
//! translator's classification space (H, W, M, G, C, K, F, R) — each one
//! runs end to end and its results satisfy the operator's semantics.

use minerule::paper_example::purchase_db;
use minerule::{parse_mine_rule, Directives, MineRuleEngine, StatementClass};
use relational::{Database, Value};

fn run(db: &mut Database, stmt: &str) -> minerule::MiningOutcome {
    MineRuleEngine::new().execute(db, stmt).unwrap()
}

fn check_rule_invariants(outcome: &minerule::MiningOutcome, min_s: f64, min_c: f64) {
    for r in &outcome.rules {
        assert!(r.support + 1e-9 >= min_s, "support below threshold: {r:?}");
        assert!(
            r.confidence + 1e-9 >= min_c,
            "confidence below threshold: {r:?}"
        );
        assert!(r.confidence <= 1.0 + 1e-9 && r.support <= 1.0 + 1e-9);
        assert!(
            r.confidence + 1e-9 >= r.support,
            "confidence < support impossible: {r:?}"
        );
        assert!(!r.body.is_empty() && !r.head.is_empty());
    }
}

#[test]
fn plain_simple_statement() {
    let mut db = purchase_db();
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
                EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";
    let d = Directives::classify(&parse_mine_rule(stmt).unwrap());
    assert_eq!(d.class(), StatementClass::Simple);
    let out = run(&mut db, stmt);
    check_rule_invariants(&out, 0.25, 0.5);
    // Transactions 2 and 4 both contain {col_shirts, jackets}.
    assert!(out
        .rules
        .iter()
        .any(|r| r.body == vec!["col_shirts"] && r.head == vec!["jackets"]));
}

#[test]
fn w_source_condition_only() {
    let mut db = purchase_db();
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase WHERE price < 200 GROUP BY tr \
                EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.3";
    let d = Directives::classify(&parse_mine_rule(stmt).unwrap());
    assert!(d.w && d.class() == StatementClass::Simple);
    let out = run(&mut db, stmt);
    check_rule_invariants(&out, 0.25, 0.3);
    for r in &out.rules {
        assert!(
            !r.body.contains(&"jackets".to_string()) && !r.head.contains(&"jackets".to_string()),
            "jackets cost 300 and must be filtered by the source condition"
        );
    }
}

#[test]
fn g_group_having_filters_groups() {
    let mut db = purchase_db();
    // Only customers with at least 4 purchase rows qualify (cust2 has 5).
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer HAVING COUNT(item) >= 4 \
                EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.4";
    let d = Directives::classify(&parse_mine_rule(stmt).unwrap());
    assert!(d.g && d.r, "COUNT in HAVING sets both G and R");
    let out = run(&mut db, stmt);
    // cust1's exclusive items can never appear.
    for r in &out.rules {
        assert!(!r.body.contains(&"ski_pants".to_string()));
        assert!(!r.head.contains(&"hiking_boots".to_string()));
    }
    // Support denominator stays the total group count (Q1 runs before the
    // HAVING selection): cust2's rules have support 1/2.
    assert!(
        out.rules.iter().all(|r| (r.support - 0.5).abs() < 1e-9),
        "{:#?}",
        out.rules
    );
}

#[test]
fn m_mining_condition_without_clusters() {
    let mut db = purchase_db();
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 \
                FROM Purchase GROUP BY tr \
                EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.3";
    let d = Directives::classify(&parse_mine_rule(stmt).unwrap());
    assert!(d.m && !d.c && d.class() == StatementClass::General);
    let out = run(&mut db, stmt);
    assert!(out.used_general);
    check_rule_invariants(&out, 0.25, 0.3);
    // Bodies are expensive items, heads cheap: only col_shirts can head.
    for r in &out.rules {
        assert_eq!(r.head, vec!["col_shirts".to_string()], "{r:?}");
        assert!(!r.body.contains(&"col_shirts".to_string()));
    }
    // {brown_boots} ⇒ {col_shirts} and {jackets} ⇒ {col_shirts} hold in
    // transactions 2 and 2,4 respectively.
    assert!(out.rules.iter().any(|r| r.body == vec!["jackets"]));
}

#[test]
fn c_clusters_without_condition_pair_all_clusters() {
    let mut db = purchase_db();
    // No HAVING on CLUSTER BY: all cluster pairs (including same-date)
    // are eligible, so same-date expensive→cheap pairs count too.
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, \
                SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 \
                FROM Purchase GROUP BY customer CLUSTER BY date \
                EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3";
    let d = Directives::classify(&parse_mine_rule(stmt).unwrap());
    assert!(d.c && !d.k);
    let out = run(&mut db, stmt);
    // brown_boots (12/18) and col_shirts (12/18) now pair same-date as
    // well — the rule keeps support 0.5 but the unordered variant also
    // admits jackets ⇒ col_shirts via the same-date cluster pair.
    assert!(out
        .rules
        .iter()
        .any(|r| r.body == vec!["brown_boots"] && r.head == vec!["col_shirts"]));
    check_rule_invariants(&out, 0.2, 0.3);
}

#[test]
fn h_distinct_schemas_with_cardinalities() {
    let mut db = purchase_db();
    // Body over items, head over quantities (different attributes → H).
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..1 item AS BODY, 1..1 qty AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
                EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.3";
    let d = Directives::classify(&parse_mine_rule(stmt).unwrap());
    assert!(d.h);
    let out = run(&mut db, stmt);
    assert!(out.used_general);
    for r in &out.rules {
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.head.len(), 1);
        // Heads are quantities, i.e. integers.
        assert!(r.head[0].parse::<i64>().is_ok(), "{r:?}");
    }
    check_rule_invariants(&out, 0.5, 0.3);
}

#[test]
fn f_aggregate_cluster_condition() {
    let mut db = purchase_db();
    // Body cluster must be strictly more expensive in total than head's.
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
                CLUSTER BY date HAVING SUM(BODY.price) > SUM(HEAD.price) \
                EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1";
    let d = Directives::classify(&parse_mine_rule(stmt).unwrap());
    assert!(d.c && d.k && d.f);
    let out = run(&mut db, stmt);
    assert!(out.used_general);
    check_rule_invariants(&out, 0.2, 0.1);
    // cust1: 12/17 totals 320, 12/18 totals 300 → pair (12/17 → 12/18)
    // valid, so {ski_pants, hiking_boots} ⇒ {jackets} appears.
    assert!(
        out.rules
            .iter()
            .any(|r| r.head == vec!["jackets"] && r.body.contains(&"ski_pants".to_string())),
        "{:#?}",
        out.rules
    );
}

#[test]
fn multi_table_from_list_joins() {
    let mut db = purchase_db();
    db.execute("CREATE TABLE Category (item VARCHAR, cat VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO Category VALUES ('ski_pants','wear'), ('hiking_boots','shoes'), \
         ('col_shirts','wear'), ('brown_boots','shoes'), ('jackets','wear')",
    )
    .unwrap();
    // Mine category pairs per customer: W set by the join.
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n cat AS BODY, 1..1 cat AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase P, Category C WHERE P.item = C.item \
                GROUP BY customer \
                EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5";
    let d = Directives::classify(&parse_mine_rule(stmt).unwrap());
    assert!(d.w && d.class() == StatementClass::Simple);
    let out = run(&mut db, stmt);
    // Both customers buy wear and shoes → {wear} ⇒ {shoes} with s=1.
    assert!(out
        .rules
        .iter()
        .any(|r| r.body == vec!["wear"] && r.head == vec!["shoes"] && r.support > 0.99));
}

#[test]
fn multi_attribute_item_schema() {
    let mut db = purchase_db();
    // Items identified by (item, qty) pairs.
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item, qty AS BODY, 1..1 item, qty AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
                EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5";
    let out = run(&mut db, stmt);
    check_rule_invariants(&out, 0.5, 0.5);
    for r in &out.rules {
        // Rendered multi-attribute items look like "jackets|1".
        assert!(r.body.iter().all(|i| i.contains('|')), "{r:?}");
    }
}

#[test]
fn empty_result_when_thresholds_unreachable() {
    let mut db = purchase_db();
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
                EXTRACTING RULES WITH SUPPORT: 0.9, CONFIDENCE: 0.9";
    let out = run(&mut db, stmt);
    assert!(out.rules.is_empty());
    // The output tables still exist (empty), as a SQL user expects.
    assert_eq!(db.query("SELECT * FROM R").unwrap().len(), 0);
}

#[test]
fn select_list_without_support_confidence_columns() {
    let mut db = purchase_db();
    let stmt = "MINE RULE Bare AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD \
                FROM Purchase GROUP BY tr \
                EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";
    run(&mut db, stmt);
    let rs = db.query("SELECT * FROM Bare").unwrap();
    let cols: Vec<&str> = rs
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        cols,
        vec!["BodyId", "HeadId"],
        "no SUPPORT/CONFIDENCE columns"
    );
}

#[test]
fn body_cardinality_minimum_enforced() {
    let mut db = purchase_db();
    let stmt = "MINE RULE R AS SELECT DISTINCT 2..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
                EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1";
    let out = run(&mut db, stmt);
    assert!(!out.rules.is_empty());
    assert!(
        out.rules.iter().all(|r| r.body.len() >= 2),
        "{:#?}",
        out.rules
    );
}

#[test]
fn group_count_in_output_uses_all_groups() {
    // Support is "number of groups containing the rule / total number of
    // groups" — totals come from Q1, before any HAVING.
    let mut db = purchase_db();
    let stmt = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
                SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
                EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1";
    let out = run(&mut db, stmt);
    assert_eq!(out.preprocess_report.total_groups, 4);
    let rs = db.query("SELECT SUPPORT FROM R").unwrap();
    for row in rs.rows() {
        let s = row[0].as_float().unwrap();
        // All supports are multiples of 1/4.
        assert!((s * 4.0 - (s * 4.0).round()).abs() < 1e-9, "{s}");
    }
    let _ = Value::Null; // keep the import used in all configurations
}

/// A double negation in a source or mining condition survives the
/// translator's SQL generation (printed `-(-x)`, never `--x`, which
/// would comment out the rest of the generated line): the statement
/// mines exactly what its un-negated twin mines.
#[test]
fn double_negation_in_conditions_equals_the_plain_twin() {
    let source = |cond: &str| {
        format!(
            "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase WHERE {cond} AND qty >= 1 GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.3"
        )
    };
    let mining = |cond: &str| {
        format!(
            "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
             SUPPORT, CONFIDENCE WHERE {cond} AND HEAD.price < 100 \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.3"
        )
    };
    for (negated, plain) in [
        (source("-(-price) > 100"), source("price > 100")),
        (mining("-(-BODY.price) >= 100"), mining("BODY.price >= 100")),
    ] {
        let twin = run(&mut purchase_db(), &plain);
        let out = run(&mut purchase_db(), &negated);
        assert!(!twin.rules.is_empty(), "the twin must mine something");
        assert_eq!(out.rules, twin.rules, "{negated}");
    }
}
