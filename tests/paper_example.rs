//! Golden reproduction of the paper's §2 worked example (Figures 1, 2a,
//! 2b) through the full public API — experiment ids F1, F2a, F2b of
//! DESIGN.md.

use minerule::paper_example::{
    purchase_db, run_paper_example, FIGURE_2B, FILTERED_ORDERED_SETS, PURCHASE_ROWS,
};
use minerule::{parse_mine_rule, Directives, MineRuleEngine, StatementClass};
use relational::Value;

#[test]
fn f1_purchase_table_matches_figure_1() {
    let mut db = purchase_db();
    let rs = db
        .query("SELECT tr, customer, item, price, qty FROM Purchase ORDER BY tr, item")
        .unwrap();
    assert_eq!(rs.len(), PURCHASE_ROWS.len());
    // Spot-check the first and last Figure 1 rows.
    assert_eq!(rs.rows()[0][2], Value::Str("hiking_boots".into()));
    assert_eq!(rs.rows()[0][3], Value::Int(180));
    let last = rs.rows().last().unwrap();
    assert_eq!(last[0], Value::Int(4));
    assert_eq!(last[4], Value::Int(2), "qty of the 2 jackets in tr 4");
}

#[test]
fn f2a_clusters_match_figure_2a() {
    let mut db = purchase_db();
    // Figure 2a: cust1 has clusters 12/17 (2 items) and 12/18 (1 item);
    // cust2 has 12/18 (3 items) and 12/19 (2 items).
    let rs = db
        .query(
            "SELECT customer, COUNT(DISTINCT date) AS clusters FROM Purchase \
             GROUP BY customer ORDER BY customer",
        )
        .unwrap();
    assert_eq!(rs.rows()[0][1], Value::Int(2));
    assert_eq!(rs.rows()[1][1], Value::Int(2));
}

#[test]
fn f2b_rules_match_figure_2b_exactly() {
    let (_, outcome) = run_paper_example().unwrap();
    let mut got: Vec<(Vec<String>, Vec<String>, f64, f64)> = outcome
        .rules
        .iter()
        .map(|r| (r.body.to_vec(), r.head.to_vec(), r.support, r.confidence))
        .collect();
    got.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut expected: Vec<(Vec<String>, Vec<String>, f64, f64)> = FIGURE_2B
        .iter()
        .map(|(b, h, s, c)| {
            (
                b.iter().map(|x| x.to_string()).collect(),
                h.iter().map(|x| x.to_string()).collect(),
                *s,
                *c,
            )
        })
        .collect();
    expected.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    assert_eq!(got.len(), expected.len(), "{got:#?}");
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g.0, e.0, "body");
        assert_eq!(g.1, e.1, "head");
        assert!((g.2 - e.2).abs() < 1e-9, "support of {:?}", g.0);
        assert!((g.3 - e.3).abs() < 1e-9, "confidence of {:?}", g.0);
    }
}

#[test]
fn f2b_output_tables_are_sql3_style_relations() {
    let (mut db, _) = run_paper_example().unwrap();
    // The rule table has the normalised schema of §4.4.
    let rs = db
        .query("SELECT BodyId, HeadId, SUPPORT, CONFIDENCE FROM FilteredOrderedSets")
        .unwrap();
    assert_eq!(rs.len(), 3);
    // The bodies table decodes each BodyId to its items.
    let rs = db
        .query(
            "SELECT item FROM FilteredOrderedSets_Bodies \
             WHERE BodyId IN (SELECT BodyId FROM FilteredOrderedSets) ORDER BY item",
        )
        .unwrap();
    assert!(rs.len() >= 3);
    // Every head is col_shirts.
    let rs = db
        .query("SELECT DISTINCT item FROM FilteredOrderedSets_Heads")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Str("col_shirts".into()));
}

#[test]
fn paper_statement_classification() {
    let stmt = parse_mine_rule(FILTERED_ORDERED_SETS).unwrap();
    let d = Directives::classify(&stmt);
    assert!(d.w && d.m && d.c && d.k);
    assert!(!d.h && !d.g && !d.f && !d.r);
    assert_eq!(d.class(), StatementClass::General);
}

#[test]
fn rerun_after_cleanup_is_idempotent() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new();
    let first = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
    let second = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
    assert_eq!(first.rules, second.rules);
}

#[test]
fn source_condition_filters_1996_purchases() {
    // Add a 1996 purchase that would otherwise create a new rule; the
    // FROM..WHERE of the statement must exclude it (step 1 of §2).
    let mut db = purchase_db();
    db.execute(
        "INSERT INTO Purchase VALUES \
         (5, 'cust1', 'jackets', DATE '1996-01-05', 300, 1), \
         (6, 'cust1', 'col_shirts', DATE '1996-01-06', 25, 1)",
    )
    .unwrap();
    let outcome = MineRuleEngine::new()
        .execute(&mut db, FILTERED_ORDERED_SETS)
        .unwrap();
    assert_eq!(outcome.rules.len(), FIGURE_2B.len(), "{:#?}", outcome.rules);
}
