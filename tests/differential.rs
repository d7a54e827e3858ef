//! Differential testing: the full pipeline (translator → preprocessor →
//! core operator → postprocessor) against the brute-force reference
//! evaluator of MINE RULE's operational semantics, on randomized small
//! datasets across every statement class. Datasets are generated from
//! per-test seeds, so every run checks the same deterministic battery.

use datagen::rng::Rng;

use minerule::reference::reference_mine;
use minerule::{parse_mine_rule, DecodedRule, MineRuleEngine};
use relational::Database;

const CASES: u64 = 32;

// The dataset generators live in the fuzz harness
// (`tcdm_fuzz::grammar`) so the differential fuzzer and this suite draw
// from one scenario space: Purchase-like tables with deterministic
// expensive/cheap item prices.
use tcdm_fuzz::grammar::{build_purchase_db, random_purchases};

fn compare(db: &mut Database, statement: &str) {
    let stmt = parse_mine_rule(statement).unwrap();
    let expected = reference_mine(db, &stmt).unwrap();
    let outcome = MineRuleEngine::new().execute(db, statement).unwrap();
    let norm = |rules: &[DecodedRule]| -> Vec<(Vec<String>, Vec<String>, String, String)> {
        let mut v: Vec<_> = rules
            .iter()
            .map(|r| {
                (
                    r.body.to_vec(),
                    r.head.to_vec(),
                    format!("{:.6}", r.support),
                    format!("{:.6}", r.confidence),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        norm(&outcome.rules),
        norm(&expected),
        "pipeline vs reference diverge on:\n{statement}"
    );
}

/// Run `statement` (a closure so each case can vary thresholds) against
/// `CASES` deterministic random databases.
fn check_class(seed: u64, statement: impl Fn(&mut Rng) -> String) {
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..CASES {
        let purchases = random_purchases(&mut rng);
        let mut db = build_purchase_db(&purchases);
        let stmt = statement(&mut rng);
        compare(&mut db, &stmt);
    }
}

#[test]
fn simple_class_matches_reference() {
    check_class(0xD0, |rng| {
        let support = [0.2, 0.4, 0.6][rng.gen_range_usize(0, 3)];
        let confidence = [0.1, 0.5][rng.gen_range_usize(0, 2)];
        format!(
            "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        )
    });
}

#[test]
fn wide_heads_match_reference() {
    check_class(0xD1, |_| {
        "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..2 item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1"
            .into()
    });
}

#[test]
fn mining_condition_matches_reference() {
    check_class(0xD2, |_| {
        "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
         SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 \
         FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1"
            .into()
    });
}

#[test]
fn clustered_statement_matches_reference() {
    check_class(0xD3, |_| {
        "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer CLUSTER BY date \
         EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1"
            .into()
    });
}

#[test]
fn temporal_statement_matches_reference() {
    // The paper's full shape: mining condition + ordered clusters.
    check_class(0xD4, |_| {
        "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, \
         SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 \
         FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < HEAD.date \
         EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1"
            .into()
    });
}

#[test]
fn group_having_matches_reference() {
    check_class(0xD5, |_| {
        "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer HAVING COUNT(item) >= 2 \
         EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1"
            .into()
    });
}

#[test]
fn source_condition_matches_reference() {
    check_class(0xD6, |_| {
        "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase WHERE price < 125 GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.2"
            .into()
    });
}

#[test]
fn coupled_mining_condition_matches_reference() {
    // A condition relating BODY and HEAD attributes of the *pair*
    // (not decomposable per side) exercises the Q8 join fully.
    check_class(0xD7, |_| {
        "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
         SUPPORT, CONFIDENCE WHERE BODY.price > HEAD.price \
         FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1"
            .into()
    });
}

#[test]
fn aggregate_cluster_condition_matches_reference() {
    check_class(0xD8, |_| {
        "MINE RULE Diff AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
         CLUSTER BY date HAVING SUM(BODY.price) > SUM(HEAD.price) \
         EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1"
            .into()
    });
}

#[test]
fn cross_schema_matches_reference() {
    // H = true: body on item, head on qty (deterministic dataset).
    let mut db = build_purchase_db(&[
        vec![(0, 1), (0, 5), (1, 5)],
        vec![(0, 1), (1, 5)],
        vec![(0, 2), (1, 1)],
    ]);
    let stmt = "MINE RULE Diff AS SELECT DISTINCT 1..1 item AS BODY, 1..1 qty AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1";
    let parsed = parse_mine_rule(stmt).unwrap();
    let expected = reference_mine(&mut db, &parsed).unwrap();
    let outcome = MineRuleEngine::new().execute(&mut db, stmt).unwrap();
    assert_eq!(outcome.rules, expected);
    assert!(!outcome.rules.is_empty());
}
