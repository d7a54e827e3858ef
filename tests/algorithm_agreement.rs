//! Cross-component agreement on realistic synthetic data: the algorithm
//! pool, the general lattice and the decoupled baseline must all find the
//! same rules whenever they express the same semantics.

use datagen::{generate_quest, load_quest, QuestConfig};
use minerule::{decoupled, MineRuleEngine};
use relational::Database;

fn quest_db(transactions: usize, seed: u64) -> Database {
    let data = generate_quest(&QuestConfig {
        transactions,
        avg_transaction_size: 6.0,
        avg_pattern_size: 3.0,
        patterns: 25,
        items: 80,
        seed,
        ..QuestConfig::default()
    });
    let mut db = Database::new();
    load_quest(&data, &mut db, "Baskets").unwrap();
    db
}

const STATEMENT: &str = "MINE RULE QuestRules AS \
    SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
    FROM Baskets GROUP BY tr \
    EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.4";

#[test]
fn pool_members_agree_on_quest_data() {
    let mut db = quest_db(400, 11);
    let mut reference: Option<Vec<String>> = None;
    for algorithm in [
        "apriori",
        "count",
        "dhp",
        "partition",
        "sampling",
        "eclat",
        "fpgrowth",
    ] {
        let outcome = MineRuleEngine::new()
            .with_algorithm(algorithm)
            .execute(&mut db, STATEMENT)
            .unwrap();
        let rendered: Vec<String> = outcome.rules.iter().map(|r| r.display()).collect();
        assert!(!rendered.is_empty(), "{algorithm} found nothing");
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(&rendered, r, "{algorithm} disagrees"),
        }
    }
}

#[test]
fn simple_core_and_general_lattice_agree() {
    // A statement in the simple class, mined by both core variants: the
    // general lattice must reproduce the simple path bit for bit.
    let mut db = quest_db(300, 23);
    let stmt = "MINE RULE BothPaths AS \
        SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
        FROM Baskets GROUP BY tr \
        EXTRACTING RULES WITH SUPPORT: 0.06, CONFIDENCE: 0.3";
    let simple = MineRuleEngine::new().execute(&mut db, stmt).unwrap();
    assert!(!simple.used_general);

    let mut forced = MineRuleEngine::new();
    forced.core.force_general = true;
    let general = forced.execute(&mut db, stmt).unwrap();
    assert!(general.used_general);

    assert!(!simple.rules.is_empty());
    assert_eq!(simple.rules, general.rules);
}

#[test]
fn decoupled_baseline_matches_coupled_rules() {
    let mut db = quest_db(300, 37);
    let coupled = MineRuleEngine::new().execute(&mut db, STATEMENT).unwrap();
    let flat = decoupled::run_decoupled(
        &mut db,
        "SELECT tr, item FROM Baskets",
        0.05,
        0.4,
        "FlatRules",
    )
    .unwrap();
    let mut a: Vec<(Vec<String>, Vec<String>)> = coupled
        .rules
        .iter()
        .map(|r| (r.body.clone(), r.head.clone()))
        .collect();
    let mut b: Vec<(Vec<String>, Vec<String>)> = flat
        .iter()
        .map(|r| (r.body.clone(), r.head.clone()))
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    // Supports and confidences agree too.
    for (c, f) in coupled.rules.iter().zip(flat.iter().map(|r| {
        let mut v = flat.clone();
        v.sort_by(|x, y| x.body.cmp(&y.body).then(x.head.cmp(&y.head)));
        v.into_iter().find(|x| x.body == r.body && x.head == r.head)
    })) {
        let f = f.unwrap();
        assert!((c.support - f.support).abs() < 1e-9);
        assert!((c.confidence - f.confidence).abs() < 1e-9);
    }
}

#[test]
fn seeds_change_data_but_not_invariants() {
    for seed in [1, 2, 3] {
        let mut db = quest_db(200, seed);
        let outcome = MineRuleEngine::new().execute(&mut db, STATEMENT).unwrap();
        for r in &outcome.rules {
            assert!(r.support >= 0.05 - 1e-9);
            assert!(r.confidence >= 0.4 - 1e-9);
            assert!(r.head.len() == 1);
            for b in &r.body {
                assert!(!r.head.contains(b));
            }
        }
    }
}
