//! Cross-component agreement on realistic synthetic data: the algorithm
//! pool, the general lattice and the decoupled baseline must all find the
//! same rules whenever they express the same semantics. Degenerate inputs
//! go through every member of the pool too: an empty group list must
//! yield nothing, and a single group exactly every non-empty subset of
//! its items, each with count 1.

use datagen::{generate_quest, load_quest, QuestConfig};
use minerule::algo::{default_pool, sort_itemsets, SimpleInput};
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
        .map(|r| (r.body.to_vec(), r.head.to_vec()))
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

#[test]
fn empty_group_list_yields_nothing_in_every_pool_member() {
    let input = SimpleInput {
        groups: Default::default(),
        total_groups: 0,
        min_groups: 1,
    };
    for miner in default_pool() {
        assert!(
            miner.mine(&input).is_empty(),
            "{} produced itemsets from nothing",
            miner.name()
        );
    }
}

#[test]
fn single_group_yields_every_subset_in_every_pool_member() {
    let input = SimpleInput {
        groups: vec![vec![2, 5, 9]].into(),
        total_groups: 1,
        min_groups: 1,
    };
    let mut subsets = vec![
        vec![2],
        vec![2, 5],
        vec![2, 5, 9],
        vec![2, 9],
        vec![5],
        vec![5, 9],
        vec![9],
    ];
    subsets.sort();
    for miner in default_pool() {
        let mut got = miner.mine(&input);
        sort_itemsets(&mut got);
        let sets: Vec<Vec<u32>> = got.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(sets, subsets, "{}: 2^3 - 1 subsets", miner.name());
        assert!(got.iter().all(|(_, c)| *c == 1), "{}", miner.name());
    }
}

/// The core's exact work counters after one cold `execute`: every
/// `core.level.k.*`, the gid-set intersections, the large itemsets and
/// the rule-generation counts.
fn core_counters(db: &mut Database, algorithm: &str, stmt: &str) -> Vec<(String, u64)> {
    let engine = MineRuleEngine::new().with_algorithm(algorithm);
    engine.execute(db, stmt).unwrap();
    let snap = engine.metrics_snapshot();
    snap.counters
        .iter()
        .filter(|(name, _)| {
            name.starts_with("core.level.")
                || name.starts_with("core.rules.")
                || *name == "core.gidset.intersects"
                || *name == "core.itemsets.large"
                || *name == "core.candidates.counted"
        })
        .map(|(name, &value)| (name.clone(), value))
        .collect()
}

/// `core.level.k.{generated,pruned}` for k = 1..7 on the dense fixture:
/// the candidates the join and prune keep, and those the threshold then
/// drops. Gid-list and counting Apriori generate the same candidates.
const DENSE_LEVELS: [(u64, u64); 7] = [
    (32, 0),
    (496, 245),
    (1395, 712),
    (1500, 767),
    (648, 352),
    (104, 62),
    (3, 2),
];

#[test]
fn dense_core_counters_are_pinned_per_level_wise_member() {
    // Dense Quest data (T12.I4 over 60 items): seven levels, ~2 000 large
    // itemsets and thousands of rules. The counters are exact work, so
    // they must not move when the candidate generator or the rule
    // splits change how they find subsets.
    let data = generate_quest(&QuestConfig {
        transactions: 300,
        avg_transaction_size: 12.0,
        avg_pattern_size: 4.0,
        patterns: 20,
        items: 60,
        seed: 5,
        ..QuestConfig::default()
    });
    let mut db = Database::new();
    load_quest(&data, &mut db, "Baskets").unwrap();
    for (heads, rules) in [("1..1", [7222, 5951, 1271]), ("1..n", [26472, 9868, 16604])] {
        let stmt = format!(
            "MINE RULE Dense AS \
             SELECT DISTINCT 1..n item AS BODY, {heads} item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Baskets GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.06, CONFIDENCE: 0.4"
        );
        for (algorithm, intersects, counted) in
            [("apriori", 4146, 0), ("count", 0, 4146), ("dhp", 0, 3903)]
        {
            let mut expect = vec![
                ("core.candidates.counted".to_string(), counted),
                ("core.gidset.intersects".to_string(), intersects),
                ("core.itemsets.large".to_string(), 2038),
            ];
            // DHP reports no per-level counts.
            if algorithm != "dhp" {
                for (k, (generated, pruned)) in (1..).zip(DENSE_LEVELS) {
                    expect.push((format!("core.level.{k}.generated"), generated));
                    expect.push((format!("core.level.{k}.pruned"), pruned));
                }
            }
            let names = ["candidates", "emitted", "pruned_confidence"];
            for (name, value) in names.into_iter().zip(rules) {
                expect.push((format!("core.rules.{name}"), value));
            }
            expect.sort();
            let got = core_counters(&mut db, algorithm, &stmt);
            assert_eq!(got, expect, "{algorithm}, {heads} heads");
        }
    }
}
