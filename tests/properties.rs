//! Property-style tests over the core data structures and the kernel's
//! invariants (DESIGN.md §7). Each property is checked over a fixed
//! battery of deterministic pseudo-random cases (seeded per test, so
//! failures reproduce exactly) plus hand-kept regression cases from
//! earlier shrunk failures.

use std::collections::HashMap;

use datagen::rng::Rng;
use relational::{Date, KeyInterner, Value};

use minerule::algo::itemset::{apriori_join, intersect, is_subset};
use minerule::algo::{default_pool, sort_itemsets, SimpleInput};
use minerule::ast::{CardMax, CardSpec};
use minerule::encoded::GeneralTuple;
use minerule::lattice::elementary::{build_contexts, BuildOptions};
use minerule::lattice::{mine_general, ExpansionOrder, GeneralParams};
use minerule::parse_mine_rule;

const CASES: u64 = 64;

/// A small basket dataset: 1..14 groups, each a sorted set of 1..6 item
/// ids drawn from 0..12 (mirrors the old proptest strategy).
fn random_groups(rng: &mut Rng) -> Vec<Vec<u32>> {
    let n = rng.gen_range_usize(1, 14);
    (0..n)
        .map(|_| {
            let size = rng.gen_range_usize(1, 6);
            let mut set = std::collections::BTreeSet::new();
            while set.len() < size {
                set.insert(rng.gen_range_u32(0, 12));
            }
            set.into_iter().collect()
        })
        .collect()
}

fn random_sorted_set(rng: &mut Rng, universe: u32, max_len: usize) -> Vec<u32> {
    let size = rng.gen_range_usize(0, max_len);
    let mut set = std::collections::BTreeSet::new();
    for _ in 0..size {
        set.insert(rng.gen_range_u32(0, universe));
    }
    set.into_iter().collect()
}

#[test]
fn sorted_set_ops_behave() {
    let mut rng = Rng::seed_from_u64(0xA0);
    for _ in 0..CASES {
        let av = random_sorted_set(&mut rng, 30, 10);
        let bv = random_sorted_set(&mut rng, 30, 10);
        let a: std::collections::BTreeSet<u32> = av.iter().copied().collect();
        let b: std::collections::BTreeSet<u32> = bv.iter().copied().collect();
        let inter = intersect(&av, &bv);
        let expect: Vec<u32> = a.intersection(&b).copied().collect();
        assert_eq!(inter, expect);
        assert!(is_subset(&inter, &av) && is_subset(&inter, &bv));
        assert_eq!(is_subset(&av, &bv), a.is_subset(&b));
    }
}

#[test]
fn apriori_join_produces_supersets() {
    let mut rng = Rng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let mut v = random_sorted_set(&mut rng, 10, 5);
        while v.len() < 2 {
            v = random_sorted_set(&mut rng, 10, 5);
        }
        let mut left = v.clone();
        let last = *left.last().unwrap();
        *left.last_mut().unwrap() = last.saturating_sub(1);
        if left.windows(2).all(|w| w[0] < w[1]) {
            if let Some(j) = apriori_join(&left, &v) {
                assert_eq!(j.len(), v.len() + 1);
                assert!(is_subset(&left, &j) && is_subset(&v, &j));
            }
        }
    }
}

#[test]
fn pool_agreement() {
    // Regression case (shrunk by proptest in an earlier revision): a
    // group whose only item is absent from the systematic sample.
    let mut cases: Vec<(Vec<Vec<u32>>, u32)> = vec![(vec![vec![6], vec![0]], 1)];
    let mut rng = Rng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let groups = random_groups(&mut rng);
        let min_groups = rng.gen_range_u32(1, 4);
        cases.push((groups, min_groups));
    }
    for (groups, min_groups) in cases {
        let input = SimpleInput {
            total_groups: groups.len() as u32,
            groups,
            min_groups,
        };
        let mut reference: Option<Vec<(Vec<u32>, u32)>> = None;
        for miner in default_pool() {
            let mut got = miner.mine(&input);
            sort_itemsets(&mut got);
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "{} disagrees on {:?}", miner.name(), input),
            }
        }
    }
}

#[test]
fn apriori_antimonotone() {
    let mut rng = Rng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let groups = random_groups(&mut rng);
        let min_groups = rng.gen_range_u32(1, 4);
        let input = SimpleInput {
            total_groups: groups.len() as u32,
            groups,
            min_groups,
        };
        let large = default_pool()[0].mine(&input);
        let keys: std::collections::HashSet<&[u32]> =
            large.iter().map(|(s, _)| s.as_slice()).collect();
        for (set, count) in &large {
            assert!(*count >= min_groups);
            // Every immediate subset of a large itemset is large, with a
            // count at least as big.
            for skip in 0..set.len() {
                if set.len() == 1 {
                    break;
                }
                let sub: Vec<u32> = set
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, &x)| x)
                    .collect();
                assert!(
                    keys.contains(sub.as_slice()),
                    "subset {sub:?} of {set:?} missing"
                );
                let sub_count = large.iter().find(|(s, _)| *s == sub).unwrap().1;
                assert!(sub_count >= *count);
            }
        }
    }
}

#[test]
fn exact_counts_match_bruteforce() {
    let mut rng = Rng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let groups = random_groups(&mut rng);
        let input = SimpleInput {
            total_groups: groups.len() as u32,
            groups: groups.clone(),
            min_groups: 1,
        };
        let large = default_pool()[0].mine(&input);
        for (set, count) in &large {
            let brute = groups.iter().filter(|g| is_subset(set, g)).count() as u32;
            assert_eq!(*count, brute, "count of {set:?}");
        }
    }
}

#[test]
fn lattice_rules_verify_against_bruteforce() {
    let mut rng = Rng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let groups = random_groups(&mut rng);
        let min_groups = rng.gen_range_u32(1, 3);
        // Build general contexts from plain baskets and check every rule's
        // support/confidence against direct counting.
        let tuples: Vec<GeneralTuple> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, items)| {
                items.iter().map(move |&i| GeneralTuple {
                    gid: g as u32,
                    cid: None,
                    bid: Some(i),
                    hid: Some(i),
                })
            })
            .collect();
        let contexts = build_contexts(
            &tuples,
            None,
            None,
            BuildOptions {
                clustered: false,
                has_couples: false,
                distinct_head: false,
                min_groups,
            },
        );
        let total = groups.len() as u32;
        let rules = mine_general(
            &contexts,
            &GeneralParams {
                total_groups: total,
                min_groups,
                min_confidence: 0.0001,
                body_card: CardSpec::one_to_n(),
                head_card: CardSpec {
                    min: 1,
                    max: CardMax::Fixed(2),
                },
                order: ExpansionOrder::MinParent,
            },
        )
        .unwrap();
        for r in &rules {
            let mut union: Vec<u32> = r.body.iter().chain(r.head.iter()).copied().collect();
            union.sort_unstable();
            let rule_count = groups.iter().filter(|g| is_subset(&union, g)).count() as u32;
            let body_count = groups.iter().filter(|g| is_subset(&r.body, g)).count() as u32;
            assert_eq!(r.group_count, rule_count, "support count of {r:?}");
            assert!((r.support - rule_count as f64 / total as f64).abs() < 1e-9);
            assert!(
                (r.confidence - rule_count as f64 / body_count as f64).abs() < 1e-9,
                "confidence of {r:?}: body_count={body_count}"
            );
            assert!(r.head.len() <= 2, "head cardinality cap");
        }
    }
}

#[test]
fn cardspec_admits_is_interval() {
    let mut rng = Rng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let min = rng.gen_range_u32(1, 4);
        let extra = rng.gen_range_u32(0, 4);
        let k = rng.gen_range_usize(0, 8);
        let spec = CardSpec {
            min,
            max: CardMax::Fixed(min + extra),
        };
        assert!(spec.is_valid());
        let admitted = spec.admits(k);
        assert_eq!(admitted, (k as u32) >= min && (k as u32) <= min + extra);
    }
}

#[test]
fn statement_display_parse_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xA7);
    for _ in 0..CASES {
        let support = 0.01 + rng.gen_f64() * 0.98;
        let confidence = 0.01 + rng.gen_f64() * 0.98;
        let card_min = rng.gen_range_u32(1, 3);
        let card = if rng.gen_f64() < 0.5 {
            format!("{card_min}..n")
        } else {
            format!("{card_min}..{}", card_min + 1)
        };
        let text = format!(
            "MINE RULE R AS SELECT DISTINCT {card} item AS BODY, 1..1 item AS HEAD, \
             SUPPORT, CONFIDENCE FROM t GROUP BY g \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        );
        let s1 = parse_mine_rule(&text).unwrap();
        let s2 = parse_mine_rule(&s1.to_string()).unwrap();
        assert_eq!(s1, s2);
    }
}

#[test]
fn min_groups_threshold_is_exact_boundary() {
    // ceil semantics: with 10 groups and support 0.25, an itemset needs
    // ≥ 3 groups (2/10 = 0.2 < 0.25 ≤ 3/10).
    for (total, s, expect) in [
        (10u64, 0.25, 3u64),
        (8, 0.5, 4),
        (3, 0.34, 2),
        (100, 0.01, 1),
    ] {
        assert_eq!(minerule::preprocess::min_groups_for(total, s), expect);
    }
}

/// Values that stress grouping equality and the key hash: `1` ≡ `1.0`,
/// `0.0` ≢ `-0.0`, NaN, NULL, `""` vs `"\0"`, strings equal up to an
/// 8-byte boundary, and INTs beyond 2^53 — `Value` hashes an INT through
/// its `f64` image, so neighbours there collide while staying distinct.
/// No FLOAT of that range is drawn: 2^53 as a FLOAT equals *both* INTs
/// 2^53 and 2^53 + 1 (equality is not transitive there), so which one a
/// hash map finds first is the map's business — pinned for the interner
/// alone in `key_interner_is_first_seen_where_equality_is_not_transitive`.
fn key_values() -> Vec<Value> {
    let s = |s: &str| Value::Str(s.to_string());
    vec![
        Value::Null,
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.0),
        Value::Float(2.5),
        Value::Float(f64::NAN),
        Value::Bool(false),
        Value::Bool(true),
        Value::Date(Date::from_days_since_epoch(0)),
        Value::Date(Date::from_days_since_epoch(1)),
        s(""),
        s("\0"),
        s("1"),
        s("abcdefg"),
        s("abcdefgh"),
        s("abcdefgh\0"),
        s("abcdefghi"),
        s("abcdefghabcdefgh"),
        Value::Int(1 << 53),
        Value::Int((1 << 53) + 1),
        Value::Int((1 << 53) + 2),
        Value::Float(((1u64 << 53) + 2) as f64),
        Value::Int(i64::MAX),
        Value::Int(i64::MAX - 1),
        Value::Int(i64::MIN),
    ]
}

/// `KeyInterner` — probing with the borrowed row, its own hash and table
/// — assigns every key the slot the owned-key oracle assigns it (a
/// `HashMap<Vec<Value>, u32>` plus a first-seen order vector), over keys
/// of 1–3 columns drawn at any positions of the row, with lookups and
/// retirements interleaved.
#[test]
fn key_interner_assigns_the_oracle_slots() {
    let pool = key_values();
    let mut rng = Rng::seed_from_u64(0xC24);
    for case in 0..CASES {
        let width = rng.gen_range_usize(1, 4);
        let mut cols: Vec<usize> = (0..4).collect();
        for i in 0..width {
            cols.swap(i, rng.gen_range_usize(i, 4));
        }
        cols.truncate(width);
        // Few values per case, so keys repeat; many cases, so all meet.
        let drawn = rng.gen_range_usize(2, 9);
        let values: Vec<&Value> = (0..drawn)
            .map(|_| &pool[rng.gen_range_usize(0, pool.len())])
            .collect();

        let mut interner = KeyInterner::new(width);
        let mut oracle: HashMap<Vec<Value>, u32> = HashMap::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for step in 0..600 {
            let row: Vec<Value> = (0..4)
                .map(|_| values[rng.gen_range_usize(0, drawn)].clone())
                .collect();
            let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            let label = format!("case {case} step {step} cols {cols:?} row {row:?}");
            match rng.gen_below(10) {
                0 => assert_eq!(
                    interner.get(&row, &cols),
                    oracle.get(&key).copied(),
                    "{label}"
                ),
                1 => {
                    if let Some(slot) = oracle.remove(&key) {
                        interner.retire(slot);
                    }
                    assert_eq!(interner.get(&row, &cols), None, "{label}");
                }
                _ => {
                    let next = order.len() as u32;
                    let expected = *oracle.entry(key.clone()).or_insert(next);
                    if expected == next {
                        order.push(key);
                    }
                    assert_eq!(interner.intern(&row, &cols), expected, "{label}");
                }
            }
        }
        assert_eq!(interner.slots() as usize, order.len(), "case {case}");
        assert_eq!(interner.len(), oracle.len(), "case {case}");
        // The stored key is the first-seen representation (`1`, not `1.0`).
        let stored: Vec<String> = interner.keys().map(|k| format!("{k:?}")).collect();
        let first_seen: Vec<String> = order.iter().map(|k| format!("{k:?}")).collect();
        assert_eq!(stored, first_seen, "case {case}");
        let mut mapped: Vec<u32> = interner.iter().map(|(slot, _)| slot).collect();
        let mut live: Vec<u32> = oracle.values().copied().collect();
        mapped.sort_unstable();
        live.sort_unstable();
        assert_eq!(mapped, live, "case {case}");
    }
}

/// Beyond 2^53 `Value`'s INT/FLOAT equality is not transitive: the FLOAT
/// 2^53 equals the INTs 2^53 and 2^53 + 1, which differ. All three hash
/// alike, and the interner answers with the earliest interned key that
/// equals the probe — across table growth too. Pinned, not endorsed.
#[test]
fn key_interner_is_first_seen_where_equality_is_not_transitive() {
    let float = [Value::Float((1u64 << 53) as f64)];
    for ints in [[1 << 53, (1 << 53) + 1], [(1 << 53) + 1, 1 << 53]] {
        let mut interner = KeyInterner::new(1);
        assert_eq!(interner.intern(&[Value::Int(ints[0])], &[0]), 0);
        assert_eq!(interner.intern(&[Value::Int(ints[1])], &[0]), 1);
        for filler in 0..1000 {
            interner.intern(&[Value::Int(filler)], &[0]);
            assert_eq!(interner.get(&float, &[0]), Some(0));
        }
        assert_eq!(interner.intern(&float, &[0]), 0);
        assert_eq!(interner.slots(), 1002);
    }
}

/// `Baskets(tr, item, price)` rows, per basket: 1..6 distinct items out
/// of 10, one in three stored twice (a repeated pair), with NULL baskets
/// and NULL items among them. Prices put some rows of a run under the
/// source condition of [`SCAN_ORDER_STATEMENTS`] and some over it.
fn basket_runs(rng: &mut Rng) -> Vec<Vec<Vec<Value>>> {
    let baskets = rng.gen_range_usize(2, 9);
    (0..baskets)
        .map(|b| {
            let tr = match rng.gen_below(8) {
                0 => Value::Null,
                _ => Value::Int(b as i64),
            };
            let mut items = std::collections::BTreeSet::new();
            let size = rng.gen_range_usize(1, 7);
            while items.len() < size {
                items.insert(rng.gen_range_u32(0, 10));
            }
            let mut rows = Vec::new();
            for item in items {
                let item = match rng.gen_below(12) {
                    0 => Value::Null,
                    _ => Value::Str(format!("i{item}")),
                };
                let copies = 1 + usize::from(rng.gen_below(3) == 0);
                for _ in 0..copies {
                    let price = Value::Int(rng.gen_range_u32(0, 100) as i64);
                    rows.push(vec![tr.clone(), item.clone(), price]);
                }
            }
            rows
        })
        .collect()
}

/// The row orders the source scan must not tell apart: baskets
/// contiguous; interleaved round-robin; copy-major (the whole source
/// twice, so every basket recurs after the others, as in
/// `tests/alloc_budget.rs`); and shuffled.
fn scan_orders(runs: &[Vec<Vec<Value>>], rng: &mut Rng) -> Vec<(&'static str, Vec<Vec<Value>>)> {
    let contiguous: Vec<Vec<Value>> = runs.concat();
    let longest = runs.iter().map(Vec::len).max().unwrap_or(0);
    let interleaved = (0..longest)
        .flat_map(|at| runs.iter().filter_map(move |run| run.get(at).cloned()))
        .collect();
    let copy_major = [contiguous.clone(), contiguous.clone()].concat();
    let mut shuffled = contiguous.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range_usize(0, i + 1));
    }
    vec![
        ("contiguous", contiguous),
        ("interleaved", interleaved),
        ("copy-major", copy_major),
        ("shuffled", shuffled),
    ]
}

/// No directive (the scan builds a digest); a source condition that
/// drops rows in the middle of a run (W); a mining condition (M, one
/// lane per row).
const SCAN_ORDER_STATEMENTS: [&str; 3] = [
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
     FROM Baskets GROUP BY tr EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
     FROM Baskets WHERE price < 60 GROUP BY tr \
     EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
     WHERE BODY.price < HEAD.price FROM Baskets GROUP BY tr \
     EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
];

/// What one preprocess-and-mine of `stmt` over `rows` leaves: the
/// encoded tables as stored, the digest by key (`None` without one) and
/// the rules.
type ScanResult = (Vec<String>, Option<Vec<String>>, Vec<minerule::DecodedRule>);

fn scan_and_mine(rows: &[Vec<Value>], stmt: &str, reference: bool) -> ScanResult {
    let load = || {
        let mut db = relational::Database::new();
        db.set_reference_paths(reference);
        db.execute("CREATE TABLE Baskets (tr INT, item VARCHAR, price INT)")
            .unwrap();
        let table = db.catalog_mut().table_mut("Baskets").unwrap();
        table.insert_all(rows.to_vec()).unwrap();
        db
    };
    let mut db = load();
    let translation = minerule::translate(&parse_mine_rule(stmt).unwrap(), db.catalog()).unwrap();
    let report = minerule::preprocess::preprocess(&mut db, &translation).unwrap();
    assert_eq!(report.fused_steps > 0, !reference, "{stmt}");
    let mut tables = Vec::new();
    for name in [
        "ValidGroups",
        "Bset",
        "CodedSource",
        "MiningSource",
        "InputRules",
    ] {
        if let Ok(table) = db.catalog().table(name) {
            tables.push(format!("{name}: {:?}", table.rows()));
        }
    }
    let digest = report.digest.as_ref().map(|digest| digest.by_key());
    let engine = minerule::MineRuleEngine::new().with_cache(false);
    let rules = engine.execute(&mut load(), stmt).unwrap().rules;
    (tables, digest, rules)
}

/// The fused pass's source scan tells a repeated `(group, body)` pair
/// from a fresh one without a set while a group's rows are contiguous,
/// and through a set once it recurs: whatever the row order — contiguous,
/// interleaved, copy-major, shuffled, with NULL group and item keys, with
/// a source condition dropping rows mid-run — it leaves the encoded
/// tables and rules of the stepwise program, and one digest per source.
#[test]
fn the_source_scan_encodes_every_row_order_like_the_stepwise_program() {
    let mut rng = Rng::seed_from_u64(0x5CA7);
    for case in 0..CASES / 2 {
        let runs = basket_runs(&mut rng);
        for stmt in SCAN_ORDER_STATEMENTS {
            let mut digests = Vec::new();
            for (order, rows) in scan_orders(&runs, &mut rng) {
                let label = format!("case {case}, {order}: {stmt}");
                let fused = scan_and_mine(&rows, stmt, false);
                let stepwise = scan_and_mine(&rows, stmt, true);
                assert_eq!(fused.0, stepwise.0, "encoded tables, {label}");
                assert_eq!(fused.2, stepwise.2, "rules, {label}");
                assert_eq!(fused.1.is_some(), stmt == SCAN_ORDER_STATEMENTS[0]);
                // Copy-major doubles every row's multiplicity.
                if order != "copy-major" {
                    digests.extend(fused.1);
                }
            }
            assert!(digests.windows(2).all(|w| w[0] == w[1]), "case {case}");
        }
    }
}
