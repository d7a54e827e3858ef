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
