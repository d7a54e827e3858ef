//! Randomized agreement suite for the hybrid gid-set representation:
//! for random inputs spanning the density spectrum — from sparse (every
//! set stays a sorted list) to dense (sets flip to bitset words) — every
//! pool member must produce an itemset inventory *bit-identical* to the
//! list-only reference run, at every worker count, and whole statements
//! must mine identical rule sets with the database on its reference
//! paths (list gid-sets among them) and off them.

use minerule::algo::{default_pool, sort_itemsets, LargeItemset, ShardExec, SimpleInput};
use minerule::MineRuleEngine;
use relational::{Database, Value};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

// The workload generator lives in the fuzz harness
// (`tcdm_fuzz::grammar::random_simple_input`) so the differential fuzzer
// and this suite share one scenario space.
use tcdm_fuzz::grammar::random_simple_input;

/// The density × seed grid. Universes of 12, 60 and 150 groups cross the
/// `len * 32 > universe` threshold at very different list lengths, so the
/// grid exercises list-only, bitset-heavy and genuinely mixed runs.
fn grid() -> Vec<(SimpleInput, String)> {
    let mut inputs = Vec::new();
    for (groups, catalog, density) in [
        (12usize, 18u32, 0.5),
        (60, 25, 0.35),
        (60, 120, 0.06),
        (120, 40, 0.22),
        (120, 300, 0.025),
    ] {
        for seed in [1u64, 2] {
            inputs.push((
                random_simple_input(groups, catalog, density, seed ^ (groups as u64) << 8),
                format!("g={groups} c={catalog} d={density} seed={seed}"),
            ));
        }
    }
    inputs
}

fn mine_sorted(
    miner: &dyn minerule::algo::ItemsetMiner,
    input: &SimpleInput,
    list_only: bool,
    workers: usize,
) -> Vec<LargeItemset> {
    let exec = ShardExec::new(workers).with_list_gidsets(list_only);
    let mut got = miner.mine_sharded(input, &exec);
    sort_itemsets(&mut got);
    got
}

/// Every pool member × representation × worker count agrees bit-for-bit
/// with the list-only single-worker inventory on every grid point.
#[test]
fn inventories_agree_across_representations_and_workers() {
    for (input, label) in grid() {
        for miner in default_pool() {
            let reference = mine_sorted(miner.as_ref(), &input, true, 1);
            // List at workers > 1 is already covered by the blanket
            // parallel_agreement suite; here one high worker count pins
            // it against the same reference. The hybrid arm gets the
            // full worker grid.
            for (list_only, workers_to_check) in
                [(true, &WORKER_COUNTS[3..]), (false, &WORKER_COUNTS[..])]
            {
                for &workers in workers_to_check {
                    let got = mine_sorted(miner.as_ref(), &input, list_only, workers);
                    assert_eq!(
                        got,
                        reference,
                        "{label}: {} diverges at list_only={list_only} workers={workers}",
                        miner.name()
                    );
                }
            }
        }
    }
}

/// The representation must never change mined rules through the whole
/// statement pipeline either: the same baskets mined with the database
/// on and off its reference paths, per vertical pool member and worker
/// count.
#[test]
fn rule_sets_agree_across_representations_through_run_core() {
    let simple = random_simple_input(80, 30, 0.3, 77);
    let baskets = |reference: bool| {
        let mut db = Database::new();
        db.set_reference_paths(reference);
        db.execute("CREATE TABLE Baskets (tr INT, item INT)")
            .unwrap();
        let table = db.catalog_mut().table_mut("Baskets").unwrap();
        for (g, items) in simple.groups.iter().enumerate() {
            for &item in items {
                table
                    .insert(vec![Value::Int(g as i64), Value::Int(item as i64)])
                    .unwrap();
            }
        }
        db
    };
    let stmt = "MINE RULE R AS \
        SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
        FROM Baskets GROUP BY tr \
        EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.2";
    for algorithm in ["apriori", "partition", "sampling", "eclat"] {
        let mut baseline = None;
        for reference in [true, false] {
            for workers in [1usize, 4] {
                let engine = MineRuleEngine::new()
                    .with_algorithm(algorithm)
                    .with_workers(workers);
                let out = engine.execute(&mut baskets(reference), stmt).unwrap();
                assert!(!out.used_general);
                // The two legs really differ in representation (the inner
                // passes of partition/sampling do not publish counters).
                let bitsets = engine
                    .metrics_snapshot()
                    .counter("core.gidset.bitset.picked");
                if reference {
                    assert_eq!(bitsets, 0, "{algorithm}: the reference keeps lists");
                } else if algorithm == "apriori" || algorithm == "eclat" {
                    assert!(bitsets > 0, "{algorithm}: dense baskets pick bitsets");
                }
                match &baseline {
                    None => baseline = Some(out.rules),
                    Some(b) => assert_eq!(
                        &out.rules, b,
                        "{algorithm} reference={reference} workers={workers}"
                    ),
                }
            }
        }
        assert!(!baseline.unwrap().is_empty(), "{algorithm} found rules");
    }
}
