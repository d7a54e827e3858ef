//! Degenerate inputs through every member of the algorithm pool. Mining
//! runs on one thread, so "any worker count" is the single counting pass:
//! an empty group list must yield nothing, and a single group must yield
//! exactly every non-empty subset of its items, each with count 1.

use minerule::algo::{default_pool, sort_itemsets, SimpleInput};

#[test]
fn empty_group_list_yields_nothing_for_any_worker_count() {
    let input = SimpleInput {
        groups: vec![],
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
fn single_group_agrees_across_worker_counts() {
    let input = SimpleInput {
        groups: vec![vec![2, 5, 9]],
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
