//! FP-Growth (Han, Pei & Yin): compress the groups into a frequent-pattern
//! tree, then mine recursively over conditional trees — no candidate
//! generation at all. Chronologically this postdates the paper (2000),
//! but the architecture's algorithm-interoperability contract (§3) means
//! it slots into the pool untouched: one more demonstration that the core
//! operator is swappable.

use std::collections::HashMap;

use super::counting::CountingCtx;
use super::{ItemsetMiner, LargeItemset, SimpleView};

/// FP-Growth miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct FpGrowth;

/// A node of the FP-tree. Children are kept in a small vector — fan-out
/// at any node is bounded by the number of frequent items.
struct Node {
    item: u32,
    count: u32,
    parent: usize,
    children: Vec<usize>,
}

/// An FP-tree over arena-allocated nodes, with a header table of all
/// occurrences per item.
struct Tree {
    nodes: Vec<Node>,
    header: HashMap<u32, Vec<usize>>,
}

impl Tree {
    fn new() -> Tree {
        Tree {
            nodes: vec![Node {
                item: u32::MAX,
                count: 0,
                parent: usize::MAX,
                children: Vec::new(),
            }],
            header: HashMap::new(),
        }
    }

    /// Insert one (ordered) item path with a count.
    fn insert(&mut self, path: &[u32], count: u32) {
        let mut at = 0usize;
        for &item in path {
            let found = self.nodes[at]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].item == item);
            at = match found {
                Some(c) => {
                    self.nodes[c].count += count;
                    c
                }
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(Node {
                        item,
                        count,
                        parent: at,
                        children: Vec::new(),
                    });
                    self.nodes[at].children.push(id);
                    self.header.entry(item).or_default().push(id);
                    id
                }
            };
        }
    }

    /// The conditional pattern base of `item`: (prefix path, count) pairs.
    fn conditional_base(&self, item: u32) -> Vec<(Vec<u32>, u32)> {
        let mut out = Vec::new();
        for &node in self.header.get(&item).into_iter().flatten() {
            let count = self.nodes[node].count;
            let mut path = Vec::new();
            let mut at = self.nodes[node].parent;
            while at != 0 && at != usize::MAX {
                path.push(self.nodes[at].item);
                at = self.nodes[at].parent;
            }
            path.reverse();
            if !path.is_empty() {
                out.push((path, count));
            }
        }
        out
    }
}

/// Build a tree from weighted transactions, keeping only items frequent
/// within them and ordering each path by global frequency (descending,
/// ties by item id for determinism).
fn build_tree(transactions: &[(Vec<u32>, u32)], min_groups: u32) -> (Tree, Vec<u32>) {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for (items, count) in transactions {
        for &it in items {
            *counts.entry(it).or_insert(0) += count;
        }
    }
    let mut frequent: Vec<(u32, u32)> = counts
        .into_iter()
        .filter(|(_, c)| *c >= min_groups)
        .collect();
    frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let rank: HashMap<u32, usize> = frequent
        .iter()
        .enumerate()
        .map(|(i, (it, _))| (*it, i))
        .collect();

    let mut tree = Tree::new();
    for (items, count) in transactions {
        let mut path: Vec<u32> = items
            .iter()
            .copied()
            .filter(|it| rank.contains_key(it))
            .collect();
        path.sort_by_key(|it| rank[it]);
        path.dedup();
        if !path.is_empty() {
            tree.insert(&path, *count);
        }
    }
    // Items in *ascending* frequency for the mining order.
    let order: Vec<u32> = frequent.iter().rev().map(|(it, _)| *it).collect();
    (tree, order)
}

fn mine_tree(
    transactions: &[(Vec<u32>, u32)],
    min_groups: u32,
    suffix: &mut Vec<u32>,
    out: &mut Vec<LargeItemset>,
) {
    let (tree, order) = build_tree(transactions, min_groups);
    for &item in &order {
        let support: u32 = tree
            .header
            .get(&item)
            .map(|nodes| nodes.iter().map(|&n| tree.nodes[n].count).sum())
            .unwrap_or(0);
        if support < min_groups {
            continue;
        }
        // Itemsets are reported sorted by item id.
        let mut itemset: Vec<u32> = suffix.iter().copied().chain([item]).collect();
        itemset.sort_unstable();
        out.push((itemset, support));

        let base = tree.conditional_base(item);
        if !base.is_empty() {
            suffix.push(item);
            mine_tree(&base, min_groups, suffix, out);
            suffix.pop();
        }
    }
}

impl ItemsetMiner for FpGrowth {
    fn name(&self) -> &'static str {
        "fpgrowth"
    }

    fn mine_with(&self, input: SimpleView<'_>, _: &CountingCtx) -> Vec<LargeItemset> {
        let transactions: Vec<(Vec<u32>, u32)> =
            input.groups.iter().map(|g| (g.to_vec(), 1)).collect();
        // The whole input is the conditional base of the empty suffix; the
        // final sort + dedup normalises the order.
        let mut out: Vec<LargeItemset> = Vec::new();
        mine_tree(&transactions, input.min_groups, &mut Vec::new(), &mut out);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.dedup_by(|a, b| a.0 == b.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::apriori::AprioriGidList;
    use crate::algo::{sort_itemsets, SimpleInput};

    fn check_against_apriori(groups: Vec<Vec<u32>>, min_groups: u32) {
        let input = SimpleInput {
            total_groups: groups.len() as u32,
            groups: groups.into(),
            min_groups,
        };
        let mut a = AprioriGidList.mine(&input);
        let mut f = FpGrowth.mine(&input);
        sort_itemsets(&mut a);
        sort_itemsets(&mut f);
        assert_eq!(a, f);
    }

    #[test]
    fn matches_apriori_on_classic_example() {
        // The example from the FP-Growth paper.
        check_against_apriori(
            vec![
                vec![1, 2, 5],
                vec![2, 4],
                vec![2, 3],
                vec![1, 2, 4],
                vec![1, 3],
                vec![2, 3],
                vec![1, 3],
                vec![1, 2, 3, 5],
                vec![1, 2, 3],
            ],
            2,
        );
    }

    #[test]
    fn matches_apriori_across_thresholds() {
        let groups = vec![
            vec![1, 2, 3, 4],
            vec![2, 3, 4],
            vec![1, 3],
            vec![1, 2, 4],
            vec![1, 2, 3],
            vec![4],
        ];
        for ming in 1..=4 {
            check_against_apriori(groups.clone(), ming);
        }
    }

    #[test]
    fn single_path_tree() {
        check_against_apriori(vec![vec![1, 2, 3], vec![1, 2, 3], vec![1, 2, 3]], 2);
    }

    #[test]
    fn empty_input() {
        let input = SimpleInput {
            groups: Default::default(),
            total_groups: 0,
            min_groups: 1,
        };
        assert!(FpGrowth.mine(&input).is_empty());
    }
}
