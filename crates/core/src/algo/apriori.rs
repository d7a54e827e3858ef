//! Apriori variants: gid-list based (the paper's §4.3.1 description) and
//! classical candidate counting.

use super::counting::CountingCtx;
use super::gidset::{GidSet, GidSetScratch};
use super::itemset::{apriori_join, Itemset};
use super::trie::ItemsetTrie;
use super::{Groups, ItemsetMiner, LargeItemset, SimpleView};

/// Apriori with group-identifier lists: each itemset carries the sorted
/// list of groups containing it, and the list of a joined candidate is the
/// intersection of its parents' lists. This is the variant §4.3.1 sketches
/// ("support of an itemset is evaluated by counting elements in an
/// associated list that contains identifiers of groups").
#[derive(Debug, Clone, Copy, Default)]
pub struct AprioriGidList;

impl ItemsetMiner for AprioriGidList {
    fn name(&self) -> &'static str {
        "apriori-gidlist"
    }

    fn mine_with(&self, input: SimpleView<'_>, ctx: &CountingCtx) -> Vec<LargeItemset> {
        let (large, _) = mine_gidlist_with_border(input.groups, input.min_groups, ctx);
        large
    }
}

/// Gid-list mining that also reports the negative border (candidates that
/// were generated and failed the threshold) — needed by the sampling
/// algorithm's safety check.
pub fn mine_gidlist_with_border(
    groups: Groups<'_>,
    min_groups: u32,
    counting: &CountingCtx,
) -> (Vec<LargeItemset>, Vec<Itemset>) {
    let mut large: Vec<LargeItemset> = Vec::new();
    let mut border: Vec<Itemset> = Vec::new();

    // L1 with gid sets (the representation is chosen per set from its
    // cardinality).
    let ctx = counting.gidset_ctx(groups.len());
    let gidsets = counting.gidsets(groups, &ctx);
    let l1_generated = gidsets.len() as u64;
    let mut level: Vec<(Itemset, GidSet)> = Vec::new();
    for (it, gs) in gidsets {
        if gs.len() >= min_groups {
            level.push((vec![it], gs));
        } else {
            border.push(vec![it]);
        }
    }
    counting.note_level(1, l1_generated, border.len() as u64);

    let mut scratch = GidSetScratch::default();
    while !level.is_empty() {
        for (set, gs) in &level {
            large.push((set.clone(), gs.len()));
        }
        // Join step. `level` is sorted lexicographically, so joinable
        // prefixes are adjacent runs. The prune probes a prefix trie over
        // the level, and intersections run through one scratch buffer so
        // failed candidates never allocate.
        let trie = ItemsetTrie::from_sets(level.iter().map(|(s, _)| s.as_slice()));
        let mut next: Vec<(Itemset, GidSet)> = Vec::new();
        let mut failed = 0u64;
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let Some(cand) = apriori_join(&level[i].0, &level[j].0) else {
                    break; // sorted: once prefixes diverge, no more joins
                };
                // Prune: every (k-1)-subset must be large.
                if !trie.contains_all_immediate_subsets(&cand) {
                    continue;
                }
                let support = ctx.intersect_into(&level[i].1, &level[j].1, &mut scratch);
                if support >= min_groups {
                    next.push((cand, ctx.seal(&scratch)));
                } else {
                    failed += 1;
                    border.push(cand);
                }
            }
        }
        counting.note_trie(trie.node_count() as u64, trie.take_lookups());
        let next_size = level[0].0.len() as u32 + 1;
        counting.note_level(next_size, next.len() as u64 + failed, failed);
        level = next;
    }
    (large, border)
}

/// Classical Apriori: candidates generated level-wise, support obtained by
/// scanning the groups and testing containment.
#[derive(Debug, Clone, Copy, Default)]
pub struct AprioriCount;

impl ItemsetMiner for AprioriCount {
    fn name(&self) -> &'static str {
        "apriori-count"
    }

    fn mine_with(&self, input: SimpleView<'_>, ctx: &CountingCtx) -> Vec<LargeItemset> {
        let mut large: Vec<LargeItemset> = Vec::new();

        // L1: singleton scan.
        let counts = ctx.item_counts(input.groups);
        let l1_generated = counts.len() as u64;
        let mut level: Vec<LargeItemset> = counts
            .into_iter()
            .filter(|(_, c)| *c >= input.min_groups)
            .map(|(it, c)| (vec![it], c))
            .collect();
        level.sort_by(|a, b| a.0.cmp(&b.0));
        ctx.note_level(1, l1_generated, l1_generated - level.len() as u64);

        while !level.is_empty() {
            large.extend(level.iter().cloned());
            // Candidate generation; the subset prune walks a prefix trie
            // over the level.
            let trie = ItemsetTrie::from_sets(level.iter().map(|(s, _)| s.as_slice()));
            let mut candidates: Vec<Itemset> = Vec::new();
            for i in 0..level.len() {
                for j in (i + 1)..level.len() {
                    let Some(cand) = apriori_join(&level[i].0, &level[j].0) else {
                        break;
                    };
                    if trie.contains_all_immediate_subsets(&cand) {
                        candidates.push(cand);
                    }
                }
            }
            ctx.note_trie(trie.node_count() as u64, trie.take_lookups());
            let next_size = level[0].0.len() as u32 + 1;
            let generated = candidates.len() as u64;
            // The support scan — the pass that dominates.
            level = ctx
                .count_candidates(input.groups, candidates)
                .into_iter()
                .filter(|(_, c)| *c >= input.min_groups)
                .collect();
            ctx.note_level(next_size, generated, generated - level.len() as u64);
        }
        large
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{sort_itemsets, GroupArena, SimpleInput};

    fn groups() -> Vec<Vec<u32>> {
        vec![
            vec![1, 2, 3, 4],
            vec![1, 2, 4],
            vec![1, 2],
            vec![2, 3, 4],
            vec![2, 3],
            vec![3, 4],
            vec![2, 4],
        ]
    }

    #[test]
    fn gidlist_finds_classic_inventory() {
        let input = SimpleInput {
            groups: groups().into(),
            total_groups: 7,
            min_groups: 3,
        };
        let mut got = AprioriGidList.mine(&input);
        sort_itemsets(&mut got);
        // Hand-checked counts.
        assert!(got.contains(&(vec![2], 6)));
        assert!(got.contains(&(vec![2, 4], 4)));
        assert!(got.contains(&(vec![1, 2], 3)));
        assert!(got.contains(&(vec![3, 4], 3)));
        assert!(
            !got.iter().any(|(s, _)| s == &vec![1, 3]),
            "1,3 occurs twice only"
        );
    }

    #[test]
    fn count_variant_matches_gidlist() {
        let input = SimpleInput {
            groups: groups().into(),
            total_groups: 7,
            min_groups: 2,
        };
        let mut a = AprioriGidList.mine(&input);
        let mut b = AprioriCount.mine(&input);
        sort_itemsets(&mut a);
        sort_itemsets(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn border_contains_failed_candidates() {
        let groups = GroupArena::from(groups());
        let (large, border) = mine_gidlist_with_border(groups.groups(), 3, &CountingCtx::default());
        assert!(!large.iter().any(|(s, _)| s == &vec![1, 3]));
        assert!(border.contains(&vec![1, 3]));
    }

    #[test]
    fn empty_input_no_itemsets() {
        let input = SimpleInput {
            groups: Default::default(),
            total_groups: 0,
            min_groups: 1,
        };
        assert!(AprioriGidList.mine(&input).is_empty());
        assert!(AprioriCount.mine(&input).is_empty());
    }

    #[test]
    fn threshold_one_keeps_everything() {
        let input = SimpleInput {
            groups: vec![vec![5, 9]].into(),
            total_groups: 1,
            min_groups: 1,
        };
        let mut got = AprioriGidList.mine(&input);
        sort_itemsets(&mut got);
        assert_eq!(got, vec![(vec![5], 1), (vec![5, 9], 1), (vec![9], 1)]);
    }
}
