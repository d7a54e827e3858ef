//! Apriori variants: gid-list based (the paper's §4.3.1 description) and
//! classical candidate counting.

use super::counting::CountingCtx;
use super::gidset::{GidSet, GidSetScratch};
use super::itemset::Itemset;
use super::trie::LinkedTrie;
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
    let mut border: Vec<Itemset> = Vec::new();

    // L1 with gid sets (the representation is chosen per set from its
    // cardinality).
    let ctx = counting.gidset_ctx(groups.len());
    let gidsets = counting.gidsets(groups, &ctx);
    let l1_generated = gidsets.len() as u64;
    let mut singletons: Vec<(u32, u32)> = Vec::new();
    let mut level: Vec<GidSet> = Vec::new();
    for (it, gs) in gidsets {
        if gs.len() >= min_groups {
            singletons.push((it, gs.len()));
            level.push(gs);
        } else {
            border.push(vec![it]);
        }
    }
    counting.note_level(1, l1_generated, border.len() as u64);
    // The candidates come from the drop-linked trie's join and prune; each
    // survivor's gid set is its parents' intersection, computed in one
    // scratch buffer, so a failed candidate allocates only its border
    // entry and a pruned one nothing.
    let mut scratch = GidSetScratch::default();
    let trie = level_wise(&singletons, |trie| {
        let mut next: Vec<GidSet> = Vec::new();
        let k = trie.depth() as u32 + 1;
        let generated = trie.extend(|x, y, cand| {
            let support = ctx.intersect_into(&level[x as usize], &level[y as usize], &mut scratch);
            if support >= min_groups {
                next.push(ctx.seal(&scratch));
                Some(support)
            } else {
                border.push(cand.to_vec());
                None
            }
        });
        counting.note_level(k, generated, generated - next.len() as u64);
        level = next;
    });
    counting.note_trie(trie.node_count() as u64, trie.steps());
    (trie.into_large(), border)
}

/// The drop-linked trie over the large `singletons` (item and count,
/// ascending), grown by `grow` until a level comes out empty.
pub(crate) fn level_wise(
    singletons: &[(u32, u32)],
    mut grow: impl FnMut(&mut LinkedTrie),
) -> LinkedTrie {
    let mut trie = LinkedTrie::new();
    let singletons = singletons
        .iter()
        .map(|(it, c)| (std::slice::from_ref(it), *c));
    trie.push_sorted(singletons)
        .expect("every singleton hangs off the root");
    while trie.len(trie.depth()) > 0 {
        grow(&mut trie);
    }
    trie
}

/// Counting Apriori over the large `singletons` (item and count,
/// ascending): each level's candidates come from the drop-linked trie's
/// join and prune, those `admit` accepts are counted with one scan of the
/// groups, and the large ones form the next level. `note(k, generated,
/// kept)` hears of each level of size `k ≥ 2`.
pub(crate) fn mine_counting(
    input: SimpleView<'_>,
    ctx: &CountingCtx,
    singletons: &[(u32, u32)],
    mut admit: impl FnMut(&[u32]) -> bool,
    mut note: impl FnMut(u32, u64, u64),
) -> Vec<LargeItemset> {
    let trie = level_wise(singletons, |trie| {
        let k = trie.depth() as u32 + 1;
        trie.extend(|_, _, cand| admit(cand).then_some(0));
        let generated = trie.len(k as usize) as u64;
        // The support scan — the pass that dominates.
        let counts = ctx.count_candidates(input.groups, trie.top_sets());
        let kept = trie.settle(&counts, input.min_groups);
        note(k, generated, kept);
    });
    ctx.note_trie(trie.node_count() as u64, trie.steps());
    trie.into_large()
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
        // L1: singleton scan.
        let counts = ctx.item_counts(input.groups);
        let l1_generated = counts.len() as u64;
        let mut singletons: Vec<(u32, u32)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= input.min_groups)
            .collect();
        singletons.sort_unstable();
        ctx.note_level(1, l1_generated, l1_generated - singletons.len() as u64);
        mine_counting(
            input,
            ctx,
            &singletons,
            |_| true,
            |k, generated, kept| ctx.note_level(k, generated, generated - kept),
        )
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
