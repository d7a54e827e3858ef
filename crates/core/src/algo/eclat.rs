//! Eclat-style depth-first vertical mining (Zaki et al.): each itemset
//! carries its group-id list; the search extends a prefix item by item,
//! intersecting lists. Compared to level-wise Apriori it trades the
//! subset-prune for cache-friendly depth-first list intersections — the
//! natural "one more member" of the paper's interoperable pool.

use super::counting::CountingCtx;
use super::gidset::{GidSet, GidSetCtx, GidSetScratch};
use super::itemset::Itemset;
use super::{ItemsetMiner, LargeItemset, SimpleView};

/// Depth-first vertical miner.
#[derive(Debug, Clone, Copy, Default)]
pub struct Eclat;

impl ItemsetMiner for Eclat {
    fn name(&self) -> &'static str {
        "eclat"
    }

    fn mine_with(&self, input: SimpleView<'_>, counting: &CountingCtx) -> Vec<LargeItemset> {
        // Vertical layout: item → gid set (representation chosen per set
        // from its cardinality).
        let ctx = counting.gidset_ctx(input.groups.len());
        let mut frontier = counting.gidsets(input.groups, &ctx);
        frontier.retain(|(_, gs)| gs.len() >= input.min_groups);

        // One search tree per top-level item, walked depth-first with one
        // reused intersection scratch; the final sort orders the
        // inventory.
        let min_groups = input.min_groups;
        let mut out: Vec<LargeItemset> = Vec::new();
        let mut scratch = GidSetScratch::default();
        for (i, (item, gs)) in frontier.iter().enumerate() {
            let mut prefix: Itemset = vec![*item];
            out.push((prefix.clone(), gs.len()));
            let mut next: Vec<(u32, GidSet)> = Vec::new();
            for (other, other_gs) in &frontier[i + 1..] {
                if ctx.intersect_into(gs, other_gs, &mut scratch) >= min_groups {
                    next.push((*other, ctx.seal(&scratch)));
                }
            }
            if !next.is_empty() {
                dfs(&ctx, &next, &mut prefix, min_groups, &mut scratch, &mut out);
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Extend `prefix` with each frontier item; recurse on the conditional
/// frontier of items that still qualify.
fn dfs(
    ctx: &GidSetCtx<'_>,
    frontier: &[(u32, GidSet)],
    prefix: &mut Itemset,
    min_groups: u32,
    scratch: &mut GidSetScratch,
    out: &mut Vec<LargeItemset>,
) {
    for (i, (item, gs)) in frontier.iter().enumerate() {
        prefix.push(*item);
        out.push((prefix.clone(), gs.len()));
        // Conditional frontier: later items intersected with this set.
        let mut next: Vec<(u32, GidSet)> = Vec::new();
        for (other, other_gs) in &frontier[i + 1..] {
            if ctx.intersect_into(gs, other_gs, scratch) >= min_groups {
                next.push((*other, ctx.seal(scratch)));
            }
        }
        if !next.is_empty() {
            dfs(ctx, &next, prefix, min_groups, scratch, out);
        }
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::apriori::AprioriGidList;
    use crate::algo::{sort_itemsets, SimpleInput};

    #[test]
    fn agrees_with_apriori() {
        let input = SimpleInput {
            groups: vec![
                vec![1, 2, 3],
                vec![1, 2],
                vec![2, 3],
                vec![1, 3],
                vec![1, 2, 3],
            ]
            .into(),
            total_groups: 5,
            min_groups: 2,
        };
        let mut a = AprioriGidList.mine(&input);
        let mut e = Eclat.mine(&input);
        sort_itemsets(&mut a);
        sort_itemsets(&mut e);
        assert_eq!(a, e);
    }

    #[test]
    fn deep_itemsets_found() {
        let input = SimpleInput {
            groups: vec![vec![1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5]].into(),
            total_groups: 2,
            min_groups: 2,
        };
        let got = Eclat.mine(&input);
        // 2^5 - 1 = 31 non-empty subsets, all with count 2.
        assert_eq!(got.len(), 31);
        assert!(got.iter().all(|(_, c)| *c == 2));
    }

    #[test]
    fn empty_input() {
        let input = SimpleInput {
            groups: Default::default(),
            total_groups: 0,
            min_groups: 1,
        };
        assert!(Eclat.mine(&input).is_empty());
    }
}
