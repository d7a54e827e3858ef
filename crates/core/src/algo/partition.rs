//! The two-pass Partition algorithm (Savasere, Omiecinski & Navathe,
//! VLDB '95): mine each partition of the groups locally, union the local
//! inventories into a global candidate set, then count candidates exactly
//! in a second pass.

use std::collections::HashSet;

use super::apriori::mine_gidlist_with_border;
use super::counting::CountingCtx;
use super::itemset::Itemset;
use super::{ItemsetMiner, LargeItemset, SimpleView};

/// Partition-based miner. `partitions` controls the split; each partition
/// is mined with a proportionally scaled local threshold.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    pub partitions: usize,
}

impl Default for Partition {
    fn default() -> Self {
        Partition { partitions: 4 }
    }
}

impl ItemsetMiner for Partition {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn mine_with(&self, input: SimpleView<'_>, ctx: &CountingCtx) -> Vec<LargeItemset> {
        if input.groups.is_empty() {
            return Vec::new();
        }
        let p = self.partitions.clamp(1, input.groups.len());
        let fraction = input.min_groups as f64 / input.total_groups.max(1) as f64;
        let chunk = input.groups.len().div_ceil(p);

        // Local share of the *total* group population, so empty groups
        // (groups without large items) are attributed proportionally.
        let local_min = |part_len: usize| -> u32 {
            let local_total =
                part_len as f64 / input.groups.len() as f64 * input.total_groups as f64;
            ((local_total * fraction).ceil() as u32).max(1)
        };

        // Pass 1: local mining. An itemset globally large must be locally
        // large (at the scaled threshold) in at least one partition, so the
        // union of local inventories is a complete candidate set. Local
        // passes inherit the caller's gid-set representation but count
        // into their own context; each pass's gid universe is its own
        // partition slice (local gids run 0..part.len()), so the density
        // heuristic scales with it.
        let mut candidates: HashSet<Itemset> = HashSet::new();
        for start in (0..input.groups.len()).step_by(chunk) {
            let part = input
                .groups
                .slice(start..(start + chunk).min(input.groups.len()));
            let local = CountingCtx::new(ctx.list_gidsets());
            let (local_large, _) = mine_gidlist_with_border(part, local_min(part.len()), &local);
            candidates.extend(local_large.into_iter().map(|(set, _)| set));
        }

        // Pass 2: exact global counts — this pass dominates at low
        // thresholds.
        let mut candidates: Vec<Itemset> = candidates.into_iter().collect();
        candidates.sort();
        let counts = ctx.count_candidates(input.groups, candidates.iter().map(Vec::as_slice));
        candidates
            .into_iter()
            .zip(counts)
            .filter(|(_, c)| *c >= input.min_groups)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::apriori::AprioriGidList;
    use crate::algo::{sort_itemsets, SimpleInput};

    fn input(min_groups: u32) -> SimpleInput {
        SimpleInput {
            groups: vec![
                vec![1, 2, 3],
                vec![1, 2],
                vec![2, 3],
                vec![1, 3],
                vec![1, 2, 3],
                vec![2],
                vec![1, 2],
                vec![3],
            ]
            .into(),
            total_groups: 8,
            min_groups,
        }
    }

    #[test]
    fn matches_apriori_across_partition_counts() {
        for parts in [1, 2, 3, 8] {
            for ming in [1, 2, 3, 4] {
                let inp = input(ming);
                let mut expect = AprioriGidList.mine(&inp);
                let mut got = Partition { partitions: parts }.mine(&inp);
                sort_itemsets(&mut expect);
                sort_itemsets(&mut got);
                assert_eq!(got, expect, "parts={parts} ming={ming}");
            }
        }
    }

    #[test]
    fn empty_input() {
        let inp = SimpleInput {
            groups: Default::default(),
            total_groups: 0,
            min_groups: 1,
        };
        assert!(Partition::default().mine(&inp).is_empty());
    }
}
