//! DHP — direct hashing and pruning (Park, Chen & Yu, SIGMOD '95): while
//! counting singletons, hash every 2-subset of each group into a bucket
//! table; a candidate pair is generated only when both items are large
//! *and* its bucket count reaches the threshold. Levels ≥ 3 proceed as in
//! classical Apriori.

use std::collections::HashMap;

use super::apriori::mine_counting;
use super::counting::CountingCtx;
use super::{ItemsetMiner, LargeItemset, SimpleView};

/// DHP miner; `buckets` sizes the pair-hash table.
#[derive(Debug, Clone, Copy)]
pub struct Dhp {
    pub buckets: usize,
}

impl Default for Dhp {
    fn default() -> Self {
        Dhp { buckets: 1 << 16 }
    }
}

#[inline]
fn bucket(a: u32, b: u32, buckets: usize) -> usize {
    // Cheap mix of the pair; exactness is irrelevant (only an upper bound
    // on pair support is needed).
    let h =
        (a as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ (b as u64).wrapping_mul(0xc2b2ae3d27d4eb4f);
    (h % buckets as u64) as usize
}

impl ItemsetMiner for Dhp {
    fn name(&self) -> &'static str {
        "dhp"
    }

    fn mine_with(&self, input: SimpleView<'_>, ctx: &CountingCtx) -> Vec<LargeItemset> {
        let buckets_n = self.buckets.max(1);

        // Pass 1: singleton counts + pair-bucket counts, one scan.
        let mut counts: HashMap<u32, u32> = HashMap::new();
        let mut pair_buckets = vec![0u32; buckets_n];
        for items in input.groups.iter() {
            for &it in items {
                *counts.entry(it).or_insert(0) += 1;
            }
            for i in 0..items.len() {
                for j in (i + 1)..items.len() {
                    pair_buckets[bucket(items[i], items[j], buckets_n)] += 1;
                }
            }
        }
        let mut singletons: Vec<(u32, u32)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= input.min_groups)
            .collect();
        singletons.sort_unstable();

        // C2 with hash pruning: a pair whose bucket stayed below the
        // threshold cannot be large (bucket count ≥ pair support). Levels
        // ≥ 3 proceed as in classical Apriori.
        let admit = |cand: &[u32]| match *cand {
            [a, b] => pair_buckets[bucket(a, b, buckets_n)] >= input.min_groups,
            _ => true,
        };
        mine_counting(input, ctx, &singletons, admit, |_, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::apriori::AprioriGidList;
    use crate::algo::{sort_itemsets, SimpleInput};

    #[test]
    fn agrees_with_apriori_even_with_tiny_hash_table() {
        let groups = vec![
            vec![1, 2, 3],
            vec![1, 2, 4],
            vec![1, 2],
            vec![2, 3, 4],
            vec![3, 4],
            vec![1, 4],
        ];
        let input = SimpleInput {
            groups: groups.into(),
            total_groups: 6,
            min_groups: 2,
        };
        // A 4-bucket table forces collisions; pruning must stay sound
        // (bucket counts only over-approximate).
        for buckets in [4, 64, 1 << 16] {
            let mut got = Dhp { buckets }.mine(&input);
            let mut expect = AprioriGidList.mine(&input);
            sort_itemsets(&mut got);
            sort_itemsets(&mut expect);
            assert_eq!(got, expect, "buckets={buckets}");
        }
    }
}
