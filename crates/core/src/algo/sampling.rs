//! Sampling-based mining (Toivonen, VLDB '96): mine a sample at a lowered
//! threshold, verify candidates and the negative border on the full data,
//! and fall back to a full run only if the border check fails.
//!
//! The fallback guarantees exactness, so this member of the pool agrees
//! with the others on every input — the sampling is purely a performance
//! strategy, as the paper's architecture requires.

use super::apriori::mine_gidlist_with_border_exec;
use super::executor::ShardExec;
use super::{ItemsetMiner, LargeItemset, SimpleInput};

/// Sampling miner parameters. The sample is deterministic (a fixed-stride
/// systematic sample seeded by `seed`) so runs are reproducible.
#[derive(Debug, Clone, Copy)]
pub struct Sampling {
    /// Fraction of groups to sample, in (0, 1].
    pub sample_fraction: f64,
    /// Multiplier (< 1) applied to the support threshold on the sample,
    /// lowering it to reduce the chance of missing a truly large itemset.
    pub threshold_scale: f64,
    /// Determines which systematic sample is drawn.
    pub seed: u64,
}

impl Default for Sampling {
    fn default() -> Self {
        Sampling {
            sample_fraction: 0.5,
            threshold_scale: 0.8,
            seed: 0x5eed,
        }
    }
}

impl ItemsetMiner for Sampling {
    fn name(&self) -> &'static str {
        "sampling"
    }

    fn mine_sharded(&self, input: &SimpleInput, exec: &ShardExec) -> Vec<LargeItemset> {
        if input.groups.is_empty() {
            return Vec::new();
        }
        let n = input.groups.len();
        let take = ((n as f64 * self.sample_fraction).ceil() as usize).clamp(1, n);
        let offset = (self.seed as usize) % n;
        let sample: Vec<Vec<u32>> = (0..take)
            .map(|i| input.groups[(offset + i * n / take) % n].clone())
            .collect();

        let fraction = input.min_groups as f64 / input.total_groups.max(1) as f64;
        let sample_share = take as f64 / n as f64 * input.total_groups as f64;
        let lowered = ((sample_share * fraction * self.threshold_scale).floor() as u32).max(1);

        // The sample pass inherits the caller's gid-set representation;
        // its gid universe is the sample itself.
        let inner = ShardExec::sequential().with_list_gidsets(exec.list_gidsets());
        let (sample_large, mut border) = mine_gidlist_with_border_exec(&sample, lowered, &inner);

        // The negative border must cover the whole item universe: items
        // that never appeared in the sample are minimal non-members too.
        let in_sample: std::collections::HashSet<u32> =
            sample.iter().flat_map(|g| g.iter().copied()).collect();
        let mut unseen: Vec<u32> = input
            .groups
            .iter()
            .flat_map(|g| g.iter().copied())
            .filter(|i| !in_sample.contains(i))
            .collect();
        unseen.sort_unstable();
        unseen.dedup();
        border.extend(unseen.into_iter().map(|i| vec![i]));

        // Verify sample candidates AND the negative border on full data —
        // the verification scan is the full-data pass, so it runs sharded.
        let mut candidates: Vec<Vec<u32>> = sample_large.into_iter().map(|(s, _)| s).collect();
        let border_start = candidates.len();
        candidates.extend(border);
        let counted = exec.count_candidates(&input.groups, candidates);

        // If anything in the negative border is actually large, the sample
        // may have missed supersets: fall back to an exact full run.
        let border_failed = counted[border_start..]
            .iter()
            .any(|(_, c)| *c >= input.min_groups);
        if border_failed {
            let (large, _) = mine_gidlist_with_border_exec(&input.groups, input.min_groups, exec);
            return large;
        }
        counted
            .into_iter()
            .take(border_start)
            .filter(|(_, c)| *c >= input.min_groups)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::apriori::AprioriGidList;
    use crate::algo::sort_itemsets;

    #[test]
    fn agrees_with_apriori_on_skewed_data() {
        // Data engineered so a naive sample could miss items: item 9 only
        // appears in the second half of the groups.
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for i in 0..40 {
            if i < 20 {
                groups.push(vec![1, 2]);
            } else {
                groups.push(vec![1, 9]);
            }
        }
        let input = SimpleInput {
            groups,
            total_groups: 40,
            min_groups: 15,
        };
        for seed in [0, 1, 7, 13, 1000] {
            let miner = Sampling {
                seed,
                ..Sampling::default()
            };
            let mut got = miner.mine(&input);
            let mut expect = AprioriGidList.mine(&input);
            sort_itemsets(&mut got);
            sort_itemsets(&mut expect);
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn tiny_inputs() {
        let input = SimpleInput {
            groups: vec![vec![3]],
            total_groups: 1,
            min_groups: 1,
        };
        assert_eq!(Sampling::default().mine(&input), vec![(vec![3], 1)]);
    }
}
