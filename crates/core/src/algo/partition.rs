//! The two-pass Partition algorithm (Savasere, Omiecinski & Navathe,
//! VLDB '95): mine each partition of the groups locally, union the local
//! inventories into a global candidate set, then count candidates exactly
//! in a second pass.

use std::collections::HashSet;

use super::apriori::mine_gidlist_with_border_exec;
use super::executor::ShardExec;
use super::itemset::Itemset;
use super::{ItemsetMiner, LargeItemset, SimpleInput};

/// Partition-based miner. `partitions` controls the split; each partition
/// is mined with a proportionally scaled local threshold. With `parallel`
/// set, partitions are mined on OS threads — the original paper's main
/// selling point (independent partition passes) maps directly onto cores.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    pub partitions: usize,
    pub parallel: bool,
}

impl Default for Partition {
    fn default() -> Self {
        Partition {
            partitions: 4,
            parallel: false,
        }
    }
}

impl Partition {
    /// A parallel variant with one partition per available core.
    pub fn parallel() -> Partition {
        Partition {
            partitions: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            parallel: true,
        }
    }
}

impl ItemsetMiner for Partition {
    fn name(&self) -> &'static str {
        if self.parallel {
            "partition-par"
        } else {
            "partition"
        }
    }

    fn mine_sharded(&self, input: &SimpleInput, exec: &ShardExec) -> Vec<LargeItemset> {
        if input.groups.is_empty() {
            return Vec::new();
        }
        // The legacy `parallel` flag predates the engine-level worker
        // knob: when set and no multi-worker executor was handed down,
        // spin up a core-per-worker executor locally so `partition-par`
        // keeps its historical behaviour through plain `mine()`.
        let own_exec;
        let exec = if self.parallel && exec.workers() <= 1 {
            own_exec = ShardExec::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4),
            )
            .with_list_gidsets(exec.list_gidsets());
            &own_exec
        } else {
            exec
        };

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
        // union of local inventories is a complete candidate set. The
        // partition count is an algorithm parameter independent of the
        // worker count, so the *list of partitions* is sharded across
        // workers; the candidate union is order-insensitive anyway.
        // Local passes inherit the caller's gid-set representation; each
        // pass's gid universe is its own partition slice (local gids run
        // 0..part.len()), so the density heuristic scales with it.
        let lists = exec.list_gidsets();
        let parts: Vec<&[Vec<u32>]> = input.groups.chunks(chunk).collect();
        let locals = exec.map_shards(&parts, |_, assigned| {
            assigned
                .iter()
                .map(|part| {
                    let inner = ShardExec::sequential().with_list_gidsets(lists);
                    mine_gidlist_with_border_exec(part, local_min(part.len()), &inner).0
                })
                .collect::<Vec<Vec<LargeItemset>>>()
        });
        let mut candidates: HashSet<Itemset> = HashSet::new();
        for batch in locals {
            for local_large in batch {
                for (set, _) in local_large {
                    candidates.insert(set);
                }
            }
        }

        // Pass 2: exact global counts, sharded over the groups with
        // per-shard counts summed — this pass dominates at low
        // thresholds, so it is where the parallel win actually lives.
        let mut candidates: Vec<Itemset> = candidates.into_iter().collect();
        candidates.sort();
        exec.count_candidates(&input.groups, candidates)
            .into_iter()
            .filter(|(_, c)| *c >= input.min_groups)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::apriori::AprioriGidList;
    use crate::algo::sort_itemsets;

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
            ],
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
                let mut got = Partition {
                    partitions: parts,
                    parallel: false,
                }
                .mine(&inp);
                sort_itemsets(&mut expect);
                sort_itemsets(&mut got);
                assert_eq!(got, expect, "parts={parts} ming={ming}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let inp = input(2);
        let mut seq = Partition::default().mine(&inp);
        let mut par = Partition::parallel().mine(&inp);
        crate::algo::sort_itemsets(&mut seq);
        crate::algo::sort_itemsets(&mut par);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let inp = SimpleInput {
            groups: vec![],
            total_groups: 0,
            min_groups: 1,
        };
        assert!(Partition::default().mine(&inp).is_empty());
    }
}
