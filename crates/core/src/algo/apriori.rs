//! Apriori variants: gid-list based (the paper's §4.3.1 description) and
//! classical candidate counting.

use super::executor::ShardExec;
use super::gidset::{GidSet, GidSetScratch};
use super::itemset::{apriori_join, is_subset, Itemset};
use super::trie::ItemsetTrie;
use super::{ItemsetMiner, LargeItemset, SimpleInput};

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

    fn mine_sharded(&self, input: &SimpleInput, exec: &ShardExec) -> Vec<LargeItemset> {
        let (large, _) = mine_gidlist_with_border_exec(&input.groups, input.min_groups, exec);
        large
    }
}

/// Gid-list mining that also reports the negative border (candidates that
/// were generated and failed the threshold) — needed by the sampling
/// algorithm's safety check.
pub fn mine_gidlist_with_border(
    groups: &[Vec<u32>],
    min_groups: u32,
) -> (Vec<LargeItemset>, Vec<Itemset>) {
    mine_gidlist_with_border_exec(groups, min_groups, &ShardExec::sequential())
}

/// [`mine_gidlist_with_border`] with an explicit shard executor: the L1
/// gid-list build and the per-level join/intersection step both run
/// sharded. The join shards partition the *outer* index of the candidate
/// join, and shard outputs are concatenated in shard order — exactly the
/// sequential iteration order, so the result is worker-count invariant.
pub fn mine_gidlist_with_border_exec(
    groups: &[Vec<u32>],
    min_groups: u32,
    exec: &ShardExec,
) -> (Vec<LargeItemset>, Vec<Itemset>) {
    let mut large: Vec<LargeItemset> = Vec::new();
    let mut border: Vec<Itemset> = Vec::new();

    // L1 with gid sets, built shard-wise (the underlying lists come out
    // sorted because shards are contiguous and merged in order; the
    // hybrid representation is chosen per set from the merged global
    // cardinality, so it is worker-count invariant too).
    let ctx = exec.gidset_ctx(groups.len());
    let mut gidsets = exec.gidsets(groups, &ctx);
    let mut level: Vec<(Itemset, GidSet)> = Vec::new();
    let mut items: Vec<u32> = gidsets.keys().copied().collect();
    items.sort_unstable();
    let l1_generated = items.len() as u64;
    for it in items {
        let gs = gidsets.remove(&it).unwrap();
        if gs.len() >= min_groups {
            level.push((vec![it], gs));
        } else {
            border.push(vec![it]);
        }
    }
    exec.note_level(1, l1_generated, border.len() as u64);

    while !level.is_empty() {
        for (set, gs) in &level {
            large.push((set.clone(), gs.len()));
        }
        // Join step. `level` is sorted lexicographically, so joinable
        // prefixes are adjacent runs; the outer index is sharded across
        // workers. The prune probes a prefix trie over the level (shared
        // immutably across shards), and intersections run through a
        // per-shard scratch buffer so failed candidates never allocate.
        let trie = ItemsetTrie::from_sets(level.iter().map(|(s, _)| s.as_slice()));
        let level_ref = &level;
        let (trie_ref, ctx_ref) = (&trie, &ctx);
        let parts = exec.map_index_shards(level.len(), |range| {
            let mut next: Vec<(Itemset, GidSet)> = Vec::new();
            let mut failed: Vec<Itemset> = Vec::new();
            let mut scratch = GidSetScratch::default();
            for i in range {
                for j in (i + 1)..level_ref.len() {
                    let Some(cand) = apriori_join(&level_ref[i].0, &level_ref[j].0) else {
                        break; // sorted: once prefixes diverge, no more joins
                    };
                    // Prune: every (k-1)-subset must be large.
                    if !trie_ref.contains_all_immediate_subsets(&cand) {
                        continue;
                    }
                    let support =
                        ctx_ref.intersect_into(&level_ref[i].1, &level_ref[j].1, &mut scratch);
                    if support >= min_groups {
                        next.push((cand, ctx_ref.seal(&scratch)));
                    } else {
                        failed.push(cand);
                    }
                }
            }
            (next, failed)
        });
        exec.note_trie(trie.node_count() as u64, trie.take_lookups());
        let next_size = level[0].0.len() as u32 + 1;
        let mut next: Vec<(Itemset, GidSet)> = Vec::new();
        let mut failed = 0u64;
        for (n, f) in parts {
            next.extend(n);
            failed += f.len() as u64;
            border.extend(f);
        }
        exec.note_level(next_size, next.len() as u64 + failed, failed);
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

    fn mine_sharded(&self, input: &SimpleInput, exec: &ShardExec) -> Vec<LargeItemset> {
        let mut large: Vec<LargeItemset> = Vec::new();

        // L1: sharded singleton scan.
        let counts = exec.item_counts(&input.groups);
        let l1_generated = counts.len() as u64;
        let mut level: Vec<LargeItemset> = counts
            .into_iter()
            .filter(|(_, c)| *c >= input.min_groups)
            .map(|(it, c)| (vec![it], c))
            .collect();
        level.sort_by(|a, b| a.0.cmp(&b.0));
        exec.note_level(1, l1_generated, l1_generated - level.len() as u64);

        while !level.is_empty() {
            large.extend(level.iter().cloned());
            let trie = ItemsetTrie::from_sets(level.iter().map(|(s, _)| s.as_slice()));
            let level_ref = &level;
            let trie_ref = &trie;
            // Candidate generation sharded over the outer join index;
            // shard outputs concatenate into the sequential order. The
            // subset prune walks the shared prefix trie.
            let parts = exec.map_index_shards(level.len(), |range| {
                let mut cands: Vec<Itemset> = Vec::new();
                for i in range {
                    for j in (i + 1)..level_ref.len() {
                        let Some(cand) = apriori_join(&level_ref[i].0, &level_ref[j].0) else {
                            break;
                        };
                        if trie_ref.contains_all_immediate_subsets(&cand) {
                            cands.push(cand);
                        }
                    }
                }
                cands
            });
            exec.note_trie(trie.node_count() as u64, trie.take_lookups());
            let candidates: Vec<Itemset> = parts.into_iter().flatten().collect();
            let next_size = level[0].0.len() as u32 + 1;
            let generated = candidates.len() as u64;
            // The support scan — the pass that dominates — is sharded
            // over the groups with per-shard counts summed positionally.
            level = exec
                .count_candidates(&input.groups, candidates)
                .into_iter()
                .filter(|(_, c)| *c >= input.min_groups)
                .collect();
            exec.note_level(next_size, generated, generated - level.len() as u64);
        }
        large
    }
}

/// Count each candidate's support by one pass over the groups.
pub fn count_candidates(groups: &[Vec<u32>], candidates: Vec<Itemset>) -> Vec<LargeItemset> {
    let mut counts = vec![0u32; candidates.len()];
    for items in groups {
        for (i, cand) in candidates.iter().enumerate() {
            if is_subset(cand, items) {
                counts[i] += 1;
            }
        }
    }
    candidates.into_iter().zip(counts).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::sort_itemsets;

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
            groups: groups(),
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
            groups: groups(),
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
        let (large, border) = mine_gidlist_with_border(&groups(), 3);
        assert!(!large.iter().any(|(s, _)| s == &vec![1, 3]));
        assert!(border.contains(&vec![1, 3]));
    }

    #[test]
    fn empty_input_no_itemsets() {
        let input = SimpleInput {
            groups: vec![],
            total_groups: 0,
            min_groups: 1,
        };
        assert!(AprioriGidList.mine(&input).is_empty());
        assert!(AprioriCount.mine(&input).is_empty());
    }

    #[test]
    fn threshold_one_keeps_everything() {
        let input = SimpleInput {
            groups: vec![vec![5, 9]],
            total_groups: 1,
            min_groups: 1,
        };
        let mut got = AprioriGidList.mine(&input);
        sort_itemsets(&mut got);
        assert_eq!(got, vec![(vec![5], 1), (vec![5, 9], 1), (vec![9], 1)]);
    }
}
