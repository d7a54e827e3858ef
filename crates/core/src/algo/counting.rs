//! The counting context of the algorithm pool: the group scans every
//! member performs, and the work accounting they report.
//!
//! Every counting pass of the pool — singleton counts, candidate-support
//! scans, gid-list construction — is a fold over the encoded group list.
//! [`CountingCtx`] owns those passes once, so every member counts the
//! same way and reports the same `core.*` work counters. One context
//! drives a single mining run on the calling thread.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use relational::KeyHash;

use super::gidset::{GidSet, GidSetCounters, GidSetCtx};
use super::itemset::is_subset;
use super::Groups;

/// Candidate counts for one level of a level-wise algorithm (keyed by
/// itemset size `k`). `generated` counts candidates produced by the join
/// step; `pruned` counts those that then failed the support threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    pub generated: u64,
    pub pruned: u64,
}

/// Work accounting accumulated by a context across one mining run,
/// drained by the core operator and published to the telemetry registry
/// (`core.*` metrics — see `docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingStats {
    /// Group rows visited by whole-group scans (L1 scans, gid-list
    /// builds, candidate-support passes).
    pub groups_scanned: u64,
    /// Candidates whose support was counted by [`CountingCtx::count_candidates`].
    pub candidates_counted: u64,
    /// Per-level candidate generation/pruning, reported by the
    /// level-wise pool members via [`CountingCtx::note_level`].
    pub levels: BTreeMap<u32, LevelStats>,
    /// Gid sets materialised in list form (`core.gidset.list.picked`).
    pub gidset_list_picked: u64,
    /// Gid sets materialised in bitset form (`core.gidset.bitset.picked`).
    pub gidset_bitset_picked: u64,
    /// Gid-set intersections performed (`core.gidset.intersects`).
    pub gidset_intersects: u64,
    /// Nodes of the drop-linked trie the level-wise members join and
    /// prune over (`core.trie.nodes`), reported via
    /// [`CountingCtx::note_trie`].
    pub trie_nodes: u64,
    /// Child steps taken by the prune (`core.trie.lookups`).
    pub trie_lookups: u64,
}

/// The counting passes of one mining run, with the run's gid-set
/// representation switch and its work statistics.
#[derive(Debug, Default)]
pub struct CountingCtx {
    list_gidsets: bool,
    gidset_counters: GidSetCounters,
    stats: RefCell<CountingStats>,
}

impl CountingCtx {
    /// A context whose gid sets are all sorted lists when `list_gidsets`
    /// is set — the reference representation, selected with the rest of
    /// the reference paths and by the agreement tests — and otherwise
    /// chosen per set by density.
    pub fn new(list_gidsets: bool) -> CountingCtx {
        CountingCtx {
            list_gidsets,
            ..CountingCtx::default()
        }
    }

    /// Whether this run keeps every gid set a list (inner passes of the
    /// partition and sampling miners inherit it).
    pub fn list_gidsets(&self) -> bool {
        self.list_gidsets
    }

    /// A gid-set context over `universe` gids, recording representation
    /// choices and intersections into this context's counters.
    pub fn gidset_ctx(&self, universe: usize) -> GidSetCtx<'_> {
        GidSetCtx::new(universe, self.list_gidsets, &self.gidset_counters)
    }

    /// Drain the work statistics accumulated since the last call
    /// (including the gid-set counters).
    pub fn take_stats(&self) -> CountingStats {
        let mut stats = self.stats.take();
        let (list, bitset, intersects) = self.gidset_counters.drain();
        stats.gidset_list_picked += list;
        stats.gidset_bitset_picked += bitset;
        stats.gidset_intersects += intersects;
        stats
    }

    /// Record a drop-linked trie: it held `nodes` nodes, and its prune
    /// took `lookups` child steps.
    pub fn note_trie(&self, nodes: u64, lookups: u64) {
        let mut stats = self.stats.borrow_mut();
        stats.trie_nodes += nodes;
        stats.trie_lookups += lookups;
    }

    /// Record one level of candidate generation: `generated` candidates
    /// of size `k` were produced, of which `pruned` failed the support
    /// threshold. Called by the level-wise pool members.
    pub fn note_level(&self, k: u32, generated: u64, pruned: u64) {
        if generated == 0 && pruned == 0 {
            return;
        }
        let mut stats = self.stats.borrow_mut();
        let entry = stats.levels.entry(k).or_default();
        entry.generated += generated;
        entry.pruned += pruned;
    }

    fn note_scan(&self, groups: Groups<'_>, candidates: u64) {
        let mut stats = self.stats.borrow_mut();
        stats.groups_scanned += groups.len() as u64;
        stats.candidates_counted += candidates;
    }

    /// Count each candidate's support with one pass over the groups: the
    /// counts, in the candidates' order.
    pub fn count_candidates<'c>(
        &self,
        groups: Groups<'_>,
        candidates: impl ExactSizeIterator<Item = &'c [u32]> + Clone,
    ) -> Vec<u32> {
        if candidates.len() == 0 {
            return Vec::new();
        }
        self.note_scan(groups, candidates.len() as u64);
        let mut counts = vec![0u32; candidates.len()];
        for items in groups.iter() {
            for (count, c) in counts.iter_mut().zip(candidates.clone()) {
                if is_subset(c, items) {
                    *count += 1;
                }
            }
        }
        counts
    }

    /// Per-item occurrence counts over all groups (the L1 scan).
    pub fn item_counts(&self, groups: Groups<'_>) -> HashMap<u32, u32, KeyHash> {
        self.note_scan(groups, 0);
        let mut counts: HashMap<u32, u32, KeyHash> = HashMap::default();
        for &it in groups.iter().flatten() {
            *counts.entry(it).or_insert(0) += 1;
        }
        counts
    }

    /// Vertical layout by counting: for every item below the groups'
    /// item bound, the ascending positions of the groups holding it —
    /// item `i`'s at `gids[ends[i - 1]..ends[i]]` (from 0 for item 0).
    /// One counting pass over the flat items, one scatter pass in group
    /// order: no map, no per-item vector.
    fn vertical(&self, groups: Groups<'_>) -> (Vec<u32>, Vec<u32>) {
        self.note_scan(groups, 0);
        let mut ends = vec![0u32; groups.item_bound() as usize];
        for &item in groups.flat() {
            ends[item as usize] += 1;
        }
        // Each item's start, advanced to its end by the scatter.
        let mut at = 0;
        for end in ends.iter_mut() {
            (at, *end) = (at + *end, at);
        }
        let mut gids = vec![0u32; at as usize];
        for (g, items) in (0..).zip(groups.iter()) {
            for &item in items {
                let next = &mut ends[item as usize];
                gids[*next as usize] = g;
                *next += 1;
            }
        }
        (ends, gids)
    }

    /// The first level of a vertical miner: every item some group holds,
    /// ascending, with the [`GidSet`] of the groups holding it — a
    /// group's id being its position in `groups` — in the representation
    /// `ctx` picks.
    pub fn gidsets(&self, groups: Groups<'_>, ctx: &GidSetCtx<'_>) -> Vec<(u32, GidSet)> {
        let (ends, gids) = self.vertical(groups);
        let mut start = 0;
        let mut sets = Vec::new();
        for (item, &end) in (0..).zip(&ends) {
            if end > start {
                sets.push((item, ctx.build(&gids[start as usize..end as usize])));
            }
            start = end;
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::GroupArena;

    fn groups() -> GroupArena {
        GroupArena::from(vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3],
            vec![2],
            vec![7],
        ])
    }

    #[test]
    fn candidate_counts_match_hand_counts() {
        let candidates: [&[u32]; 5] = [&[1], &[2], &[1, 2], &[2, 3], &[9]];
        let got =
            CountingCtx::default().count_candidates(groups().groups(), candidates.into_iter());
        assert_eq!(got, [4, 5, 3, 3, 0]);
    }

    #[test]
    fn gidsets_are_sorted_and_complete() {
        let counting = CountingCtx::new(true);
        let ctx = counting.gidset_ctx(7);
        let sets = counting.gidsets(groups().groups(), &ctx);
        let lists: Vec<(u32, Vec<u32>)> = sets
            .iter()
            .map(|(item, set)| (*item, set.to_sorted_list()))
            .collect();
        assert_eq!(
            lists,
            [
                (1, vec![0, 1, 3, 4]),
                (2, vec![0, 1, 2, 4, 5]),
                (3, vec![0, 2, 3, 4]),
                (7, vec![6])
            ]
        );
        // A slice's gids are positions in the slice.
        let sets = counting.gidsets(groups().groups().slice(4..7), &ctx);
        let lists: Vec<(u32, Vec<u32>)> = sets
            .iter()
            .map(|(item, set)| (*item, set.to_sorted_list()))
            .collect();
        assert_eq!(
            lists,
            [(1, vec![0]), (2, vec![0, 1]), (3, vec![0]), (7, vec![2])]
        );
    }

    #[test]
    fn item_counts_match_hand_counts() {
        let counts = CountingCtx::default().item_counts(groups().groups());
        let expect: HashMap<u32, u32, KeyHash> =
            [(1, 4), (2, 5), (3, 4), (7, 1)].into_iter().collect();
        assert_eq!(counts, expect);
    }

    #[test]
    fn stats_accumulate_and_drain() {
        let ctx = CountingCtx::default();
        let g = groups();
        let g = g.groups();
        ctx.count_candidates(g, [&[1u32][..], &[2, 3]].into_iter());
        ctx.count_candidates(g, std::iter::empty()); // no candidates: no scan
        ctx.item_counts(g);
        ctx.note_level(2, 10, 4);
        ctx.note_level(2, 5, 1);
        ctx.note_level(3, 0, 0); // ignored: nothing to record
        let stats = ctx.take_stats();
        assert_eq!(
            stats,
            CountingStats {
                groups_scanned: 14,
                candidates_counted: 2,
                levels: [(
                    2,
                    LevelStats {
                        generated: 15,
                        pruned: 5
                    }
                )]
                .into(),
                ..CountingStats::default()
            }
        );
        assert_eq!(ctx.take_stats(), CountingStats::default(), "drained");
    }

    #[test]
    fn gidsets_follow_repr_and_feed_stats() {
        let g = groups();
        // Seven groups: every non-empty list is dense enough for a bitset.
        let counting = CountingCtx::default();
        let ctx = counting.gidset_ctx(g.len());
        let sets = counting.gidsets(g.groups(), &ctx);
        assert!(sets.iter().all(|(_, s)| s.is_bitset()));
        assert_eq!(
            (sets[0].0, sets[0].1.to_sorted_list()),
            (1, vec![0, 1, 3, 4])
        );
        counting.note_trie(5, 12);
        let stats = counting.take_stats();
        assert_eq!(
            (stats.gidset_bitset_picked, stats.gidset_list_picked),
            (4, 0)
        );
        assert_eq!((stats.trie_nodes, stats.trie_lookups), (5, 12));
        assert_eq!(stats.groups_scanned, 7);
        assert_eq!(counting.take_stats(), CountingStats::default(), "drained");
        // The reference representation keeps the same sets as lists.
        let lists = CountingCtx::new(true);
        let ctx = lists.gidset_ctx(g.len());
        let sets = lists.gidsets(g.groups(), &ctx);
        assert!(sets.iter().all(|(_, s)| !s.is_bitset()));
        assert_eq!(lists.take_stats().gidset_list_picked, 4);
    }
}
