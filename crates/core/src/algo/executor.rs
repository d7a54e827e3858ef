//! The sharded mining executor: data-parallel candidate counting for the
//! algorithm pool.
//!
//! The encoded group list of a simple statement is an embarrassingly
//! partitionable structure — every counting pass the pool performs
//! (singleton counts, candidate-support scans, gid-list construction) is
//! a fold over groups that can run on contiguous shards and be merged.
//! [`ShardExec`] owns that pattern once, so every member of the pool
//! parallelises the same way and — crucially — stays *deterministic*:
//!
//! * shards are contiguous chunks of the group list, in order;
//! * per-shard results are merged **in shard order**, never in thread
//!   completion order;
//! * group identifiers assigned inside a shard are offset by the shard's
//!   start position, so merged gid lists are identical to the sequential
//!   ones.
//!
//! Under those rules the parallel path produces bit-identical inventories
//! to `workers = 1` (enforced by `tests/parallel_agreement.rs`), which is
//! what lets the engine flip worker counts freely without perturbing the
//! mined rule set.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::gidset::{GidSet, GidSetCounters, GidSetCtx};
use super::itemset::{is_subset, Itemset};
use super::LargeItemset;

/// Candidate counts for one level of a level-wise algorithm (keyed by
/// itemset size `k`). `generated` counts candidates produced by the join
/// step; `pruned` counts those that then failed the support threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    pub generated: u64,
    pub pruned: u64,
}

/// Work accounting accumulated by an executor across one mining run,
/// drained by the core operator and published to the telemetry registry
/// (`core.*` metrics — see `docs/OBSERVABILITY.md`). Everything except
/// `shards_run` and `merge_passes` is worker-count invariant, mirroring
/// the executor's determinism contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Shard closures executed (≥ passes; varies with worker count).
    pub shards_run: u64,
    /// Sharded passes whose results were merged.
    pub merge_passes: u64,
    /// Wall-clock spent merging per-shard results back together.
    pub merge_time: Duration,
    /// Group rows visited by whole-group scans (L1 scans, gid-list
    /// builds, candidate-support passes).
    pub groups_scanned: u64,
    /// Candidates whose support was counted by [`ShardExec::count_candidates`].
    pub candidates_counted: u64,
    /// Per-level candidate generation/pruning, reported by the
    /// level-wise pool members via [`ShardExec::note_level`].
    pub levels: BTreeMap<u32, LevelStats>,
    /// Gid sets materialised in list form (`core.gidset.list.picked`).
    pub gidset_list_picked: u64,
    /// Gid sets materialised in bitset form (`core.gidset.bitset.picked`).
    pub gidset_bitset_picked: u64,
    /// Gid-set intersections performed (`core.gidset.intersects`).
    pub gidset_intersects: u64,
    /// Prefix-trie arena nodes built for candidate pruning
    /// (`core.trie.nodes`), reported via [`ShardExec::note_trie`].
    pub trie_nodes: u64,
    /// Prefix-trie walks performed (`core.trie.lookups`).
    pub trie_lookups: u64,
}

/// A shard-parallel executor. One instance drives a single mining run;
/// per-shard wall-clock timings and work statistics accumulate inside
/// and can be drained afterwards for reporting
/// (`PhaseTimings::core_shards`, the `core.*` telemetry metrics).
#[derive(Debug, Default)]
pub struct ShardExec {
    workers: usize,
    list_gidsets: bool,
    gidset_counters: GidSetCounters,
    shard_timings: Mutex<Vec<Duration>>,
    stats: Mutex<ExecStats>,
}

impl ShardExec {
    /// An executor with the given worker count (0 is treated as 1).
    pub fn new(workers: usize) -> ShardExec {
        ShardExec {
            workers: workers.max(1),
            list_gidsets: false,
            gidset_counters: GidSetCounters::default(),
            shard_timings: Mutex::new(Vec::new()),
            stats: Mutex::new(ExecStats::default()),
        }
    }

    /// Keep every gid set of the run a sorted list instead of choosing
    /// per set by density — the reference representation, selected with
    /// the rest of the reference paths and by the agreement tests.
    pub fn with_list_gidsets(mut self, on: bool) -> ShardExec {
        self.list_gidsets = on;
        self
    }

    /// Whether this run keeps every gid set a list (inner passes of the
    /// partition and sampling miners inherit it).
    pub fn list_gidsets(&self) -> bool {
        self.list_gidsets
    }

    /// A gid-set context over `universe` gids, recording representation
    /// choices and intersections into this executor's counters. Callers
    /// mining a shard-local slice pass that slice's length as the
    /// universe (gids are shard-offset, so density stays meaningful).
    pub fn gidset_ctx(&self, universe: usize) -> GidSetCtx<'_> {
        GidSetCtx::new(universe, self.list_gidsets, &self.gidset_counters)
    }

    /// The sequential executor (`workers = 1`); every `mine` call without
    /// an explicit executor runs through this.
    pub fn sequential() -> ShardExec {
        ShardExec::new(1)
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drain the per-shard timings recorded since the last call. Each
    /// `map_shards` invocation appends one duration per shard it ran.
    pub fn take_shard_timings(&self) -> Vec<Duration> {
        std::mem::take(&mut self.shard_timings.lock().expect("timings lock"))
    }

    /// Drain the work statistics accumulated since the last call
    /// (including the lock-free gid-set counters).
    pub fn take_stats(&self) -> ExecStats {
        let mut stats = std::mem::take(&mut *self.stats.lock().expect("stats lock"));
        let (list, bitset, intersects) = self.gidset_counters.drain();
        stats.gidset_list_picked += list;
        stats.gidset_bitset_picked += bitset;
        stats.gidset_intersects += intersects;
        stats
    }

    /// Record one candidate prefix-trie: `nodes` arena entries were
    /// built and `lookups` walks performed. Worker-count invariant — the
    /// trie is built from the merged level and every candidate's probes
    /// are independent of the sharding.
    pub fn note_trie(&self, nodes: u64, lookups: u64) {
        if nodes == 0 && lookups == 0 {
            return;
        }
        let mut stats = self.stats.lock().expect("stats lock");
        stats.trie_nodes += nodes;
        stats.trie_lookups += lookups;
    }

    /// Record one level of candidate generation: `generated` candidates
    /// of size `k` were produced, of which `pruned` failed the support
    /// threshold. Called by the level-wise pool members; counts are
    /// worker-count invariant by the determinism contract.
    pub fn note_level(&self, k: u32, generated: u64, pruned: u64) {
        if generated == 0 && pruned == 0 {
            return;
        }
        let mut stats = self.stats.lock().expect("stats lock");
        let entry = stats.levels.entry(k).or_default();
        entry.generated += generated;
        entry.pruned += pruned;
    }

    fn note_merge(&self, started: Instant) {
        let mut stats = self.stats.lock().expect("stats lock");
        stats.merge_passes += 1;
        stats.merge_time += started.elapsed();
    }

    fn note_scan(&self, groups: u64, candidates: u64) {
        let mut stats = self.stats.lock().expect("stats lock");
        stats.groups_scanned += groups;
        stats.candidates_counted += candidates;
    }

    /// Split `items` into at most `workers` contiguous chunks and apply
    /// `f(start_offset, chunk)` to each — on scoped OS threads when more
    /// than one shard results. Results are returned **in shard order**
    /// (not completion order), which is the determinism contract every
    /// caller builds on.
    pub fn map_shards<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let shards = self.workers.min(items.len());
        let chunk = items.len().div_ceil(shards);
        if shards == 1 {
            let t = Instant::now();
            let out = f(0, items);
            self.shard_timings
                .lock()
                .expect("timings lock")
                .push(t.elapsed());
            self.stats.lock().expect("stats lock").shards_run += 1;
            return vec![out];
        }
        let timed: Vec<(R, Duration)> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(i, part)| {
                    let f = &f;
                    scope.spawn(move || {
                        let t = Instant::now();
                        let out = f(i * chunk, part);
                        (out, t.elapsed())
                    })
                })
                .collect();
            // Joining in spawn order preserves shard order.
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        self.stats.lock().expect("stats lock").shards_run += timed.len() as u64;
        let mut timings = self.shard_timings.lock().expect("timings lock");
        timed
            .into_iter()
            .map(|(out, d)| {
                timings.push(d);
                out
            })
            .collect()
    }

    /// Count each candidate's support with one sharded pass over the
    /// groups; per-shard count vectors are summed positionally.
    pub fn count_candidates(
        &self,
        groups: &[Vec<u32>],
        candidates: Vec<Itemset>,
    ) -> Vec<LargeItemset> {
        if candidates.is_empty() {
            return Vec::new();
        }
        self.note_scan(groups.len() as u64, candidates.len() as u64);
        let cand = &candidates;
        let partials = self.map_shards(groups, |_, part| {
            let mut counts = vec![0u32; cand.len()];
            for items in part {
                for (i, c) in cand.iter().enumerate() {
                    if is_subset(c, items) {
                        counts[i] += 1;
                    }
                }
            }
            counts
        });
        let merge_start = Instant::now();
        let mut totals = vec![0u32; candidates.len()];
        for partial in partials {
            for (t, c) in totals.iter_mut().zip(partial) {
                *t += c;
            }
        }
        self.note_merge(merge_start);
        candidates.into_iter().zip(totals).collect()
    }

    /// Per-item occurrence counts over all groups (the L1 scan), merged
    /// from per-shard maps.
    pub fn item_counts(&self, groups: &[Vec<u32>]) -> HashMap<u32, u32> {
        self.note_scan(groups.len() as u64, 0);
        let partials = self.map_shards(groups, |_, part| {
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for items in part {
                for &it in items {
                    *counts.entry(it).or_insert(0) += 1;
                }
            }
            counts
        });
        let merge_start = Instant::now();
        let mut merged: HashMap<u32, u32> = HashMap::new();
        for partial in partials {
            for (it, c) in partial {
                *merged.entry(it).or_insert(0) += c;
            }
        }
        self.note_merge(merge_start);
        merged
    }

    /// Vertical layout: item → sorted group-id list. Shards assign gids
    /// offset by their start position and are concatenated in shard
    /// order, so each list comes out globally sorted — identical to a
    /// sequential scan.
    pub fn gidlists(&self, groups: &[Vec<u32>]) -> HashMap<u32, Vec<u32>> {
        self.note_scan(groups.len() as u64, 0);
        let partials = self.map_shards(groups, |start, part| {
            let mut lists: HashMap<u32, Vec<u32>> = HashMap::new();
            for (g, items) in part.iter().enumerate() {
                for &it in items {
                    lists.entry(it).or_default().push((start + g) as u32);
                }
            }
            lists
        });
        let merge_start = Instant::now();
        let mut merged: HashMap<u32, Vec<u32>> = HashMap::new();
        for partial in partials {
            for (it, mut gl) in partial {
                merged.entry(it).or_default().append(&mut gl);
            }
        }
        self.note_merge(merge_start);
        merged
    }

    /// [`ShardExec::gidlists`] with each list converted to a [`GidSet`]
    /// in the representation `ctx` picks. The lists are built and merged
    /// under the determinism contract first, so the density decision sees
    /// the same global cardinalities at every worker count.
    pub fn gidsets(&self, groups: &[Vec<u32>], ctx: &GidSetCtx<'_>) -> HashMap<u32, GidSet> {
        self.gidlists(groups)
            .into_iter()
            .map(|(it, gl)| (it, ctx.build(gl)))
            .collect()
    }

    /// Shard an index range `0..n` (for loops whose iterations touch a
    /// shared slice rather than owning their data). Returns per-shard
    /// results in shard order.
    pub fn map_index_shards<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let indices: Vec<usize> = (0..n).collect();
        self.map_shards(&indices, |start, part| f(start..start + part.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups() -> Vec<Vec<u32>> {
        vec![
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3],
            vec![2],
            vec![7],
        ]
    }

    #[test]
    fn map_shards_preserves_order() {
        for workers in [1, 2, 3, 5, 16] {
            let exec = ShardExec::new(workers);
            let items: Vec<u32> = (0..23).collect();
            let out = exec.map_shards(&items, |start, part| (start, part.to_vec()));
            let flat: Vec<u32> = out.into_iter().flat_map(|(_, p)| p).collect();
            assert_eq!(flat, items, "workers={workers}");
        }
    }

    #[test]
    fn shard_offsets_are_start_positions() {
        let exec = ShardExec::new(3);
        let items: Vec<u32> = (0..10).collect();
        let out = exec.map_shards(&items, |start, part| (start, part.len()));
        let mut expect_start = 0;
        for (start, len) in out {
            assert_eq!(start, expect_start);
            expect_start += len;
        }
        assert_eq!(expect_start, 10);
    }

    #[test]
    fn counts_match_sequential_for_any_worker_count() {
        let g = groups();
        let candidates = vec![vec![1], vec![2], vec![1, 2], vec![2, 3], vec![9]];
        let expect = ShardExec::sequential().count_candidates(&g, candidates.clone());
        for workers in [2, 3, 4, 7, 9] {
            let got = ShardExec::new(workers).count_candidates(&g, candidates.clone());
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn gidlists_are_sorted_and_complete() {
        let g = groups();
        for workers in [1, 2, 3, 4, 7] {
            let lists = ShardExec::new(workers).gidlists(&g);
            assert_eq!(lists[&1], vec![0, 1, 3, 4], "workers={workers}");
            assert_eq!(lists[&7], vec![6]);
            for gl in lists.values() {
                assert!(gl.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            }
        }
    }

    #[test]
    fn item_counts_match_sequential() {
        let g = groups();
        let expect = ShardExec::sequential().item_counts(&g);
        for workers in [2, 3, 7] {
            assert_eq!(ShardExec::new(workers).item_counts(&g), expect);
        }
    }

    #[test]
    fn shard_timings_accumulate_and_drain() {
        let exec = ShardExec::new(2);
        let items: Vec<u32> = (0..8).collect();
        exec.map_shards(&items, |_, part| part.len());
        let t = exec.take_shard_timings();
        assert_eq!(t.len(), 2);
        assert!(exec.take_shard_timings().is_empty(), "drained");
    }

    #[test]
    fn stats_accumulate_and_drain() {
        let exec = ShardExec::new(2);
        let g = groups();
        exec.count_candidates(&g, vec![vec![1], vec![2, 3]]);
        exec.item_counts(&g);
        exec.note_level(2, 10, 4);
        exec.note_level(2, 5, 1);
        exec.note_level(3, 0, 0); // ignored: nothing to record
        let stats = exec.take_stats();
        assert_eq!(stats.groups_scanned, 2 * g.len() as u64);
        assert_eq!(stats.candidates_counted, 2);
        assert_eq!(stats.merge_passes, 2);
        assert!(stats.shards_run >= 2);
        assert_eq!(stats.levels.len(), 1);
        assert_eq!(
            stats.levels[&2],
            LevelStats {
                generated: 15,
                pruned: 5
            }
        );
        assert_eq!(exec.take_stats(), ExecStats::default(), "drained");
    }

    #[test]
    fn scan_stats_are_worker_invariant() {
        let g = groups();
        let candidates = vec![vec![1], vec![2], vec![2, 3]];
        let expect = {
            let exec = ShardExec::sequential();
            exec.count_candidates(&g, candidates.clone());
            exec.gidlists(&g);
            let mut s = exec.take_stats();
            s.shards_run = 0;
            s.merge_time = Duration::ZERO;
            s.merge_passes = 0;
            s
        };
        for workers in [2, 3, 7] {
            let exec = ShardExec::new(workers);
            exec.count_candidates(&g, candidates.clone());
            exec.gidlists(&g);
            let mut s = exec.take_stats();
            s.shards_run = 0;
            s.merge_time = Duration::ZERO;
            s.merge_passes = 0;
            assert_eq!(s, expect, "workers={workers}");
        }
    }

    #[test]
    fn gidsets_follow_repr_and_feed_stats() {
        let g = groups();
        // Seven groups: every non-empty list is dense enough for a bitset.
        let exec = ShardExec::new(2);
        let ctx = exec.gidset_ctx(g.len());
        let sets = exec.gidsets(&g, &ctx);
        assert!(sets.values().all(|s| s.is_bitset()));
        assert_eq!(sets[&1].to_sorted_list(), vec![0, 1, 3, 4]);
        exec.note_trie(5, 12);
        let stats = exec.take_stats();
        assert_eq!(stats.gidset_bitset_picked, sets.len() as u64);
        assert_eq!(stats.gidset_list_picked, 0);
        assert_eq!((stats.trie_nodes, stats.trie_lookups), (5, 12));
        assert_eq!(exec.take_stats(), ExecStats::default(), "atomics drained");
        // The reference representation keeps the same sets as lists.
        let lists = ShardExec::new(2).with_list_gidsets(true);
        let ctx = lists.gidset_ctx(g.len());
        let sets = lists.gidsets(&g, &ctx);
        assert!(sets.values().all(|s| !s.is_bitset()));
        assert_eq!(lists.take_stats().gidset_list_picked, sets.len() as u64);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let exec = ShardExec::new(4);
        let out: Vec<usize> = exec.map_shards(&[] as &[u32], |_, part| part.len());
        assert!(out.is_empty());
        assert!(exec.take_shard_timings().is_empty());
    }
}
