//! The drop-linked itemset trie of the level-wise miners and of rule
//! generation.
//!
//! Both of the core operator's subset-heavy loops look up sets that
//! differ from one they hold by a single item:
//!
//! * the Apriori prune asks whether every (k-1)-subset of a candidate is
//!   large;
//! * rule extraction needs, for each split of a large itemset `L` into
//!   body and head, the support of the body `L \ H` and the node of the
//!   head `H`.
//!
//! [`LinkedTrie`] stores the itemsets level by level, each level's sets
//! in lexicographic order, and gives every set its *drop-one links*: at
//! position `t`, the index in the level below of the set without its
//! `t`-th item. A set's children — its extensions by one larger item —
//! are a run of the level above. Finding child `b` of a node is a *child
//! step* (counted as `core.trie.lookups`): a table read by item from the
//! root, a binary search of the run elsewhere, or, while the siblings of
//! one parent are linked or joined, a cursor that walks each run once as
//! their items ascend. Every subset lookup is array reads and at most one
//! child step; there is no walk from the root.
//!
//! The links are built level by level. A set `S` of size `k` has as
//! parent `S` without its last item (its link `k - 1`), and for `t < k - 1`
//! its link `t` is the child `S[k - 1]` of its parent's link `t`. When a
//! candidate `C = P ∪ {a, b}` is joined from `X = P ∪ {a}` and
//! `Y = P ∪ {b}`, its last two links are `Y` and `X`, and the prune finds
//! the other `|P|` while checking them.

use std::cell::Cell;
use std::ops::Range;

use super::itemset::Itemset;
use super::LargeItemset;

/// One level of a [`LinkedTrie`]: sets of `k` items, lexicographically
/// ordered.
#[derive(Debug, Default)]
struct Level {
    /// The set size.
    k: usize,
    /// The items of every set, `k` per set.
    items: Vec<u32>,
    /// `k` per set: at position `t`, the index in the level below of the
    /// set without its `t`-th item.
    links: Vec<u32>,
    /// Each set's group count.
    counts: Vec<u32>,
    /// Where each set's children end in the level above (they start where
    /// the previous set's end); empty while this is the top level.
    child_ends: Vec<u32>,
    /// The node id of this level's first set: ids run level after level.
    first_id: u32,
}

impl Level {
    fn len(&self) -> usize {
        self.counts.len()
    }

    fn set(&self, at: usize) -> &[u32] {
        &self.items[at * self.k..(at + 1) * self.k]
    }

    fn links(&self, at: usize) -> &[u32] {
        &self.links[at * self.k..(at + 1) * self.k]
    }

    fn children(&self, at: usize) -> Range<usize> {
        let start = at
            .checked_sub(1)
            .map_or(0, |before| self.child_ends[before]);
        start as usize..self.child_ends[at] as usize
    }

    /// Set the children of this level from the parents of the sets above,
    /// which come in ascending order.
    fn set_child_ends(&mut self, parents: impl Iterator<Item = u32>) {
        self.child_ends = vec![0; self.len()];
        for parent in parents {
            self.child_ends[parent as usize] += 1;
        }
        let mut end = 0;
        for slot in &mut self.child_ends {
            end += *slot;
            *slot = end;
        }
    }
}

/// A subset the inventory lacks: `missing`, of the stored set `of`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct MissingSubset {
    pub missing: Itemset,
    pub of: Itemset,
}

/// Downward-closed itemsets, level by level, each set with its count and
/// its drop-one links (node 0 is the empty set, the root).
#[derive(Debug)]
pub(crate) struct LinkedTrie {
    levels: Vec<Level>,
    /// The root's children by item: the index of set `{item}`, or
    /// `u32::MAX`. Item ids are dense (the encoding's Bids), as the
    /// miners' first level assumes.
    singletons: Vec<u32>,
    /// Child steps taken (→ `core.trie.lookups`).
    steps: Cell<u64>,
}

impl LinkedTrie {
    /// Just the root.
    pub fn new() -> LinkedTrie {
        let root = Level {
            counts: vec![0],
            ..Level::default()
        };
        LinkedTrie {
            levels: vec![root],
            singletons: Vec::new(),
            steps: Cell::new(0),
        }
    }

    /// The trie over an inventory given in any order: its sets are
    /// stored by size, then lexicographically. Fails on the first set
    /// with a subset the inventory lacks.
    pub fn from_large(large: &[LargeItemset]) -> Result<LinkedTrie, MissingSubset> {
        let key = |at: u32| {
            let set = &large[at as usize].0;
            (set.len(), set)
        };
        let mut order: Vec<u32> = (0..large.len() as u32).collect();
        if !order.windows(2).all(|w| key(w[0]) <= key(w[1])) {
            order.sort_by(|&a, &b| key(a).cmp(&key(b)));
        }
        let mut trie = LinkedTrie::new();
        let mut rest = &order[..];
        while let Some(&first) = rest.first() {
            let k = large[first as usize].0.len();
            let run = rest.partition_point(|&at| large[at as usize].0.len() == k);
            let (level, after) = rest.split_at(run);
            rest = after;
            if k == 0 {
                continue; // the root
            }
            if k != trie.levels.len() {
                let of = large[first as usize].0.clone();
                let missing = of[..k - 1].to_vec();
                return Err(MissingSubset { missing, of });
            }
            trie.push_sorted(level.iter().map(|&at| {
                let (set, count) = &large[at as usize];
                (set.as_slice(), *count)
            }))?;
        }
        Ok(trie)
    }

    /// Add a level: sets one item larger than the top level's, in
    /// lexicographic order, with their counts. Fails on the first set
    /// with a subset the trie lacks.
    pub fn push_sorted<'s>(
        &mut self,
        sets: impl IntoIterator<Item = (&'s [u32], u32)>,
    ) -> Result<(), MissingSubset> {
        let k = self.levels.len();
        let below = &self.levels[k - 1];
        let mut level = Level {
            k,
            first_id: below.first_id + below.len() as u32,
            ..Level::default()
        };
        let mut parent = 0;
        let mut runs = Vec::new();
        for (set, count) in sets {
            let prefix = &set[..k - 1];
            let new_parent = level.len() == 0 || below.set(parent) < prefix;
            while parent < below.len() && below.set(parent) < prefix {
                parent += 1;
            }
            let lacks = |missing: Itemset| MissingSubset {
                missing,
                of: set.to_vec(),
            };
            if parent == below.len() || below.set(parent) != prefix {
                return Err(lacks(prefix.to_vec()));
            }
            if new_parent {
                self.runs(k - 1, below.links(parent), &mut runs);
            }
            let item = set[k - 1];
            for (t, run) in runs.iter_mut().enumerate() {
                match self.seek(k - 1, run, item) {
                    Some(child) => level.links.push(child),
                    None => {
                        let mut missing = set.to_vec();
                        missing.remove(t);
                        return Err(lacks(missing));
                    }
                }
            }
            level.links.push(parent as u32);
            level.items.extend_from_slice(set);
            level.counts.push(count);
        }
        self.seal(level);
        Ok(())
    }

    /// The Apriori join and prune over the top level: every pair of sets
    /// `X < Y` with the same parent whose other immediate subsets are all
    /// stored is a candidate `X ∪ {last of Y}`. `support(x, y, candidate)`
    /// returns its count to keep it, or `None` to drop it; the kept
    /// candidates become the new top level. Returns how many candidates
    /// passed the prune.
    pub fn extend(&mut self, mut support: impl FnMut(u32, u32, &[u32]) -> Option<u32>) -> u64 {
        let k = self.levels.len() - 1;
        assert!(k > 0, "extend needs a level of sets");
        let top = &self.levels[k];
        let below = &self.levels[k - 1];
        let mut next = Level {
            k: k + 1,
            first_id: top.first_id + top.len() as u32,
            ..Level::default()
        };
        let mut generated = 0;
        let mut runs = Vec::new();
        for x in 0..top.len() {
            let links = top.links(x);
            let siblings = below.children(links[k - 1] as usize);
            self.runs(k, &links[..k - 1], &mut runs);
            for y in x + 1..siblings.end {
                let item = top.items[y * k + k - 1];
                let start = next.links.len();
                // Prune: X ∪ {b} minus P's t-th item is child b of X's
                // link t; the subsets X and Y are stored.
                let pruned = runs.iter_mut().any(|run| match self.seek(k, run, item) {
                    Some(child) => {
                        next.links.push(child);
                        false
                    }
                    None => true,
                });
                if pruned {
                    next.links.truncate(start);
                    continue;
                }
                generated += 1;
                next.links.extend([y as u32, x as u32]);
                next.items.extend_from_slice(top.set(x));
                next.items.push(item);
                match support(x as u32, y as u32, &next.items[next.items.len() - k - 1..]) {
                    Some(count) => next.counts.push(count),
                    None => {
                        next.links.truncate(start);
                        next.items.truncate(next.items.len() - k - 1);
                    }
                }
            }
        }
        self.seal(next);
        generated
    }

    /// Into `runs`, the children of each of `nodes` (sets of `k - 1`
    /// items) among the sets of `k` items, as cursors for
    /// [`LinkedTrie::seek`].
    fn runs(&self, k: usize, nodes: &[u32], runs: &mut Vec<Range<usize>>) {
        runs.clear();
        runs.extend(
            nodes
                .iter()
                .map(|&node| self.levels[k - 1].children(node as usize)),
        );
    }

    /// The child `item` in `run`, a run of sets of `k` items: one child
    /// step. The items sought in one run ascend from call to call (the
    /// siblings of one parent), so the run's start moves forward to the
    /// item and each run is walked once.
    fn seek(&self, k: usize, run: &mut Range<usize>, item: u32) -> Option<u32> {
        self.steps.set(self.steps.get() + 1);
        let level = &self.levels[k];
        while run.start < run.end {
            let last = level.items[run.start * k + k - 1];
            if last >= item {
                return (last == item).then_some(run.start as u32);
            }
            run.start += 1;
        }
        None
    }

    /// Keep the top level's sets whose `counts` (one per set) reach
    /// `min_count`, with those counts; returns how many are kept.
    pub fn settle(&mut self, counts: &[u32], min_count: u32) -> u64 {
        let level = self.levels.pop().expect("the root stays");
        let mut kept = Level {
            k: level.k,
            first_id: level.first_id,
            ..Level::default()
        };
        for (at, &count) in counts.iter().enumerate() {
            if count >= min_count {
                kept.items.extend_from_slice(level.set(at));
                kept.links.extend_from_slice(level.links(at));
                kept.counts.push(count);
            }
        }
        let len = kept.len() as u64;
        self.seal(kept);
        len
    }

    /// Make `level` the top: the old top's children are its sets.
    fn seal(&mut self, level: Level) {
        let k = level.k;
        let parents = (0..level.len()).map(|at| level.links[at * k + k - 1]);
        self.levels[k - 1].set_child_ends(parents);
        if k == 1 {
            let bound = level.items.last().map_or(0, |&item| item as usize + 1);
            self.singletons = vec![u32::MAX; bound];
            for (at, &item) in (0..).zip(&level.items) {
                self.singletons[item as usize] = at;
            }
        }
        self.levels.push(level);
    }

    /// The size of the top level's sets (0 for the root alone).
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// How many sets of `k` items the trie holds.
    pub fn len(&self, k: usize) -> usize {
        self.levels[k].len()
    }

    /// The top level's sets, in order.
    pub fn top_sets(&self) -> std::slice::ChunksExact<'_, u32> {
        let top = &self.levels[self.depth()];
        top.items.chunks_exact(top.k)
    }

    /// The items of set `at` of `k` items.
    pub fn set(&self, k: usize, at: usize) -> &[u32] {
        self.levels[k].set(at)
    }

    /// The count of set `at` of `k` items.
    pub fn count(&self, k: usize, at: usize) -> u32 {
        self.levels[k].counts[at]
    }

    /// The index among the sets of `k - 1` items of set `at` of `k` items
    /// without its `t`-th item: one array read.
    pub fn drop_one(&self, k: usize, at: usize, t: usize) -> u32 {
        self.levels[k].links[at * k + t]
    }

    /// The index among the sets of `k + 1` items of set `at` of `k` items
    /// extended by `item` (larger than its items): one child step.
    pub fn child(&self, k: usize, at: usize, item: u32) -> Option<u32> {
        self.steps.set(self.steps.get() + 1);
        if k == 0 {
            let at = *self.singletons.get(item as usize)?;
            return (at != u32::MAX).then_some(at);
        }
        let run = self.levels[k].children(at);
        let above = &self.levels[k + 1];
        let last = |child: usize| above.items[child * above.k + k];
        let (mut lo, mut hi) = (run.start, run.end);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if last(mid) < item {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < run.end && last(lo) == item).then_some(lo as u32)
    }

    /// The node id of set `at` of `k` items: ids run from the root, level
    /// after level.
    pub fn id(&self, k: usize, at: usize) -> u32 {
        self.levels[k].first_id + at as u32
    }

    /// The items of the set with node id `id`.
    pub fn set_by_id(&self, id: u32) -> &[u32] {
        let k = self.levels.partition_point(|level| level.first_id <= id) - 1;
        self.levels[k].set((id - self.levels[k].first_id) as usize)
    }

    /// Each node's position in a pre-order walk that takes children in
    /// item order, by node id: ordering itemsets by it is ordering them
    /// lexicographically (a prefix before its extensions).
    pub fn preorder(&self) -> Vec<u32> {
        let mut position = vec![0u32; self.node_count()];
        let mut stack = vec![(0usize, 0usize)];
        let mut next = 0u32;
        while let Some((k, at)) = stack.pop() {
            position[self.id(k, at) as usize] = next;
            next += 1;
            if k < self.depth() {
                stack.extend(
                    self.levels[k]
                        .children(at)
                        .rev()
                        .map(|child| (k + 1, child)),
                );
            }
        }
        position
    }

    /// Every stored set but the root with its count, by size, then
    /// lexicographically.
    pub fn into_large(self) -> Vec<LargeItemset> {
        let levels = &self.levels[1..];
        let mut large = Vec::with_capacity(levels.iter().map(Level::len).sum());
        for level in levels {
            let sets = level.items.chunks_exact(level.k);
            large.extend(sets.zip(&level.counts).map(|(set, &c)| (set.to_vec(), c)));
        }
        large
    }

    /// Nodes, the root included (→ `core.trie.nodes`).
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(Level::len).sum()
    }

    /// Child steps taken (→ `core.trie.lookups`).
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// A downward-closed inventory: every subset of a few random sets of
    /// items below 10, each with a count derived from its items.
    fn inventory(seed: u64) -> BTreeSet<Itemset> {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut sets = BTreeSet::new();
        for _ in 0..1 + next() % 5 {
            let bits = next() as u32 & 0x3ff;
            let items: Vec<u32> = (0..10).filter(|i| bits >> i & 1 == 1).collect();
            for mask in 1u32..1 << items.len() {
                let subset = (0..items.len()).filter(|i| mask >> i & 1 == 1);
                sets.insert(subset.map(|i| items[i]).collect());
            }
        }
        sets
    }

    fn count_of(set: &[u32]) -> u32 {
        set.iter().sum::<u32>() + 1
    }

    /// Every stored set, with its links read back as item sets.
    fn check_links(trie: &LinkedTrie) {
        for k in 1..=trie.depth() {
            for at in 0..trie.len(k) {
                let set = trie.set(k, at);
                for t in 0..k {
                    let mut naive = set.to_vec();
                    naive.remove(t);
                    let link = trie.drop_one(k, at, t) as usize;
                    assert_eq!(trie.set(k - 1, link), naive, "{set:?} without item {t}");
                }
                let id = trie.id(k, at);
                assert_eq!(trie.set_by_id(id), set);
            }
        }
    }

    #[test]
    fn every_link_is_the_set_without_one_item() {
        for seed in 1..60 {
            let sets = inventory(seed);
            // Any order in, size-then-lexicographic order stored.
            let mut large: Vec<LargeItemset> = sets
                .iter()
                .rev()
                .map(|s| (s.clone(), count_of(s)))
                .collect();
            let third = large.len() / 3;
            large.rotate_left(third);
            let trie = LinkedTrie::from_large(&large).unwrap();
            check_links(&trie);
            let mut stored = trie.into_large();
            assert!(stored
                .windows(2)
                .all(|w| (w[0].0.len(), &w[0].0) < (w[1].0.len(), &w[1].0)));
            stored.sort();
            large.sort();
            assert_eq!(stored, large);
        }
    }

    #[test]
    fn the_generator_yields_the_naive_join_and_prune() {
        for seed in 1..60 {
            let sets = inventory(seed);
            let depth = sets.iter().map(Vec::len).max().unwrap();
            for k in 1..depth {
                let level: Vec<&Itemset> = sets.iter().filter(|s| s.len() == k).collect();
                // The naive join and prune: pairs with a shared prefix,
                // every immediate subset of the joined set present.
                let mut naive = Vec::new();
                for (i, x) in level.iter().enumerate() {
                    for y in &level[i + 1..] {
                        if x[..k - 1] != y[..k - 1] {
                            continue;
                        }
                        let mut cand = x.to_vec();
                        cand.push(y[k - 1]);
                        let subsets_stored = (0..=k).all(|t| {
                            let mut subset = cand.clone();
                            subset.remove(t);
                            sets.contains(&subset)
                        });
                        if subsets_stored {
                            naive.push(cand);
                        }
                    }
                }
                let upto: Vec<LargeItemset> = sets
                    .iter()
                    .filter(|s| s.len() <= k)
                    .map(|s| (s.clone(), count_of(s)))
                    .collect();
                let mut trie = LinkedTrie::from_large(&upto).unwrap();
                let mut got = Vec::new();
                // Keep every other candidate: the dropped ones leave no
                // trace in the new level.
                let generated = trie.extend(|x, y, cand| {
                    assert_eq!(cand[..k], *trie_set(&upto, k, x));
                    assert_eq!(cand[k], *trie_set(&upto, k, y).last().unwrap());
                    got.push(cand.to_vec());
                    (got.len() % 2 == 1).then(|| count_of(cand))
                });
                assert_eq!(got, naive, "seed {seed}, level {k}");
                assert_eq!(generated, naive.len() as u64);
                check_links(&trie);
                let kept: Vec<&[u32]> = trie.top_sets().collect();
                let expect: Vec<&[u32]> = naive.iter().step_by(2).map(Vec::as_slice).collect();
                assert_eq!(kept, expect);
            }
        }
    }

    /// Set `at` among the `k`-sets of `large` in lexicographic order.
    fn trie_set(large: &[LargeItemset], k: usize, at: u32) -> &Itemset {
        let mut level: Vec<&Itemset> = large
            .iter()
            .map(|(s, _)| s)
            .filter(|s| s.len() == k)
            .collect();
        level.sort();
        level[at as usize]
    }

    #[test]
    fn settle_keeps_the_counted_sets_and_their_links() {
        let sets = inventory(7);
        let upto: Vec<LargeItemset> = sets
            .iter()
            .filter(|s| s.len() <= 2)
            .map(|s| (s.clone(), count_of(s)))
            .collect();
        let mut trie = LinkedTrie::from_large(&upto).unwrap();
        trie.extend(|_, _, _| Some(0));
        let counts: Vec<u32> = trie.top_sets().map(count_of).collect();
        let min = counts.iter().copied().max().unwrap_or(0) / 2;
        let expect: Vec<Itemset> = trie
            .top_sets()
            .filter(|s| count_of(s) >= min)
            .map(<[u32]>::to_vec)
            .collect();
        assert_eq!(trie.settle(&counts, min), expect.len() as u64);
        let kept: Vec<Itemset> = trie.top_sets().map(<[u32]>::to_vec).collect();
        assert_eq!(kept, expect);
        check_links(&trie);
        for (at, set) in kept.iter().enumerate() {
            assert_eq!(trie.count(3, at), count_of(set));
        }
    }

    #[test]
    fn a_set_without_its_subsets_is_reported() {
        let gap = |sets: &[&[u32]]| {
            let large: Vec<LargeItemset> = sets.iter().map(|s| (s.to_vec(), 1)).collect();
            LinkedTrie::from_large(&large).unwrap_err()
        };
        let missing = |missing: &[u32], of: &[u32]| MissingSubset {
            missing: missing.to_vec(),
            of: of.to_vec(),
        };
        assert_eq!(gap(&[&[1], &[1, 2]]), missing(&[2], &[1, 2]));
        assert_eq!(gap(&[&[2], &[1, 2]]), missing(&[1], &[1, 2]));
        assert_eq!(gap(&[&[1], &[2], &[1, 2, 3]]), missing(&[1, 2], &[1, 2, 3]));
        let no_13: &[&[u32]] = &[&[1], &[2], &[3], &[1, 2], &[2, 3], &[1, 2, 3]];
        assert_eq!(gap(no_13), missing(&[1, 3], &[1, 2, 3]));
    }

    /// `{1}, {2}, {3}` and the pairs of them.
    fn pairs() -> LinkedTrie {
        let large: Vec<LargeItemset> = [&[1u32][..], &[2], &[3], &[1, 2], &[1, 3], &[2, 3]]
            .iter()
            .map(|s| (s.to_vec(), s.len() as u32 * 10 + s[0]))
            .collect();
        LinkedTrie::from_large(&large).unwrap()
    }

    #[test]
    fn a_set_and_its_count_read_back_from_its_node() {
        let trie = pairs();
        assert_eq!((trie.depth(), trie.len(1), trie.len(2)), (2, 3, 3));
        assert_eq!((trie.set(2, 1), trie.count(2, 1)), (&[1, 3][..], 21));
        assert_eq!((trie.set(1, 2), trie.count(1, 2)), (&[3][..], 13));
        assert_eq!(trie.set_by_id(trie.id(2, 2)), [2, 3]);
        assert_eq!(trie.set_by_id(0), [], "the root");
    }

    #[test]
    fn child_steps_are_counted_and_nodes_include_the_root() {
        let trie = pairs();
        assert_eq!(trie.node_count(), 7);
        // One step per link of a pair other than its parent.
        assert_eq!(trie.steps(), 3);
        assert_eq!(trie.child(0, 0, 2), Some(1));
        assert_eq!(trie.child(1, 0, 3), Some(1), "{{1, 3}}");
        assert_eq!(trie.child(1, 1, 1), None, "{{2, 1}} is not an extension");
        assert_eq!(trie.child(0, 0, 9), None);
        assert_eq!(trie.steps(), 7);
    }

    #[test]
    fn preorder_ranks_lexicographically() {
        let sets = inventory(11);
        let large: Vec<LargeItemset> = sets.iter().map(|s| (s.clone(), 1)).collect();
        let trie = LinkedTrie::from_large(&large).unwrap();
        let rank = trie.preorder();
        let mut ids: Vec<u32> = (1..trie.node_count() as u32).collect();
        ids.sort_by_key(|&id| rank[id as usize]);
        let by_rank: Vec<&[u32]> = ids.iter().map(|&id| trie.set_by_id(id)).collect();
        let lexicographic: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        assert_eq!(by_rank, lexicographic);
    }

    #[test]
    fn prune_requires_every_immediate_subset() {
        let joined = |sets: &[&[u32]]| {
            let large: Vec<LargeItemset> = sets.iter().map(|s| (s.to_vec(), 1)).collect();
            let mut trie = LinkedTrie::from_large(&large).unwrap();
            let mut got = Vec::new();
            trie.extend(|_, _, cand| {
                got.push(cand.to_vec());
                Some(1)
            });
            got
        };
        let all: &[&[u32]] = &[&[1], &[2], &[3], &[1, 2], &[1, 3], &[2, 3]];
        assert_eq!(joined(all), [[1, 2, 3]]);
        let without_23 = &all[..5];
        assert!(joined(without_23).is_empty(), "{{2,3}} missing");
    }

    #[test]
    fn nodes_share_prefixes() {
        // {1,2,3} and {1,2,4} hang off one node for {1,2}: a set's prefix
        // is its parent, stored once.
        let sets: &[&[u32]] = &[
            &[1],
            &[2],
            &[3],
            &[4],
            &[1, 2],
            &[1, 3],
            &[1, 4],
            &[2, 3],
            &[2, 4],
        ];
        let mut large: Vec<LargeItemset> = sets.iter().map(|s| (s.to_vec(), 1)).collect();
        large.extend([(vec![1, 2, 3], 1), (vec![1, 2, 4], 1)]);
        let trie = LinkedTrie::from_large(&large).unwrap();
        assert_eq!(trie.node_count(), 1 + large.len());
        let parent = |at| trie.drop_one(3, at, 2);
        assert_eq!(parent(0), parent(1));
        assert_eq!(trie.set(2, parent(0) as usize), [1, 2]);
    }
}
