//! Candidate prefix-trie over sorted itemsets.
//!
//! Two of the core operator's hot loops used to pay per-candidate
//! allocation for subset reasoning:
//!
//! * the Apriori prune ("every (k-1)-subset must be large") materialised
//!   each immediate subset as a fresh `Vec` to probe a hash map;
//! * rule extraction materialised each split's body to look up its
//!   support count.
//!
//! [`ItemsetTrie`] replaces both with allocation-free walks: itemsets are
//! paths from the root, children are sorted `(item, node)` pairs probed
//! by binary search, and "subset with one element skipped" is just a walk
//! that skips one edge. Nodes live in a flat arena (`Vec`), so the whole
//! structure is two allocations' worth of cache-friendly storage.
//!
//! Lookups are counted behind a shared reference, so probing needs no
//! `&mut`.

use std::cell::Cell;

#[derive(Debug, Default)]
struct TrieNode {
    /// Sorted `(item, child index)` pairs.
    children: Vec<(u32, u32)>,
    /// `Some(count)` iff an inserted itemset ends here.
    count: Option<u32>,
}

/// A prefix trie over strictly ascending itemsets (node 0 is the root).
#[derive(Debug, Default)]
pub struct ItemsetTrie {
    nodes: Vec<TrieNode>,
    lookups: Cell<u64>,
}

impl ItemsetTrie {
    /// An empty trie (just the root node).
    pub fn new() -> ItemsetTrie {
        ItemsetTrie {
            nodes: vec![TrieNode::default()],
            lookups: Cell::new(0),
        }
    }

    /// A trie containing every set of `sets` (with count 0 — enough for
    /// membership pruning).
    pub fn from_sets<'a>(sets: impl IntoIterator<Item = &'a [u32]>) -> ItemsetTrie {
        let mut trie = ItemsetTrie::new();
        for set in sets {
            trie.insert(set, 0);
        }
        trie
    }

    /// Insert `set` with its support `count` (overwrites on re-insert).
    pub fn insert(&mut self, set: &[u32], count: u32) {
        let mut node = 0u32;
        for &item in set {
            let pos = self.nodes[node as usize]
                .children
                .binary_search_by_key(&item, |c| c.0);
            node = match pos {
                Ok(i) => self.nodes[node as usize].children[i].1,
                Err(i) => {
                    let fresh = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::default());
                    self.nodes[node as usize].children.insert(i, (item, fresh));
                    fresh
                }
            };
        }
        self.nodes[node as usize].count = Some(count);
    }

    /// Follow the `item` edge out of `node`, if present.
    fn descend(&self, node: u32, item: u32) -> Option<u32> {
        let children = &self.nodes[node as usize].children;
        children
            .binary_search_by_key(&item, |c| c.0)
            .ok()
            .map(|i| children[i].1)
    }

    /// The stored count for `set`, if it was inserted.
    pub fn get(&self, set: &[u32]) -> Option<u32> {
        self.lookups.set(self.lookups.get() + 1);
        let mut node = 0u32;
        for &item in set {
            node = self.descend(node, item)?;
        }
        self.nodes[node as usize].count
    }

    /// Was `set` inserted?
    pub fn contains(&self, set: &[u32]) -> bool {
        self.get(set).is_some()
    }

    /// The node `set \ skip` ends at and its stored count — both
    /// strictly ascending, `skip ⊆ set`. This is the rule-extraction body
    /// lookup: the body is never materialised, the walk just skips the
    /// head's edges.
    pub fn get_excluding(&self, set: &[u32], skip: &[u32]) -> Option<(u32, u32)> {
        self.lookups.set(self.lookups.get() + 1);
        let mut node = 0u32;
        let mut k = 0usize;
        for &item in set {
            if k < skip.len() && skip[k] == item {
                k += 1;
                continue;
            }
            node = self.descend(node, item)?;
        }
        Some((node, self.nodes[node as usize].count?))
    }

    /// Every non-empty proper subset of `set` (strictly ascending) with at
    /// most `max_size` items, in the order
    /// [`for_each_proper_subset`](super::itemset::for_each_proper_subset)
    /// yields them, with the node it ends at (`None` off the trie): each
    /// subset extends the one before it by an item, so its node is one
    /// edge below — no walk from the root, and no lookup counted.
    pub(crate) fn for_each_proper_subset_node(
        &self,
        set: &[u32],
        max_size: usize,
        f: &mut impl FnMut(&[u32], Option<u32>),
    ) {
        if set.len() <= 1 || max_size == 0 {
            return;
        }
        let cap = max_size.min(set.len() - 1);
        let mut buf: Vec<u32> = Vec::with_capacity(cap);
        self.subsets_below(set, 0, Some(0), cap, &mut buf, f);
    }

    fn subsets_below(
        &self,
        set: &[u32],
        start: usize,
        node: Option<u32>,
        cap: usize,
        buf: &mut Vec<u32>,
        f: &mut impl FnMut(&[u32], Option<u32>),
    ) {
        for (at, &item) in set.iter().enumerate().skip(start) {
            let child = node.and_then(|node| self.descend(node, item));
            buf.push(item);
            f(buf, child);
            if buf.len() < cap {
                self.subsets_below(set, at + 1, child, cap, buf, f);
            }
            buf.pop();
        }
    }

    /// Each node's position in a pre-order walk that takes children in
    /// item order: ordering itemsets by the position of their nodes is
    /// ordering them lexicographically (a prefix before its extensions).
    pub(crate) fn preorder(&self) -> Vec<u32> {
        let mut position = vec![0u32; self.nodes.len()];
        let mut stack = vec![0u32];
        let mut next = 0u32;
        while let Some(node) = stack.pop() {
            position[node as usize] = next;
            next += 1;
            let children = &self.nodes[node as usize].children;
            stack.extend(children.iter().rev().map(|&(_, child)| child));
        }
        position
    }

    /// Each node's parent and the item on the edge into it (the root's
    /// entry is `(0, 0)`): a node's itemset is the items on its path up
    /// to the root, read backwards.
    pub(crate) fn parents(&self) -> Vec<(u32, u32)> {
        let mut parents = vec![(0, 0); self.nodes.len()];
        for (node, entry) in (0..).zip(&self.nodes) {
            for &(item, child) in &entry.children {
                parents[child as usize] = (node, item);
            }
        }
        parents
    }

    /// The Apriori prune: is every (k-1)-subset of `cand` present? Each
    /// subset is a walk that skips one position — no subset is ever
    /// materialised.
    pub fn contains_all_immediate_subsets(&self, cand: &[u32]) -> bool {
        for skip in 0..cand.len() {
            self.lookups.set(self.lookups.get() + 1);
            let mut node = 0u32;
            let mut present = true;
            for (i, &item) in cand.iter().enumerate() {
                if i == skip {
                    continue;
                }
                match self.descend(node, item) {
                    Some(next) => node = next,
                    None => {
                        present = false;
                        break;
                    }
                }
            }
            if !present || self.nodes[node as usize].count.is_none() {
                return false;
            }
        }
        true
    }

    /// Arena size including the root (→ `core.trie.nodes` telemetry).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Drain the lookup counter (→ `core.trie.lookups` telemetry).
    pub fn take_lookups(&self) -> u64 {
        self.lookups.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut trie = ItemsetTrie::new();
        trie.insert(&[1, 2, 3], 7);
        trie.insert(&[1, 2], 9);
        trie.insert(&[4], 2);
        assert_eq!(trie.get(&[1, 2, 3]), Some(7));
        assert_eq!(trie.get(&[1, 2]), Some(9));
        assert_eq!(trie.get(&[4]), Some(2));
        assert_eq!(trie.get(&[1]), None, "prefix node, never inserted");
        assert_eq!(trie.get(&[2, 3]), None);
        assert!(!trie.contains(&[9]));
    }

    #[test]
    fn get_excluding_skips_head_items() {
        let mut trie = ItemsetTrie::new();
        trie.insert(&[1, 3], 5);
        trie.insert(&[2], 6);
        let count = |set: &[u32], skip: &[u32]| trie.get_excluding(set, skip).map(|(_, c)| c);
        // set {1,2,3} minus head {2} = body {1,3}.
        assert_eq!(count(&[1, 2, 3], &[2]), Some(5));
        // minus head {1,3} = body {2}.
        assert_eq!(count(&[1, 2, 3], &[1, 3]), Some(6));
        assert_eq!(count(&[1, 2, 3], &[3]), None, "body 1-2 absent");
        assert_eq!(
            trie.get_excluding(&[1, 2, 3], &[2]),
            trie.get_excluding(&[1, 3], &[])
        );
    }

    #[test]
    fn subset_nodes_follow_the_subset_order_and_preorder_ranks_lexicographically() {
        let sets: [&[u32]; 7] = [&[1], &[2], &[3], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3]];
        let trie = ItemsetTrie::from_sets(sets);
        let mut plain = Vec::new();
        super::super::itemset::for_each_proper_subset(&[1, 2, 3], 2, &mut |s| {
            plain.push(s.to_vec())
        });
        let mut walked = Vec::new();
        trie.for_each_proper_subset_node(&[1, 2, 3], 2, &mut |s, node| {
            walked.push((s.to_vec(), node))
        });
        assert_eq!(
            walked.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>(),
            plain
        );
        let rank = trie.preorder();
        let mut by_rank: Vec<Vec<u32>> = walked.iter().map(|(s, _)| s.clone()).collect();
        by_rank.sort_by_key(|s| rank[trie.get_excluding(s, &[]).unwrap().0 as usize]);
        let mut lexicographic = by_rank.clone();
        lexicographic.sort();
        assert_eq!(by_rank, lexicographic);
        for (set, node) in &walked {
            assert_eq!(Some(trie.get_excluding(set, &[]).unwrap().0), *node);
        }
        // Off the trie: a subset whose prefix is missing has no node.
        let sparse = ItemsetTrie::from_sets([&[2u32][..], &[3]]);
        let mut nodes = Vec::new();
        sparse.for_each_proper_subset_node(&[1, 2, 3], 1, &mut |s, node| {
            nodes.push((s[0], node.is_some()))
        });
        assert_eq!(nodes, [(1, false), (2, true), (3, true)]);
        assert_eq!(sparse.take_lookups(), 0, "no walk from the root counted");
    }

    #[test]
    fn prune_requires_every_immediate_subset() {
        let trie = ItemsetTrie::from_sets([&[1u32, 2][..], &[1, 3], &[2, 3]]);
        assert!(trie.contains_all_immediate_subsets(&[1, 2, 3]));
        let partial = ItemsetTrie::from_sets([&[1u32, 2][..], &[1, 3]]);
        assert!(
            !partial.contains_all_immediate_subsets(&[1, 2, 3]),
            "{{2,3}} missing"
        );
    }

    #[test]
    fn nodes_share_prefixes() {
        let trie = ItemsetTrie::from_sets([&[1u32, 2, 3][..], &[1, 2, 4]]);
        // root + 1 + 2 + {3,4} = 5 nodes.
        assert_eq!(trie.node_count(), 5);
    }

    #[test]
    fn lookups_drain() {
        let trie = ItemsetTrie::from_sets([&[1u32][..], &[2]]);
        trie.get(&[1]);
        trie.contains_all_immediate_subsets(&[1, 2]);
        assert_eq!(trie.take_lookups(), 3, "one get + two subset probes");
        assert_eq!(trie.take_lookups(), 0, "drained");
    }
}
