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

    /// The stored count for `set \ skip` — both strictly ascending,
    /// `skip ⊆ set`. This is the rule-extraction body lookup: the body is
    /// never materialised, the walk just skips the head's edges.
    pub fn get_excluding(&self, set: &[u32], skip: &[u32]) -> Option<u32> {
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
        self.nodes[node as usize].count
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
        // set {1,2,3} minus head {2} = body {1,3}.
        assert_eq!(trie.get_excluding(&[1, 2, 3], &[2]), Some(5));
        // minus head {1,3} = body {2}.
        assert_eq!(trie.get_excluding(&[1, 2, 3], &[1, 3]), Some(6));
        assert_eq!(
            trie.get_excluding(&[1, 2, 3], &[3]),
            None,
            "body 1-2 absent"
        );
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
