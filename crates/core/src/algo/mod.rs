//! The pool of mining algorithms for simple association rules (§4.3.1).
//!
//! Algorithm interoperability is a design goal of the architecture: every
//! algorithm consumes the same [`SimpleInput`] (encoded groups of large
//! items) and produces the same large-itemset inventory, so they can be
//! swapped behind the core operator without the rest of the kernel
//! noticing. The pool contains:
//!
//! * [`apriori::AprioriGidList`] — the paper's own description: support
//!   via lists of group identifiers attached to each itemset;
//! * [`apriori::AprioriCount`] — classical counting Apriori \[AIS93/AS94\];
//! * [`dhp::Dhp`] — hash-based pruning of candidate pairs \[PSY95\];
//! * [`partition::Partition`] — two-pass partitioning \[SON95\];
//! * [`sampling::Sampling`] — sample + negative border \[Toi96\];
//! * [`eclat::Eclat`] — depth-first vertical mining;
//! * [`fpgrowth::FpGrowth`] — pattern-growth without candidate
//!   generation (post-paper, included to demonstrate that the pool is
//!   open to algorithms the architecture's authors never saw).

pub mod apriori;
pub mod counting;
pub mod dhp;
pub mod eclat;
pub mod fpgrowth;
pub mod gidset;
pub mod itemset;
pub mod partition;
pub mod sampling;
pub mod trie;

pub use counting::CountingCtx;
pub use gidset::{GidSet, GidSetCtx, GidSetScratch};

use std::collections::HashMap;

use relational::KeyHash;

use crate::ast::CardSpec;
use crate::error::{MineError, Result};
use crate::runs;
use itemset::Itemset;
use trie::LinkedTrie;

/// Encoded input for the simple core processing: one entry per group that
/// contains at least one large item. `total_groups` counts *all* groups
/// (the support denominator), which may exceed `groups.len()`.
#[derive(Debug, Clone)]
pub struct SimpleInput {
    /// Sorted, deduplicated large-item lists per group.
    pub groups: GroupArena,
    /// Support denominator (`:totg`).
    pub total_groups: u32,
    /// Absolute large threshold (`:mingroups`).
    pub min_groups: u32,
}

impl SimpleInput {
    /// The input with its groups borrowed.
    pub fn view(&self) -> SimpleView<'_> {
        SimpleView {
            groups: self.groups.groups(),
            total_groups: self.total_groups,
            min_groups: self.min_groups,
        }
    }
}

/// A [`SimpleInput`] whose groups are read in place, in the arena that
/// holds them.
#[derive(Debug, Clone, Copy)]
pub struct SimpleView<'a> {
    /// Sorted, deduplicated large-item lists per group.
    pub groups: Groups<'a>,
    /// Support denominator (`:totg`).
    pub total_groups: u32,
    /// Absolute large threshold (`:mingroups`).
    pub min_groups: u32,
}

/// Groups of item ids stored flat, the layout of the paper's
/// `CodedSource(Gid, Bid)` in group order: group `at` has key (Gid)
/// `keys[at]` and items `items[ends[at - 1]..ends[at]]` (from 0 for the
/// first), ascending. The simple-class core input from the preprocessor
/// to the miner's first level, and every pool input: three vectors
/// however many groups, so building, copying or handing one over
/// allocates nothing per group.
///
/// Built by [`GroupArena::push`]ing a group's items and
/// [`GroupArena::close`]-ing it under its key. Item ids index the first
/// level's counting arrays ([`GroupArena::item_bound`]): they are meant
/// to be dense, as the Bids the id sequences draw are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupArena {
    /// The key of each group (its Gid in an encoded input), in order.
    keys: Vec<u32>,
    /// Where each group ends in `items`.
    ends: Vec<u32>,
    /// The items of every group, group after group.
    items: Vec<u32>,
    /// One more than the largest item (0 when there is none).
    bound: u32,
}

impl GroupArena {
    /// An empty arena with room for `groups` groups and `items` items.
    pub fn with_capacity(groups: usize, items: usize) -> GroupArena {
        GroupArena {
            keys: Vec::with_capacity(groups),
            ends: Vec::with_capacity(groups),
            items: Vec::with_capacity(items),
            bound: 0,
        }
    }

    /// Append an item to the group being built; a group's items come
    /// ascending.
    pub fn push(&mut self, item: u32) {
        debug_assert!(self.items.len() == self.open_start() || self.items.last() < Some(&item));
        self.items.push(item);
        self.bound = self.bound.max(item + 1);
    }

    /// Close the group whose items were pushed since the last close,
    /// under `key`.
    pub fn close(&mut self, key: u32) {
        self.keys.push(key);
        self.ends.push(self.items.len() as u32);
    }

    /// Push a whole group's items, ascending, and close it under `key`.
    pub fn push_group(&mut self, key: u32, items: &[u32]) {
        items.iter().for_each(|&item| self.push(item));
        self.close(key);
    }

    /// [`GroupArena::close`], unless no item was pushed: an encoded group
    /// without a large item is not handed to the core.
    pub(crate) fn close_unless_empty(&mut self, key: u32) {
        if self.items.len() > self.open_start() {
            self.close(key);
        }
    }

    /// The arena of distinct `(key, item)` pairs sorted by key, then
    /// item: one group per key.
    pub(crate) fn from_sorted(pairs: impl ExactSizeIterator<Item = (u32, u32)>) -> GroupArena {
        let mut arena = GroupArena::with_capacity(0, pairs.len());
        let mut open = None;
        for (key, item) in pairs {
            if let Some(last) = open.filter(|&last| last != key) {
                arena.close(last);
            }
            arena.push(item);
            open = Some(key);
        }
        if let Some(last) = open {
            arena.close(last);
        }
        arena
    }

    fn open_start(&self) -> usize {
        self.ends.last().map_or(0, |&end| end as usize)
    }

    /// How many groups the arena holds.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The items of group `at` (its position, not its key).
    pub fn get(&self, at: usize) -> &[u32] {
        self.groups().get(at)
    }

    /// Each group's key and items, in order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.keys.iter().copied().zip(self.groups().iter())
    }

    /// One more than the largest item id (0 for no item).
    pub fn item_bound(&self) -> u32 {
        self.bound
    }

    /// All groups, borrowed.
    pub fn groups(&self) -> Groups<'_> {
        Groups {
            start: 0,
            ends: &self.ends,
            items: &self.items,
            bound: self.bound,
        }
    }

    /// Rough retained size, in bytes.
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.keys.len() + self.ends.len() + self.items.len()) as u64 * 4 + 80
    }
}

impl From<Vec<Vec<u32>>> for GroupArena {
    /// One group per list, keyed by its position; empty lists stay.
    fn from(lists: Vec<Vec<u32>>) -> GroupArena {
        let items = lists.iter().map(Vec::len).sum();
        let mut arena = GroupArena::with_capacity(lists.len(), items);
        for (at, list) in (0..).zip(&lists) {
            arena.push_group(at, list);
        }
        arena
    }
}

/// Consecutive groups of a [`GroupArena`], borrowed: what the pool's
/// counting passes read.
#[derive(Debug, Clone, Copy)]
pub struct Groups<'a> {
    /// Where the first group starts in `items`.
    start: u32,
    /// Where each group ends in `items`.
    ends: &'a [u32],
    items: &'a [u32],
    /// The arena's item bound.
    bound: u32,
}

impl<'a> Groups<'a> {
    pub fn len(self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(self) -> bool {
        self.ends.is_empty()
    }

    /// The items of group `at` (its position, not its key).
    pub fn get(self, at: usize) -> &'a [u32] {
        let start = at
            .checked_sub(1)
            .map_or(self.start, |before| self.ends[before]);
        &self.items[start as usize..self.ends[at] as usize]
    }

    /// The groups' item lists in order.
    pub fn iter(self) -> impl Iterator<Item = &'a [u32]> {
        (0..self.len()).map(move |at| self.get(at))
    }

    /// The groups at positions `range`.
    pub fn slice(self, range: std::ops::Range<usize>) -> Groups<'a> {
        let start = range
            .start
            .checked_sub(1)
            .map_or(self.start, |before| self.ends[before]);
        Groups {
            start,
            ends: &self.ends[range],
            ..self
        }
    }

    /// One more than the largest item id the groups can hold.
    pub fn item_bound(self) -> u32 {
        self.bound
    }

    /// The items of every group, group after group.
    fn flat(self) -> &'a [u32] {
        let end = self.ends.last().map_or(self.start, |&end| end);
        &self.items[self.start as usize..end as usize]
    }
}

/// A large itemset with its group count.
pub type LargeItemset = (Itemset, u32);

/// The common contract of the pool.
pub trait ItemsetMiner {
    /// Human-readable identifier (appears in benches and reports).
    fn name(&self) -> &'static str;

    /// Produce every large itemset (support count ≥ `input.min_groups`)
    /// with its exact group count, running counting passes through the
    /// given counting context (which also records the run's work).
    fn mine_with(&self, input: SimpleView<'_>, ctx: &CountingCtx) -> Vec<LargeItemset>;

    /// `mine_with` over an owned input, on a fresh default context.
    fn mine(&self, input: &SimpleInput) -> Vec<LargeItemset> {
        self.mine_with(input.view(), &CountingCtx::default())
    }
}

/// The members of the pool, for enumeration in tests and benches.
pub fn default_pool() -> Vec<Box<dyn ItemsetMiner>> {
    vec![
        Box::new(apriori::AprioriGidList),
        Box::new(apriori::AprioriCount),
        Box::new(dhp::Dhp::default()),
        Box::new(partition::Partition::default()),
        Box::new(sampling::Sampling::default()),
        Box::new(eclat::Eclat),
        Box::new(fpgrowth::FpGrowth),
    ]
}

/// Every name `by_name` accepts, canonical spelling first — the list
/// user-facing "unknown algorithm" errors cite.
pub const POOL_NAMES: &[&str] = &[
    "apriori",
    "count",
    "dhp",
    "partition",
    "sampling",
    "eclat",
    "fpgrowth",
];

/// Look an algorithm up by name (the pipeline's algorithm selector).
pub fn by_name(name: &str) -> Option<Box<dyn ItemsetMiner>> {
    match name.to_ascii_lowercase().as_str() {
        "apriori" | "gidlist" | "apriori-gidlist" => Some(Box::new(apriori::AprioriGidList)),
        "count" | "apriori-count" => Some(Box::new(apriori::AprioriCount)),
        "dhp" => Some(Box::new(dhp::Dhp::default())),
        "partition" => Some(Box::new(partition::Partition::default())),
        "sampling" => Some(Box::new(sampling::Sampling::default())),
        "eclat" => Some(Box::new(eclat::Eclat)),
        "fpgrowth" | "fp-growth" => Some(Box::new(fpgrowth::FpGrowth)),
        _ => None,
    }
}

/// One side's distinct itemsets — the bodies or the heads of a rule
/// list — each stored once, items after items: set `id` is
/// `items[ends[id - 1]..ends[id]]` (from 0 for the first). This is the
/// paper's `OutputBodies` / `OutputHeads` with `BodyId = id + 1`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ItemsetArena {
    /// The items of every set, set after set.
    pub items: Vec<u32>,
    /// Where each set ends in `items`.
    pub ends: Vec<u32>,
}

impl ItemsetArena {
    /// How many sets the arena holds.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The items of set `id`.
    pub fn get(&self, id: u32) -> &[u32] {
        let start = id.checked_sub(1).map_or(0, |at| self.ends[at as usize]);
        &self.items[start as usize..self.ends[id as usize] as usize]
    }

    /// The sets in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len() as u32).map(|id| self.get(id))
    }

    /// Close the set whose items were pushed since the last one; its id.
    fn close(&mut self) -> u32 {
        self.ends.push(self.items.len() as u32);
        self.ends.len() as u32 - 1
    }
}

/// One rule of an [`EncodedRules`]: its body and head as set ids into
/// the list's two arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedRule {
    /// `BodyId - 1`.
    pub body: u32,
    /// `HeadId - 1`.
    pub head: u32,
    /// Groups containing body ∪ head.
    pub group_count: u32,
    pub support: f64,
    pub confidence: f64,
}

/// A rule of an [`EncodedRules`] with its body and head items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleView<'a> {
    pub body: &'a [u32],
    pub head: &'a [u32],
    pub group_count: u32,
    pub support: f64,
    pub confidence: f64,
}

/// The core operator's output in the paper's normalised form (§4.3): the
/// rules in canonical order — by body, then head — each naming its body
/// and head by id, and every distinct body and head stored once. Ids are
/// assigned in first-seen order over the rules, so equal rule lists are
/// equal values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncodedRules {
    pub bodies: ItemsetArena,
    pub heads: ItemsetArena,
    pub rules: Vec<EncodedRule>,
}

impl EncodedRules {
    /// How many rules there are.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Each rule with its body and head items, in order.
    pub fn iter(&self) -> impl Iterator<Item = RuleView<'_>> {
        self.rules.iter().map(|r| RuleView {
            body: self.bodies.get(r.body),
            head: self.heads.get(r.head),
            group_count: r.group_count,
            support: r.support,
            confidence: r.confidence,
        })
    }

    /// Rules given in canonical order, their sides interned: a body is
    /// new when it differs from the one before (the bodies come in runs),
    /// a head when no earlier rule had it.
    pub(crate) fn from_sorted<'s>(sorted: impl IntoIterator<Item = RuleView<'s>>) -> EncodedRules {
        let mut out = EncodedRules::default();
        let mut head_ids: HashMap<&[u32], u32, KeyHash> = HashMap::default();
        let mut last_body: Option<&[u32]> = None;
        for rule in sorted {
            if last_body != Some(rule.body) {
                out.bodies.items.extend_from_slice(rule.body);
                out.bodies.close();
                last_body = Some(rule.body);
            }
            let heads = &mut out.heads;
            let head = *head_ids.entry(rule.head).or_insert_with(|| {
                heads.items.extend_from_slice(rule.head);
                heads.close()
            });
            out.rules.push(EncodedRule {
                body: out.bodies.len() as u32 - 1,
                head,
                group_count: rule.group_count,
                support: rule.support,
                confidence: rule.confidence,
            });
        }
        out
    }
}

/// Accounting from [`rules_from_itemsets_counted`], published to the
/// telemetry registry as `core.rules.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleGenStats {
    /// Body/head splits whose confidence was evaluated.
    pub candidates: u64,
    /// Splits rejected by the confidence threshold.
    pub pruned_confidence: u64,
    /// Nodes of the drop-linked trie over the inventory, the root
    /// included (`core.trie.nodes`).
    pub trie_nodes: u64,
    /// Child steps taken to link the inventory and to find the heads
    /// (`core.trie.lookups`).
    pub trie_lookups: u64,
}

/// Build rules `(L − H) ⇒ H` from the large-itemset inventory (§4.3.1),
/// honouring the statement's cardinality specifications and minimum
/// confidence. Support of each emitted rule is `count(L) / total`;
/// confidence is `count(L) / count(L − H)`. The rules come back in
/// canonical order.
pub fn rules_from_itemsets(
    large: &[LargeItemset],
    total_groups: u32,
    body_card: CardSpec,
    head_card: CardSpec,
    min_confidence: f64,
) -> Result<EncodedRules> {
    rules_from_itemsets_counted(large, total_groups, body_card, head_card, min_confidence)
        .map(|(rules, _)| rules)
}

/// A rule as the split loop finds it: body and head as the node ids of
/// their itemsets.
struct Split {
    body: u32,
    head: u32,
    group_count: u32,
    confidence: f64,
}

/// The split loop: each large itemset's heads, walked depth-first.
struct Splits<'a> {
    trie: &'a LinkedTrie,
    /// The nodes' lexicographic ranks (`LinkedTrie::preorder`).
    rank: Vec<u32>,
    body_card: CardSpec,
    head_card: CardSpec,
    min_confidence: f64,
    /// The itemset being split, its group count and its largest head.
    set: &'a [u32],
    count: u32,
    max_head: usize,
    /// The rules found, and their sort keys.
    splits: Vec<Split>,
    keys: Vec<(u64, u32)>,
    stats: RuleGenStats,
}

impl Splits<'_> {
    /// Every head that extends `head` (of `h` items, at `head_at`) by an
    /// item of the set from position `from` on. Its body is `body_at`,
    /// the set without the head: a head one item larger drops that item
    /// from the body, which is one link read, and the head itself is one
    /// child step.
    fn walk(&mut self, from: usize, h: usize, head_at: u32, body_at: u32) -> Result<()> {
        let n = self.set.len();
        for (at, &item) in self.set.iter().enumerate().skip(from) {
            let Some(head) = self.trie.child(h, head_at as usize, item) else {
                let mut missing = self.trie.set(h, head_at as usize).to_vec();
                missing.push(item);
                return Err(missing_subset(&missing, self.set));
            };
            // Every head item is before `at`, so `item` is at `at - h` in
            // the body.
            let body = self.trie.drop_one(n - h, body_at as usize, at - h);
            let (h, b) = (h + 1, n - h - 1);
            if self.head_card.admits(h) && self.body_card.admits(b) {
                self.stats.candidates += 1;
                let confidence = self.count as f64 / self.trie.count(b, body as usize) as f64;
                if confidence + 1e-12 >= self.min_confidence {
                    let (body, head) = (
                        self.trie.id(b, body as usize),
                        self.trie.id(h, head as usize),
                    );
                    let key = runs::pack(self.rank[body as usize], self.rank[head as usize]);
                    self.keys.push((key, self.splits.len() as u32));
                    self.splits.push(Split {
                        body,
                        head,
                        group_count: self.count,
                        confidence,
                    });
                } else {
                    self.stats.pruned_confidence += 1;
                }
            }
            if h < self.max_head {
                self.walk(at + 1, h, head, body)?;
            }
        }
        Ok(())
    }
}

/// The error for an inventory that is not downward closed.
fn missing_subset(missing: &[u32], set: &[u32]) -> MineError {
    MineError::Internal {
        message: format!(
            "subset {missing:?} of large itemset {set:?} missing from inventory \
             (anti-monotonicity violated)"
        ),
    }
}

/// [`rules_from_itemsets`] also returning split-evaluation counts.
pub fn rules_from_itemsets_counted(
    large: &[LargeItemset],
    total_groups: u32,
    body_card: CardSpec,
    head_card: CardSpec,
    min_confidence: f64,
) -> Result<(EncodedRules, RuleGenStats)> {
    // The inventory goes into a drop-linked trie: the body of a split is
    // the set without the head's items, which is one link read per head
    // item, and the head is one child step from the head before it. Body
    // and head are both large itemsets, so a rule is the pair of their
    // node ids: the nodes rank them lexicographically (`preorder`), the
    // rules are ordered on packed rank pairs, and each distinct node's
    // itemset is copied once, when the ordered rules first name it. No
    // itemset is built or compared per rule.
    let trie =
        LinkedTrie::from_large(large).map_err(|gap| missing_subset(&gap.missing, &gap.of))?;
    let mut walk = Splits {
        trie: &trie,
        rank: trie.preorder(),
        body_card,
        head_card,
        min_confidence,
        set: &[],
        count: 0,
        max_head: 0,
        splits: Vec::new(),
        keys: Vec::new(),
        stats: RuleGenStats::default(),
    };
    for n in 2..=trie.depth() {
        walk.max_head = head_card.upper_limit().min(n as u32 - 1) as usize;
        for at in 0..trie.len(n) {
            (walk.set, walk.count) = (trie.set(n, at), trie.count(n, at));
            walk.walk(0, 0, 0, at as u32)?;
        }
    }
    let Splits {
        splits,
        mut keys,
        mut stats,
        ..
    } = walk;
    runs::radix_sort(&mut keys);
    let mut out = EncodedRules {
        rules: Vec::with_capacity(keys.len()),
        ..EncodedRules::default()
    };
    let nodes = trie.node_count();
    let mut set_id = [vec![u32::MAX; nodes], vec![u32::MAX; nodes]];
    let mut intern = |side: usize, arena: &mut ItemsetArena, node: u32| {
        let id = &mut set_id[side][node as usize];
        if *id == u32::MAX {
            arena.items.extend_from_slice(trie.set_by_id(node));
            *id = arena.close();
        }
        *id
    };
    for &(_, at) in &keys {
        let split = &splits[at as usize];
        out.rules.push(EncodedRule {
            body: intern(0, &mut out.bodies, split.body),
            head: intern(1, &mut out.heads, split.head),
            group_count: split.group_count,
            support: split.group_count as f64 / total_groups as f64,
            confidence: split.confidence,
        });
    }
    stats.trie_nodes = nodes as u64;
    stats.trie_lookups = trie.steps();
    Ok((out, stats))
}

/// Canonical sort for comparing itemset inventories in tests.
pub fn sort_itemsets(sets: &mut [LargeItemset]) {
    sets.sort_by(|a, b| a.0.cmp(&b.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> SimpleInput {
        // 4 groups over items {1,2,3}.
        SimpleInput {
            groups: vec![vec![1, 2, 3], vec![1, 2], vec![1, 3], vec![2, 3]].into(),
            total_groups: 4,
            min_groups: 2,
        }
    }

    #[test]
    fn pool_members_agree_on_toy_input() {
        let input = input();
        let mut reference: Option<Vec<LargeItemset>> = None;
        for m in default_pool() {
            let mut got = m.mine(&input);
            sort_itemsets(&mut got);
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "{} disagrees", m.name()),
            }
        }
        let r = reference.unwrap();
        assert!(r.contains(&(vec![1, 2], 2)));
        assert!(r.contains(&(vec![1], 3)));
    }

    #[test]
    fn rules_respect_confidence() {
        let large = vec![(vec![1], 3), (vec![2], 3), (vec![1, 2], 2)];
        let rules =
            rules_from_itemsets(&large, 4, CardSpec::one_to_n(), CardSpec::one_to_one(), 0.7)
                .unwrap();
        // conf({1}⇒{2}) = 2/3 < 0.7 — rejected both ways.
        assert!(rules.is_empty());
        let rules =
            rules_from_itemsets(&large, 4, CardSpec::one_to_n(), CardSpec::one_to_one(), 0.6)
                .unwrap();
        assert_eq!(rules.len(), 2);
        assert!((rules.rules[0].support - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rules_come_back_in_canonical_order() {
        // Groups over 9 items drawn by an xorshift; every head width, so
        // bodies and heads of all sizes interleave in the order.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let groups: Vec<Vec<u32>> = (0..60)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (1..10).filter(|i| state >> i & 1 == 1).collect()
            })
            .collect();
        let input = SimpleInput {
            groups: groups.into(),
            total_groups: 60,
            min_groups: 6,
        };
        let large = apriori::AprioriGidList.mine(&input);
        for head in [CardSpec::one_to_one(), CardSpec::one_to_n()] {
            let rules = rules_from_itemsets(&large, 60, CardSpec::one_to_n(), head, 0.1).unwrap();
            assert!(rules.len() > 100, "{}", rules.len());
            let pairs: Vec<(&[u32], &[u32])> = rules.iter().map(|r| (r.body, r.head)).collect();
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "by body, then head");
            // Ids are first-seen over that order, each set stored once.
            let mut seen = [0, 0];
            for r in &rules.rules {
                for (side, id) in [r.body, r.head].into_iter().enumerate() {
                    assert!(id <= seen[side], "{side}: id {id} before {}", seen[side]);
                    seen[side] = seen[side].max(id + 1);
                }
            }
            assert_eq!(seen, [rules.bodies.len() as u32, rules.heads.len() as u32]);
            let distinct = |sets: &ItemsetArena| {
                let mut all: Vec<&[u32]> = sets.iter().collect();
                all.sort_unstable();
                all.dedup();
                all.len()
            };
            assert_eq!(distinct(&rules.bodies), rules.bodies.len());
            assert_eq!(distinct(&rules.heads), rules.heads.len());
        }
    }

    /// A rule as `(body, head, group count, support, confidence)`.
    type OwnedRule = (Itemset, Itemset, u32, f64, f64);

    /// The rules of `large` by brute force: every split of every set,
    /// each body's count looked up by value.
    fn naive_rules(
        large: &[LargeItemset],
        total: u32,
        body_card: CardSpec,
        head_card: CardSpec,
        min_confidence: f64,
    ) -> (Vec<OwnedRule>, u64) {
        let counts: HashMap<&[u32], u32> = large.iter().map(|(s, c)| (s.as_slice(), *c)).collect();
        let mut rules = Vec::new();
        let mut candidates = 0;
        for (set, count) in large {
            for mask in 1u32..(1 << set.len()) - 1 {
                let in_head = |i: usize| mask >> i & 1 == 1;
                let pick = |head: bool| -> Itemset {
                    let at = (0..set.len()).filter(|&i| in_head(i) == head);
                    at.map(|i| set[i]).collect()
                };
                let (head, body) = (pick(true), pick(false));
                if !head_card.admits(head.len()) || !body_card.admits(body.len()) {
                    continue;
                }
                candidates += 1;
                let confidence = *count as f64 / counts[body.as_slice()] as f64;
                if confidence + 1e-12 >= min_confidence {
                    let support = *count as f64 / total as f64;
                    rules.push((body, head, *count, support, confidence));
                }
            }
        }
        rules.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        (rules, candidates)
    }

    #[test]
    fn rules_match_brute_force_splits_for_every_head_width() {
        // Several link reads per body once heads have more than one item.
        let two_to_n = CardSpec {
            min: 2,
            ..CardSpec::one_to_n()
        };
        let two_to_three = CardSpec {
            min: 2,
            max: crate::ast::CardMax::Fixed(3),
        };
        let cards = [
            (CardSpec::one_to_n(), CardSpec::one_to_one()),
            (CardSpec::one_to_n(), CardSpec::one_to_n()),
            (CardSpec::one_to_one(), CardSpec::one_to_n()),
            (two_to_n, two_to_three),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..8 {
            let groups: Vec<Vec<u32>> = (0..80)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (0..9).filter(|i| state >> (i + round) & 3 != 0).collect()
                })
                .collect();
            let input = SimpleInput {
                groups: groups.into(),
                total_groups: 80,
                min_groups: 12,
            };
            let mut large = apriori::AprioriGidList.mine(&input);
            // Any inventory order: other pool members return their own.
            large.reverse();
            for (body_card, head_card) in cards {
                let (rules, stats) =
                    rules_from_itemsets_counted(&large, 80, body_card, head_card, 0.6).unwrap();
                let got: Vec<_> = rules
                    .iter()
                    .map(|r| {
                        let (body, head) = (r.body.to_vec(), r.head.to_vec());
                        (body, head, r.group_count, r.support, r.confidence)
                    })
                    .collect();
                let (expect, candidates) = naive_rules(&large, 80, body_card, head_card, 0.6);
                assert!(!expect.is_empty());
                assert_eq!(got, expect, "round {round}, {body_card:?} => {head_card:?}");
                assert_eq!(stats.candidates, candidates);
                assert_eq!(stats.pruned_confidence, candidates - got.len() as u64);
            }
        }
    }

    #[test]
    fn an_inventory_missing_a_subset_is_an_internal_error() {
        let gaps: [&[&[u32]]; 3] = [
            &[&[1], &[1, 2]],
            &[&[2], &[1, 2]],
            &[&[1], &[2], &[3], &[1, 2], &[2, 3], &[1, 2, 3]],
        ];
        for sets in gaps {
            let large: Vec<LargeItemset> = sets.iter().map(|s| (s.to_vec(), 2)).collect();
            for head in [CardSpec::one_to_one(), CardSpec::one_to_n()] {
                let got = rules_from_itemsets_counted(&large, 4, CardSpec::one_to_n(), head, 0.1);
                let Err(MineError::Internal { message }) = got else {
                    panic!("{sets:?}: {got:?}");
                };
                assert!(
                    message.ends_with("missing from inventory (anti-monotonicity violated)"),
                    "{message}"
                );
            }
        }
    }

    #[test]
    fn head_cardinality_limits_splits() {
        let large = vec![
            (vec![1], 2),
            (vec![2], 2),
            (vec![3], 2),
            (vec![1, 2], 2),
            (vec![1, 3], 2),
            (vec![2, 3], 2),
            (vec![1, 2, 3], 2),
        ];
        let one_head = rules_from_itemsets(
            &large,
            4,
            CardSpec::one_to_n(),
            CardSpec::one_to_one(),
            0.0001,
        )
        .unwrap();
        assert!(one_head.iter().all(|r| r.head.len() == 1));
        let multi = rules_from_itemsets(
            &large,
            4,
            CardSpec::one_to_n(),
            CardSpec::one_to_n(),
            0.0001,
        )
        .unwrap();
        assert!(multi.iter().any(|r| r.head.len() == 2));
        assert!(multi.len() > one_head.len());
    }

    #[test]
    fn by_name_resolves_pool() {
        for name in [
            "apriori",
            "count",
            "dhp",
            "partition",
            "sampling",
            "eclat",
            "fpgrowth",
        ] {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert!(by_name("quantum").is_none());
        assert!(by_name("partition-par").is_none(), "no parallel variant");
    }
}
