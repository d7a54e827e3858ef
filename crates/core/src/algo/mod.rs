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
pub mod dhp;
pub mod eclat;
pub mod executor;
pub mod fpgrowth;
pub mod gidset;
pub mod itemset;
pub mod partition;
pub mod sampling;
pub mod trie;

pub use executor::ShardExec;
pub use gidset::{GidSet, GidSetCtx, GidSetScratch};
pub use trie::ItemsetTrie;

use crate::ast::CardSpec;
use crate::error::{MineError, Result};
use itemset::{for_each_proper_subset, Itemset};

/// Encoded input for the simple core processing: one entry per group that
/// contains at least one large item. `total_groups` counts *all* groups
/// (the support denominator), which may exceed `groups.len()`.
#[derive(Debug, Clone)]
pub struct SimpleInput {
    /// Sorted, deduplicated large-item lists per group.
    pub groups: Vec<Vec<u32>>,
    /// Support denominator (`:totg`).
    pub total_groups: u32,
    /// Absolute large threshold (`:mingroups`).
    pub min_groups: u32,
}

impl SimpleInput {
    /// Build from raw `(gid, items)` pairs, sorting and deduplicating.
    pub fn from_groups(
        pairs: Vec<(u32, Vec<u32>)>,
        total_groups: u32,
        min_groups: u32,
    ) -> SimpleInput {
        let mut groups = Vec::with_capacity(pairs.len());
        for (_, mut items) in pairs {
            items.sort_unstable();
            items.dedup();
            if !items.is_empty() {
                groups.push(items);
            }
        }
        SimpleInput {
            groups,
            total_groups,
            min_groups,
        }
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
    /// given shard executor. The inventory must be *identical* for every
    /// worker count (see `executor` module docs for the determinism
    /// rules that make this hold).
    fn mine_sharded(&self, input: &SimpleInput, exec: &ShardExec) -> Vec<LargeItemset>;

    /// Sequential entry point: `mine_sharded` on a one-worker executor.
    fn mine(&self, input: &SimpleInput) -> Vec<LargeItemset> {
        self.mine_sharded(input, &ShardExec::sequential())
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
    "partition-par",
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
        "partition-par" | "partition-parallel" => Some(Box::new(partition::Partition::parallel())),
        "sampling" => Some(Box::new(sampling::Sampling::default())),
        "eclat" => Some(Box::new(eclat::Eclat)),
        "fpgrowth" | "fp-growth" => Some(Box::new(fpgrowth::FpGrowth)),
        _ => None,
    }
}

/// An encoded rule as produced by the core operator.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedRule {
    pub body: Itemset,
    pub head: Itemset,
    /// Groups containing body ∪ head.
    pub group_count: u32,
    pub support: f64,
    pub confidence: f64,
}

/// Accounting from [`rules_from_itemsets_counted`], published to the
/// telemetry registry as `core.rules.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleGenStats {
    /// Body/head splits whose confidence was evaluated.
    pub candidates: u64,
    /// Splits rejected by the confidence threshold.
    pub pruned_confidence: u64,
    /// Arena nodes in the support-lookup trie over the inventory
    /// (`core.trie.nodes`).
    pub trie_nodes: u64,
    /// Trie walks performed for body-support lookups
    /// (`core.trie.lookups`).
    pub trie_lookups: u64,
}

/// Build rules `(L − H) ⇒ H` from the large-itemset inventory (§4.3.1),
/// honouring the statement's cardinality specifications and minimum
/// confidence. Support of each emitted rule is `count(L) / total`;
/// confidence is `count(L) / count(L − H)`.
pub fn rules_from_itemsets(
    large: &[LargeItemset],
    total_groups: u32,
    body_card: CardSpec,
    head_card: CardSpec,
    min_confidence: f64,
) -> Result<Vec<EncodedRule>> {
    rules_from_itemsets_counted(large, total_groups, body_card, head_card, min_confidence)
        .map(|(rules, _)| rules)
}

/// [`rules_from_itemsets`] also returning split-evaluation counts.
pub fn rules_from_itemsets_counted(
    large: &[LargeItemset],
    total_groups: u32,
    body_card: CardSpec,
    head_card: CardSpec,
    min_confidence: f64,
) -> Result<(Vec<EncodedRule>, RuleGenStats)> {
    // Support lookups go through a prefix trie over the inventory: the
    // body of a split is `set \ head`, which the trie resolves with a
    // skip-walk (`get_excluding`) — the body is only materialised for
    // rules that actually pass the confidence threshold.
    let mut counts = ItemsetTrie::new();
    for (set, cnt) in large {
        counts.insert(set, *cnt);
    }
    let mut out = Vec::new();
    let mut stats = RuleGenStats::default();
    for (set, cnt) in large {
        if set.len() < 2 {
            continue;
        }
        let max_head = head_card.upper_limit().min((set.len() - 1) as u32) as usize;
        let mut failure: Option<MineError> = None;
        for_each_proper_subset(set, max_head, &mut |head| {
            if failure.is_some() || !head_card.admits(head.len()) {
                return;
            }
            let body_len = set.len() - head.len();
            if !body_card.admits(body_len) {
                return;
            }
            let Some(body_cnt) = counts.get_excluding(set, head) else {
                let body: Itemset = set
                    .iter()
                    .copied()
                    .filter(|x| head.binary_search(x).is_err())
                    .collect();
                failure = Some(MineError::Internal {
                    message: format!(
                        "subset {body:?} of large itemset {set:?} missing from inventory \
                         (anti-monotonicity violated)"
                    ),
                });
                return;
            };
            stats.candidates += 1;
            let confidence = *cnt as f64 / body_cnt as f64;
            if confidence + 1e-12 >= min_confidence {
                let body: Itemset = set
                    .iter()
                    .copied()
                    .filter(|x| head.binary_search(x).is_err())
                    .collect();
                out.push(EncodedRule {
                    body,
                    head: head.to_vec(),
                    group_count: *cnt,
                    support: *cnt as f64 / total_groups as f64,
                    confidence,
                });
            } else {
                stats.pruned_confidence += 1;
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
    }
    stats.trie_nodes = counts.node_count() as u64;
    stats.trie_lookups = counts.take_lookups();
    Ok((out, stats))
}

/// Canonical sort for comparing rule inventories in tests.
pub fn sort_rules(rules: &mut [EncodedRule]) {
    rules.sort_by(|a, b| a.body.cmp(&b.body).then(a.head.cmp(&b.head)));
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
            groups: vec![vec![1, 2, 3], vec![1, 2], vec![1, 3], vec![2, 3]],
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
        assert!((rules[0].support - 0.5).abs() < 1e-12);
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
    }
}
