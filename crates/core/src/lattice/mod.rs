//! The general core operator (§4.3.2): discovery of rules with bodies and
//! heads of arbitrary cardinality over the m×n rule-set lattice.
//!
//! The lattice has the elementary 1×1 set at the top; the left child of a
//! set m×n holds rules (m+1)×n (one more body item), the right child holds
//! m×(n+1). A set with m,n > 1 is reachable from two parents; following
//! the paper, efficiency is maximised by expanding from the parent with
//! the lower rule count ([`ExpansionOrder::MinParent`]); the fixed order
//! is kept as an ablation baseline.
//!
//! A child rule joins two parent rules and is supported by the contexts
//! both occur in. Each joined candidate intersects its parents' context
//! lists into one reused buffer and stops as soon as the groups found so
//! far plus the elements left cannot reach `min_groups` (the bound
//! `core.lattice.pruned_early` counts); only a candidate that survives
//! allocates.

pub mod elementary;

use std::collections::HashMap;

use crate::algo::itemset::Itemset;
use crate::algo::EncodedRule;
use crate::ast::CardSpec;
use crate::error::{MineError, Result};
use elementary::Contexts;

/// Which parent a doubly-reachable rule set is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpansionOrder {
    /// Expand from the parent set with fewer rules (the paper's choice).
    MinParent,
    /// Always expand the body dimension first (ablation baseline).
    BodyFirst,
}

/// Parameters of a general mining run.
#[derive(Debug, Clone, Copy)]
pub struct GeneralParams {
    pub total_groups: u32,
    pub min_groups: u32,
    pub min_confidence: f64,
    pub body_card: CardSpec,
    pub head_card: CardSpec,
    pub order: ExpansionOrder,
}

/// Statistics of a lattice run (exposed for the E5 ablation bench).
#[derive(Debug, Clone, Default)]
pub struct LatticeStats {
    /// Joined candidate rules whose context lists were intersected.
    pub candidates_evaluated: u64,
    /// Intersections the support bound stopped before a list ran out.
    pub pruned_early: u64,
    /// Per expanded (m, n) set with a candidate, in generation order:
    /// `(set, candidates generated, rules kept)`.
    pub sets: Vec<((u32, u32), u64, usize)>,
}

/// A rule of a lattice set, with its sorted supporting contexts and, in
/// a run that affords them, its groups as a bitset.
struct SetRule {
    body: Itemset,
    head: Itemset,
    ctxs: Vec<u32>,
    bits: Option<Vec<u64>>,
}

/// The groups of `ctxs` as a bitset of `words` words, in a run that
/// affords one.
fn group_bits(ctxs: &[u32], on: &Contexts, words: Option<usize>) -> Option<Vec<u64>> {
    let mut bits = vec![0u64; words?];
    for gid in ctxs.iter().map(|&ctx| on.ctx_gid[ctx as usize]) {
        bits[gid as usize >> 6] |= 1 << (gid & 63);
    }
    Some(bits)
}

/// Mine general association rules from prepared contexts.
pub fn mine_general(contexts: &Contexts, params: &GeneralParams) -> Result<Vec<EncodedRule>> {
    mine_general_with_stats(contexts, params).map(|(rules, _)| rules)
}

/// [`mine_general`] also returning lattice statistics.
pub fn mine_general_with_stats(
    contexts: &Contexts,
    params: &GeneralParams,
) -> Result<(Vec<EncodedRule>, LatticeStats)> {
    let mut stats = LatticeStats::default();
    // Each rule's groups also as a bitset when one costs at most four
    // words per group a rule must reach: two rules are then counted by
    // popcount before their lists are merged.
    let universe = contexts.ctx_gid.iter().max().map_or(0, |&g| g as usize + 1);
    let words = universe.div_ceil(64);
    let words = (words <= 4 * params.min_groups as usize).then_some(words);

    // Rules are kept sorted by (body, head) — the elementary ones are.
    let mut sets: HashMap<(u32, u32), Vec<SetRule>> = HashMap::new();
    let top = contexts.elem.iter().map(|((b, h), ctxs)| SetRule {
        body: vec![*b],
        head: vec![*h],
        ctxs: ctxs.clone(),
        bits: group_bits(ctxs, contexts, words),
    });
    sets.insert((1, 1), top.collect());

    // Hard caps keep `n`-style specs finite.
    let max_body = params.body_card.upper_limit().min(64);
    let max_head = params.head_card.upper_limit().min(64);

    // Level-wise descent by m + n.
    let mut level_sum = 2u32;
    loop {
        level_sum += 1;
        let mut produced_any = false;
        for m in 1..=level_sum.saturating_sub(1) {
            let n = level_sum - m;
            if m > max_body || n > max_head || n == 0 {
                continue;
            }
            let body_parent = (m > 1).then(|| (m - 1, n));
            let head_parent = (n > 1).then(|| (m, n - 1));
            let pick = |p: Option<(u32, u32)>| p.and_then(|k| sets.get(&k).map(|s| (k, s.len())));
            let chosen = match (pick(body_parent), pick(head_parent)) {
                (None, None) => continue,
                (Some((k, _)), None) => (k, true),
                (None, Some((k, _))) => (k, false),
                (Some((bk, bl)), Some((hk, hl))) => {
                    if params.order == ExpansionOrder::BodyFirst || bl <= hl {
                        (bk, true)
                    } else {
                        (hk, false)
                    }
                }
            };
            let (parent_key, expand_body) = chosen;
            let before = stats.candidates_evaluated;
            let parent = &sets[&parent_key];
            let next = expand(
                parent,
                expand_body,
                contexts,
                words,
                params.min_groups,
                &mut stats,
            );
            let generated = stats.candidates_evaluated - before;
            if generated > 0 {
                stats.sets.push(((m, n), generated, next.len()));
            }
            if !next.is_empty() {
                produced_any = true;
                sets.insert((m, n), next);
            }
        }
        if !produced_any {
            break;
        }
    }

    // Emission: every stored rule within the cardinality specs and above
    // the confidence threshold.
    let mut body_gids_memo: HashMap<&[u32], u32> = HashMap::new();
    let mut out = Vec::new();
    for ((m, n), rules) in &sets {
        if !params.body_card.admits(*m as usize) || !params.head_card.admits(*n as usize) {
            continue;
        }
        for rule in rules {
            let body_gids = match body_gids_memo.get(rule.body.as_slice()) {
                Some(&v) => v,
                None => {
                    let v = body_group_support(contexts, &rule.body)?;
                    body_gids_memo.insert(&rule.body, v);
                    v
                }
            };
            if body_gids == 0 {
                return Err(MineError::Internal {
                    message: format!("rule body {:?} has zero body support", rule.body),
                });
            }
            let gids = contexts.distinct_gids(&rule.ctxs);
            let confidence = gids as f64 / body_gids as f64;
            if confidence + 1e-12 >= params.min_confidence {
                out.push(EncodedRule {
                    body: rule.body.clone(),
                    head: rule.head.clone(),
                    group_count: gids,
                    support: gids as f64 / params.total_groups.max(1) as f64,
                    confidence,
                });
            }
        }
    }
    crate::algo::sort_rules(&mut out);
    Ok((out, stats))
}

/// Generate the child set by extending the body (or head) dimension:
/// join the rules that agree on the other dimension and on all but the
/// last item of this one, intersect their context lists, and keep those
/// with enough supporting groups.
fn expand(
    parent: &[SetRule],
    expand_body: bool,
    contexts: &Contexts,
    words: Option<usize>,
    min_groups: u32,
    stats: &mut LatticeStats,
) -> Vec<SetRule> {
    // Each rule as (fixed, varying): partners are adjacent in that order.
    let split = parent.iter().map(|r| match expand_body {
        true => (&r.head, &r.body, r),
        false => (&r.body, &r.head, r),
    });
    let mut order: Vec<(&Itemset, &Itemset, &SetRule)> = split.collect();
    order.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    let partners = |a: &(&Itemset, &Itemset, _), b: &(&Itemset, &Itemset, _)| {
        let (x, y) = (a.1.len() - 1, b.1.len() - 1);
        a.0 == b.0 && a.1[..x] == b.1[..y]
    };
    let (mut next, mut buffer) = (Vec::new(), Vec::new());
    for bucket in order.chunk_by(partners) {
        for (i, &(fixed, vary, a)) in bucket.iter().enumerate() {
            for &(_, other, b) in &bucket[i + 1..] {
                stats.candidates_evaluated += 1;
                if let (Some(x), Some(y)) = (&a.bits, &b.bits) {
                    let common: u32 = x.iter().zip(y).map(|(x, y)| (x & y).count_ones()).sum();
                    if common < min_groups {
                        stats.pruned_early += 1;
                        continue;
                    }
                }
                let pruned = &mut stats.pruned_early;
                let ctx_gid = &contexts.ctx_gid;
                let meet =
                    bounded_intersect(&a.ctxs, &b.ctxs, ctx_gid, min_groups, &mut buffer, pruned);
                if meet.is_none() {
                    continue;
                }
                let mut joined = vary.clone();
                joined.extend(other.last());
                let (body, head) = match expand_body {
                    true => (joined, fixed.clone()),
                    false => (fixed.clone(), joined),
                };
                let bits = group_bits(&buffer, contexts, words);
                let ctxs = buffer.clone();
                next.push(SetRule {
                    body,
                    head,
                    ctxs,
                    bits,
                });
            }
        }
    }
    next.sort_unstable_by(|a, b| (&a.body, &a.head).cmp(&(&b.body, &b.head)));
    next
}

/// Intersect the sorted context lists `a` and `b` into `out`: the groups
/// of the common contexts, `None` below `min_groups`. Stops — counting one in
/// `pruned` — as soon as the groups found plus the elements left in the
/// shorter remainder cannot reach `min_groups`, since each further group
/// needs a further element of both.
fn bounded_intersect(
    a: &[u32],
    b: &[u32],
    ctx_gid: &[u32],
    min_groups: u32,
    out: &mut Vec<u32>,
    pruned: &mut u64,
) -> Option<u32> {
    out.clear();
    let (mut i, mut j, mut groups, mut last) = (0, 0, 0u32, None);
    while i < a.len() && j < b.len() {
        if groups as usize + (a.len() - i).min(b.len() - j) < min_groups as usize {
            *pruned += 1;
            return None;
        }
        // Branch-free advance: only a match, rare, takes a branch.
        let (x, y) = (a[i], b[j]);
        if x == y {
            let gid = ctx_gid[x as usize];
            groups += u32::from(last != Some(gid));
            last = Some(gid);
            out.push(x);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (groups >= min_groups).then_some(groups)
}

/// Groups in which the whole body occurs inside a single body cluster.
fn body_group_support(contexts: &Contexts, body: &[u32]) -> Result<u32> {
    let occ = |b: u32| {
        contexts
            .body_contexts(b)
            .ok_or_else(|| MineError::Internal {
                message: format!("body item {b} missing from occurrence index"),
            })
    };
    let Some((&first, rest)) = body.split_first() else {
        return Ok(0);
    };
    let first = occ(first)?;
    let mut groups = contexts.distinct_body_gids(first);
    let (mut acc, mut next) = (Vec::new(), Vec::new());
    for (at, &b) in rest.iter().enumerate() {
        let left = if at == 0 { first } else { &acc };
        let gids = &contexts.bodyctx_gid;
        groups = bounded_intersect(left, occ(b)?, gids, 0, &mut next, &mut 0).unwrap_or(0);
        std::mem::swap(&mut acc, &mut next);
    }
    Ok(groups)
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The lattice before the bounded intersection: every joined
    //! candidate intersected in full with `intersect`, its groups counted
    //! with `distinct_gids` — over the hash-map contexts of
    //! [`elementary::oracle`](super::elementary::oracle).

    use std::collections::HashMap;

    use super::{ExpansionOrder, GeneralParams};
    use crate::algo::itemset::{apriori_join, intersect, Itemset};
    use crate::algo::EncodedRule;
    use crate::error::{MineError, Result};
    use crate::lattice::elementary::oracle::MapContexts;

    #[derive(Debug, Default)]
    pub(crate) struct OracleStats {
        pub(crate) candidates_evaluated: u64,
        pub(crate) set_sizes: Vec<((u32, u32), usize)>,
    }

    type RuleKey = (Itemset, Itemset);
    /// A rule with its supporting context list.
    type KeyedRule = (RuleKey, Vec<u32>);

    pub(crate) fn mine_general(
        contexts: &MapContexts,
        params: &GeneralParams,
    ) -> Result<(Vec<EncodedRule>, OracleStats)> {
        let mut stats = OracleStats::default();

        // Rules are kept sorted by (body, head) so join partners are adjacent.
        let mut sets: HashMap<(u32, u32), Vec<KeyedRule>> = HashMap::new();
        let mut top: Vec<KeyedRule> = contexts
            .elem
            .iter()
            .map(|(&(b, h), ctxs)| ((vec![b], vec![h]), ctxs.clone()))
            .collect();
        top.sort_by(|a, b| a.0.cmp(&b.0));
        sets.insert((1, 1), top);

        // Hard caps keep `n`-style specs finite.
        let max_body = params.body_card.upper_limit().min(64);
        let max_head = params.head_card.upper_limit().min(64);

        // Level-wise descent by m + n.
        let mut level_sum = 2u32;
        loop {
            level_sum += 1;
            let mut produced_any = false;
            for m in 1..=level_sum.saturating_sub(1) {
                let n = level_sum - m;
                if m > max_body || n > max_head || n == 0 {
                    continue;
                }
                let body_parent = (m > 1).then(|| (m - 1, n));
                let head_parent = (n > 1).then(|| (m, n - 1));
                let pick =
                    |p: Option<(u32, u32)>| p.and_then(|k| sets.get(&k).map(|s| (k, s.len())));
                let chosen = match (pick(body_parent), pick(head_parent)) {
                    (None, None) => continue,
                    (Some((k, _)), None) => (k, true),
                    (None, Some((k, _))) => (k, false),
                    (Some((bk, bl)), Some((hk, hl))) => match params.order {
                        ExpansionOrder::BodyFirst => (bk, true),
                        ExpansionOrder::MinParent => {
                            if bl <= hl {
                                (bk, true)
                            } else {
                                (hk, false)
                            }
                        }
                    },
                };
                let (parent_key, expand_body) = chosen;
                let parent = &sets[&parent_key];
                let next = expand(parent, expand_body, contexts, params, &mut stats)?;
                if !next.is_empty() {
                    produced_any = true;
                    stats.set_sizes.push(((m, n), next.len()));
                    sets.insert((m, n), next);
                }
            }
            if !produced_any {
                break;
            }
        }

        // Emission: every stored rule within the cardinality specs and above
        // the confidence threshold.
        let mut body_gids_memo: HashMap<Itemset, u32> = HashMap::new();
        let mut out = Vec::new();
        for ((m, n), rules) in &sets {
            if !params.body_card.admits(*m as usize) || !params.head_card.admits(*n as usize) {
                continue;
            }
            for ((body, head), ctxs) in rules {
                let gids = contexts.distinct_gids(ctxs);
                let body_gids = match body_gids_memo.get(body) {
                    Some(&v) => v,
                    None => {
                        let v = body_group_support(contexts, body)?;
                        body_gids_memo.insert(body.clone(), v);
                        v
                    }
                };
                if body_gids == 0 {
                    return Err(MineError::Internal {
                        message: format!("rule body {body:?} has zero body support"),
                    });
                }
                let confidence = gids as f64 / body_gids as f64;
                if confidence + 1e-12 >= params.min_confidence {
                    out.push(EncodedRule {
                        body: body.clone(),
                        head: head.clone(),
                        group_count: gids,
                        support: gids as f64 / params.total_groups.max(1) as f64,
                        confidence,
                    });
                }
            }
        }
        crate::algo::sort_rules(&mut out);
        Ok((out, stats))
    }

    /// Generate the child set by extending the body (or head) dimension:
    /// Apriori-join rules that agree on the other dimension, intersect their
    /// context lists, and keep those with enough supporting groups.
    fn expand(
        parent: &[KeyedRule],
        expand_body: bool,
        contexts: &MapContexts,
        params: &GeneralParams,
        stats: &mut OracleStats,
    ) -> Result<Vec<KeyedRule>> {
        // Bucket rules by the fixed dimension so join partners meet.
        let mut buckets: HashMap<&Itemset, Vec<usize>> = HashMap::new();
        for (i, ((body, head), _)) in parent.iter().enumerate() {
            let fixed = if expand_body { head } else { body };
            buckets.entry(fixed).or_default().push(i);
        }
        let mut next: Vec<KeyedRule> = Vec::new();
        for (fixed, idxs) in buckets {
            // Within a bucket, the varying dimension is sorted (parent is
            // globally sorted by (body, head); within equal fixed dimension
            // the other dimension ascends for expand_body, and for heads we
            // re-sort defensively).
            let mut vary: Vec<(&Itemset, &Vec<u32>)> = idxs
                .iter()
                .map(|&i| {
                    let ((body, head), ctxs) = &parent[i];
                    (if expand_body { body } else { head }, ctxs)
                })
                .collect();
            vary.sort_by(|a, b| a.0.cmp(b.0));
            for i in 0..vary.len() {
                for j in (i + 1)..vary.len() {
                    let Some(joined) = apriori_join(vary[i].0, vary[j].0) else {
                        break;
                    };
                    stats.candidates_evaluated += 1;
                    let ctxs = intersect(vary[i].1, vary[j].1);
                    if contexts.distinct_gids(&ctxs) >= params.min_groups {
                        let key = if expand_body {
                            (joined, fixed.clone())
                        } else {
                            (fixed.clone(), joined)
                        };
                        next.push((key, ctxs));
                    }
                }
            }
        }
        next.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(next)
    }

    /// Groups in which the whole body occurs inside a single body cluster.
    fn body_group_support(contexts: &MapContexts, body: &[u32]) -> Result<u32> {
        let mut acc: Option<Vec<u32>> = None;
        for b in body {
            let occ = contexts
                .body_occ
                .get(b)
                .ok_or_else(|| MineError::Internal {
                    message: format!("body item {b} missing from occurrence index"),
                })?;
            acc = Some(match acc {
                None => occ.clone(),
                Some(prev) => intersect(&prev, occ),
            });
        }
        Ok(contexts.distinct_body_gids(&acc.unwrap_or_default()))
    }
}

#[cfg(test)]
mod tests {
    use datagen::rng::Rng;

    use super::*;
    use crate::algo::itemset::intersect;
    use crate::encoded::{ElemRule, GeneralTuple};
    use crate::lattice::elementary::{build_contexts, oracle as map, BuildOptions};

    fn t(gid: u32, bid: u32) -> GeneralTuple {
        GeneralTuple {
            gid,
            cid: None,
            bid: Some(bid),
            hid: Some(bid),
        }
    }

    fn params(min_groups: u32, min_conf: f64, total: u32) -> GeneralParams {
        GeneralParams {
            total_groups: total,
            min_groups,
            min_confidence: min_conf,
            body_card: CardSpec::one_to_n(),
            head_card: CardSpec::one_to_n(),
            order: ExpansionOrder::MinParent,
        }
    }

    fn basket_contexts(groups: &[&[u32]], min_groups: u32) -> Contexts {
        let mut tuples = Vec::new();
        for (g, items) in groups.iter().enumerate() {
            for &i in *items {
                tuples.push(t(g as u32, i));
            }
        }
        build_contexts(
            &tuples,
            None,
            None,
            BuildOptions {
                clustered: false,
                has_couples: false,
                distinct_head: false,
                min_groups,
            },
        )
    }

    /// A random general input: sparse gids, cids and item ids, `cid:
    /// None` without CLUSTER BY, body and head ids from one space or two
    /// (H), repeated tuples, and — in shuffled order, with duplicates and
    /// a pair of clusters no tuple has — cluster couples or input rules.
    type Input = (
        Vec<GeneralTuple>,
        Option<Vec<(u32, u32, u32)>>,
        Option<Vec<ElemRule>>,
    );

    fn random_input(rng: &mut Rng, opts: &BuildOptions) -> Input {
        let pick = |rng: &mut Rng, from: &[u32]| from[rng.gen_range_usize(0, from.len())];
        let (bodies, heads) = ([2, 5, 9, 14, 20, 27], [3, 8, 11, 40]);
        let heads: &[u32] = if opts.distinct_head { &heads } else { &bodies };
        let (mut tuples, mut pairs) = (Vec::new(), Vec::new());
        // Gaps wide enough, in some cases, that no rule affords a bitset.
        let gap = if rng.gen_f64() < 0.3 { 5_000 } else { 5 };
        for g in 0..rng.gen_range_u32(1, 12) {
            let gid = gap * g + 1 + rng.gen_range_u32(0, 4);
            let clusters = if opts.clustered {
                rng.gen_range_u32(1, 4)
            } else {
                1
            };
            let cids: Vec<u32> = (0..clusters)
                .map(|c| 7 * c + 1 + rng.gen_range_u32(0, 5))
                .collect();
            let cid = |rng: &mut Rng| opts.clustered.then(|| pick(rng, &cids));
            // Item occurrences `(cid, item)` on each side.
            let (mut body, mut head) = (Vec::new(), Vec::new());
            for _ in 0..rng.gen_range_u32(1, 9) {
                let (cid, bid, hid) = (cid(rng), pick(rng, &bodies), pick(rng, heads));
                if !opts.distinct_head {
                    tuples.push(GeneralTuple {
                        gid,
                        cid,
                        bid: Some(bid),
                        hid: Some(bid),
                    });
                    body.push((cid, bid));
                    head.push((cid, bid));
                } else if rng.gen_f64() < 0.5 {
                    tuples.push(GeneralTuple {
                        gid,
                        cid,
                        bid: Some(bid),
                        hid: None,
                    });
                    body.push((cid, bid));
                } else {
                    tuples.push(GeneralTuple {
                        gid,
                        cid,
                        bid: None,
                        hid: Some(hid),
                    });
                    head.push((cid, hid));
                }
            }
            for _ in 0..(body.len() * head.len()).min(12) {
                let ((cb, bid), (ch, hid)) = (
                    body[rng.gen_range_usize(0, body.len())],
                    head[rng.gen_range_usize(0, head.len())],
                );
                pairs.push((gid, cb, ch, bid, hid));
            }
        }
        let repeats: Vec<GeneralTuple> = tuples
            .iter()
            .filter(|_| rng.gen_f64() < 0.2)
            .copied()
            .collect();
        tuples.extend(repeats);
        let couples = opts.has_couples.then(|| {
            let mut couples: Vec<(u32, u32, u32)> = pairs
                .iter()
                .filter(|_| rng.gen_f64() < 0.6)
                .map(|&(gid, cb, ch, _, _)| (gid, cb.unwrap_or(0), ch.unwrap_or(0)))
                .collect();
            couples.push((u32::MAX, 1, 2));
            couples.extend(couples.clone().iter().filter(|_| rng.gen_f64() < 0.3));
            couples
        });
        let rules = (rng.gen_f64() < 0.5).then(|| {
            let mut rules: Vec<ElemRule> = pairs
                .iter()
                .filter(|p| opts.distinct_head || p.3 != p.4)
                .map(|&(gid, cidb, cidh, bid, hid)| ElemRule {
                    gid,
                    cidb,
                    cidh,
                    bid,
                    hid,
                })
                .collect();
            rules.extend(rules.clone().iter().filter(|_| rng.gen_f64() < 0.3));
            rules
        });
        for at in (1..tuples.len()).rev() {
            tuples.swap(at, rng.gen_range_usize(0, at + 1));
        }
        let mut rules = rules;
        if let Some(rules) = &mut rules {
            for at in (1..rules.len()).rev() {
                rules.swap(at, rng.gen_range_usize(0, at + 1));
            }
        }
        (tuples, couples, rules)
    }

    fn same_rules(a: &[EncodedRule], b: &[EncodedRule]) -> bool {
        let bits = |r: &EncodedRule| (r.support.to_bits(), r.confidence.to_bits());
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                (&x.body, &x.head, x.group_count, bits(x))
                    == (&y.body, &y.head, y.group_count, bits(y))
            })
    }

    #[test]
    fn the_sorted_builder_and_the_bounded_lattice_match_their_oracles() {
        let mut rng = Rng::seed_from_u64(0x33);
        let mut rules_seen = 0;
        for case in 0..400 {
            let clustered = rng.gen_f64() < 0.6;
            let opts = BuildOptions {
                clustered,
                has_couples: clustered && rng.gen_f64() < 0.5,
                distinct_head: rng.gen_f64() < 0.5,
                min_groups: rng.gen_range_u32(1, 4),
            };
            let (tuples, couples, input_rules) = random_input(&mut rng, &opts);
            let (couples, input_rules) = (couples.as_deref(), input_rules.as_deref());
            let built = build_contexts(&tuples, couples, input_rules, opts);
            let oracle = map::build_contexts(&tuples, couples, input_rules, opts);

            // The same contexts, ids included, hence the same distinct
            // group counts per elementary rule and per body item.
            assert_eq!(built.ctx_gid, oracle.ctx_gid, "case {case}");
            assert_eq!(built.bodyctx_gid, oracle.bodyctx_gid, "case {case}");
            let mut elem: Vec<_> = oracle.elem.iter().map(|(&k, v)| (k, v.clone())).collect();
            elem.sort();
            assert_eq!(built.elem, elem, "case {case}");
            for ((rule, ctxs), (_, expected)) in built.elem.iter().zip(&elem) {
                let groups = oracle.distinct_gids(expected);
                assert_eq!(built.distinct_gids(ctxs), groups, "case {case}: {rule:?}");
            }
            let mut body_occ: Vec<_> = oracle
                .body_occ
                .iter()
                .map(|(&k, v)| (k, v.clone()))
                .collect();
            body_occ.sort();
            assert_eq!(built.body_occ, body_occ, "case {case}");
            for (item, occurrences) in &body_occ {
                let groups = oracle.distinct_body_gids(occurrences);
                let built = built
                    .body_contexts(*item)
                    .map(|o| built.distinct_body_gids(o));
                assert_eq!(built, Some(groups), "case {case}: body item {item}");
            }

            // Bit-identical rules and the same joined candidates under
            // both expansion orders, and across them.
            let total_groups = oracle
                .ctx_gid
                .iter()
                .chain(&oracle.bodyctx_gid)
                .max()
                .map_or(0, |g| g + 1);
            let head_card = CardSpec {
                min: 1,
                max: crate::ast::CardMax::Fixed(2),
            };
            let mut mined = Vec::new();
            for order in [ExpansionOrder::MinParent, ExpansionOrder::BodyFirst] {
                let params = GeneralParams {
                    total_groups,
                    min_groups: opts.min_groups,
                    min_confidence: rng.gen_f64() * 0.6,
                    body_card: CardSpec::one_to_n(),
                    head_card: if rng.gen_f64() < 0.5 {
                        head_card
                    } else {
                        CardSpec::one_to_n()
                    },
                    order,
                };
                let (rules, stats) = mine_general_with_stats(&built, &params).unwrap();
                let (expected, oracle_stats) =
                    super::oracle::mine_general(&oracle, &params).unwrap();
                assert!(same_rules(&rules, &expected), "case {case} {order:?}");
                assert_eq!(
                    stats.candidates_evaluated,
                    oracle_stats.candidates_evaluated
                );
                let params = GeneralParams {
                    min_confidence: 0.0,
                    head_card: CardSpec::one_to_n(),
                    ..params
                };
                mined.push(mine_general(&built, &params).unwrap());
                rules_seen += rules.len();
            }
            assert!(
                same_rules(&mined[0], &mined[1]),
                "case {case}: orders differ"
            );
        }
        assert!(rules_seen > 2_000, "the cases mined {rules_seen} rules");
    }

    #[test]
    fn an_intersection_stopped_early_would_have_failed_min_groups() {
        let mut rng = Rng::seed_from_u64(0x34);
        // Up to three contexts per group, group ids ascending with them.
        let ctx_gid: Vec<u32> = (0..600).map(|ctx| ctx / 3 + ctx % 7 / 6).collect();
        let (mut stopped, mut out) = (0, Vec::new());
        for _ in 0..3_000 {
            let density = rng.gen_f64() * 0.5;
            let mut list =
                || -> Vec<u32> { (0..600).filter(|_| rng.gen_f64() < density).collect() };
            let (a, b) = (list(), list());
            let min_groups = rng.gen_range_u32(1, 60);
            let mut pruned = 0;
            let meet = bounded_intersect(&a, &b, &ctx_gid, min_groups, &mut out, &mut pruned);
            let kept = meet.is_some();
            let full = intersect(&a, &b);
            let groups = full
                .chunk_by(|x, y| ctx_gid[*x as usize] == ctx_gid[*y as usize])
                .count() as u32;
            assert_eq!(
                kept,
                groups >= min_groups,
                "{groups} groups, min {min_groups}"
            );
            if kept {
                assert_eq!((meet, &out), (Some(groups), &full));
            }
            if pruned > 0 {
                assert!(!kept && groups < min_groups);
                stopped += 1;
            }
        }
        assert!(stopped > 500, "the bound stopped {stopped} intersections");
    }

    #[test]
    fn finds_composite_rules() {
        // {1,2} ⇒ {3} holds in 2 of 3 groups.
        let contexts = basket_contexts(&[&[1, 2, 3], &[1, 2, 3], &[1, 2]], 2);
        let rules = mine_general(&contexts, &params(2, 0.5, 3)).unwrap();
        let found = rules
            .iter()
            .find(|r| r.body == vec![1, 2] && r.head == vec![3])
            .expect("{1,2} => {3} missing");
        assert_eq!(found.group_count, 2);
        assert!((found.support - 2.0 / 3.0).abs() < 1e-12);
        assert!((found.confidence - 2.0 / 3.0).abs() < 1e-12);
        // And a 1×2 rule as well: {1} ⇒ {2,3}.
        assert!(rules
            .iter()
            .any(|r| r.body == vec![1] && r.head == vec![2, 3]));
    }

    #[test]
    fn body_and_head_stay_disjoint() {
        let contexts = basket_contexts(&[&[1, 2, 3], &[1, 2, 3]], 1);
        let rules = mine_general(&contexts, &params(1, 0.0001, 2)).unwrap();
        for r in &rules {
            for b in &r.body {
                assert!(!r.head.contains(b), "{r:?}");
            }
        }
    }

    #[test]
    fn support_monotone_under_expansion() {
        let contexts = basket_contexts(&[&[1, 2, 3], &[1, 2], &[1, 3], &[2, 3]], 1);
        let rules = mine_general(&contexts, &params(1, 0.0001, 4)).unwrap();
        let find = |b: &[u32], h: &[u32]| {
            rules
                .iter()
                .find(|r| r.body == b && r.head == h)
                .map(|r| r.group_count)
        };
        let s_12_3 = find(&[1, 2], &[3]).unwrap();
        let s_1_3 = find(&[1], &[3]).unwrap();
        let s_2_3 = find(&[2], &[3]).unwrap();
        assert!(s_12_3 <= s_1_3 && s_12_3 <= s_2_3);
    }

    #[test]
    fn expansion_orders_agree() {
        let groups: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![1, 3, 4],
            vec![1, 2, 4],
        ];
        let refs: Vec<&[u32]> = groups.iter().map(|g| g.as_slice()).collect();
        let contexts = basket_contexts(&refs, 2);
        let mut a = mine_general(&contexts, &params(2, 0.01, 5)).unwrap();
        let mut b = mine_general(
            &contexts,
            &GeneralParams {
                order: ExpansionOrder::BodyFirst,
                ..params(2, 0.01, 5)
            },
        )
        .unwrap();
        crate::algo::sort_rules(&mut a);
        crate::algo::sort_rules(&mut b);
        assert_eq!(a, b, "expansion order must not change the result");
    }

    #[test]
    fn head_cardinality_caps_expansion() {
        let contexts = basket_contexts(&[&[1, 2, 3], &[1, 2, 3]], 1);
        let p = GeneralParams {
            head_card: CardSpec::one_to_one(),
            ..params(1, 0.0001, 2)
        };
        let rules = mine_general(&contexts, &p).unwrap();
        assert!(rules.iter().all(|r| r.head.len() == 1));
        assert!(rules.iter().any(|r| r.body.len() == 2));
    }

    #[test]
    fn empty_contexts_give_no_rules() {
        let contexts = basket_contexts(&[], 1);
        assert!(mine_general(&contexts, &params(1, 0.1, 0))
            .unwrap()
            .is_empty());
    }
}
