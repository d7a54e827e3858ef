//! Elementary (1×1) rule construction for the general core operator.
//!
//! §4.3.2: when the mining condition is present, elementary rules come
//! pre-built from the SQL-side `InputRules` table; otherwise the core
//! operator itself pairs source tuples within each group — conceptually a
//! cartesian product over cluster pairs, never materialised as a relation.
//!
//! Everything is built from sorted runs of ids: clusters, body contexts
//! and contexts take their ids in one ordered pass, and each per-item
//! or per-rule list is one sorted run of `(key, id)` entries. No map is
//! probed per tuple.

use crate::encoded::{ElemRule, GeneralTuple};
use crate::runs::{grouped, pack, radix_sort};

/// The evaluation *context* of a rule occurrence: a (group, body-cluster,
/// head-cluster) triple. Rules are supported by contexts; distinct groups
/// among a rule's contexts give its support, distinct groups among a
/// body's body-contexts give the confidence denominator.
#[derive(Debug, Default)]
pub struct Contexts {
    /// Context id → group id.
    pub ctx_gid: Vec<u32>,
    /// Body-context id → group id (a body context is a (group, cluster)
    /// pair in which at least one body item occurs).
    pub bodyctx_gid: Vec<u32>,
    /// Elementary rules ascending by `(bid, hid)`, each with its sorted,
    /// deduplicated context ids.
    pub elem: Vec<((u32, u32), Vec<u32>)>,
    /// Body items ascending, each with the sorted body-context ids where
    /// it occurs.
    pub body_occ: Vec<(u32, Vec<u32>)>,
}

impl Contexts {
    /// Distinct group count of a sorted context list.
    pub fn distinct_gids(&self, ctxs: &[u32]) -> u32 {
        distinct_by(ctxs, &self.ctx_gid)
    }

    /// Distinct group count of a sorted body-context list.
    pub fn distinct_body_gids(&self, bodyctxs: &[u32]) -> u32 {
        distinct_by(bodyctxs, &self.bodyctx_gid)
    }

    /// The sorted body-context ids where body item `b` occurs.
    pub fn body_contexts(&self, b: u32) -> Option<&[u32]> {
        let at = self.body_occ.binary_search_by_key(&b, |(item, _)| *item);
        at.ok().map(|at| self.body_occ[at].1.as_slice())
    }
}

fn distinct_by(ids: &[u32], map: &[u32]) -> u32 {
    let mut count = 0u32;
    let mut last: Option<u32> = None;
    // Context ids are assigned group-by-group, so equal gids are adjacent
    // in any sorted id list.
    for &id in ids {
        let g = map[id as usize];
        if last != Some(g) {
            count += 1;
            last = Some(g);
        }
    }
    count
}

/// What the builder needs to know about the statement shape.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// CLUSTER BY present.
    pub clustered: bool,
    /// HAVING on CLUSTER BY present (couples constrain the pairs).
    pub has_couples: bool,
    /// Body and head drawn from different attribute schemas (H). When
    /// false, an item may not appear on both sides of one elementary rule.
    pub distinct_head: bool,
    /// Large-element absolute threshold.
    pub min_groups: u32,
}

/// Build the context structures from the encoded tables.
///
/// `input_rules` (when the mining condition ran in SQL) fixes the set of
/// elementary rules; otherwise every (body item, head item) pair within a
/// valid cluster pair is elementary.
pub fn build_contexts(
    tuples: &[GeneralTuple],
    couples: Option<&[(u32, u32, u32)]>,
    input_rules: Option<&[ElemRule]>,
    opts: BuildOptions,
) -> Contexts {
    // 1. The body (and head) item occurrences by `(gid, cid)` cluster, in
    //    cluster order. Without CLUSTER BY, cid = 0.
    let side = |item: fn(&GeneralTuple) -> Option<u32>| {
        let at = |t: &GeneralTuple| pack(t.gid, t.cid.unwrap_or(0));
        let mut side: Vec<_> = tuples
            .iter()
            .filter_map(|t| Some((at(t), item(t)?)))
            .collect();
        radix_sort(&mut side);
        side
    };
    let bodies = side(|t| t.bid);
    let mut out = Contexts::default();

    // 2. Body contexts: the clusters with a body item, in cluster order.
    let mut occurrences = Vec::with_capacity(bodies.len());
    for run in bodies.chunk_by(|a, b| a.0 == b.0) {
        let id = out.bodyctx_gid.len() as u32;
        out.bodyctx_gid.push((run[0].0 >> 32) as u32);
        occurrences.extend(run.iter().map(|&(_, b)| (u64::from(b), id)));
    }
    let occurrences = grouped(occurrences, |_| true).into_iter();
    out.body_occ = occurrences.map(|(b, ids)| (b as u32, ids)).collect();

    // 3. Contexts — cluster pairs, ids in (gid, cidb, cidh) order — and
    //    each elementary rule's occurrences in them.
    let mut entries: Vec<(u64, u32)> = Vec::new();
    let mut context = |gid: u32| {
        out.ctx_gid.push(gid);
        out.ctx_gid.len() as u32 - 1
    };
    if let Some(rules) = input_rules {
        // The SQL side already intersected the mining condition and the
        // cluster couples; trust its (gid, cidb, cidh) triples, which the
        // fused pass and the encoded read both hand over in that order (a
        // presorted run costs the stable sort one pass).
        let at = |r: &ElemRule| (r.gid, r.cidb.unwrap_or(0), r.cidh.unwrap_or(0));
        let mut rules = rules.to_vec();
        rules.sort_by_key(at);
        for run in rules.chunk_by(|a, b| at(a) == at(b)) {
            let ctx = context(run[0].gid);
            entries.extend(run.iter().map(|r| (pack(r.bid, r.hid), ctx)));
        }
    } else {
        // Enumerate valid pairs and take the item product in-core: each
        // cluster's distinct items, ascending.
        let (bodies, heads) = (
            grouped(bodies, |_| true),
            grouped(side(|t| t.hid), |_| true),
        );
        let mut emit = |gid: u32, bids: &[u32], hids: &[u32]| {
            let ctx = context(gid);
            for &bid in bids {
                let hids = hids.iter().filter(|&&hid| opts.distinct_head || bid != hid);
                entries.extend(hids.map(|&hid| (pack(bid, hid), ctx)));
            }
        };
        match couples {
            Some(couples) if opts.has_couples => {
                let mut sorted = couples.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                let find = |side: &[(u64, Vec<u32>)], key| side.binary_search_by_key(&key, |c| c.0);
                for (gid, cb, ch) in sorted {
                    let (b, h) = (find(&bodies, pack(gid, cb)), find(&heads, pack(gid, ch)));
                    if let (Ok(b), Ok(h)) = (b, h) {
                        emit(gid, &bodies[b].1, &heads[h].1);
                    }
                }
            }
            // Every cluster pair of a group; without CLUSTER BY, the one
            // pair of cluster 0.
            _ => {
                for (key, bids) in &bodies {
                    let first = heads.partition_point(|h| h.0 >> 32 < key >> 32);
                    let group = heads[first..].iter().take_while(|h| h.0 >> 32 == key >> 32);
                    for (head, hids) in group {
                        if opts.clustered || *key as u32 == 0 && *head as u32 == 0 {
                            emit((key >> 32) as u32, bids, hids);
                        }
                    }
                }
            }
        }
    }

    // 4. The large-rule prune (Q9/Q10's in-core twin).
    let ctx_gid = &out.ctx_gid;
    let elem = grouped(entries, |ctxs| {
        distinct_by(ctxs, ctx_gid) >= opts.min_groups
    });
    let rule = |rule: u64| ((rule >> 32) as u32, rule as u32);
    out.elem = elem.into_iter().map(|(r, ctxs)| (rule(r), ctxs)).collect();
    out
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The hash-map builder that [`build_contexts`](super::build_contexts)
    //! replaced, kept as its oracle.

    use std::collections::HashMap;

    use super::{distinct_by, BuildOptions};
    use crate::encoded::{ElemRule, GeneralTuple};

    /// [`Contexts`](super::Contexts) with the elementary rules and body
    /// occurrences in maps.
    #[derive(Debug, Default)]
    pub(crate) struct MapContexts {
        pub(crate) ctx_gid: Vec<u32>,
        pub(crate) bodyctx_gid: Vec<u32>,
        pub(crate) elem: HashMap<(u32, u32), Vec<u32>>,
        pub(crate) body_occ: HashMap<u32, Vec<u32>>,
    }

    impl MapContexts {
        pub(crate) fn distinct_gids(&self, ctxs: &[u32]) -> u32 {
            distinct_by(ctxs, &self.ctx_gid)
        }

        pub(crate) fn distinct_body_gids(&self, bodyctxs: &[u32]) -> u32 {
            distinct_by(bodyctxs, &self.bodyctx_gid)
        }
    }

    pub(crate) fn build_contexts(
        tuples: &[GeneralTuple],
        couples: Option<&[(u32, u32, u32)]>,
        input_rules: Option<&[ElemRule]>,
        opts: BuildOptions,
    ) -> MapContexts {
        // 1. Item occurrences per (gid, cid). Without CLUSTER BY, cid = 0.
        let mut clusters: HashMap<(u32, u32), (Vec<u32>, Vec<u32>)> = HashMap::new();
        let mut group_clusters: HashMap<u32, Vec<u32>> = HashMap::new();
        for t in tuples {
            let cid = t.cid.unwrap_or(0);
            let entry = clusters.entry((t.gid, cid)).or_insert_with(|| {
                group_clusters.entry(t.gid).or_default().push(cid);
                (Vec::new(), Vec::new())
            });
            if let Some(b) = t.bid {
                entry.0.push(b);
            }
            if let Some(h) = t.hid {
                entry.1.push(h);
            }
        }
        for (bodies, heads) in clusters.values_mut() {
            bodies.sort_unstable();
            bodies.dedup();
            heads.sort_unstable();
            heads.dedup();
        }

        // 2. Deterministic group order (context ids grouped by gid).
        let mut gids: Vec<u32> = group_clusters.keys().copied().collect();
        gids.sort_unstable();
        for cids in group_clusters.values_mut() {
            cids.sort_unstable();
            cids.dedup();
        }

        let mut out = MapContexts::default();

        // 3. Body contexts.
        for &gid in &gids {
            for &cid in &group_clusters[&gid] {
                let (bodies, _) = &clusters[&(gid, cid)];
                if bodies.is_empty() {
                    continue;
                }
                let id = out.bodyctx_gid.len() as u32;
                out.bodyctx_gid.push(gid);
                for &b in bodies {
                    out.body_occ.entry(b).or_default().push(id);
                }
            }
        }

        // 4. Cluster-pair contexts, in group order.
        let mut ctx_of: HashMap<(u32, u32, u32), u32> = HashMap::new();
        let mut register = |gid: u32, cb: u32, ch: u32, out: &mut MapContexts| -> u32 {
            *ctx_of.entry((gid, cb, ch)).or_insert_with(|| {
                let id = out.ctx_gid.len() as u32;
                out.ctx_gid.push(gid);
                id
            })
        };

        if let Some(rules) = input_rules {
            // The SQL side already intersected the mining condition and the
            // cluster couples; trust its (gid, cidb, cidh) triples. Sort by
            // gid so context ids stay grouped.
            let mut rules: Vec<&ElemRule> = rules.iter().collect();
            rules.sort_by_key(|r| (r.gid, r.cidb.unwrap_or(0), r.cidh.unwrap_or(0)));
            for r in rules {
                let ctx = register(r.gid, r.cidb.unwrap_or(0), r.cidh.unwrap_or(0), &mut out);
                out.elem.entry((r.bid, r.hid)).or_default().push(ctx);
            }
        } else {
            // Enumerate valid pairs and take the item product in-core.
            let mut emit = |gid: u32, cb: u32, ch: u32, out: &mut MapContexts| {
                let Some((bodies, _)) = clusters.get(&(gid, cb)) else {
                    return;
                };
                let Some((_, heads)) = clusters.get(&(gid, ch)) else {
                    return;
                };
                if bodies.is_empty() || heads.is_empty() {
                    return;
                }
                let ctx = register(gid, cb, ch, out);
                for &b in bodies {
                    for &h in heads {
                        if !opts.distinct_head && b == h {
                            continue;
                        }
                        out.elem.entry((b, h)).or_default().push(ctx);
                    }
                }
            };
            match couples {
                Some(couples) if opts.has_couples => {
                    let mut sorted: Vec<&(u32, u32, u32)> = couples.iter().collect();
                    sorted.sort();
                    for &&(gid, cb, ch) in &sorted {
                        emit(gid, cb, ch, &mut out);
                    }
                }
                _ if opts.clustered => {
                    for &gid in &gids {
                        let cids = &group_clusters[&gid];
                        for &cb in cids {
                            for &ch in cids {
                                emit(gid, cb, ch, &mut out);
                            }
                        }
                    }
                }
                _ => {
                    for &gid in &gids {
                        emit(gid, 0, 0, &mut out);
                    }
                }
            }
        }

        // 5. Normalise and apply the large-rule prune (Q9/Q10's in-core twin).
        let mut elem = std::mem::take(&mut out.elem);
        let ctx_gid = &out.ctx_gid;
        elem.retain(|_, ctxs| {
            ctxs.sort_unstable();
            ctxs.dedup();
            distinct_by(ctxs, ctx_gid) >= opts.min_groups
        });
        out.elem = elem;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(gid: u32, cid: Option<u32>, bid: Option<u32>, hid: Option<u32>) -> GeneralTuple {
        GeneralTuple { gid, cid, bid, hid }
    }

    fn has(c: &Contexts, rule: (u32, u32)) -> bool {
        c.elem.iter().any(|(r, _)| *r == rule)
    }

    fn opts(min_groups: u32) -> BuildOptions {
        BuildOptions {
            clustered: false,
            has_couples: false,
            distinct_head: false,
            min_groups,
        }
    }

    #[test]
    fn unclustered_group_is_one_context() {
        // Two groups, items {1,2} and {1}.
        let tuples = vec![
            t(10, None, Some(1), Some(1)),
            t(10, None, Some(2), Some(2)),
            t(20, None, Some(1), Some(1)),
        ];
        let c = build_contexts(&tuples, None, None, opts(1));
        assert_eq!(c.ctx_gid.len(), 2);
        // Elementary rules in group 10: (1,2) and (2,1); none in group 20.
        assert_eq!(c.elem.len(), 2);
        assert!(has(&c, (1, 2)));
        assert!(has(&c, (2, 1)));
        assert!(!has(&c, (1, 1)), "no self-rules without H");
    }

    #[test]
    fn distinct_head_allows_same_ids() {
        let tuples = vec![t(1, None, Some(7), None), t(1, None, None, Some(7))];
        let mut o = opts(1);
        o.distinct_head = true;
        let c = build_contexts(&tuples, None, None, o);
        assert!(has(&c, (7, 7)), "different item spaces");
    }

    #[test]
    fn min_groups_prunes_elementary() {
        let tuples = vec![
            t(1, None, Some(1), Some(1)),
            t(1, None, Some(2), Some(2)),
            t(2, None, Some(1), Some(1)),
            t(2, None, Some(3), Some(3)),
        ];
        let c = build_contexts(&tuples, None, None, opts(2));
        // (1,2) occurs only in group 1; (1,3) only in group 2.
        assert!(c.elem.is_empty());
    }

    #[test]
    fn clustered_pairs_enumerate_within_group() {
        // Group 1 has clusters 100 (item 1) and 200 (item 2).
        let tuples = vec![
            t(1, Some(100), Some(1), Some(1)),
            t(1, Some(200), Some(2), Some(2)),
        ];
        let mut o = opts(1);
        o.clustered = true;
        let c = build_contexts(&tuples, None, None, o);
        // Pairs: (100,100),(100,200),(200,100),(200,200) — self-rules
        // removed, so elem has (1,2) from (100,200) and (2,1) from (200,100).
        assert_eq!(c.elem.len(), 2);
    }

    #[test]
    fn couples_restrict_pairs() {
        let tuples = vec![
            t(1, Some(100), Some(1), Some(1)),
            t(1, Some(200), Some(2), Some(2)),
        ];
        let couples = vec![(1, 100, 200)]; // only 100 → 200 allowed
        let mut o = opts(1);
        o.clustered = true;
        o.has_couples = true;
        let c = build_contexts(&tuples, Some(&couples), None, o);
        assert!(has(&c, (1, 2)));
        assert!(!has(&c, (2, 1)));
    }

    #[test]
    fn input_rules_bypass_product() {
        let tuples = vec![t(1, None, Some(1), Some(1)), t(1, None, Some(2), Some(2))];
        let rules = vec![ElemRule {
            gid: 1,
            cidb: None,
            cidh: None,
            bid: 1,
            hid: 2,
        }];
        let c = build_contexts(&tuples, None, Some(&rules), opts(1));
        assert_eq!(c.elem.len(), 1);
        assert!(has(&c, (1, 2)));
    }

    #[test]
    fn body_contexts_track_body_occurrences() {
        let tuples = vec![
            t(1, None, Some(1), Some(1)),
            t(2, None, Some(1), Some(1)),
            t(2, None, Some(2), Some(2)),
        ];
        let c = build_contexts(&tuples, None, None, opts(1));
        let occurrences = c.body_contexts(1).unwrap();
        assert_eq!(occurrences.len(), 2);
        assert_eq!(c.distinct_body_gids(occurrences), 2);
    }
}
