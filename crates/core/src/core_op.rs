//! The core operator (§4.3): dispatches to the simple algorithm pool or
//! the general rule lattice, based on the translator's directives.
//!
//! Inputs and outputs are fully encoded — the operator is oblivious to
//! real schemas and values, which is what lets the architecture swap
//! algorithms freely ("algorithm interoperability"). Simple statements
//! run one pool member (selected by [`CoreOptions::algorithm`]) through
//! one counting context ([`crate::algo::CountingCtx`]) on the calling
//! thread; general statements run the m×n rule lattice.
//!
//! # Example
//!
//! Driving the whole pipeline (this module is the third box) through
//! [`MineRuleEngine`](crate::MineRuleEngine) — every member of the pool
//! mines the same rules:
//!
//! ```
//! use minerule::MineRuleEngine;
//! use relational::Database;
//!
//! let statement = "MINE RULE Pairs AS \
//!     SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
//!     SUPPORT, CONFIDENCE \
//!     FROM Baskets GROUP BY tr \
//!     EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.7";
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE Baskets (tr INT, item VARCHAR)")?;
//! db.execute(
//!     "INSERT INTO Baskets VALUES \
//!      (1,'bread'), (1,'butter'), (2,'bread'), (2,'butter'), (3,'jam')",
//! )?;
//!
//! let apriori = MineRuleEngine::new().execute(&mut db, statement)?;
//! let eclat = MineRuleEngine::new()
//!     .with_algorithm("eclat")
//!     .execute(&mut db, statement)?;
//!
//! assert!(!apriori.rules.is_empty());
//! assert_eq!(apriori.rules, eclat.rules, "algorithm interoperability");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::algo::{self, CountingCtx, EncodedRules, LargeItemset, SimpleView};
use crate::encoded::{EncodedData, EncodedInput, GeneralTuple};
use crate::error::{MineError, Result};
use crate::lattice::elementary::{build_contexts, BuildOptions};
use crate::lattice::{mine_general_with_stats, GeneralParams, LatticeStats};
use crate::telemetry::Telemetry;

/// Options steering the core operator (the "directives" of Figure 3a that
/// aren't derivable from the statement alone).
#[derive(Debug, Clone)]
pub struct CoreOptions {
    /// Which member of the algorithm pool handles simple statements.
    pub algorithm: String,
    /// Run even simple statements through the general lattice (used by the
    /// E6 overhead experiment).
    pub force_general: bool,
}

impl Default for CoreOptions {
    fn default() -> Self {
        CoreOptions {
            algorithm: "apriori".into(),
            force_general: false,
        }
    }
}

/// What the core operator hands to the postprocessor.
#[derive(Debug, Clone)]
pub struct CoreOutput {
    /// The rules in the normalised form the postprocessor stores and
    /// decodes: each distinct body and head once, rules by id.
    pub rules: EncodedRules,
    /// Which path ran, for reporting.
    pub used_general: bool,
    /// Lattice statistics (general path only).
    pub lattice_stats: Option<LatticeStats>,
    /// The large-itemset inventory the rules were derived from (simple
    /// path only; `None` on the general lattice). The session artifact
    /// store captures this so tightened-threshold reruns can filter it
    /// instead of re-mining.
    pub large_itemsets: Option<Vec<LargeItemset>>,
}

/// Run the core operator on encoded input (no telemetry).
pub fn run_core(input: &EncodedInput, opts: &CoreOptions) -> Result<CoreOutput> {
    run_core_with_telemetry(input, opts, &Telemetry::disabled())
}

/// Run the core operator, publishing `core.*` metrics (work counters and
/// per-level candidate generation/pruning) to the given telemetry
/// registry. Telemetry never changes the
/// mined rules — a disabled handle yields a bit-identical [`CoreOutput`].
pub fn run_core_with_telemetry(
    input: &EncodedInput,
    opts: &CoreOptions,
    telemetry: &Telemetry,
) -> Result<CoreOutput> {
    run_core_on(input, opts, telemetry, false)
}

/// [`run_core_with_telemetry`] with the gid-set representation chosen by
/// the caller's reference selector
/// ([`relational::Database::set_reference_paths`]): `true` keeps every
/// gid set a sorted list.
pub(crate) fn run_core_on(
    input: &EncodedInput,
    opts: &CoreOptions,
    telemetry: &Telemetry,
    reference_paths: bool,
) -> Result<CoreOutput> {
    match &input.data {
        EncodedData::Simple { groups } if !opts.force_general => {
            telemetry.counter_inc("core.path.simple");
            telemetry.counter_add("core.groups", groups.len() as u64);
            let miner =
                algo::by_name(&opts.algorithm).ok_or_else(|| MineError::UnknownAlgorithm {
                    name: opts.algorithm.clone(),
                })?;
            let simple = SimpleView {
                groups: groups.groups(),
                total_groups: input.total_groups,
                min_groups: input.min_groups,
            };
            let counting = CountingCtx::new(reference_paths);
            let span = telemetry.span("phase.core.mine");
            let large = miner.mine_with(simple, &counting);
            span.stop();
            telemetry.counter_add("core.itemsets.large", large.len() as u64);
            let span = telemetry.span("phase.core.rules");
            let (rules, rule_stats) = algo::rules_from_itemsets_counted(
                &large,
                input.total_groups,
                input.body_card,
                input.head_card,
                input.min_confidence,
            )?;
            span.stop();
            telemetry.counter_add("core.rules.candidates", rule_stats.candidates);
            telemetry.counter_add("core.rules.pruned_confidence", rule_stats.pruned_confidence);
            telemetry.counter_add("core.rules.emitted", rules.len() as u64);
            telemetry.counter_add("core.trie.nodes", rule_stats.trie_nodes);
            telemetry.counter_add("core.trie.lookups", rule_stats.trie_lookups);
            publish_counting_stats(telemetry, &counting);
            Ok(CoreOutput {
                rules,
                used_general: false,
                lattice_stats: None,
                large_itemsets: Some(large),
            })
        }
        EncodedData::Simple { groups } => {
            // Forced general processing of a simple statement: synthesise
            // the tuple encoding the general path expects.
            let tuples: Vec<GeneralTuple> = groups
                .iter()
                .flat_map(|(gid, bids)| {
                    bids.iter().map(move |&b| GeneralTuple {
                        gid,
                        cid: None,
                        bid: Some(b),
                        hid: Some(b),
                    })
                })
                .collect();
            run_general(input, &tuples, None, None, telemetry)
        }
        EncodedData::General {
            tuples,
            cluster_couples,
            input_rules,
        } => run_general(
            input,
            tuples,
            cluster_couples.as_deref(),
            input_rules.as_deref(),
            telemetry,
        ),
    }
}

/// Publish a simple-path run's counting accounting as `core.*` metrics.
fn publish_counting_stats(telemetry: &Telemetry, counting: &CountingCtx) {
    if !telemetry.is_enabled() {
        return;
    }
    let stats = counting.take_stats();
    telemetry.counter_add("core.groups.scanned", stats.groups_scanned);
    telemetry.counter_add("core.candidates.counted", stats.candidates_counted);
    telemetry.counter_add("core.gidset.list.picked", stats.gidset_list_picked);
    telemetry.counter_add("core.gidset.bitset.picked", stats.gidset_bitset_picked);
    telemetry.counter_add("core.gidset.intersects", stats.gidset_intersects);
    telemetry.counter_add("core.trie.nodes", stats.trie_nodes);
    telemetry.counter_add("core.trie.lookups", stats.trie_lookups);
    for (k, level) in &stats.levels {
        telemetry.counter_add(&format!("core.level.{k}.generated"), level.generated);
        telemetry.counter_add(&format!("core.level.{k}.pruned"), level.pruned);
    }
}

fn run_general(
    input: &EncodedInput,
    tuples: &[GeneralTuple],
    couples: Option<&[(u32, u32, u32)]>,
    elementary: Option<&[crate::encoded::ElemRule]>,
    telemetry: &Telemetry,
) -> Result<CoreOutput> {
    telemetry.counter_inc("core.path.general");
    telemetry.counter_add("core.tuples", tuples.len() as u64);
    let span = telemetry.span("phase.core.contexts");
    let contexts = build_contexts(
        tuples,
        couples,
        elementary,
        BuildOptions {
            clustered: input.directives.c,
            has_couples: input.directives.k,
            distinct_head: input.directives.h,
            min_groups: input.min_groups,
        },
    );
    span.stop();
    let span = telemetry.span("phase.core.lattice");
    let (rules, stats) = mine_general_with_stats(
        &contexts,
        &GeneralParams {
            total_groups: input.total_groups,
            min_groups: input.min_groups,
            min_confidence: input.min_confidence,
            body_card: input.body_card,
            head_card: input.head_card,
        },
    )?;
    span.stop();
    telemetry.counter_add("core.lattice.candidates", stats.candidates_evaluated);
    telemetry.counter_add("core.lattice.pruned_early", stats.pruned_early);
    let produced = stats.sets.iter().filter(|(_, _, kept)| *kept > 0).count();
    telemetry.counter_add("core.lattice.sets", produced as u64);
    if telemetry.is_enabled() {
        for &((m, n), generated, kept) in &stats.sets {
            let set = |what| format!("core.lattice.set.{m}x{n}.{what}");
            telemetry.counter_add(&set("generated"), generated);
            telemetry.counter_add(&set("kept"), kept as u64);
        }
    }
    telemetry.counter_add("core.rules.emitted", rules.len() as u64);
    Ok(CoreOutput {
        rules,
        used_general: true,
        lattice_stats: Some(stats),
        large_itemsets: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::GroupArena;
    use crate::ast::CardSpec;
    use crate::directives::{Directives, StatementClass};

    fn simple_input(groups: Vec<(u32, Vec<u32>)>, head_card: CardSpec) -> EncodedInput {
        let mut arena = GroupArena::default();
        for (gid, items) in &groups {
            arena.push_group(*gid, items);
        }
        EncodedInput {
            directives: Directives::default(),
            class: StatementClass::Simple,
            total_groups: groups.len() as u32,
            min_groups: 1,
            min_support: 0.1,
            min_confidence: 0.01,
            body_card: CardSpec::one_to_n(),
            head_card,
            data: EncodedData::Simple { groups: arena },
        }
    }

    #[test]
    fn simple_and_forced_general_agree() {
        let groups = vec![
            (1, vec![1, 2, 3]),
            (2, vec![1, 2]),
            (3, vec![2, 3]),
            (4, vec![1, 3]),
        ];
        // Head 1..n so both paths can express every split.
        let input = simple_input(groups, CardSpec::one_to_n());
        let simple = run_core(&input, &CoreOptions::default()).unwrap();
        let general = run_core(
            &input,
            &CoreOptions {
                force_general: true,
                ..CoreOptions::default()
            },
        )
        .unwrap();
        assert!(!simple.used_general && general.used_general);
        assert_eq!(simple.rules, general.rules);
        assert!(!simple.rules.is_empty());
    }

    #[test]
    fn every_pool_member_yields_identical_rules() {
        let groups = vec![
            (1, vec![1, 2, 3]),
            (2, vec![1, 2]),
            (3, vec![2, 3]),
            (4, vec![1, 2, 3]),
        ];
        let input = simple_input(groups, CardSpec::one_to_one());
        let mut reference: Option<EncodedRules> = None;
        for name in [
            "apriori",
            "count",
            "dhp",
            "partition",
            "sampling",
            "eclat",
            "fpgrowth",
        ] {
            let out = run_core(
                &input,
                &CoreOptions {
                    algorithm: name.into(),
                    ..CoreOptions::default()
                },
            )
            .unwrap();
            match &reference {
                None => reference = Some(out.rules),
                Some(r) => assert_eq!(&out.rules, r, "{name} disagrees"),
            }
        }
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        let input = simple_input(vec![(1, vec![1])], CardSpec::one_to_one());
        let err = run_core(
            &input,
            &CoreOptions {
                algorithm: "nope".into(),
                ..CoreOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, MineError::UnknownAlgorithm { .. }));
        let message = err.to_string();
        for name in algo::POOL_NAMES {
            assert!(message.contains(name), "message lists '{name}': {message}");
        }
        assert!(message.contains("nope"));
    }

    #[test]
    fn telemetry_records_core_metrics_without_changing_rules() {
        let groups = vec![
            (1, vec![1, 2, 3]),
            (2, vec![1, 2]),
            (3, vec![2, 3]),
            (4, vec![1, 3]),
        ];
        let input = simple_input(groups, CardSpec::one_to_n());
        let plain = run_core(&input, &CoreOptions::default()).unwrap();
        let tel = Telemetry::new();
        let instrumented = run_core_with_telemetry(&input, &CoreOptions::default(), &tel).unwrap();
        assert_eq!(plain.rules, instrumented.rules, "telemetry is inert");
        let snap = tel.snapshot();
        assert_eq!(snap.counter("core.path.simple"), 1);
        assert_eq!(snap.counter("core.groups"), 4);
        assert_eq!(
            snap.counter("core.rules.emitted"),
            instrumented.rules.len() as u64
        );
        assert!(snap.counter("core.level.1.generated") > 0, "L1 reported");
        assert_eq!(snap.counter("core.groups.scanned"), 4, "one gid-list scan");
    }

    #[test]
    fn gidset_representations_agree_on_rules() {
        let groups = vec![
            (1, vec![1, 2, 3]),
            (2, vec![1, 2]),
            (3, vec![2, 3]),
            (4, vec![1, 3]),
            (5, vec![1, 2, 3]),
        ];
        let input = simple_input(groups, CardSpec::one_to_n());
        let quiet = Telemetry::disabled();
        let baseline = run_core_on(&input, &CoreOptions::default(), &quiet, true).unwrap();
        for algorithm in ["apriori", "eclat", "partition", "sampling"] {
            let opts = CoreOptions {
                algorithm: algorithm.into(),
                ..CoreOptions::default()
            };
            for reference_paths in [true, false] {
                let out = run_core_on(&input, &opts, &quiet, reference_paths).unwrap();
                assert_eq!(
                    out.rules, baseline.rules,
                    "{algorithm} lists={reference_paths}"
                );
            }
        }
    }
}
