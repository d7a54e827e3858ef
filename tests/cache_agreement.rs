//! The cache agreement contract: every combination of session artifact
//! store on/off × reference-or-production paths mines
//! bit-identical rules — including warm runs after a threshold-only
//! refinement (encoding restored, inventory filtered), incremental
//! re-mines after a source-table delta, and runs after a source-table
//! mutation (which must *never* serve stale artifacts).

use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::{DecodedRule, MineRuleEngine};

const CACHE: [bool; 2] = [true, false];
/// Production paths (indexed access among them) and the reference
/// paths (scans) — `Database::set_reference_paths`.
const REFERENCE: [bool; 2] = [false, true];

/// Bit-exact signature of a rule set (f64s compared by bit pattern).
fn signature(rules: &[DecodedRule]) -> Vec<String> {
    rules
        .iter()
        .map(|r| {
            format!(
                "{:?}=>{:?} s={:016x} c={:016x}",
                r.body,
                r.head,
                r.support.to_bits(),
                r.confidence.to_bits()
            )
        })
        .collect()
}

fn simple(support: f64, confidence: f64) -> String {
    format!(
        "MINE RULE SimpleAssoc AS SELECT DISTINCT item AS BODY, item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
    )
}

#[test]
fn threshold_refinement_agrees_across_all_knobs() {
    let mut reference: Option<(Vec<String>, Vec<String>)> = None;
    for cache in CACHE {
        for reference_paths in REFERENCE {
            let label = format!("cache={cache} reference={reference_paths}");
            let mut db = purchase_db();
            db.set_reference_paths(reference_paths);
            let engine = MineRuleEngine::new().with_cache(cache);

            // Cold run, then a support-only refinement of the same
            // statement: with the cache on, the second run must be a
            // warm hit that skips every Qi step.
            let cold = engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
            assert!(!cold.preprocess_report.executed.is_empty(), "{label}");
            let warm = engine.execute(&mut db, &simple(0.5, 0.4)).unwrap();

            let snapshot = engine.metrics_snapshot();
            if cache {
                assert!(
                    warm.preprocess_report.executed.is_empty(),
                    "{label}: warm run must not execute preprocessing"
                );
                assert_eq!(snapshot.counter("preprocess.cache.hit"), 1, "{label}");
                assert_eq!(snapshot.counter("preprocess.cache.miss"), 1, "{label}");
            } else {
                assert!(
                    !warm.preprocess_report.executed.is_empty(),
                    "{label}: cache off must preprocess every run"
                );
                assert_eq!(snapshot.counter("preprocess.cache.hit"), 0, "{label}");
            }
            // The warm report still states the *current* threshold.
            assert_eq!(
                warm.preprocess_report.min_groups,
                minerule::preprocess::min_groups_for(warm.preprocess_report.total_groups, 0.5),
                "{label}"
            );

            let sigs = (signature(&cold.rules), signature(&warm.rules));
            assert!(!sigs.0.is_empty() && !sigs.1.is_empty(), "{label}");
            match &reference {
                None => reference = Some(sigs),
                Some(expected) => {
                    assert_eq!(&sigs.0, &expected.0, "{label}: cold rules diverge");
                    assert_eq!(&sigs.1, &expected.1, "{label}: warm rules diverge");
                }
            }
        }
    }
}

#[test]
fn general_class_agrees_across_all_knobs() {
    let mut reference: Option<Vec<String>> = None;
    for cache in CACHE {
        for reference_paths in REFERENCE {
            let label = format!("cache={cache} reference={reference_paths}");
            let mut db = purchase_db();
            db.set_reference_paths(reference_paths);
            let engine = MineRuleEngine::new().with_cache(cache);
            // Run the paper's §2 statement twice: identical statement,
            // so with the cache on the second run is a warm hit even
            // though the thresholds did not move.
            let first = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
            let second = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
            assert_eq!(
                second.preprocess_report.executed.is_empty(),
                cache,
                "{label}"
            );
            let sig = signature(&second.rules);
            assert_eq!(signature(&first.rules), sig, "{label}: rerun diverges");
            match &reference {
                None => reference = Some(sig),
                Some(expected) => assert_eq!(&sig, expected, "{label}: rules diverge"),
            }
        }
    }
}

#[test]
fn source_mutation_never_serves_stale_artifacts() {
    for reference_paths in REFERENCE {
        let label = format!("reference={reference_paths}");
        // Cached engine: cold run, mutate the source, rerun.
        let mut db = purchase_db();
        db.set_reference_paths(reference_paths);
        let engine = MineRuleEngine::new().with_cache(true);
        engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
        db.execute(
            "INSERT INTO Purchase VALUES \
             (9, 'c9', 'col_shirts', DATE '1997-01-08', 25, 1)",
        )
        .unwrap();
        let after = engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
        assert!(
            !after.preprocess_report.executed.is_empty(),
            "{label}: a mutated source must force a cold preprocess"
        );
        let snapshot = engine.metrics_snapshot();
        assert_eq!(snapshot.counter("preprocess.cache.hit"), 0, "{label}");
        assert_eq!(snapshot.counter("preprocess.cache.miss"), 2, "{label}");

        // Reference: an uncached engine over a database that was mutated
        // the same way sees exactly the same rules.
        let mut fresh = purchase_db();
        fresh.set_reference_paths(reference_paths);
        fresh
            .execute(
                "INSERT INTO Purchase VALUES \
                 (9, 'c9', 'col_shirts', DATE '1997-01-08', 25, 1)",
            )
            .unwrap();
        let reference = MineRuleEngine::new()
            .with_cache(false)
            .execute(&mut fresh, &simple(0.25, 0.1))
            .unwrap();
        assert_eq!(
            signature(&after.rules),
            signature(&reference.rules),
            "{label}: post-mutation rules diverge from a cold run"
        );
    }
}

#[test]
fn looser_threshold_refinement_misses_but_agrees() {
    // Group by transaction (4 groups) so the two supports actually map to
    // different :mingroups (2 vs 1) — grouping by customer (2 groups)
    // would round both to 1 and legitimately hit.
    fn by_tr(support: f64) -> String {
        format!(
            "MINE RULE TrAssoc AS SELECT DISTINCT item AS BODY, item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: 0.1"
        )
    }
    let mut db = purchase_db();
    let engine = MineRuleEngine::new().with_cache(true);
    engine.execute(&mut db, &by_tr(0.5)).unwrap();
    // A *looser* support needs items the cached artifacts pruned, so the
    // superset rule forces a cold run.
    let loose = engine.execute(&mut db, &by_tr(0.25)).unwrap();
    assert!(!loose.preprocess_report.executed.is_empty());
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("preprocess.cache.hit"), 0);

    let reference = MineRuleEngine::new()
        .with_cache(false)
        .execute(&mut purchase_db(), &by_tr(0.25))
        .unwrap();
    assert_eq!(signature(&loose.rules), signature(&reference.rules));
}

// ---- the inventory half ------------------------------------------------

/// A simple-class statement over `tr` (4 groups), so support thresholds
/// 0.25 / 0.5 map to distinct `:mingroups` (1 vs 2) and loosening is a
/// genuine miss on both halves.
fn tr_mine(support: f64, confidence: f64) -> String {
    format!(
        "MINE RULE TrCached AS SELECT DISTINCT item AS BODY, item AS HEAD, \
         SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
    )
}

const DELTA_INSERT: &str =
    "INSERT INTO Purchase VALUES (9, 'c9', 'col_shirts', DATE '1997-01-08', 25, 1)";

/// An UPDATE is logged as a delete+insert pair, so it rides the same
/// incremental delta path as the INSERT above — while genuinely changing
/// the mined rules (transaction 1 swaps an item).
const DELTA_UPDATE: &str =
    "UPDATE Purchase SET item = 'wool_socks' WHERE tr = 1 AND item = 'hiking_boots'";

/// A multi-row INSERT appends under one version stamp and one change
/// record (a new transaction plus a row for an existing one); well inside
/// the delta budget, it must ride the same incremental path.
const DELTA_MULTI_INSERT: &str = "INSERT INTO Purchase VALUES \
     (10, 'c9', 'jackets', DATE '1997-01-09', 300, 1), \
     (10, 'c9', 'col_shirts', DATE '1997-01-09', 25, 2), \
     (1, 'cust1', 'jackets', DATE '1997-01-09', 300, 1)";

/// A DELETE whose predicate matches no row: no version bump, so both
/// halves still answer — not a delta, let alone a miss.
const NOOP_DELETE: &str = "DELETE FROM Purchase WHERE tr = 424242";

/// Counters that prove the core operator ran (or did not).
fn core_work(snapshot: &minerule::telemetry::MetricsSnapshot) -> Vec<(String, u64)> {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("core.level.") || name.starts_with("core.path."))
        .map(|(name, value)| (name.clone(), *value))
        .collect()
}

/// What the store must do with the core phase of one stage of a session.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Expect {
    /// The core operator runs (first mine, loosened support).
    Mine,
    /// Same snapshot and thresholds: a plain hit.
    Hit,
    /// Same snapshot, other thresholds: answered by filtering.
    Refine,
    /// The source moved: answered by incremental re-mining.
    Delta,
}

/// One stage: SQL applied to the source first, then the statement mined
/// at `(support, confidence)`.
type Stage<'a> = (&'a [&'a str], f64, f64, Expect);

/// Drive one engine through `stages` over the database `setup` builds,
/// with the cache on and off. Every stage must be
/// bit-identical to a cold mine (cache off) over a fresh, equally-mutated
/// database; with the cache on, every stage must be served the way it
/// says, warm stages doing zero core-operator work.
fn assert_session_agrees(
    setup: &[&str],
    statement: impl Fn(f64, f64) -> String,
    stages: &[Stage<'_>],
) {
    let build = |mutations: &[&str]| {
        let mut db = purchase_db();
        for sql in setup.iter().chain(mutations) {
            db.execute(sql).unwrap();
        }
        db
    };
    for cache in CACHE {
        let mut db = build(&[]);
        let engine = MineRuleEngine::new().with_cache(cache);
        let mut mutations: Vec<&str> = Vec::new();
        for (stage, (dml, support, confidence, expect)) in stages.iter().enumerate() {
            let label = format!("cache={cache} stage {stage}");
            for sql in *dml {
                db.execute(sql).unwrap();
                mutations.push(sql);
            }
            let text = statement(*support, *confidence);
            let before = engine.metrics_snapshot();
            let run = engine.execute(&mut db, &text).unwrap();
            let after = engine.metrics_snapshot();
            let moved = |name: &str| after.counter(name) - before.counter(name);
            let served = if cache { *expect } else { Expect::Mine };
            assert_eq!(
                core_work(&before) != core_work(&after),
                served == Expect::Mine,
                "{label}: the core operator runs exactly on a mine"
            );
            let (hit, refine, delta, miss) = match served {
                Expect::Mine => (0, 0, 0, cache as u64),
                Expect::Hit => (1, 0, 0, 0),
                Expect::Refine => (1, 1, 0, 0),
                Expect::Delta => (1, 0, 1, 0),
            };
            for (name, want) in [
                ("core.minecache.hit", hit),
                ("core.minecache.refine", refine),
                ("core.minecache.delta", delta),
                ("core.minecache.miss", miss),
            ] {
                assert_eq!(moved(name), want, "{label}: {name}");
            }
            // An untouched source restores the encoding half too.
            if matches!(served, Expect::Hit | Expect::Refine) {
                assert_eq!(moved("preprocess.cache.hit"), 1, "{label}");
            }

            let reference = MineRuleEngine::new()
                .with_cache(false)
                .execute(&mut build(&mutations), &text)
                .unwrap();
            assert!(!reference.rules.is_empty(), "{label}");
            assert_eq!(
                signature(&run.rules),
                signature(&reference.rules),
                "{label}: rules diverge from a cold mine"
            );
        }
    }
}

/// The tentpole sequence — cold mine, loosen (clean miss + recapture),
/// tighten support (refine), tighten confidence (refine), insert delta
/// (incremental re-mine), update delta (delete+insert re-mine), multi-row
/// insert delta (one change record, incremental re-mine), a DELETE that
/// matches nothing (still a hit), then a tightened rerun on the entry
/// three deltas rewrote — must stay bit-identical to a cold mine at every
/// stage, with the cache on or off. Warm stages
/// must do zero core-operator work.
#[test]
fn mined_result_refinement_sequence_agrees_across_workers() {
    assert_session_agrees(
        &[],
        tr_mine,
        &[
            (&[], 0.5, 0.4, Expect::Mine),                     // cold capture
            (&[], 0.25, 0.1, Expect::Mine),                    // loosened support: clean miss
            (&[], 0.5, 0.1, Expect::Refine),                   // tightened support
            (&[], 0.5, 0.7, Expect::Refine),                   // tightened confidence
            (&[DELTA_INSERT], 0.25, 0.1, Expect::Delta),       // incremental re-mine
            (&[DELTA_UPDATE], 0.25, 0.1, Expect::Delta),       // delete+insert re-mine
            (&[DELTA_MULTI_INSERT], 0.25, 0.1, Expect::Delta), // one-record bulk delta
            (&[NOOP_DELETE], 0.25, 0.1, Expect::Hit),          // nothing deleted, nothing stale
            (&[], 0.5, 0.4, Expect::Refine),                   // tightened after the deltas
        ],
    );
}

/// The digest counts rows, not items: of two source rows carrying the
/// same (group, item), deleting one keeps the item in its group (the
/// re-mine changes nothing), deleting the other drops it.
#[test]
fn duplicate_source_rows_keep_an_item_until_the_last_one_goes() {
    let twin = "INSERT INTO Purchase VALUES \
                (2, 'cust2', 'col_shirts', DATE '1995-12-18', 25, 9)";
    assert_session_agrees(
        &[twin],
        tr_mine,
        &[
            (&[], 0.25, 0.1, Expect::Mine),
            (
                &["DELETE FROM Purchase WHERE tr = 2 AND item = 'col_shirts' AND qty = 9"],
                0.25,
                0.1,
                Expect::Delta,
            ),
            (
                &["DELETE FROM Purchase WHERE tr = 2 AND item = 'col_shirts'"],
                0.25,
                0.1,
                Expect::Delta,
            ),
            (&[], 0.25, 0.5, Expect::Refine),
        ],
    );
}

/// NULL grouping and item values group (they count towards `:totg`, a
/// NULL item is an element of its own) but never join `CodedSource`.
/// The cache captures such sources now and replays deltas on them.
#[test]
fn null_groups_and_items_are_captured_and_replayed() {
    let nulls = "INSERT INTO Purchase VALUES \
                 (NULL, 'c8', 'jackets', DATE '1997-01-08', 300, 1), \
                 (NULL, 'c8', 'ski_pants', DATE '1997-01-08', 140, 1), \
                 (1, 'cust1', NULL, DATE '1997-01-08', 10, 1), \
                 (3, 'cust1', NULL, DATE '1997-01-08', 10, 1)";
    assert_session_agrees(
        &[nulls],
        tr_mine,
        &[
            (&[], 0.2, 0.1, Expect::Mine),
            (&[], 0.4, 0.3, Expect::Refine),
            (
                &["INSERT INTO Purchase VALUES \
                   (NULL, 'c8', 'brown_boots', DATE '1997-01-09', 180, 1), \
                   (4, 'cust2', NULL, DATE '1997-01-09', 10, 1), \
                   (4, 'cust2', 'ski_pants', DATE '1997-01-09', 140, 1)"],
                0.2,
                0.1,
                Expect::Delta,
            ),
            (
                &["DELETE FROM Purchase WHERE tr IS NULL OR item IS NULL"],
                0.2,
                0.1,
                Expect::Delta,
            ),
        ],
    );
}

/// Elements over two attributes: the item key is the `(item, qty)` pair.
#[test]
fn two_attribute_body_schema_is_captured_and_replayed() {
    let pairs = |support: f64, confidence: f64| {
        format!(
            "MINE RULE PairCached AS SELECT DISTINCT item, qty AS BODY, item, qty AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        )
    };
    assert_session_agrees(
        &[],
        pairs,
        &[
            (&[], 0.5, 0.1, Expect::Mine),
            (&[], 0.5, 0.6, Expect::Refine),
            (
                &["INSERT INTO Purchase VALUES \
                   (9, 'cust2', 'ski_pants', DATE '1997-01-08', 140, 1), \
                   (9, 'cust2', 'ski_pants', DATE '1997-01-08', 140, 2)"],
                0.5,
                0.1,
                Expect::Delta,
            ),
            (&[], 1.0, 0.1, Expect::Refine),
        ],
    );
}

/// A FLOAT column admits `1` uncoerced next to `1.0`; SQL GROUP BY — and
/// therefore the digest — unifies them, while `0.0` and `-0.0` stay the
/// two values `sql_cmp` keeps apart. Such a source is captured and served
/// like any other. (Each level shows up as a FLOAT first: the SQL
/// engine types a derived column by its first value, and the decode
/// joins must see FLOAT to admit both spellings.)
#[test]
fn float_keys_unify_ints_and_keep_signed_zeros_apart() {
    let setup = [
        "CREATE TABLE Readings (batch FLOAT, level FLOAT)",
        "INSERT INTO Readings VALUES \
         (1.0, 1.0), (1, 2.5), (1, 0.0), (2.0, 1), (2, 2.5), (2, -0.0), \
         (3.0, 1), (3.0, 0.0), (3, -0.0), (4, 2.5), (4.0, 1.0)",
    ];
    let readings = |support: f64, confidence: f64| {
        format!(
            "MINE RULE FloatCached AS SELECT DISTINCT level AS BODY, level AS HEAD, \
             SUPPORT, CONFIDENCE FROM Readings GROUP BY batch \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        )
    };
    assert_session_agrees(
        &setup,
        readings,
        &[
            (&[], 0.25, 0.1, Expect::Mine),
            (&[], 0.25, 0.1, Expect::Hit),
            (&[], 0.5, 0.5, Expect::Refine),
            (
                &["INSERT INTO Readings VALUES (5, 1), (5.0, -0.0), (1, 2.5)"],
                0.25,
                0.1,
                Expect::Delta,
            ),
            (
                &["DELETE FROM Readings WHERE batch = 3 AND level = 0.0"],
                0.25,
                0.1,
                Expect::Delta,
            ),
        ],
    );
}

/// Overflowing the bounded store evicts the oldest entry — both halves of
/// it; a rerun of the evicted statement is a clean miss on both that
/// still agrees with a cold mine.
#[test]
fn mined_result_eviction_recaptures_and_agrees() {
    // The store's fingerprint ignores thresholds and the output name, so
    // distinct entries need distinct source fragments: vary GROUP BY.
    const GROUPINGS: [&str; 9] = [
        "tr",
        "customer",
        "date",
        "price",
        "qty",
        "tr, customer",
        "tr, date",
        "customer, date",
        "tr, price",
    ];
    fn named(group_by: &str) -> String {
        format!(
            "MINE RULE Evict AS SELECT DISTINCT item AS BODY, item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY {group_by} \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1"
        )
    }
    let mut db = purchase_db();
    let engine = MineRuleEngine::new().with_cache(true);
    // Nine distinct statements against an 8-entry store: the first one
    // is evicted by the time the ninth lands, and each `evict` counter
    // reports the half it held.
    for group_by in GROUPINGS {
        engine.execute(&mut db, &named(group_by)).unwrap();
    }
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("preprocess.cache.evict"), 1);
    assert_eq!(snapshot.counter("core.minecache.evict"), 1);
    assert_eq!(snapshot.counter("preprocess.cache.hit"), 0);
    assert_eq!(snapshot.counter("core.minecache.hit"), 0);

    let rerun = engine.execute(&mut db, &named("tr")).unwrap();
    let snapshot = engine.metrics_snapshot();
    for name in ["preprocess.cache.miss", "core.minecache.miss"] {
        assert_eq!(
            snapshot.counter(name),
            10,
            "{name}: the evicted statement must miss, not serve stale results"
        );
    }
    let reference = MineRuleEngine::new()
        .with_cache(false)
        .execute(&mut purchase_db(), &named("tr"))
        .unwrap();
    assert_eq!(signature(&rerun.rules), signature(&reference.rules));
}

/// The two halves are independent: a general-class rerun restores its
/// encoding (a preprocess *hit*) and still mines (a mined-result *miss* —
/// an inventory is only kept for the simple fused-pass shape).
#[test]
fn preprocess_hit_feeds_mined_result_miss() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new().with_cache(true);
    let first = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
    let second = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
    assert!(second.preprocess_report.executed.is_empty());
    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("preprocess.cache.hit"), 1);
    assert_eq!(snapshot.counter("core.minecache.hit"), 0);
    assert_eq!(snapshot.counter("core.minecache.miss"), 2);
    assert_eq!(signature(&first.rules), signature(&second.rules));
}

/// DML between two runs replaces the entry's encoding half (the source
/// version moved, so preprocessing reruns) while the inventory half, kept
/// at the old version, delta-serves the core phase; the unchanged rerun
/// after that finds both halves current.
#[test]
fn insert_replaces_the_encoding_and_delta_serves_from_the_kept_inventory() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new().with_cache(true);
    let moved = |before: &minerule::MetricsSnapshot, name: &str| {
        engine.metrics_snapshot().counter(name) - before.counter(name)
    };
    engine.execute(&mut db, &tr_mine(0.25, 0.1)).unwrap();

    db.execute(DELTA_INSERT).unwrap();
    let before = engine.metrics_snapshot();
    let delta = engine.execute(&mut db, &tr_mine(0.25, 0.1)).unwrap();
    assert!(!delta.preprocess_report.executed.is_empty());
    assert_eq!(moved(&before, "preprocess.cache.miss"), 1);
    assert_eq!(moved(&before, "preprocess.cache.hit"), 0);
    assert_eq!(moved(&before, "core.minecache.delta"), 1);
    assert_eq!(moved(&before, "core.minecache.miss"), 0);

    let before = engine.metrics_snapshot();
    let warm = engine.execute(&mut db, &tr_mine(0.25, 0.1)).unwrap();
    assert!(warm.preprocess_report.executed.is_empty());
    assert_eq!(moved(&before, "preprocess.cache.hit"), 1);
    assert_eq!(moved(&before, "preprocess.cache.miss"), 0);
    assert_eq!(moved(&before, "core.minecache.hit"), 1);
    for name in ["core.minecache.refine", "core.minecache.delta"] {
        assert_eq!(moved(&before, name), 0, "{name}");
    }
    assert_eq!(signature(&delta.rules), signature(&warm.rules));

    let mut fresh = purchase_db();
    fresh.execute(DELTA_INSERT).unwrap();
    let reference = MineRuleEngine::new()
        .with_cache(false)
        .execute(&mut fresh, &tr_mine(0.25, 0.1))
        .unwrap();
    assert_eq!(signature(&warm.rules), signature(&reference.rules));
}

#[test]
fn confidence_only_refinement_always_hits() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new().with_cache(true);
    engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
    let warm = engine.execute(&mut db, &simple(0.25, 0.8)).unwrap();
    assert!(warm.preprocess_report.executed.is_empty());
    assert_eq!(engine.metrics_snapshot().counter("preprocess.cache.hit"), 1);
    let reference = MineRuleEngine::new()
        .with_cache(false)
        .execute(&mut purchase_db(), &simple(0.25, 0.8))
        .unwrap();
    assert_eq!(signature(&warm.rules), signature(&reference.rules));
}
