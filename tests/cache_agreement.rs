//! The cache agreement contract: every combination of session artifact
//! store on/off × reference-or-production paths mines
//! bit-identical rules — including warm runs after a threshold-only
//! refinement (encoding restored, inventory filtered), incremental
//! re-mines after a source-table delta, and runs after a source-table
//! mutation (which must *never* serve stale artifacts). An encoding the
//! store re-derives from its source digest (a loosened support, a
//! replayed delta) leaves the encoded tables, id sequences and
//! `:totg` / `:mingroups` of a cold preprocess, bit for bit.

use datagen::rng::Rng;
use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::{DecodedRule, MineRuleEngine};
use relational::{Database, Value};

const CACHE: [bool; 2] = [true, false];
/// Production paths and the reference paths —
/// `Database::set_reference_paths`.
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

/// What a statement's preprocessing leaves for SQL to read: `SELECT *`
/// of `ValidGroups`, `Bset` and `CodedSource` (column types, values with
/// FLOAT bit patterns, row order), the four id sequences' states, and
/// `:totg` / `:mingroups`.
fn encoded_state(db: &mut Database) -> Vec<String> {
    let value = |v: &Value| match v {
        Value::Float(f) => format!("F{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    let mut state = Vec::new();
    for table in ["ValidGroups", "Bset", "CodedSource"] {
        let rs = db.query(&format!("SELECT * FROM {table}")).unwrap();
        let columns = rs.schema().columns().iter();
        let columns: Vec<String> = columns.map(|c| format!("{} {}", c.name, c.dtype)).collect();
        state.push(format!("{table} {columns:?}"));
        for row in rs.rows() {
            state.push(row.iter().map(value).collect::<Vec<_>>().join(" "));
        }
    }
    let ids = ["gidsequence", "bidsequence", "hidsequence", "cidsequence"];
    let mut sequences = db.catalog().sequence_states();
    sequences.retain(|(name, _, _)| ids.contains(&name.to_ascii_lowercase().as_str()));
    sequences.sort();
    state.push(format!("sequences {sequences:?}"));
    for var in ["totg", "mingroups"] {
        state.push(format!("{var} = {:?}", db.var(var)));
    }
    state
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

/// A mutated source never serves its stale encoding. On the production
/// paths the delta is replayed onto the kept source digest and the
/// encoding re-derived from it (`preprocess.cache.delta`); the reference
/// paths keep no digest, so they preprocess cold. Either way the rules
/// and the encoded tables are those of a cold mine over a database
/// mutated the same way.
#[test]
fn source_mutation_never_serves_stale_artifacts() {
    const INSERT: &str = "INSERT INTO Purchase VALUES \
                          (9, 'c9', 'col_shirts', DATE '1997-01-08', 25, 1)";
    for reference_paths in REFERENCE {
        let label = format!("reference={reference_paths}");
        // Cached engine: cold run, mutate the source, rerun.
        let mut db = purchase_db();
        db.set_reference_paths(reference_paths);
        let engine = MineRuleEngine::new().with_cache(true);
        engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
        db.execute(INSERT).unwrap();
        let after = engine.execute(&mut db, &simple(0.25, 0.1)).unwrap();
        let snapshot = engine.metrics_snapshot();
        if reference_paths {
            assert!(
                !after.preprocess_report.executed.is_empty(),
                "{label}: without a digest a mutated source forces a cold preprocess"
            );
            assert_eq!(snapshot.counter("preprocess.cache.hit"), 0, "{label}");
            assert_eq!(snapshot.counter("preprocess.cache.miss"), 2, "{label}");
        } else {
            assert!(after.preprocess_report.executed.is_empty(), "{label}");
            assert_eq!(snapshot.counter("preprocess.cache.hit"), 1, "{label}");
            assert_eq!(snapshot.counter("preprocess.cache.delta"), 1, "{label}");
            assert_eq!(snapshot.counter("preprocess.cache.miss"), 1, "{label}");
        }

        // Reference: an uncached engine over a database that was mutated
        // the same way sees exactly the same rules and tables.
        let mut fresh = purchase_db();
        fresh.set_reference_paths(reference_paths);
        fresh.execute(INSERT).unwrap();
        let reference = MineRuleEngine::new()
            .with_cache(false)
            .execute(&mut fresh, &simple(0.25, 0.1))
            .unwrap();
        assert_eq!(
            signature(&after.rules),
            signature(&reference.rules),
            "{label}: post-mutation rules diverge from a cold run"
        );
        assert_eq!(
            encoded_state(&mut db),
            encoded_state(&mut fresh),
            "{label}: post-mutation encoding diverges from a cold run"
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
    for reference_paths in REFERENCE {
        let label = format!("reference={reference_paths}");
        let mut db = purchase_db();
        db.set_reference_paths(reference_paths);
        let engine = MineRuleEngine::new().with_cache(true);
        engine.execute(&mut db, &by_tr(0.5)).unwrap();
        // A *looser* support needs items the cached tables pruned, so the
        // superset rule refuses to restore them: the production paths
        // re-derive the encoding from the kept digest, the reference
        // paths (no digest) preprocess cold. The inventory misses both.
        let loose = engine.execute(&mut db, &by_tr(0.25)).unwrap();
        let snapshot = engine.metrics_snapshot();
        let derived = !reference_paths as u64;
        assert_eq!(snapshot.counter("preprocess.cache.hit"), derived, "{label}");
        assert_eq!(
            snapshot.counter("preprocess.cache.refine"),
            derived,
            "{label}"
        );
        assert_eq!(
            loose.preprocess_report.executed.is_empty(),
            !reference_paths,
            "{label}"
        );
        assert_eq!(snapshot.counter("core.minecache.miss"), 2, "{label}");

        let mut fresh = purchase_db();
        fresh.set_reference_paths(reference_paths);
        let reference = MineRuleEngine::new()
            .with_cache(false)
            .execute(&mut fresh, &by_tr(0.25))
            .unwrap();
        assert_eq!(signature(&loose.rules), signature(&reference.rules));
        assert_eq!(encoded_state(&mut db), encoded_state(&mut fresh), "{label}");
    }
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

/// DML between two runs replaces the entry's encoding half — re-derived
/// from the source digest the delta is replayed onto, no `Qi` step run —
/// while the inventory half, adjusted from that same replay,
/// delta-serves the core phase; the unchanged rerun after that finds
/// both halves current. On the reference paths (no digest) the encoding
/// is preprocessed cold and the inventory replays the delta itself.
#[test]
fn insert_replaces_the_encoding_and_delta_serves_from_the_kept_inventory() {
    for reference_paths in REFERENCE {
        let label = format!("reference={reference_paths}");
        let mut db = purchase_db();
        db.set_reference_paths(reference_paths);
        let engine = MineRuleEngine::new().with_cache(true);
        let moved = |before: &minerule::MetricsSnapshot, name: &str| {
            engine.metrics_snapshot().counter(name) - before.counter(name)
        };
        engine.execute(&mut db, &tr_mine(0.25, 0.1)).unwrap();

        db.execute(DELTA_INSERT).unwrap();
        let before = engine.metrics_snapshot();
        let delta = engine.execute(&mut db, &tr_mine(0.25, 0.1)).unwrap();
        let derived = !reference_paths as u64;
        assert_eq!(
            delta.preprocess_report.executed.is_empty(),
            !reference_paths,
            "{label}"
        );
        assert_eq!(
            moved(&before, "preprocess.cache.miss"),
            1 - derived,
            "{label}"
        );
        assert_eq!(moved(&before, "preprocess.cache.hit"), derived, "{label}");
        assert_eq!(moved(&before, "preprocess.cache.delta"), derived, "{label}");
        assert_eq!(moved(&before, "core.minecache.delta"), 1, "{label}");
        assert_eq!(moved(&before, "core.minecache.miss"), 0, "{label}");
        let delta_state = encoded_state(&mut db);

        let before = engine.metrics_snapshot();
        let warm = engine.execute(&mut db, &tr_mine(0.25, 0.1)).unwrap();
        assert!(warm.preprocess_report.executed.is_empty(), "{label}");
        assert_eq!(moved(&before, "preprocess.cache.hit"), 1, "{label}");
        assert_eq!(moved(&before, "preprocess.cache.miss"), 0, "{label}");
        assert_eq!(moved(&before, "core.minecache.hit"), 1, "{label}");
        for name in [
            "core.minecache.refine",
            "core.minecache.delta",
            "preprocess.cache.delta",
        ] {
            assert_eq!(moved(&before, name), 0, "{label}: {name}");
        }
        assert_eq!(signature(&delta.rules), signature(&warm.rules), "{label}");

        let mut fresh = purchase_db();
        fresh.set_reference_paths(reference_paths);
        fresh.execute(DELTA_INSERT).unwrap();
        let reference = MineRuleEngine::new()
            .with_cache(false)
            .execute(&mut fresh, &tr_mine(0.25, 0.1))
            .unwrap();
        assert_eq!(
            signature(&warm.rules),
            signature(&reference.rules),
            "{label}"
        );
        let cold_state = encoded_state(&mut fresh);
        assert_eq!(delta_state, cold_state, "{label}");
        assert_eq!(encoded_state(&mut db), cold_state, "{label}");
    }
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

// ---- re-derivation from the source digest ------------------------------

/// A source mutation, as SQL or as the table primitive SQL has no
/// statement for.
#[derive(Clone, Debug)]
enum Mutation {
    Sql(String),
    Truncate,
}

fn mutate(db: &mut Database, mutation: &Mutation) {
    match mutation {
        Mutation::Sql(sql) => {
            db.execute(sql).unwrap();
        }
        Mutation::Truncate => db.catalog_mut().table_mut("T").unwrap().truncate(),
    }
}

/// `T(g FLOAT, item VARCHAR, n INT)`: groups keyed by FLOATs among them
/// `0.0`, `-0.0` and NULL, items among them NULL; `n` numbers the rows so
/// a DELETE can take one of two twins.
struct Source {
    next: i64,
}

impl Source {
    const GROUPS: [&'static str; 8] = ["NULL", "0.0", "-0.0", "1.0", "2.5", "3.0", "4.0", "5.0"];
    const ITEMS: [&'static str; 7] = ["NULL", "'a'", "'b'", "'c'", "'d'", "'e'", "'f'"];

    fn row(&mut self, g: &str, item: &str) -> String {
        self.next += 1;
        format!("({g}, {item}, {})", self.next)
    }

    fn rows(&mut self, rng: &mut Rng, count: usize) -> String {
        let rows: Vec<String> = (0..count)
            .map(|_| {
                let g = Self::GROUPS[rng.gen_below(8) as usize];
                let item = Self::ITEMS[rng.gen_below(7) as usize];
                self.row(g, item)
            })
            .collect();
        format!("INSERT INTO T VALUES {}", rows.join(", "))
    }

    /// One step's mutations: what a session between two reruns might do.
    fn step(&mut self, rng: &mut Rng) -> Vec<Mutation> {
        let g = Self::GROUPS[rng.gen_below(8) as usize];
        let item = Self::ITEMS[1 + rng.gen_below(6) as usize];
        let n = 1 + rng.gen_below(self.next as u64) as i64;
        let sql = |s: String| Mutation::Sql(s);
        match rng.gen_below(12) {
            0 | 1 => {
                let count = 1 + rng.gen_below(3) as usize;
                vec![sql(self.rows(rng, count))]
            }
            // A twin of a row that is already there.
            2 => vec![sql(format!(
                "INSERT INTO T SELECT g, item, n + 1000 FROM T WHERE n = {n}"
            ))],
            // One row: a twin left behind loses the scan order.
            3 => vec![sql(format!("DELETE FROM T WHERE n = {n}"))],
            // Every row of a (group, item) pair.
            4 => vec![sql(format!(
                "DELETE FROM T WHERE g = {g} AND item = {item}"
            ))],
            // A group emptied and re-created inside one window.
            5 => {
                let back = self.row(g, item);
                vec![
                    sql(format!("DELETE FROM T WHERE g = {g}")),
                    sql(format!("INSERT INTO T VALUES {back}")),
                ]
            }
            // An item that vanishes and reappears elsewhere.
            6 => {
                let back = self.row(Self::GROUPS[1 + rng.gen_below(7) as usize], item);
                vec![
                    sql(format!("DELETE FROM T WHERE item = {item}")),
                    sql(format!("INSERT INTO T VALUES {back}")),
                ]
            }
            7 => vec![sql(format!("UPDATE T SET item = {item} WHERE n = {n}"))],
            8 => {
                let refill = self.rows(rng, 4);
                vec![Mutation::Truncate, sql(refill)]
            }
            // Over the delta budget.
            9 => vec![sql(self.rows(rng, 70))],
            // Every row gone: an empty table, then a fresh start.
            10 => {
                let refill = self.rows(rng, 3);
                vec![sql("DELETE FROM T".to_string()), sql(refill)]
            }
            _ => vec![sql(format!("DELETE FROM T WHERE g = {g}"))],
        }
    }
}

fn exact(support: f64) -> String {
    format!(
        "MINE RULE Exact AS SELECT DISTINCT item AS BODY, item AS HEAD, \
         SUPPORT, CONFIDENCE FROM T GROUP BY g \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: 0.3"
    )
}

/// Random DML sequences between reruns of one statement, with the cache
/// on and on both backends: after every rerun the rules and the whole
/// encoded state equal a cache-off cold mine over a fresh database
/// mutated the same way. Deltas the digest replays in order re-derive
/// the encoding; twins left behind, UPDATEs, TRUNCATE, over-budget
/// deltas and an INT stored into the FLOAT key decline to a cold pass —
/// the counters show both ran. The one exception is the superset rule:
/// a rerun over an unchanged source at a tighter support reinstates the
/// tables pruned at the looser `:mingroups`, so there the encoded state
/// is the one that run built, with only `:mingroups` moved.
#[test]
fn rederived_encodings_agree_with_cold_mines_under_random_dml() {
    let (mut derived, mut declined) = (0, 0);
    for seed in 0..16u64 {
        for paged in [false, true] {
            let dir = std::env::temp_dir()
                .join(format!("tcdm_cache_rederive_{seed}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let fresh = || Database::new();
            let mut db = if paged {
                Database::open_paged(&dir).unwrap()
            } else {
                fresh()
            };
            let mut rng = Rng::seed_from_u64(0xDE17A ^ seed);
            let mut source = Source { next: 0 };
            let mut history = vec![
                Mutation::Sql("CREATE TABLE T (g FLOAT, item VARCHAR, n INT)".to_string()),
                Mutation::Sql(source.rows(&mut rng, 24)),
            ];
            for mutation in &history {
                mutate(&mut db, mutation);
            }
            let engine = MineRuleEngine::new().with_cache(true);
            // The encoded state the store's tables were last built with.
            let mut built: Vec<String> = Vec::new();
            for step in 0..14 {
                let label = format!("seed {seed} paged={paged} step {step}");
                let mut mutations = if step == 0 {
                    Vec::new()
                } else {
                    source.step(&mut rng)
                };
                // Late in some sequences: an INT into the FLOAT key.
                if step == 12 && seed % 4 == 0 {
                    mutations.push(Mutation::Sql(format!(
                        "INSERT INTO T VALUES {}",
                        source.row("1", "'a'")
                    )));
                }
                for mutation in &mutations {
                    mutate(&mut db, mutation);
                }
                history.extend(mutations.iter().cloned());
                let support = [0.2, 0.3, 0.4][rng.gen_below(3) as usize];
                let text = exact(support);
                let before = engine.metrics_snapshot();
                let run = engine.execute(&mut db, &text).unwrap();
                let after = engine.metrics_snapshot();
                let moved = |name: &str| after.counter(name) - before.counter(name);
                derived += moved("preprocess.cache.delta");
                if !mutations.is_empty() {
                    declined += moved("preprocess.cache.miss");
                }

                let mut cold = fresh();
                for mutation in &history {
                    mutate(&mut cold, mutation);
                }
                let reference = MineRuleEngine::new()
                    .with_cache(false)
                    .execute(&mut cold, &text)
                    .unwrap();
                assert_eq!(
                    signature(&run.rules),
                    signature(&reference.rules),
                    "{label}: rules"
                );
                let (state, cold_state) = (encoded_state(&mut db), encoded_state(&mut cold));
                let reinstated = moved("preprocess.cache.hit") == 1
                    && moved("preprocess.cache.delta") + moved("preprocess.cache.refine") == 0;
                if reinstated && state != cold_state {
                    // Pruned at a looser threshold: every line but the
                    // last (`:mingroups`) is what the tables were built
                    // with.
                    let (mingroups, tables) = state.split_last().unwrap();
                    assert_eq!(tables, &built[..built.len() - 1], "{label}: superset");
                    assert_eq!(Some(mingroups), cold_state.last(), "{label}");
                    continue;
                }
                assert_eq!(
                    state, cold_state,
                    "{label}: encoded state after {mutations:?}"
                );
                if !reinstated {
                    built = state;
                }
            }
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(derived > 0, "no delta was re-derived");
    assert!(declined > 0, "no delta declined to a cold pass");
}
