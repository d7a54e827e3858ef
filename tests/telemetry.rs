//! End-to-end observability contract: the engine's telemetry registry
//! records exact, deterministic work counters for the paper's example
//! data, and recording never changes the mined rules.

use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::MineRuleEngine;

/// A simple-class statement over the paper's Purchase table (Figure 1):
/// two customer groups, gid-list Apriori, 18 rules at these thresholds.
const SIMPLE: &str = "MINE RULE SimpleAssociations AS \
    SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
    FROM Purchase GROUP BY customer \
    EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";

/// A two-table FROM: the one statement shape whose preprocessing still
/// runs `Q0..Q11` on the SQL server (a one-table FROM fuses into a single
/// pass over the source rows).
const JOINED: &str = "MINE RULE J AS \
    SELECT DISTINCT 1..n cat AS BODY, 1..1 cat AS HEAD, SUPPORT, CONFIDENCE \
    FROM Purchase, Category WHERE item = citem GROUP BY customer \
    EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5";

/// Figure 1's Purchase table plus the `Category` table [`JOINED`] reads.
fn category_db() -> relational::Database {
    let mut db = purchase_db();
    db.execute("CREATE TABLE Category (citem VARCHAR, cat VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO Category VALUES ('ski_pants','wear'), ('hiking_boots','shoes'), \
         ('col_shirts','wear'), ('brown_boots','shoes'), ('jackets','wear')",
    )
    .unwrap();
    db
}

#[test]
fn simple_path_records_exact_counters() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new();
    let outcome = engine.execute(&mut db, SIMPLE).unwrap();
    assert_eq!(outcome.rules.len(), 18);

    let snap = engine.metrics_snapshot();
    // Translator: one simple statement, no directive flags set.
    assert_eq!(snap.counter("translator.statements"), 1);
    assert_eq!(snap.counter("translator.class.simple"), 1);
    assert_eq!(snap.counter("translator.class.general"), 0);
    for flag in ["h", "w", "m", "g", "c", "k", "f", "r"] {
        assert_eq!(
            snap.counter(&format!("translator.directive.{flag}")),
            0,
            "directive {flag}"
        );
    }
    // Preprocessor: row counts per step (Figure 1 data). The cost
    // planner (the default) fuses the simple-class program into one
    // pipelined pass: 6 steps instead of 8, Q2/Q3 counting only the
    // materialised encoded rows (the subsumed view and
    // DistinctGroupsInBody intermediates never materialise).
    assert_eq!(snap.counter("preprocess.steps"), 6);
    assert_eq!(snap.counter("preprocess.fused_steps"), 6);
    assert_eq!(snap.counter("preprocess.rows.Q1"), 1);
    assert_eq!(snap.counter("preprocess.rows.Q2"), 2);
    assert_eq!(snap.counter("preprocess.rows.Q3"), 5);
    assert_eq!(snap.counter("preprocess.rows.Q4"), 6);
    assert_eq!(snap.gauge("preprocess.total_groups"), Some(2));
    assert_eq!(snap.gauge("preprocess.min_groups"), Some(1));
    // Fused on the way in and on the way out: the statement plans no SQL
    // at all, so no relational.planner.* counter is ever minted.
    assert!(
        snap.counters
            .keys()
            .all(|name| !name.starts_with("relational.planner.")),
        "a fused simple-class run must plan nothing: {:?}",
        snap.counters
    );
    // Core operator: gid-list Apriori over the two encoded groups.
    assert_eq!(snap.counter("core.path.simple"), 1);
    assert_eq!(snap.counter("core.path.general"), 0);
    assert_eq!(snap.counter("core.groups"), 2);
    assert_eq!(snap.counter("core.itemsets.large"), 13);
    assert_eq!(snap.counter("core.level.1.generated"), 5);
    assert_eq!(snap.counter("core.level.1.pruned"), 0);
    assert_eq!(snap.counter("core.level.2.generated"), 10);
    assert_eq!(snap.counter("core.level.2.pruned"), 4);
    assert_eq!(snap.counter("core.level.3.generated"), 2);
    assert_eq!(snap.counter("core.rules.candidates"), 18);
    assert_eq!(snap.counter("core.rules.pruned_confidence"), 0);
    assert_eq!(snap.counter("core.rules.emitted"), 18);
    // Physical layer: gid sets were built and intersected, and the
    // candidate tries (Apriori prune + rule extraction) were walked.
    // Exact values are pinned by unit tests; here presence suffices.
    assert!(
        snap.counter("core.gidset.list.picked") + snap.counter("core.gidset.bitset.picked") > 0,
        "gid-set representation picks recorded"
    );
    assert!(snap.counter("core.gidset.intersects") > 0);
    assert!(snap.counter("core.trie.nodes") > 0);
    assert!(snap.counter("core.trie.lookups") > 0);
    // Mined-result cache: a miss, captured from the fused pass's digest
    // without reading a single source row again.
    assert_eq!(snap.counter("core.minecache.miss"), 1);
    assert_eq!(
        snap.counters.get("core.minecache.capture.source_rows"),
        Some(&0)
    );
    assert!(snap.gauge("core.minecache.bytes").unwrap() > 0);
    // Postprocessor: every encoded rule stored and decoded, by the one
    // in-memory pass that subsumes P1–P3.
    assert_eq!(snap.counter("postprocess.rules_stored"), 18);
    assert_eq!(snap.counter("postprocess.rules_decoded"), 18);
    assert_eq!(snap.counter("postprocess.fused_steps"), 3);
    // Phase spans: exactly one sample each, and the span sums stay
    // consistent with the PhaseTimings view derived from them.
    for phase in [
        "phase.translate",
        "phase.preprocess",
        "phase.core",
        "phase.postprocess",
    ] {
        let h = snap.histogram(phase).unwrap_or_else(|| panic!("{phase}"));
        assert_eq!(h.count(), 1, "{phase}");
    }
    assert!(
        snap.histogram("phase.core").unwrap().sum_us() >= outcome.timings.core.as_micros() as u64,
        "span covers the timed phase"
    );
}

#[test]
fn general_path_records_exact_counters() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new();
    let outcome = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
    assert_eq!(outcome.rules.len(), 3, "Figure 2b");
    assert!(outcome.used_general);

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("translator.statements"), 1);
    assert_eq!(snap.counter("translator.class.general"), 1);
    // The statement sets exactly the W, M, C and K directives.
    for (flag, expect) in [
        ("h", 0),
        ("w", 1),
        ("m", 1),
        ("g", 0),
        ("c", 1),
        ("k", 1),
        ("f", 0),
        ("r", 0),
    ] {
        assert_eq!(
            snap.counter(&format!("translator.directive.{flag}")),
            expect,
            "directive {flag}"
        );
    }
    // Preprocessor: the fused pass reports the objects it creates — three
    // sequences, the bindings (Q1), six tables and the Q11 view — each
    // table under the id and row count of the SQL step it stands for;
    // the 14 data steps of the program are subsumed.
    assert_eq!(snap.counter("preprocess.steps"), 11);
    assert_eq!(snap.counter("preprocess.fused_steps"), 14);
    for (step, rows) in [
        ("DDL", 3),
        ("Q1", 1),
        ("Q2", 2),
        ("Q3", 5),
        ("Q6", 4),
        ("Q7", 2),
        ("Q4b", 8),
        ("Q11", 1),
        ("Q10", 2),
    ] {
        assert_eq!(
            snap.counter(&format!("preprocess.rows.{step}")),
            rows,
            "{step}"
        );
    }
    for step in ["Q0", "Q8", "Q9"] {
        let name = format!("preprocess.rows.{step}");
        assert!(!snap.counters.contains_key(&name), "{step} is subsumed");
    }
    assert_eq!(snap.counter("core.path.general"), 1);
    assert_eq!(snap.counter("core.path.simple"), 0);
    assert_eq!(snap.counter("core.tuples"), 8);
    assert_eq!(snap.counter("core.rules.emitted"), 3);
    assert_eq!(snap.counter("postprocess.rules_stored"), 3);
    assert_eq!(snap.counter("postprocess.rules_decoded"), 3);
}

#[test]
fn general_path_on_the_reference_paths_records_the_stepwise_program() {
    // The step-by-step figures stay pinned where the program still runs:
    // 17 SQL statements, `Q0` materialising one `Source` row per tuple,
    // every `Qi` reporting all the rows it writes — intermediates too.
    let mut db = purchase_db();
    db.set_reference_paths(true);
    let engine = MineRuleEngine::new();
    let outcome = engine.execute(&mut db, FILTERED_ORDERED_SETS).unwrap();
    assert_eq!(outcome.rules.len(), 3, "Figure 2b");
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.counter("preprocess.steps"), 17);
    assert_eq!(snap.counter("preprocess.fused_steps"), 0);
    for (step, rows) in [
        ("DDL", 3),
        ("Q0", 8),
        ("Q1", 1),
        ("Q2", 1 + 2),
        ("Q3", 6 + 5),
        ("Q6", 4),
        ("Q7", 2),
        ("Q4b", 1 + 8),
        ("Q11", 1),
        ("Q8", 2),
        ("Q9", 2),
        ("Q10", 2),
    ] {
        assert_eq!(
            snap.counter(&format!("preprocess.rows.{step}")),
            rows,
            "{step}"
        );
    }
    assert_eq!(snap.counter("core.tuples"), 8);
    assert_eq!(snap.counter("core.rules.emitted"), 3);
}

/// `stmt` at another support: a rerun that restores the encoding.
fn with_support(stmt: &str, support: &str) -> String {
    let (head, tail) = stmt.split_once("SUPPORT: ").unwrap();
    let (_, rest) = tail.split_once(',').unwrap();
    format!("{head}SUPPORT: {support},{rest}")
}

#[test]
fn the_core_reads_the_encoded_tables_back_only_on_the_stepwise_route() {
    // The fused pass hands the core its input, and a restore hands over
    // the one it kept: neither reads the encoded tables back. A group
    // condition (G) keeps the simple rerun off the mined-result cache, so
    // the restored input is mined too.
    let grouped = SIMPLE.replace(
        "GROUP BY customer",
        "GROUP BY customer HAVING COUNT(item) >= 2",
    );
    for stmt in [SIMPLE, grouped.as_str(), FILTERED_ORDERED_SETS] {
        let mut db = purchase_db();
        let engine = MineRuleEngine::new();
        let cold = engine.execute(&mut db, stmt).unwrap();
        let rerun = with_support(stmt, "0.5");
        let warm = engine.execute(&mut db, &rerun).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("preprocess.cache.hit"), 1, "{stmt}");
        assert!(
            !snap.counters.contains_key("core.encoded.read_back"),
            "{stmt}"
        );
        assert!(!cold.rules.is_empty(), "{stmt}");
        let reference = MineRuleEngine::new().with_cache(false);
        let expected = reference.execute(&mut purchase_db(), &rerun).unwrap();
        assert_eq!(warm.rules, expected.rules, "{stmt}");
    }
    // The stepwise program — the reference paths, or a FROM list the
    // fused pass declines — leaves the core only the tables; on the
    // reference paths even a restore reads them back (the general
    // statement: no mined-result cache answers its rerun).
    for (stmt, reference) in [
        (SIMPLE, true),
        (FILTERED_ORDERED_SETS, true),
        (JOINED, false),
    ] {
        let mut db = category_db();
        db.set_reference_paths(reference);
        let engine = MineRuleEngine::new();
        engine.execute(&mut db, stmt).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.encoded.read_back"), 1, "{stmt}");
        if stmt == FILTERED_ORDERED_SETS {
            engine.execute(&mut db, &with_support(stmt, "0.5")).unwrap();
            let snap = engine.metrics_snapshot();
            assert_eq!(snap.counter("preprocess.cache.hit"), 1, "{stmt}");
            assert_eq!(snap.counter("core.encoded.read_back"), 2, "{stmt}");
        }
    }
}

#[test]
fn telemetry_off_yields_bit_identical_rules_and_records_nothing() {
    let mut db_on = purchase_db();
    let engine_on = MineRuleEngine::new();
    let mut engine_off = MineRuleEngine::new();
    engine_off.set_telemetry_enabled(false);
    assert!(!engine_off.telemetry_enabled());

    for stmt in [SIMPLE, FILTERED_ORDERED_SETS] {
        let mut db_off = purchase_db();
        let on = engine_on.execute(&mut db_on, stmt).unwrap();
        let off = engine_off.execute(&mut db_off, stmt).unwrap();
        // Bit-identical decoded inventory: same rules, same order, same
        // floating-point support/confidence.
        assert_eq!(on.rules, off.rules, "{stmt}");
        // The disabled engine still reports phase wall-clock.
        assert!(off.timings.total() > std::time::Duration::ZERO);
    }
    assert!(
        engine_off.metrics_snapshot().is_empty(),
        "off records nothing"
    );
    assert!(!engine_on.metrics_snapshot().is_empty());
}

#[test]
fn planner_counters_absent_under_naive_present_under_cost() {
    // Reference paths (written-order fold): no statistics consulted,
    // nothing fused — neither the relational.planner.* counters nor the
    // pre/postprocess.fused_steps ones are ever minted (zero deltas are
    // skipped at publication), and the full 8-step SQL program runs.
    let mut db = purchase_db();
    db.set_reference_paths(true);
    let engine = MineRuleEngine::new();
    let naive = engine.execute(&mut db, SIMPLE).unwrap();
    let snap = engine.metrics_snapshot();
    assert!(
        snap.counters
            .iter()
            .all(|(name, _)| !name.starts_with("relational.planner.")),
        "the reference paths must mint no planner counters: {:?}",
        snap.counters
    );
    assert_eq!(snap.counter("preprocess.fused_steps"), 0);
    assert!(!snap.counters.contains_key("postprocess.fused_steps"));
    assert_eq!(snap.counter("preprocess.steps"), 8);
    assert_eq!(snap.counter("postprocess.rules_stored"), 18);
    assert_eq!(snap.counter("postprocess.rules_decoded"), 18);
    // No fused pass, no digest: the capture scans Purchase's 8 rows itself.
    assert_eq!(snap.counter("core.minecache.capture.source_rows"), 8);

    // Production paths, single-table FROM: both ends fuse and the
    // statement plans nothing — still no planner counter.
    let run = |stmt: &str| {
        let mut db = category_db();
        let engine = MineRuleEngine::new();
        let outcome = engine.execute(&mut db, stmt).unwrap();
        (outcome.rules, engine.metrics_snapshot())
    };
    let (rules_1, snap_1) = run(SIMPLE);
    assert_eq!(
        rules_1, naive.rules,
        "fold and planner mine identical rules"
    );
    assert!(
        snap_1
            .counters
            .keys()
            .all(|name| !name.starts_with("relational.planner.")),
        "{:?}",
        snap_1.counters
    );
    assert_eq!(snap_1.counter("preprocess.fused_steps"), 6);
    assert_eq!(snap_1.counter("postprocess.fused_steps"), 3);

    // A joined FROM still preprocesses step by step through the cost
    // planner: planner counters appear. Its decoding fuses all the same.
    let (rules_1, snap_1) = run(JOINED);
    assert!(!rules_1.is_empty());
    assert!(snap_1.counter("relational.planner.plans") > 0);
    assert_eq!(snap_1.counter("preprocess.fused_steps"), 0);
    assert_eq!(snap_1.counter("postprocess.fused_steps"), 3);
}

#[test]
fn joined_from_runs_its_sql_steps_on_the_row_loop() {
    // The joined FROM runs Q0..Q11 through the SQL executor, which
    // evaluates every expression row-at-a-time: one compiled program per
    // expression, exact row counts, and no relational.vector.* counter.
    let mut db = category_db();
    let engine = MineRuleEngine::new();
    let outcome = engine.execute(&mut db, JOINED).unwrap();
    assert_eq!(outcome.preprocess_report.fused_steps, 0);
    let snap = engine.metrics_snapshot();
    assert!(
        snap.counters
            .keys()
            .all(|name| !name.starts_with("relational.vector.")),
        "no column batch is formed: {}",
        snap.render_text()
    );
    // Exact for Figure 1's data: one program per expression the Q-steps
    // evaluate, the key expressions every hash join and GROUP BY buckets
    // by included, and every scanned and joined row. Every Q-step joins
    // its factors in written order, each connected to the ones before.
    assert_eq!(snap.counter("relational.compile.programs"), 17);
    assert_eq!(snap.counter("relational.rows.scanned"), 63);
    assert_eq!(snap.counter("relational.rows.filtered"), 0);
    assert_eq!(snap.counter("relational.rows.joined"), 28);
    assert!(!snap
        .counters
        .contains_key("relational.planner.reordered_joins"));
}

#[test]
fn storage_counters_absent_on_memory_present_on_paged() {
    // Memory backend (the default): no relational.storage.* counter is
    // ever minted — zero deltas are skipped at publication.
    let mut db = purchase_db();
    let engine = MineRuleEngine::new();
    engine.execute(&mut db, SIMPLE).unwrap();
    let snap = engine.metrics_snapshot();
    assert!(
        snap.counters
            .iter()
            .all(|(name, _)| !name.starts_with("relational.storage.")),
        "memory backend must mint no storage counters: {:?}",
        snap.counters
    );

    // Paged backend: the run commits through the WAL, so the counters
    // appear.
    let dir = std::env::temp_dir().join(format!("tcdm_tel_storage_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = purchase_db();
    db.set_storage_dir(&dir);
    db.set_storage(relational::StorageBackend::Paged).unwrap();
    let engine = MineRuleEngine::new();
    engine.execute(&mut db, SIMPLE).unwrap();
    let paged = engine.metrics_snapshot();
    let _ = std::fs::remove_dir_all(&dir);
    // Commits always reach the WAL; heap page writes can legitimately
    // stay at zero until a checkpoint, so presence is asserted on the
    // WAL counters.
    for name in [
        "relational.storage.wal_appends",
        "relational.storage.wal_fsyncs",
    ] {
        assert!(paged.counter(name) > 0, "{name} present under paged");
    }
    // Mirroring the catalog reads every table, deferred ones too.
    assert!(paged.counter("relational.deferred.rows_built") > 0);
    assert!(
        paged
            .counters
            .iter()
            .all(|(name, _)| !name.starts_with("relational.storage.cache_")),
        "the paged backend keeps no page cache: {:?}",
        paged.counters
    );
}

/// The paper-shaped temporal statement (C, K and M) over generated
/// retail data.
const TEMPORAL: &str = "MINE RULE Temporal AS \
    SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
    WHERE BODY.price >= 100 AND HEAD.price < 100 \
    FROM Purchase GROUP BY customer \
    CLUSTER BY date HAVING BODY.date < HEAD.date \
    EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.2";

#[test]
fn deferred_encoded_rows_are_built_only_when_read() {
    // The fused passes register the encoded tables only SQL reads, and
    // the six output tables, as deferred: two cold mines of each
    // statement on one database (the second's cleanup drops the first's
    // tables) build none of them.
    let data = datagen::generate_retail(&datagen::RetailConfig {
        customers: 40,
        items_per_date: 2.5,
        catalog: 40,
        expensive_items: 12,
        seed: 3,
        ..datagen::RetailConfig::default()
    });
    let mut db = relational::Database::new();
    data.load(&mut db, "Purchase").unwrap();
    let simple = SIMPLE.replace("SUPPORT: 0.25", "SUPPORT: 0.1");
    for stmt in [&simple, TEMPORAL, &simple, TEMPORAL] {
        let engine = MineRuleEngine::new();
        let rules = engine.execute(&mut db, stmt).unwrap().rules;
        assert!(!rules.is_empty(), "{stmt}");
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("relational.deferred.rows_built"), 0, "{stmt}");
    }
    assert_eq!(db.stats().deferred_rows_built, 0);
    // A read builds the table it names, once: a SELECT on a rule table
    // adds exactly its rows, and builds none of the other five.
    for name in [
        "ValidGroups",
        "InputRules",
        "ClusterCouples",
        "SimpleAssociations",
        "Temporal",
        "Temporal_Heads",
        "OutputBodies",
    ] {
        let before = db.stats().deferred_rows_built;
        let rows = db.catalog().row_count(name).unwrap();
        assert!(rows > 0, "{name}");
        let all = db.query(&format!("SELECT * FROM {name}")).unwrap();
        assert_eq!(all.len(), rows, "{name}");
        assert_eq!(db.stats().deferred_rows_built - before, rows as u64);
        db.query(&format!("SELECT * FROM {name}")).unwrap();
        assert_eq!(db.stats().deferred_rows_built - before, rows as u64);
    }
    let published = relational::ExecStats::default()
        .named()
        .map(|(name, _)| name);
    assert!(published.contains(&"relational.deferred.rows_built"));
}

#[test]
fn snapshot_json_is_schema_versioned() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new();
    engine.execute(&mut db, SIMPLE).unwrap();
    let json = engine.metrics_snapshot().to_json();
    assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"gauges\""));
    assert!(json.contains("\"histograms\""));
    assert!(json.contains("\"log2_buckets\""));

    // Reset empties every family.
    engine.reset_metrics();
    assert!(engine.metrics_snapshot().is_empty());
}
