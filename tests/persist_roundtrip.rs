//! Save/load round-trips at the workspace level: a persisted database
//! reloads bit-exact (tables, views, sequences), supports MINE RULE
//! immediately, and every reloaded table carries a *fresh* version stamp
//! so no pre-save index or preprocess-cache entry can ever hit it.
//!
//! The second half covers the paged storage backend: kill-and-recover
//! sweeps that inject a crash at *every* WAL append/fsync boundary of a
//! multi-page workload (and at random boundaries of generated ones) and
//! check that recovery keeps exactly the committed prefix, corruption of
//! heap and WAL bytes, the counters that pin a statement's WAL traffic to
//! the pages it changed, and paged-vs-memory agreement — row order under
//! interleaved DML, mined rules across worker counts.

use std::path::Path;

use datagen::rng::Rng;
use minerule::paper_example::purchase_db;
use minerule::MineRuleEngine;
use relational::sequence::Sequence;
use relational::{
    persist, Database, Error, StorageBackend, StorageConfig, Value, WalFault, WalFaultKind,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcdm_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const STMT: &str =
    "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
     FROM Purchase GROUP BY customer \
     EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1";

#[test]
fn mined_database_roundtrips_and_mines_again() {
    let dir = temp_dir("mine");
    let mut db = purchase_db();
    let original = MineRuleEngine::new().execute(&mut db, STMT).unwrap();
    persist::save(&db, &dir).unwrap();

    let mut reloaded = persist::load(&dir).unwrap();
    // The mined output tables came back bit-exact.
    for table in ["R", "R_Bodies", "R_Heads", "Purchase"] {
        let a = db.query(&format!("SELECT * FROM {table}")).unwrap();
        let b = reloaded.query(&format!("SELECT * FROM {table}")).unwrap();
        assert_eq!(a.rows(), b.rows(), "{table} differs after reload");
    }
    // Mining over the reloaded database reproduces the same rules.
    let again = MineRuleEngine::new().execute(&mut reloaded, STMT).unwrap();
    let sig = |rules: &[minerule::DecodedRule]| -> Vec<String> {
        rules.iter().map(|r| r.display()).collect::<Vec<_>>()
    };
    assert_eq!(sig(&original.rules), sig(&again.rules));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reloaded_tables_get_fresh_version_stamps() {
    let dir = temp_dir("versions");
    let mut db = purchase_db();
    MineRuleEngine::new().execute(&mut db, STMT).unwrap();
    let saved_version = db.catalog().table("Purchase").unwrap().version();
    persist::save(&db, &dir).unwrap();

    let reloaded = persist::load(&dir).unwrap();
    let reloaded_version = reloaded.catalog().table("Purchase").unwrap().version();
    // Versions are globally unique: a reload is a *new* table generation,
    // so stale index registry or preprocess-cache entries keyed on the
    // old version can never hit the reloaded data.
    assert_ne!(saved_version, reloaded_version);
    assert!(
        reloaded_version > saved_version,
        "version stamps are monotone across generations"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Everything a database holds, rendered so that equality is bit-exact
/// and order-exact: catalog objects, then every table's rows in scan
/// order through `Debug` (`Value::eq` would let `Int(7)` pass for
/// `Float(7.0)`).
fn state(db: &mut Database) -> Vec<String> {
    let mut out = vec![
        format!("views {:?}", db.catalog().view_definitions()),
        format!("sequences {:?}", db.catalog().sequence_states()),
    ];
    let names: Vec<String> = db
        .catalog()
        .table_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    for name in names {
        let rows = db.query(&format!("SELECT * FROM {name}")).unwrap();
        out.push(format!("table {name} {:?}", rows.schema().columns()));
        out.extend(rows.rows().iter().map(|row| format!("{name} {row:?}")));
    }
    out
}

/// Assert both databases hold the same catalog and the same rows, in the
/// same order, in every table.
fn assert_same_state(a: &mut Database, b: &mut Database, context: &str) {
    let (a, b) = (state(a), state(b));
    if a != b {
        let at = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        panic!(
            "{context}: states differ at line {at}: {:?} vs {:?} ({} vs {} lines)",
            a.get(at),
            b.get(at),
            a.len(),
            b.len()
        );
    }
}

/// Run one workload step. `TRUNCATE <table>; <sql>` empties the table
/// through the API first (the dialect has no TRUNCATE statement), so the
/// statement's sync meets a table mutated twice since its last one.
fn run_step(db: &mut Database, step: &str) -> Result<(), Error> {
    let sql = match step.strip_prefix("TRUNCATE ") {
        Some(rest) => {
            let (table, sql) = rest.split_once("; ").expect("TRUNCATE <table>; <sql>");
            db.catalog_mut().table_mut(table)?.truncate();
            sql
        }
        None => step,
    };
    db.execute(sql).map(|_| ())
}

/// A row of the crash workloads: 18 of them fill a page.
fn wide(a: usize) -> String {
    format!("({a}, '{a:0200}')")
}

fn insert_wide(range: std::ops::Range<usize>) -> String {
    let values: Vec<String> = range.map(wide).collect();
    format!("INSERT INTO t VALUES {}", values.join(", "))
}

/// A workload over a table of several pages that takes the store's write
/// path through every shape it has, next to every other catalog object
/// kind. One step = one WAL transaction, so every step is a recovery
/// boundary.
fn crash_steps() -> Vec<String> {
    let long = "L".repeat(3000);
    [
        "CREATE TABLE t (a INT, b VARCHAR)",
        // An append that fills the root and links four pages behind it,
        // then one that only adds to the tail.
        &insert_wide(0..90),
        "INSERT INTO t VALUES (90, 'tail')",
        "CREATE VIEW big AS SELECT a FROM t WHERE a > 1",
        "CREATE SEQUENCE ids",
        // Point statements in the first, a middle and the last page.
        "UPDATE t SET b = 'first' WHERE a = 1",
        "UPDATE t SET b = 'middle' WHERE a = 45",
        "UPDATE t SET b = 'last' WHERE a = 90",
        "DELETE FROM t WHERE a = 0",
        "DELETE FROM t WHERE a = 46",
        "DELETE FROM t WHERE a = 89",
        // Rows that outgrow their pages: each of these pages splits.
        &format!("UPDATE t SET b = '{long}' WHERE a = 3 OR a = 50 OR a = 51"),
        // Whole pages emptied in the middle of the chain, rows on either
        // side kept; then pages touched all along the chain at once.
        "DELETE FROM t WHERE a >= 15 AND a < 60",
        "UPDATE t SET b = 'every tenth' WHERE a - (a / 10) * 10 = 0",
        "INSERT INTO t VALUES (91, 'after the gaps')",
        // The whole-chain write: a table the store has never seen, one
        // mutated twice between syncs, and a name dropped and reused.
        "CREATE TABLE copy AS SELECT a, b FROM t WHERE a < 70",
        &format!("TRUNCATE t; {}", insert_wide(100..130)),
        "DELETE FROM copy",
        "DROP TABLE copy",
        "CREATE TABLE copy (x FLOAT)",
        "INSERT INTO copy VALUES (0.5), (NULL), (-0.0)",
        "DELETE FROM t WHERE a >= 100",
        "INSERT INTO t VALUES (200, 'from empty')",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Run `steps` against a fresh paged database under `dir` with `fault`
/// armed, "kill" it, reopen, and require exactly the state a memory
/// database reaches by replaying the steps that reported success.
fn crash_and_recover(dir: &Path, steps: &[String], fault: WalFault) {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = Database::open_paged(dir).unwrap();
    db.inject_wal_fault(Some(fault));
    let mut expected = Database::new();
    let mut failed = 0;
    for step in steps {
        match run_step(&mut db, step) {
            Ok(()) => run_step(&mut expected, step).unwrap(),
            Err(_) => failed += 1,
        }
    }
    assert!(failed > 0, "{fault:?}: the injected crash must fire");
    drop(db); // the "kill"

    let mut recovered = Database::open_paged(dir).unwrap();
    assert_same_state(&mut recovered, &mut expected, &format!("{fault:?}"));
    // Recovery is idempotent, and what it left is a store to work on.
    drop(recovered);
    let mut again = Database::open_paged(dir).unwrap();
    for db in [&mut again, &mut expected] {
        db.execute("CREATE TABLE IF NOT EXISTS t (a INT, b VARCHAR)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (-1, 'after recovery')")
            .unwrap();
    }
    assert_same_state(&mut again, &mut expected, &format!("{fault:?}, reopened"));
    let _ = std::fs::remove_dir_all(dir);
}

/// WAL appends and fsyncs of a clean run of `steps`, as `(first, end)`
/// operation numbers: the boundaries a fault can be armed at. Those of
/// store creation come before `first` — faults are armed after open.
fn wal_boundaries(dir: &Path, steps: &[String]) -> [(u64, u64); 2] {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = Database::open_paged(dir).unwrap();
    let base = db.stats();
    for step in steps {
        run_step(&mut db, step).unwrap();
    }
    let total = db.stats();
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    assert!(total.storage_wal_appends > base.storage_wal_appends);
    assert!(total.storage_wal_fsyncs > base.storage_wal_fsyncs);
    [
        (base.storage_wal_appends, total.storage_wal_appends),
        (base.storage_wal_fsyncs, total.storage_wal_fsyncs),
    ]
}

/// Inject a crash at every WAL append and fsync boundary of the
/// workload. After each simulated crash the store is poisoned (every
/// further statement errors, like a dead process); reopening must
/// recover exactly the statements that reported success and nothing
/// else — the committed prefix, bit-exact and in scan order.
#[test]
fn recovery_keeps_the_committed_prefix_at_every_crash_point() {
    let dir = temp_dir("crash_sweep");
    let steps = crash_steps();
    let [appends, fsyncs] = wal_boundaries(&dir, &steps);
    for at in appends.0..appends.1 {
        for kind in [WalFaultKind::Append, WalFaultKind::TornAppend] {
            crash_and_recover(&dir, &steps, WalFault { kind, at });
        }
    }
    for at in fsyncs.0..fsyncs.1 {
        let kind = WalFaultKind::Fsync;
        crash_and_recover(&dir, &steps, WalFault { kind, at });
    }
}

/// `n` generated INSERT/UPDATE/DELETE statements over `t (a INT, b
/// VARCHAR)`: appends of a few rows, point and range deletes, updates
/// that shrink rows or grow them past what their page holds.
fn generated_dml(rng: &mut Rng, n: usize) -> Vec<String> {
    let mut next_key = 0usize;
    let mut steps = vec!["CREATE TABLE t (a INT, b VARCHAR)".to_string()];
    for _ in 0..n {
        let key = rng.gen_below(next_key.max(1) as u64);
        steps.push(match rng.gen_below(10) {
            0..=3 => {
                let rows = 1 + rng.gen_below(40) as usize;
                next_key += rows;
                insert_wide(next_key - rows..next_key)
            }
            4 => format!("DELETE FROM t WHERE a = {key}"),
            5 => format!("DELETE FROM t WHERE a >= {key} AND a < {}", key + 25),
            6 => format!("DELETE FROM t WHERE a - (a / 7) * 7 = {}", key % 7),
            7 => format!("UPDATE t SET b = 'short' WHERE a = {key}"),
            8 => format!(
                "UPDATE t SET b = '{}' WHERE a >= {key} AND a < {}",
                "G".repeat(100 + rng.gen_below(1500) as usize),
                key + 4
            ),
            _ => format!(
                "UPDATE t SET b = 'seventh' WHERE a - (a / 7) * 7 = {}",
                key % 7
            ),
        });
    }
    steps
}

/// The crash sweep again over generated workloads: seeded sequences of
/// INSERT/UPDATE/DELETE, each crashed at boundaries drawn at random.
#[test]
fn recovery_keeps_the_committed_prefix_of_generated_dml() {
    let dir = temp_dir("crash_generated");
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from_u64(0xc4a5_0000 + seed);
        let steps = generated_dml(&mut rng, 30);
        let [appends, fsyncs] = wal_boundaries(&dir, &steps);
        for _ in 0..8 {
            let (kind, (first, end)) = match rng.gen_below(3) {
                0 => (WalFaultKind::Append, appends),
                1 => (WalFaultKind::TornAppend, appends),
                _ => (WalFaultKind::Fsync, fsyncs),
            };
            let at = first + rng.gen_below(end - first);
            crash_and_recover(&dir, &steps, WalFault { kind, at });
        }
    }
}

/// Damage to the files themselves — a flipped byte or a cut inside a
/// heap page, inside a WAL frame — is caught by the checksums: the
/// reopen either refuses with a typed storage error or yields the state
/// after some prefix of the committed statements (a damaged frame ends
/// the log there), never rows that no statement wrote.
#[test]
fn corrupted_heap_or_wal_bytes_never_yield_wrong_rows() {
    let dir = temp_dir("corrupt_clean");
    let steps = crash_steps();
    let (checkpointed, logged) = steps.split_at(12);
    let mut db = Database::open_paged(&dir).unwrap();
    let mut expected = Database::new();
    // What a reopen may find: the state after each committed prefix the
    // log can be cut back to.
    let mut prefixes = Vec::new();
    for step in checkpointed {
        run_step(&mut db, step).unwrap();
        run_step(&mut expected, step).unwrap();
    }
    db.checkpoint().unwrap();
    prefixes.push(state(&mut expected));
    for step in logged {
        run_step(&mut db, step).unwrap();
        run_step(&mut expected, step).unwrap();
        prefixes.push(state(&mut expected));
    }
    drop(db); // heap as of the checkpoint, the rest in the WAL
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    let (heap, wal) = (read("heap.tcdm"), read("wal.tcdm"));
    assert!(heap.len() >= 8 * 4096 && wal.len() > 16 * 4096);

    let trial = temp_dir("corrupt_trial");
    let mut outcomes = [0usize; 2];
    let mut reopen = |heap: &[u8], wal: &[u8], what: String| {
        let _ = std::fs::remove_dir_all(&trial);
        std::fs::create_dir_all(&trial).unwrap();
        std::fs::write(trial.join("heap.tcdm"), heap).unwrap();
        std::fs::write(trial.join("wal.tcdm"), wal).unwrap();
        match Database::open_paged(&trial) {
            Err(Error::Storage { .. }) => outcomes[0] += 1,
            Err(other) => panic!("{what}: untyped failure {other:?}"),
            Ok(mut db) => {
                let found = state(&mut db);
                assert!(prefixes.contains(&found), "{what}: rows nobody committed");
                outcomes[1] += 1;
            }
        }
    };
    reopen(&heap, &wal, "undamaged".into());
    for (file, bytes) in [("heap", &heap), ("wal", &wal)] {
        // A prime stride walks every region of a page and of a frame:
        // checksums, headers, slot directories, payloads.
        for at in (5..bytes.len()).step_by(509) {
            let mut damaged = bytes.to_vec();
            damaged[at] ^= 0x40;
            let what = format!("{file} byte {at} flipped");
            match file {
                "heap" => reopen(&damaged, &wal, what),
                _ => reopen(&heap, &damaged, what),
            }
        }
        for cut in [bytes.len() - 1, bytes.len() - 2000, bytes.len() / 2 + 777] {
            let what = format!("{file} cut at {cut}");
            match file {
                "heap" => reopen(&bytes[..cut], &wal, what),
                _ => reopen(&heap, &bytes[..cut], what),
            }
        }
    }
    assert!(outcomes[0] > 0, "some damage must be refused");
    assert!(outcomes[1] > 1, "some damage must be recovered from");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&trial);
}

/// A store directory written by the commit before page-granular sync —
/// a checkpointed multi-page table, a view, a sequence, and four
/// statements left in the WAL by a drop without checkpoint — opens,
/// recovers and takes further statements: the page and WAL formats did
/// not change.
#[test]
fn a_store_written_before_page_granular_sync_opens_and_recovers() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/store_pr14");
    let dir = temp_dir("fixture");
    std::fs::create_dir_all(&dir).unwrap();
    for file in ["heap.tcdm", "wal.tcdm"] {
        std::fs::copy(fixture.join(file), dir.join(file)).unwrap();
    }
    let mut expected = Database::new();
    let values: Vec<String> = (0..400).map(|i| format!("({i}, 'row-{i:04}')")).collect();
    for sql in [
        "CREATE TABLE t (a INT, b VARCHAR)",
        &format!("INSERT INTO t VALUES {}", values.join(", ")),
        "CREATE VIEW big AS SELECT a FROM t WHERE a > 100",
        "CREATE SEQUENCE ids START WITH 5 INCREMENT BY 2",
        "CREATE TABLE small (x FLOAT, d DATE, ok BOOLEAN)",
        "INSERT INTO small VALUES (0.5, DATE '1995-12-17', TRUE), (NULL, NULL, FALSE)",
        "UPDATE t SET b = 'updated' WHERE a = 7",
        "DELETE FROM t WHERE a = 399",
    ] {
        expected.execute(sql).unwrap();
    }
    let mut db = Database::open_paged(&dir).unwrap();
    assert_eq!(db.stats().storage_recoveries, 1, "the WAL was replayed");
    assert_same_state(&mut db, &mut expected, "fixture");
    // The recovered chains take page-granular writes like any other.
    let logged = db.stats().storage_wal_appends;
    for db in [&mut db, &mut expected] {
        db.execute("UPDATE t SET b = 'again' WHERE a = 200")
            .unwrap();
        db.execute("INSERT INTO t VALUES (400, 'appended')")
            .unwrap();
    }
    assert_eq!(db.stats().storage_wal_appends - logged, 6);
    drop(db);
    let mut db = Database::open_paged(&dir).unwrap();
    assert_same_state(&mut db, &mut expected, "fixture, reopened");
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL records appended by `sql`.
fn wal_appends_of(db: &mut Database, sql: &str) -> u64 {
    let before = db.stats().storage_wal_appends;
    db.execute(sql).unwrap();
    db.stats().storage_wal_appends - before
}

/// A statement's WAL traffic follows the pages it changed, not the size
/// of its table: the same single-row INSERT, UPDATE and DELETE append the
/// same few records — Begin, Commit and the page images between them —
/// against one page, forty or four hundred; a bulk load logs each page
/// about once however many statements it arrives in; and a statement
/// that changes nothing logs nothing.
#[test]
fn wal_traffic_follows_the_statement_not_the_table() {
    const ROWS_PER_PAGE: usize = 34; // 116-byte cells + 4-byte slots in 4080
    let row = |a: usize| vec![Value::Int(a as i64), Value::Str(format!("{a:0100}"))];
    let mut per_size = Vec::new();
    for pages in [1usize, 40, 400] {
        let dir = temp_dir(&format!("proportional_{pages}"));
        let mut db = Database::open_paged(&dir).unwrap();
        db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        // Half a page short of `pages`, so the tail has room.
        let n = pages * ROWS_PER_PAGE - ROWS_PER_PAGE / 2;
        let t = db.catalog_mut().table_mut("t").unwrap();
        t.insert_all((0..n).map(row)).unwrap();
        db.checkpoint().unwrap();
        let heap_pages = std::fs::metadata(dir.join("heap.tcdm")).unwrap().len() / 4096;
        assert_eq!(heap_pages as usize, pages + 2, "superblock, catalog, chain");

        let mid = n / 2;
        let appended = [
            wal_appends_of(&mut db, &format!("INSERT INTO t VALUES ({n}, '{n:0100}')")),
            wal_appends_of(
                &mut db,
                &format!("UPDATE t SET b = '{:0100}' WHERE a = {mid}", 0),
            ),
            wal_appends_of(&mut db, "UPDATE t SET b = 'first' WHERE a = 0"),
            wal_appends_of(&mut db, &format!("DELETE FROM t WHERE a = {mid}")),
            wal_appends_of(&mut db, &format!("DELETE FROM t WHERE a = {n}")),
            wal_appends_of(&mut db, "UPDATE t SET b = 'nobody' WHERE a < 0"),
            wal_appends_of(&mut db, "DELETE FROM t WHERE a < 0"),
            wal_appends_of(&mut db, "SELECT COUNT(*) FROM t"),
        ];
        per_size.push(appended);
        drop(db);
        let mut reopened = Database::open_paged(&dir).unwrap();
        let rows = reopened.query("SELECT a FROM t").unwrap();
        assert_eq!(rows.len(), n - 1);
        assert_eq!(rows.rows()[mid], vec![Value::Int(mid as i64 + 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Begin + one page image + Commit for each statement that changed a
    // row; nothing for the three that did not.
    assert_eq!(per_size[0], [3, 3, 3, 3, 3, 0, 0, 0]);
    assert_eq!(per_size[1], per_size[0], "40 pages cost what 1 does");
    assert_eq!(per_size[2], per_size[0], "400 pages cost what 1 does");

    // 40 pages of rows in 20 statements: every statement logs the tail it
    // found and the pages it added, so the page images number about
    // pages + statements — not the statements x pages of a chain logged
    // whole each time.
    let dir = temp_dir("proportional_load");
    let mut db = Database::open_paged(&dir).unwrap();
    db.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
    let (pages, statements) = (40, 20);
    let chunk = pages * ROWS_PER_PAGE / statements;
    let mut images = 0;
    for s in 0..statements {
        let values: Vec<String> = (s * chunk..(s + 1) * chunk)
            .map(|a| format!("({a}, '{a:0100}')"))
            .collect();
        let sql = format!("INSERT INTO t VALUES {}", values.join(", "));
        images += wal_appends_of(&mut db, &sql) - 2;
    }
    assert!(
        (pages as u64..=(pages + statements) as u64).contains(&images),
        "{images} page images for {pages} pages in {statements} statements"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same seeded mix of 200 INSERT/UPDATE/DELETE statements through a
/// memory database and a paged one — two-page cache, checkpoints at
/// random points, one drop-and-reopen half way — scans identically after
/// every statement: short pages, splits and unlinked pages never reorder
/// a chain. `MINE RULE` over the result then agrees bit for bit.
#[test]
fn paged_scans_in_memory_order_under_interleaved_dml() {
    // A dozen items, each with a width of its own from 12 to 2400 bytes:
    // an UPDATE to another item resizes the row.
    let item = |k: u64| format!("i{k:02}{}", "-".repeat(((k * k * k) % 2400 + 9) as usize));
    let dir = temp_dir("interleaved");
    let cfg = StorageConfig {
        cache_pages: 2,
        checkpoint_bytes: 1 << 16,
    };
    let open = || {
        let mut db = Database::new();
        db.set_storage_dir(&dir);
        db.set_storage_config(cfg);
        db.set_storage(StorageBackend::Paged).unwrap();
        db
    };
    let mut paged = open();
    let mut memory = Database::new();
    let mut rng = Rng::seed_from_u64(0x1e7e_41ea);
    let mut baskets = 0u64;
    let run = |paged: &mut Database, memory: &mut Database, sql: &str| {
        let (p, m) = (paged.execute(sql).unwrap(), memory.execute(sql).unwrap());
        assert_eq!(p.rows_affected, m.rows_affected, "{sql}");
        let p = paged.query("SELECT * FROM t").unwrap();
        let m = memory.query("SELECT * FROM t").unwrap();
        assert!(p.rows() == m.rows(), "scan order differs after: {sql}");
    };
    run(
        &mut paged,
        &mut memory,
        "CREATE TABLE t (tr INT, item VARCHAR)",
    );
    for n in 0..200 {
        let tr = rng.gen_below(baskets.max(1));
        let k = rng.gen_below(12);
        let sql = match rng.gen_below(10) {
            0..=4 => {
                let values: Vec<String> = (0..1 + rng.gen_below(6))
                    .map(|_| format!("({baskets}, '{}')", item(rng.gen_below(12))))
                    .collect();
                baskets += 1;
                format!("INSERT INTO t VALUES {}", values.join(", "))
            }
            5 => format!("DELETE FROM t WHERE tr = {tr}"),
            6 => format!("DELETE FROM t WHERE tr >= {tr} AND tr < {}", tr + 3),
            7 => format!("UPDATE t SET item = '{}' WHERE tr = {tr}", item(k)),
            8 => format!(
                "UPDATE t SET item = '{}' WHERE item = '{}'",
                item(k),
                item((k + 5) % 12)
            ),
            _ => format!("UPDATE t SET tr = tr WHERE tr - (tr / 5) * 5 = {}", tr % 5),
        };
        run(&mut paged, &mut memory, &sql);
        if rng.gen_below(8) == 0 {
            paged.checkpoint().unwrap();
        }
        if n == 100 {
            drop(paged);
            paged = open();
            assert_same_state(&mut paged, &mut memory, "reopened half way");
        }
    }
    assert!(paged.stats().storage_cache_evictions > 0);
    assert!(memory.catalog().table("t").unwrap().row_count() > 100);

    let stmt = "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
                FROM t GROUP BY tr EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.2";
    let in_memory = MineRuleEngine::new().execute(&mut memory, stmt).unwrap();
    let on_pages = MineRuleEngine::new().execute(&mut paged, stmt).unwrap();
    assert!(!in_memory.rules.is_empty());
    assert_eq!(in_memory.rules, on_pages.rules);
    drop(paged);
    let mut reopened = open();
    assert_same_state(&mut reopened, &mut memory, "after mining");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The paged backend mines bit-identical rules to the memory backend
/// for every worker count, and the mined output tables survive a
/// reopen bit-exact.
#[test]
fn paged_and_memory_backends_mine_identical_rules() {
    let sig = |rules: &[minerule::DecodedRule]| -> Vec<String> {
        rules.iter().map(|r| r.display()).collect()
    };
    for workers in [1usize, 2, 4] {
        let mut mem_db = purchase_db();
        let memory = MineRuleEngine::new()
            .with_workers(workers)
            .execute(&mut mem_db, STMT)
            .unwrap();

        let dir = temp_dir(&format!("agree_{workers}"));
        let mut db = purchase_db();
        db.set_storage_dir(&dir);
        db.set_storage(StorageBackend::Paged).unwrap();
        let paged = MineRuleEngine::new()
            .with_workers(workers)
            .execute(&mut db, STMT)
            .unwrap();
        assert_eq!(
            sig(&memory.rules),
            sig(&paged.rules),
            "workers={workers}: paged and memory backends must agree"
        );
        db.checkpoint().unwrap();
        drop(db);

        let mut reopened = Database::open_paged(&dir).unwrap();
        assert_same_state(&mut reopened, &mut mem_db, &format!("workers={workers}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A one-page cache with an aggressive checkpoint threshold forces
/// evictions and mid-run checkpoints; the mined rules and the durable
/// state are still identical to the memory backend's.
#[test]
fn tiny_cache_and_frequent_checkpoints_preserve_agreement() {
    let mut mem_db = purchase_db();
    let memory = MineRuleEngine::new().execute(&mut mem_db, STMT).unwrap();

    let dir = temp_dir("tiny_cache");
    let mut db = purchase_db();
    db.set_storage_dir(&dir);
    db.set_storage_config(StorageConfig {
        cache_pages: 1,
        checkpoint_bytes: 4096,
    });
    db.set_storage(StorageBackend::Paged).unwrap();
    let paged = MineRuleEngine::new().execute(&mut db, STMT).unwrap();
    assert_eq!(memory.rules, paged.rules, "bit-identical under pressure");
    assert!(
        db.stats().storage_cache_evictions > 0,
        "the one-page budget must actually evict"
    );
    db.checkpoint().unwrap();
    drop(db);

    let mut reopened = Database::open_paged(&dir).unwrap();
    assert_same_state(&mut reopened, &mut mem_db, "tiny cache");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reopening a paged store mints fresh table version stamps, exactly
/// like a TSV reload: stale index or preprocess-cache entries keyed on
/// pre-crash versions can never hit recovered data.
#[test]
fn paged_reopen_mints_fresh_version_stamps() {
    let dir = temp_dir("paged_versions");
    let mut db = Database::open_paged(&dir).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let saved = db.catalog().table("t").unwrap().version();
    db.checkpoint().unwrap();
    drop(db);

    let reopened = Database::open_paged(&dir).unwrap();
    let recovered = reopened.catalog().table("t").unwrap().version();
    assert_ne!(saved, recovered);
    assert!(recovered > saved, "versions stay monotone across reopens");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequences_resume_from_persisted_state() {
    let dir = temp_dir("sequences");
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.catalog_mut()
        .create_sequence(Sequence::new("ids", 10, 3))
        .unwrap();
    // Consume the first value (10); 13 must be next after reload.
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("CREATE TABLE consumed AS (SELECT ids.NEXTVAL AS v, a FROM t)")
        .unwrap();
    persist::save(&db, &dir).unwrap();

    let mut reloaded = persist::load(&dir).unwrap();
    let states = reloaded.catalog().sequence_states();
    assert!(
        states
            .iter()
            .any(|(name, _, increment)| name.eq_ignore_ascii_case("ids") && *increment == 3),
        "sequence missing after reload: {states:?}"
    );
    reloaded.execute("INSERT INTO t VALUES (2)").unwrap();
    reloaded.execute("DROP TABLE consumed").unwrap();
    reloaded
        .execute("CREATE TABLE consumed AS (SELECT ids.NEXTVAL AS v, a FROM t)")
        .unwrap();
    let rs = reloaded.query("SELECT MIN(v) FROM consumed").unwrap();
    assert_eq!(
        rs.scalar(),
        Some(&Value::Int(13)),
        "sequence must resume where the saved database stopped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
