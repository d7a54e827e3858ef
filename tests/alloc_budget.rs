//! Allocation budgets of the cold `MINE RULE` path and of the SQL
//! executor, counted rather than timed: its own test binary, because the
//! counter is the process's global allocator.
//!
//! * The fused pass's source scan allocates per *distinct key*, never per
//!   source row: a row that repeats its group and item is hashed and
//!   compared in place (`relational::KeyInterner`).
//! * Capturing an encoding into the session artifact store and restoring
//!   it share the committed tables' rows (`relational::Table` is
//!   copy-on-write): neither allocates per encoded row.
//! * A rerun after a small delta re-derives the encoding from the kept
//!   source digest: it replays the delta in place and reads no source
//!   row, so its preprocess allocates within one budget whatever the
//!   source's size — no allocation per group, none per row.
//! * A cold simple-class `execute` builds no row of the encoded tables
//!   only SQL reads (`CodedSource`, `ValidGroups` are deferred): it
//!   allocates fewer blocks than `CodedSource` has rows.
//! * Decoding the core's rules allocates the blocks the returned rules
//!   own and at most two more per rule: the six output tables are
//!   deferred, so no row of theirs is built.
//! * A first bulk insert into an empty table takes the batch itself: it
//!   copies no row into a block of its own.
//! * A join's scans share the catalog's rows, its accumulator is one flat
//!   vector of row-index tuples and it builds only the columns the
//!   statement reads: a `COUNT(*)` over an equi-join allocates per input
//!   row and distinct key at most, never per joined row. Its hash table
//!   is built over the smaller input and clones a key only when it is new.
//! * A GROUP BY evaluates each row's key into one reused buffer and
//!   allocates per distinct key, never per row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minerule::core_op::{run_core, CoreOptions};
use minerule::postprocess::decode_rules;
use minerule::preprocess::{preprocess, preprocess_for_core};
use minerule::{parse_mine_rule, translate, ArtifactStore, MineRuleEngine, Translation};
use relational::{Column, DataType, Database, Row, Schema, Table, Value};

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so reading it from the allocator allocates nothing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations and reallocations asked for.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes on this thread.
fn count(size: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + size as u64));
}

/// The system allocator, counting every allocation and reallocation of
/// the calling thread (tests run on parallel threads).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// cell and touches no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `work` makes on this thread.
fn allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocated, _) = allocations_and_bytes(work);
    (out, allocated)
}

/// Allocations `work` makes on this thread, and the bytes they ask for.
fn allocations_and_bytes<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = work();
    let allocated = ALLOCATIONS.with(Cell::get) - before.0;
    (out, allocated, BYTES.with(Cell::get) - before.1)
}

const STATEMENT: &str = "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
                         FROM Baskets GROUP BY tr \
                         EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.1";

/// `Baskets(tr, item)`: `groups` baskets of `per_group` items out of 50,
/// every `(tr, item)` row stored `copies` times (copy-major, so repeats
/// are far apart).
fn baskets(groups: i64, per_group: i64, copies: usize) -> (Database, Translation) {
    let mut db = Database::new();
    db.execute("CREATE TABLE Baskets (tr INT, item VARCHAR)")
        .unwrap();
    let mut rows: Vec<Row> = Vec::new();
    for _ in 0..copies {
        for tr in 0..groups {
            for i in 0..per_group {
                let item = format!("item_{:02}", (tr * 7 + i * 3) % 50);
                rows.push(vec![Value::Int(tr), Value::Str(item)]);
            }
        }
    }
    let table = db.catalog_mut().table_mut("Baskets").unwrap();
    table.insert_all(rows).unwrap();
    let translation = translate(&parse_mine_rule(STATEMENT).unwrap(), db.catalog()).unwrap();
    (db, translation)
}

#[test]
fn the_source_scan_allocates_per_distinct_key_not_per_row() {
    let run = |copies: usize| {
        let (mut db, translation) = baskets(200, 8, copies);
        let (report, allocated) = allocations(|| preprocess(&mut db, &translation).unwrap());
        assert!(report.fused_steps > 0, "the fused pass ran");
        assert_eq!(report.total_groups, 200);
        let encoded = db.catalog().table("CodedSource").unwrap().row_count();
        assert_eq!(encoded, 1600, "the same encoding whatever the copies");
        allocated
    };
    let (once, tenfold) = (run(1), run(10));
    assert!(
        tenfold < once * 2,
        "10x the rows over the same keys: {once} -> {tenfold} allocations"
    );
}

#[test]
fn capturing_and_restoring_an_encoding_allocates_independently_of_its_rows() {
    let run = |groups: i64| {
        let (mut db, translation) = baskets(groups, 2, 1);
        let run = preprocess_for_core(&mut db, &translation).unwrap();
        let encoded = db.catalog().table("CodedSource").unwrap().row_count();
        assert_eq!(encoded as i64, groups * 2);
        let store = ArtifactStore::new(true);
        let (restored, allocated) = allocations(|| {
            store.capture_encoding(&db, &translation, "", &run);
            store.restore_encoding(&mut db, &translation, "").unwrap()
        });
        assert!(restored.is_some(), "a warm restore");
        let table = db.catalog().table("CodedSource").unwrap();
        assert_eq!(
            table.row_count(),
            encoded,
            "the restored rows are all there"
        );
        allocated
    };
    let (small, large) = (run(3_000), run(30_000));
    assert!(
        large.abs_diff(small) * 10 <= small,
        "10x the encoded rows: {small} -> {large} allocations"
    );
}

#[test]
fn a_delta_rerun_preprocesses_within_one_budget_at_any_source_size() {
    // Capture a cold encoding, insert a new basket and delete an old one,
    // then re-derive: the store replays the delta onto the digest it
    // kept (no copy: nothing else holds it) and derives the tables from
    // it. A cold pass would allocate per group — a scan's digest keeps a
    // vector per group — and copying the digest would too.
    const BUDGET: u64 = 1_000;
    let run = |groups: i64| {
        let (mut db, translation) = baskets(groups, 12, 1);
        let store = ArtifactStore::new(true);
        let cold = preprocess_for_core(&mut db, &translation).unwrap();
        store.capture_encoding(&db, &translation, "", &cold);
        drop(cold);
        db.execute("INSERT INTO Baskets VALUES (-1, 'item_01'), (-1, 'item_02')")
            .unwrap();
        db.execute("DELETE FROM Baskets WHERE tr = 100").unwrap();
        let (restored, allocated) = allocations(|| {
            let restored = store.restore_encoding(&mut db, &translation, "").unwrap();
            let (run, kind) = restored.expect("the delta re-derives the encoding");
            store.capture_encoding(&db, &translation, "", &run);
            (run, kind)
        });
        assert_eq!(restored.1, minerule::ServeKind::Delta);
        assert!(restored.0.report.executed.is_empty(), "no Qi step ran");
        assert_eq!(restored.0.report.total_groups, groups as u64);
        allocated
    };
    let (small, large) = (run(500), run(5_000));
    assert!(
        small <= BUDGET && large <= BUDGET,
        "{small} and {large} allocations at 500 and 5000 groups (budget {BUDGET})"
    );
}

#[test]
fn a_cold_simple_mine_allocates_less_than_once_per_encoded_row() {
    // The fused pass registers `CodedSource` and `ValidGroups` deferred:
    // no row of theirs is built, so a whole cold `execute` — scan, core,
    // rules, telemetry — allocates fewer blocks than `CodedSource` has
    // rows, where building it takes one block per row.
    let (mut db, _) = baskets(1_000, 24, 1);
    let stmt = STATEMENT.replace("SUPPORT: 0.01", "SUPPORT: 0.45");
    let engine = MineRuleEngine::new();
    let (outcome, allocated) = allocations(|| engine.execute(&mut db, &stmt).unwrap());
    assert!(!outcome.rules.is_empty());
    let coded = db.catalog().row_count("CodedSource").unwrap() as u64;
    assert_eq!(coded, 24_000);
    assert!(
        allocated < coded,
        "{allocated} allocations for {coded} CodedSource rows, {} rules",
        outcome.rules.len()
    );
}

#[test]
fn decoding_rules_allocates_what_the_returned_rules_hold_and_little_more() {
    // The fused decode keeps each distinct body and head once and
    // registers the six output tables deferred over that record. Beyond
    // the blocks the returned rules own (two lists and one string per
    // item each) it allocates at most two blocks per rule, where building
    // the six tables' rows takes about eleven.
    let (mut db, _) = baskets(1_000, 24, 1);
    let stmt = STATEMENT.replace("SUPPORT: 0.01", "SUPPORT: 0.4");
    let translation = translate(&parse_mine_rule(&stmt).unwrap(), db.catalog()).unwrap();
    let encoded = preprocess_for_core(&mut db, &translation)
        .unwrap()
        .encoded_input(&translation)
        .unwrap()
        .expect("the fused pass hands the input over");
    let rules = run_core(&encoded, &CoreOptions::default()).unwrap().rules;
    assert_eq!(rules.len(), 2_350);
    let (decoded, allocated) = allocations(|| decode_rules(&mut db, &translation, &rules).unwrap());
    assert_eq!(decoded.fused_steps, 3, "the fused route ran");
    let owned: u64 = decoded
        .rules
        .iter()
        .map(|r| 2 + r.body.len() as u64 + r.head.len() as u64)
        .sum();
    let budget = owned + 2 * rules.len() as u64 + 256;
    assert!(
        allocated <= budget,
        "{allocated} allocations to decode {} rules owning {owned} blocks (budget {budget})",
        rules.len()
    );
}

#[test]
fn a_first_insert_into_an_empty_table_takes_the_batch_without_copying_it() {
    let columns = vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Str),
    ];
    let mut table = Table::new("T", Schema::new(columns));
    let rows: Vec<Row> = (0..100_000)
        .map(|i| vec![Value::Int(i), Value::Str(format!("v{i}"))])
        .collect();
    let (inserted, allocated, bytes) = allocations_and_bytes(|| table.insert_all(rows).unwrap());
    assert_eq!(inserted, 100_000);
    assert_eq!(table.rows().len(), 100_000);
    // One block beyond the rows at most — the table's shared handle —
    // and nowhere near a copy of the 100 000 row slots.
    assert!(
        allocated <= 1 && bytes < 1024,
        "{allocated} allocations, {bytes} bytes"
    );
    // The batch still passes the column-type check row by row.
    let mut typed = Table::new("U", Schema::new(vec![Column::new("k", DataType::Int)]));
    let mut bad: Vec<Row> = (0..10_000).map(|i| vec![Value::Int(i)]).collect();
    bad.push(vec![Value::Str("x".into())]);
    assert!(typed.insert_all(bad).is_err());
    assert!(typed.rows().is_empty(), "a failed batch leaves no row");
}

/// `T(k, v)`: `rows` rows over `keys` distinct `k`s, each with its own
/// string `v`; plus `Small(k)`, one row for each of the first ten keys.
fn keyed(rows: i64, keys: i64) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (k INT, v VARCHAR)").unwrap();
    db.execute("CREATE TABLE Small (k INT)").unwrap();
    let catalog = db.catalog_mut();
    let t = (0..rows).map(|i| vec![Value::Int(i % keys), Value::Str(format!("v{i}"))]);
    catalog.table_mut("T").unwrap().insert_all(t).unwrap();
    let small = (0..keys.min(10)).map(|k| vec![Value::Int(k)]);
    catalog
        .table_mut("Small")
        .unwrap()
        .insert_all(small)
        .unwrap();
    db
}

/// Allocations of `sql` over `db`, checking its one-value answer.
fn count_allocations(db: &mut Database, sql: &str, expected: i64) -> u64 {
    let (rs, allocated) = allocations(|| db.query(sql).unwrap());
    assert_eq!(rs.scalar(), Some(&Value::Int(expected)), "{sql}");
    allocated
}

#[test]
fn a_count_over_an_equi_self_join_allocates_per_key_not_per_joined_row() {
    let sql = "SELECT COUNT(*) FROM T a, T b WHERE a.k = b.k";
    let run = |keys: i64| count_allocations(&mut keyed(2_000, keys), sql, 2_000 * 2_000 / keys);
    // The same 2 000 input rows joining into 20 000, then 200 000 rows.
    let (once, tenfold) = (run(200), run(20));
    assert!(
        tenfold < once * 2,
        "10x the joined rows: {once} -> {tenfold} allocations"
    );
}

#[test]
fn a_join_over_an_unfiltered_base_table_copies_none_of_its_rows() {
    // Either way round, the planned join builds its hash table over
    // `Small`, the smaller input: as the incoming factor or as the first
    // step's tuples. Over distinct `T.k`s a table built over `T` would
    // allocate one key per row.
    for sql in [
        "SELECT COUNT(*) FROM T, Small WHERE T.k = Small.k",
        "SELECT COUNT(*) FROM Small, T WHERE T.k = Small.k",
    ] {
        for keys in [Some(10), None] {
            let run = |rows: i64| {
                let (keys, expected) = keys.map_or((rows, 10), |k| (k, rows));
                count_allocations(&mut keyed(rows, keys), sql, expected)
            };
            let (small, large) = (run(2_000), run(20_000));
            assert!(
                large < small * 2,
                "{sql}, {keys:?} keys: 10x the scanned rows: {small} -> {large} allocations"
            );
        }
    }
}

#[test]
fn a_group_by_allocates_per_distinct_key_not_per_row() {
    for sql in [
        "SELECT k, COUNT(*) FROM T GROUP BY k",
        "SELECT COUNT(*) FROM T GROUP BY k % 5",
    ] {
        let run = |rows: i64| {
            let mut db = keyed(rows, 10);
            let (rs, allocated) = allocations(|| db.query(sql).unwrap());
            let counts: i64 = rs
                .rows()
                .iter()
                .map(|r| match r.last() {
                    Some(Value::Int(n)) => *n,
                    other => panic!("{sql}: count {other:?}"),
                })
                .sum();
            assert_eq!(counts, rows, "{sql}: every row in one group");
            allocated
        };
        let (small, large) = (run(2_000), run(20_000));
        assert!(
            large < small * 2,
            "{sql}: 10x the grouped rows over the same keys: {small} -> {large} allocations"
        );
    }
}
