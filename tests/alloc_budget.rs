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
//! * A first bulk insert into an empty table takes the batch itself: it
//!   copies no row into a block of its own.
//! * A join's scans share the catalog's rows, its accumulator is one flat
//!   vector of row-index tuples and it builds only the columns the
//!   statement reads: a `COUNT(*)` over an equi-join allocates per input
//!   row and distinct key at most, never per joined row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minerule::preprocess::{preprocess, preprocess_for_core};
use minerule::{parse_mine_rule, translate, ArtifactStore, Translation};
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
/// string `v`; plus `Small(k)`, one row per key.
fn keyed(rows: i64, keys: i64) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (k INT, v VARCHAR)").unwrap();
    db.execute("CREATE TABLE Small (k INT)").unwrap();
    let catalog = db.catalog_mut();
    let t = (0..rows).map(|i| vec![Value::Int(i % keys), Value::Str(format!("v{i}"))]);
    catalog.table_mut("T").unwrap().insert_all(t).unwrap();
    let small = (0..keys).map(|k| vec![Value::Int(k)]);
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
    let sql = "SELECT COUNT(*) FROM T, Small WHERE T.k = Small.k";
    let run = |rows: i64| count_allocations(&mut keyed(rows, 10), sql, rows);
    let (small, large) = (run(2_000), run(20_000));
    assert!(
        large < small * 2,
        "10x the scanned rows: {small} -> {large} allocations"
    );
}
