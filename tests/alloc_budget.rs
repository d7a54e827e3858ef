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
//! * The simple-class core input is one flat arena from the source
//!   digest to the miner's first level: the digest's runs, the handed-over
//!   groups and the first level's gid array are each one block, so
//!   handing the core its input and building the first level allocate
//!   per item, never per group.
//! * A cold simple-class `execute` builds no row of the encoded tables
//!   only SQL reads (`CodedSource`, `ValidGroups` are deferred): it
//!   allocates fewer blocks than `CodedSource` has rows, and within a
//!   pinned budget.
//! * So does a cold general-class `execute` under a cluster and a mining
//!   condition: the pair conditions read ids and key slots, and
//!   `Clusters` and `MiningSource` are deferred, so it allocates fewer
//!   blocks than `MiningSource` has rows.
//! * Mining joins and prunes candidates over the drop-linked trie: it
//!   allocates per large itemset and border set, never per candidate.
//! * Rule generation keeps each rule as the two trie nodes its body and
//!   head end at and copies each distinct set's items once: it allocates
//!   a few vectors per trie level, never per large itemset or rule.
//! * Decoding the core's rules allocates per distinct body and head and
//!   per item of them, plus a constant — nothing per rule: the rules
//!   arrive as set ids, each set is rendered once and shared by the
//!   returned rules, and the six output tables are deferred, so no row
//!   of theirs is built.
//! * A first bulk insert into an empty table takes the batch itself: it
//!   copies no row into a block of its own.
//! * A join's scans share the catalog's rows, its accumulator is one flat
//!   vector of row-index tuples and it builds only the columns the
//!   statement reads. Its hash table is built over the smaller input and
//!   clones a key only when it is new.
//! * An aggregate-only statement counts its join instead of building it:
//!   one entry per distinct live value at each step, so ten times the
//!   joined rows of a `COUNT(*)` self-join allocate no more, and a
//!   three-way cross product of 3 000 rows fits in a few kilobytes.
//! * A bulk INSERT allocates each row's block and each string literal's,
//!   plus a constant: tokens borrow the text, the VALUES items are one
//!   vector, and each literal's value moves into its row.
//! * A GROUP BY evaluates each row's key into one reused buffer and
//!   allocates per distinct key, never per row.
//! * The cutting operators decide before they keep a row: each row is
//!   evaluated into one reused entry, `ORDER BY … LIMIT k` keeps a
//!   bounded top-k whose evicted entries are refilled, and DISTINCT keeps
//!   only a new row. Both allocate per kept row, never per input row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use minerule::algo::apriori::mine_gidlist_with_border;
use minerule::algo::{rules_from_itemsets_counted, CountingCtx};
use minerule::core_op::{run_core, CoreOptions, CoreOutput};
use minerule::encoded::{EncodedData, EncodedInput};
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
fn handing_the_core_its_input_and_building_its_first_level_allocate_per_item_not_per_group() {
    // The handover fills one arena from the digest's runs, and the first
    // level counts by item over the arena's flat Bids: neither keeps a
    // vector per group, so ten times the groups over the same 50 items
    // allocate the same blocks: 61 measured, the budget 10 % more.
    let run = |groups: i64| {
        let (mut db, translation) = baskets(groups, 12, 1);
        let run = preprocess_for_core(&mut db, &translation).unwrap();
        let ((handed, items), allocated) = allocations(|| {
            let input = run.encoded_input(&translation).unwrap();
            let input = input.expect("the fused pass hands its input over");
            let EncodedData::Simple { groups } = &input.data else {
                panic!("a simple-class input");
            };
            let counting = CountingCtx::default();
            let level = counting.gidsets(groups.groups(), &counting.gidset_ctx(groups.len()));
            (groups.len(), level.len())
        });
        assert_eq!((handed, items), (groups as usize, 50));
        allocated
    };
    let (small, large) = (run(500), run(5_000));
    assert!(
        small == large && large <= 67,
        "{small} and {large} allocations at 500 and 5000 groups"
    );
}

#[test]
fn a_cold_simple_mine_allocates_less_than_once_per_encoded_row() {
    // The fused pass registers `CodedSource` and `ValidGroups` deferred:
    // no row of theirs is built, so a whole cold `execute` — scan, core,
    // rules, telemetry — allocates fewer blocks than `CodedSource` has
    // rows, where building it takes one block per row. The budget is
    // the 4 827 blocks measured with the core's input one arena from the
    // digest to the first level (10 214 when the digest, the handover and
    // the first level kept a vector per group or item), plus 10 %.
    const BUDGET: u64 = 5_310;
    let (mut db, _) = baskets(1_000, 24, 1);
    let stmt = STATEMENT.replace("SUPPORT: 0.01", "SUPPORT: 0.45");
    let engine = MineRuleEngine::new();
    let (outcome, allocated) = allocations(|| engine.execute(&mut db, &stmt).unwrap());
    assert!(!outcome.rules.is_empty());
    let coded = db.catalog().row_count("CodedSource").unwrap() as u64;
    assert_eq!(coded, 24_000);
    assert!(
        allocated < coded.min(BUDGET),
        "{allocated} allocations for {coded} CodedSource rows, {} rules (budget {BUDGET})",
        outcome.rules.len()
    );
}

#[test]
fn a_cold_general_mine_allocates_less_than_once_per_mining_source_row() {
    // The general-class twin: under a cluster condition (K) and a mining
    // condition (M) the pair conditions run on ids and key slots, and
    // `Clusters` and `MiningSource` are deferred, so a whole cold
    // `execute` allocates fewer blocks than `MiningSource` has rows.
    let data = datagen::generate_retail(&datagen::RetailConfig {
        customers: 500,
        dates_per_customer: 4,
        items_per_date: 2.5,
        catalog: 40,
        expensive_items: 12,
        seed: 7,
        ..datagen::RetailConfig::default()
    });
    let mut db = Database::new();
    data.load(&mut db, "Purchase").unwrap();
    let stmt = "MINE RULE Temporal AS \
        SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
        WHERE BODY.price >= 100 AND HEAD.price < 100 \
        FROM Purchase GROUP BY customer \
        CLUSTER BY date HAVING BODY.date < HEAD.date \
        EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.2";
    let engine = MineRuleEngine::new();
    let (outcome, allocated) = allocations(|| engine.execute(&mut db, stmt).unwrap());
    assert!(!outcome.rules.is_empty());
    let mining = db.catalog().row_count("MiningSource").unwrap() as u64;
    assert!(mining > 4_000, "{mining} MiningSource rows");
    assert!(
        allocated < mining,
        "{allocated} allocations for {mining} MiningSource rows, {} rules",
        outcome.rules.len()
    );
}

/// The 2 350 rules of `baskets(1_000, 24, 1)` at support 0.4, through
/// the fused pass's hand-over: the database, the translation, the core's
/// input and its output.
fn rule_explosion() -> (Database, Translation, Arc<EncodedInput>, CoreOutput) {
    let (mut db, _) = baskets(1_000, 24, 1);
    let stmt = STATEMENT.replace("SUPPORT: 0.01", "SUPPORT: 0.4");
    let translation = translate(&parse_mine_rule(&stmt).unwrap(), db.catalog()).unwrap();
    let encoded = preprocess_for_core(&mut db, &translation)
        .unwrap()
        .encoded_input(&translation)
        .unwrap()
        .expect("the fused pass hands the input over");
    let mined = run_core(&encoded, &CoreOptions::default()).unwrap();
    assert_eq!(mined.rules.len(), 2_350);
    (db, translation, encoded, mined)
}

#[test]
fn mining_allocates_per_large_itemset_and_border_set_not_per_candidate() {
    // The gid-list miner joins and prunes over the drop-linked trie: a
    // candidate is its items and links appended to the next level, so one
    // the prune rejects allocates nothing and one below the threshold
    // only its border entry. What is left is a gid set and an item
    // vector per large itemset, plus each level's few growing vectors:
    // 2 805 blocks measured. Building a vector per joined pair and
    // cloning each level into the inventory took 6 173.
    let (_, _, input, mined) = rule_explosion();
    let EncodedData::Simple { groups } = &input.data else {
        panic!("a simple-class input");
    };
    let counting = CountingCtx::default();
    let ((large, border), allocated) =
        allocations(|| mine_gidlist_with_border(groups.groups(), input.min_groups, &counting));
    assert_eq!(Some(&large), mined.large_itemsets.as_ref());
    // Every pair of same-sized large itemsets with a shared prefix is
    // joined; the prune rejects those not generated.
    let mut joined = 0u64;
    let mut prefix_runs: std::collections::HashMap<&[u32], u64> = Default::default();
    for (set, _) in &large {
        *prefix_runs.entry(&set[..set.len() - 1]).or_default() += 1;
    }
    for run in prefix_runs.values() {
        joined += run * (run - 1) / 2;
    }
    let stats = counting.take_stats();
    let generated: u64 = stats.levels.values().skip(1).map(|l| l.generated).sum();
    let rejected = joined - generated;
    assert!(rejected > 0, "{joined} joined, {generated} generated");
    let budget = 2 * large.len() as u64 + border.len() as u64 + 256;
    assert!(
        allocated <= budget,
        "{allocated} allocations for {} large itemsets and {} border sets, {rejected} \
         candidates pruned (budget {budget})",
        large.len(),
        border.len()
    );
}

#[test]
fn generating_rules_allocates_per_distinct_set_not_per_rule() {
    // The split loop keeps each rule as the trie nodes its body and head
    // end at; after the sort each distinct node's itemset is copied into
    // its side's arena once. The drop-linked trie keeps a few flat
    // vectors per level, so what is left is growing vectors, none per
    // large itemset: 185 blocks measured. A trie with a child list per
    // node took 1 226, and owning a body and a head per rule 5 893.
    let (_, _, input, mined) = rule_explosion();
    let large = mined.large_itemsets.expect("the simple path's inventory");
    let ((rules, _), allocated) = allocations(|| {
        rules_from_itemsets_counted(
            &large,
            input.total_groups,
            input.body_card,
            input.head_card,
            input.min_confidence,
        )
        .unwrap()
    });
    assert_eq!(rules, mined.rules, "the same rules as the core's");
    let sets = (rules.bodies.len() + rules.heads.len()) as u64;
    assert_eq!(sets, 800, "750 bodies and 50 heads");
    let budget = 256;
    assert!(
        allocated <= budget && allocated < large.len() as u64,
        "{allocated} allocations for {} rules over {} large itemsets and {sets} distinct \
         sets (budget {budget})",
        rules.len(),
        large.len()
    );
}

#[test]
fn decoding_rules_allocates_what_the_returned_rules_hold_and_little_more() {
    // The rules arrive as set ids beside each distinct body and head.
    // The fused decode renders each set once into the one block the
    // returned rules share, beside one string per item, and registers
    // the six output tables deferred over that record: nothing is
    // allocated per rule. The constant covers each dictionary item's
    // rendering (50 items) and the fixed blocks. Cloning each set's
    // rendering into every rule took 16 150 blocks here, 12 650 of them
    // the clones.
    let (mut db, translation, _, mined) = rule_explosion();
    let rules = &mined.rules;
    let owned = rules.clone();
    let (decoded, allocated) = allocations(|| decode_rules(&mut db, &translation, owned).unwrap());
    assert_eq!(decoded.fused_steps, 3, "the fused route ran");
    assert_eq!(decoded.rules.len(), rules.len());
    let sets = (rules.bodies.len() + rules.heads.len()) as u64;
    let items = (rules.bodies.items.len() + rules.heads.items.len()) as u64;
    assert_eq!(decoded.sets_rendered as u64, sets);
    let budget = sets + items + 512;
    assert!(
        allocated <= budget,
        "{allocated} allocations to decode {} rules over {sets} distinct sets of {items} \
         items (budget {budget})",
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
    let run = |keys: i64| {
        let mut db = keyed(2_000, keys);
        let (rs, allocated, bytes) = allocations_and_bytes(|| db.query(sql).unwrap());
        assert_eq!(rs.scalar(), Some(&Value::Int(2_000 * 2_000 / keys)));
        (allocated, bytes)
    };
    // The same 2 000 input rows joining into 20 000, then 200 000 rows:
    // the join is counted, one entry per distinct key and then one, so
    // ten times the joined rows over fewer keys allocate no more.
    let ((once, once_bytes), (tenfold, tenfold_bytes)) = (run(200), run(20));
    assert!(
        tenfold <= once && tenfold_bytes <= once_bytes,
        "10x the joined rows: {once} -> {tenfold} allocations, \
         {once_bytes} -> {tenfold_bytes} bytes"
    );
}

#[test]
fn a_count_over_a_three_way_cross_product_allocates_per_input_row_at_most() {
    // 3 000^3 joined rows: built, their index tuples alone would take
    // 324 GB; counted, each step keeps one entry.
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    let rows = (0..3_000).map(|i| vec![Value::Int(i)]);
    let catalog = db.catalog_mut();
    catalog.table_mut("t").unwrap().insert_all(rows).unwrap();
    let sql = "SELECT COUNT(*) FROM t x, t y, t z";
    let (rs, allocated, bytes) = allocations_and_bytes(|| db.query(sql).unwrap());
    assert_eq!(rs.scalar(), Some(&Value::Int(27_000_000_000)));
    assert!(bytes < 3_000 * 8, "{allocated} allocations, {bytes} bytes");
}

#[test]
fn a_bulk_insert_allocates_per_row_and_per_string_literal() {
    // Past the change log's 4 096-row window, so the batch is not copied
    // into the log. Lexing borrows every literal's text, the VALUES
    // items are one vector, and each value moves from its token into its
    // row: what is left is the row's own block and each string's.
    let run = |rows: usize| {
        let values: Vec<String> = (0..rows).map(|i| format!("({i}, 'item{i}')")).collect();
        let sql = format!("INSERT INTO B VALUES {}", values.join(", "));
        let mut db = Database::new();
        db.execute("CREATE TABLE B (tr INT, item VARCHAR)").unwrap();
        let (done, allocated) = allocations(|| db.execute(&sql).unwrap());
        assert_eq!(done.rows_affected, rows);
        allocated
    };
    for rows in [5_000, 20_000] {
        let allocated = run(rows);
        // Per statement: a few blocks, and the token, item and row-list
        // vectors grown by doubling (a few dozen reallocations at most).
        let per_statement = 64;
        assert!(
            allocated <= (2 * rows + per_statement) as u64,
            "{rows} rows with one string each: {allocated} allocations"
        );
    }
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

/// `N(k, v)`: `rows` INT-only rows over ten distinct `k`s, `v` a
/// permutation of `0..rows` that is neither ascending nor descending.
fn ints(rows: i64) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE N (k INT, v INT)").unwrap();
    let n = (0..rows).map(|i| vec![Value::Int(i % 10), Value::Int((i * 7_919) % rows)]);
    let catalog = db.catalog_mut();
    catalog.table_mut("N").unwrap().insert_all(n).unwrap();
    db
}

#[test]
fn a_cutting_select_allocates_per_kept_row_not_per_input_row() {
    for (sql, kept) in [
        ("SELECT k, v FROM N ORDER BY v DESC, k LIMIT 20", 20),
        ("SELECT v, k FROM N ORDER BY k, v LIMIT 20", 20),
        ("SELECT DISTINCT k FROM N", 10),
        ("SELECT DISTINCT k FROM N ORDER BY k DESC LIMIT 3", 3),
    ] {
        let run = |rows: i64| {
            let mut db = ints(rows);
            let (rs, allocated) = allocations(|| db.query(sql).unwrap());
            assert_eq!(rs.len(), kept, "{sql}");
            allocated
        };
        let (small, large) = (run(2_000), run(20_000));
        assert!(
            large < small * 2,
            "{sql}: 10x the input rows: {small} -> {large} allocations"
        );
    }
}
