//! `durable_dml`: the paged backend as shipped — default
//! `StorageConfig`, fsync on commit — doing what a SQL server does when
//! nobody mines: bulk load, point DML, analytic queries, growth past the
//! page cache, checkpoint, journal inserts, crash (drop without
//! checkpoint) and recovery. One operation is one whole pass in a fresh
//! directory. The only workload where `storage`, `sql` and raw `exec` do
//! most of the work and the mining kernel none.
//!
//! Two tables. The store logs a changed table whole, so one statement
//! against `Baskets` logs more than the 1 MiB past which it checkpoints
//! itself and never leaves anything in the log. The inserts after the
//! checkpoint therefore go to the small `Journal` table: their records
//! stay in the log, and the reopen after the crash has to replay them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use datagen::rng::Rng;
use relational::{Database, ExecStats, Value};

use crate::cold::record_parse_cost;
use crate::data::{self, Dataset, Fingerprint, Sizes};
use crate::host::Probe;
use crate::run::{bytes_written, ms, ratio, spanned, Outcome, RunConfig};
use crate::stats;
use crate::trace::Recorder;

/// `(rows, FNV-1a)` of the base dataset and the row count a pass must
/// leave behind in the two tables together, at full scale.
const PINNED_DATASET: Fingerprint = (37_584, 0x1d8d_66da_f302_4e46);
const PINNED_FINAL_ROWS: usize = 42_119;

/// Added to a loaded row's basket number to make its growth copy.
const GROWTH_KEY_OFFSET: i64 = 3_000_000;

const QUERY_KINDS: [&str; 5] = ["needle", "distinct", "groupby", "join", "orderby"];

type Row = (i64, String);

/// Bytes of user data in one row: the integer plus the item text.
fn user_bytes(row: &Row) -> u64 {
    8 + row.1.len() as u64
}

/// Everything a pass executes and must answer, generated once from the
/// seed during set-up.
struct Plan {
    load_rows: usize,
    load: Vec<String>,
    inserts: Vec<String>,
    updates: Vec<String>,
    deletes: Vec<String>,
    queries: [String; 5],
    /// Bulk inserts after the queries: they take `Baskets` past the page
    /// cache.
    growth: Vec<String>,
    /// Single-row inserts into `Journal` after the checkpoint, left in
    /// the WAL for recovery.
    tail: Vec<String>,
    query_reps: usize,
    expected: Expected,
}

/// Reference answers, from a model of the table kept beside the
/// statements: what the queries must return and what recovery must find.
struct Expected {
    needle_rows: usize,
    distinct_items: usize,
    join_rows: i64,
    /// First row of `ORDER BY item, tr`, and how many rows `LIMIT 20` yields.
    first_in_order: Option<(String, i64)>,
    limited_rows: usize,
    /// User bytes inserted by the bulk load and the point inserts.
    user_bytes_inserted: u64,
    /// User bytes live when the checkpoint runs.
    live_user_bytes: u64,
    /// Every acknowledged row of each table, sorted: what recovery must
    /// find.
    recovered_baskets: Vec<Row>,
    recovered_journal: Vec<Row>,
}

fn bulk_insert(rows: &[Row], chunk_rows: usize) -> Vec<String> {
    rows.chunks(chunk_rows)
        .map(|chunk| {
            let values: Vec<String> = chunk
                .iter()
                .map(|(tr, item)| format!("({tr}, '{item}')"))
                .collect();
            format!("INSERT INTO Baskets VALUES {}", values.join(", "))
        })
        .collect()
}

fn plan(dataset: &Dataset, sizes: &Sizes, seed: u64) -> Plan {
    let Dataset::Quest(quest) = dataset else {
        unreachable!("the durable workload loads Quest baskets")
    };
    let mut rng = Rng::seed_from_u64(seed ^ 0xd0ab_1e00);
    let mut model: Vec<Row> = quest
        .rows()
        .map(|(tr, item)| (tr, format!("i{item:05}")))
        .collect();
    let load_rows = model.len();
    let load = bulk_insert(&model, sizes.load_chunk_rows);
    // A fixed number of rows, whatever the seed made the first baskets.
    let growth_rows: Vec<Row> = model[..sizes.durable_growth_rows.min(load_rows)]
        .iter()
        .map(|(tr, item)| (tr + GROWTH_KEY_OFFSET, item.clone()))
        .collect();
    let needle = 1 + rng.gen_below(quest.transactions.len() as u64) as i64;
    // Point statements address baskets of their own, one row each, so
    // every UPDATE and DELETE below touches exactly one row.
    let mut single = |table: &str, key: i64, model: &mut Vec<Row>| {
        let item = format!("i{:05}", rng.gen_below(u64::from(quest.config.items)));
        let statement = format!("INSERT INTO {table} VALUES ({key}, '{item}')");
        model.push((key, item));
        statement
    };
    let inserts: Vec<String> = (0..sizes.durable_inserts as i64)
        .map(|i| single("Baskets", 1_000_000 + i, &mut model))
        .collect();
    let user_bytes_inserted = model.iter().map(user_bytes).sum();
    let updates = (0..sizes.durable_updates as i64)
        .map(|i| {
            let (key, item) = (1_000_000 + i, format!("u{i:05}"));
            for row in model.iter_mut().filter(|row| row.0 == key) {
                row.1.clone_from(&item);
            }
            format!("UPDATE Baskets SET item = '{item}' WHERE tr = {key}")
        })
        .collect();
    let deletes = (0..sizes.durable_deletes as i64)
        .map(|i| {
            let key = 1_000_000 + sizes.durable_inserts as i64 - 1 - i;
            model.retain(|row| row.0 != key);
            format!("DELETE FROM Baskets WHERE tr = {key}")
        })
        .collect();

    // The table as the queries see it.
    let mut basket_sizes = BTreeMap::new();
    for row in &model {
        *basket_sizes.entry(row.0).or_insert(0i64) += 1;
    }
    let mut expected = Expected {
        needle_rows: model.iter().filter(|row| row.0 == needle).count(),
        distinct_items: model
            .iter()
            .map(|row| &row.1)
            .collect::<BTreeSet<_>>()
            .len(),
        join_rows: basket_sizes.values().map(|n| n * n).sum(),
        first_in_order: model.iter().map(|row| (row.1.clone(), row.0)).min(),
        limited_rows: model.len().min(20),
        user_bytes_inserted,
        live_user_bytes: model.iter().chain(&growth_rows).map(user_bytes).sum(),
        recovered_baskets: Vec::new(),
        recovered_journal: Vec::new(),
    };
    let growth = bulk_insert(&growth_rows, sizes.load_chunk_rows);
    model.extend(growth_rows);
    let mut journal = Vec::new();
    let tail: Vec<String> = (0..sizes.durable_tail_inserts as i64)
        .map(|i| single("Journal", 2_000_000 + i, &mut journal))
        .collect();
    model.sort();
    journal.sort();
    expected.recovered_baskets = model;
    expected.recovered_journal = journal;
    Plan {
        load_rows,
        load,
        inserts,
        updates,
        deletes,
        queries: [
            format!("SELECT tr, item FROM Baskets WHERE tr = {needle}"),
            "SELECT DISTINCT item FROM Baskets".to_string(),
            "SELECT item, COUNT(*) FROM Baskets GROUP BY item".to_string(),
            "SELECT COUNT(*) FROM Baskets a, Baskets b WHERE a.tr = b.tr".to_string(),
            "SELECT tr, item FROM Baskets ORDER BY item, tr LIMIT 20".to_string(),
        ],
        growth,
        tail,
        query_reps: sizes.durable_query_reps,
        expected,
    }
}

/// Measurements of one pass.
#[derive(Default)]
struct Pass {
    total_ms: f64,
    load_ms: f64,
    insert_ms: Vec<f64>,
    update_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    query_ms: [Vec<f64>; 5],
    checkpoint_ms: f64,
    recovery_ms: f64,
    /// `wchar` over load + point DML.
    dml_bytes_written: u64,
    insert_bytes_written: u64,
    pass_bytes_written: u64,
    heap_bytes: u64,
    wal_bytes_at_crash: u64,
    rows_scanned_by_queries: u64,
    rows_returned_by_queries: u64,
    final_rows: usize,
    /// Counters of the database that did the work, and of the one that
    /// recovered it.
    worked: ExecStats,
    recovered: ExecStats,
}

/// How strongly a pass follows the host reference (`host.rs`): less than
/// the in-memory workloads' 0.5, because a third of a pass is file I/O,
/// which the reference does not feel. Fitted over the same runs.
const PASS_EXPONENT: f64 = 0.35;

fn file_len(dir: &Path, name: &str) -> u64 {
    std::fs::metadata(dir.join(name)).map_or(0, |m| m.len())
}

/// One pass in the fresh directory `dir`. `None` when a statement failed
/// (already tallied in `out`). A pass takes seconds, long enough for the
/// host to change under it, so with `probe` the host reference is read at
/// every phase boundary; the readings' own time is not the pass's.
fn pass(
    plan: &Plan,
    dir: &Path,
    out: &mut Outcome,
    mut rec: Option<&mut Recorder>,
    mut probe: Option<&mut Probe>,
) -> Option<Pass> {
    let probing_before = probe.as_ref().map_or(0.0, |p| p.spent_ms());
    let mut read_host = || {
        if let Some(probe) = probe.as_mut() {
            probe.reading();
        }
    };
    let mut p = Pass::default();
    let expected = &plan.expected;
    if let Some(r) = rec.as_mut() {
        r.next_op();
    }
    let root = rec.as_mut().map(|r| r.open("pass"));
    let written_at_start = bytes_written();
    let start = Instant::now();

    let (opened, _) = spanned(&mut rec, "storage.open", || Database::open_paged(dir));
    let mut db = out.attempt("open_paged", opened)?;
    for table in ["Baskets", "Journal"] {
        out.attempt(
            "create table",
            db.execute(&format!("CREATE TABLE {table} (tr INT, item VARCHAR)")),
        )?;
    }

    let load_start = Instant::now();
    for statement in &plan.load {
        let (result, _) = spanned(&mut rec, "sql.load", || db.execute(statement));
        out.attempt("bulk insert", result)?;
    }
    p.load_ms = ms(load_start.elapsed());
    read_host();

    let before_inserts = bytes_written();
    for statement in &plan.inserts {
        let (result, elapsed) = spanned(&mut rec, "dml.insert", || db.execute(statement));
        out.attempt("insert", result)?;
        p.insert_ms.push(elapsed);
    }
    p.insert_bytes_written = bytes_written() - before_inserts;
    for (statements, name, samples) in [
        (&plan.updates, "dml.update", &mut p.update_ms),
        (&plan.deletes, "dml.delete", &mut p.delete_ms),
    ] {
        for statement in statements {
            let (result, elapsed) = spanned(&mut rec, name, || db.execute(statement));
            let done = out.attempt(name, result)?;
            out.check(done.rows_affected == 1, || {
                format!("{statement}: {} rows affected", done.rows_affected)
            });
            samples.push(elapsed);
        }
    }
    p.dml_bytes_written = bytes_written() - written_at_start;
    read_host();

    let scanned_before = db.stats().rows_scanned;
    for _ in 0..plan.query_reps {
        for (kind, query) in plan.queries.iter().enumerate() {
            let name = format!("sql.query.{}", QUERY_KINDS[kind]);
            let (result, elapsed) = spanned(&mut rec, &name, || db.query(query));
            let rs = out.attempt("analytic query", result)?;
            p.query_ms[kind].push(elapsed);
            p.rows_returned_by_queries += rs.len() as u64;
            let ok = match kind {
                0 => rs.len() == expected.needle_rows,
                1 | 2 => rs.len() == expected.distinct_items,
                3 => rs.scalar() == Some(&Value::Int(expected.join_rows)),
                _ => {
                    let first = rs
                        .rows()
                        .first()
                        .map(|row| (row[1].to_string(), row[0].clone()));
                    rs.len() == expected.limited_rows
                        && first
                            == expected
                                .first_in_order
                                .as_ref()
                                .map(|(item, tr)| (item.clone(), Value::Int(*tr)))
                }
            };
            out.check(ok, || format!("wrong answer to: {query}"));
        }
    }
    p.rows_scanned_by_queries = db.stats().rows_scanned - scanned_before;
    read_host();

    for statement in &plan.growth {
        let (result, _) = spanned(&mut rec, "sql.growth", || db.execute(statement));
        out.attempt("growth insert", result)?;
    }

    let (result, elapsed) = spanned(&mut rec, "storage.checkpoint", || db.checkpoint());
    out.attempt("checkpoint", result)?;
    p.checkpoint_ms = elapsed;
    p.heap_bytes = file_len(dir, "heap.tcdm");
    read_host();

    // Acknowledged but not checkpointed: these must survive the crash.
    for statement in &plan.tail {
        let (result, _) = spanned(&mut rec, "dml.journal", || db.execute(statement));
        out.attempt("insert after checkpoint", result)?;
    }
    p.worked = db.stats();
    drop(db); // the crash: no checkpoint, no clean shutdown
    p.wal_bytes_at_crash = file_len(dir, "wal.tcdm");
    read_host();

    let (result, elapsed) = spanned(&mut rec, "storage.recovery", || {
        let mut db = Database::open_paged(dir)?;
        let rs = db.query("SELECT COUNT(*) FROM Baskets")?;
        Ok::<_, relational::Error>((db, rs))
    });
    let (mut db, count) = out.attempt("reopen after crash", result)?;
    p.recovery_ms = elapsed;
    let probing = probe.as_ref().map_or(0.0, |p| p.spent_ms()) - probing_before;
    p.total_ms = ms(start.elapsed()) - probing;
    p.pass_bytes_written = bytes_written() - written_at_start;
    if let (Some(r), Some(root)) = (rec.as_mut(), root) {
        r.close(root);
    }
    p.recovered = db.stats();

    // The reopen had a log to replay, and replayed it.
    out.check(
        p.wal_bytes_at_crash > 0 && p.recovered.storage_recoveries == 1,
        || {
            format!(
                "the crash left {} bytes of WAL and the reopen made {} recoveries",
                p.wal_bytes_at_crash, p.recovered.storage_recoveries
            )
        },
    );
    // Durability: the recovered multiset is every acknowledged write.
    let acknowledged = expected.recovered_baskets.len();
    out.check(
        count.scalar() == Some(&Value::Int(acknowledged as i64)),
        || {
            format!(
                "recovered {:?} rows, acknowledged {acknowledged}",
                count.scalar()
            )
        },
    );
    for (table, acknowledged) in [
        ("Baskets", &expected.recovered_baskets),
        ("Journal", &expected.recovered_journal),
    ] {
        let rows = out.attempt(
            "reading a recovered table",
            db.query(&format!("SELECT tr, item FROM {table}")),
        )?;
        let mut recovered: Vec<Row> = rows
            .rows()
            .iter()
            .map(|row| match &row[0] {
                Value::Int(tr) => (*tr, row[1].to_string()),
                other => (i64::MIN, other.to_string()),
            })
            .collect();
        recovered.sort();
        out.check(&recovered == acknowledged, || {
            format!("the recovered rows of {table} are not the acknowledged rows")
        });
        p.final_rows += recovered.len();
    }
    Some(p)
}

/// A directory of its own per pass under `std::env::temp_dir()` (which
/// `main` points inside the start directory), removed afterwards.
fn pass_in_fresh_dir(
    plan: &Plan,
    serial: &mut usize,
    out: &mut Outcome,
    rec: Option<&mut Recorder>,
    probe: Option<&mut Probe>,
) -> Option<Pass> {
    *serial += 1;
    let dir = std::env::temp_dir().join(format!(
        "tcdm_bench_durable_{}_{serial}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = pass(plan, &dir, out, rec, probe);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) {
    let (dataset, fingerprint, plan) = cfg.set_up(out, |times| {
        let (dataset, fingerprint) =
            times.generate(|| data::sparse_quest(cfg.sizes.durable_baskets), cfg.seed);
        let plan = plan(&dataset, &cfg.sizes, cfg.seed);
        (dataset, fingerprint, plan)
    });
    out.set("datagen.rows", dataset.rows() as f64);
    if !cfg.sizes.quick {
        out.check_pin("dataset", PINNED_DATASET, fingerprint);
    }

    let mut serial = 0;
    // Warm-up pass: its timings are discarded, its exact counts kept.
    let Some(first) = pass_in_fresh_dir(&plan, &mut serial, out, None, None) else {
        return;
    };
    if !cfg.sizes.quick {
        out.check(first.final_rows == PINNED_FINAL_ROWS, || {
            format!(
                "a pass left {} rows, pinned {PINNED_FINAL_ROWS}",
                first.final_rows
            )
        });
    }
    let mut passes = Vec::new();
    // Pass times at quiet-host speed: what `op_ms` is the median of.
    let mut op = Vec::new();
    let mut probe = Probe::start(PASS_EXPONENT);
    let mut budget = cfg.budget(cfg.untraced_share());
    while budget.more() {
        match pass_in_fresh_dir(&plan, &mut serial, out, None, Some(&mut probe)) {
            Some(p) => {
                op.push(p.total_ms * probe.factor());
                passes.push(p);
            }
            None => return,
        }
    }

    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let pooled = |f: &dyn Fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    out.set_op_ms(&op, &probe);
    let point: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.insert_ms
                .iter()
                .chain(&p.update_ms)
                .chain(&p.delete_ms)
                .copied()
        })
        .collect();
    out.set_median("dml_stmt_ms", &point);
    out.set("dml_stmt_ms.p_tail", stats::tail(&point).1);
    out.set(
        "table.insert_us",
        stats::median(&pooled(&|p| &p.insert_ms)) * 1e3,
    );
    out.set("table.update_ms", stats::median(&pooled(&|p| &p.update_ms)));
    out.set("table.delete_ms", stats::median(&pooled(&|p| &p.delete_ms)));
    let mut query_total = 0.0;
    for (kind, name) in QUERY_KINDS.iter().enumerate() {
        let samples: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.query_ms[kind].iter().copied())
            .collect();
        out.set_median(&format!("exec.query_ms.{name}"), &samples);
        query_total += stats::median(&samples);
    }
    out.set("sql_query_ms", query_total);
    out.samples
        .insert("sql_query_ms", passes.len() * plan.query_reps);
    out.set_median(
        "ingest_rows_per_s",
        &per_pass(&|p| ratio(plan.load_rows as f64, p.load_ms / 1e3)),
    );
    out.set_median("recovery_ms", &per_pass(&|p| p.recovery_ms));
    out.set_median("datagen.load_ms", &per_pass(&|p| p.load_ms));
    out.set_median("storage.checkpoint_ms", &per_pass(&|p| p.checkpoint_ms));

    // Exact counts, from the first pass (every pass repeats them).
    out.set(
        "write_amp",
        ratio(
            first.dml_bytes_written as f64,
            plan.expected.user_bytes_inserted as f64,
        ),
    );
    out.set_relational(ExecStats::default(), first.worked);
    out.set(
        "storage.page_reads",
        (first.worked.storage_page_reads + first.recovered.storage_page_reads) as f64,
    );
    out.set(
        "storage.cache_hits",
        (first.worked.storage_cache_hits + first.recovered.storage_cache_hits) as f64,
    );
    out.set(
        "storage.cache_evictions",
        (first.worked.storage_cache_evictions + first.recovered.storage_cache_evictions) as f64,
    );
    out.set("storage.bytes_written", first.pass_bytes_written as f64);
    out.set(
        "storage.bytes_per_insert",
        ratio(first.insert_bytes_written as f64, plan.inserts.len() as f64),
    );
    out.set(
        "storage.fsyncs_per_stmt",
        ratio(
            first.worked.storage_wal_fsyncs as f64,
            first.worked.statements as f64,
        ),
    );
    out.set(
        "storage.heap_bytes_per_user_byte",
        ratio(
            first.heap_bytes as f64,
            plan.expected.live_user_bytes as f64,
        ),
    );
    out.set(
        "storage.recovered_wal_bytes",
        first.wal_bytes_at_crash as f64,
    );
    out.set(
        "exec.rows_examined_per_result",
        ratio(
            first.rows_scanned_by_queries as f64,
            first.rows_returned_by_queries as f64,
        ),
    );

    if !cfg.trace {
        return;
    }
    let mut rec = Recorder::default();
    let mut traced = Vec::new();
    let mut budget = cfg.budget(0.5);
    while budget.more() {
        match pass_in_fresh_dir(&plan, &mut serial, out, Some(&mut rec), None) {
            Some(p) => traced.push(p.total_ms),
            None => return,
        }
    }
    let untraced = stats::median(&per_pass(&|p| p.total_ms));
    out.set(
        "trace.overhead_pct",
        100.0 * ratio(stats::median(&traced) - untraced, untraced),
    );
    out.set("trace.coverage_pct", 100.0 * rec.child_coverage("pass"));
    record_parse_cost(&plan.load, out);
    out.trace = Some(rec);
}
