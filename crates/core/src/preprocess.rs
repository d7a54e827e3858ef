//! The preprocessor (§4.2): runs the translator's SQL program against the
//! SQL server, producing the encoded tables the core operator works on.
//!
//! Every statement whose FROM is one base table — whatever its
//! directives — runs as **one fused in-memory pass** instead of up to
//! seventeen SQL statements: a single scan of the source evaluates the
//! source condition and interns the group, cluster, body, head and
//! mining-attribute keys in first-seen order, and every encoded table is
//! derived from that record without the intermediate artefacts (`Source`,
//! `ValidGroupsView`, `DistinctGroupsIn*`, `InputRulesRaw`, `LargeRules`)
//! ever materialising. The tables only SQL reads are registered deferred
//! (`crate::deferred`): their rows are built on first access. The
//! encoded outputs, the `:totg`/`:mingroups`
//! bindings and the id-sequence states are bit-identical to the
//! step-by-step SQL program — schema, row contents *and* row order —
//! which `tests/planner_agreement.rs` enforces. Every other statement,
//! every statement on the database's reference paths
//! ([`Database::set_reference_paths`]), and every statement whose fused
//! pass fails runs `Qi` step by step.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use relational::catalog::TableEntry;
use relational::exec::join::conjuncts;
use relational::exec::select::{infer_type, value_type};
use relational::expr::eval::{eval_grouped, NoCtx, QueryCtx};
use relational::expr::Expr;
use relational::sequence::Sequence;
use relational::{
    Column, CompiledExpr, DataType, Database, DeferredTable, ExecCounter, KeyHash, KeyInterner,
    Row, RowProducer, Schema, Table, Value,
};

use crate::algo::GroupArena;
use crate::ast::MineRuleStatement;
use crate::deferred::{
    tuple_ids, ClustersRows, Coded, CodedSourceRows, GroupKeys, IdRows, MiningSourceRows, Pairs,
    ValidGroupsRows,
};
use crate::digest::SourceDigest;
use crate::directives::{Directives, StatementClass};
use crate::encoded::{id_u32, ElemRule, EncodedData, EncodedInput, GeneralTuple};
use crate::error::{MineError, Result};
use crate::pair_cond::{ByGroup, Couples, PairCond, SideRow};
use crate::runs::{pack, radix_sort};
use crate::translator::queries::{
    cluster_aggregates, cluster_pair_cond, mining_pair_cond, CLUSTER_SIDES, MINING_SIDES,
};
use crate::translator::{Step, Translation};

/// Timing/row-count breakdown of a preprocessing run, used by the
/// benchmark harness (experiment E2/E3) and exposed for curiosity.
#[derive(Debug, Clone, Default)]
pub struct PreprocessReport {
    /// `(query id, statement count)` per executed step.
    pub executed: Vec<(String, usize)>,
    /// Total number of groups in the source (`:totg`).
    pub total_groups: u64,
    /// The absolute large-element threshold (`:mingroups`).
    pub min_groups: u64,
    /// How many SQL statements of the translated program were subsumed by
    /// the fused pipelined pass (0 when preprocessing ran step by step).
    pub fused_steps: usize,
    /// `Q7`'s cluster pairs and `Q8`'s mining pairs as the fused pass
    /// paired them; zero when the step did not run fused.
    pub cluster_pairs: PairCounts,
    pub mining_pairs: PairCounts,
    /// Evaluations of those two conditions' compiled parts.
    pub cond_evaluated: u64,
    /// The grouped source as the fused pass's scan interned it, for the
    /// session artifact store to keep an inventory over without a second
    /// read. `None` when no scan ran (step-by-step preprocessing, a
    /// restored encoding) and for every statement with a directive set.
    pub digest: Option<Arc<SourceDigest>>,
}

/// Pairs of rows a pair condition was evaluated on, and the rows the
/// step kept (`ClusterCouples`, or the DISTINCT `InputRulesRaw` rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct PairCounts {
    pub evaluated: u64,
    pub kept: u64,
}

/// What a preprocessing run hands the core: its report and, beside it,
/// the core's input when the run built one.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    pub report: PreprocessReport,
    /// The core's input from the fused pass's own record — or as the
    /// artifact store kept it, on a restore. `None` after the stepwise
    /// program: the core then reads the encoded tables back.
    pub(crate) input: Option<Handover>,
}

/// The core's input as the fused pass hands it over.
#[derive(Debug, Clone)]
pub(crate) enum Handover {
    /// Built by the pass, under the thresholds of the run that built it.
    Built(Arc<EncodedInput>),
    /// A statement with a digest — the one kind the artifact store's
    /// inventory answers without mining — has its input built only when
    /// the core mines, from the digest's per-group item lists.
    Digest(Arc<DigestInput>),
}

/// What a simple-class input is built from when a digest holds the
/// groups: each group slot's Gid and each body slot's Bid, where the
/// group joins and the item is large and joins.
#[derive(Debug)]
pub(crate) struct DigestInput {
    digest: Arc<SourceDigest>,
    gids: Vec<Option<u32>>,
    bids: Vec<Option<u32>>,
}

impl DigestInput {
    /// The core's simple-class input: per group that joins, in Gid order,
    /// its large items' Bids ascending — `CodedSource` sorted by `(Gid,
    /// Bid)`, a group without a large item left out. Ids are drawn in
    /// slot and item-id order, so the digest's runs, walked in slot
    /// order, already are: the arena is filled front to back.
    fn large_items(&self) -> GroupArena {
        let mut groups = GroupArena::with_capacity(self.gids.len(), self.digest.live_pairs());
        for (slot, gid) in (0..).zip(&self.gids) {
            let Some(gid) = *gid else { continue };
            for item in self.digest.items_of(slot) {
                if let Some(bid) = self.bids[item as usize] {
                    groups.push(bid);
                }
            }
            groups.close_unless_empty(gid);
        }
        groups
    }
}

impl Handover {
    /// Rough retained size, for the artifact store's bytes gauge (a
    /// digest is counted by the inventory that shares it).
    pub(crate) fn approx_bytes(&self) -> u64 {
        match self {
            Handover::Built(input) => input.approx_bytes(),
            Handover::Digest(record) => 64 + (record.gids.len() + record.bids.len()) as u64 * 8,
        }
    }
}

impl Preprocessed {
    /// The core's input this run handed over, under `translation`'s
    /// thresholds and the report's `:totg` / `:mingroups`: equal to what
    /// [`read_encoded`](crate::encoded::read_encoded) reads back from the
    /// committed tables. `None` when the run handed none over.
    pub fn encoded_input(&self, translation: &Translation) -> Result<Option<Arc<EncodedInput>>> {
        let (total_groups, min_groups) = (self.report.total_groups, self.report.min_groups);
        let input = match &self.input {
            None => return Ok(None),
            Some(Handover::Built(input)) => input.stamped(translation, total_groups, min_groups)?,
            Some(Handover::Digest(record)) => {
                let data = EncodedData::Simple {
                    groups: record.large_items(),
                };
                Arc::new(EncodedInput::new(
                    translation,
                    total_groups,
                    min_groups,
                    data,
                )?)
            }
        };
        Ok(Some(input))
    }
}

/// Run a sequence of translation steps on the database.
pub fn run_steps(db: &mut Database, steps: &[Step], min_support: f64) -> Result<PreprocessReport> {
    let mut report = PreprocessReport::default();
    for step in steps {
        match step {
            Step::Sql { id, sql } => {
                let outcome = db.execute(sql).map_err(|e| annotate(e, id, sql))?;
                report
                    .executed
                    .push((id.clone(), outcome.rows_affected.max(1)));
            }
            Step::ComputeMinGroups => {
                let totg = match db.var("totg") {
                    Some(Value::Int(n)) => *n,
                    other => {
                        return Err(MineError::Internal {
                            message: format!(":totg not set before ComputeMinGroups: {other:?}"),
                        })
                    }
                };
                let min_groups = min_groups_for(totg as u64, min_support);
                db.set_var("mingroups", Value::Int(min_groups as i64));
                report.total_groups = totg as u64;
                report.min_groups = min_groups;
            }
        }
    }
    Ok(report)
}

/// The smallest group count that satisfies `count / totg >= min_support`,
/// never below 1 (a rule must occur somewhere).
pub fn min_groups_for(total_groups: u64, min_support: f64) -> u64 {
    let raw = (total_groups as f64 * min_support).ceil() as u64;
    raw.max(1)
}

/// Run the full preprocessing phase of a translation: cleanup first, then
/// `Q0`..`Q11` — as one fused in-memory pass when the statement qualifies
/// (see [`fusible`]) and the database is not on its reference paths.
///
/// Whatever fails inside the fused pass — a condition that errors at run
/// time, an object name the cleanup could not free — its work is
/// discarded and the stepwise program runs: that program's error is the
/// statement's error, and the catalog is left as it leaves it.
pub fn preprocess(db: &mut Database, translation: &Translation) -> Result<PreprocessReport> {
    preprocess_for_core(db, translation).map(|run| run.report)
}

/// [`preprocess`], also handing over the core's input when the fused pass
/// built it.
pub fn preprocess_for_core(db: &mut Database, translation: &Translation) -> Result<Preprocessed> {
    let min_support = translation.stmt.min_support;
    run_steps(db, &translation.cleanup, min_support)?;
    if !db.reference_paths() && fusible(translation) {
        if let Ok(run) = run_fused(db, translation) {
            return Ok(run);
        }
        // The pass touches the catalog only to commit, and a commit stops
        // at the first object it cannot create: drop the ones before it.
        run_steps(db, &translation.cleanup, min_support)?;
    }
    let report = run_steps(db, &translation.preprocess, min_support)?;
    Ok(Preprocessed {
        report,
        input: None,
    })
}

/// Whether the translated program qualifies for the fused pass: its FROM
/// is one base table (so one scan reads the whole source), and no
/// condition reaches back into the engine
/// ([`MineRuleStatement::reads_only_from_tables`]): a subquery, a host
/// variable or a sequence draw needs the SQL server to evaluate. The
/// directives do not matter. Everything else runs the step-by-step SQL
/// program.
pub fn fusible(translation: &Translation) -> bool {
    let stmt = &translation.stmt;
    stmt.from.len() == 1 && stmt.reads_only_from_tables()
}

/// The positions, on the statement's source table, of each attribute
/// list the encoding reads.
pub(crate) struct SourceColumns {
    pub(crate) group: Vec<usize>,
    pub(crate) body: Vec<usize>,
    head: Vec<usize>,
    cluster: Vec<usize>,
    /// The mining condition's attributes (`Mineattlist`).
    mining: Vec<usize>,
}

pub(crate) fn source_columns(table: &Table, stmt: &MineRuleStatement) -> Result<SourceColumns> {
    let resolve = |attrs: &[String]| -> Result<Vec<usize>> {
        attrs
            .iter()
            .map(|a| {
                table
                    .schema()
                    .resolve(None, a)
                    .map_err(|e| MineError::Internal {
                        message: format!("source table lost attribute '{a}': {e}"),
                    })
            })
            .collect()
    };
    Ok(SourceColumns {
        group: resolve(&stmt.group_by)?,
        body: resolve(&stmt.body.schema)?,
        head: resolve(&stmt.head.schema)?,
        cluster: resolve(&stmt.cluster_by)?,
        mining: resolve(&stmt.mining_attributes())?,
    })
}

/// One source row that passed the source condition, as the general scan
/// loop records it: its position in the table and the first-seen slot of
/// each key it carries.
struct Lane {
    row: u32,
    group: u32,
    /// Slot of the `(group, cluster key)` combination; 0 without C.
    cluster: u32,
    body: u32,
    /// Equal to `body` without H.
    head: u32,
    /// Slot of the mining-attribute tuple; 0 without M.
    mining: u32,
}

/// What one scan of a statement's source yields: the first-seen-order
/// record the fused pass encodes from and — for a statement without
/// directives — what a [`SourceDigest`] is assembled from.
pub(crate) struct SourceScan {
    /// The source-table version scanned.
    version: u64,
    /// Group and body keys by slot: first-seen order, the bucket order the
    /// SQL engine's hash GROUP BY and DISTINCT produce.
    groups: KeyInterner,
    bodies: KeyInterner,
    /// The distinct `(group slot, body slot)` pairs in first-seen order.
    pairs: Vec<(u32, u32)>,
    /// Only for a statement without directives: one entry per further
    /// source row of a pair (a duplicate up to the columns read — rare, so
    /// the per-row work stays one freshness check).
    repeats: Option<Vec<(u32, u32)>>,
    /// The rest is what only a statement with directives records. Head
    /// keys and the distinct `(group slot, head slot)` pairs (H); cluster
    /// keys and the `(group slot, cluster-key slot)` combinations (C);
    /// mining-attribute tuples (M); one lane per surviving row.
    heads: KeyInterner,
    head_pairs: Vec<(u32, u32)>,
    cluster_keys: KeyInterner,
    cluster_order: Vec<(u32, u32)>,
    minings: KeyInterner,
    lanes: Vec<Lane>,
    /// Rows read, and rows the source condition dropped.
    pub(crate) rows: u64,
    filtered: u64,
}

impl SourceScan {
    /// The scan as a replayable digest, its interners moved in: `None`
    /// for a statement with a directive set.
    pub(crate) fn into_digest(mut self) -> Option<SourceDigest> {
        self.take_digest()
    }

    /// [`SourceScan::into_digest`] of a scan still in use: its
    /// interners and pairs move into the digest.
    fn take_digest(&mut self) -> Option<SourceDigest> {
        let repeats = self.repeats.take()?;
        Some(SourceDigest::new(
            self.version,
            std::mem::replace(&mut self.groups, KeyInterner::new(0)),
            std::mem::replace(&mut self.bodies, KeyInterner::new(0)),
            std::mem::take(&mut self.pairs),
            &repeats,
        ))
    }
}

/// Where a group's rows stand in the scan, for telling a repeated
/// `(group, body)` pair from a fresh one.
#[derive(Clone, Copy)]
enum Run {
    /// The group's rows have been contiguous since its first row: its
    /// pairs are `pairs[start..end]`, `end` set once the run ends.
    First { start: u32, end: u32 },
    /// The group recurred after another group's rows: its pairs are in
    /// the pair set.
    Recurred,
}

/// Identical values — the same type and the same value or bits — so a
/// row whose group key is identical to the previous row's interns to the
/// same slot. Grouping equality is not enough: it is not transitive
/// across INT and FLOAT.
fn identical(a: &Value, b: &Value) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a == b
}

/// Scan the statement's source table once, assigning every key to its
/// first-seen slot. This is the only reader of raw source rows: the fused
/// pass encodes from its record, and the session artifact store keeps its
/// digest (calling it directly only when no fused pass ran at the table's
/// current version).
///
/// Every key is interned by probing with the source row itself
/// ([`KeyInterner`]): a row that repeats its keys copies and allocates
/// nothing. A row whose group key is identical to the previous surviving
/// row's is not even hashed, and a group's pairs stay out of the pair
/// set until the group recurs after another group's rows ([`Run`]).
/// Slots, pairs and repeats come out in the same first-seen order
/// whatever the row order. A statement without directives keeps nothing
/// per row; any directive makes every surviving row leave a [`Lane`],
/// the source condition (W) deciding each row first, evaluated conjunct
/// by conjunct like the pushed-down filters of `Q0`.
pub(crate) fn scan_source(db: &Database, stmt: &MineRuleStatement) -> Result<SourceScan> {
    let table = db.catalog().table(&stmt.from[0].name)?;
    let cols = source_columns(table, stmt)?;
    let dir = Directives::classify(stmt);
    let mut scan = SourceScan {
        version: table.version(),
        groups: KeyInterner::new(cols.group.len()),
        bodies: KeyInterner::new(cols.body.len()),
        pairs: Vec::new(),
        repeats: (dir == Directives::default()).then(Vec::new),
        heads: KeyInterner::new(cols.head.len()),
        head_pairs: Vec::new(),
        cluster_keys: KeyInterner::new(cols.cluster.len()),
        cluster_order: Vec::new(),
        minings: KeyInterner::new(cols.mining.len()),
        lanes: Vec::new(),
        rows: table.row_count() as u64,
        filtered: 0,
    };

    let schema = table.schema().with_qualifier(stmt.from[0].visible_name());
    let source_cond: Vec<CompiledExpr> = stmt
        .source_cond
        .iter()
        .flat_map(conjuncts)
        .map(|c| CompiledExpr::compile(c, &schema, &mut NoCtx))
        .collect();
    // A pair is fresh when its body was not last seen in the same group
    // while that group's rows are still in their first run; only a group
    // that recurs after another group's rows keeps its pairs in a set.
    let mut runs: Vec<Run> = Vec::new();
    let mut last_group_of_body: Vec<u32> = Vec::new();
    let mut seen: HashSet<u64, KeyHash> = HashSet::default();
    let mut head_seen: HashSet<u64, KeyHash> = HashSet::default();
    // A cluster is a group and a cluster key: the key alone is interned
    // first, then the pair of slots.
    let mut cluster_slots: HashMap<u64, u32, KeyHash> = HashMap::default();
    let mut stack = Vec::new();
    let mut previous: Option<(&Row, u32)> = None;
    'rows: for (at, row) in table.rows().iter().enumerate() {
        for conjunct in &source_cond {
            if !conjunct.eval_with(row, &mut NoCtx, &mut stack)?.is_true() {
                scan.filtered += 1;
                continue 'rows;
            }
        }
        let group = match previous {
            Some((prev, group)) if cols.group.iter().all(|&c| identical(&prev[c], &row[c])) => {
                group
            }
            _ => {
                let group = scan.groups.intern(row, &cols.group);
                // A new run, unless the key only differs in type (`1`
                // after `1.0`).
                if previous.map(|(_, g)| g) != Some(group) {
                    if let Some((_, ended)) = previous {
                        if let Run::First { end, .. } = &mut runs[ended as usize] {
                            *end = scan.pairs.len() as u32;
                        }
                    }
                    if group as usize == runs.len() {
                        let start = scan.pairs.len() as u32;
                        runs.push(Run::First { start, end: start });
                    } else if let Run::First { start, end } = runs[group as usize] {
                        let first = &scan.pairs[start as usize..end as usize];
                        seen.extend(first.iter().map(|&(g, b)| pack(g, b)));
                        runs[group as usize] = Run::Recurred;
                    }
                }
                group
            }
        };
        previous = Some((row, group));
        let body = scan.bodies.intern(row, &cols.body);
        if body as usize == last_group_of_body.len() {
            last_group_of_body.push(u32::MAX);
        }
        let fresh = match runs[group as usize] {
            Run::First { .. } => {
                std::mem::replace(&mut last_group_of_body[body as usize], group) != group
            }
            Run::Recurred => seen.insert(pack(group, body)),
        };
        if fresh {
            scan.pairs.push((group, body));
        }
        if let Some(repeats) = &mut scan.repeats {
            if !fresh {
                repeats.push((group, body));
            }
            continue;
        }
        let mut lane = Lane {
            row: at as u32,
            group,
            cluster: 0,
            body,
            head: body,
            mining: 0,
        };
        if dir.h {
            lane.head = scan.heads.intern(row, &cols.head);
            if head_seen.insert(pack(group, lane.head)) {
                scan.head_pairs.push((group, lane.head));
            }
        }
        if dir.c {
            let key = scan.cluster_keys.intern(row, &cols.cluster);
            let next = scan.cluster_order.len() as u32;
            lane.cluster = *cluster_slots.entry(pack(group, key)).or_insert(next);
            if lane.cluster == next {
                scan.cluster_order.push((group, key));
            }
        }
        if dir.m {
            lane.mining = scan.minings.intern(row, &cols.mining);
        }
        scan.lanes.push(lane);
    }
    Ok(scan)
}

/// One catalog object of a finished encoding, under the id of the step
/// that creates it in the SQL program.
enum Encoded {
    /// A table, built or deferred over a producer of its rows.
    Table(Box<TableEntry>),
    /// A statement to run as written (the `CodedSource` view of `Q11`).
    Sql(String),
}

impl Encoded {
    fn built(table: Table) -> Encoded {
        Encoded::Table(Box::new(TableEntry::Table(table)))
    }

    /// A table of `rows` rows whose producer builds them on first access.
    fn deferred(
        name: String,
        columns: Vec<Column>,
        rows: usize,
        producer: impl RowProducer + 'static,
    ) -> Encoded {
        let schema = Schema::new(columns);
        let table = DeferredTable::new(name, schema, rows, Arc::new(producer));
        Encoded::Table(Box::new(TableEntry::Deferred(table)))
    }
}

/// Everything the fused pass produces, computed without touching the
/// catalog: [`FusedEncoding::commit`] is the only writer.
struct FusedEncoding {
    sequences: Vec<Sequence>,
    objects: Vec<(&'static str, Encoded)>,
    report: PreprocessReport,
    /// The core's input, from the same record.
    input: Handover,
    /// Executor work of the scan, accounted at commit.
    work: Vec<(ExecCounter, u64)>,
}

fn no_null(key: &[Value]) -> bool {
    !key.iter().any(Value::is_null)
}

/// An encoded table from its finished rows: one bulk append.
pub(crate) fn table_of(name: String, columns: Vec<Column>, rows: Vec<Row>) -> Result<Table> {
    let mut table = Table::new(name, Schema::new(columns));
    table.insert_all(rows)?;
    Ok(table)
}

/// INT columns under `names` (the id columns of the encoded tables).
pub(crate) fn int_columns(names: &[&str]) -> Vec<Column> {
    names
        .iter()
        .map(|name| Column::new(*name, DataType::Int))
        .collect()
}

/// `<id columns...>, <attrs...>` with the attributes' source types.
fn keyed_columns(ids: &[&str], attrs: &[String], at: &[usize], source: &Schema) -> Vec<Column> {
    let mut columns = int_columns(ids);
    for (attr, &i) in attrs.iter().zip(at) {
        columns.push(Column::new(attr.clone(), source.column(i).dtype));
    }
    columns
}

/// How many groups carry each slot of `slots` slots, from the distinct
/// `(group, slot)` pairs.
fn ngroups_of(pairs: &[(u32, u32)], slots: u32) -> Vec<u64> {
    let mut ngroups = vec![0u64; slots as usize];
    for &(_, item) in pairs {
        ngroups[item as usize] += 1;
    }
    ngroups
}

/// `Q3` / `Q5`: the item table over the item keys in first-seen order,
/// each with the number of groups carrying it. `ngroups` counts over
/// *all* source groups; the large-element filter runs before the
/// projection draws `NEXTVAL`, so only survivors take an id. Returns the
/// rows and, per slot, the id source rows join to (a key holding a NULL
/// is encoded but never joins).
fn item_table<'a>(
    items: impl Iterator<Item = (&'a [Value], u64)>,
    min_groups: u64,
    ids: &mut Sequence,
) -> (Vec<Row>, Vec<Option<i64>>) {
    let mut joins: Vec<Option<i64>> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for (key, ngroups) in items {
        if ngroups < min_groups {
            joins.push(None);
            continue;
        }
        let id = ids.nextval();
        joins.push(no_null(key).then_some(id));
        let mut row = Vec::with_capacity(key.len() + 2);
        row.push(Value::Int(id));
        row.extend_from_slice(key);
        row.push(Value::Int(ngroups as i64));
        rows.push(row);
    }
    (rows, joins)
}

/// The core's simple-class input from a scan's pairs: per group that
/// joins, in Gid order, its large items' Bids ascending — `CodedSource`
/// sorted by `(Gid, Bid)`, a group without a large item left out. `gids`
/// and `bids` hold each slot's id; distinct pairs of slots are distinct
/// pairs of ids, ordered by one radix sort.
fn large_items(pairs: &[(u32, u32)], gids: &[Option<u32>], bids: &[Option<u32>]) -> GroupArena {
    let mut coded: Vec<(u64, u32)> = pairs
        .iter()
        .filter_map(|&(group, body)| Some((pack(gids[group as usize]?, bids[body as usize]?), 0)))
        .collect();
    radix_sort(&mut coded);
    GroupArena::from_sorted(
        coded
            .iter()
            .map(|&(ids, _)| ((ids >> 32) as u32, ids as u32)),
    )
}

/// The source rows of each slot, in source order (the member rows a
/// grouped aggregate reads).
fn members<'a>(
    source: &'a [Row],
    lanes: &[Lane],
    slots: usize,
    slot: impl Fn(&Lane) -> u32,
) -> Vec<Vec<&'a Row>> {
    let mut members: Vec<Vec<&Row>> = vec![Vec::new(); slots];
    for lane in lanes {
        members[slot(lane) as usize].push(&source[lane.row as usize]);
    }
    members
}

impl FusedEncoding {
    /// The fused preprocessing pass.
    ///
    /// One [`scan_source`] pass interns every key; every encoded table is
    /// then derived in memory from that record, in exactly the order (and
    /// with exactly the rows, ids and column types) the written-order SQL
    /// program yields. The subsumed intermediates (`Source`,
    /// `ValidGroupsView`, `DistinctGroupsIn*`, `InputRulesRaw`,
    /// `LargeRules`) are never built, and of the encoded tables only
    /// those something reads here or in the pipeline are: `Bset`/`Hset`.
    /// The others become producers over the record — `Clusters` and
    /// `MiningSource` too: the pair conditions read ids and key slots
    /// ([`PairCond`]), not rows. A statement without directives is the
    /// degenerate case: no condition, no cluster, head or mining part,
    /// `CodedSource` the distinct `(group, body)` pairs.
    ///
    /// Conditions are evaluated on a superset of the rows the SQL program
    /// evaluates them on — a pair condition's parts once per distinct key,
    /// or pair of keys, those rows carry — so whenever that program fails
    /// at run time this function fails too (and [`preprocess`] lets the
    /// program report).
    fn compute(db: &Database, translation: &Translation) -> Result<FusedEncoding> {
        let stmt = &translation.stmt;
        let names = &translation.names;
        let dir = translation.directives;
        let table = db.catalog().table(&stmt.from[0].name)?;
        let source = table.rows();
        let cols = source_columns(table, stmt)?;
        if let Some(name) = float_attribute_with_ints(table.schema(), stmt, source)? {
            return Err(MineError::Internal {
                message: format!("FLOAT attribute '{name}' stores INT values"),
            });
        }

        let mut scan = scan_source(db, stmt)?;
        let mut work = vec![
            (
                ExecCounter::RowsScanned,
                scan.lanes.len() as u64 + scan.filtered,
            ),
            (ExecCounter::RowsFiltered, scan.filtered),
        ];
        work.retain(|&(_, n)| n > 0);
        // Without directives the scan is a digest, and the encoding is
        // what the digest derives.
        if let Some(digest) = scan.take_digest() {
            let mut encoding = FusedEncoding::derive(translation, table, Arc::new(digest))?;
            encoding.report.fused_steps = fused_steps(translation);
            encoding.work = work;
            return Ok(encoding);
        }
        let mut report = PreprocessReport::default();

        // The id sequences are real catalog objects once committed: draws
        // advance the state the SQL program would leave, so cache captures
        // and later runs over the same prefix agree bit for bit.
        let mut gid_seq = Sequence::new(names.gid_sequence(), 1, 1);
        let mut bid_seq = Sequence::new(names.bid_sequence(), 1, 1);
        let mut hid_seq = Sequence::new(names.hid_sequence(), 1, 1);
        let mut cid_seq = Sequence::new(names.cid_sequence(), 1, 1);

        // Q1 + ComputeMinGroups: every group counts, valid or not.
        let total_groups = u64::from(scan.groups.slots());
        let min_groups = min_groups_for(total_groups, stmt.min_support);
        report.total_groups = total_groups;
        report.min_groups = min_groups;

        // What the group and cluster conditions see: the rows of `Source`
        // (W) or of the table itself, under that name.
        let src_name = if dir.w {
            names.source()
        } else {
            stmt.from[0].name.clone()
        };
        let src_schema = table.schema().with_qualifier(&src_name);
        let group_exprs: Vec<Expr> = stmt.group_by.iter().map(Expr::col).collect();

        // Q2: ValidGroups — groups in first-seen order, the group HAVING
        // (G/R) a filter over each group's member rows, Gid drawn per
        // surviving row. A group whose key holds a NULL is encoded but
        // never joins. Its rows are deferred (built at the end).
        let slots = scan.groups.slots() as usize;
        let group_joins: Vec<bool> = scan.groups.keys().map(no_null).collect();
        let mut gids: Vec<Option<i64>> = Vec::with_capacity(slots);
        match &stmt.group_cond {
            None => gids.extend((0..slots).map(|_| Some(gid_seq.nextval()))),
            Some(cond) => {
                let rows = members(source, &scan.lanes, slots, |l| l.group);
                for (key, rows) in scan.groups.keys().zip(&rows) {
                    let keep =
                        eval_grouped(cond, &src_schema, rows, &group_exprs, key, &mut NoCtx)?;
                    gids.push(keep.is_true().then(|| gid_seq.nextval()));
                }
            }
        }
        // The Gid a source row of this group joins to, if any.
        let gid_of = |group: u32| gids[group as usize].filter(|_| group_joins[group as usize]);

        // Q3 (and Q5 when the head schema differs): the item tables, built
        // now — the fused decode and the mined-result cache read them.
        let ngroups = ngroups_of(&scan.pairs, scan.bodies.slots());
        let items = scan.bodies.keys().zip(ngroups);
        let (rows, bids) = item_table(items, min_groups, &mut bid_seq);
        let mut columns = keyed_columns(&["Bid"], &stmt.body.schema, &cols.body, table.schema());
        columns.push(Column::new("ngroups", DataType::Int));
        let bset = Encoded::built(table_of(names.bset(), columns, rows)?);
        let mut hids: Vec<Option<i64>> = Vec::new();
        let mut hset = None;
        if dir.h {
            let ngroups = ngroups_of(&scan.head_pairs, scan.heads.slots());
            let heads = scan.heads.keys().zip(ngroups);
            let (rows, joins) = item_table(heads, min_groups, &mut hid_seq);
            hids = joins;
            let mut columns =
                keyed_columns(&["Hid"], &stmt.head.schema, &cols.head, table.schema());
            columns.push(Column::new("ngroups", DataType::Int));
            hset = Some(Encoded::built(table_of(names.hset(), columns, rows)?));
        }

        // Q6: Clusters — `(group, cluster)` combinations in first-seen
        // order joined to their valid group, Cid drawn per joined row,
        // `aggval<i>` per cluster when the cluster condition aggregates
        // (F). The SQL program aggregates every combination before the
        // join discards the invalid groups', so this does too. The table
        // is deferred over each row's ids, key slot and aggregates.
        // Per combination, the `Clusters` row it became; per row, its
        // `(Cid, Gid, key slot)` and its aggregates.
        let mut cluster_at: Vec<Option<u32>> = Vec::new();
        let mut clusters: Vec<(u32, u32, u32)> = Vec::new();
        let mut aggvals: Vec<Value> = Vec::new();
        let mut cluster_columns: Vec<Column> = Vec::new();
        let aggregates = cluster_aggregates(stmt);
        let width = aggregates.len();
        if dir.c {
            let mut all: Vec<Value> = Vec::new();
            if width > 0 {
                let keys: Vec<Expr> = stmt
                    .group_by
                    .iter()
                    .chain(&stmt.cluster_by)
                    .map(Expr::col)
                    .collect();
                let rows = members(source, &scan.lanes, scan.cluster_order.len(), |l| l.cluster);
                for (&(group, cluster_key), rows) in scan.cluster_order.iter().zip(&rows) {
                    let mut key = scan.groups.key(group).to_vec();
                    key.extend_from_slice(scan.cluster_keys.key(cluster_key));
                    for aggregate in &aggregates {
                        let value =
                            eval_grouped(aggregate, &src_schema, rows, &keys, &key, &mut NoCtx)?;
                        all.push(value);
                    }
                }
            }
            // An `aggval` column takes the type of its first value, as
            // `CREATE TABLE AS` has it: among the joined rows, else among
            // all combinations, else the aggregate's static type.
            let joined: Vec<bool> = scan
                .cluster_order
                .iter()
                .map(|(group, _)| gid_of(*group).is_some())
                .collect();
            let mut columns = keyed_columns(
                &["Cid", "Gid"],
                &stmt.cluster_by,
                &cols.cluster,
                table.schema(),
            );
            for (i, aggregate) in aggregates.iter().enumerate() {
                let values = || all.chunks_exact(width).map(|values| &values[i]);
                let mut joined = values().zip(&joined).filter(|(_, joined)| **joined);
                let dtype = joined
                    .find_map(|(value, _)| value_type(value))
                    .or_else(|| values().find_map(value_type))
                    .or_else(|| infer_type(aggregate, &src_schema))
                    .unwrap_or(DataType::Str);
                columns.push(Column::new(format!("aggval{i}"), dtype));
            }
            for (at, &(group, cluster_key)) in scan.cluster_order.iter().enumerate() {
                let Some(gid) = gid_of(group) else {
                    cluster_at.push(None);
                    continue;
                };
                cluster_at.push(Some(clusters.len() as u32));
                clusters.push((id_u32(cid_seq.nextval())?, id_u32(gid)?, cluster_key));
                aggvals.extend_from_slice(&all[at * width..][..width]);
            }
            cluster_columns = columns;
        }
        let cluster_row = |c: usize| {
            let (cid, gid, slot) = clusters[c];
            let aggvals = &aggvals[c * width..][..width];
            let ids = [cid, gid].map(|id| Value::Int(id.into()));
            SideRow::new(ids, scan.cluster_keys.key(slot), aggvals)
        };

        // Q7: ClusterCouples — the cluster condition on the cluster pairs
        // of one group, C1-major, kept as a bitset per body cluster.
        let mut couples: Option<Couples> = None;
        let mut cluster_couples: Option<Vec<(u32, u32, u32)>> = None;
        if dir.k {
            let clusters_schema = Schema::new(cluster_columns.clone());
            let cond = cluster_pair_cond(stmt, &aggregates)?;
            let mut cond = PairCond::plan(
                &cond,
                &clusters_schema.with_qualifier(CLUSTER_SIDES.0),
                &clusters_schema.with_qualifier(CLUSTER_SIDES.1),
                2..2 + cols.cluster.len(),
            );
            let slot = |c: usize| clusters[c].2;
            let left = cond.side(true, clusters.len(), slot, cluster_row, |_| true)?;
            let right = cond.side(false, clusters.len(), slot, cluster_row, |_| true)?;
            let of_group = ByGroup::new(&right, |at| clusters[at].1, slots + 1);
            let mut pairs = Couples::new(&clusters, slots + 1);
            let mut kept = Vec::new();
            for (b, &(cidb, gid, body)) in clusters.iter().enumerate() {
                if !left[b] {
                    continue;
                }
                for &h in of_group.of(gid) {
                    report.cluster_pairs.evaluated += 1;
                    let (cidh, _, head) = clusters[h];
                    if cond.pair((body, head), || [cluster_row(b), cluster_row(h)])? {
                        kept.push((gid, cidb, cidh));
                        pairs.insert(b, h);
                    }
                }
            }
            report.cluster_pairs.kept = kept.len() as u64;
            report.cond_evaluated += cond.evaluated;
            couples = Some(pairs);
            cluster_couples = Some(kept);
        }
        let couples_table = cluster_couples.as_ref().map(|kept| {
            let ids = kept.iter().flat_map(|&(g, b, h)| [g, b, h]).collect();
            let couples = IdRows { width: 3, ids };
            let columns = int_columns(&["Gid", "Cidb", "Cidh"]);
            Encoded::deferred(names.cluster_couples(), columns, couples.len(), couples)
        });

        let mut general = None;
        let mut input_rules = None;
        // `MiningSource`'s columns, row count and, with M, its rows.
        let mut mining_source = None;
        if translation.class == StatementClass::General {
            // Q4b: MiningSource — the per-tuple encoding: the source-scan
            // join again, DISTINCT over ids *and* mining attributes, in
            // source order; body-side then head-side rows when H. With M
            // a row is its tuple and its mining slot; without M the rows
            // are the core's tuples one for one.
            let mut ids = vec!["Gid"];
            if dir.c {
                ids.push("Cid");
            }
            ids.push("Bid");
            if dir.h {
                ids.push("Hid");
            }
            let mining_columns = keyed_columns(
                &ids,
                &stmt.mining_attributes(),
                &cols.mining,
                table.schema(),
            );
            let lanes = scan.lanes.len();
            let kept = if dir.m { lanes } else { 0 };
            let mut coded: Vec<Coded> = Vec::with_capacity(kept);
            // The core's tuples: the rows' ids without the mining
            // attributes, DISTINCT in first-seen order (the `CodedSource`
            // view of Q11). On one side the ids are one-to-one with the
            // `(owner, item)` slots, so without M every row is a new tuple.
            let mut tuples: Vec<GeneralTuple> = Vec::with_capacity(lanes);
            for head_side in [false, true] {
                if head_side && !dir.h {
                    break;
                }
                // Per owner, the mining slot of its first row; the rare
                // further `(owner, mining)` rows of an owner in `more`.
                let mut first = HashMap::with_capacity_and_hasher(lanes, KeyHash::default());
                let mut more = HashSet::with_hasher(KeyHash::default());
                for lane in &scan.lanes {
                    let (item, id) = if head_side {
                        (lane.head, hids[lane.head as usize])
                    } else {
                        (lane.body, bids[lane.body as usize])
                    };
                    let (Some(gid), Some(id)) = (gid_of(lane.group), id) else {
                        continue;
                    };
                    let mut cluster = 0;
                    if dir.c {
                        let (_, key) = scan.cluster_order[lane.cluster as usize];
                        match cluster_at[lane.cluster as usize] {
                            Some(at) if no_null(scan.cluster_keys.key(key)) => cluster = at,
                            _ => continue,
                        }
                    }
                    // `cluster` names its group, so the triple is the row.
                    let owner = pack(if dir.c { lane.cluster } else { lane.group }, item);
                    // Whether the row is its owner's first: a new tuple.
                    let fresh = match first.entry(owner) {
                        Entry::Vacant(at) => {
                            at.insert(lane.mining);
                            true
                        }
                        Entry::Occupied(at) if *at.get() == lane.mining => continue,
                        Entry::Occupied(_) if !more.insert((owner, lane.mining)) => continue,
                        Entry::Occupied(_) => false,
                    };
                    let id = Some(id_u32(id)?);
                    let tuple = GeneralTuple {
                        gid: id_u32(gid)?,
                        cid: dir.c.then(|| clusters[cluster as usize].0),
                        bid: if head_side { None } else { id },
                        hid: if head_side || !dir.h { id } else { None },
                    };
                    if fresh {
                        tuples.push(tuple);
                    }
                    if dir.m {
                        let mining = lane.mining;
                        coded.push(Coded {
                            cluster,
                            tuple,
                            mining,
                        });
                    }
                }
            }

            // Nothing reads the lanes after Q4b: free them before the pair
            // loop, the pass's largest transient.
            scan.lanes = Vec::new();

            // Q8 + Q9 + Q10: InputRules — the mining condition on the
            // tuple pairs of one group (MB-major), restricted to valid
            // cluster couples, DISTINCT, then only the (Bid, Hid) pairs
            // occurring in at least `:mingroups` groups.
            let mut elementary = None;
            if dir.m {
                let cond = mining_pair_cond(stmt)?;
                let mining_schema = Schema::new(mining_columns.clone());
                let mut cond = PairCond::plan(
                    &cond,
                    &mining_schema.with_qualifier(MINING_SIDES.0),
                    &mining_schema.with_qualifier(MINING_SIDES.1),
                    ids.len()..mining_columns.len(),
                );
                let minings = &scan.minings;
                let row = |at: usize| {
                    let Coded { tuple, mining, .. } = coded[at];
                    SideRow::new(tuple_ids(&tuple, dir.h), minings.key(mining), &[])
                };
                let slot = |at: usize| coded[at].mining;
                // With H the `IS NOT NULL` conjuncts precede the mining
                // condition: bodies come from body-side rows only, heads
                // from head-side rows only (without H the body id doubles
                // as head id).
                let bodies = |at: usize| coded[at].tuple.bid.is_some();
                let left = cond.side(true, coded.len(), slot, row, bodies)?;
                let heads = |at: usize| coded[at].tuple.hid.is_some();
                let right = cond.side(false, coded.len(), slot, row, heads)?;
                let of_group = ByGroup::new(&right, |at| coded[at].tuple.gid, slots + 1);
                // `(Gid, Cidb, Cidh, Bid, Hid)`, the Cids 0 without C. A
                // rule names its two rows' tuples, so when no two rows
                // share a tuple, distinct pairs are distinct rules.
                let distinct = tuples.len() == coded.len();
                let mut seen: HashSet<[u32; 5], KeyHash> = HashSet::default();
                let mut raw: Vec<[u32; 5]> = Vec::new();
                for (b, body) in coded.iter().enumerate() {
                    let Some(bid) = body.tuple.bid.filter(|_| left[b]) else {
                        continue;
                    };
                    for &h in of_group.of(body.tuple.gid) {
                        let (head, Some(hid)) = (&coded[h], coded[h].tuple.hid) else {
                            continue;
                        };
                        report.mining_pairs.evaluated += 1;
                        // Without H, `MB.Bid <> MH.Bid` leads the residual.
                        let (cb, ch) = (body.cluster as usize, head.cluster as usize);
                        if couples.as_ref().is_some_and(|c| !c.contains(cb, ch))
                            || (!dir.h && bid == hid)
                            || !cond.pair((body.mining, head.mining), || [row(b), row(h)])?
                        {
                            continue;
                        }
                        let [cidb, cidh] = [body.tuple.cid, head.tuple.cid].map(|c| c.unwrap_or(0));
                        let rule = [body.tuple.gid, cidb, cidh, bid, hid];
                        if distinct || seen.insert(rule) {
                            raw.push(rule);
                        }
                    }
                }
                report.mining_pairs.kept = raw.len() as u64;
                report.cond_evaluated += cond.evaluated;
                // The rules in the core's order — stable by (Gid, Cidb,
                // Cidh), dense ids — then COUNT(DISTINCT Gid) per (Bid,
                // Hid) over it: each group of a pair is one run.
                let order = raw.iter().zip(0..).map(|(r, at)| (pack(r[1], r[2]), at));
                let mut order: Vec<(u64, u32)> = order.collect();
                radix_sort(&mut order);
                order
                    .iter_mut()
                    .for_each(|e| e.0 = raw[e.1 as usize][0].into());
                radix_sort(&mut order);
                let sorted = order.iter().map(|&(_, at)| &raw[at as usize]);
                let mut groups_of: HashMap<u64, (u32, u64), KeyHash> = HashMap::default();
                for &[gid, _, _, bid, hid] in sorted.clone() {
                    let (last, count) = groups_of.entry(pack(bid, hid)).or_insert((gid, 0));
                    *count += u64::from(*count == 0 || *last != gid);
                    *last = gid;
                }
                let large = |r: &&[u32; 5]| groups_of[&pack(r[3], r[4])].1 >= min_groups;
                let elem = |&[gid, cidb, cidh, bid, hid]: &[u32; 5]| ElemRule {
                    gid,
                    cidb: dir.c.then_some(cidb),
                    cidh: dir.c.then_some(cidh),
                    bid,
                    hid,
                };
                elementary = Some(sorted.filter(large).map(elem).collect::<Vec<_>>());
                let mut names_of = vec!["Gid"];
                if dir.c {
                    names_of.extend(["Cidb", "Cidh"]);
                }
                names_of.extend(["Bid", "Hid"]);
                let mut ids = Vec::new();
                for rule in raw.iter().filter(large) {
                    if dir.c {
                        ids.extend_from_slice(rule);
                    } else {
                        ids.extend([rule[0], rule[3], rule[4]]);
                    }
                }
                let width = names_of.len();
                let rules = IdRows { width, ids };
                let (columns, count) = (int_columns(&names_of), rules.len());
                input_rules = Some(Encoded::deferred(
                    names.input_rules(),
                    columns,
                    count,
                    rules,
                ));
            }
            let minings = std::mem::replace(&mut scan.minings, KeyInterner::new(0));
            let count = if dir.m { coded.len() } else { tuples.len() };
            mining_source = Some((mining_columns, count, dir.m.then_some((coded, minings))));
            // The artifact store keeps the input: no growth slack.
            tuples.shrink_to_fit();
            general = Some(EncodedData::General {
                tuples,
                cluster_couples,
                input_rules: elementary,
            });
        }

        let mut sequences = vec![gid_seq, bid_seq];
        if dir.h {
            sequences.push(hid_seq);
        }
        if dir.c {
            sequences.push(cid_seq);
        }
        report.fused_steps = fused_steps(translation);
        let built = |data: EncodedData| -> Result<Arc<EncodedInput>> {
            let input = EncodedInput::new(translation, total_groups, min_groups, data)?;
            Ok(Arc::new(input))
        };
        let checked = |id: Option<i64>| id.map(id_u32).transpose();
        let (input, coded_source) = match general {
            Some(data) => {
                let input = built(data)?;
                let (columns, count, coded) = mining_source.expect("a general encoding");
                let rows = match coded {
                    Some((rows, minings)) => MiningSourceRows::Coded {
                        rows,
                        minings,
                        h: dir.h,
                    },
                    None => MiningSourceRows::Input(Arc::clone(&input)),
                };
                let mining_source = Encoded::deferred(names.mining_source(), columns, count, rows);
                (input, ("Q4b", mining_source))
            }
            None => {
                let slot_gids = (0..slots as u32).map(|g| checked(gid_of(g)));
                let slot_gids = slot_gids.collect::<Result<Vec<_>>>()?;
                let slot_bids = bids.iter().map(|&b| checked(b));
                let slot_bids = slot_bids.collect::<Result<Vec<_>>>()?;
                let groups = large_items(&scan.pairs, &slot_gids, &slot_bids);
                let input = built(EncodedData::Simple { groups })?;
                // Q4: CodedSource — the source-scan join replayed from the
                // distinct pairs (see `CodedSourceRows`).
                let rows = CodedSourceRows {
                    pairs: Pairs::Scan(std::mem::take(&mut scan.pairs)),
                    gids: slot_gids,
                    bids: slot_bids,
                };
                let columns = int_columns(&["Gid", "Bid"]);
                let count = rows.len();
                let coded = Encoded::deferred(names.coded_source(), columns, count, rows);
                (input, ("Q4", coded))
            }
        };

        // Q2's rows, over the scan's group keys.
        let keys = GroupKeys::Scan(std::mem::replace(&mut scan.groups, KeyInterner::new(0)));
        let gids = gids.into_iter().map(checked).collect::<Result<Vec<_>>>()?;
        let count = gids.iter().flatten().count();
        let columns = keyed_columns(&["Gid"], &stmt.group_by, &cols.group, table.schema());
        let rows = ValidGroupsRows { keys, gids };
        let valid_groups = Encoded::deferred(names.valid_groups(), columns, count, rows);
        let clusters = dir.c.then(|| {
            let rows = ClustersRows {
                keys: std::mem::replace(&mut scan.cluster_keys, KeyInterner::new(0)),
                rows: clusters,
                aggvals,
                width,
            };
            let count = rows.rows.len();
            Encoded::deferred(names.clusters(), cluster_columns, count, rows)
        });

        // In the order the SQL program creates them.
        let mut objects = vec![("Q2", valid_groups), ("Q3", bset)];
        objects.extend(hset.map(|t| ("Q5", t)));
        objects.extend(clusters.map(|t| ("Q6", t)));
        objects.extend(couples_table.map(|t| ("Q7", t)));
        objects.push(coded_source);
        if translation.class == StatementClass::General {
            // Q11: CodedSource stays the translator's view over
            // MiningSource, for users; the typed read goes around it.
            let view = translation.preprocess.iter().find_map(|step| match step {
                Step::Sql { id, sql } if id == "Q11" => Some(sql.clone()),
                _ => None,
            });
            objects.extend(view.map(|sql| ("Q11", Encoded::Sql(sql))));
        }
        objects.extend(input_rules.map(|t| ("Q10", t)));

        Ok(FusedEncoding {
            sequences,
            objects,
            report,
            input: Handover::Built(input),
            work,
        })
    }

    /// The encoding of a statement without directives, derived from a
    /// digest of its source: the one the fused pass's scan just built, or
    /// a kept one a delta was replayed onto. Its slots and ids are
    /// first-seen and its pairs in first-occurrence order
    /// ([`SourceDigest::ordered`]), so drawing ids in slot and id order
    /// yields the step-by-step program's ids: a Gid per live group
    /// (`ValidGroups`, deferred over the digest's keys), a Bid per item
    /// carried by at least `:mingroups` groups (`Bset`, built — the fused
    /// decode and the inventory read it), and `CodedSource` deferred over
    /// the digest's pairs. A group or item key holding a NULL is encoded
    /// but never joins.
    fn derive(
        translation: &Translation,
        table: &Table,
        digest: Arc<SourceDigest>,
    ) -> Result<FusedEncoding> {
        debug_assert!(digest.ordered(), "an encoding needs the scan order");
        let stmt = &translation.stmt;
        let names = &translation.names;
        let cols = source_columns(table, stmt)?;
        let mut gid_seq = Sequence::new(names.gid_sequence(), 1, 1);
        let mut bid_seq = Sequence::new(names.bid_sequence(), 1, 1);

        // Q1 + ComputeMinGroups.
        let total_groups = digest.live_groups();
        let min_groups = min_groups_for(total_groups, stmt.min_support);

        // Q2: per slot, the Gid of a live group, and the Gid its rows join
        // to.
        let slots = digest.slots() as usize;
        let mut gids: Vec<Option<u32>> = Vec::with_capacity(slots);
        let mut slot_gids: Vec<Option<u32>> = Vec::with_capacity(slots);
        for slot in 0..digest.slots() {
            let (gid, joins) = match digest.group(slot) {
                Some(joins) => (Some(id_u32(gid_seq.nextval())?), joins),
                None => (None, false),
            };
            gids.push(gid);
            slot_gids.push(gid.filter(|_| joins));
        }

        // Q3: the large items in id order.
        let items = (0..digest.items() as u32).map(|item| {
            let (key, ngroups) = digest.item(item);
            (key, u64::from(ngroups))
        });
        let (rows, bids) = item_table(items, min_groups, &mut bid_seq);
        let slot_bids = bids.into_iter().map(|b| b.map(id_u32).transpose());
        let slot_bids = slot_bids.collect::<Result<Vec<_>>>()?;
        let mut columns = keyed_columns(&["Bid"], &stmt.body.schema, &cols.body, table.schema());
        columns.push(Column::new("ngroups", DataType::Int));
        let bset = Encoded::built(table_of(names.bset(), columns, rows)?);

        // Q4: one row per pair of a joining group and a joining large item.
        let count = digest.joined_pairs(&slot_bids);
        let rows = CodedSourceRows {
            pairs: Pairs::Digest(Arc::clone(&digest)),
            gids: slot_gids.clone(),
            bids: slot_bids.clone(),
        };
        let columns = int_columns(&["Gid", "Bid"]);
        let coded_source = Encoded::deferred(names.coded_source(), columns, count, rows);

        let count = total_groups as usize;
        let columns = keyed_columns(&["Gid"], &stmt.group_by, &cols.group, table.schema());
        let rows = ValidGroupsRows {
            keys: GroupKeys::Digest(Arc::clone(&digest)),
            gids,
        };
        let valid_groups = Encoded::deferred(names.valid_groups(), columns, count, rows);

        let input = Handover::Digest(Arc::new(DigestInput {
            digest: Arc::clone(&digest),
            gids: slot_gids,
            bids: slot_bids,
        }));
        let report = PreprocessReport {
            total_groups,
            min_groups,
            digest: Some(digest),
            ..PreprocessReport::default()
        };
        Ok(FusedEncoding {
            sequences: vec![gid_seq, bid_seq],
            objects: vec![("Q2", valid_groups), ("Q3", bset), ("Q4", coded_source)],
            report,
            input,
            work: Vec::new(),
        })
    }

    /// Create the encoding's objects in the catalog — the deferred
    /// tables unbuilt — and bind `:totg` / `:mingroups`, reporting each
    /// object under the id and row count the SQL program reports for it.
    fn commit(self, db: &mut Database) -> Result<Preprocessed> {
        let mut report = self.report;
        for (counter, n) in self.work {
            db.bump(counter, n);
        }
        for sequence in self.sequences {
            db.catalog_mut().create_sequence(sequence)?;
            report.executed.push(("DDL".to_string(), 1));
        }
        db.set_var("totg", Value::Int(report.total_groups as i64));
        db.set_var("mingroups", Value::Int(report.min_groups as i64));
        report.executed.push(("Q1".to_string(), 1));
        for (id, object) in self.objects {
            let rows = match object {
                Encoded::Table(table) => {
                    let rows = table.row_count();
                    db.catalog_mut().create_entry(*table)?;
                    rows
                }
                Encoded::Sql(sql) => db.execute(&sql)?.rows_affected,
            };
            report.executed.push((id.to_string(), rows.max(1)));
        }
        Ok(Preprocessed {
            report,
            input: Some(self.input),
        })
    }
}

/// Derive the encoding of a statement without directives from a digest
/// of its source at the table's current version, and commit it: what a
/// rerun does in place of the fused pass when the session artifact store
/// kept the digest. No `Qi` step runs and no source row is read, so the
/// report lists no executed step. The caller has run the cleanup.
pub(crate) fn derive_encoding(
    db: &mut Database,
    translation: &Translation,
    digest: Arc<SourceDigest>,
) -> Result<Preprocessed> {
    let table = db.catalog().table(&translation.stmt.from[0].name)?;
    let mut run = FusedEncoding::derive(translation, table, digest)?.commit(db)?;
    run.report.executed.clear();
    Ok(run)
}

/// The first attribute the statement reads that is FLOAT in `schema` yet
/// holds an INT in one of `rows`. `CREATE TABLE AS` types a column by its
/// first value, and a FLOAT column admits INT values: such a source types
/// — or fails — differently step by step, which the fused pass leaves to
/// the SQL program.
pub(crate) fn float_attribute_with_ints(
    schema: &Schema,
    stmt: &MineRuleStatement,
    rows: &[Row],
) -> Result<Option<String>> {
    for name in stmt.needed_attributes() {
        let at = schema.resolve(None, &name)?;
        if schema.column(at).dtype == DataType::Float
            && rows.iter().any(|row| matches!(row[at], Value::Int(_)))
        {
            return Ok(Some(name));
        }
    }
    Ok(None)
}

/// The SQL statements of the program the fused pass subsumes: all of
/// them but the sequence DDL.
fn fused_steps(translation: &Translation) -> usize {
    translation
        .preprocess
        .iter()
        .filter(|step| matches!(step, Step::Sql { id, .. } if id != "DDL"))
        .count()
}

/// The fused pass: compute the whole encoding, then commit it.
fn run_fused(db: &mut Database, translation: &Translation) -> Result<Preprocessed> {
    FusedEncoding::compute(db, translation)?.commit(db)
}

fn annotate(e: relational::Error, id: &str, sql: &str) -> MineError {
    match MineError::from(e) {
        MineError::Sql(inner) => MineError::Internal {
            message: format!("preprocessing query {id} failed: {inner} (sql: {sql})"),
        },
        MineError::Syntax { pos, message } => MineError::Internal {
            message: format!(
                "generated SQL for {id} failed to parse at {pos}: {message} (sql: {sql})"
            ),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_groups_rounds_up() {
        assert_eq!(min_groups_for(10, 0.25), 3);
        assert_eq!(min_groups_for(10, 0.2), 2);
        assert_eq!(min_groups_for(2, 0.2), 1);
        assert_eq!(min_groups_for(1000, 0.001), 1);
        assert_eq!(min_groups_for(4, 0.5), 2);
    }

    #[test]
    fn min_groups_never_zero() {
        assert_eq!(min_groups_for(100, 0.0001), 1);
        assert_eq!(min_groups_for(0, 0.5), 1);
    }
}
