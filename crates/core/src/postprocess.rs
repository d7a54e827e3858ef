//! The postprocessor (§4.4): store the core operator's encoded rules in
//! the DBMS and decode them into user-readable output tables.
//!
//! The core operator's output is the three-table normalised form of the
//! paper — `OutputRules (BodyId, HeadId, SUPPORT, CONFIDENCE)` plus
//! `OutputBodies (BodyId, Bid)` and `OutputHeads (HeadId, Hid)` — chosen
//! precisely because SQL92 has no set-valued attributes. Decoding is then
//! a pair of joins with `Bset`/`Hset`.
//!
//! The core operator already hands the rules over in that form
//! ([`EncodedRules`]: each distinct body and head once, the rules by
//! id), and [`decode_rules`] is the whole phase. Inside the server the
//! item dictionary is an array, not a join: **one in-memory pass**
//! renders each distinct body and head once, looking its items up in
//! `Bset`/`Hset` by id, and the rules handed back to the caller share
//! those renderings ([`Items`]). The three normalised
//! tables and the three decoded `<out>` tables are registered as
//! deferred tables over that record, their rows built the first time
//! something reads them — schema, row contents *and* row order
//! bit-identical to the SQL program `translation.postprocess`
//! (`P1`–`P3`), which `tests/planner_agreement.rs` enforces. On the database's reference paths
//! ([`Database::set_reference_paths`]), and whenever the pass fails, the
//! written route runs instead: [`store_encoded_rules`] → [`postprocess`]
//! → [`read_rules`], which stay public as the oracle and for reading a
//! rule table an earlier session left behind.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use relational::catalog::{Catalog, TableEntry};
use relational::exec::select::value_type;
use relational::expr::eval::QueryCtx;
use relational::{
    Column, DataType, Database, DeferredTable, ExecCounter, ResultSet, Row, RowProducer, Schema,
    Table, Value,
};

use crate::algo::{EncodedRule, EncodedRules, ItemsetArena};
use crate::error::{MineError, Result};
use crate::preprocess::{int_columns, run_steps};
use crate::runs;
use crate::translator::{Step, Translation};

/// Write the encoded rules into `OutputRules` / `OutputBodies` /
/// `OutputHeads`. The core's set ids are the identifiers, one past each
/// (`BodyId = body + 1`): identical itemsets share one, as the
/// normalised form intends.
pub fn store_encoded_rules(
    db: &mut Database,
    translation: &Translation,
    rules: &EncodedRules,
) -> Result<()> {
    let names = &translation.names;
    db.execute(&format!(
        "CREATE TABLE {} (BodyId INT, HeadId INT, SUPPORT FLOAT, CONFIDENCE FLOAT)",
        names.output_rules()
    ))?;
    db.execute(&format!(
        "CREATE TABLE {} (BodyId INT, Bid INT)",
        names.output_bodies()
    ))?;
    db.execute(&format!(
        "CREATE TABLE {} (HeadId INT, Hid INT)",
        names.output_heads()
    ))?;

    let catalog = db.catalog_mut();
    catalog
        .table_mut(&names.output_rules())?
        .insert_all(rules.rules.iter().map(rule_row))?;
    catalog
        .table_mut(&names.output_bodies())?
        .insert_all(links(&rules.bodies).map(link_row))?;
    catalog
        .table_mut(&names.output_heads())?
        .insert_all(links(&rules.heads).map(link_row))?;
    Ok(())
}

/// The `OutputRules` row of `rule`.
fn rule_row(rule: &EncodedRule) -> Row {
    vec![
        Value::Int(i64::from(rule.body) + 1),
        Value::Int(i64::from(rule.head) + 1),
        Value::Float(rule.support),
        Value::Float(rule.confidence),
    ]
}

/// `(set id, item id)` per item of every set, in id order: the rows of
/// `OutputBodies` / `OutputHeads`, and the order of the decoded table's.
fn links(sets: &ItemsetArena) -> impl Iterator<Item = (i64, u32)> + '_ {
    (1..)
        .zip(sets.iter())
        .flat_map(|(id, set)| set.iter().map(move |&item| (id, item)))
}

/// The `OutputBodies` / `OutputHeads` row of one link.
fn link_row((id, item): (i64, u32)) -> Row {
    vec![Value::Int(id), Value::Int(item.into())]
}

/// Run the decode joins, producing `<out>`, `<out>_Bodies`, `<out>_Heads`.
pub fn postprocess(db: &mut Database, translation: &Translation) -> Result<()> {
    run_steps(db, &translation.postprocess, translation.stmt.min_support)?;
    Ok(())
}

/// A rule's body or head as the caller reads it: the sorted rendered
/// items (multi-attribute items join with `|`). Rendered once per
/// distinct itemset and shared by every rule that has it, so cloning one
/// copies no string.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Items(Arc<[String]>);

impl Items {
    pub fn as_slice(&self) -> &[String] {
        &self.0
    }
}

impl Deref for Items {
    type Target = [String];

    fn deref(&self) -> &[String] {
        &self.0
    }
}

impl From<Vec<String>> for Items {
    fn from(items: Vec<String>) -> Items {
        Items(items.into())
    }
}

impl<'a> IntoIterator for &'a Items {
    type Item = &'a String;
    type IntoIter = std::slice::Iter<'a, String>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Compares with a list of items, as `Vec<String>` does.
impl<T> PartialEq<Vec<T>> for Items
where
    String: PartialEq<T>,
{
    fn eq(&self, other: &Vec<T>) -> bool {
        self.0[..] == other[..]
    }
}

/// Prints as the list of its items.
impl fmt::Debug for Items {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A decoded rule: what the caller reads of the core's encoded rules.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedRule {
    /// Sorted rendered body items.
    pub body: Items,
    /// Sorted rendered head items.
    pub head: Items,
    pub support: f64,
    pub confidence: f64,
}

impl DecodedRule {
    /// `{a, b} => {c} (s=0.5, c=1)` rendering for examples and reports.
    pub fn display(&self) -> String {
        format!(
            "{{{}}} => {{{}}} (s={:.3}, c={:.3})",
            self.body.join(", "),
            self.head.join(", "),
            self.support,
            self.confidence
        )
    }
}

/// What the postprocessing phase hands back.
#[derive(Debug, Clone)]
pub struct Decoded {
    /// The decoded rules, sorted by (body, head).
    pub rules: Vec<DecodedRule>,
    /// How many SQL statements of `translation.postprocess` the fused
    /// pass subsumed (0 when the written route ran).
    pub fused_steps: usize,
    /// Distinct bodies plus distinct heads rendered into [`Items`].
    pub sets_rendered: usize,
}

/// The postprocessing phase: leave the six output tables in the catalog
/// and return the decoded rules — as one fused in-memory pass, unless the
/// database is on its reference paths.
///
/// The rules move into the record the deferred output tables share.
///
/// Whatever fails inside the fused pass — a dictionary table that is not
/// what the preprocessor left, an output name the cleanup could not free —
/// its work is discarded and the written route runs: that route's error
/// is the statement's error, and the catalog is left as it leaves it
/// (exactly [`crate::preprocess::preprocess`]'s contract).
pub fn decode_rules(
    db: &mut Database,
    translation: &Translation,
    rules: EncodedRules,
) -> Result<Decoded> {
    let rules = Arc::new(rules);
    if !db.reference_paths() {
        if let Ok(decoded) = run_fused(db, translation, &rules) {
            return Ok(decoded);
        }
    }
    store_encoded_rules(db, translation, &rules)?;
    postprocess(db, translation)?;
    let (rules, sets_rendered) = read_back(db, translation)?;
    Ok(Decoded {
        rules,
        fused_steps: 0,
        sets_rendered,
    })
}

/// The fused pass: compute all six tables and the rules, then commit.
fn run_fused(
    db: &mut Database,
    translation: &Translation,
    rules: &Arc<EncodedRules>,
) -> Result<Decoded> {
    FusedDecoding::compute(db, translation, rules)?.commit(db)
}

fn declined(why: String) -> MineError {
    MineError::Internal {
        message: format!("fused decoding declined: {why}"),
    }
}

/// One side's item dictionary — `Bset`, or `Hset` under H — as an array:
/// ids are dense sequence values, so id → item is an index.
struct Dictionary {
    /// The dictionary table, sharing the catalog's rows.
    table: Table,
    /// The position among `table`'s rows of each item id; slot 0 is
    /// never an id, and `u32::MAX` marks an id no row holds.
    row_of: Vec<u32>,
    /// Where a dictionary row holds the side's schema attributes, with the
    /// columns' declared types.
    attrs: Vec<(usize, DataType)>,
}

impl Dictionary {
    /// Index `dict` by `id_col` and resolve `attrs` the way the decode
    /// join's select list resolves them: against the `link` table's two id
    /// columns joined with the dictionary's. A name the join would not
    /// resolve to a dictionary column, or an id column that is not a dense
    /// key, declines.
    fn new(
        dict: &Table,
        id_col: &str,
        link: &str,
        link_cols: &[&str; 2],
        attrs: &[String],
    ) -> Result<Dictionary> {
        let joined = Schema::new(int_columns(link_cols))
            .with_qualifier(link)
            .join(&dict.schema().with_qualifier(dict.name()));
        let in_dict = |at: usize, name: &str| {
            at.checked_sub(link_cols.len())
                .ok_or_else(|| declined(format!("'{name}' names a column of {link}")))
        };
        joined.resolve(None, link_cols[0])?;
        let id_at = in_dict(joined.resolve(Some(dict.name()), id_col)?, id_col)?;
        let attrs = attrs
            .iter()
            .map(|name| {
                let at = in_dict(joined.resolve(None, name)?, name)?;
                Ok((at, dict.schema().column(at).dtype))
            })
            .collect::<Result<Vec<_>>>()?;

        let rows = dict.rows();
        let mut row_of = vec![u32::MAX; rows.len() + 1];
        for (at, row) in (0..).zip(rows) {
            let slot = match row[id_at] {
                Value::Int(id) if id >= 1 => row_of.get_mut(id as usize),
                _ => None,
            };
            match slot {
                Some(slot) if *slot == u32::MAX => *slot = at,
                _ => {
                    return Err(declined(format!(
                        "{}.{id_col} is not a dense key",
                        dict.name()
                    )))
                }
            }
        }
        Ok(Dictionary {
            table: dict.clone(),
            row_of,
            attrs,
        })
    }

    /// The dictionary row of `item`.
    fn row(&self, item: u32) -> Option<&Row> {
        let at = *self.row_of.get(item as usize)?;
        self.table.rows().get(at as usize)
    }

    /// Each of `sets` rendered once: its items' renderings (multi-attribute
    /// items join with `|`, each item rendered once), sorted. An item the
    /// dictionary does not hold declines.
    fn render(&self, sets: &ItemsetArena) -> Result<RenderedSets> {
        let mut rendered: Vec<Option<String>> = vec![None; self.row_of.len()];
        for &item in &sets.items {
            let row = self
                .row(item)
                .ok_or_else(|| declined(format!("item id {item} is not in the dictionary")))?;
            let text = &mut rendered[item as usize];
            if text.is_none() {
                let attrs = self.attrs.iter().map(|&(at, _)| row[at].to_string());
                *text = Some(attrs.collect::<Vec<_>>().join("|"));
            }
        }
        let text = |item: u32| rendered[item as usize].as_ref().expect("rendered");
        let mut sorted: Vec<&String> = Vec::new();
        let sets = sets.iter().map(|set| {
            sorted.clear();
            sorted.extend(set.iter().map(|&item| text(item)));
            sorted.sort_unstable();
            Items(sorted.iter().map(|&text| text.clone()).collect())
        });
        Ok(RenderedSets::new(sets.collect()))
    }

    /// The decoded table of `sets`' columns: the set id, then `names`
    /// typed as `CREATE TABLE AS` types them — by the column's first
    /// non-NULL value in row order, by the declared type of the dictionary
    /// column it selects when there is none. A later value that type does
    /// not admit declines, as inserting it would fail.
    fn decoded_columns(
        &self,
        sets: &ItemsetArena,
        id_col: &str,
        names: &[String],
    ) -> Result<Vec<Column>> {
        let mut types: Vec<Option<DataType>> = vec![None; self.attrs.len()];
        for &item in &sets.items {
            let row = self.row(item).expect("every item decoded");
            for (dtype, &(at, _)) in types.iter_mut().zip(&self.attrs) {
                match dtype {
                    None => *dtype = value_type(&row[at]),
                    Some(dtype) if !dtype.admits(&row[at]) => {
                        return Err(declined(format!("a {dtype} column holds {}", row[at])))
                    }
                    Some(_) => {}
                }
            }
        }
        let mut columns = int_columns(&[id_col]);
        for ((name, dtype), &(_, declared)) in names.iter().zip(types).zip(&self.attrs) {
            columns.push(Column::new(name.clone(), dtype.unwrap_or(declared)));
        }
        Ok(columns)
    }
}

/// What the fused pass keeps of the decoded rules: the producers of the
/// six output tables build their rows from it when something reads them.
struct DecodedRecord {
    /// The core's rules and their distinct bodies and heads, shared.
    rules: Arc<EncodedRules>,
    /// Whether `<out>` selects SUPPORT and CONFIDENCE.
    measures: [bool; 2],
    /// The dictionaries bodies and heads decode through.
    dicts: [Dictionary; 2],
}

impl DecodedRecord {
    /// The sets of side 0 (bodies) or 1 (heads) and their dictionary.
    fn side(&self, side: usize) -> (&ItemsetArena, &Dictionary) {
        let sets = [&self.rules.bodies, &self.rules.heads][side];
        (sets, &self.dicts[side])
    }
}

/// Which output table a producer builds.
#[derive(Clone, Copy)]
enum Output {
    /// `OutputRules`.
    Rules,
    /// `<out>`: the rules under the statement's projection.
    Projected,
    /// `OutputBodies` / `OutputHeads`: `(set id, item id)`.
    Links(usize),
    /// `<out>_Bodies` / `<out>_Heads`: `(set id, item attributes...)`.
    Decoded(usize),
}

/// The rows of one output table, from the shared record — bit-identical
/// to the ones the written route stores, in the same order.
struct OutputRows {
    record: Arc<DecodedRecord>,
    table: Output,
}

impl RowProducer for OutputRows {
    fn rows(&self) -> Vec<Row> {
        let record = &self.record;
        let rules = &record.rules.rules;
        let ids = |r: &EncodedRule| [i64::from(r.body) + 1, i64::from(r.head) + 1].map(Value::Int);
        match self.table {
            Output::Rules => rules.iter().map(rule_row).collect(),
            Output::Projected => {
                let [support, confidence] = record.measures;
                let width = 2 + usize::from(support) + usize::from(confidence);
                rules
                    .iter()
                    .map(|r| {
                        let mut row = Vec::with_capacity(width);
                        row.extend(ids(r));
                        row.extend(support.then_some(Value::Float(r.support)));
                        row.extend(confidence.then_some(Value::Float(r.confidence)));
                        row
                    })
                    .collect()
            }
            Output::Links(side) => links(record.side(side).0).map(link_row).collect(),
            Output::Decoded(side) => {
                let (sets, dict) = record.side(side);
                let attrs = &dict.attrs;
                links(sets)
                    .map(|(id, item)| {
                        let row = dict.row(item).expect("every item decoded");
                        let mut decoded = Vec::with_capacity(1 + attrs.len());
                        decoded.push(Value::Int(id));
                        decoded.extend(attrs.iter().map(|&(at, _)| row[at].clone()));
                        decoded
                    })
                    .collect()
            }
        }
    }

    /// Each table's own share of the record (`<out>` shares the rules
    /// with `OutputRules`; the dictionaries are the catalog's rows).
    fn retained_bytes(&self) -> u64 {
        let record = &self.record;
        match self.table {
            Output::Rules => (record.rules.len() * size_of::<EncodedRule>()) as u64,
            Output::Projected => 0,
            Output::Links(side) => {
                let sets = record.side(side).0;
                (sets.items.len() + sets.ends.len()) as u64 * 4
            }
            Output::Decoded(side) => record.dicts[side].row_of.len() as u64 * 4,
        }
    }
}

/// Everything the fused pass produces, computed without touching the
/// catalog: [`FusedDecoding::commit`] is the only writer.
struct FusedDecoding {
    /// The six output tables, in the order the written route creates
    /// them, each deferred over the shared record.
    tables: Vec<TableEntry>,
    rules: Vec<DecodedRule>,
    sets_rendered: usize,
    /// The SQL statements of `translation.postprocess` subsumed.
    fused_steps: usize,
    /// Executor work of the pass, accounted at commit.
    work: [(ExecCounter, u64); 2],
}

impl FusedDecoding {
    /// The fused postprocessing pass.
    ///
    /// The core's rules already name each distinct body and head by its
    /// `BodyId - 1` / `HeadId - 1`, and keep each set's items once — what
    /// `P2`/`P3` would join out of `Bset`/`Hset` (without H, heads decode
    /// through `Bset` on `Hid = Bid`). The six tables are registered over
    /// that record with their exact row counts and schemas, and built
    /// when something reads them. Each distinct set is rendered once; the
    /// rules handed back share those renderings, ordered by a rank
    /// computed once per set, with the tie order [`read_rules`] gives.
    fn compute(
        db: &Database,
        translation: &Translation,
        rules: &Arc<EncodedRules>,
    ) -> Result<FusedDecoding> {
        let stmt = &translation.stmt;
        let names = &translation.names;
        let out = &stmt.output_table;
        let catalog = db.catalog();
        let bset = catalog.table(&names.bset())?;
        let (hdict, hid) = if translation.directives.h {
            (catalog.table(&names.hset())?, "Hid")
        } else {
            (bset, "Bid")
        };
        let (bodies_link, heads_link) = (names.output_bodies(), names.output_heads());
        let bodies = Dictionary::new(
            bset,
            "Bid",
            &bodies_link,
            &["BodyId", "Bid"],
            &stmt.body.schema,
        )?;
        let heads = Dictionary::new(
            hdict,
            hid,
            &heads_link,
            &["HeadId", "Hid"],
            &stmt.head.schema,
        )?;
        let body_sets = bodies.render(&rules.bodies)?;
        let head_sets = heads.render(&rules.heads)?;
        let sets_rendered = body_sets.sets.len() + head_sets.sets.len();
        let decoded_rules = ordered_rules(&body_sets, &head_sets, &rules.rules);

        let mut rule_columns = int_columns(&["BodyId", "HeadId"]);
        let mut out_columns = rule_columns.clone();
        for (name, selected) in [
            ("SUPPORT", stmt.select_support),
            ("CONFIDENCE", stmt.select_confidence),
        ] {
            let column = Column::new(name, DataType::Float);
            out_columns.extend(selected.then(|| column.clone()));
            rule_columns.push(column);
        }
        let body_columns = bodies.decoded_columns(&rules.bodies, "BodyId", &stmt.body.schema)?;
        let head_columns = heads.decoded_columns(&rules.heads, "HeadId", &stmt.head.schema)?;

        // What P1–P3 read and join, had the SQL server run them.
        let (body_items, head_items) = (rules.bodies.items.len(), rules.heads.items.len());
        let linked = (body_items + head_items) as u64;
        let scanned = rules.len() as u64 + linked + (bset.row_count() + hdict.row_count()) as u64;
        let rule_count = rules.len();
        let record = Arc::new(DecodedRecord {
            rules: Arc::clone(rules),
            measures: [stmt.select_support, stmt.select_confidence],
            dicts: [bodies, heads],
        });
        let deferred = |name: String, columns: Vec<Column>, rows: usize, table: Output| {
            let record = Arc::clone(&record);
            let producer = Arc::new(OutputRows { record, table });
            TableEntry::Deferred(DeferredTable::new(
                name,
                Schema::new(columns),
                rows,
                producer,
            ))
        };
        let tables = vec![
            deferred(
                names.output_rules(),
                rule_columns,
                rule_count,
                Output::Rules,
            ),
            deferred(
                bodies_link,
                int_columns(&["BodyId", "Bid"]),
                body_items,
                Output::Links(0),
            ),
            deferred(
                heads_link,
                int_columns(&["HeadId", "Hid"]),
                head_items,
                Output::Links(1),
            ),
            deferred(out.clone(), out_columns, rule_count, Output::Projected),
            deferred(
                format!("{out}_Bodies"),
                body_columns,
                body_items,
                Output::Decoded(0),
            ),
            deferred(
                format!("{out}_Heads"),
                head_columns,
                head_items,
                Output::Decoded(1),
            ),
        ];
        Ok(FusedDecoding {
            tables,
            rules: decoded_rules,
            sets_rendered,
            fused_steps: translation
                .postprocess
                .iter()
                .filter(|step| matches!(step, Step::Sql { .. }))
                .count(),
            work: [
                (ExecCounter::RowsScanned, scanned),
                (ExecCounter::RowsJoined, linked),
            ],
        })
    }

    /// Register the six tables in the catalog — all of them or, when one
    /// cannot be created or stored, none — as one storage transaction.
    fn commit(self, db: &mut Database) -> Result<Decoded> {
        let mut created: Vec<String> = Vec::with_capacity(self.tables.len());
        let stored = self
            .tables
            .into_iter()
            .try_for_each(|entry| {
                let name = entry.name().to_string();
                db.catalog_mut().create_entry(entry)?;
                created.push(name);
                Ok(())
            })
            .and_then(|()| db.sync_storage());
        if let Err(e) = stored {
            for name in created {
                db.catalog_mut().drop_table(&name, true)?;
            }
            return Err(e.into());
        }
        for (counter, n) in self.work {
            db.bump(counter, n);
        }
        Ok(Decoded {
            rules: self.rules,
            fused_steps: self.fused_steps,
            sets_rendered: self.sets_rendered,
        })
    }
}

/// One side's distinct sets as the caller reads them, by set id, and the
/// rank of each in rendered order.
struct RenderedSets {
    sets: Vec<Items>,
    rank: Vec<u32>,
}

impl RenderedSets {
    /// Ranked by comparing the renderings themselves.
    fn new(sets: Vec<Items>) -> RenderedSets {
        let keys: Vec<&[String]> = sets.iter().map(Items::as_slice).collect();
        let rank = dense_ranks(&keys);
        RenderedSets { sets, rank }
    }
}

/// The dense rank of each key in sorted order; equal keys share a rank,
/// so ordering by rank is ordering by key.
fn dense_ranks<K: Ord>(keys: &[K]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
    let mut ranks = vec![0u32; keys.len()];
    let mut rank = 0;
    for pair in order.windows(2) {
        rank += u32::from(keys[pair[0]] != keys[pair[1]]);
        ranks[pair[1]] = rank;
    }
    ranks
}

/// The decoded rules sorted by (body, head), rules with equal renderings
/// staying in stored order: the rules are ordered on packed rank pairs by
/// a stable radix sort and share their sets' renderings — no string is
/// compared or copied per rule.
fn ordered_rules(
    bodies: &RenderedSets,
    heads: &RenderedSets,
    rules: &[EncodedRule],
) -> Vec<DecodedRule> {
    let mut keys: Vec<(u64, u32)> = (0..)
        .zip(rules)
        .map(|(at, r)| {
            let key = runs::pack(bodies.rank[r.body as usize], heads.rank[r.head as usize]);
            (key, at)
        })
        .collect();
    runs::radix_sort(&mut keys);
    keys.iter()
        .map(|&(_, at)| {
            let r = &rules[at as usize];
            DecodedRule {
                body: bodies.sets[r.body as usize].clone(),
                head: heads.sets[r.head as usize].clone(),
                support: r.support,
                confidence: r.confidence,
            }
        })
        .collect()
}

/// Read the user-facing output tables back into decoded rules, sorted by
/// (body, head) for stable comparison.
///
/// A name that is a base table is read in place; anything else (a view a
/// user put in its place) goes through the SQL server. A rule whose body
/// or head the companion table does not hold is an error, never an empty
/// itemset.
pub fn read_rules(db: &mut Database, translation: &Translation) -> Result<Vec<DecodedRule>> {
    read_back(db, translation).map(|(rules, _)| rules)
}

/// [`read_rules`] also returning how many sets it rendered.
fn read_back(db: &mut Database, translation: &Translation) -> Result<(Vec<DecodedRule>, usize)> {
    let stmt = &translation.stmt;
    let out = &stmt.output_table;
    let (bodies_name, heads_name) = (format!("{out}_Bodies"), format!("{out}_Heads"));
    // The rule table always carries SUPPORT/CONFIDENCE in OutputRules;
    // the user projection may omit them, so fall back to the encoded table.
    let rules_name = if stmt.select_support && stmt.select_confidence {
        out.clone()
    } else {
        translation.names.output_rules()
    };
    let rule_cols = ["BodyId", "HeadId", "SUPPORT", "CONFIDENCE"];
    let queried = [
        query_unless_table(db, &bodies_name, "*")?,
        query_unless_table(db, &heads_name, "*")?,
        query_unless_table(db, &rules_name, &rule_cols.join(", "))?,
    ];
    let catalog = db.catalog();
    let bodies = Itemsets::read(
        relation(catalog, &bodies_name, &queried[0])?,
        &bodies_name,
        "BodyId",
        stmt.body.schema.len(),
    )?;
    let heads = Itemsets::read(
        relation(catalog, &heads_name, &queried[1])?,
        &heads_name,
        "HeadId",
        stmt.head.schema.len(),
    )?;

    let (schema, rows) = relation(catalog, &rules_name, &queried[2])?;
    let mut at = [0usize; 4];
    for (at, name) in at.iter_mut().zip(rule_cols) {
        *at = schema.resolve(None, name)?;
    }
    // The rule tables keep no group count, and the decode reads none.
    let rules = rows
        .iter()
        .map(|row| {
            Ok(EncodedRule {
                body: bodies.position(&rules_name, &row[at[0]])?,
                head: heads.position(&rules_name, &row[at[1]])?,
                group_count: 0,
                support: row[at[2]].as_float()?,
                confidence: row[at[3]].as_float()?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let rendered = bodies.sets.sets.len() + heads.sets.sets.len();
    Ok((ordered_rules(&bodies.sets, &heads.sets, &rules), rendered))
}

/// `SELECT <cols> FROM <name>` through the SQL server, unless `name` is a
/// base table (which [`relation`] then borrows from the catalog).
fn query_unless_table(db: &mut Database, name: &str, cols: &str) -> Result<Option<ResultSet>> {
    if db.catalog().has_table(name) {
        return Ok(None);
    }
    Ok(Some(db.query(&format!("SELECT {cols} FROM {name}"))?))
}

/// The schema and rows of `name`: the query result when one was taken,
/// the base table in place otherwise.
fn relation<'a>(
    catalog: &'a Catalog,
    name: &str,
    queried: &'a Option<ResultSet>,
) -> Result<(&'a Schema, &'a [Row])> {
    Ok(match queried {
        Some(rs) => (rs.schema(), rs.rows()),
        None => {
            let table = catalog.table(name)?;
            (table.schema(), table.rows())
        }
    })
}

/// The itemsets of an `<out>_Bodies` / `<out>_Heads` table.
struct Itemsets<'n> {
    table: &'n str,
    id_col: &'static str,
    /// Set id → position in `sets` (first-seen order).
    index: HashMap<i64, u32>,
    /// The sorted rendering of each set, every row rendered once.
    sets: RenderedSets,
}

impl<'n> Itemsets<'n> {
    fn read(
        (schema, rows): (&Schema, &[Row]),
        table: &'n str,
        id_col: &'static str,
        attr_count: usize,
    ) -> Result<Itemsets<'n>> {
        let id_at = schema
            .columns()
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(id_col))
            .ok_or_else(|| relational::Error::UnknownColumn {
                name: format!("{table}.{id_col}"),
            })?;
        let mut index: HashMap<i64, u32> = HashMap::new();
        let mut sets: Vec<Vec<String>> = Vec::new();
        for row in rows {
            let id = row[id_at].as_int()?;
            let rendered = row
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != id_at)
                .take(attr_count)
                .map(|(_, v)| v.to_string())
                .collect::<Vec<_>>()
                .join("|");
            let at = *index.entry(id).or_insert_with(|| {
                sets.push(Vec::new());
                sets.len() as u32 - 1
            });
            sets[at as usize].push(rendered);
        }
        let sets = sets.into_iter().map(|mut items| {
            items.sort();
            Items::from(items)
        });
        let sets = RenderedSets::new(sets.collect());
        Ok(Itemsets {
            table,
            id_col,
            index,
            sets,
        })
    }

    /// Where `sets` holds the itemset a row of the rule table `rules`
    /// references by `id`.
    fn position(&self, rules: &str, id: &Value) -> Result<u32> {
        let id = id.as_int()?;
        self.index
            .get(&id)
            .copied()
            .ok_or_else(|| MineError::DanglingItemset {
                rules: rules.to_string(),
                itemsets: self.table.to_string(),
                column: self.id_col,
                id,
            })
    }
}
