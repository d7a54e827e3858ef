//! The postprocessor (§4.4): store the core operator's encoded rules in
//! the DBMS and decode them into user-readable output tables.
//!
//! The core operator's output is the three-table normalised form of the
//! paper — `OutputRules (BodyId, HeadId, SUPPORT, CONFIDENCE)` plus
//! `OutputBodies (BodyId, Bid)` and `OutputHeads (HeadId, Hid)` — chosen
//! precisely because SQL92 has no set-valued attributes. Decoding is then
//! a pair of joins with `Bset`/`Hset`.
//!
//! [`decode_rules`] is the whole phase. Inside the server the item
//! dictionary is an array, not a join: **one in-memory pass** over the
//! encoded rules assigns the body/head identifiers, looks each item up in
//! `Bset`/`Hset` by id, and builds the three normalised tables, the three
//! decoded `<out>` tables and the rules handed back to the caller —
//! schema, row contents *and* row order bit-identical to the SQL program
//! `translation.postprocess` (`P1`–`P3`), which `tests/planner_agreement.rs`
//! enforces. On the database's reference paths
//! ([`Database::set_reference_paths`]), and whenever the pass fails, the
//! written route runs instead: [`store_encoded_rules`] → [`postprocess`]
//! → [`read_rules`], which stay public as the oracle and for reading a
//! rule table an earlier session left behind.

use std::collections::HashMap;

use relational::catalog::Catalog;
use relational::exec::select::value_type;
use relational::expr::eval::QueryCtx;
use relational::{Column, DataType, Database, ExecCounter, ResultSet, Row, Schema, Table, Value};

use crate::algo::EncodedRule;
use crate::error::{MineError, Result};
use crate::preprocess::{int_columns, run_steps, table_of};
use crate::translator::{Step, Translation};

/// Write the encoded rules into `OutputRules` / `OutputBodies` /
/// `OutputHeads`, assigning body/head identifiers (identical itemsets
/// share an identifier, as the normalised form intends).
pub fn store_encoded_rules(
    db: &mut Database,
    translation: &Translation,
    rules: &[EncodedRule],
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

    let mut body_ids: HashMap<&[u32], i64> = HashMap::new();
    let mut head_ids: HashMap<&[u32], i64> = HashMap::new();
    let mut body_rows: Vec<Vec<Value>> = Vec::new();
    let mut head_rows: Vec<Vec<Value>> = Vec::new();
    let mut rule_rows: Vec<Vec<Value>> = Vec::with_capacity(rules.len());

    for rule in rules {
        let next_body = body_ids.len() as i64 + 1;
        let body_id = *body_ids.entry(rule.body.as_slice()).or_insert_with(|| {
            for &bid in &rule.body {
                body_rows.push(vec![Value::Int(next_body), Value::Int(bid as i64)]);
            }
            next_body
        });
        let next_head = head_ids.len() as i64 + 1;
        let head_id = *head_ids.entry(rule.head.as_slice()).or_insert_with(|| {
            for &hid in &rule.head {
                head_rows.push(vec![Value::Int(next_head), Value::Int(hid as i64)]);
            }
            next_head
        });
        rule_rows.push(vec![
            Value::Int(body_id),
            Value::Int(head_id),
            Value::Float(rule.support),
            Value::Float(rule.confidence),
        ]);
    }

    let catalog = db.catalog_mut();
    catalog
        .table_mut(&names.output_rules())?
        .insert_all(rule_rows)?;
    catalog
        .table_mut(&names.output_bodies())?
        .insert_all(body_rows)?;
    catalog
        .table_mut(&names.output_heads())?
        .insert_all(head_rows)?;
    Ok(())
}

/// Run the decode joins, producing `<out>`, `<out>_Bodies`, `<out>_Heads`.
pub fn postprocess(db: &mut Database, translation: &Translation) -> Result<()> {
    run_steps(db, &translation.postprocess, translation.stmt.min_support)?;
    Ok(())
}

/// A decoded rule, read back from the output tables.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedRule {
    /// Sorted rendered body items (multi-attribute items join with `|`).
    pub body: Vec<String>,
    /// Sorted rendered head items.
    pub head: Vec<String>,
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
}

/// The postprocessing phase: leave the six output tables in the catalog
/// and return the decoded rules — as one fused in-memory pass, unless the
/// database is on its reference paths.
///
/// Whatever fails inside the fused pass — a dictionary table that is not
/// what the preprocessor left, an output name the cleanup could not free —
/// its work is discarded and the written route runs: that route's error
/// is the statement's error, and the catalog is left as it leaves it
/// (exactly [`crate::preprocess::preprocess`]'s contract).
pub fn decode_rules(
    db: &mut Database,
    translation: &Translation,
    rules: &[EncodedRule],
) -> Result<Decoded> {
    if !db.reference_paths() {
        if let Ok(decoded) = run_fused(db, translation, rules) {
            return Ok(decoded);
        }
    }
    store_encoded_rules(db, translation, rules)?;
    postprocess(db, translation)?;
    Ok(Decoded {
        rules: read_rules(db, translation)?,
        fused_steps: 0,
    })
}

/// The fused pass: compute all six tables and the rules, then commit.
fn run_fused(
    db: &mut Database,
    translation: &Translation,
    rules: &[EncodedRule],
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
struct Dictionary<'a> {
    /// The dictionary row of each item id; slot 0 is never an id.
    by_id: Vec<Option<&'a Row>>,
    /// Where a dictionary row holds the side's schema attributes, with the
    /// columns' declared types.
    attrs: Vec<(usize, DataType)>,
    /// The rendering of each item, filled on first use.
    rendered: Vec<Option<String>>,
}

impl<'a> Dictionary<'a> {
    /// Index `dict` by `id_col` and resolve `attrs` the way the decode
    /// join's select list resolves them: against the `link` table's two id
    /// columns joined with the dictionary's. A name the join would not
    /// resolve to a dictionary column, or an id column that is not a dense
    /// key, declines.
    fn new(
        dict: &'a Table,
        id_col: &str,
        link: &str,
        link_cols: &[&str; 2],
        attrs: &[String],
    ) -> Result<Dictionary<'a>> {
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
        let mut by_id: Vec<Option<&Row>> = vec![None; rows.len() + 1];
        for row in rows {
            let slot = match row[id_at] {
                Value::Int(id) if id >= 1 => by_id.get_mut(id as usize),
                _ => None,
            };
            match slot {
                Some(slot @ None) => *slot = Some(row),
                _ => {
                    return Err(declined(format!(
                        "{}.{id_col} is not a dense key",
                        dict.name()
                    )))
                }
            }
        }
        Ok(Dictionary {
            rendered: vec![None; by_id.len()],
            by_id,
            attrs,
        })
    }

    /// The dictionary row of `item` and its rendering (multi-attribute
    /// items join with `|`), rendered once.
    fn item(&mut self, item: u32) -> Result<(&'a Row, &str)> {
        let at = item as usize;
        let row = self
            .by_id
            .get(at)
            .copied()
            .flatten()
            .ok_or_else(|| declined(format!("item id {item} is not in the dictionary")))?;
        let attrs = &self.attrs;
        let text = self.rendered[at].get_or_insert_with(|| {
            attrs
                .iter()
                .map(|&(i, _)| row[i].to_string())
                .collect::<Vec<_>>()
                .join("|")
        });
        Ok((row, text))
    }
}

/// One side (bodies or heads) of the decoding: the identifier of each
/// distinct itemset in first-seen order, and the rows that go with it.
struct Side<'a, 'r> {
    dict: Dictionary<'a>,
    /// The normalised link table (`OutputBodies` / `OutputHeads`) and its
    /// `(set id, item id)` columns.
    link: String,
    link_cols: [&'static str; 2],
    ids: HashMap<&'r [u32], i64>,
    /// `(set id, item id)`: the rows of the link table.
    encoded: Vec<Row>,
    /// `(set id, item attributes...)`: the rows of `<out>_Bodies` /
    /// `<out>_Heads`, in the order the decode join emits them (one per
    /// encoded row, in that table's order).
    decoded: Vec<Row>,
    /// The sorted rendering of each set; set `id` is at `id - 1`.
    sets: Vec<Vec<String>>,
}

impl<'a, 'r> Side<'a, 'r> {
    /// A side decoding through `dict` on `id_col`; `attrs` is the side's
    /// schema in the MINE RULE statement.
    fn new(
        dict: &'a Table,
        id_col: &str,
        link: String,
        link_cols: [&'static str; 2],
        attrs: &[String],
    ) -> Result<Side<'a, 'r>> {
        Ok(Side {
            dict: Dictionary::new(dict, id_col, &link, &link_cols, attrs)?,
            link,
            link_cols,
            ids: HashMap::new(),
            encoded: Vec::new(),
            decoded: Vec::new(),
            sets: Vec::new(),
        })
    }

    /// The identifier of `set`, decoding it on first sight.
    fn id_of(&mut self, set: &'r [u32]) -> Result<i64> {
        if let Some(&id) = self.ids.get(set) {
            return Ok(id);
        }
        let id = self.ids.len() as i64 + 1;
        let mut rendered = Vec::with_capacity(set.len());
        for &item in set {
            let (row, text) = self.dict.item(item)?;
            rendered.push(text.to_string());
            let mut decoded = Vec::with_capacity(1 + self.dict.attrs.len());
            decoded.push(Value::Int(id));
            decoded.extend(self.dict.attrs.iter().map(|&(i, _)| row[i].clone()));
            self.decoded.push(decoded);
            self.encoded
                .push(vec![Value::Int(id), Value::Int(item as i64)]);
        }
        rendered.sort();
        self.sets.push(rendered);
        self.ids.insert(set, id);
        Ok(id)
    }

    /// The side's link table and its decoded table `decoded_name` over the
    /// statement's `attrs`. `CREATE TABLE AS` types a column by its first
    /// non-NULL value and falls back to the declared type of the column it
    /// selects.
    fn into_tables(self, decoded_name: String, attrs: &[String]) -> Result<(Table, Table)> {
        let mut columns = int_columns(&self.link_cols[..1]);
        for (at, (attr, &(_, declared))) in attrs.iter().zip(&self.dict.attrs).enumerate() {
            let dtype = self
                .decoded
                .iter()
                .find_map(|row| value_type(&row[at + 1]))
                .unwrap_or(declared);
            columns.push(Column::new(attr.clone(), dtype));
        }
        Ok((
            table_of(self.link, int_columns(&self.link_cols), self.encoded)?,
            table_of(decoded_name, columns, self.decoded)?,
        ))
    }
}

/// Everything the fused pass produces, computed without touching the
/// catalog: [`FusedDecoding::commit`] is the only writer.
struct FusedDecoding {
    /// The six output tables, in the order the written route creates them.
    tables: Vec<Table>,
    rules: Vec<DecodedRule>,
    /// The SQL statements of `translation.postprocess` subsumed.
    fused_steps: usize,
    /// Executor work of the pass, accounted at commit.
    work: [(ExecCounter, u64); 2],
}

impl FusedDecoding {
    /// The fused postprocessing pass.
    ///
    /// One loop over the encoded rules assigns `BodyId`/`HeadId` exactly
    /// as [`store_encoded_rules`] does and builds, set by set, the rows
    /// `P2`/`P3` would join out of `Bset`/`Hset` (without H, heads decode
    /// through `Bset` on `Hid = Bid`). The rules handed back are ordered
    /// by a rank computed once per *distinct* body and head, with the tie
    /// order [`read_rules`] gives.
    fn compute(
        db: &Database,
        translation: &Translation,
        rules: &[EncodedRule],
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
        let mut bodies = Side::new(
            bset,
            "Bid",
            names.output_bodies(),
            ["BodyId", "Bid"],
            &stmt.body.schema,
        )?;
        let mut heads = Side::new(
            hdict,
            hid,
            names.output_heads(),
            ["HeadId", "Hid"],
            &stmt.head.schema,
        )?;

        let mut rule_rows: Vec<Row> = Vec::with_capacity(rules.len());
        let mut out_rows: Vec<Row> = Vec::with_capacity(rules.len());
        let mut refs: Vec<RuleRef> = Vec::with_capacity(rules.len());
        for rule in rules {
            let body_id = bodies.id_of(&rule.body)?;
            let head_id = heads.id_of(&rule.head)?;
            let (support, confidence) = (Value::Float(rule.support), Value::Float(rule.confidence));
            let mut projected = vec![Value::Int(body_id), Value::Int(head_id)];
            if stmt.select_support {
                projected.push(support.clone());
            }
            if stmt.select_confidence {
                projected.push(confidence.clone());
            }
            out_rows.push(projected);
            rule_rows.push(vec![
                Value::Int(body_id),
                Value::Int(head_id),
                support,
                confidence,
            ]);
            refs.push(RuleRef {
                body: body_id as usize - 1,
                head: head_id as usize - 1,
                support: rule.support,
                confidence: rule.confidence,
            });
        }

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

        // What P1–P3 read and join, had the SQL server run them.
        let linked = (bodies.encoded.len() + heads.encoded.len()) as u64;
        let scanned = rules.len() as u64 + linked + (bset.row_count() + hdict.row_count()) as u64;
        let decoded_rules = ordered_rules(&bodies.sets, &heads.sets, refs);
        let (body_links, body_items) =
            bodies.into_tables(format!("{out}_Bodies"), &stmt.body.schema)?;
        let (head_links, head_items) =
            heads.into_tables(format!("{out}_Heads"), &stmt.head.schema)?;
        let tables = vec![
            table_of(names.output_rules(), rule_columns, rule_rows)?,
            body_links,
            head_links,
            table_of(out.clone(), out_columns, out_rows)?,
            body_items,
            head_items,
        ];
        Ok(FusedDecoding {
            tables,
            rules: decoded_rules,
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

    /// Create the six tables in the catalog — all of them or, when one
    /// cannot be created or stored, none — as one storage transaction.
    fn commit(self, db: &mut Database) -> Result<Decoded> {
        let mut created: Vec<String> = Vec::with_capacity(self.tables.len());
        let stored = self
            .tables
            .into_iter()
            .try_for_each(|table| {
                let name = table.name().to_string();
                db.catalog_mut().create_table(table)?;
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
        })
    }
}

/// One rule as positions into the two sides' distinct itemsets.
struct RuleRef {
    body: usize,
    head: usize,
    support: f64,
    confidence: f64,
}

/// The dense rank of each itemset in rendered order; equal renderings
/// share a rank, so ordering by rank is ordering by the rendering.
fn set_ranks(sets: &[Vec<String>]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by(|&a, &b| sets[a].cmp(&sets[b]));
    let mut ranks = vec![0u32; sets.len()];
    let mut rank = 0;
    for pair in order.windows(2) {
        rank += u32::from(sets[pair[0]] != sets[pair[1]]);
        ranks[pair[1]] = rank;
    }
    ranks
}

/// The decoded rules sorted by (body, head), rules with equal renderings
/// staying in stored order: each *distinct* itemset is ranked once and the
/// rules are ordered by rank pairs — no string is compared per rule.
fn ordered_rules(
    bodies: &[Vec<String>],
    heads: &[Vec<String>],
    mut refs: Vec<RuleRef>,
) -> Vec<DecodedRule> {
    let (body_rank, head_rank) = (set_ranks(bodies), set_ranks(heads));
    refs.sort_by_key(|r| (body_rank[r.body], head_rank[r.head]));
    refs.into_iter()
        .map(|r| DecodedRule {
            body: bodies[r.body].clone(),
            head: heads[r.head].clone(),
            support: r.support,
            confidence: r.confidence,
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
    let refs = rows
        .iter()
        .map(|row| {
            Ok(RuleRef {
                body: bodies.position(&rules_name, &row[at[0]])?,
                head: heads.position(&rules_name, &row[at[1]])?,
                support: row[at[2]].as_float()?,
                confidence: row[at[3]].as_float()?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(ordered_rules(&bodies.sets, &heads.sets, refs))
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
    index: HashMap<i64, usize>,
    /// The sorted rendering of each set, every row rendered once.
    sets: Vec<Vec<String>>,
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
        let mut index: HashMap<i64, usize> = HashMap::new();
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
                sets.len() - 1
            });
            sets[at].push(rendered);
        }
        for items in &mut sets {
            items.sort();
        }
        Ok(Itemsets {
            table,
            id_col,
            index,
            sets,
        })
    }

    /// Where `sets` holds the itemset a row of the rule table `rules`
    /// references by `id`.
    fn position(&self, rules: &str, id: &Value) -> Result<usize> {
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
