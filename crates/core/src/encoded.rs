//! The core operator's input: the encoded structures the preprocessor
//! builds.
//!
//! The core operator reads *only* these structures — it never sees real
//! attribute names or values, which is the architecture's interoperability
//! contract (§3): any mining algorithm can be plugged in behind them. The
//! fused preprocess pass hands an [`EncodedInput`] over beside the
//! encoded tables it commits
//! ([`Preprocessed::encoded_input`](crate::preprocess::Preprocessed::encoded_input));
//! [`read_encoded`] reads the same input back out of those tables, for
//! the stepwise program and as the oracle on the database's reference
//! paths.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use relational::{Database, Row, Value};

use crate::algo::GroupArena;
use crate::ast::CardSpec;
use crate::directives::{Directives, StatementClass};
use crate::error::{MineError, Result};
use crate::translator::Translation;

/// One encoded tuple of the general `CodedSource` view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeneralTuple {
    pub gid: u32,
    /// Cluster identifier; `None` when the statement has no CLUSTER BY.
    pub cid: Option<u32>,
    /// Body-item identifier; `None` on head-side rows (H true).
    pub bid: Option<u32>,
    /// Head-item identifier; `None` on body-side rows. When H is false
    /// the body identifier doubles as the head identifier.
    pub hid: Option<u32>,
}

/// An elementary (1×1) rule from `InputRules` (mining condition case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemRule {
    pub gid: u32,
    pub cidb: Option<u32>,
    pub cidh: Option<u32>,
    pub bid: u32,
    pub hid: u32,
}

/// Everything the core operator needs, in encoded form.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedInput {
    pub directives: Directives,
    pub class: StatementClass,
    pub total_groups: u32,
    pub min_groups: u32,
    pub min_support: f64,
    pub min_confidence: f64,
    pub body_card: CardSpec,
    pub head_card: CardSpec,
    pub data: EncodedData,
}

/// Class-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedData {
    /// Simple rules: `CodedSource` sorted by `(Gid, Bid)` as one flat
    /// arena — per group in Gid order, keyed by its Gid, its large item
    /// identifiers ascending, without repeats, never empty. The core
    /// mines it in place ([`crate::algo::Groups`]).
    Simple { groups: GroupArena },
    /// General rules: raw tuples plus optional couples/elementary tables,
    /// the elementary rules ordered by `(gid, cidb, cidh)` and otherwise
    /// in `InputRules` row order.
    General {
        tuples: Vec<GeneralTuple>,
        cluster_couples: Option<Vec<(u32, u32, u32)>>,
        input_rules: Option<Vec<ElemRule>>,
    },
}

impl EncodedInput {
    /// `data` under `translation`'s directives and thresholds, with the
    /// bound `:totg` and `:mingroups`.
    pub(crate) fn new(
        translation: &Translation,
        total_groups: u64,
        min_groups: u64,
        data: EncodedData,
    ) -> Result<EncodedInput> {
        let stmt = &translation.stmt;
        Ok(EncodedInput {
            directives: translation.directives,
            class: translation.class,
            total_groups: count_u32(total_groups)?,
            min_groups: count_u32(min_groups)?,
            min_support: stmt.min_support,
            min_confidence: stmt.min_confidence,
            body_card: stmt.body.card,
            head_card: stmt.head.card,
            data,
        })
    }

    /// This input under `translation`'s thresholds and the given `:totg`
    /// and `:mingroups`: shared when they are the ones it already
    /// carries (a cold run), a copy otherwise (a restore for a rerun at
    /// other thresholds).
    pub(crate) fn stamped(
        self: &Arc<Self>,
        translation: &Translation,
        total_groups: u64,
        min_groups: u64,
    ) -> Result<Arc<EncodedInput>> {
        let header = |input: &EncodedInput| {
            (
                input.directives,
                input.class,
                input.total_groups,
                input.min_groups,
                input.min_support,
                input.min_confidence,
                input.body_card,
                input.head_card,
            )
        };
        let empty = EncodedData::Simple {
            groups: GroupArena::default(),
        };
        let stamp = EncodedInput::new(translation, total_groups, min_groups, empty)?;
        if header(&stamp) == header(self) {
            return Ok(Arc::clone(self));
        }
        Ok(Arc::new(EncodedInput {
            data: self.data.clone(),
            ..stamp
        }))
    }

    /// Rough retained size, for the artifact store's bytes gauge.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let payload = match &self.data {
            EncodedData::Simple { groups } => groups.approx_bytes(),
            EncodedData::General {
                tuples,
                cluster_couples,
                input_rules,
            } => {
                let len = |n: Option<usize>| n.unwrap_or(0) as u64;
                tuples.len() as u64 * 28
                    + len(cluster_couples.as_ref().map(Vec::len)) * 12
                    + len(input_rules.as_ref().map(Vec::len)) * 28
            }
        };
        128 + payload
    }
}

/// An encoded id, checked to fit the core's `u32` ids.
pub(crate) fn id_u32(id: i64) -> Result<u32> {
    get_u32(&Value::Int(id))
}

/// `:totg` or `:mingroups`, checked to fit the core's `u32` counts.
fn count_u32(n: u64) -> Result<u32> {
    u32::try_from(n).map_err(|_| MineError::Internal {
        message: format!("group count {n} exceeds the core's u32 range"),
    })
}

pub(crate) fn get_u32(v: &Value) -> Result<u32> {
    match v {
        Value::Int(i) if *i >= 0 && *i <= u32::MAX as i64 => Ok(*i as u32),
        other => Err(MineError::Internal {
            message: format!("expected small non-negative id, got {other}"),
        }),
    }
}

fn get_opt_u32(v: &Value) -> Result<Option<u32>> {
    if v.is_null() {
        Ok(None)
    } else {
        get_u32(v).map(Some)
    }
}

/// The stored rows of the encoded catalog table `name`, with the
/// positions of its `cols`: the typed read's way in — no SQL statement,
/// no copied value rows.
fn stored<'a>(db: &'a Database, name: &str, cols: &[&str]) -> Result<(&'a [Row], Vec<usize>)> {
    let table = db.catalog().table(name)?;
    let at = cols
        .iter()
        .map(|c| {
            table
                .schema()
                .resolve(None, c)
                .map_err(|_| MineError::Internal {
                    message: format!("encoded table misses column '{c}'"),
                })
        })
        .collect::<Result<_>>()?;
    Ok((table.rows(), at))
}

/// A group count the preprocessor bound to `:name`.
fn bound_count(db: &Database, name: &str) -> Result<u64> {
    match db.var(name) {
        Some(&Value::Int(n)) => u64::try_from(n).map_err(|_| MineError::Internal {
            message: format!(":{name} is negative: {n}"),
        }),
        _ => Err(MineError::Internal {
            message: format!(":{name} unset — run preprocessing first"),
        }),
    }
}

/// Read the encoded input back out of the tables of a translation whose
/// preprocessing has run: the core's input on the stepwise route, and the
/// oracle the handed-over input must equal.
pub fn read_encoded(db: &mut Database, translation: &Translation) -> Result<EncodedInput> {
    let dir = translation.directives;
    let names = &translation.names;
    let total_groups = bound_count(db, "totg")?;
    let min_groups = bound_count(db, "mingroups")?;

    let data = match translation.class {
        StatementClass::Simple => {
            // `CodedSource` straight off the catalog into typed pairs;
            // sorting those is the `ORDER BY Gid, Bid` the core expects,
            // and the DISTINCT of `Q4` leaves no pair to fold.
            let (rows, at) = stored(db, &names.coded_source(), &["Gid", "Bid"])?;
            let mut pairs = rows
                .iter()
                .map(|row| Ok((get_u32(&row[at[0]])?, get_u32(&row[at[1]])?)))
                .collect::<Result<Vec<(u32, u32)>>>()?;
            pairs.sort_unstable();
            pairs.dedup();
            EncodedData::Simple {
                groups: GroupArena::from_sorted(pairs.into_iter()),
            }
        }
        StatementClass::General => {
            let mut cols = vec!["Gid"];
            if dir.c {
                cols.push("Cid");
            }
            cols.push("Bid");
            if dir.h {
                cols.push("Hid");
            }
            // What the `CodedSource` view yields — the DISTINCT id tuples
            // of `MiningSource` in first-seen order — read off the stored
            // rows, not through the SQL executor.
            let (rows, at) = stored(db, &names.mining_source(), &cols)?;
            let mut at = at.into_iter();
            let gid_i = at.next().expect("Gid is always read");
            let cid_i = if dir.c { at.next() } else { None };
            let bid_i = at.next().expect("Bid is always read");
            let hid_i = at.next();
            let mut seen = HashSet::with_capacity(rows.len());
            let mut tuples = Vec::with_capacity(rows.len());
            for row in rows {
                let bid = get_opt_u32(&row[bid_i])?;
                let tuple = GeneralTuple {
                    gid: get_u32(&row[gid_i])?,
                    cid: match cid_i {
                        Some(i) => Some(get_u32(&row[i])?),
                        None => None,
                    },
                    bid,
                    hid: match hid_i {
                        Some(i) => get_opt_u32(&row[i])?,
                        // Same schema for body and head: the body identifier
                        // doubles as head identifier.
                        None => bid,
                    },
                };
                if seen.insert(tuple) {
                    tuples.push(tuple);
                }
            }
            let cluster_couples = if dir.k {
                let (rows, at) = stored(db, &names.cluster_couples(), &["Gid", "Cidb", "Cidh"])?;
                Some(
                    rows.iter()
                        .map(|r| {
                            Ok((
                                get_u32(&r[at[0]])?,
                                get_u32(&r[at[1]])?,
                                get_u32(&r[at[2]])?,
                            ))
                        })
                        .collect::<Result<Vec<_>>>()?,
                )
            } else {
                None
            };
            let input_rules = if dir.m {
                let mut cols = vec!["Gid", "Bid", "Hid"];
                if dir.c {
                    cols.extend(["Cidb", "Cidh"]);
                }
                let (rows, at) = stored(db, &names.input_rules(), &cols)?;
                let cid = |row: &Row, i: usize| match at.get(i) {
                    Some(&c) => get_opt_u32(&row[c]),
                    None => Ok(None),
                };
                let mut rules = rows
                    .iter()
                    .map(|row| {
                        Ok(ElemRule {
                            gid: get_u32(&row[at[0]])?,
                            cidb: cid(row, 3)?,
                            cidh: cid(row, 4)?,
                            bid: get_u32(&row[at[1]])?,
                            hid: get_u32(&row[at[2]])?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                // The core's order, which the fused pass hands over.
                rules.sort_by_key(|r| (r.gid, r.cidb, r.cidh));
                Some(rules)
            } else {
                None
            };
            EncodedData::General {
                tuples,
                cluster_couples,
                input_rules,
            }
        }
    };

    EncodedInput::new(translation, total_groups, min_groups, data)
}

/// Decoding maps read back from `Bset`/`Hset`, used by tests and examples
/// to express expectations in terms of real item values.
#[derive(Debug, Clone, Default)]
pub struct ItemDecoder {
    /// Bid → rendered body item (single-attribute schemas render plainly;
    /// multi-attribute schemas render as `v1|v2`).
    pub bodies: HashMap<u32, String>,
    /// Hid → rendered head item (equal to `bodies` when H is false).
    pub heads: HashMap<u32, String>,
}

impl ItemDecoder {
    /// Read the decoder from the encoded item tables.
    pub fn read(db: &mut Database, translation: &Translation) -> Result<ItemDecoder> {
        let names = &translation.names;
        let stmt = &translation.stmt;
        let bodies = read_item_map(db, &names.bset(), "Bid", &stmt.body.schema)?;
        let heads = if translation.directives.h {
            read_item_map(db, &names.hset(), "Hid", &stmt.head.schema)?
        } else {
            bodies.clone()
        };
        Ok(ItemDecoder { bodies, heads })
    }

    /// Render an encoded body itemset as sorted item names.
    pub fn body_names(&self, bids: &[u32]) -> Vec<String> {
        let mut v: Vec<String> = bids
            .iter()
            .map(|b| {
                self.bodies
                    .get(b)
                    .cloned()
                    .unwrap_or_else(|| format!("#{b}"))
            })
            .collect();
        v.sort();
        v
    }

    /// Render an encoded head itemset as sorted item names.
    pub fn head_names(&self, hids: &[u32]) -> Vec<String> {
        let mut v: Vec<String> = hids
            .iter()
            .map(|h| {
                self.heads
                    .get(h)
                    .cloned()
                    .unwrap_or_else(|| format!("#{h}"))
            })
            .collect();
        v.sort();
        v
    }
}

fn read_item_map(
    db: &mut Database,
    table: &str,
    id_col: &str,
    schema: &[String],
) -> Result<HashMap<u32, String>> {
    let rs = db.query(&format!(
        "SELECT {id_col}, {} FROM {table}",
        schema.join(", ")
    ))?;
    let mut map = HashMap::with_capacity(rs.len());
    for row in rs.rows() {
        let id = get_u32(&row[0])?;
        let rendered = row[1..]
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("|");
        map.insert(id, rendered);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::purchase_db;
    use crate::parser::parse_mine_rule;
    use crate::preprocess::preprocess;
    use crate::translator::translate;

    fn prepared(stmt: &str) -> (relational::Database, crate::translator::Translation) {
        let mut db = purchase_db();
        let parsed = parse_mine_rule(stmt).unwrap();
        let translation = translate(&parsed, db.catalog()).unwrap();
        preprocess(&mut db, &translation).unwrap();
        (db, translation)
    }

    #[test]
    fn simple_encoding_reads_groups() {
        let (mut db, t) = prepared(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1",
        );
        let input = read_encoded(&mut db, &t).unwrap();
        assert_eq!(input.total_groups, 4);
        match input.data {
            EncodedData::Simple { groups } => {
                // Transaction 2 has 3 large items (everything that appears
                // in ≥1 group is large at support 0.25 → ming=1).
                assert!(groups.iter().any(|(_, items)| items.len() == 3));
            }
            other => panic!("expected simple encoding, got {other:?}"),
        }
    }

    const SIMPLE: &str = "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
         FROM Purchase GROUP BY tr EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.1";
    /// General class with every directive the typed read serves: C and K
    /// (`ClusterCouples`) and M (`InputRules`).
    const TEMPORAL: &str = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD \
         WHERE BODY.price >= 100 AND HEAD.price < 100 FROM Purchase GROUP BY customer \
         CLUSTER BY date HAVING BODY.date < HEAD.date \
         EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.1";

    /// The read this module used before it read typed, kept as the
    /// oracle: the SQL engine sorts `CodedSource` and hands back value
    /// rows.
    fn sql_read_simple(db: &mut Database, t: &Translation) -> Result<GroupArena> {
        let rs = db.query(&format!(
            "SELECT Gid, Bid FROM {} ORDER BY Gid, Bid",
            t.names.coded_source()
        ))?;
        let pairs = rs
            .rows()
            .iter()
            .map(|row| Ok((get_u32(&row[0])?, get_u32(&row[1])?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(GroupArena::from_sorted(pairs.into_iter()))
    }

    /// The general-class read this module used before it read typed:
    /// `SELECT` through the DISTINCT `CodedSource` view.
    fn sql_read_general(db: &mut Database, t: &Translation) -> Result<Vec<GeneralTuple>> {
        let dir = t.directives;
        let mut cols = vec!["Gid"];
        if dir.c {
            cols.push("Cid");
        }
        cols.push("Bid");
        if dir.h {
            cols.push("Hid");
        }
        let rs = db.query(&format!(
            "SELECT {} FROM {}",
            cols.join(", "),
            t.names.coded_source()
        ))?;
        let at = |name: &str| rs.column_index(name);
        rs.rows()
            .iter()
            .map(|row| {
                let bid = get_opt_u32(&row[at("Bid").unwrap()])?;
                Ok(GeneralTuple {
                    gid: get_u32(&row[at("Gid").unwrap()])?,
                    cid: at("Cid").map(|i| get_u32(&row[i])).transpose()?,
                    bid,
                    hid: match at("Hid") {
                        Some(i) => get_opt_u32(&row[i])?,
                        None => bid,
                    },
                })
            })
            .collect()
    }

    fn preprocessed(
        mut db: Database,
        stmt: &str,
        reference: bool,
    ) -> (Database, crate::translator::Translation) {
        db.set_reference_paths(reference);
        let translation = translate(&parse_mine_rule(stmt).unwrap(), db.catalog()).unwrap();
        preprocess(&mut db, &translation).unwrap();
        (db, translation)
    }

    fn quest_db() -> Database {
        let data = datagen::generate_quest(&datagen::QuestConfig {
            transactions: 400,
            ..datagen::QuestConfig::default()
        });
        let mut db = Database::new();
        datagen::load_quest(&data, &mut db, "Purchase").unwrap();
        db
    }

    fn retail_db() -> Database {
        let data = datagen::generate_retail(&datagen::RetailConfig::default());
        let mut db = Database::new();
        data.load(&mut db, "Purchase").unwrap();
        db
    }

    #[test]
    fn typed_simple_read_equals_the_sql_read() {
        for (label, db) in [
            ("paper", purchase_db as fn() -> Database),
            ("quest", quest_db),
            ("retail", retail_db),
        ] {
            // Fused (production) and stepwise (reference) leave the same
            // `CodedSource` table; the read must not care which.
            let mut reads = Vec::new();
            for reference in [false, true] {
                let (mut db, t) = preprocessed(db(), SIMPLE, reference);
                let oracle = sql_read_simple(&mut db, &t).unwrap();
                assert!(!oracle.is_empty(), "{label}");
                match read_encoded(&mut db, &t).unwrap().data {
                    EncodedData::Simple { groups } => {
                        assert_eq!(groups, oracle, "{label} reference={reference}");
                        reads.push(groups);
                    }
                    other => panic!("expected simple encoding, got {other:?}"),
                }
            }
            assert_eq!(reads[0], reads[1], "{label}: fused vs stepwise");
        }
    }

    /// Body and head over different attributes (H): body-side and
    /// head-side rows, NULL on the other side.
    const CROSS: &str = "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 qty AS HEAD \
         FROM Purchase GROUP BY customer CLUSTER BY date \
         EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.1";

    #[test]
    fn typed_general_read_equals_the_sql_read() {
        for (label, db) in [
            ("paper", purchase_db as fn() -> Database),
            ("retail", retail_db),
        ] {
            // Fused (production) and stepwise (reference) leave the same
            // encoded tables; the read must not care which.
            let mut reads = Vec::new();
            for (stmt, reference) in [(TEMPORAL, false), (TEMPORAL, true), (CROSS, false)] {
                let (mut db, t) = preprocessed(db(), stmt, reference);
                let EncodedData::General {
                    tuples,
                    cluster_couples,
                    input_rules,
                } = read_encoded(&mut db, &t).unwrap().data
                else {
                    panic!("{label}: expected general encoding");
                };
                let oracle = sql_read_general(&mut db, &t).unwrap();
                assert!(!oracle.is_empty(), "{label}");
                assert_eq!(tuples, oracle, "{label}: CodedSource");
                if stmt == CROSS {
                    assert!(tuples.iter().any(|tu| tu.bid.is_none()), "{label}");
                    assert!(tuples.iter().any(|tu| tu.hid.is_none()), "{label}");
                    continue;
                }
                // The same price can reach an item twice (retail): the
                // view de-duplicates what MiningSource keeps apart.
                let stored = db.catalog().table("MiningSource").unwrap().row_count();
                assert!(tuples.len() <= stored, "{label}");
                let ids = |db: &mut Database, sql: &str| -> Vec<Vec<u32>> {
                    let rs = db.query(sql).unwrap();
                    rs.rows()
                        .iter()
                        .map(|r| r.iter().map(|v| get_u32(v).unwrap()).collect())
                        .collect()
                };
                let couples = ids(&mut db, "SELECT Gid, Cidb, Cidh FROM ClusterCouples");
                // The core's order: by context, then in row order.
                let rules =
                    "SELECT Gid, Cidb, Cidh, Bid, Hid FROM InputRules ORDER BY Gid, Cidb, Cidh";
                let rules = ids(&mut db, rules);
                assert!(!couples.is_empty() && !rules.is_empty(), "{label}");
                let typed: Vec<Vec<u32>> = cluster_couples
                    .expect("K is set")
                    .iter()
                    .map(|&(g, b, h)| vec![g, b, h])
                    .collect();
                assert_eq!(typed, couples, "{label}: ClusterCouples");
                let typed: Vec<Vec<u32>> = input_rules
                    .expect("M is set")
                    .iter()
                    .map(|r| vec![r.gid, r.cidb.unwrap(), r.cidh.unwrap(), r.bid, r.hid])
                    .collect();
                assert_eq!(typed, rules, "{label}: InputRules");
                reads.push((tuples, typed));
            }
            assert_eq!(reads[0], reads[1], "{label}: fused vs stepwise");
        }
    }

    #[test]
    fn malformed_ids_fail_the_typed_read_like_the_sql_read() {
        for bad in ["NULL", "-1", "4294967296"] {
            let (mut db, t) = preprocessed(purchase_db(), SIMPLE, false);
            db.execute(&format!("INSERT INTO CodedSource VALUES ({bad}, 1)"))
                .unwrap();
            let typed = read_encoded(&mut db, &t).unwrap_err();
            assert!(
                matches!(typed, MineError::Internal { .. }),
                "{bad}: {typed}"
            );
            assert_eq!(typed, sql_read_simple(&mut db, &t).unwrap_err(), "{bad}");

            // General class: a bad Gid or Cid anywhere, a bad (non-NULL)
            // Bid — price is the mining attribute MiningSource carries.
            for row in [
                format!("({bad}, 1, 1, 100)"),
                format!("(1, {bad}, 1, 100)"),
                format!("(1, 1, {bad}, 100)"),
            ] {
                let (mut db, t) = preprocessed(purchase_db(), TEMPORAL, false);
                db.execute(&format!("INSERT INTO MiningSource VALUES {row}"))
                    .unwrap();
                let oracle = sql_read_general(&mut db, &t);
                match read_encoded(&mut db, &t) {
                    Err(typed) => assert_eq!(typed, oracle.unwrap_err(), "{row}"),
                    // A NULL Bid is a head-side row, not an error.
                    Ok(_) => assert!(oracle.is_ok() && row == "(1, 1, NULL, 100)", "{row}"),
                }
            }
        }
    }

    #[test]
    fn group_counts_outside_u32_fail_the_read_instead_of_wrapping() {
        for (var, bad) in [
            ("totg", 1i64 << 32),
            ("mingroups", (1 << 32) + 1),
            ("totg", -1),
        ] {
            let (mut db, t) = preprocessed(purchase_db(), SIMPLE, false);
            db.set_var(var, Value::Int(bad));
            let err = read_encoded(&mut db, &t).unwrap_err();
            assert!(
                matches!(err, MineError::Internal { .. }),
                ":{var} = {bad}: {err}"
            );
        }
    }

    #[test]
    fn decoder_maps_bids_to_item_names() {
        let (mut db, t) = prepared(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1",
        );
        let decoder = ItemDecoder::read(&mut db, &t).unwrap();
        let names: Vec<String> = decoder.bodies.values().cloned().collect();
        assert!(names.contains(&"jackets".to_string()));
        // Unknown ids render as placeholders rather than panicking.
        assert_eq!(decoder.body_names(&[9999]), vec!["#9999".to_string()]);
    }

    #[test]
    fn general_encoding_carries_cluster_ids() {
        let (mut db, t) = prepared(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer CLUSTER BY date \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        );
        let input = read_encoded(&mut db, &t).unwrap();
        match input.data {
            EncodedData::General { tuples, .. } => {
                assert!(!tuples.is_empty());
                assert!(tuples.iter().all(|tu| tu.cid.is_some()));
                assert!(tuples.iter().all(|tu| tu.bid == tu.hid), "H=0");
            }
            other => panic!("expected general encoding, got {other:?}"),
        }
    }
}
