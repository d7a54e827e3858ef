//! The decoupled-architecture baseline the paper argues against (§1).
//!
//! The decoupled flow is: (1) extract the source data from the SQL server
//! and serialise it to a flat file, (2) run a standalone miner that knows
//! nothing about the database and works on raw string items, (3) keep the
//! rules in the tool's own format and, if the user wants them joined with
//! database data, re-import them through another parse + load step. The
//! three inconveniences §1 lists — preparation cost, limited paradigm,
//! rules stranded outside the database — all show up here, measurably
//! (benchmark E1).

use std::collections::HashMap;
use std::fmt::Write as _;

use relational::Database;

use crate::algo::apriori::mine_gidlist_with_border;
use crate::algo::itemset::for_each_proper_subset;
use crate::algo::{CountingCtx, GroupArena};
use crate::error::{MineError, Result};

/// A rule in the standalone tool's text format.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatRule {
    pub body: Vec<String>,
    pub head: Vec<String>,
    pub support: f64,
    pub confidence: f64,
}

/// Step 1: export a (group, item) projection of a query to CSV text, the
/// "long preparation for extracting data" of §1.
pub fn export_to_csv(db: &mut Database, query: &str) -> Result<String> {
    let rs = db.query(query)?;
    if rs.schema().len() != 2 {
        return Err(MineError::Internal {
            message: format!(
                "decoupled export expects (group, item) pairs, got {} columns",
                rs.schema().len()
            ),
        });
    }
    let mut out = String::new();
    for row in rs.rows() {
        // Quote-less CSV with escaping of separators, as early tools did.
        let g = row[0].to_string().replace([',', '\n'], "_");
        let i = row[1].to_string().replace([',', '\n'], "_");
        writeln!(out, "{g},{i}").expect("string write");
    }
    Ok(out)
}

/// Steps 2–3 of the standalone tool: parse the flat file, re-encode the
/// string items into integers (work the tightly-coupled preprocessor does
/// inside the server), mine, and emit rules on raw strings again.
pub fn mine_flat_file(csv: &str, min_support: f64, min_confidence: f64) -> Result<Vec<FlatRule>> {
    // Parse + encode.
    let mut item_ids: HashMap<&str, u32> = HashMap::new();
    let mut item_names: Vec<&str> = Vec::new();
    let mut groups_by_key: HashMap<&str, Vec<u32>> = HashMap::new();
    let mut group_order: Vec<&str> = Vec::new();
    for (lineno, line) in csv.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let Some((g, i)) = line.split_once(',') else {
            return Err(MineError::Internal {
                message: format!("flat file line {} is not group,item", lineno + 1),
            });
        };
        let id = *item_ids.entry(i).or_insert_with(|| {
            item_names.push(i);
            (item_names.len() - 1) as u32
        });
        groups_by_key
            .entry(g)
            .or_insert_with(|| {
                group_order.push(g);
                Vec::new()
            })
            .push(id);
    }
    let mut groups = GroupArena::default();
    for (at, g) in (0..).zip(&group_order) {
        let mut items = groups_by_key.remove(g).unwrap_or_default();
        items.sort_unstable();
        items.dedup();
        groups.push_group(at, &items);
    }
    let total = groups.len() as u32;
    let min_groups = ((total as f64 * min_support).ceil() as u32).max(1);

    // Mine.
    let (large, _) = mine_gidlist_with_border(groups.groups(), min_groups, &CountingCtx::default());
    let counts: HashMap<&[u32], u32> = large
        .iter()
        .map(|(set, cnt)| (set.as_slice(), *cnt))
        .collect();

    // Emit rules with single-item heads (the classical tool paradigm —
    // the "limited data mining paradigm" of §1: no clusters, no mining
    // conditions, no alternative schemas).
    let mut rules = Vec::new();
    for (set, cnt) in &large {
        if set.len() < 2 {
            continue;
        }
        for_each_proper_subset(set, 1, &mut |head| {
            let body: Vec<u32> = set
                .iter()
                .copied()
                .filter(|x| head.binary_search(x).is_err())
                .collect();
            let Some(&body_cnt) = counts.get(body.as_slice()) else {
                return;
            };
            let confidence = *cnt as f64 / body_cnt as f64;
            if confidence + 1e-12 >= min_confidence {
                rules.push(FlatRule {
                    body: body
                        .iter()
                        .map(|&b| item_names[b as usize].to_string())
                        .collect(),
                    head: head
                        .iter()
                        .map(|&h| item_names[h as usize].to_string())
                        .collect(),
                    support: *cnt as f64 / total.max(1) as f64,
                    confidence,
                });
            }
        });
    }
    for r in &mut rules {
        r.body.sort();
        r.head.sort();
    }
    rules.sort_by(|a, b| a.body.cmp(&b.body).then(a.head.cmp(&b.head)));
    Ok(rules)
}

/// Step 4: re-import the tool's rules into the database so they can be
/// joined with other tables — the step the decoupled architecture makes
/// painful ("it is quite hard to combine the information embedded into
/// them with the data in the database").
pub fn import_rules(db: &mut Database, table: &str, rules: &[FlatRule]) -> Result<()> {
    db.execute(&format!("DROP TABLE IF EXISTS {table}"))?;
    db.execute(&format!(
        "CREATE TABLE {table} (body VARCHAR, head VARCHAR, support FLOAT, confidence FLOAT)"
    ))?;
    for r in rules {
        // Itemsets collapse into delimited strings: the relational system
        // cannot see individual items any more.
        db.execute(&format!(
            "INSERT INTO {table} VALUES ('{}', '{}', {}, {})",
            r.body.join(";").replace('\'', "''"),
            r.head.join(";").replace('\'', "''"),
            r.support,
            r.confidence
        ))?;
    }
    Ok(())
}

/// The full decoupled flow: export to a flat file on disk → standalone
/// mine → import. Returns the rules (also left in `rule_table`). The disk
/// round-trip is part of the architecture being modelled: the mining tool
/// is a separate program that only sees files.
pub fn run_decoupled(
    db: &mut Database,
    extract_query: &str,
    min_support: f64,
    min_confidence: f64,
    rule_table: &str,
) -> Result<Vec<FlatRule>> {
    let csv = export_to_csv(db, extract_query)?;
    let path = std::env::temp_dir().join(format!(
        "tcdm_decoupled_{}_{}.csv",
        std::process::id(),
        rule_table
    ));
    let io_err = |e: std::io::Error| MineError::Internal {
        message: format!("decoupled flat-file I/O failed: {e}"),
    };
    std::fs::write(&path, &csv).map_err(io_err)?;
    let reread = std::fs::read_to_string(&path).map_err(io_err)?;
    let rules = mine_flat_file(&reread, min_support, min_confidence)?;
    let _ = std::fs::remove_file(&path);
    import_rules(db, rule_table, &rules)?;
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (tr INT, item VARCHAR)").unwrap();
        db.execute("INSERT INTO T VALUES (1,'a'), (1,'b'), (2,'a'), (2,'b'), (3,'a'), (4,'c')")
            .unwrap();
        db
    }

    #[test]
    fn flat_flow_finds_rules() {
        let mut db = db();
        let rules =
            run_decoupled(&mut db, "SELECT tr, item FROM T", 0.5, 0.5, "ToolRules").unwrap();
        // {a} ⇒ {b}: support 2/4, confidence 2/3; {b} ⇒ {a}: 2/4, 1.0.
        assert_eq!(rules.len(), 2);
        let ba = rules
            .iter()
            .find(|r| r.body == vec!["b"] && r.head == vec!["a"])
            .unwrap();
        assert!((ba.confidence - 1.0).abs() < 1e-12);
        // Rules are back in the DB, but as opaque strings.
        let rs = db
            .query("SELECT body FROM ToolRules ORDER BY body")
            .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn export_requires_two_columns() {
        let mut db = db();
        assert!(export_to_csv(&mut db, "SELECT tr, item, tr FROM T").is_err());
    }

    #[test]
    fn csv_separators_escaped() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (g INT, item VARCHAR)").unwrap();
        db.execute("INSERT INTO T VALUES (1, 'a,b')").unwrap();
        let csv = export_to_csv(&mut db, "SELECT g, item FROM T").unwrap();
        assert_eq!(csv, "1,a_b\n");
    }
}
