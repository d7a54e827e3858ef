//! A brute-force reference implementation of the MINE RULE operational
//! semantics (§2, steps 1–6), evaluated directly from first principles —
//! no encoding, no SQL programs, no lattice.
//!
//! This evaluator is exponential in the per-group item count and exists
//! purely as a *differential-testing oracle*: on small inputs the full
//! pipeline (translator → preprocessor → core → postprocessor) must
//! produce exactly the rules this module computes. See
//! `tests/differential.rs`.

use std::collections::{BTreeMap, BTreeSet};

use relational::expr::eval::{eval_expr, eval_grouped, NoCtx};
use relational::expr::Expr;
use relational::row::Row;
use relational::types::{Column, Schema};
use relational::{Database, Value};

use crate::ast::MineRuleStatement;
use crate::error::{MineError, Result};
use crate::postprocess::DecodedRule;
use crate::preprocess::min_groups_for;

/// Rendered item: the body/head schema values joined with `|` (matching
/// the pipeline's decoder).
type Item = String;

/// Evaluate a MINE RULE statement by direct enumeration.
pub fn reference_mine(db: &mut Database, stmt: &MineRuleStatement) -> Result<Vec<DecodedRule>> {
    // Step 1 — FROM .. WHERE: the actual input table.
    let needed = stmt.needed_attributes();
    let mut from = String::new();
    for (i, t) in stmt.from.iter().enumerate() {
        if i > 0 {
            from.push_str(", ");
        }
        from.push_str(&t.name);
        if let Some(a) = &t.alias {
            from.push_str(&format!(" AS {a}"));
        }
    }
    let where_clause = match &stmt.source_cond {
        Some(c) => format!(" WHERE {c}"),
        None => String::new(),
    };
    let rs = db
        .query(&format!(
            "SELECT {} FROM {from}{where_clause}",
            needed.join(", ")
        ))
        .map_err(MineError::from)?;
    let schema = rs.schema().clone();
    let rows: Vec<Row> = rs.into_rows();

    let idx_of = |name: &str| -> Result<usize> {
        schema
            .columns()
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| MineError::Internal {
                message: format!("reference: attribute '{name}' missing"),
            })
    };
    let group_idx: Vec<usize> = stmt
        .group_by
        .iter()
        .map(|a| idx_of(a))
        .collect::<Result<_>>()?;
    let cluster_idx: Vec<usize> = stmt
        .cluster_by
        .iter()
        .map(|a| idx_of(a))
        .collect::<Result<_>>()?;
    let body_idx: Vec<usize> = stmt
        .body
        .schema
        .iter()
        .map(|a| idx_of(a))
        .collect::<Result<_>>()?;
    let head_idx: Vec<usize> = stmt
        .head
        .schema
        .iter()
        .map(|a| idx_of(a))
        .collect::<Result<_>>()?;

    // Step 2 — GROUP BY: disjoint groups, in key order for determinism.
    let mut groups: BTreeMap<Vec<String>, Vec<usize>> = BTreeMap::new();
    for (r, row) in rows.iter().enumerate() {
        let key: Vec<String> = group_idx.iter().map(|&i| row[i].to_string()).collect();
        groups.entry(key).or_default().push(r);
    }
    let total_groups = groups.len() as u32;
    let min_groups = min_groups_for(total_groups as u64, stmt.min_support) as u32;

    // Group HAVING (applied after the total count, matching Q1 then Q2).
    let group_key_exprs: Vec<Expr> = stmt.group_by.iter().map(|a| Expr::col(a.clone())).collect();
    let mut valid_groups: Vec<Vec<usize>> = Vec::new();
    for idxs in groups.values() {
        if let Some(cond) = &stmt.group_cond {
            let grows: Vec<&Row> = idxs.iter().map(|&i| &rows[i]).collect();
            let key_values: Vec<Value> = group_idx.iter().map(|&i| grows[0][i].clone()).collect();
            let keep = eval_grouped(
                cond,
                &schema,
                &grows,
                &group_key_exprs,
                &key_values,
                &mut NoCtx,
            )
            .map_err(MineError::from)?;
            if !keep.is_true() {
                continue;
            }
        }
        valid_groups.push(idxs.clone());
    }

    // Large-item filter (the Bset/Hset semantics): an item participates
    // only if it occurs in at least `min_groups` *groups* (counted over
    // all groups, as Q3 does, not only valid ones).
    let render = |row: &Row, idx: &[usize]| -> Item {
        idx.iter()
            .map(|&i| row[i].to_string())
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut body_item_groups: BTreeMap<Item, BTreeSet<usize>> = BTreeMap::new();
    let mut head_item_groups: BTreeMap<Item, BTreeSet<usize>> = BTreeMap::new();
    for (g, idxs) in groups.values().enumerate() {
        for &r in idxs {
            body_item_groups
                .entry(render(&rows[r], &body_idx))
                .or_default()
                .insert(g);
            head_item_groups
                .entry(render(&rows[r], &head_idx))
                .or_default()
                .insert(g);
        }
    }
    let large_body: BTreeSet<Item> = body_item_groups
        .iter()
        .filter(|(_, gs)| gs.len() as u32 >= min_groups)
        .map(|(i, _)| i.clone())
        .collect();
    let large_head: BTreeSet<Item> = head_item_groups
        .iter()
        .filter(|(_, gs)| gs.len() as u32 >= min_groups)
        .map(|(i, _)| i.clone())
        .collect();
    let same_schema = stmt.body.schema.len() == stmt.head.schema.len()
        && stmt
            .body
            .schema
            .iter()
            .all(|a| stmt.head.schema.iter().any(|b| a.eq_ignore_ascii_case(b)));

    // Steps 3–5 per valid group: clusters, cluster pairs, item pairs.
    // For each group we collect every locally-holding (body set, head set)
    // pair, then count supports globally.
    let mut rule_groups: BTreeMap<(Vec<Item>, Vec<Item>), BTreeSet<usize>> = BTreeMap::new();
    let mut body_groups: BTreeMap<Vec<Item>, BTreeSet<usize>> = BTreeMap::new();

    for (g, idxs) in valid_groups.iter().enumerate() {
        // Step 3 — CLUSTER BY: partition the group (one pseudo-cluster
        // without the clause).
        let mut clusters: BTreeMap<Vec<String>, Vec<usize>> = BTreeMap::new();
        for &r in idxs {
            let key: Vec<String> = cluster_idx
                .iter()
                .map(|&i| rows[r][i].to_string())
                .collect();
            clusters.entry(key).or_default().push(r);
        }
        let cluster_list: Vec<&Vec<usize>> = clusters.values().collect();

        // Step 4 — HAVING on cluster pairs.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for cb in 0..cluster_list.len() {
            for ch in 0..cluster_list.len() {
                if let Some(cond) = &stmt.cluster_cond {
                    if !cluster_pair_satisfies(
                        cond,
                        &schema,
                        &rows,
                        cluster_list[cb],
                        cluster_list[ch],
                        &stmt.cluster_by,
                        &cluster_idx,
                    )? {
                        continue;
                    }
                }
                pairs.push((cb, ch));
            }
        }

        // Confidence denominator: "all body clusters are used for
        // computing confidence" — the body occurs in a group if some
        // cluster contains it, regardless of pair validity.
        for cluster in &cluster_list {
            let mut items: BTreeSet<Item> = BTreeSet::new();
            for &r in cluster.iter() {
                let bi = render(&rows[r], &body_idx);
                if large_body.contains(&bi) {
                    items.insert(bi);
                }
            }
            let item_vec: Vec<Item> = items.into_iter().collect();
            for bset in subsets_up_to(&item_vec, stmt.body.card.upper_limit() as usize) {
                if stmt.body.card.admits(bset.len()) {
                    body_groups.entry(bset).or_default().insert(g);
                }
            }
        }

        // Step 5 — elementary pairs per cluster pair, then all subset
        // combinations that hold.
        for (cb, ch) in pairs {
            let body_rows = cluster_list[cb];
            let head_rows = cluster_list[ch];
            // Elementary validity per (item, item): some row pair with
            // those items satisfies the mining condition.
            let mut elem: BTreeSet<(Item, Item)> = BTreeSet::new();
            let mut body_items: BTreeSet<Item> = BTreeSet::new();
            let mut head_items: BTreeSet<Item> = BTreeSet::new();
            for &rb in body_rows {
                let bi = render(&rows[rb], &body_idx);
                if !large_body.contains(&bi) {
                    continue;
                }
                body_items.insert(bi.clone());
                for &rh in head_rows {
                    let hi = render(&rows[rh], &head_idx);
                    if !large_head.contains(&hi) {
                        continue;
                    }
                    head_items.insert(hi.clone());
                    if same_schema && bi == hi {
                        continue;
                    }
                    if let Some(cond) = &stmt.mining_cond {
                        if !mining_pair_satisfies(cond, &schema, &rows[rb], &rows[rh])? {
                            continue;
                        }
                    }
                    elem.insert((bi.clone(), hi.clone()));
                }
            }
            // Enumerate candidate rules: B × H fully elementary-valid.
            let body_vec: Vec<Item> = body_items.iter().cloned().collect();
            let head_vec: Vec<Item> = head_items.iter().cloned().collect();
            for bset in subsets_up_to(&body_vec, stmt.body.card.upper_limit() as usize) {
                if !stmt.body.card.admits(bset.len()) {
                    continue;
                }
                for hset in subsets_up_to(&head_vec, stmt.head.card.upper_limit() as usize) {
                    if !stmt.head.card.admits(hset.len()) {
                        continue;
                    }
                    if bset
                        .iter()
                        .all(|b| hset.iter().all(|h| elem.contains(&(b.clone(), h.clone()))))
                    {
                        rule_groups
                            .entry((bset.clone(), hset))
                            .or_default()
                            .insert(g);
                    }
                }
            }
        }
    }

    // Step 6 — support/confidence thresholds, then the output rendering.
    let mut out = Vec::new();
    for ((body, head), gs) in rule_groups {
        let count = gs.len() as u32;
        if count < min_groups {
            continue;
        }
        let body_count = body_groups
            .get(&body)
            .map(|s| s.len() as u32)
            .unwrap_or(0)
            .max(count);
        let support = count as f64 / total_groups.max(1) as f64;
        let confidence = count as f64 / body_count as f64;
        if support + 1e-12 < stmt.min_support || confidence + 1e-12 < stmt.min_confidence {
            continue;
        }
        out.push(DecodedRule {
            body: body.into(),
            head: head.into(),
            support,
            confidence,
        });
    }
    out.sort_by(|a, b| a.body.cmp(&b.body).then(a.head.cmp(&b.head)));
    Ok(out)
}

/// Non-empty subsets of `items` with size ≤ `max` (items are distinct and
/// sorted; subsets come out sorted).
fn subsets_up_to(items: &[Item], max: usize) -> Vec<Vec<Item>> {
    let cap = max.min(items.len()).min(16);
    let mut out = Vec::new();
    let mut buf: Vec<Item> = Vec::new();
    fn rec(
        items: &[Item],
        start: usize,
        cap: usize,
        buf: &mut Vec<Item>,
        out: &mut Vec<Vec<Item>>,
    ) {
        for i in start..items.len() {
            buf.push(items[i].clone());
            out.push(buf.clone());
            if buf.len() < cap {
                rec(items, i + 1, cap, buf, out);
            }
            buf.pop();
        }
    }
    if cap > 0 {
        rec(items, 0, cap, &mut buf, &mut out);
    }
    out
}

/// Evaluate the cluster condition on one (body cluster, head cluster)
/// pair: aggregates are computed over the respective cluster's rows,
/// plain references resolve to the cluster's key attributes.
fn cluster_pair_satisfies(
    cond: &Expr,
    schema: &Schema,
    rows: &[Row],
    body_rows: &[usize],
    head_rows: &[usize],
    cluster_attrs: &[String],
    cluster_idx: &[usize],
) -> Result<bool> {
    // Substitute aggregates with literals computed per side.
    let substituted = substitute_aggregates(cond, schema, rows, body_rows, head_rows)?;
    // Schema: BODY.<cluster attrs> ++ HEAD.<cluster attrs>.
    let mut cols = Vec::new();
    for a in cluster_attrs {
        cols.push(Column::qualified(
            "BODY",
            a.clone(),
            relational::DataType::Str,
        ));
    }
    for a in cluster_attrs {
        cols.push(Column::qualified(
            "HEAD",
            a.clone(),
            relational::DataType::Str,
        ));
    }
    let pair_schema = Schema::new(cols);
    let mut row: Row = Vec::new();
    let b0 = &rows[body_rows[0]];
    let h0 = &rows[head_rows[0]];
    for &i in cluster_idx {
        row.push(b0[i].clone());
    }
    for &i in cluster_idx {
        row.push(h0[i].clone());
    }
    let v = eval_expr(&substituted, &pair_schema, &row, &mut NoCtx).map_err(MineError::from)?;
    Ok(v.is_true())
}

fn substitute_aggregates(
    expr: &Expr,
    schema: &Schema,
    rows: &[Row],
    body_rows: &[usize],
    head_rows: &[usize],
) -> Result<Expr> {
    Ok(match expr {
        Expr::Aggregate { arg, .. } => {
            // Side determined by the argument's qualifiers.
            let mut is_head = false;
            if let Some(a) = arg {
                for (q, _) in a.column_refs() {
                    if q.is_some_and(|q| q.eq_ignore_ascii_case("HEAD")) {
                        is_head = true;
                    }
                }
            }
            let side = if is_head { head_rows } else { body_rows };
            let side_rows: Vec<&Row> = side.iter().map(|&i| &rows[i]).collect();
            let stripped = expr.map_qualifiers(&mut |q, n| match q {
                Some(q) if q.eq_ignore_ascii_case("BODY") || q.eq_ignore_ascii_case("HEAD") => {
                    (None, n.to_string())
                }
                other => (other.map(str::to_string), n.to_string()),
            });
            let v = eval_grouped(&stripped, schema, &side_rows, &[], &[], &mut NoCtx)
                .map_err(MineError::from)?;
            Expr::Literal(v)
        }
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(substitute_aggregates(
                left, schema, rows, body_rows, head_rows,
            )?),
            op: *op,
            right: Box::new(substitute_aggregates(
                right, schema, rows, body_rows, head_rows,
            )?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute_aggregates(
                expr, schema, rows, body_rows, head_rows,
            )?),
        },
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => Expr::Between {
            expr: Box::new(substitute_aggregates(
                expr, schema, rows, body_rows, head_rows,
            )?),
            negated: *negated,
            low: Box::new(substitute_aggregates(
                low, schema, rows, body_rows, head_rows,
            )?),
            high: Box::new(substitute_aggregates(
                high, schema, rows, body_rows, head_rows,
            )?),
        },
        other => other.clone(),
    })
}

/// Evaluate the mining condition on one (body row, head row) pair.
fn mining_pair_satisfies(
    cond: &Expr,
    schema: &Schema,
    body_row: &Row,
    head_row: &Row,
) -> Result<bool> {
    let mut cols = Vec::new();
    for c in schema.columns() {
        cols.push(Column::qualified("BODY", c.name.clone(), c.dtype));
    }
    for c in schema.columns() {
        cols.push(Column::qualified("HEAD", c.name.clone(), c.dtype));
    }
    let pair_schema = Schema::new(cols);
    let mut row = body_row.clone();
    row.extend(head_row.iter().cloned());
    // Unqualified references in the mining condition resolve ambiguously
    // against BODY+HEAD; qualify-as-BODY by convention.
    let qualified = cond.map_qualifiers(&mut |q, n| match q {
        None => (Some("BODY".to_string()), n.to_string()),
        Some(q) => (Some(q.to_string()), n.to_string()),
    });
    let v = eval_expr(&qualified, &pair_schema, &row, &mut NoCtx).map_err(MineError::from)?;
    Ok(v.is_true())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{purchase_db, FIGURE_2B, FILTERED_ORDERED_SETS};
    use crate::parser::parse_mine_rule;

    #[test]
    fn reference_reproduces_figure_2b() {
        let mut db = purchase_db();
        let stmt = parse_mine_rule(FILTERED_ORDERED_SETS).unwrap();
        let rules = reference_mine(&mut db, &stmt).unwrap();
        assert_eq!(rules.len(), FIGURE_2B.len(), "{rules:#?}");
        for (body, head, s, c) in FIGURE_2B {
            let found = rules
                .iter()
                .find(|r| {
                    r.body == body.iter().map(|x| x.to_string()).collect::<Vec<_>>()
                        && r.head == head.iter().map(|x| x.to_string()).collect::<Vec<_>>()
                })
                .unwrap_or_else(|| panic!("missing {body:?} => {head:?}"));
            assert!((found.support - s).abs() < 1e-9);
            assert!((found.confidence - c).abs() < 1e-9);
        }
    }

    #[test]
    fn reference_simple_statement() {
        let mut db = purchase_db();
        let stmt = parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5",
        )
        .unwrap();
        let rules = reference_mine(&mut db, &stmt).unwrap();
        assert!(rules
            .iter()
            .any(|r| r.body == vec!["col_shirts"] && r.head == vec!["jackets"]));
        for r in &rules {
            assert!(r.support >= 0.25 - 1e-9 && r.confidence >= 0.5 - 1e-9);
        }
    }

    #[test]
    fn subsets_bounded_and_sorted() {
        let items: Vec<Item> = vec!["a".into(), "b".into(), "c".into()];
        let subs = subsets_up_to(&items, 2);
        assert_eq!(subs.len(), 6); // 3 singletons + 3 pairs
        assert!(subs.iter().all(|s| s.len() <= 2));
    }
}
