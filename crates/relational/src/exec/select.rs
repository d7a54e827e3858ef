//! SELECT execution: scan/join → filter → group/aggregate → project →
//! distinct → order → limit, each step materialised late: scans share
//! the catalog's rows, a join builds only the columns the statement
//! reads ([`Demand`]) and a cutting LIMIT keeps a stable top-k instead of
//! sorting every row.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::engine::Database;
use crate::error::{Error, Result};
use crate::exec::join::{conjuncts, filter_relation, join_factors, Demand, Relation};
use crate::expr::compile::{ExecCounter, SiteEval};
use crate::expr::eval::{eval_grouped, QueryCtx};
use crate::expr::{AggFunc, BinOp, Expr};
use crate::key::{bucket, KeyHash, KeyMap};
use crate::resultset::ResultSet;
use crate::row::Row;
use crate::sql::ast::{JoinKind, OrderItem, SelectItem, SelectStmt, SetOpKind, TableSource};
use crate::types::{Column, DataType, Schema};
use crate::value::Value;

/// Execute a SELECT against the database.
pub fn run_select(db: &mut Database, stmt: &SelectStmt) -> Result<ResultSet> {
    if stmt.set_op.is_some() {
        return run_set_op(db, stmt);
    }
    run_select_arm(db, stmt, true)
}

/// Row-index buckets by row hash: the seen-set of a dedup site. One
/// [`KeyHash`] per site both hashes the rows (`hasher().hash_one`) and
/// places the buckets; the hash only picks buckets, rows are compared
/// for equality, so first-occurrence order never depends on it.
type RowBuckets = HashMap<u64, Vec<usize>, KeyHash>;

fn row_buckets(rows: usize) -> RowBuckets {
    HashMap::with_capacity_and_hasher(rows, KeyHash::default())
}

/// Keep the first occurrence of each distinct row. Rows are moved, never
/// cloned: the seen-set stores hashes and indices into the output.
fn dedup_rows(rows: Vec<Row>) -> Vec<Row> {
    let mut seen = row_buckets(rows.len());
    let mut out: Vec<Row> = Vec::with_capacity(rows.len());
    for row in rows {
        let h = seen.hasher().hash_one(&row);
        let bucket = seen.entry(h).or_default();
        if bucket.iter().any(|&i| out[i] == row) {
            continue;
        }
        bucket.push(out.len());
        out.push(row);
    }
    out
}

/// Execute a SELECT combined with UNION/INTERSECT/EXCEPT: evaluate both
/// sides, combine with SQL set semantics, then apply the trailing
/// ORDER BY / LIMIT to the combined rows. The left arm is the statement
/// itself minus its set-op tail, borrowed directly (no clone).
fn run_set_op(db: &mut Database, stmt: &SelectStmt) -> Result<ResultSet> {
    let (kind, rhs) = stmt.set_op.as_ref().expect("checked by run_select");
    let left = run_select_arm(db, stmt, false)?;
    let right = run_select(db, rhs)?;
    if left.schema().len() != right.schema().len() {
        return Err(Error::Arity {
            expected: left.schema().len(),
            got: right.schema().len(),
        });
    }
    let schema = left.schema().clone();
    let rows: Vec<Row> = match kind {
        SetOpKind::UnionAll => {
            let mut rows = left.into_rows();
            rows.extend(right.into_rows());
            rows
        }
        SetOpKind::Union => {
            let mut rows = left.into_rows();
            rows.extend(right.into_rows());
            dedup_rows(rows)
        }
        SetOpKind::Intersect | SetOpKind::Except => {
            let right_rows = right.into_rows();
            let mut membership = row_buckets(right_rows.len());
            for (i, r) in right_rows.iter().enumerate() {
                let h = membership.hasher().hash_one(r);
                membership.entry(h).or_default().push(i);
            }
            let keep_members = matches!(kind, SetOpKind::Intersect);
            let mut kept = left.into_rows();
            kept.retain(|r| {
                let member = membership
                    .get(&membership.hasher().hash_one(r))
                    .is_some_and(|b| b.iter().any(|&i| right_rows[i] == *r));
                member == keep_members
            });
            dedup_rows(kept)
        }
    };
    if stmt.order_by.is_empty() {
        let mut rows = rows;
        if let Some(l) = stmt.limit {
            rows.truncate(l as usize);
        }
        return Ok(ResultSet::new(schema, rows));
    }
    // Trailing ORDER BY: output positions or column names only.
    let names: Vec<String> = schema.columns().iter().map(|c| c.name.clone()).collect();
    let mut keyed: Vec<(Row, Vec<Value>)> = Vec::with_capacity(rows.len());
    for r in rows {
        let mut keys = Vec::with_capacity(stmt.order_by.len());
        for o in &stmt.order_by {
            keys.push(output_key(&o.expr, &r, &names).ok_or_else(|| {
                Error::unsupported("ORDER BY after a set operation must reference output columns")
            })?);
        }
        keyed.push((r, keys));
    }
    let rows = order_and_limit(keyed, &stmt.order_by, stmt.limit);
    Ok(ResultSet::new(schema, rows))
}

/// ORDER BY, then LIMIT, over rows paired with their sort keys. With
/// nothing cut it is a stable sort; when the LIMIT cuts, it selects the
/// `k` smallest rows by (keys, input position) and sorts only those —
/// exactly the prefix the stable sort would keep.
fn order_and_limit(
    mut keyed: Vec<(Row, Vec<Value>)>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> Vec<Row> {
    let by_keys = |a: &[Value], b: &[Value]| {
        for ((a, b), o) in a.iter().zip(b).zip(order_by) {
            let ord = a.total_cmp(b);
            if ord != Ordering::Equal {
                return if o.asc { ord } else { ord.reverse() };
            }
        }
        Ordering::Equal
    };
    let k = limit.map_or(keyed.len(), |l| keyed.len().min(l as usize));
    if order_by.is_empty() || k == 0 {
        keyed.truncate(k);
    } else if k == keyed.len() {
        keyed.sort_by(|(_, a), (_, b)| by_keys(a, b));
    } else {
        let by_position =
            |&i: &usize, &j: &usize| by_keys(&keyed[i].1, &keyed[j].1).then(i.cmp(&j));
        let mut top: Vec<usize> = (0..keyed.len()).collect();
        top.select_nth_unstable_by(k - 1, by_position);
        top.truncate(k);
        top.sort_unstable_by(by_position);
        return top
            .into_iter()
            .map(|i| std::mem::take(&mut keyed[i].0))
            .collect();
    }
    keyed.into_iter().map(|(r, _)| r).collect()
}

/// Run one SELECT body. `with_tail` applies the trailing ORDER BY /
/// LIMIT; the left arm of a set operation passes `false` (the tail
/// belongs to the combined result), which lets `run_set_op` borrow the
/// arm from the original statement instead of deep-cloning it.
fn run_select_arm(db: &mut Database, stmt: &SelectStmt, with_tail: bool) -> Result<ResultSet> {
    let order_by: &[OrderItem] = if with_tail { &stmt.order_by } else { &[] };
    let limit = if with_tail { stmt.limit } else { None };

    let where_conjuncts = stmt
        .where_clause
        .as_ref()
        .map(|w| conjuncts(w))
        .unwrap_or_default();

    // 1. FROM: materialise factors, plan joins, push filters. A base
    // table's scan shares the catalog's rows, so a pushed filter copies
    // only the rows it keeps.
    let mut factors = Vec::with_capacity(stmt.from.len());
    for tref in &stmt.from {
        let mut current = materialize_factor(db, &tref.source, tref.alias.as_deref())?;
        // Explicit JOIN ... ON chain on this factor.
        for join in &tref.joins {
            let right = materialize_factor(db, &join.source, join.alias.as_deref())?;
            current = explicit_join(db, current, right, join.kind, join.on.as_ref())?;
        }
        factors.push(current);
    }

    let (mut input, residual) = if factors.is_empty() {
        (Relation::unit(), where_conjuncts)
    } else {
        join_factors(factors, where_conjuncts, &demand(stmt, order_by), db)?
    };
    if let Some(pred) = Expr::conjoin(residual.into_iter().cloned()) {
        filter_relation(&mut input, &pred, db)?;
    }

    // 2. Expand projection items.
    let items = expand_items(&stmt.items, &input.schema)?;

    let has_agg = items.iter().any(|(e, _)| e.contains_aggregate())
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate());
    let grouped = !stmt.group_by.is_empty() || has_agg;

    // 3/4. Evaluate rows (grouped or per-row) together with sort keys.
    let out_names: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
    let mut projected: Vec<(Row, Vec<Value>)> = if grouped {
        run_grouped(db, &input, stmt, order_by, &items, &out_names)?
    } else {
        if stmt.having.is_some() {
            return Err(Error::Aggregate {
                message: "HAVING requires GROUP BY or aggregates".into(),
            });
        }
        // Plan every projection and order-key expression once; the row
        // loop then runs flat programs with a reused stack. Order keys
        // naming an output position/alias read the projected row; the rest
        // evaluate against the input row.
        let item_evals: Vec<SiteEval> = items
            .iter()
            .map(|(e, _)| SiteEval::plan(e, &input.schema, db))
            .collect();
        let width = items.len();
        let order_evals: Vec<OrderSource> = order_by
            .iter()
            .map(|o| match plan_output_key(&o.expr, &out_names, width) {
                Some(idx) => OrderSource::Output(idx),
                None => OrderSource::Input(SiteEval::plan(&o.expr, &input.schema, db)),
            })
            .collect();
        let mut stack = Vec::new();
        let mut out = Vec::with_capacity(input.rows.len());
        for row in input.rows.iter() {
            let mut o = Vec::with_capacity(items.len());
            for ev in &item_evals {
                o.push(ev.eval(&input.schema, row, db, &mut stack)?);
            }
            let mut keys = Vec::with_capacity(order_evals.len());
            for src in &order_evals {
                keys.push(match src {
                    OrderSource::Output(i) => o[*i].clone(),
                    OrderSource::Input(ev) => ev.eval(&input.schema, row, db, &mut stack)?,
                });
            }
            out.push((o, keys));
        }
        out
    };

    // 5. DISTINCT — hashed row-index buckets; rows move, never clone.
    if stmt.distinct {
        let mut seen = row_buckets(projected.len());
        let mut kept: Vec<(Row, Vec<Value>)> = Vec::with_capacity(projected.len());
        for (row, keys) in projected {
            let h = seen.hasher().hash_one(&row);
            let bucket = seen.entry(h).or_default();
            if bucket.iter().any(|&i| kept[i].0 == row) {
                continue;
            }
            bucket.push(kept.len());
            kept.push((row, keys));
        }
        projected = kept;
    }

    // 6/7. ORDER BY and LIMIT.
    let rows = order_and_limit(projected, order_by, limit);
    let schema = output_schema(&items, &input.schema, &rows);
    let rs = ResultSet::new(schema, rows);

    // 8. INTO :var — store the scalar on the session.
    if let Some(var) = &stmt.into_var {
        let v = rs.scalar().cloned().ok_or_else(|| Error::ScalarSubquery {
            message: format!(
                "SELECT INTO :{var} requires a 1x1 result, got {}x{}",
                rs.len(),
                rs.schema().len()
            ),
        })?;
        db.set_var(var, v);
    }
    Ok(rs)
}

/// Materialise one table factor (named table, view or derived table),
/// applying its alias as the column qualifier.
fn materialize_factor(
    db: &mut Database,
    source: &TableSource,
    alias: Option<&str>,
) -> Result<Relation> {
    let base = match source {
        TableSource::Named(name) => materialize_named(db, name)?,
        TableSource::Subquery(q) => {
            let rs = run_select(db, q)?;
            Relation::owned(rs.schema().clone(), rs.into_rows())
        }
    };
    let qualifier: Option<String> = match (alias, source) {
        (Some(a), _) => Some(a.to_string()),
        (None, TableSource::Named(n)) => Some(n.clone()),
        (None, TableSource::Subquery(_)) => None,
    };
    Ok(Relation {
        schema: match &qualifier {
            Some(q) => base.schema.with_qualifier(q),
            None => base.schema,
        },
        rows: base.rows,
    })
}

/// Evaluate an explicit `[LEFT] JOIN ... ON ...`: nested-loop with the ON
/// predicate (the comma-join path keeps its hash-join planning; explicit
/// joins appear in user queries, not the generated mining programs).
fn explicit_join(
    db: &mut Database,
    left: Relation,
    right: Relation,
    kind: JoinKind,
    on: Option<&Expr>,
) -> Result<Relation> {
    let schema = left.schema.join(&right.schema);
    let on_eval = on.map(|pred| SiteEval::plan(pred, &schema, db));
    let null_right: Row = vec![Value::Null; right.schema.len()];
    let mut stack = Vec::new();
    // One scratch combined row, reused per pair; cloned into the output
    // only when the pair survives the ON predicate.
    let mut combined: Row = Vec::with_capacity(schema.len());
    let mut rows = Vec::new();
    for lrow in left.rows.iter() {
        let mut matched = false;
        for rrow in right.rows.iter() {
            combined.clear();
            combined.extend_from_slice(lrow);
            combined.extend_from_slice(rrow);
            let keep = match &on_eval {
                None => true,
                Some(pred) => pred.eval(&schema, &combined, db, &mut stack)?.is_true(),
            };
            if keep {
                matched = true;
                rows.push(combined.clone());
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            let mut r = Vec::with_capacity(schema.len());
            r.extend_from_slice(lrow);
            r.extend_from_slice(&null_right);
            rows.push(r);
        }
    }
    db.bump(ExecCounter::RowsJoined, rows.len() as u64);
    Ok(Relation::owned(schema, rows))
}

/// Materialise a named table or view. A base table's rows are shared,
/// not copied; a view is a re-evaluated query.
fn materialize_named(db: &mut Database, name: &str) -> Result<Relation> {
    if let Some(view) = db.catalog().view(name).cloned() {
        let rs = run_select(db, &view.query)?;
        return Ok(Relation::owned(rs.schema().clone(), rs.into_rows()));
    }
    let table = db.catalog().table(name)?;
    let relation = Relation {
        schema: table.schema().clone(),
        rows: table.shared_rows(),
    };
    db.bump(ExecCounter::RowsScanned, relation.rows.len() as u64);
    Ok(relation)
}

/// What of its joined input a statement reads outside the WHERE clause
/// (the join adds the conjuncts it leaves as residual): every column
/// under a wildcard item, else every column reference of the items,
/// GROUP BY, HAVING and ORDER BY. Subqueries are not correlated, so
/// their references never resolve against this input.
fn demand<'a>(stmt: &'a SelectStmt, order_by: &'a [OrderItem]) -> Demand<'a> {
    let mut refs = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Expr { expr, .. } => refs.extend(expr.column_refs()),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => return Demand::All,
        }
    }
    let rest = stmt.group_by.iter().chain(&stmt.having);
    refs.extend(
        rest.chain(order_by.iter().map(|o| &o.expr))
            .flat_map(Expr::column_refs),
    );
    Demand::Refs(refs)
}

/// Expand wildcards and name every projection item.
fn expand_items(items: &[SelectItem], input: &Schema) -> Result<Vec<(Expr, String)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for c in input.columns() {
                    out.push((
                        Expr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        },
                        c.name.clone(),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let idxs = input.columns_of(q);
                if idxs.is_empty() {
                    return Err(Error::UnknownColumn {
                        name: format!("{q}.*"),
                    });
                }
                for i in idxs {
                    let c = input.column(i);
                    out.push((
                        Expr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        },
                        c.name.clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column { name, .. } => name.clone(),
                        other => other.to_sql(),
                    },
                };
                out.push((expr.clone(), name));
            }
        }
    }
    if out.is_empty() {
        return Err(Error::unsupported("empty projection list"));
    }
    Ok(out)
}

/// Grouped execution: hash rows into groups on the GROUP BY keys, filter
/// groups with HAVING, evaluate projections per group.
fn run_grouped(
    db: &mut Database,
    input: &Relation,
    stmt: &SelectStmt,
    order_by: &[OrderItem],
    items: &[(Expr, String)],
    out_names: &[String],
) -> Result<Vec<(Row, Vec<Value>)>> {
    // Bucket row indices by key, in first-seen key order. Each row's key
    // is evaluated into one reused buffer; only a new key is cloned.
    let mut buckets: KeyMap<Vec<usize>> = KeyMap::default();
    let mut order: Vec<Vec<Value>> = Vec::new();
    if stmt.group_by.is_empty() {
        buckets.insert(Vec::new(), (0..input.rows.len()).collect());
        order.push(Vec::new());
    } else {
        // Key expressions are planned once for the per-row bucketing loop.
        let key_evals: Vec<SiteEval> = stmt
            .group_by
            .iter()
            .map(|g| SiteEval::plan(g, &input.schema, db))
            .collect();
        let mut stack = Vec::new();
        let mut key = Vec::with_capacity(key_evals.len());
        for (i, row) in input.rows.iter().enumerate() {
            key.clear();
            for g in &key_evals {
                key.push(g.eval(&input.schema, row, db, &mut stack)?);
            }
            if bucket(&mut buckets, &key, i) {
                order.push(key.clone());
            }
        }
    }

    let mut out = Vec::with_capacity(order.len());
    for key in &order {
        let idxs = &buckets[key];
        let rows: Vec<&Row> = idxs.iter().map(|&i| &input.rows[i]).collect();
        if let Some(h) = &stmt.having {
            let keep = eval_grouped(h, &input.schema, &rows, &stmt.group_by, key, db)?;
            if !keep.is_true() {
                continue;
            }
        }
        let mut o = Vec::with_capacity(items.len());
        for (e, _) in items {
            o.push(eval_grouped(
                e,
                &input.schema,
                &rows,
                &stmt.group_by,
                key,
                db,
            )?);
        }
        // Order keys for the grouped row.
        let mut keys = Vec::with_capacity(order_by.len());
        for ord in order_by {
            if let Some(v) = output_key(&ord.expr, &o, out_names) {
                keys.push(v);
            } else {
                keys.push(eval_grouped(
                    &ord.expr,
                    &input.schema,
                    &rows,
                    &stmt.group_by,
                    key,
                    db,
                )?);
            }
        }
        out.push((o, keys));
    }
    Ok(out)
}

/// Where a non-grouped ORDER BY key comes from, decided once per
/// statement (the decision in [`plan_output_key`] is row-independent).
enum OrderSource<'e> {
    /// Index into the projected output row.
    Output(usize),
    /// Planned evaluator over the input row.
    Input(SiteEval<'e>),
}

/// The row-independent half of [`output_key`]: whether an ORDER BY
/// expression names an output position (`ORDER BY 2`) or an output
/// column/alias, and which index that is.
fn plan_output_key(expr: &Expr, out_names: &[String], width: usize) -> Option<usize> {
    match expr {
        Expr::Literal(Value::Int(i)) => {
            let idx = (*i as usize).checked_sub(1)?;
            (idx < width).then_some(idx)
        }
        Expr::Column {
            qualifier: None,
            name,
        } => out_names.iter().position(|n| n.eq_ignore_ascii_case(name)),
        _ => None,
    }
}

/// Resolve an ORDER BY expression against the projected output row:
/// positional (`ORDER BY 2`) or by output name/alias.
fn output_key(expr: &Expr, out_row: &Row, out_names: &[String]) -> Option<Value> {
    plan_output_key(expr, out_names, out_row.len()).and_then(|i| out_row.get(i).cloned())
}

/// Infer the output schema: static expression typing refined by the first
/// non-null value actually produced.
fn output_schema(items: &[(Expr, String)], input: &Schema, rows: &[Row]) -> Schema {
    let mut cols = Vec::with_capacity(items.len());
    for (i, (expr, name)) in items.iter().enumerate() {
        let from_rows = rows.iter().find_map(|r| value_type(&r[i]));
        let dtype = from_rows
            .or_else(|| infer_type(expr, input))
            .unwrap_or(DataType::Str);
        cols.push(Column::new(name.clone(), dtype));
    }
    Schema::new(cols)
}

/// The column type a value implies; `None` for NULL.
pub fn value_type(v: &Value) -> Option<DataType> {
    match v {
        Value::Null => None,
        Value::Int(_) => Some(DataType::Int),
        Value::Float(_) => Some(DataType::Float),
        Value::Str(_) => Some(DataType::Str),
        Value::Bool(_) => Some(DataType::Bool),
        Value::Date(_) => Some(DataType::Date),
    }
}

/// Best-effort static type of an expression.
pub fn infer_type(expr: &Expr, input: &Schema) -> Option<DataType> {
    match expr {
        Expr::Literal(v) => value_type(v),
        Expr::Column { qualifier, name } => input
            .resolve(qualifier.as_deref(), name)
            .ok()
            .map(|i| input.column(i).dtype),
        Expr::HostVar(_) | Expr::ScalarSubquery(_) => None,
        Expr::NextVal(_) => Some(DataType::Int),
        Expr::Unary { expr, .. } => infer_type(expr, input),
        Expr::Binary { left, op, right } => match op {
            BinOp::And
            | BinOp::Or
            | BinOp::Eq
            | BinOp::NotEq
            | BinOp::Lt
            | BinOp::LtEq
            | BinOp::Gt
            | BinOp::GtEq => Some(DataType::Bool),
            BinOp::Concat => Some(DataType::Str),
            BinOp::Div => Some(DataType::Float),
            _ => match (infer_type(left, input), infer_type(right, input)) {
                (Some(DataType::Float), _) | (_, Some(DataType::Float)) => Some(DataType::Float),
                (Some(DataType::Date), _) => Some(DataType::Date),
                (a, _) => a,
            },
        },
        Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::IsNull { .. }
        | Expr::Like { .. }
        | Expr::Exists { .. }
        | Expr::InSubquery { .. } => Some(DataType::Bool),
        Expr::Func { name, args } => match name.to_ascii_uppercase().as_str() {
            "UPPER" | "LOWER" => Some(DataType::Str),
            "LENGTH" | "FLOOR" | "CEIL" | "CEILING" => Some(DataType::Int),
            "ROUND" => Some(DataType::Float),
            "ABS" | "COALESCE" => args.first().and_then(|a| infer_type(a, input)),
            _ => None,
        },
        Expr::Aggregate { func, arg, .. } => match func {
            AggFunc::Count => Some(DataType::Int),
            AggFunc::Avg => Some(DataType::Float),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                arg.as_ref().and_then(|a| infer_type(a, input))
            }
        },
        Expr::Case { branches, .. } => branches.first().and_then(|(_, v)| infer_type(v, input)),
        Expr::Cast { dtype, .. } => Some(*dtype),
    }
}

// The QueryCtx impl for Database lives in engine.rs; select execution only
// uses it through the trait.
#[allow(unused)]
fn _assert_ctx_impl(db: &mut Database) -> &mut dyn QueryCtx {
    db
}
