//! SELECT planning and execution. `plan_select` makes every decision
//! about a statement before any row is read and returns it as a value
//! (`SelectPlan`): each FROM factor with its output schema (a view or a
//! derived table through its own nested plan), the join plan over those
//! schemas, the columns the join must build ([`Demand`]), the expanded
//! items, grouped or not, where each ORDER BY key comes from, DISTINCT,
//! LIMIT, a set operation's arms with its trailing ORDER BY / LIMIT, and
//! every expression subquery of the statement with its own nested plan.
//! [`run_select`] runs that value and `EXPLAIN` prints it.
//!
//! Subqueries are not correlated, so each one runs at most once per
//! statement, on its first use, and keeps what its readers need
//! ([`Kept`]): a subquery no row reaches never runs, so it raises
//! nothing, and a fault in its plan is raised only where it would run.
//!
//! Execution is scan/join → filter → group/aggregate → project →
//! distinct → order → limit, each step materialised late: scans share
//! the catalog's rows, a join builds only the demanded columns and a
//! cutting LIMIT keeps a stable top-k instead of sorting every row.
//! Column references are resolved as rows flow: the plan resolves
//! tables, views and factor schemas only.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::engine::Database;
use crate::error::{Error, Result};
use crate::exec::join::{conjuncts, filter_relation, join_factors, plan_joins, Demand};
use crate::exec::join::{JoinPlan, Relation};
use crate::expr::compile::{ExecCounter, SiteEval};
use crate::expr::eval::{eval_grouped, Kept, QueryCtx, SubqueryKind};
use crate::expr::{AggFunc, BinOp, Expr};
use crate::key::{bucket, KeyHash, KeyMap};
use crate::resultset::ResultSet;
use crate::row::Row;
use crate::sql::ast::{JoinKind, OrderItem, SelectItem, SelectStmt, SetOpKind, TableSource};
use crate::types::{Column, DataType, Schema};
use crate::value::Value;

/// The plan of one SELECT ([`plan_select`]).
#[derive(Debug)]
pub(crate) struct SelectPlan {
    pub(crate) shape: Shape,
    /// ORDER BY keys over the output rows.
    pub(crate) sort: Vec<SortKey>,
    /// LIMIT, applied after the sort.
    pub(crate) max_rows: Option<u64>,
    /// The output columns: names as they run, types inferred statically
    /// (the result refines them from the rows).
    schema: Schema,
    /// Every expression subquery of the statement, nested ones included
    /// (each before the one that holds it); empty below the statement's
    /// own plan.
    pub(crate) subqueries: Arc<Vec<Subquery>>,
}

/// One expression subquery of a statement ([`SubqueryKind`] tells how it
/// is read): equal subqueries read alike share one.
#[derive(Debug)]
pub(crate) struct Subquery {
    kind: SubqueryKind,
    pub(crate) query: Box<SelectStmt>,
    /// Its plan, or the fault planning it met, raised on its first run.
    pub(crate) plan: Result<SelectPlan>,
}

/// What produces a plan's rows.
#[derive(Debug)]
pub(crate) enum Shape {
    Body(Box<Body>),
    /// `left <op> right`, both run whole before they are combined.
    SetOp(SetOpKind, Box<SelectPlan>, Box<SelectPlan>),
}

/// One ORDER BY key.
#[derive(Debug)]
pub(crate) struct SortKey {
    pub(crate) expr: Expr,
    pub(crate) asc: bool,
    /// The output column `expr` names (`ORDER BY 2`, an output name or
    /// alias); `None` evaluates it over the input row or group, which a
    /// set operation's tail refuses.
    output: Option<usize>,
}

/// One SELECT body, without its trailing ORDER BY / LIMIT.
#[derive(Debug)]
pub(crate) struct Body {
    /// The FROM factors, each with the explicit JOIN chain on it.
    pub(crate) from: Vec<(Factor, Vec<ExplicitJoin>)>,
    /// The comma-join plan over the FROM entries' schemas.
    pub(crate) joins: JoinPlan,
    demand: Demand,
    /// The projection, wildcards expanded: `(expression, output name)`.
    outputs: Vec<(Expr, String)>,
    /// What expanding a wildcard failed with, reported when the body runs
    /// after its join and WHERE filter, whose faults come first.
    expand_error: Option<Error>,
    pub(crate) group_keys: Vec<Expr>,
    pub(crate) group_filter: Option<Expr>,
    /// Aggregated: GROUP BY, or an aggregate in the items or in HAVING.
    pub(crate) grouped: bool,
    pub(crate) dedup: bool,
    into_var: Option<String>,
}

/// An explicit `[LEFT] JOIN factor ON …` chained to a FROM factor.
pub(crate) type ExplicitJoin = (JoinKind, Factor, Option<Expr>);

/// One table factor: a base table (`name`, no `plan`), a view (both) or
/// a derived table (`plan` alone).
#[derive(Debug)]
pub(crate) struct Factor {
    pub(crate) name: Option<String>,
    pub(crate) alias: Option<String>,
    pub(crate) plan: Option<Box<SelectPlan>>,
    /// The output schema under the factor's qualifier.
    schema: Schema,
}

impl Factor {
    /// Its alias, else its name; an unaliased derived table has none.
    pub(crate) fn qualifier(&self) -> Option<&str> {
        self.alias.as_deref().or(self.name.as_deref())
    }
}

/// Plan a SELECT: resolve its tables and views, and decide everything
/// [`run_select`] does with their rows.
pub(crate) fn plan_select(db: &Database, stmt: &SelectStmt) -> Result<SelectPlan> {
    let mut planner = Planner::default();
    let plan = planner.select(db, stmt);
    let subqueries = Arc::new(planner.finish()?);
    plan.map(|plan| SelectPlan { subqueries, ..plan })
}

/// Plan the subqueries of a DELETE's or UPDATE's expressions.
pub(crate) fn plan_subqueries<'e>(
    db: &Database,
    exprs: impl IntoIterator<Item = &'e Expr>,
) -> Result<Vec<Subquery>> {
    let mut planner = Planner::default();
    planner.subqueries_in(db, exprs);
    planner.finish()
}

/// The position of the subquery `query` read as `kind` among `planned`.
pub(crate) fn slot(planned: &[Subquery], kind: SubqueryKind, query: &SelectStmt) -> Option<usize> {
    planned
        .iter()
        .position(|s| s.kind == kind && *s.query == *query)
}

/// Plans one statement, collecting its expression subqueries.
#[derive(Default)]
struct Planner {
    subqueries: Vec<Subquery>,
    /// How many expression subqueries deep the planner is.
    depth: usize,
    /// The refusal of a sequence draw inside an expression subquery: run
    /// once per statement, it would draw once where the interpreter draws
    /// per evaluation. It comes before any other fault of the plan.
    refusal: Option<Error>,
}

impl Planner {
    fn finish(self) -> Result<Vec<Subquery>> {
        self.refusal.map_or(Ok(self.subqueries), Err)
    }

    /// Plan each subquery below `exprs` that is not planned yet, inner
    /// ones first. A fault of its plan is kept for its first run.
    fn subqueries_in<'e>(&mut self, db: &Database, exprs: impl IntoIterator<Item = &'e Expr>) {
        let (mut found, mut draw) = (Vec::new(), None);
        for e in exprs {
            e.walk(&mut |e| {
                found.extend(SubqueryKind::of(e));
                if let Expr::NextVal(seq) = e {
                    draw.get_or_insert(seq);
                }
            });
        }
        if self.depth > 0 && self.refusal.is_none() {
            let refusal = |seq| format!("sequence draw {seq}.NEXTVAL inside a subquery");
            self.refusal = draw.map(|seq| Error::unsupported(refusal(seq)));
        }
        for (kind, query) in found {
            if slot(&self.subqueries, kind, query).is_none() {
                self.depth += 1;
                let plan = self.select(db, query);
                self.depth -= 1;
                let query = Box::new(query.clone());
                self.subqueries.push(Subquery { kind, query, plan });
            }
        }
    }

    fn select(&mut self, db: &Database, stmt: &SelectStmt) -> Result<SelectPlan> {
        let Some((op, rhs)) = &stmt.set_op else {
            return self.body(db, stmt, &stmt.order_by, stmt.limit);
        };
        let left = self.body(db, stmt, &[], None)?;
        let right = self.select(db, rhs)?;
        Ok(SelectPlan {
            sort: sort_keys(&stmt.order_by, &left.schema),
            max_rows: stmt.limit,
            schema: left.schema.clone(),
            shape: Shape::SetOp(*op, Box::new(left), Box::new(right)),
            subqueries: Arc::default(),
        })
    }

    /// Plan one SELECT body under the given ORDER BY / LIMIT (a set
    /// operation's left arm has none: the tail belongs to the combination).
    fn body(
        &mut self,
        db: &Database,
        stmt: &SelectStmt,
        order_by: &[OrderItem],
        max_rows: Option<u64>,
    ) -> Result<SelectPlan> {
        self.subqueries_in(db, stmt.exprs());
        let (mut from, mut schemas) = (Vec::new(), Vec::new());
        for tref in &stmt.from {
            let factor = self.factor(db, &tref.source, tref.alias.as_deref())?;
            let (mut schema, mut joins) = (factor.schema.clone(), Vec::new());
            for j in &tref.joins {
                let right = self.factor(db, &j.source, j.alias.as_deref())?;
                schema = schema.join(&right.schema);
                joins.push((j.kind, right, j.on.clone()));
            }
            from.push((factor, joins));
            schemas.push(schema);
        }
        let input = schemas.iter().fold(Schema::default(), |acc, s| acc.join(s));
        let where_conjuncts = stmt.where_clause.iter().flat_map(conjuncts).cloned();
        let schema_refs: Vec<&Schema> = schemas.iter().collect();
        let joins = plan_joins(&schema_refs, where_conjuncts.collect());

        let (outputs, expand_error) = match expand_items(&stmt.items, &input) {
            Ok(outputs) => (outputs, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        let schema = output_schema(&outputs, &input, &[]);
        let sort = sort_keys(order_by, &schema);
        // The columns read after the join: every one under a wildcard, else
        // those the items, GROUP BY, HAVING, ORDER BY and the residual
        // conjuncts reference. Subqueries are not correlated, so their
        // references never resolve against this input.
        let exprs = outputs.iter().map(|(e, _)| e).chain(&stmt.group_by);
        let exprs = exprs
            .chain(&stmt.having)
            .chain(sort.iter().map(|k| &k.expr));
        let refs = exprs.chain(&joins.residual).flat_map(Expr::column_refs);
        let wildcard = |i: &SelectItem| !matches!(i, SelectItem::Expr { .. });
        let demand = match stmt.items.iter().any(wildcard) {
            true => Demand::All,
            false => Demand::Refs(refs.map(|(q, n)| (q.map(Into::into), n.into())).collect()),
        };
        let grouped = !stmt.group_by.is_empty()
            || outputs.iter().any(|(e, _)| e.contains_aggregate())
            || stmt.having.as_ref().is_some_and(Expr::contains_aggregate);
        let body = Body {
            from,
            joins,
            demand,
            outputs,
            expand_error,
            group_keys: stmt.group_by.clone(),
            group_filter: stmt.having.clone(),
            grouped,
            dedup: stmt.distinct,
            into_var: stmt.into_var.clone(),
        };
        Ok(SelectPlan {
            shape: Shape::Body(Box::new(body)),
            sort,
            max_rows,
            schema,
            subqueries: Arc::default(),
        })
    }

    /// Plan one table factor: a base table's schema comes from the catalog
    /// (which builds no deferred rows for it), a view's or derived table's
    /// from its own plan.
    fn factor(
        &mut self,
        db: &Database,
        source: &TableSource,
        alias: Option<&str>,
    ) -> Result<Factor> {
        let (name, query) = match source {
            TableSource::Named(name) => (Some(name), db.catalog().view(name).map(|v| &v.query)),
            TableSource::Subquery(q) => (None, Some(q.as_ref())),
        };
        let plan = query.map(|q| self.select(db, q)).transpose()?;
        let schema = match (&plan, name) {
            (Some(plan), _) => &plan.schema,
            (None, Some(name)) => db.catalog().table_schema(name)?,
            (None, None) => unreachable!("a derived table has a plan"),
        };
        let schema = match alias.or(name.map(String::as_str)) {
            Some(q) => schema.with_qualifier(q),
            None => schema.clone(),
        };
        Ok(Factor {
            name: name.cloned(),
            alias: alias.map(str::to_string),
            plan: plan.map(Box::new),
            schema,
        })
    }
}

/// Decide where each ORDER BY key comes from, given the output columns.
fn sort_keys(order_by: &[OrderItem], output: &Schema) -> Vec<SortKey> {
    let key = |o: &OrderItem| SortKey {
        expr: o.expr.clone(),
        asc: o.asc,
        output: output_position(&o.expr, output),
    };
    order_by.iter().map(key).collect()
}

/// Execute a SELECT against the database: plan it, then run the plan
/// with its subqueries as the running statement's.
pub fn run_select(db: &mut Database, stmt: &SelectStmt) -> Result<ResultSet> {
    let plan = plan_select(db, stmt)?;
    let outer = std::mem::replace(&mut db.frame, Frame::new(Arc::clone(&plan.subqueries)));
    let rs = execute(db, &plan);
    db.frame = outer;
    rs
}

/// The running statement's frame: its subqueries, with what each kept
/// once it ran.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    pub(crate) subqueries: Arc<Vec<Subquery>>,
    kept: Vec<Option<Kept>>,
}

impl Frame {
    pub(crate) fn new(subqueries: Arc<Vec<Subquery>>) -> Frame {
        let kept = vec![None; subqueries.len()];
        Frame { subqueries, kept }
    }
}

/// What the running statement's subquery `k` keeps, run on its first use.
pub(crate) fn kept(db: &mut Database, k: usize) -> Result<&Kept> {
    if db.frame.kept[k].is_none() {
        let subqueries = Arc::clone(&db.frame.subqueries);
        let plan = subqueries[k].plan.as_ref().map_err(Clone::clone)?;
        let rs = execute(db, plan)?;
        db.frame.kept[k] = Some(Kept::of(subqueries[k].kind, rs)?);
    }
    Ok(db.frame.kept[k].as_ref().expect("kept above"))
}

/// Run a plan: one body, or a set operation over two plans.
fn execute(db: &mut Database, plan: &SelectPlan) -> Result<ResultSet> {
    match &plan.shape {
        Shape::Body(body) => run_body(db, body, plan),
        Shape::SetOp(op, left, right) => run_set_op(db, *op, left, right, plan),
    }
}

/// Row-index buckets by row hash: the seen-set of a dedup site. One
/// [`KeyHash`] per site both hashes the rows (`hasher().hash_one`) and
/// places the buckets; the hash only picks buckets, rows are compared
/// for equality, so first-occurrence order never depends on it.
type RowBuckets = HashMap<u64, Vec<usize>, KeyHash>;

fn row_buckets(rows: usize) -> RowBuckets {
    HashMap::with_capacity_and_hasher(rows, KeyHash::default())
}

/// Keep the first entry of each distinct row (`row` reads it out of an
/// entry). Entries are moved, never cloned: the seen-set stores hashes
/// and indices into the output.
fn dedup<T>(entries: Vec<T>, row: impl Fn(&T) -> &Row) -> Vec<T> {
    let mut seen = row_buckets(entries.len());
    let mut out: Vec<T> = Vec::with_capacity(entries.len());
    for entry in entries {
        let h = seen.hasher().hash_one(row(&entry));
        let bucket = seen.entry(h).or_default();
        if bucket.iter().any(|&i| row(&out[i]) == row(&entry)) {
            continue;
        }
        bucket.push(out.len());
        out.push(entry);
    }
    out
}

/// Run a UNION/INTERSECT/EXCEPT: run both arms, combine with SQL set
/// semantics, then apply the trailing ORDER BY / LIMIT, whose keys name
/// output columns only.
fn run_set_op(
    db: &mut Database,
    op: SetOpKind,
    left: &SelectPlan,
    right: &SelectPlan,
    plan: &SelectPlan,
) -> Result<ResultSet> {
    let left = execute(db, left)?;
    let right = execute(db, right)?;
    if left.schema().len() != right.schema().len() {
        return Err(Error::Arity {
            expected: left.schema().len(),
            got: right.schema().len(),
        });
    }
    let schema = left.schema().clone();
    let rows: Vec<Row> = match op {
        SetOpKind::UnionAll => {
            let mut rows = left.into_rows();
            rows.extend(right.into_rows());
            rows
        }
        SetOpKind::Union => {
            let mut rows = left.into_rows();
            rows.extend(right.into_rows());
            dedup(rows, |r| r)
        }
        SetOpKind::Intersect | SetOpKind::Except => {
            let right_rows = right.into_rows();
            let mut membership = row_buckets(right_rows.len());
            for (i, r) in right_rows.iter().enumerate() {
                let h = membership.hasher().hash_one(r);
                membership.entry(h).or_default().push(i);
            }
            let keep_members = matches!(op, SetOpKind::Intersect);
            let mut kept = left.into_rows();
            kept.retain(|r| {
                let member = membership
                    .get(&membership.hasher().hash_one(r))
                    .is_some_and(|b| b.iter().any(|&i| right_rows[i] == *r));
                member == keep_members
            });
            dedup(kept, |r| r)
        }
    };
    let mut keyed: Vec<(Row, Vec<Value>)> = Vec::with_capacity(rows.len());
    for r in rows {
        let key = |k: &SortKey| {
            k.output.map(|i| r[i].clone()).ok_or_else(|| {
                Error::unsupported("ORDER BY after a set operation must reference output columns")
            })
        };
        let keys = plan.sort.iter().map(key).collect::<Result<_>>()?;
        keyed.push((r, keys));
    }
    let rows = order_and_limit(keyed, &plan.sort, plan.max_rows);
    Ok(ResultSet::new(schema, rows))
}

/// ORDER BY, then LIMIT, over rows paired with their sort keys. With
/// nothing cut it is a stable sort; when the LIMIT cuts, it selects the
/// `k` smallest rows by (keys, input position) and sorts only those —
/// exactly the prefix the stable sort would keep.
fn order_and_limit(
    mut keyed: Vec<(Row, Vec<Value>)>,
    sort: &[SortKey],
    limit: Option<u64>,
) -> Vec<Row> {
    let by_keys = |a: &[Value], b: &[Value]| {
        for ((a, b), o) in a.iter().zip(b).zip(sort) {
            let ord = a.total_cmp(b);
            if ord != Ordering::Equal {
                return if o.asc { ord } else { ord.reverse() };
            }
        }
        Ordering::Equal
    };
    let k = limit.map_or(keyed.len(), |l| keyed.len().min(l as usize));
    if sort.is_empty() || k == 0 {
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

/// Run one SELECT body with the plan's ORDER BY / LIMIT.
fn run_body(db: &mut Database, body: &Body, plan: &SelectPlan) -> Result<ResultSet> {
    // 1. FROM: materialise factors, join them as planned, push filters. A
    // base table's scan shares the catalog's rows, so a pushed filter
    // copies only the rows it keeps.
    let mut factors = Vec::with_capacity(body.from.len());
    for (factor, joins) in &body.from {
        let mut current = materialize(db, factor)?;
        // Explicit JOIN ... ON chain on this factor.
        for (kind, factor, on) in joins {
            let right = materialize(db, factor)?;
            current = explicit_join(db, current, right, *kind, on.as_ref())?;
        }
        factors.push(current);
    }
    let mut input = if factors.is_empty() {
        Relation::unit()
    } else {
        join_factors(factors, &body.joins, &body.demand, db)?
    };
    if let Some(pred) = Expr::conjoin(body.joins.residual.iter().cloned()) {
        filter_relation(&mut input, &pred, db)?;
    }
    if let Some(e) = &body.expand_error {
        return Err(e.clone());
    }
    let items = &body.outputs;

    // 2/3. Evaluate rows (grouped or per-row) together with sort keys.
    let mut projected: Vec<(Row, Vec<Value>)> = if body.grouped {
        run_grouped(db, &input, body, &plan.sort)?
    } else {
        if body.group_filter.is_some() {
            return Err(Error::Aggregate {
                message: "HAVING requires GROUP BY or aggregates".into(),
            });
        }
        // Plan every projection and order-key expression once; the row
        // loop then runs flat programs with a reused stack. Order keys
        // naming an output column read the projected row; the rest
        // evaluate against the input row.
        let item_evals: Vec<SiteEval> = items
            .iter()
            .map(|(e, _)| SiteEval::plan(e, &input.schema, db))
            .collect();
        let order_evals: Vec<Option<SiteEval>> = (plan.sort.iter())
            .map(|k| (k.output.is_none()).then(|| SiteEval::plan(&k.expr, &input.schema, db)))
            .collect();
        let mut stack = Vec::new();
        let mut out = Vec::with_capacity(input.rows.len());
        for row in input.rows.iter() {
            let mut o = Vec::with_capacity(items.len());
            for ev in &item_evals {
                o.push(ev.eval(&input.schema, row, db, &mut stack)?);
            }
            let mut keys = Vec::with_capacity(order_evals.len());
            for (k, ev) in plan.sort.iter().zip(&order_evals) {
                keys.push(match (ev, k.output) {
                    (Some(ev), _) => ev.eval(&input.schema, row, db, &mut stack)?,
                    (None, i) => o[i.expect("a key without an evaluator names an output")].clone(),
                });
            }
            out.push((o, keys));
        }
        out
    };

    // 4. DISTINCT.
    if body.dedup {
        projected = dedup(projected, |(row, _)| row);
    }

    // 5/6. ORDER BY and LIMIT.
    let rows = order_and_limit(projected, &plan.sort, plan.max_rows);
    let schema = output_schema(items, &input.schema, &rows);
    let rs = ResultSet::new(schema, rows);

    // 7. INTO :var — store the scalar on the session.
    if let Some(var) = &body.into_var {
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

/// Materialise one table factor under its qualifier. A base table's rows
/// are shared, not copied; a view or derived table runs its plan.
fn materialize(db: &mut Database, factor: &Factor) -> Result<Relation> {
    let base = match (&factor.plan, &factor.name) {
        (Some(plan), _) => {
            let rs = execute(db, plan)?;
            Relation::owned(rs.schema().clone(), rs.into_rows())
        }
        (None, name) => {
            let name = name.as_deref().expect("a factor without a plan is a table");
            let table = db.catalog().table(name)?;
            let relation = Relation {
                schema: table.schema().clone(),
                rows: table.shared_rows(),
            };
            db.bump(ExecCounter::RowsScanned, relation.rows.len() as u64);
            relation
        }
    };
    Ok(Relation {
        schema: match factor.qualifier() {
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
/// groups with HAVING, evaluate projections and sort keys per group.
fn run_grouped(
    db: &mut Database,
    input: &Relation,
    body: &Body,
    sort: &[SortKey],
) -> Result<Vec<(Row, Vec<Value>)>> {
    let group_keys = &body.group_keys;
    // Bucket row indices by key, in first-seen key order. Each row's key
    // is evaluated into one reused buffer; only a new key is cloned.
    let mut buckets: KeyMap<Vec<usize>> = KeyMap::default();
    let mut order: Vec<Vec<Value>> = Vec::new();
    if group_keys.is_empty() {
        buckets.insert(Vec::new(), (0..input.rows.len()).collect());
        order.push(Vec::new());
    } else {
        // Key expressions are planned once for the per-row bucketing loop.
        let key_evals: Vec<SiteEval> = group_keys
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
        let mut eval = |e: &Expr| eval_grouped(e, &input.schema, &rows, group_keys, key, db);
        if let Some(h) = &body.group_filter {
            if !eval(h)?.is_true() {
                continue;
            }
        }
        let mut o = Vec::with_capacity(body.outputs.len());
        for (e, _) in &body.outputs {
            o.push(eval(e)?);
        }
        let mut keys = Vec::with_capacity(sort.len());
        for k in sort {
            keys.push(match k.output {
                Some(i) => o[i].clone(),
                None => eval(&k.expr)?,
            });
        }
        out.push((o, keys));
    }
    Ok(out)
}

/// Whether an ORDER BY expression names an output position (`ORDER BY
/// 2`) or an output column/alias, and which index that is.
fn output_position(expr: &Expr, output: &Schema) -> Option<usize> {
    match expr {
        Expr::Literal(Value::Int(i)) => {
            let idx = (*i as usize).checked_sub(1)?;
            (idx < output.len()).then_some(idx)
        }
        Expr::Column {
            qualifier: None,
            name,
        } => output
            .columns()
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name)),
        _ => None,
    }
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
