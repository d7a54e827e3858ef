//! FROM-clause planning and joining.
//!
//! [`plan_joins`] makes every decision about a comma-join FROM list, from
//! the factors' schemas and the WHERE conjuncts alone: which conjunct is
//! pushed down to one factor's scan, which is an equi-join key between two
//! factors, which stays a residual filter for the caller, and the order
//! the factors are joined in. The plan is a value ([`JoinPlan`]):
//! [`join_factors`] runs it and `EXPLAIN` prints it, so the order EXPLAIN
//! shows is the order that runs.
//!
//! The order is the written one, except that a factor with no equi-join
//! key to the factors already joined waits until one connects. A FROM list
//! written in a disconnected order therefore builds no avoidable cross
//! product, and the order depends on the statement alone. The paper's
//! Appendix A programs join every factor to the ones before it, so they
//! run in written order.
//!
//! The executor carries tuples of factor row indices instead of
//! materialising intermediates, builds each hash table over the smaller
//! input (exact post-filter sizes) and materialises the demanded columns
//! once at the end, in the canonical lexicographic order of a
//! written-order fold. That fold — the FROM list left-to-right, the next
//! factor always the hash-join build side — is kept as the reference path
//! ([`QueryCtx::reference_paths`]); both return bit-identical results.
//!
//! A factor scanned from a base table shares the table's rows
//! (`Table::shared_rows`): nothing is copied until a filter keeps some
//! of them, and then only the survivors.

use std::sync::Arc;

use crate::error::Result;
use crate::expr::compile::{ExecCounter, SiteEval};
use crate::expr::eval::QueryCtx;
use crate::expr::{BinOp, Expr};
use crate::key::{bucket, KeyMap};
use crate::row::Row;
use crate::types::{Column, Schema};
use crate::value::Value;

/// A fully materialised intermediate relation.
#[derive(Debug, Clone)]
pub struct Relation {
    pub schema: Schema,
    /// Shared with the catalog while the relation is a base-table scan;
    /// mutate through [`Arc::make_mut`], which copies a shared vector
    /// first (a filter copies only its survivors).
    pub rows: Arc<Vec<Row>>,
}

impl Relation {
    /// A relation with no columns and a single empty row — the input for
    /// FROM-less SELECTs (`SELECT 1`).
    pub fn unit() -> Relation {
        Relation::owned(Schema::default(), vec![Vec::new()])
    }

    /// A relation over rows nothing else holds.
    pub fn owned(schema: Schema, rows: Vec<Row>) -> Relation {
        Relation {
            schema,
            rows: Arc::new(rows),
        }
    }
}

/// The columns of a joined relation the rest of its statement can read.
#[derive(Debug, Clone)]
pub enum Demand<'a> {
    /// Every column: a `*` or `t.*` item projects them.
    All,
    /// The column references of the statement outside its WHERE clause;
    /// the join adds those of the conjuncts it leaves as residual.
    Refs(Vec<(Option<&'a str>, &'a str)>),
}

impl<'a> Demand<'a> {
    /// This demand plus the column references of `exprs`.
    fn with(&self, exprs: &[&'a Expr]) -> Demand<'a> {
        match self {
            Demand::All => Demand::All,
            Demand::Refs(refs) => {
                let more = exprs.iter().flat_map(|e| e.column_refs());
                Demand::Refs(refs.iter().copied().chain(more).collect())
            }
        }
    }

    /// Whether some reference could resolve to `column` under
    /// [`Schema::resolve`]'s own rule ([`Column::answers_to`]), so every
    /// reference keeps its whole candidate set: the same column, or the
    /// same ambiguity or unknown-column error, as over the full join.
    fn reads(&self, column: &Column) -> bool {
        match self {
            Demand::All => true,
            Demand::Refs(refs) => refs.iter().any(|&(q, name)| column.answers_to(q, name)),
        }
    }
}

/// Split an expression into its top-level AND conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn rec<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } = e
        {
            rec(left, out);
            rec(right, out);
        } else {
            out.push(e);
        }
    }
    rec(expr, &mut out);
    out
}

/// True when every column reference in `expr` resolves against `schema`
/// and the expression is safe to push below a join (no sequence draws,
/// whose side effects must happen once per output row).
pub fn resolves_in(expr: &Expr, schema: &Schema) -> bool {
    let mut ok = true;
    expr.walk(&mut |e| match e {
        Expr::Column { qualifier, name } if schema.resolve(qualifier.as_deref(), name).is_err() => {
            ok = false;
        }
        Expr::NextVal(_) => ok = false,
        _ => {}
    });
    ok
}

/// The factor `expr` belongs to: the first whose schema resolves it
/// ([`resolves_in`]), provided none of its column references also
/// answers to a column of another factor. Such a reference is ambiguous
/// over the joined row, so the conjunct stays residual and
/// [`Schema::resolve`] reports the ambiguity there.
fn home(expr: &Expr, schemas: &[&Schema]) -> Option<usize> {
    let f = schemas.iter().position(|s| resolves_in(expr, s))?;
    let refs = expr.column_refs();
    let elsewhere = schemas.iter().enumerate().any(|(g, s)| {
        g != f
            && s.columns()
                .iter()
                .any(|c| refs.iter().any(|&(q, name)| c.answers_to(q, name)))
    });
    (!elsewhere).then_some(f)
}

/// An equi-join key: a `left = right` conjunct whose sides are columns of
/// two different factors.
#[derive(Debug, Clone, Copy)]
pub struct JoinKey<'a> {
    /// The conjunct itself.
    pub conjunct: &'a Expr,
    lf: usize,
    rf: usize,
    left: &'a Expr,
    right: &'a Expr,
}

impl<'a> JoinKey<'a> {
    /// The key expression living in factor `f`, one of the key's two.
    fn side(&self, f: usize) -> &'a Expr {
        if self.lf == f {
            self.left
        } else {
            self.right
        }
    }

    /// The opposite side of factor `f`: `(factor, key expression)`, or
    /// `None` when `f` is not one of the key's factors.
    fn other(&self, f: usize) -> Option<(usize, &'a Expr)> {
        if self.lf == f {
            Some((self.rf, self.right))
        } else if self.rf == f {
            Some((self.lf, self.left))
        } else {
            None
        }
    }
}

/// One join step: `factor` joined to the factors of the steps before it
/// on `keys`, or by a cross product when `keys` is empty. The first step
/// has no keys: it is the scan the others join to.
#[derive(Debug, Clone)]
pub struct JoinStep<'a> {
    /// The factor's position in the FROM list.
    pub factor: usize,
    pub keys: Vec<JoinKey<'a>>,
}

/// The plan of one comma-join FROM list ([`plan_joins`]).
#[derive(Debug, Clone)]
pub struct JoinPlan<'a> {
    /// Conjuncts pushed down to one factor's scan, `(factor, conjunct)`,
    /// in WHERE order.
    pub pushed: Vec<(usize, &'a Expr)>,
    /// Every factor once, in join order, with the keys each step uses.
    pub steps: Vec<JoinStep<'a>>,
    /// Conjuncts the caller filters the joined rows with: the rest in
    /// WHERE order, then the `column = column` ones that are no key.
    pub residual: Vec<&'a Expr>,
}

impl JoinPlan<'_> {
    /// Factors joined at another position than the one they are written at.
    pub fn reordered(&self) -> usize {
        let steps = self.steps.iter().enumerate();
        steps.filter(|(i, s)| s.factor != *i).count()
    }
}

/// Plan a FROM list of factors with the given schemas under the WHERE
/// clause's conjuncts (see the module docs for the rules).
pub fn plan_joins<'a>(schemas: &[&Schema], where_conjuncts: Vec<&'a Expr>) -> JoinPlan<'a> {
    let (mut pushed, mut residual, mut keys, mut unkeyed) = (vec![], vec![], vec![], vec![]);
    for c in where_conjuncts {
        if let Some(f) = home(c, schemas) {
            pushed.push((f, c));
            continue;
        }
        let (left, right) = match c {
            Expr::Binary {
                left,
                op: BinOp::Eq,
                right,
            } if matches!(**left, Expr::Column { .. })
                && matches!(**right, Expr::Column { .. }) =>
            {
                (left.as_ref(), right.as_ref())
            }
            _ => {
                residual.push(c);
                continue;
            }
        };
        match (home(left, schemas), home(right, schemas)) {
            (Some(lf), Some(rf)) if lf != rf => keys.push(JoinKey {
                conjunct: c,
                lf,
                rf,
                left,
                right,
            }),
            _ => unkeyed.push(c),
        }
    }
    residual.extend(unkeyed);

    let n = schemas.len();
    let mut joined = vec![false; n];
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        let connects = |k: &JoinKey, f: usize| k.other(f).is_some_and(|(g, _)| joined[g]);
        // The first unjoined factor a key connects, else the first one.
        let factor = (0..n)
            .filter(|&f| !joined[f])
            .min_by_key(|&f| (!keys.iter().any(|k| connects(k, f)), f))
            .expect("an unjoined factor is left");
        let (now, later) = keys.into_iter().partition(|k| connects(k, factor));
        keys = later;
        joined[factor] = true;
        steps.push(JoinStep { factor, keys: now });
    }
    JoinPlan {
        pushed,
        steps,
        residual,
    }
}

/// Filter `rel` in place by `pred` — the predicate is planned once and
/// run per row with a reused stack (stopping at the first error) — then
/// compact the rows in one pass.
pub fn filter_relation(rel: &mut Relation, pred: &Expr, ctx: &mut dyn QueryCtx) -> Result<()> {
    let before = rel.rows.len();
    let eval = SiteEval::plan(pred, &rel.schema, ctx);
    let mut stack = Vec::new();
    let keep: Vec<bool> = rel
        .rows
        .iter()
        .map(|row| Ok(eval.eval(&rel.schema, row, ctx, &mut stack)?.is_true()))
        .collect::<Result<_>>()?;
    retain_rows(&mut rel.rows, &keep);
    ctx.bump(ExecCounter::RowsFiltered, (before - rel.rows.len()) as u64);
    Ok(())
}

/// Keep the rows whose `keep` entry is true, in order: in place when
/// nothing else holds them, else by copying the survivors alone.
fn retain_rows(rows: &mut Arc<Vec<Row>>, keep: &[bool]) {
    match Arc::get_mut(rows) {
        Some(rows) => {
            let mut keep = keep.iter();
            rows.retain(|_| *keep.next().expect("one verdict per row"));
        }
        None => {
            let kept = rows.iter().zip(keep).filter(|(_, &k)| k);
            *rows = Arc::new(kept.map(|(row, _)| row.clone()).collect());
        }
    }
}

/// Evaluate join-key expressions over `rows` into one value column per
/// key, with per-row programs. Join keys are plain column references
/// ([`JoinKey`]), so they cannot error or draw sequences; the build/probe
/// loops then read the columns by row index, which also turns repeated
/// per-tuple key evaluation into a gather.
fn key_columns(
    keys: &[&Expr],
    schema: &Schema,
    rows: &[Row],
    ctx: &mut dyn QueryCtx,
) -> Result<Vec<Vec<Value>>> {
    let mut cols: Vec<Vec<Value>> = (0..keys.len())
        .map(|_| Vec::with_capacity(rows.len()))
        .collect();
    let evals: Vec<SiteEval> = keys
        .iter()
        .map(|k| SiteEval::plan(k, schema, ctx))
        .collect();
    let mut stack = Vec::new();
    for row in rows {
        for (e, col) in evals.iter().zip(cols.iter_mut()) {
            col.push(e.eval(schema, row, ctx, &mut stack)?);
        }
    }
    Ok(cols)
}

/// Assemble the key for row `i` from per-key columns into `key`. Returns
/// `false` (key unusable) when any part is NULL — SQL equality semantics.
fn gather_key(cols: &[Vec<Value>], i: usize, key: &mut Vec<Value>) -> bool {
    key.clear();
    for c in cols {
        if c[i].is_null() {
            return false;
        }
        key.push(c[i].clone());
    }
    true
}

/// The hash table of a join's build side: the positions of `rel`'s rows
/// bucketed by the key `keys` evaluate to. NULL-containing keys are left
/// out (they never match), and a key is cloned only the first time it is
/// seen.
fn build_table(
    keys: &[&Expr],
    rel: &Relation,
    ctx: &mut dyn QueryCtx,
) -> Result<KeyMap<Vec<usize>>> {
    let cols = key_columns(keys, &rel.schema, &rel.rows, ctx)?;
    let mut table = KeyMap::default();
    let mut key = Vec::with_capacity(keys.len());
    for i in 0..rel.rows.len() {
        if gather_key(&cols, i, &mut key) {
            bucket(&mut table, &key, i);
        }
    }
    Ok(table)
}

/// One value column per key of a planned join step, each
/// evaluated over its own factor's rows (the tuple loops then gather by
/// the tuple's row index into that factor).
fn other_key_columns(
    other: &[(usize, &Expr)],
    factors: &[Relation],
    ctx: &mut dyn QueryCtx,
) -> Result<Vec<Vec<Value>>> {
    let mut ocols = Vec::with_capacity(other.len());
    for (g, e) in other {
        let mut c = key_columns(&[*e], &factors[*g].schema, &factors[*g].rows, ctx)?;
        ocols.push(c.pop().expect("one key column"));
    }
    Ok(ocols)
}

/// Assemble the key for row-index tuple `t` from per-predicate columns.
/// `false` when any part is NULL.
fn gather_tuple_key(
    ocols: &[Vec<Value>],
    other: &[(usize, &Expr)],
    t: &[u32],
    key: &mut Vec<Value>,
) -> bool {
    key.clear();
    for (c, (g, _)) in ocols.iter().zip(other) {
        let v = &c[t[*g] as usize];
        if v.is_null() {
            return false;
        }
        key.push(v.clone());
    }
    true
}

/// Join the factors of a FROM list, consuming the usable conjuncts of the
/// WHERE clause as [`plan_joins`] decides. Returns the joined relation and
/// the residual conjuncts (the caller must apply them afterwards). The
/// planned join keeps only the columns `demand` and those conjuncts can
/// read; the written-order fold keeps every column.
pub fn join_factors<'a>(
    mut factors: Vec<Relation>,
    where_conjuncts: Vec<&'a Expr>,
    demand: &Demand<'a>,
    ctx: &mut dyn QueryCtx,
) -> Result<(Relation, Vec<&'a Expr>)> {
    let planned = !ctx.reference_paths();
    if planned {
        ctx.bump(ExecCounter::PlannerPlans, 1);
    }
    let schemas: Vec<&Schema> = factors.iter().map(|f| &f.schema).collect();
    let plan = plan_joins(&schemas, where_conjuncts);
    for &(f, c) in &plan.pushed {
        filter_relation(&mut factors[f], c, ctx)?;
        if planned {
            ctx.bump(ExecCounter::PlannerPushedFilters, 1);
        }
    }
    if planned && factors.len() >= 2 {
        run_plan(factors, plan, demand, ctx)
    } else {
        fold(factors, plan, ctx)
    }
}

/// The reference join: fold the factors in written order, the next factor
/// always the build side, on the plan's keys, materialising every
/// intermediate row whole.
fn fold<'a>(
    factors: Vec<Relation>,
    plan: JoinPlan<'a>,
    ctx: &mut dyn QueryCtx,
) -> Result<(Relation, Vec<&'a Expr>)> {
    let keys: Vec<&JoinKey> = plan.steps.iter().flat_map(|s| &s.keys).collect();
    let mut factors = factors.into_iter().enumerate();
    let mut current = factors.next().map_or_else(Relation::unit, |(_, f)| f);
    for (j, next) in factors {
        // The keys between `next` and a factor already folded in.
        let (probe, build): (Vec<&Expr>, Vec<&Expr>) = keys
            .iter()
            .filter_map(|k| {
                k.other(j)
                    .filter(|&(g, _)| g < j)
                    .map(|(_, e)| (e, k.side(j)))
            })
            .unzip();
        current = if build.is_empty() {
            cross_join(&current, &next, ctx)
        } else {
            hash_join(&current, &next, &probe, &build, ctx)?
        };
    }
    Ok((current, plan.residual))
}

/// Run a plan of two or more factors in its step order.
///
/// The accumulator is one flat vector of *row-index tuples* (stride =
/// factor count), not materialised rows, so a tuple costs 4 bytes per
/// factor and no allocation. Each hash step builds over the smaller
/// input, ties going to the incoming factor. At the end the tuples are
/// put in canonical factor order — the exact row order the written-order
/// fold produces — and the demanded columns materialised once: those
/// `demand` or a residual conjunct can read.
fn run_plan<'a>(
    factors: Vec<Relation>,
    plan: JoinPlan<'a>,
    demand: &Demand<'a>,
    ctx: &mut dyn QueryCtx,
) -> Result<(Relation, Vec<&'a Expr>)> {
    let n = factors.len();
    let start = plan.steps[0].factor;
    // Tuple `i` is `tuples[i * n..(i + 1) * n]`: one row index per factor;
    // the slots of factors not joined yet are 0.
    let mut tuples: Vec<u32> = vec![0; factors[start].rows.len() * n];
    for (i, t) in tuples.chunks_exact_mut(n).enumerate() {
        t[start] = i as u32;
    }

    for step in &plan.steps[1..] {
        let f = step.factor;
        let acc = tuples.len() / n;
        let out: Vec<u32> = if step.keys.is_empty() {
            let fr = factors[f].rows.len();
            let mut out = Vec::with_capacity(tuples.len().saturating_mul(fr));
            for t in tuples.chunks_exact(n) {
                for i in 0..fr {
                    push_tuple(&mut out, t, f, i);
                }
            }
            out
        } else {
            let f_keys: Vec<&Expr> = step.keys.iter().map(|k| k.side(f)).collect();
            let other: Vec<(usize, &Expr)> = step
                .keys
                .iter()
                .map(|k| k.other(f).expect("a step's keys reach its factor"))
                .collect();
            let ocols = other_key_columns(&other, &factors, ctx)?;
            let mut out: Vec<u32> = Vec::new();
            let mut key: Vec<Value> = Vec::with_capacity(other.len());
            if factors[f].rows.len() <= acc {
                let table = build_table(&f_keys, &factors[f], ctx)?;
                for t in tuples.chunks_exact(n) {
                    if !gather_tuple_key(&ocols, &other, t, &mut key) {
                        continue;
                    }
                    if let Some(matches) = table.get(&key) {
                        for &bi in matches {
                            push_tuple(&mut out, t, f, bi);
                        }
                    }
                }
            } else {
                // Build over the accumulated tuples, probe the factor.
                let mut table: KeyMap<Vec<usize>> = KeyMap::default();
                for (ti, t) in tuples.chunks_exact(n).enumerate() {
                    if gather_tuple_key(&ocols, &other, t, &mut key) {
                        bucket(&mut table, &key, ti);
                    }
                }
                let fcols = key_columns(&f_keys, &factors[f].schema, &factors[f].rows, ctx)?;
                for fi in 0..factors[f].rows.len() {
                    if !gather_key(&fcols, fi, &mut key) {
                        continue;
                    }
                    if let Some(matches) = table.get(&key) {
                        for &ti in matches {
                            push_tuple(&mut out, &tuples[ti * n..(ti + 1) * n], f, fi);
                        }
                    }
                }
            }
            out
        };
        ctx.bump(ExecCounter::RowsJoined, (out.len() / n) as u64);
        tuples = out;
    }
    ctx.bump(ExecCounter::PlannerReorderedJoins, plan.reordered() as u64);

    // Only the columns some later reference can resolve to are built; a
    // `COUNT(*)` join builds width-0 rows, which allocate nothing.
    let residual = plan.residual;
    let demand = demand.with(&residual);
    let (mut columns, mut schema) = (Vec::new(), Schema::default());
    for (fi, fct) in factors.iter().enumerate() {
        for (ci, c) in fct.schema.columns().iter().enumerate() {
            if demand.reads(c) {
                columns.push((fi, ci));
                schema.push(c.clone());
            }
        }
    }
    let row_of = |t: &[u32]| -> Row {
        columns
            .iter()
            .map(|&(fi, ci)| factors[fi].rows[t[fi] as usize][ci].clone())
            .collect()
    };
    // Canonical output: the written-order fold emits rows
    // lexicographically by factor row index, so sorting a permutation of
    // the tuples reproduces its row order exactly — bit-identical results.
    let tuple = |i: usize| &tuples[i * n..(i + 1) * n];
    let mut perm: Vec<usize> = (0..tuples.len() / n).collect();
    perm.sort_unstable_by(|&a, &b| tuple(a).cmp(tuple(b)));
    let rows: Vec<Row> = perm.into_iter().map(|i| row_of(tuple(i))).collect();
    Ok((Relation::owned(schema, rows), residual))
}

/// Append tuple `t` with factor `f`'s slot set to `row`.
fn push_tuple(out: &mut Vec<u32>, t: &[u32], f: usize, row: usize) {
    out.extend_from_slice(t);
    let at = out.len() - t.len() + f;
    out[at] = row as u32;
}

fn cross_join(a: &Relation, b: &Relation, ctx: &mut dyn QueryCtx) -> Relation {
    let schema = a.schema.join(&b.schema);
    let width = schema.len();
    let mut rows = Vec::with_capacity(a.rows.len() * b.rows.len());
    for ra in a.rows.iter() {
        for rb in b.rows.iter() {
            let mut r = Vec::with_capacity(width);
            r.extend_from_slice(ra);
            r.extend_from_slice(rb);
            rows.push(r);
        }
    }
    ctx.bump(ExecCounter::RowsJoined, rows.len() as u64);
    Relation::owned(schema, rows)
}

/// Hash join `probe ⋈ build` on the given key expressions. NULL keys never
/// match (SQL equality semantics).
///
/// Key expressions are planned once per side; the probe phase collects
/// `(probe_idx, build_idx)` pairs and the output rows are materialised in
/// a single exact-capacity pass — no intermediate row clones.
fn hash_join(
    probe: &Relation,
    build: &Relation,
    probe_keys: &[&Expr],
    build_keys: &[&Expr],
    ctx: &mut dyn QueryCtx,
) -> Result<Relation> {
    let schema = probe.schema.join(&build.schema);
    let table = build_table(build_keys, build, ctx)?;
    let mut key: Vec<Value> = Vec::with_capacity(probe_keys.len());
    let pcols = key_columns(probe_keys, &probe.schema, &probe.rows, ctx)?;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for pi in 0..probe.rows.len() {
        if !gather_key(&pcols, pi, &mut key) {
            continue;
        }
        if let Some(matches) = table.get(&key) {
            for &bi in matches {
                pairs.push((pi, bi));
            }
        }
    }
    let width = schema.len();
    let mut rows = Vec::with_capacity(pairs.len());
    for (pi, bi) in pairs {
        let mut r = Vec::with_capacity(width);
        r.extend_from_slice(&probe.rows[pi]);
        r.extend_from_slice(&build.rows[bi]);
        rows.push(r);
    }
    ctx.bump(ExecCounter::RowsJoined, rows.len() as u64);
    Ok(Relation::owned(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::eval::NoCtx;
    use crate::row;
    use crate::sql::parser::parse_expression;
    use crate::types::DataType;

    fn rel(q: &str, names: &[(&str, DataType)], rows: Vec<Row>) -> Relation {
        let columns = names.iter().map(|(n, t)| Column::qualified(q, *n, *t));
        Relation::owned(Schema::new(columns.collect()), rows)
    }

    fn schema(q: &str, names: &[&str]) -> Schema {
        let columns = names
            .iter()
            .map(|n| Column::qualified(q, *n, DataType::Int));
        Schema::new(columns.collect())
    }

    #[test]
    fn a_factor_no_key_connects_yet_waits_for_one() {
        let (a, c, b) = (
            schema("a", &["x"]),
            schema("c", &["y"]),
            schema("b", &["x", "y"]),
        );
        let pred = parse_expression("a.x = b.x AND b.y = c.y").unwrap();
        let plan = plan_joins(&[&a, &c, &b], conjuncts(&pred));
        let order: Vec<usize> = plan.steps.iter().map(|s| s.factor).collect();
        assert_eq!(order, [0, 2, 1]);
        assert_eq!(plan.steps[1].keys[0].conjunct.to_string(), "a.x = b.x");
        assert_eq!(plan.steps[2].keys[0].conjunct.to_string(), "b.y = c.y");
        assert_eq!(plan.reordered(), 2);
        // Connected as written: the written order.
        let plan = plan_joins(&[&a, &b, &c], conjuncts(&pred));
        assert_eq!(plan.reordered(), 0);
        // Nothing connects: a cross product per step, in written order.
        let plan = plan_joins(&[&a, &c, &b], Vec::new());
        assert!(plan.steps.iter().all(|s| s.keys.is_empty()));
        assert_eq!(plan.reordered(), 0);
    }

    #[test]
    fn a_column_answering_in_two_factors_is_never_pushed_or_keyed() {
        let (a, b) = (schema("a", &["x", "tag"]), schema("b", &["x", "y"]));
        let pred = parse_expression("x = 1 AND tag = 2 AND x = y AND a.x = y AND b.y > 0").unwrap();
        let plan = plan_joins(&[&a, &b], conjuncts(&pred));
        let pushed: Vec<(usize, String)> = plan
            .pushed
            .iter()
            .map(|(f, c)| (*f, c.to_string()))
            .collect();
        assert_eq!(
            pushed,
            [(0, "tag = 2".to_string()), (1, "b.y > 0".to_string())]
        );
        assert_eq!(plan.steps[1].keys[0].conjunct.to_string(), "a.x = y");
        let residual: Vec<String> = plan.residual.iter().map(|c| c.to_string()).collect();
        assert_eq!(residual, ["x = 1", "x = y"]);
    }

    #[test]
    fn conjuncts_splits_top_level_ands() {
        let e = parse_expression("a = 1 AND (b = 2 OR c = 3) AND d = 4").unwrap();
        assert_eq!(conjuncts(&e).len(), 3);
    }

    #[test]
    fn hash_join_matches_equal_keys() {
        let a = rel(
            "a",
            &[("x", DataType::Int)],
            vec![row![1], row![2], row![3]],
        );
        let b = rel(
            "b",
            &[("y", DataType::Int), ("z", DataType::Str)],
            vec![row![2, "two"], row![3, "three"], row![3, "III"]],
        );
        let pred = parse_expression("a.x = b.y").unwrap();
        let (joined, residual) =
            join_factors(vec![a, b], conjuncts(&pred), &Demand::All, &mut NoCtx).unwrap();
        assert!(residual.is_empty());
        assert_eq!(joined.rows.len(), 3); // 2-two, 3-three, 3-III
        assert_eq!(joined.schema.len(), 3);
    }

    #[test]
    fn null_keys_do_not_join() {
        let a = rel("a", &[("x", DataType::Int)], vec![vec![Value::Null]]);
        let b = rel("b", &[("y", DataType::Int)], vec![vec![Value::Null]]);
        let pred = parse_expression("a.x = b.y").unwrap();
        let (joined, _) =
            join_factors(vec![a, b], conjuncts(&pred), &Demand::All, &mut NoCtx).unwrap();
        assert!(joined.rows.is_empty());
    }

    #[test]
    fn no_predicate_gives_cross_product() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1], row![2]]);
        let b = rel("b", &[("y", DataType::Int)], vec![row![10], row![20]]);
        let (joined, residual) =
            join_factors(vec![a, b], vec![], &Demand::All, &mut NoCtx).unwrap();
        assert!(residual.is_empty());
        assert_eq!(joined.rows.len(), 4);
    }

    #[test]
    fn single_factor_predicate_pushed_down() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1], row![2]]);
        let b = rel("b", &[("y", DataType::Int)], vec![row![10]]);
        let pred = parse_expression("a.x = 2").unwrap();
        let (joined, residual) =
            join_factors(vec![a, b], conjuncts(&pred), &Demand::All, &mut NoCtx).unwrap();
        assert!(residual.is_empty());
        assert_eq!(joined.rows.len(), 1);
        assert_eq!(joined.rows[0], row![2, 10]);
    }

    #[test]
    fn non_equi_predicate_returned_as_residual() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1]]);
        let b = rel("b", &[("y", DataType::Int)], vec![row![10]]);
        let pred = parse_expression("a.x < b.y").unwrap();
        let (joined, residual) =
            join_factors(vec![a, b], conjuncts(&pred), &Demand::All, &mut NoCtx).unwrap();
        assert_eq!(joined.rows.len(), 1); // cross join, filter left to caller
        assert_eq!(residual.len(), 1);
    }

    #[test]
    fn three_way_equi_join_chains() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1], row![2]]);
        let b = rel(
            "b",
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![row![1, 10], row![2, 20]],
        );
        let c = rel("c", &[("y", DataType::Int)], vec![row![20]]);
        let pred = parse_expression("a.x = b.x AND b.y = c.y").unwrap();
        let (joined, residual) =
            join_factors(vec![a, b, c], conjuncts(&pred), &Demand::All, &mut NoCtx).unwrap();
        assert!(residual.is_empty());
        assert_eq!(joined.rows.len(), 1);
        assert_eq!(joined.rows[0], row![2, 2, 20, 20]);
    }

    #[test]
    fn cost_join_builds_only_demanded_columns() {
        let a = rel(
            "a",
            &[("x", DataType::Int), ("s", DataType::Str)],
            vec![row![1, "p"], row![2, "q"]],
        );
        let b = rel(
            "b",
            &[("x", DataType::Int), ("t", DataType::Str)],
            vec![row![2, "r"], row![1, "p"], row![2, "q"]],
        );
        let pred = parse_expression("a.x = b.x AND a.s <> b.t").unwrap();
        // The equi conjunct is consumed; the residual reads a.s and b.t.
        let demand = Demand::Refs(vec![(Some("B"), "T")]);
        let (joined, residual) =
            join_factors(vec![a, b], conjuncts(&pred), &demand, &mut NoCtx).unwrap();
        assert_eq!(residual.len(), 1);
        let names: Vec<String> = joined
            .schema
            .columns()
            .iter()
            .map(|c| format!("{}.{}", c.qualifier.as_deref().unwrap_or(""), c.name))
            .collect();
        assert_eq!(names, ["a.s", "b.t"]);
        assert_eq!(
            *joined.rows,
            [row!["p", "p"], row!["q", "r"], row!["q", "q"]]
        );
    }

    #[test]
    fn a_join_nothing_reads_builds_width_zero_rows() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1], row![1]]);
        let b = rel("b", &[("x", DataType::Int)], vec![row![1], row![2]]);
        let pred = parse_expression("a.x = b.x").unwrap();
        let demand = Demand::Refs(Vec::new());
        let (joined, _) = join_factors(vec![a, b], conjuncts(&pred), &demand, &mut NoCtx).unwrap();
        assert!(joined.schema.is_empty());
        assert_eq!(joined.rows.len(), 2);
        assert!(joined.rows.iter().all(|r| r.capacity() == 0));
    }
}
