//! Expression evaluation.
//!
//! Two evaluators live here: [`eval_expr`] for row-at-a-time contexts
//! (WHERE, projections) and [`eval_grouped`] for per-group contexts
//! (grouped projections, HAVING), which computes aggregates over the
//! group's rows and resolves group-key expressions to their key values.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::expr::compile::ExecCounter;
use crate::expr::{AggFunc, BinOp, Expr, UnaryOp};
use crate::index::HashIndex;
use crate::resultset::ResultSet;
use crate::row::Row;
use crate::sql::ast::SelectStmt;
use crate::types::Schema;
use crate::value::Value;

/// Services an evaluator needs from the engine: subquery execution,
/// sequence draws and host-variable lookup.
pub trait QueryCtx {
    /// Run a (non-correlated) subquery and return its full result.
    fn run_subquery(&mut self, query: &SelectStmt) -> Result<ResultSet>;
    /// Draw the next value from a sequence.
    fn nextval(&mut self, sequence: &str) -> Result<i64>;
    /// Read a host variable.
    fn host_var(&self, name: &str) -> Result<Value>;
    /// Whether every strategy choice takes its reference leg: interpreted
    /// expressions, row-at-a-time flow, written-order join fold, no table
    /// indexes. Production contexts answer `false` and let each site
    /// select from what it observes; tests flip it on a
    /// [`Database`](crate::Database) to get the oracle the production
    /// paths are compared against.
    fn reference_paths(&self) -> bool {
        false
    }
    /// Record executor work ([`ExecCounter`]). A no-op outside an
    /// engine, so plan-level helpers can report unconditionally.
    fn bump(&mut self, _counter: ExecCounter, _n: u64) {}
    /// Fetch (building lazily if allowed) a hash index over `cols` of the
    /// named base table, valid only at exactly `version`. The default —
    /// used by contexts without a catalog — offers no access paths, so
    /// operators fall back to scans.
    fn table_index(
        &mut self,
        _table: &str,
        _version: u64,
        _cols: &[usize],
    ) -> Option<Arc<HashIndex>> {
        None
    }
    /// True when a live hash index over `cols` of the named base table
    /// already exists at exactly `version` — a zero-cost access path the
    /// planner should prefer. Unlike [`QueryCtx::table_index`], peeking
    /// never builds anything.
    fn has_table_index(&self, _table: &str, _version: u64, _cols: &[usize]) -> bool {
        false
    }
    /// Estimated distinct count of one column of a base table, from the
    /// catalog statistics. `None` outside an engine (or off-range).
    fn column_distinct(&self, _table: &str, _col: usize) -> Option<u64> {
        None
    }
}

/// A context for expression evaluation outside any engine (literals only);
/// useful in tests and for constant folding.
pub struct NoCtx;

impl QueryCtx for NoCtx {
    fn run_subquery(&mut self, _query: &SelectStmt) -> Result<ResultSet> {
        Err(Error::unsupported("subquery outside engine context"))
    }
    fn nextval(&mut self, sequence: &str) -> Result<i64> {
        Err(Error::UnknownObject {
            kind: crate::error::ObjectKind::Sequence,
            name: sequence.to_string(),
        })
    }
    fn host_var(&self, name: &str) -> Result<Value> {
        Err(Error::UnboundVariable {
            name: name.to_string(),
        })
    }
}

/// Evaluate `expr` against one row.
pub fn eval_expr(expr: &Expr, schema: &Schema, row: &Row, ctx: &mut dyn QueryCtx) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { qualifier, name } => {
            let idx = schema.resolve(qualifier.as_deref(), name)?;
            Ok(row[idx].clone())
        }
        Expr::HostVar(name) => ctx.host_var(name),
        Expr::NextVal(seq) => Ok(Value::Int(ctx.nextval(seq)?)),
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, schema, row, ctx)?;
            eval_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            // Short-circuit logical operators with 3VL.
            if *op == BinOp::And || *op == BinOp::Or {
                return eval_logical(*op, left, right, schema, row, ctx);
            }
            let l = eval_expr(left, schema, row, ctx)?;
            let r = eval_expr(right, schema, row, ctx)?;
            eval_binary(*op, l, r)
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_expr(expr, schema, row, ctx)?;
            let lo = eval_expr(low, schema, row, ctx)?;
            let hi = eval_expr(high, schema, row, ctx)?;
            let ge = eval_binary(BinOp::GtEq, v.clone(), lo)?;
            let le = eval_binary(BinOp::LtEq, v, hi)?;
            let both = logical_and(ge, le);
            Ok(maybe_negate(both, *negated))
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_expr(expr, schema, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for e in list {
                let item = eval_expr(e, schema, row, ctx)?;
                if item.is_null() {
                    saw_null = true;
                    continue;
                }
                if matches!(v.sql_cmp(&item)?, Some(Ordering::Equal)) {
                    return Ok(maybe_negate(Value::Bool(true), *negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(maybe_negate(Value::Bool(false), *negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, schema, row, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval_expr(expr, schema, row, ctx)?;
            let p = eval_expr(pattern, schema, row, ctx)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let matched = like_match(v.as_str()?, p.as_str()?);
            Ok(maybe_negate(Value::Bool(matched), *negated))
        }
        Expr::Func { name, args } => {
            let vals: Result<Vec<Value>> = args
                .iter()
                .map(|a| eval_expr(a, schema, row, ctx))
                .collect();
            eval_scalar_func(name, vals?)
        }
        Expr::Aggregate { .. } => Err(Error::Aggregate {
            message: "aggregate used outside GROUP BY / HAVING context".into(),
        }),
        Expr::ScalarSubquery(q) => {
            let rs = ctx.run_subquery(q)?;
            scalar_from_resultset(&rs)
        }
        Expr::Exists { negated, query } => {
            let rs = ctx.run_subquery(query)?;
            Ok(Value::Bool((rs.rows().is_empty()) == *negated))
        }
        Expr::InSubquery {
            expr,
            negated,
            query,
        } => {
            let v = eval_expr(expr, schema, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let rs = ctx.run_subquery(query)?;
            if rs.schema().len() != 1 {
                return Err(Error::ScalarSubquery {
                    message: format!("IN subquery returns {} columns", rs.schema().len()),
                });
            }
            let mut saw_null = false;
            for r in rs.rows() {
                if r[0].is_null() {
                    saw_null = true;
                    continue;
                }
                if matches!(v.sql_cmp(&r[0])?, Some(Ordering::Equal)) {
                    return Ok(maybe_negate(Value::Bool(true), *negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(maybe_negate(Value::Bool(false), *negated))
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, val) in branches {
                if eval_expr(cond, schema, row, ctx)?.is_true() {
                    return eval_expr(val, schema, row, ctx);
                }
            }
            match else_expr {
                Some(e) => eval_expr(e, schema, row, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, dtype } => {
            let v = eval_expr(expr, schema, row, ctx)?;
            cast_value(v, *dtype)
        }
    }
}

/// SQL CAST semantics: NULL casts to NULL; numeric/text/date conversions
/// follow the usual lexical forms; impossible casts are errors.
pub fn cast_value(v: Value, dtype: crate::types::DataType) -> Result<Value> {
    use crate::types::DataType;
    if v.is_null() {
        return Ok(Value::Null);
    }
    Ok(match (dtype, &v) {
        (DataType::Int, Value::Int(_)) => v,
        (DataType::Int, Value::Float(f)) => Value::Int(*f as i64),
        (DataType::Int, Value::Bool(b)) => Value::Int(*b as i64),
        (DataType::Int, Value::Str(s)) => Value::Int(
            s.trim()
                .parse()
                .map_err(|_| Error::type_mismatch(format!("cannot cast '{s}' to INT")))?,
        ),
        (DataType::Float, Value::Float(_)) => v,
        (DataType::Float, Value::Int(i)) => Value::Float(*i as f64),
        (DataType::Float, Value::Str(s)) => Value::Float(
            s.trim()
                .parse()
                .map_err(|_| Error::type_mismatch(format!("cannot cast '{s}' to FLOAT")))?,
        ),
        (DataType::Str, other) => Value::Str(other.to_string()),
        (DataType::Bool, Value::Bool(_)) => v,
        (DataType::Bool, Value::Int(i)) => Value::Bool(*i != 0),
        (DataType::Bool, Value::Str(s)) => match s.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Value::Bool(true),
            "false" | "f" | "0" => Value::Bool(false),
            _ => {
                return Err(Error::type_mismatch(format!(
                    "cannot cast '{s}' to BOOLEAN"
                )))
            }
        },
        (DataType::Date, Value::Date(_)) => v,
        (DataType::Date, Value::Str(s)) => Value::Date(
            crate::value::Date::parse(s)
                .ok_or_else(|| Error::type_mismatch(format!("cannot cast '{s}' to DATE")))?,
        ),
        (want, have) => {
            return Err(Error::type_mismatch(format!(
                "cannot cast {} to {want}",
                have.type_name()
            )))
        }
    })
}

/// Evaluate `expr` in a grouped context.
///
/// `group_keys` are the GROUP BY expressions; `key_values` their values for
/// this group; `rows` the group's member rows. Aggregates are computed over
/// `rows`; any subexpression structurally equal to a group key resolves to
/// the key's value; remaining column references are errors (SQL92 rule).
pub fn eval_grouped(
    expr: &Expr,
    schema: &Schema,
    rows: &[&Row],
    group_keys: &[Expr],
    key_values: &[Value],
    ctx: &mut dyn QueryCtx,
) -> Result<Value> {
    // A group-key match takes priority over any other interpretation.
    for (k, v) in group_keys.iter().zip(key_values) {
        if expr == k {
            return Ok(v.clone());
        }
    }
    match expr {
        Expr::Aggregate {
            func,
            distinct,
            arg,
        } => eval_aggregate(*func, *distinct, arg.as_deref(), schema, rows, ctx),
        Expr::Literal(_) | Expr::HostVar(_) | Expr::NextVal(_) | Expr::ScalarSubquery(_) => {
            // Row-independent: evaluate against an empty row.
            let empty = Vec::new();
            eval_expr(expr, &Schema::default(), &empty, ctx)
        }
        Expr::Column { qualifier, name } => Err(Error::Aggregate {
            message: format!(
                "column '{}{}' must appear in GROUP BY or inside an aggregate",
                qualifier
                    .as_deref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default(),
                name
            ),
        }),
        Expr::Unary { op, expr } => {
            let v = eval_grouped(expr, schema, rows, group_keys, key_values, ctx)?;
            eval_unary(*op, v)
        }
        Expr::Binary { left, op, right } => {
            let l = eval_grouped(left, schema, rows, group_keys, key_values, ctx)?;
            let r = eval_grouped(right, schema, rows, group_keys, key_values, ctx)?;
            eval_binary(*op, l, r)
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval_grouped(expr, schema, rows, group_keys, key_values, ctx)?;
            let lo = eval_grouped(low, schema, rows, group_keys, key_values, ctx)?;
            let hi = eval_grouped(high, schema, rows, group_keys, key_values, ctx)?;
            let ge = eval_binary(BinOp::GtEq, v.clone(), lo)?;
            let le = eval_binary(BinOp::LtEq, v, hi)?;
            Ok(maybe_negate(logical_and(ge, le), *negated))
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval_grouped(expr, schema, rows, group_keys, key_values, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            for e in list {
                let item = eval_grouped(e, schema, rows, group_keys, key_values, ctx)?;
                if !item.is_null() && matches!(v.sql_cmp(&item)?, Some(Ordering::Equal)) {
                    return Ok(maybe_negate(Value::Bool(true), *negated));
                }
            }
            Ok(maybe_negate(Value::Bool(false), *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_grouped(expr, schema, rows, group_keys, key_values, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Func { name, args } => {
            let vals: Result<Vec<Value>> = args
                .iter()
                .map(|a| eval_grouped(a, schema, rows, group_keys, key_values, ctx))
                .collect();
            eval_scalar_func(name, vals?)
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, val) in branches {
                if eval_grouped(cond, schema, rows, group_keys, key_values, ctx)?.is_true() {
                    return eval_grouped(val, schema, rows, group_keys, key_values, ctx);
                }
            }
            match else_expr {
                Some(e) => eval_grouped(e, schema, rows, group_keys, key_values, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, dtype } => {
            let v = eval_grouped(expr, schema, rows, group_keys, key_values, ctx)?;
            cast_value(v, *dtype)
        }
        other => Err(Error::unsupported(format!(
            "expression not allowed in grouped context: {other}"
        ))),
    }
}

fn eval_aggregate(
    func: AggFunc,
    distinct: bool,
    arg: Option<&Expr>,
    schema: &Schema,
    rows: &[&Row],
    ctx: &mut dyn QueryCtx,
) -> Result<Value> {
    // COUNT(*) counts rows regardless of values.
    let Some(arg) = arg else {
        return Ok(Value::Int(rows.len() as i64));
    };
    if arg.contains_aggregate() {
        return Err(Error::Aggregate {
            message: "nested aggregates are not allowed".into(),
        });
    }
    let mut values = Vec::with_capacity(rows.len());
    for row in rows {
        let v = eval_expr(arg, schema, row, ctx)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| seen.insert(v.clone()));
    }
    match func {
        AggFunc::Count => Ok(Value::Int(values.len() as i64)),
        AggFunc::Sum => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            if values.iter().all(|v| matches!(v, Value::Int(_))) {
                let mut s = 0i64;
                for v in &values {
                    s += v.as_int()?;
                }
                Ok(Value::Int(s))
            } else {
                let mut s = 0f64;
                for v in &values {
                    s += v.as_float()?;
                }
                Ok(Value::Float(s))
            }
        }
        AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut s = 0f64;
            for v in &values {
                s += v.as_float()?;
            }
            Ok(Value::Float(s / values.len() as f64))
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b)? {
                            Some(Ordering::Less) => func == AggFunc::Min,
                            Some(Ordering::Greater) => func == AggFunc::Max,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

fn eval_logical(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    schema: &Schema,
    row: &Row,
    ctx: &mut dyn QueryCtx,
) -> Result<Value> {
    let l = eval_expr(left, schema, row, ctx)?;
    match (op, &l) {
        (BinOp::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
        (BinOp::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = eval_expr(right, schema, row, ctx)?;
    Ok(match op {
        BinOp::And => logical_and(l, r),
        BinOp::Or => logical_or(l, r),
        _ => unreachable!(),
    })
}

pub(crate) fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(Error::type_mismatch(format!(
            "expected BOOLEAN, got {}",
            other.type_name()
        ))),
    }
}

pub(crate) fn logical_and(l: Value, r: Value) -> Value {
    match (truth(&l), truth(&r)) {
        (Ok(Some(false)), _) | (_, Ok(Some(false))) => Value::Bool(false),
        (Ok(Some(true)), Ok(Some(true))) => Value::Bool(true),
        _ => Value::Null,
    }
}

pub(crate) fn logical_or(l: Value, r: Value) -> Value {
    match (truth(&l), truth(&r)) {
        (Ok(Some(true)), _) | (_, Ok(Some(true))) => Value::Bool(true),
        (Ok(Some(false)), Ok(Some(false))) => Value::Bool(false),
        _ => Value::Null,
    }
}

pub(crate) fn maybe_negate(v: Value, negated: bool) -> Value {
    if !negated {
        return v;
    }
    match v {
        Value::Bool(b) => Value::Bool(!b),
        other => other, // NULL stays NULL
    }
}

pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::type_mismatch(format!(
                "cannot negate {}",
                other.type_name()
            ))),
        },
        UnaryOp::Not => match truth(&v)? {
            None => Ok(Value::Null),
            Some(b) => Ok(Value::Bool(!b)),
        },
    }
}

/// Evaluate a binary operator on two values (comparison operators apply
/// SQL NULL semantics; `/` always yields FLOAT to keep support/confidence
/// ratios exact in generated mining SQL).
pub fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And => Ok(logical_and(l, r)),
        Or => Ok(logical_or(l, r)),
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let Some(ord) = l.sql_cmp(&r)? else {
                return Ok(Value::Null);
            };
            let b = match op {
                Eq => ord == Ordering::Equal,
                NotEq => ord != Ordering::Equal,
                Lt => ord == Ordering::Less,
                LtEq => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Str(format!("{l}{r}")))
        }
        Add | Sub | Mul | Div | Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (&l, &r) {
                (Value::Date(d), _) if op == Add => {
                    Ok(Value::Date(d.plus_days(r.as_int()? as i32)))
                }
                (Value::Date(d), Value::Int(n)) if op == Sub => {
                    Ok(Value::Date(d.plus_days(-(*n as i32))))
                }
                (Value::Date(a), Value::Date(b)) if op == Sub => Ok(Value::Int(
                    (a.days_since_epoch() - b.days_since_epoch()) as i64,
                )),
                (Value::Int(a), Value::Int(b)) => match op {
                    Add => Ok(Value::Int(a + b)),
                    Sub => Ok(Value::Int(a - b)),
                    Mul => Ok(Value::Int(a * b)),
                    Div => {
                        if *b == 0 {
                            Err(Error::Arithmetic {
                                message: "division by zero".into(),
                            })
                        } else {
                            Ok(Value::Float(*a as f64 / *b as f64))
                        }
                    }
                    Mod => {
                        if *b == 0 {
                            Err(Error::Arithmetic {
                                message: "modulo by zero".into(),
                            })
                        } else {
                            Ok(Value::Int(a % b))
                        }
                    }
                    _ => unreachable!(),
                },
                _ => {
                    let a = l.as_float()?;
                    let b = r.as_float()?;
                    match op {
                        Add => Ok(Value::Float(a + b)),
                        Sub => Ok(Value::Float(a - b)),
                        Mul => Ok(Value::Float(a * b)),
                        Div => {
                            if b == 0.0 {
                                Err(Error::Arithmetic {
                                    message: "division by zero".into(),
                                })
                            } else {
                                Ok(Value::Float(a / b))
                            }
                        }
                        Mod => Err(Error::type_mismatch("% requires integers")),
                        _ => unreachable!(),
                    }
                }
            }
        }
    }
}

pub(crate) fn eval_scalar_func(name: &str, args: Vec<Value>) -> Result<Value> {
    let upper = name.to_ascii_uppercase();
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::Arity {
                expected: n,
                got: args.len(),
            })
        }
    };
    match upper.as_str() {
        "ABS" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(Error::type_mismatch(format!(
                    "ABS of {}",
                    other.type_name()
                ))),
            }
        }
        "UPPER" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                // ASCII-only, matching the lexer's identifier folding:
                // byte-for-byte stable regardless of Unicode tables.
                v => Ok(Value::Str(v.as_str()?.to_ascii_uppercase())),
            }
        }
        "LOWER" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Str(v.as_str()?.to_ascii_lowercase())),
            }
        }
        "LENGTH" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Int(v.as_str()?.chars().count() as i64)),
            }
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(Error::Arity {
                    expected: 2,
                    got: args.len(),
                });
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let x = args[0].as_float()?;
            let digits = if args.len() == 2 {
                args[1].as_int()?
            } else {
                0
            };
            let m = 10f64.powi(digits as i32);
            Ok(Value::Float((x * m).round() / m))
        }
        "FLOOR" => {
            arity(1)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Int(args[0].as_float()?.floor() as i64))
        }
        "CEIL" | "CEILING" => {
            arity(1)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Int(args[0].as_float()?.ceil() as i64))
        }
        "SUBSTR" | "SUBSTRING" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(Error::Arity {
                    expected: 3,
                    got: args.len(),
                });
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let s: Vec<char> = args[0].as_str()?.chars().collect();
            // 1-based start, SQL style.
            let start = (args[1].as_int()?.max(1) - 1) as usize;
            let len = if args.len() == 3 {
                args[2].as_int()?.max(0) as usize
            } else {
                s.len()
            };
            Ok(Value::Str(s.into_iter().skip(start).take(len).collect()))
        }
        "TRIM" => {
            arity(1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Str(v.as_str()?.trim().to_string())),
            }
        }
        "CONCAT" => {
            let mut out = String::new();
            for a in &args {
                if !a.is_null() {
                    out.push_str(&a.to_string());
                }
            }
            Ok(Value::Str(out))
        }
        "REPLACE" => {
            arity(3)?;
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Str(
                args[0]
                    .as_str()?
                    .replace(args[1].as_str()?, args[2].as_str()?),
            ))
        }
        "COALESCE" => {
            for a in args {
                if !a.is_null() {
                    return Ok(a);
                }
            }
            Ok(Value::Null)
        }
        other => Err(Error::unsupported(format!("unknown function {other}"))),
    }
}

/// SQL LIKE with `%` (any run) and `_` (any single char).
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Greedy-with-backtracking.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

fn scalar_from_resultset(rs: &ResultSet) -> Result<Value> {
    if rs.schema().len() != 1 {
        return Err(Error::ScalarSubquery {
            message: format!("expected 1 column, got {}", rs.schema().len()),
        });
    }
    match rs.rows().len() {
        0 => Ok(Value::Null),
        1 => Ok(rs.rows()[0][0].clone()),
        n => Err(Error::ScalarSubquery {
            message: format!("expected at most 1 row, got {n}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_expression;
    use crate::types::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str),
            Column::new("c", DataType::Float),
        ])
    }

    fn ev(sql: &str, row: Row) -> Result<Value> {
        let e = parse_expression(sql).unwrap();
        eval_expr(&e, &schema(), &row, &mut NoCtx)
    }

    fn row_abc() -> Row {
        vec![Value::Int(5), Value::Str("hello".into()), Value::Float(2.5)]
    }

    #[test]
    fn upper_lower_fold_ascii_only() {
        // Pinned: UPPER/LOWER fold ASCII only, matching the lexer's
        // identifier folding — non-ASCII letters pass through untouched,
        // so compiled and interpreted modes can never diverge on
        // Unicode case tables.
        assert_eq!(
            ev("LOWER('ABCÄ')", row_abc()),
            Ok(Value::Str("abcÄ".into()))
        );
        assert_eq!(
            ev("UPPER('abcä')", row_abc()),
            Ok(Value::Str("ABCä".into()))
        );
        assert_eq!(ev("LOWER(NULL)", row_abc()), Ok(Value::Null));
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(ev("a + 1", row_abc()).unwrap(), Value::Int(6));
        assert_eq!(ev("a * 2 >= 10", row_abc()).unwrap(), Value::Bool(true));
        assert_eq!(ev("a / 2", row_abc()).unwrap(), Value::Float(2.5));
        assert_eq!(ev("a % 2", row_abc()).unwrap(), Value::Int(1));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(matches!(
            ev("a / 0", row_abc()),
            Err(Error::Arithmetic { .. })
        ));
    }

    #[test]
    fn null_propagation() {
        let row = vec![Value::Null, Value::Str("x".into()), Value::Float(0.0)];
        assert_eq!(ev("a + 1", row.clone()).unwrap(), Value::Null);
        assert_eq!(ev("a = 1", row.clone()).unwrap(), Value::Null);
        assert_eq!(ev("a IS NULL", row).unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let row = vec![Value::Null, Value::Str("x".into()), Value::Float(0.0)];
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE.
        assert_eq!(
            ev("a = 1 AND FALSE", row.clone()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(ev("a = 1 OR TRUE", row.clone()).unwrap(), Value::Bool(true));
        assert_eq!(ev("a = 1 AND TRUE", row).unwrap(), Value::Null);
    }

    #[test]
    fn between_inclusive() {
        assert_eq!(
            ev("a BETWEEN 5 AND 7", row_abc()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            ev("a BETWEEN 6 AND 7", row_abc()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            ev("a NOT BETWEEN 6 AND 7", row_abc()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn in_list() {
        assert_eq!(ev("a IN (1, 5, 9)", row_abc()).unwrap(), Value::Bool(true));
        assert_eq!(ev("a NOT IN (1, 9)", row_abc()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert_eq!(ev("b LIKE 'he%'", row_abc()).unwrap(), Value::Bool(true));
        assert_eq!(ev("b LIKE 'h_llo'", row_abc()).unwrap(), Value::Bool(true));
        assert_eq!(ev("b LIKE 'x%'", row_abc()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(ev("ABS(-3)", row_abc()).unwrap(), Value::Int(3));
        assert_eq!(
            ev("UPPER(b)", row_abc()).unwrap(),
            Value::Str("HELLO".into())
        );
        assert_eq!(ev("LENGTH(b)", row_abc()).unwrap(), Value::Int(5));
        assert_eq!(ev("ROUND(c)", row_abc()).unwrap(), Value::Float(3.0));
        assert_eq!(ev("COALESCE(NULL, 7)", row_abc()).unwrap(), Value::Int(7));
    }

    #[test]
    fn date_arithmetic() {
        use crate::value::Date;
        let s = Schema::new(vec![Column::new("d", DataType::Date)]);
        let row = vec![Value::Date(Date::from_ymd(1995, 12, 17).unwrap())];
        let e = parse_expression("d + 1").unwrap();
        let v = eval_expr(&e, &s, &row, &mut NoCtx).unwrap();
        assert_eq!(v, Value::Date(Date::from_ymd(1995, 12, 18).unwrap()));
        let e2 = parse_expression("d - d").unwrap();
        assert_eq!(eval_expr(&e2, &s, &row, &mut NoCtx).unwrap(), Value::Int(0));
    }

    #[test]
    fn aggregate_outside_group_errors() {
        assert!(matches!(
            ev("COUNT(*)", row_abc()),
            Err(Error::Aggregate { .. })
        ));
    }

    #[test]
    fn grouped_aggregates() {
        let s = schema();
        let r1 = vec![Value::Int(1), Value::Str("x".into()), Value::Float(1.0)];
        let r2 = vec![Value::Int(2), Value::Str("x".into()), Value::Float(2.0)];
        let r3 = vec![Value::Int(2), Value::Null, Value::Float(3.0)];
        let rows: Vec<&Row> = vec![&r1, &r2, &r3];
        let keys = vec![parse_expression("b").unwrap()];
        let kv = vec![Value::Str("x".into())];
        let check = |sql: &str, expect: Value| {
            let e = parse_expression(sql).unwrap();
            assert_eq!(
                eval_grouped(&e, &s, &rows, &keys, &kv, &mut NoCtx).unwrap(),
                expect,
                "{sql}"
            );
        };
        check("COUNT(*)", Value::Int(3));
        check("COUNT(b)", Value::Int(2)); // NULL not counted
        check("COUNT(DISTINCT a)", Value::Int(2));
        check("SUM(a)", Value::Int(5));
        check("AVG(c)", Value::Float(2.0));
        check("MIN(a)", Value::Int(1));
        check("MAX(c)", Value::Float(3.0));
        check("b", Value::Str("x".into())); // group key resolves
        check("COUNT(*) > 2", Value::Bool(true));
    }

    #[test]
    fn grouped_bare_column_errors() {
        let s = schema();
        let r1 = vec![Value::Int(1), Value::Str("x".into()), Value::Float(1.0)];
        let rows: Vec<&Row> = vec![&r1];
        let e = parse_expression("a").unwrap();
        assert!(eval_grouped(&e, &s, &rows, &[], &[], &mut NoCtx).is_err());
    }

    #[test]
    fn sum_empty_group_is_null_count_zero() {
        let s = schema();
        let rows: Vec<&Row> = vec![];
        let sum = parse_expression("SUM(a)").unwrap();
        let cnt = parse_expression("COUNT(a)").unwrap();
        assert_eq!(
            eval_grouped(&sum, &s, &rows, &[], &[], &mut NoCtx).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_grouped(&cnt, &s, &rows, &[], &[], &mut NoCtx).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn case_expression() {
        assert_eq!(
            ev("CASE WHEN a > 3 THEN 'big' ELSE 'small' END", row_abc()).unwrap(),
            Value::Str("big".into())
        );
    }
}
