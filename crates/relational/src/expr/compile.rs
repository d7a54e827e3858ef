//! Expression compilation: lowering [`Expr`] trees into flat postfix
//! programs evaluated on a value stack.
//!
//! The interpreter in [`eval`](super::eval) re-resolves every column
//! reference by qualifier/name string lookup and re-walks the tree for
//! every row. A [`CompiledExpr`] does that work once per statement:
//! column references become row offsets, constant subtrees fold to a
//! single push, and `AND`/`OR`/`IN`/`CASE` lower to short-circuit jumps.
//! A subquery node becomes one op naming the statement's planned
//! subquery ([`QueryCtx::subquery_slot`]): it runs on its first use and
//! every later evaluation reads what it kept
//! ([`Kept`](crate::expr::eval::Kept)).
//!
//! Compilation is *total*: it never fails. Anything that cannot be
//! pre-resolved (an unknown column, an aggregate outside grouping)
//! becomes a runtime fail op, so errors surface per evaluated row —
//! exactly like the interpreter, where an empty input never errors.

use std::cmp::Ordering;

use crate::error::{Error, Result};
use crate::expr::eval::{
    cast_value, comparison_holds, eval_binary, eval_expr, eval_scalar_func, eval_unary, like_match,
    logical_and, logical_or, maybe_negate, NoCtx, QueryCtx, SubqueryKind,
};
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::row::Row;
use crate::types::{DataType, Schema};
use crate::value::Value;

/// Work the executor reports through [`QueryCtx::bump`]. A plain no-op
/// outside a `Database`, so unit tests with `NoCtx` cost nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecCounter {
    /// Expression programs compiled.
    ProgramsCompiled,
    /// Constant subtrees folded at compile time.
    ConstFolded,
    /// Base-table rows fed into SELECT evaluation.
    RowsScanned,
    /// Rows removed by WHERE / join-residual filters.
    RowsFiltered,
    /// Rows produced by join operators.
    RowsJoined,
    /// FROM lists planned by [`crate::exec::join::plan_joins`] and run
    /// in its step order.
    PlannerPlans,
    /// Factors the plan joins at another position than the written one.
    PlannerReorderedJoins,
    /// WHERE conjuncts the plan pushed beneath joins.
    PlannerPushedFilters,
}

/// One instruction of a compiled expression program. Operand order on
/// the stack is source order: `a op b` pushes `a` then `b`.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Push a constant.
    Const(Value),
    /// Push `row[idx]` — the column reference resolved at compile time.
    Col(usize),
    /// Fail with this error at evaluation time (unresolvable column,
    /// aggregate outside grouping).
    Fail(Box<Error>),
    /// Push a host variable's current value.
    HostVar(String),
    /// Draw the next sequence value — one draw per evaluation, like the
    /// interpreter.
    NextVal(String),
    /// Pop one, apply a unary operator.
    Unary(UnaryOp),
    /// Pop two, apply a non-logical binary operator.
    Binary(BinOp),
    /// Push `row[idx] <op> value` — or `value <op> row[idx]` when
    /// `const_left` — for a comparison operator: one op for the most
    /// common predicate shape, comparing in place through the same
    /// [`Value::sql_cmp`] as [`Op::Binary`], operands in source order.
    CmpColConst {
        op: BinOp,
        idx: usize,
        value: Value,
        const_left: bool,
    },
    /// Pop two, combine with three-valued AND / OR (the join point after
    /// a short-circuit jump was not taken).
    And,
    Or,
    /// Jump when the top of stack is exactly FALSE / TRUE (peek, keep).
    JumpIfFalse(usize),
    JumpIfTrue(usize),
    /// Unconditional jump.
    Jump(usize),
    /// Pop the top; jump unless it is exactly TRUE (CASE WHEN arms — a
    /// non-boolean condition skips the branch without erroring, like the
    /// interpreter's `is_true`).
    PopJumpUnlessTrue(usize),
    /// Pop high, low, value; push the `[NOT] BETWEEN` verdict.
    Between {
        negated: bool,
    },
    /// Pop one; push the `IS [NOT] NULL` verdict.
    IsNull {
        negated: bool,
    },
    /// Pop pattern, value; push the `[NOT] LIKE` verdict.
    Like {
        negated: bool,
    },
    /// `IN (list)` prologue: the test value is on top. NULL test values
    /// decide the whole predicate (NULL, un-negated), so jump straight
    /// past `end`; otherwise push the FALSE match accumulator.
    InStart {
        end: usize,
    },
    /// Pop item, pop accumulator; fold `acc OR (value = item)` with the
    /// test value still below on the stack; push the new accumulator.
    InFold,
    /// Pop accumulator and test value; push the final `[NOT] IN` verdict.
    InFinish {
        negated: bool,
    },
    /// Pop `argc` arguments, call a scalar function.
    Call {
        name: String,
        argc: usize,
    },
    /// Pop one, CAST to the type.
    Cast(DataType),
    /// Push the kept value of the statement's scalar or EXISTS subquery
    /// `k`, running it on first use.
    Subquery(usize),
    /// Pop the test value; push NULL when it is NULL (the subquery does
    /// not run), else probe the kept column of the statement's IN
    /// subquery `k`, running it on first use.
    InSubquery(usize),
}

/// A compiled expression: a flat program over a value stack.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    pub(crate) ops: Vec<Op>,
}

impl CompiledExpr {
    /// Lower `expr` for rows of `schema`. Never fails — see the module
    /// docs for how unresolvable nodes are represented. Compile-time
    /// work is reported through `ctx` ([`ExecCounter::ProgramsCompiled`]
    /// and friends).
    pub fn compile(expr: &Expr, schema: &Schema, ctx: &mut dyn QueryCtx) -> CompiledExpr {
        let mut c = Compiler {
            ops: Vec::new(),
            schema,
            ctx: &*ctx,
            folded: 0,
        };
        c.emit(expr);
        let (ops, folded) = (c.ops, c.folded);
        ctx.bump(ExecCounter::ProgramsCompiled, 1);
        if folded > 0 {
            ctx.bump(ExecCounter::ConstFolded, folded);
        }
        CompiledExpr { ops }
    }

    /// Evaluate against one row, reusing `stack` as scratch so hot loops
    /// allocate nothing per row.
    pub fn eval_with(
        &self,
        row: &Row,
        ctx: &mut dyn QueryCtx,
        stack: &mut Vec<Value>,
    ) -> Result<Value> {
        stack.clear();
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                Op::Const(v) => stack.push(v.clone()),
                Op::Col(idx) => stack.push(row[*idx].clone()),
                Op::Fail(e) => return Err((**e).clone()),
                Op::HostVar(name) => stack.push(ctx.host_var(name)?),
                Op::NextVal(seq) => stack.push(Value::Int(ctx.nextval(seq)?)),
                Op::Unary(op) => {
                    let v = stack.pop().expect("unary operand");
                    stack.push(eval_unary(*op, v)?);
                }
                Op::Binary(op) => {
                    let r = stack.pop().expect("binary rhs");
                    let l = stack.pop().expect("binary lhs");
                    stack.push(eval_binary(*op, l, r)?);
                }
                Op::CmpColConst {
                    op,
                    idx,
                    value,
                    const_left,
                } => {
                    let ord = if *const_left {
                        value.sql_cmp(&row[*idx])?
                    } else {
                        row[*idx].sql_cmp(value)?
                    };
                    stack.push(
                        ord.map_or(Value::Null, |ord| Value::Bool(comparison_holds(*op, ord))),
                    );
                }
                Op::And => {
                    let r = stack.pop().expect("and rhs");
                    let l = stack.pop().expect("and lhs");
                    stack.push(logical_and(l, r));
                }
                Op::Or => {
                    let r = stack.pop().expect("or rhs");
                    let l = stack.pop().expect("or lhs");
                    stack.push(logical_or(l, r));
                }
                Op::JumpIfFalse(target) => {
                    if matches!(stack.last(), Some(Value::Bool(false))) {
                        pc = *target;
                        continue;
                    }
                }
                Op::JumpIfTrue(target) => {
                    if matches!(stack.last(), Some(Value::Bool(true))) {
                        pc = *target;
                        continue;
                    }
                }
                Op::Jump(target) => {
                    pc = *target;
                    continue;
                }
                Op::PopJumpUnlessTrue(target) => {
                    let v = stack.pop().expect("case condition");
                    if !v.is_true() {
                        pc = *target;
                        continue;
                    }
                }
                Op::Between { negated } => {
                    let high = stack.pop().expect("between high");
                    let low = stack.pop().expect("between low");
                    let v = stack.pop().expect("between value");
                    let ge = eval_binary(BinOp::GtEq, v.clone(), low)?;
                    let le = eval_binary(BinOp::LtEq, v, high)?;
                    stack.push(maybe_negate(logical_and(ge, le), *negated));
                }
                Op::IsNull { negated } => {
                    let v = stack.pop().expect("is-null operand");
                    stack.push(Value::Bool(v.is_null() != *negated));
                }
                Op::Like { negated } => {
                    let pattern = stack.pop().expect("like pattern");
                    let v = stack.pop().expect("like value");
                    if v.is_null() || pattern.is_null() {
                        stack.push(Value::Null);
                    } else {
                        let hit = like_match(v.as_str()?, pattern.as_str()?);
                        stack.push(maybe_negate(Value::Bool(hit), *negated));
                    }
                }
                Op::InStart { end } => {
                    if stack.last().is_some_and(Value::is_null) {
                        // The NULL test value already *is* the result.
                        pc = *end;
                        continue;
                    }
                    stack.push(Value::Bool(false));
                }
                Op::InFold => {
                    let item = stack.pop().expect("in item");
                    let acc = stack.pop().expect("in accumulator");
                    let v = stack.last().expect("in test value");
                    let hit = if item.is_null() {
                        Value::Null
                    } else if v.sql_cmp(&item)? == Some(Ordering::Equal) {
                        Value::Bool(true)
                    } else {
                        Value::Bool(false)
                    };
                    stack.push(logical_or(acc, hit));
                }
                Op::InFinish { negated } => {
                    let acc = stack.pop().expect("in accumulator");
                    let _v = stack.pop().expect("in test value");
                    stack.push(match acc {
                        Value::Bool(true) => maybe_negate(Value::Bool(true), *negated),
                        Value::Null => Value::Null,
                        _ => maybe_negate(Value::Bool(false), *negated),
                    });
                }
                Op::Call { name, argc } => {
                    let args = stack.split_off(stack.len() - argc);
                    stack.push(eval_scalar_func(name, args)?);
                }
                Op::Cast(dtype) => {
                    let v = stack.pop().expect("cast operand");
                    stack.push(cast_value(v, *dtype)?);
                }
                Op::Subquery(k) => stack.push(ctx.subquery(*k)?.value()),
                Op::InSubquery(k) => {
                    let v = stack.pop().expect("in test value");
                    stack.push(match v.is_null() {
                        true => Value::Null,
                        false => ctx.subquery(*k)?.probe(&v)?,
                    });
                }
            }
            pc += 1;
        }
        Ok(stack.pop().expect("program result"))
    }

    /// Evaluate with a fresh stack (tests and one-off sites).
    pub fn eval(&self, row: &Row, ctx: &mut dyn QueryCtx) -> Result<Value> {
        let mut stack = Vec::new();
        self.eval_with(row, ctx, &mut stack)
    }
}

/// A per-site evaluator: a compiled program, or — when the context asks
/// for the reference paths ([`QueryCtx::reference_paths`]) — the
/// interpreter. Chosen once at plan time; hot loops hold one of these
/// per expression and stay agnostic.
pub enum SiteEval<'e> {
    /// Runs the flat program.
    Compiled(CompiledExpr),
    /// Walks the tree per row.
    Interpreted(&'e Expr),
}

impl<'e> SiteEval<'e> {
    /// Plan `expr` for rows of `schema`.
    pub fn plan(expr: &'e Expr, schema: &Schema, ctx: &mut dyn QueryCtx) -> SiteEval<'e> {
        if ctx.reference_paths() {
            SiteEval::Interpreted(expr)
        } else {
            SiteEval::Compiled(CompiledExpr::compile(expr, schema, ctx))
        }
    }

    /// Evaluate against one row. `schema` and `stack` must be the schema
    /// the evaluator was planned for and a reusable scratch stack.
    pub fn eval(
        &self,
        schema: &Schema,
        row: &Row,
        ctx: &mut dyn QueryCtx,
        stack: &mut Vec<Value>,
    ) -> Result<Value> {
        match self {
            SiteEval::Compiled(program) => program.eval_with(row, ctx, stack),
            SiteEval::Interpreted(expr) => eval_expr(expr, schema, row, ctx),
        }
    }
}

/// True when the subtree's value cannot depend on the row or the engine
/// context: no columns, host variables, sequence draws, aggregates or
/// subqueries anywhere below.
fn is_const(expr: &Expr) -> bool {
    let mut constant = true;
    expr.walk(&mut |e| match e {
        Expr::Column { .. }
        | Expr::HostVar(_)
        | Expr::NextVal(_)
        | Expr::Aggregate { .. }
        | Expr::ScalarSubquery(_)
        | Expr::Exists { .. }
        | Expr::InSubquery { .. } => constant = false,
        _ => {}
    });
    constant
}

struct Compiler<'a> {
    ops: Vec<Op>,
    schema: &'a Schema,
    ctx: &'a dyn QueryCtx,
    folded: u64,
}

impl Compiler<'_> {
    fn emit(&mut self, expr: &Expr) {
        // Fold the largest constant subtrees to a single push. A fold
        // that *errors* (e.g. `1/0`) instead emits the structural ops,
        // so the error stays a per-row runtime error like the
        // interpreter's; inner constant children still fold on the way.
        if is_const(expr) {
            if let Expr::Literal(v) = expr {
                self.ops.push(Op::Const(v.clone()));
                return;
            }
            let empty: Row = Vec::new();
            if let Ok(v) = eval_expr(expr, &Schema::default(), &empty, &mut NoCtx) {
                self.folded += 1;
                self.ops.push(Op::Const(v));
                return;
            }
        }
        match expr {
            Expr::Literal(v) => self.ops.push(Op::Const(v.clone())),
            Expr::Column { qualifier, name } => {
                match self.schema.resolve(qualifier.as_deref(), name) {
                    Ok(idx) => self.ops.push(Op::Col(idx)),
                    Err(e) => self.ops.push(Op::Fail(Box::new(e))),
                }
            }
            Expr::HostVar(name) => self.ops.push(Op::HostVar(name.clone())),
            Expr::NextVal(seq) => self.ops.push(Op::NextVal(seq.clone())),
            Expr::Unary { op, expr } => {
                self.emit(expr);
                self.ops.push(Op::Unary(*op));
            }
            Expr::Binary { left, op, right } => match op {
                // `a AND b` / `a OR b`: evaluate the left side, skip the
                // right entirely when it already decides the result —
                // the interpreter's exact short-circuit rule.
                BinOp::And => {
                    self.emit(left);
                    let jump = self.reserve();
                    self.emit(right);
                    self.ops.push(Op::And);
                    let end = self.ops.len();
                    self.ops[jump] = Op::JumpIfFalse(end);
                }
                BinOp::Or => {
                    self.emit(left);
                    let jump = self.reserve();
                    self.emit(right);
                    self.ops.push(Op::Or);
                    let end = self.ops.len();
                    self.ops[jump] = Op::JumpIfTrue(end);
                }
                _ => {
                    let start = self.ops.len();
                    self.emit(left);
                    let split = self.ops.len();
                    self.emit(right);
                    if !self.compare_in_place(*op, start, split) {
                        self.ops.push(Op::Binary(*op));
                    }
                }
            },
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                self.emit(expr);
                self.emit(low);
                self.emit(high);
                self.ops.push(Op::Between { negated: *negated });
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => self.emit_in_list(expr, *negated, list),
            Expr::IsNull { expr, negated } => {
                self.emit(expr);
                self.ops.push(Op::IsNull { negated: *negated });
            }
            Expr::Like {
                expr,
                negated,
                pattern,
            } => {
                self.emit(expr);
                self.emit(pattern);
                self.ops.push(Op::Like { negated: *negated });
            }
            Expr::Func { name, args } => {
                for a in args {
                    self.emit(a);
                }
                self.ops.push(Op::Call {
                    name: name.clone(),
                    argc: args.len(),
                });
            }
            Expr::Aggregate { .. } => {
                // Aggregates never reach row-at-a-time evaluation in a
                // valid plan; mirror the interpreter's per-row error.
                self.ops.push(Op::Fail(Box::new(Error::Aggregate {
                    message: "aggregate used outside GROUP BY context".to_string(),
                })));
            }
            Expr::ScalarSubquery(_) | Expr::Exists { .. } | Expr::InSubquery { .. } => {
                self.emit_subquery(expr)
            }
            Expr::Cast { expr, dtype } => {
                self.emit(expr);
                self.ops.push(Op::Cast(*dtype));
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                let mut end_jumps = Vec::with_capacity(branches.len());
                for (cond, val) in branches {
                    self.emit(cond);
                    let next = self.reserve();
                    self.emit(val);
                    end_jumps.push(self.reserve());
                    let after = self.ops.len();
                    self.ops[next] = Op::PopJumpUnlessTrue(after);
                }
                match else_expr {
                    Some(e) => self.emit(e),
                    None => self.ops.push(Op::Const(Value::Null)),
                }
                let end = self.ops.len();
                for j in end_jumps {
                    self.ops[j] = Op::Jump(end);
                }
            }
        }
    }

    /// Lower a subquery node to the op naming its slot — after the test
    /// value, for `IN` — then a NOT when negated (the verdict is BOOLEAN or
    /// NULL, which NOT maps as the interpreter's negation does). A
    /// subquery the statement did not plan fails as it would outside an
    /// engine.
    fn emit_subquery(&mut self, node: &Expr) {
        let (kind, query) = SubqueryKind::of(node).expect("a subquery node");
        let negated = match node {
            Expr::InSubquery { expr, negated, .. } => {
                self.emit(expr);
                *negated
            }
            Expr::Exists { negated, .. } => *negated,
            _ => false,
        };
        self.ops.push(match self.ctx.subquery_slot(kind, query) {
            Some(k) if kind == SubqueryKind::In => Op::InSubquery(k),
            Some(k) => Op::Subquery(k),
            None => Op::Fail(Box::new(Error::unsupported(
                "subquery outside engine context",
            ))),
        });
        if negated {
            self.ops.push(Op::Unary(UnaryOp::Not));
        }
    }

    /// Lower `v [NOT] IN (items…)` with the interpreter's exact
    /// laziness: a matching item ends the scan (later items are never
    /// evaluated, so their errors never fire), a NULL item poisons the
    /// accumulator to NULL unless a later item matches, and a NULL test
    /// value yields NULL without looking at any item.
    fn emit_in_list(&mut self, expr: &Expr, negated: bool, list: &[Expr]) {
        self.emit(expr);
        let start = self.reserve();
        let mut exits = Vec::new();
        for (i, item) in list.iter().enumerate() {
            self.emit(item);
            self.ops.push(Op::InFold);
            if i + 1 < list.len() {
                exits.push(self.reserve());
            }
        }
        let finish = self.ops.len();
        self.ops.push(Op::InFinish { negated });
        let end = self.ops.len();
        self.ops[start] = Op::InStart { end };
        for j in exits {
            self.ops[j] = Op::JumpIfTrue(finish);
        }
    }

    /// Fuse `column <cmp> constant` (either order) into one
    /// [`Op::CmpColConst`] when the two operands just emitted at
    /// `start..split` and `split..` are one column push and one constant
    /// push. Returns whether it did.
    fn compare_in_place(&mut self, op: BinOp, start: usize, split: usize) -> bool {
        use BinOp::*;
        if !matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq)
            || split != start + 1
            || self.ops.len() != split + 1
        {
            return false;
        }
        let (idx, value, const_left) = match (&self.ops[start], &self.ops[split]) {
            (Op::Col(idx), Op::Const(value)) => (*idx, value.clone(), false),
            (Op::Const(value), Op::Col(idx)) => (*idx, value.clone(), true),
            _ => return false,
        };
        self.ops.truncate(start);
        self.ops.push(Op::CmpColConst {
            op,
            idx,
            value,
            const_left,
        });
        true
    }

    /// Emit a placeholder op whose jump target is patched later.
    fn reserve(&mut self) -> usize {
        let at = self.ops.len();
        self.ops.push(Op::Jump(usize::MAX));
        at
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

    fn row_abc() -> Row {
        vec![Value::Int(5), Value::Str("hello".into()), Value::Float(2.5)]
    }

    /// Compile and interpret must agree — on the value or on the error.
    fn agree(sql: &str, row: &Row) {
        let expr = parse_expression(sql).unwrap();
        let s = schema();
        let interpreted = eval_expr(&expr, &s, row, &mut NoCtx);
        let program = CompiledExpr::compile(&expr, &s, &mut NoCtx);
        let compiled = program.eval(row, &mut NoCtx);
        assert_eq!(compiled, interpreted, "{sql}");
    }

    #[test]
    fn columns_resolve_to_offsets() {
        let expr = parse_expression("a + 1").unwrap();
        let program = CompiledExpr::compile(&expr, &schema(), &mut NoCtx);
        assert_eq!(program.eval(&row_abc(), &mut NoCtx), Ok(Value::Int(6)));
    }

    #[test]
    fn arithmetic_comparisons_and_functions_agree() {
        let row = row_abc();
        for sql in [
            "a + 2 * 3",
            "a / 2",
            "-a + 10",
            "a >= 5 AND c < 3.0",
            "a > 100 OR b = 'hello'",
            "NOT (a = 5)",
            "a BETWEEN 1 AND 9",
            "a NOT BETWEEN 6 AND 9",
            "b LIKE 'he%'",
            "b NOT LIKE '_x%'",
            "b IS NOT NULL",
            "a IN (1, 3, 5)",
            "a NOT IN (1, 3)",
            "UPPER(b)",
            "LENGTH(b) + a",
            "SUBSTR(b, 2, 3)",
            "CAST(a AS FLOAT) + c",
            "CASE WHEN a > 3 THEN 'big' ELSE 'small' END",
            "CASE WHEN a > 9 THEN 'big' END",
            "COALESCE(NULL, b)",
            "a || b",
        ] {
            agree(sql, &row);
        }
    }

    #[test]
    fn null_semantics_agree() {
        let row = vec![Value::Null, Value::Null, Value::Float(2.5)];
        for sql in [
            "a = 1",
            "a + 1",
            "a AND b",
            "a OR c > 1.0",
            "a IS NULL",
            "a BETWEEN 1 AND 2",
            "a IN (1, 2)",
            "a NOT IN (1, 2)",
            "1 IN (2, a)",
            "1 NOT IN (2, a)",
            "b LIKE 'x%'",
            "NOT a",
        ] {
            agree(sql, &row);
        }
    }

    /// `column <cmp> constant` in either order runs as one fused op, and
    /// agrees with the interpreter on every verdict, NULL and error:
    /// NULL on either side, INT against FLOAT, mismatched types.
    #[test]
    fn column_constant_comparisons_fuse_and_agree() {
        let rows = [
            row_abc(),
            vec![Value::Null, Value::Null, Value::Null],
            vec![Value::Int(2), Value::Str("a".into()), Value::Float(-0.0)],
        ];
        for op in ["=", "<>", "<", "<=", ">", ">="] {
            for (col, constant) in [
                ("a", "5"),
                ("a", "2.0"),
                ("a", "4.5"),
                ("c", "2"),
                ("c", "0.0"),
                ("b", "'hello'"),
                ("b", "1"),
                ("a", "'5'"),
                ("a", "NULL"),
                ("c", "1 + 1"),
            ] {
                for sql in [
                    format!("{col} {op} {constant}"),
                    format!("{constant} {op} {col}"),
                ] {
                    let expr = parse_expression(&sql).unwrap();
                    let program = CompiledExpr::compile(&expr, &schema(), &mut NoCtx);
                    assert!(
                        matches!(program.ops.as_slice(), [Op::CmpColConst { .. }]),
                        "{sql}: {:?}",
                        program.ops
                    );
                    for row in &rows {
                        agree(&sql, row);
                    }
                }
            }
        }
        // Anything else keeps the general ops.
        let expr = parse_expression("a + 1 = 6").unwrap();
        let program = CompiledExpr::compile(&expr, &schema(), &mut NoCtx);
        assert!(matches!(program.ops.last(), Some(Op::Binary(BinOp::Eq))));
        agree("a > 1 AND c < 3 OR b = 'x'", &row_abc());
    }

    #[test]
    fn short_circuit_skips_the_right_side() {
        // The right side would error (type mismatch on AND of an INT);
        // a FALSE left side must skip it, exactly like the interpreter.
        let row = row_abc();
        agree("a > 100 AND (a AND 1)", &row);
        agree("a = 5 OR (a AND 1)", &row);
    }

    #[test]
    fn in_list_is_lazy_like_the_interpreter() {
        // 5 matches the first item: the 1/0 item must never evaluate.
        let row = row_abc();
        let expr = parse_expression("a IN (5, 1/0)").unwrap();
        let program = CompiledExpr::compile(&expr, &schema(), &mut NoCtx);
        assert_eq!(program.eval(&row, &mut NoCtx), Ok(Value::Bool(true)));
        // No match before the division: the error fires, as interpreted.
        agree("a IN (4, 1/0)", &row);
    }

    #[test]
    fn constants_fold_but_constant_errors_stay_per_row() {
        let expr = parse_expression("1 + 2 * 3").unwrap();
        let program = CompiledExpr::compile(&expr, &schema(), &mut NoCtx);
        assert!(
            matches!(program.ops.as_slice(), [Op::Const(Value::Int(7))]),
            "{:?}",
            program.ops
        );
        // A constant expression that errors still evaluates per row.
        agree("1 / 0", &row_abc());
        agree("a + 1 / 0", &row_abc());
    }

    #[test]
    fn unknown_columns_error_at_evaluation_not_compile() {
        let expr = parse_expression("missing + 1").unwrap();
        let program = CompiledExpr::compile(&expr, &schema(), &mut NoCtx);
        let err = program.eval(&row_abc(), &mut NoCtx).unwrap_err();
        assert!(matches!(err, Error::UnknownColumn { .. }), "{err:?}");
    }

    #[test]
    fn case_without_match_and_nested_case_agree() {
        let row = row_abc();
        agree(
            "CASE WHEN a = 1 THEN 'one' WHEN a = 5 THEN 'five' ELSE 'other' END",
            &row,
        );
        agree(
            "CASE WHEN a > 10 THEN CASE WHEN c > 1.0 THEN 1 ELSE 2 END ELSE 3 END",
            &row,
        );
    }
}
