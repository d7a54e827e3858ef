//! Scalar expression AST, shared by the SQL dialect and the MINE RULE
//! operator (whose grouping/cluster/mining conditions are SQL expressions).
//!
//! The AST can be rendered back to SQL text ([`Expr::to_sql`]); the mining
//! translator relies on this to splice user-written conditions into the
//! generated preprocessing queries of Appendix A.

pub mod compile;
pub mod eval;
pub mod vector;

use std::fmt;

/// Callback rewriting a (qualifier, name) column reference.
pub type QualifierMap<'a> = dyn FnMut(Option<&str>, &str) -> (Option<String>, String) + 'a;

use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl BinOp {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Concat => "||",
        }
    }

    /// Binding power for the pretty-printer (higher binds tighter).
    fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 4,
            BinOp::Add | BinOp::Sub | BinOp::Concat => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Parse an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A possibly-qualified column reference.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// A host variable reference (`:totg`), bound on the session.
    HostVar(String),
    /// Unary operator application.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        negated: bool,
        low: Box<Expr>,
        high: Box<Expr>,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        negated: bool,
        list: Vec<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] LIKE pattern` with `%` and `_` wildcards.
    Like {
        expr: Box<Expr>,
        negated: bool,
        pattern: Box<Expr>,
    },
    /// Scalar function call (ABS, UPPER, LOWER, LENGTH, ...).
    Func { name: String, args: Vec<Expr> },
    /// Aggregate call. `arg` is `None` for `COUNT(*)`.
    Aggregate {
        func: AggFunc,
        distinct: bool,
        arg: Option<Box<Expr>>,
    },
    /// Scalar subquery `(SELECT ...)` producing a single value.
    ScalarSubquery(Box<crate::sql::ast::SelectStmt>),
    /// `EXISTS (SELECT ...)`.
    Exists {
        negated: bool,
        query: Box<crate::sql::ast::SelectStmt>,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        expr: Box<Expr>,
        negated: bool,
        query: Box<crate::sql::ast::SelectStmt>,
    },
    /// `<sequence>.NEXTVAL` — draws the next identifier from a sequence.
    NextVal(String),
    /// `CAST(expr AS TYPE)`.
    Cast {
        expr: Box<Expr>,
        dtype: crate::types::DataType,
    },
    /// Searched CASE: `CASE WHEN c THEN v ... [ELSE e] END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Shorthand for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Shorthand for a qualified column reference.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Shorthand for a literal.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// Build `left op right`.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// AND-combine a list of predicates; `None` when the list is empty.
    pub fn conjoin(preds: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        preds
            .into_iter()
            .reduce(|a, b| Expr::binary(a, BinOp::And, b))
    }

    /// True when the expression contains an aggregate call at any depth
    /// (ignoring subqueries, whose aggregates belong to the inner query).
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Aggregate { .. }) {
                found = true;
            }
        });
        found
    }

    /// Collect every column reference at any depth (ignoring subqueries).
    pub fn column_refs(&self) -> Vec<(Option<&str>, &str)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                out.push((qualifier.as_deref(), name.as_str()));
            }
        });
        out
    }

    /// Pre-order traversal of the expression tree, not descending into
    /// subqueries.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::HostVar(_)
            | Expr::NextVal(_)
            | Expr::ScalarSubquery(_)
            | Expr::Exists { .. } => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.walk(f)
            }
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, v) in branches {
                    c.walk(f);
                    v.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
        }
    }

    /// Rewrite every column qualifier using `f` (old qualifier → new).
    /// Used by the mining translator to retarget `BODY.x` / `HEAD.x`
    /// references onto concrete table aliases.
    pub fn map_qualifiers(&self, f: &mut QualifierMap) -> Expr {
        fn rec(e: &Expr, f: &mut QualifierMap) -> Expr {
            e.map_qualifiers(f)
        }
        match self {
            Expr::Column { qualifier, name } => {
                let (q, n) = f(qualifier.as_deref(), name);
                Expr::Column {
                    qualifier: q,
                    name: n,
                }
            }
            Expr::Literal(_) | Expr::HostVar(_) | Expr::NextVal(_) => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(rec(expr, f)),
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(rec(left, f)),
                op: *op,
                right: Box::new(rec(right, f)),
            },
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => Expr::Between {
                expr: Box::new(rec(expr, f)),
                negated: *negated,
                low: Box::new(rec(low, f)),
                high: Box::new(rec(high, f)),
            },
            Expr::InList {
                expr,
                negated,
                list,
            } => Expr::InList {
                expr: Box::new(rec(expr, f)),
                negated: *negated,
                list: list.iter().map(|e| rec(e, f)).collect(),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(rec(expr, f)),
                negated: *negated,
            },
            Expr::Like {
                expr,
                negated,
                pattern,
            } => Expr::Like {
                expr: Box::new(rec(expr, f)),
                negated: *negated,
                pattern: Box::new(rec(pattern, f)),
            },
            Expr::Func { name, args } => Expr::Func {
                name: name.clone(),
                args: args.iter().map(|e| rec(e, f)).collect(),
            },
            Expr::Aggregate {
                func,
                distinct,
                arg,
            } => Expr::Aggregate {
                func: *func,
                distinct: *distinct,
                arg: arg.as_ref().map(|a| Box::new(rec(a, f))),
            },
            Expr::Cast { expr, dtype } => Expr::Cast {
                expr: Box::new(rec(expr, f)),
                dtype: *dtype,
            },
            Expr::ScalarSubquery(q) => Expr::ScalarSubquery(q.clone()),
            Expr::Exists { negated, query } => Expr::Exists {
                negated: *negated,
                query: query.clone(),
            },
            Expr::InSubquery {
                expr,
                negated,
                query,
            } => Expr::InSubquery {
                expr: Box::new(rec(expr, f)),
                negated: *negated,
                query: query.clone(),
            },
            Expr::Case {
                branches,
                else_expr,
            } => Expr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (rec(c, f), rec(v, f)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(rec(e, f))),
            },
        }
    }

    /// Render back to SQL text.
    pub fn to_sql(&self) -> String {
        self.to_string()
    }

    /// Whether the rendering starts with `-`: a negation, a negative
    /// literal, or a postfix form (printed bare) over one.
    fn leads_with_minus(&self) -> bool {
        match self {
            Expr::Unary {
                op: UnaryOp::Neg, ..
            } => true,
            Expr::Literal(Value::Int(i)) => *i < 0,
            Expr::Literal(Value::Float(x)) => x.is_sign_negative(),
            Expr::Between { expr, .. }
            | Expr::InList { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Like { expr, .. }
            | Expr::InSubquery { expr, .. } => expr.leads_with_minus(),
            _ => false,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
                Value::Date(d) => write!(f, "DATE '{d}'"),
                other => write!(f, "{other}"),
            },
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::HostVar(n) => write!(f, ":{n}"),
            Expr::Unary { op, expr } => match op {
                // `--` re-lexes as a comment: an operand that itself
                // renders with a leading minus goes in parentheses.
                UnaryOp::Neg if expr.leads_with_minus() => write!(f, "-({expr})"),
                UnaryOp::Neg => {
                    write!(f, "-")?;
                    expr.fmt_prec(f, 7)
                }
                UnaryOp::Not => {
                    write!(f, "NOT ")?;
                    expr.fmt_prec(f, 3)
                }
            },
            Expr::Binary { left, op, right } => {
                let p = op.precedence();
                let need_paren = p < parent_prec;
                if need_paren {
                    write!(f, "(")?;
                }
                left.fmt_prec(f, p)?;
                write!(f, " {} ", op.sql())?;
                right.fmt_prec(f, p + 1)?;
                if need_paren {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                expr.fmt_prec(f, 4)?;
                write!(f, " {}BETWEEN ", if *negated { "NOT " } else { "" })?;
                low.fmt_prec(f, 5)?;
                write!(f, " AND ")?;
                high.fmt_prec(f, 5)
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                expr.fmt_prec(f, 4)?;
                write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    e.fmt_prec(f, 0)?;
                }
                write!(f, ")")
            }
            Expr::IsNull { expr, negated } => {
                expr.fmt_prec(f, 4)?;
                write!(f, " IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Like {
                expr,
                negated,
                pattern,
            } => {
                expr.fmt_prec(f, 4)?;
                write!(f, " {}LIKE ", if *negated { "NOT " } else { "" })?;
                pattern.fmt_prec(f, 5)
            }
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                write!(f, ")")
            }
            Expr::Aggregate {
                func,
                distinct,
                arg,
            } => {
                write!(f, "{}(", func.sql())?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                match arg {
                    Some(a) => a.fmt_prec(f, 0)?,
                    None => write!(f, "*")?,
                }
                write!(f, ")")
            }
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
            Expr::Exists { negated, query } => {
                write!(f, "{}EXISTS ({query})", if *negated { "NOT " } else { "" })
            }
            Expr::InSubquery {
                expr,
                negated,
                query,
            } => {
                expr.fmt_prec(f, 4)?;
                write!(f, " {}IN ({query})", if *negated { "NOT " } else { "" })
            }
            Expr::NextVal(seq) => write!(f, "{seq}.NEXTVAL"),
            Expr::Cast { expr, dtype } => {
                write!(f, "CAST(")?;
                expr.fmt_prec(f, 0)?;
                write!(f, " AS {dtype})")
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, v) in branches {
                    write!(f, " WHEN ")?;
                    c.fmt_prec(f, 0)?;
                    write!(f, " THEN ")?;
                    v.fmt_prec(f, 0)?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE ")?;
                    e.fmt_prec(f, 0)?;
                }
                write!(f, " END")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_simple_comparison() {
        let e = Expr::binary(Expr::qcol("BODY", "price"), BinOp::GtEq, Expr::lit(100));
        assert_eq!(e.to_sql(), "BODY.price >= 100");
    }

    #[test]
    fn render_parenthesises_or_under_and() {
        let or = Expr::binary(Expr::col("a"), BinOp::Or, Expr::col("b"));
        let e = Expr::binary(or, BinOp::And, Expr::col("c"));
        assert_eq!(e.to_sql(), "(a OR b) AND c");
    }

    #[test]
    fn render_between_and_strings() {
        let e = Expr::Between {
            expr: Box::new(Expr::col("date")),
            negated: false,
            low: Box::new(Expr::lit("a'b")),
            high: Box::new(Expr::lit("z")),
        };
        assert_eq!(e.to_sql(), "date BETWEEN 'a''b' AND 'z'");
    }

    #[test]
    fn nested_negation_round_trips_and_never_prints_a_comment() {
        use crate::sql::parser::parse_expression;
        for sql in [
            "-(-x)",
            "-(-(-x))",
            "a - -(-b)",
            "-(-price) > 100 AND qty = 1",
            "-(-x IS NULL)",
        ] {
            let parsed = parse_expression(sql).unwrap();
            let printed = parsed.to_sql();
            assert!(!printed.contains("--"), "{sql} printed as {printed}");
            assert_eq!(parse_expression(&printed).unwrap(), parsed, "{sql}");
        }
        // Negative literals come from code, not the parser (which reads
        // `-5` as a negation): they must not print `--` either.
        for literal in [Expr::lit(-5), Expr::Literal(Value::Float(-0.5))] {
            let neg = Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(literal),
            };
            let printed = neg.to_sql();
            assert!(!printed.contains("--"), "{printed}");
            parse_expression(&printed).unwrap();
        }
        assert_eq!(parse_expression("-(-x)").unwrap().to_sql(), "-(-x)");
    }

    #[test]
    fn contains_aggregate_detects_nested() {
        let agg = Expr::Aggregate {
            func: AggFunc::Count,
            distinct: false,
            arg: None,
        };
        let e = Expr::binary(agg, BinOp::Gt, Expr::lit(2));
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn column_refs_collects_qualifiers() {
        let e = Expr::binary(
            Expr::qcol("BODY", "price"),
            BinOp::Lt,
            Expr::qcol("HEAD", "price"),
        );
        assert_eq!(
            e.column_refs(),
            vec![(Some("BODY"), "price"), (Some("HEAD"), "price")]
        );
    }

    #[test]
    fn map_qualifiers_rewrites() {
        let e = Expr::binary(Expr::qcol("BODY", "price"), BinOp::Lt, Expr::lit(100));
        let out = e.map_qualifiers(&mut |q, n| {
            if q == Some("BODY") {
                (Some("B1".to_string()), n.to_string())
            } else {
                (q.map(str::to_string), n.to_string())
            }
        });
        assert_eq!(out.to_sql(), "B1.price < 100");
    }

    #[test]
    fn conjoin_combines_with_and() {
        let e = Expr::conjoin(vec![Expr::col("a"), Expr::col("b"), Expr::col("c")]).unwrap();
        assert_eq!(e.to_sql(), "a AND b AND c");
        assert!(Expr::conjoin(std::iter::empty()).is_none());
    }

    #[test]
    fn nextval_renders_oracle_style() {
        assert_eq!(
            Expr::NextVal("Gidsequence".into()).to_sql(),
            "Gidsequence.NEXTVAL"
        );
    }
}
