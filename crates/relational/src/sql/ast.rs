//! SQL statement AST.

use std::fmt;

use crate::expr::Expr;
use crate::types::DataType;

/// A projection item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table factor in the FROM list, with any explicit joins chained to it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub source: TableSource,
    pub alias: Option<String>,
    /// Explicit `JOIN ... ON ...` chain attached to this factor.
    pub joins: Vec<Join>,
}

impl TableRef {
    /// A plain named factor without joins.
    pub fn named(name: impl Into<String>, alias: Option<String>) -> TableRef {
        TableRef {
            source: TableSource::Named(name.into()),
            alias,
            joins: Vec::new(),
        }
    }
}

/// One explicit join step.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub source: TableSource,
    pub alias: Option<String>,
    /// The ON condition; `None` means CROSS JOIN.
    pub on: Option<Expr>,
}

/// Supported join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

/// Where a table factor's rows come from.
#[derive(Debug, Clone, PartialEq)]
pub enum TableSource {
    /// A base table or view name.
    Named(String),
    /// A parenthesised derived table.
    Subquery(Box<SelectStmt>),
}

/// A set operation combining two SELECTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    Union,
    UnionAll,
    Intersect,
    Except,
}

impl SetOpKind {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            SetOpKind::Union => "UNION",
            SetOpKind::UnionAll => "UNION ALL",
            SetOpKind::Intersect => "INTERSECT",
            SetOpKind::Except => "EXCEPT",
        }
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub asc: bool,
}

/// A SELECT statement (SQL92 subset: comma joins with WHERE predicates,
/// grouping, HAVING, DISTINCT, ORDER BY, LIMIT, derived tables, scalar and
/// IN subqueries, host variables, `INTO :var`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    /// `SELECT expr INTO :var` — stores a scalar into a host variable.
    pub into_var: Option<String>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    /// Set operation chained to this SELECT (ORDER BY/LIMIT below apply
    /// to the combined result).
    pub set_op: Option<(SetOpKind, Box<SelectStmt>)>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// The expressions of this SELECT's own clauses: items, ON, WHERE,
    /// GROUP BY, HAVING and ORDER BY.
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let items = self.items.iter().filter_map(|i| match i {
            SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        });
        let joins = self.from.iter().flat_map(|t| &t.joins);
        let exprs = items
            .chain(joins.flat_map(|j| &j.on))
            .chain(&self.where_clause);
        let exprs = exprs.chain(&self.group_by).chain(&self.having);
        exprs.chain(self.order_by.iter().map(|o| &o.expr))
    }
}

/// Source of rows for INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (..), (..)`
    Values(ValuesRows),
    /// `INSERT INTO t (SELECT ...)` (boxed: SelectStmt is large).
    Query(Box<SelectStmt>),
}

/// The rows of a `VALUES` list: every row's expressions in one vector,
/// row after row, so a bulk list costs no block per row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValuesRows {
    pub exprs: Vec<Expr>,
    /// Each row's number of expressions, in order.
    pub widths: Vec<usize>,
}

impl ValuesRows {
    /// The rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[Expr]> {
        let mut rest = self.exprs.as_slice();
        self.widths.iter().map(move |&w| {
            let (row, tail) = rest.split_at(w);
            rest = tail;
            row
        })
    }
}

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    /// `EXPLAIN <statement>` — describe the plan instead of executing.
    Explain(Box<Statement>),
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
        if_not_exists: bool,
    },
    /// `CREATE TABLE name AS (SELECT ...)` — materialises the result.
    CreateTableAs {
        name: String,
        query: SelectStmt,
    },
    CreateView {
        name: String,
        query: SelectStmt,
    },
    CreateSequence {
        name: String,
        start: i64,
        increment: i64,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    DropView {
        name: String,
        if_exists: bool,
    },
    DropSequence {
        name: String,
        if_exists: bool,
    },
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        source: InsertSource,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Wildcard => write!(f, "*")?,
                SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*")?,
                SelectItem::Expr { expr, alias } => {
                    write!(f, "{expr}")?;
                    if let Some(a) = alias {
                        write!(f, " AS {a}")?;
                    }
                }
            }
        }
        if let Some(v) = &self.into_var {
            write!(f, " INTO :{v}")?;
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match &t.source {
                    TableSource::Named(n) => write!(f, "{n}")?,
                    TableSource::Subquery(q) => write!(f, "({q})")?,
                }
                if let Some(a) = &t.alias {
                    write!(f, " AS {a}")?;
                }
                for j in &t.joins {
                    let kw = match j.kind {
                        JoinKind::Inner => "JOIN",
                        JoinKind::LeftOuter => "LEFT JOIN",
                    };
                    write!(f, " {kw} ")?;
                    match &j.source {
                        TableSource::Named(n) => write!(f, "{n}")?,
                        TableSource::Subquery(q) => write!(f, "({q})")?,
                    }
                    if let Some(a) = &j.alias {
                        write!(f, " AS {a}")?;
                    }
                    if let Some(on) = &j.on {
                        write!(f, " ON {on}")?;
                    }
                }
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if let Some((kind, rhs)) = &self.set_op {
            write!(f, " {} {rhs}", kind.sql())?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", o.expr, if o.asc { "" } else { " DESC" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Explain(inner) => write!(f, "EXPLAIN {inner}"),
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                write!(
                    f,
                    "CREATE TABLE {}{name} (",
                    if *if_not_exists { "IF NOT EXISTS " } else { "" }
                )?;
                for (i, (c, t)) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} {t}")?;
                }
                write!(f, ")")
            }
            Statement::CreateTableAs { name, query } => {
                write!(f, "CREATE TABLE {name} AS ({query})")
            }
            Statement::CreateView { name, query } => {
                write!(f, "CREATE VIEW {name} AS ({query})")
            }
            Statement::CreateSequence {
                name,
                start,
                increment,
            } => write!(
                f,
                "CREATE SEQUENCE {name} START WITH {start} INCREMENT BY {increment}"
            ),
            Statement::DropTable { name, if_exists } => write!(
                f,
                "DROP TABLE {}{name}",
                if *if_exists { "IF EXISTS " } else { "" }
            ),
            Statement::DropView { name, if_exists } => write!(
                f,
                "DROP VIEW {}{name}",
                if *if_exists { "IF EXISTS " } else { "" }
            ),
            Statement::DropSequence { name, if_exists } => write!(
                f,
                "DROP SEQUENCE {}{name}",
                if *if_exists { "IF EXISTS " } else { "" }
            ),
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                match source {
                    InsertSource::Values(rows) => {
                        write!(f, " VALUES ")?;
                        for (i, row) in rows.rows().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "(")?;
                            for (j, e) in row.iter().enumerate() {
                                if j > 0 {
                                    write!(f, ", ")?;
                                }
                                write!(f, "{e}")?;
                            }
                            write!(f, ")")?;
                        }
                        Ok(())
                    }
                    InsertSource::Query(q) => write!(f, " ({q})"),
                }
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};

    #[test]
    fn display_select_roundtrips_shape() {
        let s = SelectStmt {
            distinct: true,
            items: vec![
                SelectItem::Expr {
                    expr: Expr::col("a"),
                    alias: Some("x".into()),
                },
                SelectItem::Wildcard,
            ],
            from: vec![TableRef::named("t", Some("s".into()))],
            where_clause: Some(Expr::binary(Expr::col("a"), BinOp::Gt, Expr::lit(1))),
            group_by: vec![Expr::col("a")],
            ..Default::default()
        };
        assert_eq!(
            s.to_string(),
            "SELECT DISTINCT a AS x, * FROM t AS s WHERE a > 1 GROUP BY a"
        );
    }

    #[test]
    fn display_insert_from_query() {
        let stmt = Statement::Insert {
            table: "Bset".into(),
            columns: None,
            source: InsertSource::Query(Box::new(SelectStmt {
                items: vec![SelectItem::Wildcard],
                from: vec![TableRef::named("x", None)],
                ..Default::default()
            })),
        };
        assert_eq!(stmt.to_string(), "INSERT INTO Bset (SELECT * FROM x)");
    }

    #[test]
    fn display_create_sequence() {
        let stmt = Statement::CreateSequence {
            name: "Gidsequence".into(),
            start: 1,
            increment: 1,
        };
        assert_eq!(
            stmt.to_string(),
            "CREATE SEQUENCE Gidsequence START WITH 1 INCREMENT BY 1"
        );
    }
}
