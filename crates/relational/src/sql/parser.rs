//! Recursive-descent SQL parser.
//!
//! The [`Parser`] type is public and reusable: the MINE RULE front-end (in
//! the `minerule` crate) drives the same token stream and calls back into
//! [`Parser::parse_expr`] for the embedded SQL conditions, exactly as the
//! paper's translator embeds SQL search conditions inside the operator.

use crate::error::{Error, Result};
use crate::expr::{AggFunc, BinOp, Expr, UnaryOp};
use crate::sql::ast::{
    InsertSource, Join, JoinKind, OrderItem, SelectItem, SelectStmt, SetOpKind, Statement,
    TableRef, TableSource, ValuesRows,
};
use crate::sql::lexer::{lex_prefix, Tok, Token};
use crate::types::DataType;
use crate::value::{Date, Value};

/// Keywords that cannot be used as bare (AS-less) aliases. Includes the
/// MINE RULE keywords so the mining parser can share alias handling.
const RESERVED: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "HAVING",
    "ORDER",
    "LIMIT",
    "AS",
    "ON",
    "AND",
    "OR",
    "NOT",
    "INTO",
    "UNION",
    "JOIN",
    "INNER",
    "LEFT",
    "RIGHT",
    "SET",
    "VALUES",
    "BY",
    "ASC",
    "DESC",
    "CLUSTER",
    "EXTRACTING",
    "RULES",
    "WITH",
    "SUPPORT",
    "CONFIDENCE",
    "MINE",
    "RULE",
    "DISTINCT",
    "BETWEEN",
    "IN",
    "IS",
    "LIKE",
    "EXISTS",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "CROSS",
    "OUTER",
    "EXCEPT",
    "INTERSECT",
    "CAST",
];

/// The deepest expression tree the parser will build, counting operator
/// chains (`1+1+…` is left-deep), nesting (parentheses, function
/// arguments, CASE arms) and nested SELECTs alike. Every later stage —
/// evaluation, compilation, EXPLAIN, `Display`, `Drop` — recurses over
/// the tree, so this is what keeps hostile input from overflowing the
/// stack; sized so the deepest accepted tree runs inside a 2 MiB thread
/// in a debug build (pinned by `tests/error_paths.rs`).
pub const MAX_EXPR_DEPTH: usize = 64;

/// Token-stream parser with single-statement and expression entry points.
///
/// The whole input is lexed before parsing starts, so a lex error comes
/// before any parse error. Tokens borrow the input's text; the parser
/// never clones one: a literal's token moves into its `Expr`.
pub struct Parser<'a> {
    toks: Vec<Token<'a>>,
    pos: usize,
    input_len: usize,
    /// Open expression/SELECT frames (the parser's own recursion).
    depth: usize,
    /// Height of the tallest tree completed in the innermost open frame.
    peak: usize,
}

/// Parse exactly one statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    Parser::run(sql, Parser::statement)
}

/// Parse a `;`-separated script.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    Parser::run(sql, Parser::script)
}

/// Parse a standalone scalar expression (used for MINE RULE conditions).
pub fn parse_expression(sql: &str) -> Result<Expr> {
    Parser::run(sql, |p| {
        let e = p.parse_expr()?;
        p.expect_eof()?;
        Ok(e)
    })
}

impl<'a> Parser<'a> {
    /// Lex `sql` and run `parse` over its tokens; `parse` runs only when
    /// the whole input lexes. Every entry point parses through here, so a
    /// failure is reported one way: a failed lex or parse reports the lex
    /// error of the first [`Tok::IntMinMagnitude`] lexed, if there is one
    /// — the error every such input reported before a unary minus could
    /// take that token — and otherwise its own.
    pub fn run<T, E: From<Error>>(
        sql: &'a str,
        parse: impl FnOnce(&mut Parser<'a>) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let (toks, lexed) = lex_prefix(sql);
        let mut p = Parser {
            toks,
            pos: 0,
            input_len: sql.len(),
            depth: 0,
            peak: 0,
        };
        let parsed = match lexed {
            Ok(()) => parse(&mut p),
            Err(e) => Err(e.into()),
        };
        parsed.map_err(|e| match p.toks.iter().find_map(Token::deferred_error) {
            Some(deferred) => deferred.into(),
            None => e,
        })
    }

    /// Tokens lexed from the input.
    pub fn tokens(&self) -> usize {
        self.toks.len()
    }

    /// The input as exactly one statement (a trailing `;` is allowed).
    pub fn statement(&mut self) -> Result<Statement> {
        let stmt = self.parse_statement()?;
        self.accept_tok(&Tok::Semi);
        self.expect_eof()?;
        Ok(stmt)
    }

    /// The input as a `;`-separated script.
    pub fn script(&mut self) -> Result<Vec<Statement>> {
        let mut out = Vec::new();
        while !self.eof() {
            out.push(self.parse_statement()?);
            while self.accept_tok(&Tok::Semi) {}
        }
        Ok(out)
    }

    /// True when all tokens are consumed.
    pub fn eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Error if any tokens remain.
    pub fn expect_eof(&self) -> Result<()> {
        if self.eof() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }

    /// Build a parse error at the current position.
    pub fn error(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            pos: self
                .toks
                .get(self.pos)
                .map(|t| t.pos)
                .unwrap_or(self.input_len),
            message: message.into(),
        }
    }

    /// Open a frame for one expression or SELECT: one more level of
    /// parser recursion, with the heights of its children counted afresh.
    /// Returns the enclosing frame's peak for [`Parser::leave`].
    fn enter(&mut self) -> Result<usize> {
        self.depth += 1;
        let outer = std::mem::take(&mut self.peak);
        self.check_depth()?;
        Ok(outer)
    }

    /// Close a frame: its tree is now one child of the enclosing frame.
    fn leave(&mut self, outer: usize) {
        self.depth -= 1;
        self.peak = self.peak.max(outer);
    }

    /// Account one node built over everything parsed so far in this frame.
    fn grow(&mut self) -> Result<()> {
        self.peak += 1;
        self.check_depth()
    }

    fn check_depth(&self) -> Result<()> {
        if self.depth + self.peak > MAX_EXPR_DEPTH {
            return Err(self.error(format!(
                "expression nested too deeply (limit {MAX_EXPR_DEPTH} levels)"
            )));
        }
        Ok(())
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    /// Peek at the next token without consuming it (for embedding parsers
    /// such as the MINE RULE front-end).
    pub fn peek_tok(&self) -> Option<&Tok<'a>> {
        self.peek()
    }

    fn peek_n(&self, n: usize) -> Option<&Tok<'a>> {
        self.toks.get(self.pos + n).map(|t| &t.tok)
    }

    /// Consume the next token and return it by reference.
    fn advance(&mut self) -> Option<&Tok<'a>> {
        let t = self.toks.get(self.pos).map(|t| &t.tok);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume `t` if it is next; report whether it was.
    pub fn accept_tok(&mut self, t: &Tok<'a>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Require token `t`.
    pub fn expect_tok(&mut self, t: &Tok<'a>) -> Result<()> {
        if self.accept_tok(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {t:?}")))
        }
    }

    /// True when the next token is the keyword `kw` (case-insensitive).
    pub fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// True when the token `n` ahead is the keyword `kw`.
    pub fn peek_kw_n(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_n(n), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume keyword `kw` if next.
    pub fn accept_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Require keyword `kw`.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.accept_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}")))
        }
    }

    /// Require any identifier and return it.
    pub fn expect_ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(&Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s.to_string())
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    /// Require an integer literal.
    pub fn expect_int(&mut self) -> Result<i64> {
        match self.peek() {
            Some(Tok::Int(i)) => {
                let i = *i;
                self.pos += 1;
                Ok(i)
            }
            _ => Err(self.error("expected integer literal")),
        }
    }

    /// Require a numeric literal (int or float), e.g. support thresholds.
    pub fn expect_number(&mut self) -> Result<f64> {
        match self.peek() {
            Some(Tok::Int(i)) => {
                let v = *i as f64;
                self.pos += 1;
                Ok(v)
            }
            Some(Tok::Float(x)) => {
                let v = *x;
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.error("expected numeric literal")),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Parse one statement.
    pub fn parse_statement(&mut self) -> Result<Statement> {
        if self.accept_kw("EXPLAIN") {
            let outer = self.enter()?;
            let inner = self.parse_statement()?;
            self.grow()?;
            self.leave(outer);
            return Ok(Statement::Explain(Box::new(inner)));
        }
        if self.peek_kw("SELECT") {
            return Ok(Statement::Select(self.parse_select()?));
        }
        if self.accept_kw("CREATE") {
            return self.parse_create();
        }
        if self.accept_kw("DROP") {
            return self.parse_drop();
        }
        if self.accept_kw("INSERT") {
            return self.parse_insert();
        }
        if self.accept_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.expect_ident()?;
            let where_clause = if self.accept_kw("WHERE") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete {
                table,
                where_clause,
            });
        }
        if self.accept_kw("UPDATE") {
            let table = self.expect_ident()?;
            self.expect_kw("SET")?;
            let mut assignments = Vec::new();
            loop {
                let col = self.expect_ident()?;
                self.expect_tok(&Tok::Eq)?;
                assignments.push((col, self.parse_expr()?));
                if !self.accept_tok(&Tok::Comma) {
                    break;
                }
            }
            let where_clause = if self.accept_kw("WHERE") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                assignments,
                where_clause,
            });
        }
        Err(self.error("expected a statement"))
    }

    fn parse_create(&mut self) -> Result<Statement> {
        if self.accept_kw("TABLE") {
            let if_not_exists = if self.accept_kw("IF") {
                self.expect_kw("NOT")?;
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.expect_ident()?;
            if self.accept_kw("AS") {
                let wrapped = self.accept_tok(&Tok::LParen);
                let query = self.parse_select()?;
                if wrapped {
                    self.expect_tok(&Tok::RParen)?;
                }
                return Ok(Statement::CreateTableAs { name, query });
            }
            self.expect_tok(&Tok::LParen)?;
            let mut columns = Vec::new();
            loop {
                let col = self.expect_ident()?;
                let tname = self.expect_ident()?;
                let dtype = DataType::from_sql_name(&tname)
                    .ok_or_else(|| self.error(format!("unknown type '{tname}'")))?;
                // Swallow optional length e.g. VARCHAR(30).
                if self.accept_tok(&Tok::LParen) {
                    self.expect_int()?;
                    if self.accept_tok(&Tok::Comma) {
                        self.expect_int()?;
                    }
                    self.expect_tok(&Tok::RParen)?;
                }
                columns.push((col, dtype));
                if !self.accept_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(&Tok::RParen)?;
            return Ok(Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            });
        }
        if self.accept_kw("VIEW") {
            let name = self.expect_ident()?;
            self.expect_kw("AS")?;
            let wrapped = self.accept_tok(&Tok::LParen);
            let query = self.parse_select()?;
            if wrapped {
                self.expect_tok(&Tok::RParen)?;
            }
            return Ok(Statement::CreateView { name, query });
        }
        if self.accept_kw("SEQUENCE") {
            let name = self.expect_ident()?;
            let mut start = 1;
            let mut increment = 1;
            if self.accept_kw("START") {
                self.expect_kw("WITH")?;
                start = self.expect_int()?;
            }
            if self.accept_kw("INCREMENT") {
                self.expect_kw("BY")?;
                increment = self.expect_int()?;
            }
            return Ok(Statement::CreateSequence {
                name,
                start,
                increment,
            });
        }
        Err(self.error("expected TABLE, VIEW or SEQUENCE after CREATE"))
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        let kind = self.expect_ident()?;
        let if_exists = if self.accept_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        match kind.to_ascii_uppercase().as_str() {
            "TABLE" => Ok(Statement::DropTable { name, if_exists }),
            "VIEW" => Ok(Statement::DropView { name, if_exists }),
            "SEQUENCE" => Ok(Statement::DropSequence { name, if_exists }),
            other => Err(self.error(format!("cannot DROP {other}"))),
        }
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.expect_ident()?;
        // Three shapes: INSERT INTO t VALUES ...,
        //               INSERT INTO t (c1, c2) VALUES ...,
        //               INSERT INTO t (SELECT ...)  [Appendix A style]
        let mut columns = None;
        if self.accept_tok(&Tok::LParen) {
            if self.peek_kw("SELECT") {
                let query = self.parse_select()?;
                self.expect_tok(&Tok::RParen)?;
                return Ok(Statement::Insert {
                    table,
                    columns: None,
                    source: InsertSource::Query(Box::new(query)),
                });
            }
            let mut cols = Vec::new();
            loop {
                cols.push(self.expect_ident()?);
                if !self.accept_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(&Tok::RParen)?;
            columns = Some(cols);
        }
        if self.accept_kw("VALUES") {
            let mut rows = ValuesRows::default();
            loop {
                self.expect_tok(&Tok::LParen)?;
                let mut width = 0;
                loop {
                    let item = match self.lone_literal() {
                        Some(value) => Expr::Literal(value),
                        None => self.parse_expr()?,
                    };
                    rows.exprs.push(item);
                    width += 1;
                    if !self.accept_tok(&Tok::Comma) {
                        break;
                    }
                }
                self.expect_tok(&Tok::RParen)?;
                rows.widths.push(width);
                if !self.accept_tok(&Tok::Comma) {
                    break;
                }
            }
            return Ok(Statement::Insert {
                table,
                columns,
                source: InsertSource::Values(rows),
            });
        }
        if self.peek_kw("SELECT") {
            let query = self.parse_select()?;
            return Ok(Statement::Insert {
                table,
                columns,
                source: InsertSource::Query(Box::new(query)),
            });
        }
        if self.accept_tok(&Tok::LParen) {
            let query = self.parse_select()?;
            self.expect_tok(&Tok::RParen)?;
            return Ok(Statement::Insert {
                table,
                columns,
                source: InsertSource::Query(Box::new(query)),
            });
        }
        Err(self.error("expected VALUES or SELECT in INSERT"))
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    /// Parse a full SELECT statement (the leading `SELECT` keyword is
    /// consumed here).
    pub fn parse_select(&mut self) -> Result<SelectStmt> {
        let outer = self.enter()?;
        self.expect_kw("SELECT")?;
        let distinct = self.accept_kw("DISTINCT");
        if distinct {
            // Tolerate Oracle-style "DISTINCT ALL"? No — but allow nothing.
        } else {
            self.accept_kw("ALL");
        }
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.accept_tok(&Tok::Comma) {
                break;
            }
        }
        let into_var = if self.accept_kw("INTO") {
            match self.advance() {
                Some(&Tok::HostVar(v)) => Some(v.to_string()),
                _ => return Err(self.error("expected host variable after INTO")),
            }
        } else {
            None
        };
        let mut from = Vec::new();
        if self.accept_kw("FROM") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.accept_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        let where_clause = if self.accept_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.peek_kw("GROUP") && self.peek_kw_n(1, "BY") {
            self.pos += 2;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.accept_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        let having = if self.accept_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut set_op = if self.accept_kw("UNION") {
            let kind = if self.accept_kw("ALL") {
                SetOpKind::UnionAll
            } else {
                SetOpKind::Union
            };
            Some((kind, Box::new(self.parse_select()?)))
        } else if self.accept_kw("INTERSECT") {
            Some((SetOpKind::Intersect, Box::new(self.parse_select()?)))
        } else if self.accept_kw("EXCEPT") {
            Some((SetOpKind::Except, Box::new(self.parse_select()?)))
        } else {
            None
        };
        // A trailing ORDER BY / LIMIT after a set operation orders the
        // *combined* result, but the right-recursive parse attaches it to
        // the innermost operand — hoist it back out.
        let (mut hoisted_order, mut hoisted_limit) = (Vec::new(), None);
        if let Some((_, rhs)) = &mut set_op {
            hoisted_order = std::mem::take(&mut rhs.order_by);
            hoisted_limit = rhs.limit.take();
        }
        let mut order_by = hoisted_order;
        if self.peek_kw("ORDER") && self.peek_kw_n(1, "BY") {
            self.pos += 2;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.accept_kw("DESC") {
                    false
                } else {
                    self.accept_kw("ASC");
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.accept_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        let limit = if self.accept_kw("LIMIT") {
            Some(self.expect_int()? as u64)
        } else {
            hoisted_limit
        };
        self.grow()?;
        self.leave(outer);
        Ok(SelectStmt {
            distinct,
            items,
            into_var,
            from,
            where_clause,
            group_by,
            having,
            set_op,
            order_by,
            limit,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.accept_tok(&Tok::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Some(&Tok::Ident(q)), Some(Tok::Dot), Some(Tok::Star)) =
            (self.peek(), self.peek_n(1), self.peek_n(2))
        {
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q.to_string()));
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_opt_alias();
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] ident`, where a bare ident alias must not be a reserved word.
    pub fn parse_opt_alias(&mut self) -> Option<String> {
        if self.accept_kw("AS") {
            return self.expect_ident().ok();
        }
        if let Some(&Tok::Ident(s)) = self.peek() {
            if !RESERVED.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                self.pos += 1;
                return Some(s.to_string());
            }
        }
        None
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let (source, alias) = self.parse_table_factor()?;
        let mut joins = Vec::new();
        loop {
            let kind =
                if self.peek_kw("JOIN") || (self.peek_kw("INNER") && self.peek_kw_n(1, "JOIN")) {
                    self.accept_kw("INNER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Inner
                } else if self.peek_kw("LEFT") {
                    self.pos += 1;
                    self.accept_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::LeftOuter
                } else if self.peek_kw("CROSS") && self.peek_kw_n(1, "JOIN") {
                    self.pos += 2;
                    let (jsource, jalias) = self.parse_table_factor()?;
                    joins.push(Join {
                        kind: JoinKind::Inner,
                        source: jsource,
                        alias: jalias,
                        on: None,
                    });
                    continue;
                } else {
                    break;
                };
            let (jsource, jalias) = self.parse_table_factor()?;
            self.expect_kw("ON")?;
            let on = self.parse_expr()?;
            joins.push(Join {
                kind,
                source: jsource,
                alias: jalias,
                on: Some(on),
            });
        }
        Ok(TableRef {
            source,
            alias,
            joins,
        })
    }

    fn parse_table_factor(&mut self) -> Result<(TableSource, Option<String>)> {
        if self.accept_tok(&Tok::LParen) {
            let q = self.parse_select()?;
            self.expect_tok(&Tok::RParen)?;
            let alias = self.parse_opt_alias();
            return Ok((TableSource::Subquery(Box::new(q)), alias));
        }
        let name = self.expect_ident()?;
        let alias = self.parse_opt_alias();
        Ok((TableSource::Named(name), alias))
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    /// Parse a scalar expression.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_expr_prec(0)
    }

    /// A prefix expression and the left-deep chain of postfix predicates
    /// and binary operators wrapped around it (one [`Parser::grow`] each),
    /// in a frame of its own.
    fn parse_expr_prec(&mut self, min_prec: u8) -> Result<Expr> {
        let outer = self.enter()?;
        let mut left = self.parse_prefix(min_prec)?;
        loop {
            // Comparison-level postfix predicates.
            if min_prec <= 4 {
                let negated = self.peek_kw("NOT")
                    && (self.peek_kw_n(1, "BETWEEN")
                        || self.peek_kw_n(1, "IN")
                        || self.peek_kw_n(1, "LIKE"));
                if negated {
                    self.pos += 1;
                }
                if self.accept_kw("BETWEEN") {
                    let low = self.parse_expr_prec(5)?;
                    self.expect_kw("AND")?;
                    let high = self.parse_expr_prec(5)?;
                    left = Expr::Between {
                        expr: Box::new(left),
                        negated,
                        low: Box::new(low),
                        high: Box::new(high),
                    };
                    self.grow()?;
                    continue;
                }
                if self.accept_kw("IN") {
                    self.expect_tok(&Tok::LParen)?;
                    if self.peek_kw("SELECT") {
                        let q = self.parse_select()?;
                        self.expect_tok(&Tok::RParen)?;
                        left = Expr::InSubquery {
                            expr: Box::new(left),
                            negated,
                            query: Box::new(q),
                        };
                    } else {
                        let mut list = Vec::new();
                        loop {
                            list.push(self.parse_expr()?);
                            if !self.accept_tok(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect_tok(&Tok::RParen)?;
                        left = Expr::InList {
                            expr: Box::new(left),
                            negated,
                            list,
                        };
                    }
                    self.grow()?;
                    continue;
                }
                if self.accept_kw("LIKE") {
                    let pattern = self.parse_expr_prec(5)?;
                    left = Expr::Like {
                        expr: Box::new(left),
                        negated,
                        pattern: Box::new(pattern),
                    };
                    self.grow()?;
                    continue;
                }
                if negated {
                    return Err(self.error("expected BETWEEN, IN or LIKE after NOT"));
                }
                if self.accept_kw("IS") {
                    let negated = self.accept_kw("NOT");
                    self.expect_kw("NULL")?;
                    left = Expr::IsNull {
                        expr: Box::new(left),
                        negated,
                    };
                    self.grow()?;
                    continue;
                }
            }
            let op = match self.peek() {
                Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("AND") => BinOp::And,
                Some(Tok::Ident(s)) if s.eq_ignore_ascii_case("OR") => BinOp::Or,
                Some(Tok::Eq) => BinOp::Eq,
                Some(Tok::NotEq) => BinOp::NotEq,
                Some(Tok::Lt) => BinOp::Lt,
                Some(Tok::LtEq) => BinOp::LtEq,
                Some(Tok::Gt) => BinOp::Gt,
                Some(Tok::GtEq) => BinOp::GtEq,
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                Some(Tok::Concat) => BinOp::Concat,
                _ => break,
            };
            let prec = match op {
                BinOp::Or => 1,
                BinOp::And => 2,
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 4,
                BinOp::Add | BinOp::Sub | BinOp::Concat => 5,
                BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
            };
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let right = self.parse_expr_prec(prec + 1)?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
            self.grow()?;
        }
        self.leave(outer);
        Ok(left)
    }

    fn parse_prefix(&mut self, min_prec: u8) -> Result<Expr> {
        if min_prec <= 3 && self.accept_kw("NOT") {
            let inner = self.parse_expr_prec(3)?;
            self.grow()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        if self.accept_tok(&Tok::Minus) {
            if let Some(Tok::IntMinMagnitude(_)) = self.peek() {
                self.pos += 1;
                self.grow()?;
                return Ok(Expr::Literal(Value::Int(i64::MIN)));
            }
            let inner = self.parse_expr_prec(7)?;
            self.grow()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.accept_tok(&Tok::Plus) {
            return self.parse_expr_prec(7);
        }
        self.parse_primary()
    }

    /// A primary is one node over whatever it encloses — except a plain
    /// parenthesised expression, which adds recursion but no node.
    fn parse_primary(&mut self) -> Result<Expr> {
        if self.peek() == Some(&Tok::LParen) && !self.peek_kw_n(1, "SELECT") {
            self.pos += 1;
            let e = self.parse_expr()?;
            self.expect_tok(&Tok::RParen)?;
            return Ok(e);
        }
        let node = self.parse_primary_node()?;
        self.grow()?;
        Ok(node)
    }

    /// The next token's value when it is an INT, FLOAT or string literal,
    /// which consumes it. A string's text moves out of the token (nothing
    /// reads a consumed token's text again; an error reads only its
    /// position): an escaped literal's copy moves, a slice is copied once.
    fn literal(&mut self) -> Option<Value> {
        let value = match &mut self.toks.get_mut(self.pos)?.tok {
            Tok::Int(i) => Value::Int(*i),
            Tok::Float(x) => Value::Float(*x),
            Tok::Str(s) => Value::Str(std::mem::take(s).into_owned()),
            _ => return None,
        };
        self.pos += 1;
        Some(value)
    }

    /// A VALUES item that is a lone literal — an INT, FLOAT or string
    /// token directly followed by `,` or `)` — as its value, consumed
    /// without descending through the precedence levels. The frame it
    /// would have opened holds one node, as [`Parser::parse_expr`] counts.
    fn lone_literal(&mut self) -> Option<Value> {
        let fits = self.depth + 2 <= MAX_EXPR_DEPTH;
        if !fits || !matches!(self.peek_n(1), Some(Tok::Comma | Tok::RParen)) {
            return None;
        }
        let value = self.literal()?;
        self.peak = self.peak.max(1);
        Some(value)
    }

    fn parse_primary_node(&mut self) -> Result<Expr> {
        if let Some(value) = self.literal() {
            return Ok(Expr::Literal(value));
        }
        match self.peek() {
            Some(&Tok::HostVar(v)) => {
                self.pos += 1;
                Ok(Expr::HostVar(v.to_string()))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let q = self.parse_select()?;
                self.expect_tok(&Tok::RParen)?;
                Ok(Expr::ScalarSubquery(Box::new(q)))
            }
            Some(&Tok::Ident(name)) => self.parse_ident_primary(name),
            _ => Err(self.error("expected an expression")),
        }
    }

    fn parse_ident_primary(&mut self, name: &'a str) -> Result<Expr> {
        let upper = name.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => {
                self.pos += 1;
                return Ok(Expr::Literal(Value::Null));
            }
            "TRUE" => {
                self.pos += 1;
                return Ok(Expr::Literal(Value::Bool(true)));
            }
            "FALSE" => {
                self.pos += 1;
                return Ok(Expr::Literal(Value::Bool(false)));
            }
            "DATE" => {
                if let Some(Tok::Str(s)) = self.peek_n(1) {
                    let d = Date::parse(s).ok_or_else(|| format!("bad date literal '{s}'"));
                    // The error points past the string, as its position
                    // was read after both tokens were consumed.
                    self.pos += 2;
                    let d = d.map_err(|message| self.error(message))?;
                    return Ok(Expr::Literal(Value::Date(d)));
                }
            }
            "CASE" => {
                self.pos += 1;
                let mut branches = Vec::new();
                while self.accept_kw("WHEN") {
                    let c = self.parse_expr()?;
                    self.expect_kw("THEN")?;
                    let v = self.parse_expr()?;
                    branches.push((c, v));
                }
                let else_expr = if self.accept_kw("ELSE") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_kw("END")?;
                if branches.is_empty() {
                    return Err(self.error("CASE requires at least one WHEN"));
                }
                return Ok(Expr::Case {
                    branches,
                    else_expr,
                });
            }
            "EXISTS" => {
                self.pos += 1;
                self.expect_tok(&Tok::LParen)?;
                let q = self.parse_select()?;
                self.expect_tok(&Tok::RParen)?;
                return Ok(Expr::Exists {
                    negated: false,
                    query: Box::new(q),
                });
            }
            "CAST" if self.peek_n(1) == Some(&Tok::LParen) => {
                {
                    self.pos += 2;
                    let inner = self.parse_expr()?;
                    self.expect_kw("AS")?;
                    let tname = self.expect_ident()?;
                    let dtype = DataType::from_sql_name(&tname)
                        .ok_or_else(|| self.error(format!("unknown type '{tname}'")))?;
                    // Swallow optional length, e.g. VARCHAR(20).
                    if self.accept_tok(&Tok::LParen) {
                        self.expect_int()?;
                        self.expect_tok(&Tok::RParen)?;
                    }
                    self.expect_tok(&Tok::RParen)?;
                    return Ok(Expr::Cast {
                        expr: Box::new(inner),
                        dtype,
                    });
                }
            }
            _ => {}
        }

        // Structural keywords cannot start a primary expression; catching
        // them here turns `SELECT FROM t` into a parse error instead of a
        // column named "FROM". (Softer words like SUPPORT or CLUSTER stay
        // usable as column names — MINE RULE output tables have them.)
        const EXPR_RESERVED: &[&str] = &[
            "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "AS", "ON", "AND",
            "OR", "INTO", "UNION", "JOIN", "INNER", "LEFT", "RIGHT", "SET", "VALUES", "BY", "ASC",
            "DESC", "DISTINCT", "BETWEEN", "IN", "IS", "LIKE", "WHEN", "THEN", "ELSE", "END",
        ];
        if EXPR_RESERVED.iter().any(|k| *k == upper) {
            return Err(self.error(format!("unexpected keyword {upper}")));
        }

        // Function or aggregate call: ident '('.
        if self.peek_n(1) == Some(&Tok::LParen) {
            self.pos += 2;
            if let Some(func) = AggFunc::from_name(name) {
                if func == AggFunc::Count && self.accept_tok(&Tok::Star) {
                    self.expect_tok(&Tok::RParen)?;
                    return Ok(Expr::Aggregate {
                        func,
                        distinct: false,
                        arg: None,
                    });
                }
                let distinct = self.accept_kw("DISTINCT");
                let arg = self.parse_expr()?;
                self.expect_tok(&Tok::RParen)?;
                return Ok(Expr::Aggregate {
                    func,
                    distinct,
                    arg: Some(Box::new(arg)),
                });
            }
            let mut args = Vec::new();
            if !self.accept_tok(&Tok::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.accept_tok(&Tok::Comma) {
                        break;
                    }
                }
                self.expect_tok(&Tok::RParen)?;
            }
            return Ok(Expr::Func {
                name: name.to_string(),
                args,
            });
        }

        // Qualified reference: ident '.' ident — either sequence NEXTVAL
        // or a qualified column.
        if self.peek_n(1) == Some(&Tok::Dot) {
            if let Some(&Tok::Ident(second)) = self.peek_n(2) {
                self.pos += 3;
                if second.eq_ignore_ascii_case("NEXTVAL") {
                    return Ok(Expr::NextVal(name.to_string()));
                }
                return Ok(Expr::Column {
                    qualifier: Some(name.to_string()),
                    name: second.to_string(),
                });
            }
        }

        self.pos += 1;
        Ok(Expr::Column {
            qualifier: None,
            name: name.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(s: &str) -> Expr {
        parse_expression(s).unwrap()
    }

    #[test]
    fn parse_precedence() {
        assert_eq!(expr("1 + 2 * 3").to_sql(), "1 + 2 * 3");
        assert_eq!(expr("(1 + 2) * 3").to_sql(), "(1 + 2) * 3");
        assert_eq!(expr("a OR b AND c").to_sql(), "a OR b AND c");
        assert_eq!(expr("(a OR b) AND c").to_sql(), "(a OR b) AND c");
    }

    #[test]
    fn parse_mining_condition() {
        let e = expr("BODY.price >= 100 AND HEAD.price < 100");
        assert_eq!(e.to_sql(), "BODY.price >= 100 AND HEAD.price < 100");
    }

    #[test]
    fn parse_between_and_date() {
        let e = expr("date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'");
        assert!(matches!(e, Expr::Between { .. }));
    }

    #[test]
    fn parse_not_between() {
        let e = expr("x NOT BETWEEN 1 AND 2");
        assert!(matches!(e, Expr::Between { negated: true, .. }));
    }

    #[test]
    fn parse_count_star_and_distinct() {
        assert_eq!(expr("COUNT(*)").to_sql(), "COUNT(*)");
        assert_eq!(expr("COUNT(DISTINCT x)").to_sql(), "COUNT(DISTINCT x)");
    }

    #[test]
    fn parse_nextval() {
        assert_eq!(
            expr("Gidsequence.NEXTVAL"),
            Expr::NextVal("Gidsequence".into())
        );
    }

    #[test]
    fn parse_in_list_and_subquery() {
        assert!(matches!(expr("x IN (1, 2, 3)"), Expr::InList { .. }));
        assert!(matches!(
            expr("x IN (SELECT a FROM t)"),
            Expr::InSubquery { .. }
        ));
    }

    #[test]
    fn parse_select_full() {
        let s = parse_statement(
            "SELECT DISTINCT a AS x, COUNT(*) AS n FROM t AS s, u \
             WHERE s.a = u.a GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 5",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert!(sel.distinct);
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.from.len(), 2);
                assert!(sel.where_clause.is_some());
                assert_eq!(sel.group_by.len(), 1);
                assert!(sel.having.is_some());
                assert_eq!(sel.order_by.len(), 1);
                assert!(!sel.order_by[0].asc);
                assert_eq!(sel.limit, Some(5));
            }
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn parse_select_into_hostvar() {
        let s = parse_statement("SELECT COUNT(*) INTO :totg FROM (SELECT DISTINCT g FROM s) d")
            .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.into_var.as_deref(), Some("totg"));
                assert!(matches!(sel.from[0].source, TableSource::Subquery(_)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parse_insert_query_appendix_style() {
        let s = parse_statement(
            "INSERT INTO Source (SELECT item, price FROM Purchase WHERE price > 10)",
        )
        .unwrap();
        assert!(matches!(
            s,
            Statement::Insert {
                source: InsertSource::Query(_),
                ..
            }
        ));
    }

    #[test]
    fn parse_insert_values() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert {
                columns,
                source: InsertSource::Values(rows),
                ..
            } => {
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.widths, vec![2, 2]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parse_create_table_and_view() {
        assert!(matches!(
            parse_statement("CREATE TABLE t (a INT, b VARCHAR(30), c DATE)").unwrap(),
            Statement::CreateTable { .. }
        ));
        assert!(matches!(
            parse_statement("CREATE VIEW v AS (SELECT a FROM t)").unwrap(),
            Statement::CreateView { .. }
        ));
        assert!(matches!(
            parse_statement("CREATE TABLE c AS SELECT a FROM t").unwrap(),
            Statement::CreateTableAs { .. }
        ));
    }

    #[test]
    fn parse_qualified_wildcard() {
        let s = parse_statement("SELECT V.* FROM ValidGroups V").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items[0], SelectItem::QualifiedWildcard("V".into()));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parse_statements_script() {
        let stmts = parse_statements("CREATE SEQUENCE s; SELECT 1; SELECT 2;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn display_parse_roundtrip() {
        let sql = "SELECT DISTINCT a AS x FROM t AS s WHERE a > 1 AND b BETWEEN 2 AND 3 GROUP BY a HAVING COUNT(*) > 2";
        let s1 = parse_statement(sql).unwrap();
        let s2 = parse_statement(&s1.to_string()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn parse_case_expression() {
        let e = expr("CASE WHEN a > 1 THEN 'big' ELSE 'small' END");
        assert!(matches!(e, Expr::Case { .. }));
    }

    #[test]
    fn parse_error_position_reported() {
        let err = parse_statement("SELECT FROM").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
    }
}
