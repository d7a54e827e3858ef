//! Parser for the MINE RULE operator.
//!
//! Reuses the relational crate's lexer and expression parser, so every
//! embedded condition (mining, source, group, cluster) is full SQL.

use relational::sql::lexer::Tok;
use relational::sql::parser::Parser;

use crate::ast::{CardMax, CardSpec, ElementSpec, MineRuleStatement, SourceTable};
use crate::error::{MineError, Result};

/// Parse one MINE RULE statement (a trailing `;` is allowed).
pub fn parse_mine_rule(text: &str) -> Result<MineRuleStatement> {
    Parser::run(text, |p| {
        let stmt = parse_with(p)?;
        p.accept_tok(&Tok::Semi);
        p.expect_eof()?;
        Ok(stmt)
    })
}

/// True when `text` looks like a MINE RULE statement (starts with the
/// keywords); used by front-ends that accept both SQL and mining input.
pub fn is_mine_rule(text: &str) -> bool {
    let mut words = text.split_whitespace();
    matches!(
        (words.next(), words.next()),
        (Some(a), Some(b)) if a.eq_ignore_ascii_case("MINE") && b.eq_ignore_ascii_case("RULE")
    )
}

fn parse_with(p: &mut Parser<'_>) -> Result<MineRuleStatement> {
    p.expect_kw("MINE")?;
    p.expect_kw("RULE")?;
    let output_table = p.expect_ident()?;
    p.expect_kw("AS")?;
    p.expect_kw("SELECT")?;
    p.expect_kw("DISTINCT")?;

    let body = parse_element(p, "BODY", CardSpec::one_to_n())?;
    p.expect_tok(&Tok::Comma)?;
    let head = parse_element(p, "HEAD", CardSpec::one_to_one())?;

    let mut select_support = false;
    let mut select_confidence = false;
    while p.accept_tok(&Tok::Comma) {
        if !select_support && p.accept_kw("SUPPORT") {
            select_support = true;
        } else if p.accept_kw("CONFIDENCE") {
            select_confidence = true;
            break;
        } else {
            return Err(MineError::Syntax {
                pos: 0,
                message: "expected SUPPORT or CONFIDENCE in SELECT list".into(),
            });
        }
    }

    // The mining condition is the WHERE *before* FROM.
    let mining_cond = if p.accept_kw("WHERE") {
        Some(p.parse_expr()?)
    } else {
        None
    };

    p.expect_kw("FROM")?;
    let mut from = Vec::new();
    loop {
        let name = p.expect_ident()?;
        let alias = p.parse_opt_alias();
        from.push(SourceTable { name, alias });
        if !p.accept_tok(&Tok::Comma) {
            break;
        }
    }

    let source_cond = if p.accept_kw("WHERE") {
        Some(p.parse_expr()?)
    } else {
        None
    };

    p.expect_kw("GROUP")?;
    p.expect_kw("BY")?;
    let group_by = parse_attr_list(p)?;
    let group_cond = if p.accept_kw("HAVING") {
        Some(p.parse_expr()?)
    } else {
        None
    };

    let (cluster_by, cluster_cond) = if p.accept_kw("CLUSTER") {
        p.expect_kw("BY")?;
        let attrs = parse_attr_list(p)?;
        let cond = if p.accept_kw("HAVING") {
            Some(p.parse_expr()?)
        } else {
            None
        };
        (attrs, cond)
    } else {
        (Vec::new(), None)
    };

    p.expect_kw("EXTRACTING")?;
    p.expect_kw("RULES")?;
    p.expect_kw("WITH")?;
    p.expect_kw("SUPPORT")?;
    p.expect_tok(&Tok::Colon)?;
    let min_support = p.expect_number()?;
    p.expect_tok(&Tok::Comma)?;
    p.expect_kw("CONFIDENCE")?;
    p.expect_tok(&Tok::Colon)?;
    let min_confidence = p.expect_number()?;

    Ok(MineRuleStatement {
        output_table,
        body,
        head,
        select_support,
        select_confidence,
        mining_cond,
        from,
        source_cond,
        group_by,
        group_cond,
        cluster_by,
        cluster_cond,
        min_support,
        min_confidence,
    })
}

/// `[<card spec>] <attr> (, <attr>)* AS BODY|HEAD`
fn parse_element(p: &mut Parser<'_>, kind: &str, default_card: CardSpec) -> Result<ElementSpec> {
    let card = parse_opt_cardspec(p)?.unwrap_or(default_card);
    let mut schema = Vec::new();
    loop {
        schema.push(p.expect_ident()?);
        if p.peek_kw("AS") {
            break;
        }
        p.expect_tok(&Tok::Comma)?;
    }
    p.expect_kw("AS")?;
    p.expect_kw(kind)?;
    Ok(ElementSpec { card, schema })
}

fn parse_opt_cardspec(p: &mut Parser<'_>) -> Result<Option<CardSpec>> {
    if !matches!(p.peek_tok(), Some(Tok::Int(_))) {
        return Ok(None);
    }
    let min = p.expect_int()?;
    p.expect_tok(&Tok::DotDot)?;
    let max = if p.accept_kw("n") {
        CardMax::Unbounded
    } else {
        CardMax::Fixed(p.expect_int()? as u32)
    };
    Ok(Some(CardSpec {
        min: min as u32,
        max,
    }))
}

fn parse_attr_list(p: &mut Parser<'_>) -> Result<Vec<String>> {
    let mut out = vec![p.expect_ident()?];
    while p.accept_tok(&Tok::Comma) {
        out.push(p.expect_ident()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full statement from §2 of the paper.
    pub const PAPER_STATEMENT: &str = "\
MINE RULE FilteredOrderedSets AS \
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
WHERE BODY.price >= 100 AND HEAD.price < 100 \
FROM Purchase \
WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' \
GROUP BY customer \
CLUSTER BY date HAVING BODY.date < HEAD.date \
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3";

    #[test]
    fn parses_paper_statement() {
        let s = parse_mine_rule(PAPER_STATEMENT).unwrap();
        assert_eq!(s.output_table, "FilteredOrderedSets");
        assert_eq!(s.body.schema, vec!["item"]);
        assert_eq!(s.body.card, CardSpec::one_to_n());
        assert_eq!(s.head.card, CardSpec::one_to_n());
        assert!(s.select_support && s.select_confidence);
        assert!(s.mining_cond.is_some());
        assert_eq!(s.from[0].name, "Purchase");
        assert!(s.source_cond.is_some());
        assert_eq!(s.group_by, vec!["customer"]);
        assert_eq!(s.cluster_by, vec!["date"]);
        assert!(s.cluster_cond.is_some());
        assert!((s.min_support - 0.2).abs() < 1e-12);
        assert!((s.min_confidence - 0.3).abs() < 1e-12);
    }

    #[test]
    fn parses_minimal_simple_statement() {
        let s = parse_mine_rule(
            "MINE RULE SimpleAssociations AS \
             SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Transactions GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.5",
        )
        .unwrap();
        assert!(s.mining_cond.is_none());
        assert!(s.source_cond.is_none());
        assert!(s.cluster_by.is_empty());
        assert_eq!(s.head.card, CardSpec::one_to_one());
    }

    #[test]
    fn default_cardinalities() {
        let s = parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM t GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.2",
        )
        .unwrap();
        assert_eq!(s.body.card, CardSpec::one_to_n());
        assert_eq!(s.head.card, CardSpec::one_to_one());
        assert!(!s.select_support && !s.select_confidence);
    }

    #[test]
    fn multi_attribute_schemas() {
        let s = parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT 1..n item, brand AS BODY, 1..2 shop AS HEAD \
             FROM t GROUP BY g, h EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.2",
        )
        .unwrap();
        assert_eq!(s.body.schema, vec!["item", "brand"]);
        assert_eq!(s.head.schema, vec!["shop"]);
        assert_eq!(s.group_by, vec!["g", "h"]);
        assert_eq!(
            s.head.card,
            CardSpec {
                min: 1,
                max: CardMax::Fixed(2)
            }
        );
    }

    #[test]
    fn rejects_missing_group_by() {
        assert!(parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM t EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.2"
        )
        .is_err());
    }

    #[test]
    fn rejects_missing_thresholds() {
        assert!(parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM t GROUP BY g"
        )
        .is_err());
    }

    #[test]
    fn display_roundtrips() {
        let s1 = parse_mine_rule(PAPER_STATEMENT).unwrap();
        let s2 = parse_mine_rule(&s1.to_string()).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn is_mine_rule_detects() {
        assert!(is_mine_rule("MINE RULE x AS ..."));
        assert!(is_mine_rule("mine rule x"));
        assert!(!is_mine_rule("SELECT * FROM t"));
    }

    #[test]
    fn from_list_with_aliases() {
        let s = parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM purchases p, products AS q WHERE p.item = q.name \
             GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.2",
        )
        .unwrap();
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].alias.as_deref(), Some("p"));
        assert_eq!(s.from[1].alias.as_deref(), Some("q"));
        assert_eq!(s.from[1].visible_name(), "q");
    }
}
