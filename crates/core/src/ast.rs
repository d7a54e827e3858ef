//! Abstract syntax of the MINE RULE operator (§4.1 of the paper).

use std::fmt;

use relational::expr::Expr;

/// Upper bound of a cardinality specification: a number or `n` (unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardMax {
    /// A fixed maximum.
    Fixed(u32),
    /// `n` — no upper bound.
    Unbounded,
}

/// A cardinality specification `<min> .. (<max> | n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardSpec {
    pub min: u32,
    pub max: CardMax,
}

impl CardSpec {
    /// The default body cardinality, `1..n`.
    pub fn one_to_n() -> CardSpec {
        CardSpec {
            min: 1,
            max: CardMax::Unbounded,
        }
    }

    /// The default head cardinality, `1..1`.
    pub fn one_to_one() -> CardSpec {
        CardSpec {
            min: 1,
            max: CardMax::Fixed(1),
        }
    }

    /// True when `k` items satisfy this specification.
    pub fn admits(&self, k: usize) -> bool {
        let k = k as u32;
        k >= self.min
            && match self.max {
                CardMax::Fixed(m) => k <= m,
                CardMax::Unbounded => true,
            }
    }

    /// Upper bound usable as an expansion limit (`u32::MAX` for `n`).
    pub fn upper_limit(&self) -> u32 {
        match self.max {
            CardMax::Fixed(m) => m,
            CardMax::Unbounded => u32::MAX,
        }
    }

    /// Structurally valid: min ≥ 1 and min ≤ max.
    pub fn is_valid(&self) -> bool {
        self.min >= 1
            && match self.max {
                CardMax::Fixed(m) => self.min <= m,
                CardMax::Unbounded => true,
            }
    }
}

impl fmt::Display for CardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            CardMax::Fixed(m) => write!(f, "{}..{}", self.min, m),
            CardMax::Unbounded => write!(f, "{}..n", self.min),
        }
    }
}

/// The rule-element descriptor: `[cardspec] <schema> AS BODY|HEAD`.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementSpec {
    pub card: CardSpec,
    /// The attribute list items of this element are built from.
    pub schema: Vec<String>,
}

/// One table in the FROM list.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceTable {
    pub name: String,
    pub alias: Option<String>,
}

impl SourceTable {
    /// The name this table is visible under in conditions.
    pub fn visible_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// A parsed MINE RULE statement.
///
/// ```text
/// MINE RULE <output table> AS
/// SELECT DISTINCT <body descr>, <head descr> [,SUPPORT] [,CONFIDENCE]
///   [WHERE <mining cond>]
/// FROM <from list> [WHERE <source cond>]
/// GROUP BY <group attr list> [HAVING <group cond>]
/// [CLUSTER BY <cluster attr list> [HAVING <cluster cond>]]
/// EXTRACTING RULES WITH SUPPORT: s, CONFIDENCE: c
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MineRuleStatement {
    pub output_table: String,
    pub body: ElementSpec,
    pub head: ElementSpec,
    /// `SUPPORT` listed in the SELECT list (include the column in output).
    pub select_support: bool,
    /// `CONFIDENCE` listed in the SELECT list.
    pub select_confidence: bool,
    /// The mining condition (`WHERE` before `FROM`), over BODY./HEAD. attrs.
    pub mining_cond: Option<Expr>,
    pub from: Vec<SourceTable>,
    /// The source condition (`WHERE` after `FROM`).
    pub source_cond: Option<Expr>,
    pub group_by: Vec<String>,
    pub group_cond: Option<Expr>,
    pub cluster_by: Vec<String>,
    pub cluster_cond: Option<Expr>,
    pub min_support: f64,
    pub min_confidence: f64,
}

impl MineRuleStatement {
    /// Whether the conditions read the FROM tables alone: no subquery,
    /// host variable or sequence draw, each of which reads state that
    /// the FROM tables' versions do not stamp.
    pub fn reads_only_from_tables(&self) -> bool {
        let conds = [
            &self.source_cond,
            &self.group_cond,
            &self.cluster_cond,
            &self.mining_cond,
        ];
        let mut only = true;
        for cond in conds.into_iter().flatten() {
            cond.walk(&mut |e| {
                only &= !matches!(
                    e,
                    Expr::ScalarSubquery(_)
                        | Expr::Exists { .. }
                        | Expr::InSubquery { .. }
                        | Expr::HostVar(_)
                        | Expr::NextVal(_)
                )
            });
        }
        only
    }

    /// All attributes mentioned anywhere (for `Q0`'s `<needed attr list>`):
    /// body ∪ head ∪ grouping ∪ clustering ∪ mining/condition attributes.
    pub fn needed_attributes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |name: &str| {
            if !out.iter().any(|x| x.eq_ignore_ascii_case(name)) {
                out.push(name.to_string());
            }
        };
        for a in &self.body.schema {
            push(a);
        }
        for a in &self.head.schema {
            push(a);
        }
        for a in &self.group_by {
            push(a);
        }
        for a in &self.cluster_by {
            push(a);
        }
        for cond in [&self.mining_cond, &self.group_cond, &self.cluster_cond]
            .into_iter()
            .flatten()
        {
            for (_, name) in cond.column_refs() {
                push(name);
            }
        }
        out
    }

    /// Attributes referenced by the mining condition (the paper's
    /// `Mineattlist`), deduplicated, order of first appearance.
    pub fn mining_attributes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        if let Some(cond) = &self.mining_cond {
            for (_, name) in cond.column_refs() {
                if !out.iter().any(|x| x.eq_ignore_ascii_case(name)) {
                    out.push(name.to_string());
                }
            }
        }
        out
    }
}

impl fmt::Display for MineRuleStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MINE RULE {} AS SELECT DISTINCT {} {} AS BODY, {} {} AS HEAD",
            self.output_table,
            self.body.card,
            self.body.schema.join(", "),
            self.head.card,
            self.head.schema.join(", "),
        )?;
        if self.select_support {
            write!(f, ", SUPPORT")?;
        }
        if self.select_confidence {
            write!(f, ", CONFIDENCE")?;
        }
        if let Some(m) = &self.mining_cond {
            write!(f, " WHERE {m}")?;
        }
        write!(f, " FROM ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", t.name)?;
            if let Some(a) = &t.alias {
                write!(f, " AS {a}")?;
            }
        }
        if let Some(w) = &self.source_cond {
            write!(f, " WHERE {w}")?;
        }
        write!(f, " GROUP BY {}", self.group_by.join(", "))?;
        if let Some(g) = &self.group_cond {
            write!(f, " HAVING {g}")?;
        }
        if !self.cluster_by.is_empty() {
            write!(f, " CLUSTER BY {}", self.cluster_by.join(", "))?;
            if let Some(c) = &self.cluster_cond {
                write!(f, " HAVING {c}")?;
            }
        }
        write!(
            f,
            " EXTRACTING RULES WITH SUPPORT: {}, CONFIDENCE: {}",
            self.min_support, self.min_confidence
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardspec_admits() {
        let c = CardSpec {
            min: 2,
            max: CardMax::Fixed(3),
        };
        assert!(!c.admits(1));
        assert!(c.admits(2));
        assert!(c.admits(3));
        assert!(!c.admits(4));
        assert!(CardSpec::one_to_n().admits(100));
        assert!(!CardSpec::one_to_one().admits(2));
    }

    #[test]
    fn cardspec_validity() {
        assert!(CardSpec::one_to_n().is_valid());
        assert!(!CardSpec {
            min: 0,
            max: CardMax::Unbounded
        }
        .is_valid());
        assert!(!CardSpec {
            min: 3,
            max: CardMax::Fixed(2)
        }
        .is_valid());
    }

    #[test]
    fn cardspec_display() {
        assert_eq!(CardSpec::one_to_n().to_string(), "1..n");
        assert_eq!(CardSpec::one_to_one().to_string(), "1..1");
    }
}
