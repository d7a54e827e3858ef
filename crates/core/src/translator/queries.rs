//! Generation of the preprocessing (`Q0`..`Q11`) and postprocessing SQL
//! programs (Appendix A of the paper, extended to the general case of
//! §4.2.2).
//!
//! Differences from the paper's literal text, chosen for a self-contained
//! reproduction and documented in DESIGN.md:
//!
//! * encoded tables are created with `CREATE TABLE <name> AS (SELECT ...)`
//!   instead of a separate DDL + `INSERT INTO <name> (SELECT ...)` pair
//!   (except `MiningSource`, which needs two inserts when H is true);
//! * the large-element filter is `COUNT(*) >= :mingroups` with
//!   `:mingroups = ceil(:totg * min_support)` — the exact integer form of
//!   "support ≥ threshold";
//! * the output tables also materialise immediately (the postprocessor
//!   runs plain joins against `Bset`/`Hset`, as in the appendix).

use relational::expr::Expr;
use relational::types::DataType;

use crate::ast::MineRuleStatement;
use crate::directives::Directives;
use crate::error::{MineError, Result};
use crate::translator::{SourceSchema, Step, TableNames};

/// Generates the SQL programs for one translated statement.
pub struct ProgramGenerator<'a> {
    stmt: &'a MineRuleStatement,
    dir: &'a Directives,
    names: &'a TableNames,
    source: &'a SourceSchema,
}

impl<'a> ProgramGenerator<'a> {
    pub fn new(
        stmt: &'a MineRuleStatement,
        dir: &'a Directives,
        names: &'a TableNames,
        source: &'a SourceSchema,
    ) -> ProgramGenerator<'a> {
        ProgramGenerator {
            stmt,
            dir,
            names,
            source,
        }
    }

    /// The name later queries read the source rows from: the materialised
    /// `Source` if `Q0` runs (W true), otherwise the single base table.
    fn src(&self) -> String {
        if self.dir.w {
            self.names.source()
        } else {
            self.stmt.from[0].name.clone()
        }
    }

    /// Drop every object this translation may create (old runs included).
    pub fn cleanup(&self) -> Vec<Step> {
        let n = self.names;
        let mut steps = Vec::new();
        let out = &self.stmt.output_table;
        for view in [n.valid_groups_view(), n.coded_source()] {
            steps.push(Step::sql("cleanup", format!("DROP VIEW IF EXISTS {view}")));
        }
        for table in [
            n.source(),
            n.valid_groups(),
            n.distinct_groups_in_body(),
            n.bset(),
            n.distinct_groups_in_head(),
            n.hset(),
            n.clusters(),
            n.cluster_couples(),
            n.mining_source(),
            n.coded_source(),
            n.input_rules_raw(),
            n.large_rules(),
            n.input_rules(),
            n.output_rules(),
            n.output_bodies(),
            n.output_heads(),
            out.clone(),
            format!("{out}_Bodies"),
            format!("{out}_Heads"),
        ] {
            steps.push(Step::sql(
                "cleanup",
                format!("DROP TABLE IF EXISTS {table}"),
            ));
        }
        for seq in [
            n.gid_sequence(),
            n.bid_sequence(),
            n.hid_sequence(),
            n.cid_sequence(),
        ] {
            steps.push(Step::sql(
                "cleanup",
                format!("DROP SEQUENCE IF EXISTS {seq}"),
            ));
        }
        steps
    }

    /// The preprocessing program: Figure 4a for simple statements, plus
    /// Figure 4b's additions for general ones.
    pub fn preprocess(&self) -> Result<Vec<Step>> {
        let n = self.names;
        let stmt = self.stmt;
        let dir = self.dir;
        let src = self.src();
        let g_list = stmt.group_by.join(", ");
        let b_list = stmt.body.schema.join(", ");

        let mut steps = Vec::new();

        // Sequences used by the encodings.
        steps.push(Step::sql(
            "DDL",
            format!("CREATE SEQUENCE {}", n.gid_sequence()),
        ));
        steps.push(Step::sql(
            "DDL",
            format!("CREATE SEQUENCE {}", n.bid_sequence()),
        ));
        if dir.h {
            steps.push(Step::sql(
                "DDL",
                format!("CREATE SEQUENCE {}", n.hid_sequence()),
            ));
        }
        if dir.c {
            steps.push(Step::sql(
                "DDL",
                format!("CREATE SEQUENCE {}", n.cid_sequence()),
            ));
        }

        // Q0: materialise the source query (only when W).
        if dir.w {
            let needed = stmt.needed_attributes().join(", ");
            let mut from = String::new();
            for (i, t) in stmt.from.iter().enumerate() {
                if i > 0 {
                    from.push_str(", ");
                }
                from.push_str(&t.name);
                if let Some(a) = &t.alias {
                    from.push_str(&format!(" AS {a}"));
                }
            }
            let where_clause = match &stmt.source_cond {
                Some(c) => format!(" WHERE {c}"),
                None => String::new(),
            };
            steps.push(Step::sql(
                "Q0",
                format!(
                    "CREATE TABLE {} AS (SELECT {needed} FROM {from}{where_clause})",
                    n.source()
                ),
            ));
        }

        // Q1: total number of groups, into :totg.
        steps.push(Step::sql(
            "Q1",
            format!("SELECT COUNT(*) INTO :totg FROM (SELECT DISTINCT {g_list} FROM {src}) TG"),
        ));
        steps.push(Step::ComputeMinGroups);

        // Q2: valid groups (HAVING applied when G) and group encoding.
        let group_having = match &stmt.group_cond {
            Some(c) => format!(" HAVING {c}"),
            None => String::new(),
        };
        steps.push(Step::sql(
            "Q2",
            format!(
                "CREATE VIEW {} AS (SELECT {g_list} FROM {src} GROUP BY {g_list}{group_having})",
                n.valid_groups_view()
            ),
        ));
        steps.push(Step::sql(
            "Q2",
            format!(
                "CREATE TABLE {} AS (SELECT {}.NEXTVAL AS Gid, V.* FROM {} AS V)",
                n.valid_groups(),
                n.gid_sequence(),
                n.valid_groups_view()
            ),
        ));

        // Q3: body item encoding with the large-element filter.
        steps.push(Step::sql(
            "Q3",
            format!(
                "CREATE TABLE {} AS (SELECT DISTINCT {b_list}, {g_list} FROM {src})",
                n.distinct_groups_in_body()
            ),
        ));
        steps.push(Step::sql(
            "Q3",
            format!(
                "CREATE TABLE {} AS (SELECT {}.NEXTVAL AS Bid, {b_list}, COUNT(*) AS ngroups \
                 FROM {} GROUP BY {b_list} HAVING COUNT(*) >= :mingroups)",
                n.bset(),
                n.bid_sequence(),
                n.distinct_groups_in_body()
            ),
        ));

        if dir.class() == crate::directives::StatementClass::Simple {
            // Q4: the simple CodedSource.
            steps.push(Step::sql(
                "Q4",
                format!(
                    "CREATE TABLE {} AS (SELECT DISTINCT V.Gid, B.Bid \
                     FROM {src} S, {} AS V, {} B WHERE {} AND {})",
                    n.coded_source(),
                    n.valid_groups(),
                    n.bset(),
                    eq_join("S", "V", &stmt.group_by),
                    eq_join("S", "B", &stmt.body.schema),
                ),
            ));
            return Ok(steps);
        }

        // ---- General statements (Figure 4b) ----

        // Q5: head item encoding when the head schema differs.
        if dir.h {
            let h_list = stmt.head.schema.join(", ");
            steps.push(Step::sql(
                "Q5",
                format!(
                    "CREATE TABLE {} AS (SELECT DISTINCT {h_list}, {g_list} FROM {src})",
                    n.distinct_groups_in_head()
                ),
            ));
            steps.push(Step::sql(
                "Q5",
                format!(
                    "CREATE TABLE {} AS (SELECT {}.NEXTVAL AS Hid, {h_list}, COUNT(*) AS ngroups \
                     FROM {} GROUP BY {h_list} HAVING COUNT(*) >= :mingroups)",
                    n.hset(),
                    n.hid_sequence(),
                    n.distinct_groups_in_head()
                ),
            ));
        }

        // Q6: cluster encoding (plus per-cluster aggregates when F).
        let cluster_aggs = cluster_aggregates(stmt);
        if dir.c {
            let cl_list = stmt.cluster_by.join(", ");
            let mut inner_proj = format!("{g_list}, {cl_list}");
            for (i, agg) in cluster_aggs.iter().enumerate() {
                inner_proj.push_str(&format!(", {} AS aggval{i}", agg.to_sql()));
            }
            let mut outer_proj = format!(
                "{}.NEXTVAL AS Cid, V.Gid, {}",
                n.cid_sequence(),
                qualify("X", &stmt.cluster_by)
            );
            for i in 0..cluster_aggs.len() {
                outer_proj.push_str(&format!(", X.aggval{i}"));
            }
            steps.push(Step::sql(
                "Q6",
                format!(
                    "CREATE TABLE {} AS (SELECT {outer_proj} \
                     FROM (SELECT {inner_proj} FROM {src} GROUP BY {g_list}, {cl_list}) X, {} AS V \
                     WHERE {})",
                    n.clusters(),
                    n.valid_groups(),
                    eq_join("X", "V", &stmt.group_by),
                ),
            ));
        }

        // Q7: valid cluster pairs (when the cluster condition is present).
        if dir.k {
            let cond = cluster_pair_cond(stmt, &cluster_aggs)?.to_sql();
            steps.push(Step::sql(
                "Q7",
                format!(
                    "CREATE TABLE {} AS (SELECT DISTINCT C1.Gid AS Gid, C1.Cid AS Cidb, C2.Cid AS Cidh \
                     FROM {} C1, {} C2 WHERE C1.Gid = C2.Gid AND ({cond}))",
                    n.cluster_couples(),
                    n.clusters(),
                    n.clusters(),
                ),
            ));
        }

        // Q4b: MiningSource — the per-tuple encoding.
        let mine_attrs = stmt.mining_attributes();
        let mut columns = vec![("Gid".to_string(), DataType::Int)];
        if dir.c {
            columns.push(("Cid".to_string(), DataType::Int));
        }
        columns.push(("Bid".to_string(), DataType::Int));
        if dir.h {
            columns.push(("Hid".to_string(), DataType::Int));
        }
        for a in &mine_attrs {
            let t = self
                .source
                .attr_type(a)
                .ok_or_else(|| MineError::Internal {
                    message: format!("mining attribute '{a}' lost its type"),
                })?;
            columns.push((a.clone(), t));
        }
        let ddl_cols = columns
            .iter()
            .map(|(c, t)| format!("{c} {t}"))
            .collect::<Vec<_>>()
            .join(", ");
        steps.push(Step::sql(
            "Q4b",
            format!("CREATE TABLE {} ({ddl_cols})", n.mining_source()),
        ));

        // Shared FROM/WHERE pieces for the MiningSource inserts.
        let cluster_factor = if dir.c {
            format!(", {} C", n.clusters())
        } else {
            String::new()
        };
        let cluster_join = if dir.c {
            format!(
                " AND C.Gid = V.Gid AND {}",
                eq_join("S", "C", &stmt.cluster_by)
            )
        } else {
            String::new()
        };
        let ma_proj: String = mine_attrs.iter().map(|a| format!(", S.{a}")).collect();

        if dir.h {
            // Body-side rows (Hid NULL) and head-side rows (Bid NULL).
            steps.push(Step::sql(
                "Q4b",
                format!(
                    "INSERT INTO {} (SELECT DISTINCT V.Gid{}, B.Bid, NULL{ma_proj} \
                     FROM {src} S, {} AS V{cluster_factor}, {} B \
                     WHERE {}{cluster_join} AND {})",
                    n.mining_source(),
                    if dir.c { ", C.Cid" } else { "" },
                    n.valid_groups(),
                    n.bset(),
                    eq_join("S", "V", &stmt.group_by),
                    eq_join("S", "B", &stmt.body.schema),
                ),
            ));
            steps.push(Step::sql(
                "Q4b",
                format!(
                    "INSERT INTO {} (SELECT DISTINCT V.Gid{}, NULL, H.Hid{ma_proj} \
                     FROM {src} S, {} AS V{cluster_factor}, {} H \
                     WHERE {}{cluster_join} AND {})",
                    n.mining_source(),
                    if dir.c { ", C.Cid" } else { "" },
                    n.valid_groups(),
                    n.hset(),
                    eq_join("S", "V", &stmt.group_by),
                    eq_join("S", "H", &stmt.head.schema),
                ),
            ));
        } else {
            steps.push(Step::sql(
                "Q4b",
                format!(
                    "INSERT INTO {} (SELECT DISTINCT V.Gid{}, B.Bid{ma_proj} \
                     FROM {src} S, {} AS V{cluster_factor}, {} B \
                     WHERE {}{cluster_join} AND {})",
                    n.mining_source(),
                    if dir.c { ", C.Cid" } else { "" },
                    n.valid_groups(),
                    n.bset(),
                    eq_join("S", "V", &stmt.group_by),
                    eq_join("S", "B", &stmt.body.schema),
                ),
            ));
        }

        // Q11: CodedSource as a non-materialised view of MiningSource.
        let mut coded_cols = vec!["Gid"];
        if dir.c {
            coded_cols.push("Cid");
        }
        coded_cols.push("Bid");
        if dir.h {
            coded_cols.push("Hid");
        }
        steps.push(Step::sql(
            "Q11",
            format!(
                "CREATE VIEW {} AS (SELECT DISTINCT {} FROM {})",
                n.coded_source(),
                coded_cols.join(", "),
                n.mining_source()
            ),
        ));

        // Q8/Q9/Q10: elementary rules, evaluated in SQL when the mining
        // condition is present.
        if dir.m {
            let mining = mining_pair_cond(stmt)?.to_sql();
            let mut proj = String::from("MB.Gid AS Gid");
            if dir.c {
                proj.push_str(", MB.Cid AS Cidb, MH.Cid AS Cidh");
            }
            proj.push_str(", MB.Bid AS Bid");
            proj.push_str(if dir.h {
                ", MH.Hid AS Hid"
            } else {
                ", MH.Bid AS Hid"
            });
            let couples_factor = if dir.k {
                format!(", {} CC", n.cluster_couples())
            } else {
                String::new()
            };
            let mut cond = String::from("MB.Gid = MH.Gid");
            if dir.k {
                cond.push_str(" AND CC.Gid = MB.Gid AND CC.Cidb = MB.Cid AND CC.Cidh = MH.Cid");
            }
            if dir.h {
                cond.push_str(" AND MB.Bid IS NOT NULL AND MH.Hid IS NOT NULL");
            } else {
                cond.push_str(" AND MB.Bid <> MH.Bid");
            }
            cond.push_str(&format!(" AND ({mining})"));
            steps.push(Step::sql(
                "Q8",
                format!(
                    "CREATE TABLE {} AS (SELECT DISTINCT {proj} FROM {} MB, {} MH{couples_factor} WHERE {cond})",
                    n.input_rules_raw(),
                    n.mining_source(),
                    n.mining_source(),
                ),
            ));
            steps.push(Step::sql(
                "Q9",
                format!(
                    "CREATE TABLE {} AS (SELECT Bid, Hid, COUNT(DISTINCT Gid) AS cnt \
                     FROM {} GROUP BY Bid, Hid HAVING COUNT(DISTINCT Gid) >= :mingroups)",
                    n.large_rules(),
                    n.input_rules_raw(),
                ),
            ));
            steps.push(Step::sql(
                "Q10",
                format!(
                    "CREATE TABLE {} AS (SELECT R.* FROM {} R, {} L \
                     WHERE R.Bid = L.Bid AND R.Hid = L.Hid)",
                    n.input_rules(),
                    n.input_rules_raw(),
                    n.large_rules(),
                ),
            ));
        }

        Ok(steps)
    }

    /// The postprocessing program: decode the core operator's outputs into
    /// the user-readable tables (§4.4 and the appendix's final query).
    pub fn postprocess(&self) -> Vec<Step> {
        let n = self.names;
        let out = &self.stmt.output_table;
        let mut proj = String::from("BodyId, HeadId");
        if self.stmt.select_support {
            proj.push_str(", SUPPORT");
        }
        if self.stmt.select_confidence {
            proj.push_str(", CONFIDENCE");
        }
        let mut steps = vec![Step::sql(
            "P1",
            format!(
                "CREATE TABLE {out} AS (SELECT {proj} FROM {})",
                n.output_rules()
            ),
        )];
        let b_list = self.stmt.body.schema.join(", ");
        steps.push(Step::sql(
            "P2",
            format!(
                "CREATE TABLE {out}_Bodies AS (SELECT BodyId, {b_list} \
                 FROM {}, {} WHERE {}.Bid = {}.Bid)",
                n.output_bodies(),
                n.bset(),
                n.output_bodies(),
                n.bset(),
            ),
        ));
        if self.dir.h {
            let h_list = self.stmt.head.schema.join(", ");
            steps.push(Step::sql(
                "P3",
                format!(
                    "CREATE TABLE {out}_Heads AS (SELECT HeadId, {h_list} \
                     FROM {}, {} WHERE {}.Hid = {}.Hid)",
                    n.output_heads(),
                    n.hset(),
                    n.output_heads(),
                    n.hset(),
                ),
            ));
        } else {
            let h_list = self.stmt.head.schema.join(", ");
            steps.push(Step::sql(
                "P3",
                format!(
                    "CREATE TABLE {out}_Heads AS (SELECT HeadId, {h_list} \
                     FROM {}, {} WHERE {}.Hid = {}.Bid)",
                    n.output_heads(),
                    n.bset(),
                    n.output_heads(),
                    n.bset(),
                ),
            ));
        }
        steps
    }
}

/// The aliases `Q7` and `Q8` give the body and head side of their
/// self-joins (`Clusters C1, Clusters C2`; `MiningSource MB,
/// MiningSource MH`).
pub(crate) const CLUSTER_SIDES: (&str, &str) = ("C1", "C2");
pub(crate) const MINING_SIDES: (&str, &str) = ("MB", "MH");

/// The distinct per-cluster aggregates appearing in the cluster
/// condition, with BODY/HEAD qualifiers stripped (each is computed once
/// per cluster by `Q6`, as column `aggval<i>`). Two aggregates are one
/// when they render to the same SQL.
pub(crate) fn cluster_aggregates(stmt: &MineRuleStatement) -> Vec<Expr> {
    let mut out: Vec<Expr> = Vec::new();
    if let Some(cond) = &stmt.cluster_cond {
        cond.walk(&mut |e| {
            if let Expr::Aggregate { .. } = e {
                let stripped = strip_role_qualifiers(e);
                if !out.iter().any(|a| a.to_sql() == stripped.to_sql()) {
                    out.push(stripped);
                }
            }
        });
    }
    out
}

/// The cluster condition as `Q7` evaluates it over a pair of `Clusters`
/// rows: `BODY.x` → `C1.x`, `HEAD.x` → `C2.x`, and each aggregate to its
/// precomputed `aggval<i>` column on the proper side.
pub(crate) fn cluster_pair_cond(stmt: &MineRuleStatement, aggs: &[Expr]) -> Result<Expr> {
    let cond = stmt
        .cluster_cond
        .as_ref()
        .ok_or_else(|| MineError::Internal {
            message: "cluster_pair_cond without cluster condition".into(),
        })?;
    rewrite_roles(cond, CLUSTER_SIDES.0, CLUSTER_SIDES.1, aggs)
}

/// The mining condition as `Q8` evaluates it over a pair of
/// `MiningSource` rows: `BODY.x` → `MB.x`, `HEAD.x` → `MH.x` (no
/// aggregates are allowed here). Unqualified references default to the
/// BODY side, so they stay unambiguous in the self-join and match the
/// reference semantics.
pub(crate) fn mining_pair_cond(stmt: &MineRuleStatement) -> Result<Expr> {
    let cond = stmt
        .mining_cond
        .as_ref()
        .ok_or_else(|| MineError::Internal {
            message: "mining_pair_cond without mining condition".into(),
        })?;
    let qualified = cond.map_qualifiers(&mut |q, n| match q {
        None => (Some("BODY".to_string()), n.to_string()),
        Some(q) => (Some(q.to_string()), n.to_string()),
    });
    rewrite_roles(&qualified, MINING_SIDES.0, MINING_SIDES.1, &[])
}

/// `S.a = V.a AND S.b = V.b` over an attribute list.
fn eq_join(left: &str, right: &str, attrs: &[String]) -> String {
    attrs
        .iter()
        .map(|a| format!("{left}.{a} = {right}.{a}"))
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// `X.a, X.b` over an attribute list.
fn qualify(alias: &str, attrs: &[String]) -> String {
    attrs
        .iter()
        .map(|a| format!("{alias}.{a}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Remove BODY/HEAD qualifiers from every column reference.
fn strip_role_qualifiers(expr: &Expr) -> Expr {
    expr.map_qualifiers(&mut |q, n| match q {
        Some(q) if q.eq_ignore_ascii_case("BODY") || q.eq_ignore_ascii_case("HEAD") => {
            (None, n.to_string())
        }
        other => (other.map(str::to_string), n.to_string()),
    })
}

/// Rewrite BODY/HEAD role qualifiers to concrete aliases and replace
/// aggregates with their precomputed `aggval<i>` columns.
fn rewrite_roles(expr: &Expr, body_alias: &str, head_alias: &str, aggs: &[Expr]) -> Result<Expr> {
    // First handle aggregates (they carry the role on their arguments).
    let expr = replace_aggregates(expr, body_alias, head_alias, aggs)?;
    Ok(expr.map_qualifiers(&mut |q, n| match q {
        Some(q) if q.eq_ignore_ascii_case("BODY") => (Some(body_alias.to_string()), n.to_string()),
        Some(q) if q.eq_ignore_ascii_case("HEAD") => (Some(head_alias.to_string()), n.to_string()),
        other => (other.map(str::to_string), n.to_string()),
    }))
}

fn replace_aggregates(
    expr: &Expr,
    body_alias: &str,
    head_alias: &str,
    aggs: &[Expr],
) -> Result<Expr> {
    Ok(match expr {
        Expr::Aggregate { arg, .. } => {
            // Which side does this aggregate belong to?
            let mut side: Option<&str> = None;
            if let Some(a) = arg {
                for (q, _) in a.column_refs() {
                    match q {
                        Some(q) if q.eq_ignore_ascii_case("BODY") => side = Some(body_alias),
                        Some(q) if q.eq_ignore_ascii_case("HEAD") => side = Some(head_alias),
                        _ => {}
                    }
                }
            }
            let side = side.ok_or_else(|| MineError::Internal {
                message: "cluster-condition aggregate without BODY/HEAD role".into(),
            })?;
            let stripped = strip_role_qualifiers(expr).to_sql();
            let idx = aggs
                .iter()
                .position(|a| a.to_sql() == stripped)
                .ok_or_else(|| MineError::Internal {
                    message: format!("aggregate '{stripped}' missing from Q6 registration"),
                })?;
            Expr::qcol(side, format!("aggval{idx}"))
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(replace_aggregates(expr, body_alias, head_alias, aggs)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(replace_aggregates(left, body_alias, head_alias, aggs)?),
            op: *op,
            right: Box::new(replace_aggregates(right, body_alias, head_alias, aggs)?),
        },
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => Expr::Between {
            expr: Box::new(replace_aggregates(expr, body_alias, head_alias, aggs)?),
            negated: *negated,
            low: Box::new(replace_aggregates(low, body_alias, head_alias, aggs)?),
            high: Box::new(replace_aggregates(high, body_alias, head_alias, aggs)?),
        },
        Expr::InList {
            expr,
            negated,
            list,
        } => Expr::InList {
            expr: Box::new(replace_aggregates(expr, body_alias, head_alias, aggs)?),
            negated: *negated,
            list: list
                .iter()
                .map(|e| replace_aggregates(e, body_alias, head_alias, aggs))
                .collect::<Result<_>>()?,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(replace_aggregates(expr, body_alias, head_alias, aggs)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            negated,
            pattern,
        } => Expr::Like {
            expr: Box::new(replace_aggregates(expr, body_alias, head_alias, aggs)?),
            negated: *negated,
            pattern: Box::new(replace_aggregates(pattern, body_alias, head_alias, aggs)?),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|e| replace_aggregates(e, body_alias, head_alias, aggs))
                .collect::<Result<_>>()?,
        },
        Expr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| {
                    Ok((
                        replace_aggregates(c, body_alias, head_alias, aggs)?,
                        replace_aggregates(v, body_alias, head_alias, aggs)?,
                    ))
                })
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(replace_aggregates(
                    e, body_alias, head_alias, aggs,
                )?)),
                None => None,
            },
        },
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_mine_rule;
    use crate::translator::translate;
    use relational::Database;

    fn purchase_db() -> Database {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE Purchase (tr INT, customer VARCHAR, item VARCHAR, \
             date DATE, price INT, qty INT)",
        )
        .unwrap();
        db
    }

    fn steps_sql(steps: &[Step]) -> Vec<(String, String)> {
        steps
            .iter()
            .filter_map(|s| match s {
                Step::Sql { id, sql } => Some((id.clone(), sql.clone())),
                Step::ComputeMinGroups => None,
            })
            .collect()
    }

    const SIMPLE: &str = "MINE RULE SimpleAssociations AS \
        SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
        FROM Purchase GROUP BY customer \
        EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";

    #[test]
    fn simple_program_has_q1_to_q4_and_no_more() {
        let db = purchase_db();
        let t = translate(&parse_mine_rule(SIMPLE).unwrap(), db.catalog()).unwrap();
        let ids: Vec<&str> = t
            .preprocess
            .iter()
            .filter_map(|s| match s {
                Step::Sql { id, .. } => Some(id.as_str()),
                _ => None,
            })
            .collect();
        assert!(
            ids.contains(&"Q1")
                && ids.contains(&"Q2")
                && ids.contains(&"Q3")
                && ids.contains(&"Q4")
        );
        assert!(!ids.contains(&"Q0"), "W false: no Source materialisation");
        assert!(!ids.iter().any(|i| ["Q5", "Q6", "Q7", "Q8"].contains(i)));
    }

    #[test]
    fn simple_q4_matches_appendix_structure() {
        let db = purchase_db();
        let t = translate(&parse_mine_rule(SIMPLE).unwrap(), db.catalog()).unwrap();
        let q4 = steps_sql(&t.preprocess)
            .into_iter()
            .find(|(id, _)| id == "Q4")
            .unwrap()
            .1;
        assert_eq!(
            q4,
            "CREATE TABLE CodedSource AS (SELECT DISTINCT V.Gid, B.Bid \
             FROM Purchase S, ValidGroups AS V, Bset B \
             WHERE S.customer = V.customer AND S.item = B.item)"
        );
    }

    #[test]
    fn paper_statement_generates_general_program() {
        let db = purchase_db();
        let stmt = parse_mine_rule(
            "MINE RULE F AS SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD \
             WHERE BODY.price >= 100 AND HEAD.price < 100 \
             FROM Purchase WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' \
             GROUP BY customer CLUSTER BY date HAVING BODY.date < HEAD.date \
             EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
        )
        .unwrap();
        let t = translate(&stmt, db.catalog()).unwrap();
        let ids: Vec<String> = steps_sql(&t.preprocess)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        for q in [
            "Q0", "Q1", "Q2", "Q3", "Q6", "Q7", "Q4b", "Q11", "Q8", "Q9", "Q10",
        ] {
            assert!(ids.iter().any(|i| i == q), "missing {q} in {ids:?}");
        }
        assert!(!ids.iter().any(|i| i == "Q5"), "H false: no Hset");
        assert!(!ids.iter().any(|i| i == "Q4"), "general: no simple Q4");
    }

    #[test]
    fn q7_rewrites_cluster_condition() {
        let db = purchase_db();
        let stmt = parse_mine_rule(
            "MINE RULE F AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             CLUSTER BY date HAVING BODY.date < HEAD.date \
             EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
        )
        .unwrap();
        let t = translate(&stmt, db.catalog()).unwrap();
        let q7 = steps_sql(&t.preprocess)
            .into_iter()
            .find(|(id, _)| id == "Q7")
            .unwrap()
            .1;
        assert!(q7.contains("C1.date < C2.date"), "{q7}");
    }

    #[test]
    fn q7_keeps_a_disjunctive_cluster_condition_under_the_group_join() {
        // `... WHERE C1.Gid = C2.Gid AND a OR b` would pair clusters of
        // different groups whenever `b` holds.
        let db = purchase_db();
        let stmt = parse_mine_rule(
            "MINE RULE F AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             CLUSTER BY date HAVING BODY.date < HEAD.date OR BODY.date > HEAD.date \
             EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
        )
        .unwrap();
        let t = translate(&stmt, db.catalog()).unwrap();
        let q7 = steps_sql(&t.preprocess)
            .into_iter()
            .find(|(id, _)| id == "Q7")
            .unwrap()
            .1;
        assert!(
            q7.contains("C1.Gid = C2.Gid AND (C1.date < C2.date OR C1.date > C2.date)"),
            "{q7}"
        );
    }

    #[test]
    fn q8_rewrites_mining_condition() {
        let db = purchase_db();
        let stmt = parse_mine_rule(
            "MINE RULE F AS SELECT DISTINCT item AS BODY, item AS HEAD \
             WHERE BODY.price >= 100 AND HEAD.price < 100 \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
        )
        .unwrap();
        let t = translate(&stmt, db.catalog()).unwrap();
        let q8 = steps_sql(&t.preprocess)
            .into_iter()
            .find(|(id, _)| id == "Q8")
            .unwrap()
            .1;
        assert!(q8.contains("MB.price >= 100 AND MH.price < 100"), "{q8}");
        assert!(q8.contains("MB.Bid <> MH.Bid"), "{q8}");
    }

    #[test]
    fn cluster_aggregates_registered_once() {
        let db = purchase_db();
        let stmt = parse_mine_rule(
            "MINE RULE F AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             CLUSTER BY date HAVING SUM(BODY.price) > SUM(HEAD.price) \
             EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3",
        )
        .unwrap();
        let t = translate(&stmt, db.catalog()).unwrap();
        let q6 = steps_sql(&t.preprocess)
            .into_iter()
            .find(|(id, _)| id == "Q6")
            .unwrap()
            .1;
        // SUM(BODY.price) and SUM(HEAD.price) strip to the same aggregate.
        assert_eq!(q6.matches("SUM(price)").count(), 1, "{q6}");
        let q7 = steps_sql(&t.preprocess)
            .into_iter()
            .find(|(id, _)| id == "Q7")
            .unwrap()
            .1;
        assert!(q7.contains("C1.aggval0 > C2.aggval0"), "{q7}");
    }

    #[test]
    fn postprocess_joins_bset() {
        let db = purchase_db();
        let t = translate(&parse_mine_rule(SIMPLE).unwrap(), db.catalog()).unwrap();
        let post = steps_sql(&t.postprocess);
        assert_eq!(post.len(), 3);
        assert!(post[1].1.contains("OutputBodies.Bid = Bset.Bid"));
        assert!(post[2].1.contains("OutputHeads.Hid = Bset.Bid"));
    }

    #[test]
    fn prefixed_names_flow_through() {
        let db = purchase_db();
        let t = crate::translator::translate_with_prefix(
            &parse_mine_rule(SIMPLE).unwrap(),
            db.catalog(),
            "MR1_",
        )
        .unwrap();
        for (_, sql) in steps_sql(&t.preprocess) {
            if sql.contains("CodedSource") {
                assert!(sql.contains("MR1_CodedSource"), "{sql}");
            }
        }
    }
}
