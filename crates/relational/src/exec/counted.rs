//! Counted joins: `SELECT COUNT(*)` over a planned join counts the join
//! instead of building it.
//!
//! This is the paper's own move for elementary rules (§4.3.2: group-wise
//! products, never a materialised cartesian product) applied to SQL, and
//! eager aggregation in the sense of Yan & Larson (VLDB 1995). Each step
//! of the [`JoinPlan`] keeps one *entry* per distinct value of the columns
//! later steps join on, each with the number of joined rows it stands for:
//!
//! - the first factor's rows are grouped on those columns;
//! - the incoming factor's rows are grouped on the step's key, then on its
//!   own columns later steps join on; each probe entry meets the groups its
//!   key finds (every group, for a key-less step), and the entry they make
//!   takes the product of their counts.
//!
//! So `SELECT COUNT(*) FROM t a, t b WHERE a.k = b.k` builds one entry per
//! distinct `k` of `a`, then a single entry, whatever the joined-row
//! count; `SELECT COUNT(*) FROM t x, t y, t z` builds one entry per step.
//! Only `COUNT(*)` is counted: no value it reads can make its answer
//! depend on the order the written-order fold builds rows in. Counts
//! saturate instead of wrapping; a count beyond `i64` is the fold's
//! integer-overflow error.

use crate::error::Result;
use crate::exec::join::{JoinPlan, Relation};
use crate::expr::compile::ExecCounter;
use crate::expr::eval::{overflow, QueryCtx};
use crate::expr::Expr;
use crate::key::KeyInterner;
use crate::row::Row;
use crate::types::Schema;
use crate::value::Value;

/// The end of a key's hash chain of groups.
const NO_GROUP: u32 = u32::MAX;

/// A factor column: `(factor, column index in it)`.
type Col = (usize, usize);

/// What one step's new entry takes a value from.
#[derive(Clone, Copy)]
enum Source {
    /// Position in the probe entry's values.
    Entry(usize),
    /// Position in the incoming factor's group key.
    Factor(usize),
}

/// `COUNT(*)` over the joined factors, with the joined schema its type is
/// inferred over.
pub(crate) fn count(
    factors: &[Relation],
    plan: &JoinPlan,
    ctx: &mut dyn QueryCtx,
) -> Result<(Schema, Value)> {
    let joined = factors
        .iter()
        .fold(Schema::default(), |acc, f| acc.join(&f.schema));

    // Each step's keys as (incoming factor's column, joined column).
    let mut step_keys: Vec<Vec<(usize, Col)>> = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        let mut keys = Vec::with_capacity(step.keys.len());
        for key in &step.keys {
            let (g, other) = key
                .other(step.factor)
                .expect("a step's keys reach its factor");
            let mine = column_in(key.side(step.factor), &factors[step.factor].schema)?;
            keys.push((mine, (g, column_in(other, &factors[g].schema)?)));
        }
        step_keys.push(keys);
    }

    // The columns live after each step: joined by then, and read by a
    // later step's key.
    let mut at_step = vec![0; factors.len()];
    for (i, step) in plan.steps.iter().enumerate() {
        at_step[step.factor] = i;
    }
    let live: Vec<Vec<Col>> = (0..plan.steps.len())
        .map(|i| {
            let later = step_keys[i + 1..].iter().flatten().map(|&(_, col)| col);
            let mut cols: Vec<Col> = later.filter(|&(f, _)| at_step[f] <= i).collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect();

    let (mut joined_rows, mut built) = (0u64, 0u64);
    let first = plan.steps[0].factor;
    let first_cols: Vec<usize> = live[0].iter().map(|&(_, c)| c).collect();
    let (mut entries, mut counts) = group(&factors[first].rows, &first_cols, 0);
    for (i, step) in plan.steps.iter().enumerate().skip(1) {
        let f = step.factor;
        // The incoming factor grouped on its key, then its live columns,
        // and its groups bucketed by key.
        let mut f_cols: Vec<usize> = step_keys[i].iter().map(|&(mine, _)| mine).collect();
        let key_width = f_cols.len();
        let mut layout = Vec::with_capacity(live[i].len());
        for &(g, c) in &live[i] {
            layout.push(if g == f {
                f_cols.push(c);
                Source::Factor(f_cols.len() - 1)
            } else {
                Source::Entry(position(&live[i - 1], (g, c)))
            });
        }
        let (groups, group_counts) = group(&factors[f].rows, &f_cols, key_width);
        // Each key's groups as a hash chain: the key's last group, and
        // each group's previous one under its key. A bucket per key would
        // allocate per distinct key of the incoming factor.
        let key_cols: Vec<usize> = (0..key_width).collect();
        let mut keys = KeyInterner::new(key_width);
        let (mut last, mut previous) = (Vec::new(), Vec::with_capacity(group_counts.len()));
        for (g, group) in groups.keys().enumerate() {
            let k = keys.intern(group, &key_cols) as usize;
            if k == last.len() {
                last.push(NO_GROUP);
            }
            previous.push(last[k]);
            last[k] = g as u32;
        }
        let probe: Vec<usize> = (step_keys[i].iter())
            .map(|&(_, col)| position(&live[i - 1], col))
            .collect();

        let identity: Vec<usize> = (0..layout.len()).collect();
        let mut next = KeyInterner::new(layout.len());
        let mut next_counts: Vec<u64> = Vec::new();
        let mut values: Vec<Value> = Vec::with_capacity(layout.len());
        for (slot, &count) in counts.iter().enumerate() {
            let entry = entries.key(slot as u32);
            if probe.iter().any(|&p| entry[p].is_null()) {
                continue;
            }
            let Some(k) = keys.get(entry, &probe) else {
                continue;
            };
            let mut g = last[k as usize];
            while g != NO_GROUP {
                let group = groups.key(g);
                values.clear();
                values.extend(layout.iter().map(|from| match *from {
                    Source::Entry(p) => entry[p].clone(),
                    Source::Factor(p) => group[p].clone(),
                }));
                let s = next.intern(&values, &identity) as usize;
                if s == next_counts.len() {
                    next_counts.push(0);
                }
                let product = count.saturating_mul(group_counts[g as usize]);
                next_counts[s] = next_counts[s].saturating_add(product);
                g = previous[g as usize];
            }
        }
        let step_rows = next_counts.iter().fold(0u64, |a, &n| a.saturating_add(n));
        joined_rows = joined_rows.saturating_add(step_rows);
        built += next_counts.len() as u64;
        (entries, counts) = (next, next_counts);
    }
    ctx.bump(ExecCounter::RowsJoined, joined_rows);
    ctx.bump(ExecCounter::JoinTuples, built);

    let total = counts.iter().fold(0u64, |a, &n| a.saturating_add(n));
    let total = i64::try_from(total).map_err(|_| overflow())?;
    Ok((joined, Value::Int(total)))
}

/// Group `rows` on the values at `cols`: the distinct keys in first-seen
/// order and each one's row count. Rows with a NULL among the first
/// `key_width` columns are left out (a join key with NULL never matches).
fn group(rows: &[Row], cols: &[usize], key_width: usize) -> (KeyInterner, Vec<u64>) {
    let mut groups = KeyInterner::new(cols.len());
    let mut counts: Vec<u64> = Vec::new();
    for row in rows {
        if cols[..key_width].iter().any(|&c| row[c].is_null()) {
            continue;
        }
        let slot = groups.intern(row, cols) as usize;
        if slot == counts.len() {
            counts.push(0);
        }
        counts[slot] += 1;
    }
    (groups, counts)
}

/// The column index a join key side (a column, [`crate::exec::join::JoinKey`])
/// names in its factor's schema.
fn column_in(side: &Expr, schema: &Schema) -> Result<usize> {
    let Expr::Column { qualifier, name } = side else {
        unreachable!("a join key side is a column")
    };
    schema.resolve(qualifier.as_deref(), name)
}

/// Where `col` sits in a live-column list.
fn position(live: &[Col], col: Col) -> usize {
    live.binary_search(&col).expect("a live column")
}
