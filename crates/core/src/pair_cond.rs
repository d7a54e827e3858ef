//! The pair conditions of the fused pass — `Q7`'s cluster condition and
//! `Q8`'s mining condition — evaluated on the pass's ids and key slots:
//! no `Clusters` or `MiningSource` row is built to evaluate them.

use std::collections::HashMap;
use std::ops::Range;

use relational::exec::join::{conjuncts, resolves_in};
use relational::expr::eval::NoCtx;
use relational::expr::{BinOp, Expr};
use relational::{CompiledExpr, KeyHash, Schema, Value};

use crate::error::Result;
use crate::runs::pack;

/// A condition over pairs of rows — `Q7`'s cluster condition over
/// `Clusters C1 × C2`, `Q8`'s mining condition over `MiningSource MB ×
/// MH` — split the way the SQL planner splits the WHERE clause it sits
/// in, so each part is evaluated on exactly the values the SQL program
/// evaluates it on: a conjunct that resolves on one side alone filters
/// that side (the left one first) before any pairing, `column = column`
/// across the sides is a hash-join key (equal under grouping equality,
/// NULL never matches, never an error), and the rest is one residual
/// predicate over the joined pairs. The rows are [`SideRow`]s, never
/// built, and a part that reads only the sides' keys runs once per
/// distinct key (or pair of keys): the same verdict on the same values.
pub(crate) struct PairCond {
    left: Vec<CompiledExpr>,
    right: Vec<CompiledExpr>,
    /// `(left position, right position)` per join key.
    keys: Vec<(usize, usize)>,
    residual: Option<CompiledExpr>,
    /// The positions of a side row's key.
    key: Range<usize>,
    /// When the join keys and the residual read only the two keys: the
    /// verdict per pair of key slots met so far.
    verdicts: Option<HashMap<u64, bool, KeyHash>>,
    /// Compiled evaluations made (`preprocess.cond.evaluated`).
    pub(crate) evaluated: u64,
    stack: Vec<Value>,
}

/// A `Clusters` or `MiningSource` row as a pair condition reads it: its
/// id columns, then the key its slot names, then (F) its aggregates.
pub(crate) struct SideRow<'a> {
    ids: [Value; 4],
    n: usize,
    key: &'a [Value],
    rest: &'a [Value],
}

impl<'a> SideRow<'a> {
    pub(crate) fn new(
        ids: impl IntoIterator<Item = Value>,
        key: &'a [Value],
        rest: &'a [Value],
    ) -> Self {
        let mut row = SideRow {
            ids: [(); 4].map(|_| Value::Null),
            n: 0,
            key,
            rest,
        };
        for id in ids {
            row.ids[row.n] = id;
            row.n += 1;
        }
        row
    }

    fn parts(&self) -> [&[Value]; 3] {
        [&self.ids[..self.n], self.key, self.rest]
    }

    fn col(&self, mut i: usize) -> &Value {
        for part in self.parts() {
            if i < part.len() {
                return &part[i];
            }
            i -= part.len();
        }
        panic!("column past the end of the row")
    }
}

impl PairCond {
    pub(crate) fn plan(cond: &Expr, left: &Schema, right: &Schema, key: Range<usize>) -> PairCond {
        let mut plan = PairCond {
            left: Vec::new(),
            right: Vec::new(),
            keys: Vec::new(),
            residual: None,
            key,
            verdicts: None,
            evaluated: 0,
            stack: Vec::new(),
        };
        let position = |e: &Expr, schema: &Schema| match e {
            Expr::Column { qualifier, name } => schema.resolve(qualifier.as_deref(), name).ok(),
            _ => None,
        };
        let (mut residual, mut unused_keys) = (Vec::new(), Vec::new());
        for conjunct in conjuncts(cond) {
            if resolves_in(conjunct, left) {
                plan.left
                    .push(CompiledExpr::compile(conjunct, left, &mut NoCtx));
            } else if resolves_in(conjunct, right) {
                plan.right
                    .push(CompiledExpr::compile(conjunct, right, &mut NoCtx));
            } else if let Expr::Binary {
                left: a,
                op: BinOp::Eq,
                right: b,
            } = conjunct
            {
                // A key needs each side to name a column of exactly one
                // row; anything else (an ambiguous or unknown name) stays
                // a predicate and fails when evaluated, as in SQL.
                let at = [
                    position(a, left),
                    position(a, right),
                    position(b, left),
                    position(b, right),
                ];
                match at {
                    [Some(l), None, None, Some(r)] | [None, Some(r), Some(l), None] => {
                        plan.keys.push((l, r))
                    }
                    _ if matches!((&**a, &**b), (Expr::Column { .. }, Expr::Column { .. })) => {
                        unused_keys.push(conjunct.clone())
                    }
                    _ => residual.push(conjunct.clone()),
                }
            } else {
                residual.push(conjunct.clone());
            }
        }
        residual.extend(unused_keys);
        plan.residual = Expr::conjoin(residual)
            .map(|pred| CompiledExpr::compile(&pred, &left.join(right), &mut NoCtx));
        // Both sides have one layout: the residual's column `c` is the
        // `c % width`th of its side.
        let width = left.len();
        let keys = plan.keys.iter().flat_map(|&(l, r)| [l, r]);
        let residual = plan.residual.iter().flat_map(CompiledExpr::columns);
        let keyed = keys
            .chain(residual.map(|c| c % width))
            .all(|c| plan.key.contains(&c));
        plan.verdicts = keyed.then(HashMap::default);
        plan
    }

    /// Per row `0..rows`, whether it may stand on the left (or right) of
    /// a pair: `eligible` first, then that side's conjuncts in order —
    /// once per key slot (`slot`) when they read only the key, else once
    /// per row.
    pub(crate) fn side<'a>(
        &mut self,
        left: bool,
        rows: usize,
        slot: impl Fn(usize) -> u32,
        row: impl Fn(usize) -> SideRow<'a>,
        eligible: impl Fn(usize) -> bool,
    ) -> Result<Vec<bool>> {
        let filters = if left { &self.left } else { &self.right };
        let keyed = filters
            .iter()
            .flat_map(CompiledExpr::columns)
            .all(|c| self.key.contains(&c));
        let mut memo: Vec<Option<bool>> = Vec::new();
        let mut verdicts = vec![false; rows];
        for at in (0..rows).filter(|&at| eligible(at)) {
            let unit = if keyed { slot(at) as usize } else { at };
            if unit >= memo.len() {
                memo.resize(unit + 1, None);
            }
            if memo[unit].is_none() {
                let row = row(at);
                let mut keep = true;
                for filter in filters {
                    self.evaluated += 1;
                    let verdict = filter.eval_parts(&row.parts(), &mut NoCtx, &mut self.stack)?;
                    keep = verdict.is_true();
                    if !keep {
                        break;
                    }
                }
                memo[unit] = Some(keep);
            }
            verdicts[at] = memo[unit] == Some(true);
        }
        Ok(verdicts)
    }

    /// Whether a pair meets the join keys and the residual — once per pair
    /// of key slots (`slots`) when they read only the keys. `rows` builds
    /// the pair's rows only when they are read.
    pub(crate) fn pair<'a>(
        &mut self,
        slots: (u32, u32),
        rows: impl FnOnce() -> [SideRow<'a>; 2],
    ) -> Result<bool> {
        if self.keys.is_empty() && self.residual.is_none() {
            return Ok(true);
        }
        let memo = pack(slots.0, slots.1);
        if let Some(&holds) = self.verdicts.as_ref().and_then(|v| v.get(&memo)) {
            return Ok(holds);
        }
        let [l, r] = rows();
        let key = |&(a, b): &(usize, usize)| !l.col(a).is_null() && l.col(a) == r.col(b);
        let mut holds = self.keys.iter().all(key);
        if let (true, Some(residual)) = (holds, &self.residual) {
            self.evaluated += 1;
            let ([a, b, c], [d, e, f]) = (l.parts(), r.parts());
            let verdict = residual.eval_parts(&[a, b, c, d, e, f], &mut NoCtx, &mut self.stack)?;
            holds = verdict.is_true();
        }
        if let Some(verdicts) = &mut self.verdicts {
            verdicts.insert(memo, holds);
        }
        Ok(holds)
    }
}

/// The kept cluster couples: per body cluster, one bit per cluster of
/// its group, set when the two form a couple.
pub(crate) struct Couples {
    /// Per cluster, its first bit as a body and its position in its group.
    base: Vec<usize>,
    pos: Vec<usize>,
    bits: Vec<u64>,
}

impl Couples {
    /// No couple yet among `clusters`, `(Cid, Gid, key slot)` each.
    pub(crate) fn new(clusters: &[(u32, u32, u32)], groups: usize) -> Couples {
        let mut size = vec![0; groups];
        let mut pos = Vec::with_capacity(clusters.len());
        for &(_, gid, _) in clusters {
            pos.push(size[gid as usize]);
            size[gid as usize] += 1;
        }
        let mut next = 0;
        let base = clusters.iter().map(|&(_, gid, _)| {
            next += size[gid as usize];
            next - size[gid as usize]
        });
        let base: Vec<usize> = base.collect();
        let bits = vec![0; next.div_ceil(64)];
        Couples { base, pos, bits }
    }

    pub(crate) fn insert(&mut self, body: usize, head: usize) {
        let bit = self.base[body] + self.pos[head];
        self.bits[bit / 64] |= 1 << (bit % 64);
    }

    pub(crate) fn contains(&self, body: usize, head: usize) -> bool {
        let bit = self.base[body] + self.pos[head];
        self.bits[bit / 64] >> (bit % 64) & 1 == 1
    }
}

/// The rows that may stand on the right of a pair, by Gid: the rows of
/// Gid `g` are `rows[start[g]..start[g + 1]]`, in row order.
pub(crate) struct ByGroup {
    start: Vec<usize>,
    rows: Vec<usize>,
}

impl ByGroup {
    /// Each row `at` with `right[at]` under its Gid, `gid(at)`, every Gid
    /// below `groups`.
    pub(crate) fn new(right: &[bool], gid: impl Fn(usize) -> u32, groups: usize) -> ByGroup {
        let kept = || (0..right.len()).filter(|&at| right[at]);
        let mut start = vec![0; groups + 1];
        for at in kept() {
            start[gid(at) as usize + 1] += 1;
        }
        for g in 0..groups {
            start[g + 1] += start[g];
        }
        let mut next = start.clone();
        let mut rows = vec![0; start[groups]];
        for at in kept() {
            let next = &mut next[gid(at) as usize];
            rows[*next] = at;
            *next += 1;
        }
        ByGroup { start, rows }
    }

    pub(crate) fn of(&self, gid: u32) -> &[usize] {
        &self.rows[self.start[gid as usize]..self.start[gid as usize + 1]]
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use relational::sql::parser::parse_expression;
    use relational::{Column, DataType};

    use super::*;

    /// `(Gid, Bid, price, qty)` on both sides, the key `(price, qty)`.
    fn plan(cond: &str) -> PairCond {
        let columns = ["Gid", "Bid", "price", "qty"].map(|c| Column::new(c, DataType::Int));
        let schema = Schema::new(columns.to_vec());
        let cond = parse_expression(cond).unwrap();
        PairCond::plan(
            &cond,
            &schema.with_qualifier("MB"),
            &schema.with_qualifier("MH"),
            2..4,
        )
    }

    /// Row `at`: Gid `at`, Bid `10 + at`, and the key of `slot(at)`.
    const KEYS: [[Value; 2]; 3] = [
        [Value::Int(150), Value::Int(1)],
        [Value::Int(50), Value::Int(2)],
        [Value::Null, Value::Int(3)],
    ];
    const SLOTS: [u32; 6] = [0, 1, 0, 1, 2, 0];

    fn row(at: usize) -> SideRow<'static> {
        let ids = [at as i64, 10 + at as i64].map(Value::Int);
        SideRow::new(ids, &KEYS[SLOTS[at] as usize], &[])
    }

    #[test]
    fn a_one_sided_conjunct_over_the_key_runs_once_per_distinct_key() {
        let mut cond = plan("MB.price >= 100 AND MH.qty < 3");
        let slot = |at: usize| SLOTS[at];
        let left = cond.side(true, 6, slot, row, |at| at != 3).unwrap();
        assert_eq!(left, [true, false, true, false, false, true]);
        assert_eq!(cond.evaluated, 3, "slots 0, 1 and 2");
        let right = cond.side(false, 6, slot, row, |at| at < 2).unwrap();
        assert_eq!(right, [true, true, false, false, false, false]);
        assert_eq!(cond.evaluated, 5);
    }

    #[test]
    fn a_one_sided_conjunct_over_an_id_runs_once_per_row() {
        let mut cond = plan("MB.Gid >= 2 AND MB.price >= 100");
        let left = cond.side(true, 6, |at| SLOTS[at], row, |_| true).unwrap();
        assert_eq!(left, [false, false, true, false, false, true]);
        // Both conjuncts on rows 2, 3, 4 and 5; the first alone on 0, 1.
        assert_eq!(cond.evaluated, 10);
    }

    #[test]
    fn a_residual_over_the_keys_runs_once_per_pair_of_keys() {
        let mut cond = plan("MB.price > MH.price");
        let built = Cell::new(0);
        let mut holds = |b: usize, h: usize| {
            let rows = || {
                built.set(built.get() + 1);
                [row(b), row(h)]
            };
            cond.pair((SLOTS[b], SLOTS[h]), rows).unwrap()
        };
        assert!(holds(0, 1));
        assert!(holds(2, 3), "the same keys: the kept verdict");
        assert!(!holds(1, 0));
        assert!(!holds(0, 4), "NULL is not TRUE");
        assert_eq!(built.get(), 3);
        assert_eq!(cond.evaluated, 3);
    }

    #[test]
    fn a_residual_over_an_id_runs_once_per_pair() {
        let mut cond = plan("MB.price > MH.price AND MB.Bid < MH.Bid");
        assert!(cond.pair((0, 1), || [row(0), row(1)]).unwrap());
        assert!(!cond.pair((0, 1), || [row(2), row(1)]).unwrap());
        assert_eq!(cond.evaluated, 2);
    }

    #[test]
    fn a_join_key_never_matches_null() {
        let mut cond = plan("MB.price = MH.price");
        assert!(cond.pair((0, 0), || [row(0), row(2)]).unwrap());
        assert!(!cond.pair((0, 1), || [row(0), row(1)]).unwrap());
        assert!(!cond.pair((2, 2), || [row(4), row(4)]).unwrap());
        assert_eq!(cond.evaluated, 0, "a key is no compiled evaluation");
    }

    #[test]
    fn rows_by_group_and_couples() {
        let gids = [2, 1, 2, 2, 1];
        let right = [true, true, false, true, true];
        let by = ByGroup::new(&right, |at| gids[at], 3);
        assert_eq!(
            (by.of(0), by.of(1), by.of(2)),
            (&[][..], &[1, 4][..], &[0, 3][..])
        );
        let clusters = gids.map(|gid| (0, gid, 0));
        let mut couples = Couples::new(&clusters, 3);
        couples.insert(0, 3);
        couples.insert(4, 4);
        let kept = |b: usize, h: usize| couples.contains(b, h);
        assert!(kept(0, 3) && kept(4, 4));
        assert!(!kept(0, 0) && !kept(3, 0) && !kept(2, 3) && !kept(1, 4));
    }
}
