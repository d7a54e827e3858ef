//! The grouped source of a simple-class statement, interned, replayable
//! and in scan order: what its encoding is derived from.
//!
//! A [`SourceDigest`] works in *value space*: it maps each grouping key
//! and each item key to a small integer — through the very interners the
//! fused preprocess pass grouped by, moved in — and holds every group as a
//! sorted run of `(item id, row multiplicity)` entries in one arena, plus
//! the distinct `(group, item)` pairs in the order of the source rows
//! that first carry them.
//! The fused pass builds it from the one scan it makes anyway, and derives
//! the whole encoding of a statement without directives from it: slots
//! and ids are first-seen, so Gids, Bids, `ngroups` and the row order of
//! `ValidGroups`, `Bset` and `CodedSource` are functions of the pair order
//! and the keys (`preprocess::FusedEncoding::derive`).
//!
//! Because the ids name *values*, not `Bset` identifiers, whatever is
//! expressed in them survives re-encoding, and a source-table delta
//! ([`relational::Table::changes_since`]) can be replayed onto it
//! (`SourceDigest::apply`). A replay keeps the pair order exact where the
//! delta tells it — an appended row's new pair goes last, a pair whose
//! last row goes leaves — and gives the order up for good where it does
//! not (a row deleted while a twin stays, a row updated in place, a first
//! appearance moved past another's); the multiset stays exact either way.
//! An ordered digest re-derives the encoding without reading a source
//! row. This module knows no cache: the preprocessor builds digests, the
//! session artifact store (`artifacts.rs`) keeps and replays them.

use std::collections::{BTreeMap, HashMap};

use relational::{KeyInterner, TableDelta, Value};

/// One live group of a [`SourceDigest`]: where its run lies in the
/// digest's arena.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// False when a grouping attribute is NULL: the group counts towards
    /// `:totg` but supports no itemset (`Q4` never joins a NULL key).
    joins: bool,
    /// The run is `runs[start..start + len]`; the `room - len` entries
    /// after it are the run's to grow into.
    start: u32,
    len: u32,
    room: u32,
}

impl Group {
    fn span(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Spare entries the arena tolerates beyond its live ones before a
/// replay compacts it.
const SPARE_SLACK: usize = 4096;

/// A replayable snapshot of a simple-class statement's grouped source,
/// interned: grouping keys and item (body-schema) keys map to first-seen
/// ids under the key equality SQL GROUP BY uses (`1` and `1.0`
/// unify, `0.0` and `-0.0` stay apart, NULLs group together), and each
/// group is a multiset of item ids. Built by the preprocessor's source
/// scan; the session artifact store replays source-table deltas onto it.
#[derive(Debug, Clone)]
pub struct SourceDigest {
    /// The source-table version the snapshot stands for.
    version: u64,
    /// Grouping key → slot in `groups`, live groups only.
    group_ids: KeyInterner,
    /// Item key → item id. Ids are never retired.
    item_ids: KeyInterner,
    /// Per item id: false when an item attribute is NULL (never joins).
    item_joins: Vec<bool>,
    /// Per item id: the live groups carrying it (its `ngroups`).
    item_groups: Vec<u32>,
    /// Group slots; `None` marks a deleted group (its slot is retired).
    groups: Vec<Option<Group>>,
    /// Every live group's `(item id, row multiplicity)` entries, sorted
    /// by item id, multiplicities positive — an item belongs to the group
    /// while any row carries it, matching the preprocessor's DISTINCT —
    /// one run per group. A run that outgrows its room moves to the end;
    /// what it leaves behind is spare until a replay compacts the arena.
    runs: Vec<(u32, u32)>,
    /// Entries in live runs: the distinct pairs of the live groups.
    live: usize,
    /// While `ordered`: every distinct `(group slot, item id)` pair of
    /// the live groups, in the order of the source rows that first carry
    /// them. Empty once the order is lost.
    pairs: Vec<(u32, u32)>,
    /// Whether `pairs` is the source's first-occurrence order and slots
    /// and ids number the live groups and the present items in the order
    /// they first appear there — what a scan of the source would assign.
    ordered: bool,
    /// Source rows the snapshot stands for (sum of multiplicities).
    rows: u64,
}

/// Equal snapshots: the same ids, keys, order and live runs, wherever
/// the arena holds the runs.
impl PartialEq for SourceDigest {
    fn eq(&self, other: &SourceDigest) -> bool {
        let same_groups = self.slots() == other.slots()
            && (0..self.slots()).all(|slot| {
                self.group(slot) == other.group(slot) && self.run(slot) == other.run(slot)
            });
        same_groups
            && self.version == other.version
            && self.group_ids == other.group_ids
            && self.item_ids == other.item_ids
            && self.item_joins == other.item_joins
            && self.item_groups == other.item_groups
            && self.pairs == other.pairs
            && self.ordered == other.ordered
            && self.rows == other.rows
    }
}

fn key_joins(key: &[Value]) -> bool {
    !key.iter().any(Value::is_null)
}

impl SourceDigest {
    /// Assemble a digest from a scan's interners, its distinct
    /// `(group slot, item id)` pairs in first-occurrence order (moved in),
    /// and one more entry in `repeats` for every further source row of a
    /// pair.
    ///
    /// The pairs are scattered item-major — a counting sort by item id,
    /// then each item's groups in turn — into one arena of exactly sized
    /// runs, so every run comes out sorted by item id without sorting a
    /// group, and no group owns an allocation.
    pub(crate) fn new(
        version: u64,
        group_ids: KeyInterner,
        item_ids: KeyInterner,
        pairs: Vec<(u32, u32)>,
        repeats: &[(u32, u32)],
    ) -> SourceDigest {
        let joins = |keys: &KeyInterner| -> Vec<bool> { keys.keys().map(key_joins).collect() };
        let mut sizes = vec![0u32; group_ids.slots() as usize];
        let mut item_groups = vec![0u32; item_ids.slots() as usize];
        for &(g, item) in &pairs {
            sizes[g as usize] += 1;
            item_groups[item as usize] += 1;
        }
        let starts = |sizes: &[u32]| -> Vec<u32> {
            let mut at = 0;
            sizes
                .iter()
                .map(|&n| {
                    at += n;
                    at - n
                })
                .collect()
        };
        let group_starts = starts(&sizes);
        // The pairs' group slots, counting-sorted by item id: item `i`'s
        // end at `item_ends[i]`.
        let mut item_ends = starts(&item_groups);
        let mut by_item = vec![0u32; pairs.len()];
        for &(g, item) in &pairs {
            let next = &mut item_ends[item as usize];
            by_item[*next as usize] = g;
            *next += 1;
        }
        // Each item's groups in turn: every run fills in item order.
        let mut fill = group_starts.clone();
        let mut runs = vec![(0u32, 0u32); pairs.len()];
        let mut from = 0;
        for (item, &to) in (0..).zip(&item_ends) {
            for &g in &by_item[from as usize..to as usize] {
                let next = &mut fill[g as usize];
                runs[*next as usize] = (item, 1);
                *next += 1;
            }
            from = to;
        }
        let groups = joins(&group_ids)
            .into_iter()
            .zip(sizes)
            .zip(group_starts)
            .map(|((joins, len), start)| {
                Some(Group {
                    joins,
                    start,
                    len,
                    room: len,
                })
            })
            .collect();
        let mut digest = SourceDigest {
            version,
            item_joins: joins(&item_ids),
            item_groups,
            group_ids,
            item_ids,
            groups,
            runs,
            live: pairs.len(),
            rows: (pairs.len() + repeats.len()) as u64,
            pairs,
            ordered: true,
        };
        for &(g, item) in repeats {
            let run = digest.run_mut(g).expect("a repeated pair's group is live");
            let at = run
                .binary_search_by_key(&item, |&(i, _)| i)
                .expect("a repeated pair follows its first occurrence");
            run[at].1 += 1;
        }
        digest
    }

    /// The `(item id, multiplicity)` run of a group slot: empty for a
    /// retired slot.
    fn run(&self, slot: u32) -> &[(u32, u32)] {
        match &self.groups[slot as usize] {
            Some(group) => &self.runs[group.span()],
            None => &[],
        }
    }

    fn run_mut(&mut self, slot: u32) -> Option<&mut [(u32, u32)]> {
        let span = self.groups[slot as usize].as_ref()?.span();
        Some(&mut self.runs[span])
    }

    /// Add one row of `item` to a live group: `Some(true)` when the item
    /// is new to it. A run without room moves to the end of the arena
    /// with twice the room.
    fn add(&mut self, slot: u32, item: u32) -> Option<bool> {
        let mut group = self.groups[slot as usize]?;
        let at = match self.runs[group.span()].binary_search_by_key(&item, |&(i, _)| i) {
            Ok(at) => {
                self.runs[group.start as usize + at].1 += 1;
                return Some(false);
            }
            Err(at) => at,
        };
        if group.len == group.room {
            let start = self.runs.len();
            group.room = (2 * group.len).max(4);
            self.runs.extend_from_within(group.span());
            self.runs.resize(start + group.room as usize, (0, 0));
            group.start = start as u32;
        }
        let span = group.span();
        self.runs
            .copy_within(span.start + at..span.end, span.start + at + 1);
        self.runs[span.start + at] = (item, 1);
        group.len += 1;
        self.groups[slot as usize] = Some(group);
        self.live += 1;
        Some(true)
    }

    /// Take one row of `item` from a live group: `Some(true)` when it was
    /// the item's last row there, `None` when the group holds no such row.
    fn remove(&mut self, slot: u32, item: u32) -> Option<bool> {
        let group = self.groups[slot as usize].as_mut()?;
        let run = &mut self.runs[group.span()];
        let at = run.binary_search_by_key(&item, |&(i, _)| i).ok()?;
        run[at].1 -= 1;
        if run[at].1 > 0 {
            return Some(false);
        }
        run.copy_within(at + 1.., at);
        group.len -= 1;
        self.live -= 1;
        Some(true)
    }

    /// Move the live runs together, each with no room to spare.
    fn compact(&mut self) {
        let mut runs = Vec::with_capacity(self.live);
        for group in self.groups.iter_mut().flatten() {
            let start = runs.len() as u32;
            runs.extend_from_slice(&self.runs[group.span()]);
            (group.start, group.room) = (start, group.len);
        }
        self.runs = runs;
    }

    /// The source-table version the snapshot stands for.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Source rows the snapshot stands for.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// Whether the digest still knows the source's first-occurrence
    /// order, so an encoding can be derived from it.
    pub(crate) fn ordered(&self) -> bool {
        self.ordered
    }

    /// The distinct pairs in first-occurrence order (empty once the order
    /// is lost).
    pub(crate) fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Distinct `(group, item)` pairs of the live groups.
    pub(crate) fn live_pairs(&self) -> usize {
        self.live
    }

    /// Live groups (`:totg` of the snapshot).
    pub(crate) fn live_groups(&self) -> u64 {
        self.group_ids.len() as u64
    }

    /// Group slots ever assigned, retired ones included.
    pub(crate) fn slots(&self) -> u32 {
        self.groups.len() as u32
    }

    /// Whether a group slot is live, and whether its group joins.
    pub(crate) fn group(&self, slot: u32) -> Option<bool> {
        self.groups[slot as usize].as_ref().map(|g| g.joins)
    }

    /// Item ids ever assigned (ids are dense and never retired).
    pub(crate) fn items(&self) -> usize {
        self.item_joins.len()
    }

    /// The key of an item id and how many live groups carry it.
    pub(crate) fn item(&self, item: u32) -> (&[Value], u32) {
        (self.item_ids.key(item), self.item_groups[item as usize])
    }

    /// The grouping key of a group slot (a retired slot keeps its key).
    pub(crate) fn group_key(&self, slot: u32) -> &[Value] {
        self.group_ids.key(slot)
    }

    /// The id of the item key `row` holds at `cols`, if any source row
    /// ever carried it.
    pub(crate) fn item_id(&self, row: &[Value], cols: &[usize]) -> Option<u32> {
        self.item_ids.get(row, cols)
    }

    /// The ids, ascending, of the items a group contributes to itemset
    /// supports: none for a retired or NULL-keyed group.
    pub(crate) fn items_of(&self, slot: u32) -> impl Iterator<Item = u32> + '_ {
        let joins = self.groups[slot as usize].is_some_and(|g| g.joins);
        let run = if joins { self.run(slot) } else { &[] };
        run.iter()
            .map(|&(item, _)| item)
            .filter(|&item| self.item_joins[item as usize])
    }

    pub(crate) fn item_set(&self, slot: u32) -> Vec<u32> {
        self.items_of(slot).collect()
    }

    /// How many distinct pairs join: a group whose key holds no NULL and
    /// an item `bids` gives an id (the rows of `CodedSource`).
    pub(crate) fn joined_pairs(&self, bids: &[Option<u32>]) -> usize {
        let with_id = |item: &u32| bids[*item as usize].is_some();
        let carried: usize = (0..self.items() as u32)
            .filter(with_id)
            .map(|item| self.item_groups[item as usize] as usize)
            .sum();
        let unjoined = self.groups.iter().flatten().filter(|g| !g.joins);
        let unjoined: usize = unjoined
            .map(|g| {
                self.runs[g.span()]
                    .iter()
                    .filter(|(item, _)| with_id(item))
                    .count()
            })
            .sum();
        carried - unjoined
    }

    /// Replay a table delta that brings the source to `version`: inserted
    /// rows join (or open) their group, deleted rows leave it, a group
    /// left without rows is retired. Returns the pre-delta item set of
    /// every touched slot, or `None` when a deleted row cannot be
    /// accounted for (the digest and the table diverged — never expected,
    /// but never cache through it). The digest is torn after a `None`.
    ///
    /// The pair order stays exact where the delta says where rows went:
    /// an inserted row's new pair is appended (the table appends it), a
    /// pair whose last row is deleted leaves. It is lost for good when a
    /// row is updated in place, when a deleted row leaves a twin behind
    /// (which row was first is unknown), or when a departed pair was a
    /// group's or an item's first appearance and the one after it comes
    /// later than another's.
    pub(crate) fn apply(
        &mut self,
        delta: &TableDelta,
        version: u64,
        group_cols: &[usize],
        item_cols: &[usize],
    ) -> Option<BTreeMap<u32, Vec<u32>>> {
        let width = group_cols
            .iter()
            .chain(item_cols)
            .max()
            .map_or(0, |m| m + 1);
        if delta
            .inserted
            .iter()
            .chain(&delta.deleted)
            .any(|row| row.len() < width)
        {
            return None; // schema drift
        }
        if delta.replaced {
            self.lose_order();
        }
        let mut before: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        // Whether an appended pair brought back an item no live group
        // held: its first appearance moved to the end.
        let mut returned = false;
        for row in &delta.inserted {
            // A key not mapped — a retired group's included — takes the
            // next slot, which is the next position of the vector.
            let slot = self.group_ids.intern(row, group_cols);
            if slot as usize == self.groups.len() {
                self.groups.push(Some(Group {
                    joins: key_joins(self.group_ids.key(slot)),
                    start: self.runs.len() as u32,
                    len: 0,
                    room: 0,
                }));
            }
            let item = self.item_ids.intern(row, item_cols);
            if item as usize == self.item_joins.len() {
                self.item_joins.push(key_joins(self.item_ids.key(item)));
                self.item_groups.push(0);
            }
            before.entry(slot).or_insert_with(|| self.item_set(slot));
            if self.add(slot, item)? {
                let holders = &mut self.item_groups[item as usize];
                returned |= *holders == 0 && item + 1 < self.item_joins.len() as u32;
                *holders += 1;
                if self.ordered {
                    self.pairs.push((slot, item));
                }
            }
            self.rows += 1;
        }
        let mut departed: Vec<(u32, u32)> = Vec::new();
        for row in &delta.deleted {
            let slot = self.group_ids.get(row, group_cols)?;
            let item = self.item_ids.get(row, item_cols)?;
            before.entry(slot).or_insert_with(|| self.item_set(slot));
            let twin = !self.remove(slot, item)?;
            let emptied = self.run(slot).is_empty();
            self.rows -= 1;
            if twin {
                self.lose_order();
            } else {
                self.item_groups[item as usize] -= 1;
                departed.push((slot, item));
            }
            if emptied {
                self.groups[slot as usize] = None;
                self.group_ids.retire(slot);
            }
        }
        if self.ordered && (returned || !departed.is_empty()) && !self.drop_pairs(departed) {
            self.lose_order();
        }
        if self.runs.len() > 2 * self.live + SPARE_SLACK {
            self.compact();
        }
        self.version = version;
        Some(before)
    }

    /// Give the pair order up for good.
    fn lose_order(&mut self) {
        self.ordered = false;
        self.pairs = Vec::new();
    }

    /// Remove the `departed` pairs from the order, in one pass that also
    /// checks what is left: whether the live groups and the present items
    /// still first appear in slot and id order. Returns that verdict.
    fn drop_pairs(&mut self, mut departed: Vec<(u32, u32)>) -> bool {
        departed.sort_unstable();
        let mut touched = vec![false; self.groups.len()];
        for &(slot, _) in &departed {
            touched[slot as usize] = true;
        }
        let mut group_seen = vec![false; self.groups.len()];
        let mut item_seen = vec![false; self.item_joins.len()];
        // The last first appearance of each kind, plus one.
        let (mut group_next, mut item_next) = (0u32, 0u32);
        let mut in_order = true;
        self.pairs.retain(|&(slot, item)| {
            if touched[slot as usize] && departed.binary_search(&(slot, item)).is_ok() {
                return false;
            }
            for (seen, next, id) in [
                (&mut group_seen, &mut group_next, slot),
                (&mut item_seen, &mut item_next, item),
            ] {
                if !std::mem::replace(&mut seen[id as usize], true) {
                    in_order &= id >= *next;
                    *next = id + 1;
                }
            }
            true
        });
        in_order
    }

    /// Rough retained size, for the bytes gauge.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let key_bytes = |(_, key): (u32, &[Value])| -> u64 {
            48 + key
                .iter()
                .map(|v| match v {
                    Value::Str(s) => 24 + s.len() as u64,
                    _ => 24,
                })
                .sum::<u64>()
        };
        let dictionaries: u64 = self
            .group_ids
            .iter()
            .chain(self.item_ids.iter())
            .map(key_bytes)
            .sum();
        let groups = self.groups.len() as u64 * 16 + self.runs.len() as u64 * 8;
        dictionaries + groups + self.pairs.len() as u64 * 8 + self.item_joins.len() as u64 * 5
    }

    /// Every live group rendered as `grouping key: [item key x
    /// multiplicity]`, both levels sorted: slot and item ids are
    /// first-seen, so two digests of the same source — whatever its row
    /// order — compare through their keys.
    pub fn by_key(&self) -> Vec<String> {
        let key_of_item: HashMap<u32, &[Value]> = self.item_ids.iter().collect();
        let mut groups: Vec<String> = self
            .group_ids
            .iter()
            .map(|(slot, key)| {
                let mut items: Vec<String> = self
                    .run(slot)
                    .iter()
                    .map(|&(item, n)| format!("{:?} x {n}", key_of_item[&item]))
                    .collect();
                items.sort();
                format!("{key:?}: {items:?}")
            })
            .collect();
        groups.sort();
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_mine_rule;
    use crate::preprocess::scan_source;
    use relational::Database;

    /// The digest keys by SQL grouping equality — what the preprocessor
    /// groups by — so types never alias (`1` is not `'1'`), numerics
    /// unify (`1` is `1.0`), signed zeros stay apart and NULLs group
    /// together without ever joining.
    #[test]
    fn digest_keys_follow_sql_grouping_equality() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (g FLOAT, item VARCHAR)")
            .unwrap();
        db.execute(
            "INSERT INTO T VALUES (1, '1'), (1.0, '1'), (0.0, 'a'), (-0.0, 'a'), \
             (NULL, 'a'), (NULL, NULL), (2.5, NULL)",
        )
        .unwrap();
        let stmt = parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM T GROUP BY g \
             EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
        )
        .unwrap();
        let mut digest = scan_source(&db, &stmt).unwrap().into_digest().unwrap();
        assert_eq!(digest.live_groups(), 5, "1|1.0, 0.0, -0.0, NULL, 2.5");
        assert_eq!(digest.rows, 7);
        let slot = |d: &SourceDigest, v: Value| d.group_ids.get(&[v], &[0]).unwrap();
        let item = |d: &SourceDigest, v: Value| d.item_ids.get(&[v], &[0]);
        let ones = slot(&digest, Value::Int(1));
        assert_eq!(ones, slot(&digest, Value::Float(1.0)));
        assert_ne!(
            slot(&digest, Value::Float(0.0)),
            slot(&digest, Value::Float(-0.0))
        );
        let one = item(&digest, Value::Str("1".into())).unwrap();
        assert_eq!(item(&digest, Value::Int(1)), None);
        // The `1|1.0` group holds item '1' twice; NULLs never join.
        let items_of = |d: &SourceDigest, slot: u32| d.run(slot).to_vec();
        assert_eq!(items_of(&digest, ones), vec![(one, 2)]);
        assert_eq!(digest.item_set(ones), vec![one]);
        assert!(digest.item_set(slot(&digest, Value::Null)).is_empty());
        assert!(digest.item_set(slot(&digest, Value::Float(2.5))).is_empty());
        let a = item(&digest, Value::Str("a".into())).unwrap();
        assert_eq!(digest.item_set(slot(&digest, Value::Float(0.0))), vec![a]);

        // Deleting a group's last row retires its slot; the same key —
        // under the same equality, so `1` for `1.0` — then opens a fresh
        // one, while item ids are never retired.
        let row = |g: Value, item: &str| vec![g, Value::Str(item.into())];
        let gone = TableDelta {
            deleted: vec![row(Value::Int(1), "1"), row(Value::Float(1.0), "1")],
            ..TableDelta::default()
        };
        let before = digest.apply(&gone, 0, &[0], &[1]).unwrap();
        assert_eq!(before, BTreeMap::from([(ones, vec![one])]));
        assert_eq!(digest.live_groups(), 4);
        assert_eq!(digest.group_ids.get(&[Value::Int(1)], &[0]), None);
        assert!(digest.groups[ones as usize].is_none());
        let back = TableDelta {
            inserted: vec![row(Value::Int(1), "a"), row(Value::Float(1.0), "1")],
            ..TableDelta::default()
        };
        let slots = digest.slots();
        let before = digest.apply(&back, 0, &[0], &[1]).unwrap();
        let reopened = slot(&digest, Value::Float(1.0));
        assert_eq!(reopened, slots, "a fresh slot, not the retired one");
        assert_eq!(before, BTreeMap::from([(reopened, vec![])]));
        assert_eq!(items_of(&digest, reopened), vec![(one, 1), (a, 1)]);
        assert_eq!((digest.live_groups(), digest.slots()), (5, slots + 1));
        assert_eq!(digest.rows, 7);
        // A deletion no row accounts for: the replay gives up.
        assert!(digest.apply(&gone, 0, &[0], &[1]).is_none());
    }

    /// Replayed inserts move full runs to the end of the arena, and a
    /// replay that leaves more spare entries than live ones compacts it:
    /// either way every group holds what a fresh scan of the same rows
    /// finds.
    #[test]
    fn replays_relocate_runs_and_compact_the_arena() {
        let row = |g: i64, item: &str| vec![Value::Int(g), Value::Str(item.into())];
        let digest_of = |rows: Vec<Vec<Value>>| {
            let mut db = Database::new();
            db.execute("CREATE TABLE T (g INT, item VARCHAR)").unwrap();
            db.catalog_mut()
                .table_mut("T")
                .unwrap()
                .insert_all(rows)
                .unwrap();
            let stmt = parse_mine_rule(
                "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM T \
                 GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
            )
            .unwrap();
            scan_source(&db, &stmt).unwrap().into_digest().unwrap()
        };
        let base = |g| [row(g, "b"), row(g, "a")];
        let mut digest = digest_of((0..3_000).flat_map(base).collect());
        assert_eq!((digest.runs.len(), digest.live), (6_000, 6_000));

        // Three new items in each of 100 groups: every run outgrows its
        // room and moves, twice; a repeated row only counts.
        let grown: Vec<Vec<Value>> = (0..100)
            .flat_map(|g| [row(g, "e"), row(g, "c"), row(g, "d"), row(g, "c")])
            .collect();
        let inserted = TableDelta {
            inserted: grown.clone(),
            ..TableDelta::default()
        };
        digest.apply(&inserted, 1, &[0], &[1]).unwrap();
        assert_eq!(digest.live, 6_300);
        assert!(digest.runs.len() > 6_300, "runs moved, leaving spare room");
        let id = |item| digest.item_ids.get(&row(0, item), &[1]).unwrap();
        let sorted = [("b", 1), ("a", 1), ("e", 1), ("c", 2), ("d", 1)].map(|(i, n)| (id(i), n));
        assert_eq!(digest.run(0), sorted, "ids are first-seen; runs sorted");

        // Retiring most groups leaves more spare entries than live ones.
        let deleted = TableDelta {
            deleted: (100..2_990).flat_map(base).collect(),
            ..TableDelta::default()
        };
        digest.apply(&deleted, 2, &[0], &[1]).unwrap();
        assert_eq!(digest.live, 5 * 100 + 2 * 10);
        assert_eq!(digest.runs.len(), digest.live, "compacted");

        let kept = (0..100).chain(2_990..3_000).flat_map(base);
        let rescanned = digest_of(kept.chain(grown).collect());
        assert_eq!(digest.by_key(), rescanned.by_key());
        assert_eq!(digest.live_groups(), rescanned.live_groups());
    }
}
