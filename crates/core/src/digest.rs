//! The grouped source of a simple-class statement, interned and
//! replayable.
//!
//! A [`SourceDigest`] works in *value space*: it maps each grouping key
//! and each item key to a small integer — through the very interners the
//! fused preprocess pass grouped by, moved in — and holds every group as a
//! sorted `(item id, row multiplicity)` vector. The fused pass builds it
//! from the one scan it makes anyway, so capturing a cold run reads no
//! source row.
//! Because the ids name *values*, not `Bset` identifiers, whatever is
//! expressed in them survives re-encoding, and a source-table delta
//! ([`relational::Table::changes_since`]) can be replayed onto it
//! (`SourceDigest::apply`). This module knows no cache: the preprocessor
//! builds digests, the session artifact store (`artifacts.rs`) keeps them.

use std::collections::{BTreeMap, HashMap};

use relational::{KeyInterner, TableDelta, Value};

/// One live group of a [`SourceDigest`].
#[derive(Debug, Clone, PartialEq)]
struct Group {
    /// False when a grouping attribute is NULL: the group counts towards
    /// `:totg` but supports no itemset (`Q4` never joins a NULL key).
    joins: bool,
    /// `(item id, row multiplicity)`, sorted by item id, multiplicities
    /// positive — an item belongs to the group while any row carries it,
    /// matching the preprocessor's DISTINCT.
    items: Vec<(u32, u32)>,
}

/// A replayable snapshot of a simple-class statement's grouped source,
/// interned: grouping keys and item (body-schema) keys map to first-seen
/// ids under the key equality SQL GROUP BY uses (`1` and `1.0`
/// unify, `0.0` and `-0.0` stay apart, NULLs group together), and each
/// group is a multiset of item ids. Built by the preprocessor's source
/// scan; the session artifact store replays source-table deltas onto it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDigest {
    /// The source-table version the snapshot stands for.
    version: u64,
    /// Grouping key → slot in `groups`, live groups only.
    group_ids: KeyInterner,
    /// Item key → item id. Ids are never retired.
    item_ids: KeyInterner,
    /// Per item id: false when an item attribute is NULL (never joins).
    item_joins: Vec<bool>,
    /// Group slots; `None` marks a deleted group (its slot is retired).
    groups: Vec<Option<Group>>,
    /// Source rows the snapshot stands for (sum of multiplicities).
    rows: u64,
}

fn key_joins(key: &[Value]) -> bool {
    !key.iter().any(Value::is_null)
}

impl SourceDigest {
    /// Assemble a digest from a scan's interners, its distinct
    /// `(group slot, item id)` pairs, and one more entry in `repeats` for
    /// every further source row of a pair.
    pub(crate) fn new(
        version: u64,
        group_ids: KeyInterner,
        item_ids: KeyInterner,
        pairs: &[(u32, u32)],
        repeats: &[(u32, u32)],
    ) -> SourceDigest {
        let joins = |keys: &KeyInterner| -> Vec<bool> { keys.keys().map(key_joins).collect() };
        let mut sizes = vec![0usize; group_ids.slots() as usize];
        for &(g, _) in pairs {
            sizes[g as usize] += 1;
        }
        let mut groups: Vec<Group> = joins(&group_ids)
            .into_iter()
            .zip(sizes)
            .map(|(joins, n)| Group {
                joins,
                items: Vec::with_capacity(n),
            })
            .collect();
        for &(g, item) in pairs {
            groups[g as usize].items.push((item, 1));
        }
        for group in &mut groups {
            group.items.sort_unstable();
        }
        for &(g, item) in repeats {
            let items = &mut groups[g as usize].items;
            let at = items
                .binary_search_by_key(&item, |&(i, _)| i)
                .expect("a repeated pair follows its first occurrence");
            items[at].1 += 1;
        }
        SourceDigest {
            version,
            item_joins: joins(&item_ids),
            group_ids,
            item_ids,
            groups: groups.into_iter().map(Some).collect(),
            rows: (pairs.len() + repeats.len()) as u64,
        }
    }

    /// The source-table version the snapshot stands for.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Source rows the snapshot stands for.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// Live groups (`:totg` of the snapshot).
    pub(crate) fn live_groups(&self) -> u64 {
        self.group_ids.len() as u64
    }

    /// Group slots ever assigned, retired ones included.
    pub(crate) fn slots(&self) -> u32 {
        self.groups.len() as u32
    }

    /// Item ids ever assigned (ids are dense and never retired).
    pub(crate) fn items(&self) -> usize {
        self.item_joins.len()
    }

    /// The id of the item key `row` holds at `cols`, if any source row
    /// ever carried it.
    pub(crate) fn item_id(&self, row: &[Value], cols: &[usize]) -> Option<u32> {
        self.item_ids.get(row, cols)
    }

    /// The ids, ascending, of the items a group contributes to itemset
    /// supports: none for a retired or NULL-keyed group.
    pub(crate) fn items_of(&self, slot: u32) -> impl Iterator<Item = u32> + '_ {
        let group = self.groups[slot as usize].as_ref().filter(|g| g.joins);
        group
            .into_iter()
            .flat_map(|g| g.items.iter().map(|&(item, _)| item))
            .filter(|&item| self.item_joins[item as usize])
    }

    pub(crate) fn item_set(&self, slot: u32) -> Vec<u32> {
        self.items_of(slot).collect()
    }

    /// Replay a table delta that brings the source to `version`: inserted
    /// rows join (or open) their group, deleted rows leave it, a group
    /// left without rows is retired. Returns the pre-delta item set of
    /// every touched slot, or `None` when a deleted row cannot be
    /// accounted for (the digest and the table diverged — never expected,
    /// but never cache through it). The digest is torn after a `None`.
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
        let mut before: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for row in &delta.inserted {
            // A key not mapped — a retired group's included — takes the
            // next slot, which is the next position of the vector.
            let slot = self.group_ids.intern(row, group_cols);
            if slot as usize == self.groups.len() {
                self.groups.push(Some(Group {
                    joins: key_joins(self.group_ids.key(slot)),
                    items: Vec::new(),
                }));
            }
            let item = self.item_ids.intern(row, item_cols);
            if item as usize == self.item_joins.len() {
                self.item_joins.push(key_joins(self.item_ids.key(item)));
            }
            before.entry(slot).or_insert_with(|| self.item_set(slot));
            let items = &mut self.groups[slot as usize].as_mut()?.items;
            match items.binary_search_by_key(&item, |&(i, _)| i) {
                Ok(at) => items[at].1 += 1,
                Err(at) => items.insert(at, (item, 1)),
            }
            self.rows += 1;
        }
        for row in &delta.deleted {
            let slot = self.group_ids.get(row, group_cols)?;
            let item = self.item_ids.get(row, item_cols)?;
            before.entry(slot).or_insert_with(|| self.item_set(slot));
            let items = &mut self.groups[slot as usize].as_mut()?.items;
            let at = items.binary_search_by_key(&item, |&(i, _)| i).ok()?;
            items[at].1 -= 1;
            if items[at].1 == 0 {
                items.remove(at);
            }
            self.rows -= 1;
            if items.is_empty() {
                self.groups[slot as usize] = None;
                self.group_ids.retire(slot);
            }
        }
        self.version = version;
        Some(before)
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
        let groups: u64 = self
            .groups
            .iter()
            .map(|g| 32 + g.as_ref().map_or(0, |g| g.items.len() as u64 * 8))
            .sum();
        dictionaries + groups + self.item_joins.len() as u64
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
                let group = self.groups[slot as usize].as_ref();
                let items = group.map_or(&[][..], |g| &g.items[..]);
                let mut items: Vec<String> = items
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
        let items_of = |d: &SourceDigest, slot: u32| d.groups[slot as usize].clone().unwrap().items;
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
            inserted: Vec::new(),
            deleted: vec![row(Value::Int(1), "1"), row(Value::Float(1.0), "1")],
        };
        let before = digest.apply(&gone, 0, &[0], &[1]).unwrap();
        assert_eq!(before, BTreeMap::from([(ones, vec![one])]));
        assert_eq!(digest.live_groups(), 4);
        assert_eq!(digest.group_ids.get(&[Value::Int(1)], &[0]), None);
        assert_eq!(digest.groups[ones as usize], None);
        let back = TableDelta {
            inserted: vec![row(Value::Int(1), "a"), row(Value::Float(1.0), "1")],
            deleted: Vec::new(),
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
}
