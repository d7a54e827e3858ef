//! Persistent hash indexes over base tables — the engine's access paths.
//!
//! The preprocessing programs of the paper's Appendix A join and group the
//! same encoded tables (`Source`, `ValidGroups`, `Bset`, `Hset`, ...) over
//! and over, and before this module every such operator rebuilt its hash
//! table from a full scan. A [`HashIndex`] is that hash table kept alive
//! in the catalog's shadow: built lazily the first time a column set is
//! used as an equi-join build key or a GROUP BY key, then reused by every
//! later statement until the table changes.
//!
//! Invalidation is by version, not by notification: every table carries a
//! globally-unique version stamp ([`crate::table::Table::version`]) that
//! changes on INSERT/UPDATE/DELETE/TRUNCATE, and an index remembers the
//! stamp it was built against. A lookup whose stamp disagrees discards the
//! entry and rebuilds — stale results are structurally impossible, even
//! across DROP/CREATE of a same-named table or a reload from disk, because
//! stamps are never reused.
//!
//! The index stores *every* key, including keys containing SQL NULL. The
//! GROUP BY consumer wants NULL groups; the equi-join consumer never
//! probes with a NULL key (SQL equality semantics skip them), so
//! NULL-containing entries are simply unreachable on that path.

use std::collections::HashMap;
use std::sync::Arc;

use crate::key::{KeyHash, KeyMap};
use crate::row::Row;
use crate::value::Value;

/// A hash index on one column set of one table snapshot.
///
/// `map` buckets row positions by key value; `order` lists the distinct
/// keys in first-seen row order. Both views are exactly what the two
/// consumers need: the equi-join probes `map`, and GROUP BY walks `order`
/// so grouped output keeps the same deterministic first-seen order as an
/// on-the-fly bucketing pass.
#[derive(Debug)]
pub struct HashIndex {
    /// Key value → positions of the rows carrying it, ascending.
    pub map: KeyMap<Vec<usize>>,
    /// Distinct keys in first-seen row order.
    pub order: Vec<Vec<Value>>,
    /// The table version this index was built against.
    pub version: u64,
}

impl HashIndex {
    /// Build an index over `rows` keyed by the given column positions.
    pub fn build(rows: &[Row], cols: &[usize], version: u64) -> HashIndex {
        let mut map: KeyMap<Vec<usize>> =
            KeyMap::with_capacity_and_hasher(rows.len(), KeyHash::default());
        let mut order: Vec<Vec<Value>> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(i),
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert(vec![i]);
                }
            }
        }
        HashIndex {
            map,
            order,
            version,
        }
    }

    /// Rough memory footprint in bytes (keys + row-position lists).
    pub fn approx_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for (key, rows) in &self.map {
            bytes += 16 * (2 * key.len() as u64) + 8 * rows.len() as u64;
        }
        bytes
    }
}

/// The per-database registry of live indexes, keyed by lowercase table
/// name and column positions. Entries are replaced on version mismatch and
/// purged when their table is dropped or recreated.
#[derive(Debug, Default)]
pub struct IndexRegistry {
    entries: HashMap<(String, Vec<usize>), Arc<HashIndex>>,
}

/// What [`IndexRegistry::get`] found, so the caller can account for the
/// lookup without the registry knowing about engine statistics.
pub enum IndexLookup {
    /// A live index at the requested version.
    Hit(Arc<HashIndex>),
    /// An entry existed but its version is stale; it has been removed.
    Stale,
    /// No entry for this table/column set.
    Miss,
}

impl IndexRegistry {
    /// Look up the index for `(table, cols)` at exactly `version`,
    /// discarding a stale entry.
    pub fn get(&mut self, table: &str, cols: &[usize], version: u64) -> IndexLookup {
        let key = (table.to_ascii_lowercase(), cols.to_vec());
        match self.entries.get(&key) {
            Some(ix) if ix.version == version => IndexLookup::Hit(Arc::clone(ix)),
            Some(_) => {
                self.entries.remove(&key);
                IndexLookup::Stale
            }
            None => IndexLookup::Miss,
        }
    }

    /// True when a live index exists for `(table, cols)` at exactly
    /// `version`. Read-only: stale entries are left for [`Self::get`].
    pub fn peek(&self, table: &str, cols: &[usize], version: u64) -> bool {
        let key = (table.to_ascii_lowercase(), cols.to_vec());
        matches!(self.entries.get(&key), Some(ix) if ix.version == version)
    }

    /// Store a freshly built index.
    pub fn put(&mut self, table: &str, cols: &[usize], index: Arc<HashIndex>) {
        self.entries
            .insert((table.to_ascii_lowercase(), cols.to_vec()), index);
    }

    /// Drop every index of one table (DROP TABLE / CREATE TABLE).
    pub fn purge_table(&mut self, table: &str) {
        let key = table.to_ascii_lowercase();
        self.entries.retain(|(t, _), _| *t != key);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no index is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn build_buckets_in_first_seen_order() {
        let rows = vec![row![2, "b"], row![1, "a"], row![2, "c"]];
        let ix = HashIndex::build(&rows, &[0], 7);
        assert_eq!(ix.order, vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        assert_eq!(ix.map[&vec![Value::Int(2)]], vec![0, 2]);
        assert_eq!(ix.map[&vec![Value::Int(1)]], vec![1]);
        assert_eq!(ix.version, 7);
        assert!(ix.approx_bytes() > 0);
    }

    #[test]
    fn null_keys_are_stored() {
        let rows = vec![vec![Value::Null], vec![Value::Int(1)]];
        let ix = HashIndex::build(&rows, &[0], 1);
        assert_eq!(ix.order.len(), 2);
        assert_eq!(ix.map[&vec![Value::Null]], vec![0]);
    }

    #[test]
    fn registry_hits_stale_and_purges() {
        let mut reg = IndexRegistry::default();
        let ix = Arc::new(HashIndex::build(&[row![1]], &[0], 5));
        reg.put("T", &[0], ix);
        assert!(matches!(reg.get("t", &[0], 5), IndexLookup::Hit(_)));
        assert!(matches!(reg.get("t", &[0], 6), IndexLookup::Stale));
        assert!(matches!(reg.get("t", &[0], 6), IndexLookup::Miss));
        let ix = Arc::new(HashIndex::build(&[row![1]], &[0], 6));
        reg.put("t", &[0], ix);
        assert_eq!(reg.len(), 1);
        reg.purge_table("T");
        assert!(reg.is_empty());
    }
}
