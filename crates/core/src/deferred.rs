//! The encoded tables the fused pass registers unbuilt.
//!
//! The core mines from the [`EncodedInput`] the fused pass hands over, so
//! an encoded table that nothing in the pipeline reads would be built for
//! users' SQL alone. Each such table is registered as a
//! [`DeferredTable`](relational::DeferredTable) over one of the producers
//! below: a few ids per row kept from the pass's own record, turned into
//! rows — bit-identical to the ones the SQL program writes, in the same
//! order — the first time something reads the table.

use std::sync::Arc;

use relational::{KeyInterner, Row, RowProducer, Value};

use crate::digest::SourceDigest;
use crate::encoded::{EncodedData, EncodedInput, GeneralTuple};

fn id(id: u32) -> Value {
    Value::Int(id.into())
}

/// Bytes an interner's keys take, one `Value` each plus a slot's share
/// of the probe table.
fn interner_bytes(keys: &KeyInterner) -> u64 {
    keys.keys().map(|key| 16 + key.len() as u64 * 24).sum()
}

/// Where the group keys of `ValidGroups` live.
pub(crate) enum GroupKeys {
    /// The scan's own interner, moved in.
    Scan(KeyInterner),
    /// The digest the scan's interner moved into (statements without
    /// directives), shared with the handed-over input and the artifact
    /// store's inventory, which account for it.
    Digest(Arc<SourceDigest>),
}

/// `ValidGroups`: `(Gid, group key...)` for every group slot that drew a
/// Gid, in slot order.
pub(crate) struct ValidGroupsRows {
    pub(crate) keys: GroupKeys,
    pub(crate) gids: Vec<Option<u32>>,
}

impl RowProducer for ValidGroupsRows {
    fn rows(&self) -> Vec<Row> {
        let key = |slot: u32| match &self.keys {
            GroupKeys::Scan(keys) => keys.key(slot),
            GroupKeys::Digest(digest) => digest.group_key(slot),
        };
        (0..)
            .zip(&self.gids)
            .filter_map(|(slot, gid)| {
                let key = key(slot);
                let mut row = Vec::with_capacity(key.len() + 1);
                row.push(id((*gid)?));
                row.extend_from_slice(key);
                Some(row)
            })
            .collect()
    }

    fn retained_bytes(&self) -> u64 {
        let keys = match &self.keys {
            GroupKeys::Scan(keys) => interner_bytes(keys),
            GroupKeys::Digest(_) => 0,
        };
        keys + self.gids.len() as u64 * 8
    }
}

/// Where the distinct `(group slot, body slot)` pairs of `CodedSource`
/// live.
pub(crate) enum Pairs {
    /// The scan's own pairs, moved in.
    Scan(Vec<(u32, u32)>),
    /// The digest the scan's pairs moved into (statements without
    /// directives), shared like [`GroupKeys::Digest`].
    Digest(Arc<SourceDigest>),
}

/// The simple-class `CodedSource`: `(Gid, Bid)` for every distinct
/// `(group slot, body slot)` pair of the scan, in first-seen order, whose
/// group and body both join. This is the source-scan join of `Q4`
/// replayed: first-occurrence order in the source, each pair matching at
/// most one group and one large body (slot ↔ id is one-to-one, so
/// distinct slot pairs are exactly the DISTINCT `(Gid, Bid)` rows).
pub(crate) struct CodedSourceRows {
    pub(crate) pairs: Pairs,
    /// Per group slot, the Gid its rows join to.
    pub(crate) gids: Vec<Option<u32>>,
    /// Per body slot, the Bid its rows join to.
    pub(crate) bids: Vec<Option<u32>>,
}

impl CodedSourceRows {
    /// The ids of each row.
    fn ids(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (gids, bids) = (&self.gids, &self.bids);
        let pairs = match &self.pairs {
            Pairs::Scan(pairs) => &pairs[..],
            Pairs::Digest(digest) => digest.pairs(),
        };
        pairs
            .iter()
            .filter_map(|&(group, body)| Some((gids[group as usize]?, bids[body as usize]?)))
    }

    /// Rows the table has.
    pub(crate) fn len(&self) -> usize {
        self.ids().count()
    }
}

impl RowProducer for CodedSourceRows {
    fn rows(&self) -> Vec<Row> {
        self.ids()
            .map(|(gid, bid)| vec![id(gid), id(bid)])
            .collect()
    }

    fn retained_bytes(&self) -> u64 {
        let pairs = match &self.pairs {
            Pairs::Scan(pairs) => pairs.len(),
            Pairs::Digest(_) => 0,
        };
        (pairs + self.gids.len() + self.bids.len()) as u64 * 8
    }
}

/// `Clusters`: `(Cid, Gid, cluster key..., aggval...)` per row, the key
/// by its slot in the scan's interner and the aggregates (F) `width` to
/// a row.
pub(crate) struct ClustersRows {
    pub(crate) keys: KeyInterner,
    /// `(Cid, Gid, cluster-key slot)` per row.
    pub(crate) rows: Vec<(u32, u32, u32)>,
    pub(crate) aggvals: Vec<Value>,
    pub(crate) width: usize,
}

impl RowProducer for ClustersRows {
    fn rows(&self) -> Vec<Row> {
        (0..)
            .zip(&self.rows)
            .map(|(at, &(cid, gid, slot))| {
                let key = self.keys.key(slot);
                let mut row = Vec::with_capacity(key.len() + 2 + self.width);
                row.extend([id(cid), id(gid)]);
                row.extend_from_slice(key);
                row.extend_from_slice(&self.aggvals[at * self.width..][..self.width]);
                row
            })
            .collect()
    }

    fn retained_bytes(&self) -> u64 {
        interner_bytes(&self.keys) + self.rows.len() as u64 * 12 + self.aggvals.len() as u64 * 24
    }
}

/// One `MiningSource` row of a statement with a mining condition, as
/// ids: its tuple, its `Clusters` row (0 without C) and the slot of its
/// mining attributes.
#[derive(Clone, Copy)]
pub(crate) struct Coded {
    pub(crate) cluster: u32,
    pub(crate) tuple: GeneralTuple,
    pub(crate) mining: u32,
}

/// The id columns of a `MiningSource` row: Gid, Cid (C), Bid, and Hid
/// (H), a side's missing item id NULL.
pub(crate) fn tuple_ids(tuple: &GeneralTuple, h: bool) -> impl Iterator<Item = Value> {
    let nullable = |id: Option<u32>| id.map_or(Value::Null, self::id);
    let hid = h.then(|| nullable(tuple.hid));
    let ids = [
        Some(id(tuple.gid)),
        tuple.cid.map(id),
        Some(nullable(tuple.bid)),
        hid,
    ];
    ids.into_iter().flatten()
}

/// `MiningSource`.
pub(crate) enum MiningSourceRows {
    /// Without a mining condition its rows are the general input's
    /// tuples one for one, so the handed-over input is all it keeps.
    Input(Arc<EncodedInput>),
    /// With one, each row's ids and the mining attributes by their slot
    /// in the scan's interner.
    Coded {
        rows: Vec<Coded>,
        minings: KeyInterner,
        h: bool,
    },
}

impl RowProducer for MiningSourceRows {
    fn rows(&self) -> Vec<Row> {
        let row = |tuple: &GeneralTuple, h: bool, key: &[Value]| {
            let mut row = Vec::with_capacity(4 + key.len());
            row.extend(tuple_ids(tuple, h));
            row.extend_from_slice(key);
            row
        };
        match self {
            MiningSourceRows::Input(input) => {
                let EncodedData::General { tuples, .. } = &input.data else {
                    return Vec::new();
                };
                let h = input.directives.h;
                tuples.iter().map(|tuple| row(tuple, h, &[])).collect()
            }
            MiningSourceRows::Coded { rows, minings, h } => rows
                .iter()
                .map(|c| row(&c.tuple, *h, minings.key(c.mining)))
                .collect(),
        }
    }

    fn retained_bytes(&self) -> u64 {
        match self {
            MiningSourceRows::Input(_) => 0,
            MiningSourceRows::Coded { rows, minings, .. } => {
                interner_bytes(minings) + (rows.len() * std::mem::size_of::<Coded>()) as u64
            }
        }
    }
}

/// A table of id columns only (`ClusterCouples`, `InputRules`): the ids
/// row-major, `width` to a row.
pub(crate) struct IdRows {
    pub(crate) width: usize,
    pub(crate) ids: Vec<u32>,
}

impl IdRows {
    pub(crate) fn len(&self) -> usize {
        self.ids.len() / self.width
    }
}

impl RowProducer for IdRows {
    fn rows(&self) -> Vec<Row> {
        self.ids
            .chunks_exact(self.width)
            .map(|ids| ids.iter().copied().map(id).collect())
            .collect()
    }

    fn retained_bytes(&self) -> u64 {
        self.ids.len() as u64 * 4
    }
}
