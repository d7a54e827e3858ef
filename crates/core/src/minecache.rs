//! Fingerprint-keyed cache of *mined results*: the interactive-session
//! companion of the preprocess artifact cache (`cache.rs`).
//!
//! Where [`crate::cache::PreprocessCache`] skips `Q0`..`Q8` on a rerun,
//! this cache skips the core operator itself, per *Interactive
//! Constrained Association Rule Mining* (Goethals & Van den Bussche):
//! a session keeps the frequent-itemset inventory of each mined
//! statement — every itemset with its exact group-support — and answers
//! refined reruns by *filtering*:
//!
//! * **Tightened support** (`min_groups' ≥ min_groups`): by
//!   anti-monotonicity the inventory filtered at the new threshold *is*
//!   the inventory a cold mine would produce, so rules regenerated from
//!   it (same [`crate::algo::rules_from_itemsets_counted`], same integer
//!   counts, same float divisions) are bit-identical to a cold mine.
//! * **Any confidence change**: rules are re-derived from itemsets, so
//!   confidence refinement is free in both directions — the inventory
//!   does not depend on it.
//! * **Loosened support**: a clean miss — the cache cannot know itemsets
//!   it never mined.
//! * **Source-table deltas** (INSERT/DELETE/UPDATE rows since the cached
//!   version, reported by [`relational::Table::changes_since`]):
//!   incremental re-mining in the FUP style. Supports of cached itemsets
//!   are adjusted for the touched groups only (contained before / now);
//!   itemsets that may have *become* frequent must occur in at least
//!   `min_groups' − min_groups + 1` of the grown/new groups, so only the
//!   small delta is mined for candidates, which are then counted exactly.
//!   A delta beyond the row budget (or crossing a TRUNCATE, which the
//!   table log does not replay) falls back to a full mine.
//!
//! The cache works in *value space*, interned: a [`SourceDigest`] maps
//! each grouping key and each item key — the very `Vec<Value>` keys the
//! fused preprocess pass groups by — to a small integer, and holds every
//! group as a sorted `(item id, row multiplicity)` vector. The fused pass
//! builds the digest from the one scan it makes anyway, so capturing a
//! cold run reads no source row. Because the ids name *values*, not
//! `Bset` identifiers, entries survive re-encoding: a warm serve maps
//! items onto the current `Bid`s right before rule generation, and the
//! pipeline still stores and decodes output tables exactly as a cold run
//! would. Entries are restricted to statements without directives
//! ([`cacheable`]) — the ones whose scan yields a digest; everything else
//! simply misses. Staleness is ruled out by the same per-table version
//! stamps the preprocess cache uses.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

use relational::{Database, Row, Table, TableDelta, Value};

use crate::algo::{rules_from_itemsets_counted, sort_rules, EncodedRule, LargeItemset};
use crate::ast::MineRuleStatement;
use crate::cache::{PreprocessCache, StoreOutcome, MAX_ENTRIES};
use crate::directives::Directives;
use crate::error::Result;
use crate::preprocess::{
    min_groups_for, scan_source, source_columns, PreprocessReport, SourceScan,
};
use crate::translator::Translation;

/// Delta re-mining budget: a delta with more rows than
/// `max(BUDGET_MIN_ROWS, cached rows / 4)` falls back to a full mine.
const BUDGET_MIN_ROWS: usize = 64;

/// Candidate cap for the delta miner: enumerating more than this many
/// delta-frequent itemsets aborts incremental re-mining (full mine).
const MAX_DELTA_CANDIDATES: usize = 4096;

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
/// ids under the `Vec<Value>` equality SQL GROUP BY uses (`1` and `1.0`
/// unify, `0.0` and `-0.0` stay apart, NULLs group together), and each
/// group is a multiset of item ids. Built by the preprocessor's source
/// scan (`preprocess::scan_source`); the mined-result cache replays
/// source-table deltas onto it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDigest {
    /// The source-table version the snapshot stands for.
    version: u64,
    /// Grouping key → slot in `groups`, live groups only.
    group_ids: HashMap<Vec<Value>, u32>,
    /// Item key → item id. Ids are never retired.
    item_ids: HashMap<Vec<Value>, u32>,
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

fn key_of(row: &Row, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&i| row[i].clone()).collect()
}

impl SourceDigest {
    /// Assemble a digest from a scan's dictionaries, its distinct
    /// `(group slot, item id)` pairs, and one more entry in `repeats` for
    /// every further source row of a pair.
    pub(crate) fn new(
        version: u64,
        group_ids: HashMap<Vec<Value>, u32>,
        item_ids: HashMap<Vec<Value>, u32>,
        pairs: &[(u32, u32)],
        repeats: &[(u32, u32)],
    ) -> SourceDigest {
        let mut item_joins = vec![false; item_ids.len()];
        for (key, &id) in &item_ids {
            item_joins[id as usize] = key_joins(key);
        }
        let mut sizes = vec![0usize; group_ids.len()];
        for &(g, _) in pairs {
            sizes[g as usize] += 1;
        }
        let mut groups: Vec<Group> = sizes
            .into_iter()
            .map(|n| Group {
                joins: false,
                items: Vec::with_capacity(n),
            })
            .collect();
        for (key, &slot) in &group_ids {
            groups[slot as usize].joins = key_joins(key);
        }
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
            group_ids,
            item_ids,
            item_joins,
            groups: groups.into_iter().map(Some).collect(),
            rows: (pairs.len() + repeats.len()) as u64,
        }
    }

    /// Live groups (`:totg` of the snapshot).
    fn live_groups(&self) -> u64 {
        self.group_ids.len() as u64
    }

    /// The ids, ascending, of the items a group contributes to itemset
    /// supports: none for a retired or NULL-keyed group.
    fn items_of(&self, slot: u32) -> impl Iterator<Item = u32> + '_ {
        let group = self.groups[slot as usize].as_ref().filter(|g| g.joins);
        group
            .into_iter()
            .flat_map(|g| g.items.iter().map(|&(item, _)| item))
            .filter(|&item| self.item_joins[item as usize])
    }

    fn item_set(&self, slot: u32) -> Vec<u32> {
        self.items_of(slot).collect()
    }

    /// Replay a table delta: inserted rows join (or open) their group,
    /// deleted rows leave it, a group left without rows is retired.
    /// Returns the pre-delta item set of every touched slot, or `None`
    /// when a deleted row cannot be accounted for (the digest and the
    /// table diverged — never expected, but never cache through it). The
    /// digest is torn after a `None`.
    fn apply(
        &mut self,
        delta: &TableDelta,
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
            let g_key = key_of(row, group_cols);
            let slot = match self.group_ids.get(&g_key) {
                Some(&slot) => slot,
                None => {
                    let slot = self.groups.len() as u32;
                    self.groups.push(Some(Group {
                        joins: key_joins(&g_key),
                        items: Vec::new(),
                    }));
                    self.group_ids.insert(g_key, slot);
                    slot
                }
            };
            let i_key = key_of(row, item_cols);
            let item = match self.item_ids.get(&i_key) {
                Some(&item) => item,
                None => {
                    let item = self.item_joins.len() as u32;
                    self.item_joins.push(key_joins(&i_key));
                    self.item_ids.insert(i_key, item);
                    item
                }
            };
            before.entry(slot).or_insert_with(|| self.item_set(slot));
            let items = &mut self.groups[slot as usize].as_mut()?.items;
            match items.binary_search_by_key(&item, |&(i, _)| i) {
                Ok(at) => items[at].1 += 1,
                Err(at) => items.insert(at, (item, 1)),
            }
            self.rows += 1;
        }
        for row in &delta.deleted {
            let g_key = key_of(row, group_cols);
            let slot = *self.group_ids.get(&g_key)?;
            let item = *self.item_ids.get(&key_of(row, item_cols))?;
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
                self.group_ids.remove(&g_key);
            }
        }
        Some(before)
    }

    /// Rough retained size, for the bytes gauge.
    fn approx_bytes(&self) -> u64 {
        let key_bytes = |key: &Vec<Value>| -> u64 {
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
            .keys()
            .chain(self.item_ids.keys())
            .map(key_bytes)
            .sum();
        let groups: u64 = self
            .groups
            .iter()
            .map(|g| 32 + g.as_ref().map_or(0, |g| g.items.len() as u64 * 8))
            .sum();
        dictionaries + groups + self.item_joins.len() as u64
    }
}

/// A cached frequent itemset: sorted digest item ids plus its exact
/// group-support.
#[derive(Debug, Clone, PartialEq)]
struct CachedItemset {
    items: Vec<u32>,
    count: u32,
}

/// One cached mined result with its validity conditions. The source
/// version it answers for is its digest's.
#[derive(Debug)]
struct MineEntry {
    fingerprint: String,
    /// The inventory is complete down to this absolute threshold.
    min_groups: u64,
    /// EXTRACTING thresholds at capture, to tell refines from reruns.
    capture_support: f64,
    capture_confidence: f64,
    /// Shared with the preprocess report it came from; a delta replay
    /// copies it only while someone else still holds it.
    digest: Arc<SourceDigest>,
    inventory: Vec<CachedItemset>,
    bytes: u64,
}

impl MineEntry {
    /// Rough retained size of the entry, for the bytes gauge.
    fn approx_bytes(&self) -> u64 {
        let inventory: u64 = self
            .inventory
            .iter()
            .map(|c| 32 + c.items.len() as u64 * 4)
            .sum();
        self.digest.approx_bytes() + inventory + 256
    }
}

#[derive(Debug, Default)]
struct CacheState {
    /// LRU order: least-recently used first.
    entries: Vec<MineEntry>,
}

impl CacheState {
    /// Insert (or replace) an entry at the most-recently-used end.
    fn put(&mut self, entry: MineEntry) {
        self.entries.retain(|e| e.fingerprint != entry.fingerprint);
        self.entries.push(entry);
    }

    fn bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }
}

/// How a warm serve was produced, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Same snapshot, same thresholds: a plain rerun.
    Hit,
    /// Same snapshot, different thresholds: answered by filtering.
    Refine,
    /// Source delta replayed: answered by incremental re-mining.
    Delta,
}

/// A warm answer: encoded rules bit-identical to what a cold core run
/// would produce at the statement's thresholds and snapshot.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    pub rules: Vec<EncodedRule>,
    pub kind: ServeKind,
}

/// The mined-result cache. Clones share the same store (like
/// [`PreprocessCache`]); a disabled cache never hits and never retains
/// anything.
#[derive(Debug, Clone)]
pub struct MineResultCache {
    inner: Option<Arc<Mutex<CacheState>>>,
}

impl Default for MineResultCache {
    fn default() -> Self {
        MineResultCache::new()
    }
}

impl MineResultCache {
    /// An enabled, empty cache.
    pub fn new() -> MineResultCache {
        MineResultCache {
            inner: Some(Arc::new(Mutex::new(CacheState::default()))),
        }
    }

    /// A cache that never hits and never stores.
    pub fn disabled() -> MineResultCache {
        MineResultCache { inner: None }
    }

    /// Whether lookups and stores do anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of retained mined-result sets.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().unwrap().entries.len(),
            None => 0,
        }
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Try to answer the core-operator phase from the cache. Runs after
    /// preprocessing (cold or restored); on a hit the caller skips
    /// `read_encoded` and the core operator entirely and feeds the
    /// returned rules straight into the postprocessor. `None` means the
    /// caller must mine (and should then [`MineResultCache::store`]).
    pub fn try_serve(
        &self,
        db: &Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
    ) -> Result<Option<ServeOutcome>> {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return Ok(None),
        };
        if !cacheable(translation) {
            return Ok(None);
        }
        let table = match source_table(db, &translation.stmt) {
            Some(table) => table,
            None => return Ok(None),
        };
        let fingerprint = PreprocessCache::fingerprint(&translation.stmt, prefix);
        // The serve works on the entry itself, outside the lock: nothing
        // is copied, and a delta rewrites only the groups it touches.
        let mut entry = {
            let mut state = inner.lock().unwrap();
            match state
                .entries
                .iter()
                .position(|e| e.fingerprint == fingerprint)
            {
                Some(at) => state.entries.remove(at),
                None => return Ok(None),
            }
        };
        let stale = entry.digest.version != table.version();
        let served = serve(&mut entry, db, table, translation, report)?;
        // A delta replay that did not end in a serve leaves the entry
        // half-updated: drop it, the full mine that follows recaptures.
        if served.is_some() || !stale {
            inner.lock().unwrap().put(entry);
        }
        Ok(served)
    }

    /// Capture a cold mine's inventory. `large` is the simple-path
    /// large-itemset inventory the core operator just produced, with its
    /// exact supports. The grouped source comes from the digest the fused
    /// pass left on `report`; failing that from a same-statement entry
    /// already at the table's version (a loosened-support recapture);
    /// only failing both is the source scanned here. A same-fingerprint
    /// entry is replaced; beyond the 8-entry capacity the
    /// least-recently-used entry is evicted. Statements the cache cannot
    /// replay are skipped.
    pub fn store(
        &self,
        db: &Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
        large: &[LargeItemset],
    ) -> StoreOutcome {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return StoreOutcome::default(),
        };
        // Skipped stores still report the retained total, so the bytes
        // gauge never zeroes out under an uncacheable statement.
        let mut outcome = StoreOutcome {
            bytes: inner.lock().unwrap().bytes(),
            ..StoreOutcome::default()
        };
        let stmt = &translation.stmt;
        let table = match source_table(db, stmt) {
            Some(table) if cacheable(translation) && report.total_groups > 0 => table,
            _ => return outcome,
        };
        let fingerprint = PreprocessCache::fingerprint(stmt, prefix);
        let current = |d: &Arc<SourceDigest>| d.version == table.version();
        let digest = report.digest.clone().filter(current).or_else(|| {
            let state = inner.lock().unwrap();
            let entry = state.entries.iter().find(|e| e.fingerprint == fingerprint);
            entry.map(|e| e.digest.clone()).filter(current)
        });
        let digest = match digest {
            Some(digest) => digest,
            None => match scan_source(db, stmt) {
                Ok(SourceScan {
                    rows,
                    digest: Some(digest),
                    ..
                }) => {
                    outcome.source_rows = rows;
                    Arc::new(digest)
                }
                _ => return outcome,
            },
        };
        // The SQL preprocessor must agree on the group universe.
        if digest.live_groups() != report.total_groups {
            return outcome;
        }
        let inventory = match capture_inventory(db, translation, &digest, large) {
            Some(inventory) => inventory,
            None => return outcome,
        };
        let mut entry = MineEntry {
            fingerprint,
            min_groups: report.min_groups,
            capture_support: stmt.min_support,
            capture_confidence: stmt.min_confidence,
            digest,
            inventory,
            bytes: 0,
        };
        entry.bytes = entry.approx_bytes();

        let mut state = inner.lock().unwrap();
        state.put(entry);
        while state.entries.len() > MAX_ENTRIES {
            state.entries.remove(0);
            outcome.evicted += 1;
        }
        outcome.bytes = state.bytes();
        outcome
    }
}

/// Whether the cache can hold the statement: no directive set — a simple
/// statement reading one base table whole (no W, so no join and no source
/// condition) with every group valid (no G). Those are the statements
/// whose source scan builds a [`SourceDigest`].
pub fn cacheable(translation: &Translation) -> bool {
    translation.directives == Directives::default()
}

/// The statement's one FROM table ([`cacheable`] statements have no other).
fn source_table<'a>(db: &'a Database, stmt: &MineRuleStatement) -> Option<&'a Table> {
    db.catalog().table(&stmt.from[0].name).ok()
}

/// Answer the statement from `entry`, bringing it up to the table's
/// version first when the source moved. `None` is a miss; the entry is
/// then intact unless a delta replay had begun (its digest was stale).
fn serve(
    entry: &mut MineEntry,
    db: &Database,
    table: &Table,
    translation: &Translation,
    report: &PreprocessReport,
) -> Result<Option<ServeOutcome>> {
    let stmt = &translation.stmt;
    let kind = if entry.digest.version == table.version() {
        if min_groups_for(entry.digest.live_groups(), stmt.min_support) < entry.min_groups {
            return Ok(None); // loosened support: the inventory is incomplete there
        }
        if stmt.min_support == entry.capture_support
            && stmt.min_confidence == entry.capture_confidence
        {
            ServeKind::Hit
        } else {
            ServeKind::Refine
        }
    } else {
        if apply_delta(entry, table, stmt).is_none() {
            return Ok(None);
        }
        ServeKind::Delta
    };
    // The SQL preprocessor must agree on the group universe; any
    // divergence (or a run that bypassed preprocessing) is a miss.
    let total_groups = entry.digest.live_groups();
    if report.total_groups != total_groups {
        return Ok(None);
    }
    let new_min = min_groups_for(total_groups, stmt.min_support);
    let rules = match extract_rules(db, entry, translation, new_min)? {
        Some(rules) => rules,
        None => return Ok(None),
    };
    entry.capture_support = stmt.min_support;
    entry.capture_confidence = stmt.min_confidence;
    if kind == ServeKind::Delta {
        entry.min_groups = new_min;
        entry.bytes = entry.approx_bytes();
    }
    Ok(Some(ServeOutcome { rules, kind }))
}

/// `(Bid, digest item id)` for every row of the statement's `Bset`: the
/// bridge between the current encoding and the digest's value space.
/// `None` when the table is missing or names an item the digest never saw.
fn bset_items(
    db: &Database,
    translation: &Translation,
    digest: &SourceDigest,
) -> Option<Vec<(u32, u32)>> {
    let bset = db.catalog().table(&translation.names.bset()).ok()?;
    let bid_col = bset.schema().resolve(None, "Bid").ok()?;
    let item_cols: Vec<usize> = translation
        .stmt
        .body
        .schema
        .iter()
        .map(|a| bset.schema().resolve(None, a).ok())
        .collect::<Option<_>>()?;
    bset.rows()
        .iter()
        .map(|row| match &row[bid_col] {
            Value::Int(bid) if *bid >= 0 => {
                let item = digest.item_ids.get(&key_of(row, &item_cols))?;
                Some((*bid as u32, *item))
            }
            _ => None,
        })
        .collect()
}

/// The miner's bid-space inventory in the digest's item-id space, counts
/// taken as mined.
fn capture_inventory(
    db: &Database,
    translation: &Translation,
    digest: &SourceDigest,
    large: &[LargeItemset],
) -> Option<Vec<CachedItemset>> {
    let item_of: HashMap<u32, u32> = bset_items(db, translation, digest)?.into_iter().collect();
    large
        .iter()
        .map(|(set, count)| {
            let mut items: Vec<u32> = set
                .iter()
                .map(|bid| item_of.get(bid).copied())
                .collect::<Option<_>>()?;
            items.sort_unstable();
            Some(CachedItemset {
                items,
                count: *count,
            })
        })
        .collect()
}

/// Whether the sorted `set` contains every one of `items`.
fn contains_all(set: &[u32], items: &[u32]) -> bool {
    items.iter().all(|i| set.binary_search(i).is_ok())
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Replay the source-table delta onto the entry: update the touched
/// groups of its digest, adjust the supports of cached itemsets by their
/// containment in those groups before and now, mine the grown/new groups
/// for borderline candidates and count them exactly. Returns `None`
/// whenever incremental re-mining is unsound or over budget — the caller
/// falls back to a full mine and drops the (possibly torn) entry.
fn apply_delta(entry: &mut MineEntry, table: &Table, stmt: &MineRuleStatement) -> Option<()> {
    let delta = table.changes_since(entry.digest.version)?;
    let budget = (entry.digest.rows as usize / 4).max(BUDGET_MIN_ROWS);
    if delta.row_count() > budget {
        return None;
    }
    let cols = source_columns(table, stmt).ok()?;
    let (group_cols, item_cols) = (cols.group, cols.body);
    // Copy-on-write: in place unless a preprocess report still shares it.
    let digest = Arc::make_mut(&mut entry.digest);
    let before = digest.apply(&delta, &group_cols, &item_cols)?;
    digest.version = table.version();

    // Touched groups whose item set moved, as (before, now); those that
    // gained an item may have lifted new itemsets over the threshold.
    let mut changed: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut grown: Vec<Vec<u32>> = Vec::new();
    for (slot, old) in before {
        let now = digest.item_set(slot);
        if now == old {
            continue; // duplicate-row churn only: the item set is unchanged
        }
        if !contains_all(&old, &now) {
            grown.push(now.clone());
        }
        changed.push((old, now));
    }

    let new_min = min_groups_for(digest.live_groups(), stmt.min_support);
    if new_min < entry.min_groups {
        // The effective threshold loosened (mass deletes): itemsets below
        // the cached pruning line are unknown. Full mine.
        return None;
    }

    for cached in &mut entry.inventory {
        for (old, now) in &changed {
            match (
                contains_all(old, &cached.items),
                contains_all(now, &cached.items),
            ) {
                (true, false) => cached.count -= 1,
                (false, true) => cached.count += 1,
                _ => {}
            }
        }
    }

    // Borderline candidates: an itemset absent from the inventory had
    // support < cached min_groups, so to reach new_min it must occur in
    // at least `t` of the grown/new groups. Mine just those.
    let t = (new_min - entry.min_groups + 1) as usize;
    let mut candidates = mine_delta_candidates(&grown, t)?; // None: blow-up, full mine
    {
        let known: HashSet<&[u32]> = entry.inventory.iter().map(|c| &c.items[..]).collect();
        candidates.retain(|c| !known.contains(&c[..]));
    }
    if !candidates.is_empty() {
        // Exact counts over all live groups, through an inverted index
        // restricted to the candidates' items.
        let mut wanted = vec![false; digest.item_joins.len()];
        for &item in candidates.iter().flatten() {
            wanted[item as usize] = true;
        }
        let mut item_slots: HashMap<u32, Vec<u32>> = HashMap::new();
        for slot in 0..digest.groups.len() as u32 {
            for item in digest.items_of(slot) {
                if wanted[item as usize] {
                    item_slots.entry(item).or_default().push(slot);
                }
            }
        }
        for items in candidates {
            let mut slots = item_slots.get(&items[0]).cloned().unwrap_or_default();
            for item in &items[1..] {
                if slots.is_empty() {
                    break;
                }
                slots = intersect_sorted(&slots, item_slots.get(item).map_or(&[], |s| &s[..]));
            }
            entry.inventory.push(CachedItemset {
                items,
                count: slots.len() as u32,
            });
        }
    }

    // Keep exactly the frequent set at the new threshold: the inventory
    // is complete there (adjusted counts + verified candidates).
    entry.inventory.retain(|c| c.count as u64 >= new_min);
    Some(())
}

/// Enumerate every itemset occurring in at least `t` of the given group
/// item-sets (depth-first with tid-lists over the — small — delta), each
/// sorted. Returns `None` past [`MAX_DELTA_CANDIDATES`].
fn mine_delta_candidates(groups: &[Vec<u32>], t: usize) -> Option<Vec<Vec<u32>>> {
    if groups.is_empty() || t > groups.len() {
        return Some(Vec::new());
    }
    let mut tids: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, set) in groups.iter().enumerate() {
        for &item in set {
            tids.entry(item).or_default().push(i);
        }
    }
    // Ascending item order, so every emitted prefix is already sorted.
    let items: Vec<(u32, Vec<usize>)> = tids
        .into_iter()
        .filter(|(_, tids)| tids.len() >= t)
        .collect();
    let mut out: Vec<Vec<u32>> = Vec::new();

    fn extend(
        items: &[(u32, Vec<usize>)],
        start: usize,
        prefix: &mut Vec<u32>,
        prefix_tids: &[usize],
        t: usize,
        out: &mut Vec<Vec<u32>>,
    ) -> bool {
        for (i, (item, item_tids)) in items.iter().enumerate().skip(start) {
            let tids: Vec<usize> = if prefix.is_empty() {
                item_tids.clone()
            } else {
                prefix_tids
                    .iter()
                    .copied()
                    .filter(|x| item_tids.binary_search(x).is_ok())
                    .collect()
            };
            if tids.len() < t {
                continue;
            }
            prefix.push(*item);
            if out.len() >= MAX_DELTA_CANDIDATES {
                return false;
            }
            out.push(prefix.clone());
            if !extend(items, i + 1, prefix, &tids, t, out) {
                return false;
            }
            prefix.pop();
        }
        true
    }

    let mut prefix = Vec::new();
    if !extend(&items, 0, &mut prefix, &[], t, &mut out) {
        return None;
    }
    Some(out)
}

/// Filter the inventory at the statement's threshold, map item ids onto
/// the current `Bset` identifiers and regenerate rules with the same
/// derivation a cold mine uses — bit-identical output. `None` when an
/// item cannot be mapped (serve as a miss instead).
fn extract_rules(
    db: &Database,
    entry: &MineEntry,
    translation: &Translation,
    new_min: u64,
) -> Result<Option<Vec<EncodedRule>>> {
    let stmt = &translation.stmt;
    let mut bid_of: Vec<Option<u32>> = vec![None; entry.digest.item_joins.len()];
    match bset_items(db, translation, &entry.digest) {
        Some(pairs) => {
            for (bid, item) in pairs {
                bid_of[item as usize] = Some(bid);
            }
        }
        None => return Ok(None),
    }
    let mut large: Vec<LargeItemset> = Vec::new();
    for cached in &entry.inventory {
        if (cached.count as u64) < new_min {
            continue;
        }
        let set: Option<Vec<u32>> = cached.items.iter().map(|&i| bid_of[i as usize]).collect();
        match set {
            Some(mut set) => {
                set.sort_unstable();
                large.push((set, cached.count));
            }
            None => return Ok(None),
        }
    }
    let (mut rules, _) = rules_from_itemsets_counted(
        &large,
        entry.digest.live_groups() as u32,
        stmt.body.card,
        stmt.head.card,
        stmt.min_confidence,
    )?;
    sort_rules(&mut rules);
    Ok(Some(rules))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_op::{run_core, CoreOptions};
    use crate::encoded::read_encoded;
    use crate::paper_example::purchase_db;
    use crate::parser::parse_mine_rule;
    use crate::pipeline::MineRuleEngine;
    use crate::preprocess::preprocess;
    use crate::translator::translate;

    fn stmt_text(support: f64, confidence: f64, output: &str) -> String {
        format!(
            "MINE RULE {output} AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        )
    }

    /// Rules of a cold mine (mined-result cache off) on a freshly built
    /// database with the given extra SQL applied first.
    fn cold_reference(mutations: &[&str], text: &str) -> Vec<crate::postprocess::DecodedRule> {
        let mut db = purchase_db();
        for sql in mutations {
            db.execute(sql).unwrap();
        }
        MineRuleEngine::new()
            .with_minecache(false)
            .execute(&mut db, text)
            .unwrap()
            .rules
    }

    #[test]
    fn refined_thresholds_serve_without_core_work() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let before = engine.metrics_snapshot();
        let warm = engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let after = engine.metrics_snapshot();
        assert_eq!(after.counter("core.minecache.hit"), 1);
        assert_eq!(after.counter("core.minecache.refine"), 1);
        assert_eq!(after.counter("core.minecache.delta"), 0);
        // The core operator never ran on the warm serve: no new levels,
        // no new simple-path dispatch.
        assert_eq!(
            before.counter("core.level.1.generated"),
            after.counter("core.level.1.generated")
        );
        assert_eq!(
            before.counter("core.path.simple"),
            after.counter("core.path.simple")
        );
        assert_eq!(warm.rules, cold_reference(&[], &stmt_text(0.5, 0.4, "R")));
    }

    #[test]
    fn identical_rerun_is_a_plain_hit() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        let cold = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.refine"), 0);
        assert_eq!(warm.rules, cold.rules);
    }

    #[test]
    fn loosened_support_misses_then_recaptures() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let loose = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
        assert_eq!(loose.rules, cold_reference(&[], &stmt_text(0.25, 0.1, "R")));
        // The loose mine replaced the entry, so tightening hits again.
        engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        assert_eq!(engine.metrics_snapshot().counter("core.minecache.hit"), 1);
    }

    #[test]
    fn insert_delete_delta_is_remined_incrementally() {
        let mutations: &[&str] = &[
            "INSERT INTO Purchase VALUES \
             (90, 'c9', 'ski_pants', DATE '1997-01-08', 140, 1), \
             (90, 'c9', 'brown_boots', DATE '1997-01-08', 180, 1)",
            "DELETE FROM Purchase WHERE tr = 1 AND item = 'hiking_boots'",
        ];
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        for sql in mutations {
            db.execute(sql).unwrap();
        }
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.delta"), 1);
        assert_eq!(
            warm.rules,
            cold_reference(mutations, &stmt_text(0.25, 0.1, "R"))
        );
    }

    #[test]
    fn update_delta_is_remined_incrementally() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        // UPDATE logs as a tracked delete+insert pair, so the rerun is
        // served through the incremental delta path.
        db.execute("UPDATE Purchase SET price = price + 1 WHERE tr = 1")
            .unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.delta"), 1);
        assert_eq!(snap.counter("core.minecache.miss"), 1);
        assert_eq!(
            warm.rules,
            cold_reference(
                &["UPDATE Purchase SET price = price + 1 WHERE tr = 1"],
                &stmt_text(0.25, 0.1, "R")
            )
        );
    }

    #[test]
    fn unreplayable_mutations_fall_back_to_a_full_mine() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        // Churn past the bounded change log: the cached stamp's window
        // falls off, so the rerun must miss — and still be correct.
        let mutations = vec!["INSERT INTO Purchase (SELECT * FROM Purchase)"; 9];
        for sql in &mutations {
            db.execute(sql).unwrap();
        }
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.delta"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
        assert_eq!(
            warm.rules,
            cold_reference(&mutations, &stmt_text(0.25, 0.1, "R"))
        );
    }

    #[test]
    fn general_class_statements_bypass_the_cache() {
        let text = "MINE RULE C AS SELECT DISTINCT item AS BODY, item AS HEAD \
                    FROM Purchase GROUP BY customer CLUSTER BY date \
                    EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1";
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, text).unwrap();
        engine.execute(&mut db, text).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
    }

    #[test]
    fn disabled_cache_never_serves_or_counts() {
        let engine = MineRuleEngine::new().with_minecache(false);
        assert!(!engine.minecache_enabled());
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 0);
        assert_eq!(warm.rules, cold_reference(&[], &stmt_text(0.5, 0.4, "R")));
    }

    /// A two-table FROM is directive W: the fused pass declines it (one
    /// scan cannot read a join) and the cache cannot hold it.
    #[test]
    fn joining_from_list_is_w_and_neither_fused_nor_captured() {
        let text = "MINE RULE J AS SELECT DISTINCT category AS BODY, category AS HEAD \
                    FROM Purchase, Product GROUP BY customer \
                    EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1";
        let mut db = purchase_db();
        db.execute("CREATE TABLE Product (pitem VARCHAR, category VARCHAR)")
            .unwrap();
        db.execute("INSERT INTO Product VALUES ('jackets', 'outer'), ('ski_pants', 'snow')")
            .unwrap();
        let translation = translate(&parse_mine_rule(text).unwrap(), db.catalog()).unwrap();
        assert!(translation.directives.w);
        assert!(!crate::preprocess::fusible(&translation));
        assert!(!cacheable(&translation));
        let engine = MineRuleEngine::new();
        engine.execute(&mut db, text).unwrap();
        engine.execute(&mut db, text).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("preprocess.fused_steps"), 0);
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
    }

    // ---- the interned representation, driven layer by layer -------------

    /// Preprocess, mine and capture `text` the way the pipeline does.
    fn capture(
        db: &mut Database,
        cache: &MineResultCache,
        text: &str,
    ) -> (Translation, PreprocessReport, StoreOutcome) {
        let translation = translate(&parse_mine_rule(text).unwrap(), db.catalog()).unwrap();
        let report = preprocess(db, &translation).unwrap();
        let encoded = read_encoded(db, &translation).unwrap();
        let mined = run_core(&encoded, &CoreOptions::default()).unwrap();
        let stored = cache.store(
            db,
            &translation,
            "",
            &report,
            mined.large_itemsets.as_deref().unwrap(),
        );
        (translation, report, stored)
    }

    /// Preprocess `text` and ask the cache for its core phase.
    fn serve_warm(db: &mut Database, cache: &MineResultCache, text: &str) -> Option<ServeKind> {
        let translation = translate(&parse_mine_rule(text).unwrap(), db.catalog()).unwrap();
        let report = preprocess(db, &translation).unwrap();
        let served = cache.try_serve(db, &translation, "", &report).unwrap();
        served.map(|s| s.kind)
    }

    /// The most recently used entry's digest and (sorted) inventory.
    fn newest(cache: &MineResultCache) -> (Arc<SourceDigest>, Vec<CachedItemset>) {
        let state = cache.inner.as_ref().unwrap().lock().unwrap();
        let entry = state.entries.last().expect("an entry was captured");
        let mut inventory = entry.inventory.clone();
        inventory.sort_by(|a, b| a.items.cmp(&b.items));
        (entry.digest.clone(), inventory)
    }

    #[test]
    fn fused_digest_capture_equals_the_fallback_scan() {
        let text = stmt_text(0.25, 0.1, "R");
        let mut db = purchase_db();
        let rows = db.catalog().table("Purchase").unwrap().row_count() as u64;

        let fused = MineResultCache::new();
        let (_, report, stored) = capture(&mut db, &fused, &text);
        assert_eq!(stored.source_rows, 0, "the fused pass already read them");
        let (fused_digest, fused_inventory) = newest(&fused);
        assert!(Arc::ptr_eq(report.digest.as_ref().unwrap(), &fused_digest));

        // Step by step (the reference paths) no digest leaves preprocess,
        // so the capture runs the same scan itself.
        db.set_reference_paths(true);
        let scanned = MineResultCache::new();
        let (_, report, stored) = capture(&mut db, &scanned, &text);
        assert!(report.digest.is_none());
        assert_eq!(stored.source_rows, rows);
        let (scanned_digest, scanned_inventory) = newest(&scanned);
        assert_eq!(*fused_digest, *scanned_digest, "dictionaries + multiset");
        assert_eq!(fused_inventory, scanned_inventory);
        assert!(!fused_inventory.is_empty());
        assert_eq!(fused_digest.rows, rows);
    }

    #[test]
    fn refine_serves_and_same_version_recaptures_share_the_digest() {
        // Fused: the entry holds the very digest the report carried, and
        // warm serves leave it where it is.
        let mut db = purchase_db();
        let cache = MineResultCache::new();
        let (_, report, _) = capture(&mut db, &cache, &stmt_text(0.5, 0.4, "R"));
        let captured = report.digest.unwrap();
        for (support, confidence, kind) in [
            (0.5, 0.7, ServeKind::Refine),
            (0.75, 0.1, ServeKind::Refine),
            (0.75, 0.1, ServeKind::Hit),
        ] {
            let served = serve_warm(&mut db, &cache, &stmt_text(support, confidence, "R"));
            assert_eq!(served, Some(kind));
            assert!(Arc::ptr_eq(&captured, &newest(&cache).0));
        }

        // Step by step: a loosened support misses, and its recapture at
        // the unchanged source version reuses the entry's digest instead
        // of scanning again.
        let mut db = purchase_db();
        db.set_reference_paths(true);
        let cache = MineResultCache::new();
        let (_, _, stored) = capture(&mut db, &cache, &stmt_text(0.5, 0.4, "R"));
        assert!(stored.source_rows > 0);
        let first = newest(&cache).0;
        assert_eq!(
            serve_warm(&mut db, &cache, &stmt_text(0.25, 0.1, "R")),
            None
        );
        let (_, _, stored) = capture(&mut db, &cache, &stmt_text(0.25, 0.1, "R"));
        assert_eq!(stored.source_rows, 0);
        assert!(Arc::ptr_eq(&first, &newest(&cache).0));
        // ... but never across a version change.
        db.execute("DELETE FROM Purchase WHERE tr = 1").unwrap();
        let (_, _, stored) = capture(&mut db, &cache, &stmt_text(0.1, 0.1, "R"));
        assert!(stored.source_rows > 0);
        assert!(!Arc::ptr_eq(&first, &newest(&cache).0));
    }

    #[test]
    fn delta_replay_copies_a_shared_digest_once_then_works_in_place() {
        let text = stmt_text(0.25, 0.1, "R");
        let mut db = purchase_db();
        let cache = MineResultCache::new();
        let (_, report, _) = capture(&mut db, &cache, &text);
        // The report (a caller's `MiningOutcome`) still shares the digest:
        // the first delta must leave that snapshot untouched.
        let held = report.digest.unwrap();
        let snapshot = (*held).clone();
        db.execute("INSERT INTO Purchase VALUES (9, 'c9', 'jackets', DATE '1997-01-08', 300, 1)")
            .unwrap();
        assert_eq!(serve_warm(&mut db, &cache, &text), Some(ServeKind::Delta));
        let after_first = Arc::as_ptr(&newest(&cache).0);
        assert_ne!(after_first, Arc::as_ptr(&held), "copied on write");
        assert_eq!(*held, snapshot, "the shared snapshot is untouched");

        // Nobody else holds the copy, so the second delta rewrites it in
        // place — and still lands on the digest a fresh scan would build.
        db.execute("DELETE FROM Purchase WHERE tr = 2 AND item = 'jackets'")
            .unwrap();
        assert_eq!(serve_warm(&mut db, &cache, &text), Some(ServeKind::Delta));
        let (twice, _) = newest(&cache);
        assert_eq!(Arc::as_ptr(&twice), after_first, "updated in place");
        let stmt = parse_mine_rule(&text).unwrap();
        let rescanned = scan_source(&db, &stmt).unwrap().digest.unwrap();
        assert_eq!(twice.version, rescanned.version);
        assert_eq!(twice.rows, rescanned.rows);
        assert_eq!(twice.live_groups(), rescanned.live_groups());
        for (key, &slot) in &rescanned.group_ids {
            // Slot and item ids are first-seen, so compare through keys.
            let items = |d: &SourceDigest, slot: u32| -> Vec<(Vec<Value>, u32)> {
                let by_id: HashMap<u32, &Vec<Value>> =
                    d.item_ids.iter().map(|(k, &id)| (id, k)).collect();
                let group = d.groups[slot as usize].as_ref().unwrap();
                let mut items: Vec<_> = group
                    .items
                    .iter()
                    .map(|&(item, n)| (by_id[&item].clone(), n))
                    .collect();
                items.sort_by(|a, b| a.0[0].total_cmp(&b.0[0]));
                items
            };
            assert_eq!(
                items(&twice, twice.group_ids[key]),
                items(&rescanned, slot),
                "group {key:?}"
            );
        }
    }

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
        let digest = scan_source(&db, &stmt).unwrap().digest.unwrap();
        assert_eq!(digest.live_groups(), 5, "1|1.0, 0.0, -0.0, NULL, 2.5");
        assert_eq!(digest.rows, 7);
        let slot = |v: Value| digest.group_ids[&vec![v]];
        assert_eq!(slot(Value::Int(1)), slot(Value::Float(1.0)));
        assert_ne!(slot(Value::Float(0.0)), slot(Value::Float(-0.0)));
        let one = digest.item_ids[&vec![Value::Str("1".into())]];
        assert!(!digest.item_ids.contains_key(&vec![Value::Int(1)]));
        // The `1|1.0` group holds item '1' twice; NULLs never join.
        assert_eq!(
            digest.groups[slot(Value::Int(1)) as usize]
                .as_ref()
                .unwrap()
                .items,
            vec![(one, 2)]
        );
        assert_eq!(digest.item_set(slot(Value::Int(1))), vec![one]);
        assert!(digest.item_set(slot(Value::Null)).is_empty());
        assert!(digest.item_set(slot(Value::Float(2.5))).is_empty());
        let a = digest.item_ids[&vec![Value::Str("a".into())]];
        assert_eq!(digest.item_set(slot(Value::Float(0.0))), vec![a]);
    }

    #[test]
    fn delta_candidate_miner_enumerates_exactly() {
        // Items x = 7, y = 8, z = 9.
        let groups = [vec![7, 8, 9], vec![7, 8], vec![8]];
        let mut found = mine_delta_candidates(&groups, 2).unwrap();
        found.sort();
        assert_eq!(found, vec![vec![7], vec![7, 8], vec![8]]);
        assert!(mine_delta_candidates(&groups, 4).unwrap().is_empty());
    }
}
